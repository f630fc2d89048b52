//! **Throughput bench (DESIGN.md §13)**: open-loop offered-load sweep —
//! goodput and tail latency vs arrival rate, micro-batched tier compute
//! vs per-sample.
//!
//! Every cell streams the test set at a configured arrival rate through
//! the staged hierarchy ([`StreamConfig`]) instead of the closed-loop
//! lockstep feed, with exit thresholds pinned low so nearly every sample
//! escalates through the full tier chain — the regime where tier GEMM
//! time, not early exits, bounds throughput. The headline claims:
//!
//! - **Saturation speedup**: under flood load, `batch_max = 8` raises
//!   goodput ≥ 1.5× over `batch_max = 1` — micro-batching amortizes
//!   per-call XNOR packing and dispatch across the batch — at equal
//!   accuracy (batching is bit-identical per-row arithmetic).
//! - **Bounded tails**: classified p99 never exceeds the watchdog budget;
//!   overload is absorbed by typed shedding, not by growing queues.
//! - **Conservation**: at every offered load, every arrival is exactly
//!   one of classified / shed / timed out.
//!
//! The sweep also proves streaming composes with the reliable transport
//! (CRC-only vs ARQ wire) and the elastic control plane (on/off).
//!
//! Emits machine-readable `results/BENCH_throughput.json` alongside the
//! table. Pass `--smoke` (or set `DDNN_BENCH_SMOKE=1`) for a seconds-long
//! run on a test-set subset.

use ddnn_bench::harness::{epochs_from_args, format_table, pct, train_and_evaluate};
use ddnn_bench::util::{classified_latencies, percentile, smoke_mode, write_results_json};
use ddnn_bench::ExperimentContext;
use ddnn_core::{
    AggregationScheme, DdnnConfig, DdnnPartition, EdgeConfig, ExitThreshold, TrainConfig,
};
use ddnn_runtime::{
    run_distributed_inference, ArrivalProcess, DeadlineConfig, ElasticConfig, HierarchyConfig,
    ReliabilityConfig, SampleOutcome, SimReport, StreamConfig,
};
use ddnn_tensor::Tensor;
use std::time::Instant;

/// One sweep measurement, ready for both the table and the JSON artifact.
struct Cell {
    wire: &'static str,
    elastic: bool,
    /// Offered arrival rate in samples/s; `None` is the flood cell (all
    /// samples due immediately, admission window the full test set).
    rate: Option<f64>,
    batch_max: usize,
    queue_cap: usize,
    classified: usize,
    shed: usize,
    timed_out: usize,
    wall_s: f64,
    goodput_sps: f64,
    accuracy: f32,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Typed-outcome census; the conservation law every cell must obey.
fn outcome_counts(report: &SimReport) -> (usize, usize, usize) {
    let mut counts = (0usize, 0usize, 0usize);
    for o in &report.outcomes {
        match o {
            SampleOutcome::Classified => counts.0 += 1,
            SampleOutcome::Shed => counts.1 += 1,
            SampleOutcome::TimedOut { .. } => counts.2 += 1,
        }
    }
    counts
}

/// Accuracy over the samples that actually classified — shed and
/// timed-out samples never produced a verdict to score.
fn classified_accuracy(report: &SimReport, labels: &[usize]) -> f32 {
    let (mut classified, mut correct) = (0usize, 0usize);
    for (i, label) in labels.iter().enumerate() {
        if matches!(report.outcomes[i], SampleOutcome::Classified) {
            classified += 1;
            if report.predictions[i] == *label {
                correct += 1;
            }
        }
    }
    if classified == 0 {
        0.0
    } else {
        correct as f32 / classified as f32
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    part: &DdnnPartition,
    views: &[Tensor],
    labels: &[usize],
    deadlines: DeadlineConfig,
    wire: &'static str,
    elastic: bool,
    rate: Option<f64>,
    batch_max: usize,
    queue_cap: usize,
) -> (Cell, SimReport) {
    let arrival = match rate {
        Some(rate_per_s) => ArrivalProcess::Fixed { rate_per_s },
        // Flood: arrivals due "immediately" — offered load far beyond
        // service capacity, bounded only by the admission window.
        None => ArrivalProcess::Fixed { rate_per_s: 1e6 },
    };
    let cfg = HierarchyConfig {
        // Thresholds pinned low: nearly everything escalates through the
        // edge to the cloud, so the sweep stresses tier compute.
        local_threshold: ExitThreshold::new(0.05),
        edge_threshold: ExitThreshold::new(0.05),
        deadlines: Some(deadlines),
        elastic: elastic.then(ElasticConfig::fast),
        reliability: if wire == "arq" {
            ReliabilityConfig::arq()
        } else {
            ReliabilityConfig::crc()
        },
        stream: Some(StreamConfig { arrival, queue_cap, batch_max }),
        ..HierarchyConfig::default()
    };
    let t0 = Instant::now();
    let report = run_distributed_inference(part, views, labels, &cfg).expect("throughput cell");
    let wall_s = t0.elapsed().as_secs_f64();
    let n = labels.len();
    let (classified, shed, timed_out) = outcome_counts(&report);
    assert_eq!(
        classified + shed + timed_out,
        n,
        "conservation: every arrival is classified, shed or timed out"
    );
    let lat = classified_latencies(&report);
    let budget_ms = u64::from(deadlines.max_retries + 1) * deadlines.watchdog_ms;
    let p99 = percentile(&lat, 0.99);
    // +1 ms absorbs scheduler jitter on the expiry wakeup; the discipline
    // itself caps a classified sample's measured latency at the budget.
    assert!(
        p99 <= budget_ms as f64 + 1.0,
        "classified p99 ({p99:.1} ms) must stay within the watchdog budget ({budget_ms} ms)"
    );
    let cell = Cell {
        wire,
        elastic,
        rate,
        batch_max,
        queue_cap,
        classified,
        shed,
        timed_out,
        wall_s,
        goodput_sps: classified as f64 / wall_s,
        accuracy: classified_accuracy(&report, labels),
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: p99,
    };
    (cell, report)
}

fn main() {
    let smoke = smoke_mode();
    let epochs = epochs_from_args(if smoke { 2 } else { 40 });
    let ctx = ExperimentContext::paper().expect("dataset generation");
    // Three-exit hierarchy (device -> edge -> cloud): batching must help
    // at every aggregating hop, not just the terminal one.
    let trained = train_and_evaluate(
        &ctx,
        DdnnConfig {
            edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
            ..DdnnConfig::paper()
        },
        &TrainConfig { epochs, ..TrainConfig::default() },
        ExitThreshold::default(),
    )
    .expect("training");
    let part = trained.model.partition();

    let n = if smoke { 48.min(ctx.test_labels.len()) } else { ctx.test_labels.len() };
    let indices: Vec<usize> = (0..n).collect();
    let views: Vec<Tensor> =
        ctx.test_views.iter().map(|v| v.select_axis0(&indices).expect("test subset")).collect();
    let labels: Vec<usize> = ctx.test_labels[..n].to_vec();

    // Budget sized so an unsheddable flood of n samples can drain without
    // timing out the tail at batch_max = 1.
    let deadlines =
        DeadlineConfig { aggregation_ms: 150, watchdog_ms: 4000, max_retries: 1, suspect_after: 2 };
    let batch = 8usize;

    let mut cells: Vec<Cell> = Vec::new();

    // Saturation: flood the pipeline with the admission window wide open
    // (queue_cap = n, nothing sheds), per-sample vs micro-batched. Each
    // flood cell keeps the faster of two repetitions: competing load can
    // only slow a run down, so best-of filters machine noise out of the
    // speedup claim.
    let flood = |bm: usize| {
        let (a, _) = run_cell(&part, &views, &labels, deadlines, "crc", false, None, bm, n);
        let (b, _) = run_cell(&part, &views, &labels, deadlines, "crc", false, None, bm, n);
        if a.goodput_sps >= b.goodput_sps {
            a
        } else {
            b
        }
    };
    let flood_b1 = flood(1);
    let flood_bn = flood(batch);
    let speedup = flood_bn.goodput_sps / flood_b1.goodput_sps;
    assert!(
        flood_b1.timed_out == 0 && flood_bn.timed_out == 0,
        "flood cells must drain inside the watchdog budget"
    );
    assert!(
        (flood_bn.accuracy - flood_b1.accuracy).abs() < 1e-6,
        "micro-batching must not move accuracy (bit-identical per-row math): \
         {} vs {}",
        flood_bn.accuracy,
        flood_b1.accuracy
    );
    // The speedup claim needs real parallelism to show: on a single
    // hardware thread the tier workers timeshare one core and batching
    // has no dispatch to amortize, so the bar is only enforced where it
    // can physically hold (CI runners and any real measurement box).
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores >= 2 {
        assert!(
            speedup >= 1.5,
            "micro-batching (batch_max={batch}) must raise saturation goodput >= 1.5x \
             over batch_max=1, measured {speedup:.2}x \
             ({:.0} vs {:.0} samples/s)",
            flood_bn.goodput_sps,
            flood_b1.goodput_sps
        );
    } else {
        println!(
            "note: single hardware thread — saturation speedup measured {speedup:.2}x, \
             1.5x bar not enforced"
        );
    }
    // Calibrate the offered-load ladder to the measured per-sample
    // service rate so the sweep brackets the knee on any machine.
    let base = flood_b1.goodput_sps;
    let ladder: &[f64] = if smoke { &[0.5] } else { &[0.25, 0.5, 1.0, 2.0] };
    let cap = 32.min(n);
    let mut unsaturated: Vec<(usize, SimReport)> = Vec::new();
    for &mult in ladder {
        for bm in [1usize, batch] {
            let (cell, report) = run_cell(
                &part,
                &views,
                &labels,
                deadlines,
                "crc",
                false,
                Some(base * mult),
                bm,
                cap,
            );
            if mult <= 0.5 {
                unsaturated.push((bm, report));
            }
            cells.push(cell);
        }
    }
    // At an unsaturated rate batching must be invisible sample by sample:
    // identical predictions wherever both runs classified.
    if let [(_, a), (_, b)] = &unsaturated[..2] {
        for i in 0..n {
            if matches!(a.outcomes[i], SampleOutcome::Classified)
                && matches!(b.outcomes[i], SampleOutcome::Classified)
            {
                assert_eq!(
                    a.predictions[i], b.predictions[i],
                    "sample {i}: batched verdict diverged from per-sample"
                );
            }
        }
    }
    cells.insert(0, flood_bn);
    cells.insert(0, flood_b1);

    // Compatibility: the streaming engine composes with the reliable
    // transport and the elastic control plane; conservation and bounded
    // tails are asserted inside run_cell for every combination.
    for (wire, elastic) in [("crc", true), ("arq", false), ("arq", true)] {
        let (cell, _) = run_cell(
            &part,
            &views,
            &labels,
            deadlines,
            wire,
            elastic,
            Some(base * 0.5),
            batch,
            cap,
        );
        cells.push(cell);
    }

    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.wire.to_string(),
                if c.elastic { "on" } else { "off" }.to_string(),
                c.rate.map_or("flood".to_string(), |r| format!("{r:.0}")),
                c.batch_max.to_string(),
                c.queue_cap.to_string(),
                format!("{}/{}/{}", c.classified, c.shed, c.timed_out),
                format!("{:.0}", c.goodput_sps),
                pct(c.accuracy),
                format!("{:.2}", c.p50_ms),
                format!("{:.2}", c.p95_ms),
                format!("{:.2}", c.p99_ms),
            ]
        })
        .collect();
    println!(
        "\nThroughput sweep ({} mode, {n} samples, {epochs} epochs, \
         saturation speedup {speedup:.2}x)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{}",
        format_table(
            &[
                "Transport",
                "Elastic",
                "Rate (sps)",
                "Batch",
                "Cap",
                "Cls/Shed/TO",
                "Goodput",
                "Acc (%)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
            ],
            &table,
        )
    );

    // Hand-rolled JSON keeps the artifact dependency-free.
    let budget_ms = u64::from(deadlines.max_retries + 1) * deadlines.watchdog_ms;
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"samples\": {n},\n"));
    json.push_str(&format!("  \"budget_ms\": {budget_ms},\n"));
    json.push_str(&format!("  \"saturation_speedup\": {speedup:.3},\n"));
    json.push_str("  \"sweeps\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"wire\": \"{}\", \"elastic\": {}, \"rate_sps\": {}, \
             \"batch_max\": {}, \"queue_cap\": {}, \"classified\": {}, \"shed\": {}, \
             \"timed_out\": {}, \"wall_s\": {:.3}, \"goodput_sps\": {:.1}, \
             \"accuracy_classified\": {:.4}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}}}{}\n",
            c.wire,
            c.elastic,
            c.rate.map_or("null".to_string(), |r| format!("{r:.1}")),
            c.batch_max,
            c.queue_cap,
            c.classified,
            c.shed,
            c.timed_out,
            c.wall_s,
            c.goodput_sps,
            c.accuracy,
            c.p50_ms,
            c.p95_ms,
            c.p99_ms,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_results_json("results/BENCH_throughput.json", &json);
}
