//! **Transport bench (DESIGN.md §14)**: the cost of a real dataplane —
//! goodput and tail latency of the identical streamed workload over the
//! in-process channel, localhost TCP, and localhost UDP, all under the
//! ARQ wire so only the transport varies between cells.
//!
//! Each cell streams the same seeded edge hierarchy open-loop
//! ([`StreamConfig`], paced above service capacity, admission window
//! wide open so nothing sheds) and measures wall-clock goodput plus the
//! classified latency percentiles —
//! which in streaming mode are *measured* arrival-to-verdict times, so
//! socket hops, reader threads and ARQ acks all show up in the tail.
//! Verdicts must agree across every cell: the dataplane may move the
//! clock, never the math.
//!
//! Emits `results/BENCH_transport.json`. Pass `--smoke` (or set
//! `DDNN_BENCH_SMOKE=1`) for a seconds-long run on fewer samples, which
//! writes `target/smoke/BENCH_transport.json` instead, so a smoke run never
//! overwrites the committed full-run artifact.

use ddnn_bench::harness::format_table;
use ddnn_bench::util::{classified_latencies, percentile, smoke_mode, write_results_json};
use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    run_distributed_inference, ArrivalProcess, DeadlineConfig, HierarchyConfig, ReliabilityConfig,
    SampleOutcome, SimReport, StreamConfig, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::time::Instant;

/// Where a smoke run's artifact goes: under the ignored build directory.
const SMOKE_PATH: &str = "target/smoke/BENCH_transport.json";

struct Cell {
    transport: TransportConfig,
    samples: usize,
    classified: usize,
    timed_out: usize,
    wall_s: f64,
    goodput_sps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn run_cell(
    model: &Ddnn,
    views: &[Tensor],
    labels: &[usize],
    transport: TransportConfig,
) -> (Cell, SimReport) {
    let n = labels.len();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig {
            aggregation_ms: 150,
            watchdog_ms: 4000,
            max_retries: 1,
            suspect_after: 2,
        }),
        // ARQ on every cell: the wire format (and its ack traffic) is
        // held constant so the cells differ only in the dataplane.
        reliability: ReliabilityConfig::arq(),
        transport,
        // Paced well above service capacity (the pipeline drains a few
        // hundred samples/s), so goodput is pipeline-bound — but not an
        // instantaneous flood, which would overrun the kernel's UDP
        // receive buffer faster than the ARQ window can recover.
        stream: Some(StreamConfig {
            arrival: ArrivalProcess::Fixed { rate_per_s: 1500.0 },
            queue_cap: n,
            batch_max: 8,
        }),
        ..HierarchyConfig::default()
    };
    let t0 = Instant::now();
    let report = run_distributed_inference(&model.partition(), views, labels, &cfg)
        .unwrap_or_else(|e| panic!("{} cell failed: {e}", transport.name()));
    let wall_s = t0.elapsed().as_secs_f64();
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    let timed_out =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count();
    let lat = classified_latencies(&report);
    let cell = Cell {
        transport,
        samples: n,
        classified,
        timed_out,
        wall_s,
        goodput_sps: classified as f64 / wall_s,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
    };
    (cell, report)
}

fn main() {
    let smoke = smoke_mode();
    let n = if smoke { 48 } else { 512 };
    // A seeded (untrained) edge hierarchy: transport cost does not care
    // about model quality, only about frames, bytes and hops.
    let model = Ddnn::new(DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        seed: 11,
        ..DdnnConfig::default()
    });
    let mut rng = rng_from_seed(6);
    let views: Vec<Tensor> =
        (0..2).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();

    let mut cells = Vec::new();
    let mut verdicts: Vec<Vec<usize>> = Vec::new();
    for transport in [TransportConfig::Channel, TransportConfig::Tcp, TransportConfig::Udp] {
        let (cell, report) = run_cell(&model, &views, &labels, transport);
        assert_eq!(
            cell.classified,
            cell.samples,
            "{}: a paced localhost run must classify everything",
            transport.name()
        );
        verdicts.push(report.predictions.clone());
        cells.push(cell);
    }
    assert!(
        verdicts.iter().all(|v| v == &verdicts[0]),
        "the dataplane may move the clock, never the verdicts"
    );

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.transport.name().to_string(),
                c.samples.to_string(),
                c.timed_out.to_string(),
                format!("{:.3}", c.wall_s),
                format!("{:.0}", c.goodput_sps),
                format!("{:.2}", c.p50_ms),
                format!("{:.2}", c.p95_ms),
                format!("{:.2}", c.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "transport",
                "samples",
                "timed_out",
                "wall_s",
                "goodput_sps",
                "p50_ms",
                "p95_ms",
                "p99_ms"
            ],
            &rows,
        )
    );

    let mut json =
        String::from("{\n  \"bench\": \"transport\",\n  \"wire\": \"arq\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"samples\": {}, \"classified\": {}, \
             \"timed_out\": {}, \"wall_s\": {:.4}, \"goodput_sps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            c.transport.name(),
            c.samples,
            c.classified,
            c.timed_out,
            c.wall_s,
            c.goodput_sps,
            c.p50_ms,
            c.p95_ms,
            c.p99_ms,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = if smoke { SMOKE_PATH } else { "results/BENCH_transport.json" };
    write_results_json(path, &json);
}
