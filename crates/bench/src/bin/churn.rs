//! **Churn bench (DESIGN.md §12)**: continuous-membership-churn sweep —
//! accuracy and tail latency vs churn rate, CRC-only transport vs ARQ.
//!
//! Each churn level runs the staged hierarchy under a seeded
//! [`ChaosPlan::flapping`] plan that keeps two devices, the gateway
//! and the edge tier crashing and rejoining for the whole run, with the
//! elastic control plane re-parenting survivors between samples. The
//! headline claim is the no-cliff property: accuracy degrades smoothly as
//! the flapping period shrinks, every sample still resolves to a typed
//! outcome, and the p95 end-to-end latency stays bounded by the deadline
//! budget rather than growing with the churn rate.
//!
//! Emits machine-readable `results/BENCH_churn.json` alongside the table.
//! Pass `--smoke` (or set `DDNN_BENCH_SMOKE=1`) for a seconds-long run on
//! a test-set subset.

use ddnn_bench::harness::{epochs_from_args, format_table, pct, train_and_evaluate};
use ddnn_bench::util::{classified_latencies, percentile, smoke_mode, write_results_json};
use ddnn_bench::ExperimentContext;
use ddnn_core::{AggregationScheme, DdnnConfig, EdgeConfig, ExitThreshold, TrainConfig};
use ddnn_runtime::{
    run_distributed_inference, ChaosPlan, ChaosTarget, DeadlineConfig, ElasticConfig,
    HierarchyConfig, ReliabilityConfig, SampleOutcome, SimReport,
};
use ddnn_tensor::Tensor;

/// One sweep measurement, ready for both the table and the JSON artifact.
struct Row {
    mode: &'static str,
    period: u64,
    churn_events: usize,
    accuracy: f32,
    degraded: f32,
    timed_out: usize,
    p50_ms: f64,
    p95_ms: f64,
    epochs: u64,
    reparents: u64,
    leaves: u64,
    stale_discards: u64,
}

/// Every sample must resolve to a typed outcome — churn may degrade or
/// time out samples, but never lose them.
fn assert_all_accounted(report: &SimReport, n: usize) {
    assert_eq!(report.outcomes.len(), n, "every sample has a typed outcome");
    assert_eq!(report.latencies_ms.len(), n, "one latency per sample");
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    assert!(classified > 0, "churn never blanks the whole run");
}

fn main() {
    let smoke = smoke_mode();
    let epochs = epochs_from_args(if smoke { 2 } else { 40 });
    let ctx = ExperimentContext::paper().expect("dataset generation");
    // The three-exit hierarchy (device -> edge -> cloud): churn needs an
    // intermediate tier so reparenting around a dead hop is exercised.
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

    // Smoke mode keeps the full pipeline but a fraction of the samples.
    let n = if smoke { 24.min(ctx.test_labels.len()) } else { ctx.test_labels.len() };
    let indices: Vec<usize> = (0..n).collect();
    let views: Vec<Tensor> =
        ctx.test_views.iter().map(|v| v.select_axis0(&indices).expect("test subset")).collect();
    let labels: Vec<usize> = ctx.test_labels[..n].to_vec();

    // The flapping pool: two devices, the gateway and the edge tier keep
    // bouncing; the terminal cloud tier stays up so every escalation path
    // ends somewhere.
    let targets = [
        ChaosTarget::Device(0),
        ChaosTarget::Device(3),
        ChaosTarget::Gateway,
        ChaosTarget::Tier("edge".to_string()),
    ];
    // Deadlines sized like the churn chaos suite: detection costs two
    // heartbeat sweeps, the watchdog bounds any undetected-silence window.
    let deadlines =
        DeadlineConfig { aggregation_ms: 150, watchdog_ms: 800, max_retries: 1, suspect_after: 2 };

    // Flapping periods, longest (gentlest) first; 0 is the churn-free
    // elastic baseline. A period of p with down_for 2 means each target
    // spends roughly 2/p of the run dark.
    let periods: &[u64] = if smoke { &[0, 8] } else { &[0, 16, 8, 4] };
    let mut rows: Vec<Row> = Vec::new();
    for &period in periods {
        let churn = if period == 0 {
            ChaosPlan::none()
        } else {
            ChaosPlan::flapping(97, n as u64, &targets, period, 2)
        };
        for (mode, reliability) in
            [("crc", ReliabilityConfig::crc()), ("arq", ReliabilityConfig::arq())]
        {
            let cfg = HierarchyConfig {
                chaos: churn.clone(),
                deadlines: Some(deadlines),
                elastic: Some(ElasticConfig::fast()),
                reliability,
                ..HierarchyConfig::default()
            };
            let report =
                run_distributed_inference(&part, &views, &labels, &cfg).expect("churn sweep run");
            assert_all_accounted(&report, n);
            let elastic = report.elastic.clone().expect("elastic summary");
            // Percentiles over samples that actually classified: a
            // timed-out sample's "latency" is the watchdog budget, not an
            // end-to-end measurement.
            let lat = classified_latencies(&report);
            rows.push(Row {
                mode,
                period,
                churn_events: churn.events.len(),
                accuracy: report.accuracy,
                degraded: report.degraded_fraction,
                timed_out: report.timed_out_count(),
                p50_ms: percentile(&lat, 0.50),
                p95_ms: percentile(&lat, 0.95),
                epochs: elastic.epochs,
                reparents: elastic.reparents,
                leaves: elastic.member_leaves,
                stale_discards: elastic.stale_epoch_discards,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                if r.period == 0 { "none".to_string() } else { format!("1/{}", r.period) },
                r.churn_events.to_string(),
                pct(r.accuracy),
                pct(r.degraded),
                r.timed_out.to_string(),
                format!("{:.1}", r.p50_ms),
                format!("{:.1}", r.p95_ms),
                r.epochs.to_string(),
                r.reparents.to_string(),
                r.stale_discards.to_string(),
            ]
        })
        .collect();
    println!(
        "\nChurn sweep ({} mode, {n} samples, {epochs} epochs, flapping down_for=2)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{}",
        format_table(
            &[
                "Transport",
                "Churn rate",
                "Events",
                "Overall (%)",
                "Degraded (%)",
                "Timeouts",
                "p50 (ms)",
                "p95 (ms)",
                "Epochs",
                "Reparents",
                "Stale drops",
            ],
            &table,
        )
    );

    // Hand-rolled JSON keeps the artifact dependency-free.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"samples\": {n},\n"));
    json.push_str("  \"sweeps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"period\": {}, \"churn_events\": {}, \
             \"accuracy\": {:.4}, \"degraded_fraction\": {:.4}, \"timed_out\": {}, \
             \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"epochs\": {}, \"reparents\": {}, \
             \"member_leaves\": {}, \"stale_epoch_discards\": {}}}{}\n",
            r.mode,
            r.period,
            r.churn_events,
            r.accuracy,
            r.degraded,
            r.timed_out,
            r.p50_ms,
            r.p95_ms,
            r.epochs,
            r.reparents,
            r.leaves,
            r.stale_discards,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_results_json("results/BENCH_churn.json", &json);
}
