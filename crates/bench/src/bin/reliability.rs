//! **Reliability bench (DESIGN.md §10)**: the reliable-transport sweep —
//! degrade-only CRC framing vs full ARQ recovery under combined frame
//! drops and byte corruption.
//!
//! For each fault level the sweep runs the staged hierarchy twice: once
//! with corrupt frames merely discarded into deadline degradation
//! (`ReliabilityConfig::crc`), once with ack/retransmit recovery
//! (`ReliabilityConfig::arq`). The headline comparison is against the
//! fault-free default run: ARQ must reproduce its predictions exactly on
//! every sample that was not degraded or timed out, while degrade-only
//! measurably loses accuracy; the table also prices the recovery —
//! retransmitted frames, ack bytes and total wire bytes per sample.
//!
//! Emits machine-readable `results/BENCH_reliability.json` alongside the
//! table. Pass `--smoke` (or set `DDNN_BENCH_SMOKE=1`) for a
//! seconds-long run on a test-set subset.

use ddnn_bench::harness::{epochs_from_args, format_table, pct, train_and_evaluate};
use ddnn_bench::util::{smoke_mode, write_results_json};
use ddnn_bench::ExperimentContext;
use ddnn_core::{DdnnConfig, ExitThreshold, TrainConfig};
use ddnn_runtime::{
    run_distributed_inference, ChaosPlan, DeadlineConfig, HierarchyConfig, Impairment,
    ReliabilityConfig, SampleOutcome, SimReport,
};
use ddnn_tensor::Tensor;

/// One sweep measurement, ready for both the table and the JSON artifact.
struct Row {
    mode: &'static str,
    drop_prob: f64,
    corrupt_prob: f64,
    accuracy: f32,
    degraded: f32,
    timed_out: usize,
    corrupt_discards: usize,
    retransmits: usize,
    ack_bytes: usize,
    bytes_per_sample: f64,
    clean_samples: usize,
    clean_mismatches: usize,
}

/// Counts how many non-degraded, classified samples diverge from the
/// fault-free reference — ARQ's exactness claim, degrade-only's loss.
fn clean_divergence(report: &SimReport, reference: &SimReport) -> (usize, usize) {
    let mut clean = 0usize;
    let mut mismatches = 0usize;
    for i in 0..report.predictions.len() {
        if report.degraded_samples.contains(&(i as u64)) {
            continue;
        }
        if !matches!(report.outcomes[i], SampleOutcome::Classified) {
            continue;
        }
        clean += 1;
        if report.predictions[i] != reference.predictions[i]
            || report.exits[i] != reference.exits[i]
        {
            mismatches += 1;
        }
    }
    (clean, mismatches)
}

fn wire_bytes(report: &SimReport) -> usize {
    report.links.iter().map(|(_, s)| s.payload_bytes + s.header_bytes + s.ack_bytes).sum()
}

fn main() {
    let smoke = smoke_mode();
    let epochs = epochs_from_args(if smoke { 2 } else { 40 });
    let ctx = ExperimentContext::paper().expect("dataset generation");
    let trained = train_and_evaluate(
        &ctx,
        DdnnConfig::paper(),
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

    // Deadlines sized like the chaos suite: aggregation long enough that
    // ARQ recovery (5ms timer, 20ms backoff cap) finishes well inside it.
    let deadlines =
        DeadlineConfig { aggregation_ms: 150, watchdog_ms: 800, max_retries: 2, suspect_after: 2 };

    let reference = run_distributed_inference(&part, &views, &labels, &HierarchyConfig::default())
        .expect("fault-free reference run");
    println!(
        "Fault-free reference ({n} samples): overall {:.1}%, {:.0} wire bytes/sample",
        reference.accuracy * 100.0,
        wire_bytes(&reference) as f64 / n as f64
    );

    // (drop, corrupt) fault levels; the (0.2, 0.05) point is the ISSUE's
    // acceptance scenario. The 0.0 level prices the pure protocol
    // overhead (checked headers + acks) with nothing to recover.
    let levels: &[(f64, f64)] =
        if smoke { &[(0.2, 0.05)] } else { &[(0.0, 0.0), (0.1, 0.02), (0.2, 0.05), (0.3, 0.10)] };
    let mut rows: Vec<Row> = Vec::new();
    for &(drop_prob, corrupt_prob) in levels {
        for (mode, reliability) in
            [("degrade-only", ReliabilityConfig::crc()), ("arq", ReliabilityConfig::arq())]
        {
            let cfg = HierarchyConfig {
                chaos: ChaosPlan::links(
                    41,
                    Impairment {
                        drop: drop_prob as f32,
                        corrupt: corrupt_prob as f32,
                        ..Impairment::none()
                    },
                ),
                deadlines: Some(deadlines),
                reliability,
                ..HierarchyConfig::default()
            };
            let report =
                run_distributed_inference(&part, &views, &labels, &cfg).expect("sweep run");
            let (clean_samples, clean_mismatches) = clean_divergence(&report, &reference);
            rows.push(Row {
                mode,
                drop_prob,
                corrupt_prob,
                accuracy: report.accuracy,
                degraded: report.degraded_fraction,
                timed_out: report.timed_out_count(),
                corrupt_discards: report.corrupt_frames_discarded,
                retransmits: report.links.iter().map(|(_, s)| s.frames_retransmitted).sum(),
                ack_bytes: report.links.iter().map(|(_, s)| s.ack_bytes).sum(),
                bytes_per_sample: wire_bytes(&report) as f64 / n as f64,
                clean_samples,
                clean_mismatches,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.0}%", r.drop_prob * 100.0),
                format!("{:.0}%", r.corrupt_prob * 100.0),
                pct(r.accuracy),
                pct(r.degraded),
                r.timed_out.to_string(),
                r.corrupt_discards.to_string(),
                r.retransmits.to_string(),
                format!("{:.0}", r.bytes_per_sample),
                format!("{}/{}", r.clean_samples - r.clean_mismatches, r.clean_samples),
            ]
        })
        .collect();
    println!(
        "\nReliability sweep ({} mode, {n} samples, {epochs} epochs, T=0.8)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{}",
        format_table(
            &[
                "Transport",
                "Drop",
                "Corrupt",
                "Overall (%)",
                "Degraded (%)",
                "Timeouts",
                "Discards",
                "Retransmits",
                "Bytes/sample",
                "Clean exact",
            ],
            &table,
        )
    );

    // Hand-rolled JSON keeps the artifact dependency-free.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"samples\": {n},\n"));
    json.push_str(&format!(
        "  \"reference\": {{\"accuracy\": {:.4}, \"bytes_per_sample\": {:.1}}},\n",
        reference.accuracy,
        wire_bytes(&reference) as f64 / n as f64
    ));
    json.push_str("  \"sweeps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"drop_prob\": {}, \"corrupt_prob\": {}, \
             \"accuracy\": {:.4}, \"degraded_fraction\": {:.4}, \"timed_out\": {}, \
             \"corrupt_discards\": {}, \"retransmits\": {}, \"ack_bytes\": {}, \
             \"bytes_per_sample\": {:.1}, \"clean_samples\": {}, \"clean_mismatches\": {}}}{}\n",
            r.mode,
            r.drop_prob,
            r.corrupt_prob,
            r.accuracy,
            r.degraded,
            r.timed_out,
            r.corrupt_discards,
            r.retransmits,
            r.ack_bytes,
            r.bytes_per_sample,
            r.clean_samples,
            r.clean_mismatches,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_results_json("results/BENCH_reliability.json", &json);
}
