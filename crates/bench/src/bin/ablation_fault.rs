//! **Ablation (DESIGN.md §6)**: failure encoding — blank-grey substitution
//! (the dataset's "object not present" value, what DDNN trains on) vs a
//! zero image (a regime the aggregators never saw).
//!
//! Expectation: blank substitution degrades gracefully (the paper's
//! automatic fault tolerance); zero substitution is measurably worse,
//! showing the fault tolerance comes from the *encoding match*, not luck.
//!
//! A second sweep exercises the *dynamic* fault model (DESIGN.md "Fault
//! model"): the same device crashes mid-run after a varying number of
//! transmitted frames, and the deadline-driven runtime discovers the death
//! and degrades by blank substitution. A crash before the first frame must
//! land on the static-failure accuracy; later crashes interpolate between
//! the healthy and failed regimes, with the degraded fraction tracking the
//! portion of the run the device was dead for.

use ddnn_bench::harness::{
    epochs_from_args, format_table, pct, train_and_evaluate, ExperimentContext,
};
use ddnn_core::{
    evaluate_overall, fail_devices_with, DdnnConfig, ExitThreshold, TrainConfig, BLANK_INPUT_VALUE,
};
use ddnn_runtime::{
    run_distributed_inference, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, DeadlineConfig,
    HierarchyConfig,
};

fn main() {
    let epochs = epochs_from_args(40);
    let ctx = ExperimentContext::paper().expect("dataset generation");
    let mut trained = train_and_evaluate(
        &ctx,
        DdnnConfig::paper(),
        &TrainConfig { epochs, ..TrainConfig::default() },
        ExitThreshold::default(),
    )
    .expect("training");
    let t = ExitThreshold::default();
    let healthy = evaluate_overall(&mut trained.model, &ctx.test_views, &ctx.test_labels, t, None)
        .expect("evaluation");
    println!("No failure: overall {:.1}%", healthy.accuracy * 100.0);

    let mut rows = Vec::new();
    for (name, value) in
        [("blank grey (trained encoding)", BLANK_INPUT_VALUE), ("zeros (mismatched)", 0.0)]
    {
        for failed in [vec![5usize], vec![5, 4], vec![5, 4, 3]] {
            let views = fail_devices_with(&ctx.test_views, &failed, value).expect("injection");
            let e = evaluate_overall(&mut trained.model, &views, &ctx.test_labels, t, None)
                .expect("evaluation");
            rows.push(vec![
                name.to_string(),
                failed.iter().map(|d| (d + 1).to_string()).collect::<Vec<_>>().join(","),
                pct(e.accuracy),
                pct(e.local_exit_fraction),
            ]);
        }
    }
    println!("\nAblation — failure encoding ({epochs} epochs, T=0.8)");
    println!(
        "{}",
        format_table(&["Substitution", "Failed devices", "Overall (%)", "Local exit (%)"], &rows)
    );

    // Dynamic sweep: device 6 crashes after N transmitted frames and the
    // deadline runtime has to notice. One frame per sample at minimum, so
    // N indexes roughly "how far into the test set the device survived".
    let part = trained.model.partition();
    let n = ctx.test_labels.len();
    let crash_device = ctx.num_devices() - 1;
    let mut rows = Vec::new();
    let static_ref = run_distributed_inference(
        &part,
        &ctx.test_views,
        &ctx.test_labels,
        &HierarchyConfig { failed_devices: vec![crash_device], ..HierarchyConfig::default() },
    )
    .expect("static reference run");
    rows.push(vec![
        "static failure (reference)".to_string(),
        pct(static_ref.accuracy),
        pct(static_ref.local_exit_fraction),
        pct(static_ref.degraded_fraction),
        format!("{}/{n}", static_ref.classified_count()),
        static_ref.device_timeouts[crash_device].to_string(),
        static_ref.capture_retries.to_string(),
    ]);
    for after_frames in [0, n as u64 / 4, n as u64 / 2, n as u64, u64::MAX] {
        let cfg = HierarchyConfig {
            chaos: ChaosPlan { seed: 77, events: vec![] }.with(
                ChaosWhen::AfterFrames(after_frames),
                ChaosTarget::Device(crash_device),
                ChaosAction::Down,
            ),
            deadlines: Some(DeadlineConfig::default()),
            ..HierarchyConfig::default()
        };
        let report = run_distributed_inference(&part, &ctx.test_views, &ctx.test_labels, &cfg)
            .expect("dynamic crash run");
        let label = if after_frames == u64::MAX {
            "no crash".to_string()
        } else {
            format!("crash after {after_frames} frames")
        };
        rows.push(vec![
            label,
            pct(report.accuracy),
            pct(report.local_exit_fraction),
            pct(report.degraded_fraction),
            format!("{}/{n}", report.classified_count()),
            report.device_timeouts[crash_device].to_string(),
            report.capture_retries.to_string(),
        ]);
    }
    println!("Ablation — dynamic crash of device {} ({n} test samples, T=0.8)", crash_device + 1);
    println!(
        "{}",
        format_table(
            &[
                "Fault",
                "Overall (%)",
                "Local exit (%)",
                "Degraded (%)",
                "Classified",
                "Substitutions",
                "Retries",
            ],
            &rows,
        )
    );
}
