//! Chaos tests of the dynamic fault-injection layer: seeded drops,
//! duplicates, jitter and mid-run crashes must never hang the runtime;
//! deadline-based degradation must reproduce the paper's static
//! fault-tolerance semantics; and duplicate frames must change nothing.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    run_distributed_inference, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, DeadlineConfig,
    HierarchyConfig, Impairment, RuntimeError, SampleOutcome,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;

/// `device` dies after transmitting `after_frames` frames.
fn crash_after(plan: ChaosPlan, device: usize, after_frames: u64) -> ChaosPlan {
    plan.with(ChaosWhen::AfterFrames(after_frames), ChaosTarget::Device(device), ChaosAction::Down)
}

fn small_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        cloud_filters: [4, 8],
        ..DdnnConfig::default()
    })
}

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

/// Generous deadlines for determinism-sensitive tests: long enough that a
/// loaded CI machine cannot produce spurious substitutions, short enough
/// that genuine losses resolve quickly.
fn safe_deadlines() -> DeadlineConfig {
    DeadlineConfig { aggregation_ms: 150, watchdog_ms: 1500, max_retries: 2, suspect_after: 2 }
}

#[test]
fn chaotic_runs_always_terminate() {
    // The acceptance scenario: 10% frame drops plus a mid-run device
    // crash (and some duplication and jitter for good measure). The run
    // must complete and report its degradation honestly, for every seed.
    let model = small_model();
    let views = random_views(8, 3, 20);
    let labels = vec![0usize; 8];
    for seed in [1u64, 2, 3] {
        let cfg = HierarchyConfig {
            local_threshold: ExitThreshold::new(0.5),
            chaos: crash_after(
                ChaosPlan::links(
                    seed,
                    Impairment { drop: 0.1, duplicate: 0.05, delay_ms: 2, ..Impairment::none() },
                ),
                2,
                5,
            ),
            deadlines: Some(DeadlineConfig::fast()),
            ..HierarchyConfig::default()
        };
        let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        assert_eq!(report.predictions.len(), 8);
        assert_eq!(report.outcomes.len(), 8);
        assert_eq!(report.device_timeouts.len(), 3);
        assert!((0.0..=1.0).contains(&report.degraded_fraction), "seed {seed}");
        // The crashed device dies after 5 transmitted frames, so some of
        // its 8 score frames were swallowed somewhere.
        let dropped: usize = report.links.iter().map(|(_, s)| s.frames_dropped).sum();
        assert!(dropped > 0, "seed {seed}: no frame was ever dropped");
        // A swallowed frame forces blank substitution (degradation) or an
        // orchestrator retry; either way the run terminated.
        assert!(
            report.degraded_fraction > 0.0
                || report.capture_retries > 0
                || report.timed_out_count() > 0,
            "seed {seed}: faults left no trace"
        );
    }
}

#[test]
fn chaotic_edge_hierarchy_terminates() {
    let cfg = DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        ..DdnnConfig::default()
    };
    let model = Ddnn::new(cfg);
    let views = random_views(6, 2, 21);
    let labels = vec![0usize; 6];
    let hier = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.3), // force offloads through the edge
        edge_threshold: ExitThreshold::new(0.5),
        chaos: crash_after(
            ChaosPlan::links(
                9,
                Impairment { drop: 0.15, duplicate: 0.1, delay_ms: 1, ..Impairment::none() },
            ),
            0,
            4,
        ),
        deadlines: Some(DeadlineConfig::fast()),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &hier).unwrap();
    assert_eq!(report.predictions.len(), 6);
}

#[test]
fn dynamic_crash_matches_static_failure_exactly() {
    // A device that crashes before its first frame is, to the aggregators,
    // the same thing as a statically failed device — deadline-driven blank
    // substitution must therefore reproduce the static path bit for bit.
    let model = small_model();
    let views = random_views(8, 3, 22);
    let labels = vec![1usize; 8];
    let t = ExitThreshold::new(0.5);
    let static_report = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig {
            local_threshold: t,
            failed_devices: vec![1],
            ..HierarchyConfig::default()
        },
    )
    .unwrap();
    let dynamic_report = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig {
            local_threshold: t,
            chaos: crash_after(ChaosPlan { seed: 5, events: vec![] }, 1, 0),
            deadlines: Some(safe_deadlines()),
            ..HierarchyConfig::default()
        },
    )
    .unwrap();
    assert_eq!(dynamic_report.predictions, static_report.predictions);
    assert_eq!(dynamic_report.exits, static_report.exits);
    assert_eq!(dynamic_report.accuracy, static_report.accuracy);
    // The dynamic run had to *discover* the failure: the dead device is
    // charged a substitution per sample at the gateway, and the degraded
    // fraction reflects every sample.
    assert!(dynamic_report.device_timeouts[1] >= 8);
    assert_eq!(dynamic_report.device_timeouts[0], 0);
    assert_eq!(dynamic_report.degraded_fraction, 1.0);
    assert_eq!(static_report.degraded_fraction, 0.0, "static failure is not degradation");
    assert_eq!(dynamic_report.timed_out_count(), 0);
}

#[test]
fn duplicates_change_nothing_and_are_accounted_once() {
    // Every frame delivered twice: predictions, exits and sample outcomes
    // must match the clean run, and the stats must attribute the doubling
    // to frames_duplicated rather than silently inflating unique traffic.
    let model = small_model();
    let views = random_views(8, 3, 23);
    let labels = vec![2usize; 8];
    let t = ExitThreshold::new(0.5);
    let clean = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() },
    )
    .unwrap();
    let noisy = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig {
            local_threshold: t,
            chaos: ChaosPlan::links(13, Impairment { duplicate: 1.0, ..Impairment::none() }),
            deadlines: Some(safe_deadlines()),
            ..HierarchyConfig::default()
        },
    )
    .unwrap();
    assert_eq!(noisy.predictions, clean.predictions);
    assert_eq!(noisy.exits, clean.exits);
    assert!(noisy.outcomes.iter().all(|o| *o == SampleOutcome::Classified));
    assert_eq!(noisy.degraded_fraction, 0.0, "duplicates must not degrade anything");
    for (name, stats) in &noisy.links {
        assert_eq!(stats.frames_dropped, 0, "{name}");
        // With duplicate_prob = 1.0 every send is delivered exactly twice.
        assert_eq!(
            stats.frames,
            2 * stats.frames_duplicated,
            "{name}: frames={} duplicated={}",
            stats.frames,
            stats.frames_duplicated
        );
    }
}

#[test]
fn fault_free_runs_match_byte_for_byte_under_any_deadlines() {
    // Without faults no deadline fires, so the default budgets and
    // tighter ones run the same frames to the same verdicts.
    let model = small_model();
    let views = random_views(8, 3, 24);
    let labels = vec![0usize; 8];
    let t = ExitThreshold::new(0.5);
    let run = |deadlines| {
        let cfg = HierarchyConfig { local_threshold: t, deadlines, ..HierarchyConfig::default() };
        run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap()
    };
    let (default, safe) = (run(None), run(Some(safe_deadlines())));
    assert_eq!(safe.predictions, default.predictions);
    assert_eq!(safe.exits, default.exits);
    assert_eq!(safe.links, default.links, "traffic diverged without any fault injected");
    for report in [&default, &safe] {
        assert_eq!(report.degraded_fraction, 0.0);
        assert_eq!(report.capture_retries, 0);
        assert!(report.device_timeouts.iter().all(|&t| t == 0));
    }
}

#[test]
fn mismatched_baseline_batch_is_a_config_error() {
    let model = small_model();
    let views = random_views(4, 3, 26);
    let labels = vec![0usize; 3]; // 4 samples per view, 3 labels
    let err = ddnn_runtime::run_cloud_only_baseline(
        &model.partition(),
        &views,
        &labels,
        &ddnn_runtime::HierarchyConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }));
}

#[test]
fn timed_out_samples_surface_as_typed_errors() {
    // Drop *everything*: no sample can ever resolve, so the watchdog must
    // bound each one and report a typed timeout instead of hanging.
    let model = small_model();
    let views = random_views(2, 3, 27);
    let labels = vec![0usize; 2];
    let report = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig {
            chaos: ChaosPlan::links(3, Impairment { drop: 1.0, ..Impairment::none() }),
            deadlines: Some(DeadlineConfig {
                aggregation_ms: 20,
                watchdog_ms: 60,
                max_retries: 1,
                suspect_after: 1,
            }),
            ..HierarchyConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.timed_out_count(), 2);
    assert_eq!(report.degraded_fraction, 1.0);
    assert_eq!(report.accuracy, 0.0);
    for i in 0..2 {
        let err = report.sample_result(i).unwrap_err();
        assert!(matches!(err, RuntimeError::Timeout { .. }), "sample {i}: {err}");
    }
    assert!(report.capture_retries >= 2, "each sample retries at least once");
}
