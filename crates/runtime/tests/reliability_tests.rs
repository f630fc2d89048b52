//! Integration tests of the reliability layer: CRC-checked framing that
//! discards corrupt frames into deadline degradation, ARQ recovery that
//! reproduces the fault-free run under drop and corruption faults, stats
//! accounting for retransmit traffic, and configuration validation.

use ddnn_core::{Ddnn, DdnnConfig, ExitThreshold};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, ChaosPlan, DeadlineConfig, HierarchyConfig,
    Impairment, ReliabilityConfig, SampleOutcome, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;

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

/// Generous deadlines: long enough that a loaded CI machine cannot
/// produce spurious substitutions, short enough that recovery is quick.
fn safe_deadlines() -> DeadlineConfig {
    DeadlineConfig { aggregation_ms: 150, watchdog_ms: 1500, max_retries: 2, suspect_after: 2 }
}

/// The acceptance-criteria fault plan: 20% drops plus 5% corruption.
fn lossy_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::links(seed, Impairment { drop: 0.2, corrupt: 0.05, ..Impairment::none() })
}

#[test]
fn arq_reproduces_the_fault_free_run_for_undegraded_samples() {
    // The ISSUE acceptance scenario: under 20% drops and 5% corruption,
    // ARQ recovery must make every sample that was neither degraded nor
    // timed out classify exactly like the fault-free run.
    let model = small_model();
    let n = 10;
    let views = random_views(n, 3, 30);
    let labels = vec![0usize; n];
    let part = model.partition();
    let clean_cfg =
        HierarchyConfig { local_threshold: ExitThreshold::new(0.5), ..HierarchyConfig::default() };
    let reference = run_distributed_inference(&part, &views, &labels, &clean_cfg).unwrap();

    for seed in [11u64, 12, 13] {
        let cfg = HierarchyConfig {
            local_threshold: ExitThreshold::new(0.5),
            chaos: lossy_plan(seed),
            deadlines: Some(safe_deadlines()),
            reliability: ReliabilityConfig::arq(),
            ..HierarchyConfig::default()
        };
        let report = run_distributed_inference(&part, &views, &labels, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        let mut exact = 0usize;
        for i in 0..n {
            if report.degraded_samples.contains(&(i as u64)) {
                continue;
            }
            if !matches!(report.outcomes[i], SampleOutcome::Classified) {
                continue;
            }
            assert_eq!(
                report.predictions[i], reference.predictions[i],
                "seed {seed}: sample {i} prediction diverged from the fault-free run"
            );
            assert_eq!(
                report.exits[i], reference.exits[i],
                "seed {seed}: sample {i} exit diverged from the fault-free run"
            );
            exact += 1;
        }
        // Recovery must actually work: most samples resolve cleanly.
        assert!(exact >= n / 2, "seed {seed}: only {exact}/{n} samples recovered exactly");
        // And it must work by retransmission, not luck: the 20% drop rate
        // guarantees losses, so recovered traffic has to show up in stats.
        let retx: usize = report.links.iter().map(|(_, s)| s.frames_retransmitted).sum();
        let acks: usize = report.links.iter().map(|(_, s)| s.ack_bytes).sum();
        assert!(retx > 0, "seed {seed}: no frame was ever retransmitted");
        assert!(acks > 0, "seed {seed}: no ack traffic was accounted");
    }
}

#[test]
fn arq_runs_are_deterministic_for_a_fixed_seed() {
    let model = small_model();
    let views = random_views(8, 3, 31);
    let labels = vec![0usize; 8];
    let part = model.partition();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: lossy_plan(17),
        deadlines: Some(safe_deadlines()),
        reliability: ReliabilityConfig::arq(),
        ..HierarchyConfig::default()
    };
    let a = run_distributed_inference(&part, &views, &labels, &cfg).unwrap();
    let b = run_distributed_inference(&part, &views, &labels, &cfg).unwrap();
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.exits, b.exits);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.degraded_samples, b.degraded_samples);
    // Retransmit counts may differ run to run (the 5ms timer races real
    // scheduling), but the classification outcome above may not.
}

#[test]
fn arq_without_faults_matches_the_crc_only_run() {
    // A clean ARQ run pays ack overhead but must classify identically to
    // the default CRC-only run, with nothing degraded.
    let model = small_model();
    let views = random_views(8, 3, 32);
    let labels = vec![2usize; 8];
    let part = model.partition();
    let crc_only =
        HierarchyConfig { local_threshold: ExitThreshold::new(0.5), ..HierarchyConfig::default() };
    let arq = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        deadlines: Some(safe_deadlines()),
        reliability: ReliabilityConfig::arq(),
        ..HierarchyConfig::default()
    };
    let a = run_distributed_inference(&part, &views, &labels, &crc_only).unwrap();
    let b = run_distributed_inference(&part, &views, &labels, &arq).unwrap();
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.exits, b.exits);
    assert_eq!(b.degraded_samples, Vec::<u64>::new());
    assert_eq!(b.corrupt_frames_discarded, 0);
    assert!(b.outcomes.iter().all(|o| matches!(o, SampleOutcome::Classified)));
    // No assertion on retransmit counts: on a loaded machine the 5ms
    // retransmit timer can fire spuriously; dedup makes that harmless.
}

#[test]
fn crc_mode_discards_corruption_into_degradation() {
    // Degrade-only: corrupt frames are detected and dropped, and the
    // deadline machinery absorbs the loss — degradation, retries or
    // timeouts, but never a wrong frame handed to a node.
    let model = small_model();
    let views = random_views(10, 3, 33);
    let labels = vec![0usize; 10];
    let part = model.partition();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan::links(5, Impairment { drop: 0.2, corrupt: 0.15, ..Impairment::none() }),
        deadlines: Some(safe_deadlines()),
        reliability: ReliabilityConfig::crc(),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&part, &views, &labels, &cfg).unwrap();
    let corrupted: usize = report.links.iter().map(|(_, s)| s.frames_corrupted).sum();
    assert!(corrupted > 0, "the fault layer never corrupted a frame");
    assert!(report.corrupt_frames_discarded > 0, "no corrupt frame was discarded");
    assert!(
        report.degraded_fraction > 0.0
            || report.capture_retries > 0
            || report.timed_out_count() > 0,
        "heavy loss and corruption left no degradation trace"
    );
    // Degrade-only never retransmits.
    let retx: usize = report.links.iter().map(|(_, s)| s.frames_retransmitted).sum();
    assert_eq!(retx, 0);
}

#[test]
fn truncated_frames_are_discarded() {
    let model = small_model();
    let views = random_views(8, 3, 34);
    let labels = vec![0usize; 8];
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan::links(6, Impairment { truncate: 0.15, ..Impairment::none() }),
        deadlines: Some(safe_deadlines()),
        reliability: ReliabilityConfig::crc(),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    assert_eq!(report.predictions.len(), 8);
    assert!(report.corrupt_frames_discarded > 0, "no truncated frame was discarded");
}

#[test]
fn arq_retransmits_the_cloud_only_baselines_corrupt_frames() {
    // The cloud-offload baseline ships large raw-image frames, so a
    // modest corruption rate hits nearly every frame. Seed 18 is chosen
    // so the per-link fault streams corrupt at least one primary on
    // every device link (seed 7 happened to draw zero corruptions
    // across all 24 frames, leaving nothing to retransmit).
    let model = small_model();
    let views = random_views(6, 3, 35);
    let labels = vec![0usize; 6];
    let cfg = HierarchyConfig {
        chaos: ChaosPlan::links(18, Impairment { corrupt: 0.2, ..Impairment::none() }),
        deadlines: Some(safe_deadlines()),
        reliability: ReliabilityConfig::arq(),
        ..HierarchyConfig::default()
    };
    let report = run_cloud_only_baseline(&model.partition(), &views, &labels, &cfg).unwrap();
    assert_eq!(report.predictions.len(), 6);
    let retx: usize = report.links.iter().map(|(_, s)| s.frames_retransmitted).sum();
    assert!(retx > 0, "corrupted raw-image frames were never retransmitted");
}

#[test]
fn corruption_faults_require_a_checked_wire_format() {
    // Every wire is checked: the default configuration accepts byte
    // damage and discards what the CRC catches.
    let model = small_model();
    let views = random_views(4, 3, 37);
    let labels = vec![0usize; 4];
    let cfg = HierarchyConfig {
        chaos: ChaosPlan::links(1, Impairment { corrupt: 0.2, ..Impairment::none() }),
        deadlines: Some(safe_deadlines()),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    assert_eq!(report.predictions.len(), 4);
    assert!(report.corrupt_frames_discarded > 0, "no corrupt frame was discarded");
}

#[test]
fn runs_without_explicit_deadlines_resolve_every_sample() {
    // `deadlines: None` runs on the default budgets: ARQ under seeded
    // link drops and a TCP run both run, and every sample resolves.
    let model = small_model();
    let n = 6;
    let views = random_views(n, 3, 38);
    let labels = vec![0usize; n];
    let arq = HierarchyConfig {
        chaos: ChaosPlan::links(19, Impairment { drop: 0.2, ..Impairment::none() }),
        reliability: ReliabilityConfig::arq(),
        ..HierarchyConfig::default()
    };
    let tcp = HierarchyConfig { transport: TransportConfig::Tcp, ..HierarchyConfig::default() };
    for cfg in [arq, tcp] {
        assert_eq!(cfg.deadlines, None);
        let r = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
        let resolved = r.classified_count() + r.shed_count() + r.timed_out_count();
        assert_eq!(resolved, n, "{}", cfg.transport.name());
    }
}
