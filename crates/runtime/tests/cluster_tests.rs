//! Integration tests of the distributed hierarchy: the simulator must
//! compute exactly what the in-process model computes, and its measured
//! traffic must match the paper's analytic communication model (Eq. 1).

use ddnn_core::{
    AggregationScheme, CommCostModel, Ddnn, DdnnConfig, EdgeConfig, ExitPoint, ExitThreshold,
};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, DeadlineConfig, HierarchyConfig,
    RuntimeError, SimReport,
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

/// Runs `model`'s partition fault-free and asserts no deadline fired: a
/// host stalled past a budget fails here, saying so, rather than as a
/// verdict mismatch.
fn distributed(
    model: &Ddnn,
    views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> SimReport {
    let report = run_distributed_inference(&model.partition(), views, labels, cfg).unwrap();
    assert_nothing_fired(&report);
    report
}

fn assert_nothing_fired(report: &SimReport) {
    assert_eq!(report.capture_retries, 0, "a watchdog slice ran out");
    let timeouts = &report.device_timeouts;
    assert!(timeouts.iter().all(|&t| t == 0), "deadlines fired: {timeouts:?}");
    assert_eq!(report.degraded_fraction, 0.0, "a sample was degraded");
}

#[test]
fn distributed_matches_in_process_inference_exactly() {
    let mut model = small_model();
    let views = random_views(12, 3, 0);
    let labels = vec![0usize; 12];
    let t = ExitThreshold::new(0.5);
    let expected = model.infer(&views, t, None).unwrap();
    let cfg = HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() };
    let report = distributed(&model, &views, &labels, &cfg);
    assert_eq!(report.predictions, expected.predictions);
    assert_eq!(report.exits, expected.exits);
}

#[test]
fn distributed_matches_in_process_for_all_aggregation_schemes() {
    for local in AggregationScheme::ALL {
        for cloud in AggregationScheme::ALL {
            let mut cfg = DdnnConfig::with_aggregation(local, cloud);
            cfg.num_devices = 2;
            cfg.device_filters = 2;
            cfg.cloud_filters = [4, 8];
            let mut model = Ddnn::new(cfg);
            let views = random_views(5, 2, 7);
            let labels = vec![1usize; 5];
            let t = ExitThreshold::new(0.6);
            let expected = model.infer(&views, t, None).unwrap();
            let hier = HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() };
            let report = distributed(&model, &views, &labels, &hier);
            assert_eq!(report.predictions, expected.predictions, "{local}-{cloud}");
            assert_eq!(report.exits, expected.exits, "{local}-{cloud}");
        }
    }
}

#[test]
fn measured_bytes_match_eq1() {
    let mut model = small_model();
    let views = random_views(10, 3, 1);
    let labels = vec![2usize; 10];
    let t = ExitThreshold::new(0.5);
    let report = distributed(
        &model,
        &views,
        &labels,
        &HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() },
    );
    let comm = CommCostModel::from_config(model.config());
    let n = 10usize;
    let offloaded = report.exits.iter().filter(|&&e| e != ExitPoint::Local).count();
    // Every sample: 4·|C| bytes per device. Every offloaded sample:
    // f·o/8 feature bytes per device, plus the 6-byte shape preamble the
    // wire format adds (not part of Eq. 1).
    let expected_payload =
        3 * (n * comm.summary_bytes() + offloaded * (comm.feature_map_bytes() + 6));
    assert_eq!(report.device_payload_bytes(), expected_payload);
    // And the in-process inference agrees on the offload count.
    let expected = model.infer(&views, t, None).unwrap();
    let model_offloaded = expected.exits.iter().filter(|&&e| e != ExitPoint::Local).count();
    assert_eq!(offloaded, model_offloaded);
}

#[test]
fn no_feature_traffic_when_everything_exits_locally() {
    let model = small_model();
    let views = random_views(6, 3, 2);
    let labels = vec![0usize; 6];
    let report = distributed(
        &model,
        &views,
        &labels,
        &HierarchyConfig { local_threshold: ExitThreshold::new(1.0), ..HierarchyConfig::default() },
    );
    assert_eq!(report.local_exit_fraction, 1.0);
    for (name, stats) in &report.links {
        if name.contains("->cloud") {
            assert_eq!(stats.payload_bytes, 0, "unexpected cloud traffic on {name}");
        }
    }
}

#[test]
fn failed_device_matches_blank_input_semantics() {
    // The runtime substitutes the failed device's blank signature; the
    // in-process equivalent feeds a blank view through the same device.
    let mut model = small_model();
    let views = random_views(8, 3, 3);
    let labels = vec![1usize; 8];
    let t = ExitThreshold::new(0.5);
    let failed = vec![1usize];
    let blanked = ddnn_core::fail_devices(&views, &failed).unwrap();
    let expected = model.infer(&blanked, t, None).unwrap();
    // The failure is known before the run, so no deadline is involved:
    // nobody waits for the device, and nothing counts as degradation.
    let started = std::time::Instant::now();
    let cfg = HierarchyConfig {
        local_threshold: t,
        failed_devices: failed,
        ..HierarchyConfig::default()
    };
    let report = distributed(&model, &views, &labels, &cfg);
    let wall_ms = started.elapsed().as_millis();
    assert_eq!(report.predictions, expected.predictions);
    assert_eq!(report.exits, expected.exits);
    assert!(report.degraded_samples.is_empty());
    let budget = u128::from(DeadlineConfig::default().aggregation_ms);
    assert!(wall_ms < budget, "{wall_ms} ms: an aggregation deadline was waited out");
    // The failed device sends nothing.
    for (name, stats) in &report.links {
        if name.starts_with("device1->") {
            assert_eq!(stats.frames, 0, "failed device sent frames on {name}");
        }
    }
}

#[test]
fn all_devices_failed_is_a_config_error() {
    let model = small_model();
    let views = random_views(2, 3, 4);
    let labels = vec![0usize; 2];
    let err = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig { failed_devices: vec![0, 1, 2], ..HierarchyConfig::default() },
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }));
}

#[test]
fn zero_budgets_are_config_errors() {
    // Each would blank, expire or retry every sample at once; no retry
    // at all is a legal budget.
    let model = small_model();
    let views = random_views(2, 3, 11);
    let labels = vec![0usize; 2];
    let dl = DeadlineConfig::default();
    for (name, zeroed) in [
        ("aggregation_ms", DeadlineConfig { aggregation_ms: 0, ..dl }),
        ("watchdog_ms", DeadlineConfig { watchdog_ms: 0, ..dl }),
        ("suspect_after", DeadlineConfig { suspect_after: 0, ..dl }),
    ] {
        let cfg = HierarchyConfig { deadlines: Some(zeroed), ..HierarchyConfig::default() };
        let err = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap_err();
        assert!(matches!(&err, RuntimeError::Config { reason } if reason.contains(name)), "{err}");
    }
    let no_retry = Some(DeadlineConfig { max_retries: 0, ..dl });
    let report = distributed(
        &model,
        &views,
        &labels,
        &HierarchyConfig { deadlines: no_retry, ..HierarchyConfig::default() },
    );
    assert_eq!(report.classified_count(), 2);
}

#[test]
fn out_of_range_failure_is_a_config_error() {
    let model = small_model();
    let views = random_views(2, 3, 5);
    let labels = vec![0usize; 2];
    let err = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig { failed_devices: vec![9], ..HierarchyConfig::default() },
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }));
}

#[test]
fn edge_hierarchy_runs_and_matches_in_process() {
    let mut cfg = DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        ..DdnnConfig::default()
    };
    cfg.seed = 11;
    let mut model = Ddnn::new(cfg);
    let views = random_views(10, 2, 6);
    let labels = vec![0usize; 10];
    let tl = ExitThreshold::new(0.4);
    let te = ExitThreshold::new(0.7);
    let expected = model.infer(&views, tl, Some(te)).unwrap();
    let report = distributed(
        &model,
        &views,
        &labels,
        &HierarchyConfig { local_threshold: tl, edge_threshold: te, ..HierarchyConfig::default() },
    );
    assert_eq!(report.predictions, expected.predictions);
    assert_eq!(report.exits, expected.exits);
}

#[test]
fn latency_of_local_exits_is_lower() {
    let mut model = small_model();
    let views = random_views(16, 3, 8);
    let labels = vec![0usize; 16];
    // Pick a threshold that splits the batch.
    let t = ExitThreshold::new(0.5);
    let expected = model.infer(&views, t, None).unwrap();
    let local = expected.exit_fraction(ExitPoint::Local);
    if local == 0.0 || local == 1.0 {
        // Untrained model may not split; nothing to compare.
        return;
    }
    let report = distributed(
        &model,
        &views,
        &labels,
        &HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() },
    );
    assert!(report.mean_local_latency_ms < report.mean_offload_latency_ms);
}

#[test]
fn cloud_only_baseline_sends_raw_images_and_matches_cloud_exit() {
    let mut model = small_model();
    let views = random_views(7, 3, 9);
    let labels = vec![0usize; 7];
    let report =
        run_cloud_only_baseline(&model.partition(), &views, &labels, &HierarchyConfig::default())
            .unwrap();
    assert_nothing_fired(&report);
    // 3072 bytes per device per sample.
    for (name, stats) in &report.links {
        if name.starts_with("device") {
            assert_eq!(stats.payload_bytes, 7 * 3072, "{name}");
        }
    }
    // Predictions match forcing every sample through the cloud exit, up to
    // the 8-bit image quantization of the wire format.
    let expected = model.predict_at(&views, ExitPoint::Cloud).unwrap();
    let agree = report.predictions.iter().zip(&expected).filter(|(a, b)| a == b).count();
    assert!(agree >= 6, "baseline diverged from cloud exit: {agree}/7");
}

#[test]
fn report_accounting_helpers() {
    let model = small_model();
    let views = random_views(4, 3, 10);
    let labels = vec![0usize; 4];
    let report = distributed(&model, &views, &labels, &HierarchyConfig::default());
    let fracs = report.exit_fraction(ExitPoint::Local) + report.exit_fraction(ExitPoint::Cloud);
    assert!((fracs - 1.0).abs() < 1e-6);
    assert!(report.device_payload_per_sample(3) > 0.0);
}

#[test]
fn sim_report_is_invariant_to_thread_count() {
    // The worker-pool size must never change what the simulated hierarchy
    // computes or measures (DESIGN.md §8.2); this test owns the env-var
    // mutation so it stays self-contained within this process.
    let run = || {
        let views = random_views(10, 3, 21);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let cfg = HierarchyConfig {
            local_threshold: ExitThreshold::new(0.5),
            ..HierarchyConfig::default()
        };
        distributed(&small_model(), &views, &labels, &cfg)
    };
    std::env::set_var("DDNN_THREADS", "1");
    let serial = run();
    std::env::set_var("DDNN_THREADS", "4");
    let threaded = run();
    std::env::remove_var("DDNN_THREADS");
    assert_eq!(serial.predictions, threaded.predictions);
    assert_eq!(serial.exits, threaded.exits);
    assert_eq!(serial.accuracy, threaded.accuracy);
    assert_eq!(serial.local_exit_fraction, threaded.local_exit_fraction);
    assert_eq!(serial.mean_latency_ms, threaded.mean_latency_ms);
    assert_eq!(serial.links, threaded.links, "per-link traffic must be bit-identical");
}
