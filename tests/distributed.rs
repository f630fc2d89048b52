//! Workspace integration tests of the distributed runtime on real
//! (synthetic MVMC) data with a briefly trained model.

use ddnn::core::{train, Ddnn, DdnnConfig, ExitPoint, ExitThreshold, TrainConfig};
use ddnn::data::{all_device_batches, labels, MvmcConfig, MvmcDataset};
use ddnn::runtime::{
    run_cloud_only_baseline, run_distributed_inference, HierarchyConfig, SimReport,
};

fn trained_setup() -> (Ddnn, Vec<ddnn::tensor::Tensor>, Vec<usize>) {
    let ds = MvmcDataset::generate(MvmcConfig::tiny(48, 16, 12));
    let train_views = all_device_batches(&ds.train, 6).unwrap();
    let mut model =
        Ddnn::new(DdnnConfig { device_filters: 2, cloud_filters: [4, 8], ..DdnnConfig::paper() });
    train(
        &mut model,
        &train_views,
        &labels(&ds.train),
        &TrainConfig {
            epochs: 2,
            batch_size: 16,
            stat_refresh_passes: 1,
            ..TrainConfig::default()
        },
    )
    .unwrap();
    (model, all_device_batches(&ds.test, 6).unwrap(), labels(&ds.test))
}

/// A fault-free run fires no deadline: a host stalled past a budget fails
/// here, saying so, rather than as a verdict mismatch.
fn assert_nothing_fired(report: &SimReport) {
    assert_eq!(report.capture_retries, 0, "a watchdog slice ran out");
    let timeouts = &report.device_timeouts;
    assert!(timeouts.iter().all(|&t| t == 0), "deadlines fired: {timeouts:?}");
    assert_eq!(report.degraded_fraction, 0.0, "a sample was degraded");
}

#[test]
fn distributed_inference_agrees_with_in_process_on_real_data() {
    let (mut model, test_views, test_labels) = trained_setup();
    let t = ExitThreshold::new(0.8);
    let expected = model.infer(&test_views, t, None).unwrap();
    let report = run_distributed_inference(
        &model.partition(),
        &test_views,
        &test_labels,
        &HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() },
    )
    .unwrap();
    assert_nothing_fired(&report);
    assert_eq!(report.predictions, expected.predictions);
    assert_eq!(report.exits, expected.exits);
    assert!((report.local_exit_fraction - expected.exit_fraction(ExitPoint::Local)).abs() < 1e-6);
}

#[test]
fn measured_traffic_is_far_below_raw_offload() {
    let (model, test_views, test_labels) = trained_setup();
    let partition = model.partition();
    let ddnn = run_distributed_inference(
        &partition,
        &test_views,
        &test_labels,
        &HierarchyConfig::default(),
    )
    .unwrap();
    let baseline =
        run_cloud_only_baseline(&partition, &test_views, &test_labels, &HierarchyConfig::default())
            .unwrap();
    assert_nothing_fired(&ddnn);
    assert_nothing_fired(&baseline);
    let ddnn_bytes = ddnn.device_payload_bytes();
    let raw_bytes: usize = baseline
        .links
        .iter()
        .filter(|(n, _)| n.starts_with("device"))
        .map(|(_, s)| s.payload_bytes)
        .sum();
    assert_eq!(raw_bytes, test_labels.len() * 6 * 3072);
    // Even with zero local exits, the binary feature maps are ~20x smaller
    // than raw images (f=2 here: 12 + 70 bytes vs 3072).
    assert!((raw_bytes as f32) > 20.0 * ddnn_bytes as f32, "raw {raw_bytes} vs ddnn {ddnn_bytes}");
}

#[test]
fn distributed_fault_injection_matches_blank_semantics() {
    let (mut model, test_views, test_labels) = trained_setup();
    let t = ExitThreshold::new(0.8);
    for failed in [vec![0usize], vec![5], vec![1, 4]] {
        let blanked = ddnn::core::fail_devices(&test_views, &failed).unwrap();
        let expected = model.infer(&blanked, t, None).unwrap();
        let report = run_distributed_inference(
            &model.partition(),
            &test_views,
            &test_labels,
            &HierarchyConfig {
                local_threshold: t,
                failed_devices: failed.clone(),
                ..HierarchyConfig::default()
            },
        )
        .unwrap();
        assert_nothing_fired(&report);
        assert_eq!(report.predictions, expected.predictions, "failures {failed:?}");
    }
}
