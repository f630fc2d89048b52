//! Topology matrix: the paper's configurations (a)–(e) all run through
//! the same tier-generic engine and agree with in-process inference, and
//! chains deeper than the paper's (device → gateway → edge → edge →
//! cloud) are plain [`HierarchyBuilder`] instantiations.
//!
//! Every run has the default deadlines, and none of them may fire on
//! these fault-free runs; `just topology-matrix` sweeps the suite across
//! `DDNN_THREADS={1,4}`.

use ddnn_core::{
    AggregationScheme, ConvPBlock, Ddnn, DdnnConfig, EdgeConfig, ExitHead, ExitPoint,
    ExitThreshold, FeatureAggregator, Precision,
};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, run_topology, HierarchyBuilder,
    HierarchyConfig, SimReport,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

/// A fault-free run fires no deadline: a host stalled past a budget fails
/// here, saying so, rather than as a verdict mismatch.
fn assert_nothing_fired(report: &SimReport, what: &str) {
    assert_eq!(report.capture_retries, 0, "{what}: a watchdog slice ran out");
    let timeouts = &report.device_timeouts;
    assert!(timeouts.iter().all(|&t| t == 0), "{what}: deadlines fired: {timeouts:?}");
    assert_eq!(report.degraded_fraction, 0.0, "{what}: a sample was degraded");
}

fn model_of(devices: usize, edge: bool) -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: devices,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: edge.then_some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        seed: 21,
        ..DdnnConfig::default()
    })
}

/// Runs one (devices, edge) cell of the matrix and asserts the
/// distributed run agrees with in-process inference sample for sample.
fn check_cell(devices: usize, edge: bool, seed: u64) {
    let mut model = model_of(devices, edge);
    let views = random_views(6, devices, seed);
    let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let tl = ExitThreshold::new(0.5);
    let te = ExitThreshold::new(0.7);
    let expected = model.infer(&views, tl, edge.then_some(te)).unwrap();
    let cfg = HierarchyConfig { local_threshold: tl, edge_threshold: te, ..Default::default() };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    let what = format!("devices={devices} edge={edge}");
    assert_nothing_fired(&report, &what);
    assert_eq!(report.predictions, expected.predictions, "{what}");
    assert_eq!(report.exits, expected.exits, "{what}");
    assert_eq!(report.classified_count(), 6, "{what}");
}

#[test]
fn config_a_cloud_only_baseline() {
    // (a): all devices offload raw captures straight to the cloud.
    let mut model = model_of(2, false);
    let views = random_views(6, 2, 40);
    let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let expected = model.predict_at(&views, ExitPoint::Cloud).unwrap();
    let cfg = HierarchyConfig::default();
    let report = run_cloud_only_baseline(&model.partition(), &views, &labels, &cfg).unwrap();
    assert_nothing_fired(&report, "cloud-only");
    assert!(report.exits.iter().all(|&e| e == ExitPoint::Cloud));
    assert_eq!(report.classified_count(), 6);
    // Up to the wire format's 8-bit image quantization the verdicts
    // track the in-process cloud exit.
    let agree = report.predictions.iter().zip(&expected).filter(|(a, b)| a == b).count();
    assert!(agree >= 5, "baseline diverged from cloud exit: {agree}/6");
}

#[test]
fn config_b_single_device_no_edge() {
    check_cell(1, false, 41);
}

#[test]
fn config_c_multi_device_no_edge() {
    check_cell(4, false, 42);
}

#[test]
fn config_d_single_device_with_edge() {
    check_cell(1, true, 43);
}

#[test]
fn config_e_multi_device_with_edge() {
    check_cell(3, true, 44);
}

/// A 3-exit-tier chain (device → gateway → edgeA → edgeB → core) that the
/// legacy runtime could not express: built declaratively, run end to end.
fn deep_chain(model: &Ddnn, t1: ExitThreshold, t2: ExitThreshold) -> ddnn_runtime::Topology {
    let partition = model.partition();
    let devices = partition.devices.len();
    let classes = partition.config.num_classes;
    let per_device = partition.config.device_filters;
    let mut rng = rng_from_seed(99);
    // Device maps are [f, 16, 16]; each ConvP block halves the spatial
    // extent, so the chain runs 16 → 8 → 4 → 2.
    let agg1 = FeatureAggregator::new(AggregationScheme::Concat, devices);
    let ch1 = agg1.output_channels(per_device);
    let conv1 = ConvPBlock::new(ch1, 4, Precision::Binary, &mut rng);
    let exit1 = ExitHead::new(4 * 8 * 8, classes, Precision::Binary, &mut rng);
    let agg2 = FeatureAggregator::new(AggregationScheme::AvgPool, 1);
    let conv2 = ConvPBlock::new(4, 4, Precision::Binary, &mut rng);
    let exit2 = ExitHead::new(4 * 4 * 4, classes, Precision::Binary, &mut rng);
    let agg3 = FeatureAggregator::new(AggregationScheme::AvgPool, 1);
    let conv3 = ConvPBlock::new(4, 8, Precision::Binary, &mut rng);
    let exit3 = ExitHead::new(8 * 2 * 2, classes, Precision::Binary, &mut rng);
    HierarchyBuilder::new(&partition)
        .exit_tier("edgeA", agg1, vec![conv1], exit1, t1)
        .exit_tier("edgeB", agg2, vec![conv2], exit2, t2)
        .terminal_tier("core", agg3, vec![conv3], exit3)
        .build()
        .unwrap()
}

fn link_frames(report: &ddnn_runtime::SimReport, link: &str) -> usize {
    report
        .links
        .iter()
        .find(|(name, _)| name == link)
        .unwrap_or_else(|| panic!("missing link {link}"))
        .1
        .frames
}

#[test]
fn deep_chain_forwards_through_every_tier_to_the_terminal() {
    // Thresholds at 0: normalized entropy of a softmax is strictly
    // positive, so nothing exits early — every sample must traverse
    // edgeA → edgeB → core and classify at the terminal.
    let model = model_of(2, false);
    let topology = deep_chain(&model, ExitThreshold::new(0.0), ExitThreshold::new(0.0));
    let views = random_views(4, 2, 50);
    let labels: Vec<usize> = (0..4).map(|i| i % 3).collect();
    let cfg = HierarchyConfig { local_threshold: ExitThreshold::new(0.0), ..Default::default() };
    let report = run_topology(&topology, &views, &labels, &cfg).unwrap();
    assert_nothing_fired(&report, "deep chain to the terminal");
    assert!(report.exits.iter().all(|&e| e == ExitPoint::Cloud), "{:?}", report.exits);
    assert_eq!(report.classified_count(), 4);
    assert_eq!(link_frames(&report, "edgeA->edgeB"), 4);
    assert_eq!(link_frames(&report, "edgeB->core"), 4);
    assert_eq!(link_frames(&report, "core->orchestrator"), 4);
    assert_eq!(link_frames(&report, "edgeA->orchestrator"), 0);
    assert_eq!(link_frames(&report, "edgeB->orchestrator"), 0);
}

#[test]
fn deep_chain_first_tier_can_absorb_every_sample() {
    // First exit tier at threshold 1: everything exits there, reported as
    // an edge exit; downstream tiers see no traffic at all.
    let model = model_of(2, false);
    let topology = deep_chain(&model, ExitThreshold::new(1.0), ExitThreshold::new(0.0));
    let views = random_views(4, 2, 51);
    let labels: Vec<usize> = (0..4).map(|i| i % 3).collect();
    let cfg = HierarchyConfig { local_threshold: ExitThreshold::new(0.0), ..Default::default() };
    let report = run_topology(&topology, &views, &labels, &cfg).unwrap();
    assert_nothing_fired(&report, "deep chain absorbed at its first tier");
    assert!(report.exits.iter().all(|&e| e == ExitPoint::Edge), "{:?}", report.exits);
    assert_eq!(report.classified_count(), 4);
    assert_eq!(link_frames(&report, "edgeA->orchestrator"), 4);
    assert_eq!(link_frames(&report, "edgeA->edgeB"), 0);
    assert_eq!(link_frames(&report, "edgeB->core"), 0);
    assert_eq!(link_frames(&report, "core->orchestrator"), 0);
}
