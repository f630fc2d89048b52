//! Topology-equivalence suite: the tier-generic node engine must
//! reproduce the pre-refactor cluster monolith **byte for byte**. The
//! golden fingerprints below were captured from the seed runtime (commit
//! `e25ecf9`) on the exact configurations here — predictions, exit
//! points, f32 bit patterns, per-link wire accounting (including the
//! zero-stat placeholder edge links of no-edge configs) and degradation
//! counters all have to match exactly.
//!
//! Re-captured when the wire header grew a magic + version byte (11 →
//! 13 bytes): predictions, exits and accuracy are unchanged from the
//! seed; per-link header bytes and the modeled latencies shifted by
//! exactly the 2-byte-per-frame delta. Re-captured once more when every
//! frame began carrying flags, a transport sequence number and a CRC-32
//! (13 → 22 bytes): again only header bytes (+9 per frame) and the three
//! modeled latencies moved.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    run_distributed_inference, run_topology, HierarchyConfig, SampleOutcome, SimReport, Topology,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

/// Canonical fingerprint of everything a [`SimReport`] observes: byte
/// accounting per link in insertion order, f32 fields as raw bit
/// patterns, predictions, exit points and degradation counters.
fn fingerprint(report: &SimReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let exits: Vec<&str> = report
        .exits
        .iter()
        .map(|e| match e {
            ddnn_core::ExitPoint::Local => "L",
            ddnn_core::ExitPoint::Edge => "E",
            ddnn_core::ExitPoint::Cloud => "C",
        })
        .collect();
    writeln!(s, "predictions {:?}", report.predictions).unwrap();
    writeln!(s, "exits {}", exits.join("")).unwrap();
    writeln!(s, "accuracy {:08x}", report.accuracy.to_bits()).unwrap();
    writeln!(s, "local_exit_fraction {:08x}", report.local_exit_fraction.to_bits()).unwrap();
    writeln!(s, "mean_latency_ms {:08x}", report.mean_latency_ms.to_bits()).unwrap();
    writeln!(s, "mean_local_latency_ms {:08x}", report.mean_local_latency_ms.to_bits()).unwrap();
    writeln!(s, "mean_offload_latency_ms {:08x}", report.mean_offload_latency_ms.to_bits())
        .unwrap();
    for (name, st) in &report.links {
        writeln!(
            s,
            "link {name} frames={} payload={} header={} dropped={} duplicated={}",
            st.frames, st.payload_bytes, st.header_bytes, st.frames_dropped, st.frames_duplicated
        )
        .unwrap();
    }
    let timed_out =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count();
    writeln!(s, "timed_out {timed_out}").unwrap();
    writeln!(s, "degraded_fraction {:08x}", report.degraded_fraction.to_bits()).unwrap();
    writeln!(s, "device_timeouts {:?}", report.device_timeouts).unwrap();
    writeln!(s, "capture_retries {}", report.capture_retries).unwrap();
    s
}

/// Seed-runtime fingerprint: 3 devices, no edge, default deadlines off.
const GOLDEN_NO_EDGE: &str = "\
predictions [1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]
exits LCLLLLLLLLLL
accuracy 3daaaaab
local_exit_fraction 3f6aaaab
mean_latency_ms 40c70555
mean_local_latency_ms 40026000
mean_offload_latency_ms 4250e600
link gateway->device0 frames=1 payload=0 header=22 dropped=0 duplicated=0
link device0->gateway frames=12 payload=144 header=312 dropped=0 duplicated=0
link device0->cloud frames=1 payload=70 header=26 dropped=0 duplicated=0
link gateway->device1 frames=1 payload=0 header=22 dropped=0 duplicated=0
link device1->gateway frames=12 payload=144 header=312 dropped=0 duplicated=0
link device1->cloud frames=1 payload=70 header=26 dropped=0 duplicated=0
link gateway->device2 frames=1 payload=0 header=22 dropped=0 duplicated=0
link device2->gateway frames=12 payload=144 header=312 dropped=0 duplicated=0
link device2->cloud frames=1 payload=70 header=26 dropped=0 duplicated=0
link gateway->orchestrator frames=11 payload=33 header=242 dropped=0 duplicated=0
link cloud->orchestrator frames=1 payload=3 header=22 dropped=0 duplicated=0
link edge->cloud frames=0 payload=0 header=0 dropped=0 duplicated=0
link edge->orchestrator frames=0 payload=0 header=0 dropped=0 duplicated=0
timed_out 0
degraded_fraction 00000000
device_timeouts [0, 0, 0]
capture_retries 0
";

/// Seed-runtime fingerprint: same model and views, device 1 statically
/// failed (§IV-G blank substitution on the a-priori dead device).
const GOLDEN_NO_EDGE_FAILED: &str = "\
predictions [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]
exits LLLLLLLLLCLL
accuracy 3eaaaaab
local_exit_fraction 3f6aaaab
mean_latency_ms 40c70555
mean_local_latency_ms 40026000
mean_offload_latency_ms 4250e600
link gateway->device0 frames=1 payload=0 header=22 dropped=0 duplicated=0
link device0->gateway frames=12 payload=144 header=312 dropped=0 duplicated=0
link device0->cloud frames=1 payload=70 header=26 dropped=0 duplicated=0
link gateway->device1 frames=0 payload=0 header=0 dropped=0 duplicated=0
link device1->gateway frames=0 payload=0 header=0 dropped=0 duplicated=0
link device1->cloud frames=0 payload=0 header=0 dropped=0 duplicated=0
link gateway->device2 frames=1 payload=0 header=22 dropped=0 duplicated=0
link device2->gateway frames=12 payload=144 header=312 dropped=0 duplicated=0
link device2->cloud frames=1 payload=70 header=26 dropped=0 duplicated=0
link gateway->orchestrator frames=11 payload=33 header=242 dropped=0 duplicated=0
link cloud->orchestrator frames=1 payload=3 header=22 dropped=0 duplicated=0
link edge->cloud frames=0 payload=0 header=0 dropped=0 duplicated=0
link edge->orchestrator frames=0 payload=0 header=0 dropped=0 duplicated=0
timed_out 0
degraded_fraction 00000000
device_timeouts [0, 0, 0]
capture_retries 0
";

/// Seed-runtime fingerprint: 2 devices with a Concat edge tier between
/// gateway and cloud; some samples exit at the edge.
const GOLDEN_EDGE: &str = "\
predictions [0, 1, 1, 1, 1, 1, 1, 1, 0, 1]
exits ELLLLLLLEL
accuracy 3ecccccd
local_exit_fraction 3f4ccccd
mean_latency_ms 4141319a
mean_local_latency_ms 40026000
mean_offload_latency_ms 4250e600
link gateway->device0 frames=2 payload=0 header=44 dropped=0 duplicated=0
link device0->gateway frames=10 payload=120 header=260 dropped=0 duplicated=0
link device0->edge frames=2 payload=140 header=52 dropped=0 duplicated=0
link gateway->device1 frames=2 payload=0 header=44 dropped=0 duplicated=0
link device1->gateway frames=10 payload=120 header=260 dropped=0 duplicated=0
link device1->edge frames=2 payload=140 header=52 dropped=0 duplicated=0
link gateway->orchestrator frames=8 payload=24 header=176 dropped=0 duplicated=0
link cloud->orchestrator frames=0 payload=0 header=0 dropped=0 duplicated=0
link edge->cloud frames=0 payload=0 header=0 dropped=0 duplicated=0
link edge->orchestrator frames=2 payload=6 header=44 dropped=0 duplicated=0
timed_out 0
degraded_fraction 00000000
device_timeouts [0, 0]
capture_retries 0
";

fn no_edge_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        cloud_filters: [4, 8],
        ..DdnnConfig::default()
    })
}

fn no_edge_cfg() -> HierarchyConfig {
    HierarchyConfig { local_threshold: ExitThreshold::new(0.5), ..HierarchyConfig::default() }
}

fn edge_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        seed: 11,
        ..DdnnConfig::default()
    })
}

fn edge_cfg() -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        ..HierarchyConfig::default()
    }
}

/// Runs a partition both through the compatibility entry point and the
/// explicit `Topology::from_partition` path, asserting both match the
/// seed-runtime golden byte for byte.
fn assert_matches_golden(
    model: &Ddnn,
    views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
    golden: &str,
    what: &str,
) {
    let partition = model.partition();
    let report = run_distributed_inference(&partition, views, labels, cfg).unwrap();
    assert_nothing_fired(&report, what);
    assert_eq!(fingerprint(&report), golden, "{what}: run_distributed_inference diverged");
    let topology = Topology::from_partition(&partition);
    let report = run_topology(&topology, views, labels, cfg).unwrap();
    assert_nothing_fired(&report, what);
    assert_eq!(fingerprint(&report), golden, "{what}: run_topology diverged");
}

/// A fault-free run fires no deadline: a host stalled past a budget fails
/// here, saying so, rather than as a fingerprint mismatch.
fn assert_nothing_fired(report: &SimReport, what: &str) {
    assert_eq!(report.capture_retries, 0, "{what}: a watchdog slice ran out");
    let timeouts = &report.device_timeouts;
    assert!(timeouts.iter().all(|&t| t == 0), "{what}: deadlines fired: {timeouts:?}");
    assert_eq!(report.degraded_fraction, 0.0, "{what}: a sample was degraded");
}

#[test]
fn no_edge_config_is_byte_identical_to_seed() {
    let views = random_views(12, 3, 0);
    let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    assert_matches_golden(
        &no_edge_model(),
        &views,
        &labels,
        &no_edge_cfg(),
        GOLDEN_NO_EDGE,
        "no-edge",
    );
}

#[test]
fn no_edge_config_with_failed_device_is_byte_identical_to_seed() {
    let views = random_views(12, 3, 0);
    let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    let cfg = HierarchyConfig { failed_devices: vec![1], ..no_edge_cfg() };
    assert_matches_golden(
        &no_edge_model(),
        &views,
        &labels,
        &cfg,
        GOLDEN_NO_EDGE_FAILED,
        "no-edge failed-device",
    );
}

#[test]
fn edge_config_is_byte_identical_to_seed() {
    let views = random_views(10, 2, 6);
    let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
    assert_matches_golden(&edge_model(), &views, &labels, &edge_cfg(), GOLDEN_EDGE, "edge");
}
