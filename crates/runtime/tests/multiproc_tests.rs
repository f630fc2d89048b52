//! Multi-process integration suite: the launcher must run the hierarchy
//! as real OS processes over localhost sockets and agree verdict for
//! verdict with the in-process runner on the same seeded configuration —
//! and it must reject, before spawning anything, every configuration
//! whose state cannot span process boundaries.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    multiproc, run_topology, DeadlineConfig, ElasticConfig, HierarchyConfig, ReliabilityConfig,
    RuntimeError, SimReport, Topology, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::path::Path;

/// The `ddnn-node` binary Cargo built alongside this test.
fn node_exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_ddnn-node"))
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

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

fn cfg(transport: TransportConfig) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig::default()),
        reliability: ReliabilityConfig::arq(),
        transport,
        ..HierarchyConfig::default()
    }
}

/// Runs the same seeded workload in-process and as four OS processes,
/// asserting verdict-for-verdict agreement.
fn assert_multiproc_matches(transport: TransportConfig) {
    let model = edge_model();
    let n = 6usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let cfg = cfg(transport);

    let topology = Topology::from_partition(&model.partition());
    let reference = run_topology(
        &topology,
        &views,
        &labels,
        &HierarchyConfig { transport: TransportConfig::Channel, ..cfg.clone() },
    )
    .unwrap();
    let multi = multiproc::launch(node_exe(), model.config(), &views, &labels, &cfg)
        .unwrap_or_else(|e| panic!("{} launch failed: {e}", transport.name()));

    let key = |r: &SimReport| (r.predictions.clone(), r.exits.clone(), r.accuracy.to_bits());
    assert_eq!(key(&multi), key(&reference), "{} processes diverged", transport.name());
    assert_eq!(multi.mean_latency_ms.to_bits(), reference.mean_latency_ms.to_bits());
    // Every tracked link did the same work in the process mesh, and the
    // report still carries the full canonical link list. Compare first
    // transmissions: `frames` also counts ARQ retransmissions, and the
    // 5 ms retransmit timer races real acks on a busy machine.
    let names = |r: &SimReport| r.links.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&multi), names(&reference));
    for ((name, st), (_, ref_st)) in multi.links.iter().zip(&reference.links) {
        assert_eq!(
            st.frames - st.frames_retransmitted,
            ref_st.frames - ref_st.frames_retransmitted,
            "first-transmission count diverged on {name}"
        );
        assert_eq!(
            st.first_payload_bytes(),
            ref_st.first_payload_bytes(),
            "first-transmission payload diverged on {name}"
        );
    }
    assert_eq!(multi.device_timeouts, vec![0, 0]);
    assert_eq!(multi.capture_retries, 0);
}

#[test]
fn four_process_tcp_run_matches_in_process_verdicts() {
    assert_multiproc_matches(TransportConfig::Tcp);
}

#[test]
fn four_process_udp_arq_run_matches_in_process_verdicts() {
    assert_multiproc_matches(TransportConfig::Udp);
}

#[test]
fn launch_rejects_configs_that_cannot_span_processes() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let expect_config_err = |cfg: &HierarchyConfig, needle: &str| {
        let err = multiproc::launch(node_exe(), model.config(), &views, &labels, cfg).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Config { reason } if reason.contains(needle)),
            "expected {needle:?} rejection, got: {err}"
        );
    };
    expect_config_err(&cfg(TransportConfig::Channel), "socket transport");
    expect_config_err(
        &HierarchyConfig { deadlines: None, ..cfg(TransportConfig::Tcp) },
        "deadlines",
    );
    expect_config_err(
        &HierarchyConfig { elastic: Some(ElasticConfig::default()), ..cfg(TransportConfig::Tcp) },
        "elastic",
    );
    expect_config_err(
        &HierarchyConfig { failed_devices: vec![0], ..cfg(TransportConfig::Tcp) },
        "in-process only",
    );
}
