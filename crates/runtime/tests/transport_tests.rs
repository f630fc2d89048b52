//! Transport-layer integration suite: the same seeded run must produce
//! identical verdicts whichever dataplane carries the frames (in-process
//! channels, localhost TCP, localhost UDP under ARQ); misconfigured
//! transports are rejected before anything spawns; the `transport.*`
//! counters reconcile exactly with the per-link accounting; and
//! arbitrary byte soup never panics the frame decoders.

use ddnn_core::{
    AggregationScheme, ConvPBlock, Ddnn, DdnnConfig, EdgeConfig, ExitHead, ExitThreshold,
    FeatureAggregator, Precision,
};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, run_topology, DeadlineConfig, Frame,
    HierarchyBuilder, HierarchyConfig, ReliabilityConfig, RuntimeError, SimReport, Topology,
    TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;

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

fn socket_cfg(transport: TransportConfig) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig::default()),
        // ARQ on every variant so the ack/retransmit machinery is part of
        // what must stay transport-invariant.
        reliability: ReliabilityConfig::arq(),
        transport,
        ..HierarchyConfig::default()
    }
}

/// Everything a verdict-equivalence check compares: predictions, exit
/// points, and the analytic latency means (which depend only on the wire
/// format, not the transport).
fn verdicts(r: &SimReport) -> (Vec<usize>, Vec<ddnn_core::ExitPoint>, u32, u32) {
    (r.predictions.clone(), r.exits.clone(), r.mean_latency_ms.to_bits(), r.accuracy.to_bits())
}

/// A 3-exit-tier chain (device → gateway → edgeA → edgeB → core) on the
/// edge model's devices: a shape no partition implies.
fn deep_chain(model: &Ddnn) -> Topology {
    let partition = model.partition();
    let classes = partition.config.num_classes;
    let mut rng = rng_from_seed(99);
    // Device maps are [f, 16, 16]; each ConvP block halves the spatial
    // extent, so the chain runs 16 → 8 → 4 → 2.
    let mut tier = |agg: FeatureAggregator, in_ch: usize, side: usize| {
        let conv = ConvPBlock::new(in_ch, 4, Precision::Binary, &mut rng);
        let exit = ExitHead::new(4 * side * side, classes, Precision::Binary, &mut rng);
        (agg, vec![conv], exit)
    };
    let concat = FeatureAggregator::new(AggregationScheme::Concat, partition.devices.len());
    let in_ch = concat.output_channels(partition.config.device_filters);
    let (a1, c1, e1) = tier(concat, in_ch, 8);
    let (a2, c2, e2) = tier(FeatureAggregator::new(AggregationScheme::AvgPool, 1), 4, 4);
    let (a3, c3, e3) = tier(FeatureAggregator::new(AggregationScheme::AvgPool, 1), 4, 2);
    HierarchyBuilder::new(&partition)
        .exit_tier("edgeA", a1, c1, e1, ExitThreshold::new(0.0))
        .exit_tier("edgeB", a2, c2, e2, ExitThreshold::new(0.2))
        .terminal_tier("core", a3, c3, e3)
        .build()
        .unwrap()
}

#[test]
fn same_run_is_verdict_identical_over_channel_tcp_and_udp() {
    let model = edge_model();
    let views = random_views(8, 2, 6);
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    // The chain never exits locally or at edgeA and splits between edgeB
    // and core, so every tier-to-tier forward link crosses the sockets.
    let shapes = [
        ("partition", Topology::from_partition(&model.partition()), 0.4),
        ("chain", deep_chain(&model), 0.0),
    ];
    for (shape, topology, local) in &shapes {
        let cfg_for =
            |t| HierarchyConfig { local_threshold: ExitThreshold::new(*local), ..socket_cfg(t) };
        let reports: Vec<SimReport> =
            [TransportConfig::Channel, TransportConfig::Tcp, TransportConfig::Udp]
                .into_iter()
                .map(|t| {
                    run_topology(topology, &views, &labels, &cfg_for(t))
                        .unwrap_or_else(|e| panic!("{shape} over {} failed: {e}", t.name()))
                })
                .collect();
        let golden = verdicts(&reports[0]);
        assert_eq!(verdicts(&reports[1]), golden, "{shape}: tcp diverged from the in-process run");
        assert_eq!(verdicts(&reports[2]), golden, "{shape}: udp+arq diverged from in-process");
        let deep = [ddnn_core::ExitPoint::Edge, ddnn_core::ExitPoint::Cloud];
        assert!(*shape != "chain" || deep.iter().all(|e| golden.1.contains(e)), "{:?}", golden.1);
        // No transport may time a sample out on a clean localhost run.
        for r in &reports {
            assert_eq!(r.capture_retries, 0, "{shape}");
            assert!(!r.predictions.contains(&usize::MAX), "{shape}");
        }
    }
}

#[test]
fn socket_transports_run_crc_only_recovery() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    for t in [TransportConfig::Tcp, TransportConfig::Udp] {
        // CRC-only recovery (the default) runs on either socket: every
        // frame is checked, so no wire format is refused.
        let cfg = HierarchyConfig { reliability: ReliabilityConfig::crc(), ..socket_cfg(t) };
        let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
        assert_eq!(report.predictions.len(), labels.len(), "{}", t.name());
    }
}

#[test]
fn baseline_rejects_socket_transports() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let err = run_cloud_only_baseline(
        &model.partition(),
        &views,
        &labels,
        &socket_cfg(TransportConfig::Tcp),
    )
    .unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("in-process only")),
        "{err}"
    );
}

#[test]
fn transport_counters_reconcile_with_link_accounting() {
    // A clean channel run: every frame the dataplane
    // carries is either on a tracked link, a sensor capture, or one of
    // the final shutdown frames — nothing else, and nothing lost.
    let model = edge_model();
    let n_samples = 8usize;
    let num_devices = 2usize;
    let views = random_views(n_samples, num_devices, 6);
    let labels: Vec<usize> = (0..n_samples).map(|i| i % 3).collect();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // The channel delivers synchronously: both directions agree.
    assert_eq!(counter("transport.channel.frames_sent"), counter("transport.channel.frames_recvd"));
    assert_eq!(counter("transport.channel.bytes_sent"), counter("transport.channel.bytes_recvd"));
    let tracked: u64 = report.links.iter().map(|(_, s)| s.frames as u64).sum();
    let sensor = (num_devices * n_samples) as u64;
    // Shutdown fan-out: one frame per device plus one per aggregation
    // tier (gateway, edge, cloud).
    let shutdown = (num_devices + 3) as u64;
    assert_eq!(counter("transport.channel.frames_sent"), tracked + sensor + shutdown);
}

// Arbitrary byte soup — junk a hostile or broken peer could write into a
// socket — must never panic the frame decoder. Anything short of a
// full valid frame has to come back as a typed error.
proptest! {
    #[test]
    fn junk_bytes_never_panic_the_decoders(
        junk in prop::collection::vec(0u8..=255, 0..160),
    ) {
        if let Err(e) = Frame::decode_checked(junk) {
            let _ = e.to_string();
        }
    }
}
