//! Multi-process integration suite: the launcher must run the hierarchy
//! as real OS processes over localhost sockets and agree verdict for
//! verdict with the in-process runner on the same seeded configuration —
//! lockstep, under scheduled arrivals and with a statically failed device
//! — counter for counter on every node, under a seeded links impairment
//! and a mid-run device crash as well; and it must reject, before
//! spawning anything, a configuration that cannot span process boundaries.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    multiproc, run_topology, ArrivalProcess, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen,
    DeadlineConfig, HierarchyConfig, Impairment, ReliabilityConfig, RuntimeError, SampleOutcome,
    SimReport, StreamConfig, Topology, TransportConfig,
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

/// Runs the same seeded workload in-process (on the channel transport)
/// and as four OS processes, asserting verdict-for-verdict agreement.
fn assert_multiproc_matches(cfg: HierarchyConfig) {
    let model = edge_model();
    let n = 6usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let what =
        format!("{} stream={:?} failed={:?}", cfg.transport.name(), cfg.stream, cfg.failed_devices);

    let topology = Topology::from_partition(&model.partition());
    let reference = run_topology(
        &topology,
        &views,
        &labels,
        &HierarchyConfig { transport: TransportConfig::Channel, ..cfg.clone() },
    )
    .unwrap();
    let multi = multiproc::launch(node_exe(), model.config(), &views, &labels, &cfg)
        .unwrap_or_else(|e| panic!("{what}: launch failed: {e}"));

    let key = |r: &SimReport| (r.predictions.clone(), r.exits.clone(), r.accuracy.to_bits());
    assert_eq!(key(&multi), key(&reference), "{what}: processes diverged");
    assert_eq!(multi.outcomes, reference.outcomes, "{what}");
    if cfg.stream.is_none() {
        // Lockstep latency is the analytic link model; a stream's is
        // measured.
        assert_eq!(multi.mean_latency_ms.to_bits(), reference.mean_latency_ms.to_bits());
    }
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
            "{what}: first-transmission count diverged on {name}"
        );
        assert_eq!(
            st.first_payload_bytes(),
            ref_st.first_payload_bytes(),
            "{what}: first-transmission payload diverged on {name}"
        );
    }
    assert_eq!(multi.device_first_payload_bytes(), reference.device_first_payload_bytes());
    assert_eq!(multi.device_timeouts, reference.device_timeouts, "{what}");
    assert_eq!(multi.capture_retries, 0);

    // One tally per count: the launcher's registry holds what every role
    // process counted, under the names the threads count them. Process
    // supervision and wire crossings are per-process by nature, and how
    // samples batch depends on when they arrive.
    let names = |r: &SimReport| {
        let shared = r.counters.iter().map(|(n, _)| n.clone());
        shared
            .filter(|n| !n.starts_with("proc.") && !n.starts_with("transport."))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&multi), names(&reference), "{what}");
    let nodes = |r: &SimReport| {
        let timing = |n: &str| n.ends_with(".batches") || n.ends_with(".batched_samples");
        let node = r.counters.iter().filter(|(n, _)| n.starts_with("node.") && !timing(n));
        node.cloned().collect::<Vec<_>>()
    };
    assert_eq!(nodes(&multi), nodes(&reference), "{what}");
}

#[test]
fn four_process_tcp_run_matches_in_process_verdicts() {
    assert_multiproc_matches(cfg(TransportConfig::Tcp));
}

#[test]
fn four_process_udp_arq_run_matches_in_process_verdicts() {
    assert_multiproc_matches(cfg(TransportConfig::Udp));
}

#[test]
fn four_process_streaming_run_matches_in_process_verdicts() {
    // An arrival rate the process mesh trivially sustains and a window
    // that holds every sample: nothing sheds, nothing times out, and the
    // tiers' micro-batch budget travels in the manifest.
    let stream = StreamConfig {
        arrival: ArrivalProcess::Fixed { rate_per_s: 50.0 },
        queue_cap: 6,
        batch_max: 4,
    };
    assert_multiproc_matches(HierarchyConfig { stream: Some(stream), ..cfg(TransportConfig::Tcp) });
}

#[test]
fn four_process_run_with_a_failed_device_matches_in_process_verdicts() {
    // The devices' role host never builds device 0, the gateway never
    // addresses it and the launcher never feeds it — like the threads of
    // the in-process run, every process works that out from the manifest.
    assert_multiproc_matches(HierarchyConfig {
        failed_devices: vec![0],
        ..cfg(TransportConfig::Tcp)
    });
}

/// The same seeded workload in-process over TCP and as four OS processes
/// over TCP, under `cfg`.
fn in_process_and_launched(cfg: &HierarchyConfig) -> (SimReport, SimReport) {
    let model = edge_model();
    let n = 8usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let cfg = HierarchyConfig { transport: TransportConfig::Tcp, ..cfg.clone() };
    let topology = Topology::from_partition(&model.partition());
    let threads = run_topology(&topology, &views, &labels, &cfg).unwrap();
    let processes = multiproc::launch(node_exe(), model.config(), &views, &labels, &cfg)
        .unwrap_or_else(|e| panic!("launch failed: {e}"));
    (threads, processes)
}

#[test]
fn a_seeded_links_plan_runs_in_every_role_process_and_arq_recovers_it() {
    let lossy = Impairment {
        drop: 0.1,
        duplicate: 0.1,
        corrupt: 0.05,
        truncate: 0.05,
        reorder: 0.1,
        ..Impairment::none()
    };
    let fault_free = in_process_and_launched(&cfg(TransportConfig::Tcp)).0;
    let plan = ChaosPlan::links(23, lossy);
    let (threads, processes) =
        in_process_and_launched(&HierarchyConfig { chaos: plan, ..cfg(TransportConfig::Tcp) });
    for (what, r) in [("threads", &threads), ("processes", &processes)] {
        assert!(r.outcomes.iter().all(|o| *o == SampleOutcome::Classified), "{what}");
        assert_eq!(r.predictions, fault_free.predictions, "{what}");
        assert_eq!(r.exits, fault_free.exits, "{what}");
        // The plan really ran where the links are: in every role process.
        let sum = |f: fn(&ddnn_runtime::LinkStats) -> usize| -> usize {
            r.links.iter().map(|(_, st)| f(st)).sum()
        };
        assert!(sum(|st| st.frames_dropped) > 0, "{what}: no drop");
        assert!(sum(|st| st.frames_duplicated) > 0, "{what}: no duplicate");
        assert!(sum(|st| st.frames_corrupted) > 0, "{what}: no damage");
        assert!(sum(|st| st.frames_retransmitted) > 0, "{what}: nothing recovered");
    }
}

#[test]
fn a_device_crash_after_its_kth_frame_degrades_processes_like_threads() {
    // CRC only: an ARQ retransmission would count towards the crash
    // point, and how many there are races real acks.
    let plan = ChaosPlan::none().with(
        ChaosWhen::AfterFrames(3),
        ChaosTarget::Device(1),
        ChaosAction::Down,
    );
    let crash = HierarchyConfig {
        reliability: ReliabilityConfig::crc(),
        chaos: plan,
        ..cfg(TransportConfig::Tcp)
    };
    let (threads, processes) = in_process_and_launched(&crash);
    assert_eq!(processes.predictions, threads.predictions);
    assert_eq!(processes.exits, threads.exits);
    assert_eq!(processes.outcomes, threads.outcomes);
    assert_eq!(processes.degraded_samples, threads.degraded_samples);
    assert_eq!(processes.device_timeouts, threads.device_timeouts);
    assert!(threads.device_timeouts[1] > 0, "device 1 never died: {:?}", threads.device_timeouts);
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
}
