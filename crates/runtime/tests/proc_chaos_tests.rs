//! Process-chaos integration suite: the supervised launcher must survive
//! a real SIGKILL of any role process mid-run — folding the loss into
//! typed degradation instead of hanging or panicking — respawn and
//! resync a killed role on schedule, stay deterministic across reruns at
//! the same seed, and keep delivering verdicts under seeded socket-level
//! chaos. The in-process runners must reject process chaos outright.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    multiproc, run_cloud_only_baseline, run_topology, ChaosAction, ChaosPlan, ChaosTarget,
    ChaosWhen, DeadlineConfig, HierarchyConfig, Impairment, ProcTarget, ReliabilityConfig,
    RuntimeError, SampleOutcome, SimReport, Topology, TransportConfig,
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

/// Tight deadlines so a dead role costs ~1.2s per lost sample, not ~6s.
fn cfg(transport: TransportConfig, chaos: ChaosPlan) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig {
            watchdog_ms: 600,
            max_retries: 1,
            ..DeadlineConfig::fast()
        }),
        reliability: ReliabilityConfig::arq(),
        transport,
        chaos,
        ..HierarchyConfig::default()
    }
}

/// Every sample must terminate with a typed outcome: classified or a
/// typed timeout, nothing lost, nothing extra.
fn assert_conservation(report: &SimReport, n: usize) {
    assert_eq!(report.outcomes.len(), n);
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    let timed_out =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count();
    assert_eq!(classified + timed_out, n, "untyped outcome in {:?}", report.outcomes);
}

fn counter(report: &SimReport, name: &str) -> u64 {
    report.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// SIGKILLs each role in turn at a seeded sample; `launch` must always
/// return a typed report (never hang, never panic) with conservation.
fn assert_every_role_survivable(transport: TransportConfig) {
    let model = edge_model();
    let n = 5usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let roles =
        [ProcTarget::Devices, ProcTarget::Gateway, ProcTarget::Tier(0), ProcTarget::Tier(1)];
    for role in roles {
        let plan = ChaosPlan::seeded_kills(0xC0FFEE, n as u64, &[ChaosTarget::Process(role)], 0);
        let ChaosWhen::BeforeSample(kill_at) = plan.events[0].when else {
            panic!("seeded kills are scheduled by sample: {plan:?}");
        };
        let kill_at = kill_at as usize;
        let report =
            multiproc::launch(node_exe(), model.config(), &views, &labels, &cfg(transport, plan))
                .unwrap_or_else(|e| {
                    panic!("{} kill of {role} failed the launch: {e}", transport.name())
                });
        assert_conservation(&report, n);
        assert_eq!(counter(&report, &format!("proc.{role}.kills")), 1, "kill of {role} unbooked");
        // A dead devices or gateway process starves every later sample;
        // tiers only starve the samples that would have escalated to them.
        if matches!(role, ProcTarget::Devices | ProcTarget::Gateway) {
            for i in kill_at..n {
                assert!(
                    matches!(report.outcomes[i], SampleOutcome::TimedOut { .. }),
                    "{} sample {i} classified after {role} was killed at {kill_at}",
                    transport.name()
                );
            }
        }
    }
}

#[test]
fn killing_any_role_on_tcp_degrades_with_typed_outcomes() {
    assert_every_role_survivable(TransportConfig::Tcp);
}

#[test]
fn killing_any_role_on_udp_arq_degrades_with_typed_outcomes() {
    assert_every_role_survivable(TransportConfig::Udp);
}

#[test]
fn seeded_kills_are_deterministic_across_reruns() {
    let model = edge_model();
    let n = 5usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let plan =
        ChaosPlan::seeded_kills(42, n as u64, &[ChaosTarget::Process(ProcTarget::Gateway)], 0);
    let run = || {
        multiproc::launch(
            node_exe(),
            model.config(),
            &views,
            &labels,
            &cfg(TransportConfig::Tcp, plan.clone()),
        )
        .unwrap()
    };
    let (a, b) = (run(), run());
    // Verdicts, exit points and the classified/timed-out pattern are a
    // pure function of the seeds; only wall-clock latencies may differ.
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.exits, b.exits);
    let pattern = |r: &SimReport| {
        r.outcomes.iter().map(|o| matches!(o, SampleOutcome::Classified)).collect::<Vec<_>>()
    };
    assert_eq!(pattern(&a), pattern(&b));
}

/// Kill the devices process, respawn it three samples later: the run
/// types the dark window as timeouts, the restarted role re-handshakes
/// and rejoins, and the settled tail matches a fault-free run verdict
/// for verdict.
fn assert_respawn_rejoins(transport: TransportConfig) {
    let model = edge_model();
    let n = 10usize;
    let (kill_at, respawn_at, settled) = (2usize, 5usize, 7usize);
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let devices = ChaosTarget::Process(ProcTarget::Devices);
    let plan = ChaosPlan::none()
        .with(ChaosWhen::BeforeSample(kill_at as u64), devices.clone(), ChaosAction::Down)
        .with(ChaosWhen::BeforeSample(respawn_at as u64), devices, ChaosAction::Up);
    let chaos_cfg = cfg(transport, plan);
    let reference = run_topology(
        &Topology::from_partition(&model.partition()),
        &views,
        &labels,
        &HierarchyConfig {
            transport: TransportConfig::Channel,
            chaos: ChaosPlan::none(),
            ..chaos_cfg.clone()
        },
    )
    .unwrap();
    let report = multiproc::launch(node_exe(), model.config(), &views, &labels, &chaos_cfg)
        .unwrap_or_else(|e| panic!("{} respawn run failed: {e}", transport.name()));

    assert_conservation(&report, n);
    assert_eq!(counter(&report, "proc.devices.kills"), 1);
    assert_eq!(counter(&report, "proc.devices.respawns"), 1);
    for i in 0..kill_at {
        assert!(matches!(report.outcomes[i], SampleOutcome::Classified));
        assert_eq!(report.predictions[i], reference.predictions[i], "pre-kill sample {i}");
    }
    for i in kill_at..respawn_at {
        assert!(
            matches!(report.outcomes[i], SampleOutcome::TimedOut { .. }),
            "sample {i} classified while the devices process was dead"
        );
    }
    // A couple of samples may settle (suspected-device revival, stale
    // retransmissions); past that the rejoined run is indistinguishable.
    for i in settled..n {
        assert!(
            matches!(report.outcomes[i], SampleOutcome::Classified),
            "post-rejoin sample {i} still degraded: {:?}",
            report.outcomes[i]
        );
        assert_eq!(report.predictions[i], reference.predictions[i], "post-rejoin sample {i}");
        assert_eq!(report.exits[i], reference.exits[i], "post-rejoin sample {i}");
    }
}

#[test]
fn respawned_devices_rejoin_on_tcp_and_match_the_fault_free_tail() {
    assert_respawn_rejoins(TransportConfig::Tcp);
}

#[test]
fn respawned_devices_rejoin_on_udp_arq_and_match_the_fault_free_tail() {
    assert_respawn_rejoins(TransportConfig::Udp);
}

#[test]
fn socket_chaos_run_still_terminates_with_typed_outcomes() {
    let model = edge_model();
    let n = 6usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let chaos_cfg = cfg(
        TransportConfig::Udp,
        ChaosPlan::sockets(
            7,
            Impairment { drop: 0.05, duplicate: 0.05, sever: 0.02, ..Impairment::none() },
        ),
    );
    let report =
        multiproc::launch(node_exe(), model.config(), &views, &labels, &chaos_cfg).unwrap();
    assert_conservation(&report, n);
    // ARQ recovers dropped datagrams within the deadline budget: the run
    // must still classify most samples, not degrade wholesale.
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    assert!(classified >= n / 2, "only {classified}/{n} classified under socket chaos");
}

#[test]
fn in_process_runners_reject_process_chaos() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let plan = ChaosPlan::none().with(
        ChaosWhen::BeforeSample(1),
        ChaosTarget::Process(ProcTarget::Gateway),
        ChaosAction::Down,
    );
    let chaos_cfg = HierarchyConfig {
        deadlines: Some(DeadlineConfig::fast()),
        chaos: plan,
        ..HierarchyConfig::default()
    };
    let topology = Topology::from_partition(&model.partition());
    let err = run_topology(&topology, &views, &labels, &chaos_cfg).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("multi-process")),
        "run_topology accepted process chaos: {err}"
    );
    let err = run_cloud_only_baseline(&model.partition(), &views, &labels, &chaos_cfg).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("multi-process")),
        "baseline accepted process chaos: {err}"
    );
}

#[test]
fn socket_chaos_requires_a_socket_transport() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let chaos_cfg = HierarchyConfig {
        deadlines: Some(DeadlineConfig::fast()),
        chaos: ChaosPlan::sockets(1, Impairment { drop: 0.1, ..Impairment::none() }),
        ..HierarchyConfig::default()
    };
    let topology = Topology::from_partition(&model.partition());
    let err = run_topology(&topology, &views, &labels, &chaos_cfg).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("socket transport")),
        "channel transport accepted socket chaos: {err}"
    );
}
