//! Process-chaos integration suite: the supervised launcher must survive
//! a real SIGKILL of any role process mid-run — folding the loss into
//! typed degradation instead of hanging or panicking — respawn and
//! resync a killed role on schedule, stay deterministic across reruns at
//! the same seed, and keep delivering verdicts under seeded link chaos
//! rolled in every role process. The in-process runners must reject
//! process chaos outright, every runner a sever on anything but TCP, and
//! a TCP run that severs every frame must still end.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitPoint, ExitThreshold};
use ddnn_runtime::{
    multiproc, run_cloud_only_baseline, run_topology, ChaosAction, ChaosPlan, ChaosTarget,
    ChaosWhen, DeadlineConfig, ElasticConfig, HierarchyConfig, Impairment, ProcTarget,
    ReliabilityConfig, RuntimeError, SampleOutcome, SimReport, Topology, TransportConfig,
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
    // Each sample the gateway escalated after the respawn is one offload
    // request down every gateway->device link. Links into a respawned role
    // restart their ARQ numbering, so its fresh receivers ack those frames
    // at once: retransmissions stay below that count instead of running
    // several per frame until each ages out.
    let escalated = (respawn_at..n)
        .filter(|&i| report.outcomes[i] == SampleOutcome::Classified)
        .filter(|&i| report.exits[i] != ExitPoint::Local)
        .count();
    let into_devices = report.links.iter().filter(|(name, _)| name.starts_with("gateway->device"));
    let (carried, retx) = into_devices.fold((0, 0), |(carried, retx), (_, st)| {
        (carried + escalated, retx + st.frames_retransmitted)
    });
    assert!(carried > 0, "no frame crossed gateway->device after the respawn");
    assert!(retx < carried, "{retx} retransmissions for {carried} frames into the respawned role");
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
fn link_chaos_over_udp_arq_processes_still_terminates_with_typed_outcomes() {
    let model = edge_model();
    let n = 6usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let chaos_cfg = cfg(
        TransportConfig::Udp,
        ChaosPlan::links(
            7,
            Impairment { drop: 0.1, duplicate: 0.1, corrupt: 0.1, ..Impairment::none() },
        ),
    );
    let report =
        multiproc::launch(node_exe(), model.config(), &views, &labels, &chaos_cfg).unwrap();
    assert_conservation(&report, n);
    // Every role process rolls its own links' streams.
    let link = |f: fn(&ddnn_runtime::LinkStats) -> usize| -> usize {
        report.links.iter().map(|(_, st)| f(st)).sum()
    };
    assert!(link(|st| st.frames_dropped) > 0, "no frame was dropped");
    assert!(link(|st| st.frames_duplicated) > 0, "no frame was duplicated");
    assert!(link(|st| st.frames_corrupted) > 0, "no frame was corrupted");
    // ARQ recovers dropped datagrams within the deadline budget: the run
    // must still classify most samples, not degrade wholesale.
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    assert!(classified >= n / 2, "only {classified}/{n} classified under link chaos");
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

/// `n` samples of the edge model under a links plan that severs at
/// `sever`, in-process over `transport`.
fn sever_run(transport: TransportConfig, sever: f32, n: usize) -> Result<SimReport, RuntimeError> {
    let model = edge_model();
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let chaos_cfg = HierarchyConfig {
        deadlines: Some(DeadlineConfig::fast()),
        transport,
        chaos: ChaosPlan::links(1, Impairment { sever, ..Impairment::none() }),
        ..HierarchyConfig::default()
    };
    run_topology(&Topology::from_partition(&model.partition()), &views, &labels, &chaos_cfg)
}

#[test]
fn sever_requires_a_tcp_transport() {
    for transport in [TransportConfig::Channel, TransportConfig::Udp] {
        let err = sever_run(transport, 0.5, 2).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Config { reason } if reason.contains("TCP")),
            "{} accepted a sever: {err}",
            transport.name()
        );
    }
}

#[test]
fn severing_every_tcp_frame_times_out_every_sample() {
    // Every capture dies half-written; the orchestrator's shutdown frames
    // are exempt, so the run still ends, each sample a typed timeout.
    let n = 2;
    let report = sever_run(TransportConfig::Tcp, 1.0, n).unwrap();
    assert_conservation(&report, n);
    assert!(report.outcomes.iter().all(|o| matches!(o, SampleOutcome::TimedOut { .. })));
    assert!(counter(&report, "transport.tcp.peer_disconnects") > 0, "no stream was cut");
}

/// An elastic run of the edge model: heartbeat membership over the
/// default deadlines, ARQ on every link.
fn elastic_cfg(transport: TransportConfig, chaos: ChaosPlan) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig::default()),
        elastic: Some(ElasticConfig::default()),
        reliability: ReliabilityConfig::arq(),
        transport,
        chaos,
        ..HierarchyConfig::default()
    }
}

/// The same run hosted as threads of this process.
fn in_process(
    model: &Ddnn,
    views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> SimReport {
    let topology = Topology::from_partition(&model.partition());
    let cfg = HierarchyConfig { transport: TransportConfig::Channel, ..cfg.clone() };
    run_topology(&topology, views, labels, &cfg).unwrap()
}

fn launch(model: &Ddnn, views: &[Tensor], labels: &[usize], cfg: &HierarchyConfig) -> SimReport {
    multiproc::launch(node_exe(), model.config(), views, labels, cfg)
        .unwrap_or_else(|e| panic!("{} elastic launch failed: {e}", cfg.transport.name()))
}

/// Epochs, joins, leaves and reparents: what the orchestrator books.
fn ledger(report: &SimReport) -> [u64; 4] {
    let s = report.elastic.clone().expect("elastic runs carry a summary");
    [s.epochs, s.member_joins, s.member_leaves, s.reparents]
}

#[test]
fn fault_free_elastic_processes_match_the_in_process_run() {
    let model = edge_model();
    let n = 6usize;
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    for transport in [TransportConfig::Tcp, TransportConfig::Udp] {
        let cfg = elastic_cfg(transport, ChaosPlan::none());
        let (reference, multi) =
            (in_process(&model, &views, &labels, &cfg), launch(&model, &views, &labels, &cfg));
        assert_eq!(multi.predictions, reference.predictions, "{}", transport.name());
        assert_eq!(multi.exits, reference.exits, "{}", transport.name());
        assert_eq!(multi.device_first_payload_bytes(), reference.device_first_payload_bytes());
        assert_eq!(ledger(&multi), [0; 4], "no membership change, no epoch");
        // Every steered node counts its stale-epoch discards, in a role
        // process as in a thread, and the launcher holds them all.
        let stale = |r: &SimReport| {
            let cells = r.counters.iter().filter(|(n, _)| n.ends_with(".stale_epoch_discards"));
            cells.map(|(n, _)| n.clone()).collect::<Vec<_>>()
        };
        assert!(!stale(&reference).is_empty());
        assert_eq!(stale(&multi), stale(&reference), "{}", transport.name());
    }
}

#[test]
fn flapping_nodes_steer_the_processes_like_the_threads() {
    let model = edge_model();
    let n = 18u64;
    let views = random_views(n as usize, 2, 6);
    let labels: Vec<usize> = (0..n as usize).map(|i| i % 3).collect();
    let targets = [ChaosTarget::Device(1), ChaosTarget::Tier("edge".to_string())];
    let plan = ChaosPlan::flapping(0, n, &targets, 9, 2);
    // A sample may degrade from a Down until `suspect_after` sweeps past
    // the Up that ends it; every other sample classifies.
    let suspect_after = u64::from(ElasticConfig::default().suspect_after);
    let mut exposed = vec![false; n as usize];
    for target in &targets {
        let mut down_at = None;
        for e in plan.events.iter().filter(|e| e.target == *target) {
            let ChaosWhen::BeforeSample(at) = e.when else { unreachable!() };
            match (e.action, down_at.take()) {
                (ChaosAction::Down, _) => down_at = Some(at),
                (_, Some(from)) => (from..at + suspect_after).for_each(|i| mark(&mut exposed, i)),
                _ => {}
            }
        }
        if let Some(from) = down_at {
            (from..n).for_each(|i| mark(&mut exposed, i));
        }
    }
    assert!(exposed.contains(&false), "the plan leaves nothing to compare: {plan:?}");
    for transport in [TransportConfig::Tcp, TransportConfig::Udp] {
        let cfg = elastic_cfg(transport, plan.clone());
        let (threads, multi) =
            (in_process(&model, &views, &labels, &cfg), launch(&model, &views, &labels, &cfg));
        assert_conservation(&multi, n as usize);
        for (i, report) in (0..n as usize).flat_map(|i| [(i, &threads), (i, &multi)]) {
            if !exposed[i] {
                assert_eq!(report.outcomes[i], SampleOutcome::Classified, "sample {i}");
            }
        }
        for i in (0..n as usize).filter(|&i| classified_in(&[&threads, &multi], i)) {
            assert_eq!(multi.predictions[i], threads.predictions[i], "sample {i}");
        }
        assert_eq!(ledger(&multi), ledger(&threads), "{}", transport.name());
        assert!(ledger(&multi)[0] > 0, "the flaps never moved membership");
    }
}

fn mark(exposed: &mut [bool], i: u64) {
    if let Some(slot) = exposed.get_mut(i as usize) {
        *slot = true;
    }
}

fn classified_in(reports: &[&SimReport], i: usize) -> bool {
    reports.iter().all(|r| r.outcomes[i] == SampleOutcome::Classified)
}

#[test]
fn a_killed_tier_process_is_routed_around_and_rejoins() {
    let model = edge_model();
    let n = 12usize;
    let (kill_at, respawn_at, settled) = (2u64, 6u64, 8usize);
    let views = random_views(n, 2, 6);
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let tier0 = ChaosTarget::Process(ProcTarget::Tier(0));
    let plan = ChaosPlan::none()
        .with(ChaosWhen::BeforeSample(kill_at), tier0.clone(), ChaosAction::Down)
        .with(ChaosWhen::BeforeSample(respawn_at), tier0, ChaosAction::Up);
    // No local exits: every sample climbs the chain, so the re-routing
    // carries traffic.
    let cfg = |transport, chaos| HierarchyConfig {
        local_threshold: ExitThreshold::new(0.0),
        ..elastic_cfg(transport, chaos)
    };
    for transport in [TransportConfig::Tcp, TransportConfig::Udp] {
        let reference = in_process(&model, &views, &labels, &cfg(transport, ChaosPlan::none()));
        let multi = launch(&model, &views, &labels, &cfg(transport, plan.clone()));
        assert_conservation(&multi, n);
        assert_eq!(counter(&multi, "proc.tier0.kills"), 1);
        assert_eq!(counter(&multi, "proc.tier0.respawns"), 1);
        let [epochs, joins, leaves, reparents] = ledger(&multi);
        assert!(epochs >= 2 && joins >= 1 && leaves >= 1, "{:?}", multi.elastic);
        assert!(reparents >= 2, "the devices re-parent away and back: {:?}", multi.elastic);
        for i in settled..n {
            assert_eq!(multi.outcomes[i], SampleOutcome::Classified, "sample {i}");
            assert_eq!(multi.predictions[i], reference.predictions[i], "sample {i}");
            assert_eq!(multi.exits[i], reference.exits[i], "sample {i}");
        }
    }
}
