//! Chaos tests of elastic orchestration: scheduled membership churn —
//! devices, tiers and the gateway crashing and rejoining mid-run — must
//! never panic or hang the runtime; every loss must surface as a typed
//! outcome; recovery must re-parent traffic around the hole; and an empty
//! churn schedule must change nothing at all.
//!
//! Every scenario runs with CRC checking alone and under ARQ recovery, and
//! `just chaos-matrix` sweeps the suite across `DDNN_THREADS={1,4}`; the
//! assertions are identical in every cell.

use ddnn_core::{
    AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitHead, ExitPoint, ExitThreshold,
    FeatureAggregator, Precision,
};
use ddnn_runtime::{
    compute_routing, run_cloud_only_baseline, run_distributed_inference, run_topology, ChaosAction,
    ChaosEvent, ChaosPlan, ChaosTarget, ChaosWhen, Compat, DeadlineConfig, ElasticConfig,
    HierarchyBuilder, HierarchyConfig, MemorySink, ObsConfig, ObsEvent, ReliabilityConfig,
    RuntimeError, SampleOutcome, SimReport, Topology,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;
use std::sync::Arc;

fn edge_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        ..DdnnConfig::default()
    })
}

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

/// Deadlines tuned for churn runs: long enough that a loaded CI machine
/// cannot time out a healthy sample, short enough that the unavoidable
/// detection-window losses (a crashed tier is only suspected after
/// `suspect_after` missed heartbeat sweeps) resolve quickly.
fn churn_deadlines() -> DeadlineConfig {
    DeadlineConfig { aggregation_ms: 150, watchdog_ms: 800, max_retries: 1, suspect_after: 2 }
}

/// The wires every churn scenario runs on.
fn churn_wires() -> [ReliabilityConfig; 2] {
    [ReliabilityConfig::crc(), ReliabilityConfig::arq()]
}

fn crash(at_sample: u64, target: ChaosTarget) -> ChaosEvent {
    ChaosEvent { when: ChaosWhen::BeforeSample(at_sample), target, action: ChaosAction::Down }
}

fn rejoin(at_sample: u64, target: ChaosTarget) -> ChaosEvent {
    ChaosEvent { when: ChaosWhen::BeforeSample(at_sample), target, action: ChaosAction::Up }
}

fn elastic_cfg(events: Vec<ChaosEvent>, reliability: &ReliabilityConfig) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan { seed: 0, events },
        deadlines: Some(churn_deadlines()),
        elastic: Some(ElasticConfig::fast()),
        reliability: reliability.clone(),
        ..HierarchyConfig::default()
    }
}

/// A single-device relay chain whose tiers are *identity* sections (1-ary
/// average pool, no convolutions): every tier accepts both the device's
/// feature map and any other tier's output, so the compat probe makes all
/// re-parenting moves legal — the topology for exercising genuine
/// rebalancing rather than forced local exits.
fn relay_chain() -> (Ddnn, Topology) {
    let model = Ddnn::new(DdnnConfig {
        num_devices: 1,
        device_filters: 2,
        cloud_filters: [4, 8],
        ..DdnnConfig::default()
    });
    let partition = model.partition();
    let [f, h, w] = partition.config.device_map_dims();
    let classes = partition.config.num_classes;
    let mut rng = rng_from_seed(77);
    let relay_head = ExitHead::new(f * h * w, classes, Precision::Binary, &mut rng);
    let core_head = ExitHead::new(f * h * w, classes, Precision::Binary, &mut rng);
    let never = ExitThreshold::new(0.0); // normalized entropy is strictly positive
    let topology = HierarchyBuilder::new(&partition)
        .exit_tier(
            "relayA",
            FeatureAggregator::new(AggregationScheme::AvgPool, 1),
            vec![],
            relay_head.clone(),
            never,
        )
        .exit_tier(
            "relayB",
            FeatureAggregator::new(AggregationScheme::AvgPool, 1),
            vec![],
            relay_head,
            never,
        )
        .terminal_tier(
            "core",
            FeatureAggregator::new(AggregationScheme::AvgPool, 1),
            vec![],
            core_head,
        )
        .build()
        .unwrap();
    (model, topology)
}

/// Runs the relay chain with the given churn schedule; the gateway never
/// exits locally (threshold 0), so every classified sample is a verdict
/// from the feature chain.
fn run_relay(
    topology: &Topology,
    views: &[Tensor],
    labels: &[usize],
    events: Vec<ChaosEvent>,
    sink: Option<Arc<MemorySink>>,
    reliability: &ReliabilityConfig,
) -> SimReport {
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.0),
        obs: ObsConfig { sink: sink.map(|s| s as _) },
        ..elastic_cfg(events, reliability)
    };
    run_topology(topology, views, labels, &cfg).unwrap()
}

#[test]
fn empty_churn_schedule_changes_nothing() {
    for reliability in &churn_wires() {
        // Elastic orchestration with no churn must reproduce the plain
        // deadline run exactly: same verdicts, same exits, zero epochs.
        let model = edge_model();
        let views = random_views(8, 3, 60);
        let labels = vec![0usize; 8];
        let plain = run_distributed_inference(
            &model.partition(),
            &views,
            &labels,
            &HierarchyConfig {
                local_threshold: ExitThreshold::new(0.5),
                deadlines: Some(churn_deadlines()),
                reliability: reliability.clone(),
                ..HierarchyConfig::default()
            },
        )
        .unwrap();
        let elastic = run_distributed_inference(
            &model.partition(),
            &views,
            &labels,
            &elastic_cfg(vec![], reliability),
        )
        .unwrap();
        assert_eq!(elastic.predictions, plain.predictions);
        assert_eq!(elastic.exits, plain.exits);
        assert_eq!(elastic.outcomes, plain.outcomes);
        assert_eq!(elastic.accuracy, plain.accuracy);
        assert_eq!(elastic.degraded_fraction, 0.0);
        let summary = elastic.elastic.expect("elastic runs carry a summary");
        assert_eq!(summary.epochs, 0, "no membership change, no epoch");
        assert_eq!(summary.member_joins, 0);
        assert_eq!(summary.member_leaves, 0);
        assert_eq!(summary.reparents, 0);
        assert_eq!(summary.stale_epoch_discards, 0);
        assert_eq!(summary.initial_live, 6, "3 devices + gateway + 2 tiers");
        assert_eq!(summary.final_live, 6);
        assert!(plain.elastic.is_none(), "non-elastic runs carry no summary");
    }
}

#[test]
fn continuous_churn_survives_and_is_deterministic() {
    for reliability in &churn_wires() {
        // The acceptance scenario: devices AND a tier crash and rejoin while
        // samples flow. The run must complete with typed outcomes only, the
        // membership ledger must balance, and the whole thing must be
        // reproducible event for event.
        let model = edge_model();
        let views = random_views(14, 3, 61);
        let labels: Vec<usize> = (0..14).map(|i| i % 3).collect();
        let events = vec![
            crash(2, ChaosTarget::Device(1)),
            crash(4, ChaosTarget::Device(2)),
            crash(5, ChaosTarget::Tier("edge".to_string())),
            rejoin(6, ChaosTarget::Device(1)),
            rejoin(9, ChaosTarget::Device(2)),
            rejoin(10, ChaosTarget::Tier("edge".to_string())),
            crash(11, ChaosTarget::Device(0)),
            rejoin(13, ChaosTarget::Device(0)),
        ];
        let run = || {
            run_distributed_inference(
                &model.partition(),
                &views,
                &labels,
                &elastic_cfg(events.clone(), reliability),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a.predictions.len(), 14);
        // Every sample resolved to a typed outcome; the losses (if any) are
        // watchdog timeouts, surfaced as typed errors — never a panic, never
        // a hang.
        for i in 0..14 {
            match a.outcomes[i] {
                SampleOutcome::Classified => assert!(a.sample_result(i).is_ok()),
                SampleOutcome::TimedOut { .. } | SampleOutcome::Shed => {
                    assert!(matches!(
                        a.sample_result(i).unwrap_err(),
                        RuntimeError::Timeout { .. }
                    ));
                }
            }
        }
        let summary = a.elastic.clone().expect("elastic summary");
        assert!(summary.epochs > 0, "churn must publish new epochs");
        assert!(summary.member_leaves >= 4, "four crashes: {summary:?}");
        assert!(summary.member_joins >= 4, "four rejoins: {summary:?}");
        assert_eq!(summary.final_live, summary.initial_live, "everything rejoined");
        // Detection-window losses are bounded: each of the four crashes can
        // cost at most the suspect window before routing heals around it.
        assert!(a.classified_count() >= 6, "degradation cliff: {:?}", a.outcomes);

        // Determinism: the same schedule and seed reproduce the run exactly
        // (verdicts, outcomes and the membership ledger; link-level timing
        // stats are allowed to differ).
        let b = run();
        assert_eq!(b.predictions, a.predictions);
        assert_eq!(b.exits, a.exits);
        assert_eq!(b.outcomes, a.outcomes);
        assert_eq!(b.elastic, a.elastic);
    }
}

#[test]
fn tier_crash_reparents_the_device_and_rejoin_restores_the_chain() {
    for reliability in &churn_wires() {
        // relayA dies mid-run: the device must re-parent to relayB (nearest
        // surviving compatible tier), and the rejoin must restore the
        // declared chain — both moves visible as reparent events and epochs.
        let (_model, topology) = relay_chain();
        let views = random_views(12, 1, 62);
        let labels = vec![0usize; 12];
        let sink = Arc::new(MemorySink::default());
        let clean = run_relay(&topology, &views, &labels, vec![], None, reliability);
        assert_eq!(clean.classified_count(), 12);
        let report = run_relay(
            &topology,
            &views,
            &labels,
            vec![
                crash(2, ChaosTarget::Tier("relayA".to_string())),
                rejoin(7, ChaosTarget::Tier("relayA".to_string())),
            ],
            Some(sink.clone()),
            reliability,
        );
        let summary = report.elastic.clone().expect("elastic summary");
        assert!(summary.epochs >= 2, "leave + rejoin: {summary:?}");
        assert!(summary.member_leaves >= 1);
        assert!(summary.member_joins >= 1);
        assert!(summary.reparents >= 2, "away and back: {summary:?}");
        assert_eq!(summary.final_live, summary.initial_live);

        let events = sink.events();
        let reparents: Vec<(String, String, String)> = events
            .iter()
            .filter_map(|(_, e)| match e {
                ObsEvent::Reparent { child, from, to, .. } => {
                    Some((child.clone(), from.clone(), to.clone()))
                }
                _ => None,
            })
            .collect();
        assert!(
            reparents.contains(&(
                "device0".to_string(),
                "relayA".to_string(),
                "relayB".to_string()
            )),
            "device must re-parent to the surviving relay: {reparents:?}"
        );
        assert!(
            reparents.contains(&(
                "device0".to_string(),
                "relayB".to_string(),
                "relayA".to_string()
            )),
            "rejoin must restore the declared chain: {reparents:?}"
        );
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, ObsEvent::MemberLeave { node, .. } if node == "relayA")));
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, ObsEvent::MemberJoin { node, .. } if node == "relayA")));

        // The relays are identity sections, so every *classified* sample gets
        // the same terminal verdict whichever relay carried it — the hole in
        // the chain costs detection-window timeouts, never wrong answers.
        let mut classified = 0;
        for i in 0..12 {
            if matches!(report.outcomes[i], SampleOutcome::Classified) {
                assert_eq!(report.predictions[i], clean.predictions[i], "sample {i}");
                assert_eq!(report.exits[i], ExitPoint::Cloud, "sample {i}");
                classified += 1;
            }
        }
        assert!(classified >= 8, "detection window too costly: {:?}", report.outcomes);
    }
}

#[test]
fn gateway_crash_is_bypassed_by_the_orchestrator() {
    for reliability in &churn_wires() {
        // The gateway dies and never returns: after the suspect window the
        // orchestrator broadcasts the offload requests itself, so every later
        // sample classifies on the feature chain instead of stalling forever.
        let (_model, topology) = relay_chain();
        let views = random_views(12, 1, 63);
        let labels = vec![0usize; 12];
        let sink = Arc::new(MemorySink::default());
        let report = run_relay(
            &topology,
            &views,
            &labels,
            vec![crash(3, ChaosTarget::Gateway)],
            Some(sink.clone()),
            reliability,
        );
        let summary = report.elastic.clone().expect("elastic summary");
        assert_eq!(summary.final_live, summary.initial_live - 1, "the gateway never rejoined");
        assert!(summary.epochs >= 1);
        assert!(sink
            .events()
            .iter()
            .any(|(_, e)| matches!(e, ObsEvent::MemberLeave { node, .. } if node == "gateway")));
        // Samples before the crash and after the bypass both classify; only
        // the detection window may time out.
        for i in 0..3 {
            assert!(matches!(report.outcomes[i], SampleOutcome::Classified), "sample {i}");
        }
        for i in 6..12 {
            assert!(
                matches!(report.outcomes[i], SampleOutcome::Classified),
                "sample {i} after bypass: {:?}",
                report.outcomes[i]
            );
            assert_ne!(report.exits[i], ExitPoint::Local, "no gateway, no local exit");
        }
    }
}

#[test]
fn degradation_has_no_cliff_as_churn_intensifies() {
    for reliability in &churn_wires() {
        // Scoring the run against its own clean predictions isolates the cost
        // of churn: light churn (one tier bounce) and heavy churn (both
        // relays bounce and the gateway dies) must degrade gradually —
        // bounded detection losses, never a collapse.
        let (_model, topology) = relay_chain();
        let views = random_views(16, 1, 64);
        let clean = run_relay(&topology, &views, &[0usize; 16], vec![], None, reliability);
        let labels = clean.predictions.clone();
        let light = run_relay(
            &topology,
            &views,
            &labels,
            vec![
                crash(4, ChaosTarget::Tier("relayA".to_string())),
                rejoin(8, ChaosTarget::Tier("relayA".to_string())),
            ],
            None,
            reliability,
        );
        let heavy = run_relay(
            &topology,
            &views,
            &labels,
            vec![
                crash(4, ChaosTarget::Tier("relayA".to_string())),
                rejoin(8, ChaosTarget::Tier("relayA".to_string())),
                crash(10, ChaosTarget::Tier("relayB".to_string())),
                rejoin(13, ChaosTarget::Tier("relayB".to_string())),
                crash(12, ChaosTarget::Gateway),
            ],
            None,
            reliability,
        );
        assert!(light.accuracy >= 0.75, "light churn lost too much: {}", light.accuracy);
        assert!(heavy.accuracy >= 0.5, "heavy churn collapsed: {}", heavy.accuracy);
        assert!(
            light.accuracy - heavy.accuracy <= 0.375,
            "cliff between light ({}) and heavy ({}) churn",
            light.accuracy,
            heavy.accuracy
        );
    }
}

#[test]
fn churn_configuration_is_validated_up_front() {
    let model = edge_model();
    let views = random_views(2, 3, 65);
    let labels = vec![0usize; 2];
    let schedule = vec![crash(0, ChaosTarget::Device(0)), rejoin(1, ChaosTarget::Device(0))];
    let crc = &ReliabilityConfig::crc();

    // Churn without the elastic control plane is meaningless.
    let mut cfg = elastic_cfg(schedule.clone(), crc);
    cfg.elastic = None;
    let err = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }), "{err}");

    // A churn target must name a real node.
    let cfg = elastic_cfg(vec![crash(0, ChaosTarget::Tier("fog".to_string()))], crc);
    let err = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }), "{err}");

    // The cloud-only baseline has nothing to rebalance.
    let err =
        run_cloud_only_baseline(&model.partition(), &views, &labels, &elastic_cfg(vec![], crc))
            .unwrap_err();
    assert!(matches!(err, RuntimeError::Config { .. }), "{err}");
}

proptest! {
    #[test]
    fn computed_routing_is_always_well_formed(
        d2t in prop::collection::vec(0u8..2, 3),
        t2t in prop::collection::vec(0u8..2, 3),
        live_bits in prop::collection::vec(0u8..2, 6),
        epoch in 0u64..1000,
    ) {
        // 2 devices + gateway + 3 tiers with an arbitrary compat matrix
        // and an arbitrary live set: the computed table must satisfy its
        // own structural validator, except in exactly one degenerate case
        // — live devices, a dead gateway, and no tier able to take device
        // traffic — which run validation rejects before any routing runs.
        let compat = Compat {
            device_to_tier: d2t.iter().map(|&b| b == 1).collect(),
            tier_to_tier: vec![
                vec![false, t2t[0] == 1, t2t[1] == 1],
                vec![false, false, t2t[2] == 1],
                vec![false, false, false],
            ],
        };
        let live: Vec<bool> = live_bits.iter().map(|&b| b == 1).collect();
        let r = compute_routing(epoch, live.clone(), 2, &compat);
        prop_assert_eq!(r.epoch, epoch);
        let degenerate = (live[0] || live[1]) && !live[2] && r.device_parent.is_none();
        prop_assert_eq!(r.is_well_formed(&compat), !degenerate);
        // The escalation path is strictly increasing, so routing can
        // never loop whatever the membership does.
        let path = r.escalation_path();
        for pair in path.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
    }
}
