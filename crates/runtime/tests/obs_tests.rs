//! Integration tests of the observability layer: fault-free runs must
//! produce deterministic, mutually consistent counters; the timeline sink
//! must capture the sample stream and every exit decision; and chaos runs
//! must surface deadline, corruption and retransmission events instead of
//! degrading silently.

use ddnn_core::{Ddnn, DdnnConfig, ExitThreshold};
use ddnn_runtime::{
    run_distributed_inference, ChaosAction, ChaosEvent, ChaosPlan, ChaosTarget, ChaosWhen,
    DeadlineConfig, HierarchyConfig, Impairment, MemorySink, ObsConfig, ObsEvent,
    ReliabilityConfig, SimReport,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::sync::Arc;

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

fn counter(report: &SimReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} missing from {:?}", report.counters))
}

#[test]
fn fault_free_counters_are_deterministic_and_consistent() {
    let model = small_model();
    let views = random_views(8, 3, 40);
    let labels = vec![0usize; 8];
    let cfg =
        HierarchyConfig { local_threshold: ExitThreshold::new(0.5), ..HierarchyConfig::default() };
    let a = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    let b = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();

    // Two identical fault-free runs must snapshot identical counters,
    // whatever the worker-thread configuration.
    assert_eq!(a.counters, b.counters);
    assert!(!a.counters.is_empty());

    // The counters must agree with the rest of the report.
    assert_eq!(counter(&a, "run.samples"), 8);
    assert_eq!(counter(&a, "run.capture_retries"), 0);
    assert_eq!(counter(&a, "run.watchdog_timeouts"), 0);
    let exits = counter(&a, "node.gateway.exits");
    let escalations = counter(&a, "node.gateway.escalations");
    assert_eq!(exits + escalations, 8, "the gateway decides every sample exactly once");
    assert_eq!(exits, (a.local_exit_fraction * 8.0).round() as u64);
    assert_eq!(counter(&a, "node.gateway.aggregates"), 8);
    assert_eq!(counter(&a, "node.cloud.aggregates"), escalations);
    assert_eq!(counter(&a, "node.gateway.deadline_expiries"), 0);
    // A static run routes by epoch 0 and no ping ever moves it, so no
    // node registers a stale-epoch cell.
    let stale = a.counters.iter().find(|(n, _)| n.ends_with(".stale_epoch_discards"));
    assert!(stale.is_none(), "{stale:?}");
    for d in 0..3 {
        assert_eq!(counter(&a, &format!("node.device{d}.captures")), 8);
        assert_eq!(counter(&a, &format!("node.device{d}.offloads")), escalations);
    }

    // The per-link cells are the same atomics the legacy LinkStats view is
    // snapshotted from, and without ARQ nothing is ever retransmitted.
    for (name, stats) in &a.links {
        assert_eq!(
            counter(&a, &format!("link.{name}.payload_bytes")),
            stats.payload_bytes as u64,
            "{name}"
        );
        assert_eq!(stats.retx_payload_bytes, 0, "{name}");
        assert_eq!(stats.first_payload_bytes(), stats.payload_bytes, "{name}");
    }

    // The JSON rendering carries every cell.
    let json = a.counters_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"run.samples\": 8"), "{json}");
}

#[test]
fn timeline_sink_captures_the_sample_stream_and_every_exit() {
    let model = small_model();
    let views = random_views(6, 3, 41);
    let labels = vec![0usize; 6];
    let sink = Arc::new(MemorySink::default());
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        obs: ObsConfig { sink: Some(sink.clone()) },
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();

    assert_eq!(sink.count_kind("sample_enqueued"), 6);
    let exits = sink.count_kind("exit_taken") as u64;
    let escalated = sink.count_kind("escalated") as u64;
    // Every sample produces one exit somewhere; escalated samples add a
    // gateway escalation before their terminal exit.
    assert_eq!(exits, 6);
    assert_eq!(escalated, counter(&report, "node.gateway.escalations"));
    assert_eq!(sink.count_kind("tier_aggregate") as u64, 6 + escalated);
    assert_eq!(sink.count_kind("deadline_fired"), 0);
    assert_eq!(sink.count_kind("frame_corrupt"), 0);

    // Exit events carry a well-formed η and the gate it was tested against.
    for (_, event) in sink.events() {
        if let ObsEvent::ExitTaken { eta, threshold, node, .. } = &event {
            assert!(eta.is_finite() && (0.0..=1.0).contains(eta), "{node}: eta {eta}");
            assert!(*threshold > 0.0);
        }
    }
}

#[test]
fn chaos_run_emits_deadline_and_corruption_events() {
    // CRC framing, a corrupting link layer and a device that is dead on
    // arrival: the timeline must show corrupt discards and deadline-driven
    // finalization, and the counters must match the report's telemetry.
    let model = small_model();
    let views = random_views(8, 3, 42);
    let labels = vec![0usize; 8];
    let sink = Arc::new(MemorySink::default());
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan::links(7, Impairment { corrupt: 0.4, ..Impairment::none() }).with(
            ChaosWhen::AfterFrames(0),
            ChaosTarget::Device(2),
            ChaosAction::Down,
        ),
        deadlines: Some(DeadlineConfig { aggregation_ms: 150, ..DeadlineConfig::fast() }),
        reliability: ReliabilityConfig::crc(),
        obs: ObsConfig { sink: Some(sink.clone()) },
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();

    assert!(sink.count_kind("exit_taken") > 0);
    assert!(
        sink.count_kind("deadline_fired") > 0,
        "a dead device must force deadline finalization"
    );
    assert!(sink.count_kind("frame_corrupt") > 0, "corrupt_prob=0.4 left no corrupt frame");
    assert_eq!(
        sink.count_kind("frame_corrupt"),
        report.corrupt_frames_discarded,
        "timeline and report disagree on corrupt discards"
    );
    let expiries: u64 = report
        .counters
        .iter()
        .filter(|(n, _)| n.ends_with(".deadline_expiries"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(expiries, sink.count_kind("deadline_fired") as u64);
}

#[test]
fn arq_run_emits_retransmit_and_ack_events_and_splits_retx_bytes() {
    // Lossy links under ARQ: the timeline must show retransmissions and
    // acks, and the per-link stats must split first-transmission payload
    // from retransmitted payload instead of conflating them.
    let model = small_model();
    let views = random_views(6, 3, 43);
    let labels = vec![0usize; 6];
    let sink = Arc::new(MemorySink::default());
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan::links(11, Impairment { drop: 0.3, ..Impairment::none() }),
        deadlines: Some(DeadlineConfig { aggregation_ms: 200, ..DeadlineConfig::fast() }),
        reliability: ReliabilityConfig::arq(),
        obs: ObsConfig { sink: Some(sink.clone()) },
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();

    assert!(sink.count_kind("retransmit") > 0, "30% drops under ARQ must retransmit");
    assert!(sink.count_kind("ack_sent") > 0, "ARQ receivers must ack");
    let retx: usize = report.links.iter().map(|(_, s)| s.retx_payload_bytes).sum();
    let total: usize = report.links.iter().map(|(_, s)| s.payload_bytes).sum();
    assert!(retx > 0, "retransmissions must be accounted separately");
    assert!(retx < total, "first transmissions must remain the majority share");
    for (name, s) in &report.links {
        assert_eq!(
            s.first_payload_bytes() + s.retx_payload_bytes,
            s.payload_bytes,
            "{name}: first + retx must equal total"
        );
    }
    assert!(report.device_first_payload_bytes() <= report.device_payload_bytes());
}

#[test]
fn elastic_churn_events_counters_and_summary_reconcile() {
    // Membership churn: the timeline events, the counter registry and the
    // report's elastic summary are three views of the same ledger — they
    // must agree exactly, and joins minus leaves must equal the live-set
    // delta.
    use ddnn_runtime::ElasticConfig;
    let model = Ddnn::new(DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(ddnn_core::EdgeConfig { filters: 4, agg: ddnn_core::AggregationScheme::Concat }),
        ..DdnnConfig::default()
    });
    let views = random_views(10, 3, 44);
    let labels = vec![0usize; 10];
    let sink = Arc::new(MemorySink::default());
    let ev = |at_sample, target, action| ChaosEvent {
        when: ChaosWhen::BeforeSample(at_sample),
        target,
        action,
    };
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        chaos: ChaosPlan {
            seed: 0,
            events: vec![
                ev(2, ChaosTarget::Device(1), ChaosAction::Down),
                ev(3, ChaosTarget::Tier("edge".to_string()), ChaosAction::Down),
                ev(5, ChaosTarget::Device(1), ChaosAction::Up),
                ev(7, ChaosTarget::Tier("edge".to_string()), ChaosAction::Up),
            ],
        },
        deadlines: Some(DeadlineConfig {
            aggregation_ms: 150,
            watchdog_ms: 800,
            max_retries: 1,
            suspect_after: 2,
        }),
        elastic: Some(ElasticConfig::fast()),
        obs: ObsConfig { sink: Some(sink.clone()) },
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    let summary = report.elastic.clone().expect("elastic summary");

    // Counters, events and the summary agree cell for cell.
    assert_eq!(counter(&report, "run.epochs"), summary.epochs);
    assert_eq!(counter(&report, "run.member_joins"), summary.member_joins);
    assert_eq!(counter(&report, "run.member_leaves"), summary.member_leaves);
    assert_eq!(sink.count_kind("member_join") as u64, summary.member_joins);
    assert_eq!(sink.count_kind("member_leave") as u64, summary.member_leaves);
    assert_eq!(sink.count_kind("reparent") as u64, summary.reparents);
    let reparent_counters: u64 =
        report.counters.iter().filter(|(n, _)| n.ends_with(".reparents")).map(|(_, v)| *v).sum();
    assert_eq!(reparent_counters, summary.reparents);
    let stale_counters: u64 = report
        .counters
        .iter()
        .filter(|(n, _)| n.ends_with(".stale_epoch_discards"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(stale_counters, summary.stale_epoch_discards);

    // The membership ledger balances: joins − leaves == live-set delta.
    assert!(summary.member_leaves >= 2, "two crashes: {summary:?}");
    assert!(summary.epochs >= 2);
    assert_eq!(
        summary.member_joins as i64 - summary.member_leaves as i64,
        summary.final_live as i64 - summary.initial_live as i64,
        "{summary:?}"
    );
    assert_eq!(summary.final_live, summary.initial_live, "everything rejoined");

    // Every membership event carries the epoch that published it, and
    // epochs increase monotonically along the timeline.
    let mut last_epoch = 0;
    for (_, event) in sink.events() {
        let e = match &event {
            ObsEvent::MemberJoin { epoch, .. }
            | ObsEvent::MemberLeave { epoch, .. }
            | ObsEvent::Reparent { epoch, .. } => *epoch,
            _ => continue,
        };
        assert!(e >= last_epoch, "epoch went backwards: {e} after {last_epoch}");
        last_epoch = e;
    }
    assert_eq!(last_epoch, summary.epochs, "the last membership event is the newest epoch");
}
