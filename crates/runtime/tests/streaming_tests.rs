//! Streaming-engine tests: the open-loop arrival pump must account for
//! every arrival as exactly one typed outcome (classified / shed / timed
//! out — conservation), bound the admission queue at `queue_cap`, match
//! the closed loop verdict for verdict when unloaded, and survive
//! membership churn while samples are in flight.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, ArrivalProcess, ChaosPlan, ChaosTarget,
    DeadlineConfig, ElasticConfig, HierarchyConfig, MemorySink, ObsConfig, ObsEvent,
    ReliabilityConfig, SampleOutcome, SimReport, StreamConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;
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
    report.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
}

/// Typed-outcome census: (classified, shed, timed out).
fn census(report: &SimReport) -> (usize, usize, usize) {
    let mut c = (0usize, 0usize, 0usize);
    for o in &report.outcomes {
        match o {
            SampleOutcome::Classified => c.0 += 1,
            SampleOutcome::Shed => c.1 += 1,
            SampleOutcome::TimedOut { .. } => c.2 += 1,
        }
    }
    c
}

/// The streaming engine's accounting contract, asserted after every run:
/// conservation across the typed outcomes, counters that agree with the
/// per-sample records, typed (evented) shedding only at a full admission
/// window, and shed samples excluded from latency and degradation.
fn assert_streaming_accounting(report: &SimReport, n: usize, queue_cap: usize, sink: &MemorySink) {
    let (classified, shed, timed_out) = census(report);
    assert_eq!(classified + shed + timed_out, n, "conservation: no sample unaccounted");
    assert_eq!(counter(report, "run.samples"), n as u64, "every arrival counted");
    assert_eq!(
        counter(report, "run.admitted"),
        (classified + timed_out) as u64,
        "admitted samples either classify or time out"
    );
    assert_eq!(counter(report, "run.shed"), shed as u64);
    assert_eq!(counter(report, "run.watchdog_timeouts"), timed_out as u64);

    // Shedding is never silent: one timeline event per shed sample, and
    // only ever at a full admission window (the queue-depth bound).
    let shed_events: Vec<usize> = sink
        .events()
        .into_iter()
        .filter_map(|(_, e)| match e {
            ObsEvent::SampleShed { inflight, .. } => Some(inflight),
            _ => None,
        })
        .collect();
    assert_eq!(shed_events.len(), shed, "one shed event per shed sample");
    for depth in shed_events {
        assert_eq!(depth, queue_cap, "samples shed only when the window is full");
    }

    for i in 0..n {
        match report.outcomes[i] {
            SampleOutcome::Shed => {
                assert_eq!(report.latencies_ms[i], 0.0, "a shed sample never waited");
                assert_eq!(report.predictions[i], usize::MAX);
                assert!(
                    !report.degraded_samples.contains(&(i as u64)),
                    "shedding is flow control, not degradation"
                );
            }
            SampleOutcome::Classified => {
                assert!(report.latencies_ms[i] > 0.0, "sample {i}: measured latency missing");
            }
            SampleOutcome::TimedOut { waited_ms } => {
                assert_eq!(report.latencies_ms[i], waited_ms as f64);
            }
        }
    }
}

fn stream_cfg(arrival: ArrivalProcess, queue_cap: usize, batch_max: usize) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.5),
        deadlines: Some(DeadlineConfig { watchdog_ms: 2000, ..DeadlineConfig::fast() }),
        stream: Some(StreamConfig { arrival, queue_cap, batch_max }),
        ..HierarchyConfig::default()
    }
}

proptest! {
    // The conservation law under arbitrary load shapes: any seeded
    // Poisson or fixed-rate arrival process, any admission window, any
    // batch width — every arrival resolves to exactly one typed outcome
    // and the queue never grows past its cap.
    #[test]
    fn streaming_conserves_every_arrival(
        n in 6usize..16,
        queue_cap in 1usize..6,
        batch_max in 1usize..5,
        rate in 100.0f64..4000.0,
        poisson in 0u8..2,
        seed in 0u64..1000,
    ) {
        let model = small_model();
        let views = random_views(n, 3, seed ^ 0xabcd);
        let labels = vec![0usize; n];
        let arrival = if poisson == 1 {
            ArrivalProcess::Poisson { rate_per_s: rate, seed }
        } else {
            ArrivalProcess::Fixed { rate_per_s: rate }
        };
        let sink = Arc::new(MemorySink::default());
        let cfg = HierarchyConfig {
            obs: ObsConfig { sink: Some(sink.clone()) },
            ..stream_cfg(arrival, queue_cap, batch_max)
        };
        let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg)
            .expect("streaming run");
        assert_streaming_accounting(&report, n, queue_cap, &sink);
    }
}

#[test]
fn unloaded_streaming_matches_the_closed_loop_verdict_for_verdict() {
    // At an arrival rate the pipeline trivially sustains, with a window
    // wide enough that nothing sheds, streaming must classify every
    // sample to exactly the closed loop's prediction and exit — the pump
    // changes scheduling, never arithmetic.
    let model = small_model();
    let n = 8;
    let views = random_views(n, 3, 71);
    let labels = vec![0usize; n];
    let closed = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &HierarchyConfig { local_threshold: ExitThreshold::new(0.5), ..HierarchyConfig::default() },
    )
    .expect("closed-loop reference");
    let report = run_distributed_inference(
        &model.partition(),
        &views,
        &labels,
        &stream_cfg(ArrivalProcess::Fixed { rate_per_s: 200.0 }, n, 4),
    )
    .expect("streaming run");
    let (classified, shed, timed_out) = census(&report);
    assert_eq!((classified, shed, timed_out), (n, 0, 0), "unloaded: everything classifies");
    assert_eq!(report.predictions, closed.predictions);
    assert_eq!(report.exits, closed.exits);
    // Streaming latency is measured on the sub-millisecond clock, not the
    // truncated one: a local exit on an unloaded pipeline lands far under
    // a millisecond, which the u64 clock would have flattened to zero.
    for (i, &ms) in report.latencies_ms.iter().enumerate() {
        assert!(ms > 0.0, "sample {i}: zero measured latency");
        assert!(ms.fract() != 0.0, "sample {i}: latency {ms} looks truncated");
    }
}

#[test]
fn the_cloud_only_baseline_streams_to_its_closed_loop_verdicts() {
    // The §IV-H baseline runs behind the same pump: under scheduled
    // arrivals every raw-offloaded sample is accounted for and classifies
    // exactly as in lockstep.
    let model = small_model();
    let n = 8;
    let views = random_views(n, 3, 75);
    let labels = vec![0usize; n];
    let closed =
        run_cloud_only_baseline(&model.partition(), &views, &labels, &HierarchyConfig::default())
            .expect("closed-loop baseline");
    let report = run_cloud_only_baseline(
        &model.partition(),
        &views,
        &labels,
        &stream_cfg(ArrivalProcess::Fixed { rate_per_s: 200.0 }, n, 4),
    )
    .expect("streaming baseline");
    let (classified, shed, timed_out) = census(&report);
    assert_eq!(classified + shed + timed_out, n, "conservation: no sample unaccounted");
    assert_eq!((shed, timed_out), (0, 0), "unloaded: everything classifies");
    assert_eq!(report.predictions, closed.predictions);
    assert_eq!(report.exits, closed.exits);
}

#[test]
fn overload_sheds_typed_and_counted_never_silent() {
    // A one-slot admission window under a flood: almost everything must
    // shed, and every shed is a typed outcome + counter + timeline event.
    let model = small_model();
    let n = 12;
    let views = random_views(n, 3, 72);
    let labels = vec![0usize; n];
    let sink = Arc::new(MemorySink::default());
    let cfg = HierarchyConfig {
        obs: ObsConfig { sink: Some(sink.clone()) },
        ..stream_cfg(ArrivalProcess::Fixed { rate_per_s: 1e6 }, 1, 1)
    };
    let report =
        run_distributed_inference(&model.partition(), &views, &labels, &cfg).expect("flood run");
    let (_, shed, _) = census(&report);
    assert!(shed > 0, "a one-slot window under flood load must shed");
    assert_streaming_accounting(&report, n, 1, &sink);
}

#[test]
fn streaming_survives_churn_while_loaded() {
    // The acceptance chaos scenario: membership churn flapping devices,
    // the gateway and the edge tier while an open-loop stream keeps the
    // admission window loaded — on both wire formats. Conservation and
    // the queue bound must hold; churn may degrade or time samples out,
    // never lose them.
    //
    // Pacing matters for the liveness assertion at the bottom: churn
    // flags flip at arrival index, so arrivals must be spread wide enough
    // that up-windows outlast the pipeline and elastic detection
    // (~2 heartbeats), and the watchdog budget short enough that stalled
    // samples release their admission slots mid-stream. A flood-rate
    // stream with a budget longer than the whole run turns the scenario
    // into a wall-clock race where every slot can stall behind the first
    // crash and nothing ever classifies on a slow machine.
    let model = Ddnn::new(DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        ..DdnnConfig::default()
    });
    let n = 16;
    let views = random_views(n, 3, 73);
    let labels = vec![0usize; n];
    let targets =
        [ChaosTarget::Device(0), ChaosTarget::Gateway, ChaosTarget::Tier("edge".to_string())];
    for reliability in [ReliabilityConfig::crc(), ReliabilityConfig::arq()] {
        let sink = Arc::new(MemorySink::default());
        let cfg = HierarchyConfig {
            local_threshold: ExitThreshold::new(0.5),
            edge_threshold: ExitThreshold::new(0.5),
            chaos: ChaosPlan::flapping(97, n as u64, &targets, 6, 2),
            deadlines: Some(DeadlineConfig {
                aggregation_ms: 60,
                watchdog_ms: 250,
                max_retries: 1,
                suspect_after: 2,
            }),
            elastic: Some(ElasticConfig::fast()),
            reliability,
            stream: Some(StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s: 30.0, seed: 5 },
                queue_cap: 4,
                batch_max: 4,
            }),
            obs: ObsConfig { sink: Some(sink.clone()) },
            ..HierarchyConfig::default()
        };
        let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg)
            .expect("churn-while-loaded run");
        assert_streaming_accounting(&report, n, 4, &sink);
        let (classified, _, _) = census(&report);
        assert!(classified > 0, "churn never blanks the whole stream");
    }
}
