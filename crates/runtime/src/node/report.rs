//! Run reports: per-sample results, link traffic and degradation
//! telemetry, plus the shared assembly path that turns one run's tallies
//! and its counter registry into a [`SimReport`].

use crate::error::{Result, RuntimeError};
use crate::link::LinkStats;
use crate::obs::{self, LinkCounters, RunObs};
use ddnn_core::ExitPoint;
use std::collections::HashSet;

/// Terminal status of one sample in a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// A verdict arrived; `predictions[i]` holds the class.
    Classified,
    /// Every watchdog attempt expired; `predictions[i]` is `usize::MAX`
    /// and the sample counts as incorrect.
    TimedOut {
        /// Total time the orchestrator waited across all attempts (ms).
        waited_ms: u64,
    },
    /// The sample arrived while the streaming admission window was full
    /// and was never admitted: backpressure, not a fault. `predictions[i]`
    /// is `usize::MAX` and the sample counts as incorrect, but it is *not*
    /// degraded — shedding is the configured flow-control response.
    Shed,
}

/// Result of a distributed inference run over a labeled test set.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-sample predictions.
    pub predictions: Vec<usize>,
    /// Per-sample exit points.
    pub exits: Vec<ExitPoint>,
    /// Accuracy against the provided labels.
    pub accuracy: f32,
    /// Fraction of samples exited locally.
    pub local_exit_fraction: f32,
    /// Named per-link traffic counters, read off the `link.*` cells of
    /// [`SimReport::counters`].
    pub links: Vec<(String, LinkStats)>,
    /// Mean simulated end-to-end latency per sample (ms).
    pub mean_latency_ms: f32,
    /// Mean simulated latency of locally exited samples (ms).
    pub mean_local_latency_ms: f32,
    /// Mean simulated latency of offloaded samples (ms).
    pub mean_offload_latency_ms: f32,
    /// Per-sample terminal outcomes (all `Classified` in a fault-free run).
    pub outcomes: Vec<SampleOutcome>,
    /// Fraction of samples degraded by *dynamic* faults: finalized with at
    /// least one deadline-driven blank substitution at some tier, or timed
    /// out entirely. Statically failed devices
    /// ([`HierarchyConfig::failed_devices`](crate::HierarchyConfig)) do
    /// not count, with or without deadlines: nobody waits for them, and
    /// their substitution is the paper's intended behavior, not
    /// degradation.
    pub degraded_fraction: f32,
    /// Deadline substitutions charged to each device, summed across the
    /// aggregation tiers that waited for it (never a statically failed
    /// device: it is not waited for) — the `node.device{d}.timeouts` cells.
    pub device_timeouts: Vec<usize>,
    /// Capture retransmissions issued by the orchestrator watchdog — the
    /// `run.capture_retries` cell.
    pub capture_retries: usize,
    /// The samples behind [`SimReport::degraded_fraction`], sorted: every
    /// sample finalized with a deadline-driven blank substitution at some
    /// tier, or timed out entirely. Lets callers compare the surviving
    /// samples of a faulty run against a fault-free reference.
    pub degraded_samples: Vec<u64>,
    /// Checked-format frames discarded at the node inboxes because their
    /// CRC did not match (bit flips, truncation), summed across nodes —
    /// the `node.{inbox}.corrupt_discards` cells.
    pub corrupt_frames_discarded: usize,
    /// End-of-run snapshot of the observability registry: every named
    /// counter (run, per-node, per-link and transport cells), sorted by
    /// name. A multi-process run's holds what every surviving role process
    /// counted. The link, timeout, discard and retry fields above are read
    /// off it.
    pub counters: Vec<(String, u64)>,
    /// Per-sample end-to-end latencies (ms) — the raw series the mean
    /// fields summarize, for percentile analysis under churn and load.
    /// Closed-loop runs record the analytic link-model latency; streaming
    /// runs record measured wall time from the sample's *scheduled*
    /// arrival, at sub-millisecond resolution (shed samples record 0).
    pub latencies_ms: Vec<f64>,
    /// Elastic-orchestration summary; `None` when the control plane was
    /// not enabled ([`crate::HierarchyConfig::elastic`]).
    pub elastic: Option<ElasticSummary>,
}

/// What the elastic control plane observed over one run: how often the
/// topology was republished and how membership moved — read back from the
/// run's counters, where every transition is booked once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElasticSummary {
    /// Reconfigurations published (epoch bumps) after the initial table.
    pub epochs: u64,
    /// Node (re-)joins across all epochs.
    pub member_joins: u64,
    /// Node leaves (crashes, churn-downs) across all epochs.
    pub member_leaves: u64,
    /// Surviving-node edge changes across all epochs.
    pub reparents: u64,
    /// Nodes alive when the run started.
    pub initial_live: usize,
    /// Nodes alive when the run finished.
    pub final_live: usize,
    /// Frames nodes discarded because they predated the current topology
    /// epoch, summed across all nodes.
    pub stale_epoch_discards: u64,
}

impl SimReport {
    /// Measured *payload* bytes sent by end devices, total across the run
    /// (class-score vectors plus offloaded feature maps minus their shape
    /// preambles) — the quantity Eq. 1 models.
    pub fn device_payload_bytes(&self) -> usize {
        self.device_links().map(|s| s.payload_bytes).sum()
    }

    /// Measured device payload bytes *excluding ARQ retransmissions*: what
    /// each byte of application payload cost once, the quantity comparable
    /// to Eq. 1's analytic model. [`SimReport::device_payload_bytes`]
    /// includes retransmitted copies and therefore overstates the model
    /// under lossy links.
    pub fn device_first_payload_bytes(&self) -> usize {
        self.device_links().map(LinkStats::first_payload_bytes).sum()
    }

    /// The traffic of every link an end device sends on.
    fn device_links(&self) -> impl Iterator<Item = &LinkStats> {
        self.links.iter().filter(|(name, _)| name.starts_with("device")).map(|(_, s)| s)
    }

    /// Mean measured device payload bytes per sample *per live device*.
    pub fn device_payload_per_sample(&self, live_devices: usize) -> f32 {
        self.per_device_sample(self.device_payload_bytes(), live_devices)
    }

    /// Mean first-transmission device payload bytes per sample per live
    /// device (see [`SimReport::device_first_payload_bytes`]).
    pub fn device_first_payload_per_sample(&self, live_devices: usize) -> f32 {
        self.per_device_sample(self.device_first_payload_bytes(), live_devices)
    }

    /// `bytes` per sample per live device; 0 for an empty run.
    fn per_device_sample(&self, bytes: usize, live_devices: usize) -> f32 {
        match self.predictions.len() * live_devices {
            0 => 0.0,
            n => bytes as f32 / n as f32,
        }
    }

    /// The counter snapshot rendered as a JSON object, sorted by name.
    pub fn counters_json(&self) -> String {
        obs::counters_json(&self.counters)
    }

    /// Number of samples the watchdog abandoned.
    pub fn timed_out_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count()
    }

    /// Number of samples that received a verdict.
    pub fn classified_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count()
    }

    /// Number of samples shed by streaming backpressure.
    pub fn shed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Shed)).count()
    }

    /// The per-sample result: the predicted class, or the typed timeout
    /// error for a sample the watchdog abandoned.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::SampleIndex`] when `i` is out of range and
    /// [`RuntimeError::Timeout`] for samples the watchdog abandoned or the
    /// admission window shed (a shed sample waited 0 ms).
    pub fn sample_result(&self, i: usize) -> Result<usize> {
        match self.outcomes.get(i) {
            None => Err(RuntimeError::SampleIndex { index: i, len: self.outcomes.len() }),
            Some(SampleOutcome::Classified) => Ok(self.predictions[i]),
            Some(SampleOutcome::TimedOut { waited_ms }) => {
                Err(RuntimeError::Timeout { node: format!("sample {i}"), waited_ms: *waited_ms })
            }
            Some(SampleOutcome::Shed) => {
                Err(RuntimeError::Timeout { node: format!("sample {i} (shed)"), waited_ms: 0 })
            }
        }
    }

    /// Fraction of samples exited at `point`.
    pub fn exit_fraction(&self, point: ExitPoint) -> f32 {
        if self.exits.is_empty() {
            return 0.0;
        }
        self.exits.iter().filter(|&&e| e == point).count() as f32 / self.exits.len() as f32
    }
}

/// What a node thread hands back at shutdown besides its counters: the
/// samples it degraded, merged into the [`SimReport`].
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeReport {
    /// Samples this node finalized with at least one deadline substitution.
    pub(crate) degraded: Vec<u64>,
}

/// What the orchestrator tallied while driving one run's samples.
pub(crate) struct RunTallies {
    pub(crate) predictions: Vec<usize>,
    pub(crate) exits: Vec<ExitPoint>,
    pub(crate) latencies: Vec<f64>,
    pub(crate) outcomes: Vec<SampleOutcome>,
}

/// Merges the orchestrator's tallies, the nodes' degraded samples and the
/// run's counter registry into the final [`SimReport`]. Every runner
/// reports through it, so all share the identical arithmetic. `links`
/// names the report's link rows; a row nobody sent on reads zero.
pub(crate) fn assemble_report(
    tallies: RunTallies,
    labels: &[usize],
    links: &[String],
    node_reports: Vec<NodeReport>,
    num_devices: usize,
    obs: &RunObs,
) -> SimReport {
    let RunTallies { predictions, exits, latencies, outcomes } = tallies;
    let n_samples = predictions.len();

    // Every report row has its cells, so the snapshot lists each link.
    let registry = obs.registry();
    let links = (links.iter())
        .map(|name| (name.clone(), LinkCounters::registered(registry, name).snapshot()))
        .collect();
    let counters = registry.snapshot();
    let value = |name: &str| {
        let at = counters.binary_search_by(|(n, _)| n.as_str().cmp(name));
        at.map_or(0, |i| counters[i].1 as usize)
    };
    let discards = counters.iter().filter(|(n, _)| n.ends_with(".corrupt_discards"));

    let mut degraded: HashSet<u64> = node_reports.into_iter().flat_map(|r| r.degraded).collect();
    for (i, outcome) in outcomes.iter().enumerate() {
        if matches!(outcome, SampleOutcome::TimedOut { .. }) {
            degraded.insert(i as u64);
        }
    }

    let mut degraded_samples: Vec<u64> = degraded.into_iter().collect();
    degraded_samples.sort_unstable();
    let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    let local_exits = exits.iter().filter(|&&e| e == ExitPoint::Local).count();
    let share = |k: usize| if n_samples == 0 { 0.0 } else { k as f32 / n_samples as f32 };
    // The mean fields stay f32 and are summed in f32: the closed-loop path
    // stores exact f32 link-model values widened to f64, so casting each
    // back and summing in order reproduces the legacy arithmetic bit for
    // bit (the topology-equivalence goldens fingerprint these bits).
    let mean = |xs: &[f64]| match xs.len() {
        0 => 0.0,
        len => xs.iter().map(|&x| x as f32).sum::<f32>() / len as f32,
    };
    let latencies_at = |local: bool| -> Vec<f64> {
        let at = latencies.iter().zip(&exits).filter(|(_, &e)| (e == ExitPoint::Local) == local);
        at.map(|(&l, _)| l).collect()
    };

    SimReport {
        accuracy: share(correct),
        local_exit_fraction: share(local_exits),
        links,
        mean_latency_ms: mean(&latencies),
        mean_local_latency_ms: mean(&latencies_at(true)),
        mean_offload_latency_ms: mean(&latencies_at(false)),
        latencies_ms: latencies,
        elastic: None,
        predictions,
        exits,
        outcomes,
        degraded_fraction: share(degraded_samples.len()),
        degraded_samples,
        corrupt_frames_discarded: discards.map(|(_, v)| *v as usize).sum(),
        device_timeouts: (0..num_devices)
            .map(|d| value(&format!("node.device{d}.timeouts")))
            .collect(),
        capture_retries: value("run.capture_retries"),
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcomes: Vec<SampleOutcome>) -> SimReport {
        let n = outcomes.len();
        SimReport {
            predictions: (0..n).collect(),
            exits: vec![ExitPoint::Local; n],
            accuracy: 0.0,
            local_exit_fraction: 1.0,
            links: Vec::new(),
            mean_latency_ms: 0.0,
            mean_local_latency_ms: 0.0,
            mean_offload_latency_ms: 0.0,
            outcomes,
            degraded_fraction: 0.0,
            device_timeouts: Vec::new(),
            capture_retries: 0,
            degraded_samples: Vec::new(),
            corrupt_frames_discarded: 0,
            counters: Vec::new(),
            latencies_ms: Vec::new(),
            elastic: None,
        }
    }

    #[test]
    fn sample_result_out_of_range_is_typed() {
        let r = report(vec![SampleOutcome::Classified; 3]);
        assert_eq!(r.sample_result(2).unwrap(), 2);
        match r.sample_result(7) {
            Err(RuntimeError::SampleIndex { index: 7, len: 3 }) => {}
            other => panic!("expected SampleIndex, got {other:?}"),
        }
    }

    #[test]
    fn classified_count_complements_timeouts() {
        let r = report(vec![
            SampleOutcome::Classified,
            SampleOutcome::TimedOut { waited_ms: 10 },
            SampleOutcome::Classified,
        ]);
        assert_eq!(r.classified_count(), 2);
        assert_eq!(r.timed_out_count(), 1);
        assert_eq!(r.classified_count() + r.timed_out_count(), r.outcomes.len());
        assert!(matches!(r.sample_result(1), Err(RuntimeError::Timeout { .. })));
    }

    #[test]
    fn shed_samples_are_typed_and_conserved() {
        let r = report(vec![
            SampleOutcome::Classified,
            SampleOutcome::Shed,
            SampleOutcome::TimedOut { waited_ms: 10 },
            SampleOutcome::Shed,
        ]);
        assert_eq!(r.shed_count(), 2);
        assert_eq!(
            r.classified_count() + r.shed_count() + r.timed_out_count(),
            r.outcomes.len(),
            "every sample resolves to exactly one typed outcome"
        );
        match r.sample_result(1) {
            Err(RuntimeError::Timeout { node, waited_ms: 0 }) => {
                assert!(node.contains("shed"), "{node}");
            }
            other => panic!("expected a zero-wait timeout for a shed sample, got {other:?}"),
        }
    }
}
