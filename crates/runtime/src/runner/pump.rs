//! The sample pump: the one driver that admits samples into the
//! hierarchy, waits for their verdicts and fills the run's tallies, under
//! every runner and every arrival discipline.
//!
//! Samples arrive on a schedule (`cfg.stream`: Poisson or fixed-rate, so
//! the runtime is measured under *offered load*) or in **lockstep** — the
//! schedule's degenerate case: an admission window of one, the next
//! arrival due the moment the window is empty. Whatever the discipline:
//!
//! - **Admission control.** At most `queue_cap` samples are in flight; an
//!   arrival past that bound is *shed* — a typed, counted
//!   [`SampleOutcome::Shed`], never a silent drop. Shedding is flow
//!   control, not a fault: shed samples are excluded from the degraded
//!   set and from latency percentiles. Lockstep never sheds: its arrivals
//!   wait for the window.
//! - **One watchdog budget.** An in-flight sample is granted
//!   `watchdog_ms × (max_retries + 1)` before it times out in place
//!   (typed, counted, never blocking the samples behind it). Lockstep
//!   spends the budget in `watchdog_ms` slices and re-feeds the sample's
//!   captures between them; a scheduled arrival waits it out in one piece
//!   — re-feeding into a loaded pipeline would only add to the load.
//!   Without deadlines there is no watchdog: the wait blocks, and
//!   anything but the awaited verdict is a protocol error.
//! - **Latency.** A scheduled sample's latency is measured from its
//!   *scheduled* arrival instant on the sub-millisecond clock
//!   ([`SimClock::elapsed_ms_f64`]), so dispatch jitter and queueing delay
//!   are charged to the sample, not hidden by it (no coordinated
//!   omission). Lockstep has no queue to measure and reports the analytic
//!   link-model latency of the exit the sample took.

use super::orchestrate::SampleHook;
use crate::chaos::{ChaosTarget, Schedule};
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::link::NodeInbox;
use crate::message::{Frame, Payload};
use crate::node::report::{RunTallies, SampleOutcome};
use crate::obs::{ObsEvent, RunObs};
use crate::orchestrator::rebalance::RoutingTable;
use crate::orchestrator::ElasticDriver;
use crate::topology::{DeadlineConfig, StreamConfig};
use ddnn_core::ExitPoint;
use std::collections::BTreeMap;

/// An admitted sample awaiting its verdict. Times are milliseconds since
/// the pump started.
struct InFlight {
    /// The arrival instant latency is measured from.
    born: f64,
    /// Watchdog slices already spent on it.
    attempts: u32,
    /// When the watchdog next acts on it: a re-feed while slices remain,
    /// the timeout after the last.
    due: f64,
}

/// Drives `n_samples` through the hierarchy behind `hook`: `stream` sets
/// the arrival schedule and admission window (`None`: lockstep),
/// `deadlines` the watchdog (`None`: blocking waits, strict protocol).
/// Captures go out under `elastic`'s published routing, or under
/// `initial` (epoch 0) in a run no driver steers.
///
/// Conservation invariant, checked by the chaos suite: every arrival is
/// exactly one of classified / shed / timed out, and
/// `admitted == classified + timed_out`.
#[allow(clippy::too_many_arguments)]
pub(super) fn pump(
    n_samples: usize,
    stream: Option<&StreamConfig>,
    deadlines: Option<DeadlineConfig>,
    clock: SimClock,
    orch_rx: &mut NodeInbox,
    hook: &mut impl SampleHook,
    schedule: &mut Schedule,
    exit_point_of: impl Fn(u8) -> Result<ExitPoint>,
    latency_of: impl Fn(u8) -> f32,
    obs: &RunObs,
    initial: &RoutingTable,
    mut elastic: Option<&mut ElasticDriver>,
) -> Result<RunTallies> {
    let lockstep = stream.is_none();
    let offsets = stream.map(|s| s.arrival.offsets_ms(n_samples));
    let window = stream.map_or(1, |s| s.queue_cap);
    let (watchdog_ms, max_retries) =
        deadlines.map_or((f64::INFINITY, 0), |dl| (dl.watchdog_ms as f64, dl.max_retries));
    // A scheduled arrival starts on its last slice, stretched to the whole
    // budget.
    let first_attempt = if lockstep { 0 } else { max_retries };
    let mut predictions = vec![0usize; n_samples];
    let mut exits = vec![ExitPoint::Cloud; n_samples];
    let mut latencies = vec![0.0f64; n_samples];
    let mut outcomes = vec![SampleOutcome::Classified; n_samples];
    // Each discipline reports the counters that can move under it.
    let registry = obs.registry();
    let samples_ctr = registry.counter("run.samples");
    let timeouts_ctr = registry.counter("run.watchdog_timeouts");
    let retries_ctr = lockstep.then(|| registry.counter("run.capture_retries"));
    let admission_ctrs =
        (!lockstep).then(|| (registry.counter("run.admitted"), registry.counter("run.shed")));

    // `due` is nondecreasing in seq — scheduled births are, and lockstep
    // holds one sample — so the first entry always carries the earliest.
    let mut inflight: BTreeMap<u64, InFlight> = BTreeMap::new();
    // Frames off the orchestrator's inbox, waiting to be resolved.
    let mut arrived: Vec<Frame> = Vec::new();
    let t0 = clock.elapsed_ms_f64();
    let mut next = 0usize;
    // Elastic heartbeat sweeps — membership moves and topology epochs are
    // published only there. Scheduled arrivals pace them at the heartbeat
    // period; lockstep runs one strictly between samples, after each
    // resolves (`swept` counts the samples that had theirs).
    let mut sweep_at = elastic.as_ref().map_or(f64::INFINITY, |d| d.heartbeat_ms as f64);
    let mut swept = 0usize;

    // Under deadlines, retried samples leave duplicate and stale verdicts
    // behind and sweeps leave late pongs: they drain harmlessly. Without,
    // nothing is ever sent twice.
    let unexpected = |reason: String| match deadlines {
        Some(_) => Ok(()),
        None => Err(RuntimeError::Protocol { reason }),
    };

    loop {
        // The watchdog: re-feed or expire whatever is past due.
        let now = clock.elapsed_ms_f64() - t0;
        while let Some(mut first) = inflight.first_entry().filter(|e| e.get().due <= now) {
            let (seq, flight) = (*first.key(), first.get_mut());
            if flight.attempts < max_retries {
                flight.attempts += 1;
                if let Some(retries) = &retries_ctr {
                    retries.incr();
                }
                hook.feed(seq as usize, elastic.as_deref().map_or(initial, |d| &d.routing))?;
                flight.due = clock.elapsed_ms_f64() - t0 + watchdog_ms;
                continue;
            }
            let waited_ms = (f64::from(flight.attempts + 1) * watchdog_ms) as u64;
            first.remove();
            let i = seq as usize;
            timeouts_ctr.incr();
            obs.emit(|| ObsEvent::WatchdogTimeout { seq, waited_ms });
            outcomes[i] = SampleOutcome::TimedOut { waited_ms };
            predictions[i] = usize::MAX; // never matches a label
            latencies[i] = waited_ms as f64;
        }
        if let Some(driver) = elastic.as_deref_mut() {
            let due = if lockstep { inflight.is_empty() && swept < next } else { now >= sweep_at };
            if due {
                driver.after_sample(next.saturating_sub(1) as u64, orch_rx, &mut arrived)?;
                sweep_at = clock.elapsed_ms_f64() - t0 + driver.heartbeat_ms as f64;
                swept = next;
            }
        }
        // Admit (or shed) every arrival that is due: on its schedule, or —
        // lockstep — as soon as the window is empty.
        let now = clock.elapsed_ms_f64() - t0;
        let arrival_at = |i: usize, idle: bool| match &offsets {
            Some(offsets) => offsets[i],
            None if idle => now,
            None => f64::INFINITY,
        };
        while next < n_samples {
            let (i, born) = (next, arrival_at(next, inflight.is_empty()));
            if born > now {
                break;
            }
            next += 1;
            let seq = i as u64;
            samples_ctr.incr();
            obs.emit(|| ObsEvent::SampleEnqueued { seq });
            // Chaos: whatever is scheduled before this sample happens
            // before its captures go out, so a scheduled Down takes effect
            // exactly at its sample — a node's through the elastic
            // driver's confirmed ping, a process's through the runner.
            schedule.fire(seq, |target, down| match elastic.as_deref_mut() {
                Some(driver) if !matches!(target, ChaosTarget::Process(_)) => {
                    driver.set_down(target, down, orch_rx, &mut arrived)
                }
                _ => hook.apply(seq, target, down),
            })?;
            if inflight.len() >= window {
                if let Some((_, shed)) = &admission_ctrs {
                    shed.incr();
                }
                let depth = inflight.len();
                obs.emit(|| ObsEvent::SampleShed { seq, inflight: depth });
                outcomes[i] = SampleOutcome::Shed;
                predictions[i] = usize::MAX; // never matches a label
                continue; // latency stays 0: the sample never entered
            }
            if let Some((admitted, _)) = &admission_ctrs {
                admitted.incr();
            }
            hook.feed(i, elastic.as_deref().map_or(initial, |d| &d.routing))?;
            let due = born + f64::from(first_attempt + 1) * watchdog_ms;
            inflight.insert(seq, InFlight { born, attempts: first_attempt, due });
        }
        if next >= n_samples && inflight.is_empty() {
            break;
        }
        // Sleep until the next interesting instant: the next arrival, the
        // earliest watchdog action, or the next heartbeat sweep —
        // whichever comes first. A frame landing earlier wakes us up; no
        // frame is a tick, handled at the loop top. With nothing of the
        // three ahead (lockstep without deadlines) only the verdict can
        // end the wait.
        if arrived.is_empty() {
            let mut wake = inflight.first_key_value().map_or(f64::INFINITY, |(_, f)| f.due);
            if next < n_samples {
                wake = wake.min(arrival_at(next, false));
            }
            if !lockstep {
                wake = wake.min(sweep_at);
            }
            let now = clock.elapsed_ms_f64() - t0;
            arrived.extend(if wake.is_finite() {
                orch_rx.recv_deadline(clock.deadline_in_f64(wake - now))?
            } else {
                Some(orch_rx.recv()?)
            });
        }
        for frame in arrived.drain(..) {
            let Payload::Verdict { prediction, exit_tier } = frame.payload else {
                unexpected("orchestrator received a non-verdict".to_string())?;
                continue;
            };
            let Some(flight) = inflight.remove(&frame.seq) else {
                let running = inflight.keys().next().map_or(frame.seq, |&s| s);
                unexpected(format!("verdict for sample {} while running {running}", frame.seq))?;
                continue;
            };
            let i = frame.seq as usize;
            predictions[i] = prediction as usize;
            exits[i] = exit_point_of(exit_tier)?;
            latencies[i] = if lockstep {
                // Widening the f32 link-model latency is lossless, so the
                // f32 mean fields stay bit-identical to the seed runtime.
                f64::from(latency_of(exit_tier))
            } else {
                clock.elapsed_ms_f64() - t0 - flight.born
            };
        }
    }
    Ok(RunTallies { predictions, exits, latencies, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::link::{link, LinkSender};
    use crate::message::NodeId;
    use crate::obs::ObsConfig;
    use crate::orchestrator::rebalance::{compute_routing, Compat};
    use crate::topology::ArrivalProcess;

    /// A one-node "hierarchy" that answers every capture round with a
    /// local-exit verdict — except the first round, which it loses.
    struct LosesTheFirstFeed {
        verdicts: LinkSender,
        feeds: usize,
    }

    impl SampleHook for LosesTheFirstFeed {
        fn feed(&mut self, i: usize, _: &RoutingTable) -> Result<()> {
            self.feeds += 1;
            if self.feeds == 1 {
                return Ok(());
            }
            let verdict = Payload::Verdict { prediction: 3, exit_tier: 0 };
            self.verdicts.send(&Frame::new(i as u64, NodeId::Gateway, verdict))
        }
    }

    /// One sample through the pump behind that hook; returns the tallies,
    /// the feeds the hook saw and `run.capture_retries`.
    fn run(stream: Option<StreamConfig>, dl: DeadlineConfig) -> (RunTallies, usize, u64) {
        let (verdicts, rx, _) = link("gateway->orchestrator");
        let obs = RunObs::new(&ObsConfig::default());
        let mut inbox = NodeInbox::new(rx, RunObs::disabled());
        let mut hook = LosesTheFirstFeed { verdicts, feeds: 0 };
        let tallies = pump(
            1,
            stream.as_ref(),
            Some(dl),
            SimClock::start(),
            &mut inbox,
            &mut hook,
            &mut ChaosPlan::none().schedule(),
            |_| Ok(ExitPoint::Local),
            |_| 2.5,
            &obs,
            &compute_routing(0, vec![true; 3], 1, &Compat::chain(1)),
            None,
        )
        .unwrap();
        let retries = obs.registry().counter("run.capture_retries").get();
        (tallies, hook.feeds, retries)
    }

    #[test]
    fn lockstep_re_feeds_a_lost_sample_and_scheduled_arrivals_wait_out_the_budget() {
        let dl = DeadlineConfig { watchdog_ms: 15, max_retries: 2, ..DeadlineConfig::fast() };

        // Lockstep: one watchdog slice passes, the captures go out again,
        // the verdict lands.
        let (tallies, feeds, retries) = run(None, dl);
        assert_eq!(tallies.outcomes, [SampleOutcome::Classified]);
        assert_eq!((tallies.predictions[0], tallies.exits[0]), (3, ExitPoint::Local));
        assert_eq!(tallies.latencies, [2.5], "lockstep latency is the link model's");
        assert_eq!((feeds, retries), (2, 1));

        // Scheduled arrival: never re-fed, timed out at the whole budget.
        let stream = StreamConfig {
            arrival: ArrivalProcess::Fixed { rate_per_s: 1000.0 },
            queue_cap: 1,
            batch_max: 1,
        };
        let (tallies, feeds, retries) = run(Some(stream), dl);
        assert_eq!(tallies.outcomes, [SampleOutcome::TimedOut { waited_ms: 45 }]);
        assert_eq!(tallies.latencies, [45.0]);
        assert_eq!((feeds, retries), (1, 0));
    }
}
