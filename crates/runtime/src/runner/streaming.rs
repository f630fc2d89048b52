//! The open-loop streaming pump: samples arrive on a configured schedule
//! (Poisson or fixed-rate) instead of waiting for the previous verdict,
//! so the runtime is measured under *offered load* rather than lockstep.
//!
//! Three disciplines distinguish it from the closed-loop driver:
//!
//! - **Admission control.** At most `queue_cap` samples are in flight; an
//!   arrival past that bound is *shed* — a typed, counted
//!   [`SampleOutcome::Shed`], never a silent drop. Shedding is flow
//!   control, not a fault: shed samples are excluded from the degraded
//!   set and from latency percentiles.
//! - **Coordinated-omission-free latency.** A sample's latency is
//!   measured from its *scheduled* arrival instant on the sub-millisecond
//!   clock ([`SimClock::elapsed_ms_f64`]), so pump dispatch jitter and
//!   queueing delay are charged to the sample, not hidden by it.
//! - **Budgeted expiry.** An in-flight sample that outlives the full
//!   watchdog budget (`watchdog_ms × (max_retries + 1)`, the same total
//!   wait the closed loop grants) times out in place; the pump never
//!   blocks the arrival process on a straggler.

use super::orchestrate::SampleHook;
use crate::chaos::Schedule;
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::link::NodeInbox;
use crate::message::{Frame, Payload};
use crate::node::report::{RunTallies, SampleOutcome};
use crate::obs::{ObsEvent, RunObs};
use crate::orchestrator::ElasticDriver;
use crate::topology::{DeadlineConfig, StreamConfig};
use ddnn_core::ExitPoint;
use std::collections::BTreeMap;

/// The open-loop counterpart of `drive_samples`: admits samples on the
/// arrival schedule, sheds past the admission window, expires stragglers
/// at the watchdog budget and records measured (not modeled) latency.
///
/// Conservation invariant, checked by the chaos suite: every arrival is
/// exactly one of classified / shed / timed out, and
/// `admitted == classified + timed_out`.
#[allow(clippy::too_many_arguments)]
pub(super) fn drive_stream(
    n_samples: usize,
    stream: &StreamConfig,
    dl: DeadlineConfig,
    clock: SimClock,
    orch_rx: &mut NodeInbox,
    hook: &mut impl SampleHook,
    schedule: &mut Schedule,
    exit_point_of: impl Fn(u8) -> Result<ExitPoint>,
    obs: &RunObs,
    mut elastic: Option<&mut ElasticDriver>,
) -> Result<RunTallies> {
    let offsets = stream.arrival.offsets_ms(n_samples);
    let budget_ms = u64::from(dl.max_retries + 1) * dl.watchdog_ms;
    let mut predictions = vec![0usize; n_samples];
    let mut exits = vec![ExitPoint::Cloud; n_samples];
    let mut latencies = vec![0.0f64; n_samples];
    let mut outcomes = vec![SampleOutcome::Classified; n_samples];
    let samples_ctr = obs.registry().counter("run.samples");
    let admitted_ctr = obs.registry().counter("run.admitted");
    let shed_ctr = obs.registry().counter("run.shed");
    let timeouts_ctr = obs.registry().counter("run.watchdog_timeouts");

    // In-flight admission window: seq → scheduled arrival (ms since pump
    // start). Births are nondecreasing in seq, so the first entry always
    // carries the earliest expiry.
    let mut inflight: BTreeMap<u64, f64> = BTreeMap::new();
    let mut strays: Vec<Frame> = Vec::new();
    let t0 = clock.elapsed_ms_f64();
    let mut next_arrival = 0usize;
    let mut next_sweep = elastic.as_ref().map(|d| d.heartbeat_ms() as f64);

    let resolve = |seq: u64,
                   prediction: u16,
                   exit_tier: u8,
                   born: f64,
                   now: f64,
                   predictions: &mut [usize],
                   exits: &mut [ExitPoint],
                   latencies: &mut [f64]|
     -> Result<()> {
        let i = seq as usize;
        predictions[i] = prediction as usize;
        exits[i] = exit_point_of(exit_tier)?;
        latencies[i] = now - born;
        Ok(())
    };

    loop {
        let now = clock.elapsed_ms_f64() - t0;
        // Admit (or shed) every arrival that is due. Scheduled chaos fires
        // at the arrival, exactly as the closed loop fires it per sample.
        while next_arrival < n_samples && offsets[next_arrival] <= now {
            let i = next_arrival;
            next_arrival += 1;
            let seq = i as u64;
            schedule.fire(seq, |target, down| hook.apply(seq, target, down))?;
            samples_ctr.incr();
            obs.emit(|| ObsEvent::SampleEnqueued { seq });
            if inflight.len() >= stream.queue_cap {
                shed_ctr.incr();
                let depth = inflight.len();
                obs.emit(|| ObsEvent::SampleShed { seq, inflight: depth });
                outcomes[i] = SampleOutcome::Shed;
                predictions[i] = usize::MAX; // never matches a label
                continue; // latency stays 0: the sample never entered
            }
            admitted_ctr.incr();
            hook.feed(i)?;
            inflight.insert(seq, offsets[i]);
        }
        // Expire in-flight samples past the watchdog budget.
        let now = clock.elapsed_ms_f64() - t0;
        while let Some((&seq, &born)) = inflight.first_key_value() {
            // Later in-flight samples were born later; stop at the first
            // survivor. (Poisson offsets are nondecreasing by
            // construction.)
            if now - born < budget_ms as f64 {
                break;
            }
            inflight.remove(&seq);
            let i = seq as usize;
            timeouts_ctr.incr();
            obs.emit(|| ObsEvent::WatchdogTimeout { seq, waited_ms: budget_ms });
            outcomes[i] = SampleOutcome::TimedOut { waited_ms: budget_ms };
            predictions[i] = usize::MAX; // never matches a label
            latencies[i] = budget_ms as f64;
        }
        if next_arrival >= n_samples && inflight.is_empty() {
            break;
        }
        // Heartbeat sweep, paced at the configured period. Verdicts that
        // land while the sweep is collecting pongs come back through the
        // stray sink and resolve below like any other.
        if let (Some(driver), Some(due)) = (elastic.as_deref_mut(), next_sweep) {
            if now >= due {
                let seq = next_arrival.saturating_sub(1) as u64;
                driver.after_sample(seq, orch_rx, Some(&mut strays))?;
                next_sweep = Some(clock.elapsed_ms_f64() - t0 + driver.heartbeat_ms() as f64);
            }
        }
        for frame in strays.drain(..) {
            if let Payload::Verdict { prediction, exit_tier } = frame.payload {
                if let Some(born) = inflight.remove(&frame.seq) {
                    let now = clock.elapsed_ms_f64() - t0;
                    resolve(
                        frame.seq,
                        prediction,
                        exit_tier,
                        born,
                        now,
                        &mut predictions,
                        &mut exits,
                        &mut latencies,
                    )?;
                }
            }
        }
        // Sleep until the next interesting instant: the next arrival, the
        // earliest in-flight expiry, or the next heartbeat sweep —
        // whichever comes first. A verdict landing earlier wakes us up.
        let now = clock.elapsed_ms_f64() - t0;
        let mut wake = f64::INFINITY;
        if next_arrival < n_samples {
            wake = wake.min(offsets[next_arrival]);
        }
        if let Some((_, &born)) = inflight.first_key_value() {
            wake = wake.min(born + budget_ms as f64);
        }
        if let Some(due) = next_sweep {
            wake = wake.min(due);
        }
        if !wake.is_finite() {
            return Err(RuntimeError::Protocol {
                reason: "streaming pump idle with nothing scheduled".to_string(),
            });
        }
        // A `None` recv is a tick: arrivals / expiries handled at loop
        // top. Anything that isn't a verdict for an in-flight sample —
        // duplicate verdicts, late pongs from a timed-out sweep —
        // drains harmlessly; a pong missed here simply counts as a
        // missed heartbeat.
        if let Some(frame) = orch_rx.recv_deadline(clock.deadline_in_f64(wake - now))? {
            if let Payload::Verdict { prediction, exit_tier } = frame.payload {
                if let Some(born) = inflight.remove(&frame.seq) {
                    let now = clock.elapsed_ms_f64() - t0;
                    resolve(
                        frame.seq,
                        prediction,
                        exit_tier,
                        born,
                        now,
                        &mut predictions,
                        &mut exits,
                        &mut latencies,
                    )?;
                }
            }
        }
    }
    Ok(RunTallies { predictions, exits, latencies, outcomes, capture_retries: 0 })
}
