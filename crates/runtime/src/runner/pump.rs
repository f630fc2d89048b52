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
//!   Retried samples leave duplicate and stale verdicts behind and sweeps
//!   leave late pongs: they drain harmlessly.
//! - **Latency.** A scheduled sample's latency is measured from its
//!   *scheduled* arrival instant on the run's sub-millisecond clock, so
//!   dispatch jitter and queueing delay are charged to the sample, not
//!   hidden by it (no coordinated omission). Lockstep has no queue to
//!   measure and reports the analytic link-model latency of the exit the
//!   sample took.
//!
//! The pump is a core ([`Pump`]): it decides on `(now, frame)` and holds
//! no clock, and [`drive`](crate::clock::drive) does its waiting on the
//! orchestrator's inbox. It also carries the elastic driver's ping rounds —
//! the heartbeat sweep, and the one round that confirms every Down/Up
//! scheduled before a sample — as state:
//! while a round is open the pump only takes pongs and verdicts, and its
//! next wake-up is the round's deadline. Otherwise it wakes at the
//! earliest of the next arrival, the earliest watchdog action and, under
//! scheduled arrivals, the next sweep.

use super::orchestrate::SampleHook;
use crate::chaos::{ChaosTarget, Schedule};
use crate::clock::Core;
use crate::error::Result;
use crate::message::{Frame, Payload};
use crate::node::report::{RunTallies, SampleOutcome};
use crate::obs::{Counter, ObsEvent, RunObs};
use crate::orchestrator::rebalance::RoutingTable;
use crate::orchestrator::ElasticDriver;
use crate::topology::HierarchyConfig;
use ddnn_core::ExitPoint;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An admitted sample awaiting its verdict. Times are milliseconds on
/// the run clock.
struct InFlight {
    /// The arrival instant latency is measured from.
    born: f64,
    /// Watchdog slices already spent on it.
    attempts: u32,
    /// When the watchdog next acts on it: a re-feed while slices remain,
    /// the timeout after the last.
    due: f64,
}

/// Where the pump picks up once the ping round it opened has closed.
#[derive(Debug)]
enum Resume {
    /// The watchdog, a due sweep, then admissions.
    Top,
    /// A heartbeat sweep ended: time the next one, then admit.
    Swept,
    /// The Down/Up flips scheduled before the next sample were confirmed:
    /// admit it.
    Admit,
}

/// The sample pump's core: drives `n_samples` through the hierarchy
/// behind its [`SampleHook`], from `start` on the run clock. `cfg.stream`
/// sets the arrival schedule and admission window (`None`: lockstep),
/// `cfg.deadlines` the watchdog, `cfg.chaos` the Down/Up events fired
/// before their samples. Captures go out under `elastic`'s published
/// routing, or under `initial` (epoch 0) in a run no driver steers;
/// `exit_of` maps a verdict's exit tier to its exit point and lockstep
/// latency.
///
/// Conservation invariant, checked by the chaos suite: every arrival is
/// exactly one of classified / shed / timed out, and
/// `admitted == classified + timed_out`.
pub(super) struct Pump<'a> {
    n_samples: usize,
    /// Scheduled arrival instants; `None` is lockstep.
    offsets: Option<Vec<f64>>,
    window: usize,
    watchdog_ms: f64,
    max_retries: u32,
    /// The run's tallies, complete once the pump is done.
    pub(super) tallies: RunTallies,
    /// `due` is nondecreasing in seq — scheduled births are, and lockstep
    /// holds one sample — so the first entry always carries the earliest.
    inflight: BTreeMap<u64, InFlight>,
    /// The next sample to arrive.
    next: usize,
    /// Elastic heartbeat sweeps — membership moves and topology epochs are
    /// published only there. Scheduled arrivals pace them at the
    /// heartbeat period; lockstep runs one strictly between samples, after
    /// each resolves (`swept` counts the samples that had theirs).
    sweep_at: f64,
    swept: usize,
    resume: Resume,
    samples_ctr: Arc<Counter>,
    timeouts_ctr: Arc<Counter>,
    /// Each discipline reports the counters that can move under it.
    retries_ctr: Option<Arc<Counter>>,
    admission_ctrs: Option<(Arc<Counter>, Arc<Counter>)>,
    hook: &'a mut dyn SampleHook,
    schedule: Schedule<'a>,
    exit_of: &'a dyn Fn(u8) -> Result<(ExitPoint, f32)>,
    obs: &'a RunObs,
    initial: &'a RoutingTable,
    elastic: Option<&'a mut ElasticDriver>,
}

impl<'a> Pump<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        n_samples: usize,
        start: f64,
        cfg: &'a HierarchyConfig,
        hook: &'a mut dyn SampleHook,
        exit_of: &'a dyn Fn(u8) -> Result<(ExitPoint, f32)>,
        obs: &'a RunObs,
        initial: &'a RoutingTable,
        elastic: Option<&'a mut ElasticDriver>,
    ) -> Self {
        let (stream, lockstep) = (cfg.stream.as_ref(), cfg.stream.is_none());
        let dl = cfg.deadlines();
        let offsets = stream.map(|s| s.arrival.offsets_ms(n_samples));
        let registry = obs.registry();
        Pump {
            n_samples,
            offsets: offsets.map(|o| o.into_iter().map(|at| start + at).collect()),
            window: stream.map_or(1, |s| s.queue_cap),
            watchdog_ms: dl.watchdog_ms as f64,
            max_retries: dl.max_retries,
            tallies: RunTallies {
                predictions: vec![0; n_samples],
                exits: vec![ExitPoint::Cloud; n_samples],
                latencies: vec![0.0; n_samples],
                outcomes: vec![SampleOutcome::Classified; n_samples],
            },
            inflight: BTreeMap::new(),
            next: 0,
            sweep_at: elastic.as_ref().map_or(f64::INFINITY, |d| start + d.heartbeat_ms as f64),
            swept: 0,
            resume: Resume::Top,
            samples_ctr: registry.counter("run.samples"),
            timeouts_ctr: registry.counter("run.watchdog_timeouts"),
            retries_ctr: lockstep.then(|| registry.counter("run.capture_retries")),
            admission_ctrs: (!lockstep)
                .then(|| (registry.counter("run.admitted"), registry.counter("run.shed"))),
            hook,
            schedule: cfg.chaos.schedule(),
            exit_of,
            obs,
            initial,
            elastic,
        }
    }

    /// The watchdog: re-feeds or expires whatever is past due at `now`.
    fn watchdog(&mut self, now: f64) -> Result<()> {
        while let Some(mut first) = self.inflight.first_entry().filter(|e| e.get().due <= now) {
            let (seq, flight) = (*first.key(), first.get_mut());
            if flight.attempts < self.max_retries {
                flight.attempts += 1;
                flight.due = now + self.watchdog_ms;
                if let Some(retries) = &self.retries_ctr {
                    retries.incr();
                }
                let routing = self.elastic.as_deref().map_or(self.initial, |d| &d.routing);
                self.hook.feed(seq as usize, routing)?;
                continue;
            }
            let waited_ms = (f64::from(flight.attempts + 1) * self.watchdog_ms) as u64;
            first.remove();
            let i = seq as usize;
            self.timeouts_ctr.incr();
            self.obs.emit(|| ObsEvent::WatchdogTimeout { seq, waited_ms });
            self.tallies.outcomes[i] = SampleOutcome::TimedOut { waited_ms };
            self.tallies.predictions[i] = usize::MAX; // never matches a label
            self.tallies.latencies[i] = waited_ms as f64;
        }
        Ok(())
    }

    /// Admits (or sheds) every arrival due at `now`: on its schedule, or —
    /// lockstep — as soon as the window is empty.
    fn admit(&mut self, now: f64) -> Result<()> {
        while self.next < self.n_samples {
            let born = match &self.offsets {
                Some(offsets) => offsets[self.next],
                None if self.inflight.is_empty() => now,
                None => break,
            };
            if born > now {
                break;
            }
            let (i, seq) = (self.next, self.next as u64);
            // Chaos scheduled before the sample happens first, so a
            // scheduled Down takes effect exactly at its sample — a
            // process's through the runner, a node's through the elastic
            // driver's ping, whose round the sample waits out.
            while let Some((target, down)) = self.schedule.next_due(seq) {
                match self.elastic.as_deref_mut() {
                    Some(driver) if !matches!(target, ChaosTarget::Process(_)) => {
                        driver.set_down(target, down);
                    }
                    _ => self.hook.apply(seq, target, down)?,
                }
            }
            if let Some(driver) = self.elastic.as_deref_mut() {
                if driver.confirm(now)? {
                    self.resume = Resume::Admit;
                    return Ok(());
                }
            }
            self.next += 1;
            self.samples_ctr.incr();
            self.obs.emit(|| ObsEvent::SampleEnqueued { seq });
            if self.inflight.len() >= self.window {
                if let Some((_, shed)) = &self.admission_ctrs {
                    shed.incr();
                }
                let depth = self.inflight.len();
                self.obs.emit(|| ObsEvent::SampleShed { seq, inflight: depth });
                self.tallies.outcomes[i] = SampleOutcome::Shed;
                self.tallies.predictions[i] = usize::MAX; // never matches a label
                continue; // latency stays 0: the sample never entered
            }
            if let Some((admitted, _)) = &self.admission_ctrs {
                admitted.incr();
            }
            let routing = self.elastic.as_deref().map_or(self.initial, |d| &d.routing);
            self.hook.feed(i, routing)?;
            // A scheduled arrival starts on its last slice, stretched to
            // the whole budget.
            let first_attempt = if self.offsets.is_none() { 0 } else { self.max_retries };
            let due = born + f64::from(first_attempt + 1) * self.watchdog_ms;
            self.inflight.insert(seq, InFlight { born, attempts: first_attempt, due });
        }
        Ok(())
    }
}

impl Core for Pump<'_> {
    fn on_wake(&mut self, now: f64) -> Result<()> {
        // An open ping round holds everything else up until it closes.
        if let Some(driver) = self.elastic.as_deref_mut() {
            if driver.busy(now)? {
                return Ok(());
            }
        }
        match std::mem::replace(&mut self.resume, Resume::Top) {
            Resume::Top => {
                self.watchdog(now)?;
                // Lockstep sweeps strictly between samples.
                let due = match self.offsets.is_none() {
                    true => self.inflight.is_empty() && self.swept < self.next,
                    false => now >= self.sweep_at,
                };
                if let Some(driver) = self.elastic.as_deref_mut().filter(|_| due) {
                    driver.sweep(self.next.saturating_sub(1) as u64, now)?;
                    (self.swept, self.resume) = (self.next, Resume::Swept);
                    return Ok(());
                }
            }
            Resume::Swept => {
                let heartbeat_ms = self.elastic.as_deref().map_or(0, |d| d.heartbeat_ms);
                self.sweep_at = now + heartbeat_ms as f64;
            }
            Resume::Admit => {}
        }
        self.admit(now)
    }

    /// Resolves a verdict; hands a pong to the elastic driver. A stale or
    /// duplicate verdict drains.
    fn on_frame(&mut self, now: f64, frame: Frame) -> Result<()> {
        let Payload::Verdict { prediction, exit_tier } = frame.payload else {
            if let (Some(driver), Payload::Pong) = (self.elastic.as_deref_mut(), &frame.payload) {
                driver.on_pong(&frame);
            }
            return Ok(());
        };
        let Some(flight) = self.inflight.remove(&frame.seq) else {
            return Ok(());
        };
        let (i, (exit, link_ms)) = (frame.seq as usize, (self.exit_of)(exit_tier)?);
        self.tallies.predictions[i] = prediction as usize;
        self.tallies.exits[i] = exit;
        self.tallies.latencies[i] = match self.offsets.is_none() {
            // Widening the f32 link-model latency is lossless, so the f32
            // mean fields stay bit-identical to the seed runtime.
            true => f64::from(link_ms),
            false => now - flight.born,
        };
        Ok(())
    }

    /// The open ping round's; otherwise the earliest of the next arrival,
    /// the first watchdog action and the next sweep.
    fn next_wake(&self) -> f64 {
        if let Some(wake) = self.elastic.as_deref().and_then(ElasticDriver::next_wake) {
            return wake;
        }
        let mut wake = self.inflight.first_key_value().map_or(f64::INFINITY, |(_, f)| f.due);
        if let Some(offsets) = &self.offsets {
            wake = wake.min(offsets.get(self.next).copied().unwrap_or(f64::INFINITY));
            wake = wake.min(self.sweep_at);
        }
        wake
    }

    fn done(&self) -> bool {
        let round_open = self.elastic.as_deref().is_some_and(|d| d.next_wake().is_some());
        self.next >= self.n_samples && self.inflight.is_empty() && !round_open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::link;
    use crate::message::NodeId;
    use crate::obs::ObsConfig;
    use crate::orchestrator::rebalance::{compute_routing, Compat};
    use crate::orchestrator::{ElasticConfig, NodeDirectory};
    use crate::topology::{ArrivalProcess, DeadlineConfig, StreamConfig};
    use SampleOutcome::{Classified, Shed};

    /// A hierarchy that only records the samples it is fed.
    struct Feeds(Vec<usize>);

    impl SampleHook for Feeds {
        fn feed(&mut self, i: usize, _: &RoutingTable) -> Result<()> {
            self.0.push(i);
            Ok(())
        }
    }

    fn verdict(seq: u64) -> Frame {
        Frame::new(seq, NodeId::Gateway, Payload::Verdict { prediction: 3, exit_tier: 0 })
    }

    /// Plays `script` on a pump of `n` samples under `cfg` whose verdicts
    /// are local exits of 2.5 ms link latency; returns its tallies, the
    /// samples it fed (re-feeds included) and the counter snapshot.
    fn with_pump(
        n: usize,
        cfg: &HierarchyConfig,
        elastic: Option<&mut ElasticDriver>,
        script: impl FnOnce(&mut Pump),
    ) -> (RunTallies, Vec<usize>, Vec<(String, u64)>) {
        let (obs, mut feeds) = (RunObs::new(&ObsConfig::default()), Feeds(Vec::new()));
        let initial = compute_routing(0, vec![true; 3], 1, &Compat::chain(1));
        let exit_of = |_| Ok((ExitPoint::Local, 2.5));
        let mut pump = Pump::new(n, 0.0, cfg, &mut feeds, &exit_of, &obs, &initial, elastic);
        script(&mut pump);
        let tallies = pump.tallies;
        (tallies, feeds.0, obs.registry().snapshot())
    }

    fn stream(queue_cap: usize) -> Option<StreamConfig> {
        let arrival = ArrivalProcess::Fixed { rate_per_s: 1000.0 }; // one per ms, from 0
        Some(StreamConfig { arrival, queue_cap, batch_max: 1 })
    }

    #[test]
    fn lockstep_re_feeds_a_lost_sample_and_scheduled_arrivals_wait_out_the_budget() {
        let dl = DeadlineConfig { watchdog_ms: 15, max_retries: 2, ..DeadlineConfig::fast() };
        let cfg = HierarchyConfig { deadlines: Some(dl), ..HierarchyConfig::default() };
        // Lockstep: the first feed is lost. One watchdog slice later — not
        // an instant earlier — the captures go out again; the verdict lands.
        let (tallies, feeds, counters) = with_pump(1, &cfg, None, |p| {
            p.on_wake(100.0).unwrap();
            assert_eq!(p.next_wake(), 115.0);
            p.on_wake(114.9).unwrap();
            p.on_wake(115.0).unwrap();
            assert_eq!(p.next_wake(), 130.0);
            p.on_frame(120.0, verdict(0)).unwrap();
            p.on_wake(120.0).unwrap();
            assert!(p.done());
        });
        assert_eq!(tallies.outcomes, [Classified]);
        assert_eq!((tallies.predictions[0], tallies.exits[0]), (3, ExitPoint::Local));
        assert_eq!(tallies.latencies, [2.5], "lockstep latency is the link model's");
        assert_eq!(feeds, [0, 0]);
        assert!(counters.contains(&("run.capture_retries".into(), 1)));

        // Scheduled arrival: never re-fed, timed out at the whole budget.
        let cfg = HierarchyConfig { stream: stream(1), ..cfg };
        let (tallies, feeds, counters) = with_pump(1, &cfg, None, |p| {
            p.on_wake(0.0).unwrap();
            assert_eq!(p.next_wake(), 45.0);
            p.on_wake(44.9).unwrap();
            assert!(!p.done());
            p.on_wake(45.0).unwrap();
            assert!(p.done());
        });
        assert_eq!(tallies.outcomes, [SampleOutcome::TimedOut { waited_ms: 45 }]);
        assert_eq!((tallies.latencies, feeds), (vec![45.0], vec![0]));
        assert!(counters.iter().all(|(name, _)| name != "run.capture_retries"));
    }

    #[test]
    fn a_verdict_just_inside_the_budget_is_classified_and_one_just_past_it_timed_out() {
        // Arrivals at 0 and 1 ms, each with 3 × 15 = 45 ms to resolve.
        let dl = DeadlineConfig { watchdog_ms: 15, max_retries: 2, ..DeadlineConfig::fast() };
        let cfg = HierarchyConfig { deadlines: Some(dl), stream: stream(2), ..Default::default() };
        let (tallies, _, _) = with_pump(2, &cfg, None, |p| {
            p.on_wake(1.0).unwrap();
            p.on_frame(44.9, verdict(0)).unwrap();
            p.on_wake(46.0).unwrap();
            p.on_frame(46.1, verdict(1)).unwrap(); // late: drained
            assert!(p.done());
        });
        assert_eq!(tallies.outcomes, [Classified, SampleOutcome::TimedOut { waited_ms: 45 }]);
        assert_eq!(tallies.latencies, [44.9, 45.0], "neither exceeds the budget");
    }

    #[test]
    fn the_window_sheds_its_overflow() {
        // Arrivals 1 ms apart into a window of two: by 3 ms samples 0 and 1
        // fill it, so 2 and 3 are shed — counted, never fed, no latency.
        // Once a verdict frees a slot, 4 gets in.
        let dl = Some(DeadlineConfig::fast());
        let cfg =
            HierarchyConfig { stream: stream(2), deadlines: dl, ..HierarchyConfig::default() };
        let (tallies, feeds, counters) = with_pump(5, &cfg, None, |p| {
            p.on_wake(0.0).unwrap();
            assert_eq!(p.next_wake(), 1.0, "the next arrival");
            p.on_wake(3.0).unwrap();
            p.on_frame(3.5, verdict(0)).unwrap();
            p.on_wake(4.0).unwrap();
            for seq in [1, 4] {
                p.on_frame(5.0, verdict(seq)).unwrap();
            }
            p.on_wake(5.0).unwrap();
            assert!(p.done());
        });
        assert_eq!(tallies.outcomes, [Classified, Classified, Shed, Shed, Classified]);
        assert_eq!(tallies.latencies, [3.5, 4.0, 0.0, 0.0, 1.0]);
        assert_eq!(feeds, [0, 1, 4]);
        for counter in [("run.admitted", 3), ("run.shed", 2), ("run.samples", 5)] {
            assert!(counters.contains(&(counter.0.into(), counter.1)), "{counter:?}");
        }
    }

    #[test]
    fn an_elastic_sweep_ends_at_the_heartbeat_deadline_or_once_every_node_answered() {
        let ids = [NodeId::Device(0), NodeId::Gateway, NodeId::Cloud];
        let names = ["device0", "gateway", "cloud"].map(String::from);
        let cfg = HierarchyConfig { deadlines: Some(DeadlineConfig::fast()), ..Default::default() };
        // How many of the three nodes answer the sweep after sample 0.
        for answering in [2, 3] {
            let (links, inboxes): (Vec<_>, Vec<_>) =
                names.iter().map(|name| link(name)).map(|(tx, rx, _)| (Some(tx), rx)).unzip();
            let dir = NodeDirectory::new(ids.into_iter().zip(names.clone()));
            let (compat, el) =
                (Compat::chain(1), ElasticConfig { heartbeat_ms: 100, suspect_after: 2 });
            let initial = compute_routing(0, vec![true; 3], 1, &compat);
            let mut driver =
                ElasticDriver::new(dir, compat, initial, el, links, RunObs::disabled());
            with_pump(1, &cfg, Some(&mut driver), |p| {
                p.on_wake(0.0).unwrap();
                p.on_frame(1.0, verdict(0)).unwrap();
                // Strictly between samples: the sweep opens once 0 resolved.
                p.on_wake(1.0).unwrap();
                assert_eq!(p.next_wake(), 101.0, "the heartbeat deadline");
                for &id in &ids[..answering] {
                    p.on_frame(5.0, Frame::new(1, id, Payload::Pong)).unwrap();
                }
                p.on_wake(5.0).unwrap();
                assert_eq!(p.done(), answering == 3, "early only once everyone answered");
                p.on_wake(100.9).unwrap();
                assert_eq!(p.done(), answering == 3);
                p.on_wake(101.0).unwrap();
                assert!(p.done());
            });
            assert!(inboxes.iter().all(|rx| rx.try_recv_raw().unwrap().is_some()), "pinged");
        }
    }
}
