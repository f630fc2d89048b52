//! One chaos plan: every injected fault of a run is an event
//! `(when, target, action)` of a single seeded [`ChaosPlan`].
//!
//! The paper's fault-tolerance story (§IV-G) is *static*: a failed device
//! is known before the run starts and its thread never spawns
//! ([`HierarchyConfig::failed_devices`]). A chaos plan makes failure
//! *dynamic*, in one vocabulary:
//!
//! * **when** — [`ChaosWhen::Start`] (for the whole run),
//!   [`ChaosWhen::BeforeSample`] (just before sample *n*'s captures go
//!   out) or [`ChaosWhen::AfterFrames`] (once the target has transmitted
//!   *n* frames);
//! * **target** — every link's send boundary, a device, the gateway, a
//!   tier by name, or a role *process* of the multi-process launcher
//!   ([`ChaosTarget`]);
//! * **action** — [`ChaosAction::Impair`] (one [`Impairment`] of drop,
//!   duplicate, delay, corrupt, truncate, reorder and sever rates),
//!   [`ChaosAction::Down`] or [`ChaosAction::Up`].
//!
//! [`ChaosPlan::validate`] is the one place that decides which
//! combinations a runner supports (DESIGN.md §7 has the table). Combined
//! with the deadline-based degradation of
//! [`DeadlineConfig`](crate::DeadlineConfig), every accepted event ends in
//! the same primitive — a missing contributor becomes a blank signature —
//! the regime Figures 8/10 of the paper sweep analytically.
//!
//! Determinism: every impaired link path (a link, its `retx:` retransmit
//! path and its `ack:` path) draws from its own stream seeded by
//! `plan.seed ^ fnv1a(path name)` at the one impairment boundary, in
//! `LinkSender::send` *before* the [`transport`](crate::transport), so a
//! plan replays the same drops, duplicates and crashes regardless of
//! thread scheduling, of which dataplane carries the surviving bytes and
//! of which process sends them: the role manifest carries the plan's
//! links impairment and crash points to every role process.
//! [`Payload::Shutdown`](crate::message::Payload::Shutdown) frames are
//! exempt from impairment on every runner so a chaotic run can always
//! terminate.

use crate::error::{reject, Result, RuntimeError};
use crate::message::Frame;
use crate::topology::{HierarchyConfig, Shape, Topology};
use crate::transport::TransportConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A role *process* of the multi-process launcher: the devices host, the
/// gateway host, or the k-th feature-tier host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcTarget {
    /// The process hosting every end-device thread.
    Devices,
    /// The gateway (local aggregator) process.
    Gateway,
    /// The k-th feature tier process (0-based along the tier chain).
    Tier(usize),
}

impl std::fmt::Display for ProcTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcTarget::Devices => write!(f, "devices"),
            ProcTarget::Gateway => write!(f, "gateway"),
            ProcTarget::Tier(k) => write!(f, "tier{k}"),
        }
    }
}

/// Parses the display form back (`devices`, `gateway`, `tier<k>`) — the
/// one spelling of a role on the `ROLE` handshake line, in `proc.{role}.*`
/// counter names and on the `ddnn-node demo --kill` command line. Only
/// that spelling: `tier+1` or `tier007` are rejected.
impl std::str::FromStr for ProcTarget {
    type Err = RuntimeError;

    fn from_str(s: &str) -> Result<Self> {
        let role = match s {
            "devices" => Some(ProcTarget::Devices),
            "gateway" => Some(ProcTarget::Gateway),
            other => other.strip_prefix("tier").and_then(|k| k.parse().ok()).map(ProcTarget::Tier),
        };
        role.filter(|r| r.to_string() == s)
            .ok_or_else(|| RuntimeError::Protocol { reason: format!("unknown role {s:?}") })
    }
}

/// When a chaos event takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWhen {
    /// From the start of the run, for all of it.
    Start,
    /// Just before the captures of this sample (0-based) are sent.
    BeforeSample(u64),
    /// Once the target node has transmitted this many frames on its
    /// outbound links (`0` = dead on arrival: like a statically failed
    /// device, except the hierarchy has to *discover* it via deadlines).
    AfterFrames(u64),
}

/// What a chaos event happens to. Displays as the node or role name
/// (`device3`, `gateway`, `edge`, `tier0`), the name its seeded
/// generator streams and crash counters are keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChaosTarget {
    /// Every link, at its send boundary (above the transport).
    Links,
    /// End device by index.
    Device(usize),
    /// The gateway (local aggregator).
    Gateway,
    /// A feature tier by topology name ("edge", "cloud", …).
    Tier(String),
    /// A role process of the multi-process launcher.
    Process(ProcTarget),
}

impl std::fmt::Display for ChaosTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosTarget::Links => write!(f, "links"),
            ChaosTarget::Device(d) => write!(f, "device{d}"),
            ChaosTarget::Gateway => write!(f, "gateway"),
            ChaosTarget::Tier(name) => write!(f, "{name}"),
            ChaosTarget::Process(role) => write!(f, "{role}"),
        }
    }
}

/// Per-transmission misbehaviour rates of every link
/// ([`ChaosTarget::Links`]); all zero injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Impairment {
    /// Probability that a transmission is silently dropped.
    pub drop: f32,
    /// Probability that a delivered transmission arrives twice.
    pub duplicate: f32,
    /// Maximum extra delay per transmission, in milliseconds (uniform in
    /// `[0, delay_ms]`).
    pub delay_ms: u32,
    /// Probability that 1–4 wire bits are flipped in transit (the frame's
    /// CRC catches it).
    pub corrupt: f32,
    /// Probability that the wire bytes are cut short in transit (the
    /// frame's CRC catches it).
    pub truncate: f32,
    /// Probability that a frame is held back and delivered *after* the
    /// next frame on the same link.
    pub reorder: f32,
    /// Probability that a frame severs its TCP stream mid-frame: a partial
    /// frame is written, then the connection is closed, so the peer
    /// observes a real half-open/EOF condition and the link's next frame
    /// re-dials (TCP only).
    pub sever: f32,
}

impl Impairment {
    /// An impairment that injects nothing.
    pub fn none() -> Self {
        Impairment::default()
    }

    /// Whether any rate is non-zero.
    pub fn is_active(&self) -> bool {
        self.delay_ms > 0 || self.rates().iter().any(|&(_, p)| p > 0.0)
    }

    /// The probability rates by name (every field but `delay_ms`).
    pub(crate) fn rates(&self) -> [(&'static str, f32); 6] {
        [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("truncate", self.truncate),
            ("reorder", self.reorder),
            ("sever", self.sever),
        ]
    }

    /// Rolls the fate of one transmission. Draws happen in a fixed order
    /// (drop, duplicate, delay, corrupt, truncate, reorder, sever), each
    /// gated on its rate being non-zero, so an impairment that uses a
    /// subset of the rates consumes the same stream it would without the
    /// others.
    fn roll(&self, rng: &mut StdRng) -> Delivery {
        if self.drop > 0.0 && rng.gen::<f32>() < self.drop {
            return Delivery::Dropped;
        }
        let duplicate = self.duplicate > 0.0 && rng.gen::<f32>() < self.duplicate;
        let delay = (self.delay_ms > 0)
            .then(|| Duration::from_micros(rng.gen_range(0..=u64::from(self.delay_ms) * 1000)));
        let corrupt =
            (self.corrupt > 0.0 && rng.gen::<f32>() < self.corrupt).then(|| rng.gen::<u64>());
        let truncate =
            (self.truncate > 0.0 && rng.gen::<f32>() < self.truncate).then(|| rng.gen::<u64>());
        let reorder = self.reorder > 0.0 && rng.gen::<f32>() < self.reorder;
        let sever = self.sever > 0.0 && rng.gen::<f32>() < self.sever;
        Delivery::Deliver { duplicate, delay, corrupt, truncate, reorder, sever }
    }
}

/// What happens to the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// Every transmission across the boundary rolls this impairment.
    Impair(Impairment),
    /// The target goes silent. A node scheduled [`ChaosWhen::BeforeSample`]
    /// gets its down bit on the orchestrator's next ping, then discards
    /// all traffic and answers no heartbeat until a later `Up`; after
    /// [`ChaosWhen::AfterFrames`] its outbound links swallow everything
    /// for good; a process is SIGKILLed (its sockets die with it).
    Down,
    /// The target comes back: a node's down bit clears on a ping that
    /// also carries the current topology epoch; a process is respawned,
    /// re-handshaken with the same manifest, and the survivors' sockets
    /// are rewired to it.
    Up,
}

/// One `(when, target, action)` of a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// When it takes effect.
    pub when: ChaosWhen,
    /// What it happens to.
    pub target: ChaosTarget,
    /// What happens.
    pub action: ChaosAction,
}

/// The seeded, deterministic schedule of everything injected into a run.
/// [`ChaosPlan::none`] (the default) injects nothing, so no deadline
/// fires and the run is the fault-free one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// Seed of every per-link impairment stream.
    pub seed: u64,
    /// The events, in any order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A plan that injects nothing at all.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Every link rolls `imp` at its send boundary for the whole run.
    pub fn links(seed: u64, imp: Impairment) -> Self {
        let plan = ChaosPlan { seed, events: Vec::new() };
        plan.with(ChaosWhen::Start, ChaosTarget::Links, ChaosAction::Impair(imp))
    }

    /// This plan plus one more event.
    pub fn with(mut self, when: ChaosWhen, target: ChaosTarget, action: ChaosAction) -> Self {
        self.events.push(ChaosEvent { when, target, action });
        self
    }

    /// Whether this plan injects anything (an all-zero impairment does
    /// not count).
    pub fn is_active(&self) -> bool {
        self.events.iter().any(|e| match e.action {
            ChaosAction::Impair(imp) => imp.is_active(),
            ChaosAction::Down | ChaosAction::Up => true,
        })
    }

    /// A seeded flapping schedule: each target goes down roughly every
    /// `period` samples (random per-target phase) and comes back
    /// `down_for` samples later, repeating for the whole run. `period` is
    /// clamped to at least 2 and `down_for` into `[1, period - 1]`, so the
    /// generated plan always alternates.
    pub fn flapping(
        seed: u64,
        n_samples: u64,
        targets: &[ChaosTarget],
        period: u64,
        down_for: u64,
    ) -> Self {
        let period = period.max(2);
        let down_for = down_for.clamp(1, period - 1);
        let mut plan = ChaosPlan { seed, events: Vec::new() };
        for target in targets {
            let mut rng = StdRng::seed_from_u64(
                seed ^ fnv1a(target.to_string().as_bytes()).wrapping_add(0x5eed),
            );
            let mut t = rng.gen_range(0..period);
            while t < n_samples {
                plan.down_then_up(target, t, t + down_for, n_samples);
                t += period;
            }
        }
        plan
    }

    /// A seeded kill schedule: each target goes down once at a random
    /// sample in `[1, n_samples)` (never before the first sample, so every
    /// run does some work first) and, when `up_after > 0`, comes back that
    /// many samples later if that still fits the run.
    pub fn seeded_kills(seed: u64, n_samples: u64, targets: &[ChaosTarget], up_after: u64) -> Self {
        let mut plan = ChaosPlan { seed, events: Vec::new() };
        for target in targets {
            let mut rng = StdRng::seed_from_u64(
                seed ^ fnv1a(target.to_string().as_bytes()).wrapping_add(0x6b11),
            );
            let at = rng.gen_range(1..n_samples.max(2));
            let up_at = if up_after > 0 { at + up_after } else { u64::MAX };
            plan.down_then_up(target, at, up_at, n_samples);
        }
        plan
    }

    fn down_then_up(&mut self, target: &ChaosTarget, down_at: u64, up_at: u64, n_samples: u64) {
        let event = |at, action| ChaosEvent {
            when: ChaosWhen::BeforeSample(at),
            target: target.clone(),
            action,
        };
        self.events.push(event(down_at, ChaosAction::Down));
        if up_at < n_samples {
            self.events.push(event(up_at, ChaosAction::Up));
        }
    }

    /// The impairment the plan puts on every link.
    pub(crate) fn impairment(&self) -> Impairment {
        let found = self.events.iter().find_map(|e| match e.action {
            ChaosAction::Impair(imp) if e.target == ChaosTarget::Links => Some(imp),
            _ => None,
        });
        found.unwrap_or_default()
    }

    /// The per-link state of `link_name` at the link boundary: its seeded
    /// stream and, when its sending node is scheduled to die, that node's
    /// shared frame counter. `None` when the plan leaves the link alone.
    pub(crate) fn link_chaos(
        &self,
        link_name: &str,
        crash: Option<Arc<CrashState>>,
    ) -> Option<Arc<LinkChaos>> {
        let imp = self.impairment();
        (imp.is_active() || crash.is_some())
            .then(|| Arc::new(LinkChaos::new(self.seed, imp, link_name, crash)))
    }

    /// Every node that dies after a number of transmitted frames, by node
    /// name (`device<d>`, `gateway`, a tier name).
    pub(crate) fn crash_points(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.events.iter().filter_map(|e| match e.when {
            ChaosWhen::AfterFrames(n) => Some((e.target.to_string(), n)),
            _ => None,
        })
    }

    /// The plan's `BeforeSample` Down/Up events in firing order (by
    /// sample; plan order within one sample).
    pub(crate) fn schedule(&self) -> Schedule<'_> {
        let mut events: Vec<_> = (self.events.iter())
            .filter_map(|e| match e.when {
                ChaosWhen::BeforeSample(at) => Some((at, &e.target, e.action == ChaosAction::Down)),
                _ => None,
            })
            .collect();
        events.sort_by_key(|&(at, ..)| at);
        Schedule { events, next: 0 }
    }

    /// Validates the plan against the hierarchy it will run in and the
    /// runner about to execute it: `cfg` says what that runner offers
    /// (elastic orchestration, a TCP transport) and `processes` whether
    /// its roles are real OS processes to kill (the multi-process
    /// launcher) or threads.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for an unsupported `(when, target,
    /// action)` combination, a rate outside `[0, 1]`, a target the
    /// topology does not have, an event that needs something this runner
    /// cannot do, a per-target Down/Up sequence that is not a strict
    /// alternation starting with `Down` at increasing samples, or a
    /// schedule that takes the terminal tier down while no other
    /// exit-capable node is up.
    pub fn validate(
        &self,
        topology: &Topology,
        cfg: &HierarchyConfig,
        processes: bool,
    ) -> Result<()> {
        use {ChaosAction as A, ChaosTarget as T, ChaosWhen as W};
        let staged = matches!(topology.shape, Shape::Staged);
        let mut impaired: Vec<&T> = Vec::new();
        for event in self.events.iter().filter(|e| e.action != A::Impair(Impairment::none())) {
            let ChaosEvent { when, target, action } = event;
            let need = |have: bool, what: &str| match have {
                true => Ok(()),
                false => reject(format!("chaos on {target:?} needs {what}")),
            };
            // The combination exists at all.
            match (action, target, when) {
                (A::Impair(imp), T::Links, W::Start) => {
                    imp.validate_rates()?;
                    need(
                        imp.sever == 0.0 || cfg.transport == TransportConfig::Tcp,
                        "a TCP transport: only a stream can be severed (set cfg.transport to tcp)",
                    )?;
                    if impaired.contains(&target) {
                        return reject(format!("chaos plan impairs {target:?} twice"));
                    }
                    impaired.push(target);
                }
                (
                    A::Down | A::Up,
                    T::Device(_) | T::Gateway | T::Tier(_) | T::Process(_),
                    W::BeforeSample(_),
                )
                | (A::Down, T::Device(_) | T::Gateway | T::Tier(_), W::AfterFrames(_)) => {}
                _ => return reject(format!("unsupported chaos event {event:?}")),
            }
            // The topology has the target.
            let unknown = match target {
                T::Device(d) if *d >= topology.num_devices() => Some("is out of range"),
                T::Device(d) if cfg.failed_devices.contains(d) => Some("is statically failed"),
                T::Gateway | T::Tier(_) if !staged => {
                    Some("does not exist: the cloud-only baseline has no gateway or tiers")
                }
                T::Tier(name) if !topology.tiers.iter().any(|t| t.name == *name) => {
                    Some("is not a node of this topology")
                }
                T::Process(ProcTarget::Tier(k)) if *k >= topology.tiers.len() => {
                    Some("is out of range")
                }
                _ => None,
            };
            if let Some(why) = unknown {
                return reject(format!("chaos target {target:?} {why}"));
            }
            // This runner can do it.
            need(
                !matches!(target, T::Process(_)) || processes,
                "real OS processes to kill: use the multi-process launcher (multiproc::launch)",
            )?;
            if matches!(
                (target, when),
                (T::Device(_) | T::Gateway | T::Tier(_), W::BeforeSample(_))
            ) {
                need(cfg.elastic.is_some(), "elastic orchestration (set cfg.elastic)")?;
            }
        }
        self.validate_alternation()?;
        self.validate_fallback(topology)
    }

    /// Per target: at most one `AfterFrames` death, and the `BeforeSample`
    /// events a strict Down/Up alternation starting with `Down`, in
    /// strictly increasing sample order.
    fn validate_alternation(&self) -> Result<()> {
        let mut dying: Vec<&ChaosTarget> = Vec::new();
        let mut per_target: Vec<(&ChaosTarget, Vec<(u64, bool)>)> = Vec::new();
        for event in &self.events {
            match event.when {
                ChaosWhen::Start => {}
                ChaosWhen::AfterFrames(_) if dying.contains(&&event.target) => {
                    return reject(format!("chaos plan crashes {:?} twice", event.target));
                }
                ChaosWhen::AfterFrames(_) => dying.push(&event.target),
                ChaosWhen::BeforeSample(at) => {
                    let step = (at, event.action == ChaosAction::Down);
                    match per_target.iter_mut().find(|(t, _)| **t == event.target) {
                        Some((_, steps)) => steps.push(step),
                        None => per_target.push((&event.target, vec![step])),
                    }
                }
            }
        }
        for (target, mut steps) in per_target {
            steps.sort_by_key(|&(at, _)| at);
            let mut expect_down = true;
            let mut prev = None;
            for (at, down) in steps {
                if prev == Some(at) {
                    return reject(format!(
                        "chaos plan has two events for {target:?} at sample {at}"
                    ));
                }
                if down != expect_down {
                    let what = match down {
                        false => "rejoin before any crash",
                        true => "crash of an already-crashed target",
                    };
                    return reject(format!("chaos plan: {what} for {target:?} at sample {at}"));
                }
                expect_down = !down;
                prev = Some(at);
            }
        }
        Ok(())
    }

    /// Whenever the schedule has the terminal tier down, at least one
    /// other exit-capable node — the gateway, or another tier (a
    /// non-terminal tier falls back to a forced local exit when its
    /// upstream is gone) — must be scheduled up, or no verdict could be
    /// produced during that window.
    fn validate_fallback(&self, topology: &Topology) -> Result<()> {
        let mut gateway_up = true;
        let mut tier_up = vec![true; topology.tiers.len()];
        let mut schedule = self.schedule();
        while let Some(&(at, ..)) = schedule.events.get(schedule.next) {
            while let Some((target, down)) = schedule.next_due(at) {
                match target {
                    ChaosTarget::Gateway => gateway_up = !down,
                    ChaosTarget::Tier(name) => {
                        if let Some(k) = topology.tiers.iter().position(|t| t.name == *name) {
                            tier_up[k] = !down;
                        }
                    }
                    _ => {}
                }
            }
            if !gateway_up && !tier_up.iter().any(|&up| up) {
                return reject(format!(
                    "chaos plan takes the terminal tier down at sample {at} with no \
                     exit-capable fallback scheduled up"
                ));
            }
        }
        Ok(())
    }
}

impl Impairment {
    /// Every rate in `[0, 1]`.
    fn validate_rates(&self) -> Result<()> {
        for (what, p) in self.rates() {
            if !(0.0..=1.0).contains(&p) {
                return reject(format!("chaos {what} rate {p} on links outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// The cursor over a plan's scheduled Down/Up events: the orchestrator
/// fires what is due before each sample, one event at a time, so it can
/// wait for a node's flip to be confirmed before firing the next.
#[derive(Debug)]
pub(crate) struct Schedule<'a> {
    /// `(sample, target, goes down)`, sorted by sample.
    events: Vec<(u64, &'a ChaosTarget, bool)>,
    next: usize,
}

impl<'a> Schedule<'a> {
    /// Takes the next not-yet-fired event scheduled at or before `seq`:
    /// its target and whether it goes down.
    pub(crate) fn next_due(&mut self, seq: u64) -> Option<(&'a ChaosTarget, bool)> {
        let &(at, target, down) = self.events.get(self.next)?;
        (at <= seq).then(|| {
            self.next += 1;
            (target, down)
        })
    }
}

/// Shared frame counter of one dying node, observed by all its outbound
/// links.
#[derive(Debug)]
pub(crate) struct CrashState {
    after: u64,
    sent: AtomicU64,
}

impl CrashState {
    pub(crate) fn new(after_frames: u64) -> Arc<Self> {
        Arc::new(CrashState { after: after_frames, sent: AtomicU64::new(0) })
    }

    /// Records one attempted transmission; returns `true` once the node
    /// is dead and the frame must be swallowed.
    fn on_send(&self) -> bool {
        self.sent.fetch_add(1, Ordering::Relaxed) >= self.after
    }
}

/// What an impaired boundary decided to do with one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Swallow silently (a drop, or the sending node has crashed).
    Dropped,
    /// Deliver, possibly twice, possibly after an extra delay, possibly
    /// with its wire bytes damaged, its order swapped with the next frame
    /// on the link, or the stream severed under it.
    Deliver {
        /// Send a second time.
        duplicate: bool,
        /// Extra in-flight delay before the hand-over.
        delay: Option<Duration>,
        /// Flip 1–4 wire bits, positions derived from this seed.
        corrupt: Option<u64>,
        /// Cut the wire short, new length derived from this seed.
        truncate: Option<u64>,
        /// Hold this frame back until the next frame on the link passes.
        reorder: bool,
        /// Write a partial frame, then close the stream.
        sever: bool,
    },
}

impl Delivery {
    /// An untouched delivery: no duplication, delay or damage.
    pub(crate) fn clean() -> Self {
        Delivery::Deliver {
            duplicate: false,
            delay: None,
            corrupt: None,
            truncate: None,
            reorder: false,
            sever: false,
        }
    }
}

/// Per-link chaos state at one boundary: an independent seeded stream
/// plus an optional shared crash counter for the sending node.
#[derive(Debug)]
pub(crate) struct LinkChaos {
    imp: Impairment,
    rng: Mutex<StdRng>,
    crash: Option<Arc<CrashState>>,
}

/// FNV-1a, used to derive a per-link seed from the plan seed and the
/// link's name so streams are independent of spawn/scheduling order.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl LinkChaos {
    pub(crate) fn new(
        seed: u64,
        imp: Impairment,
        link_name: &str,
        crash: Option<Arc<CrashState>>,
    ) -> Self {
        let rng = Mutex::new(StdRng::seed_from_u64(seed ^ fnv1a(link_name.as_bytes())));
        LinkChaos { imp, rng, crash }
    }

    /// Rolls the fate of one frame. Shutdown frames always pass untouched.
    pub(crate) fn roll(&self, frame: &Frame) -> Delivery {
        if frame.is_shutdown() {
            return Delivery::clean();
        }
        self.roll_raw()
    }

    /// Rolls the fate of a transmission that has no application frame (a
    /// retransmission or an acknowledgement): same draws as
    /// [`LinkChaos::roll`], no shutdown exemption.
    pub(crate) fn roll_raw(&self) -> Delivery {
        if self.crash.as_ref().is_some_and(|crash| crash.on_send()) {
            return Delivery::Dropped;
        }
        self.imp.roll(&mut crate::lock(&self.rng))
    }
}

/// Applies the byte damage a [`Delivery`] rolled to `wire`: bit flips,
/// then truncation. Returns the wire to transmit and whether it changed.
pub(crate) fn damage(
    wire: Arc<[u8]>,
    corrupt: Option<u64>,
    truncate: Option<u64>,
) -> (Arc<[u8]>, bool) {
    let mut out = wire;
    if let Some(seed) = corrupt {
        out = corrupt_bytes(&out, seed).into();
    }
    if let Some(seed) = truncate {
        out = out[..truncate_len(out.len(), seed)].into();
    }
    (out, corrupt.is_some() || truncate.is_some())
}

/// Flips 1–4 bits of `wire`, positions derived deterministically from
/// `seed` (a splitmix-style mix). Returns the damaged copy.
fn corrupt_bytes(wire: &[u8], seed: u64) -> Vec<u8> {
    let mut out = wire.to_vec();
    if out.is_empty() {
        return out;
    }
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let flips = 1 + (next() % 4) as usize;
    for _ in 0..flips {
        let bit = next() as usize % (out.len() * 8);
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// Truncated length for a `len`-byte frame, derived from `seed`: always
/// strictly shorter, possibly zero.
fn truncate_len(len: usize, seed: u64) -> usize {
    (seed % len.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeId, Payload};
    use crate::ElasticConfig;
    use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig};
    use ChaosAction::{Down, Up};
    use ChaosWhen::{AfterFrames, BeforeSample};

    fn data_frame(seq: u64) -> Frame {
        Frame::new(seq, NodeId::Device(0), Payload::OffloadRequest)
    }

    fn impaired(seed: u64, imp: Impairment, link: &str) -> LinkChaos {
        LinkChaos::new(seed, imp, link, None)
    }

    /// Validates `plan` for an in-process run that offers everything
    /// (elastic orchestration) on `devices`
    /// devices → gateway → edge → cloud.
    fn validate(plan: &ChaosPlan, devices: usize, failed: &[usize]) -> Result<()> {
        validate_as(plan, devices, failed, false)
    }

    fn validate_as(
        plan: &ChaosPlan,
        devices: usize,
        failed: &[usize],
        processes: bool,
    ) -> Result<()> {
        let model = Ddnn::new(DdnnConfig {
            num_devices: devices,
            device_filters: 2,
            cloud_filters: [4, 8],
            edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
            ..DdnnConfig::default()
        });
        let cfg = HierarchyConfig {
            failed_devices: failed.to_vec(),
            elastic: Some(ElasticConfig::fast()),
            ..HierarchyConfig::default()
        };
        plan.validate(&Topology::from_partition(&model.partition()), &cfg, processes)
    }

    #[test]
    fn proc_target_parses_only_its_display_form() {
        for role in
            [ProcTarget::Devices, ProcTarget::Gateway, ProcTarget::Tier(0), ProcTarget::Tier(12)]
        {
            assert_eq!(role.to_string().parse::<ProcTarget>().unwrap(), role);
        }
        for bad in ["tier+1", "tier007", "tier", "tier-1", "Tier0", "", "device0"] {
            let err = bad.parse::<ProcTarget>().unwrap_err();
            assert!(matches!(err, RuntimeError::Protocol { .. }), "{bad:?}: {err}");
        }
    }

    #[test]
    fn inactive_plan_delivers_everything() {
        let fault = impaired(0, Impairment::none(), "a->b");
        for seq in 0..100 {
            assert_eq!(fault.roll(&data_frame(seq)), Delivery::clean());
        }
    }

    #[test]
    fn drop_rate_tracks_probability_and_is_deterministic() {
        let imp = Impairment { drop: 0.3, ..Impairment::none() };
        let outcomes = |link: &str| -> Vec<Delivery> {
            let fault = impaired(7, imp, link);
            (0..2000).map(|seq| fault.roll(&data_frame(seq))).collect()
        };
        let a = outcomes("dev0->gw");
        let b = outcomes("dev0->gw");
        assert_eq!(a, b, "same seed, same link, same stream");
        let dropped = a.iter().filter(|&&d| d == Delivery::Dropped).count();
        assert!((450..750).contains(&dropped), "dropped={dropped} of 2000 at p=0.3");
        // A different link name draws a different stream.
        assert_ne!(a, outcomes("dev1->gw"));
    }

    #[test]
    fn shutdown_is_exempt_even_from_certain_drop() {
        let imp = Impairment { drop: 1.0, ..Impairment::none() };
        let fault = LinkChaos::new(1, imp, "x", Some(CrashState::new(0)));
        let shutdown = Frame::new(0, NodeId::Orchestrator, Payload::Shutdown);
        assert_eq!(fault.roll(&shutdown), Delivery::clean());
        assert_eq!(fault.roll(&data_frame(1)), Delivery::Dropped);
    }

    #[test]
    fn crash_counter_is_shared_across_links() {
        let crash = CrashState::new(3);
        let to_gateway =
            LinkChaos::new(2, Impairment::none(), "dev0->gw", Some(Arc::clone(&crash)));
        let to_cloud = LinkChaos::new(2, Impairment::none(), "dev0->cloud", Some(crash));
        let deliver = Delivery::clean();
        assert_eq!(to_gateway.roll(&data_frame(0)), deliver);
        assert_eq!(to_cloud.roll(&data_frame(0)), deliver);
        assert_eq!(to_gateway.roll(&data_frame(1)), deliver);
        // Fourth transmission and beyond: the device is dead on every link.
        assert_eq!(to_cloud.roll(&data_frame(1)), Delivery::Dropped);
        assert_eq!(to_gateway.roll(&data_frame(2)), Delivery::Dropped);
    }

    #[test]
    fn corrupt_bytes_flips_few_bits_deterministically() {
        let wire = vec![0u8; 64];
        let a = corrupt_bytes(&wire, 99);
        let b = corrupt_bytes(&wire, 99);
        assert_eq!(a, b, "same seed, same damage");
        assert_ne!(a, wire, "corruption must change the bytes");
        let flipped: u32 = a.iter().zip(&wire).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!((1..=4).contains(&flipped), "flipped {flipped} bits");
        assert_ne!(a, corrupt_bytes(&wire, 100), "different seed, different damage");
        assert!(corrupt_bytes(&[], 1).is_empty());
    }

    #[test]
    fn truncate_len_is_always_strictly_shorter() {
        for seed in 0..50u64 {
            let cut = truncate_len(100, seed);
            assert!(cut < 100, "seed {seed}: {cut}");
        }
        assert_eq!(truncate_len(0, 7), 0);
    }

    #[test]
    fn byte_faults_draw_after_the_legacy_faults() {
        // An impairment with only the legacy rates must produce the same
        // stream it did before corruption existed: the corrupt/truncate/
        // reorder draws are gated on their rates.
        let legacy = Impairment { drop: 0.3, ..Impairment::none() };
        let fault = impaired(7, legacy, "dev0->gw");
        let stream: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        for d in &stream {
            if let Delivery::Deliver { corrupt, truncate, reorder, .. } = d {
                assert!(corrupt.is_none() && truncate.is_none() && !reorder);
            }
        }
        // With corruption enabled the same seed still produces a
        // deterministic stream, and some frames are marked corrupt.
        let noisy = Impairment { corrupt: 0.5, truncate: 0.2, ..Impairment::none() };
        let fault = impaired(7, noisy, "dev0->gw");
        let a: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        let fault = impaired(7, noisy, "dev0->gw");
        let b: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        assert_eq!(a, b);
        let corrupted =
            a.iter().filter(|d| matches!(d, Delivery::Deliver { corrupt: Some(_), .. })).count();
        assert!((150..350).contains(&corrupted), "corrupted={corrupted} of 500 at p=0.5");
        assert!(noisy.is_active());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let plan = ChaosPlan::links(0, Impairment { drop: 1.5, ..Impairment::none() });
        assert!(validate(&plan, 4, &[]).is_err());
        let crash = |device, after| {
            ChaosPlan::none().with(AfterFrames(after), ChaosTarget::Device(device), Down)
        };
        assert!(validate(&crash(4, 1), 4, &[]).is_err());
        let twice = crash(1, 1).with(AfterFrames(2), ChaosTarget::Device(1), Down);
        assert!(validate(&twice, 4, &[]).is_err());
        let plan = crash(1, 1);
        assert!(validate(&plan, 4, &[]).is_ok());
        assert!(plan.is_active());
        assert!(!ChaosPlan::none().is_active());
    }

    fn churn_plan(events: Vec<ChaosEvent>) -> ChaosPlan {
        ChaosPlan { seed: 0, events }
    }

    fn ev(at_sample: u64, target: ChaosTarget, action: ChaosAction) -> ChaosEvent {
        ChaosEvent { when: BeforeSample(at_sample), target, action }
    }

    #[test]
    fn churn_validation_requires_crash_rejoin_alternation() {
        // A rejoin with no preceding crash is rejected.
        let plan = churn_plan(vec![ev(2, ChaosTarget::Device(0), Up)]);
        let err = validate(&plan, 3, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Config { .. }), "{err}");
        assert!(err.to_string().contains("rejoin before any crash"), "{err}");
        // Crashing an already-crashed node is rejected.
        let plan =
            churn_plan(vec![ev(1, ChaosTarget::Gateway, Down), ev(3, ChaosTarget::Gateway, Down)]);
        assert!(validate(&plan, 3, &[]).unwrap_err().to_string().contains("already-crashed"));
        // Two events for one target at the same sample are rejected.
        let plan = churn_plan(vec![
            ev(1, ChaosTarget::Device(1), Down),
            ev(1, ChaosTarget::Device(1), Up),
        ]);
        assert!(validate(&plan, 3, &[]).unwrap_err().to_string().contains("two events"));
        // Out-of-range device targets are rejected.
        let plan = churn_plan(vec![ev(0, ChaosTarget::Device(5), Down)]);
        assert!(validate(&plan, 3, &[]).is_err());
        // A well-formed flap validates, is active, and events can arrive in
        // any order (validation sorts per target).
        let plan = churn_plan(vec![
            ev(4, ChaosTarget::Device(0), Down),
            ev(2, ChaosTarget::Device(0), Up),
            ev(0, ChaosTarget::Device(0), Down),
            ev(3, ChaosTarget::Tier("edge".into()), Down),
        ]);
        assert!(validate(&plan, 3, &[]).is_ok());
        assert!(plan.is_active());
    }

    #[test]
    fn node_validation_checks_names_and_terminal_fallback() {
        // Unknown tier names are rejected, for churn and tier crashes.
        let plan = churn_plan(vec![ev(0, ChaosTarget::Tier("fog".into()), Down)]);
        assert!(validate(&plan, 3, &[]).is_err());
        let plan = ChaosPlan::none().with(AfterFrames(3), ChaosTarget::Tier("fog".into()), Down);
        assert!(validate(&plan, 3, &[]).is_err());
        // Churning a statically failed device is rejected.
        let plan = churn_plan(vec![ev(0, ChaosTarget::Device(1), Down)]);
        assert!(validate(&plan, 3, &[1]).is_err());
        assert!(validate(&plan, 3, &[0]).is_ok());
        // Crashing the terminal tier while every other exit-capable node is
        // already scheduled down leaves no way to produce a verdict.
        let plan = churn_plan(vec![
            ev(1, ChaosTarget::Gateway, Down),
            ev(1, ChaosTarget::Tier("edge".into()), Down),
            ev(2, ChaosTarget::Tier("cloud".into()), Down),
        ]);
        let err = validate(&plan, 3, &[]).unwrap_err();
        assert!(err.to_string().contains("no exit-capable fallback"), "{err}");
        // The same terminal crash is fine while the gateway is up…
        let plan = churn_plan(vec![ev(2, ChaosTarget::Tier("cloud".into()), Down)]);
        assert!(validate(&plan, 3, &[]).is_ok());
        // …and fine again once a fallback has rejoined by then.
        let plan = churn_plan(vec![
            ev(1, ChaosTarget::Gateway, Down),
            ev(1, ChaosTarget::Tier("edge".into()), Down),
            ev(2, ChaosTarget::Gateway, Up),
            ev(2, ChaosTarget::Tier("cloud".into()), Down),
        ]);
        assert!(validate(&plan, 3, &[]).is_ok());
    }

    #[test]
    fn seeded_kill_plans_are_deterministic_and_valid() {
        let roles = [ProcTarget::Devices, ProcTarget::Gateway, ProcTarget::Tier(0)]
            .map(ChaosTarget::Process);
        let a = ChaosPlan::seeded_kills(7, 10, &roles, 0);
        let b = ChaosPlan::seeded_kills(7, 10, &roles, 0);
        assert_eq!(a, b, "same seed, same plan");
        validate_as(&a, 2, &[], true).unwrap();
        assert_eq!(a.events.len(), 3, "one kill per role, no respawns");
        for e in &a.events {
            assert!(
                matches!(e.when, BeforeSample(at) if at >= 1),
                "never kills before the first sample"
            );
            assert_eq!(e.action, Down);
        }
        let c = ChaosPlan::seeded_kills(8, 10, &roles, 0);
        assert_ne!(a, c, "different seed, different kill points");
        // With respawns requested, each in-range kill gains a respawn and
        // the plan still validates.
        let d = ChaosPlan::seeded_kills(7, 40, &roles, 3);
        validate_as(&d, 2, &[], true).unwrap();
        let kills = d.events.iter().filter(|e| e.action == Down).count();
        let respawns = d.events.iter().filter(|e| e.action == Up).count();
        assert_eq!(kills, 3);
        assert!(respawns >= 1, "a 40-sample run fits at least one respawn");
    }

    #[test]
    fn flapping_schedules_are_seeded_and_valid() {
        let targets =
            [ChaosTarget::Device(0), ChaosTarget::Device(2), ChaosTarget::Tier("edge".into())];
        let a = ChaosPlan::flapping(9, 40, &targets, 8, 3);
        let b = ChaosPlan::flapping(9, 40, &targets, 8, 3);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.is_active());
        validate(&a, 3, &[]).unwrap();
        // Every target actually flaps at least once.
        for t in &targets {
            assert!(a.events.iter().any(|e| e.target == *t), "{t} never churns");
        }
        // Different seeds shift the phases.
        let c = ChaosPlan::flapping(10, 40, &targets, 8, 3);
        assert_ne!(a, c);
        // Degenerate periods are clamped into validity rather than
        // generating rejoin-at-crash-sample schedules.
        let d = ChaosPlan::flapping(1, 20, &[ChaosTarget::Device(1)], 1, 9);
        validate(&d, 3, &[]).unwrap();
    }
}
