//! Dynamic fault injection for the simulated hierarchy.
//!
//! The paper's fault-tolerance story (§IV-G) is *static*: a failed device
//! is known before the run starts and its thread never spawns. This module
//! makes failure *dynamic*: a seeded [`FaultPlan`] wraps every link so
//! frames can be dropped, duplicated or jittered mid-run, and a device can
//! crash after its N-th transmitted frame. Combined with the deadline-based
//! degradation configured by [`DeadlineConfig`], the runtime then exercises
//! the blank-signature substitution path under realistic, time-varying
//! failure — the regime Figures 8/10 of the paper sweep analytically.
//!
//! Determinism: every link draws from its own xoshiro stream seeded by
//! `plan.seed` mixed with the link's name, so a given plan produces the
//! same drops/duplicates/crashes regardless of thread scheduling. Faults
//! apply at the *send boundary* — in `LinkSender::send`, before the
//! frame reaches the [`transport`](crate::transport) — so the seeded
//! streams draw identically whichever dataplane (channel, TCP, UDP)
//! carries the surviving bytes.
//! [`Payload::Shutdown`](crate::message::Payload::Shutdown) frames are
//! exempt from all faults so a chaotic run can always terminate cleanly.

use crate::error::{Result, RuntimeError};
use crate::message::Frame;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A device that dies partway through a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCrash {
    /// Index of the crashing device.
    pub device: usize,
    /// Frames the device successfully transmits before dying. `0` means
    /// it is dead on arrival (equivalent to a statically failed device,
    /// except the hierarchy has to *discover* the failure via deadlines).
    pub after_frames: u64,
}

/// A non-device node that dies partway through a run (satellite of the
/// elastic-orchestration work): after the node has transmitted
/// `after_frames` frames, every outbound link it owns swallows traffic,
/// exactly like a crashed device. The deadline/suspect path downstream
/// then treats the silent tier the same as an expired device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierCrash {
    /// Node name: `"gateway"` or a tier name from the topology chain.
    pub node: String,
    /// Frames the node successfully transmits before dying.
    pub after_frames: u64,
}

/// Which node a churn event targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChurnTarget {
    /// End device by index.
    Device(usize),
    /// The gateway (local aggregator).
    Gateway,
    /// A feature tier by topology name ("edge", "cloud", …).
    Tier(String),
}

impl std::fmt::Display for ChurnTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnTarget::Device(d) => write!(f, "device{d}"),
            ChurnTarget::Gateway => write!(f, "gateway"),
            ChurnTarget::Tier(name) => write!(f, "{name}"),
        }
    }
}

/// What happens to the target at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The node goes silent: it discards all traffic and stops answering
    /// heartbeats until a later [`ChurnAction::Rejoin`].
    Crash,
    /// The node comes back and resynchronizes from the current topology
    /// epoch.
    Rejoin,
}

/// One scheduled membership change, applied just before the captures of
/// `at_sample` are sent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Sample index (0-based) the event fires before.
    pub at_sample: u64,
    /// The node whose membership changes.
    pub target: ChurnTarget,
    /// Crash or rejoin.
    pub action: ChurnAction,
}

/// A deterministic membership-churn schedule: crash and rejoin events over
/// the sample timeline, driven by the orchestrator's elastic control
/// plane. The empty schedule (the default) leaves the run on its exact
/// legacy code path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSchedule {
    /// The schedule, in any order; validation checks per-target
    /// consistency, and the driver applies events sorted by sample.
    pub events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule: no membership ever changes.
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Whether the schedule contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A seeded flapping schedule: each target crashes roughly every
    /// `period` samples (random per-target phase) and rejoins `down_for`
    /// samples later, repeating for the whole run. `period` is clamped to
    /// at least 2 and `down_for` into `[1, period - 1]`, so the generated
    /// schedule always validates.
    pub fn flapping(
        seed: u64,
        n_samples: u64,
        targets: &[ChurnTarget],
        period: u64,
        down_for: u64,
    ) -> Self {
        let period = period.max(2);
        let down_for = down_for.clamp(1, period - 1);
        let mut events = Vec::new();
        for target in targets {
            let mut rng = StdRng::seed_from_u64(
                seed ^ fnv1a(target.to_string().as_bytes()).wrapping_add(0x5eed),
            );
            let mut t = rng.gen_range(0..period);
            while t < n_samples {
                events.push(ChurnEvent {
                    at_sample: t,
                    target: target.clone(),
                    action: ChurnAction::Crash,
                });
                let up_at = t + down_for;
                if up_at < n_samples {
                    events.push(ChurnEvent {
                        at_sample: up_at,
                        target: target.clone(),
                        action: ChurnAction::Rejoin,
                    });
                }
                t += period;
            }
        }
        ChurnSchedule { events }
    }
}

/// Which role *process* of the multi-process launcher a chaos event
/// targets. Unlike [`ChurnTarget`] (a simulated membership change inside
/// one process), these name the actual OS processes the launcher spawns:
/// the devices host, the gateway host, or the k-th feature-tier host.
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
/// counter names and on the `ddnn-node demo --kill` command line.
impl std::str::FromStr for ProcTarget {
    type Err = RuntimeError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "devices" => Ok(ProcTarget::Devices),
            "gateway" => Ok(ProcTarget::Gateway),
            other => other
                .strip_prefix("tier")
                .and_then(|k| k.parse().ok())
                .map(ProcTarget::Tier)
                .ok_or_else(|| RuntimeError::Protocol {
                    reason: format!("unknown role {other:?}"),
                }),
        }
    }
}

/// What happens to the target process at a chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcAction {
    /// SIGKILL the role process. Its sockets die with it; the launcher
    /// folds the loss into deadline degradation (blank substitution,
    /// forced local exits, typed timeouts) instead of hanging.
    Kill,
    /// Spawn a fresh process for the role, re-handshake it with the same
    /// manifest, rewire the surviving processes' sockets to it, and let it
    /// rejoin at the current sample index.
    Respawn,
}

/// One scheduled process kill or respawn, applied just before the
/// captures of `at_sample` are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcChaosEvent {
    /// Sample index (0-based) the event fires before.
    pub at_sample: u64,
    /// The role process affected.
    pub role: ProcTarget,
    /// Kill or respawn.
    pub action: ProcAction,
}

/// A deterministic schedule of real process kills and respawns for the
/// multi-process launcher — the OS-level counterpart of PR 6's
/// [`ChurnSchedule`]. The empty plan (the default) leaves the launcher on
/// its exact legacy code path; an active plan is launcher-only and is
/// rejected by the in-process runners.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcChaosPlan {
    /// The schedule, in any order; validation checks per-role
    /// consistency, and the supervisor applies events sorted by sample.
    pub events: Vec<ProcChaosEvent>,
}

impl ProcChaosPlan {
    /// The empty plan: no process is ever killed.
    pub fn none() -> Self {
        ProcChaosPlan::default()
    }

    /// Whether the plan contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A seeded kill schedule: each role is killed once at a random sample
    /// in `[1, n_samples)` (never before the first sample, so every run
    /// does some work first). When `respawn_after > 0`, a respawn is
    /// scheduled that many samples after each kill when it still fits the
    /// run. The generated plan always validates.
    pub fn seeded_kills(
        seed: u64,
        n_samples: u64,
        roles: &[ProcTarget],
        respawn_after: u64,
    ) -> Self {
        let mut events = Vec::new();
        let hi = n_samples.max(2);
        for role in roles {
            let mut rng = StdRng::seed_from_u64(
                seed ^ fnv1a(role.to_string().as_bytes()).wrapping_add(0x6b11),
            );
            let at = rng.gen_range(1..hi);
            events.push(ProcChaosEvent { at_sample: at, role: *role, action: ProcAction::Kill });
            if respawn_after > 0 {
                let up_at = at + respawn_after;
                if up_at < n_samples {
                    events.push(ProcChaosEvent {
                        at_sample: up_at,
                        role: *role,
                        action: ProcAction::Respawn,
                    });
                }
            }
        }
        ProcChaosPlan { events }
    }

    /// Validates the plan against the hierarchy it will supervise.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for a tier index out of range, two
    /// same-sample events for one role, or a sequence that is not a strict
    /// kill/respawn alternation starting with a kill.
    pub fn validate(&self, num_tiers: usize) -> Result<()> {
        let mut per_role: Vec<(ProcTarget, Vec<&ProcChaosEvent>)> = Vec::new();
        for event in &self.events {
            if let ProcTarget::Tier(k) = event.role {
                if k >= num_tiers {
                    return Err(RuntimeError::Config {
                        reason: format!("proc chaos plan targets tier {k} out of range"),
                    });
                }
            }
            match per_role.iter_mut().find(|(r, _)| *r == event.role) {
                Some((_, events)) => events.push(event),
                None => per_role.push((event.role, vec![event])),
            }
        }
        for (role, mut events) in per_role {
            events.sort_by_key(|e| e.at_sample);
            let mut expected = ProcAction::Kill;
            let mut prev_sample = None;
            for event in events {
                if prev_sample == Some(event.at_sample) {
                    return Err(RuntimeError::Config {
                        reason: format!(
                            "proc chaos plan has two events for {role} at sample {}",
                            event.at_sample
                        ),
                    });
                }
                if event.action != expected {
                    let what = match event.action {
                        ProcAction::Respawn => "respawn before any kill",
                        ProcAction::Kill => "kill of an already-dead role",
                    };
                    return Err(RuntimeError::Config {
                        reason: format!(
                            "proc chaos plan: {what} for {role} at sample {}",
                            event.at_sample
                        ),
                    });
                }
                expected = match event.action {
                    ProcAction::Kill => ProcAction::Respawn,
                    ProcAction::Respawn => ProcAction::Kill,
                };
                prev_sample = Some(event.at_sample);
            }
        }
        Ok(())
    }
}

/// Seeded chaos injected at the socket boundary of the real-FD
/// transports: UDP datagrams are dropped, duplicated or delayed and TCP
/// streams are severed mid-frame *below* the [`FaultPlan`] send boundary,
/// so ARQ retransmission, CRC framing and the transport's reconnect path
/// face pathology on actual file descriptors. Each link draws from its
/// own stream seeded by `seed` mixed with the link's name, exactly like
/// [`LinkFault`], so a plan replays identically across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketChaosPlan {
    /// Seed of the per-link chaos streams.
    pub seed: u64,
    /// Probability that a UDP datagram is silently dropped at the socket.
    pub drop_prob: f32,
    /// Probability that a UDP datagram is sent twice.
    pub duplicate_prob: f32,
    /// Maximum extra delay per transmission, in milliseconds (uniform in
    /// `[0, delay_ms]`), applied before the bytes hit the socket.
    pub delay_ms: u32,
    /// Probability that a TCP transmission severs the stream mid-frame:
    /// a partial frame is written, then the connection is closed, so the
    /// peer observes a real half-open/EOF condition.
    pub sever_prob: f32,
}

impl SocketChaosPlan {
    /// A plan that injects nothing at the socket boundary.
    pub fn none() -> Self {
        SocketChaosPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_ms: 0,
            sever_prob: 0.0,
        }
    }

    /// Whether this plan injects any socket-level chaos.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_ms > 0
            || self.sever_prob > 0.0
    }

    /// Validates the probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for probabilities outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        for (what, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("sever_prob", self.sever_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(RuntimeError::Config {
                    reason: format!("socket chaos {what} {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

impl Default for SocketChaosPlan {
    fn default() -> Self {
        SocketChaosPlan::none()
    }
}

/// A seeded, deterministic plan of dynamic faults injected into the links
/// of a run. [`FaultPlan::none`] (the default) injects nothing and leaves
/// the runtime on its exact legacy code path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-link fault streams.
    pub seed: u64,
    /// Probability that a frame is silently dropped in transit.
    pub drop_prob: f32,
    /// Probability that a delivered frame arrives twice.
    pub duplicate_prob: f32,
    /// Maximum extra delivery delay per frame, in milliseconds (uniform
    /// in `[0, jitter_ms]`).
    pub jitter_ms: u32,
    /// Devices that crash after transmitting a given number of frames.
    pub crash_after: Vec<DeviceCrash>,
    /// Probability that a delivered frame has 1–4 of its wire bits flipped
    /// in transit. Requires the checked wire format (CRC) — an unchecked
    /// link would silently mis-decode.
    pub corrupt_prob: f32,
    /// Probability that a delivered frame is cut short in transit.
    /// Requires the checked wire format, like `corrupt_prob`.
    pub truncate_prob: f32,
    /// Probability that a frame is held back and delivered *after* the
    /// next frame on the same link (pairwise reordering).
    pub reorder_prob: f32,
    /// Non-device nodes (gateway / tiers) that crash after transmitting a
    /// given number of frames and never come back — the tier-level
    /// counterpart of `crash_after`.
    pub tier_crash_after: Vec<TierCrash>,
    /// Scheduled crash-and-rejoin membership churn, driven by the elastic
    /// control plane (requires `HierarchyConfig::elastic`).
    pub churn: ChurnSchedule,
}

impl FaultPlan {
    /// A plan that injects no faults at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            jitter_ms: 0,
            crash_after: Vec::new(),
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            reorder_prob: 0.0,
            tier_crash_after: Vec::new(),
            churn: ChurnSchedule::none(),
        }
    }

    /// Whether this plan injects any fault.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.jitter_ms > 0
            || !self.crash_after.is_empty()
            || self.corrupts_bytes()
            || self.reorder_prob > 0.0
            || !self.tier_crash_after.is_empty()
            || !self.churn.is_empty()
    }

    /// Whether this plan mutates bytes on the wire (corruption or
    /// truncation) — faults only a checked wire format can detect.
    pub fn corrupts_bytes(&self) -> bool {
        self.corrupt_prob > 0.0 || self.truncate_prob > 0.0
    }

    /// Validates the plan against the hierarchy it will run in.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for probabilities outside `[0, 1]`,
    /// crash indices out of range, several crashes for one device, or an
    /// inconsistent churn schedule (a rejoin before any crash, a double
    /// crash, or two same-sample events for one target).
    pub fn validate(&self, num_devices: usize) -> Result<()> {
        for (what, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("truncate_prob", self.truncate_prob),
            ("reorder_prob", self.reorder_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(RuntimeError::Config {
                    reason: format!("fault plan {what} {p} outside [0, 1]"),
                });
            }
        }
        for (i, crash) in self.crash_after.iter().enumerate() {
            if crash.device >= num_devices {
                return Err(RuntimeError::Config {
                    reason: format!("fault plan crashes device {} out of range", crash.device),
                });
            }
            if self.crash_after[..i].iter().any(|c| c.device == crash.device) {
                return Err(RuntimeError::Config {
                    reason: format!("fault plan crashes device {} twice", crash.device),
                });
            }
        }
        for (i, crash) in self.tier_crash_after.iter().enumerate() {
            if self.tier_crash_after[..i].iter().any(|c| c.node == crash.node) {
                return Err(RuntimeError::Config {
                    reason: format!("fault plan crashes node '{}' twice", crash.node),
                });
            }
        }
        self.validate_churn(num_devices)
    }

    /// Churn-schedule consistency: every target's event sequence must be a
    /// strict crash/rejoin alternation starting with a crash, in strictly
    /// increasing sample order, with device indices in range.
    fn validate_churn(&self, num_devices: usize) -> Result<()> {
        let mut per_target: Vec<(&ChurnTarget, Vec<&ChurnEvent>)> = Vec::new();
        for event in &self.churn.events {
            if let ChurnTarget::Device(d) = event.target {
                if d >= num_devices {
                    return Err(RuntimeError::Config {
                        reason: format!("churn schedule targets device {d} out of range"),
                    });
                }
            }
            match per_target.iter_mut().find(|(t, _)| **t == event.target) {
                Some((_, events)) => events.push(event),
                None => per_target.push((&event.target, vec![event])),
            }
        }
        for (target, mut events) in per_target {
            events.sort_by_key(|e| e.at_sample);
            let mut expected = ChurnAction::Crash;
            let mut prev_sample = None;
            for event in events {
                if prev_sample == Some(event.at_sample) {
                    return Err(RuntimeError::Config {
                        reason: format!(
                            "churn schedule has two events for {target} at sample {}",
                            event.at_sample
                        ),
                    });
                }
                if event.action != expected {
                    let what = match event.action {
                        ChurnAction::Rejoin => "rejoin before any crash",
                        ChurnAction::Crash => "crash of an already-crashed node",
                    };
                    return Err(RuntimeError::Config {
                        reason: format!(
                            "churn schedule: {what} for {target} at sample {}",
                            event.at_sample
                        ),
                    });
                }
                expected = match event.action {
                    ChurnAction::Crash => ChurnAction::Rejoin,
                    ChurnAction::Rejoin => ChurnAction::Crash,
                };
                prev_sample = Some(event.at_sample);
            }
        }
        Ok(())
    }

    /// Validates the plan's node-targeting faults against the actual node
    /// set of a topology: tier names must exist, churned devices must not
    /// be statically failed, and whenever the schedule has the terminal
    /// tier down, at least one other exit-capable node (the gateway or
    /// another tier) must be scheduled up — otherwise no verdict could ever
    /// be produced during that window.
    pub(crate) fn validate_nodes(
        &self,
        tier_names: &[String],
        failed_devices: &[usize],
    ) -> Result<()> {
        let known = |name: &str| name == "gateway" || tier_names.iter().any(|t| t == name);
        for crash in &self.tier_crash_after {
            if !known(&crash.node) {
                return Err(RuntimeError::Config {
                    reason: format!("fault plan crashes unknown node '{}'", crash.node),
                });
            }
        }
        for event in &self.churn.events {
            match &event.target {
                ChurnTarget::Tier(name) if !known(name) => {
                    return Err(RuntimeError::Config {
                        reason: format!("churn schedule targets unknown node '{name}'"),
                    });
                }
                ChurnTarget::Device(d) if failed_devices.contains(d) => {
                    return Err(RuntimeError::Config {
                        reason: format!("churn schedule targets statically failed device {d}"),
                    });
                }
                _ => {}
            }
        }
        // Sweep the schedule: exit-capable nodes are the gateway and every
        // tier (a non-terminal tier falls back to a forced local exit when
        // its upstream is gone).
        let Some(terminal) = tier_names.last() else { return Ok(()) };
        let mut ordered: Vec<&ChurnEvent> = self.churn.events.iter().collect();
        ordered.sort_by_key(|e| e.at_sample);
        let mut gateway_up = true;
        let mut tier_up = vec![true; tier_names.len()];
        let mut i = 0;
        while i < ordered.len() {
            let at = ordered[i].at_sample;
            while i < ordered.len() && ordered[i].at_sample == at {
                let up = ordered[i].action == ChurnAction::Rejoin;
                match &ordered[i].target {
                    ChurnTarget::Device(_) => {}
                    ChurnTarget::Gateway => gateway_up = up,
                    ChurnTarget::Tier(name) => {
                        if let Some(k) = tier_names.iter().position(|t| t == name) {
                            tier_up[k] = up;
                        }
                    }
                }
                i += 1;
            }
            let last = tier_up.len() - 1;
            if !tier_up[last] && !gateway_up && !tier_up[..last].iter().any(|&u| u) {
                return Err(RuntimeError::Config {
                    reason: format!(
                        "churn schedule crashes terminal tier '{terminal}' at sample {at} \
                         with no exit-capable fallback scheduled up"
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Deadlines and retry bounds that make the hierarchy degrade gracefully
/// instead of hanging when frames are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// How long an aggregating node (gateway, edge, cloud) waits for the
    /// remaining per-device contributions of a sample before substituting
    /// blank signatures, in milliseconds.
    pub aggregation_ms: u64,
    /// How long the orchestrator waits for a verdict before re-sending the
    /// sample's captures, in milliseconds.
    pub watchdog_ms: u64,
    /// Capture retransmissions per sample before the orchestrator records
    /// the sample as timed out and moves on.
    pub max_retries: u32,
    /// Consecutive aggregation deadlines a device must miss before it is
    /// presumed dead and no longer waited for (it revives on its next
    /// frame).
    pub suspect_after: u32,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig { aggregation_ms: 250, watchdog_ms: 2000, max_retries: 2, suspect_after: 2 }
    }
}

impl DeadlineConfig {
    /// A tight configuration for tests: short waits, the same semantics.
    pub fn fast() -> Self {
        DeadlineConfig { aggregation_ms: 40, watchdog_ms: 400, max_retries: 2, suspect_after: 2 }
    }
}

/// How sample arrivals are spaced when the runner feeds the hierarchy
/// open-loop (see [`StreamConfig`]) instead of in per-sample lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. exponential inter-arrival gaps at
    /// `rate_per_s` samples per second, drawn from a dedicated stream
    /// seeded by `seed` — the arrival schedule is fully determined before
    /// the run starts, independent of thread scheduling.
    Poisson {
        /// Mean offered load, in samples per second.
        rate_per_s: f64,
        /// Seed of the inter-arrival random stream.
        seed: u64,
    },
    /// Deterministic fixed-rate arrivals: sample `i` is due exactly
    /// `i / rate_per_s` seconds after the pump starts.
    Fixed {
        /// Offered load, in samples per second.
        rate_per_s: f64,
    },
}

impl ArrivalProcess {
    /// The configured offered load, in samples per second.
    pub fn rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s, .. } | ArrivalProcess::Fixed { rate_per_s } => {
                rate_per_s
            }
        }
    }

    /// The precomputed arrival schedule: for each of `n` samples, its
    /// offset from the pump start in (fractional) milliseconds,
    /// non-decreasing.
    pub(crate) fn offsets_ms(&self, n: usize) -> Vec<f64> {
        match *self {
            ArrivalProcess::Fixed { rate_per_s } => {
                (0..n).map(|i| i as f64 * 1000.0 / rate_per_s).collect()
            }
            ArrivalProcess::Poisson { rate_per_s, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
                        t += -(1.0 - u).ln() * 1000.0 / rate_per_s;
                        t
                    })
                    .collect()
            }
        }
    }
}

/// Open-loop streaming configuration: an arrival process that offers load
/// regardless of completions, a bounded admission window with typed
/// load-shedding, and the tier-side micro-batch budget. `None` on
/// [`HierarchyConfig`](crate::topology::HierarchyConfig) (the default)
/// keeps the closed-loop lockstep feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// How arrivals are spaced over the run.
    pub arrival: ArrivalProcess,
    /// Maximum samples admitted but not yet resolved. An arrival that
    /// finds the window full is shed — a typed
    /// [`SampleOutcome::Shed`](crate::SampleOutcome::Shed), never a
    /// silent drop.
    pub queue_cap: usize,
    /// Maximum completed samples a tier drains from its inbox and
    /// evaluates as one batched tensor pass per iteration. `1` keeps
    /// per-sample evaluation.
    pub batch_max: usize,
}

impl StreamConfig {
    /// Validates rates and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for a non-finite or non-positive
    /// arrival rate, or a zero `queue_cap`/`batch_max`.
    pub fn validate(&self) -> Result<()> {
        let rate = self.arrival.rate_per_s();
        if !rate.is_finite() || rate <= 0.0 {
            return Err(RuntimeError::Config {
                reason: format!("stream arrival rate {rate} must be finite and positive"),
            });
        }
        if self.queue_cap == 0 {
            return Err(RuntimeError::Config {
                reason: "stream queue_cap must be at least 1".to_string(),
            });
        }
        if self.batch_max == 0 {
            return Err(RuntimeError::Config {
                reason: "stream batch_max must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Shared crash counter of one device, observed by all its outbound links.
#[derive(Debug)]
pub(crate) struct CrashState {
    after: u64,
    sent: AtomicU64,
}

impl CrashState {
    pub(crate) fn new(after_frames: u64) -> Arc<Self> {
        Arc::new(CrashState { after: after_frames, sent: AtomicU64::new(0) })
    }

    /// Records one attempted transmission; returns `true` once the device
    /// is dead and the frame must be swallowed.
    fn on_send(&self) -> bool {
        self.sent.fetch_add(1, Ordering::Relaxed) >= self.after
    }
}

/// What the fault layer decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// The sending device has crashed; swallow silently.
    Dropped,
    /// Deliver, possibly twice, possibly after an extra delay, possibly
    /// with its wire bytes damaged or its order swapped with the next
    /// frame on the link.
    Deliver {
        /// Send the frame a second time.
        duplicate: bool,
        /// Extra in-flight delay before the frame is handed over.
        delay: Option<Duration>,
        /// Flip 1–4 wire bits, positions derived from this seed.
        corrupt: Option<u64>,
        /// Cut the wire short, new length derived from this seed.
        truncate: Option<u64>,
        /// Hold this frame back until the next frame on the link passes.
        reorder: bool,
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
        }
    }
}

/// Per-link fault state: an independent seeded stream plus an optional
/// shared crash counter for the sending device.
#[derive(Debug)]
pub(crate) struct LinkFault {
    drop_prob: f32,
    duplicate_prob: f32,
    jitter_ms: u32,
    corrupt_prob: f32,
    truncate_prob: f32,
    reorder_prob: f32,
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

impl LinkFault {
    pub(crate) fn new(plan: &FaultPlan, link_name: &str, crash: Option<Arc<CrashState>>) -> Self {
        LinkFault {
            drop_prob: plan.drop_prob,
            duplicate_prob: plan.duplicate_prob,
            jitter_ms: plan.jitter_ms,
            corrupt_prob: plan.corrupt_prob,
            truncate_prob: plan.truncate_prob,
            reorder_prob: plan.reorder_prob,
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed ^ fnv1a(link_name.as_bytes()))),
            crash,
        }
    }

    /// Rolls the fate of one frame. Shutdown frames always pass untouched.
    ///
    /// Draws happen in a fixed order (drop, duplicate, jitter, corrupt,
    /// truncate, reorder) with each draw gated on its probability being
    /// non-zero, so a plan that only uses the legacy faults consumes the
    /// exact same RNG stream it did before the byte-level faults existed.
    pub(crate) fn roll(&self, frame: &Frame) -> Delivery {
        if frame.is_shutdown() {
            return Delivery::clean();
        }
        self.roll_raw()
    }

    /// Rolls the fate of a transport-layer transmission (a retransmission
    /// or an acknowledgement) that has no application frame: same draws as
    /// [`LinkFault::roll`], no shutdown exemption.
    pub(crate) fn roll_raw(&self) -> Delivery {
        if let Some(crash) = &self.crash {
            if crash.on_send() {
                return Delivery::Dropped;
            }
        }
        let mut rng = self.rng.lock();
        if self.drop_prob > 0.0 && rng.gen::<f32>() < self.drop_prob {
            return Delivery::Dropped;
        }
        let duplicate = self.duplicate_prob > 0.0 && rng.gen::<f32>() < self.duplicate_prob;
        let delay = (self.jitter_ms > 0)
            .then(|| Duration::from_micros(rng.gen_range(0..=u64::from(self.jitter_ms) * 1000)));
        let corrupt = (self.corrupt_prob > 0.0 && rng.gen::<f32>() < self.corrupt_prob)
            .then(|| rng.gen::<u64>());
        let truncate = (self.truncate_prob > 0.0 && rng.gen::<f32>() < self.truncate_prob)
            .then(|| rng.gen::<u64>());
        let reorder = self.reorder_prob > 0.0 && rng.gen::<f32>() < self.reorder_prob;
        Delivery::Deliver { duplicate, delay, corrupt, truncate, reorder }
    }
}

/// Flips 1–4 bits of `wire`, positions derived deterministically from
/// `seed` (a splitmix-style mix). Returns the damaged copy.
pub(crate) fn corrupt_bytes(wire: &[u8], seed: u64) -> Vec<u8> {
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
pub(crate) fn truncate_len(len: usize, seed: u64) -> usize {
    if len == 0 {
        0
    } else {
        (seed % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeId, Payload};

    fn data_frame(seq: u64) -> Frame {
        Frame::new(seq, NodeId::Device(0), Payload::OffloadRequest)
    }

    #[test]
    fn inactive_plan_delivers_everything() {
        let fault = LinkFault::new(&FaultPlan::none(), "a->b", None);
        for seq in 0..100 {
            assert_eq!(fault.roll(&data_frame(seq)), Delivery::clean());
        }
    }

    #[test]
    fn drop_rate_tracks_probability_and_is_deterministic() {
        let plan = FaultPlan { seed: 7, drop_prob: 0.3, ..FaultPlan::none() };
        let outcomes = |plan: &FaultPlan| -> Vec<Delivery> {
            let fault = LinkFault::new(plan, "dev0->gw", None);
            (0..2000).map(|seq| fault.roll(&data_frame(seq))).collect()
        };
        let a = outcomes(&plan);
        let b = outcomes(&plan);
        assert_eq!(a, b, "same seed, same link, same stream");
        let dropped = a.iter().filter(|&&d| d == Delivery::Dropped).count();
        assert!((450..750).contains(&dropped), "dropped={dropped} of 2000 at p=0.3");
        // A different link name draws a different stream.
        let other = LinkFault::new(&plan, "dev1->gw", None);
        let c: Vec<Delivery> = (0..2000).map(|seq| other.roll(&data_frame(seq))).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn shutdown_is_exempt_even_from_certain_drop() {
        let plan = FaultPlan { seed: 1, drop_prob: 1.0, ..FaultPlan::none() };
        let fault = LinkFault::new(&plan, "x", Some(CrashState::new(0)));
        let shutdown = Frame::new(0, NodeId::Orchestrator, Payload::Shutdown);
        assert_eq!(fault.roll(&shutdown), Delivery::clean());
        assert_eq!(fault.roll(&data_frame(1)), Delivery::Dropped);
    }

    #[test]
    fn crash_counter_is_shared_across_links() {
        let crash = CrashState::new(3);
        let plan = FaultPlan { seed: 2, ..FaultPlan::none() };
        let to_gateway = LinkFault::new(&plan, "dev0->gw", Some(Arc::clone(&crash)));
        let to_cloud = LinkFault::new(&plan, "dev0->cloud", Some(crash));
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
    fn fixed_arrivals_are_evenly_spaced() {
        let offs = ArrivalProcess::Fixed { rate_per_s: 200.0 }.offsets_ms(4);
        assert_eq!(offs, vec![0.0, 5.0, 10.0, 15.0]);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_nondecreasing() {
        let p = ArrivalProcess::Poisson { rate_per_s: 100.0, seed: 9 };
        let a = p.offsets_ms(500);
        assert_eq!(a, p.offsets_ms(500), "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "offsets never go backwards");
        let b = ArrivalProcess::Poisson { rate_per_s: 100.0, seed: 10 }.offsets_ms(500);
        assert_ne!(a, b, "different seed, different schedule");
        // Mean gap of 500 exponential draws at 100/s is near 10 ms.
        let mean_gap = a.last().unwrap() / 500.0;
        assert!((5.0..20.0).contains(&mean_gap), "mean gap {mean_gap} ms at 100/s");
    }

    #[test]
    fn stream_config_validation_rejects_degenerate_values() {
        let ok = StreamConfig {
            arrival: ArrivalProcess::Fixed { rate_per_s: 50.0 },
            queue_cap: 8,
            batch_max: 4,
        };
        assert!(ok.validate().is_ok());
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s: rate, seed: 0 },
                ..ok
            };
            assert!(bad.validate().is_err(), "rate {rate} must be rejected");
        }
        assert!(StreamConfig { queue_cap: 0, ..ok }.validate().is_err());
        assert!(StreamConfig { batch_max: 0, ..ok }.validate().is_err());
    }

    #[test]
    fn byte_faults_draw_after_the_legacy_faults() {
        // A plan with only legacy faults must produce the same stream it
        // did before corruption existed: the corrupt/truncate/reorder
        // draws are gated on their probabilities.
        let legacy = FaultPlan { seed: 7, drop_prob: 0.3, ..FaultPlan::none() };
        let fault = LinkFault::new(&legacy, "dev0->gw", None);
        let stream: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        for d in &stream {
            if let Delivery::Deliver { corrupt, truncate, reorder, .. } = d {
                assert!(corrupt.is_none() && truncate.is_none() && !reorder);
            }
        }
        // With corruption enabled the same seed still produces a
        // deterministic stream, and some frames are marked corrupt.
        let noisy =
            FaultPlan { seed: 7, corrupt_prob: 0.5, truncate_prob: 0.2, ..FaultPlan::none() };
        let fault = LinkFault::new(&noisy, "dev0->gw", None);
        let a: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        let fault = LinkFault::new(&noisy, "dev0->gw", None);
        let b: Vec<Delivery> = (0..500).map(|s| fault.roll(&data_frame(s))).collect();
        assert_eq!(a, b);
        let corrupted =
            a.iter().filter(|d| matches!(d, Delivery::Deliver { corrupt: Some(_), .. })).count();
        assert!((150..350).contains(&corrupted), "corrupted={corrupted} of 500 at p=0.5");
        assert!(noisy.corrupts_bytes() && noisy.is_active());
        assert!(!legacy.corrupts_bytes());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut plan = FaultPlan { drop_prob: 1.5, ..FaultPlan::none() };
        assert!(plan.validate(4).is_err());
        plan.drop_prob = 0.0;
        plan.crash_after = vec![DeviceCrash { device: 4, after_frames: 1 }];
        assert!(plan.validate(4).is_err());
        plan.crash_after = vec![
            DeviceCrash { device: 1, after_frames: 1 },
            DeviceCrash { device: 1, after_frames: 2 },
        ];
        assert!(plan.validate(4).is_err());
        plan.crash_after = vec![DeviceCrash { device: 1, after_frames: 1 }];
        assert!(plan.validate(4).is_ok());
        assert!(plan.is_active());
        assert!(!FaultPlan::none().is_active());
    }

    fn churn_plan(events: Vec<ChurnEvent>) -> FaultPlan {
        FaultPlan { churn: ChurnSchedule { events }, ..FaultPlan::none() }
    }

    fn ev(at_sample: u64, target: ChurnTarget, action: ChurnAction) -> ChurnEvent {
        ChurnEvent { at_sample, target, action }
    }

    #[test]
    fn churn_validation_requires_crash_rejoin_alternation() {
        use ChurnAction::{Crash, Rejoin};
        // A rejoin with no preceding crash is rejected.
        let plan = churn_plan(vec![ev(2, ChurnTarget::Device(0), Rejoin)]);
        let err = plan.validate(3).unwrap_err();
        assert!(matches!(err, RuntimeError::Config { .. }), "{err}");
        assert!(err.to_string().contains("rejoin before any crash"), "{err}");
        // Crashing an already-crashed node is rejected.
        let plan = churn_plan(vec![
            ev(1, ChurnTarget::Gateway, Crash),
            ev(3, ChurnTarget::Gateway, Crash),
        ]);
        assert!(plan.validate(3).unwrap_err().to_string().contains("already-crashed"));
        // Two events for one target at the same sample are rejected.
        let plan = churn_plan(vec![
            ev(1, ChurnTarget::Device(1), Crash),
            ev(1, ChurnTarget::Device(1), Rejoin),
        ]);
        assert!(plan.validate(3).unwrap_err().to_string().contains("two events"));
        // Out-of-range device targets are rejected.
        let plan = churn_plan(vec![ev(0, ChurnTarget::Device(5), Crash)]);
        assert!(plan.validate(3).is_err());
        // A well-formed flap validates, is active, and events can arrive in
        // any order (validation sorts per target).
        let plan = churn_plan(vec![
            ev(4, ChurnTarget::Device(0), Crash),
            ev(2, ChurnTarget::Device(0), Rejoin),
            ev(0, ChurnTarget::Device(0), Crash),
            ev(3, ChurnTarget::Tier("edge".into()), Crash),
        ]);
        assert!(plan.validate(3).is_ok());
        assert!(plan.is_active());
    }

    #[test]
    fn node_validation_checks_names_and_terminal_fallback() {
        use ChurnAction::{Crash, Rejoin};
        let tiers = ["edge".to_string(), "cloud".to_string()];
        // Unknown tier names are rejected, for churn and tier crashes.
        let plan = churn_plan(vec![ev(0, ChurnTarget::Tier("fog".into()), Crash)]);
        assert!(plan.validate_nodes(&tiers, &[]).is_err());
        let plan = FaultPlan {
            tier_crash_after: vec![TierCrash { node: "fog".into(), after_frames: 3 }],
            ..FaultPlan::none()
        };
        assert!(plan.validate_nodes(&tiers, &[]).is_err());
        // Churning a statically failed device is rejected.
        let plan = churn_plan(vec![ev(0, ChurnTarget::Device(1), Crash)]);
        assert!(plan.validate_nodes(&tiers, &[1]).is_err());
        assert!(plan.validate_nodes(&tiers, &[0]).is_ok());
        // Crashing the terminal tier while every other exit-capable node is
        // already scheduled down leaves no way to produce a verdict.
        let plan = churn_plan(vec![
            ev(1, ChurnTarget::Gateway, Crash),
            ev(1, ChurnTarget::Tier("edge".into()), Crash),
            ev(2, ChurnTarget::Tier("cloud".into()), Crash),
        ]);
        let err = plan.validate_nodes(&tiers, &[]).unwrap_err();
        assert!(err.to_string().contains("no exit-capable fallback"), "{err}");
        // The same terminal crash is fine while the gateway is up…
        let plan = churn_plan(vec![ev(2, ChurnTarget::Tier("cloud".into()), Crash)]);
        assert!(plan.validate_nodes(&tiers, &[]).is_ok());
        // …and fine again once a fallback has rejoined by then.
        let plan = churn_plan(vec![
            ev(1, ChurnTarget::Gateway, Crash),
            ev(1, ChurnTarget::Tier("edge".into()), Crash),
            ev(2, ChurnTarget::Gateway, Rejoin),
            ev(2, ChurnTarget::Tier("cloud".into()), Crash),
        ]);
        assert!(plan.validate_nodes(&tiers, &[]).is_ok());
    }

    #[test]
    fn proc_chaos_validation_requires_kill_respawn_alternation() {
        use ProcAction::{Kill, Respawn};
        let pev = |at_sample: u64, role: ProcTarget, action: ProcAction| ProcChaosEvent {
            at_sample,
            role,
            action,
        };
        // A respawn with no preceding kill is rejected.
        let plan = ProcChaosPlan { events: vec![pev(2, ProcTarget::Gateway, Respawn)] };
        let err = plan.validate(2).unwrap_err();
        assert!(err.to_string().contains("respawn before any kill"), "{err}");
        // Killing an already-dead role is rejected.
        let plan = ProcChaosPlan {
            events: vec![pev(1, ProcTarget::Devices, Kill), pev(3, ProcTarget::Devices, Kill)],
        };
        assert!(plan.validate(2).unwrap_err().to_string().contains("already-dead"));
        // Two events for one role at the same sample are rejected.
        let plan = ProcChaosPlan {
            events: vec![pev(1, ProcTarget::Tier(0), Kill), pev(1, ProcTarget::Tier(0), Respawn)],
        };
        assert!(plan.validate(2).unwrap_err().to_string().contains("two events"));
        // Tier indices out of range are rejected.
        let plan = ProcChaosPlan { events: vec![pev(0, ProcTarget::Tier(2), Kill)] };
        assert!(plan.validate(2).is_err());
        // A well-formed kill→respawn→kill sequence validates in any order.
        let plan = ProcChaosPlan {
            events: vec![
                pev(5, ProcTarget::Gateway, Kill),
                pev(3, ProcTarget::Gateway, Respawn),
                pev(1, ProcTarget::Gateway, Kill),
                pev(2, ProcTarget::Tier(1), Kill),
            ],
        };
        plan.validate(2).unwrap();
        assert!(!plan.is_empty());
        assert!(ProcChaosPlan::none().is_empty());
    }

    #[test]
    fn seeded_kill_plans_are_deterministic_and_valid() {
        let roles = [ProcTarget::Devices, ProcTarget::Gateway, ProcTarget::Tier(0)];
        let a = ProcChaosPlan::seeded_kills(7, 10, &roles, 0);
        let b = ProcChaosPlan::seeded_kills(7, 10, &roles, 0);
        assert_eq!(a, b, "same seed, same plan");
        a.validate(1).unwrap();
        assert_eq!(a.events.len(), 3, "one kill per role, no respawns");
        for e in &a.events {
            assert!(e.at_sample >= 1, "never kills before the first sample");
            assert_eq!(e.action, ProcAction::Kill);
        }
        let c = ProcChaosPlan::seeded_kills(8, 10, &roles, 0);
        assert_ne!(a, c, "different seed, different kill points");
        // With respawns requested, each in-range kill gains a respawn and
        // the plan still validates.
        let d = ProcChaosPlan::seeded_kills(7, 40, &roles, 3);
        d.validate(1).unwrap();
        let kills = d.events.iter().filter(|e| e.action == ProcAction::Kill).count();
        let respawns = d.events.iter().filter(|e| e.action == ProcAction::Respawn).count();
        assert_eq!(kills, 3);
        assert!(respawns >= 1, "a 40-sample run fits at least one respawn");
    }

    #[test]
    fn socket_chaos_validation_and_activity() {
        assert!(!SocketChaosPlan::none().is_active());
        SocketChaosPlan::none().validate().unwrap();
        let plan = SocketChaosPlan { seed: 3, drop_prob: 0.1, ..SocketChaosPlan::none() };
        assert!(plan.is_active());
        plan.validate().unwrap();
        for bad in [
            SocketChaosPlan { drop_prob: 1.5, ..SocketChaosPlan::none() },
            SocketChaosPlan { duplicate_prob: -0.1, ..SocketChaosPlan::none() },
            SocketChaosPlan { sever_prob: 2.0, ..SocketChaosPlan::none() },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(SocketChaosPlan { delay_ms: 5, ..SocketChaosPlan::none() }.is_active());
        assert!(SocketChaosPlan { sever_prob: 0.2, ..SocketChaosPlan::none() }.is_active());
    }

    #[test]
    fn flapping_schedules_are_seeded_and_valid() {
        let targets =
            [ChurnTarget::Device(0), ChurnTarget::Device(2), ChurnTarget::Tier("edge".into())];
        let a = ChurnSchedule::flapping(9, 40, &targets, 8, 3);
        let b = ChurnSchedule::flapping(9, 40, &targets, 8, 3);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        let plan = FaultPlan { churn: a.clone(), ..FaultPlan::none() };
        plan.validate(3).unwrap();
        // Every target actually flaps at least once.
        for t in &targets {
            assert!(a.events.iter().any(|e| e.target == *t), "{t} never churns");
        }
        // Different seeds shift the phases.
        let c = ChurnSchedule::flapping(10, 40, &targets, 8, 3);
        assert_ne!(a, c);
        // Degenerate periods are clamped into validity rather than
        // generating rejoin-at-crash-sample schedules.
        let d = ChurnSchedule::flapping(1, 20, &[ChurnTarget::Device(1)], 1, 9);
        FaultPlan { churn: d, ..FaultPlan::none() }.validate(3).unwrap();
    }
}
