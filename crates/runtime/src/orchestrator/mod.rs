//! The elastic control plane: membership tracking, routing recomputation
//! and epoch-guarded reconfiguration for a running hierarchy.
//!
//! The static runtime of PRs 1–5 freezes the [`crate::Topology`] at
//! startup: a crashed device is dead forever and an orphaned subtree takes
//! every ancestor with it. This subsystem turns the declarative topology
//! into a living system:
//!
//! * [`membership`] — per-node liveness from heartbeats ([`crate::message::Payload::Ping`] /
//!   [`crate::message::Payload::Pong`]) piggybacked on the existing
//!   instrumented links, with a consecutive-miss suspicion threshold.
//! * [`rebalance`] — the [`rebalance::RoutingTable`]: given the live set
//!   and an empirically probed section-compatibility matrix
//!   ([`rebalance::Compat`]), orphaned devices re-parent to the nearest
//!   surviving compatible tier and tiers that lose their upstream fall
//!   back to a forced local exit.
//! * [`reconfigure`] — [`reconfigure::TopologyDiff`]s (join, leave,
//!   re-parent) between consecutive routing tables, applied *between*
//!   samples and published through a monotone topology epoch; frames from
//!   a previous epoch are discarded with a typed
//!   [`crate::RuntimeError::StaleEpoch`], never acted on.
//!
//! Every transition is wired through the observability layer: the
//! `run.epochs` / `run.member_joins` / `run.member_leaves` /
//! `node.{name}.reparents` counters and the `member_join` /
//! `member_leave` / `reparent` timeline events.

pub(crate) mod membership;
pub mod rebalance;
pub mod reconfigure;

use crate::chaos::ChaosTarget;
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{Frame, NodeId, Payload};
use crate::node::report::ElasticSummary;
use crate::obs::{Counter, ObsEvent, RunObs};
use membership::Membership;
use rebalance::{compute_routing, Compat, RoutingTable};
use reconfigure::{diff_routing, TopologyDiff};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Configuration of the elastic control plane. Setting
/// [`crate::HierarchyConfig::elastic`] to `Some` enables heartbeat-driven
/// membership and runtime reconfiguration; `None` (the default) keeps the
/// static topology and its exact legacy code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// How long the orchestrator's per-sample heartbeat sweep waits for
    /// each node's pong, in milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive missed sweeps before a node is declared dead and a
    /// reconfiguration removes it (it rejoins on its next pong).
    pub suspect_after: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig { heartbeat_ms: 200, suspect_after: 2 }
    }
}

impl ElasticConfig {
    /// A tight configuration for tests: a shorter sweep, the same
    /// two-miss suspicion threshold (one spurious scheduling hiccup never
    /// changes membership).
    pub fn fast() -> Self {
        ElasticConfig { heartbeat_ms: 120, suspect_after: 2 }
    }
}

/// Name directory of every node the control plane tracks. The index space
/// is `0..D` for the devices, `D` for the gateway and `D + 1 + k` for
/// feature tier `k` — the same order [`RoutingTable::live`] uses.
#[derive(Debug, Clone)]
pub(crate) struct NodeDirectory {
    pub(crate) num_devices: usize,
    /// `device0..deviceN`, `gateway`, then the tier names in chain order.
    pub(crate) names: Vec<String>,
    /// Wire identity of each tier, for pong attribution.
    pub(crate) tier_ids: Vec<NodeId>,
}

impl NodeDirectory {
    pub(crate) fn new(num_devices: usize, tier_names: &[String], tier_ids: Vec<NodeId>) -> Self {
        let mut names: Vec<String> = (0..num_devices).map(|d| format!("device{d}")).collect();
        names.push("gateway".to_string());
        names.extend(tier_names.iter().cloned());
        NodeDirectory { num_devices, names, tier_ids }
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn gateway_ix(&self) -> usize {
        self.num_devices
    }

    pub(crate) fn tier_ix(&self, k: usize) -> usize {
        self.num_devices + 1 + k
    }

    /// The directory index a pong's sender maps to, if any.
    pub(crate) fn index_of(&self, id: NodeId) -> Option<usize> {
        match id {
            NodeId::Device(d) if (d as usize) < self.num_devices => Some(d as usize),
            NodeId::Gateway => Some(self.gateway_ix()),
            other => self.tier_ids.iter().position(|&t| t == other).map(|k| self.tier_ix(k)),
        }
    }

    /// The directory index of a chaos target, if it names a node.
    pub(crate) fn target_ix(&self, target: &ChaosTarget) -> Option<usize> {
        match target {
            ChaosTarget::Device(d) if *d < self.num_devices => Some(*d),
            ChaosTarget::Gateway => Some(self.gateway_ix()),
            ChaosTarget::Tier(name) => self.names[self.num_devices + 1..]
                .iter()
                .position(|n| n == name)
                .map(|k| self.tier_ix(k)),
            _ => None,
        }
    }
}

/// The shared control-plane state every node consults: the published
/// topology epoch, the stale-frame floor, the chaos down flags and
/// the current routing table.
///
/// Publication order: a reconfiguration writes the routing table and the
/// floor first and bumps the epoch last (release); nodes that observe the
/// new epoch (acquire) therefore always read the matching routing.
#[derive(Debug)]
pub(crate) struct ControlState {
    epoch: AtomicU64,
    /// Samples below this sequence predate the current epoch and are
    /// discarded with [`RuntimeError::StaleEpoch`].
    floor: AtomicU64,
    /// Chaos injection: a raised flag makes the node behave crashed (it
    /// discards everything and answers no heartbeat). Indexed like
    /// [`NodeDirectory`].
    churn_down: Vec<AtomicBool>,
    routing: RwLock<RoutingTable>,
}

impl ControlState {
    pub(crate) fn new(initial: RoutingTable) -> Arc<Self> {
        let n = initial.live.len();
        Arc::new(ControlState {
            epoch: AtomicU64::new(initial.epoch),
            floor: AtomicU64::new(0),
            churn_down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            routing: RwLock::new(initial),
        })
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn floor(&self) -> u64 {
        self.floor.load(Ordering::Acquire)
    }

    pub(crate) fn is_churn_down(&self, ix: usize) -> bool {
        self.churn_down[ix].load(Ordering::Acquire)
    }

    pub(crate) fn set_churn_down(&self, ix: usize, down: bool) {
        self.churn_down[ix].store(down, Ordering::Release);
    }

    /// The routing lock, tolerating poisoning (a panicked writer cannot
    /// leave the table half-written — `install` replaces it atomically).
    fn routing_guard(&self) -> RwLockReadGuard<'_, RoutingTable> {
        self.routing.read().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the current routing table.
    pub(crate) fn routing(&self) -> RoutingTable {
        self.routing_guard().clone()
    }

    /// Whether the gateway is routed around (devices skip their score
    /// uploads; the orchestrator broadcasts the offload requests).
    pub(crate) fn gateway_bypass(&self) -> bool {
        self.routing_guard().gateway_bypass
    }

    /// The tier index devices currently offload their feature maps to.
    pub(crate) fn device_parent(&self) -> Option<usize> {
        self.routing_guard().device_parent
    }

    /// Admits a frame's sample into the current epoch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::StaleEpoch`] when the sample predates the
    /// floor installed by the last reconfiguration.
    pub(crate) fn admit(&self, seq: u64) -> Result<()> {
        let floor = self.floor.load(Ordering::Acquire);
        if seq < floor {
            Err(RuntimeError::StaleEpoch { seq, epoch: self.epoch() })
        } else {
            Ok(())
        }
    }

    /// Publishes a new routing table: routing and floor first, epoch last.
    fn install(&self, routing: RoutingTable, floor: u64) {
        let epoch = routing.epoch;
        *self.routing.write().unwrap_or_else(|e| e.into_inner()) = routing;
        self.floor.store(floor, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A device's handle on the control plane: where to answer heartbeats,
/// which tier links it may offload over, and where stale-epoch discards
/// are counted.
pub(crate) struct DeviceElastic {
    /// Shared control-plane state (epoch, floor, routing, churn flags).
    pub(crate) control: Arc<ControlState>,
    /// This device's directory index (== its device index).
    pub(crate) ix: usize,
    /// Pong channel back to the orchestrator.
    pub(crate) to_orchestrator: LinkSender,
    /// One feature link per tier; the routing's `device_parent` picks the
    /// live one at offload time.
    pub(crate) to_tiers: Vec<LinkSender>,
    /// `node.device{d}.stale_epoch_discards`.
    pub(crate) stale_discards: Arc<Counter>,
}

/// The orchestrator-side elastic driver: runs the heartbeat sweep (ping,
/// collect pongs, update membership, reconfigure when it changed) after
/// each sample.
pub(crate) struct ElasticDriver {
    pub(crate) control: Arc<ControlState>,
    dir: NodeDirectory,
    compat: Compat,
    membership: Membership,
    /// Per directory index; `None` is never pinged (statically failed).
    ping_links: Vec<Option<LinkSender>>,
    heartbeat_ms: u64,
    clock: SimClock,
    obs: Arc<RunObs>,
    epochs_ctr: Arc<Counter>,
    joins_ctr: Arc<Counter>,
    leaves_ctr: Arc<Counter>,
    summary: ElasticSummary,
}

impl ElasticDriver {
    pub(crate) fn new(
        control: Arc<ControlState>,
        dir: NodeDirectory,
        compat: Compat,
        cfg: ElasticConfig,
        ping_links: Vec<Option<LinkSender>>,
        clock: SimClock,
        obs: Arc<RunObs>,
    ) -> Self {
        let initial = control.routing();
        let eligible: Vec<bool> = (0..dir.len()).map(|ix| ping_links[ix].is_some()).collect();
        let membership = Membership::new(initial.live.clone(), eligible, cfg.suspect_after);
        let initial_live = initial.live.iter().filter(|&&l| l).count();
        let registry = obs.registry();
        ElasticDriver {
            epochs_ctr: registry.counter("run.epochs"),
            joins_ctr: registry.counter("run.member_joins"),
            leaves_ctr: registry.counter("run.member_leaves"),
            control,
            dir,
            compat,
            membership,
            ping_links,
            heartbeat_ms: cfg.heartbeat_ms,
            clock,
            obs,
            summary: ElasticSummary { initial_live, ..ElasticSummary::default() },
        }
    }

    /// The configured heartbeat period — under scheduled arrivals the
    /// sample pump paces its sweeps with this instead of sweeping after
    /// every sample.
    pub(crate) fn heartbeat_ms(&self) -> u64 {
        self.heartbeat_ms
    }

    /// The heartbeat sweep: ping every trackable node with the sample's
    /// sequence, collect matching pongs until the heartbeat deadline
    /// (early exit only when *everyone* answered, so a reviving node's
    /// pong is never raced), update membership and reconfigure the
    /// routing when it changed.
    ///
    /// Samples can be in flight during the sweep, so verdicts that land
    /// mid-sweep are handed back through `strays` rather than discarded;
    /// the pump resolves them like any other (one for a sample that
    /// already resolved is a duplicate there too).
    pub(crate) fn after_sample(
        &mut self,
        seq: u64,
        orch_rx: &mut NodeInbox,
        strays: &mut Vec<Frame>,
    ) -> Result<()> {
        let mut expected = vec![false; self.dir.len()];
        for (ix, link) in self.ping_links.iter().enumerate() {
            if let Some(link) = link {
                link.send(&Frame::new(seq, NodeId::Orchestrator, Payload::Ping))?;
                expected[ix] = true;
            }
        }
        let mut responded = vec![false; self.dir.len()];
        let deadline = self.clock.deadline_in(self.heartbeat_ms);
        while expected.iter().zip(&responded).any(|(&e, &r)| e && !r) {
            match orch_rx.recv_deadline(deadline)? {
                Some(frame) if frame.seq == seq && matches!(frame.payload, Payload::Pong) => {
                    if let Some(ix) = self.dir.index_of(frame.from) {
                        responded[ix] = true;
                    }
                }
                // Late pongs and other leftovers drain harmlessly.
                Some(frame) if matches!(frame.payload, Payload::Verdict { .. }) => {
                    strays.push(frame);
                }
                Some(_) => {}
                None => break,
            }
        }
        if self.membership.sweep(&responded) {
            self.reconfigure(seq);
        }
        Ok(())
    }

    /// Recomputes the routing from the current membership, publishes it
    /// under the next epoch (stale floor = the next sample) and emits the
    /// topology diff through counters and timeline events.
    fn reconfigure(&mut self, seq: u64) {
        let old = self.control.routing();
        let mut live = old.live.clone();
        for (ix, &alive) in self.membership.alive().iter().enumerate() {
            live[ix] = alive;
        }
        let next = compute_routing(old.epoch + 1, live, self.dir.num_devices, &self.compat);
        let epoch = next.epoch;
        let diffs = diff_routing(&old, &next, &self.dir.names);
        self.control.install(next, seq + 1);
        self.epochs_ctr.incr();
        self.summary.epochs += 1;
        for diff in &diffs {
            match diff {
                TopologyDiff::Join { node } => {
                    self.joins_ctr.incr();
                    self.summary.member_joins += 1;
                    let node = node.clone();
                    self.obs.emit(|| ObsEvent::MemberJoin { node, epoch });
                }
                TopologyDiff::Leave { node } => {
                    self.leaves_ctr.incr();
                    self.summary.member_leaves += 1;
                    let node = node.clone();
                    self.obs.emit(|| ObsEvent::MemberLeave { node, epoch });
                }
                TopologyDiff::Reparent { child, from, to } => {
                    self.obs.registry().counter(&format!("node.{child}.reparents")).incr();
                    self.summary.reparents += 1;
                    let (child, from, to) = (child.clone(), from.clone(), to.clone());
                    self.obs.emit(|| ObsEvent::Reparent { child, from, to, epoch });
                }
            }
        }
    }

    /// Final membership accounting for the run report.
    pub(crate) fn finish(mut self) -> ElasticSummary {
        self.summary.final_live = self.membership.alive().iter().filter(|&&l| l).count();
        self.summary.stale_epoch_discards = self
            .dir
            .names
            .iter()
            .map(|n| self.obs.registry().counter(&format!("node.{n}.stale_epoch_discards")).get())
            .sum();
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> NodeDirectory {
        NodeDirectory::new(
            2,
            &["edge".to_string(), "cloud".to_string()],
            vec![NodeId::Edge, NodeId::Cloud],
        )
    }

    #[test]
    fn directory_maps_indices_and_identities() {
        let dir = directory();
        assert_eq!(dir.len(), 5);
        assert_eq!(dir.names, vec!["device0", "device1", "gateway", "edge", "cloud"]);
        assert_eq!(dir.gateway_ix(), 2);
        assert_eq!(dir.tier_ix(1), 4);
        assert_eq!(dir.index_of(NodeId::Device(1)), Some(1));
        assert_eq!(dir.index_of(NodeId::Gateway), Some(2));
        assert_eq!(dir.index_of(NodeId::Cloud), Some(4));
        assert_eq!(dir.index_of(NodeId::Device(9)), None);
        assert_eq!(dir.target_ix(&ChaosTarget::Device(0)), Some(0));
        assert_eq!(dir.target_ix(&ChaosTarget::Gateway), Some(2));
        assert_eq!(dir.target_ix(&ChaosTarget::Tier("edge".into())), Some(3));
        assert_eq!(dir.target_ix(&ChaosTarget::Tier("fog".into())), None);
    }

    #[test]
    fn control_state_publishes_epochs_and_rejects_stale_samples() {
        let compat = Compat {
            device_to_tier: vec![true, true],
            tier_to_tier: vec![vec![false, true], vec![false, false]],
        };
        let initial = compute_routing(0, vec![true, true, true, true, true], 2, &compat);
        let control = ControlState::new(initial);
        assert_eq!(control.epoch(), 0);
        assert!(control.admit(0).is_ok());
        assert!(!control.is_churn_down(3));
        control.set_churn_down(3, true);
        assert!(control.is_churn_down(3));

        let next = compute_routing(1, vec![true, true, true, false, true], 2, &compat);
        control.install(next, 5);
        assert_eq!(control.epoch(), 1);
        assert!(control.admit(5).is_ok());
        match control.admit(4) {
            Err(RuntimeError::StaleEpoch { seq: 4, epoch: 1 }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        assert_eq!(control.device_parent(), Some(1), "devices re-parent around the dead tier");
    }
}
