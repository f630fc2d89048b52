//! The elastic control plane: membership tracking, routing recomputation
//! and epoch-guarded reconfiguration for a running hierarchy.
//!
//! Every node routes by its [`NodeControl`]'s routing table. In a static
//! run that table is the declared chain's epoch 0 and no ping ever moves
//! it: a crashed device is dead forever and an orphaned subtree takes
//! every ancestor with it. Under [`ElasticConfig`] this subsystem turns
//! the declarative topology into a living system:
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
//!   samples under a monotone topology epoch; frames from a previous
//!   epoch are discarded and counted, never acted on.
//!
//! The orchestrator steers nodes only through frames: every ping carries
//! the epoch, its stale floor, the live mask and the addressee's down bit,
//! and each node ([`NodeControl`]) rebuilds its own routing from them —
//! so the plane works the same between threads and between processes.
//!
//! Every transition is wired through the observability layer: the
//! `run.epochs` / `run.member_joins` / `run.member_leaves` /
//! `node.{name}.reparents` counters and the `member_join` /
//! `member_leave` / `reparent` timeline events.

pub(crate) mod membership;
pub mod rebalance;
pub mod reconfigure;

use crate::chaos::ChaosTarget;
use crate::error::{Result, RuntimeError};
use crate::link::LinkSender;
use crate::message::{Frame, NodeId, Payload};
use crate::node::report::ElasticSummary;
use crate::obs::{Counter, ObsEvent, RunObs};
use membership::Membership;
use rebalance::{compute_routing, Compat, RoutingTable};
use reconfigure::{diff_routing, TopologyDiff};
use std::sync::Arc;

/// Configuration of the elastic control plane. Setting
/// [`crate::HierarchyConfig::elastic`] to `Some` enables heartbeat-driven
/// membership and runtime reconfiguration; `None` (the default) keeps the
/// static topology: epoch 0 of the same routing path, never re-routed.
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
    /// Per index: the node's name, for the timeline and chaos targets.
    pub(crate) names: Vec<String>,
    /// Per index: the node's wire identity, for pong attribution.
    ids: Vec<NodeId>,
}

impl NodeDirectory {
    /// The directory of `nodes`, given as (wire identity, name) in index
    /// order.
    pub(crate) fn new(nodes: impl IntoIterator<Item = (NodeId, String)>) -> Self {
        let (ids, names): (Vec<NodeId>, Vec<String>) = nodes.into_iter().unzip();
        let num_devices = ids.iter().filter(|id| matches!(id, NodeId::Device(_))).count();
        NodeDirectory { num_devices, names, ids }
    }

    /// The directory index a pong's sender maps to, if any.
    pub(crate) fn index_of(&self, id: NodeId) -> Option<usize> {
        self.ids.iter().position(|&i| i == id)
    }

    /// The directory index of a chaos target, if it names a node.
    pub(crate) fn target_ix(&self, target: &ChaosTarget) -> Option<usize> {
        match target {
            ChaosTarget::Device(d) => self.index_of(NodeId::Device(u8::try_from(*d).ok()?)),
            ChaosTarget::Gateway => self.index_of(NodeId::Gateway),
            ChaosTarget::Tier(name) => {
                self.names.iter().position(|n| n == name).filter(|&ix| ix > self.num_devices)
            }
            _ => None,
        }
    }
}

/// One node's view of the control plane, fed only by the orchestrator's
/// pings: the routing of the newest epoch it has applied, that epoch's
/// stale floor, and whether it is scheduled down. Every process derives
/// the same [`Compat`] from the seeded model, so a live mask is all a ping
/// needs to carry for the node to rebuild the orchestrator's table. In a
/// static run no ping arrives, so the node routes by epoch 0 throughout.
#[derive(Debug)]
pub(crate) struct NodeControl {
    compat: Compat,
    /// The applied epoch's routing table (epoch 0: the declared chain).
    pub(crate) routing: RoutingTable,
    /// Samples below this sequence predate the applied epoch.
    pub(crate) floor: u64,
    /// Scheduled down: discard everything but pings and shutdown.
    pub(crate) down: bool,
    /// The newest ping round seen; an older (reordered) ping is ignored.
    round: u64,
    /// The node's wire identity, and its link back to the orchestrator
    /// that pongs go out on (`None` in a run that sends no pings).
    id: NodeId,
    pong: Option<LinkSender>,
    /// `node.{name}.stale_epoch_discards`.
    stale_discards: Arc<Counter>,
}

/// What one ping did to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PingEffect {
    /// A newer epoch was applied: re-route and re-fence the collector.
    pub(crate) rerouted: bool,
    /// The ping brought the node back up: state from before is stale.
    pub(crate) revived: bool,
}

impl NodeControl {
    pub(crate) fn new(
        compat: Compat,
        initial: RoutingTable,
        id: NodeId,
        pong: Option<LinkSender>,
        stale_discards: Arc<Counter>,
    ) -> Self {
        let (floor, down, round) = (0, false, 0);
        NodeControl { compat, routing: initial, floor, down, round, id, pong, stale_discards }
    }

    /// Applies a ping's fields — a newer epoch's routing and floor, and
    /// this node's down bit — and answers it with a pong echoing its round:
    /// every ping but one that finds the node down and leaves it down.
    /// Anything but a ping, or a ping older than one already applied, has
    /// no effect.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Protocol`] when the live mask does not
    /// cover this topology's directory or the run has no pong link (a
    /// sender bug, not wire damage), and what sending the pong returns.
    pub(crate) fn on_ping(&mut self, ping: &Frame) -> Result<PingEffect> {
        let Payload::Ping { epoch, floor, live, down } = &ping.payload else {
            return Ok(PingEffect::default());
        };
        let Some(pong) = &self.pong else {
            let reason = format!("{}: a ping in a run without pings", self.id);
            return Err(RuntimeError::Protocol { reason });
        };
        if ping.seq < self.round {
            return Ok(PingEffect::default());
        }
        self.round = ping.seq;
        let rerouted = *epoch > self.routing.epoch;
        if rerouted {
            if live.len() != self.routing.live.len() {
                let reason = format!("a live mask of {} nodes", live.len());
                return Err(RuntimeError::Protocol { reason });
            }
            let d = self.routing.num_devices();
            self.routing = compute_routing(*epoch, live.clone(), d, &self.compat);
            self.floor = *floor;
        }
        let was_down = std::mem::replace(&mut self.down, *down);
        if !(was_down && *down) {
            pong.send(&Frame::new(ping.seq, self.id, Payload::Pong))?;
        }
        Ok(PingEffect { rerouted, revived: was_down && !*down })
    }

    /// Whether a frame of sample `seq` belongs to the applied epoch;
    /// counts a stale-epoch discard when it does not.
    pub(crate) fn admit(&self, seq: u64) -> bool {
        let fresh = seq >= self.floor;
        if !fresh {
            self.stale_discards.incr();
        }
        fresh
    }
}

/// The orchestrator-side elastic driver: owns the published routing and
/// runs the heartbeat sweep (ping, collect pongs, update membership,
/// reconfigure when it changed) between samples. It holds no clock and
/// never waits: it opens a ping round at the `now` it is handed, takes
/// pongs as the pump hands them over, and closes the round once
/// [`ElasticDriver::busy`] finds it answered or past its deadline.
pub(crate) struct ElasticDriver {
    dir: NodeDirectory,
    compat: Compat,
    membership: Membership,
    /// The published table; its epoch is the current topology epoch.
    pub(crate) routing: RoutingTable,
    /// The published epoch's stale floor.
    floor: u64,
    /// Per directory index: scheduled down by the chaos plan.
    down: Vec<bool>,
    /// Per directory index: flipped since the last confirming round.
    flipped: Vec<bool>,
    /// Per directory index; `None` is never pinged (statically failed).
    ping_links: Vec<Option<LinkSender>>,
    /// The last ping round sent; each round is its own sequence number.
    round: u64,
    /// That round, while it is open.
    open: Option<PingRound>,
    /// How long a ping round waits for its pongs; under scheduled
    /// arrivals, also the sweep period.
    pub(crate) heartbeat_ms: u64,
    obs: Arc<RunObs>,
}

/// An open ping round. Times are milliseconds on the caller's clock.
struct PingRound {
    /// Who must answer for the round to close before its deadline.
    awaited: Vec<bool>,
    responded: Vec<bool>,
    deadline: f64,
    /// The sample a heartbeat sweep follows, when this is the sweep's
    /// first round: closing it folds the answers into membership. A
    /// confirming round — of an epoch or of flips — is only waited out.
    sweep: Option<u64>,
}

impl ElasticDriver {
    pub(crate) fn new(
        dir: NodeDirectory,
        compat: Compat,
        initial: RoutingTable,
        cfg: ElasticConfig,
        ping_links: Vec<Option<LinkSender>>,
        obs: Arc<RunObs>,
    ) -> Self {
        let eligible: Vec<bool> = ping_links.iter().map(Option::is_some).collect();
        let membership = Membership::new(initial.live.clone(), eligible, cfg.suspect_after);
        for name in ["run.epochs", "run.member_joins", "run.member_leaves"] {
            obs.registry().counter(name);
        }
        ElasticDriver {
            down: vec![false; ping_links.len()],
            flipped: vec![false; ping_links.len()],
            dir,
            compat,
            membership,
            routing: initial,
            floor: 0,
            ping_links,
            round: 0,
            open: None,
            heartbeat_ms: cfg.heartbeat_ms,
            obs,
        }
    }

    /// Opens the heartbeat sweep after sample `seq` at `now`: pings every
    /// trackable node. When its round closes, membership is updated and,
    /// when it changed, the next epoch is published and confirmed with one
    /// more ping round.
    ///
    /// Samples can be in flight during the sweep; their verdicts are the
    /// pump's to resolve as they land.
    pub(crate) fn sweep(&mut self, seq: u64, now: f64) -> Result<()> {
        let pinged: Vec<bool> = self.ping_links.iter().map(Option::is_some).collect();
        self.ping(&pinged, pinged.clone(), now, Some(seq))
    }

    /// A scheduled `Down`/`Up` of a node: sets its down bit, which the
    /// next [`ElasticDriver::confirm`] round carries to it.
    pub(crate) fn set_down(&mut self, target: &ChaosTarget, down: bool) {
        if let Some(ix) = self.dir.target_ix(target) {
            (self.down[ix], self.flipped[ix]) = (down, true);
        }
    }

    /// Opens one ping round at `now` to every node flipped since the last
    /// call: a node answers the ping that flips it, so the round's pongs
    /// confirm the flips, and the pump admits nothing while it is open.
    /// Whether there was a flip to confirm.
    pub(crate) fn confirm(&mut self, now: f64) -> Result<bool> {
        if !self.flipped.contains(&true) {
            return Ok(false);
        }
        let flipped = std::mem::replace(&mut self.flipped, vec![false; self.down.len()]);
        self.ping(&flipped, flipped.clone(), now, None).map(|()| true)
    }

    /// Sends one ping round to the nodes `to` selects, each carrying the
    /// published state and its own down bit, and opens it at `now`,
    /// waiting for a pong from every node `awaited` selects.
    fn ping(
        &mut self,
        to: &[bool],
        awaited: Vec<bool>,
        now: f64,
        sweep: Option<u64>,
    ) -> Result<()> {
        self.round += 1;
        for (ix, link) in self.ping_links.iter().enumerate() {
            let Some(link) = link.as_ref().filter(|_| to[ix]) else { continue };
            let ping = Payload::Ping {
                epoch: self.routing.epoch,
                floor: self.floor,
                live: self.routing.live.clone(),
                down: self.down[ix],
            };
            link.send(&Frame::new(self.round, NodeId::Orchestrator, ping))?;
        }
        let (responded, deadline) = (vec![false; to.len()], now + self.heartbeat_ms as f64);
        self.open = Some(PingRound { awaited, responded, deadline, sweep });
        Ok(())
    }

    /// Books a pong: one for the open round counts its sender as
    /// answered; late pongs drain harmlessly.
    pub(crate) fn on_pong(&mut self, pong: &Frame) {
        let Some(open) = self.open.as_mut().filter(|_| pong.seq == self.round) else { return };
        if let Some(ix) = self.dir.index_of(pong.from) {
            open.responded[ix] = true;
        }
    }

    /// Whether a ping round is still open at `now`, closing the one that
    /// is done: early only once *every* awaited node answered, so a
    /// reviving node's pong is never raced, and otherwise at its
    /// heartbeat deadline. Closing a sweep's round may open its
    /// confirming round.
    pub(crate) fn busy(&mut self, now: f64) -> Result<bool> {
        while let Some(wake) = self.next_wake() {
            if now < wake {
                return Ok(true);
            }
            let PingRound { responded, sweep, .. } = self.open.take().expect("a round is open");
            let Some(seq) = sweep else { continue };
            if self.membership.sweep(&responded) {
                self.reconfigure(seq);
                let alive = self.membership.alive();
                let pinged: Vec<bool> = self.ping_links.iter().map(Option::is_some).collect();
                let answering =
                    (0..pinged.len()).map(|ix| pinged[ix] && alive[ix] && !self.down[ix]).collect();
                self.ping(&pinged, answering, now, None)?;
            }
        }
        Ok(false)
    }

    /// When the open ping round, if any, is to be closed: at once when
    /// every awaited node answered, at its deadline otherwise.
    pub(crate) fn next_wake(&self) -> Option<f64> {
        let open = self.open.as_ref()?;
        let answered = open.awaited.iter().zip(&open.responded).all(|(&a, &r)| !a || r);
        Some(if answered { f64::NEG_INFINITY } else { open.deadline })
    }

    /// Recomputes the routing from the current membership, publishes it
    /// under the next epoch (stale floor = the next sample) and books the
    /// topology diff in the registry and on the timeline.
    fn reconfigure(&mut self, seq: u64) {
        let live = self.membership.alive().to_vec();
        let next =
            compute_routing(self.routing.epoch + 1, live, self.dir.num_devices, &self.compat);
        let epoch = next.epoch;
        let diffs = diff_routing(&self.routing, &next, &self.dir.names);
        self.routing = next;
        self.floor = seq + 1;
        let registry = self.obs.registry();
        registry.counter("run.epochs").incr();
        for diff in diffs {
            match diff {
                TopologyDiff::Join { node } => {
                    registry.counter("run.member_joins").incr();
                    self.obs.emit(|| ObsEvent::MemberJoin { node, epoch });
                }
                TopologyDiff::Leave { node } => {
                    registry.counter("run.member_leaves").incr();
                    self.obs.emit(|| ObsEvent::MemberLeave { node, epoch });
                }
                TopologyDiff::Reparent { child, from, to } => {
                    registry.counter(&format!("node.{child}.reparents")).incr();
                    self.obs.emit(|| ObsEvent::Reparent { child, from, to, epoch });
                }
            }
        }
    }

    /// The run's membership accounting, read back from the registry
    /// snapshot `counters` the report was assembled from.
    pub(crate) fn finish(self, counters: &[(String, u64)]) -> ElasticSummary {
        let get = |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        let sum = |suffix: &str| {
            counters.iter().filter(|(n, _)| n.ends_with(suffix)).map(|(_, v)| v).sum()
        };
        ElasticSummary {
            epochs: get("run.epochs"),
            member_joins: get("run.member_joins"),
            member_leaves: get("run.member_leaves"),
            reparents: sum(".reparents"),
            // Every node but the statically failed devices starts live.
            initial_live: self.ping_links.iter().flatten().count(),
            final_live: self.membership.alive().iter().filter(|&&l| l).count(),
            stale_epoch_discards: sum(".stale_epoch_discards"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_maps_indices_and_identities() {
        // The inbox rows of a two-device edge run, orchestrator excluded.
        let names = ["device0", "device1", "gateway", "edge", "cloud"];
        let ids =
            [NodeId::Device(0), NodeId::Device(1), NodeId::Gateway, NodeId::Edge, NodeId::Cloud];
        let dir = NodeDirectory::new(ids.into_iter().zip(names.map(String::from)));
        assert_eq!((dir.num_devices, dir.names.len()), (2, 5));
        assert_eq!(dir.index_of(NodeId::Device(1)), Some(1));
        assert_eq!(dir.index_of(NodeId::Gateway), Some(2));
        assert_eq!(dir.index_of(NodeId::Cloud), Some(4));
        assert_eq!(dir.index_of(NodeId::Device(9)), None);
        assert_eq!(dir.index_of(NodeId::Orchestrator), None);
        assert_eq!(dir.target_ix(&ChaosTarget::Device(0)), Some(0));
        assert_eq!(dir.target_ix(&ChaosTarget::Device(300)), None);
        assert_eq!(dir.target_ix(&ChaosTarget::Gateway), Some(2));
        assert_eq!(dir.target_ix(&ChaosTarget::Tier("edge".into())), Some(3));
        assert_eq!(dir.target_ix(&ChaosTarget::Tier("gateway".into())), None);
        assert_eq!(dir.target_ix(&ChaosTarget::Tier("fog".into())), None);
    }

    #[test]
    fn a_node_applies_epochs_and_down_bits_from_pings_alone() {
        let compat = Compat {
            device_to_tier: vec![true, true],
            tier_to_tier: vec![vec![false, true], vec![false, false]],
        };
        let initial = compute_routing(0, vec![true; 5], 2, &compat);
        let stale = Arc::new(Counter::default());
        let (pong, pongs, _) = crate::link::link("edge->orchestrator");
        let mut node = NodeControl::new(compat, initial, NodeId::Edge, Some(pong), stale.clone());
        // Epoch 1 with the edge tier dead; later pings only flip the down
        // bit, and round 2 arrives again after round 3 (reordered). Each
        // step reports its effect and whether the node answered.
        let live = vec![true, true, true, false, true];
        let ping = |epoch, down| Payload::Ping { epoch, floor: 5, live: live.clone(), down };
        let mut applied = |round, ping| {
            let effect = node.on_ping(&Frame::new(round, NodeId::Orchestrator, ping)).unwrap();
            let pong = pongs.try_recv_raw().unwrap().map(|wire| Frame::decode(wire).unwrap());
            assert!(pong.as_ref().is_none_or(|p| p.seq == round && p.from == NodeId::Edge));
            ((effect.rerouted, effect.revived), pong.is_some())
        };
        assert_eq!(applied(1, ping(1, false)), ((true, false), true));
        assert_eq!(applied(2, ping(1, true)), ((false, false), true), "the flip is answered");
        assert_eq!(applied(3, ping(1, true)), ((false, false), false), "down stays silent");
        assert_eq!(applied(2, ping(1, false)), ((false, false), false), "an older round");
        assert_eq!(applied(4, ping(1, false)), ((false, true), true));
        assert_eq!(node.routing.device_parent, Some(1), "devices re-parent around the dead tier");
        assert!(node.admit(5) && !node.admit(4));
        assert_eq!(stale.get(), 1);
        // A live mask for another topology is a sender bug.
        let bad = Payload::Ping { epoch: 2, floor: 6, live: vec![true; 3], down: false };
        let err = node.on_ping(&Frame::new(5, NodeId::Orchestrator, bad)).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err}");
    }
}
