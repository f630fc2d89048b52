//! Routing recomputation: who feeds whom, given the live set.
//!
//! A [`RoutingTable`] is a pure function of three inputs — the topology
//! epoch, the liveness vector and the [`Compat`] matrix — so the control
//! plane is deterministic and unit-testable without threads. The rules:
//!
//! * devices offload to the *nearest* (lowest-index) live tier whose
//!   section accepts device feature maps ([`RoutingTable::device_parent`]);
//! * a non-terminal tier escalates to the nearest live compatible tier
//!   above it ([`RoutingTable::escalate_to`]), or is forced to exit
//!   locally when no such tier survives ([`RoutingTable::forced_exit`]);
//! * a dead gateway is bypassed: devices skip their score uploads and the
//!   orchestrator broadcasts the offload requests itself
//!   ([`RoutingTable::gateway_bypass`]);
//! * a live gateway with no live feature tier anywhere forces every
//!   sample to exit locally ([`RoutingTable::forced_local`]).
//!
//! A static run routes by the declared chain ([`Compat::chain`]) and no
//! ping ever moves its epoch-0 table. An elastic run probes compatibility
//! *empirically* at startup ([`probe`]): each candidate (feeder, tier)
//! pair is trial-evaluated on blank inputs, and a pair is compatible
//! exactly when the tier's full section — aggregation, ConvP chain and
//! exit head — accepts the feeder's output geometry.

use crate::topology::Topology;
use ddnn_core::{FrozenStage, SignMaps};

/// Which (feeder, tier) pairs are geometrically able to carry traffic.
/// Probed once at startup; constant for the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compat {
    /// `device_to_tier[k]`: can the devices' blank feature maps feed tier
    /// `k`'s full section?
    pub device_to_tier: Vec<bool>,
    /// `tier_to_tier[i][j]` (`j > i`): can tier `i`'s output map feed tier
    /// `j`'s full section? Entries with `j <= i` are always `false`.
    pub tier_to_tier: Vec<Vec<bool>>,
}

impl Compat {
    /// The declared chain of `tiers` tiers: the devices feed tier 0 and
    /// tier `k` feeds tier `k + 1`, nothing else.
    pub fn chain(tiers: usize) -> Compat {
        Compat {
            device_to_tier: (0..tiers).map(|j| j == 0).collect(),
            tier_to_tier: (0..tiers).map(|i| (0..tiers).map(|j| j == i + 1).collect()).collect(),
        }
    }
}

/// One epoch's complete routing decision. Node indices follow the control
/// plane's directory order: `0..D` devices, `D` gateway, `D + 1 + k` for
/// feature tier `k`; `live` uses that order, the tier-level fields
/// (`escalate_to`, `forced_exit`) are indexed by tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// The topology epoch this table was computed for.
    pub epoch: u64,
    /// Liveness per directory index.
    pub live: Vec<bool>,
    /// The tier devices offload feature maps to (`None`: no live
    /// compatible tier survives).
    pub device_parent: Option<usize>,
    /// Per tier: where a non-exiting sample escalates to (`None` for the
    /// terminal tier and for tiers with no surviving upstream).
    pub escalate_to: Vec<Option<usize>>,
    /// Per tier: `true` when a live non-terminal tier lost every upstream
    /// and must classify locally instead of forwarding.
    pub forced_exit: Vec<bool>,
    /// The gateway is dead: devices skip score uploads, the orchestrator
    /// broadcasts offload requests.
    pub gateway_bypass: bool,
    /// The gateway is alive but no feature tier survives: every sample
    /// exits at the gateway.
    pub forced_local: bool,
}

impl RoutingTable {
    /// Number of devices this table routes (derived from the index space).
    pub fn num_devices(&self) -> usize {
        self.live.len() - 1 - self.escalate_to.len()
    }

    /// Whether feature tier `k` is live.
    pub fn tier_live(&self, k: usize) -> bool {
        self.live[self.num_devices() + 1 + k]
    }

    /// The escalation path a sample follows once offloaded: the device
    /// parent, then each `escalate_to` hop. Strictly increasing, so it
    /// always terminates. Empty when no tier can accept device traffic.
    pub fn escalation_path(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let mut next = self.device_parent;
        while let Some(k) = next {
            path.push(k);
            next = self.escalate_to[k];
        }
        path
    }

    /// Structural validity of this table against a compat matrix: every
    /// routed edge must point *up* the chain to a live, compatible tier;
    /// the terminal tier never escalates; the bypass/local flags must
    /// match the live set; and whenever any live device exists, the
    /// escalation path must end at a tier that can classify (the terminal
    /// tier or a forced local exit), or the gateway must absorb
    /// everything via `forced_local`.
    pub fn is_well_formed(&self, compat: &Compat) -> bool {
        let t = self.escalate_to.len();
        if self.live.len() < t + 1
            || self.forced_exit.len() != t
            || compat.device_to_tier.len() != t
            || compat.tier_to_tier.len() != t
            || t == 0
        {
            return false;
        }
        let d = self.num_devices();
        let bad_parent = (self.device_parent)
            .is_some_and(|p| p >= t || !self.tier_live(p) || !compat.device_to_tier[p]);
        if self.gateway_bypass == self.live[d]
            || self.forced_local != (self.live[d] && self.device_parent.is_none())
            || bad_parent
        {
            return false;
        }
        for i in 0..t {
            let escalates = self.escalate_to[i].is_some();
            let bad_hop = self.escalate_to[i].is_some_and(|j| {
                j <= i || j >= t || !self.tier_live(j) || !compat.tier_to_tier[i][j]
            });
            let bad_exit = self.forced_exit[i] && (!self.tier_live(i) || escalates || i == t - 1);
            if bad_hop || (i == t - 1 && escalates) || bad_exit {
                return false;
            }
        }
        // Any live device's traffic must end somewhere that classifies.
        // No path and no forced_local is only reachable when the gateway
        // is also gone *and* nothing can classify — the validator rejects
        // such topologies up front, so a routing in this state is
        // malformed.
        let classifies = |&k: &usize| k == t - 1 || self.forced_exit[k];
        let path = self.escalation_path();
        !(0..d).any(|ix| self.live[ix]) || self.forced_local || path.last().is_some_and(classifies)
    }
}

/// Computes the routing table for a live set: nearest-surviving-compatible
/// parent for the devices, nearest-surviving-compatible upstream for each
/// tier, forced exits where the chain is severed.
pub fn compute_routing(
    epoch: u64,
    live: Vec<bool>,
    num_devices: usize,
    compat: &Compat,
) -> RoutingTable {
    let t = compat.device_to_tier.len();
    let tier_live = |k: usize| live[num_devices + 1 + k];
    let device_parent = (0..t).find(|&k| tier_live(k) && compat.device_to_tier[k]);
    let (escalate_to, forced_exit) = (0..t)
        .map(|i| {
            // A dead tier routes nothing; its edge is recomputed when it
            // re-joins (every membership change republishes the table).
            let up = (i != t - 1 && tier_live(i))
                .then(|| (i + 1..t).find(|&j| tier_live(j) && compat.tier_to_tier[i][j]))
                .flatten();
            (up, i != t - 1 && tier_live(i) && up.is_none())
        })
        .unzip();
    let gateway_bypass = !live[num_devices];
    let forced_local = live[num_devices] && device_parent.is_none();
    RoutingTable {
        epoch,
        live,
        device_parent,
        escalate_to,
        forced_exit,
        gateway_bypass,
        forced_local,
    }
}

/// Probes the compatibility matrix empirically: trial-evaluates each
/// candidate (feeder, tier) pair on blank inputs.
///
/// `tier_blanks` is the runner's blank chain: `tier_blanks[0]` holds the
/// device blank maps, and `tier_blanks[k + 1]` tier `k`'s blank output,
/// which is what tier `k` feeds whichever tier it escalates to.
pub(crate) fn probe(topology: &Topology, tier_blanks: &[Vec<SignMaps>]) -> Compat {
    let stages: Vec<FrozenStage> = topology.tiers.iter().map(|t| t.stage.freeze()).collect();
    let t = stages.len();
    // A pair is compatible when the tier's full section accepts the input.
    let accepts = |j: usize, inputs: &[SignMaps]| stages[j].forward(inputs).is_ok();
    let device_to_tier: Vec<bool> = (0..t).map(|j| accepts(j, &tier_blanks[0])).collect();
    let tier_to_tier: Vec<Vec<bool>> = (0..t)
        .map(|i| (0..t).map(|j| j > i && accepts(j, &tier_blanks[i + 1])).collect())
        .collect();
    Compat { device_to_tier, tier_to_tier }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 devices, gateway, 3 tiers. Devices can feed tiers 0 and 1; each
    /// tier can feed every tier above it except 0 -> 2.
    fn compat() -> Compat {
        Compat {
            device_to_tier: vec![true, true, false],
            tier_to_tier: vec![
                vec![false, true, false],
                vec![false, false, true],
                vec![false, false, false],
            ],
        }
    }

    fn all_live() -> Vec<bool> {
        vec![true; 6]
    }

    #[test]
    fn full_liveness_reproduces_the_declared_chain() {
        let r = compute_routing(0, all_live(), 2, &compat());
        assert_eq!(r.device_parent, Some(0));
        assert_eq!(r.escalate_to, vec![Some(1), Some(2), None]);
        assert_eq!(r.forced_exit, vec![false, false, false]);
        assert!(!r.gateway_bypass && !r.forced_local);
        assert_eq!(r.escalation_path(), vec![0, 1, 2]);
        assert!(r.is_well_formed(&compat()));
    }

    #[test]
    fn dead_middle_tier_reparents_devices_and_severs_tier0() {
        // Tier 1 dies: devices still enter at tier 0, but tier 0 cannot
        // reach tier 2 (incompatible) — it is forced to exit locally.
        let mut live = all_live();
        live[4] = false;
        let r = compute_routing(1, live, 2, &compat());
        assert_eq!(r.device_parent, Some(0));
        assert_eq!(r.escalate_to, vec![None, None, None]);
        assert_eq!(r.forced_exit, vec![true, false, false]);
        assert_eq!(r.escalation_path(), vec![0]);
        assert!(r.is_well_formed(&compat()));
    }

    #[test]
    fn dead_entry_tier_reparents_devices_to_the_next_compatible() {
        let mut live = all_live();
        live[3] = false;
        let r = compute_routing(1, live, 2, &compat());
        assert_eq!(r.device_parent, Some(1));
        assert_eq!(r.escalation_path(), vec![1, 2]);
        assert!(r.is_well_formed(&compat()));
    }

    #[test]
    fn dead_gateway_sets_bypass_and_no_live_tier_forces_local() {
        let mut live = all_live();
        live[2] = false;
        let r = compute_routing(1, live, 2, &compat());
        assert!(r.gateway_bypass);
        assert!(!r.forced_local);
        assert!(r.is_well_formed(&compat()));

        let live = vec![true, true, true, false, false, false];
        let r = compute_routing(2, live, 2, &compat());
        assert_eq!(r.device_parent, None);
        assert!(r.forced_local);
        assert!(r.is_well_formed(&compat()));
    }

    #[test]
    fn well_formedness_rejects_corrupted_tables() {
        let good = compute_routing(0, all_live(), 2, &compat());
        let c = compat();

        let mut bad = good.clone();
        bad.device_parent = Some(2); // incompatible with devices
        assert!(!bad.is_well_formed(&c));

        let mut bad = good.clone();
        bad.escalate_to[1] = Some(0); // points down the chain
        assert!(!bad.is_well_formed(&c));

        let mut bad = good.clone();
        bad.escalate_to[2] = Some(1); // terminal escapes
        assert!(!bad.is_well_formed(&c));

        let mut bad = good.clone();
        bad.forced_exit[0] = true; // forced exit despite a live upstream
        assert!(!bad.is_well_formed(&c));

        let mut bad = good.clone();
        bad.gateway_bypass = true; // bypass contradicts the live gateway
        assert!(!bad.is_well_formed(&c));

        // Dangling path: device parent routed to a dead tier.
        let mut bad = good.clone();
        bad.live[3] = false;
        assert!(!bad.is_well_formed(&c));
    }
}
