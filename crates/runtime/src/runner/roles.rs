//! The role host: the one place that constructs the nodes of a role —
//! the device loops, the gateway and the feature (or raw-offload) tiers —
//! from a [`Plane`]'s inboxes and senders. The in-process runner hosts
//! every role of a wiring as threads, `multiproc::host_role` hosts one
//! role per OS process; both build their nodes here.
//!
//! Every node gets a [`NodeControl`] from the run's one [`Routing`] and
//! routes by its table alone. A static run's table is the declared
//! chain's epoch 0 and the wiring opens only the chain's links; an
//! elastic run probes the compatibility and adds the skip-level and
//! ping/pong links its later epochs route over.

use super::wiring::{Link, Plane};
use crate::chaos::ProcTarget;
use crate::clock::drive;
use crate::error::Result;
use crate::link::LinkSender;
use crate::message::{quantize_image, NodeId};
use crate::node::collector::Collector;
use crate::node::device::{blank_view, DeviceNode};
use crate::node::report::NodeReport;
use crate::node::tier::{raw_view, Feeder, RawSection, Route, TierNode, TierSection};
use crate::obs::{NodeObs, RunObs};
use crate::orchestrator::rebalance::{compute_routing, probe, Compat, RoutingTable};
use crate::orchestrator::NodeControl;
use crate::topology::{HierarchyConfig, Shape, TierExitRule, Topology};
use ddnn_core::{ExitPolicy, SignMaps};
use ddnn_tensor::{parallel, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What every part of one run shares.
pub(super) struct RunCtx<'a> {
    pub(super) topology: &'a Topology,
    pub(super) cfg: &'a HierarchyConfig,
    /// Per device: not statically failed.
    pub(super) live: &'a [bool],
    pub(super) obs: Arc<RunObs>,
    /// How every node routes, derived alike in every process.
    pub(super) routing: &'a Routing,
}

/// A node's whole life, ready to run on a thread of its own.
pub(super) type NodeTask = Box<dyn FnOnce() -> Result<NodeReport> + Send>;

/// Starts a node's thread (see `host_nodes`).
pub(super) type Spawn<'s> = dyn FnMut(NodeTask) + 's;

/// What aggregators substitute for a silent source.
pub(super) struct Blanks {
    /// Per device: the class scores of a blank view.
    scores: Vec<Tensor>,
    /// Per feature tier: one blank map per collector source slot.
    pub(super) tiers: Vec<Vec<SignMaps>>,
}

/// What each device computes for a blank view, substituted for a failed
/// device, plus the chained per-tier blanks: tier 0 collects the device
/// maps, so its blanks are the devices' blank maps; tier k>0 collects
/// tier k−1's output, so its blank is tier k−1's section applied to its
/// own blanks — a silent tier degrades to "nothing was seen" rather than
/// garbage. Every process of a multi-process run computes identical
/// blanks from the same seeded model.
pub(super) fn compute_blanks(topology: &Topology) -> Result<Blanks> {
    // One single-sample forward pass per device on its frozen section,
    // collected in device order; only a fleet of dozens of devices is
    // enough work to leave this thread.
    let [c, h, w] = topology.config.view_dims();
    let work = topology.devices.iter().map(|part| part.conv.macs(&[1, c, h, w])).sum();
    let devices = parallel::par_map_indexed(topology.num_devices(), work, |d| {
        topology.devices[d].freeze().forward(&blank_view(&topology.config))
    });
    let (maps, scores): (Vec<SignMaps>, _) =
        devices.into_iter().collect::<ddnn_tensor::Result<Vec<_>>>()?.into_iter().unzip();
    let mut tiers = vec![maps];
    for k in 1..topology.tiers.len() {
        let out = topology.tiers[k - 1].stage.freeze().body(&tiers[k - 1])?;
        tiers.push(vec![out]);
    }
    Ok(Blanks { scores, tiers })
}

/// How every node of a run routes, derived identically in every process
/// from the seeded model: the compatibility its routing tables are
/// computed from and the epoch-0 table. Without `cfg.elastic` the
/// compatibility is the declared chain's and no ping ever moves epoch 0;
/// with it, [`probe`] supplies the compatibility, and the heartbeat pings
/// publish the later epochs.
pub(super) struct Routing {
    pub(super) compat: Compat,
    pub(super) initial: RoutingTable,
    /// Pings steer the run: nodes answer them and count stale-epoch
    /// discards.
    steered: bool,
}

impl Routing {
    /// The routing of a run whose compatibility is probed on `probed`, the
    /// blank chain of an elastic run, or is the declared chain's (`None`).
    /// Epoch 0 routes the declared chain either way, since every
    /// non-device node starts live.
    pub(super) fn new(topology: &Topology, live: &[bool], probed: Option<&Blanks>) -> Self {
        let compat = match probed {
            Some(blanks) => probe(topology, &blanks.tiers),
            None => Compat::chain(topology.tiers.len()),
        };
        let mut init_live = live.to_vec();
        init_live.extend(std::iter::repeat_n(true, 1 + topology.tiers.len())); // gateway, tiers
        let initial = compute_routing(0, init_live, live.len(), &compat);
        Routing { compat, initial, steered: probed.is_some() }
    }
}

impl RunCtx<'_> {
    /// A fresh view of the control plane for the node `name`, which
    /// answers pings as `id` over `pong` when the run is steered.
    fn control(&self, name: &str, id: NodeId, pong: Option<LinkSender>) -> NodeControl {
        let Routing { compat, initial, steered } = self.routing;
        let stale = match steered {
            true => self.obs.registry().counter(&format!("node.{name}.stale_epoch_discards")),
            false => Arc::default(),
        };
        NodeControl::new(compat.clone(), initial.clone(), id, pong.filter(|_| *steered), stale)
    }
}

/// Builds the nodes of `role` from the inboxes `plane` bound and the
/// senders it opened for it — one per live device, or the gateway, or one
/// tier — handing each to `spawn` as soon as it is built. Building the
/// next node while the previous one's thread starts keeps the threads'
/// first allocations staggered: they pick their malloc arenas in a stable
/// order run after run, which bounds how far repeated runs in one process
/// grow its peak RSS.
pub(super) fn spawn_role(
    role: ProcTarget,
    ctx: &RunCtx,
    blanks: &Blanks,
    plane: &mut Plane,
    spawn: &mut Spawn,
) -> Result<()> {
    let RunCtx { topology, cfg, live, obs, .. } = ctx;
    let clock = obs.clock();
    let (n, t) = (topology.num_devices(), topology.tiers.len());
    match role {
        ProcTarget::Devices => {
            // A device caches the feature map of every sample that can
            // be in flight: the admission window (one, in lockstep).
            let capture_cap = cfg.stream.as_ref().map_or(1, |s| s.queue_cap).max(1);
            for d in (0..n).filter(|&d| live[d]) {
                let (id, name) = (NodeId::Device(d as u8), format!("device{d}"));
                let mut inbox = plane.inbox(id)?;
                let counter = |what: &str| obs.registry().counter(&format!("node.{name}.{what}"));
                let device = DeviceNode {
                    d,
                    part: topology.devices[d].freeze(),
                    to_gateway: plane.sender(Link::Scores(d))?,
                    // A feature link per tier the wiring opened (every
                    // tier when elastic, tier 0 otherwise) and the pong
                    // link; all share the device's crash state, so a
                    // crashed device's heartbeats die with its data.
                    to_tiers: (0..t).map(|j| plane.try_sender(Link::Uplink(d, j))).collect(),
                    control: ctx.control(&name, id, plane.try_sender(Link::DevicePong(d))),
                    capture_cap,
                    cache: BTreeMap::new(),
                    captures: counter("captures"),
                    offloads: counter("offloads"),
                    shutdown: false,
                };
                spawn(Box::new(move || {
                    drive(device, &mut inbox, clock).map(|_| NodeReport::default())
                }));
            }
            Ok(())
        }
        ProcTarget::Gateway => {
            // `None` entries are statically failed devices.
            let to_devices = (0..n)
                .map(|d| live[d].then(|| plane.sender(Link::Broadcast(d))).transpose())
                .collect::<Result<_>>()?;
            let to_orchestrator = plane.sender(Link::GatewayVerdict)?;
            let node = TierNode {
                name: "gateway".to_string(),
                id: NodeId::Gateway,
                exit_tier: 0,
                section: topology.gateway.freeze(),
                policy: ExitPolicy::Entropy(cfg.local_threshold),
                to_orchestrator: to_orchestrator.clone(),
                route: Route::Gateway(to_devices),
                collector: Collector::new(
                    n,
                    blanks.scores.clone(),
                    cfg.deadlines(),
                    (0..n).map(Some).collect(),
                    live.to_vec(),
                    Arc::clone(obs),
                ),
                // Score aggregation is negligible compute; only the
                // feature tiers batch.
                obs: NodeObs::for_node(obs, "gateway", 1),
                control: ctx.control("gateway", NodeId::Gateway, Some(to_orchestrator)),
                batch_max: 1,
                gathered: Vec::new(),
                last_decision: None,
                shutdown: false,
            };
            let mut inbox = plane.inbox(NodeId::Gateway)?;
            spawn(Box::new(move || Ok(drive(node, &mut inbox, clock)?.collector.into_report())));
            Ok(())
        }
        ProcTarget::Tier(k) => {
            let task = match &topology.shape {
                Shape::Staged => {
                    let section = topology.tiers[k].stage.freeze();
                    tier_task(k, section, ctx, blanks.tiers.clone(), plane)?
                }
                Shape::CloudOnly { model } => {
                    // A silent device's blank is the blank view round-
                    // tripped through the wire encoding — exactly what a
                    // live device would have transmitted for it.
                    let view_dims = topology.config.view_dims();
                    let raw = raw_view(&quantize_image(&blank_view(&topology.config)), view_dims)?;
                    let section = RawSection { model: model.freeze(), view_dims };
                    tier_task(k, section, ctx, vec![vec![raw; n]], plane)?
                }
            };
            spawn(task);
            Ok(())
        }
    }
}

/// Tier `k` of the chain around `section`: the first tier fans in from
/// the devices, every later tier has its single predecessor as its
/// source; every tier but the last escalates to its successor. `blanks`
/// is what each feeder's collector substitutes: `[0]` the devices', `[i +
/// 1]` tier `i`'s.
fn tier_task<S: TierSection + 'static>(
    k: usize,
    section: S,
    ctx: &RunCtx,
    blanks: Vec<Vec<S::Item>>,
    plane: &mut Plane,
) -> Result<NodeTask> {
    let RunCtx { topology, cfg, live, obs, .. } = ctx;
    let n = topology.num_devices();
    let tiers = &topology.tiers;
    let spec = &tiers[k];
    let (sources, device_of_source) =
        if k == 0 { (n, (0..n).map(Some).collect()) } else { (1, vec![None]) };
    let collector = Collector::new(
        sources,
        blanks[k].clone(),
        cfg.deadlines(),
        device_of_source,
        live.to_vec(),
        Arc::clone(obs),
    );
    let to_orchestrator = plane.sender(Link::Verdict(k))?;
    let batch_max = cfg.stream.as_ref().map_or(1, |s| s.batch_max);
    let tier_ids: Vec<NodeId> = tiers.iter().map(|t| t.id).collect();
    let node = TierNode {
        name: spec.name.clone(),
        id: spec.id,
        exit_tier: (k + 1).min(usize::from(u8::MAX)) as u8,
        section,
        policy: match spec.rule {
            TierExitRule::ConfigEdgeThreshold => ExitPolicy::Entropy(cfg.edge_threshold),
            TierExitRule::Fixed(t) => ExitPolicy::Entropy(t),
            TierExitRule::Terminal => ExitPolicy::Terminal,
        },
        to_orchestrator: to_orchestrator.clone(),
        route: Route::Tier {
            k,
            // Every forward link the wiring opened (adjacent and, when
            // elastic, skip-level), so the tier can route along whatever
            // escalation path is current.
            to_tiers: (0..tiers.len()).map(|j| plane.try_sender(Link::Forward(k, j))).collect(),
            feeder: if k == 0 { Feeder::Devices } else { Feeder::Tier(k - 1, tier_ids[k - 1]) },
            tier_ids,
            blanks,
        },
        collector,
        obs: NodeObs::for_node(obs, &spec.name, batch_max),
        control: ctx.control(&spec.name, spec.id, Some(to_orchestrator)),
        batch_max,
        gathered: Vec::new(),
        last_decision: None,
        shutdown: false,
    };
    let (mut inbox, clock) = (plane.inbox(spec.id)?, obs.clock());
    Ok(Box::new(move || Ok(drive(node, &mut inbox, clock)?.collector.into_report())))
}
