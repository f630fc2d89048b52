//! The role host: the one place that constructs the nodes of a role —
//! the device loops, the gateway and the feature (or raw-offload) tiers —
//! from a [`Plane`]'s inboxes and senders. The in-process runner hosts
//! every role of a wiring as threads, `multiproc::host_role` hosts one
//! role per OS process; both build their nodes here.

use super::wiring::{Link, Plane};
use crate::chaos::ProcTarget;
use crate::clock::SimClock;
use crate::error::Result;
use crate::link::LinkSender;
use crate::message::{dequantize_image, quantize_image, NodeId};
use crate::node::collector::{AggDeadline, Collector};
use crate::node::device::{
    blank_signature, blank_view, device_node, BlankSignature, DeviceElastic,
};
use crate::node::report::NodeReport;
use crate::node::tier::{
    batched, Escalation, FanIn, Feeder, RawSection, TierElastic, TierNode, TierSection,
};
use crate::obs::{NodeObs, RunObs};
use crate::orchestrator::rebalance::{compute_routing, probe, Compat, RoutingTable};
use crate::orchestrator::NodeControl;
use crate::topology::{HierarchyConfig, Shape, TierExitRule, Topology};
use ddnn_core::ExitPolicy;
use ddnn_nn::Mode;
use ddnn_tensor::{parallel, Tensor};
use std::sync::Arc;

/// What every part of one run shares.
pub(super) struct RunCtx<'a> {
    pub(super) topology: &'a Topology,
    pub(super) cfg: &'a HierarchyConfig,
    /// Per device: not statically failed.
    pub(super) live: &'a [bool],
    pub(super) clock: SimClock,
    pub(super) obs: Arc<RunObs>,
    /// What every process of an elastic run derives alike; `None` without
    /// `cfg.elastic`.
    pub(super) elastic: Option<&'a ElasticCtx>,
}

/// A node's whole life, ready to run on a thread of its own.
pub(super) type NodeTask = Box<dyn FnOnce() -> Result<NodeReport> + Send>;

/// Starts a node's thread (see `host_nodes`).
pub(super) type Spawn<'s> = dyn FnMut(NodeTask) + 's;

/// What aggregators substitute for a silent source.
pub(super) struct Blanks {
    /// Per device: the scores and feature map of a blank view.
    devices: Vec<BlankSignature>,
    /// Per tier: one blank item per collector source slot.
    pub(super) tiers: Vec<Vec<Tensor>>,
}

/// Blank signatures for failed-device substitution plus the chained
/// per-tier blanks: tier 0 collects the device maps, so its blanks are
/// the device blank signatures; tier k>0 collects tier k−1's output, so
/// its blank is tier k−1's section applied to its own blanks — a silent
/// tier degrades to "nothing was seen" rather than garbage. Every process
/// of a multi-process run computes identical blanks from the same seeded
/// model.
pub(super) fn compute_blanks(topology: &Topology) -> Result<Blanks> {
    if let Shape::CloudOnly { .. } = topology.shape {
        // A silent device's blank is the byte-quantized blank view round-
        // tripped through the wire encoding — exactly what a live device
        // would have transmitted for a blank capture.
        let config = &topology.config;
        let raw = dequantize_image(&quantize_image(&blank_view(config)), config.view_dims())?;
        return Ok(Blanks { devices: Vec::new(), tiers: vec![vec![raw; topology.num_devices()]] });
    }
    // One single-sample forward pass per device on identical cloned
    // sections, collected in device order; only a fleet of dozens of
    // devices is enough work to leave this thread.
    let [c, h, w] = topology.config.view_dims();
    let work = topology.devices.iter().map(|part| part.conv.macs(&[1, c, h, w])).sum();
    let devices: Vec<BlankSignature> =
        parallel::par_map_indexed(topology.num_devices(), work, |d| {
            blank_signature(&topology.devices[d], &topology.config)
        })
        .into_iter()
        .collect::<Result<_>>()?;
    let mut tiers: Vec<Vec<Tensor>> = Vec::with_capacity(topology.tiers.len());
    tiers.push(devices.iter().map(|b| b.map.clone()).collect());
    for k in 1..topology.tiers.len() {
        let mut below = topology.tiers[k - 1].stage.clone();
        let out = below.body(&batched(tiers[k - 1].clone())?, Mode::Eval)?;
        tiers.push(vec![out.index_axis0(0)?]);
    }
    Ok(Blanks { devices, tiers })
}

/// What the elastic control plane starts from, derived identically in
/// every process from the seeded model: the probed compatibility matrix
/// (which feeders each tier's section accepts), each tier's blank
/// *output* for re-parenting, and the epoch-0 routing table.
pub(super) struct ElasticCtx {
    pub(super) compat: Compat,
    out_blanks: Vec<Tensor>,
    pub(super) initial: RoutingTable,
}

impl ElasticCtx {
    /// Probes the topology; epoch 0 routes the declared chain itself,
    /// since every non-device node starts live.
    pub(super) fn new(topology: &Topology, live: &[bool], blanks: &Blanks) -> Result<Self> {
        let (compat, out_blanks) = probe(topology, &blanks.tiers)?;
        let mut init_live = live.to_vec();
        init_live.extend(std::iter::repeat_n(true, 1 + topology.tiers.len())); // gateway, tiers
        let initial = compute_routing(0, init_live, live.len(), &compat);
        Ok(ElasticCtx { compat, out_blanks, initial })
    }

    /// A fresh view of the control plane for the node `name`, which
    /// answers pings as `id` over `pong`.
    fn control(&self, obs: &RunObs, name: &str, id: NodeId, pong: LinkSender) -> NodeControl {
        let stale = obs.registry().counter(&format!("node.{name}.stale_epoch_discards"));
        NodeControl::new(self.compat.clone(), self.initial.clone(), id, pong, stale)
    }
}

/// The aggregation deadline shared by every collector of a run with
/// deadlines; without them a collector waits for every live source.
fn agg_deadline(ctx: &RunCtx) -> Option<AggDeadline> {
    ctx.cfg.deadlines.map(|dl| AggDeadline {
        aggregation_ms: dl.aggregation_ms,
        suspect_after: dl.suspect_after,
        clock: ctx.clock,
    })
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
    let RunCtx { topology, cfg, live, obs, elastic, .. } = ctx;
    let n = topology.num_devices();
    match role {
        ProcTarget::Devices => {
            let tolerant = cfg.deadlines.is_some();
            // A device caches the feature map of every sample that can
            // be in flight: the admission window (one, in lockstep).
            let capture_cap = cfg.stream.as_ref().map_or(1, |s| s.queue_cap);
            for d in (0..n).filter(|&d| live[d]) {
                let rx = plane.inbox(NodeId::Device(d as u8))?;
                let (to_gw, to_upper) =
                    (plane.sender(Link::Scores(d))?, plane.sender(Link::Uplink(d, 0))?);
                // Elastic: one feature link per re-parent candidate tier
                // and a pong link back to the orchestrator; all share the
                // device's crash state, so a crashed device's heartbeats
                // die with its data.
                let dev_el = match elastic {
                    Some(el) => Some(DeviceElastic {
                        control: el.control(
                            obs,
                            &format!("device{d}"),
                            NodeId::Device(d as u8),
                            plane.sender(Link::DevicePong(d))?,
                        ),
                        to_tiers: (0..topology.tiers.len())
                            .map(|j| plane.sender(Link::Uplink(d, j)))
                            .collect::<Result<_>>()?,
                    }),
                    None => None,
                };
                let (part, obs) = (topology.devices[d].clone(), Arc::clone(obs));
                spawn(Box::new(move || {
                    device_node(d, part, rx, to_gw, to_upper, tolerant, capture_cap, obs, dev_el)
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
                section: topology.gateway.clone(),
                policy: ExitPolicy::Entropy(cfg.local_threshold),
                fan_in: FanIn::Devices(n),
                inbox: plane.inbox(NodeId::Gateway)?,
                to_orchestrator: to_orchestrator.clone(),
                escalation: Escalation::RequestFromDevices(to_devices),
                collector: Collector::new(
                    n,
                    blanks.devices.iter().map(|b| b.scores.clone()).collect(),
                    agg_deadline(ctx),
                    (0..n).map(Some).collect(),
                    live.to_vec(),
                ),
                obs: NodeObs::for_node(obs, "gateway"),
                elastic: elastic.map(|el| TierElastic {
                    control: el.control(obs, "gateway", NodeId::Gateway, to_orchestrator),
                    tier_k: None,
                    to_tiers: Vec::new(),
                    tier_ids: Vec::new(),
                    device_blanks: Vec::new(),
                    tier_out_blanks: Vec::new(),
                    cur_feeder: Feeder::Devices,
                }),
                // Score aggregation is negligible compute; only the
                // feature tiers batch.
                batch_max: 1,
            };
            spawn(Box::new(move || node.run()));
            Ok(())
        }
        ProcTarget::Tier(k) => {
            let task = match &topology.shape {
                Shape::Staged => tier_task(k, topology.tiers[k].stage.clone(), ctx, blanks, plane)?,
                Shape::CloudOnly { model } => {
                    let view_dims = topology.config.view_dims();
                    let section = RawSection { model: (**model).clone(), view_dims };
                    tier_task(k, section, ctx, blanks, plane)?
                }
            };
            spawn(task);
            Ok(())
        }
    }
}

/// Tier `k` of the chain around `section`: the first tier fans in from
/// the devices, every later tier has its single predecessor as its
/// source; every tier but the last escalates to its successor.
fn tier_task<S: TierSection<Item = Tensor> + 'static>(
    k: usize,
    section: S,
    ctx: &RunCtx,
    blanks: &Blanks,
    plane: &mut Plane,
) -> Result<NodeTask> {
    let RunCtx { topology, cfg, live, obs, elastic, .. } = ctx;
    let n = topology.num_devices();
    let tiers = &topology.tiers;
    let spec = &tiers[k];
    let (sources, device_of_source) =
        if k == 0 { (n, (0..n).map(Some).collect()) } else { (1, vec![None]) };
    let collector = Collector::new(
        sources,
        blanks.tiers[k].clone(),
        agg_deadline(ctx),
        device_of_source,
        live.to_vec(),
    );
    let to_orchestrator = plane.sender(Link::Verdict(k))?;
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
        fan_in: if k == 0 { FanIn::Devices(n) } else { FanIn::Tier(tiers[k - 1].id) },
        inbox: plane.inbox(spec.id)?,
        to_orchestrator: to_orchestrator.clone(),
        escalation: if k + 1 == tiers.len() {
            Escalation::Terminal
        } else {
            Escalation::ForwardMap(plane.sender(Link::Forward(k, k + 1))?)
        },
        collector,
        obs: NodeObs::for_node(obs, &spec.name),
        elastic: elastic.map(|el| TierElastic {
            control: el.control(obs, &spec.name, spec.id, to_orchestrator),
            tier_k: Some(k),
            // Adjacent and skip-level forward links, so the tier can route
            // along whatever escalation path is current.
            to_tiers: (0..tiers.len()).map(|j| plane.try_sender(Link::Forward(k, j))).collect(),
            tier_ids: tiers.iter().map(|t| t.id).collect(),
            device_blanks: blanks.tiers[0].clone(),
            tier_out_blanks: el.out_blanks.clone(),
            cur_feeder: if k == 0 { Feeder::Devices } else { Feeder::Tier(k - 1) },
        }),
        batch_max: cfg.stream.as_ref().map_or(1, |s| s.batch_max),
    };
    Ok(Box::new(move || node.run()))
}
