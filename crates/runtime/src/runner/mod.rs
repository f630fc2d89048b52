//! Executes a [`Topology`] over a labeled test set: every node runs on
//! its own thread, every tensor crossing a tier boundary is serialized to
//! the wire format and counted, and the staged inference protocol of
//! paper §III-D unfolds sample by sample.
//!
//! The protocol, per sample (the paper's six-step description for
//! configuration (e)):
//!
//! 1. the orchestrator pushes each device its sensor view (not a network
//!    transfer);
//! 2. every device runs its ConvP block + exit head and sends its float
//!    class-score vector to the gateway (always — Eq. 1's first term);
//! 3. the gateway aggregates, computes normalized entropy and exits the
//!    sample locally if confident;
//! 4. otherwise it broadcasts an offload request; each device sends its
//!    bit-packed binary feature map to the chain's first tier (Eq. 1's
//!    second term);
//! 5. each non-terminal tier aggregates, runs its ConvP chain, and exits
//!    if confident, otherwise forwards its own feature map up the chain;
//! 6. the terminal tier always classifies what reaches it.
//!
//! Every runner goes the same way: the wiring table of the topology
//! (`wiring`) → `connect` the rows this process's hosts own → `spawn_role`
//! for each hosted role (`roles`) → `orchestrate`, whose one sample driver
//! (`pump`) admits samples in lockstep or on `cfg.stream`'s arrival
//! schedule. [`run_topology`] hosts every role as threads,
//! [`run_cloud_only_baseline`] a one-tier wiring, and [`multiproc`] one
//! role per OS process.

mod baseline;
pub mod multiproc;
mod orchestrate;
mod pump;
mod roles;
mod wiring;

pub use baseline::run_cloud_only_baseline;

use crate::error::Result;
use crate::message::{Frame, NodeId, Payload};
use crate::node::report::SimReport;
use crate::obs::RunObs;
use crate::orchestrator::{ElasticDriver, NodeDirectory};
use crate::topology::{HierarchyConfig, Topology};
use ddnn_core::DdnnPartition;
use ddnn_tensor::Tensor;
use orchestrate::{orchestrate, validate_run, Threads};
use roles::{compute_blanks, spawn_role, ElasticCtx, RunCtx, Spawn};
use std::sync::Arc;
use wiring::{connect_local, Link, Plane, Wiring};

/// Executes distributed staged inference of a partitioned DDNN over a test
/// set: `device_views[d]` is device `d`'s per-sample view batch. The
/// hierarchy's shape is the one the partition implies
/// ([`Topology::from_partition`]).
///
/// # Errors
///
/// Returns an error for malformed inputs, failed-device indices out of
/// range, or any node/protocol failure.
pub fn run_distributed_inference(
    partition: &DdnnPartition,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    run_topology(&Topology::from_partition(partition), device_views, labels, cfg)
}

/// Executes distributed staged inference over an explicit [`Topology`] —
/// the legacy shapes and deeper built chains run through this one wiring.
///
/// # Errors
///
/// Returns an error for malformed inputs, failed-device indices out of
/// range, or any node/protocol failure.
pub fn run_topology(
    topology: &Topology,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    let num_devices = topology.num_devices();
    let live = validate_run(topology, device_views, labels, cfg, false)?;
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let ctx = RunCtx { topology, cfg, live: &live, clock: crate::SimClock::start(), obs };
    let blanks = compute_blanks(topology)?;
    let elastic = match cfg.elastic {
        Some(_) => Some(ElasticCtx::new(topology, &live, &blanks)?),
        None => None,
    };

    // Every role of the wiring is hosted right here, as threads.
    let wiring = Wiring::of(topology, elastic.is_some());
    let plane = connect_local(&wiring, cfg, &ctx.obs)?;

    let sensors: Vec<_> =
        (0..num_devices).map(|d| plane.sender(Link::Sensor(d))).collect::<Result<_>>()?;
    // The membership driver pings devices over their sensor feed, the
    // gateway and tiers over dedicated links. Statically failed devices
    // are never pinged (and never rejoin).
    let tier_names: Vec<String> = topology.tiers.iter().map(|t| t.name.clone()).collect();
    let tier_ids = topology.tiers.iter().map(|t| t.id).collect();
    let dir = NodeDirectory::new(num_devices, &tier_names, tier_ids);
    let mut driver = match (&elastic, cfg.elastic) {
        (Some(el), Some(ecfg)) => {
            let mut ping_links: Vec<_> =
                (0..num_devices).map(|d| live[d].then(|| sensors[d].clone())).collect();
            ping_links.push(Some(plane.sender(Link::PingGateway)?));
            for k in 0..topology.tiers.len() {
                ping_links.push(Some(plane.sender(Link::PingTier(k))?));
            }
            Some(ElasticDriver::new(
                Arc::clone(&el.control),
                dir.clone(),
                el.compat.clone(),
                ecfg,
                ping_links,
                ctx.clock,
                Arc::clone(&ctx.obs),
            ))
        }
        _ => None,
    };
    let feed = |i: usize| -> Result<()> {
        // Under elastic routing, captures skip devices the membership
        // layer currently believes dead (their down flag will make
        // them drop the frame anyway), and with the gateway bypassed
        // the orchestrator broadcasts the offload request itself so
        // the sample goes straight to the feature chain.
        let routing = elastic.as_ref().map(|el| el.control.routing());
        let awake = |d: usize| live[d] && routing.as_ref().is_none_or(|r| r.live[d]);
        for d in (0..num_devices).filter(|&d| awake(d)) {
            let view = device_views[d].index_axis0(i)?;
            sensors[d].send(&Frame::new(
                i as u64,
                NodeId::Orchestrator,
                Payload::Capture { view },
            ))?;
        }
        if routing.as_ref().is_some_and(|r| r.gateway_bypass && r.device_parent.is_some()) {
            for d in (0..num_devices).filter(|&d| awake(d)) {
                sensors[d].send(&Frame::new(
                    i as u64,
                    NodeId::Orchestrator,
                    Payload::OffloadRequest,
                ))?;
            }
        }
        Ok(())
    };
    let host = |plane: &mut Plane, spawn: &mut Spawn| {
        let mut roles = wiring.roles().into_iter();
        roles.try_for_each(|role| spawn_role(role, &ctx, &blanks, elastic.as_ref(), plane, spawn))
    };
    let nodes = elastic.as_ref().map(|el| (&*el.control, &dir));
    let mut hook = Threads { feed, nodes };
    let mut report = orchestrate(&ctx, &wiring, plane, host, labels, &mut hook, driver.as_mut())?;
    report.elastic = driver.map(|d| d.finish());
    Ok(report)
}
