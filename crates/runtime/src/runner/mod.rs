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
//! for each hosted role (`roles`) → `orchestrate`, whose sample pump
//! (`pump`) admits samples in lockstep or on `cfg.stream`'s arrival
//! schedule. Each node and the pump are cores run by the one
//! [`drive`](crate::clock::drive) loop, on the run's clock
//! ([`crate::RunObs::clock`]). [`run_topology`] hosts every role as threads,
//! [`run_cloud_only_baseline`] a one-tier wiring, and [`multiproc`] one
//! role per OS process.

pub mod multiproc;
mod orchestrate;
mod pump;
mod roles;
mod wiring;

use crate::error::Result;
use crate::node::report::SimReport;
use crate::obs::RunObs;
use crate::topology::{HierarchyConfig, Topology};
use ddnn_core::DdnnPartition;
use ddnn_tensor::Tensor;
use orchestrate::{orchestrate, validate_run, Feed};
use roles::{compute_blanks, spawn_role, Routing, RunCtx, Spawn};
use std::sync::Arc;
use wiring::{connect_local, Plane, Wiring};

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

/// Runs the §IV-H cloud-offload baseline: every device sends its raw
/// (byte-quantized) view to the cloud for every sample; the cloud runs the
/// entire network and classifies. The raw-image traffic is accounted on
/// the `device*->cloud` links.
///
/// The baseline is [`run_topology`] of [`Topology::cloud_only`] — a
/// single terminal tier with a raw section, the orchestrator feeding the
/// devices' links in their name — so `cfg.failed_devices`, `cfg.chaos`
/// and `cfg.deadlines` degrade it exactly like the staged hierarchy.
///
/// # Errors
///
/// Returns an error for malformed inputs or node failures, and a typed
/// configuration error for `cfg.elastic` or a socket transport.
pub fn run_cloud_only_baseline(
    partition: &DdnnPartition,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    run_topology(&Topology::cloud_only(partition), device_views, labels, cfg)
}

/// Executes distributed staged inference over an explicit [`Topology`] —
/// the legacy shapes, deeper built chains and the cloud-only baseline run
/// through this one wiring.
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
    let live = validate_run(topology, device_views, labels, cfg, false)?;
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let blanks = compute_blanks(topology)?;
    let routing = Routing::new(topology, &live, cfg.elastic.map(|_| &blanks));
    let ctx = RunCtx { topology, cfg, live: &live, obs, routing: &routing };

    // Every role of the wiring is hosted right here, as threads.
    let wiring = Wiring::of(topology, cfg.elastic.is_some());
    let plane = connect_local(&wiring, cfg, &ctx.obs)?;
    let mut feed = Feed::new(&plane, &ctx, device_views)?;
    let host = |plane: &mut Plane, spawn: &mut Spawn| {
        let mut roles = wiring.roles().into_iter();
        roles.try_for_each(|role| spawn_role(role, &ctx, &blanks, plane, spawn))
    };
    orchestrate(&ctx, &wiring, plane, host, labels, &mut feed)
}
