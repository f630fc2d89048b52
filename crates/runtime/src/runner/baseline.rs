//! The §IV-H cloud-offload baseline: its configuration rejections, and a
//! call into the shared runner path with the cloud-only
//! [`Topology`] (a single terminal tier with a raw section), so the chaos
//! plan and deadline degradation apply to it exactly like they do to the
//! real topology.

use super::orchestrate::{orchestrate, validate_run, Feed};
use super::roles::{compute_blanks, spawn_role, Routing, RunCtx, Spawn};
use super::wiring::{connect_local, Plane, Wiring};
use crate::chaos::ProcTarget;
use crate::error::{Result, RuntimeError};
use crate::node::report::SimReport;
use crate::obs::RunObs;
use crate::topology::{HierarchyConfig, Topology};
use ddnn_core::DdnnPartition;
use ddnn_tensor::Tensor;
use std::sync::Arc;

/// Runs the §IV-H cloud-offload baseline: every device sends its raw
/// (byte-quantized) view to the cloud for every sample; the cloud runs the
/// entire network and classifies. The raw-image traffic is accounted on
/// the `device*->cloud` links.
///
/// The baseline is a one-tier wiring run through the same connect, role
/// host, feed and orchestrator body as the staged hierarchy — the fault layer,
/// the collector finalize path and the watchdog included — so
/// `cfg.failed_devices`, `cfg.chaos` and `cfg.deadlines` degrade it
/// exactly like the staged hierarchy instead of being silently ignored.
///
/// # Errors
///
/// Returns an error for malformed inputs or node failures.
pub fn run_cloud_only_baseline(
    partition: &DdnnPartition,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    // One terminal tier with a raw section, hosted as a thread; the
    // orchestrator plays the devices, which would only forward their
    // captures unchanged.
    let topology = Topology::cloud_only(partition);
    let live = validate_run(&topology, device_views, labels, cfg, false)?;
    if cfg.elastic.is_some() {
        return Err(RuntimeError::Config {
            reason: "the cloud-only baseline has no tiers to rebalance (unset cfg.elastic)"
                .to_string(),
        });
    }
    if cfg.transport.is_socket() {
        return Err(RuntimeError::Config {
            reason: format!(
                "the cloud-only baseline runs in-process only (transport {} is for run_topology \
                 and the multi-process launcher; set cfg.transport to channel)",
                cfg.transport.name()
            ),
        });
    }
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let clock = crate::SimClock::start();
    let routing = Routing::new(&topology, &live, None);
    let ctx = RunCtx { topology: &topology, cfg, live: &live, clock, obs, routing: &routing };
    let wiring = Wiring::of(&topology, false);
    let plane = connect_local(&wiring, cfg, &ctx.obs)?;
    let blanks = compute_blanks(&topology)?;
    let host = |plane: &mut Plane, spawn: &mut Spawn| {
        spawn_role(ProcTarget::Tier(0), &ctx, &blanks, plane, spawn)
    };
    let mut feed = Feed::new(&plane, &ctx, device_views)?;
    orchestrate(&ctx, &wiring, plane, host, labels, &mut feed)
}
