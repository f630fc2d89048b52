//! The orchestrator's side of a run, shared by every runner: input
//! validation, the [`SampleHook`] a runner plugs in, and [`orchestrate`]
//! — the one body that drives the sample pump's core (`Pump`) beside
//! whatever nodes this process hosts, shuts the run down and assembles
//! the report.

use super::pump::Pump;
use super::roles::{RunCtx, Spawn};
use super::wiring::{Host, Link, Plane, Wiring};
use crate::chaos::{ChaosTarget, ProcTarget};
use crate::clock::drive;
use crate::error::{reject, Result, RuntimeError};
use crate::link::{LatencyModel, LinkSender};
use crate::message::{quantize_image, Frame, NodeId, Payload, HEADER_BYTES};
use crate::node::report::{assemble_report, NodeReport, SimReport};
use crate::orchestrator::rebalance::RoutingTable;
use crate::orchestrator::{ElasticDriver, NodeDirectory};
use crate::topology::{HierarchyConfig, Shape, Topology};
use crate::transport::{Endpoint, InboxBinding, TransportConfig};
use ddnn_tensor::Tensor;
use std::sync::Arc;

/// Shared input validation (identical checks and ordering for every
/// runner), returning the per-device live mask. `processes` says whether
/// the roles will be real OS processes — the one thing the chaos plan
/// needs to know about the runner that `cfg` does not carry.
pub(super) fn validate_run(
    topology: &Topology,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
    processes: bool,
) -> Result<Vec<bool>> {
    let num_devices = topology.num_devices();
    if device_views.len() != num_devices {
        return reject(format!("{} view batches for {num_devices} devices", device_views.len()));
    }
    if let Some(&bad) = cfg.failed_devices.iter().find(|&&d| d >= num_devices) {
        return reject(format!("failed device {bad} out of range"));
    }
    let n_samples = labels.len();
    if device_views.iter().any(|v| v.dims()[0] != n_samples) {
        return reject("device view batch size != label count");
    }
    let live = live_mask(num_devices, cfg);
    if live.iter().all(|&l| !l) {
        return reject("all devices failed");
    }
    cfg.chaos.validate(topology, cfg, processes)?;
    // A zero budget would blank, expire or retry every sample at once.
    let dl = cfg.deadlines();
    let budgets = [("aggregation_ms", dl.aggregation_ms), ("watchdog_ms", dl.watchdog_ms)];
    let suspect = ("suspect_after", u64::from(dl.suspect_after));
    if let Some((name, _)) = budgets.into_iter().chain([suspect]).find(|&(_, v)| v == 0) {
        return reject(format!("deadline {name} must be at least 1"));
    }
    if cfg.elastic.is_some_and(|el| el.heartbeat_ms == 0 || el.suspect_after == 0) {
        return reject("elastic heartbeat_ms and suspect_after must be at least 1");
    }
    if let Some(stream) = &cfg.stream {
        stream.validate()?;
    }
    if let Shape::CloudOnly { .. } = topology.shape {
        if cfg.elastic.is_some() {
            return reject("the cloud-only baseline has no tiers to rebalance (unset cfg.elastic)");
        }
        if cfg.transport.is_socket() {
            return reject(format!(
                "the cloud-only baseline runs in-process only (transport {} is for \
                     run_topology and the multi-process launcher; set cfg.transport to channel)",
                cfg.transport.name()
            ));
        }
    }
    Ok(live)
}

/// Per device: not statically failed (`cfg.failed_devices`).
pub(super) fn live_mask(num_devices: usize, cfg: &HierarchyConfig) -> Vec<bool> {
    (0..num_devices).map(|d| !cfg.failed_devices.contains(&d)).collect()
}

/// What a runner plugs into [`orchestrate`]: how a sample enters the
/// hierarchy and — when its roles are OS processes — how a scheduled
/// process kill or respawn reaches them, whether they are still there and
/// what they counted.
pub(super) trait SampleHook {
    /// Feeds sample `i` (again, on a watchdog retry) under the published
    /// `routing`, after whatever is due before it (a supervision tick).
    fn feed(&mut self, i: usize, routing: &RoutingTable) -> Result<()>;

    /// Kills or respawns the role process `target` names, just before
    /// sample `seq` (the plan was validated against this runner, so the
    /// target is one it can reach; node targets are the elastic driver's).
    fn apply(&mut self, _seq: u64, _target: &ChaosTarget, _down: bool) -> Result<()> {
        Ok(())
    }

    /// Where `role` is reached now: at this process's `own` endpoint when
    /// it is hosted here, `None` once its process is dead.
    fn locate(&self, _role: ProcTarget, own: Endpoint) -> Option<Endpoint> {
        Some(own)
    }

    /// After shutdown: adds what remote roles counted into the run's
    /// registry and returns their node reports. Roles hosted as threads
    /// count into the registry directly and were joined by then.
    fn collect(&mut self) -> Result<Vec<NodeReport>> {
        Ok(Vec::new())
    }
}

/// The capture feed of every runner, and the whole hook of one hosted as
/// threads: a sample's views go to the devices the routing has live
/// (in a static run, every device not statically failed), and with the
/// gateway bypassed the orchestrator broadcasts the offload
/// request itself so the sample goes straight to the feature chain. In
/// the cloud-only shape the devices would only forward their captures, so
/// the orchestrator sends each view raw to the cloud in their name.
pub(super) struct Feed<'a> {
    /// Per device that is not statically failed: its index, the link its
    /// views leave on and its view batch.
    sensors: Vec<(usize, LinkSender, &'a Tensor)>,
    raw: bool,
}

impl<'a> Feed<'a> {
    pub(super) fn new(plane: &Plane, ctx: &RunCtx, device_views: &'a [Tensor]) -> Result<Self> {
        let raw = matches!(ctx.topology.shape, Shape::CloudOnly { .. });
        let key = |d| if raw { Link::Uplink(d, 0) } else { Link::Sensor(d) };
        let live = (0..ctx.live.len()).filter(|&d| ctx.live[d]);
        let sensors = live.map(|d| Ok((d, plane.sender(key(d))?, &device_views[d])));
        Ok(Feed { sensors: sensors.collect::<Result<_>>()?, raw })
    }

    pub(super) fn send(&self, i: usize, routing: &RoutingTable) -> Result<()> {
        let seq = i as u64;
        let awake = self.sensors.iter().filter(|(d, ..)| routing.live[*d]);
        for (d, sensor, views) in awake.clone() {
            let view = views.index_axis0(i)?;
            sensor.send(&match self.raw {
                true => Frame::new(seq, NodeId::Device(*d as u8), raw_payload(&view)),
                false => Frame::new(seq, NodeId::Orchestrator, Payload::Capture { view }),
            })?;
        }
        if routing.gateway_bypass && routing.device_parent.is_some() {
            for (_, sensor, _) in awake {
                sensor.send(&Frame::new(seq, NodeId::Orchestrator, Payload::OffloadRequest))?;
            }
        }
        Ok(())
    }
}

/// A view as the cloud-only baseline ships it: byte-quantized pixels.
fn raw_payload(view: &Tensor) -> Payload {
    Payload::RawImage { pixels: quantize_image(view) }
}

impl SampleHook for Feed<'_> {
    fn feed(&mut self, i: usize, routing: &RoutingTable) -> Result<()> {
        self.send(i, routing)
    }
}

/// Runs `body`, which starts a thread for every node it hands to `spawn`;
/// the nodes are joined once `body` has returned.
pub(super) fn host_nodes<T>(
    body: impl FnOnce(&mut Spawn) -> Result<T>,
) -> Result<(T, Vec<NodeReport>)> {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let done = body(&mut |node| handles.push(scope.spawn(node)))?;
        let mut reports = Vec::with_capacity(handles.len());
        for h in handles {
            reports.push(h.join().map_err(|_| RuntimeError::Disconnected {
                node: "panicked node thread".to_string(),
            })??);
        }
        Ok((done, reports))
    })
}

/// The elastic driver of an elastic run, pinging every node over the
/// wiring's ping rows: a device over its sensor feed (a statically failed
/// one never), the gateway and each tier over their own. Its directory is
/// the wiring's node inboxes, which list devices, gateway and tiers in
/// directory order.
fn elastic_driver(ctx: &RunCtx, wiring: &Wiring, plane: &Plane) -> Result<Option<ElasticDriver>> {
    let Some(cfg) = ctx.cfg.elastic else { return Ok(None) };
    let (live, obs) = (ctx.live, Arc::clone(&ctx.obs));
    let nodes = wiring.inboxes.iter().filter(|i| i.host != Host::Orchestrator);
    let dir = NodeDirectory::new(nodes.map(|i| (i.id, i.name.clone())));
    let mut ping_links: Vec<Option<LinkSender>> = (0..live.len())
        .map(|d| live[d].then(|| plane.sender(Link::Sensor(d))).transpose())
        .collect::<Result<_>>()?;
    ping_links.push(Some(plane.sender(Link::PingGateway)?));
    for k in 0..ctx.topology.tiers.len() {
        ping_links.push(Some(plane.sender(Link::PingTier(k))?));
    }
    let (compat, initial) = (ctx.routing.compat.clone(), ctx.routing.initial.clone());
    Ok(Some(ElasticDriver::new(dir, compat, initial, cfg, ping_links, obs)))
}

/// The orchestrator body every runner finishes through: lets `host`
/// start the nodes this process hosts (none, for the multi-process
/// launcher), pumps the samples beside them (lockstep, or on `cfg.stream`'s
/// arrival schedule) under the elastic driver when `cfg.elastic` asks for
/// one, shuts every node of the wiring down, and assembles the report from
/// the run's registry, the node reports and the tallies.
pub(super) fn orchestrate(
    ctx: &RunCtx,
    wiring: &Wiring,
    mut plane: Plane,
    host: impl FnOnce(&mut Plane, &mut Spawn) -> Result<()>,
    labels: &[usize],
    hook: &mut impl SampleHook,
) -> Result<SimReport> {
    let RunCtx { topology, cfg, live, obs, .. } = ctx;
    let mut orch_inbox = plane.inbox(NodeId::Orchestrator)?;
    let mut driver = elastic_driver(ctx, wiring, &plane)?;
    // Simulated latency of a lockstep sample: the device->gateway hop
    // (a local wireless link) always happens; each escalation up the
    // chain adds one WAN transfer of the feature map. Accumulated hop by
    // hop so the chain generalizes without perturbing the legacy two-hop
    // float arithmetic. The cloud-only baseline reports no simulated
    // latency (legacy behavior).
    let summary_bytes = HEADER_BYTES + 4 + 4 * topology.config.num_classes;
    let map_bytes = HEADER_BYTES + 6 + 4 + topology.config.device_map_elems().div_ceil(8);
    let staged = matches!(topology.shape, Shape::Staged);
    let (local, wan) = (LatencyModel::local(), LatencyModel::wan());
    let latency_of = |tier: u8| match staged {
        true => (0..tier)
            .fold(local.transfer_ms(summary_bytes), |ms, _| ms + wan.transfer_ms(map_bytes)),
        false => 0.0,
    };
    let (tallies, mut node_reports) = host_nodes(|spawn| {
        host(&mut plane, spawn)?;
        let exit_of = |tier: u8| Ok((topology.exit_point_of(tier)?, latency_of(tier)));
        let initial = &ctx.routing.initial;
        let (n, start) = (labels.len(), obs.clock().elapsed_ms_f64());
        let pump = Pump::new(n, start, cfg, hook, &exit_of, obs, initial, driver.as_mut());
        let tallies = drive(pump, &mut orch_inbox, obs.clock())?.tallies;
        // Every sample resolved; the orchestrator's ARQ links stopped
        // retransmitting when its `drive` returned.

        // Orderly shutdown in inbox order — devices first (over their
        // sensor feeds), then the gateway, then the chain — skipping
        // statically failed devices and dead roles (a TCP connect to a
        // killed process's port would error, and nobody is listening
        // anyway). Shutdown frames are exempt from chaos, but real UDP
        // can drop a datagram outright, and a lost shutdown frame would
        // hang a node forever — repeat it; extra shutdowns land unread in
        // a finished node's inbox.
        let repeats = if cfg.transport == TransportConfig::Udp { 3 } else { 1 };
        let shutdown = Frame::new(0, NodeId::Orchestrator, Payload::Shutdown);
        for _ in 0..repeats {
            for inbox in &wiring.inboxes {
                let Host::Role(role) = inbox.host else { continue };
                let failed = matches!(inbox.id, NodeId::Device(d) if !live[d as usize]);
                let own = plane.factory.transport.endpoint();
                let Some(at) = hook.locate(role, own).filter(|_| !failed) else { continue };
                let sensor = match inbox.id {
                    NodeId::Device(d) => plane.try_sender(Link::Sensor(d as usize)),
                    _ => None,
                };
                match sensor {
                    Some(sensor) => sensor.send(&shutdown)?,
                    None => {
                        let name = format!("orchestrator->{}", inbox.name);
                        let (host, inbox) = (inbox.host.to_string(), inbox.name.clone());
                        let to = InboxBinding { host, at, inbox };
                        plane.factory.shutdown_sender(&to, &name)?.send(&shutdown)?;
                    }
                }
            }
        }
        Ok(tallies)
    })?;

    node_reports.extend(hook.collect()?);
    // Stop the socket I/O thread before assembling the report, so no late
    // frame moves a `transport.*` cell after the snapshot (a no-op for the
    // in-process channel transport).
    plane.factory.transport.shutdown();
    let mut report =
        assemble_report(tallies, labels, &wiring.report, node_reports, live.len(), obs);
    report.elastic = driver.map(|d| d.finish(&report.counters));
    Ok(report)
}
