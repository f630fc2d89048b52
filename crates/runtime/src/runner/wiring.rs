//! The wiring table: the single description of a run's dataplane.
//!
//! [`Wiring::of`] lists every link of a [`Topology`] — who sends, who
//! receives, into which inbox, under whose crash counter — in the order
//! the report lists them, for the staged hierarchy (with or without the
//! elastic extras) and for the cloud-offload shape. [`connect`] turns the
//! rows a set of hosts owns into bound inboxes and open senders on one
//! [`LinkFactory`]; everything else in the runner (role hosting, the
//! orchestrator body) reads the table instead of re-deriving it. Because
//! the table is the same in every process, where an inbox lives is fully
//! said by its name and its host's address.

use crate::chaos::{CrashState, ProcTarget};
use crate::error::{Result, RuntimeError};
use crate::link::{LinkFactory, LinkSender, NodeInbox};
use crate::message::NodeId;
use crate::obs::{LinkCounters, RunObs};
use crate::reliability::ReliabilityMode;
use crate::topology::{HierarchyConfig, Shape, Topology};
use crate::transport::{Endpoint, InboxBinding};
use std::collections::HashMap;
use std::sync::Arc;

/// Who owns one end of a link: the orchestrator (the caller of a runner,
/// or the multi-process launcher) or one of the roles it deploys. Spelled
/// `orchestrator` or the role's name on `ADDR` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Host {
    Orchestrator,
    Role(ProcTarget),
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Host::Orchestrator => write!(f, "orchestrator"),
            Host::Role(role) => role.fmt(f),
        }
    }
}

impl std::str::FromStr for Host {
    type Err = RuntimeError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "orchestrator" => Ok(Host::Orchestrator),
            role => role.parse().map(Host::Role),
        }
    }
}

/// Typed handle of a link, so the code that uses a sender asks for "device
/// `d`'s score link" instead of re-deriving its display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Link {
    /// Orchestrator → device `d`: captures, heartbeat pings, shutdown.
    Sensor(usize),
    /// Gateway → device `d`: offload requests.
    Broadcast(usize),
    /// Device `d` → gateway: class scores.
    Scores(usize),
    /// Device `d` → tier `j`: feature maps (raw views in the cloud-only
    /// shape).
    Uplink(usize, usize),
    /// Device `d` → orchestrator: heartbeat pongs.
    DevicePong(usize),
    /// Gateway → orchestrator: verdicts and pongs.
    GatewayVerdict,
    /// Tier `k` → orchestrator: verdicts and pongs.
    Verdict(usize),
    /// Tier `i` → tier `j`: escalated feature maps.
    Forward(usize, usize),
    /// Orchestrator → gateway: heartbeat pings.
    PingGateway,
    /// Orchestrator → tier `k`: heartbeat pings.
    PingTier(usize),
}

/// One directed link of the run.
#[derive(Debug)]
pub(super) struct LinkRow {
    pub(super) key: Link,
    /// Display name (`from->to`): report key, fault-stream seed, and the
    /// `link.{name}.*` counter cells.
    pub(super) name: String,
    /// Sending node's wire identity (receivers key ARQ state by it).
    pub(super) from: NodeId,
    /// The node whose `drive` sends on the link, and so runs its ARQ
    /// retransmit timer: `from`, but the orchestrator for every row its
    /// host sends in another node's name.
    owner: NodeId,
    pub(super) sender: Host,
    pub(super) receiver: Host,
    /// Name of the destination inbox.
    pub(super) inbox: String,
    /// Wire identity of the destination inbox's node.
    to: NodeId,
    /// Whether the link appears in the report (the sensor feeds never did).
    pub(super) tracked: bool,
    /// The node whose crash counter silences this link (an `AfterFrames`
    /// Down of the chaos plan), by inbox name.
    pub(super) crash: Option<String>,
}

/// One node's inbox and the host that binds it.
#[derive(Debug)]
pub(super) struct InboxRow {
    pub(super) id: NodeId,
    pub(super) name: String,
    pub(super) host: Host,
}

/// The dataplane of one run.
#[derive(Debug)]
pub(super) struct Wiring {
    /// Every link, in creation (and therefore report) order.
    pub(super) rows: Vec<LinkRow>,
    /// Every inbox in shutdown order — devices, gateway, the chain — with
    /// the orchestrator's last.
    pub(super) inboxes: Vec<InboxRow>,
    /// `SimReport.links` order: the tracked rows plus the zero-stat
    /// placeholders the legacy report format always lists.
    pub(super) report: Vec<String>,
}

impl Wiring {
    /// The wiring of `topology`; `elastic` adds what runtime re-routing
    /// needs: a feature link from every device to every tier, skip-level
    /// forward links, and the heartbeat ping/pong links.
    pub(super) fn of(topology: &Topology, elastic: bool) -> Wiring {
        let end = |id: NodeId, name: String, host: Host| InboxRow { id, name, host };
        let orch = end(NodeId::Orchestrator, "orchestrator".to_string(), Host::Orchestrator);
        let tiers: Vec<InboxRow> = topology
            .tiers
            .iter()
            .enumerate()
            .map(|(k, t)| end(t.id, t.name.clone(), Host::Role(ProcTarget::Tier(k))))
            .collect();
        let device = |d: usize| {
            end(NodeId::Device(d as u8), format!("device{d}"), Host::Role(ProcTarget::Devices))
        };
        let n = topology.num_devices();
        let last = tiers.len() - 1; // the chain is never empty
        let mut w = Wiring { rows: Vec::new(), inboxes: Vec::new(), report: Vec::new() };
        if let Shape::CloudOnly { .. } = topology.shape {
            // The devices forward their captures unchanged, so the
            // orchestrator feeds the device->cloud links itself — but under
            // the device's identity and crash counter.
            for d in 0..n {
                let row = link(Link::Uplink(d, 0), &device(d), &tiers[0]);
                w.add(LinkRow { sender: Host::Orchestrator, owner: NodeId::Orchestrator, ..row });
            }
            w.add(link(Link::Verdict(0), &tiers[0], &orch));
            w.inboxes.extend(tiers);
            w.inboxes.push(orch);
            return w;
        }
        let gateway = end(NodeId::Gateway, "gateway".to_string(), Host::Role(ProcTarget::Gateway));
        for d in 0..n {
            let dev = device(d);
            let sensor = link(Link::Sensor(d), &orch, &dev);
            w.add(LinkRow { name: format!("sensor->device{d}"), tracked: false, ..sensor });
            w.add(link(Link::Broadcast(d), &gateway, &dev));
            w.add(link(Link::Scores(d), &dev, &gateway));
            for (j, tier) in tiers.iter().enumerate().take(if elastic { tiers.len() } else { 1 }) {
                w.add(link(Link::Uplink(d, j), &dev, tier));
            }
            if elastic {
                w.add(link(Link::DevicePong(d), &dev, &orch));
            }
            w.inboxes.push(dev);
        }
        w.add(link(Link::GatewayVerdict, &gateway, &orch));
        w.add(link(Link::Verdict(last), &tiers[last], &orch));
        for i in 0..last {
            w.add(link(Link::Forward(i, i + 1), &tiers[i], &tiers[i + 1]));
            w.add(link(Link::Verdict(i), &tiers[i], &orch));
        }
        w.report.extend(topology.placeholder_links.iter().cloned());
        if elastic {
            for i in 0..tiers.len() {
                for j in i + 2..tiers.len() {
                    w.add(link(Link::Forward(i, j), &tiers[i], &tiers[j]));
                }
            }
            w.add(link(Link::PingGateway, &orch, &gateway));
            for (k, tier) in tiers.iter().enumerate() {
                w.add(link(Link::PingTier(k), &orch, tier));
            }
        }
        w.inboxes.push(gateway);
        w.inboxes.extend(tiers);
        w.inboxes.push(orch);
        w
    }

    fn add(&mut self, row: LinkRow) {
        if row.tracked {
            self.report.push(row.name.clone());
        }
        self.rows.push(row);
    }

    /// Every host of this wiring: the orchestrator, then the roles.
    pub(super) fn hosts(&self) -> Vec<Host> {
        [Host::Orchestrator].into_iter().chain(self.roles().into_iter().map(Host::Role)).collect()
    }

    /// The roles this wiring deploys, in spawn (and node-report) order.
    pub(super) fn roles(&self) -> Vec<ProcTarget> {
        let mut roles = Vec::new();
        for inbox in &self.inboxes {
            if let Host::Role(r) = inbox.host {
                if !roles.contains(&r) {
                    roles.push(r);
                }
            }
        }
        roles
    }
}

/// The plain row from one node to another: named `from->to`, tracked,
/// dying with its sending node (the orchestrator never crashes).
fn link(key: Link, from: &InboxRow, to: &InboxRow) -> LinkRow {
    LinkRow {
        key,
        name: format!("{}->{}", from.name, to.name),
        from: from.id,
        owner: from.id,
        sender: from.host,
        receiver: to.host,
        inbox: to.name.clone(),
        to: to.id,
        tracked: true,
        crash: (from.host != Host::Orchestrator).then(|| from.name.clone()),
    }
}

/// The endpoint of every host of the run — all a multi-process run
/// exchanges in its handshake: every binding is an inbox name (the wiring
/// table is the same in every process) on its host's endpoint.
pub(super) type Addrs = HashMap<Host, Endpoint>;

/// One process's end of the dataplane: the inboxes it bound and the
/// senders it opened, until the nodes that use them take them.
pub(super) struct Plane<'a> {
    pub(super) factory: LinkFactory<'a>,
    inboxes: HashMap<NodeId, NodeInbox>,
    senders: HashMap<Link, LinkSender>,
}

impl Plane<'_> {
    /// Takes a node's inbox.
    pub(super) fn inbox(&mut self, id: NodeId) -> Result<NodeInbox> {
        self.inboxes.remove(&id).ok_or_else(|| RuntimeError::Topology {
            reason: format!("no inbox bound here for {id}"),
        })
    }

    /// A handle on an open sender, if this process owns that link.
    pub(super) fn try_sender(&self, key: Link) -> Option<LinkSender> {
        self.senders.get(&key).cloned()
    }

    /// A handle on an open sender.
    pub(super) fn sender(&self, key: Link) -> Result<LinkSender> {
        self.try_sender(key).ok_or_else(|| RuntimeError::Topology {
            reason: format!("no sender opened here for {key:?}"),
        })
    }
}

/// Binds the inboxes and opens the senders `local` hosts own. Every name
/// this process answers to — its nodes' inboxes and the `ack:` inbox of
/// every link it sends under ARQ — is bound first; `swap` then trades the
/// process's one endpoint for every host's: a run hosted in one process
/// answers with that endpoint for all of them, the multi-process launcher
/// and its role hosts exchange addresses over stdio. An ARQ link's
/// receiving end acks into `ack:{link}` on the sending host, pricing acks
/// into the sender's own cells when both ends are local; its retransmit
/// timer runs in the `drive` loop of the row's owner.
pub(super) fn connect<'a>(
    wiring: &Wiring,
    local: &[Host],
    cfg: &'a HierarchyConfig,
    obs: &Arc<RunObs>,
    tseq_base: u32,
    swap: impl FnOnce(Endpoint) -> Result<Addrs>,
) -> Result<Plane<'a>> {
    let mut factory = LinkFactory::new(cfg, Arc::clone(obs), tseq_base);
    // A crashing node's outbound links share one counter, so its N-th
    // transmitted frame silences all of them at once.
    let crashes: HashMap<String, Arc<CrashState>> =
        cfg.chaos.crash_points().map(|(node, after)| (node, CrashState::new(after))).collect();
    let no_route = |what: &str, name: &str| RuntimeError::Transport {
        endpoint: name.to_string(),
        reason: format!("no {what} here"),
    };

    let mut inboxes = HashMap::new();
    for row in wiring.inboxes.iter().filter(|i| local.contains(&i.host)) {
        inboxes.insert(row.id, factory.inbox(&row.name)?);
    }
    let arq = cfg.reliability.mode == ReliabilityMode::Arq;
    let mut ack_inboxes = HashMap::new();
    for row in wiring.rows.iter().filter(|r| arq && local.contains(&r.sender)) {
        let ack = factory.transport.bind(&format!("ack:{}", row.name))?;
        ack_inboxes.insert(row.name.as_str(), ack);
    }
    let addrs = swap(factory.transport.endpoint())?;
    let binding = |host: Host, inbox: String| {
        let at = *addrs.get(&host).ok_or_else(|| no_route("address of its host", &inbox))?;
        Ok::<_, RuntimeError>(InboxBinding { host: host.to_string(), at, inbox })
    };

    let mut senders = HashMap::new();
    for row in &wiring.rows {
        let sends = local.contains(&row.sender);
        let acks = arq && local.contains(&row.receiver);
        if !sends && !acks {
            continue;
        }
        let cells = LinkCounters::registered(obs.registry(), &row.name);
        if sends {
            let to = binding(row.receiver, row.inbox.clone())?;
            let crash = row.crash.as_ref().and_then(|node| crashes.get(node)).cloned();
            let ack_inbox = ack_inboxes.remove(row.name.as_str());
            let sender = factory.sender(&to, &row.name, crash, cells.clone(), ack_inbox)?;
            let owner = inboxes.get_mut(&row.owner);
            owner.ok_or_else(|| no_route("sending node", &row.name))?.send_on(&sender);
            senders.insert(row.key, sender);
        }
        if acks {
            let ack = binding(row.sender, format!("ack:{}", row.name))?;
            let state = factory.recv_state(&ack, &row.name, cells)?;
            let inbox =
                inboxes.get_mut(&row.to).ok_or_else(|| no_route("local inbox", &row.name))?;
            inbox.register(row.from, state);
        }
    }
    Ok(Plane { factory, inboxes, senders })
}

/// [`connect`] for a run hosted in one process: every host is local and
/// reached at this process's own endpoint.
pub(super) fn connect_local<'a>(
    wiring: &Wiring,
    cfg: &'a HierarchyConfig,
    obs: &Arc<RunObs>,
) -> Result<Plane<'a>> {
    let hosts = wiring.hosts();
    connect(wiring, &hosts, cfg, obs, 0, |own| Ok(hosts.iter().map(|&h| (h, own)).collect()))
}

#[cfg(test)]
mod tests {
    use super::super::roles::{compute_blanks, Routing};
    use super::*;
    use crate::{
        run_cloud_only_baseline, run_topology, ElasticConfig, HierarchyBuilder, SimReport,
    };
    use ddnn_core::{
        AggregationScheme, ConvPBlock, Ddnn, DdnnConfig, DdnnPartition, EdgeConfig, ExitHead,
        ExitThreshold, FeatureAggregator, Precision,
    };
    use ddnn_tensor::rng::rng_from_seed;
    use ddnn_tensor::Tensor;

    const DEVICES: usize = 2;

    fn partition(edge: bool) -> DdnnPartition {
        Ddnn::new(DdnnConfig {
            num_devices: DEVICES,
            device_filters: 2,
            cloud_filters: [4, 8],
            edge: edge.then_some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
            seed: 5,
            ..DdnnConfig::default()
        })
        .partition()
    }

    /// Device → gateway → edgeA → edgeB → core: spatial extent 16 → 8 → 4
    /// → 2, so `edgeB` and `core` cannot take device maps directly.
    fn chain(partition: &DdnnPartition) -> Topology {
        let mut rng = rng_from_seed(9);
        let classes = partition.config.num_classes;
        let mut tier = |agg: FeatureAggregator, in_ch: usize, side: usize| {
            let conv = ConvPBlock::new(in_ch, 4, Precision::Binary, &mut rng);
            let exit = ExitHead::new(4 * side * side, classes, Precision::Binary, &mut rng);
            (agg, vec![conv], exit)
        };
        let concat = FeatureAggregator::new(AggregationScheme::Concat, DEVICES);
        let in_ch = concat.output_channels(partition.config.device_filters);
        let (a1, c1, e1) = tier(concat, in_ch, 8);
        let (a2, c2, e2) = tier(FeatureAggregator::new(AggregationScheme::AvgPool, 1), 4, 4);
        let (a3, c3, e3) = tier(FeatureAggregator::new(AggregationScheme::AvgPool, 1), 4, 2);
        HierarchyBuilder::new(partition)
            .exit_tier("edgeA", a1, c1, e1, ExitThreshold::new(0.5))
            .exit_tier("edgeB", a2, c2, e2, ExitThreshold::new(0.5))
            .terminal_tier("core", a3, c3, e3)
            .build()
            .unwrap()
    }

    /// The table's own invariants: the report lists exactly the tracked
    /// rows, in order, plus the placeholders; every end of every row is a
    /// host of this wiring; every inbox a row names is bound exactly once,
    /// by the row's receiver.
    fn check_table(w: &Wiring, placeholders: &[String]) {
        let tracked: Vec<&String> = w.rows.iter().filter(|r| r.tracked).map(|r| &r.name).collect();
        let listed: Vec<&String> = w.report.iter().filter(|n| !placeholders.contains(n)).collect();
        assert_eq!(listed, tracked);
        assert_eq!(w.report.len(), tracked.len() + placeholders.len());
        let hosts = w.hosts();
        for row in &w.rows {
            assert!(hosts.contains(&row.sender) && hosts.contains(&row.receiver), "{row:?}");
            let bound: Vec<&InboxRow> = w.inboxes.iter().filter(|i| i.name == row.inbox).collect();
            assert_eq!(bound.len(), 1, "inbox {:?} of {:?}", row.inbox, row.name);
            assert_eq!((bound[0].host, bound[0].id), (row.receiver, row.to), "{row:?}");
            // The owner, who runs the link's retransmit timer, is a node of its sending host.
            assert!(w.inboxes.iter().any(|i| i.id == row.owner && i.host == row.sender), "{row:?}");
            assert_eq!(w.rows.iter().filter(|r| r.key == row.key).count(), 1, "{row:?}");
        }
    }

    #[test]
    fn every_runner_reports_exactly_the_table() {
        let mut rng = rng_from_seed(3);
        let views: Vec<Tensor> = (0..DEVICES)
            .map(|_| Tensor::rand_uniform([2, 3, 32, 32], 0.0, 1.0, &mut rng))
            .collect();
        let labels = [0usize, 1];
        let names = |r: &SimReport| r.links.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        let (no_edge, edge) = (partition(false), partition(true));
        let staged =
            [Topology::from_partition(&no_edge), Topology::from_partition(&edge), chain(&no_edge)];
        // The legs route alike: the same verdicts, exits and device bytes.
        let legs = |r: &SimReport| {
            (r.predictions.clone(), r.exits.clone(), r.device_first_payload_bytes())
        };
        for topology in &staged {
            let mut seen = Vec::new();
            for elastic in [false, true] {
                let w = Wiring::of(topology, elastic);
                check_table(&w, &topology.placeholder_links);
                let cfg = HierarchyConfig {
                    elastic: elastic.then(ElasticConfig::fast),
                    ..HierarchyConfig::default()
                };
                let report = run_topology(topology, &views, &labels, &cfg).unwrap();
                assert_eq!(names(&report), w.report, "elastic={elastic}");
                seen.push(legs(&report));
            }
            assert_eq!(seen[0], seen[1]);
        }
        let placeholders = ["edge->cloud".to_string(), "edge->orchestrator".to_string()];
        assert!(Wiring::of(&staged[0], false).report.ends_with(&placeholders));

        let w = Wiring::of(&Topology::cloud_only(&edge), false);
        check_table(&w, &[]);
        let cfg = HierarchyConfig::default();
        let report = run_cloud_only_baseline(&edge, &views, &labels, &cfg).unwrap();
        assert_eq!(names(&report), w.report);
        assert_eq!(w.report, ["device0->cloud", "device1->cloud", "cloud->orchestrator"]);
    }

    #[test]
    fn the_declared_chain_routes_as_the_probed_epoch_zero() {
        let (no_edge, edge) = (partition(false), partition(true));
        let staged =
            [Topology::from_partition(&no_edge), Topology::from_partition(&edge), chain(&no_edge)];
        for topology in &staged {
            let blanks = compute_blanks(topology).unwrap();
            let live = [true, false];
            let declared = Routing::new(topology, &live, None);
            let probed = Routing::new(topology, &live, Some(&blanks));
            assert_eq!(declared.initial, probed.initial, "{:?}", probed.compat);
        }
    }
}
