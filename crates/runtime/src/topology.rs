//! Declarative hierarchy topologies.
//!
//! A [`Topology`] describes *which* nodes exist and how they chain —
//! device fan-in, the gateway's score aggregation, then a chain of
//! feature tiers ending in a terminal tier — while the runner turns it
//! into threads and links. The paper's configurations (a)–(e) and deeper
//! chains (device → gateway → edge → edge → cloud) are all instantiations
//! of this one shape: [`Topology::from_partition`] reproduces the legacy
//! gateway/(edge)/cloud wiring byte-for-byte, and [`HierarchyBuilder`]
//! assembles arbitrary chains.

use crate::chaos::{ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, Impairment};
use crate::error::{reject, Result, RuntimeError};
use crate::message::NodeId;
use crate::obs::ObsConfig;
use crate::orchestrator::ElasticConfig;
use crate::reliability::{ReliabilityConfig, ReliabilityMode};
use crate::transport::TransportConfig;
use ddnn_core::{
    AggregationScheme, CloudPart, ConvPBlock, Ddnn, DdnnConfig, DdnnPartition, DevicePart,
    EdgeConfig, ExitHead, ExitPoint, ExitThreshold, FeatureAggregator, GatewayPart, Precision,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::str::FromStr;

/// Configuration of a simulated hierarchy run. The default is the
/// fault-free in-process run: CRC-only links, default deadlines and exit
/// thresholds, no failed devices, no stream, no elastic orchestration.
#[derive(Debug, Clone, Default)]
pub struct HierarchyConfig {
    /// Local-exit entropy threshold (paper default: 0.8).
    pub local_threshold: ExitThreshold,
    /// Edge-exit threshold (used only by edge architectures).
    pub edge_threshold: ExitThreshold,
    /// Devices that have failed before the run starts (never respond) —
    /// the paper's *static* §IV-G fault model.
    pub failed_devices: Vec<usize>,
    /// Everything injected into the run mid-flight: one seeded schedule of
    /// `(when, target, action)` events — link impairments, node crashes
    /// and membership churn, process kills and respawns. The
    /// default ([`ChaosPlan::none`]) injects nothing; the run's deadlines
    /// make the hierarchy degrade instead of hanging, and
    /// [`ChaosPlan::validate`] says what each event needs.
    pub chaos: ChaosPlan,
    /// The budgets of deadline-based graceful degradation, which every run
    /// has: aggregators stop waiting for a sample's missing contributions
    /// and the orchestrator for its verdict. `None` (the default) means
    /// [`DeadlineConfig::default`].
    pub deadlines: Option<DeadlineConfig>,
    /// Transport reliability: how lost and corrupt frames are recovered.
    /// Every frame carries a CRC-32. The default
    /// ([`ReliabilityConfig::crc`]) discards corrupt frames and lets
    /// degradation recover the loss; [`ReliabilityConfig::arq`] adds
    /// ack/retransmit recovery under the sample deadline.
    pub reliability: ReliabilityConfig,
    /// Observability: the default records counters only (always on, lock
    /// free); attach an [`crate::ObsSink`] to also stream structured
    /// timeline events.
    pub obs: ObsConfig,
    /// Elastic orchestration: heartbeat membership and runtime topology
    /// reconfiguration. `None` (the default) keeps the topology static;
    /// required when the chaos plan schedules node Down/Up events.
    pub elastic: Option<ElasticConfig>,
    /// Open-loop streaming: a seeded arrival process, a bounded admission
    /// window with typed load-shedding, and micro-batched tier compute.
    /// `None` (the default) is lockstep — the same pump with a window of
    /// one, the next sample due when the previous one resolved.
    pub stream: Option<StreamConfig>,
    /// Which dataplane carries the frames: the default in-process
    /// channel (bit-identical to the legacy runner), length-prefixed
    /// TCP streams, or UDP datagrams (pair with
    /// [`ReliabilityConfig::arq`] to recover real datagram loss).
    pub transport: TransportConfig,
}

impl HierarchyConfig {
    /// The run's deadlines, `None` resolved to the defaults: the one place
    /// that reads `deadlines`.
    pub(crate) fn deadlines(&self) -> DeadlineConfig {
        self.deadlines.unwrap_or_default()
    }
}

/// Deadlines and retry bounds that make the hierarchy degrade gracefully
/// instead of hanging when frames are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// How long an aggregating node (gateway, edge, cloud) waits for the
    /// remaining per-device contributions of a sample before substituting
    /// blank signatures, in milliseconds.
    pub aggregation_ms: u64,
    /// How long the orchestrator waits for a verdict before re-sending the
    /// sample's captures, in milliseconds.
    pub watchdog_ms: u64,
    /// Capture retransmissions per sample before the orchestrator records
    /// the sample as timed out and moves on.
    pub max_retries: u32,
    /// Consecutive aggregation deadlines a device must miss before it is
    /// presumed dead and no longer waited for (it revives on its next
    /// frame).
    pub suspect_after: u32,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig { aggregation_ms: 250, watchdog_ms: 2000, max_retries: 2, suspect_after: 2 }
    }
}

impl DeadlineConfig {
    /// A tight configuration for tests: short waits, the same semantics.
    pub fn fast() -> Self {
        DeadlineConfig { aggregation_ms: 40, watchdog_ms: 400, max_retries: 2, suspect_after: 2 }
    }
}

/// How sample arrivals are spaced when the runner feeds the hierarchy
/// open-loop (see [`StreamConfig`]) instead of in per-sample lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. exponential inter-arrival gaps at
    /// `rate_per_s` samples per second, drawn from a dedicated stream
    /// seeded by `seed` — the arrival schedule is fully determined before
    /// the run starts, independent of thread scheduling.
    Poisson {
        /// Mean offered load, in samples per second.
        rate_per_s: f64,
        /// Seed of the inter-arrival random stream.
        seed: u64,
    },
    /// Deterministic fixed-rate arrivals: sample `i` is due exactly
    /// `i / rate_per_s` seconds after the pump starts.
    Fixed {
        /// Offered load, in samples per second.
        rate_per_s: f64,
    },
}

impl ArrivalProcess {
    /// The configured offered load, in samples per second.
    pub fn rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s, .. } | ArrivalProcess::Fixed { rate_per_s } => {
                rate_per_s
            }
        }
    }

    /// The precomputed arrival schedule: for each of `n` samples, its
    /// offset from the pump start in (fractional) milliseconds,
    /// non-decreasing.
    pub(crate) fn offsets_ms(&self, n: usize) -> Vec<f64> {
        match *self {
            ArrivalProcess::Fixed { rate_per_s } => {
                (0..n).map(|i| i as f64 * 1000.0 / rate_per_s).collect()
            }
            ArrivalProcess::Poisson { rate_per_s, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
                        t += -(1.0 - u).ln() * 1000.0 / rate_per_s;
                        t
                    })
                    .collect()
            }
        }
    }
}

/// Open-loop streaming configuration: an arrival process that offers load
/// regardless of completions, a bounded admission window with typed
/// load-shedding, and the tier-side micro-batch budget. `None` on
/// [`HierarchyConfig::stream`] (the default) is the closed-loop lockstep
/// feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// How arrivals are spaced over the run.
    pub arrival: ArrivalProcess,
    /// Maximum samples admitted but not yet resolved. An arrival that
    /// finds the window full is shed — a typed
    /// [`SampleOutcome::Shed`](crate::SampleOutcome::Shed), never a
    /// silent drop.
    pub queue_cap: usize,
    /// Maximum completed samples a tier drains from its inbox and
    /// evaluates as one batched tensor pass per iteration. `1` keeps
    /// per-sample evaluation.
    pub batch_max: usize,
}

impl StreamConfig {
    /// Validates rates and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for a non-finite or non-positive
    /// arrival rate, or a zero `queue_cap`/`batch_max`.
    pub fn validate(&self) -> Result<()> {
        let rate = self.arrival.rate_per_s();
        if !rate.is_finite() || rate <= 0.0 {
            return reject(format!("stream arrival rate {rate} must be finite and positive"));
        }
        if self.queue_cap == 0 {
            return reject("stream queue_cap must be at least 1");
        }
        if self.batch_max == 0 {
            return reject("stream batch_max must be at least 1");
        }
        Ok(())
    }
}

/// How a tier decides exits; resolved to a concrete
/// [`ddnn_core::ExitPolicy`] when the run starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TierExitRule {
    /// Entropy exit using the run's [`HierarchyConfig::edge_threshold`]
    /// (the legacy edge tier).
    ConfigEdgeThreshold,
    /// Entropy exit at a threshold fixed when the chain was built.
    Fixed(ExitThreshold),
    /// Terminal: always classifies, never escalates.
    Terminal,
}

/// One feature-aggregating tier of a topology chain.
pub(crate) struct TierSpec {
    /// Display/link name ("edge", "cloud", …).
    pub(crate) name: String,
    /// Wire identity.
    pub(crate) id: NodeId,
    /// The model section the tier evaluates.
    pub(crate) stage: CloudPart,
    /// Exit rule.
    pub(crate) rule: TierExitRule,
}

impl TierSpec {
    /// The partition's terminal cloud section.
    fn cloud(partition: &DdnnPartition) -> Self {
        TierSpec {
            name: "cloud".to_string(),
            id: NodeId::Cloud,
            stage: partition.cloud.clone(),
            rule: TierExitRule::Terminal,
        }
    }
}

/// Which dataplane a [`Topology`] wires.
pub(crate) enum Shape {
    /// The staged hierarchy of §III-D: devices, gateway, feature chain.
    Staged,
    /// The §IV-H cloud-offload baseline: every device ships its raw view
    /// to the single terminal tier, which runs the whole network.
    CloudOnly {
        /// The whole model, which the cloud evaluates itself.
        model: Box<Ddnn>,
    },
}

/// A declarative hierarchy: device fan-in, gateway score aggregation, then
/// a chain of feature tiers whose last member is terminal.
pub struct Topology {
    /// Staged hierarchy or cloud-offload baseline.
    pub(crate) shape: Shape,
    /// Model geometry shared by every node.
    pub(crate) config: DdnnConfig,
    /// End-device sections (fan-in size = `devices.len()`).
    pub(crate) devices: Vec<DevicePart>,
    /// The score-aggregating gateway.
    pub(crate) gateway: GatewayPart,
    /// The feature-tier chain; never empty, last entry terminal.
    pub(crate) tiers: Vec<TierSpec>,
    /// Zero-stat placeholder link names the legacy report format always
    /// lists even when the tier that would own them does not exist (the
    /// no-edge configs still report `edge->cloud` / `edge->orchestrator`).
    pub(crate) placeholder_links: Vec<String>,
}

impl Topology {
    /// The topology a partitioned model implies — device → gateway →
    /// (edge →) cloud, exactly the legacy `run_distributed_inference`
    /// shape, including the legacy report's placeholder edge links when no
    /// edge is present.
    pub fn from_partition(partition: &DdnnPartition) -> Self {
        let mut tiers = Vec::new();
        let mut placeholder_links = Vec::new();
        if let Some(edge) = &partition.edge {
            tiers.push(TierSpec {
                name: "edge".to_string(),
                id: NodeId::Edge,
                stage: edge.clone().into(),
                rule: TierExitRule::ConfigEdgeThreshold,
            });
        } else {
            placeholder_links.push("edge->cloud".to_string());
            placeholder_links.push("edge->orchestrator".to_string());
        }
        tiers.push(TierSpec::cloud(partition));
        Topology {
            shape: Shape::Staged,
            config: partition.config.clone(),
            devices: partition.devices.clone(),
            gateway: partition.gateway.clone(),
            tiers,
            placeholder_links,
        }
    }

    /// The §IV-H cloud-offload shape of a partitioned model: one terminal
    /// `cloud` tier fed raw views, no gateway and no device nodes.
    pub(crate) fn cloud_only(partition: &DdnnPartition) -> Self {
        Topology {
            shape: Shape::CloudOnly { model: Box::new(Ddnn::from_partition(partition.clone())) },
            config: partition.config.clone(),
            devices: partition.devices.clone(),
            gateway: partition.gateway.clone(),
            tiers: vec![TierSpec::cloud(partition)],
            placeholder_links: Vec::new(),
        }
    }

    /// Number of end devices feeding the hierarchy.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of feature tiers past the gateway (1 without an edge, 2 with
    /// one, more for built chains).
    pub fn num_exit_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Maps a verdict's wire `exit_tier` to the reported exit point: 0 is
    /// the gateway's local exit, the chain's last tier is the cloud, and
    /// every tier between reports as an edge exit.
    ///
    /// # Errors
    ///
    /// Returns a protocol error for a tier index past the chain.
    pub fn exit_point_of(&self, tier: u8) -> Result<ExitPoint> {
        let k = tier as usize;
        if k == 0 {
            Ok(ExitPoint::Local)
        } else if k == self.tiers.len() {
            Ok(ExitPoint::Cloud)
        } else if k < self.tiers.len() {
            Ok(ExitPoint::Edge)
        } else {
            Err(RuntimeError::Protocol { reason: format!("unknown exit tier {tier}") })
        }
    }
}

/// Assembles custom topologies: start from a partitioned model's devices
/// and gateway, append entropy-gated exit tiers, close with a terminal
/// tier.
///
/// The partition's own edge/cloud sections are *not* carried over — the
/// chain is exactly what the builder appends, which is how configurations
/// deeper than the paper's (device → gateway → edge → edge → cloud) are
/// expressed.
pub struct HierarchyBuilder {
    config: DdnnConfig,
    devices: Vec<DevicePart>,
    gateway: GatewayPart,
    tiers: Vec<TierSpec>,
}

impl HierarchyBuilder {
    /// Starts a chain from the device fan-in and gateway of a partitioned
    /// model.
    pub fn new(partition: &DdnnPartition) -> Self {
        HierarchyBuilder {
            config: partition.config.clone(),
            devices: partition.devices.clone(),
            gateway: partition.gateway.clone(),
            tiers: Vec::new(),
        }
    }

    /// Appends an entropy-gated exit tier (reported as an edge exit):
    /// samples under `threshold` exit here, everything else forwards to
    /// the next tier in the chain.
    pub fn exit_tier(
        mut self,
        name: &str,
        agg: FeatureAggregator,
        convs: Vec<ConvPBlock>,
        exit: ExitHead,
        threshold: ExitThreshold,
    ) -> Self {
        self.push_tier(name, agg, convs, exit, TierExitRule::Fixed(threshold));
        self
    }

    /// Appends the terminal always-classify tier that closes the chain.
    pub fn terminal_tier(
        mut self,
        name: &str,
        agg: FeatureAggregator,
        convs: Vec<ConvPBlock>,
        exit: ExitHead,
    ) -> Self {
        self.push_tier(name, agg, convs, exit, TierExitRule::Terminal);
        self
    }

    fn push_tier(
        &mut self,
        name: &str,
        agg: FeatureAggregator,
        convs: Vec<ConvPBlock>,
        exit: ExitHead,
        rule: TierExitRule,
    ) {
        let id = NodeId::Tier(self.tiers.len().min(usize::from(u8::MAX)) as u8);
        let stage = CloudPart { agg, convs, exit };
        self.tiers.push(TierSpec { name: name.to_string(), id, stage, rule });
    }

    /// Validates the chain and produces the topology.
    ///
    /// # Errors
    ///
    /// Returns a configuration error when the chain is empty, does not end
    /// in exactly one terminal tier, exceeds the wire format's 255-tier
    /// space, or uses duplicate/reserved/empty tier names.
    pub fn build(self) -> Result<Topology> {
        if self.tiers.is_empty() {
            return reject("a topology needs at least one (terminal) tier");
        }
        if self.tiers.len() > usize::from(u8::MAX) {
            return reject(format!(
                "{} tiers exceed the wire format's 255-tier space",
                self.tiers.len()
            ));
        }
        for (k, tier) in self.tiers.iter().enumerate() {
            let terminal = matches!(tier.rule, TierExitRule::Terminal);
            let last = k + 1 == self.tiers.len();
            if terminal != last {
                return reject(format!(
                    "tier '{}' must {} the chain (exactly the last tier is terminal)",
                    tier.name,
                    if terminal { "close" } else { "not close" },
                ));
            }
            if tier.name.is_empty() {
                return reject("tier names must be non-empty");
            }
            let reserved = ["gateway", "orchestrator", "sensor"];
            if reserved.contains(&tier.name.as_str()) || tier.name.starts_with("device") {
                return reject(format!("tier name '{}' is reserved", tier.name));
            }
            if self.tiers[..k].iter().any(|t| t.name == tier.name) {
                return reject(format!("duplicate tier name '{}'", tier.name));
            }
        }
        Ok(Topology {
            shape: Shape::Staged,
            config: self.config,
            devices: self.devices,
            gateway: self.gateway,
            tiers: self.tiers,
            placeholder_links: Vec::new(),
        })
    }
}

// --- Role manifest -------------------------------------------------------
//
// The multi-process launcher ships each role host everything it needs to
// rebuild its slice of the run: the seeded model geometry (weights are
// re-derived from the seed, so they are bit-identical in every process)
// and the run parameters that shape node behavior. Hand-rolled
// `key=value` lines — the whole config is scalars and two enums, and the
// format must stay stable across the stdio handshake without a serde
// dependency. Thresholds and chaos rates travel as f32 bit patterns so no
// decimal round-trip can perturb an exit decision or a fault roll.

/// The names the manifest spells each enum value by.
const AGGS: [(&str, AggregationScheme); 3] = [
    ("maxpool", AggregationScheme::MaxPool),
    ("avgpool", AggregationScheme::AvgPool),
    ("concat", AggregationScheme::Concat),
];
const PRECISIONS: [(&str, Precision); 2] =
    [("binary", Precision::Binary), ("float", Precision::Float)];
const MODES: [(&str, ReliabilityMode); 2] =
    [("crc", ReliabilityMode::Crc), ("arq", ReliabilityMode::Arq)];

/// The manifest name of `value`.
fn name_of<T: PartialEq>(names: &[(&'static str, T)], value: T) -> &'static str {
    names.iter().find(|(_, v)| *v == value).map_or("", |(name, _)| name)
}

/// Serializes the model + run configuration a role host needs. The
/// launcher validates before encoding, so only multiproc-compatible
/// configurations ever travel. Of the chaos plan the seed, the links
/// impairment and the `AfterFrames` crash points do: every role rolls
/// its own links' streams and counts its own nodes' frames (node Down/Up
/// reach the roles as pings, process kills are the launcher's own).
pub(crate) fn encode_role_manifest(model: &DdnnConfig, cfg: &HierarchyConfig) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let dl = cfg.deadlines();
    writeln!(s, "num_devices={}", model.num_devices).unwrap();
    writeln!(s, "num_classes={}", model.num_classes).unwrap();
    writeln!(s, "device_filters={}", model.device_filters).unwrap();
    writeln!(s, "local_agg={}", name_of(&AGGS, model.local_agg)).unwrap();
    writeln!(s, "cloud_agg={}", name_of(&AGGS, model.cloud_agg)).unwrap();
    match &model.edge {
        Some(e) => writeln!(s, "edge={}:{}", e.filters, name_of(&AGGS, e.agg)).unwrap(),
        None => writeln!(s, "edge=none").unwrap(),
    }
    writeln!(s, "cloud_filters={},{}", model.cloud_filters[0], model.cloud_filters[1]).unwrap();
    writeln!(s, "cloud_precision={}", name_of(&PRECISIONS, model.cloud_precision)).unwrap();
    writeln!(s, "seed={}", model.seed).unwrap();
    writeln!(s, "local_threshold={:08x}", cfg.local_threshold.value().to_bits()).unwrap();
    writeln!(s, "edge_threshold={:08x}", cfg.edge_threshold.value().to_bits()).unwrap();
    writeln!(s, "aggregation_ms={}", dl.aggregation_ms).unwrap();
    writeln!(s, "watchdog_ms={}", dl.watchdog_ms).unwrap();
    writeln!(s, "max_retries={}", dl.max_retries).unwrap();
    writeln!(s, "suspect_after={}", dl.suspect_after).unwrap();
    writeln!(s, "reliability={}", name_of(&MODES, cfg.reliability.mode)).unwrap();
    writeln!(s, "transport={}", cfg.transport.name()).unwrap();
    if !cfg.failed_devices.is_empty() {
        let failed: Vec<String> = cfg.failed_devices.iter().map(usize::to_string).collect();
        writeln!(s, "failed_devices={}", failed.join(",")).unwrap();
    }
    if let Some(el) = cfg.elastic {
        writeln!(s, "elastic={},{}", el.heartbeat_ms, el.suspect_after).unwrap();
    }
    if let Some(stream) = &cfg.stream {
        let (kind, seed) = match stream.arrival {
            ArrivalProcess::Fixed { .. } => ("fixed", 0),
            ArrivalProcess::Poisson { seed, .. } => ("poisson", seed),
        };
        writeln!(s, "stream={kind}").unwrap();
        writeln!(s, "stream_rate={:016x}", stream.arrival.rate_per_s().to_bits()).unwrap();
        writeln!(s, "stream_seed={seed}").unwrap();
        writeln!(s, "queue_cap={}", stream.queue_cap).unwrap();
        writeln!(s, "batch_max={}", stream.batch_max).unwrap();
    }
    let imp = cfg.chaos.impairment();
    let crashes: Vec<String> = cfg.chaos.crash_points().map(|(n, k)| format!("{n}:{k}")).collect();
    if imp.is_active() || !crashes.is_empty() {
        writeln!(s, "chaos_seed={}", cfg.chaos.seed).unwrap();
    }
    if imp.is_active() {
        for (what, p) in imp.rates() {
            writeln!(s, "chaos_{what}={:08x}", p.to_bits()).unwrap();
        }
        writeln!(s, "chaos_delay_ms={}", imp.delay_ms).unwrap();
    }
    if !crashes.is_empty() {
        writeln!(s, "chaos_crashes={}", crashes.join(",")).unwrap();
    }
    s
}

/// The per-spawn parameter a role host reads from the *optional*
/// manifest key the launcher appends on a respawn: the ARQ
/// transport-sequence base of this process generation, so a respawned
/// sender's fresh frames are not mistaken for duplicates of its
/// predecessor's. An absent key means generation 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RoleExtras {
    /// Starting offset of every ARQ sender's transport sequence space.
    pub(crate) tseq_base: u32,
}

/// Decodes a role manifest back into the model geometry, the hierarchy
/// configuration a role host runs under, and the per-spawn
/// [`RoleExtras`].
///
/// # Errors
///
/// Returns a protocol error for missing keys or malformed values.
pub(crate) fn decode_role_manifest(
    text: &str,
) -> Result<(DdnnConfig, HierarchyConfig, RoleExtras)> {
    let mut m = Fields(HashMap::new());
    for line in text.lines().map(str::trim).filter(|line| !line.is_empty()) {
        let (k, v) = line.split_once('=').ok_or_else(|| RuntimeError::Protocol {
            reason: format!("manifest line without '=': {line:?}"),
        })?;
        m.0.insert(k, v);
    }
    let edge = match m.get("edge")? {
        "none" => None,
        _ => {
            let (filters, agg) = m.split("edge", ':')?;
            Some(EdgeConfig { filters: parse("edge", filters)?, agg: m.pick("edge", &AGGS, agg)? })
        }
    };
    let (cf0, cf1) = m.split("cloud_filters", ',')?;
    let model = DdnnConfig {
        num_devices: m.num("num_devices")?,
        num_classes: m.num("num_classes")?,
        device_filters: m.num("device_filters")?,
        local_agg: m.pick("local_agg", &AGGS, m.get("local_agg")?)?,
        cloud_agg: m.pick("cloud_agg", &AGGS, m.get("cloud_agg")?)?,
        edge,
        cloud_filters: [parse("cloud_filters", cf0)?, parse("cloud_filters", cf1)?],
        cloud_precision: m.pick("cloud_precision", &PRECISIONS, m.get("cloud_precision")?)?,
        seed: m.num("seed")?,
    };
    // Optional keys: written only when the feature they carry is on, so
    // an absent one falls back to zero instead of erroring. Each parses at
    // its field's type, so an out-of-range value is refused, not wrapped.
    let imp = Impairment {
        drop: m.opt_f32("chaos_drop")?,
        duplicate: m.opt_f32("chaos_duplicate")?,
        delay_ms: m.opt("chaos_delay_ms")?,
        corrupt: m.opt_f32("chaos_corrupt")?,
        truncate: m.opt_f32("chaos_truncate")?,
        reorder: m.opt_f32("chaos_reorder")?,
        sever: m.opt_f32("chaos_sever")?,
    };
    let mut chaos = ChaosPlan { seed: m.opt("chaos_seed")?, events: Vec::new() };
    if imp.is_active() {
        chaos = chaos.with(ChaosWhen::Start, ChaosTarget::Links, ChaosAction::Impair(imp));
    }
    for crash in m.0.get("chaos_crashes").into_iter().flat_map(|v| v.split(',')) {
        let (node, after) =
            crash.split_once(':').ok_or_else(|| malformed("chaos_crashes", crash))?;
        let target = match node.strip_prefix("device").and_then(|d| d.parse().ok()) {
            Some(d) => ChaosTarget::Device(d),
            None if node == "gateway" => ChaosTarget::Gateway,
            None => ChaosTarget::Tier(node.to_string()),
        };
        let when = ChaosWhen::AfterFrames(parse("chaos_crashes", after)?);
        chaos = chaos.with(when, target, ChaosAction::Down);
    }
    let failed_devices = (m.0.get("failed_devices").copied().unwrap_or("").split(','))
        .filter(|d| !d.is_empty())
        .map(|d| parse("failed_devices", d))
        .collect::<Result<_>>()?;
    let elastic = match m.0.contains_key("elastic") {
        false => None,
        true => {
            let (hb, suspect) = m.split("elastic", ',')?;
            let (heartbeat_ms, suspect_after) = (parse("elastic", hb)?, parse("elastic", suspect)?);
            Some(ElasticConfig { heartbeat_ms, suspect_after })
        }
    };
    let stream = match m.0.get("stream").copied() {
        None => None,
        Some(kind) => {
            let bits = m.get("stream_rate")?;
            let rate_per_s = u64::from_str_radix(bits, 16)
                .map(f64::from_bits)
                .map_err(|_| malformed("stream_rate", bits))?;
            let arrival = match kind {
                "fixed" => ArrivalProcess::Fixed { rate_per_s },
                "poisson" => ArrivalProcess::Poisson { rate_per_s, seed: m.num("stream_seed")? },
                other => return Err(unknown("stream", other)),
            };
            Some(StreamConfig {
                arrival,
                queue_cap: m.num("queue_cap")?,
                batch_max: m.num("batch_max")?,
            })
        }
    };
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(m.f32("local_threshold")?),
        edge_threshold: ExitThreshold::new(m.f32("edge_threshold")?),
        deadlines: Some(DeadlineConfig {
            aggregation_ms: m.num("aggregation_ms")?,
            watchdog_ms: m.num("watchdog_ms")?,
            max_retries: m.num("max_retries")?,
            suspect_after: m.num("suspect_after")?,
        }),
        reliability: ReliabilityConfig {
            mode: m.pick("reliability", &MODES, m.get("reliability")?)?,
        },
        transport: m.get("transport")?.parse()?,
        chaos,
        failed_devices,
        elastic,
        stream,
        ..HierarchyConfig::default()
    };
    Ok((model, cfg, RoleExtras { tseq_base: m.opt("tseq_base")? }))
}

/// A manifest's fields, by key.
struct Fields<'a>(HashMap<&'a str, &'a str>);

impl<'a> Fields<'a> {
    /// A required field's text.
    fn get(&self, k: &str) -> Result<&'a str> {
        let missing =
            || RuntimeError::Protocol { reason: format!("manifest is missing key {k:?}") };
        self.0.get(k).copied().ok_or_else(missing)
    }

    /// A required field, parsed at its type.
    fn num<T: FromStr>(&self, k: &str) -> Result<T> {
        parse(k, self.get(k)?)
    }

    /// An optional field: absent is zero.
    fn opt<T: FromStr + Default>(&self, k: &str) -> Result<T> {
        self.0.get(k).map_or(Ok(T::default()), |v| parse(k, v))
    }

    /// A required f32.
    fn f32(&self, k: &str) -> Result<f32> {
        parse_f32(k, self.get(k)?)
    }

    /// An optional f32: absent is zero.
    fn opt_f32(&self, k: &str) -> Result<f32> {
        self.0.get(k).map_or(Ok(0.0), |v| parse_f32(k, v))
    }

    /// A required field of two parts around `sep`.
    fn split(&self, k: &str, sep: char) -> Result<(&'a str, &'a str)> {
        let v = self.get(k)?;
        v.split_once(sep).ok_or_else(|| malformed(k, v))
    }

    /// The value `names` spells as `v`.
    fn pick<T: Copy>(&self, k: &str, names: &[(&str, T)], v: &str) -> Result<T> {
        names.iter().find(|(name, _)| *name == v).map(|&(_, t)| t).ok_or_else(|| unknown(k, v))
    }
}

fn malformed(k: &str, v: &str) -> RuntimeError {
    RuntimeError::Protocol { reason: format!("manifest key {k:?} has malformed value {v:?}") }
}

fn unknown(k: &str, v: &str) -> RuntimeError {
    RuntimeError::Protocol { reason: format!("manifest key {k:?} has unknown value {v:?}") }
}

fn parse<T: FromStr>(k: &str, v: &str) -> Result<T> {
    v.parse().map_err(|_| malformed(k, v))
}

/// An f32, sent as its bit pattern in hex.
fn parse_f32(k: &str, v: &str) -> Result<f32> {
    u32::from_str_radix(v, 16).map(f32::from_bits).map_err(|_| malformed(k, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_core::{AggregationScheme, Ddnn, EdgeConfig, Precision};
    use ddnn_tensor::rng::rng_from_seed;
    use rand::rngs::StdRng;

    fn partition(edge: bool) -> DdnnPartition {
        let cfg = DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            edge: edge.then_some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
            ..DdnnConfig::default()
        };
        Ddnn::new(cfg).partition()
    }

    fn spare_tier(
        rng: &mut StdRng,
        in_ch: usize,
        classes: usize,
    ) -> (FeatureAggregator, Vec<ConvPBlock>, ExitHead) {
        let agg = FeatureAggregator::new(AggregationScheme::AvgPool, 1);
        let conv = ConvPBlock::new(in_ch, 4, Precision::Binary, rng);
        let exit = ExitHead::new(4 * 8 * 8, classes, Precision::Binary, rng);
        (agg, vec![conv], exit)
    }

    #[test]
    fn from_partition_mirrors_the_legacy_shapes() {
        let no_edge = Topology::from_partition(&partition(false));
        assert_eq!(no_edge.num_exit_tiers(), 1);
        assert_eq!(no_edge.placeholder_links, vec!["edge->cloud", "edge->orchestrator"]);
        assert_eq!(no_edge.exit_point_of(0).unwrap(), ExitPoint::Local);
        assert_eq!(no_edge.exit_point_of(1).unwrap(), ExitPoint::Cloud);
        assert!(no_edge.exit_point_of(2).is_err());

        let edge = Topology::from_partition(&partition(true));
        assert_eq!(edge.num_exit_tiers(), 2);
        assert!(edge.placeholder_links.is_empty());
        assert_eq!(edge.exit_point_of(1).unwrap(), ExitPoint::Edge);
        assert_eq!(edge.exit_point_of(2).unwrap(), ExitPoint::Cloud);
        assert_eq!(edge.tiers[0].name, "edge");
        assert_eq!(edge.tiers[1].name, "cloud");
    }

    #[test]
    fn builder_rejects_malformed_chains() {
        let p = partition(false);
        let mut rng = rng_from_seed(3);
        let classes = p.config.num_classes;

        // No terminal tier at all.
        assert!(HierarchyBuilder::new(&p).build().is_err());
        let (agg, convs, exit) = spare_tier(&mut rng, 2 * p.config.device_filters, classes);
        assert!(HierarchyBuilder::new(&p)
            .exit_tier("mid", agg, convs, exit, ExitThreshold::new(0.5))
            .build()
            .is_err());

        // Reserved and duplicate names.
        let (agg, convs, exit) = spare_tier(&mut rng, 2 * p.config.device_filters, classes);
        assert!(HierarchyBuilder::new(&p)
            .terminal_tier("gateway", agg, convs, exit)
            .build()
            .is_err());
        let (agg1, convs1, exit1) = spare_tier(&mut rng, 2 * p.config.device_filters, classes);
        let (agg2, convs2, exit2) = spare_tier(&mut rng, 4, classes);
        assert!(HierarchyBuilder::new(&p)
            .exit_tier("mid", agg1, convs1, exit1, ExitThreshold::new(0.5))
            .terminal_tier("mid", agg2, convs2, exit2)
            .build()
            .is_err());
    }

    #[test]
    fn manifest_round_trips_chaos_and_extras() {
        let model = partition(true).config.clone();
        let cfg = HierarchyConfig {
            deadlines: Some(DeadlineConfig::fast()),
            transport: crate::transport::TransportConfig::Tcp,
            failed_devices: vec![1],
            elastic: Some(ElasticConfig { heartbeat_ms: 150, suspect_after: 3 }),
            stream: Some(StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s: 1e3 / 3.0, seed: 7 },
                queue_cap: 5,
                batch_max: 3,
            }),
            chaos: ChaosPlan::links(
                99,
                Impairment {
                    drop: 0.125,
                    duplicate: 0.0625,
                    delay_ms: 2,
                    corrupt: 0.1,
                    truncate: 1e-7,
                    reorder: 0.3,
                    sever: 0.25,
                },
            )
            .with(ChaosWhen::AfterFrames(5), ChaosTarget::Device(1), ChaosAction::Down)
            .with(ChaosWhen::AfterFrames(0), ChaosTarget::Gateway, ChaosAction::Down)
            .with(
                ChaosWhen::AfterFrames(12),
                ChaosTarget::Tier("edge".into()),
                ChaosAction::Down,
            ),
            ..HierarchyConfig::default()
        };
        let mut manifest = encode_role_manifest(&model, &cfg);
        manifest.push_str("tseq_base=1048576\n");
        let (m2, c2, extras) = decode_role_manifest(&manifest).unwrap();
        assert_eq!(m2.num_devices, model.num_devices);
        assert_eq!(c2.chaos, cfg.chaos, "rates as exact bits, crash points in plan order");
        assert_eq!(c2.stream, cfg.stream, "the arrival rate must survive as exact bits");
        assert_eq!(c2.failed_devices, cfg.failed_devices);
        assert_eq!(c2.elastic, cfg.elastic);
        assert_eq!(extras.tseq_base, 1048576);
        // A value past its field's range is refused, not truncated (2^32
        // would wrap to generation 0's base and to no delay).
        for key in ["tseq_base", "chaos_delay_ms"] {
            let err = decode_role_manifest(&format!("{manifest}{key}=4294967296\n")).unwrap_err();
            assert!(matches!(err, RuntimeError::Protocol { .. }), "{key}: {err}");
        }
        // A crash point is a node and a frame count.
        for crashes in ["device1", "edge:-1", "gateway:3,"] {
            let err = decode_role_manifest(&format!("{manifest}chaos_crashes={crashes}\n"));
            assert!(matches!(err, Err(RuntimeError::Protocol { .. })), "{crashes}: {err:?}");
        }
        // Every frame is CRC-checked: no manifest names an unchecked wire.
        let unchecked = manifest.replace("reliability=crc", "reliability=legacy");
        assert_ne!(unchecked, manifest);
        let err = decode_role_manifest(&unchecked).unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol { .. }), "{err}");
        // A manifest without the optional keys decodes to inactive chaos,
        // lockstep, no failures, a static topology and default extras.
        let plain = encode_role_manifest(&model, &HierarchyConfig::default());
        assert!(!plain.contains("chaos"));
        let (_, c3, e3) = decode_role_manifest(&plain).unwrap();
        assert!(!c3.chaos.is_active());
        assert!(c3.stream.is_none() && c3.failed_devices.is_empty() && c3.elastic.is_none());
        assert_eq!(e3, RoleExtras::default());
    }

    #[test]
    fn fixed_arrivals_are_evenly_spaced() {
        let offs = ArrivalProcess::Fixed { rate_per_s: 200.0 }.offsets_ms(4);
        assert_eq!(offs, vec![0.0, 5.0, 10.0, 15.0]);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_nondecreasing() {
        let p = ArrivalProcess::Poisson { rate_per_s: 100.0, seed: 9 };
        let a = p.offsets_ms(500);
        assert_eq!(a, p.offsets_ms(500), "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "offsets never go backwards");
        let b = ArrivalProcess::Poisson { rate_per_s: 100.0, seed: 10 }.offsets_ms(500);
        assert_ne!(a, b, "different seed, different schedule");
        // Mean gap of 500 exponential draws at 100/s is near 10 ms.
        let mean_gap = a.last().unwrap() / 500.0;
        assert!((5.0..20.0).contains(&mean_gap), "mean gap {mean_gap} ms at 100/s");
    }

    #[test]
    fn stream_config_validation_rejects_degenerate_values() {
        let ok = StreamConfig {
            arrival: ArrivalProcess::Fixed { rate_per_s: 50.0 },
            queue_cap: 8,
            batch_max: 4,
        };
        assert!(ok.validate().is_ok());
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s: rate, seed: 0 },
                ..ok
            };
            assert!(bad.validate().is_err(), "rate {rate} must be rejected");
        }
        assert!(StreamConfig { queue_cap: 0, ..ok }.validate().is_err());
        assert!(StreamConfig { batch_max: 0, ..ok }.validate().is_err());
    }

    #[test]
    fn builder_accepts_a_well_formed_chain() {
        let p = partition(false);
        let mut rng = rng_from_seed(3);
        let classes = p.config.num_classes;
        let (agg1, convs1, exit1) = spare_tier(&mut rng, 2 * p.config.device_filters, classes);
        let (agg2, convs2, exit2) = spare_tier(&mut rng, 4, classes);
        let topo = HierarchyBuilder::new(&p)
            .exit_tier("mid", agg1, convs1, exit1, ExitThreshold::new(0.5))
            .terminal_tier("core", agg2, convs2, exit2)
            .build()
            .unwrap();
        assert_eq!(topo.num_exit_tiers(), 2);
        assert_eq!(topo.tiers[0].id, NodeId::Tier(0));
        assert_eq!(topo.tiers[1].id, NodeId::Tier(1));
        assert!(topo.placeholder_links.is_empty());
        assert_eq!(topo.exit_point_of(2).unwrap(), ExitPoint::Cloud);
    }
}
