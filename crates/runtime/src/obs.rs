//! Runtime observability: a lock-free metric registry and span-style
//! structured events behind a zero-cost-when-disabled sink.
//!
//! The subsystem has two independent halves:
//!
//! * **Counters** — every tally of a run is one named atomic [`Counter`]
//!   in the run's [`ObsRegistry`], created on first use and incremented
//!   lock-free through the [`Arc`] its user holds. A link's traffic is
//!   nine such cells, `link.{link}.{field}`, bundled as [`LinkCounters`]
//!   whose [`snapshot`](LinkCounters::snapshot) is the [`LinkStats`] view
//!   the report lists; per-node tallies are `node.{node}.*`, run-wide ones
//!   `run.*`, and the dataplane books `transport.{channel,tcp,udp}.*`
//!   (frames/bytes at the wire crossing, which on a clean run reconcile
//!   exactly with the per-link cells — see [`transport`](crate::transport)).
//!   [`ObsRegistry::snapshot`] is the one sorted `(name, value)` list
//!   every report field is read from, and what a role process of a
//!   multi-process run ships to its launcher.
//! * **Events** — structured timeline records ([`ObsEvent`]) emitted
//!   through an [`ObsSink`]. With no sink installed (the default),
//!   [`RunObs::emit`] is a single untaken branch: the event value is
//!   never even constructed, because emission sites pass a closure.
//!
//! Sinks: [`JsonlSink`] appends one JSON object per line to a file;
//! [`MemorySink`] buffers events for tests and examples.

use crate::clock::SimClock;
use crate::link::LinkStats;
use crate::lock;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One lock-free metric cell. All operations are `Relaxed`: counters are
/// monotone tallies read only at snapshot time (after the run's threads
/// have joined), so no cross-cell ordering is required.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the cell.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The cell's current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The traffic cells of one directed link: nine registry counters named
/// `link.{link}.{field}` after the [`LinkStats`] fields. Senders and the
/// ARQ machinery increment them directly (no mutex on the send path);
/// reports read them once via [`snapshot`](LinkCounters::snapshot) after
/// the run's threads have joined. `Default` gives free-standing cells,
/// for the unregistered [`link`](crate::link::link) helper.
#[derive(Debug, Default, Clone)]
pub struct LinkCounters {
    /// See [`LinkStats::frames`].
    pub frames: Arc<Counter>,
    /// See [`LinkStats::payload_bytes`].
    pub payload_bytes: Arc<Counter>,
    /// See [`LinkStats::retx_payload_bytes`].
    pub retx_payload_bytes: Arc<Counter>,
    /// See [`LinkStats::header_bytes`].
    pub header_bytes: Arc<Counter>,
    /// See [`LinkStats::frames_dropped`].
    pub frames_dropped: Arc<Counter>,
    /// See [`LinkStats::frames_duplicated`].
    pub frames_duplicated: Arc<Counter>,
    /// See [`LinkStats::frames_retransmitted`].
    pub frames_retransmitted: Arc<Counter>,
    /// See [`LinkStats::ack_bytes`].
    pub ack_bytes: Arc<Counter>,
    /// See [`LinkStats::frames_corrupted`].
    pub frames_corrupted: Arc<Counter>,
}

impl LinkCounters {
    /// The cells of the link `link` in `registry`, created on first use:
    /// every caller naming the same link shares them.
    pub fn registered(registry: &ObsRegistry, link: &str) -> Self {
        let cell = |field: &str| registry.counter(&format!("link.{link}.{field}"));
        LinkCounters {
            frames: cell("frames"),
            payload_bytes: cell("payload_bytes"),
            retx_payload_bytes: cell("retx_payload_bytes"),
            header_bytes: cell("header_bytes"),
            frames_dropped: cell("frames_dropped"),
            frames_duplicated: cell("frames_duplicated"),
            frames_retransmitted: cell("frames_retransmitted"),
            ack_bytes: cell("ack_bytes"),
            frames_corrupted: cell("frames_corrupted"),
        }
    }

    /// An immutable [`LinkStats`] view of the current cell values.
    pub fn snapshot(&self) -> LinkStats {
        LinkStats {
            frames: self.frames.get() as usize,
            payload_bytes: self.payload_bytes.get() as usize,
            retx_payload_bytes: self.retx_payload_bytes.get() as usize,
            header_bytes: self.header_bytes.get() as usize,
            frames_dropped: self.frames_dropped.get() as usize,
            frames_duplicated: self.frames_duplicated.get() as usize,
            frames_retransmitted: self.frames_retransmitted.get() as usize,
            ack_bytes: self.ack_bytes.get() as usize,
            frames_corrupted: self.frames_corrupted.get() as usize,
        }
    }
}

/// The run-wide metric registry: every counter of a run, by name.
/// Looking a cell up takes a short mutex (setup, teardown and rare
/// events only); incrementing a cell already held is lock-free.
#[derive(Debug, Default)]
pub struct ObsRegistry {
    cells: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl ObsRegistry {
    /// The counter registered under `name`, created on first use. Callers
    /// hold the returned [`Arc`] and increment it directly — the registry
    /// is only consulted again at snapshot time.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(lock(&self.cells).entry(name.to_string()).or_default())
    }

    /// A name-sorted `(name, value)` snapshot of every registered cell.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        lock(&self.cells).iter().map(|(n, c)| (n.clone(), c.get())).collect()
    }

    /// The snapshot rendered as one JSON object with sorted keys.
    pub fn snapshot_json(&self) -> String {
        counters_json(&self.snapshot())
    }
}

/// Renders a `(name, value)` list as a JSON object, in list order.
pub fn counters_json(counters: &[(String, u64)]) -> String {
    let body = counters
        .iter()
        .map(|(n, v)| format!("\"{}\": {v}", escape(n)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Escapes a string for embedding in a JSON literal. Names here are
/// link/node identifiers, so only the structural characters need care.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One structured timeline record. Events carry owned strings, but they
/// are only constructed when a sink is installed — emission sites pass a
/// closure to [`RunObs::emit`], so the disabled path allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// The orchestrator pushed a sample's captures toward the devices.
    SampleEnqueued {
        /// Sample sequence number.
        seq: u64,
    },
    /// A tier finalized a sample's fan-in; `substituted` slots were
    /// blanked (device silent past the deadline, or statically failed).
    TierAggregate {
        /// Tier node name.
        node: String,
        /// Sample sequence number.
        seq: u64,
        /// Fan-in slots filled with the blank item.
        substituted: usize,
    },
    /// A tier classified a sample at its exit (η within threshold).
    ExitTaken {
        /// Tier node name.
        node: String,
        /// Sample sequence number.
        seq: u64,
        /// Normalized entropy of the exit's softmax.
        eta: f32,
        /// The exit threshold the sample cleared.
        threshold: f32,
        /// Argmax class of the exit.
        prediction: usize,
    },
    /// A tier escalated a sample upward (η above threshold).
    Escalated {
        /// Tier node name.
        node: String,
        /// Sample sequence number.
        seq: u64,
        /// Normalized entropy of the exit's softmax.
        eta: f32,
        /// The exit threshold the sample failed to clear.
        threshold: f32,
    },
    /// A collector deadline fired: the sample was finalized by expiry
    /// instead of a complete fan-in.
    DeadlineFired {
        /// Tier node name.
        node: String,
        /// Sample sequence number.
        seq: u64,
    },
    /// The orchestrator's watchdog abandoned a sample.
    WatchdogTimeout {
        /// Sample sequence number.
        seq: u64,
        /// How long the orchestrator waited before giving up.
        waited_ms: u64,
    },
    /// An inbox discarded a frame that failed integrity or decode.
    FrameCorrupt {
        /// Receiving node (inbox) name.
        node: String,
    },
    /// An ARQ sender retransmitted an unacknowledged frame.
    Retransmit {
        /// Link name.
        link: String,
        /// Transport sequence number of the retransmitted frame.
        tseq: u32,
        /// Retransmission attempts so far, this one included.
        retries: u32,
    },
    /// An ARQ receiver emitted an acknowledgement datagram.
    AckSent {
        /// Link name (of the forward path being acked).
        link: String,
        /// Cumulative ack: highest tseq received in order.
        cum: u32,
        /// Gap sequence numbers NACKed in this datagram.
        nacks: usize,
    },
    /// The membership tracker admitted a node (back) into the topology.
    MemberJoin {
        /// Node name.
        node: String,
        /// Topology epoch installed by the reconfiguration.
        epoch: u64,
    },
    /// The membership tracker declared a node dead and removed it.
    MemberLeave {
        /// Node name.
        node: String,
        /// Topology epoch installed by the reconfiguration.
        epoch: u64,
    },
    /// The streaming pump refused an arrival: the admission window was
    /// full, so the sample was shed instead of queued.
    SampleShed {
        /// Sample sequence number.
        seq: u64,
        /// Samples in flight when the arrival was refused.
        inflight: usize,
    },
    /// A tier evaluated a micro-batch of completed samples in one tensor
    /// pass.
    BatchEvaluated {
        /// Tier node name.
        node: String,
        /// Samples in the batch.
        size: usize,
    },
    /// The multi-process supervisor killed a role process (scheduled
    /// chaos), or observed it die / go heartbeat-silent.
    ProcKilled {
        /// Role token ("devices", "gateway", "tier0", …).
        role: String,
        /// Sample index the supervisor was driving when the role died.
        at_sample: u64,
    },
    /// The multi-process supervisor respawned a role process and rewired
    /// the surviving processes to it.
    ProcRespawned {
        /// Role token ("devices", "gateway", "tier0", …).
        role: String,
        /// Sample index the role rejoined at.
        at_sample: u64,
    },
    /// A reconfiguration changed a surviving node's parent (a device's
    /// offload target, or a tier's escalation target).
    Reparent {
        /// The re-parented node.
        child: String,
        /// Previous parent ("none" when it had no route).
        from: String,
        /// New parent ("local-exit" for a forced-exit fallback, "none"
        /// when no route survives).
        to: String,
        /// Topology epoch installed by the reconfiguration.
        epoch: u64,
    },
}

impl ObsEvent {
    /// The event's type tag, as written to the JSON `event` field.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::SampleEnqueued { .. } => "sample_enqueued",
            ObsEvent::TierAggregate { .. } => "tier_aggregate",
            ObsEvent::ExitTaken { .. } => "exit_taken",
            ObsEvent::Escalated { .. } => "escalated",
            ObsEvent::DeadlineFired { .. } => "deadline_fired",
            ObsEvent::WatchdogTimeout { .. } => "watchdog_timeout",
            ObsEvent::FrameCorrupt { .. } => "frame_corrupt",
            ObsEvent::Retransmit { .. } => "retransmit",
            ObsEvent::AckSent { .. } => "ack_sent",
            ObsEvent::MemberJoin { .. } => "member_join",
            ObsEvent::MemberLeave { .. } => "member_leave",
            ObsEvent::SampleShed { .. } => "sample_shed",
            ObsEvent::BatchEvaluated { .. } => "batch_evaluated",
            ObsEvent::ProcKilled { .. } => "proc_killed",
            ObsEvent::ProcRespawned { .. } => "proc_respawned",
            ObsEvent::Reparent { .. } => "reparent",
        }
    }

    /// One JSON object (a timeline line), stamped `t_ms` milliseconds
    /// after run start.
    pub fn to_json(&self, t_ms: u64) -> String {
        use ObsEvent as E;
        let fields = match self {
            E::SampleEnqueued { seq } => format!(", \"seq\": {seq}"),
            E::TierAggregate { node, seq, substituted } => format!(
                ", \"node\": \"{}\", \"seq\": {seq}, \"substituted\": {substituted}",
                escape(node)
            ),
            E::ExitTaken { node, seq, eta, threshold, prediction } => format!(
                ", \"node\": \"{}\", \"seq\": {seq}, \"eta\": {eta:.6}, \
                 \"threshold\": {threshold:.6}, \"prediction\": {prediction}",
                escape(node)
            ),
            E::Escalated { node, seq, eta, threshold } => format!(
                ", \"node\": \"{}\", \"seq\": {seq}, \"eta\": {eta:.6}, \
                 \"threshold\": {threshold:.6}",
                escape(node)
            ),
            E::DeadlineFired { node, seq } => {
                format!(", \"node\": \"{}\", \"seq\": {seq}", escape(node))
            }
            E::WatchdogTimeout { seq, waited_ms } => {
                format!(", \"seq\": {seq}, \"waited_ms\": {waited_ms}")
            }
            E::FrameCorrupt { node } => format!(", \"node\": \"{}\"", escape(node)),
            E::Retransmit { link, tseq, retries } => {
                format!(
                    ", \"link\": \"{}\", \"tseq\": {tseq}, \"retries\": {retries}",
                    escape(link)
                )
            }
            E::AckSent { link, cum, nacks } => {
                format!(", \"link\": \"{}\", \"cum\": {cum}, \"nacks\": {nacks}", escape(link))
            }
            E::MemberJoin { node, epoch } | E::MemberLeave { node, epoch } => {
                format!(", \"node\": \"{}\", \"epoch\": {epoch}", escape(node))
            }
            E::SampleShed { seq, inflight } => {
                format!(", \"seq\": {seq}, \"inflight\": {inflight}")
            }
            E::BatchEvaluated { node, size } => {
                format!(", \"node\": \"{}\", \"size\": {size}", escape(node))
            }
            E::ProcKilled { role, at_sample } | E::ProcRespawned { role, at_sample } => {
                format!(", \"role\": \"{}\", \"at_sample\": {at_sample}", escape(role))
            }
            E::Reparent { child, from, to, epoch } => format!(
                ", \"child\": \"{}\", \"from\": \"{}\", \"to\": \"{}\", \"epoch\": {epoch}",
                escape(child),
                escape(from),
                escape(to)
            ),
        };
        format!("{{\"t_ms\": {t_ms}, \"event\": \"{}\"{fields}}}", self.kind())
    }
}

/// A consumer of timeline events. Implementations must be thread-safe:
/// every node thread and the orchestrator emit through the same sink.
pub trait ObsSink: Send + Sync {
    /// Records one event stamped `t_ms` milliseconds after run start.
    fn record(&self, t_ms: u64, event: &ObsEvent);
}

/// Writes each event as one JSON line (JSONL) to a buffered file.
/// Write errors after creation are swallowed — observability must never
/// fail a run.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the timeline file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlSink { out: Mutex::new(BufWriter::new(File::create(path)?)) })
    }
}

impl ObsSink for JsonlSink {
    fn record(&self, t_ms: u64, event: &ObsEvent) {
        let mut out = lock(&self.out);
        let _ = writeln!(out, "{}", event.to_json(t_ms));
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = lock(&self.out).flush();
    }
}

/// Buffers events in memory, for tests and examples.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<(u64, ObsEvent)>>,
}

impl MemorySink {
    /// A copy of every `(t_ms, event)` recorded so far.
    pub fn events(&self) -> Vec<(u64, ObsEvent)> {
        lock(&self.events).clone()
    }

    /// How many recorded events carry the given [`ObsEvent::kind`] tag.
    pub fn count_kind(&self, kind: &str) -> usize {
        lock(&self.events).iter().filter(|(_, e)| e.kind() == kind).count()
    }
}

impl ObsSink for MemorySink {
    fn record(&self, t_ms: u64, event: &ObsEvent) {
        lock(&self.events).push((t_ms, event.clone()));
    }
}

/// Observability configuration of one run.
#[derive(Clone, Default)]
pub struct ObsConfig {
    /// Timeline sink; `None` (the default) disables event emission
    /// entirely — counters still accumulate either way.
    pub sink: Option<Arc<dyn ObsSink>>,
}

impl fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsConfig")
            .field("sink", &if self.sink.is_some() { "enabled" } else { "disabled" })
            .finish()
    }
}

/// One run's observability state: the metric registry, the optional
/// event sink, and the run's clock — what events are stamped against and
/// every deadline of the run is measured on. Shared by every thread of a
/// run as an `Arc<RunObs>`.
pub struct RunObs {
    registry: ObsRegistry,
    sink: Option<Arc<dyn ObsSink>>,
    clock: SimClock,
}

impl fmt::Debug for RunObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunObs")
            .field("registry", &self.registry)
            .field("sink", &if self.sink.is_some() { "enabled" } else { "disabled" })
            .finish()
    }
}

impl RunObs {
    /// Fresh observability state for one run per `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        RunObs {
            registry: ObsRegistry::default(),
            sink: cfg.sink.clone(),
            clock: SimClock::start(),
        }
    }

    /// The run's clock, started with this state.
    pub(crate) fn clock(&self) -> SimClock {
        self.clock
    }

    /// A disabled instance (no sink; the registry still works) — the
    /// default for standalone links and unit tests.
    pub fn disabled() -> Arc<Self> {
        Arc::new(RunObs::new(&ObsConfig::default()))
    }

    /// The run's metric registry.
    pub fn registry(&self) -> &ObsRegistry {
        &self.registry
    }

    /// Whether a timeline sink is installed.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one timeline event. The closure runs only when a sink is
    /// installed, so a disabled run pays a single untaken branch — the
    /// event (and its strings) is never constructed.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> ObsEvent) {
        if let Some(sink) = &self.sink {
            let t_ms = self.clock.elapsed_ms_f64() as u64;
            sink.record(t_ms, &event());
        }
    }
}

/// A tier node's observability handles: the run handle for events, plus
/// this node's registered counters (incremented lock-free on the node
/// thread).
#[derive(Debug)]
pub(crate) struct NodeObs {
    /// The run-wide handle (events + registry).
    pub(crate) run: Arc<RunObs>,
    /// Samples classified at this node's exit.
    pub(crate) exits: Arc<Counter>,
    /// Samples escalated to the next tier.
    pub(crate) escalations: Arc<Counter>,
    /// Fan-ins finalized (complete or expired).
    pub(crate) aggregates: Arc<Counter>,
    /// Fan-ins finalized by deadline expiry.
    pub(crate) deadline_expiries: Arc<Counter>,
    /// Micro-batches of more than one sample and the samples in them —
    /// registered only under a batch budget, so a node that never batches
    /// leaves the counter snapshot untouched.
    pub(crate) batches: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl NodeObs {
    /// Registers (or re-attaches to) the `node.{name}.*` counters of a
    /// node whose micro-batches hold up to `batch_max` samples.
    pub(crate) fn for_node(run: &Arc<RunObs>, name: &str, batch_max: usize) -> Self {
        let cell = |what: &str| run.registry().counter(&format!("node.{name}.{what}"));
        NodeObs {
            batches: (batch_max > 1).then(|| (cell("batches"), cell("batched_samples"))),
            exits: cell("exits"),
            escalations: cell("escalations"),
            aggregates: cell("aggregates"),
            deadline_expiries: cell("deadline_expiries"),
            run: Arc::clone(run),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_snapshot_sorted() {
        let reg = ObsRegistry::default();
        let a = reg.counter("run.samples");
        let b = reg.counter("run.samples");
        a.add(3);
        b.incr();
        reg.counter("a.first").incr();
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![("a.first".to_string(), 1), ("run.samples".to_string(), 4)],
            "same name must resolve to the same cell, sorted on snapshot"
        );
    }

    #[test]
    fn the_registry_serves_after_a_thread_panics_holding_its_lock() {
        let reg = Arc::new(ObsRegistry::default());
        reg.counter("run.samples").incr();
        let held = Arc::clone(&reg);
        let died = std::thread::spawn(move || {
            let _guard = lock(&held.cells);
            panic!("a node dies holding the registry lock");
        })
        .join();
        assert!(died.is_err() && reg.cells.is_poisoned());
        reg.counter("run.samples").incr();
        assert_eq!(reg.snapshot(), vec![("run.samples".to_string(), 2)]);
    }

    #[test]
    fn link_counters_snapshot_is_a_linkstats_view() {
        let lc = LinkCounters::default();
        lc.frames.add(2);
        lc.payload_bytes.add(100);
        lc.retx_payload_bytes.add(40);
        lc.header_bytes.add(22);
        let s = lc.snapshot();
        assert_eq!((s.frames, s.payload_bytes, s.retx_payload_bytes), (2, 100, 40));
        assert_eq!(s.first_payload_bytes(), 60);
        assert_eq!(s.total_bytes(), 122);
    }

    #[test]
    fn link_cells_are_registry_counters_under_prefixed_names() {
        let reg = ObsRegistry::default();
        let lc = LinkCounters::registered(&reg, "device0->gateway");
        lc.ack_bytes.add(9);
        LinkCounters::registered(&reg, "device0->gateway").ack_bytes.add(1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 9, "one link is nine cells");
        let (name, v) = snap
            .iter()
            .find(|(n, _)| n.ends_with(".ack_bytes"))
            .expect("ack_bytes cell must be present");
        assert_eq!(name, "link.device0->gateway.ack_bytes");
        assert_eq!(*v, 10, "the same link name resolves to the same cells");
        assert!(reg.snapshot_json().contains("\"link.device0->gateway.ack_bytes\": 10"));
    }

    #[test]
    fn events_render_as_one_json_object_per_line() {
        let e = ObsEvent::ExitTaken {
            node: "gateway".to_string(),
            seq: 7,
            eta: 0.25,
            threshold: 0.8,
            prediction: 3,
        };
        let line = e.to_json(12);
        assert_eq!(
            line,
            "{\"t_ms\": 12, \"event\": \"exit_taken\", \"node\": \"gateway\", \
             \"seq\": 7, \"eta\": 0.250000, \"threshold\": 0.800000, \"prediction\": 3}"
        );
        let quoted = ObsEvent::FrameCorrupt { node: "a\"b".to_string() };
        assert!(quoted.to_json(0).contains("a\\\"b"));
        let join = ObsEvent::MemberJoin { node: "edge".to_string(), epoch: 4 };
        assert_eq!(
            join.to_json(3),
            "{\"t_ms\": 3, \"event\": \"member_join\", \"node\": \"edge\", \"epoch\": 4}"
        );
        let reparent = ObsEvent::Reparent {
            child: "device1".to_string(),
            from: "edge".to_string(),
            to: "cloud".to_string(),
            epoch: 5,
        };
        assert_eq!(
            reparent.to_json(0),
            "{\"t_ms\": 0, \"event\": \"reparent\", \"child\": \"device1\", \
             \"from\": \"edge\", \"to\": \"cloud\", \"epoch\": 5}"
        );
        let shed = ObsEvent::SampleShed { seq: 9, inflight: 8 };
        assert_eq!(
            shed.to_json(1),
            "{\"t_ms\": 1, \"event\": \"sample_shed\", \"seq\": 9, \"inflight\": 8}"
        );
        let batch = ObsEvent::BatchEvaluated { node: "edge".to_string(), size: 4 };
        assert_eq!(
            batch.to_json(2),
            "{\"t_ms\": 2, \"event\": \"batch_evaluated\", \"node\": \"edge\", \"size\": 4}"
        );
        let killed = ObsEvent::ProcKilled { role: "tier0".to_string(), at_sample: 3 };
        assert_eq!(
            killed.to_json(5),
            "{\"t_ms\": 5, \"event\": \"proc_killed\", \"role\": \"tier0\", \"at_sample\": 3}"
        );
        let respawned = ObsEvent::ProcRespawned { role: "gateway".to_string(), at_sample: 6 };
        assert_eq!(
            respawned.to_json(9),
            "{\"t_ms\": 9, \"event\": \"proc_respawned\", \"role\": \"gateway\", \
             \"at_sample\": 6}"
        );
    }

    #[test]
    fn disabled_runobs_never_builds_the_event() {
        let obs = RunObs::disabled();
        let mut built = false;
        obs.emit(|| {
            built = true;
            ObsEvent::SampleEnqueued { seq: 0 }
        });
        assert!(!built, "the event closure must not run without a sink");
        assert!(!obs.enabled());
    }

    #[test]
    fn memory_sink_records_and_counts_kinds() {
        let sink = Arc::new(MemorySink::default());
        let cfg = ObsConfig { sink: Some(Arc::clone(&sink) as Arc<dyn ObsSink>) };
        let obs = RunObs::new(&cfg);
        assert!(obs.enabled());
        obs.emit(|| ObsEvent::SampleEnqueued { seq: 1 });
        obs.emit(|| ObsEvent::FrameCorrupt { node: "gateway".to_string() });
        assert_eq!(sink.count_kind("sample_enqueued"), 1);
        assert_eq!(sink.count_kind("frame_corrupt"), 1);
        assert_eq!(sink.events().len(), 2);
    }
}
