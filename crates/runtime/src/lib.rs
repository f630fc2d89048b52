//! # ddnn-runtime
//!
//! A simulated distributed computing hierarchy for DDNN-RS: end devices,
//! a gateway (local aggregator) and a declarative chain of exit tiers
//! (edge hops, terminal cloud) run as separate threads, exchanging
//! *wire-encoded* frames over instrumented channels. The crate executes
//! the paper's staged inference protocol (§III-D) end to end and
//! *measures* the communication that the paper's Eq. 1 models —
//! integration tests assert that measured payload bytes match the
//! analytic model, and that distributed verdicts equal in-process
//! inference bit for bit.
//!
//! * [`message`] — the wire protocol (bit-packed binary features, f32
//!   class scores, raw-image baseline frames);
//! * [`link`] — instrumented channels with byte accounting and a latency
//!   model;
//! * [`node`] — the tier-generic node engine: one generic tier core
//!   parameterized by model section and escalation target subsumes the
//!   gateway, edge and cloud roles, all finalizing through one shared
//!   collector path. A section is a `ddnn-core` part frozen for
//!   inference (`FrozenDevice`, `FrozenGateway`, the `FrozenStage`
//!   feature stage) evaluated through its own `forward`; this crate holds
//!   no copy of the layers and calls none of them;
//! * [`topology`] — declarative hierarchy description
//!   ([`Topology`]/[`HierarchyBuilder`]): device fan-in, a chain of exit
//!   tiers, a terminal tier; and the run configuration
//!   ([`HierarchyConfig`], deadlines for graceful degradation, the
//!   open-loop arrival stream);
//! * [`chaos`] — the one seeded [`ChaosPlan`]: every injected fault is a
//!   `(when, target, action)` event — link impairments (drops,
//!   duplicates, delay, corruption, truncation, reordering, TCP severs),
//!   node crashes and membership churn, process kills and respawns;
//! * [`reliability`] — the recovery tier under deadline degradation:
//!   CRC-framed wire integrity ([`ReliabilityMode::Crc`]) and
//!   ack/retransmit with capped exponential backoff
//!   ([`ReliabilityMode::Arq`]);
//! * [`obs`] — the runtime observability layer: a lock-free counter
//!   registry snapshotting to JSON and span-style structured events
//!   (exits, deadlines, corruption, retransmits) behind a
//!   zero-cost-when-disabled [`ObsSink`];
//! * [`transport`] — the dataplane under [`link`]: every link sends
//!   through a [`transport::TransportConfig`]-selected transport (the
//!   default in-process channel, length-prefixed TCP, or UDP datagrams),
//!   so the same topology runs in one process or as real OS processes
//!   over localhost sockets ([`multiproc`]);
//! * `runner` (private; its entry points are re-exported below) — one
//!   wiring table per [`Topology`] (every link as a row: sender host,
//!   receiver host, inbox, crash key, report order), one `connect` step
//!   that binds and opens the rows a set of hosts owns, one `spawn_role`
//!   that builds a role's nodes, and one orchestrator body that drives,
//!   shuts down and reports — under [`run_topology`] (every role as
//!   threads), [`run_cloud_only_baseline`] (a one-tier wiring) and
//!   [`multiproc`];
//! * [`multiproc`] — the multi-process launcher and per-role host: the
//!   hierarchy's roles (devices, gateway, tiers) as separate OS
//!   processes wired over sockets — spawn, stdio handshake, supervision
//!   and respawn around that same path — folding per-role reports into
//!   one [`SimReport`];
//! * [`clock`] — the run's one clock ([`SimClock`], f64 milliseconds,
//!   started with the run's [`RunObs`]) and the one `drive` loop: every
//!   node and the sample pump is a core that decides on `(now, frame)`
//!   and reads no clock, and `drive` does every timed receive. A
//!   virtual-time simulator is a second `drive` over the same cores.
//!
//! ```no_run
//! use ddnn_core::{Ddnn, DdnnConfig};
//! use ddnn_runtime::{run_distributed_inference, HierarchyConfig};
//! use ddnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Ddnn::new(DdnnConfig::paper()); // train first in real use
//! let views: Vec<Tensor> =
//!     (0..6).map(|_| Tensor::zeros([4, 3, 32, 32])).collect();
//! let labels = vec![0usize; 4];
//! let report = run_distributed_inference(
//!     &model.partition(),
//!     &views,
//!     &labels,
//!     &HierarchyConfig::default(),
//! )?;
//! println!("measured device bytes: {}", report.device_payload_bytes());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
mod error;
pub mod link;
pub mod message;
pub mod node;
pub mod obs;
pub mod orchestrator;
pub mod reliability;
mod runner;
pub mod topology;
pub mod transport;

pub use chaos::{
    ChaosAction, ChaosEvent, ChaosPlan, ChaosTarget, ChaosWhen, Impairment, ProcTarget,
};
pub use clock::SimClock;
pub use error::{Result, RuntimeError};
pub use link::{LatencyModel, LinkStats};
pub use message::{crc32, CheckedFrame, Frame, NodeId, Payload, FLAG_RETRANSMIT, HEADER_BYTES};
pub use node::report::{ElasticSummary, SampleOutcome, SimReport};
pub use obs::{
    counters_json, Counter, JsonlSink, LinkCounters, MemorySink, ObsConfig, ObsEvent, ObsRegistry,
    ObsSink, RunObs,
};
pub use orchestrator::rebalance::{compute_routing, Compat, RoutingTable};
pub use orchestrator::reconfigure::{diff_routing, TopologyDiff};
pub use orchestrator::ElasticConfig;
pub use reliability::{ReliabilityConfig, ReliabilityMode};
pub use runner::multiproc;
pub use runner::{run_cloud_only_baseline, run_distributed_inference, run_topology};
pub use topology::{
    ArrivalProcess, DeadlineConfig, HierarchyBuilder, HierarchyConfig, StreamConfig, Topology,
};
pub use transport::TransportConfig;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, absorbing poison. A thread that panics while holding a lock
/// ends only its own node, whose hung-up links reach the rest of the run
/// as [`RuntimeError::Disconnected`]; every later holder of the lock (the
/// registry, a link's hold slot, a socket sender) keeps working instead of
/// panicking in turn.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
