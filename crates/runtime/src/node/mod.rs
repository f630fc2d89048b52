//! The node engine of the simulated hierarchy.
//!
//! The legacy `cluster` module hand-rolled three near-identical
//! aggregating nodes (gateway, edge, cloud). This tree replaces them with
//! one tier-generic implementation:
//!
//! * [`report`] — run reports ([`report::SimReport`]), read off the run's
//!   counter registry, and the samples each node degraded;
//! * [`collector`] — the shared fan-in state machine: deadlines, suspect
//!   marking, watermark GC and blank substitution, identical at every
//!   tier;
//! * [`device`] — the end-device core and blank-input signatures;
//! * [`tier`] — the generic `TierNode`: a collector, a model section, an
//!   `ExitPolicy` and a route read off its routing table. Gateway, edge,
//!   cloud and the §IV-H raw-offload baseline are all instantiations of
//!   it.
//!
//! Every node here is a core (`clock::Core`): it decides on the `now` and
//! the frame it is handed and reads no clock. The one `clock::drive` loop
//! waits for it. Which nodes exist and how
//! they are wired is decided by [`crate::topology::Topology`]; the crate's
//! runner starts each node's thread.

pub(crate) mod collector;
pub(crate) mod device;
pub mod report;
pub(crate) mod tier;
