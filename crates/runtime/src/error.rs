//! Error type for the distributed-hierarchy runtime.

use std::error::Error;
use std::fmt;

/// Error produced by the runtime simulator.
#[derive(Debug)]
pub enum RuntimeError {
    /// A tensor operation inside a node failed.
    Tensor(ddnn_tensor::TensorError),
    /// A frame could not be decoded (truncated or wrong type tag).
    Protocol {
        /// What went wrong.
        reason: String,
    },
    /// A channel endpoint hung up while the cluster was still running.
    Disconnected {
        /// The node whose link broke.
        node: String,
    },
    /// The cluster was configured inconsistently (e.g. failing a device
    /// that does not exist).
    Config {
        /// What is inconsistent.
        reason: String,
    },
    /// A node waited past its deadline for a frame that never arrived —
    /// the per-sample outcome of an unrecoverable loss under fault
    /// injection (the run itself keeps going; see `SampleOutcome`).
    Timeout {
        /// The node that gave up waiting.
        node: String,
        /// How long it waited, in milliseconds.
        waited_ms: u64,
    },
    /// An index into a report's per-sample fields was out of range.
    SampleIndex {
        /// The requested sample index.
        index: usize,
        /// Number of samples in the report.
        len: usize,
    },
    /// A frame failed its CRC-32 integrity check (or carried unknown
    /// flags): the bytes on the wire are not what the sender transmitted.
    /// Nodes discard such frames and let the reliability layer (ARQ
    /// retransmission, or deadline degradation) recover the loss.
    Corrupt {
        /// What the integrity check found.
        reason: String,
    },
    /// The runner's wiring (links, inboxes, collectors, tier IO) did not
    /// line up with the declared topology — an internal invariant
    /// violation surfaced as a typed error instead of a panic.
    Topology {
        /// Which invariant broke.
        reason: String,
    },
    /// A socket transport failed outside the fault-injection model: a bind,
    /// connect, spawn or handshake hit a real OS error. Unlike simulated
    /// loss (which the reliability layer absorbs), these surface before or
    /// during wiring and abort the run.
    Transport {
        /// The link or endpoint involved.
        endpoint: String,
        /// The underlying error.
        reason: String,
    },
    /// A peer *process* of the multi-process launcher misbehaved at the
    /// supervision layer: it hung past a handshake or reap deadline, died
    /// unexpectedly, or went silent on heartbeats. Unlike
    /// [`RuntimeError::Transport`] (a socket-level OS error), this is the
    /// launcher's typed verdict about a child process it supervises.
    Peer {
        /// The role process involved ("devices", "gateway", "tier0", …).
        role: String,
        /// What the supervisor observed.
        reason: String,
    },
}

/// A [`RuntimeError::Config`] for `reason`.
pub(crate) fn reject<T>(reason: impl Into<String>) -> Result<T> {
    Err(RuntimeError::Config { reason: reason.into() })
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Tensor(e) => write!(f, "tensor error in node computation: {e}"),
            RuntimeError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            RuntimeError::Disconnected { node } => write!(f, "link to {node} disconnected"),
            RuntimeError::Config { reason } => write!(f, "invalid cluster configuration: {reason}"),
            RuntimeError::Timeout { node, waited_ms } => {
                write!(f, "{node} timed out after {waited_ms} ms")
            }
            RuntimeError::SampleIndex { index, len } => {
                write!(f, "sample index {index} out of range for a report of {len} samples")
            }
            RuntimeError::Corrupt { reason } => write!(f, "corrupt frame: {reason}"),
            RuntimeError::Topology { reason } => write!(f, "topology wiring error: {reason}"),
            RuntimeError::Transport { endpoint, reason } => {
                write!(f, "transport error on {endpoint}: {reason}")
            }
            RuntimeError::Peer { role, reason } => {
                write!(f, "peer process {role}: {reason}")
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ddnn_tensor::TensorError> for RuntimeError {
    fn from(e: ddnn_tensor::TensorError) -> Self {
        RuntimeError::Tensor(e)
    }
}

/// Convenience alias for runtime results.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = RuntimeError::Protocol { reason: "bad tag".into() };
        assert!(e.to_string().contains("bad tag"));
        let e = RuntimeError::Disconnected { node: "cloud".into() };
        assert!(e.to_string().contains("cloud"));
        let e = RuntimeError::Timeout { node: "orchestrator".into(), waited_ms: 250 };
        assert!(e.to_string().contains("250 ms"));
        let e = RuntimeError::SampleIndex { index: 9, len: 4 };
        assert!(e.to_string().contains("index 9"));
        assert!(e.to_string().contains("4 samples"));
        let e: RuntimeError = ddnn_tensor::TensorError::Empty { op: "x" }.into();
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = RuntimeError::Corrupt { reason: "crc mismatch".into() };
        assert!(e.to_string().contains("crc mismatch"));
        let e = RuntimeError::Topology { reason: "missing tier io".into() };
        assert!(e.to_string().contains("missing tier io"));
        let e = RuntimeError::Transport { endpoint: "ack:gw".into(), reason: "refused".into() };
        assert!(e.to_string().contains("ack:gw"));
        assert!(e.to_string().contains("refused"));
        let e = RuntimeError::Peer { role: "tier0".into(), reason: "handshake timed out".into() };
        assert!(e.to_string().contains("tier0"));
        assert!(e.to_string().contains("handshake timed out"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
