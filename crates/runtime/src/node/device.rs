//! The end-device node and its blank-input signature.
//!
//! A *failed* device's thread never starts; the aggregating tiers
//! substitute what the device computes for a [`blank_view`], the
//! dataset's encoding of "object not present" — the mechanism behind the
//! paper's automatic fault tolerance (§IV-G).

use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{features_of, Frame, NodeId, Payload};
use crate::node::report::NodeReport;
use crate::obs::RunObs;
use crate::orchestrator::NodeControl;
use ddnn_core::{DdnnConfig, FrozenDevice, BLANK_INPUT_VALUE};
use ddnn_tensor::Tensor;
use std::sync::Arc;

/// The blank sensor view for the model's configured input geometry, as a
/// single-sample batch.
pub(crate) fn blank_view(config: &DdnnConfig) -> Tensor {
    let [c, h, w] = config.view_dims();
    Tensor::full([1, c, h, w], BLANK_INPUT_VALUE)
}

/// Runs a device node until shutdown, on its section frozen for
/// inference: each capture's map comes out packed and is cached as the
/// `Features` frame the device offloads. In `tolerant` mode (deadlines
/// active) protocol hiccups that faults make possible — duplicated stale
/// captures, offload requests racing a retried capture — are ignored
/// instead of aborting the node.
///
/// `capture_cap` bounds the per-seq feature-map cache at the run's
/// admission window (1 in lockstep: one sample in flight), so every
/// in-flight sample's offload can still be served out of order. The
/// lowest sequence numbers are evicted first.
///
/// The device routes by `control`: it applies what each ping carries and
/// answers it, plays dead while scheduled down (clearing its cached
/// captures on revival), discards frames from a previous topology epoch,
/// skips score uploads while the gateway is bypassed, and offloads feature
/// maps on `to_tiers[k]` for the tier `k` the routing names as the device
/// parent (`None` entries are links this run never opened).
#[allow(clippy::too_many_arguments)]
pub(crate) fn device_node(
    d: usize,
    part: FrozenDevice,
    mut inbox: NodeInbox,
    to_gateway: LinkSender,
    to_tiers: Vec<Option<LinkSender>>,
    mut control: NodeControl,
    tolerant: bool,
    capture_cap: usize,
    obs: Arc<RunObs>,
) -> Result<NodeReport> {
    let mut cache: std::collections::BTreeMap<u64, Frame> = std::collections::BTreeMap::new();
    let capture_cap = capture_cap.max(1);
    let captures = obs.registry().counter(&format!("node.device{d}.captures"));
    let offloads = obs.registry().counter(&format!("node.device{d}.offloads"));
    loop {
        let frame = inbox.recv()?;
        // Shutdown always lands, even on a device scheduled down — the
        // run is over and the thread must exit.
        if matches!(frame.payload, Payload::Shutdown) {
            return Ok(NodeReport::default());
        }
        if matches!(frame.payload, Payload::Ping { .. }) {
            if control.on_ping(&frame)?.revived {
                // The cached captures predate the outage and must not
                // feed a new epoch's offload.
                cache.clear();
            }
            continue;
        }
        // Down: full silence — no pongs, no uploads. The membership layer
        // detects the outage from the missed heartbeats.
        if control.down || !control.admit(frame.seq) {
            continue;
        }
        match frame.payload {
            Payload::Capture { view } => {
                if tolerant {
                    // A duplicated or jittered capture for an older sample
                    // must not roll the cache window backwards: once the
                    // window is full, captures below its floor are dead on
                    // arrival (with the legacy single slot this is exactly
                    // the old "never replace latest with older" rule).
                    if cache.len() >= capture_cap {
                        if let Some((&oldest, _)) = cache.first_key_value() {
                            if frame.seq < oldest {
                                continue;
                            }
                        }
                    }
                }
                // The capture carries its own geometry; batch it as-is.
                let mut dims = vec![1];
                dims.extend_from_slice(view.dims());
                let batch = view.reshape(dims)?;
                let (map, scores) = part.forward(&batch)?;
                let features = Frame::new(frame.seq, NodeId::Device(d as u8), features_of(&map)?);
                cache.insert(frame.seq, features);
                while cache.len() > capture_cap {
                    cache.pop_first();
                }
                captures.incr();
                // While the gateway is bypassed its score aggregation is
                // pointless: the orchestrator broadcasts the offload
                // request itself and the sample goes straight to the
                // feature chain.
                if !control.routing.gateway_bypass {
                    to_gateway.send(&Frame::new(
                        frame.seq,
                        NodeId::Device(d as u8),
                        Payload::Scores { scores: scores.data().to_vec() },
                    ))?;
                }
            }
            Payload::OffloadRequest => {
                // The feature sink under the current routing: the device
                // parent's link. An orphaned device (no live compatible
                // tier) simply drops the request.
                let sink = control.routing.device_parent.and_then(|k| to_tiers[k].as_ref());
                match cache.get(&frame.seq) {
                    Some(features) => {
                        if let Some(sink) = sink {
                            offloads.incr();
                            sink.send(features)?;
                        }
                    }
                    None if tolerant => {} // stale or premature request under faults
                    None => match cache.last_key_value() {
                        None => {
                            return Err(RuntimeError::Protocol {
                                reason: format!("device {d}: offload request before any capture"),
                            })
                        }
                        Some((seq, _)) => {
                            return Err(RuntimeError::Protocol {
                                reason: format!(
                                    "device {d}: offload for sample {} but latest is {seq}",
                                    frame.seq
                                ),
                            })
                        }
                    },
                }
            }
            other => {
                return Err(RuntimeError::Protocol {
                    reason: format!("device {d}: unexpected payload {other:?}"),
                })
            }
        }
    }
}
