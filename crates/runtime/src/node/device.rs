//! The end-device node and its blank-input signature.
//!
//! A *failed* device's thread never starts; the aggregating tiers
//! substitute what the device computes for a [`blank_view`], the
//! dataset's encoding of "object not present" — the mechanism behind the
//! paper's automatic fault tolerance (§IV-G).

use crate::clock::Core;
use crate::error::{Result, RuntimeError};
use crate::link::LinkSender;
use crate::message::{features_of, Frame, NodeId, Payload};
use crate::obs::Counter;
use crate::orchestrator::NodeControl;
use ddnn_core::{DdnnConfig, FrozenDevice, BLANK_INPUT_VALUE};
use ddnn_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The blank sensor view for the model's configured input geometry, as a
/// single-sample batch.
pub(crate) fn blank_view(config: &DdnnConfig) -> Tensor {
    let [c, h, w] = config.view_dims();
    Tensor::full([1, c, h, w], BLANK_INPUT_VALUE)
}

/// One end device's core, on its section frozen for inference: each
/// capture's map comes out packed and is cached as the `Features` frame
/// the device offloads. It only ever acts on a frame, so it never asks
/// for a wake-up. Protocol hiccups that faults make possible — duplicated
/// stale captures, offload requests racing a retried capture — are
/// ignored instead of aborting the node.
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
pub(crate) struct DeviceNode {
    pub(crate) d: usize,
    pub(crate) part: FrozenDevice,
    pub(crate) to_gateway: LinkSender,
    pub(crate) to_tiers: Vec<Option<LinkSender>>,
    pub(crate) control: NodeControl,
    pub(crate) capture_cap: usize,
    /// Captured feature frames by sample, at most `capture_cap`.
    pub(crate) cache: BTreeMap<u64, Frame>,
    /// `node.device{d}.captures` and `node.device{d}.offloads`.
    pub(crate) captures: Arc<Counter>,
    pub(crate) offloads: Arc<Counter>,
    pub(crate) shutdown: bool,
}

impl Core for DeviceNode {
    fn on_frame(&mut self, _now: f64, frame: Frame) -> Result<()> {
        let (d, seq, cache) = (self.d, frame.seq, &mut self.cache);
        let protocol = |reason| Err(RuntimeError::Protocol { reason });
        // A duplicated or jittered capture for an older sample must not
        // roll the cache window backwards: once the window is full,
        // captures below its floor are dead on arrival (with the legacy
        // single slot this is exactly the old "never replace latest with
        // older" rule).
        let behind = cache.len() >= self.capture_cap
            && cache.first_key_value().is_some_and(|(&oldest, _)| seq < oldest);
        match frame.payload {
            // Shutdown always lands, even on a device scheduled down — the
            // run is over and the thread must exit.
            Payload::Shutdown => self.shutdown = true,
            Payload::Ping { .. } => {
                if self.control.on_ping(&frame)?.revived {
                    // The cached captures predate the outage and must not
                    // feed a new epoch's offload.
                    cache.clear();
                }
            }
            // Down: full silence — no pongs, no uploads. The membership
            // layer detects the outage from the missed heartbeats.
            _ if self.control.down || !self.control.admit(seq) => {}
            Payload::Capture { .. } if behind => {}
            Payload::Capture { view } => {
                // The capture carries its own geometry; batch it as-is.
                let mut dims = vec![1];
                dims.extend_from_slice(view.dims());
                let (map, scores) = self.part.forward(&view.reshape(dims)?)?;
                cache.insert(seq, Frame::new(seq, NodeId::Device(d as u8), features_of(&map)?));
                while cache.len() > self.capture_cap {
                    cache.pop_first();
                }
                self.captures.incr();
                // While the gateway is bypassed its score aggregation is
                // pointless: the orchestrator broadcasts the offload
                // request itself and the sample goes straight to the
                // feature chain.
                if !self.control.routing.gateway_bypass {
                    let scores = Payload::Scores { scores: scores.data().to_vec() };
                    self.to_gateway.send(&Frame::new(seq, NodeId::Device(d as u8), scores))?;
                }
            }
            Payload::OffloadRequest => {
                // The feature sink under the current routing: the device
                // parent's link. An orphaned device (no live compatible
                // tier) simply drops the request.
                let parent = self.control.routing.device_parent;
                let sink = parent.and_then(|k| self.to_tiers[k].as_ref());
                // A request for a sample not in the cache is stale or
                // premature under faults: dropped.
                if let (Some(features), Some(sink)) = (cache.get(&seq), sink) {
                    self.offloads.incr();
                    sink.send(features)?;
                }
            }
            other => return protocol(format!("device {d}: unexpected payload {other:?}")),
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.shutdown
    }
}
