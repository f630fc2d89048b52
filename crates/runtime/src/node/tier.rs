//! The tier-generic aggregating node.
//!
//! One [`TierNode`] — a [`Collector`], a [`TierSection`], an
//! [`ExitPolicy`] and a [`Route`] — subsumes the legacy gateway, edge and
//! cloud loops *and* the §IV-H raw-offload baseline. The section is the
//! model's own: [`TierSection`] is implemented on the `ddnn-core` parts,
//! feature stages in their frozen form, whose `forward` is the only
//! evaluation a node runs.
//!
//! | legacy node    | section              | policy     | route              |
//! |----------------|----------------------|------------|--------------------|
//! | gateway        | [`GatewayPart`]      | `Entropy`  | `Gateway`          |
//! | edge           | [`FrozenStage`]      | `Entropy`  | `Tier`             |
//! | cloud          | [`FrozenStage`]      | `Terminal` | `Tier` (last)      |
//! | baseline cloud | [`RawSection`]       | `Terminal` | `Tier` (only)      |
//!
//! Every node routes by its [`NodeControl`]'s table: where a sample
//! escalates to, who feeds the collector and which exits are forced are
//! read off it. A static run's table is the declared chain's epoch 0,
//! which no ping ever moves. Deadline expiry, suspect marking, replay of
//! cached decisions and blank substitution are one shared finalize path
//! at every tier.

use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{dequantize_image, features_of, Frame, NodeId, Payload};
use crate::node::collector::{Collector, Ingest};
use crate::node::report::NodeReport;
use crate::obs::{NodeObs, ObsEvent};
use crate::orchestrator::NodeControl;
use ddnn_core::{ExitPolicy, FrozenDdnn, FrozenStage, GatewayPart, SignMaps};
use ddnn_nn::Mode;
use ddnn_tensor::Tensor;
use std::time::Instant;

/// The model section a tier evaluates once its fan-in completes.
pub(crate) trait TierSection: Send {
    /// One source's contribution (a score vector, a feature map, a raw
    /// view) — what the collector gathers and substitutes blanks for.
    type Item: Clone + Send;

    /// Extracts this section's item from an arriving payload; `expected`
    /// is the slot's blank, the shape a genuine contribution has.
    fn item_from(&self, payload: Payload, expected: &Self::Item, node: &str) -> Result<Self::Item>;

    /// Evaluates a micro-batch of completed contribution sets, returning
    /// per sample the exit logits and (for feature tiers) the packed output
    /// map a non-terminal tier forwards when it escalates. This is the only
    /// evaluation the node calls: a batch of one is the per-sample path.
    /// Sections whose compute batches along axis 0 (feature tiers) run the
    /// tensor pass once over the whole batch, amortizing bit-packing and
    /// kernel launches; the others evaluate sample by sample.
    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Self::Item>>,
    ) -> Result<Vec<(Tensor, Option<SignMaps>)>>;
}

/// The gateway's section: aggregate per-device class-score vectors.
impl TierSection for GatewayPart {
    /// One device's `(1, classes)` scores.
    type Item = Tensor;

    fn item_from(&self, payload: Payload, _: &Tensor, node: &str) -> Result<Tensor> {
        match payload {
            Payload::Scores { scores } => Ok(Tensor::from_vec(scores.clone(), [1, scores.len()])?),
            other => unexpected(node, other),
        }
    }

    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Tensor>>,
    ) -> Result<Vec<(Tensor, Option<SignMaps>)>> {
        // Score aggregation is negligible compute: sample by sample
        // (blanks already substituted by the collector).
        batch.into_iter().map(|scores| Ok((self.forward(&scores, Mode::Eval)?, None))).collect()
    }
}

/// The error for a payload a section does not take.
fn unexpected<T>(node: &str, payload: Payload) -> Result<T> {
    Err(RuntimeError::Protocol { reason: format!("{node}: unexpected payload {payload:?}") })
}

/// An edge/cloud-style tier evaluates a feature stage frozen for
/// inference: aggregate the packed maps, run the fused ConvP chain,
/// classify at the exit head — on the payloads' own bits.
impl TierSection for FrozenStage {
    type Item = SignMaps;

    /// The payload's bits, checked against the slot's map: the same
    /// `(c, h, w)` and exactly `packed_len(c·h·w)` bytes, so no frozen
    /// kernel reads past them.
    fn item_from(&self, payload: Payload, expected: &SignMaps, node: &str) -> Result<SignMaps> {
        let Payload::Features { channels, height, width, bits } = payload else {
            return unexpected(node, payload);
        };
        let dims = [channels, height, width].map(usize::from);
        let reason = match SignMaps::new(dims, vec![bits]) {
            Ok(map) if dims == expected.dims() => return Ok(map),
            Ok(_) => format!("feature map {dims:?} where {:?} is expected", expected.dims()),
            Err(e) => format!("feature map {dims:?}: {e}"),
        };
        Err(RuntimeError::Protocol { reason: format!("{node}: {reason}") })
    }

    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<SignMaps>>,
    ) -> Result<Vec<(Tensor, Option<SignMaps>)>> {
        // Batch along the sample axis: per source slot, the B samples'
        // bits form one batch, and the stage runs once over all of them —
        // each XNOR plan streams the B samples through with its weights
        // packed once. Each sample's arithmetic is independent, so its
        // logits and map do not depend on what it was batched with.
        let num_sources = batch.first().map_or(0, Vec::len);
        let per_source = (0..num_sources)
            .map(|s| SignMaps::concat(batch.iter().map(|items| &items[s])))
            .collect::<ddnn_tensor::Result<Vec<_>>>()?;
        let (maps, logits) = self.forward(&per_source)?;
        let classes = logits.len() / batch.len();
        let rows =
            logits.data().chunks(classes).map(|l| Tensor::from_vec(l.to_vec(), [1, classes]));
        rows.zip(maps.split()).map(|(l, map)| Ok((l?, Some(map)))).collect()
    }
}

/// One raw view off the wire, as the batch of one the model takes.
pub(crate) fn raw_view(pixels: &[u8], [c, h, w]: [usize; 3]) -> Result<Tensor> {
    Ok(dequantize_image(pixels, [c, h, w])?.reshape([1, c, h, w])?)
}

/// The §IV-H baseline cloud section: every device ships its raw
/// (byte-quantized) view and the cloud runs the *entire* network on it.
pub(crate) struct RawSection {
    /// The whole model, frozen, evaluated cloud-side.
    pub(crate) model: FrozenDdnn,
    /// Geometry raw pixels decode to.
    pub(crate) view_dims: [usize; 3],
}

impl TierSection for RawSection {
    type Item = Tensor;

    fn item_from(&self, payload: Payload, _: &Tensor, node: &str) -> Result<Tensor> {
        match payload {
            Payload::RawImage { pixels } => raw_view(&pixels, self.view_dims),
            other => unexpected(node, other),
        }
    }

    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Tensor>>,
    ) -> Result<Vec<(Tensor, Option<SignMaps>)>> {
        // Sample by sample (config (a) of Fig. 2); for the paper's six
        // devices one sample's sections are far below the pool's cut-off
        // and run inline on this node's thread.
        batch.into_iter().map(|views| Ok((self.model.forward(&views)?.cloud, None))).collect()
    }
}

/// A tier's cached decision for a completed sample, replayable when
/// duplicated or retried frames arrive after completion.
enum Decision {
    /// Exited here with this verdict frame (to the orchestrator).
    Verdict(Frame),
    /// Escalated with this frame: the gateway's offload request to the
    /// devices, or a tier's features frame to the next tier.
    Escalate(Frame),
}

/// Who feeds a tier's collector this epoch; a contribution's collector
/// slot is read off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feeder {
    /// The end devices fan in directly, one slot each (the escalation
    /// path's entry tier).
    Devices,
    /// A single upstream tier, by index and wire identity.
    Tier(usize, NodeId),
    /// Off the escalation path: nothing routes here this epoch, and what
    /// still arrives is dropped.
    Dormant,
}

/// Where a node's traffic comes from and goes to. `T` is the node's
/// collector item.
pub(crate) enum Route<T> {
    /// The gateway: the devices feed it, and it broadcasts offload
    /// requests back to them (`None` entries are statically failed ones).
    Gateway(Vec<Option<LinkSender>>),
    /// Feature tier `k` of the chain.
    Tier {
        k: usize,
        /// Forward link to each tier (`None` where the run opened none: at
        /// or below `k`, and the skip-level links of a static run).
        to_tiers: Vec<Option<LinkSender>>,
        /// Wire identity of each tier, for re-parenting onto a tier feeder.
        tier_ids: Vec<NodeId>,
        /// What a collector substitutes per feeder: `[0]` the device
        /// blanks, `[i + 1]` tier `i`'s blank output.
        blanks: Vec<Vec<T>>,
        feeder: Feeder,
    },
}

impl<T> Route<T> {
    fn feeder(&self) -> Feeder {
        let Route::Tier { feeder, .. } = self else { return Feeder::Devices };
        *feeder
    }
}

/// One aggregating node of the hierarchy, generic over its model section.
pub(crate) struct TierNode<S: TierSection> {
    /// Display name ("gateway", "edge", …), used in protocol errors.
    pub(crate) name: String,
    /// Wire identity stamped on this node's outgoing frames.
    pub(crate) id: NodeId,
    /// The `exit_tier` stamped into this node's verdicts (0 = gateway; a
    /// chain tier's 1-based position otherwise).
    pub(crate) exit_tier: u8,
    /// The model section evaluated on each completed sample.
    pub(crate) section: S,
    /// Exit decision applied to the section's logits.
    pub(crate) policy: ExitPolicy,
    /// This node's inbox (CRC checking and ARQ dedup happen inside).
    pub(crate) inbox: NodeInbox,
    /// Verdict link.
    pub(crate) to_orchestrator: LinkSender,
    /// Who feeds the collector and where non-exiting samples go.
    pub(crate) route: Route<S::Item>,
    /// What this node's pings taught it, and the routing it applies.
    pub(crate) control: NodeControl,
    /// The shared fan-in state machine.
    pub(crate) collector: Collector<S::Item>,
    /// Micro-batch budget: completed samples drained (non-blocking) from
    /// the inbox and evaluated as one tensor pass per loop iteration. `1`
    /// never drains: every sample is a batch of one.
    pub(crate) batch_max: usize,
    /// Per-node counters and the run-wide event sink.
    pub(crate) obs: NodeObs,
}

/// A completed contribution set: sequence, items, blanks substituted.
type Completed<S> = (u64, Vec<<S as TierSection>::Item>, usize);

impl<S: TierSection> TierNode<S> {
    /// Runs the node until shutdown, returning the samples it degraded.
    pub(crate) fn run(mut self) -> Result<NodeReport> {
        let mut last_decision: Option<(u64, Decision)> = None;
        // Registered only with a batch budget, so a node that never
        // batches leaves the counter snapshot untouched.
        let batch_ctrs = (self.batch_max > 1).then(|| {
            let r = self.obs.run.registry();
            (
                r.counter(&format!("node.{}.batches", self.name)),
                r.counter(&format!("node.{}.batched_samples", self.name)),
            )
        });
        let mut shutdown = false;
        while !shutdown {
            // While scheduled down stay fully silent — no deadline firing,
            // no decisions — until a ping brings the node back up or the
            // run shuts down.
            if self.control.down {
                let frame = self.inbox.recv()?;
                shutdown = self.ingest(frame, &mut Vec::new(), &last_decision)?;
                continue;
            }
            let mut completed: Vec<Completed<S>> = Vec::new();
            loop {
                // A collector error here means the expired sample vanished
                // mid-finalize (a duplicate raced it) — degrade, don't die.
                match self.collector.expire(Instant::now()) {
                    Ok(Some(done)) => {
                        self.obs.deadline_expiries.incr();
                        let seq = done.0;
                        let name = &self.name;
                        self.obs.run.emit(|| ObsEvent::DeadlineFired { node: name.clone(), seq });
                        completed.push(done);
                    }
                    Ok(None) | Err(RuntimeError::Collector { .. }) => break,
                    Err(e) => return Err(e),
                }
            }
            if completed.is_empty() {
                let frame = match self.collector.next_deadline() {
                    Some(deadline) => match self.inbox.recv_deadline(deadline)? {
                        Some(frame) => frame,
                        None => continue, // a deadline fired; expire on the next pass
                    },
                    None => self.inbox.recv()?,
                };
                shutdown = self.ingest(frame, &mut completed, &last_decision)?;
            }
            // Micro-batch drain: once a sample is complete, greedily pull
            // frames already queued (non-blocking) up to the batch budget,
            // so several completed samples share one tensor pass. A
            // shutdown seen mid-drain still flushes the gathered batch
            // before the node exits.
            while !shutdown && !completed.is_empty() && completed.len() < self.batch_max {
                let Some(frame) = self.inbox.try_recv()? else { break };
                shutdown = self.ingest(frame, &mut completed, &last_decision)?;
            }
            if completed.is_empty() {
                continue;
            }
            // Oldest first: the collector only ever replays its watermark
            // sample, so the cached decision must end up being the batch's
            // highest sequence.
            completed.sort_by_key(|&(seq, _, _)| seq);
            if let (Some((batches, batched_samples)), true) = (&batch_ctrs, completed.len() > 1) {
                batches.incr();
                batched_samples.add(completed.len() as u64);
                let (name, size) = (&self.name, completed.len());
                self.obs.run.emit(|| ObsEvent::BatchEvaluated { node: name.clone(), size });
            }
            let (metas, batch): (Vec<_>, Vec<_>) = (completed.into_iter())
                .map(|(seq, items, substituted)| ((seq, substituted), items))
                .unzip();
            let outputs = self.section.evaluate_batch(batch)?;
            for ((seq, substituted), (logits, map)) in metas.into_iter().zip(outputs) {
                self.obs.aggregates.incr();
                let name = &self.name;
                self.obs.run.emit(|| ObsEvent::TierAggregate {
                    node: name.clone(),
                    seq,
                    substituted,
                });
                let decision = self.resolve(seq, logits, map)?;
                self.send(&decision)?;
                last_decision = Some((seq, decision));
            }
        }
        Ok(self.collector.into_report())
    }

    /// Takes one frame off the inbox: applies and answers a ping, refuses
    /// what the control plane has made stale (everything but pings, while
    /// down), slots a contribution into the collector (pushing the set
    /// onto `completed` when it fills) and replays the cached decision for
    /// a duplicate of the watermark sample. Returns `true` for the
    /// shutdown frame.
    fn ingest(
        &mut self,
        frame: Frame,
        completed: &mut Vec<Completed<S>>,
        last_decision: &Option<(u64, Decision)>,
    ) -> Result<bool> {
        if matches!(frame.payload, Payload::Shutdown) {
            return Ok(true);
        }
        if matches!(frame.payload, Payload::Ping { .. }) {
            let effect = self.control.on_ping(&frame)?;
            if effect.revived || effect.rerouted {
                // Partials gathered before an outage or under the previous
                // epoch are refused from here on.
                self.collector.resync(self.control.floor);
            }
            if effect.rerouted {
                self.reroute();
            }
            return Ok(false);
        }
        if self.control.down || !self.control.admit(frame.seq) {
            return Ok(false);
        }
        // The collector slot is read off this epoch's feeder.
        let n = self.control.routing.num_devices();
        let source = match (self.route.feeder(), frame.from) {
            (Feeder::Devices, NodeId::Device(d)) if (d as usize) < n => d as usize,
            (Feeder::Tier(_, id), from) if from == id => 0,
            (Feeder::Dormant, _) => return Ok(false),
            (_, from) => {
                let reason = format!("{}: contribution from unexpected sender {from}", self.name);
                return Err(RuntimeError::Protocol { reason });
            }
        };
        let item =
            self.section.item_from(frame.payload, self.collector.blank(source), &self.name)?;
        match self.collector.insert(frame.seq, source, item) {
            Ok(Ingest::Complete { seq, items, substituted }) => {
                completed.push((seq, items, substituted));
            }
            Ok(Ingest::Replay { seq }) => {
                if let Some((_, decision)) = last_decision.as_ref().filter(|(s, _)| *s == seq) {
                    self.send(decision)?;
                }
            }
            Ok(Ingest::Stale | Ingest::Pending) => {}
            // A duplicated or late finalize: the sample already resolved,
            // so the contribution is simply too late.
            Err(RuntimeError::Collector { .. }) => {}
            Err(e) => return Err(e),
        }
        Ok(false)
    }

    /// Folds a newly applied topology epoch into who feeds this node's
    /// collector and which devices the collector waits for; its exit and
    /// escalation targets are read off the routing where they are used.
    fn reroute(&mut self) {
        let (r, n) = (&self.control.routing, self.control.routing.num_devices());
        if let Route::Tier { k, tier_ids, blanks, feeder, .. } = &mut self.route {
            // Where this tier sits on the escalation path decides who feeds
            // it: first hop collects the devices, later hops collect their
            // predecessor, off-path tiers are dormant.
            let path = r.escalation_path();
            let desired = match path.iter().position(|x| x == k) {
                Some(0) => Feeder::Devices,
                Some(p) => Feeder::Tier(path[p - 1], tier_ids[path[p - 1]]),
                None => Feeder::Dormant,
            };
            if desired != *feeder {
                match desired {
                    Feeder::Devices => {
                        self.collector.reconfigure(n, blanks[0].clone(), (0..n).map(Some).collect())
                    }
                    Feeder::Tier(i, _) => {
                        self.collector.reconfigure(1, blanks[i + 1].clone(), vec![None])
                    }
                    // Nothing routes here: keep the geometry.
                    Feeder::Dormant => {}
                }
                *feeder = desired;
            }
        }
        // Whoever currently collects the devices must not wait for the
        // routing-dead ones (and must wait again for re-joined ones).
        if self.route.feeder() == Feeder::Devices {
            for dix in 0..n {
                if r.live[dix] {
                    self.collector.clear_suspect(dix);
                } else {
                    self.collector.mark_suspect(dix);
                }
            }
        }
    }

    /// Resolves the exit-or-escalate decision from a sample's evaluated
    /// logits.
    fn resolve(&mut self, seq: u64, logits: Tensor, map: Option<SignMaps>) -> Result<Decision> {
        let mut d = self.policy.evaluate(&logits)?;
        // Forced exits: the gateway's `forced_local` pins every sample to
        // the local exit, and a tier without an escalation target this
        // epoch classifies locally — severed, or terminal, whose policy
        // exits anyway.
        let r = &self.control.routing;
        d.exits |= match &self.route {
            Route::Gateway(_) => r.forced_local,
            Route::Tier { k, .. } => r.escalate_to[*k].is_none(),
        };
        let threshold = match self.policy {
            ExitPolicy::Entropy(t) => t.value(),
            ExitPolicy::Terminal => 1.0,
        };
        let name = &self.name;
        if d.exits {
            self.obs.exits.incr();
            self.obs.run.emit(|| ObsEvent::ExitTaken {
                node: name.clone(),
                seq,
                eta: d.eta,
                threshold,
                prediction: d.prediction,
            });
            Ok(Decision::Verdict(Frame::new(
                seq,
                self.id,
                Payload::Verdict { prediction: d.prediction as u16, exit_tier: self.exit_tier },
            )))
        } else {
            self.obs.escalations.incr();
            self.obs.run.emit(|| ObsEvent::Escalated {
                node: name.clone(),
                seq,
                eta: d.eta,
                threshold,
            });
            let payload = match (&self.route, map) {
                (Route::Gateway(_), _) => Payload::OffloadRequest,
                (Route::Tier { .. }, Some(map)) => features_of(&map)?,
                (Route::Tier { .. }, None) => {
                    let reason = format!("{}: escalation without an output map", self.name);
                    return Err(RuntimeError::Protocol { reason });
                }
            };
            Ok(Decision::Escalate(Frame::new(seq, self.id, payload)))
        }
    }

    /// Sends a (possibly replayed) decision to its target. A forward
    /// resolves against the *current* routing table, so replays after a
    /// re-parent reach the live target.
    fn send(&self, decision: &Decision) -> Result<()> {
        match (decision, &self.route) {
            (Decision::Verdict(frame), _) => self.to_orchestrator.send(frame),
            (Decision::Escalate(frame), Route::Gateway(devices)) => {
                devices.iter().flatten().try_for_each(|sender| sender.send(frame))
            }
            (Decision::Escalate(frame), Route::Tier { k, to_tiers, .. }) => {
                match self.control.routing.escalate_to[*k].and_then(|j| to_tiers[j].as_ref()) {
                    Some(link) => link.send(frame),
                    // The target vanished since the decision was cached:
                    // drop the replay, the epoch has moved on.
                    None => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_core::{Ddnn, DdnnConfig};

    /// What the paper cloud's item_from makes of a `Features` payload.
    fn cloud_item([channels, height, width]: [u16; 3], len: usize) -> Result<SignMaps> {
        let cloud = Ddnn::new(DdnnConfig::paper()).partition().cloud.freeze();
        let blank = SignMaps::new([4, 16, 16], vec![vec![0u8; 128].into()])?;
        let bits = vec![0xa5; len].into();
        cloud.item_from(Payload::Features { channels, height, width, bits }, &blank, "cloud")
    }

    #[test]
    fn item_from_rejects_a_map_of_another_shape() {
        assert!(cloud_item([4, 16, 16], 128).is_ok());
        // Same bit count, other geometry: it would have passed an unpack
        // and failed only inside the batch or the conv.
        assert!(matches!(cloud_item([4, 8, 32], 128), Err(RuntimeError::Protocol { .. })));
    }

    #[test]
    fn item_from_rejects_bits_of_the_wrong_length() {
        for len in [127, 129] {
            assert!(matches!(cloud_item([4, 16, 16], len), Err(RuntimeError::Protocol { .. })));
        }
    }
}
