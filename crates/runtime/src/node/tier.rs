//! The tier-generic aggregating node.
//!
//! One [`TierNode`] — a [`Collector`], a [`TierSection`], an
//! [`ExitPolicy`] and a [`Route`] — subsumes the legacy gateway, edge and
//! cloud loops *and* the §IV-H raw-offload baseline. The section is the
//! model's own: [`TierSection`] is implemented on the `ddnn-core` parts in
//! their frozen form, whose `forward` is the only evaluation a node runs.
//!
//! | legacy node    | section              | policy     | route              |
//! |----------------|----------------------|------------|--------------------|
//! | gateway        | [`FrozenGateway`]    | `Entropy`  | `Gateway`          |
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
//!
//! The node is a core ([`Core`]) and decides on `(now, frame)` alone: it
//! ingests a frame, expires what is due, evaluates the gathered
//! micro-batch and reports its next wake-up (the earliest aggregation
//! deadline). The shared [`crate::clock::drive`] loop does the waiting
//! and the micro-batch drain.

use crate::clock::Core;
use crate::error::{Result, RuntimeError};
use crate::link::LinkSender;
use crate::message::{dequantize_image, features_of, Frame, NodeId, Payload};
use crate::node::collector::{Collector, Ingest};
use crate::obs::{NodeObs, ObsEvent};
use crate::orchestrator::NodeControl;
use ddnn_core::{ExitPolicy, FrozenDdnn, FrozenGateway, FrozenStage, SignMaps};
use ddnn_tensor::Tensor;

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
impl TierSection for FrozenGateway {
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
        batch.into_iter().map(|scores| Ok((self.forward(&scores)?, None))).collect()
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
pub(crate) enum Decision {
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
    /// Verdict link.
    pub(crate) to_orchestrator: LinkSender,
    /// Who feeds the collector and where non-exiting samples go.
    pub(crate) route: Route<S::Item>,
    /// What this node's pings taught it, and the routing it applies.
    pub(crate) control: NodeControl,
    /// The shared fan-in state machine.
    pub(crate) collector: Collector<S::Item>,
    /// Micro-batch budget: completed samples drained (non-blocking) from
    /// the inbox and evaluated as one tensor pass. `1` never drains: every
    /// sample is a batch of one.
    pub(crate) batch_max: usize,
    /// Per-node counters and the run-wide event sink.
    pub(crate) obs: NodeObs,
    /// Completed samples waiting for the next micro-batch.
    pub(crate) gathered: Vec<Completed<S>>,
    /// The decision of the last sample evaluated — the collector's
    /// watermark — replayed to its duplicates.
    pub(crate) last_decision: Option<(u64, Decision)>,
    /// The shutdown frame arrived.
    pub(crate) shutdown: bool,
}

/// A completed contribution set: sequence, items, blanks substituted.
type Completed<S> = (u64, Vec<<S as TierSection>::Item>, usize);

impl<S: TierSection> Core for TierNode<S> {
    /// Evaluates what was gathered, then expires every sample whose
    /// aggregation deadline is not after `now` into the next batch.
    fn on_wake(&mut self, now: f64) -> Result<()> {
        self.evaluate()?;
        // While scheduled down stay fully silent — no deadline firing, no
        // decisions — until a ping brings the node back up or the run
        // shuts down.
        if self.shutdown || self.control.down {
            return Ok(());
        }
        while let Some(done) = self.collector.expire(now) {
            self.obs.deadline_expiries.incr();
            let (seq, name) = (done.0, &self.name);
            self.obs.run.emit(|| ObsEvent::DeadlineFired { node: name.clone(), seq });
            self.gathered.push(done);
        }
        Ok(())
    }

    /// Takes one frame that arrived at `now`: applies and answers a ping,
    /// refuses what the control plane has made stale (everything but
    /// pings, while down), slots a contribution into the collector
    /// (gathering the set when it fills) and replays the cached decision
    /// for a duplicate of the watermark sample.
    fn on_frame(&mut self, now: f64, frame: Frame) -> Result<()> {
        match frame.payload {
            Payload::Shutdown => self.shutdown = true,
            Payload::Ping { .. } => {
                let effect = self.control.on_ping(&frame)?;
                if effect.revived || effect.rerouted {
                    // Partials gathered before an outage or under the
                    // previous epoch are refused from here on.
                    self.collector.resync(self.control.floor);
                }
                if effect.rerouted {
                    self.reroute();
                }
            }
            _ if self.control.down || !self.control.admit(frame.seq) => {}
            _ => self.ingest(frame, now)?,
        }
        Ok(())
    }

    /// A gathered batch is evaluated before any wait; otherwise the
    /// earliest aggregation deadline, none while down.
    fn next_wake(&self) -> f64 {
        match (self.gathered.is_empty(), self.control.down) {
            (false, _) => f64::NEG_INFINITY,
            (true, true) => f64::INFINITY,
            (true, false) => self.collector.next_deadline().unwrap_or(f64::INFINITY),
        }
    }

    /// Micro-batch drain: once a sample is complete, pull frames already
    /// queued up to the batch budget, so several completed samples share
    /// one tensor pass. A shutdown seen mid-drain still flushes the
    /// gathered batch before the node exits.
    fn drain(&self) -> bool {
        !self.shutdown && !self.gathered.is_empty() && self.gathered.len() < self.batch_max
    }

    fn done(&self) -> bool {
        self.shutdown && self.gathered.is_empty()
    }
}

impl<S: TierSection> TierNode<S> {
    /// Slots a contribution that arrived at `now` into the collector.
    fn ingest(&mut self, frame: Frame, now: f64) -> Result<()> {
        // The collector slot is read off this epoch's feeder.
        let n = self.control.routing.num_devices();
        let source = match (self.route.feeder(), frame.from) {
            (Feeder::Devices, NodeId::Device(d)) if (d as usize) < n => d as usize,
            (Feeder::Tier(_, id), from) if from == id => 0,
            (Feeder::Dormant, _) => return Ok(()),
            (_, from) => {
                let reason = format!("{}: contribution from unexpected sender {from}", self.name);
                return Err(RuntimeError::Protocol { reason });
            }
        };
        let item =
            self.section.item_from(frame.payload, self.collector.blank(source), &self.name)?;
        match self.collector.insert(frame.seq, source, item, now) {
            Ingest::Complete { seq, items, substituted } => {
                self.gathered.push((seq, items, substituted));
            }
            Ingest::Replay { seq } => {
                if let Some((_, decision)) = self.last_decision.as_ref().filter(|(s, _)| *s == seq)
                {
                    self.send(decision)?;
                }
            }
            Ingest::Stale | Ingest::Pending => {}
        }
        Ok(())
    }

    /// Evaluates the gathered micro-batch as one tensor pass and sends
    /// each sample's decision.
    fn evaluate(&mut self) -> Result<()> {
        if self.gathered.is_empty() {
            return Ok(());
        }
        let mut completed = std::mem::take(&mut self.gathered);
        // Oldest first: the collector only ever replays its watermark
        // sample, so the cached decision must end up being the batch's
        // highest sequence.
        completed.sort_by_key(|&(seq, _, _)| seq);
        if let (Some((batches, batched_samples)), true) = (&self.obs.batches, completed.len() > 1) {
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
            self.obs.run.emit(|| ObsEvent::TierAggregate { node: name.clone(), seq, substituted });
            let decision = self.resolve(seq, logits, map)?;
            self.send(&decision)?;
            self.last_decision = Some((seq, decision));
        }
        Ok(())
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
        let (node, eta, prediction) = (&self.name, d.eta, d.prediction);
        if d.exits {
            self.obs.exits.incr();
            let exit =
                || ObsEvent::ExitTaken { node: node.clone(), seq, eta, threshold, prediction };
            self.obs.run.emit(exit);
            let verdict =
                Payload::Verdict { prediction: prediction as u16, exit_tier: self.exit_tier };
            Ok(Decision::Verdict(Frame::new(seq, self.id, verdict)))
        } else {
            self.obs.escalations.incr();
            self.obs.run.emit(|| ObsEvent::Escalated { node: node.clone(), seq, eta, threshold });
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
    use crate::link::link;
    use crate::obs::RunObs;
    use crate::orchestrator::rebalance::{compute_routing, Compat};
    use ddnn_core::{Ddnn, DdnnConfig};
    use std::sync::Arc;

    #[test]
    fn a_micro_batch_caches_the_decision_of_its_highest_sequence() {
        let config = DdnnConfig::paper();
        let (n, classes) = (config.num_devices, config.num_classes);
        let (to_orchestrator, verdicts, _) = link("gateway->orchestrator");
        let (compat, obs) = (Compat::chain(1), RunObs::disabled());
        let initial = compute_routing(0, vec![true; n + 2], n, &compat);
        // Only device 0 is live: its contribution alone completes a sample.
        let (sources, live) = ((0..n).map(Some).collect(), (0..n).map(|d| d == 0).collect());
        let (blanks, dl) = (vec![Tensor::zeros([1, classes]); n], Default::default());
        let mut core = TierNode {
            name: "gateway".into(),
            id: NodeId::Gateway,
            exit_tier: 0,
            section: Ddnn::new(config).partition().gateway.freeze(),
            policy: ExitPolicy::Terminal,
            to_orchestrator,
            route: Route::Gateway(Vec::new()),
            control: NodeControl::new(compat, initial, NodeId::Gateway, None, Arc::default()),
            collector: Collector::new(n, blanks, dl, sources, live, Arc::clone(&obs)),
            batch_max: 4,
            obs: NodeObs::for_node(&obs, "gateway", 4),
            gathered: Vec::new(),
            last_decision: None,
            shutdown: false,
        };
        let scores = |seq| {
            let scores = vec![0.5; classes];
            Frame::new(seq, NodeId::Device(0), Payload::Scores { scores })
        };
        // Samples 2 and 3 complete before the next wake-up: one batch,
        // evaluated before any wait, oldest first.
        core.on_frame(0.0, scores(2)).unwrap();
        assert!(core.drain(), "the batch has room for more");
        core.on_frame(0.0, scores(3)).unwrap();
        assert_eq!(core.next_wake(), f64::NEG_INFINITY);
        core.on_wake(0.0).unwrap();
        assert_eq!([verdicts.recv().unwrap().seq, verdicts.recv().unwrap().seq], [2, 3]);
        // The cached decision is 3's: its duplicate replays the verdict,
        // one of 2 is stale.
        core.on_frame(1.0, scores(2)).unwrap();
        core.on_frame(1.0, scores(3)).unwrap();
        assert_eq!(verdicts.recv().unwrap().seq, 3);
        assert!(verdicts.try_recv_raw().unwrap().is_none());
    }

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
