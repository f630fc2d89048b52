//! The tier-generic aggregating node.
//!
//! One [`TierNode`] — a [`Collector`], a [`TierSection`], an
//! [`ExitPolicy`] and an [`Escalation`] target — subsumes the legacy
//! gateway, edge and cloud loops *and* the §IV-H raw-offload baseline.
//! The section is the model's own: [`TierSection`] is implemented on the
//! `ddnn-core` parts, whose `forward` is the only evaluation a node runs.
//!
//! | legacy node    | section              | policy     | escalation            |
//! |----------------|----------------------|------------|-----------------------|
//! | gateway        | [`GatewayPart`]      | `Entropy`  | `RequestFromDevices`  |
//! | edge           | [`CloudPart`] stage  | `Entropy`  | `ForwardMap`          |
//! | cloud          | [`CloudPart`]        | `Terminal` | `Terminal`            |
//! | baseline cloud | [`RawSection`]       | `Terminal` | `Terminal`            |
//!
//! Deadline expiry, suspect marking, replay of cached decisions and blank
//! substitution are therefore one shared finalize path at every tier.

use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{dequantize_image, features_payload, features_tensor, Frame, NodeId, Payload};
use crate::node::collector::{Collector, Ingest};
use crate::node::report::NodeReport;
use crate::obs::{NodeObs, ObsEvent};
use crate::orchestrator::NodeControl;
use ddnn_core::{CloudPart, Ddnn, ExitPolicy, GatewayPart};
use ddnn_nn::Mode;
use ddnn_tensor::Tensor;
use std::time::Instant;

/// Prepends a batch axis to each rank-3 map.
pub(crate) fn batched(maps: Vec<Tensor>) -> Result<Vec<Tensor>> {
    maps.into_iter()
        .map(|m| {
            let mut dims = vec![1];
            dims.extend_from_slice(m.dims());
            m.reshape(dims).map_err(RuntimeError::from)
        })
        .collect()
}

/// Where a tier's contributions come from — this defines the collector's
/// source-slot space.
pub(crate) enum FanIn {
    /// One slot per end device; contributions arrive from `Device(d)`.
    Devices(usize),
    /// A single upstream tier.
    Tier(NodeId),
}

impl FanIn {
    /// Maps a frame's sender to its collector slot.
    fn source_slot(&self, from: NodeId, node: &str) -> Result<usize> {
        match (self, from) {
            (FanIn::Devices(n), NodeId::Device(d)) if (d as usize) < *n => Ok(d as usize),
            (FanIn::Tier(expected), from) if from == *expected => Ok(0),
            (_, from) => Err(RuntimeError::Protocol {
                reason: format!("{node}: contribution from unexpected sender {from}"),
            }),
        }
    }
}

/// The model section a tier evaluates once its fan-in completes.
pub(crate) trait TierSection: Send {
    /// One source's contribution (a score vector, a feature map, a raw
    /// view) — what the collector gathers and substitutes blanks for.
    type Item: Clone + Send;

    /// Extracts this section's item from an arriving payload.
    fn item_from(&self, payload: Payload, node: &str) -> Result<Self::Item>;

    /// Evaluates a micro-batch of completed contribution sets, returning
    /// per sample the exit logits and (for feature tiers) the rank-4 output
    /// map a non-terminal tier forwards when it escalates. This is the only
    /// evaluation the node calls: a batch of one is the per-sample path.
    /// Sections whose compute batches along axis 0 (feature tiers) run the
    /// tensor pass once over the whole batch, amortizing bit-packing and
    /// kernel launches; the others evaluate sample by sample.
    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Self::Item>>,
    ) -> Result<Vec<(Tensor, Option<Tensor>)>>;
}

/// The gateway's section: aggregate per-device class-score vectors.
impl TierSection for GatewayPart {
    type Item = Vec<f32>;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Vec<f32>> {
        match payload {
            Payload::Scores { scores } => Ok(scores),
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Vec<f32>>>,
    ) -> Result<Vec<(Tensor, Option<Tensor>)>> {
        // Score aggregation is negligible compute: sample by sample, from
        // per-device (1, C) score tensors (blanks already substituted by
        // the collector).
        batch
            .into_iter()
            .map(|items| {
                let scores: Vec<Tensor> = items
                    .into_iter()
                    .map(|v| {
                        let c = v.len();
                        Tensor::from_vec(v, [1, c])
                    })
                    .collect::<ddnn_tensor::Result<_>>()?;
                Ok((self.forward(&scores, Mode::Eval)?, None))
            })
            .collect()
    }
}

/// An edge/cloud-style tier evaluates a feature stage as it is in the
/// model: aggregate binary feature maps, run the ConvP chain, classify at
/// the exit head.
impl TierSection for CloudPart {
    type Item = Tensor;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Tensor> {
        match payload {
            Payload::Features { channels, height, width, bits } => {
                features_tensor(channels, height, width, &bits)
            }
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate_batch(&mut self, batch: Vec<Vec<Tensor>>) -> Result<Vec<(Tensor, Option<Tensor>)>> {
        // Batch along axis 0: per source slot, stack the B rank-3 maps
        // into one (B, C, H, W) tensor, then run the section once over the
        // whole batch. Each batch row's arithmetic is independent, so a
        // sample's logits and map do not depend on what it was batched
        // with. The binarized convs lower the whole stacked batch to one
        // `BinaryConvPlan` (tensor crate): the weight matrix is packed and
        // the geometry resolved once, then the B samples stream through
        // the fused pack-and-popcount kernel — this drain is what makes
        // micro-batching pay.
        let b = batch.len();
        let num_sources = batch.first().map_or(0, Vec::len);
        let mut per_source: Vec<Vec<Tensor>> = vec![Vec::new(); num_sources];
        for items in batch {
            for (slot, item) in per_source.iter_mut().zip(items) {
                slot.push(item);
            }
        }
        let stacked: Vec<Tensor> = per_source
            .iter()
            .map(|maps| Tensor::stack(maps))
            .collect::<ddnn_tensor::Result<_>>()?;
        let (map, logits) = self.forward(&stacked, Mode::Eval)?;
        let logit_rows = logits.split(b, 0)?;
        let map_rows = map.split(b, 0)?;
        Ok(logit_rows.into_iter().zip(map_rows).map(|(l, m)| (l, Some(m))).collect())
    }
}

/// The §IV-H baseline cloud section: every device ships its raw
/// (byte-quantized) view and the cloud runs the *entire* network on it.
pub(crate) struct RawSection {
    /// The whole model, evaluated cloud-side.
    pub(crate) model: Ddnn,
    /// Geometry raw pixels decode to.
    pub(crate) view_dims: [usize; 3],
}

impl TierSection for RawSection {
    type Item = Tensor;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Tensor> {
        match payload {
            Payload::RawImage { pixels } => dequantize_image(&pixels, self.view_dims),
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate_batch(&mut self, batch: Vec<Vec<Tensor>>) -> Result<Vec<(Tensor, Option<Tensor>)>> {
        // Sample by sample (config (a) of Fig. 2); for the paper's six
        // devices one sample's sections are far below the pool's cut-off
        // and run inline on this node's thread.
        batch
            .into_iter()
            .map(|views| Ok((self.model.forward(&batched(views)?, Mode::Eval)?.cloud, None)))
            .collect()
    }
}

/// What a non-exiting sample does next at this tier.
pub(crate) enum Escalation {
    /// Broadcast an offload request to the live devices (the gateway role;
    /// `None` entries are statically failed devices).
    RequestFromDevices(Vec<Option<LinkSender>>),
    /// Forward this tier's own output map to the next tier up.
    ForwardMap(LinkSender),
    /// Terminal tier: escalation is impossible.
    Terminal,
}

/// A tier's cached decision for a completed sample, replayable when
/// duplicated or retried frames arrive after completion.
enum Decision {
    /// Exited here with this verdict frame (to the orchestrator).
    Verdict(Frame),
    /// Escalated: broadcast an offload request to the devices.
    Broadcast,
    /// Escalated: forward this features frame to the next tier.
    Forward(Frame),
}

/// Who currently feeds a tier's collector under elastic routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feeder {
    /// The end devices fan in directly (the escalation path's entry tier).
    Devices,
    /// A single upstream tier (by tier index).
    Tier(usize),
    /// Off the escalation path: nothing routes here this epoch.
    Dormant,
}

/// A tier's part in the elastic control plane plus the per-epoch routing
/// state it has applied so far. `T` is the tier's collector item.
pub(crate) struct TierElastic<T> {
    /// What this node's pings taught it.
    pub(crate) control: NodeControl,
    /// This node's tier index (`None` for the gateway, which has no
    /// position on the feature chain).
    pub(crate) tier_k: Option<usize>,
    /// Forward link to each tier (`None` below or at this tier's own
    /// position, and for the gateway).
    pub(crate) to_tiers: Vec<Option<LinkSender>>,
    /// Wire identity of each tier, for fan-in rebinding.
    pub(crate) tier_ids: Vec<NodeId>,
    /// Device blank items, for re-parenting onto device fan-in.
    pub(crate) device_blanks: Vec<T>,
    /// Each tier's blank *output* item, for re-parenting onto tier fan-in.
    pub(crate) tier_out_blanks: Vec<T>,
    /// This epoch: who feeds the collector.
    pub(crate) cur_feeder: Feeder,
}

impl<T> TierElastic<T> {
    /// This epoch's escalation target (tier index), if any.
    fn route_target(&self) -> Option<usize> {
        self.tier_k.and_then(|k| self.control.routing.escalate_to[k])
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
    /// Source-slot space of the collector.
    pub(crate) fan_in: FanIn,
    /// This node's inbox (CRC checking and ARQ dedup happen inside).
    pub(crate) inbox: NodeInbox,
    /// Verdict link.
    pub(crate) to_orchestrator: LinkSender,
    /// Where non-exiting samples go.
    pub(crate) escalation: Escalation,
    /// The shared fan-in state machine.
    pub(crate) collector: Collector<S::Item>,
    /// Micro-batch budget: completed samples drained (non-blocking) from
    /// the inbox and evaluated as one tensor pass per loop iteration. `1`
    /// never drains: every sample is a batch of one.
    pub(crate) batch_max: usize,
    /// Per-node counters and the run-wide event sink.
    pub(crate) obs: NodeObs,
    /// Elastic control-plane participation (`None`: static topology).
    pub(crate) elastic: Option<TierElastic<S::Item>>,
}

/// A completed contribution set: sequence, items, blanks substituted.
type Completed<S> = (u64, Vec<<S as TierSection>::Item>, usize);

impl<S: TierSection> TierNode<S> {
    /// Runs the node until shutdown, returning its degradation telemetry.
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
            // Elastic: while scheduled down stay fully silent — no deadline
            // firing, no decisions — until a ping brings the node back up
            // or the run shuts down.
            if self.elastic.as_ref().is_some_and(|el| el.control.down) {
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
                self.send(&decision, seq)?;
                last_decision = Some((seq, decision));
            }
        }
        let mut report = self.collector.into_report();
        report.corrupt_discards = self.inbox.corrupt_discards();
        Ok(report)
    }

    /// Takes one frame off the inbox: applies and answers a ping, refuses
    /// what the elastic control plane has made stale (everything but
    /// pings, while down), slots a contribution into the collector
    /// (pushing the set onto `completed` when it fills) and replays the
    /// cached decision for a duplicate of the watermark sample. Returns
    /// `true` for the shutdown frame.
    fn ingest(
        &mut self,
        frame: Frame,
        completed: &mut Vec<Completed<S>>,
        last_decision: &Option<(u64, Decision)>,
    ) -> Result<bool> {
        if matches!(frame.payload, Payload::Shutdown) {
            return Ok(true);
        }
        if let Some(el) = self.elastic.as_mut() {
            if matches!(frame.payload, Payload::Ping { .. }) {
                let effect = el.control.on_ping(&frame)?;
                if effect.revived || effect.rerouted {
                    // Partials gathered before an outage or under the
                    // previous epoch are refused from here on.
                    self.collector.resync(el.control.floor);
                }
                if effect.rerouted {
                    self.reroute();
                }
                return Ok(false);
            }
            if el.control.down || !el.control.admit(frame.seq) {
                return Ok(false);
            }
        }
        let source = self.fan_in.source_slot(frame.from, &self.name)?;
        let item = self.section.item_from(frame.payload, &self.name)?;
        match self.collector.insert(frame.seq, source, item) {
            Ok(Ingest::Complete { seq, items, substituted }) => {
                completed.push((seq, items, substituted));
            }
            Ok(Ingest::Replay { seq }) => {
                if let Some((s, decision)) = last_decision {
                    if *s == seq {
                        self.send(decision, seq)?;
                    }
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
        let Some(el) = self.elastic.as_mut() else { return };
        let r = &el.control.routing;
        if let Some(k) = el.tier_k {
            // Where this tier sits on the escalation path decides who feeds
            // it: first hop collects the devices, later hops collect their
            // predecessor, off-path tiers are dormant.
            let path = r.escalation_path();
            let desired = match path.iter().position(|&x| x == k) {
                Some(0) => Feeder::Devices,
                Some(p) => Feeder::Tier(path[p - 1]),
                None => Feeder::Dormant,
            };
            if desired != el.cur_feeder {
                match desired {
                    Feeder::Devices => {
                        let n = r.num_devices();
                        let sources = (0..n).map(Some).collect();
                        self.collector.reconfigure(n, el.device_blanks.clone(), sources);
                        self.fan_in = FanIn::Devices(n);
                    }
                    Feeder::Tier(i) => {
                        let blank = vec![el.tier_out_blanks[i].clone()];
                        self.collector.reconfigure(1, blank, vec![None]);
                        self.fan_in = FanIn::Tier(el.tier_ids[i]);
                    }
                    // Nothing routes here: keep the geometry; the epoch
                    // floor blocks stragglers.
                    Feeder::Dormant => {}
                }
                el.cur_feeder = desired;
            }
        }
        // Whoever currently collects the devices must not wait for the
        // routing-dead ones (and must wait again for re-joined ones).
        let collects_devices = match el.tier_k {
            None => true,
            Some(_) => el.cur_feeder == Feeder::Devices,
        };
        if collects_devices {
            for dix in 0..r.num_devices() {
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
    fn resolve(&mut self, seq: u64, logits: Tensor, map: Option<Tensor>) -> Result<Decision> {
        let mut d = self.policy.evaluate(&logits)?;
        // Elastic forced exits: the gateway's `forced_local` pins every
        // sample to the local exit, and a severed or target-less tier
        // classifies locally — escalating would address a topology that no
        // longer exists.
        if let Some(el) = self.elastic.as_ref() {
            let r = &el.control.routing;
            let escalates = !matches!(self.escalation, Escalation::Terminal);
            d.exits |= match el.tier_k {
                None => r.forced_local,
                Some(k) => r.forced_exit[k] || (escalates && el.route_target().is_none()),
            };
        }
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
            match &self.escalation {
                Escalation::RequestFromDevices(_) => Ok(Decision::Broadcast),
                Escalation::ForwardMap(_) => {
                    let map = map.ok_or_else(|| RuntimeError::Protocol {
                        reason: format!("{}: escalation without an output map", self.name),
                    })?;
                    Ok(Decision::Forward(Frame::new(
                        seq,
                        self.id,
                        features_payload(&map.index_axis0(0)?)?,
                    )))
                }
                Escalation::Terminal => Err(RuntimeError::Protocol {
                    reason: format!("{}: terminal tier cannot escalate", self.name),
                }),
            }
        }
    }

    /// Sends a (possibly replayed) decision to its target. Under elastic
    /// routing a forward resolves against the *current* routing table, so
    /// replays after a re-parent reach the live target.
    fn send(&self, decision: &Decision, seq: u64) -> Result<()> {
        match (decision, &self.escalation) {
            (Decision::Verdict(frame), _) => self.to_orchestrator.send(frame),
            (Decision::Broadcast, Escalation::RequestFromDevices(devices)) => {
                for sender in devices.iter().flatten() {
                    sender.send(&Frame::new(seq, self.id, Payload::OffloadRequest))?;
                }
                Ok(())
            }
            (Decision::Forward(frame), Escalation::ForwardMap(next)) => {
                match self.elastic.as_ref() {
                    Some(el) => match el.route_target().and_then(|j| el.to_tiers[j].as_ref()) {
                        Some(link) => link.send(frame),
                        // The target vanished since the decision was
                        // cached: drop the replay, the epoch has moved on.
                        None => Ok(()),
                    },
                    None => next.send(frame),
                }
            }
            _ => Err(RuntimeError::Protocol {
                reason: format!("{}: decision does not match escalation target", self.name),
            }),
        }
    }
}
