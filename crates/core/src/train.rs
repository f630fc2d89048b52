//! Joint multi-exit training (paper §III-C): minimize the weighted sum of
//! softmax cross-entropy losses over all exit points with Adam.

use crate::model::{Ddnn, ExitGrads};
use ddnn_nn::{Adam, Mode, Optimizer, SoftmaxCrossEntropy};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{parallel, Result, Tensor, TensorError};
use rand::seq::SliceRandom;

/// Training hyper-parameters. Defaults follow the paper (§IV-A): Adam with
/// α = 0.001, β₁ = 0.9, β₂ = 0.999, ε = 1e-8, 100 epochs, equal exit
/// weights.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set (paper: 100).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam step size α.
    pub lr: f32,
    /// Loss weight of each exit, local first, cloud last (paper: equal).
    /// When shorter than the number of exits, missing weights default
    /// to 1.0.
    pub exit_weights: Vec<f32>,
    /// Shuffling seed.
    pub seed: u64,
    /// Forward-only passes used to re-estimate batch-norm running
    /// statistics with the final weights after training (see
    /// [`Ddnn::refresh_batch_norm_stats`]). `0` disables the refresh.
    pub stat_refresh_passes: usize,
    /// Number of shards each mini-batch is split into for data-parallel
    /// forward/backward across the worker pool (`1`, the default, keeps
    /// the exact single-model legacy path).
    ///
    /// Shards are contiguous sub-batches of fixed size `⌈n/S⌉`; each runs
    /// on its own deep copy of the model and the shard gradients are
    /// reduced into the master in fixed shard order, weighted by
    /// `shard_n/total_n` (the loss is a batch mean, so this reproduces the
    /// full-batch gradient scaling). The decomposition depends only on
    /// `grad_shards` — never on `DDNN_THREADS` — so a given configuration
    /// trains identically at any thread count. Note that `S > 1` changes
    /// which samples share batch-norm statistics and is therefore a
    /// (deterministically) different trajectory than `S = 1`.
    pub grad_shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 50,
            lr: 0.001,
            exit_weights: vec![],
            seed: 123,
            stat_refresh_passes: 3,
            grad_shards: 1,
        }
    }
}

impl TrainConfig {
    /// The paper's training recipe.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A shorter recipe for tests and quick experiments.
    pub fn quick(epochs: usize) -> Self {
        TrainConfig { epochs, ..Self::default() }
    }
}

/// Loss trace of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean combined loss over batches.
    pub loss: f32,
    /// Mean local-exit loss.
    pub local_loss: f32,
    /// Mean edge-exit loss (0 when there is no edge).
    pub edge_loss: f32,
    /// Mean cloud-exit loss.
    pub cloud_loss: f32,
}

/// Result of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch loss statistics.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Final combined loss (0 if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.loss)
    }
}

/// Trains a DDNN on multi-view data: `views[d]` holds device `d`'s
/// `(n, 3, 32, 32)` batch for all `n` training samples, `labels` the shared
/// ground truth.
///
/// # Errors
///
/// Returns an error for inconsistent view/label sizes or internal shape
/// errors.
pub fn train(
    model: &mut Ddnn,
    views: &[Tensor],
    labels: &[usize],
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    let n = labels.len();
    if views.is_empty() || views.iter().any(|v| v.dims()[0] != n) {
        return Err(TensorError::LengthMismatch {
            expected: n,
            actual: views.first().map_or(0, |v| v.dims()[0]),
        });
    }
    let has_edge = model.num_exits() == 3;
    let weight = |i: usize| cfg.exit_weights.get(i).copied().unwrap_or(1.0);
    let (w_local, w_edge, w_cloud) =
        if has_edge { (weight(0), weight(1), weight(2)) } else { (weight(0), 0.0, weight(1)) };

    let mut opt = Adam::with_lr(cfg.lr);
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut rng = rng_from_seed(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut report = TrainReport::default();

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut sums = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let batch_views: Vec<Tensor> =
                views.iter().map(|v| v.select_axis0(chunk)).collect::<Result<_>>()?;
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();

            model.zero_grad();
            let shards = cfg.grad_shards.max(1).min(batch_labels.len());
            let (l_loss, e_loss, c_loss) = if shards <= 1 {
                // Exact legacy path: one forward/backward on the master.
                let logits = model.forward(&batch_views, Mode::Train)?;
                let local = loss_fn.forward(&logits.local, &batch_labels)?;
                let cloud = loss_fn.forward(&logits.cloud, &batch_labels)?;
                let edge =
                    logits.edge.as_ref().map(|e| loss_fn.forward(e, &batch_labels)).transpose()?;
                let grads = ExitGrads {
                    local: local.grad.scale(w_local),
                    edge: edge.as_ref().map(|e| e.grad.scale(w_edge)),
                    cloud: cloud.grad.scale(w_cloud),
                };
                model.backward(&grads)?;
                (local.loss, edge.as_ref().map_or(0.0, |e| e.loss), cloud.loss)
            } else {
                sharded_batch(
                    model,
                    &batch_views,
                    &batch_labels,
                    shards,
                    &loss_fn,
                    (w_local, w_edge, w_cloud),
                )?
            };
            opt.step(&mut model.params_mut());

            sums.0 += w_local * l_loss + w_edge * e_loss + w_cloud * c_loss;
            sums.1 += l_loss;
            sums.2 += e_loss;
            sums.3 += c_loss;
            batches += 1;
        }
        let b = batches.max(1) as f32;
        report.epochs.push(EpochStats {
            epoch,
            loss: sums.0 / b,
            local_loss: sums.1 / b,
            edge_loss: sums.2 / b,
            cloud_loss: sums.3 / b,
        });
    }
    if cfg.stat_refresh_passes > 0 {
        model.refresh_batch_norm_stats(views, cfg.batch_size, cfg.stat_refresh_passes)?;
    }
    Ok(report)
}

/// Runs one mini-batch as `shards` data-parallel forward/backward passes on
/// deep copies of the master model and reduces the shard gradients into the
/// master. Returns the batch-mean `(local, edge, cloud)` losses.
///
/// Determinism contract: shard boundaries are a fixed function of the batch
/// size and `shards`; each shard's computation is the ordinary serial path
/// on its own model copy; and the reduction walks shards in index order on
/// the calling thread. The result is bit-identical for any `DDNN_THREADS`.
fn sharded_batch(
    model: &mut Ddnn,
    batch_views: &[Tensor],
    batch_labels: &[usize],
    shards: usize,
    loss_fn: &SoftmaxCrossEntropy,
    (w_local, w_edge, w_cloud): (f32, f32, f32),
) -> Result<(f32, f32, f32)> {
    let n = batch_labels.len();
    let per = n.div_ceil(shards);
    let ranges: Vec<(usize, usize)> =
        (0..shards).map(|s| (s * per, ((s + 1) * per).min(n))).filter(|(a, b)| a < b).collect();
    let snapshot: &Ddnn = model;
    // A forward and a backward pass over the whole batch; the device
    // sections alone (a lower bound) already place a real batch far above
    // the pool's cut-off.
    let work = 3 * snapshot.device_work(n);
    let shard_runs = parallel::par_map_indexed(ranges.len(), work, |si| {
        let (start, end) = ranges[si];
        let idx: Vec<usize> = (start..end).collect();
        let shard_views: Vec<Tensor> =
            batch_views.iter().map(|v| v.select_axis0(&idx)).collect::<Result<_>>()?;
        let shard_labels = &batch_labels[start..end];
        let mut shard = snapshot.clone();
        let logits = shard.forward(&shard_views, Mode::Train)?;
        let local = loss_fn.forward(&logits.local, shard_labels)?;
        let cloud = loss_fn.forward(&logits.cloud, shard_labels)?;
        let edge = logits.edge.as_ref().map(|e| loss_fn.forward(e, shard_labels)).transpose()?;
        let grads = ExitGrads {
            local: local.grad.scale(w_local),
            edge: edge.as_ref().map(|e| e.grad.scale(w_edge)),
            cloud: cloud.grad.scale(w_cloud),
        };
        shard.backward(&grads)?;
        Ok::<_, TensorError>((shard, local.loss, edge.as_ref().map_or(0.0, |e| e.loss), cloud.loss))
    });

    // Fixed-order weighted reduce on the calling thread. The per-sample
    // loss-gradient scale is 1/(shard_n·norm), so weighting by
    // shard_n/total_n restores the full-batch 1/(total_n·norm) scaling.
    let total = n as f32;
    let mut losses = (0.0f32, 0.0f32, 0.0f32);
    let mut shard_models: Vec<Ddnn> = Vec::with_capacity(ranges.len());
    for (run, &(start, end)) in shard_runs.into_iter().zip(&ranges) {
        let (shard, l, e, c) = run?;
        let w = (end - start) as f32 / total;
        losses.0 += w * l;
        losses.1 += w * e;
        losses.2 += w * c;
        shard_models.push(shard);
    }
    for (si, shard) in shard_models.iter_mut().enumerate() {
        let (start, end) = ranges[si];
        let w = (end - start) as f32 / total;
        for (mp, sp) in model.params_mut().into_iter().zip(shard.params_mut()) {
            mp.grad.add_assign(&sp.grad.scale(w))?;
        }
    }
    // Batch-norm running statistics cannot be meaningfully averaged across
    // shards mid-EMA; adopt shard 0's (the post-training
    // `refresh_batch_norm_stats` pass recomputes them from the final
    // weights anyway).
    if let Some(first) = shard_models.first_mut() {
        let states: Vec<Vec<f32>> = first.blocks_mut().iter().map(|b| b.extra_state()).collect();
        for (block, state) in model.blocks_mut().into_iter().zip(states) {
            block.load_extra_state(&state)?;
        }
    }
    Ok(losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationScheme;
    use crate::model::{DdnnConfig, EdgeConfig};

    /// A linearly separable two-device toy problem: class = which device
    /// sees a bright image.
    fn toy_data(n: usize, seed: u64) -> (Vec<Tensor>, Vec<usize>) {
        let mut rng = rng_from_seed(seed);
        let mut v0 = Vec::new();
        let mut v1 = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 3;
            let bright = |on: bool, rng: &mut rand::rngs::StdRng| {
                if on {
                    Tensor::rand_uniform([3, 32, 32], 0.7, 1.0, rng)
                } else {
                    Tensor::rand_uniform([3, 32, 32], 0.0, 0.3, rng)
                }
            };
            v0.push(bright(label == 0 || label == 2, &mut rng));
            v1.push(bright(label == 1 || label == 2, &mut rng));
            labels.push(label);
        }
        (vec![Tensor::stack(&v0).unwrap(), Tensor::stack(&v1).unwrap()], labels)
    }

    fn small_model() -> Ddnn {
        Ddnn::new(DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            ..DdnnConfig::default()
        })
    }

    #[test]
    fn loss_decreases_on_separable_toy_problem() {
        let (views, labels) = toy_data(48, 0);
        let mut model = small_model();
        let cfg = TrainConfig { epochs: 15, batch_size: 16, ..TrainConfig::default() };
        let report = train(&mut model, &views, &labels, &cfg).unwrap();
        assert_eq!(report.epochs.len(), 15);
        let first = report.epochs[0].loss;
        let last = report.final_loss();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn training_reaches_high_train_accuracy_on_toy() {
        let (views, labels) = toy_data(48, 1);
        let mut model = small_model();
        let cfg = TrainConfig { epochs: 40, batch_size: 16, ..TrainConfig::default() };
        train(&mut model, &views, &labels, &cfg).unwrap();
        let preds = model.predict_at(&views, crate::model::ExitPoint::Cloud).unwrap();
        let acc = crate::metrics::accuracy(&preds, &labels);
        assert!(acc > 0.8, "cloud train accuracy {acc}");
    }

    #[test]
    fn edge_model_trains() {
        let (views, labels) = toy_data(24, 2);
        let mut model = Ddnn::new(DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
            ..DdnnConfig::default()
        });
        let cfg = TrainConfig { epochs: 5, batch_size: 12, ..TrainConfig::default() };
        let report = train(&mut model, &views, &labels, &cfg).unwrap();
        assert!(report.epochs.iter().all(|e| e.loss.is_finite()));
        assert!(report.epochs[0].edge_loss > 0.0);
    }

    #[test]
    fn exit_weights_are_respected() {
        // Zero weight on the local exit: the local loss should not improve
        // much relative to a jointly trained model.
        let (views, labels) = toy_data(24, 3);
        let mut cloud_only = small_model();
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 12,
            exit_weights: vec![0.0, 1.0],
            ..TrainConfig::default()
        };
        let r = train(&mut cloud_only, &views, &labels, &cfg).unwrap();
        let mut joint = small_model();
        let cfg2 = TrainConfig { epochs: 10, batch_size: 12, ..TrainConfig::default() };
        let r2 = train(&mut joint, &views, &labels, &cfg2).unwrap();
        let local_drop_zero = r.epochs[0].local_loss - r.epochs.last().unwrap().local_loss;
        let local_drop_joint = r2.epochs[0].local_loss - r2.epochs.last().unwrap().local_loss;
        assert!(
            local_drop_joint > local_drop_zero - 0.05,
            "joint training should improve local loss at least as much \
             (joint {local_drop_joint} vs zero-weight {local_drop_zero})"
        );
    }

    #[test]
    fn sharded_training_is_reproducible_and_learns() {
        let (views, labels) = toy_data(24, 5);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 12,
            grad_shards: 3,
            stat_refresh_passes: 1,
            ..TrainConfig::default()
        };
        let mut a = small_model();
        let ra = train(&mut a, &views, &labels, &cfg).unwrap();
        let mut b = small_model();
        let rb = train(&mut b, &views, &labels, &cfg).unwrap();
        // Bit-identical loss curves and final weights across runs: the
        // shard decomposition and reduction order are fixed.
        assert_eq!(ra.epochs, rb.epochs);
        let oa = a.forward(&views, Mode::Eval).unwrap();
        let ob = b.forward(&views, Mode::Eval).unwrap();
        assert_eq!(oa.cloud, ob.cloud);
        assert!(ra.final_loss().is_finite());
        assert!(
            ra.final_loss() < ra.epochs[0].loss,
            "sharded loss did not decrease: {} -> {}",
            ra.epochs[0].loss,
            ra.final_loss()
        );
    }

    #[test]
    fn shard_count_above_batch_size_is_clamped() {
        let (views, labels) = toy_data(8, 6);
        let mut model = small_model();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            grad_shards: 64,
            stat_refresh_passes: 0,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &views, &labels, &cfg).unwrap();
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn single_shard_matches_legacy_path_exactly() {
        // grad_shards = 1 must take the identical code path (and produce
        // identical bytes) as the pre-sharding trainer.
        let (views, labels) = toy_data(12, 7);
        let cfg1 = TrainConfig {
            epochs: 3,
            batch_size: 6,
            stat_refresh_passes: 0,
            ..TrainConfig::default()
        };
        let cfg2 = TrainConfig { grad_shards: 1, ..cfg1.clone() };
        let mut a = small_model();
        let ra = train(&mut a, &views, &labels, &cfg1).unwrap();
        let mut b = small_model();
        let rb = train(&mut b, &views, &labels, &cfg2).unwrap();
        assert_eq!(ra.epochs, rb.epochs);
    }

    #[test]
    fn rejects_mismatched_sizes() {
        let (views, labels) = toy_data(10, 4);
        let mut model = small_model();
        let bad_labels = &labels[..5];
        assert!(train(&mut model, &views, bad_labels, &TrainConfig::quick(1)).is_err());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = TrainConfig::paper();
        assert_eq!(cfg.epochs, 100);
        assert_eq!(cfg.lr, 0.001);
        assert!(cfg.exit_weights.is_empty(), "equal weights by default");
    }
}
