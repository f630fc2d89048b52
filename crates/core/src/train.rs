//! Joint multi-exit training (paper §III-C): minimize the weighted sum of
//! softmax cross-entropy losses over all exit points with Adam.

use crate::model::{Ddnn, ExitGrads};
use ddnn_nn::{Adam, Mode, Optimizer, SoftmaxCrossEntropy};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{Result, Tensor, TensorError};
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
    /// to 1.0; longer than that, [`train`] rejects it.
    pub exit_weights: Vec<f32>,
    /// Shuffling seed.
    pub seed: u64,
    /// Forward-only passes used to re-estimate batch-norm running
    /// statistics with the final weights after training (see
    /// [`Ddnn::refresh_batch_norm_stats`]). `0` disables the refresh.
    pub stat_refresh_passes: usize,
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
/// Returns [`TensorError::LengthMismatch`] for inconsistent view/label
/// sizes or more `exit_weights` than the model has exits, before the first
/// step, and an error for internal shape errors.
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
    if cfg.exit_weights.len() > model.num_exits() {
        return Err(TensorError::LengthMismatch {
            expected: model.num_exits(),
            actual: cfg.exit_weights.len(),
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
            let (l_loss, e_loss, c_loss) =
                (local.loss, edge.as_ref().map_or(0.0, |e| e.loss), cloud.loss);
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
    fn rejects_mismatched_sizes() {
        let (views, labels) = toy_data(10, 4);
        let mut model = small_model();
        let bad_labels = &labels[..5];
        assert!(train(&mut model, &views, bad_labels, &TrainConfig::quick(1)).is_err());
    }

    #[test]
    fn rejects_more_exit_weights_than_exits() {
        // Three weights read local, edge, cloud; an edge-less model has no
        // exit for the middle one, so nothing may silently take it.
        let (views, labels) = toy_data(6, 5);
        let mut model = small_model();
        let before = model.save_bytes();
        let cfg = TrainConfig { exit_weights: vec![1.0, 0.5, 1.0], ..TrainConfig::quick(1) };
        assert_eq!(
            train(&mut model, &views, &labels, &cfg).unwrap_err(),
            TensorError::LengthMismatch { expected: 2, actual: 3 }
        );
        assert_eq!(model.save_bytes(), before, "rejected before the first step");
        let two = TrainConfig { exit_weights: vec![1.0, 0.5], ..TrainConfig::quick(1) };
        assert!(train(&mut model, &views, &labels, &two).is_ok());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = TrainConfig::paper();
        assert_eq!(cfg.epochs, 100);
        assert_eq!(cfg.lr, 0.001);
        assert!(cfg.exit_weights.is_empty(), "equal weights by default");
    }
}
