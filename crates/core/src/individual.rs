//! The per-device "Individual" baseline (paper §III-F): one ConvP block
//! followed by an exit classifier, trained separately on a single device's
//! views, never consulting the DDNN's local or cloud exits.

use crate::block::{ConvPBlock, ExitHead, Precision};
use crate::model::{DevicePart, DEVICE_MAP_SIZE, INPUT_CHANNELS};
use crate::train::TrainConfig;
use ddnn_nn::{Adam, Layer, Mode, Optimizer, SoftmaxCrossEntropy};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{Result, Tensor, TensorError};
use rand::seq::SliceRandom;

/// A standalone single-device classifier: one [`DevicePart`], the "a
/// single end device portion as shown in Figure 4" model whose accuracy is
/// plotted as the "Individual" curve of Fig. 8.
pub struct IndividualModel {
    part: DevicePart,
    classes: usize,
}

impl std::fmt::Debug for IndividualModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndividualModel")
            .field("conv", &self.part.conv.describe())
            .field("classes", &self.classes)
            .finish()
    }
}

impl IndividualModel {
    /// Creates a model with `filters` ConvP filters and `classes` outputs.
    pub fn new(filters: usize, classes: usize, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let conv = ConvPBlock::new(INPUT_CHANNELS, filters, Precision::Binary, &mut rng);
        let map_elems = filters * DEVICE_MAP_SIZE * DEVICE_MAP_SIZE;
        let exit = ExitHead::new(map_elems, classes, Precision::Binary, &mut rng);
        IndividualModel { part: DevicePart { conv, exit }, classes }
    }

    /// Serialized parameter size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.part.memory_bytes()
    }

    /// Forward pass producing class logits.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input.
    pub fn forward(&mut self, views: &Tensor, mode: Mode) -> Result<Tensor> {
        Ok(self.part.forward(views, mode)?.1)
    }

    /// Trains on one device's `(n, 3, 32, 32)` views.
    ///
    /// # Errors
    ///
    /// Returns an error on mismatched sizes.
    pub fn train(
        &mut self,
        views: &Tensor,
        labels: &[usize],
        cfg: &TrainConfig,
    ) -> Result<Vec<f32>> {
        let n = labels.len();
        if views.dims()[0] != n {
            return Err(TensorError::LengthMismatch { expected: n, actual: views.dims()[0] });
        }
        let mut opt = Adam::with_lr(cfg.lr);
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut rng = rng_from_seed(cfg.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut sum = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let bx = views.select_axis0(chunk)?;
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                self.part.conv.zero_grad();
                self.part.exit.zero_grad();
                let logits = self.forward(&bx, Mode::Train)?;
                let out = loss_fn.forward(&logits, &by)?;
                self.part.backward(&out.grad, None)?;
                let mut params = self.part.conv.params_mut();
                params.extend(self.part.exit.params_mut());
                opt.step(&mut params);
                sum += out.loss;
                batches += 1;
            }
            epoch_losses.push(sum / batches.max(1) as f32);
        }
        if cfg.stat_refresh_passes > 0 {
            // Re-estimate batch-norm statistics with the final weights, as
            // the DDNN trainer does (binarized weights flip discretely, so
            // trajectory-averaged running stats are stale).
            for _ in 0..cfg.stat_refresh_passes {
                let mut start = 0;
                while start < n {
                    let idx: Vec<usize> = (start..(start + cfg.batch_size.max(1)).min(n)).collect();
                    let bx = views.select_axis0(&idx)?;
                    self.forward(&bx, Mode::Train)?;
                    start += cfg.batch_size.max(1);
                }
            }
        }
        Ok(epoch_losses)
    }

    /// Predicts classes for a batch of views.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input.
    pub fn predict(&mut self, views: &Tensor) -> Result<Vec<usize>> {
        self.part.freeze().forward(views)?.1.softmax_rows()?.argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn toy(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = rng_from_seed(seed);
        let mut views = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 3;
            let level = [0.1f32, 0.5, 0.9][label];
            views.push(Tensor::rand_uniform([3, 32, 32], level - 0.08, level + 0.08, &mut rng));
            labels.push(label);
        }
        (Tensor::stack(&views).unwrap(), labels)
    }

    #[test]
    fn learns_brightness_toy_problem() {
        let (views, labels) = toy(36, 0);
        let mut m = IndividualModel::new(2, 3, 9);
        let cfg = TrainConfig { epochs: 30, batch_size: 12, ..TrainConfig::default() };
        let losses = m.train(&views, &labels, &cfg).unwrap();
        assert!(losses.last().unwrap() < &losses[0]);
        let acc = accuracy(&m.predict(&views).unwrap(), &labels);
        assert!(acc > 0.7, "train accuracy {acc}");
    }

    #[test]
    fn rejects_size_mismatch() {
        let (views, labels) = toy(10, 1);
        let mut m = IndividualModel::new(2, 3, 0);
        assert!(m.train(&views, &labels[..5], &TrainConfig::quick(1)).is_err());
    }

    #[test]
    fn stays_under_device_memory_budget() {
        let m = IndividualModel::new(4, 3, 0);
        assert!(m.memory_bytes() < 2048, "{} bytes", m.memory_bytes());
    }

    #[test]
    fn predictions_are_valid_classes() {
        let (views, _) = toy(8, 2);
        let mut m = IndividualModel::new(2, 3, 1);
        let preds = m.predict(&views).unwrap();
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|&p| p < 3));
    }
}
