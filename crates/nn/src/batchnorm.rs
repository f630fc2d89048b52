//! Batch normalization (the BN stage of the paper's fused binary blocks).
//!
//! One implementation serves both the FC block (rank-2 `(n, d)` inputs,
//! normalized per feature) and the ConvP block (rank-4 `(n, c, h, w)`
//! inputs, normalized per channel over `n·h·w`).

use crate::layer::{Layer, Mode, Param};
use ddnn_tensor::{Result, Tensor, TensorError};

/// Batch normalization layer with learnable scale (`gamma`) and shift
/// (`beta`) and exponential running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_dims: Vec<usize>,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` features/channels with the
    /// conventional momentum 0.9 and epsilon 1e-5.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Param::new("bn.gamma", Tensor::ones([channels])),
            beta: Param::new("bn.beta", Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            momentum: 0.9,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Serialized parameter size in bytes: gamma, beta, running mean and
    /// running variance at 4 bytes each.
    pub fn memory_bytes(&self) -> usize {
        4 * 4 * self.channels
    }

    /// For an input of rank 2 `(n, c)` or rank 4 `(n, c, h, w)`, the
    /// per-element channel id and the per-channel group size.
    fn channel_layout(&self, dims: &[usize]) -> Result<(usize, usize)> {
        match dims {
            [_, c] if *c == self.channels => Ok((1, dims[0])),
            [n, c, h, w] if *c == self.channels => Ok((h * w, n * h * w)),
            _ => Err(TensorError::ShapeMismatch {
                lhs: dims.to_vec(),
                rhs: vec![0, self.channels],
                op: "batchnorm.forward",
            }),
        }
    }
}

/// Batch norm's inference arithmetic with its per-channel terms fixed:
/// what [`BatchNorm::forward`] runs under [`Mode::Eval`], and what a frozen
/// inference block applies to each pooled value before taking its sign —
/// one function, so the two agree bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct BnInference {
    /// Per channel: running mean `μ`, `σ⁻¹`, `γ`, `β`.
    terms: Vec<[f32; 4]>,
}

impl BnInference {
    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.terms.len()
    }

    /// `γ·((x − μ)·σ⁻¹) + β` for a value `x` of channel `ch`, with the
    /// running mean `μ` and `σ⁻¹ = 1/√(var + ε)` of the running variance.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is not below [`BnInference::channels`].
    #[inline(always)]
    pub fn apply(&self, ch: usize, x: f32) -> f32 {
        let [mean, inv_std, gamma, beta] = self.terms[ch];
        gamma * ((x - mean) * inv_std) + beta
    }
}

/// Visits every element of an `(n, c, inner)` batch of `len` values as
/// `f(channel, offset)`: one sample at a time and, within it, position by
/// position across the channels. Each channel's elements still come in
/// `(sample, position)` order, so a per-channel sum keeps its bits, but
/// the channels' add chains advance side by side instead of one whole
/// chain after another.
fn by_position(len: usize, c: usize, inner: usize, mut f: impl FnMut(usize, usize)) {
    for base in (0..len).step_by(c * inner) {
        for i in 0..inner {
            for ch in 0..c {
                f(ch, base + ch * inner + i);
            }
        }
    }
}

/// `1/√(var + ε)` per channel, for batch and running statistics alike.
fn inv_std(var: &[f32], eps: f32) -> Vec<f32> {
    var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect()
}

impl BatchNorm {
    /// The inference arithmetic over the current running statistics.
    pub fn inference(&self) -> BnInference {
        let inv_std = inv_std(&self.running_var, self.eps);
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let terms =
            (0..self.channels).map(|c| [self.running_mean[c], inv_std[c], gamma[c], beta[c]]);
        BnInference { terms: terms.collect() }
    }
}

impl Layer for BatchNorm {
    #[allow(clippy::needless_range_loop)] // channel-indexed accumulation is clearer
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let dims = input.dims().to_vec();
        let (inner, group) = self.channel_layout(&dims)?;
        let c = self.channels;
        let plane = c * inner; // elements per batch item
        let n = input.len() / plane;

        // Only training caches `x̂` for backward.
        self.cache = None;
        if mode == Mode::Eval {
            let bn = self.inference();
            let mut out = input.data().to_vec();
            for (i, span) in out.chunks_mut(inner.max(1)).enumerate() {
                let ch = i % c;
                span.iter_mut().for_each(|y| *y = bn.apply(ch, *y));
            }
            return Tensor::from_vec(out, dims);
        }

        let x = input.data();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        by_position(x.len(), c, inner, |ch, k| mean[ch] += x[k]);
        for m in &mut mean {
            *m /= group as f32;
        }
        by_position(x.len(), c, inner, |ch, k| {
            let d = x[k] - mean[ch];
            var[ch] += d * d;
        });
        for v in &mut var {
            *v /= group as f32;
        }
        for ch in 0..c {
            self.running_mean[ch] =
                self.momentum * self.running_mean[ch] + (1.0 - self.momentum) * mean[ch];
            self.running_var[ch] =
                self.momentum * self.running_var[ch] + (1.0 - self.momentum) * var[ch];
        }

        let inv_std = inv_std(&var, self.eps);
        let mut out = vec![0.0f32; input.len()];
        let mut x_hat = vec![0.0f32; input.len()];
        let g = self.gamma.value.data();
        let be = self.beta.value.data();
        for b in 0..n {
            for ch in 0..c {
                let span = b * plane + ch * inner..b * plane + (ch + 1) * inner;
                let xs = &input.data()[span.clone()];
                let (ys, hats) = (&mut out[span.clone()], &mut x_hat[span]);
                for ((y, h), &x) in ys.iter_mut().zip(hats).zip(xs) {
                    *h = (x - mean[ch]) * inv_std[ch];
                    *y = g[ch] * *h + be[ch];
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat: Tensor::from_vec(x_hat, dims.clone())?,
            inv_std,
            input_dims: dims.clone(),
        });
        Tensor::from_vec(out, dims)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(TensorError::Empty { op: "batchnorm.backward without a Train forward" })?;
        if grad_output.dims() != cache.input_dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.dims().to_vec(),
                rhs: cache.input_dims.clone(),
                op: "batchnorm.backward",
            });
        }
        let (inner, group) = self.channel_layout(&cache.input_dims)?;
        let c = self.channels;
        let plane = c * inner;
        let n = grad_output.len() / plane;
        let xh = cache.x_hat.data();
        let dy = grad_output.data();

        // Per-channel sums: Σdy and Σ(dy·x̂).
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xh = vec![0.0f32; c];
        by_position(dy.len(), c, inner, |ch, k| {
            sum_dy[ch] += dy[k];
            sum_dy_xh[ch] += dy[k] * xh[k];
        });
        self.gamma.grad.data_mut().iter_mut().zip(&sum_dy_xh).for_each(|(g, &s)| *g += s);
        self.beta.grad.data_mut().iter_mut().zip(&sum_dy).for_each(|(g, &s)| *g += s);

        let g = self.gamma.value.data();
        let m = group as f32;
        let mut dx = vec![0.0f32; grad_output.len()];
        for b in 0..n {
            for ch in 0..c {
                let base = b * plane + ch * inner;
                let k = g[ch] * cache.inv_std[ch];
                for i in 0..inner {
                    let idx = base + i;
                    dx[idx] = k * (dy[idx] - sum_dy[ch] / m - xh[idx] * sum_dy_xh[ch] / m);
                }
            }
        }
        Tensor::from_vec(dx, cache.input_dims.clone())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn describe(&self) -> String {
        format!("batchnorm({})", self.channels)
    }

    fn extra_state(&self) -> Vec<f32> {
        let mut s = self.running_mean.clone();
        s.extend_from_slice(&self.running_var);
        s
    }

    fn load_extra_state(&mut self, state: &[f32]) -> Result<()> {
        if state.len() != 2 * self.channels {
            return Err(TensorError::LengthMismatch {
                expected: 2 * self.channels,
                actual: state.len(),
            });
        }
        self.running_mean.copy_from_slice(&state[..self.channels]);
        self.running_var.copy_from_slice(&state[self.channels..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm::new(2);
        let mut rng = rng_from_seed(0);
        let x = Tensor::randn([64, 2], 3.0, &mut rng).shift(5.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Each feature column should be ~N(0,1).
        for ch in 0..2 {
            let col: Vec<f32> = (0..64).map(|i| y.data()[i * 2 + ch]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-3, "var={var}");
        }
    }

    #[test]
    fn rank4_normalizes_per_channel() {
        let mut bn = BatchNorm::new(3);
        let mut rng = rng_from_seed(1);
        let x = Tensor::randn([4, 3, 8, 8], 2.0, &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
        // Channel 0 mean over n,h,w ~ 0.
        let mut s = 0.0;
        for b in 0..4 {
            for i in 0..64 {
                s += y.data()[b * 3 * 64 + i];
            }
        }
        assert!((s / 256.0).abs() < 1e-4);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let mut rng = rng_from_seed(2);
        // Several training batches to converge running stats.
        for _ in 0..200 {
            let x = Tensor::randn([32, 1], 2.0, &mut rng).shift(10.0);
            bn.forward(&x, Mode::Train).unwrap();
        }
        // Eval on a shifted input: normalization should use ~(10, 4).
        let x = Tensor::full([4, 1], 10.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!(y.data().iter().all(|v| v.abs() < 0.2), "{:?}", y.data());
    }

    #[test]
    fn rejects_channel_mismatch() {
        let mut bn = BatchNorm::new(4);
        assert!(bn.forward(&Tensor::ones([2, 3]), Mode::Train).is_err());
        assert!(bn.forward(&Tensor::ones([2, 3, 4, 4]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut bn = BatchNorm::new(2);
        assert!(bn.backward(&Tensor::ones([2, 2])).is_err());
    }

    #[test]
    fn backward_after_eval_forward_is_a_typed_error() {
        // The Eval forward drops the Train cache rather than leaving a
        // stale one for backward to reuse.
        let mut bn = BatchNorm::new(2);
        let mut rng = rng_from_seed(4);
        let x = Tensor::randn([4, 2, 3, 3], 1.0, &mut rng);
        bn.forward(&x, Mode::Train).unwrap();
        bn.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::ones(x.dims().to_vec());
        assert!(matches!(bn.backward(&g), Err(TensorError::Empty { .. })));
    }

    #[test]
    fn gradient_check() {
        let mut rng = rng_from_seed(3);
        let mut bn = BatchNorm::new(2);
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5], [2]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![0.1, -0.2], [2]).unwrap();
        let x = Tensor::randn([5, 2], 1.0, &mut rng);
        // Loss = Σ y², so dL/dy = 2y.
        let y = bn.forward(&x, Mode::Train).unwrap();
        let gout = y.scale(2.0);
        let gin = bn.backward(&gout).unwrap();
        let eps = 1e-2;
        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            bn.forward(x, Mode::Train).unwrap().norm_sq()
        };
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data()[idx]).abs() < 0.05,
                "dX[{idx}]: num={num} got={}",
                gin.data()[idx]
            );
        }
        // gamma/beta grads.
        let base_g = bn.gamma.value.clone();
        for idx in 0..2 {
            bn.zero_grad();
            let y = bn.forward(&x, Mode::Train).unwrap();
            bn.backward(&y.scale(2.0)).unwrap();
            let got = bn.gamma.grad.data()[idx];
            let mut gp = base_g.clone();
            gp.data_mut()[idx] += eps;
            bn.gamma.value = gp;
            let fp = loss(&mut bn, &x);
            let mut gm = base_g.clone();
            gm.data_mut()[idx] -= eps;
            bn.gamma.value = gm;
            let fm = loss(&mut bn, &x);
            bn.gamma.value = base_g.clone();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - got).abs() < 0.05, "dgamma[{idx}]: num={num} got={got}");
        }
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(BatchNorm::new(4).memory_bytes(), 64);
    }
}
