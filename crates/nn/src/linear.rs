//! Fully connected layers, in float and BinaryConnect-binarized variants.

use crate::init;
use crate::layer::{Layer, Mode, Param};
use ddnn_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// Binarizes a tensor elementwise to ±1 (`x > 0 → +1`, else `−1`).
///
/// The same convention is used by the wire format in
/// [`ddnn_tensor::bits::pack_signs`], so a binarized activation survives a
/// pack/unpack round trip unchanged.
pub fn binarize(t: &Tensor) -> Tensor {
    t.map(|x| if x > 0.0 { 1.0 } else { -1.0 })
}

/// A fully connected layer `y = x·Wᵀ + b`.
///
/// With [`Linear::binarized`], the forward pass uses `sign(W)` instead of
/// `W` (BinaryConnect): real-valued master weights receive straight-through
/// gradients and are clipped to `[-1, 1]` after each optimizer step. This is
/// the 1-bit-weight building block the paper uses so device models fit in
/// under 2 KB.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    binary: bool,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a float-weight linear layer with Glorot-uniform init.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let (fan_in, fan_out) = init::linear_fans(in_features, out_features);
        let w = init::glorot_uniform([out_features, in_features], fan_in, fan_out, rng);
        Linear {
            weight: Param::new("linear.weight", w),
            bias: bias.then(|| Param::new("linear.bias", Tensor::zeros([out_features]))),
            binary: false,
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Creates a BinaryConnect linear layer: master weights in `[-1, 1]`,
    /// `sign(W)` in the forward pass, no bias (batch norm supplies the
    /// affine terms in the paper's FC block).
    pub fn binarized(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let (fan_in, fan_out) = init::linear_fans(in_features, out_features);
        let w = init::glorot_uniform([out_features, in_features], fan_in, fan_out, rng);
        Linear {
            weight: Param::with_clip("binlinear.weight", w, -1.0, 1.0),
            bias: None,
            binary: true,
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Whether the layer uses binarized weights.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The bias, if the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| &b.value)
    }

    /// The weights used in the forward pass (`sign(W)` when binarized).
    pub fn effective_weight(&self) -> Tensor {
        if self.binary {
            binarize(&self.weight.value)
        } else {
            self.weight.value.clone()
        }
    }

    /// Serialized size of the layer's weights in bytes: 1 bit per weight
    /// when binarized, 4 bytes otherwise (plus 4 bytes per bias element).
    ///
    /// This is the quantity the paper's "<2 KB per device" memory budget
    /// constrains.
    pub fn memory_bytes(&self) -> usize {
        let w = if self.binary {
            self.weight.value.len().div_ceil(8)
        } else {
            4 * self.weight.value.len()
        };
        w + self.bias.as_ref().map_or(0, |b| 4 * b.value.len())
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // Accept (N, in) or anything flattenable to it.
        let n = input.dims().first().copied().unwrap_or(0);
        let flat = input.reshape([n, input.len() / n.max(1)])?;
        if flat.dims()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: vec![n, self.in_features],
                op: "linear.forward",
            });
        }
        let mut out = flat.matmul(&self.effective_weight().transpose()?)?;
        if let Some(b) = &self.bias {
            out.add_row_broadcast(&b.value)?;
        }
        // Only training caches its input.
        self.cached_input = (mode == Mode::Train).then_some(flat);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::Empty { op: "linear.backward without a Train forward" })?;
        let w = self.effective_weight();
        // dW += dYᵀ · X   (straight-through to the master weights)
        let gw = grad_output.transpose()?.matmul(input)?;
        self.weight.grad.add_assign(&gw)?;
        if let Some(b) = &mut self.bias {
            let gb = grad_output.sum_axis(0)?;
            b.grad.add_assign(&gb)?;
        }
        // dX = dY · W (the effective/binarized weights)
        grad_output.matmul(&w)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            ps.push(b);
        }
        ps
    }

    fn describe(&self) -> String {
        format!(
            "{}linear({} -> {}{})",
            if self.binary { "bin-" } else { "" },
            self.in_features,
            self.out_features,
            if self.bias.is_some() { ", bias" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn forward_known_values() {
        let mut rng = rng_from_seed(0);
        let mut l = Linear::new(2, 2, true, &mut rng);
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        if let Some(b) = &mut l.bias {
            b.value = Tensor::from_vec(vec![0.5, -0.5], [2]).unwrap();
        }
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn forward_flattens_higher_rank_input() {
        let mut rng = rng_from_seed(0);
        let mut l = Linear::new(12, 3, false, &mut rng);
        let x = Tensor::ones([2, 3, 2, 2]);
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = rng_from_seed(0);
        let mut l = Linear::new(4, 2, false, &mut rng);
        assert!(l.forward(&Tensor::ones([1, 5]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = rng_from_seed(0);
        let mut l = Linear::new(2, 2, false, &mut rng);
        assert!(l.backward(&Tensor::ones([1, 2])).is_err());
    }

    #[test]
    fn backward_after_eval_forward_is_a_typed_error() {
        let mut rng = rng_from_seed(8);
        for mut l in [Linear::new(4, 2, true, &mut rng), Linear::binarized(4, 2, &mut rng)] {
            let x = binarize(&Tensor::randn([3, 4], 1.0, &mut rng));
            l.forward(&x, Mode::Train).unwrap();
            l.forward(&x, Mode::Eval).unwrap();
            let g = Tensor::ones([3, 2]);
            assert!(matches!(l.backward(&g), Err(TensorError::Empty { .. })));
        }
    }

    #[test]
    fn gradient_check_float() {
        let mut rng = rng_from_seed(3);
        let mut l = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::randn([2, 3], 1.0, &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        let gout = Tensor::ones(y.dims().to_vec());
        let gin = l.backward(&gout).unwrap();
        let eps = 1e-3;
        // Weight gradient vs finite differences of sum(y).
        let base_w = l.weight.value.clone();
        for idx in 0..base_w.len() {
            let mut wp = base_w.clone();
            wp.data_mut()[idx] += eps;
            l.weight.value = wp;
            let fp = l.forward(&x, Mode::Train).unwrap().sum();
            let mut wm = base_w.clone();
            wm.data_mut()[idx] -= eps;
            l.weight.value = wm;
            let fm = l.forward(&x, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let got = l.weight.grad.data()[idx];
            assert!((num - got).abs() < 1e-2, "dW[{idx}]: num={num} got={got}");
        }
        l.weight.value = base_w;
        // Input gradient.
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = l.forward(&xp, Mode::Train).unwrap().sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = l.forward(&xm, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gin.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn binarized_forward_uses_signs() {
        let mut rng = rng_from_seed(4);
        let mut l = Linear::binarized(2, 1, &mut rng);
        l.weight.value = Tensor::from_vec(vec![0.3, -0.7], [1, 2]).unwrap();
        let x = Tensor::from_vec(vec![2.0, 3.0], [1, 2]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        // sign weights = [1, -1] -> y = 2 - 3 = -1.
        assert_eq!(y.data(), &[-1.0]);
    }

    #[test]
    fn bit_kernel_path_matches_float_path_exactly() {
        // The Eval forward is the f32 reference; XNOR–popcount on the same
        // signs must reproduce it bit for bit.
        let mut rng = rng_from_seed(21);
        let mut l = Linear::binarized(70, 5, &mut rng); // width crosses a word boundary
        let x = binarize(&Tensor::randn([4, 70], 1.0, &mut rng));
        let reference = l.forward(&x, Mode::Eval).unwrap();
        let xnor = ddnn_tensor::bitmatrix::binary_matmul(&x, &l.weight.value).unwrap();
        assert_eq!(xnor, reference, "XNOR and f32 paths must be bit-identical");
    }

    #[test]
    fn binarized_has_clip_and_no_bias() {
        let mut rng = rng_from_seed(4);
        let mut l = Linear::binarized(4, 2, &mut rng);
        let ps = l.params_mut();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].clip, Some((-1.0, 1.0)));
    }

    #[test]
    fn binarize_codomain() {
        let t = Tensor::from_vec(vec![-0.5, 0.0, 0.5], [3]).unwrap();
        assert_eq!(binarize(&t).data(), &[-1.0, -1.0, 1.0]);
    }

    #[test]
    fn memory_bytes_binary_vs_float() {
        let mut rng = rng_from_seed(5);
        let f = Linear::new(1024, 3, false, &mut rng);
        let b = Linear::binarized(1024, 3, &mut rng);
        assert_eq!(f.memory_bytes(), 4 * 3072);
        assert_eq!(b.memory_bytes(), 384); // 3072 bits
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = rng_from_seed(6);
        let mut l = Linear::new(2, 2, false, &mut rng);
        let x = Tensor::ones([1, 2]);
        let g = Tensor::ones([1, 2]);
        l.forward(&x, Mode::Train).unwrap();
        l.backward(&g).unwrap();
        let once = l.weight.grad.clone();
        l.backward(&g).unwrap();
        let twice = l.weight.grad.clone();
        assert_eq!(twice, once.scale(2.0));
    }

    #[test]
    fn describe_mentions_binarization() {
        let mut rng = rng_from_seed(7);
        assert!(Linear::binarized(2, 2, &mut rng).describe().starts_with("bin-"));
        assert!(Linear::new(2, 2, true, &mut rng).describe().contains("bias"));
    }
}
