//! Convolutional layers, in float and BinaryConnect-binarized variants.

use crate::init;
use crate::layer::{Layer, Mode, Param};
use crate::linear::binarize;
use ddnn_tensor::bitmatrix::binary_conv2d_signs;
use ddnn_tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_weight, max_pool2d, max_pool2d_values, Conv2dSpec,
};
use ddnn_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// A 2-D convolution layer over NCHW tensors.
///
/// The paper's ConvP blocks use 3×3 kernels, stride 1, padding 1
/// ([`Conv2dSpec::paper_conv`]) with binarized weights on end devices.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    spec: Conv2dSpec,
    binary: bool,
    in_channels: usize,
    filters: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a float-weight convolution with Glorot-uniform init.
    pub fn new(in_channels: usize, filters: usize, spec: Conv2dSpec, rng: &mut impl Rng) -> Self {
        let (fan_in, fan_out) = init::conv_fans(filters, in_channels, spec.kernel_h, spec.kernel_w);
        let w = init::glorot_uniform(
            [filters, in_channels, spec.kernel_h, spec.kernel_w],
            fan_in,
            fan_out,
            rng,
        );
        Conv2d {
            weight: Param::new("conv.weight", w),
            spec,
            binary: false,
            in_channels,
            filters,
            cached_input: None,
        }
    }

    /// Creates a BinaryConnect convolution: master weights clipped to
    /// `[-1, 1]`, `sign(W)` used in the forward pass, no bias.
    pub fn binarized(
        in_channels: usize,
        filters: usize,
        spec: Conv2dSpec,
        rng: &mut impl Rng,
    ) -> Self {
        let mut c = Conv2d::new(in_channels, filters, spec, rng);
        c.weight = Param::with_clip("binconv.weight", c.weight.value, -1.0, 1.0);
        c.binary = true;
        c
    }

    /// Whether the layer uses binarized weights.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Number of output filters.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The weights used in the forward pass (`sign(W)` when binarized).
    pub fn effective_weight(&self) -> Tensor {
        if self.binary {
            binarize(&self.weight.value)
        } else {
            self.weight.value.clone()
        }
    }

    /// Serialized weight size in bytes (1 bit per weight when binarized).
    pub fn memory_bytes(&self) -> usize {
        if self.binary {
            self.weight.value.len().div_ceil(8)
        } else {
            4 * self.weight.value.len()
        }
    }

    /// [`Layer::backward`] without the input gradient: accumulates the
    /// weight gradient of the last `Train` forward and nothing else — for
    /// a layer whose input is data, not an activation (the device conv
    /// sees raw images), where nobody reads the input gradient.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    pub fn backward_weights(&mut self, grad_output: &Tensor) -> Result<()> {
        let gw = conv2d_backward_weight(self.train_input()?, grad_output, &self.spec)?;
        self.weight.grad.add_assign(&gw)
    }

    fn train_input(&self) -> Result<&Tensor> {
        self.cached_input
            .as_ref()
            .ok_or(TensorError::Empty { op: "conv2d.backward without a Train forward" })
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: vec![0, self.in_channels, 0, 0],
                op: "conv2d.forward",
            });
        }
        // Only training caches its input.
        self.cached_input = (mode == Mode::Train).then(|| input.clone());
        // A binarized layer fed ±1 activations trains on the XNOR plan: its
        // sums are exact small integers, so the output is the f32 path's
        // bit for bit. `Eval` keeps the f32 path, the reference the frozen
        // inference form is held to.
        if self.binary && mode == Mode::Train {
            if let Some(out) = binary_conv2d_signs(input, &self.weight.value, &self.spec)? {
                return Ok(out);
            }
        }
        conv2d(input, &self.effective_weight(), &self.spec)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self.train_input()?;
        let w = self.effective_weight();
        let (gin, gw) = conv2d_backward(input, &w, grad_output, &self.spec)?;
        self.weight.grad.add_assign(&gw)?;
        Ok(gin)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn describe(&self) -> String {
        format!(
            "{}conv2d({} -> {}, {}x{}/s{}p{})",
            if self.binary { "bin-" } else { "" },
            self.in_channels,
            self.filters,
            self.spec.kernel_h,
            self.spec.kernel_w,
            self.spec.stride,
            self.spec.padding
        )
    }
}

/// A max-pooling layer over NCHW tensors (no parameters).
///
/// The paper's ConvP blocks pool with 3×3 windows, stride 2, padding 1
/// ([`Conv2dSpec::paper_pool`]), halving each spatial dimension.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: Conv2dSpec,
    cached_argmax: Option<Vec<usize>>,
    cached_input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given geometry.
    pub fn new(spec: Conv2dSpec) -> Self {
        MaxPool2d { spec, cached_argmax: None, cached_input_shape: Vec::new() }
    }

    /// The paper's pooling geometry (3×3, stride 2, pad 1).
    pub fn paper() -> Self {
        MaxPool2d::new(Conv2dSpec::paper_pool())
    }

    /// Pooling geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Default for MaxPool2d {
    fn default() -> Self {
        MaxPool2d::paper()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.cached_argmax = None;
        if mode == Mode::Eval {
            return max_pool2d_values(input, &self.spec);
        }
        let res = max_pool2d(input, &self.spec)?;
        self.cached_argmax = Some(res.argmax);
        self.cached_input_shape = input.dims().to_vec();
        Ok(res.output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let argmax = self
            .cached_argmax
            .as_ref()
            .ok_or(TensorError::Empty { op: "max_pool2d.backward without a Train forward" })?;
        ddnn_tensor::conv::max_pool2d_backward(grad_output, argmax, &self.cached_input_shape)
    }

    fn describe(&self) -> String {
        format!(
            "maxpool({}x{}/s{}p{})",
            self.spec.kernel_h, self.spec.kernel_w, self.spec.stride, self.spec.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::bitmatrix::binary_conv2d;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn conv_shapes_match_paper_pipeline() {
        let mut rng = rng_from_seed(0);
        let mut conv = Conv2d::binarized(3, 4, Conv2dSpec::paper_conv(), &mut rng);
        let mut pool = MaxPool2d::paper();
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 4, 32, 32]);
        let p = pool.forward(&y, Mode::Train).unwrap();
        assert_eq!(p.dims(), &[2, 4, 16, 16]);
    }

    #[test]
    fn conv_rejects_wrong_channels() {
        let mut rng = rng_from_seed(0);
        let mut conv = Conv2d::new(3, 4, Conv2dSpec::paper_conv(), &mut rng);
        assert!(conv.forward(&Tensor::ones([1, 2, 8, 8]), Mode::Train).is_err());
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = rng_from_seed(11);
        let mut conv = Conv2d::new(2, 2, Conv2dSpec::paper_conv(), &mut rng);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let gout = Tensor::ones(y.dims().to_vec());
        let gin = conv.backward(&gout).unwrap();
        let eps = 1e-2;
        let base_w = conv.weight.value.clone();
        for idx in (0..base_w.len()).step_by(7) {
            let mut wp = base_w.clone();
            wp.data_mut()[idx] += eps;
            conv.weight.value = wp;
            let fp = conv.forward(&x, Mode::Train).unwrap().sum();
            let mut wm = base_w.clone();
            wm.data_mut()[idx] -= eps;
            conv.weight.value = wm;
            let fm = conv.forward(&x, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let got = conv.weight.grad.data()[idx];
            assert!((num - got).abs() < 0.05, "dW[{idx}]: num={num} got={got}");
        }
        conv.weight.value = base_w;
        for idx in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = conv.forward(&xp, Mode::Train).unwrap().sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = conv.forward(&xm, Mode::Train).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gin.data()[idx]).abs() < 0.05);
        }
    }

    #[test]
    fn binarized_conv_uses_sign_weights() {
        let mut rng = rng_from_seed(12);
        let mut conv = Conv2d::binarized(1, 1, Conv2dSpec::new(1, 1, 0), &mut rng);
        conv.weight.value = Tensor::from_vec(vec![0.25], [1, 1, 1, 1]).unwrap();
        let x = Tensor::from_vec(vec![3.0], [1, 1, 1, 1]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[3.0]); // weight sign = +1
        conv.weight.value = Tensor::from_vec(vec![-0.25], [1, 1, 1, 1]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[-3.0]);
    }

    #[test]
    fn bit_kernel_conv_matches_float_path_exactly() {
        // The Eval forward is the f32 reference; the XNOR kernel on the
        // same signs must reproduce it bit for bit.
        let mut rng = rng_from_seed(23);
        let mut conv = Conv2d::binarized(4, 6, Conv2dSpec::paper_conv(), &mut rng);
        let x = crate::linear::binarize(&Tensor::randn([2, 4, 8, 8], 1.0, &mut rng));
        let reference = conv.forward(&x, Mode::Eval).unwrap();
        let xnor = binary_conv2d(&x, &conv.weight.value, conv.spec()).unwrap();
        assert_eq!(xnor, reference, "XNOR and f32 conv paths must be bit-identical");
    }

    #[test]
    fn pool_backward_before_forward_errors() {
        let mut pool = MaxPool2d::paper();
        assert!(pool.backward(&Tensor::ones([1, 1, 2, 2])).is_err());
    }

    #[test]
    fn conv_backward_after_eval_forward_is_a_typed_error() {
        let mut rng = rng_from_seed(14);
        let mut conv = Conv2d::binarized(2, 3, Conv2dSpec::paper_conv(), &mut rng);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        conv.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::ones(y.dims().to_vec());
        assert!(matches!(conv.backward(&g), Err(TensorError::Empty { .. })));
        assert!(matches!(conv.backward_weights(&g), Err(TensorError::Empty { .. })));
    }

    #[test]
    fn pool_backward_after_eval_forward_is_a_typed_error() {
        let mut pool = MaxPool2d::paper();
        let x = Tensor::from_fn([1, 2, 4, 4], |i| (i as f32 * 0.9).sin());
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(pool.forward(&x, Mode::Eval).unwrap(), y);
        let g = Tensor::ones(y.dims().to_vec());
        assert!(matches!(pool.backward(&g), Err(TensorError::Empty { .. })));
    }

    #[test]
    fn pool_has_no_params() {
        let mut pool = MaxPool2d::default();
        assert!(pool.params_mut().is_empty());
        assert_eq!(pool.param_count(), 0);
    }

    #[test]
    fn paper_device_conv_is_under_memory_budget() {
        // f=4 binary 3x3 filters over 3 channels: 108 bits -> 14 bytes.
        let mut rng = rng_from_seed(13);
        let conv = Conv2d::binarized(3, 4, Conv2dSpec::paper_conv(), &mut rng);
        assert!(conv.memory_bytes() < 2048);
    }
}
