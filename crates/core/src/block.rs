//! The paper's fused binary blocks (Fig. 3): ConvP and FC.

use ddnn_nn::{BatchNorm, BinaryActivation, Conv2d, Layer, Linear, MaxPool2d, Mode, Param};
use ddnn_tensor::conv::Conv2dSpec;
use ddnn_tensor::{Result, Tensor};
use rand::Rng;

/// Numeric precision of a block's weights.
///
/// The paper uses binary blocks everywhere; [`Precision::Float`] exists for
/// the mixed-precision ablation it proposes as future work (§VI), where the
/// cloud keeps float weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// BinaryConnect 1-bit weights (the paper's configuration).
    #[default]
    Binary,
    /// 32-bit float weights.
    Float,
}

/// The fused binary convolution-pool block of Fig. 3:
/// 3×3 conv (stride 1, pad 1) → 3×3 pool (stride 2, pad 1) → batch norm →
/// binary activation. Output spatial size is half the input; output values
/// are ±1 (1 bit each on the wire).
#[derive(Debug, Clone)]
pub struct ConvPBlock {
    pub(crate) conv: Conv2d,
    pub(crate) pool: MaxPool2d,
    pub(crate) bn: BatchNorm,
    act: BinaryActivation,
    in_channels: usize,
    filters: usize,
}

impl ConvPBlock {
    /// Creates a ConvP block with `filters` output filters.
    pub fn new(
        in_channels: usize,
        filters: usize,
        precision: Precision,
        rng: &mut impl Rng,
    ) -> Self {
        let spec = Conv2dSpec::paper_conv();
        let conv = match precision {
            Precision::Binary => Conv2d::binarized(in_channels, filters, spec, rng),
            Precision::Float => Conv2d::new(in_channels, filters, spec, rng),
        };
        ConvPBlock {
            conv,
            pool: MaxPool2d::paper(),
            bn: BatchNorm::new(filters),
            act: BinaryActivation::new(),
            in_channels,
            filters,
        }
    }

    /// Number of output filters `f`.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Multiply–accumulates of the block's convolution over an
    /// `(n, c, h, w)` input — the block's cost as the worker pool counts it
    /// (pooling, batch norm and the activation are linear in the output and
    /// small beside it).
    pub fn macs(&self, input_dims: &[usize]) -> usize {
        let &[n, _, h, w] = input_dims else {
            return 0; // not a batch: the convolution itself reports it
        };
        let spec = self.conv.spec();
        let Ok((oh, ow)) = spec.checked_output_size(h, w) else {
            return 0; // degenerate geometry: likewise
        };
        n * self.filters * self.in_channels * spec.kernel_h * spec.kernel_w * oh * ow
    }

    /// Serialized parameter size in bytes (binary conv weights + float BN
    /// parameters) — the quantity bounded by the paper's 2 KB device
    /// budget.
    pub fn memory_bytes(&self) -> usize {
        self.conv.memory_bytes() + self.bn.memory_bytes()
    }

    /// [`Layer::backward`] that stops at the convolution's weights: every
    /// parameter gradient accumulates, but no gradient w.r.t. the block's
    /// input is formed — for a block fed by data (a device's ConvP block
    /// sees the raw view), where nobody reads it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    pub fn backward_weights(&mut self, grad_output: &Tensor) -> Result<()> {
        let g = self.act.backward(grad_output)?;
        let g = self.bn.backward(&g)?;
        let g = self.pool.backward(&g)?;
        self.conv.backward_weights(&g)
    }
}

impl Layer for ConvPBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let x = self.conv.forward(input, mode)?;
        let x = self.pool.forward(&x, mode)?;
        let x = self.bn.forward(&x, mode)?;
        self.act.forward(&x, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.act.backward(grad_output)?;
        let g = self.bn.backward(&g)?;
        let g = self.pool.backward(&g)?;
        self.conv.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.conv.params_mut();
        ps.extend(self.bn.params_mut());
        ps
    }

    fn describe(&self) -> String {
        format!("ConvP({} -> {})", self.in_channels, self.filters)
    }

    fn extra_state(&self) -> Vec<f32> {
        self.bn.extra_state()
    }

    fn load_extra_state(&mut self, state: &[f32]) -> Result<()> {
        self.bn.load_extra_state(state)
    }
}

/// The fused binary fully-connected block of Fig. 3:
/// binary linear → batch norm → binary activation.
#[derive(Debug, Clone)]
pub struct FcBlock {
    linear: Linear,
    bn: BatchNorm,
    act: BinaryActivation,
}

impl FcBlock {
    /// Creates an FC block with `out_features` nodes.
    pub fn new(
        in_features: usize,
        out_features: usize,
        precision: Precision,
        rng: &mut impl Rng,
    ) -> Self {
        let linear = match precision {
            Precision::Binary => Linear::binarized(in_features, out_features, rng),
            Precision::Float => Linear::new(in_features, out_features, false, rng),
        };
        FcBlock { linear, bn: BatchNorm::new(out_features), act: BinaryActivation::new() }
    }

    /// Serialized parameter size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.linear.memory_bytes() + self.bn.memory_bytes()
    }
}

impl Layer for FcBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let x = self.linear.forward(input, mode)?;
        let x = self.bn.forward(&x, mode)?;
        self.act.forward(&x, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.act.backward(grad_output)?;
        let g = self.bn.backward(&g)?;
        self.linear.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.linear.params_mut();
        ps.extend(self.bn.params_mut());
        ps
    }

    fn describe(&self) -> String {
        format!("FC[{}]", self.linear.describe())
    }

    fn extra_state(&self) -> Vec<f32> {
        self.bn.extra_state()
    }

    fn load_extra_state(&mut self, state: &[f32]) -> Result<()> {
        self.bn.load_extra_state(state)
    }
}

/// An exit head: the paper's FC block *without* the final binary
/// activation — a binary-weight linear layer followed by batch norm,
/// producing *float* class scores.
///
/// The paper's local aggregator consumes "a floating-point vector of length
/// equal to the number of classes ... the output from the final FC block"
/// (§IV-C): real-valued scores, 1-bit weights. The batch-norm stage is
/// essential — without it the scores are sums of hundreds of ±1 products
/// whose magnitude saturates the softmax, collapsing every sample's
/// normalized entropy to ~0 and making the exit threshold useless.
#[derive(Debug, Clone)]
pub struct ExitHead {
    pub(crate) linear: Linear,
    pub(crate) bn: BatchNorm,
    classes: usize,
}

impl ExitHead {
    /// Creates an exit head mapping `in_features` to `classes` scores.
    pub fn new(
        in_features: usize,
        classes: usize,
        precision: Precision,
        rng: &mut impl Rng,
    ) -> Self {
        let linear = match precision {
            Precision::Binary => Linear::binarized(in_features, classes, rng),
            Precision::Float => Linear::new(in_features, classes, true, rng),
        };
        ExitHead { linear, bn: BatchNorm::new(classes), classes }
    }

    /// Number of classes scored.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Serialized parameter size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.linear.memory_bytes() + self.bn.memory_bytes()
    }
}

impl Layer for ExitHead {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let x = self.linear.forward(input, mode)?;
        self.bn.forward(&x, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.bn.backward(grad_output)?;
        self.linear.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.linear.params_mut();
        ps.extend(self.bn.params_mut());
        ps
    }

    fn describe(&self) -> String {
        format!("ExitHead[{} -> bn]", self.linear.describe())
    }

    fn extra_state(&self) -> Vec<f32> {
        self.bn.extra_state()
    }

    fn load_extra_state(&mut self, state: &[f32]) -> Result<()> {
        self.bn.load_extra_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn convp_halves_spatial_size_and_binarizes() {
        let mut rng = rng_from_seed(0);
        let mut block = ConvPBlock::new(3, 4, Precision::Binary, &mut rng);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 4, 16, 16]);
        assert!(y.data().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn convp_backward_shape_round_trip() {
        let mut rng = rng_from_seed(1);
        let mut block = ConvPBlock::new(3, 4, Precision::Binary, &mut rng);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        let gin = block.backward(&Tensor::ones(y.dims().to_vec())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(gin.all_finite());
    }

    #[test]
    fn convp_backward_weights_accumulates_backwards_gradients_exactly() {
        let mut rng = rng_from_seed(7);
        let mut block = ConvPBlock::new(3, 4, Precision::Binary, &mut rng);
        let x = Tensor::randn([2, 3, 16, 16], 1.0, &mut rng);
        let g = Tensor::randn([2, 4, 8, 8], 1.0, &mut rng);
        block.forward(&x, Mode::Train).unwrap();
        block.backward(&g).unwrap();
        let full: Vec<Tensor> = block.params_mut().iter().map(|p| p.grad.clone()).collect();
        block.zero_grad();
        block.forward(&x, Mode::Train).unwrap();
        block.backward_weights(&g).unwrap();
        let weights_only: Vec<Tensor> = block.params_mut().iter().map(|p| p.grad.clone()).collect();
        assert_eq!(weights_only, full);
    }

    #[test]
    fn convp_params_are_conv_plus_bn() {
        let mut rng = rng_from_seed(2);
        let mut block = ConvPBlock::new(3, 4, Precision::Binary, &mut rng);
        assert_eq!(block.params_mut().len(), 3); // conv.w, bn.gamma, bn.beta
    }

    #[test]
    fn paper_device_block_fits_in_2kb() {
        // Device section = ConvP(3->f) + exit head (f*16*16 -> 3). For all
        // f used in Fig. 9 (1..=4) this is under 2 KB as the paper states.
        let mut rng = rng_from_seed(3);
        for f in 1..=4 {
            let conv = ConvPBlock::new(3, f, Precision::Binary, &mut rng);
            let head = ExitHead::new(f * 16 * 16, 3, Precision::Binary, &mut rng);
            let total = conv.memory_bytes() + head.memory_bytes();
            assert!(total < 2048, "f={f}: {total} bytes");
        }
    }

    #[test]
    fn fc_block_binarizes_output() {
        let mut rng = rng_from_seed(4);
        let mut block = FcBlock::new(16, 8, Precision::Binary, &mut rng);
        let x = Tensor::randn([4, 16], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[4, 8]);
        assert!(y.data().iter().all(|&v| v == 1.0 || v == -1.0));
        let gin = block.backward(&Tensor::ones([4, 8])).unwrap();
        assert_eq!(gin.dims(), &[4, 16]);
    }

    #[test]
    fn exit_head_emits_float_scores() {
        let mut rng = rng_from_seed(5);
        let mut head = ExitHead::new(1024, 3, Precision::Binary, &mut rng);
        let x = Tensor::rand_signs([2, 1024], &mut rng);
        let y = head.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        // Scores are sums of ±1 products — generally not ±1 themselves.
        assert!(y.data().iter().any(|&v| v.abs() != 1.0));
        assert_eq!(head.classes(), 3);
    }

    #[test]
    fn float_precision_blocks_work() {
        let mut rng = rng_from_seed(6);
        let mut block = ConvPBlock::new(3, 2, Precision::Float, &mut rng);
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        // Binary activation still applies (eBNN blocks always binarize
        // activations); only the weights are float.
        assert!(y.data().iter().all(|&v| v == 1.0 || v == -1.0));
        let fb = ConvPBlock::new(3, 2, Precision::Float, &mut rng);
        let bb = ConvPBlock::new(3, 2, Precision::Binary, &mut rng);
        assert!(fb.memory_bytes() > bb.memory_bytes());
    }
}
