//! Aggregation of multi-device outputs (paper §III-B): max pooling (MP),
//! average pooling (AP) and concatenation (CC), as differentiable layers.
//!
//! Aggregators appear twice in a DDNN: the *local aggregator* combines the
//! per-device class-score vectors before the local exit, and the
//! *cloud/edge aggregator* combines the per-device binary feature maps
//! before further NN processing. Making them differentiable layers is what
//! produces the gradient-flow effects the paper analyses in §IV-C — e.g.
//! MP only passes gradients through the argmax device, which is why MP-MP
//! trains worse than MP-CC.

use ddnn_nn::{Layer, Linear, Mode, Param};
use ddnn_tensor::{Result, Tensor, TensorError};
use rand::Rng;
use std::fmt;

/// The three aggregation schemes of paper §III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationScheme {
    /// Max pooling: per-component maximum over devices.
    MaxPool,
    /// Average pooling: per-component mean over devices.
    AvgPool,
    /// Concatenation: keeps all information; dimensionality grows with the
    /// number of devices.
    Concat,
}

impl AggregationScheme {
    /// All schemes, in the order the paper's Table I enumerates them.
    pub const ALL: [AggregationScheme; 3] =
        [AggregationScheme::MaxPool, AggregationScheme::AvgPool, AggregationScheme::Concat];

    /// The paper's two-letter abbreviation (MP / AP / CC).
    pub fn abbrev(&self) -> &'static str {
        match self {
            AggregationScheme::MaxPool => "MP",
            AggregationScheme::AvgPool => "AP",
            AggregationScheme::Concat => "CC",
        }
    }
}

impl fmt::Display for AggregationScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

pub(crate) fn check_inputs(inputs: &[Tensor], expected: usize, op: &'static str) -> Result<()> {
    if inputs.len() != expected {
        return Err(TensorError::LengthMismatch { expected, actual: inputs.len() });
    }
    let first = &inputs[0];
    for t in inputs {
        if t.shape() != first.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: first.dims().to_vec(),
                rhs: t.dims().to_vec(),
                op,
            });
        }
    }
    Ok(())
}

/// Elementwise max over same-shaped tensors; returns the result plus the
/// index of the winning tensor per element.
pub(crate) fn elementwise_max(inputs: &[Tensor]) -> (Tensor, Vec<u16>) {
    let len = inputs[0].len();
    let mut out = inputs[0].data().to_vec();
    let mut winner = vec![0u16; len];
    for (d, t) in inputs.iter().enumerate().skip(1) {
        for (i, &v) in t.data().iter().enumerate() {
            if v > out[i] {
                out[i] = v;
                winner[i] = d as u16;
            }
        }
    }
    (Tensor::from_vec(out, inputs[0].dims().to_vec()).expect("same shape"), winner)
}

/// Elementwise mean over same-shaped tensors.
pub(crate) fn elementwise_mean(inputs: &[Tensor]) -> Result<Tensor> {
    let mut out = Tensor::zeros(inputs[0].dims().to_vec());
    for t in inputs {
        out.add_assign(t)?;
    }
    out.scale_in_place(1.0 / inputs.len() as f32);
    Ok(out)
}

/// Aggregates per-device *class-score vectors* `(n, classes)` into one
/// `(n, classes)` matrix for the local exit.
///
/// For [`AggregationScheme::Concat`] the concatenated
/// `(n, devices·classes)` matrix is mapped back to `(n, classes)` by an
/// additional linear layer, exactly as §III-B specifies.
#[derive(Debug, Clone)]
pub struct VectorAggregator {
    scheme: AggregationScheme,
    pub(crate) num_inputs: usize,
    dim: usize,
    pub(crate) projection: Option<Linear>,
    cached_winner: Option<Vec<u16>>,
    cached_dims: Vec<usize>,
}

impl VectorAggregator {
    /// Creates an aggregator over `num_inputs` vectors of width `dim`.
    pub fn new(
        scheme: AggregationScheme,
        num_inputs: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let projection = (scheme == AggregationScheme::Concat)
            .then(|| Linear::new(num_inputs * dim, dim, true, rng));
        VectorAggregator {
            scheme,
            num_inputs,
            dim,
            projection,
            cached_winner: None,
            cached_dims: Vec::new(),
        }
    }

    /// The aggregation scheme.
    pub fn scheme(&self) -> AggregationScheme {
        self.scheme
    }

    /// Aggregates one `(n, dim)` tensor per device into `(n, dim)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input count or shapes are inconsistent.
    pub fn forward(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Tensor> {
        check_inputs(inputs, self.num_inputs, "vector_aggregator.forward")?;
        self.cached_dims = inputs[0].dims().to_vec();
        match self.scheme {
            AggregationScheme::MaxPool => {
                let (out, winner) = elementwise_max(inputs);
                self.cached_winner = Some(winner);
                Ok(out)
            }
            AggregationScheme::AvgPool => elementwise_mean(inputs),
            AggregationScheme::Concat => {
                let cat = Tensor::concat(inputs, 1)?;
                self.projection
                    .as_mut()
                    .expect("Concat aggregator always has a projection")
                    .forward(&cat, mode)
            }
        }
    }

    /// Backpropagates through the aggregation, returning one gradient per
    /// device input.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or with a mismatched
    /// gradient shape.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Vec<Tensor>> {
        match self.scheme {
            AggregationScheme::MaxPool => {
                let winner = self.cached_winner.as_ref().ok_or(TensorError::Empty {
                    op: "vector_aggregator.backward before forward",
                })?;
                if grad_output.len() != winner.len() {
                    return Err(TensorError::LengthMismatch {
                        expected: winner.len(),
                        actual: grad_output.len(),
                    });
                }
                let mut grads = vec![Tensor::zeros(self.cached_dims.clone()); self.num_inputs];
                for (i, (&g, &w)) in grad_output.data().iter().zip(winner).enumerate() {
                    grads[w as usize].data_mut()[i] = g;
                }
                Ok(grads)
            }
            AggregationScheme::AvgPool => {
                let g = grad_output.scale(1.0 / self.num_inputs as f32);
                Ok(vec![g; self.num_inputs])
            }
            AggregationScheme::Concat => {
                let gcat = self
                    .projection
                    .as_mut()
                    .expect("Concat aggregator always has a projection")
                    .backward(grad_output)?;
                gcat.split(self.num_inputs, 1)
            }
        }
    }

    /// Trainable parameters (non-empty only for the CC projection).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.projection.as_mut().map(|p| p.params_mut()).unwrap_or_default()
    }

    /// Width of the aggregated output.
    pub fn output_dim(&self) -> usize {
        self.dim
    }
}

/// Aggregates per-device *binary feature maps* `(n, f, h, w)` for the
/// cloud/edge aggregator.
///
/// MP/AP pool elementwise across devices (output has `f` channels); CC
/// concatenates along the channel axis (output has `devices·f` channels,
/// which the first cloud ConvP block consumes directly — the convolution
/// plays the role of the dimension-restoring linear map).
#[derive(Debug, Clone)]
pub struct FeatureAggregator {
    scheme: AggregationScheme,
    num_inputs: usize,
    cached_winner: Option<Vec<u16>>,
    cached_dims: Vec<usize>,
}

impl FeatureAggregator {
    /// Creates a feature aggregator over `num_inputs` maps.
    pub fn new(scheme: AggregationScheme, num_inputs: usize) -> Self {
        FeatureAggregator { scheme, num_inputs, cached_winner: None, cached_dims: Vec::new() }
    }

    /// The aggregation scheme.
    pub fn scheme(&self) -> AggregationScheme {
        self.scheme
    }

    /// Number of maps aggregated.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Channel count of the aggregated output given per-device channels.
    pub fn output_channels(&self, per_device_channels: usize) -> usize {
        match self.scheme {
            AggregationScheme::Concat => self.num_inputs * per_device_channels,
            _ => per_device_channels,
        }
    }

    /// Aggregates one `(n, f, h, w)` map per device.
    ///
    /// # Errors
    ///
    /// Returns an error if the input count or shapes are inconsistent.
    pub fn forward(&mut self, inputs: &[Tensor]) -> Result<Tensor> {
        check_inputs(inputs, self.num_inputs, "feature_aggregator.forward")?;
        self.cached_dims = inputs[0].dims().to_vec();
        match self.scheme {
            AggregationScheme::MaxPool => {
                let (out, winner) = elementwise_max(inputs);
                self.cached_winner = Some(winner);
                Ok(out)
            }
            AggregationScheme::AvgPool => {
                let mut out = Tensor::zeros(inputs[0].dims().to_vec());
                for t in inputs {
                    out.add_assign(t)?;
                }
                out.scale_in_place(1.0 / self.num_inputs as f32);
                Ok(out)
            }
            AggregationScheme::Concat => Tensor::concat(inputs, 1),
        }
    }

    /// Backpropagates, returning one gradient per device input.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or with an inconsistent
    /// gradient shape.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Vec<Tensor>> {
        match self.scheme {
            AggregationScheme::MaxPool => {
                let winner = self.cached_winner.as_ref().ok_or(TensorError::Empty {
                    op: "feature_aggregator.backward before forward",
                })?;
                if grad_output.len() != winner.len() {
                    return Err(TensorError::LengthMismatch {
                        expected: winner.len(),
                        actual: grad_output.len(),
                    });
                }
                let mut grads = vec![Tensor::zeros(self.cached_dims.clone()); self.num_inputs];
                for (i, (&g, &w)) in grad_output.data().iter().zip(winner).enumerate() {
                    grads[w as usize].data_mut()[i] = g;
                }
                Ok(grads)
            }
            AggregationScheme::AvgPool => {
                Ok(vec![grad_output.scale(1.0 / self.num_inputs as f32); self.num_inputs])
            }
            AggregationScheme::Concat => grad_output.split(self.num_inputs, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    fn inputs2() -> Vec<Tensor> {
        vec![
            Tensor::from_vec(vec![1.0, -2.0, 0.5], [1, 3]).unwrap(),
            Tensor::from_vec(vec![0.0, 3.0, 0.5], [1, 3]).unwrap(),
        ]
    }

    #[test]
    fn abbrevs_match_paper() {
        assert_eq!(AggregationScheme::MaxPool.to_string(), "MP");
        assert_eq!(AggregationScheme::AvgPool.to_string(), "AP");
        assert_eq!(AggregationScheme::Concat.to_string(), "CC");
    }

    #[test]
    fn mp_takes_componentwise_max() {
        let mut rng = rng_from_seed(0);
        let mut agg = VectorAggregator::new(AggregationScheme::MaxPool, 2, 3, &mut rng);
        let out = agg.forward(&inputs2(), Mode::Train).unwrap();
        assert_eq!(out.data(), &[1.0, 3.0, 0.5]);
    }

    #[test]
    fn mp_is_idempotent_on_identical_inputs() {
        let mut rng = rng_from_seed(1);
        let mut agg = VectorAggregator::new(AggregationScheme::MaxPool, 3, 4, &mut rng);
        let t = Tensor::from_fn([2, 4], |i| (i as f32).sin());
        let out = agg.forward(&[t.clone(), t.clone(), t.clone()], Mode::Train).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn ap_takes_componentwise_mean() {
        let mut rng = rng_from_seed(2);
        let mut agg = VectorAggregator::new(AggregationScheme::AvgPool, 2, 3, &mut rng);
        let out = agg.forward(&inputs2(), Mode::Train).unwrap();
        assert_eq!(out.data(), &[0.5, 0.5, 0.5]);
    }

    #[test]
    fn ap_is_linear() {
        // AP(a) + AP(b) == AP(a + b), per input slot.
        let mut rng = rng_from_seed(3);
        let mut agg = VectorAggregator::new(AggregationScheme::AvgPool, 2, 3, &mut rng);
        let a = inputs2();
        let b: Vec<Tensor> = a.iter().map(|t| t.scale(2.0)).collect();
        let sum: Vec<Tensor> = a.iter().zip(&b).map(|(x, y)| x.add(y).unwrap()).collect();
        let lhs = agg
            .forward(&a, Mode::Train)
            .unwrap()
            .add(&agg.forward(&b, Mode::Train).unwrap())
            .unwrap();
        let rhs = agg.forward(&sum, Mode::Train).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-6);
    }

    #[test]
    fn cc_projects_back_to_class_width() {
        let mut rng = rng_from_seed(4);
        let mut agg = VectorAggregator::new(AggregationScheme::Concat, 2, 3, &mut rng);
        let out = agg.forward(&inputs2(), Mode::Train).unwrap();
        assert_eq!(out.dims(), &[1, 3]);
        assert!(!agg.params_mut().is_empty(), "CC carries a projection layer");
    }

    #[test]
    fn mp_routes_grads_to_argmax() {
        // The §IV-C explanation of MP-MP's poor training: only the argmax
        // device receives a gradient.
        let mut rng = rng_from_seed(5);
        let mut agg = VectorAggregator::new(AggregationScheme::MaxPool, 2, 3, &mut rng);
        agg.forward(&inputs2(), Mode::Train).unwrap();
        let grads = agg.backward(&Tensor::ones([1, 3])).unwrap();
        // winners: [dev0, dev1, dev0 (tie -> first)]
        assert_eq!(grads[0].data(), &[1.0, 0.0, 1.0]);
        assert_eq!(grads[1].data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn ap_splits_grads_evenly() {
        let mut rng = rng_from_seed(6);
        let mut agg = VectorAggregator::new(AggregationScheme::AvgPool, 2, 3, &mut rng);
        agg.forward(&inputs2(), Mode::Train).unwrap();
        let grads = agg.backward(&Tensor::ones([1, 3])).unwrap();
        assert_eq!(grads[0].data(), &[0.5, 0.5, 0.5]);
        assert_eq!(grads[0], grads[1]);
    }

    #[test]
    fn cc_passes_grads_to_all_devices() {
        let mut rng = rng_from_seed(7);
        let mut agg = VectorAggregator::new(AggregationScheme::Concat, 2, 3, &mut rng);
        agg.forward(&inputs2(), Mode::Train).unwrap();
        let grads = agg.backward(&Tensor::ones([1, 3])).unwrap();
        assert_eq!(grads.len(), 2);
        // Generic projection weights give every device a nonzero gradient.
        assert!(grads[0].norm_sq() > 0.0);
        assert!(grads[1].norm_sq() > 0.0);
    }

    #[test]
    fn aggregator_rejects_wrong_input_count_or_shapes() {
        let mut rng = rng_from_seed(8);
        let mut agg = VectorAggregator::new(AggregationScheme::MaxPool, 3, 3, &mut rng);
        assert!(agg.forward(&inputs2(), Mode::Train).is_err());
        let bad = vec![Tensor::zeros([1, 3]), Tensor::zeros([1, 4]), Tensor::zeros([1, 3])];
        assert!(agg.forward(&bad, Mode::Train).is_err());
    }

    #[test]
    fn feature_cc_concatenates_channels() {
        let mut agg = FeatureAggregator::new(AggregationScheme::Concat, 2);
        let a = Tensor::ones([1, 4, 2, 2]);
        let b = Tensor::zeros([1, 4, 2, 2]);
        let out = agg.forward(&[a, b]).unwrap();
        assert_eq!(out.dims(), &[1, 8, 2, 2]);
        assert_eq!(agg.output_channels(4), 8);
        let grads = agg.backward(&Tensor::ones([1, 8, 2, 2])).unwrap();
        assert_eq!(grads[0].dims(), &[1, 4, 2, 2]);
    }

    #[test]
    fn feature_mp_pools_across_devices() {
        let mut agg = FeatureAggregator::new(AggregationScheme::MaxPool, 2);
        let a = Tensor::full([1, 1, 2, 2], -1.0);
        let b = Tensor::ones([1, 1, 2, 2]);
        let out = agg.forward(&[a, b]).unwrap();
        assert_eq!(out.data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(agg.output_channels(1), 1);
        let grads = agg.backward(&Tensor::ones([1, 1, 2, 2])).unwrap();
        assert_eq!(grads[0].sum(), 0.0);
        assert_eq!(grads[1].sum(), 4.0);
    }

    #[test]
    fn feature_ap_grad_conservation() {
        // The total gradient mass is preserved: Σ_d ‖g_d‖₁ == ‖g‖₁ for AP.
        let mut agg = FeatureAggregator::new(AggregationScheme::AvgPool, 4);
        let ins: Vec<Tensor> = (0..4).map(|i| Tensor::full([1, 2, 2, 2], i as f32)).collect();
        agg.forward(&ins).unwrap();
        let g = Tensor::ones([1, 2, 2, 2]);
        let grads = agg.backward(&g).unwrap();
        let total: f32 = grads.iter().map(|t| t.sum()).sum();
        assert!((total - g.sum()).abs() < 1e-6);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut agg = FeatureAggregator::new(AggregationScheme::MaxPool, 2);
        assert!(agg.backward(&Tensor::ones([1, 1, 2, 2])).is_err());
    }
}
