//! The binary sign activation, with its straight-through estimator.

use crate::layer::{Layer, Mode};
use ddnn_tensor::{Result, Tensor, TensorError};

/// The binary activation of BNN/eBNN blocks: `y = sign(x) ∈ {−1, +1}`.
///
/// The backward pass is the straight-through estimator of Courbariaux et
/// al.: gradients pass unchanged where `|x| ≤ 1` and are cancelled outside
/// that range (the saturation region of the hard-tanh surrogate).
///
/// Binary activations are what the end device transmits to the cloud — one
/// bit per element (see [`ddnn_tensor::bits::pack_signs`]).
#[derive(Debug, Clone, Default)]
pub struct BinaryActivation {
    cached_input: Option<Tensor>,
}

impl BinaryActivation {
    /// Creates a binary activation layer.
    pub fn new() -> Self {
        BinaryActivation { cached_input: None }
    }
}

impl Layer for BinaryActivation {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // Only training caches its input (the STE's clipping mask).
        self.cached_input = (mode == Mode::Train).then(|| input.clone());
        Ok(crate::linear::binarize(input))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self.cached_input.as_ref().ok_or(TensorError::Empty {
            op: "binary_activation.backward without a Train forward",
        })?;
        grad_output.zip(input, |g, x| if x.abs() <= 1.0 { g } else { 0.0 })
    }

    fn describe(&self) -> String {
        "binary-activation".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_forward_is_sign() {
        let mut act = BinaryActivation::new();
        let x = Tensor::from_vec(vec![-2.0, -0.1, 0.0, 0.1, 2.0], [5]).unwrap();
        let y = act.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[-1.0, -1.0, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn binary_backward_is_straight_through_with_clipping() {
        let mut act = BinaryActivation::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 1.0, 3.0], [5]).unwrap();
        act.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones([5]);
        let gin = act.backward(&g).unwrap();
        assert_eq!(gin.data(), &[0.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn binary_backward_before_forward_errors() {
        let mut act = BinaryActivation::new();
        assert!(act.backward(&Tensor::ones([1])).is_err());
    }

    #[test]
    fn binary_backward_after_eval_forward_is_a_typed_error() {
        let mut act = BinaryActivation::new();
        let x = Tensor::from_vec(vec![-0.5, 0.5], [2]).unwrap();
        act.forward(&x, Mode::Train).unwrap();
        act.forward(&x, Mode::Eval).unwrap();
        assert!(matches!(act.backward(&Tensor::ones([2])), Err(TensorError::Empty { .. })));
    }

    #[test]
    fn activation_has_no_params() {
        assert_eq!(BinaryActivation::new().param_count(), 0);
    }

    #[test]
    fn binary_output_survives_bitpack_round_trip() {
        let mut act = BinaryActivation::new();
        let x = Tensor::from_fn([4, 16], |i| (i as f32 * 0.7).sin());
        let y = act.forward(&x, Mode::Eval).unwrap();
        let packed = ddnn_tensor::bits::pack_signs(&y);
        let back = ddnn_tensor::bits::unpack_signs(&packed, [4, 16]).unwrap();
        assert_eq!(back, y);
    }
}
