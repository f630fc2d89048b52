//! The [`Layer`] trait and trainable [`Param`]eters.
//!
//! DDNN-RS uses explicit-backward layers (Caffe style) rather than a tape
//! autograd: the DDNN computation graph is a small static tree (shared
//! device trunks feeding multiple exit branches), so each layer caches what
//! its own backward pass needs, and the model code sums gradients at branch
//! points. This keeps the framework small, fast and easy to verify against
//! finite differences.

use ddnn_tensor::{Result, Tensor};

/// Whether a forward pass is part of training or inference.
///
/// Batch normalization uses batch statistics under [`Mode::Train`] and
/// running statistics under [`Mode::Eval`]; binarized layers behave the same
/// in both modes. `Eval` is the plain f32 reference the frozen inference
/// form (`ddnn-core`'s `frozen` module) is bit-identical to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: layers may use batch statistics and cache activations.
    Train,
    /// Inference: layers use frozen statistics.
    Eval,
}

/// A trainable parameter: value, accumulated gradient, and an optional
/// clipping range applied after each optimizer step.
///
/// BinaryConnect-style layers keep real-valued "master" weights clipped to
/// `[-1, 1]` (the clip range) while using their sign in the forward pass.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by `backward` calls since the last `zero_grad`.
    pub grad: Tensor,
    /// Optional `[lo, hi]` range the optimizer clamps the value to after
    /// each step (BinaryConnect weight clipping).
    pub clip: Option<(f32, f32)>,
    /// Human-readable name for debugging and introspection.
    pub name: String,
}

impl Param {
    /// Creates a parameter with a zeroed gradient and no clipping.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims().to_vec());
        Param { value, grad, clip: None, name: name.into() }
    }

    /// Creates a parameter whose value is clamped to `[lo, hi]` after each
    /// optimizer step.
    pub fn with_clip(name: impl Into<String>, value: Tensor, lo: f32, hi: f32) -> Self {
        let mut p = Param::new(name, value);
        p.clip = Some((lo, hi));
        p
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with an explicit backward pass.
///
/// Contract:
///
/// * `forward` caches whatever the subsequent `backward` needs; calling
///   `forward` again overwrites that cache.
/// * `backward` consumes the gradient w.r.t. the layer's output and returns
///   the gradient w.r.t. its input, **accumulating** (`+=`) parameter
///   gradients so that multi-exit training can sum losses.
/// * `params_mut` exposes trainable parameters in a stable order (optimizers
///   key their state on this order).
pub trait Layer: Send {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`ddnn_tensor::TensorError`] if `input` has an incompatible
    /// shape.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Computes the gradient w.r.t. the input given the gradient w.r.t. the
    /// output of the most recent `forward`, accumulating parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`ddnn_tensor::TensorError`] if `grad_output` does not
    /// match the cached forward shape, or if `forward` was never called.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// The layer's trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short human-readable layer description, e.g. `"conv2d(3->4, 3x3)"`.
    fn describe(&self) -> String;

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Non-trainable state serialized alongside parameters in checkpoints
    /// (batch normalization's running statistics). Layers without such
    /// state return an empty vector.
    fn extra_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state captured by [`Layer::extra_state`].
    ///
    /// # Errors
    ///
    /// Returns an error if `state` has the wrong length for this layer.
    fn load_extra_state(&mut self, state: &[f32]) -> Result<()> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(ddnn_tensor::TensorError::LengthMismatch { expected: 0, actual: state.len() })
        }
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new("w", Tensor::ones([2, 2]));
        p.grad = Tensor::ones([2, 2]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn with_clip_records_range() {
        let p = Param::with_clip("w", Tensor::zeros([1]), -1.0, 1.0);
        assert_eq!(p.clip, Some((-1.0, 1.0)));
        assert_eq!(p.name, "w");
    }

    #[test]
    fn grad_shape_matches_value() {
        let p = Param::new("w", Tensor::zeros([3, 4]));
        assert_eq!(p.grad.dims(), &[3, 4]);
    }
}
