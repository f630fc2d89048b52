//! Weight initialization schemes.

use ddnn_tensor::{Shape, Tensor};
use rand::Rng;

/// Glorot/Xavier uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// This is the initialization Chainer (the paper's original framework) used
/// by default for linear and convolutional links at the time.
pub fn glorot_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(shape, -a, a, rng)
}

/// Fan-in/fan-out for a linear layer of shape `(out, in)`.
pub fn linear_fans(in_features: usize, out_features: usize) -> (usize, usize) {
    (in_features, out_features)
}

/// Fan-in/fan-out for a convolution of shape `(f, c, kh, kw)`.
pub fn conv_fans(filters: usize, channels: usize, kh: usize, kw: usize) -> (usize, usize) {
    (channels * kh * kw, filters * kh * kw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn glorot_bound_is_respected() {
        let mut rng = rng_from_seed(1);
        let t = glorot_uniform([100, 50], 50, 100, &mut rng);
        let a = (6.0f32 / 150.0).sqrt();
        assert!(t.max().unwrap() <= a);
        assert!(t.min().unwrap() >= -a);
    }

    #[test]
    fn fan_helpers() {
        assert_eq!(linear_fans(10, 20), (10, 20));
        assert_eq!(conv_fans(4, 3, 3, 3), (27, 36));
    }
}
