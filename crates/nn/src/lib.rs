//! # ddnn-nn
//!
//! Neural-network layer library for DDNN-RS: explicit forward/backward
//! layers (Caffe style), BinaryConnect-binarized weights, the
//! straight-through binary activation, batch normalization, softmax
//! cross-entropy, and the Adam optimizer — everything needed to train
//! the paper's fused binary FC and ConvP blocks from scratch on a CPU.
//!
//! The trait of interest is [`Layer`]; every layer caches its own forward
//! activations and implements an exact backward pass (each is verified by
//! finite differences in its unit tests). Parameter gradients *accumulate*
//! across `backward` calls, which is what lets DDNN sum the losses of
//! multiple exit points through shared trunk layers (paper §III-C).
//!
//! ```
//! use ddnn_nn::{Layer, Linear, Mode, SoftmaxCrossEntropy, Adam, Optimizer};
//! use ddnn_tensor::{rng::rng_from_seed, Tensor};
//!
//! # fn main() -> Result<(), ddnn_tensor::TensorError> {
//! let mut rng = rng_from_seed(0);
//! let mut layer = Linear::new(4, 3, true, &mut rng);
//! let mut opt = Adam::new(); // the paper's hyper-parameters
//! let loss = SoftmaxCrossEntropy::new();
//!
//! let x = Tensor::randn([8, 4], 1.0, &mut rng);
//! let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//! for _ in 0..10 {
//!     layer.zero_grad();
//!     let logits = layer.forward(&x, Mode::Train)?;
//!     let out = loss.forward(&logits, &y)?;
//!     layer.backward(&out.grad)?;
//!     opt.step(&mut layer.params_mut());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod activation;
mod batchnorm;
mod conv_layer;
pub mod init;
mod layer;
mod linear;
mod loss;
mod optim;

pub use activation::BinaryActivation;
pub use batchnorm::{BatchNorm, BnInference};
pub use conv_layer::{Conv2d, MaxPool2d};
pub use layer::{Layer, Mode, Param};
pub use linear::{binarize, Linear};
pub use loss::{LossOutput, SoftmaxCrossEntropy};
pub use optim::{Adam, Optimizer};
