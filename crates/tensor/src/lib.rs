//! # ddnn-tensor
//!
//! Dense `f32` tensor library underpinning the DDNN-RS reproduction of
//! *Distributed Deep Neural Networks over the Cloud, the Edge and End
//! Devices* (Teerapittayanon, McDanel, Kung — ICDCS 2017).
//!
//! The crate provides exactly the numeric substrate that the paper's
//! networks require, implemented from scratch:
//!
//! * [`Tensor`] — contiguous row-major storage with shape bookkeeping,
//!   elementwise arithmetic, reductions and batch slicing;
//! * [`Tensor::matmul`] and friends — the linear algebra used by fully
//!   connected layers, on one register-tiled f32 GEMM that the
//!   convolutions share;
//! * [`conv`] — 2-D convolution that reads its taps from a zero-padded
//!   copy of each sample, and max pooling, with exact adjoint backward
//!   passes (verified against finite differences);
//! * [`bits`] — 1-bit packing of binarized activations, the wire format the
//!   paper's communication-cost model (Eq. 1) counts;
//! * [`cursor`] — bounds-checked little-endian reads, the decoder primitive
//!   of the wire frames and checkpoints;
//! * [`bitmatrix`] — `u64`-word packed ±1 matrices with XNOR–popcount
//!   GEMM and the fused binary convolution plan, the kernels of the
//!   frozen inference form, which take their operands as bits (f32 signs
//!   pack with one portable packer, which also tells a training forward
//!   whether its input is exactly ±1 and can take the plan);
//! * [`parallel`] — deterministic data parallelism on one persistent
//!   worker pool (`DDNN_THREADS`) behind one work cut-off, used by the
//!   f32 and binary kernels alike; convolutions and the max-pool fan out
//!   over the batch only, so a lone sample runs on the calling thread;
//! * [`simd`] — runtime SIMD dispatch tiers (`DDNN_SIMD`, read once per
//!   process) selecting the scalar/SSE2/AVX2/AVX-512 clones of the
//!   popcount kernels and the f32 GEMM;
//! * [`rng`] — deterministic, seedable random tensor generation.
//!
//! ## Example
//!
//! ```
//! use ddnn_tensor::{Tensor, conv::{conv2d, Conv2dSpec}};
//!
//! # fn main() -> Result<(), ddnn_tensor::TensorError> {
//! // A 32x32 RGB image batch, convolved with 4 binary 3x3 filters exactly
//! // as the paper's ConvP block does.
//! let images = Tensor::zeros([1, 3, 32, 32]);
//! let filters = Tensor::ones([4, 3, 3, 3]);
//! let features = conv2d(&images, &filters, &Conv2dSpec::paper_conv())?;
//! assert_eq!(features.dims(), &[1, 4, 32, 32]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bitmatrix;
pub mod bits;
pub mod conv;
pub mod cursor;
mod error;
mod gemm;
mod ops;
pub mod parallel;
pub mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use bitmatrix::BitMatrix;
pub use error::{Result, TensorError};
pub use shape::Shape;
pub use simd::SimdTier;
pub use tensor::Tensor;
