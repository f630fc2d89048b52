//! Bit-packing of binarized tensors.
//!
//! DDNN end devices transmit the *sign* of each activation — 1 bit per
//! element — to the cloud aggregator (paper §III-E, Eq. 1 counts `f·o/8`
//! bytes for `f` filters of `o` bits each). This module packs a ±1 tensor
//! into that wire representation and unpacks it back.
//!
//! The sign rule here — strictly positive → `1`, zero/negative → `0` —
//! is the same one the compute-side [`crate::bitmatrix`] kernels use for
//! their LSB-first `u64` words, so wire bytes and XNOR–popcount operands
//! agree bit for bit (property-tested in `tests/properties.rs`). The
//! wire format is MSB-first per *byte* and never SIMD-dispatched: packets
//! must be byte-identical across hosts regardless of the
//! [`crate::simd`] tier the compute kernels picked.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Number of bytes needed to pack `n` sign bits.
pub fn packed_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Packs the signs of a tensor into bits: strictly positive values become
/// `1`, everything else (including zero and negatives) becomes `0`.
///
/// Bits are stored most-significant-first within each byte; the final byte
/// is zero-padded. The element order is the tensor's row-major order, so the
/// shape must be carried out-of-band (as the wire protocol does).
///
/// ```
/// use ddnn_tensor::{Tensor, bits};
/// let t = Tensor::from_vec(vec![1.0, -1.0, 1.0, 1.0], [4])?;
/// let packed = bits::pack_signs(&t);
/// assert_eq!(packed.len(), 1);
/// assert_eq!(packed[0], 0b1011_0000);
/// # Ok::<(), ddnn_tensor::TensorError>(())
/// ```
pub fn pack_signs(t: &Tensor) -> Arc<[u8]> {
    let mut buf = Vec::with_capacity(packed_len(t.len()));
    let mut byte = 0u8;
    let mut nbits = 0;
    for &x in t.data() {
        byte <<= 1;
        if x > 0.0 {
            byte |= 1;
        }
        nbits += 1;
        if nbits == 8 {
            buf.push(byte);
            byte = 0;
            nbits = 0;
        }
    }
    if nbits > 0 {
        buf.push(byte << (8 - nbits));
    }
    buf.into()
}

/// Unpacks sign bits back into a ±1 tensor of the given shape.
///
/// A `1` bit becomes `+1.0` and a `0` bit becomes `-1.0`, matching the
/// binary-activation codomain used by the network.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `bytes` is too short for the
/// shape.
pub fn unpack_signs(bytes: &[u8], shape: impl Into<Shape>) -> Result<Tensor> {
    let shape = shape.into();
    let n = shape.len();
    if bytes.len() < packed_len(n) {
        return Err(TensorError::LengthMismatch { expected: packed_len(n), actual: bytes.len() });
    }
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let byte = bytes[i / 8];
        let bit = (byte >> (7 - (i % 8))) & 1;
        data.push(if bit == 1 { 1.0 } else { -1.0 });
    }
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_rounds_up() {
        assert_eq!(packed_len(0), 0);
        assert_eq!(packed_len(1), 1);
        assert_eq!(packed_len(8), 1);
        assert_eq!(packed_len(9), 2);
        assert_eq!(packed_len(1024), 128);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let t = Tensor::from_fn([3, 5], |i| if i % 3 == 0 { 1.0 } else { -1.0 });
        let packed = pack_signs(&t);
        assert_eq!(packed.len(), 2);
        let back = unpack_signs(&packed, [3, 5]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn zero_packs_as_negative() {
        let t = Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap();
        let back = unpack_signs(&pack_signs(&t), [2]).unwrap();
        assert_eq!(back.data(), &[-1.0, 1.0]);
    }

    #[test]
    fn bit_order_is_msb_first() {
        let t = Tensor::from_vec(vec![1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0], [8]).unwrap();
        assert_eq!(pack_signs(&t)[0], 0b1000_0001);
    }

    #[test]
    fn unpack_rejects_short_buffer() {
        assert!(unpack_signs(&[0u8], [16]).is_err());
    }

    #[test]
    fn paper_feature_map_is_128_bytes() {
        // f=4 filters of 16x16 binary activations -> 4*256/8 = 128 bytes,
        // the second term of Eq. 1 for the paper's largest device model.
        let t = Tensor::ones([4, 16, 16]);
        assert_eq!(pack_signs(&t).len(), 128);
    }
}
