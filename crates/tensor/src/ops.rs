//! Linear algebra and structural operations on [`Tensor`].
//!
//! These free-standing building blocks (matmul, transpose, axis reductions,
//! softmax, concatenation, batch slicing) are what the `ddnn-nn` layer
//! library is written in terms of.

use crate::error::{Result, TensorError};
use crate::gemm::gemm_auto;
use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m,k) x (k,n) -> (m,n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// and [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: other.rank() });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "matmul",
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        gemm_auto(simd::active_tier(), a, b, m, k, n, &mut out);
        Tensor::from_vec(out, [m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, [n, m])
    }

    /// Sums along `axis`, removing that axis from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        let out_shape = self.shape().without_axis(axis)?;
        let dims = self.dims();
        let axis_len = dims[axis];
        // outer = product of dims before `axis`, inner = product after.
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += self.data()[base + i];
                }
            }
        }
        Tensor::from_vec(out, out_shape)
    }

    /// Row-wise softmax of a rank-2 tensor `(batch, classes)`.
    ///
    /// Numerically stabilised by subtracting the row maximum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = self.data().to_vec();
        for i in 0..m {
            let row = &mut out[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - mx).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    /// Softmax of a rank-1 tensor (a single probability vector).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 1.
    pub fn softmax(&self) -> Result<Tensor> {
        if self.rank() != 1 {
            return Err(TensorError::RankMismatch { expected: 1, actual: self.rank() });
        }
        let n = self.len();
        self.reshape([1, n])?.softmax_rows()?.reshape([n])
    }

    /// Per-row argmax of a rank-2 tensor `(batch, classes)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless rank 2, or
    /// [`TensorError::Empty`] if rows have zero width.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if n == 0 {
            return Err(TensorError::Empty { op: "argmax_rows" });
        }
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless rank 2, or
    /// [`TensorError::IndexOutOfBounds`] for an invalid row.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.rank() });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if i >= m {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.dims().to_vec(),
            });
        }
        Tensor::from_vec(self.data()[i * n..(i + 1) * n].to_vec(), [n])
    }

    /// Extracts the `i`-th slice along axis 0 (e.g. one sample of a batch),
    /// dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors or
    /// [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let n0 = self.dims()[0];
        if i >= n0 {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.dims().to_vec(),
            });
        }
        let rest: usize = self.dims()[1..].iter().product();
        let data = self.data()[i * rest..(i + 1) * rest].to_vec();
        Tensor::from_vec(data, self.dims()[1..].to_vec())
    }

    /// Selects the given indices along axis 0, producing a new batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for any invalid index or
    /// [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn select_axis0(&self, indices: &[usize]) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch { expected: 1, actual: 0 });
        }
        let n0 = self.dims()[0];
        let rest: usize = self.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * rest);
        for &i in indices {
            if i >= n0 {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![i],
                    shape: self.dims().to_vec(),
                });
            }
            data.extend_from_slice(&self.data()[i * rest..(i + 1) * rest]);
        }
        let mut dims = self.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(data, dims)
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty input list or
    /// [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn stack(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty { op: "stack" })?;
        let mut data = Vec::with_capacity(tensors.len() * first.len());
        for t in tensors {
            if t.shape() != first.shape() {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                    op: "stack",
                });
            }
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, dims)
    }

    /// Concatenates tensors along an existing axis.
    ///
    /// All shapes must agree on every other axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty list,
    /// [`TensorError::InvalidAxis`] for a bad axis, or
    /// [`TensorError::ShapeMismatch`] if non-`axis` extents differ.
    pub fn concat(tensors: &[Tensor], axis: usize) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty { op: "concat" })?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::InvalidAxis { axis, rank });
        }
        let mut axis_total = 0;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                    op: "concat",
                });
            }
            for d in 0..rank {
                if d != axis && t.dims()[d] != first.dims()[d] {
                    return Err(TensorError::ShapeMismatch {
                        lhs: first.dims().to_vec(),
                        rhs: t.dims().to_vec(),
                        op: "concat",
                    });
                }
            }
            axis_total += t.dims()[axis];
        }
        let outer: usize = first.dims()[..axis].iter().product();
        let inner: usize = first.dims()[axis + 1..].iter().product();
        let mut dims = first.dims().to_vec();
        dims[axis] = axis_total;
        let mut data = Vec::with_capacity(outer * axis_total * inner);
        for o in 0..outer {
            for t in tensors {
                let a = t.dims()[axis];
                let chunk = a * inner;
                data.extend_from_slice(&t.data()[o * chunk..(o + 1) * chunk]);
            }
        }
        Tensor::from_vec(data, dims)
    }

    /// Splits a tensor into equal-width chunks along `axis` — the inverse of
    /// [`Tensor::concat`] with equal parts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] for a bad axis or
    /// [`TensorError::ShapeMismatch`] if the extent does not divide evenly.
    pub fn split(&self, parts: usize, axis: usize) -> Result<Vec<Tensor>> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidAxis { axis, rank: self.rank() });
        }
        let extent = self.dims()[axis];
        if parts == 0 || !extent.is_multiple_of(parts) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: vec![parts],
                op: "split",
            });
        }
        let width = extent / parts;
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut dims = self.dims().to_vec();
        dims[axis] = width;
        let mut out = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut data = Vec::with_capacity(outer * width * inner);
            for o in 0..outer {
                let start = (o * extent + p * width) * inner;
                data.extend_from_slice(&self.data()[start..start + width * inner]);
            }
            out.push(Tensor::from_vec(data, Shape::new(dims.clone()))?);
        }
        Ok(out)
    }

    /// Adds a rank-1 bias to every row of a rank-2 tensor, in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if widths differ or ranks are
    /// not `(2, 1)`.
    #[allow(clippy::needless_range_loop)] // index math mirrors the row/col structure
    pub fn add_row_broadcast(&mut self, bias: &Tensor) -> Result<()> {
        if self.rank() != 2 || bias.rank() != 1 || self.dims()[1] != bias.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
                op: "add_row_broadcast",
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let b = bias.data().to_vec();
        for i in 0..m {
            for j in 0..n {
                self.data_mut()[i * n + j] += b[j];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), [r, c]).unwrap()
    }

    #[test]
    fn matmul_known_values() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let id = t2(&[1.0, 0.0, 0.0, 1.0], 2, 2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        // Regression: the old kernel skipped `a == 0.0` entries, so a NaN
        // (or Inf) in the corresponding rhs row vanished from the product.
        // IEEE says 0.0 * NaN = NaN and 0.0 * Inf = NaN; a poisoned
        // activation must surface, not disappear.
        let a = t2(&[0.0, 1.0], 1, 2);
        let b = t2(&[f32::NAN, 2.0, 3.0, 4.0], 2, 2);
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0.0 * NaN must poison the output");
        assert_eq!(c.data()[1], 4.0);
        let binf = t2(&[f32::INFINITY, 2.0, 3.0, 4.0], 2, 2);
        assert!(a.matmul(&binf).unwrap().data()[0].is_nan());
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough (2.4e6 MACs) to clear the pool's cut-off; every
        // element must be bit-identical to the serial kernel.
        let m = 192;
        let k = 96;
        let n = 128;
        let a = Tensor::from_fn([m, k], |i| ((i * 37) % 101) as f32 / 13.0 - 3.0);
        let b = Tensor::from_fn([k, n], |i| ((i * 53) % 97) as f32 / 11.0 - 4.0);
        let par = a.matmul(&b).unwrap();
        let mut serial = vec![0.0f32; m * n];
        crate::gemm::gemm(simd::active_tier(), a.data(), b.data(), m, k, n, &mut serial);
        assert_eq!(par.data(), &serial[..]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t2(&[1.0, 2.0], 1, 2);
        let b = t2(&[1.0, 2.0], 1, 2);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros([2]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn sum_axis_all_axes() {
        let t = Tensor::from_fn([2, 3], |i| i as f32); // [[0,1,2],[3,4,5]]
        assert_eq!(t.sum_axis(0).unwrap().data(), &[3.0, 5.0, 7.0]);
        assert_eq!(t.sum_axis(1).unwrap().data(), &[3.0, 12.0]);
        assert!(t.sum_axis(2).is_err());
    }

    #[test]
    fn sum_axis_rank3_middle() {
        let t = Tensor::from_fn([2, 2, 2], |i| i as f32);
        let s = t.sum_axis(1).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        // [[0+2,1+3],[4+6,5+7]]
        assert_eq!(s.data(), &[2.0, 4.0, 10.0, 12.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = t2(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], 2, 3);
        let s = t.softmax_rows().unwrap();
        for i in 0..2 {
            let row_sum: f32 = s.row(i).unwrap().sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
        assert!(s.all_finite(), "softmax must be stable for large logits");
        // Uniform logits -> uniform probabilities.
        assert!((s.get(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_rank1() {
        let t = Tensor::from_vec(vec![0.0, 0.0], [2]).unwrap();
        let s = t.softmax().unwrap();
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows() {
        let t = t2(&[1.0, 3.0, 2.0, 9.0, 0.0, -1.0], 2, 3);
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn row_and_index_axis0() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        assert_eq!(t.row(1).unwrap().data(), &[3.0, 4.0, 5.0]);
        assert!(t.row(2).is_err());
        let t3 = Tensor::from_fn([2, 2, 2], |i| i as f32);
        let s = t3.index_axis0(1).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn select_axis0_gathers() {
        let t = Tensor::from_fn([3, 2], |i| i as f32);
        let s = t.select_axis0(&[2, 0]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(t.select_axis0(&[3]).is_err());
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones([2]);
        let b = Tensor::zeros([2]);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0]);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t2(&[1.0, 2.0], 1, 2);
        let b = t2(&[3.0, 4.0], 1, 2);
        let c0 = Tensor::concat(&[a.clone(), b.clone()], 0).unwrap();
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[a, b], 1).unwrap();
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_channel_axis_of_nchw() {
        // Two (1,1,2,2) maps concatenated on channels -> (1,2,2,2).
        let a = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        let b = Tensor::from_fn([1, 1, 2, 2], |i| 10.0 + i as f32);
        let c = Tensor::concat(&[a, b], 1).unwrap();
        assert_eq!(c.dims(), &[1, 2, 2, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn split_inverts_concat() {
        let a = Tensor::from_fn([2, 4], |i| i as f32);
        let parts = a.split(2, 1).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].data(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(parts[1].data(), &[2.0, 3.0, 6.0, 7.0]);
        let back = Tensor::concat(&parts, 1).unwrap();
        assert_eq!(back, a);
        assert!(a.split(3, 1).is_err());
        assert!(a.split(0, 1).is_err());
    }

    #[test]
    fn add_row_broadcast() {
        let mut t = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        t.add_row_broadcast(&b).unwrap();
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let bad = Tensor::zeros([2]);
        assert!(t.add_row_broadcast(&bad).is_err());
    }
}
