//! The dense row-major `f32` tensor type.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// This is the single numeric container used throughout DDNN-RS: network
/// activations, parameters, gradients and images are all `Tensor`s. The
/// representation is deliberately simple — a `Vec<f32>` plus a [`Shape`] —
/// which keeps every operation cache-friendly and easy to verify.
///
/// ```
/// use ddnn_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// assert_eq!(t.get(&[1, 0])?, 3.0);
/// let doubled = t.scale(2.0);
/// assert_eq!(doubled.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok::<(), ddnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the number of elements the shape implies.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: vec![value; shape.len()], shape }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::scalar() }
    }

    /// Creates a tensor whose element at flat offset `i` is `f(i)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy with a new shape holding the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        Ok(Tensor { data: self.data.clone(), shape })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip")?;
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { data, shape: self.shape.clone() })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        self.zip(other, |a, b| a - b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.map_in_place(|x| x * alpha);
    }

    /// Adds `alpha` to every element, producing a new tensor.
    pub fn shift(&self, alpha: f32) -> Tensor {
        self.map(|x| x + alpha)
    }

    /// Sets all elements to zero, preserving the allocation.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor (so statistics over empty batches
    /// are well-defined rather than NaN).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] on an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| Some(acc.map_or(x, |m| m.max(x))))
            .ok_or(TensorError::Empty { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] on an empty tensor.
    pub fn min(&self) -> Result<f32> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| Some(acc.map_or(x, |m| m.min(x))))
            .ok_or(TensorError::Empty { op: "min" })
    }

    /// Flat index of the maximum element (first occurrence on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] on an empty tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.data.is_empty() {
            return Err(TensorError::Empty { op: "argmax" });
        }
        let mut best = 0;
        for i in 1..self.data.len() {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Dot product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum())
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Whether every element is finite (neither NaN nor infinite).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference between two same-shaped tensors.
    ///
    /// Useful for approximate-equality assertions in tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "max_abs_diff")?;
        Ok(self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0f32, f32::max))
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data[..8], self.len())
        }
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let shape = Shape::new(vec![data.len()]);
        Tensor { data, shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], [3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).is_ok());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
        assert_eq!(Tensor::scalar(5.0).len(), 1);
        let t = Tensor::from_fn([4], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        t.set(&[1, 2], 7.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.0);
        assert_eq!(t.data()[5], 7.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -2.0]);
        assert_eq!(a.dot(&b).unwrap(), 11.0);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn add_assign() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], [2]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[3.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max().unwrap(), 3.0);
        assert_eq!(t.min().unwrap(), -2.0);
        assert_eq!(t.argmax().unwrap(), 2);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0], [3]).unwrap();
        assert_eq!(t.argmax().unwrap(), 1);
    }

    #[test]
    fn empty_reductions_error() {
        let t = Tensor::zeros([0]);
        assert!(t.max().is_err());
        assert!(t.min().is_err());
        assert!(t.argmax().is_err());
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn reshape() {
        let t = Tensor::from_fn([6], |i| i as f32);
        let r = t.reshape([2, 3]).unwrap();
        assert_eq!(r.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::from_vec(vec![1.0, -1.0], [2]).unwrap();
        assert_eq!(t.map(f32::abs).data(), &[1.0, 1.0]);
        assert_eq!(t.scale(3.0).data(), &[3.0, -3.0]);
        assert_eq!(t.shift(1.0).data(), &[2.0, 0.0]);
        let mut t = t;
        t.scale_in_place(-2.0);
        assert_eq!(t.data(), &[-2.0, 2.0]);
        t.fill(9.0);
        assert_eq!(t.data(), &[9.0, 9.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut t = Tensor::ones([2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
        t.data_mut()[0] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn max_abs_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![1.5, 1.0], [2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
    }

    #[test]
    fn from_iterator_collects_rank1() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.dims(), &[4]);
    }

    #[test]
    fn display_truncates_large() {
        let t = Tensor::zeros([100]);
        let s = t.to_string();
        assert!(s.contains("100 elements"));
        let small = Tensor::zeros([2]);
        assert!(small.to_string().contains("[0.0, 0.0]"));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
