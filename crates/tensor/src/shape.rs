//! Shape algebra: dimension bookkeeping for row-major tensors.

use crate::error::{Result, TensorError};
use std::fmt;

/// The shape of a tensor: an ordered list of dimension extents.
///
/// Shapes are stored densely and interpreted in row-major (C) order: the
/// last axis varies fastest in memory.
///
/// ```
/// use ddnn_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of elements a tensor of this shape holds.
    ///
    /// A rank-0 shape holds exactly one element.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds zero elements (some extent is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of axis `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims.get(axis).copied().ok_or(TensorError::InvalidAxis { axis, rank: self.rank() })
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index has the wrong
    /// rank or any coordinate exceeds its extent.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.rank()).rev() {
            if index[axis] >= self.dims[axis] {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        Ok(off)
    }

    /// Returns the shape with axis `axis` removed (as `sum`/`max` along an
    /// axis would produce).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidAxis`] if `axis >= rank`.
    pub fn without_axis(&self, axis: usize) -> Result<Shape> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidAxis { axis, rank: self.rank() });
        }
        let mut dims = self.dims.clone();
        dims.remove(axis);
        Ok(Shape::new(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn zero_extent_is_empty() {
        let s = Shape::new(vec![2, 0, 4]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(vec![5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_rejects_bad_rank() {
        let s = Shape::new(vec![2, 2]);
        assert!(matches!(s.offset(&[1]), Err(TensorError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn offset_rejects_out_of_range_coordinate() {
        let s = Shape::new(vec![2, 2]);
        assert!(s.offset(&[0, 2]).is_err());
    }

    #[test]
    fn without_axis() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.without_axis(1).unwrap(), Shape::new(vec![2, 4]));
        assert!(s.without_axis(3).is_err());
    }

    #[test]
    fn display_formats_parenthesised() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    fn conversions() {
        let s: Shape = [1, 2].into();
        assert_eq!(s.dims(), &[1, 2]);
        let s: Shape = vec![3usize].into();
        assert_eq!(s.dims(), &[3]);
        assert_eq!(s.as_ref(), &[3]);
    }
}
