//! Row-major dense tensors of arbitrary rank.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Error returned when a shape does not match the data it describes.
///
/// ```
/// use capsacc_tensor::Tensor;
/// let err = Tensor::from_vec(&[2, 3], vec![1.0f32; 5]).unwrap_err();
/// assert!(err.to_string().contains("expects 6 elements"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    shape: Vec<usize>,
    len: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape {:?} expects {} elements, got {}",
            self.shape,
            self.shape.iter().product::<usize>(),
            self.len
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major tensor of arbitrary rank.
///
/// Sized for the CapsAcc workload — no views, no broadcasting, just the
/// storage and indexing the reference model and simulator need. Rank-0
/// tensors are not supported (a shape must have at least one axis).
///
/// # Example
///
/// ```
/// use capsacc_tensor::Tensor;
/// let mut t: Tensor<i8> = Tensor::zeros(&[2, 2]);
/// t[[0, 1]] = 7;
/// assert_eq!(t.data(), &[0, 7, 0, 0]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl<T: Default + Clone> Tensor<T> {
    /// Creates a tensor of the given shape filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any axis is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::validate_shape(shape);
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![T::default(); len],
        }
    }
}

impl<T> Tensor<T> {
    fn validate_shape(shape: &[usize]) {
        assert!(
            !shape.is_empty(),
            "tensor shape must have at least one axis"
        );
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor axes must be non-zero, got {shape:?}"
        );
    }

    /// Wraps existing data in a shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len()` does not equal the product
    /// of the axes.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any axis is zero.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Result<Self, ShapeError> {
        Self::validate_shape(shape);
        if shape.iter().product::<usize>() != data.len() {
            return Err(ShapeError {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in
    /// row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any axis is zero.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        Self::validate_shape(shape);
        let len: usize = shape.iter().product();
        let mut idx = vec![0usize; shape.len()];
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f(&idx));
            // Row-major increment.
            for axis in (0..shape.len()).rev() {
                idx[axis] += 1;
                if idx[axis] < shape[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false` (shapes with zero axes are rejected), provided for
    /// API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Computes the row-major flat index of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the rank or any coordinate is out of bounds.
    #[inline]
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0usize;
        for (axis, (&i, &d)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} (size {d})");
            flat = flat * d + i;
        }
        flat
    }

    /// Checked element access.
    pub fn get(&self, idx: &[usize]) -> Option<&T> {
        if idx.len() != self.shape.len() || idx.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return None;
        }
        Some(&self.data[self.flat_index(idx)])
    }

    /// Reinterprets the data under a new shape of the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the element counts differ.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any axis is zero.
    pub fn reshape(self, shape: &[usize]) -> Result<Self, ShapeError> {
        Self::validate_shape(shape);
        if shape.iter().product::<usize>() != self.data.len() {
            return Err(ShapeError {
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data,
        })
    }

    /// Applies `f` elementwise, producing a tensor of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates mutably over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }
}

impl<T> Index<&[usize]> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: &[usize]) -> &T {
        &self.data[self.flat_index(idx)]
    }
}

impl<T> IndexMut<&[usize]> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, idx: &[usize]) -> &mut T {
        let flat = self.flat_index(idx);
        &mut self.data[flat]
    }
}

impl<T, const N: usize> Index<[usize; N]> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: [usize; N]) -> &T {
        &self.data[self.flat_index(&idx)]
    }
}

impl<T, const N: usize> IndexMut<[usize; N]> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, idx: [usize; N]) -> &mut T {
        let flat = self.flat_index(&idx);
        &mut self.data[flat]
    }
}

impl<'a, T> IntoIterator for &'a Tensor<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_shape() {
        let t: Tensor<f32> = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert!(!t.is_empty());
        assert!(t.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn empty_shape_rejected() {
        let _: Tensor<f32> = Tensor::zeros(&[]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_axis_rejected() {
        let _: Tensor<f32> = Tensor::zeros(&[3, 0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1, 2, 3, 4]).is_ok());
        let err = Tensor::from_vec(&[2, 2], vec![1, 2, 3]).unwrap_err();
        assert_eq!(err.to_string(), "shape [2, 2] expects 4 elements, got 3");
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |idx| idx.to_vec());
        assert_eq!(t.data()[0], vec![0, 0]);
        assert_eq!(t.data()[1], vec![0, 1]);
        assert_eq!(t.data()[3], vec![1, 0]);
        assert_eq!(t.data()[5], vec![1, 2]);
    }

    #[test]
    fn flat_index_matches_strides() {
        let t: Tensor<u8> = Tensor::zeros(&[4, 5, 6]);
        assert_eq!(t.flat_index(&[0, 0, 0]), 0);
        assert_eq!(t.flat_index(&[1, 0, 0]), 30);
        assert_eq!(t.flat_index(&[1, 2, 3]), 30 + 12 + 3);
        assert_eq!(t.flat_index(&[3, 4, 5]), 119);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_bounds_checked() {
        let t: Tensor<u8> = Tensor::zeros(&[2, 2]);
        t.flat_index(&[0, 2]);
    }

    #[test]
    fn get_is_checked() {
        let t = Tensor::from_fn(&[2, 2], |i| i[0] * 2 + i[1]);
        assert_eq!(t.get(&[1, 1]), Some(&3));
        assert_eq!(t.get(&[2, 0]), None);
        assert_eq!(t.get(&[0]), None);
    }

    #[test]
    fn index_and_index_mut() {
        let mut t: Tensor<i32> = Tensor::zeros(&[2, 3]);
        t[[1, 2]] = 42;
        assert_eq!(t[[1, 2]], 42);
        assert_eq!(t.data()[5], 42);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i[0] * 6 + i[1]);
        let r = t.clone().reshape(&[3, 4]).unwrap();
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor::from_fn(&[2, 2], |i| (i[0] + i[1]) as i8);
        let f = t.map(|&x| x as f32 * 2.0);
        assert_eq!(f.data(), &[0.0, 2.0, 2.0, 4.0]);
        assert_eq!(f.shape(), t.shape());
    }

    #[test]
    fn into_iterator_for_ref() {
        let t = Tensor::from_fn(&[3], |i| i[0] as i64);
        let sum: i64 = (&t).into_iter().sum();
        assert_eq!(sum, 3);
    }

    proptest! {
        #[test]
        fn from_fn_then_index_roundtrip(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5) {
            let t = Tensor::from_fn(&[d0, d1, d2], |i| (i[0], i[1], i[2]));
            for a in 0..d0 {
                for b in 0..d1 {
                    for c in 0..d2 {
                        prop_assert_eq!(t[[a, b, c]], (a, b, c));
                    }
                }
            }
        }

        #[test]
        fn flat_index_is_bijective(d0 in 1usize..6, d1 in 1usize..6) {
            let t: Tensor<u8> = Tensor::zeros(&[d0, d1]);
            let mut seen = std::collections::HashSet::new();
            for a in 0..d0 {
                for b in 0..d1 {
                    prop_assert!(seen.insert(t.flat_index(&[a, b])));
                }
            }
            prop_assert_eq!(seen.len(), d0 * d1);
        }
    }
}
