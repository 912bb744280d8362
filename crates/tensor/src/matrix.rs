//! Dense batched matrices.

use std::fmt;

/// A dense, row-major `f32` matrix of shape `[batch, width]`.
///
/// Each row holds the values of one independent batch element — in the
/// sampler, one candidate assignment's input logits or probabilities.
#[derive(Clone, PartialEq)]
pub struct BatchMatrix {
    data: Vec<f32>,
    batch: usize,
    width: usize,
}

impl BatchMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(batch: usize, width: usize) -> Self {
        Self::filled(batch, width, 0.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(batch: usize, width: usize, value: f32) -> Self {
        BatchMatrix {
            data: vec![value; batch * width],
            batch,
            width,
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != batch * width`.
    pub fn from_vec(batch: usize, width: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            batch * width,
            "data length must be batch * width"
        );
        BatchMatrix { data, batch, width }
    }

    /// Creates a matrix by calling `f(batch_index, column)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(batch: usize, width: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(batch * width);
        for b in 0..batch {
            for w in 0..width {
                data.push(f(b, w));
            }
        }
        BatchMatrix { data, batch, width }
    }

    /// Number of rows (batch elements).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.width + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.width + col] = value;
    }

    /// Borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.width..(row + 1) * self.width]
    }

    /// Mutable borrow of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.width..(row + 1) * self.width]
    }

    /// View of the whole buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the whole buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable row iterator.
    pub fn rows(&self) -> std::slice::Chunks<'_, f32> {
        self.data.chunks(self.width)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise `self -= scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn saxpy_neg(&mut self, scale: f32, other: &BatchMatrix) {
        assert_eq!(self.batch, other.batch, "batch mismatch");
        assert_eq!(self.width, other.width, "width mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= scale * b;
        }
    }

    /// Memory footprint of the value buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for BatchMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BatchMatrix[{}x{}]", self.batch, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let mut m = BatchMatrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn from_fn_fills_in_row_major_order() {
        let m = BatchMatrix::from_fn(2, 2, |b, w| (b * 10 + w) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "batch * width")]
    fn from_vec_rejects_wrong_length() {
        let _ = BatchMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn saxpy_neg_updates_in_place() {
        let mut a = BatchMatrix::filled(1, 2, 1.0);
        let g = BatchMatrix::filled(1, 2, 0.5);
        a.saxpy_neg(2.0, &g);
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut a = BatchMatrix::filled(2, 2, 2.0);
        a.map_inplace(|v| v * v);
        assert!(a.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn bytes_reports_buffer_size() {
        let m = BatchMatrix::zeros(10, 7);
        assert_eq!(m.bytes(), 10 * 7 * 4);
    }
}
