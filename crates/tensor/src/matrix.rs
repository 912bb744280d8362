//! Dense batched matrices.

use std::fmt;
use std::ops::Range;

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

    /// Mutable view of the rows `rows`, in row-major order; panics if
    /// `rows` ends beyond the matrix.
    #[inline]
    pub fn row_range_mut(&mut self, rows: Range<usize>) -> &mut [f32] {
        &mut self.data[rows.start * self.width..rows.end * self.width]
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

    /// The signs of up to `64 * W` rows of `rows`, from its start on, one
    /// `[u64; W]` per column: bit `j` of word `w` of column `c` is set when
    /// column `c` of row `rows.start + 64 * w + j` is above zero (`> 0.0`,
    /// so NaN and `-0.0` give 0). Returns the words and how many rows they
    /// hold: `64 * W`, or fewer at the end of the range. The bits above
    /// that count are zero.
    ///
    /// # Panics
    ///
    /// Panics if `rows` ends beyond the matrix.
    pub fn sign_words<const W: usize>(&self, rows: Range<usize>) -> (Vec<[u64; W]>, usize) {
        assert!(rows.end <= self.batch, "rows {rows:?} end beyond the batch");
        let first = rows.start;
        let rows = rows.len().min(W * u64::BITS as usize);
        let mut words = vec![[0u64; W]; self.width];
        for r in 0..rows {
            for (column, &v) in words.iter_mut().zip(self.row(first + r)) {
                column[r / 64] |= u64::from(v > 0.0) << (r % 64);
            }
        }
        (words, rows)
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
    fn sign_words_hold_one_bit_per_row_and_stop_at_the_last_row() {
        // Row r holds [r - 66, +/-0.0 by parity, NaN]; 70 rows, so the word
        // from row 64 holds 6 rows.
        let m = BatchMatrix::from_fn(70, 3, |r, c| match c {
            0 => r as f32 - 66.0,
            1 if r % 2 == 0 => 0.0,
            1 => -0.0,
            _ => f32::NAN,
        });
        assert_eq!(m.sign_words(0..70), (vec![[0], [0], [0]], 64));
        assert_eq!(m.sign_words(64..70), (vec![[0b11_1000], [0], [0]], 6));
        assert_eq!(m.sign_words(5..70), (vec![[!0 << 62], [0], [0]], 64));
        // Two words from row 5: rows 5..=68, then the last row, 69.
        let two = (vec![[!0 << 62, 1], [0; 2], [0; 2]], 65);
        assert_eq!(m.sign_words::<2>(5..70), two);
        // The range's end cuts the words short of the matrix's: rows 64..68.
        assert_eq!(m.sign_words(64..68), (vec![[0b1000], [0], [0]], 4));
        assert_eq!(m.sign_words::<2>(5..69).1, 64);
    }

    #[test]
    fn bytes_reports_buffer_size() {
        let m = BatchMatrix::zeros(10, 7);
        assert_eq!(m.bytes(), 10 * 7 * 4);
    }
}
