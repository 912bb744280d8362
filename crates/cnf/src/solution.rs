//! Packed satisfying assignments: one bit per variable.

use std::fmt;

/// Bits per word of a [`Solution`].
pub const WORD_BITS: usize = 64;

/// A complete assignment packed one bit per variable: bit `i % 64` of word
/// `i / 64` is the value of the zero-based variable `i`.
///
/// This is the one representation a sampled solution has from the
/// sampler's hardening pass to the wire encoder. The padding bits of the
/// last word are always zero, so the derived equality and hash over the
/// words agree exactly with equality of the unpacked bit vectors — and
/// hashing a solution costs one write of its words rather than one call
/// per variable.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    words: Box<[u64]>,
    len: usize,
}

impl Solution {
    /// Packs a bit vector (`bits[i]` is the value of variable `i + 1`).
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(WORD_BITS)];
        for (word, chunk) in words.iter_mut().zip(bits.chunks(WORD_BITS)) {
            *word = chunk
                .iter()
                .enumerate()
                .fold(0, |acc, (bit, &value)| acc | u64::from(value) << bit);
        }
        Solution {
            words: words.into_boxed_slice(),
            len: bits.len(),
        }
    }

    /// Wraps `len` packed bits. Bits of the last word at or beyond `len`
    /// are cleared, so callers may hand over words with garbage padding.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly `len.div_ceil(64)` words.
    #[must_use]
    pub fn from_words(mut words: Box<[u64]>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "{len} bits need {} words",
            len.div_ceil(WORD_BITS)
        );
        let tail = len % WORD_BITS;
        if tail != 0 {
            words[len / WORD_BITS] &= !0 >> (WORD_BITS - tail);
        }
        Solution { words, len }
    }

    /// Number of variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the solution assigns no variables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, `len().div_ceil(64)` of them, padding bits zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The value of zero-based variable `index < self.len()`.
    fn get(&self, index: usize) -> bool {
        self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Unpacks into one `bool` per variable: eight at a time by table
    /// lookup for each whole word, then the bits of a partial last word.
    #[must_use]
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.len);
        let whole = self.len / WORD_BITS;
        for word in &self.words[..whole] {
            for byte in word.to_le_bytes() {
                bits.extend_from_slice(&BYTE_BITS[usize::from(byte)]);
            }
        }
        if let Some(&last) = self.words.get(whole) {
            bits.extend((0..self.len % WORD_BITS).map(|bit| last >> bit & 1 == 1));
        }
        bits
    }
}

/// The values of every byte of a packed word: entry `b` holds bit `i` of
/// `b` at index `i`.
const BYTE_BITS: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[byte][bit] = byte >> bit & 1 == 1;
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Transposes a 64×64 bit matrix in place: afterwards bit `j` of word `i`
/// is what bit `i` of word `j` was. Six rounds swap ever smaller
/// off-diagonal blocks (32, 16, …, 1 bits wide) between word pairs.
///
/// The sampler's hardening pass holds one word per variable with one bit
/// per row; transposed, it holds one word per row with one bit per
/// variable — 64 variables of each row's packed [`Solution`].
pub fn transpose_block(block: &mut [u64; WORD_BITS]) {
    let mut width = WORD_BITS / 2;
    let mut mask = u64::MAX >> width;
    while width > 0 {
        let mut i = 0;
        while i < WORD_BITS {
            // Word `i` has bit `width` clear; its partner is `i + width`.
            let swap = ((block[i] >> width) ^ block[i + width]) & mask;
            block[i] ^= swap << width;
            block[i + width] ^= swap;
            i = (i + width + 1) & !width;
        }
        width /= 2;
        mask ^= mask << width;
    }
}

impl fmt::Debug for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text: String = (0..self.len)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect();
        f.debug_tuple("Solution").field(&text).finish()
    }
}

/// Compatibility shim for the benchmark in `perfbench/`, which collects a
/// stream's `Solution` chunks into `Vec<Vec<bool>>` with `extend`. Deleted
/// when the benchmark moves to `Solution` (ROADMAP.md, item 7).
impl Extend<Solution> for Vec<Vec<bool>> {
    fn extend<I: IntoIterator<Item = Solution>>(&mut self, iter: I) {
        for solution in iter {
            self.push(solution.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_order_is_variable_order_within_and_across_words() {
        let mut bits = vec![false; 70];
        bits[0] = true;
        bits[63] = true;
        bits[64] = true;
        bits[69] = true;
        let solution = Solution::from_bits(&bits);
        assert_eq!(solution.words(), &[1 | 1 << 63, 1 | 1 << 5]);
        assert_eq!(solution.to_bits(), bits);
    }

    #[test]
    fn from_words_clears_the_padding() {
        let solution = Solution::from_words(vec![!0, !0].into_boxed_slice(), 65);
        assert_eq!(solution.words(), &[!0, 1]);
        assert_eq!(solution, Solution::from_bits(&[true; 65]));
        assert!(Solution::from_words(Box::new([]), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "need 2 words")]
    fn from_words_rejects_a_wrong_word_count() {
        let _ = Solution::from_words(vec![0].into_boxed_slice(), 65);
    }

    #[test]
    fn debug_prints_the_bit_string() {
        let solution = Solution::from_bits(&[true, false, true]);
        assert_eq!(format!("{solution:?}"), r#"Solution("101")"#);
    }

    #[test]
    fn extend_unpacks_into_bit_vectors() {
        let mut collected: Vec<Vec<bool>> = vec![vec![false]];
        collected.extend(vec![Solution::from_bits(&[true, false])]);
        assert_eq!(collected, vec![vec![false], vec![true, false]]);
    }
}
