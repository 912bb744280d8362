//! Variables and literals.

use std::fmt;

/// A propositional variable, identified by a 1-based index as in DIMACS.
///
/// `Var(0)` is never a valid variable; constructors enforce this.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The largest variable index a [`Lit`] can encode: its code
    /// `2 * (index - 1) + 1` must fit in a `u32`.
    pub const MAX_INDEX: u32 = 1 << 31;

    /// Creates a variable from its 1-based DIMACS index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero.
    #[inline]
    pub fn new(index: u32) -> Self {
        assert!(index != 0, "variable index must be non-zero");
        Var(index)
    }

    /// Returns the 1-based DIMACS index of this variable.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the 0-based dense index, convenient for array lookups.
    #[inline]
    pub fn as_usize(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Creates a variable from a 0-based dense index.
    #[inline]
    pub fn from_zero_based(index: usize) -> Self {
        Var(index as u32 + 1)
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<Var> for u32 {
    fn from(v: Var) -> u32 {
        v.index()
    }
}

/// A literal: a variable or its negation.
///
/// Internally encoded as `2 * (index - 1) + sign` so literals can be used as
/// dense array indices (see [`Lit::code`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive when `positive` is true.
    #[inline]
    pub fn new(var: Var, positive: bool) -> Self {
        Lit((var.as_usize() as u32) << 1 | u32::from(positive))
    }

    /// Positive literal of the variable with the given 1-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero.
    #[inline]
    pub fn pos(index: u32) -> Self {
        Lit::new(Var::new(index), true)
    }

    /// Negative literal of the variable with the given 1-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero.
    #[inline]
    pub fn neg(index: u32) -> Self {
        Lit::new(Var::new(index), false)
    }

    /// Parses a literal from its DIMACS integer form (`-3` is `¬x3`).
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero or its magnitude exceeds
    /// [`Var::MAX_INDEX`].
    #[inline]
    pub fn from_dimacs(value: i64) -> Self {
        assert!(value != 0, "DIMACS literal must be non-zero");
        let index = value.unsigned_abs();
        assert!(
            index <= u64::from(Var::MAX_INDEX),
            "DIMACS literal magnitude must not exceed Var::MAX_INDEX"
        );
        Lit::new(Var::new(index as u32), value > 0)
    }

    /// Returns the literal in DIMACS integer form.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().index() as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// The variable this literal refers to.
    #[inline]
    pub fn var(self) -> Var {
        Var::from_zero_based((self.0 >> 1) as usize)
    }

    /// Whether this literal is the positive (non-negated) polarity.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this literal is negated.
    #[inline]
    pub fn is_negative(self) -> bool {
        !self.is_positive()
    }

    /// Dense code usable as an array index: `2 * var_zero_based + polarity`.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from the dense [`Lit::code`] encoding.
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Evaluates this literal under a truth value for its variable.
    #[inline]
    pub fn eval(self, var_value: bool) -> bool {
        var_value == self.is_positive()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬")?;
        }
        write!(f, "{}", self.var())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_round_trips_indices() {
        let v = Var::new(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.as_usize(), 6);
        assert_eq!(Var::from_zero_based(6), v);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn var_zero_rejected() {
        let _ = Var::new(0);
    }

    #[test]
    fn literal_polarity_and_negation() {
        let l = Lit::pos(3);
        assert!(l.is_positive());
        assert_eq!((!l).var(), l.var());
        assert!((!l).is_negative());
        assert_eq!(!!l, l);
    }

    #[test]
    fn literal_dimacs_round_trip() {
        for d in [1i64, -1, 5, -42, 100] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    fn literal_code_round_trip() {
        for d in [1i64, -1, 9, -9] {
            let l = Lit::from_dimacs(d);
            assert_eq!(Lit::from_code(l.code()), l);
        }
    }

    #[test]
    fn literal_eval_matches_polarity() {
        assert!(Lit::pos(2).eval(true));
        assert!(!Lit::pos(2).eval(false));
        assert!(Lit::neg(2).eval(false));
        assert!(!Lit::neg(2).eval(true));
    }

    #[test]
    fn codes_are_dense_and_adjacent() {
        let v = Var::new(4);
        assert_eq!(v.negative().code() ^ 1, v.positive().code());
    }
}
