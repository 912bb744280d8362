//! The CNF formula type.

use crate::{transpose_block, Assignment, Clause, Lit, Solution, Var, WORD_BITS};
use std::fmt;

/// A CNF formula: a conjunction of [`Clause`]s over `num_vars` variables.
///
/// # Example
///
/// ```
/// use htsat_cnf::{Cnf, Lit};
///
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::pos(1), Lit::pos(2)]);
/// cnf.add_clause([Lit::neg(1), Lit::pos(3)]);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert!(cnf.is_satisfied_by_bits(&[true, false, true]));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Clause>,
    comments: Vec<String>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
            comments: Vec::new(),
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Comment lines attached to the formula (DIMACS `c` lines).
    pub fn comments(&self) -> &[String] {
        &self.comments
    }

    /// Attaches a comment line (without the leading `c`).
    pub fn add_comment(&mut self, comment: impl Into<String>) {
        self.comments.push(comment.into());
    }

    /// Adds a clause, growing the variable universe if needed.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        self.push_clause(Clause::from_lits(lits));
    }

    /// Adds a clause given in DIMACS integer form.
    ///
    /// # Panics
    ///
    /// Panics if any literal is zero.
    pub fn add_dimacs_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = i64>,
    {
        self.push_clause(Clause::from_dimacs(lits));
    }

    /// Adds an already-built [`Clause`], growing the universe if needed.
    pub fn push_clause(&mut self, clause: Clause) {
        for lit in clause.lits() {
            let idx = lit.var().index() as usize;
            if idx > self.num_vars {
                self.num_vars = idx;
            }
        }
        self.clauses.push(clause);
    }

    /// Grows the declared variable universe to at least `num_vars`.
    pub fn grow_vars(&mut self, num_vars: usize) {
        if num_vars > self.num_vars {
            self.num_vars = num_vars;
        }
    }

    /// Allocates a fresh variable beyond the current universe and returns it.
    pub fn fresh_var(&mut self) -> Var {
        self.num_vars += 1;
        Var::new(self.num_vars as u32)
    }

    /// Evaluates the formula under a complete bit-vector assignment indexed by
    /// zero-based variable index.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than [`Cnf::num_vars`].
    pub fn is_satisfied_by_bits(&self, bits: &[bool]) -> bool {
        assert!(
            bits.len() >= self.num_vars,
            "assignment has {} bits but formula has {} variables",
            bits.len(),
            self.num_vars
        );
        self.clauses.iter().all(|c| c.eval_bits(bits))
    }

    /// Evaluates the formula under up to `64 * W` complete assignments at
    /// once, one per bit lane: bit `j` of word `w` of `words[i]` is the
    /// value of zero-based variable `i` in assignment `64 * w + j`. Each
    /// clause ORs its literal words (a negative literal's flipped by an
    /// all-ones XOR mask) and the clauses AND into a mask of live lanes, so
    /// a lane of the result is set exactly when it is set in `lanes` and
    /// [`Cnf::is_satisfied_by_bits`] accepts its assignment. Words are
    /// independent: each ends as a one-word check of it would leave it.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`Cnf::num_vars`].
    pub fn satisfied_lanes<const W: usize>(&self, words: &[[u64; W]], lanes: [u64; W]) -> [u64; W] {
        assert!(
            words.len() >= self.num_vars,
            "assignment has {} words but formula has {} variables",
            words.len(),
            self.num_vars
        );
        let mut live = lanes;
        for clause in &self.clauses {
            if live == [0; W] {
                break;
            }
            let any = clause.lits().iter().fold([0; W], |any, lit| {
                let word = &words[lit.var().as_usize()];
                let flip = u64::from(lit.is_negative()).wrapping_neg();
                std::array::from_fn(|w| any[w] | (word[w] ^ flip))
            });
            live = std::array::from_fn(|w| live[w] & any[w]);
        }
        live
    }

    /// The satisfying assignments among the first `rows` rows of `words`
    /// (laid out as for [`Cnf::satisfied_lanes`]), each packed into a
    /// [`Solution`] over all `words.len()` variables: `(row, solution)` for
    /// every satisfying row, in row order. Lanes past `rows` are ignored,
    /// whatever they hold.
    ///
    /// Each word with a surviving lane is packed by transposing it 64
    /// variables at a time ([`transpose_block`]), so a row costs one word
    /// copy per 64 variables rather than one bit test per variable. Row for
    /// row this is [`Cnf::is_satisfied_by_bits`] followed by
    /// [`Solution::from_bits`], keeping the satisfying rows.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`Cnf::num_vars`] or `rows`
    /// exceeds `64 * W`.
    pub fn satisfying_lanes<const W: usize>(
        &self,
        words: &[[u64; W]],
        rows: usize,
    ) -> Vec<(usize, Solution)> {
        assert!(rows <= W * WORD_BITS, "{rows} rows overflow {W} words");
        let live = std::array::from_fn(|w| {
            let unused = (WORD_BITS * (w + 1)).saturating_sub(rows).min(WORD_BITS);
            (!0u64).checked_shr(unused as u32).unwrap_or(0)
        });
        let valid = self.satisfied_lanes(words, live);
        let mut packed = Vec::new();
        let mut block = [0u64; WORD_BITS];
        for (w, valid) in valid.into_iter().enumerate() {
            if valid == 0 {
                continue;
            }
            let lanes: Vec<usize> = (0..WORD_BITS).filter(|j| valid >> j & 1 == 1).collect();
            let mut rows = vec![vec![0u64; words.len().div_ceil(WORD_BITS)]; lanes.len()];
            for (k, chunk) in words.chunks(WORD_BITS).enumerate() {
                // A partial last chunk leaves stale words above it; they
                // land in the padding bits, which `Solution::from_words`
                // clears.
                for (slot, word) in block.iter_mut().zip(chunk) {
                    *slot = word[w];
                }
                transpose_block(&mut block);
                for (row, &lane) in rows.iter_mut().zip(&lanes) {
                    row[k] = block[lane];
                }
            }
            let solution = |row: Vec<u64>| Solution::from_words(row.into(), words.len());
            let lanes = lanes.into_iter().map(|lane| w * WORD_BITS + lane);
            packed.extend(lanes.zip(rows.into_iter().map(solution)));
        }
        packed
    }

    /// Evaluates the formula under a (possibly partial) [`Assignment`].
    ///
    /// Returns `Some(false)` as soon as a clause is falsified, `Some(true)` if
    /// every clause is satisfied, and `None` otherwise.
    pub fn eval(&self, assignment: &Assignment) -> Option<bool> {
        let mut all_true = true;
        for c in &self.clauses {
            match c.eval(assignment) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_true = false,
            }
        }
        if all_true {
            Some(true)
        } else {
            None
        }
    }

    /// Counts clauses falsified by a complete bit-vector assignment.
    pub fn count_falsified(&self, bits: &[bool]) -> usize {
        self.clauses.iter().filter(|c| !c.eval_bits(bits)).count()
    }

    /// Returns the set of variables actually occurring in clauses.
    pub fn occurring_vars(&self) -> Vec<Var> {
        let mut seen = vec![false; self.num_vars];
        for c in &self.clauses {
            for l in c.lits() {
                seen[l.var().as_usize()] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_i, &s)| s)
            .map(|(i, &_s)| Var::from_zero_based(i))
            .collect()
    }

    /// Removes duplicate literals within clauses and drops tautological
    /// clauses. Returns the number of clauses removed.
    pub fn normalize(&mut self) -> usize {
        let before = self.clauses.len();
        self.clauses.retain_mut(|c| !c.normalize());
        before - self.clauses.len()
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        let mut cnf = Cnf::new(0);
        for c in iter {
            cnf.push_clause(c);
        }
        cnf
    }
}

impl Extend<Clause> for Cnf {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for c in iter {
            self.push_clause(c);
        }
    }
}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a Clause;
    type IntoIter = std::slice::Iter<'a, Clause>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses.iter()
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf{{vars: {}, clauses: {}}}",
            self.num_vars,
            self.clauses.len()
        )
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "p cnf {} {}", self.num_vars, self.clauses.len())?;
        for c in &self.clauses {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_cnf() -> Cnf {
        // x3 = x1 XOR x2
        let mut cnf = Cnf::new(3);
        cnf.add_dimacs_clause([-1, -2, -3]);
        cnf.add_dimacs_clause([1, 2, -3]);
        cnf.add_dimacs_clause([1, -2, 3]);
        cnf.add_dimacs_clause([-1, 2, 3]);
        cnf
    }

    #[test]
    fn evaluation_agrees_with_xor_semantics() {
        let cnf = xor_cnf();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(cnf.is_satisfied_by_bits(&[a, b, c]), (a ^ b) == c);
                }
            }
        }
    }

    #[test]
    fn partial_eval_detects_conflict_early() {
        let cnf = xor_cnf();
        let mut a = Assignment::new(3);
        a.assign(Var::new(1), true);
        a.assign(Var::new(2), true);
        a.assign(Var::new(3), true);
        assert_eq!(cnf.eval(&a), Some(false));
    }

    #[test]
    fn add_clause_grows_universe() {
        let mut cnf = Cnf::new(1);
        cnf.add_dimacs_clause([5, -6]);
        assert_eq!(cnf.num_vars(), 6);
    }

    #[test]
    fn fresh_var_extends_universe() {
        let mut cnf = Cnf::new(2);
        let v = cnf.fresh_var();
        assert_eq!(v.index(), 3);
        assert_eq!(cnf.num_vars(), 3);
    }

    #[test]
    fn count_falsified_counts_unsatisfied_clauses() {
        let cnf = xor_cnf();
        assert_eq!(cnf.count_falsified(&[true, true, true]), 1);
        assert_eq!(cnf.count_falsified(&[true, true, false]), 0);
    }

    #[test]
    fn normalize_drops_tautologies() {
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, -1]);
        cnf.add_dimacs_clause([1, 2]);
        assert_eq!(cnf.normalize(), 1);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn occurring_vars_skips_unused() {
        let mut cnf = Cnf::new(5);
        cnf.add_dimacs_clause([1, 4]);
        let occ = cnf.occurring_vars();
        assert_eq!(occ, vec![Var::new(1), Var::new(4)]);
    }

    #[test]
    fn display_emits_dimacs() {
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, -2]);
        let s = cnf.to_string();
        assert!(s.starts_with("p cnf 2 1\n"));
        assert!(s.contains("1 -2 0"));
    }
}
