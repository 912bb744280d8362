//! Property-based tests for the CNF substrate.

use htsat_cnf::{dimacs, transpose_block, Assignment, Clause, Cnf, Lit, Solution, Var};
use proptest::prelude::*;

/// Strategy producing an arbitrary CNF with `max_vars` variables and up to
/// `max_clauses` clauses of up to `max_width` literals.
fn arb_cnf(max_vars: u32, max_clauses: usize, max_width: usize) -> impl Strategy<Value = Cnf> {
    let lit =
        (1..=max_vars, any::<bool>()).prop_map(|(v, pos)| if pos { v as i64 } else { -(v as i64) });
    let clause = prop::collection::vec(lit, 1..=max_width);
    prop::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new(max_vars as usize);
        for c in clauses {
            cnf.add_dimacs_clause(c);
        }
        cnf
    })
}

fn arb_bits(n: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), n)
}

/// DIMACS literal tokens of every magnitude: full-range `i64`s, the same
/// shifted down to every width, and values around [`Var::MAX_INDEX`].
fn arb_token() -> impl Strategy<Value = i64> {
    let edge = 1i64 << 32;
    prop_oneof![
        any::<i64>(),
        (any::<i64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
        -edge..=edge,
    ]
}

proptest! {
    #[test]
    fn dimacs_round_trip_preserves_semantics(cnf in arb_cnf(8, 16, 4), bits in arb_bits(8)) {
        let text = dimacs::to_string(&cnf);
        let reparsed = dimacs::parse_str(&text).expect("reparse");
        prop_assert_eq!(cnf.num_clauses(), reparsed.num_clauses());
        prop_assert_eq!(
            cnf.is_satisfied_by_bits(&bits),
            reparsed.is_satisfied_by_bits(&bits)
        );
    }

    #[test]
    fn normalization_preserves_satisfaction(cnf in arb_cnf(6, 12, 4), bits in arb_bits(6)) {
        let mut normalized = cnf.clone();
        normalized.normalize();
        // Dropping tautologies and duplicate literals never changes the value.
        prop_assert_eq!(
            cnf.is_satisfied_by_bits(&bits),
            normalized.is_satisfied_by_bits(&bits)
        );
    }

    #[test]
    fn word_wide_clause_mask_matches_every_lane(
        universe in prop_oneof![Just(0usize), Just(8), Just(63), Just(64), Just(65)],
        clauses in prop::collection::vec(
            prop::collection::vec((any::<usize>(), any::<bool>()), 1..=4),
            0..=16,
        ),
        rows in prop_oneof![Just(1usize), Just(63), Just(64), 1usize..=64],
        words in prop::collection::vec(any::<u64>(), 65),
        mask in any::<u64>(),
    ) {
        let mut cnf = Cnf::new(universe);
        if universe > 0 {
            for clause in &clauses {
                cnf.add_dimacs_clause(clause.iter().map(|&(v, positive)| {
                    let var = (v % universe + 1) as i64;
                    if positive { var } else { -var }
                }));
            }
        }
        // One word per variable, one lane per row. The lanes at or above
        // `rows` (a partial word) carry random bits, as an evaluated
        // circuit's inverted nodes would.
        let words: Vec<[u64; 1]> = words[..universe].iter().map(|&w| [w]).collect();
        let lanes: Vec<Vec<bool>> = (0..rows)
            .map(|j| words.iter().map(|[w]| w >> j & 1 == 1).collect())
            .collect();
        let live = mask & (!0u64 >> (64 - rows));
        let [got] = cnf.satisfied_lanes(&words, [live]);
        for (j, bits) in lanes.iter().enumerate() {
            let expected = live >> j & 1 == 1 && cnf.is_satisfied_by_bits(bits);
            prop_assert_eq!(got >> j & 1 == 1, expected, "lane {}", j);
        }
        prop_assert_eq!(got & !live, 0, "a lane outside the mask survived");

        // Packed, the satisfying rows are exactly the per-row verdicts.
        let expected: Vec<(usize, Solution)> = lanes
            .iter()
            .enumerate()
            .filter(|(_, bits)| cnf.is_satisfied_by_bits(bits))
            .map(|(j, bits)| (j, Solution::from_bits(bits)))
            .collect();
        let packed = cnf.satisfying_lanes(&words, rows);
        for (_, solution) in &packed {
            prop_assert_eq!(solution.len(), universe);
            if universe % 64 != 0 {
                let last = solution.words()[universe / 64];
                prop_assert_eq!(last >> (universe % 64), 0, "padding is zero");
            }
        }
        prop_assert_eq!(packed, expected);
    }

    #[test]
    fn a_group_of_words_checks_as_one_word_at_a_time(
        universe in prop_oneof![Just(1usize), Just(64), Just(65), 1usize..=130],
        clauses in prop::collection::vec(
            prop::collection::vec((any::<usize>(), any::<bool>()), 1..=4),
            1..=16,
        ),
        rows in prop_oneof![Just(1usize), Just(64), Just(65), Just(255), Just(256), 1usize..=256],
        words in prop::collection::vec(any::<u64>(), 4 * 130),
        mask in prop::collection::vec(any::<u64>(), 4),
    ) {
        let mut cnf = Cnf::new(universe);
        for clause in &clauses {
            cnf.add_dimacs_clause(clause.iter().map(|&(v, positive)| {
                let var = (v % universe + 1) as i64;
                if positive { var } else { -var }
            }));
        }
        // Random bits in every lane, including the words and lanes at or
        // above `rows` that the group does not use.
        let words: Vec<[u64; 4]> = words.as_chunks().0[..universe].to_vec();
        let mask: [u64; 4] = mask.try_into().expect("four words");
        let one_word = |w: usize| -> Vec<[u64; 1]> { words.iter().map(|g| [g[w]]).collect() };
        let group = cnf.satisfied_lanes(&words, mask);
        let mut packed = Vec::new();
        for w in 0..4 {
            let [alone] = cnf.satisfied_lanes(&one_word(w), [mask[w]]);
            prop_assert_eq!(group[w], alone, "word {}", w);
            let held = rows.saturating_sub(64 * w).min(64);
            packed.extend(
                cnf.satisfying_lanes(&one_word(w), held)
                    .into_iter()
                    .map(|(lane, solution)| (64 * w + lane, solution)),
            );
        }
        prop_assert_eq!(cnf.satisfying_lanes(&words, rows), packed);
    }

    #[test]
    fn falsified_count_zero_iff_satisfied(cnf in arb_cnf(6, 12, 4), bits in arb_bits(6)) {
        prop_assert_eq!(cnf.count_falsified(&bits) == 0, cnf.is_satisfied_by_bits(&bits));
    }

    #[test]
    fn clause_eval_consistent_with_bits(
        lits in prop::collection::vec((1u32..6, any::<bool>()), 1..5),
        bits in arb_bits(6),
    ) {
        let clause: Clause = lits
            .iter()
            .map(|&(v, pos)| Lit::new(Var::new(v), pos))
            .collect();
        let assignment = Assignment::from_bits(&bits);
        prop_assert_eq!(clause.eval(&assignment), Some(clause.eval_bits(&bits)));
    }

    #[test]
    fn arbitrary_literal_tokens_parse_or_fail_without_panicking(
        tokens in prop::collection::vec(arb_token(), 1..12),
    ) {
        // One line of tokens; a zero among them closes a clause early.
        let line: Vec<String> = tokens.iter().map(i64::to_string).collect();
        let text = format!("p cnf 1 1\n{} 0\n", line.join(" "));
        let in_range = |t: &&i64| t.unsigned_abs() <= u64::from(Var::MAX_INDEX);
        match dimacs::parse_str(&text) {
            Ok(cnf) => {
                prop_assert!(tokens.iter().all(|t| in_range(&t)));
                let read: Vec<i64> = cnf
                    .clauses()
                    .iter()
                    .flat_map(Clause::lits)
                    .map(|l| l.to_dimacs())
                    .collect();
                let written: Vec<i64> = tokens.iter().copied().filter(|&t| t != 0).collect();
                prop_assert_eq!(read, written);
            }
            Err(err) => {
                let first = tokens.iter().find(|t| !in_range(t));
                prop_assert!(first.is_some(), "rejected in-range tokens: {err}");
                let expected = format!("line 2: invalid literal token `{}`", first.unwrap());
                prop_assert_eq!(err.to_string(), expected);
            }
        }
    }

    #[test]
    fn literal_negation_is_involutive(v in 1u32..1000, pos in any::<bool>()) {
        let l = Lit::new(Var::new(v), pos);
        prop_assert_eq!(!!l, l);
        prop_assert_eq!((!l).var(), l.var());
        prop_assert_ne!((!l).is_positive(), l.is_positive());
    }

    #[test]
    fn unit_propagation_never_falsifies_satisfiable_assignments(
        cnf in arb_cnf(6, 10, 3),
        bits in arb_bits(6),
    ) {
        use htsat_cnf::propagate::{propagate_units, PropagationResult};
        // If `bits` satisfies the formula, propagation from the empty
        // assignment can never produce implied literals contradicting... a
        // *different* model, but it must never report a conflict when the
        // formula is satisfiable by `bits`.
        if cnf.is_satisfied_by_bits(&bits) {
            match propagate_units(&cnf, &Assignment::new(cnf.num_vars())) {
                PropagationResult::Conflict { .. } => {
                    prop_assert!(false, "conflict reported for satisfiable formula");
                }
                PropagationResult::Consistent { .. } => {}
            }
        }
    }

    #[test]
    fn ops_count_monotone_in_clauses(cnf in arb_cnf(6, 10, 4)) {
        use htsat_cnf::ops::count_cnf_ops;
        let full = count_cnf_ops(&cnf).total();
        let mut smaller = Cnf::new(cnf.num_vars());
        for c in cnf.clauses().iter().take(cnf.num_clauses() / 2) {
            smaller.push_clause(c.clone());
        }
        prop_assert!(count_cnf_ops(&smaller).total() <= full);
    }
}

/// The lengths the packed-solution properties cover: empty, one bit, both
/// sides of every word boundary up to two words, and paper scale.
const SOLUTION_LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 10_600];

/// `len` pseudo-random bits drawn from `seed` (SplitMix64).
fn bits_from_seed(len: usize, seed: u64) -> Vec<bool> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) & 1 == 1
        })
        .collect()
}

fn hash_of(solution: &Solution) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    solution.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solution_to_bits_inverts_from_bits(seed in any::<u64>()) {
        for len in SOLUTION_LENGTHS {
            let bits = bits_from_seed(len, seed);
            let solution = Solution::from_bits(&bits);
            prop_assert_eq!(solution.len(), len);
            prop_assert_eq!(solution.words().len(), len.div_ceil(64));
            prop_assert_eq!(solution.to_bits(), bits);
        }
    }

    #[test]
    fn solution_padding_bits_are_zero(seed in any::<u64>()) {
        for len in SOLUTION_LENGTHS {
            // All-ones input is the worst case for padding.
            let ones = Solution::from_bits(&vec![true; len]);
            let random = Solution::from_bits(&bits_from_seed(len, seed));
            // Garbage padding handed to `from_words` is cleared too.
            let garbage: Box<[u64]> = vec![!0u64; len.div_ceil(64)].into_boxed_slice();
            let wrapped = Solution::from_words(garbage, len);
            prop_assert_eq!(&wrapped, &ones);
            for solution in [ones, random, wrapped] {
                if let Some(&last) = solution.words().last() {
                    let used = len - 64 * (solution.words().len() - 1);
                    prop_assert_eq!(last.checked_shr(used as u32).unwrap_or(0), 0);
                }
            }
        }
    }

    #[test]
    fn transpose_block_swaps_word_and_bit_indices(
        words in prop::collection::vec(any::<u64>(), 64),
    ) {
        let original: [u64; 64] = words.try_into().expect("64 words");
        let mut block = original;
        transpose_block(&mut block);
        for (i, word) in block.iter().enumerate() {
            for (j, source) in original.iter().enumerate() {
                prop_assert_eq!(word >> j & 1, source >> i & 1, "word {}, bit {}", i, j);
            }
        }
    }

    #[test]
    fn solutions_are_equal_and_hash_equal_exactly_when_their_bits_are(
        seed in any::<u64>(),
        flip in any::<u64>(),
        same in any::<bool>(),
    ) {
        for len in SOLUTION_LENGTHS {
            let a = bits_from_seed(len, seed);
            let mut b = a.clone();
            if !same && len > 0 {
                let at = (flip % len as u64) as usize;
                b[at] = !b[at];
            }
            let (sa, sb) = (Solution::from_bits(&a), Solution::from_bits(&b));
            prop_assert_eq!(sa == sb, a == b, "len {}", len);
            prop_assert_eq!(hash_of(&sa) == hash_of(&sb), a == b, "len {}", len);
            // A longer assignment padded with false is a different one.
            let mut longer = a.clone();
            longer.push(false);
            prop_assert_ne!(Solution::from_bits(&longer), sa);
        }
    }
}
