//! Property-based tests for the CNF substrate.

use htsat_cnf::{dimacs, Assignment, Clause, Cnf, Lit, Var};
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
        cnf in arb_cnf(8, 16, 4),
        lanes in prop::collection::vec(arb_bits(8), 1..=64),
        mask in any::<u64>(),
    ) {
        // Transpose the lanes into one word per variable; the lanes beyond
        // `lanes.len()` (a partial word) carry garbage ones, as an evaluated
        // circuit's inverted nodes would.
        let garbage = (!0u64).checked_shl(lanes.len() as u32).unwrap_or(0);
        let words: Vec<u64> = (0..8)
            .map(|v| {
                lanes
                    .iter()
                    .enumerate()
                    .fold(garbage, |w, (j, bits)| w | u64::from(bits[v]) << j)
            })
            .collect();
        let live = mask & (!0u64 >> (64 - lanes.len()));
        let got = cnf.satisfied_lanes(&words, live);
        for (j, bits) in lanes.iter().enumerate() {
            let expected = live >> j & 1 == 1 && cnf.is_satisfied_by_bits(bits);
            prop_assert_eq!(got >> j & 1 == 1, expected, "lane {}", j);
        }
        prop_assert_eq!(got & !live, 0, "a lane outside the mask survived");
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
