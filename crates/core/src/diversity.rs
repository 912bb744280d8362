//! Sample-quality metrics: diversity and coverage of a solution set.
//!
//! The paper evaluates throughput of *unique* solutions; downstream users of
//! a sampler (constrained-random verification, sampler testing à la Pote &
//! Meel) also care about how *spread out* the returned solutions are. This
//! module provides the standard descriptive statistics used to compare
//! samplers: pairwise Hamming-distance statistics, per-variable bias, and
//! coverage of the (exactly counted) solution space for small formulas.

use htsat_cnf::Cnf;

/// Descriptive statistics of a set of sampled solutions.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityReport {
    /// Number of solutions analysed.
    pub num_solutions: usize,
    /// Number of variables per solution.
    pub num_vars: usize,
    /// Mean pairwise Hamming distance (estimated from at most
    /// [`MAX_PAIRS`] random pairs), normalised to `[0, 1]`.
    pub mean_normalized_hamming: f64,
    /// Minimum pairwise Hamming distance observed (absolute bit count).
    pub min_hamming: usize,
    /// Mean absolute per-variable bias: `mean_v |P(v = 1) - 0.5| * 2`,
    /// where 0 means perfectly balanced and 1 means every variable is
    /// constant across the sample set.
    pub mean_bias: f64,
}

/// Maximum number of random pairs used for the Hamming-distance estimate.
pub const MAX_PAIRS: usize = 4096;

/// Computes diversity statistics for a set of solutions.
///
/// Returns `None` when fewer than two solutions are supplied (no pairwise
/// statistics exist) or when the solutions differ in length (they are not
/// assignments over one variable universe).
pub fn diversity(solutions: &[Vec<bool>]) -> Option<DiversityReport> {
    if solutions.len() < 2 {
        return None;
    }
    let num_vars = solutions[0].len();
    if solutions.iter().any(|s| s.len() != num_vars) {
        return None;
    }
    let n = solutions.len();
    // Deterministic pair subsampling: stride through all pairs.
    let total_pairs = n * (n - 1) / 2;
    let stride = (total_pairs / MAX_PAIRS).max(1);
    let mut pair_index = 0usize;
    let mut used_pairs = 0usize;
    let mut sum_distance = 0usize;
    let mut min_distance = usize::MAX;
    for i in 0..n {
        for j in (i + 1)..n {
            if pair_index.is_multiple_of(stride) {
                let d = hamming(&solutions[i], &solutions[j]);
                sum_distance += d;
                min_distance = min_distance.min(d);
                used_pairs += 1;
            }
            pair_index += 1;
        }
    }
    let mean_normalized_hamming = if num_vars == 0 || used_pairs == 0 {
        0.0
    } else {
        sum_distance as f64 / (used_pairs as f64 * num_vars as f64)
    };
    // Per-variable bias.
    let mut bias_sum = 0.0f64;
    for v in 0..num_vars {
        let ones = solutions.iter().filter(|s| s[v]).count();
        let p = ones as f64 / n as f64;
        bias_sum += (p - 0.5).abs() * 2.0;
    }
    let mean_bias = if num_vars == 0 {
        0.0
    } else {
        bias_sum / num_vars as f64
    };
    Some(DiversityReport {
        num_solutions: n,
        num_vars,
        mean_normalized_hamming,
        min_hamming: if min_distance == usize::MAX {
            0
        } else {
            min_distance
        },
        mean_bias,
    })
}

fn hamming(a: &[bool], b: &[bool]) -> usize {
    a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
}

/// Fraction of the formula's exactly enumerated solution space covered by
/// `solutions`, for formulas with at most `max_vars_exhaustive` occurring
/// variables. Returns `None` when the space is too large to enumerate.
pub fn coverage(cnf: &Cnf, solutions: &[Vec<bool>], max_vars_exhaustive: usize) -> Option<f64> {
    let occurring = cnf.occurring_vars();
    if occurring.len() > max_vars_exhaustive.min(25) {
        return None;
    }
    let mut total = 0u64;
    let mut bits = vec![false; cnf.num_vars()];
    let mut models = std::collections::HashSet::new();
    for mask in 0u64..(1u64 << occurring.len()) {
        for (i, v) in occurring.iter().enumerate() {
            bits[v.as_usize()] = (mask >> i) & 1 == 1;
        }
        if cnf.is_satisfied_by_bits(&bits) {
            total += 1;
            models.insert(
                occurring
                    .iter()
                    .map(|v| bits[v.as_usize()])
                    .collect::<Vec<_>>(),
            );
        }
    }
    if total == 0 {
        return Some(0.0);
    }
    let covered = solutions
        .iter()
        .map(|s| {
            occurring
                .iter()
                .map(|v| s[v.as_usize()])
                .collect::<Vec<bool>>()
        })
        .filter(|projected| models.contains(projected))
        .collect::<std::collections::HashSet<_>>()
        .len();
    Some(covered as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GdSampler, SamplerConfig};
    use std::time::Duration;

    #[test]
    fn diversity_requires_at_least_two_solutions() {
        assert!(diversity(&[]).is_none());
        assert!(diversity(&[vec![true, false]]).is_none());
    }

    #[test]
    fn diversity_rejects_solutions_of_different_lengths() {
        // A shorter later solution used to panic on indexing, a longer one
        // to be measured over the first solution's variables only.
        let shorter = vec![vec![true, false, true], vec![true, false]];
        let longer = vec![vec![true, false], vec![true, false, true]];
        assert!(diversity(&shorter).is_none());
        assert!(diversity(&longer).is_none());
        let even = vec![vec![true, false], vec![false, false]];
        assert!(diversity(&even).is_some());
    }

    #[test]
    fn identical_solutions_have_zero_diversity() {
        let s = vec![vec![true, false, true]; 5];
        let report = diversity(&s).expect("enough solutions");
        assert_eq!(report.mean_normalized_hamming, 0.0);
        assert_eq!(report.min_hamming, 0);
        assert_eq!(report.mean_bias, 1.0);
    }

    #[test]
    fn complementary_solutions_have_maximal_diversity() {
        let s = vec![vec![true; 4], vec![false; 4]];
        let report = diversity(&s).expect("enough solutions");
        assert_eq!(report.mean_normalized_hamming, 1.0);
        assert_eq!(report.min_hamming, 4);
        assert_eq!(report.mean_bias, 0.0);
    }

    #[test]
    fn coverage_on_small_formula() {
        let mut cnf = Cnf::new(2);
        cnf.add_dimacs_clause([1, 2]);
        // Solutions: 01, 10, 11 over occurring vars.
        let sols = vec![vec![true, false], vec![true, true]];
        let cov = coverage(&cnf, &sols, 10).expect("enumerable");
        assert!((cov - 2.0 / 3.0).abs() < 1e-9);
        assert!(coverage(&cnf, &[], 10).expect("enumerable") < 1e-9);
    }

    #[test]
    fn coverage_declines_enumeration_of_large_spaces() {
        let mut cnf = Cnf::new(40);
        let clause: Vec<i64> = (1..=40).collect();
        cnf.add_dimacs_clause(clause);
        assert!(coverage(&cnf, &[], 20).is_none());
    }

    #[test]
    fn gd_sampler_produces_diverse_solutions_on_loose_formula() {
        let mut cnf = Cnf::new(8);
        cnf.add_dimacs_clause([1, 2, 3, 4, 5, 6, 7, 8]);
        let config = SamplerConfig {
            batch_size: 128,
            ..SamplerConfig::default()
        };
        let mut sampler = GdSampler::new(&cnf, config).expect("build");
        let report = sampler.sample(50, Duration::from_secs(5));
        let stats = diversity(&report.solutions).expect("enough solutions");
        assert!(stats.mean_normalized_hamming > 0.2, "{stats:?}");
        assert!(stats.mean_bias < 0.8, "{stats:?}");
    }
}
