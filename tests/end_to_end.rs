//! End-to-end integration tests: instance generation → transformation →
//! sampling → validation against the original CNF, plus cross-sampler
//! agreement checks.

use htsat::baselines::engine_by_name;
use htsat::cnf::dimacs;
use htsat::core::{transform, GdSampler, SamplerConfig, SessionConfig, TransformConfig};
use htsat::instances::families;
use htsat::instances::suite::{table2_instances, SuiteScale};
use htsat::solver::{dpll, CdclSolver, SolveResult};
use std::time::Duration;

#[test]
fn pipeline_works_on_every_small_table2_instance() {
    for instance in table2_instances(SuiteScale::Small) {
        let mut sampler = GdSampler::new(&instance.cnf, SamplerConfig::default())
            .unwrap_or_else(|e| panic!("transform failed for {}: {e}", instance.name));
        let report = sampler.sample(20, Duration::from_secs(20));
        assert!(
            !report.solutions.is_empty(),
            "no solutions sampled for {}",
            instance.name
        );
        for solution in &report.solutions {
            assert!(
                instance.cnf.is_satisfied_by_bits(solution),
                "invalid solution for {}",
                instance.name
            );
        }
    }
}

#[test]
fn transformation_preserves_satisfiability_verdict() {
    // Compare the CDCL verdict on the CNF against achievability of the
    // circuit's output constraints for a handful of generated instances.
    for seed in 0..4u64 {
        let instance = families::or_chain(&format!("or-check-{seed}"), 14, 2, seed);
        let result = transform(&instance.cnf).expect("transform");
        let sat = matches!(CdclSolver::new(&instance.cnf).solve(), SolveResult::Sat(_));
        assert!(sat, "generated instances are satisfiable by construction");
        // Find a satisfying input assignment by brute force over the PIs.
        let pis = result.primary_inputs();
        let n = pis.len().min(20);
        let mut found = false;
        for mask in 0..(1u64 << n) {
            let value_of = |v: htsat::cnf::Var| {
                pis.iter()
                    .position(|&p| p == v)
                    .map(|i| i < n && (mask >> i) & 1 == 1)
                    .unwrap_or(false)
            };
            if result
                .netlist
                .outputs_satisfied(|v| value_of(htsat::cnf::Var::new(v)))
            {
                let bits = result.assignment_from_inputs(value_of, |_| false);
                assert!(instance.cnf.is_satisfied_by_bits(&bits));
                found = true;
                break;
            }
        }
        assert!(
            found,
            "constrained outputs must be achievable for a SAT instance"
        );
    }
}

#[test]
fn gd_sampler_and_baselines_agree_on_solution_validity() {
    let instance = families::qif_chain("integration-qif", 18, 3, 11);
    let cnf = &instance.cnf;
    let mut gd = GdSampler::new(cnf, SamplerConfig::default()).expect("transform");
    let gd_report = gd.sample(10, Duration::from_secs(15));
    assert!(!gd_report.solutions.is_empty());

    for name in ["cmsgen", "unigen", "quicksampler", "diffsampler"] {
        let report = engine_by_name(name, cnf, &TransformConfig::default())
            .expect("engine")
            .sample(&SessionConfig::default(), 5, Duration::from_secs(15))
            .expect("session");
        assert!(!report.solutions.is_empty(), "{name} found no solutions");
        for s in &report.solutions {
            assert!(cnf.is_satisfied_by_bits(s), "{name} invalid");
        }
    }
}

#[test]
fn sampled_solution_counts_never_exceed_model_count() {
    // On a formula small enough to count exhaustively, every sampler must
    // return at most the true number of models.
    let cnf = dimacs::parse_str("p cnf 5 5\n-1 -2 3 0\n1 -3 0\n2 -3 0\n3 4 5 0\n-4 -5 0\n")
        .expect("parse");
    let total = dpll::count_models_exhaustive(&cnf);
    assert!(total > 0);

    let mut gd = GdSampler::new(&cnf, SamplerConfig::default()).expect("transform");
    let report = gd.sample(total as usize * 2, Duration::from_secs(10));
    assert!(report.solutions.len() as u64 <= total);
    assert!(!report.solutions.is_empty());

    let cms = engine_by_name("cmsgen", &cnf, &TransformConfig::default())
        .expect("engine")
        .sample(
            &SessionConfig::default(),
            total as usize * 2,
            Duration::from_secs(10),
        )
        .expect("session");
    assert!(cms.solutions.len() as u64 <= total);
}

#[test]
fn dimacs_files_round_trip_through_disk() {
    let instance = families::product("prod-io", 4, 3);
    let dir = std::env::temp_dir().join("htsat-integration");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("prod-io.cnf");
    dimacs::write_file(&instance.cnf, &path).expect("write");
    let reread = dimacs::read_file(&path).expect("read");
    assert_eq!(reread.num_clauses(), instance.cnf.num_clauses());
    assert_eq!(reread.num_vars(), instance.cnf.num_vars());
    std::fs::remove_file(&path).ok();
}

#[test]
fn ops_reduction_holds_across_families() {
    // The transformation should reduce the op count on every gate-structured
    // family (the paper reports an average reduction of about 4x).
    let instances = [
        families::or_chain("ops-or", 20, 2, 5),
        families::qif_chain("ops-qif", 18, 4, 5),
        families::iscas_like("ops-iscas", 24, 120, 3, 5),
        families::product("ops-prod", 5, 5),
    ];
    for instance in &instances {
        let result = transform(&instance.cnf).expect("transform");
        assert!(
            result.stats.ops_reduction() > 1.0,
            "{}: reduction {:.2}",
            instance.name,
            result.stats.ops_reduction()
        );
    }
}
