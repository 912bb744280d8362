//! Absolute bit gates on the GD sampler's inner loop, over the 14
//! small-scale Table II instances, and on the baseline engines:
//!
//! * the golden digests pin the first two `sample_round`s at a fixed
//!   configuration — any change to the descent, hardening, validation or
//!   RNG streams that alters one bit of one solution changes a digest;
//! * the baseline digests pin the first 32 solutions of each baseline
//!   engine on one instance, so a change to a recipe's parameters or
//!   session logic shows up as a changed digest;
//! * the kernel oracle replays rows through the fused kernel and the
//!   staged `SoftCircuit` composition and requires identical bits;
//! * the harden oracle replays rows through the word-parallel hardening
//!   pass and the scalar reconstruct-and-validate composition and requires
//!   the same surviving rows with the same bits.

use htsat_baselines::engine_by_name;
use htsat_bench::{harden_oracle, kernel_oracle};
use htsat_core::{compile, transform, GdSampler, SamplerConfig, SessionConfig, TransformConfig};
use htsat_instances::families::or_chain;
use htsat_instances::suite::{table2_instance, table2_instances, SuiteScale};
use htsat_tensor::Backend;

/// `(instance, valid solutions in rounds 1–2, FNV-1a digest)` at
/// `batch_size: 64`, `seed: 7`, `Backend::Threads(1)`.
const GOLDEN: [(&str, usize, u64); 14] = [
    ("or-50-10-7-UC-10", 126, 0x7958_baa7_094b_b825),
    ("or-60-20-10-UC-10", 128, 0x8d02_22f5_e475_5e5c),
    ("or-70-5-5-UC-10", 127, 0x0710_4f8f_15fb_8290),
    ("or-100-20-8-UC-10", 126, 0x1552_d383_67a0_f7d7),
    ("75-10-1-q", 128, 0x9b5e_5eab_f3cc_c89a),
    ("75-10-10-q", 128, 0x6107_88a0_92e1_7224),
    ("90-10-1-q", 128, 0xc452_8282_cd5f_cd24),
    ("90-10-10-q", 123, 0xd137_fef8_fa4e_b508),
    ("s15850a_3_2", 78, 0x6eeb_694c_4f57_6dc1),
    ("s15850a_7_4", 119, 0xbbf8_2f5b_f77a_75c0),
    ("s15850a_15_7", 43, 0x939b_4877_d1af_e0fc),
    ("Prod-8", 70, 0x6ab5_5c82_fb9f_b298),
    ("Prod-20", 51, 0xe8ce_365d_5295_226a),
    ("Prod-32", 57, 0xa562_828d_c08e_fca9),
];

/// `(engine, instance, FNV-1a digest of the first 32 solutions)` of the
/// five baseline engines, minted by `engine_by_name` with
/// `SessionConfig { seed: 7, backend: Backend::Threads(1), batch: None }`.
/// Each instance yields its engine's 32 solutions in about a second in a
/// debug build.
const BASELINE_GOLDEN: [(&str, &str, u64); 5] = [
    ("diffsampler", "or-60-20-10-UC-10", 0x829f_284a_54b5_ae0a),
    ("cmsgen", "s15850a_3_2", 0x858d_ccb9_1c03_f8c8),
    ("unigen", "90-10-10-q", 0xd58b_cd18_5d29_a2d5),
    ("quicksampler", "75-10-1-q", 0xe21e_4c74_4658_8a6d),
    ("walksat", "or-100-20-8-UC-10", 0x6b00_ed02_6eb6_ddcb),
];

/// Solutions per baseline digest.
const BASELINE_SOLUTIONS: usize = 32;

/// 64-bit FNV-1a over `solutions`, one byte (0 or 1) per variable, plus the
/// number of solutions hashed.
fn digest(solutions: impl IntoIterator<Item = Vec<bool>>) -> (usize, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut count = 0;
    for solution in solutions {
        count += 1;
        for bit in solution {
            hash ^= u64::from(bit);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    (count, hash)
}

/// [`digest`] over the solutions of the sampler's first two rounds.
fn digest_two_rounds(sampler: &mut GdSampler) -> (usize, u64) {
    digest((0..2).flat_map(|_| sampler.sample_round()))
}

#[test]
fn first_two_rounds_match_the_golden_digests() {
    let instances = table2_instances(SuiteScale::Small);
    assert_eq!(instances.len(), GOLDEN.len());
    for (instance, &(name, count, digest)) in instances.iter().zip(GOLDEN.iter()) {
        assert_eq!(instance.name, name);
        let config = SamplerConfig {
            batch_size: 64,
            seed: 7,
            backend: Backend::Threads(1),
            ..SamplerConfig::default()
        };
        let mut sampler = GdSampler::new(&instance.cnf, config).expect("build");
        assert_eq!(
            digest_two_rounds(&mut sampler),
            (count, digest),
            "{name}: (solutions, digest) of the first two rounds changed"
        );
    }
}

#[test]
fn baseline_engines_match_their_golden_digests() {
    let config = SessionConfig {
        seed: 7,
        backend: Backend::Threads(1),
        batch: None,
    };
    for &(engine_name, instance_name, expected) in &BASELINE_GOLDEN {
        let instance = table2_instance(instance_name, SuiteScale::Small).expect("instance");
        let engine = engine_by_name(engine_name, &instance.cnf, &TransformConfig::default())
            .expect("engine");
        let stream = engine.stream(&config).expect("stream");
        let (count, hash) = digest(stream.take(BASELINE_SOLUTIONS).map(|s| s.to_bits()));
        assert_eq!(
            (count, hash),
            (BASELINE_SOLUTIONS, expected),
            "{engine_name} on {instance_name}: digest of the first {BASELINE_SOLUTIONS} solutions changed"
        );
    }
}

#[test]
fn kernel_oracle_agrees_on_every_table2_instance() {
    for instance in table2_instances(SuiteScale::Small) {
        let compiled = compile::compile(&transform(&instance.cnf).expect("transform"));
        let learning_rate = SamplerConfig::default().learning_rate;
        assert_eq!(
            kernel_oracle(&compiled, learning_rate),
            None,
            "{}: fused kernel diverges from the reference circuit",
            instance.name
        );
    }
}

#[test]
fn harden_oracle_agrees_on_every_table2_instance() {
    for instance in table2_instances(SuiteScale::Small) {
        let transformed = transform(&instance.cnf).expect("transform");
        let compiled = compile::compile(&transformed);
        let learning_rate = SamplerConfig::default().learning_rate;
        assert_eq!(
            harden_oracle(&instance.cnf, &transformed, &compiled, learning_rate),
            None,
            "{}: word-parallel hardening diverges from the scalar path",
            instance.name
        );
    }
}

#[test]
fn harden_oracle_agrees_when_the_last_variable_block_is_partial() {
    // Packed rows are built 64 variables at a time; these universes end
    // mid-block (below one block, just past one, past two), with seven
    // undriven variables at the end so free variables fill the partial
    // block too.
    for inputs in [20, 34, 60] {
        let mut cnf = or_chain("or-partial-block", inputs, 2, inputs as u64).cnf;
        cnf.grow_vars(cnf.num_vars() + 7);
        assert_ne!(cnf.num_vars() % 64, 0, "{inputs} inputs: full last block");
        let transformed = transform(&cnf).expect("transform");
        let compiled = compile::compile(&transformed);
        let learning_rate = SamplerConfig::default().learning_rate;
        assert_eq!(
            harden_oracle(&cnf, &transformed, &compiled, learning_rate),
            None,
            "{} variables: word-parallel hardening diverges from the scalar path",
            cnf.num_vars()
        );
    }
}
