//! Absolute bit gates on the GD sampler's inner loop, over the 14
//! small-scale Table II instances:
//!
//! * the golden digests pin the first two `sample_round`s at a fixed
//!   configuration — any change to the descent, hardening, validation or
//!   RNG streams that alters one bit of one solution changes a digest;
//! * the kernel oracle replays rows through the fused kernel and the
//!   staged `SoftCircuit` composition and requires identical bits;
//! * the harden oracle replays rows through the word-parallel hardening
//!   pass and the scalar reconstruct-and-validate composition and requires
//!   the same surviving rows with the same bits.

use htsat_bench::{harden_oracle, kernel_oracle};
use htsat_core::{compile, transform, GdSampler, SamplerConfig};
use htsat_instances::suite::{table2_instances, SuiteScale};
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

/// 64-bit FNV-1a over the solutions of the first two rounds, one byte
/// (0 or 1) per variable, plus the number of solutions hashed.
fn digest_two_rounds(sampler: &mut GdSampler) -> (usize, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut count = 0;
    for _ in 0..2 {
        for solution in sampler.sample_round() {
            count += 1;
            for bit in solution {
                hash ^= u64::from(bit);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }
    (count, hash)
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
