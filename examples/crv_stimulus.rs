//! Constrained-random verification (CRV) stimulus generation.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example crv_stimulus
//! ```
//!
//! Hardware verification is the motivating application of the paper's
//! introduction: a testbench needs many *diverse* input patterns that all
//! satisfy the design's interface constraints. This example builds a small
//! bus-transaction constraint circuit (a synthetic "design under test"
//! protocol), Tseitin-encodes it, and uses the gradient-descent sampler to
//! generate a stream of valid stimuli, comparing against a CMSGen-style
//! baseline.

use htsat::baselines::engine_by_name;
use htsat::core::{GdSampler, SamplerConfig, SessionConfig, TransformConfig};
use htsat::instances::tseitin::CircuitEncoder;
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    // Interface constraints of a toy bus transaction:
    //   * 8-bit address, 4-bit burst length, 2 mode bits, 1 write-enable;
    //   * the transaction is legal when
    //       (write implies burst != 0) and (mode == 2'b11 forbidden)
    //       and (address MSB set implies mode != 2'b00).
    let mut enc = CircuitEncoder::new();
    let addr: Vec<_> = (0..8).map(|_| enc.input()).collect();
    let burst: Vec<_> = (0..4).map(|_| enc.input()).collect();
    let mode: Vec<_> = (0..2).map(|_| enc.input()).collect();
    let write_en = enc.input();

    let burst_nonzero = enc.or_gate(&burst);
    let write_rule = enc.or_gate(&[write_en.invert(), burst_nonzero]);
    let mode_both = enc.and_gate(&[mode[0], mode[1]]);
    let mode_rule = enc.not_gate(mode_both);
    let mode_any = enc.or_gate(&[mode[0], mode[1]]);
    let msb_rule = enc.or_gate(&[addr[7].invert(), mode_any]);
    let legal = enc.and_gate(&[write_rule, mode_rule, msb_rule]);
    enc.constrain(legal, true);
    let cnf = enc.into_cnf();

    println!(
        "bus-constraint CNF: {} variables, {} clauses",
        cnf.num_vars(),
        cnf.num_clauses()
    );

    // Gradient-descent sampler (the paper's approach).
    let config = SamplerConfig {
        batch_size: 512,
        ..SamplerConfig::default()
    };
    let mut gd = GdSampler::new(&cnf, config)?;
    let gd_report = gd.sample(500, Duration::from_secs(10));
    println!("\ntransformed-GD sampler:");
    println!("  unique legal stimuli : {}", gd_report.solutions.len());
    println!(
        "  throughput           : {:.0} stimuli/s",
        gd_report.throughput()
    );

    // CMSGen-style CPU baseline.
    let cms_report = engine_by_name("cmsgen", &cnf, &TransformConfig::default())?.sample(
        &SessionConfig::default(),
        500,
        Duration::from_secs(10),
    )?;
    println!("\ncmsgen-like baseline:");
    println!("  unique legal stimuli : {}", cms_report.solutions.len());
    println!(
        "  throughput           : {:.0} stimuli/s",
        cms_report.throughput()
    );

    // Decode a few stimuli into protocol fields to show they are sensible.
    println!("\nsample stimuli (addr, burst, mode, we):");
    for bits in gd_report.solutions.iter().take(5) {
        let field = |signals: &[htsat::instances::tseitin::Signal]| -> u32 {
            signals
                .iter()
                .enumerate()
                .map(|(i, s)| u32::from(bits[s.var().as_usize()]) << i)
                .sum()
        };
        let a = field(&addr);
        let b = field(&burst);
        let m = field(&mode);
        let w = bits[write_en.var().as_usize()];
        println!("  addr=0x{a:02x} burst={b:2} mode={m} write={w}");
        assert!(cnf.is_satisfied_by_bits(bits));
        assert!(!w || b != 0, "write transactions must have non-zero burst");
        assert_ne!(m, 3, "mode 2'b11 is illegal");
    }
    Ok(())
}
