//! Opt-in timing diagnostics for the GD inner loop: the forward/backward
//! split and the fused-versus-staged step cost of the flat kernel against
//! the reference circuit, and the per-iteration cost of the sampler's
//! round, isolated via the iteration-count slope of `sample_round` (the
//! init and hardening stages are iteration-independent, so
//! `(t(hi) - t(lo)) / (hi - lo)` is the pure inner-loop cost).
//!
//! Run with:
//! `cargo test --release -p htsat-bench --test kernel_timing -- --ignored --nocapture`

use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_tensor::Backend;
use std::time::Instant;

fn round_time_ms(cnf: &htsat_cnf::Cnf, iterations: usize) -> f64 {
    let config = SamplerConfig {
        batch_size: 512,
        iterations,
        backend: Backend::Threads(1),
        ..SamplerConfig::default()
    };
    let mut sampler = GdSampler::new(cnf, config).expect("build");
    // Warm-up round, then measure.
    sampler.sample_round();
    let rounds = 5;
    let start = Instant::now();
    for _ in 0..rounds {
        sampler.sample_round();
    }
    start.elapsed().as_secs_f64() * 1e3 / rounds as f64
}

#[test]
#[ignore = "timing diagnostic; run explicitly with --ignored --nocapture"]
fn forward_vs_backward_split() {
    use htsat_core::{compile, transform};
    for name in ["s15850a_15_7", "Prod-32"] {
        let instance = table2_instance(name, SuiteScale::Small).expect("known instance");
        let compiled = compile::compile(&transform(&instance.cnf).expect("transform"));
        let n = compiled.num_inputs();
        let rows = 512usize;
        let inputs: Vec<Vec<f32>> = (0..rows)
            .map(|b| {
                (0..n)
                    .map(|j| ((b * 31 + j * 7) % 41) as f32 / 41.0)
                    .collect()
            })
            .collect();
        let reps = 10;

        let mut ws = compiled.kernel.workspace();
        let start = Instant::now();
        for _ in 0..reps {
            for row in &inputs {
                compiled.kernel.forward(row, &mut ws);
            }
        }
        let flat_fwd = start.elapsed().as_secs_f64() * 1e3;

        let mut acts = Vec::new();
        let start = Instant::now();
        for _ in 0..reps {
            for row in &inputs {
                compiled.circuit.forward_single(row, &mut acts);
            }
        }
        let ref_fwd = start.elapsed().as_secs_f64() * 1e3;

        let mut grad = vec![0.0f32; n];
        let start = Instant::now();
        for _ in 0..reps {
            for row in &inputs {
                compiled.kernel.loss_and_grad(row, &mut grad, &mut ws);
            }
        }
        let flat_full = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        for _ in 0..reps {
            for row in &inputs {
                compiled.circuit.loss_and_grad_single(row, &mut grad);
            }
        }
        let ref_full = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{name:<16} forward: flat {flat_fwd:.1}ms ref {ref_fwd:.1}ms | \
             fwd+bwd: flat {flat_full:.1}ms ref {ref_full:.1}ms"
        );
    }
}

#[test]
#[ignore = "timing diagnostic; run explicitly with --ignored --nocapture"]
fn isolated_kernel_cost() {
    use htsat_core::{compile, transform};
    use htsat_tensor::ops;
    for name in ["90-10-10-q", "s15850a_15_7", "Prod-32"] {
        let instance = table2_instance(name, SuiteScale::Small).expect("known instance");
        let compiled = compile::compile(&transform(&instance.cnf).expect("transform"));
        let n = compiled.num_inputs();
        let rows = 512usize;
        let mut logits: Vec<Vec<f32>> = (0..rows)
            .map(|b| {
                (0..n)
                    .map(|j| ((b * 31 + j * 7) % 41) as f32 / 10.0 - 2.0)
                    .collect()
            })
            .collect();
        let lr = 10.0f32;

        let mut ws = compiled.kernel.workspace();
        let start = Instant::now();
        for _ in 0..5 {
            for row in logits.iter_mut() {
                compiled.kernel.fused_gd_step(row, lr, &mut ws);
            }
        }
        let fused_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut probs = vec![0.0f32; n];
        let mut grad = vec![0.0f32; n];
        let start = Instant::now();
        for _ in 0..5 {
            for row in logits.iter_mut() {
                for (p, &v) in probs.iter_mut().zip(row.iter()) {
                    *p = ops::embed_logit(v);
                }
                compiled.circuit.loss_and_grad_single(&probs, &mut grad);
                for ((v, &g), &p) in row.iter_mut().zip(grad.iter()).zip(probs.iter()) {
                    *v -= lr * (g * ops::sigmoid_grad_from_output(p));
                }
            }
        }
        let staged_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{name:<18} nodes={:<6} fused {fused_ms:.1}ms vs staged-reference {staged_ms:.1}ms",
            compiled.circuit.num_nodes()
        );
    }
}

#[test]
#[ignore = "timing diagnostic; run explicitly with --ignored --nocapture"]
fn per_iteration_kernel_cost() {
    for name in ["90-10-10-q", "s15850a_15_7", "Prod-32"] {
        let instance = table2_instance(name, SuiteScale::Small).expect("known instance");
        let (lo, hi) = (1usize, 9usize);
        let t_lo = round_time_ms(&instance.cnf, lo);
        let t_hi = round_time_ms(&instance.cnf, hi);
        let slope = (t_hi - t_lo) / (hi - lo) as f64;
        println!("{name:<18} t({lo})={t_lo:.2}ms t({hi})={t_hi:.2}ms -> {slope:.3} ms/iteration");
    }
}
