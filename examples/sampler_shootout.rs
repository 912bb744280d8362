//! Sampler shootout: compare the transformed-circuit GD sampler against every
//! baseline on one benchmark instance — all through the one
//! [`htsat::core::SampleEngine`] API.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example sampler_shootout [instance-name] [target]
//! ```
//!
//! Without arguments it uses the Table II instance `90-10-10-q` (small scale)
//! and a target of 1000 unique solutions — a miniature of the paper's
//! Table II experiment. Every engine is built by name through
//! [`htsat::baselines::engine_by_name`], streamed with the same seed and the
//! same deadline, and measured identically: the comparison loop contains no
//! per-sampler special cases.

use htsat::baselines::{engine_by_name, ENGINE_NAMES};
use htsat::cnf::Solution;
use htsat::core::{SessionConfig, TransformConfig};
use htsat::instances::suite::{table2_instance, SuiteScale};
use std::error::Error;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "90-10-10-q".to_string());
    let target: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let timeout = Duration::from_secs(20);

    let instance = table2_instance(&name, SuiteScale::Small)
        .ok_or_else(|| format!("unknown Table II instance `{name}`"))?;
    println!(
        "instance `{}` ({:?}): {} vars, {} clauses — target {} unique solutions, timeout {:?}",
        instance.name,
        instance.family,
        instance.num_vars(),
        instance.num_clauses(),
        target,
        timeout
    );

    println!(
        "\n{:<18} {:>10} {:>12} {:>16}",
        "engine", "unique", "time (s)", "throughput (/s)"
    );
    let mut baseline_best = 0.0f64;
    let mut ours = 0.0f64;
    for engine_name in ENGINE_NAMES {
        // Preparation (transform + compile for "gd") happens once, outside
        // the timed region — the paper's Table II times sampling, and a
        // server would amortise preparation across requests anyway.
        let engine = engine_by_name(engine_name, &instance.cnf, &TransformConfig::default())?;
        let started = Instant::now();
        let mut stream = engine
            .stream(&SessionConfig::with_seed(0))?
            .with_timeout(timeout);
        let mut solutions: Vec<Solution> = stream.by_ref().take(target).collect();
        solutions.append(&mut stream.drain_ready());
        let elapsed = started.elapsed();
        for s in &solutions {
            assert!(instance.cnf.is_satisfied_by_bits(&s.to_bits()));
        }
        let throughput = htsat::runtime::unique_throughput(solutions.len(), elapsed);
        println!(
            "{:<18} {:>10} {:>12.3} {:>16.1}",
            engine_name,
            solutions.len(),
            elapsed.as_secs_f64(),
            throughput
        );
        if engine_name == "gd" {
            ours = throughput;
        } else {
            baseline_best = baseline_best.max(throughput);
        }
    }
    if baseline_best > 0.0 {
        println!(
            "\nspeedup of gd over the best baseline: {:.1}x",
            ours / baseline_best
        );
    }
    Ok(())
}
