//! `corpus_smoke` — CI smoke test over a generated DIMACS corpus.
//!
//! ```sh
//! cargo run --release -p htsat-instances --bin gen_suite -- /tmp/corpus --scale small
//! cargo run --release -p htsat-bench --bin corpus_smoke -- /tmp/corpus --budget-ms 500
//! ```
//!
//! For every `.cnf` file in the directory: parse it, build the
//! transformation + sampler, check the fused GD kernel against the
//! reference circuit row by row ([`htsat_bench::kernel_oracle`]), check
//! the word-parallel hardening against the scalar reconstruct-and-validate
//! path row by row ([`htsat_bench::harden_oracle`]), and stream samples
//! for a bounded budget. Every returned sample is validated against the
//! parsed CNF. Exits non-zero if any file fails to parse, any sampler
//! fails to build, either oracle finds a divergent row, any sample is
//! invalid, or no instance yields a single solution — the cheap end-to-end
//! guard that the generator, the DIMACS round-trip and the sampling
//! pipeline stay compatible.
//!
//! Options: `--budget-ms N` (per-instance sampling budget, default 500),
//! `--target N` (solutions to aim for per instance, default 16),
//! `--threads N` (worker threads, default auto).

use htsat_bench::{harden_oracle, kernel_oracle};
use htsat_cnf::{dimacs, Solution};
use htsat_core::compile::compile;
use htsat_core::{GdSampler, SamplerConfig};
use htsat_tensor::Backend;
use std::path::PathBuf;
use std::time::Duration;

struct Config {
    dir: PathBuf,
    budget: Duration,
    target: usize,
    threads: usize,
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let dir = match args.next() {
        Some(dir) if !dir.starts_with("--") => PathBuf::from(dir),
        _ => return Err("missing corpus directory".to_string()),
    };
    let mut config = Config {
        dir,
        budget: Duration::from_millis(500),
        target: 16,
        threads: 0,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--budget-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("invalid --budget-ms: {e}"))?;
                config.budget = Duration::from_millis(ms);
            }
            "--target" => {
                config.target = value
                    .parse()
                    .map_err(|e| format!("invalid --target: {e}"))?;
            }
            "--threads" => {
                config.threads = value
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(config)
}

fn main() {
    let config = match parse_args() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: corpus_smoke <corpus-dir> [--budget-ms N] [--target N] [--threads N]"
            );
            std::process::exit(2);
        }
    };

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&config.dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "cnf"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", config.dir.display());
            std::process::exit(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no .cnf files in {}", config.dir.display());
        std::process::exit(1);
    }

    let mut failures = 0usize;
    let mut total_solutions = 0usize;
    println!(
        "{:<40} {:>8} {:>9} {:>8} {:>8}",
        "file", "vars", "clauses", "unique", "status"
    );
    for file in &files {
        let name = file
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let cnf = match dimacs::read_file(file) {
            Ok(cnf) => cnf,
            Err(e) => {
                println!(
                    "{name:<40} {:>8} {:>9} {:>8} parse error: {e}",
                    "-", "-", "-"
                );
                failures += 1;
                continue;
            }
        };
        let sampler_config = SamplerConfig {
            batch_size: 128,
            backend: Backend::Threads(config.threads),
            ..SamplerConfig::default()
        };
        let mut sampler = match GdSampler::new(&cnf, sampler_config) {
            Ok(sampler) => sampler,
            Err(e) => {
                println!(
                    "{name:<40} {:>8} {:>9} {:>8} transform error: {e}",
                    cnf.num_vars(),
                    cnf.num_clauses(),
                    "-"
                );
                failures += 1;
                continue;
            }
        };
        let compiled = compile(sampler.transform_result());
        let learning_rate = sampler.config().learning_rate;
        let oracle = kernel_oracle(&compiled, learning_rate);
        let harden = harden_oracle(&cnf, sampler.transform_result(), &compiled, learning_rate);
        let solutions: Vec<Solution> = sampler
            .stream()
            .with_timeout(config.budget)
            .take(config.target)
            .collect();
        let invalid = solutions
            .iter()
            .filter(|s| !cnf.is_satisfied_by_bits(&s.to_bits()))
            .count();
        // An invalid-sample failure must not hide a kernel-oracle failure
        // (or vice versa): report both.
        let mut notes: Vec<String> = Vec::new();
        if let Some(row) = oracle {
            failures += 1;
            notes.push(format!("KERNEL MISMATCH: fused vs reference at row {row}"));
        }
        if let Some(row) = harden {
            failures += 1;
            notes.push(format!("HARDEN MISMATCH: words vs scalar at row {row}"));
        }
        if invalid > 0 {
            failures += 1;
            notes.push(format!("{invalid} INVALID samples"));
        }
        let status = if notes.is_empty() {
            "ok".to_string()
        } else {
            notes.join("; ")
        };
        let unique = solutions.len();
        total_solutions += unique;
        println!(
            "{name:<40} {:>8} {:>9} {:>8} {status}",
            cnf.num_vars(),
            cnf.num_clauses(),
            unique
        );
    }
    println!(
        "\n{} files, {} unique solutions, {} failures",
        files.len(),
        total_solutions,
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
    if total_solutions == 0 {
        eprintln!("corpus smoke produced no solutions at all — sampling pipeline is broken");
        std::process::exit(1);
    }
}
