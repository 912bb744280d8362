//! `repro` — regenerate the paper's tables and figures, and run the
//! statistical bench harness.
//!
//! ```sh
//! cargo run --release -p htsat-bench --bin repro -- table2
//! cargo run --release -p htsat-bench --bin repro -- table2 --threads 8
//! cargo run --release -p htsat-bench --bin repro -- fig2 --instances 20
//! cargo run --release -p htsat-bench --bin repro -- threads --counts 1,2,4,8
//! cargo run --release -p htsat-bench --bin repro -- all --scale paper --timeout 30
//! cargo run --release -p htsat-bench --bin repro -- bench --quick
//! cargo run --release -p htsat-bench --bin repro -- bench-diff old.json new.json --threshold 10
//! ```
//!
//! Subcommands: `table2`, `fig2`, `fig3-iters`, `fig3-mem`, `fig4-speedup`,
//! `fig4-ops`, `fig4-transform`, `fig4`, `threads`, `serve-bench`, `bench`,
//! `bench-diff`, `bench-degrade`, `stats`, `trace`, `all`. Each subcommand
//! accepts only its own flags (see `htsat_bench::cli`); a stray flag exits
//! non-zero naming the valid ones.
//!
//! `serve-bench` starts the `htsat-serve` daemon on a loopback ephemeral
//! port, measures cold-load vs registry-hit round-trip latency, and fails
//! unless the daemon's `SAMPLE` reproduces the in-process stream
//! bit-for-bit at 1 and 8 threads — the CI loopback end-to-end gate.
//!
//! `stats` connects to a *running* daemon, fetches its metrics snapshot
//! over the `STATS` wire verb and pretty-prints it; `--format prom` emits
//! the Prometheus text exposition instead, `--reset` zeroes the daemon's
//! counters and histograms after reading, and `--exercise` first drives a
//! LOAD + SAMPLE + induced error against the daemon and exits non-zero
//! unless the key counters moved — CI's observability gate.
//!
//! `trace` fetches a running daemon's recent request timelines over the
//! `TRACE` wire verb and prints one span waterfall per request (filter
//! with `--last`/`--verb`/`--min-ms`). `--exercise` first drives traced,
//! pipelined `SAMPLE` traffic from two v2 connections and exits non-zero
//! unless the returned timelines attribute the reader, queue, writer and
//! engine-round work — CI's trace gate.
//!
//! `bench` runs the statistical harness (interleaved invocations, warmup
//! separation, min/median/mean/CI per cell) and emits a
//! `BENCH_<host>_<date>.json` perf-trajectory artifact. `bench-diff` pairs
//! two artifacts and exits non-zero when the throughput geomean regresses
//! past the threshold; it refuses cross-host/cross-scale comparisons
//! without `--force`. `bench-degrade` scales an artifact's throughput
//! samples — CI's negative gate proving `bench-diff` catches an injected
//! regression.

use htsat_bench::cli::{self, Command, StatsFormat};
use htsat_bench::harness::{
    capture_environment, diff_artifacts, run_bench_with, summarize, utc_today, BenchArtifact,
    BenchConfig, BenchSettings, Cell, CellKey, DiffError, DiffOptions, Sample, ARTIFACT_VERSION,
};
use htsat_bench::{
    ablation_instances, fig2, fig3_iterations, fig3_memory, fig4, format_table2, serve_bench,
    table2, threads_sweep, RunOptions,
};
use std::path::{Path, PathBuf};

fn run_table2(options: &RunOptions) {
    println!("== Table II: unique-solution throughput (solutions/second) ==");
    println!(
        "   target {} unique solutions, timeout {:?}, batch {}, scale {:?}, backend {}\n",
        options.target,
        options.timeout,
        options.batch_size,
        options.scale,
        options.gd_backend().label()
    );
    let rows = table2(options);
    print!("{}", format_table2(&rows));
    let geo: f64 = rows
        .iter()
        .filter(|r| r.speedup.is_finite() && r.speedup > 0.0)
        .map(|r| r.speedup.ln())
        .sum::<f64>()
        / rows.len().max(1) as f64;
    println!(
        "\ngeometric-mean speedup over the best baseline: {:.1}x",
        geo.exp()
    );
}

fn run_fig2(options: &RunOptions, instances: usize) {
    println!("== Fig. 2: latency (ms) vs unique solutions, per sampler ==\n");
    println!(
        "{:<22} {:<18} {:>10} {:>14}",
        "instance", "sampler", "unique", "latency (ms)"
    );
    for p in fig2(options, instances) {
        println!(
            "{:<22} {:<18} {:>10} {:>14.1}",
            p.instance, p.sampler, p.unique, p.latency_ms
        );
    }
}

fn run_fig3_iters(options: &RunOptions) {
    println!("== Fig. 3 (left): unique solutions vs GD iterations ==\n");
    println!("{:<22} {:>11} {:>10}", "instance", "iterations", "unique");
    for p in fig3_iterations(options, 10) {
        println!("{:<22} {:>11} {:>10}", p.instance, p.iterations, p.unique);
    }
}

fn run_fig3_mem(options: &RunOptions) {
    println!("== Fig. 3 (right): modelled memory (MiB) vs batch size ==\n");
    println!("{:<22} {:>12} {:>14}", "instance", "batch", "memory (MiB)");
    let batches = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    for p in fig3_memory(options, &batches) {
        println!("{:<22} {:>12} {:>14.2}", p.instance, p.batch, p.memory_mib);
    }
}

fn run_fig4(options: &RunOptions) {
    println!("== Fig. 4: backend speedup, ops reduction, transformation time ==\n");
    println!(
        "{:<22} {:>16} {:>16} {:>10} {:>10} {:>8} {:>14}",
        "instance",
        "parallel (/s)",
        "sequential (/s)",
        "speedup",
        "ops red.",
        "cone",
        "transform (s)"
    );
    for row in fig4(options) {
        println!(
            "{:<22} {:>16.1} {:>16.1} {:>9.1}x {:>9.1}x {:>7.0}% {:>14.4}",
            row.instance,
            row.parallel_throughput,
            row.sequential_throughput,
            row.speedup,
            row.ops_reduction,
            100.0 * row.cone_share,
            row.transform_seconds
        );
    }
}

/// Builds a single-sample artifact cell from one measured run.
fn single_sample_cell(key: CellKey, seconds: f64, unique: u64, throughput: f64) -> Cell {
    let sample = Sample {
        seconds,
        unique,
        throughput,
    };
    let summary = match summarize(&[sample.throughput]) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: cannot summarize cell `{key}`: {e}");
            std::process::exit(2);
        }
    };
    Cell {
        key,
        samples: vec![sample],
        summary,
    }
}

/// Folds cells into a bench artifact at `path`: appended to an existing
/// artifact (replacing cells with the same key, so re-runs are idempotent)
/// or written as a fresh one recorded through the harness's environment
/// capture.
fn fold_into_artifact(path: &Path, options: &RunOptions, new_cells: Vec<Cell>) {
    let mut artifact = if path.exists() {
        match BenchArtifact::read_from(path) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("error: cannot fold into {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    } else {
        BenchArtifact {
            version: ARTIFACT_VERSION,
            environment: capture_environment(options.scale),
            settings: BenchSettings {
                invocations: 1,
                warmup: 0,
                target: options.target as u64,
                timeout_ms: options.timeout.as_millis() as u64,
                batch: options.batch_size as u64,
                date: utc_today(),
            },
            cells: Vec::new(),
        }
    };
    let folded = new_cells.len();
    for cell in new_cells {
        if let Some(existing) = artifact.cells.iter_mut().find(|c| c.key == cell.key) {
            *existing = cell;
        } else {
            artifact.cells.push(cell);
        }
    }
    if let Err(e) = artifact.write_to(path) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!(
        "\nfolded {folded} cell(s) into {} ({} total)",
        path.display(),
        artifact.cells.len()
    );
}

fn run_threads(options: &RunOptions, counts: &[usize], out: Option<&Path>) {
    println!("== Thread scaling: unique-solution throughput per worker count ==\n");
    println!(
        "{:<22} {:>8} {:>10} {:>18}",
        "instance", "threads", "unique", "throughput (/s)"
    );
    let points = threads_sweep(options, counts);
    for p in &points {
        println!(
            "{:<22} {:>8} {:>10} {:>18.1}",
            p.instance, p.threads, p.unique, p.throughput
        );
    }
    if let Some(path) = out {
        let cells = points
            .iter()
            .filter(|p| p.throughput > 0.0)
            .map(|p| {
                single_sample_cell(
                    CellKey {
                        instance: p.instance.clone(),
                        engine: "gd".to_string(),
                        threads: p.threads as u64,
                    },
                    p.unique as f64 / p.throughput,
                    p.unique as u64,
                    p.throughput,
                )
            })
            .collect();
        fold_into_artifact(path, options, cells);
    }
}

fn run_serve_bench(options: &RunOptions, out: Option<&Path>, router: bool) {
    println!("== serve-bench: daemon round-trip latency and wire determinism ==\n");
    let report = serve_bench(options);
    print_serve_report(&report);
    let routed = if router {
        println!(
            "\n== serve-bench --router: the same legs through htsat-router \
             (2 registered daemons) ==\n"
        );
        let routed = htsat_bench::serve_bench_routed(options);
        print_serve_report(&routed);
        Some(routed)
    } else {
        None
    };
    let gate_failed = |report: &htsat_bench::ServeBenchReport| {
        report.compiles != htsat_bench::ServeBenchReport::EXPECTED_COMPILES || !report.deterministic
    };
    if gate_failed(&report) || routed.as_ref().is_some_and(gate_failed) {
        // CI runs this subcommand as the loopback end-to-end gate.
        std::process::exit(1);
    }
    if let Some(path) = out {
        // The wire legs as artifact cells: unique solutions per second of
        // client-observed round-trip, so the streaming numbers live in the
        // same perf-trajectory format as the in-process harness. Routed
        // legs fold in under `-routed` engine names, making the cost of
        // the extra hop a first-class perf-trajectory series.
        let mut cells = serve_cells(&report, "");
        if let Some(routed) = &routed {
            cells.extend(serve_cells(routed, "-routed"));
        }
        fold_into_artifact(path, options, cells);
    }
}

fn print_serve_report(report: &htsat_bench::ServeBenchReport) {
    println!("instance: {}\n", report.instance);
    println!("{:<42} {:>16} {:>8}", "leg", "round-trip (ms)", "unique");
    for leg in &report.legs {
        println!(
            "{:<42} {:>16.2} {:>8}",
            leg.label, leg.round_trip_ms, leg.unique
        );
    }
    println!(
        "\ncompiles: {} (one per loaded engine; warm legs ride the registry hit path)",
        report.compiles
    );
    println!(
        "wire determinism vs in-process streams (gd at 1 and 8 threads, walksat A/B): {}",
        if report.deterministic {
            "OK"
        } else {
            "MISMATCH"
        }
    );
}

/// The measured wire legs as artifact cells; `suffix` distinguishes the
/// routed series (e.g. `wire-gd-routed`) from the direct one.
fn serve_cells(report: &htsat_bench::ServeBenchReport, suffix: &str) -> Vec<Cell> {
    let engine_of = |label: &str| -> Option<(&'static str, u64)> {
        if label.contains("pipelined") {
            Some(("wire-gd-pipelined", 1))
        } else if label.contains("walksat") {
            Some(("wire-walksat", 1))
        } else if label.contains("SAMPLE warm, 8") {
            Some(("wire-gd", 8))
        } else if label.contains("SAMPLE warm, 1") {
            Some(("wire-gd", 1))
        } else {
            None // LOAD legs carry no solutions to rate
        }
    };
    report
        .legs
        .iter()
        .filter(|leg| leg.unique > 0 && leg.round_trip_ms > 0.0)
        .filter_map(|leg| {
            let (engine, threads) = engine_of(&leg.label)?;
            let seconds = leg.round_trip_ms / 1e3;
            Some(single_sample_cell(
                CellKey {
                    instance: report.instance.clone(),
                    engine: format!("{engine}{suffix}"),
                    threads,
                },
                seconds,
                leg.unique as u64,
                leg.unique as f64 / seconds,
            ))
        })
        .collect()
}

fn run_bench_cmd(config: &BenchConfig, out: Option<PathBuf>) {
    println!("== bench: statistical harness (interleaved invocations) ==\n");
    println!(
        "matrix: {} instance(s) x {} engine(s) x {} thread count(s), {} warmup + {} timed invocations ({} runs)",
        config.instances.len(),
        config.engines.len(),
        config.thread_counts.len(),
        config.warmup,
        config.invocations,
        config.total_runs()
    );
    let artifact = match run_bench_with(config, |event| {
        println!(
            "  invocation {}/{}{}",
            event.invocation,
            event.total,
            if event.warmup { " (warmup)" } else { "" }
        );
    }) {
        Ok(artifact) => artifact,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "\nhost {} ({} core(s), {}), {} @ {}, scale {}\n",
        artifact.environment.host,
        artifact.environment.cores,
        artifact.environment.os,
        artifact.environment.toolchain,
        artifact.environment.git_rev,
        artifact.environment.scale,
    );
    println!(
        "{:<22} {:<14} {:>7} {:>12} {:>12} {:>12} {:>10}",
        "instance", "engine", "threads", "min (/s)", "median (/s)", "mean (/s)", "ci95 (±)"
    );
    for cell in &artifact.cells {
        println!(
            "{:<22} {:<14} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>10.1}",
            cell.key.instance,
            cell.key.engine,
            cell.key.threads,
            cell.summary.min,
            cell.summary.median,
            cell.summary.mean,
            cell.summary.ci95
        );
    }

    let path = out.unwrap_or_else(|| PathBuf::from(artifact.file_name()));
    if let Err(e) = artifact.write_to(&path) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("\nwrote {}", path.display());
}

fn read_artifact(path: &Path) -> BenchArtifact {
    match BenchArtifact::read_from(path) {
        Ok(artifact) => artifact,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn run_bench_diff(old_path: &Path, new_path: &Path, options: &DiffOptions) {
    println!("== bench-diff: throughput trajectory gate ==\n");
    let old = read_artifact(old_path);
    let new = read_artifact(new_path);
    let report = match diff_artifacts(&old, &new, options) {
        Ok(report) => report,
        Err(e @ DiffError::Incompatible(_)) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    for mismatch in &report.forced_mismatches {
        println!("warning: comparing across {mismatch} (forced)");
    }
    for key in &report.missing_in_new {
        println!("warning: cell {key} is in the old artifact only (not compared)");
    }
    for key in &report.missing_in_old {
        println!("warning: cell {key} is in the new artifact only (not compared)");
    }
    for key in &report.unmeasurable {
        println!("warning: cell {key} has a zero median on one side (not compared)");
    }
    if !report.forced_mismatches.is_empty()
        || !report.missing_in_new.is_empty()
        || !report.missing_in_old.is_empty()
        || !report.unmeasurable.is_empty()
    {
        println!();
    }

    println!(
        "{:<40} {:>12} {:>12} {:>8}",
        "cell", "old (/s)", "new (/s)", "ratio"
    );
    for cell in &report.compared {
        println!(
            "{:<40} {:>12.1} {:>12.1} {:>7.2}x",
            cell.key.to_string(),
            cell.old_median,
            cell.new_median,
            cell.ratio
        );
    }
    println!(
        "\ngeomean ratio: {:.3}x ({}{:.1}% vs old), threshold {:.1}%",
        report.geomean_ratio,
        if report.regression_pct() >= 0.0 {
            "-"
        } else {
            "+"
        },
        report.regression_pct().abs(),
        report.threshold_pct
    );
    if !report.regressed_cells.is_empty() {
        println!("cells individually past the threshold:");
        for cell in &report.regressed_cells {
            println!(
                "  {} regressed to {:.2}x ({:.1} -> {:.1} /s)",
                cell.key, cell.ratio, cell.old_median, cell.new_median
            );
        }
    }
    if report.passes() {
        println!("PASS");
    } else {
        println!("FAIL: geomean throughput regressed past the threshold");
        std::process::exit(1);
    }
}

/// Drives one LOAD, one SAMPLE and one deliberately failing SAMPLE against
/// the daemon, so a subsequent snapshot provably has moving counters.
fn exercise_daemon(client: &mut htsat_serve::Client) {
    use htsat_serve::proto::SampleParams;
    let instance = htsat_instances::families::or_chain("stats-exercise", 16, 2, 0x0B5);
    let dimacs_text = htsat_cnf::dimacs::to_string(&instance.cnf);
    let load = match client.load_dimacs(Some("stats-exercise"), &dimacs_text) {
        Ok(load) => load,
        Err(e) => {
            eprintln!("error: exercise LOAD failed: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = client.sample(&SampleParams {
        n: 5,
        seed: 7,
        ..SampleParams::new(load.fingerprint)
    }) {
        eprintln!("error: exercise SAMPLE failed: {e}");
        std::process::exit(2);
    }
    // An induced NOT_LOADED error: a fingerprint nothing was loaded under.
    let missing =
        htsat_cnf::Fingerprint::of(&htsat_instances::families::or_chain("absent", 8, 2, 1).cnf);
    match client.sample(&SampleParams::new(missing)) {
        Err(htsat_serve::ClientError::Server(_)) => {}
        Ok(_) => {
            eprintln!("error: exercise expected a server error for an unloaded fingerprint");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: exercise error probe failed at the transport: {e}");
            std::process::exit(2);
        }
    }
}

fn run_stats(
    addr: &str,
    reset: bool,
    exercise: bool,
    timeout_ms: Option<u64>,
    format: StatsFormat,
) {
    let mut client = connect_daemon(addr, timeout_ms);
    if exercise {
        exercise_daemon(&mut client);
    }
    let snapshot = match if reset {
        client.stats_reset()
    } else {
        client.stats()
    } {
        Ok(snapshot) => snapshot,
        Err(e @ htsat_serve::ClientError::Timeout { .. }) => {
            eprintln!("error: STATS {e}");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("error: STATS failed: {e}");
            std::process::exit(2);
        }
    };

    if exercise {
        check_exercised_snapshot(&snapshot);
    }
    if format == StatsFormat::Prom {
        // Machine exposition: nothing but the metrics on stdout, so the
        // output can be piped straight into a scrape file or promtool.
        print!("{}", snapshot.to_prometheus_text());
        if exercise {
            eprintln!("exercise: OK (load/sample/error counters all moved)");
        }
        return;
    }

    println!(
        "== stats: {addr} (schema {}{}) ==\n",
        htsat_obs::SNAPSHOT_SCHEMA,
        if reset { ", counters reset" } else { "" }
    );
    println!("counters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<40} {value:>14}");
    }
    println!("\ngauges:");
    for (name, value) in &snapshot.gauges {
        println!("  {name:<40} {value:>14}");
    }
    println!("\nhistograms (span durations in ns):");
    println!(
        "  {:<40} {:>10} {:>12} {:>12} {:>12}",
        "name", "count", "mean", "p50<=", "p99<="
    );
    for (name, hist) in &snapshot.histograms {
        println!(
            "  {:<40} {:>10} {:>12} {:>12} {:>12}",
            name,
            hist.count,
            hist.mean(),
            hist.quantile_upper_bound(0.5),
            hist.quantile_upper_bound(0.99)
        );
    }

    if exercise {
        println!("\nexercise: OK (load/sample/error counters all moved)");
    }
}

/// The CI observability gate: the traffic `exercise_daemon` just drove must
/// be visible in the snapshot that came back over the wire.
fn check_exercised_snapshot(snapshot: &htsat_obs::Snapshot) {
    let expect_counter = |name: &str| {
        if snapshot.counter(name).unwrap_or(0) == 0 {
            eprintln!("error: exercised daemon reports zero `{name}`");
            std::process::exit(1);
        }
    };
    for name in [
        "serve.requests.load",
        "serve.requests.sample",
        "serve.errors.not-loaded",
        "serve.registry.compiles",
        "engine.sessions",
        "engine.samples",
        "runtime.regions",
    ] {
        expect_counter(name);
    }
    if snapshot.histogram("serve.request").map_or(0, |h| h.count) == 0 {
        eprintln!("error: exercised daemon reports an empty `serve.request` span");
        std::process::exit(1);
    }
}

/// Connects to a running daemon, arming the read timeout when given;
/// exits with a diagnostic on failure (shared by `stats` and `trace`).
fn connect_daemon(addr: &str, timeout_ms: Option<u64>) -> htsat_serve::Client {
    let mut client = match htsat_serve::Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(2);
        }
    };
    if let Some(ms) = timeout_ms {
        if let Err(e) = client.set_timeout(Some(std::time::Duration::from_millis(ms))) {
            eprintln!("error: cannot arm the {ms}ms read timeout: {e}");
            std::process::exit(2);
        }
    }
    client
}

/// Drives traced, pipelined `SAMPLE` traffic from two v2 connections so a
/// subsequent `TRACE` provably has attributable timelines: each client
/// negotiates v2, stamps its own trace id, loads one formula and runs two
/// interleaved chunked `SAMPLE` streams.
fn exercise_traced(addr: &str, timeout_ms: Option<u64>) {
    use htsat_serve::proto::SampleParams;
    let instance = htsat_instances::families::or_chain("trace-exercise", 16, 2, 0x0B5);
    let dimacs_text = htsat_cnf::dimacs::to_string(&instance.cnf);
    for (who, trace_id) in [(1u64, 0xAAAA_0001u128), (2, 0xAAAA_0002)] {
        let mut client = connect_daemon(addr, timeout_ms);
        if let Err(e) = client.hello() {
            eprintln!("error: exercise client {who}: HELLO failed: {e}");
            std::process::exit(2);
        }
        client.set_trace(Some(htsat_obs::TraceId::from_u128(trace_id)));
        let load = match client.load_dimacs(Some("trace-exercise"), &dimacs_text) {
            Ok(load) => load,
            Err(e) => {
                eprintln!("error: exercise client {who}: LOAD failed: {e}");
                std::process::exit(2);
            }
        };
        // Two pipelined streams per connection: concurrent requests on one
        // wire, each with its own timeline.
        let params_a = SampleParams {
            n: 5,
            seed: 7 + who,
            ..SampleParams::new(load.fingerprint)
        };
        let params_b = SampleParams {
            n: 5,
            seed: 100 + who,
            ..SampleParams::new(load.fingerprint)
        };
        let ids = [
            client.sample_start(&params_a),
            client.sample_start(&params_b),
        ];
        for id in ids {
            let id = match id {
                Ok(id) => id,
                Err(e) => {
                    eprintln!("error: exercise client {who}: SAMPLE start failed: {e}");
                    std::process::exit(2);
                }
            };
            loop {
                match client.sample_next(id) {
                    Ok(htsat_serve::SampleEvent::Batch(_)) => {}
                    Ok(htsat_serve::SampleEvent::Done(_)) => break,
                    Err(e) => {
                        eprintln!("error: exercise client {who}: stream {id} failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
    }
}

/// Nesting depth of one span in its timeline (roots are depth 0).
fn span_depth(spans: &[htsat_obs::trace::SpanRecord], index: usize) -> usize {
    let mut depth = 0;
    let mut parent = spans[index].parent;
    // A cycle would mean a corrupt timeline; the guard keeps this total.
    while let Some(p) = parent {
        match spans.get(p as usize) {
            Some(span) if depth <= spans.len() => {
                depth += 1;
                parent = span.parent;
            }
            _ => break,
        }
    }
    depth
}

/// One waterfall bar positioning a span inside its request's total.
fn span_bar(start_ns: u64, duration_ns: u64, total_ns: u64, width: usize) -> String {
    let scale = |ns: u64| -> usize {
        if total_ns == 0 {
            0
        } else {
            ((ns as u128 * width as u128) / total_ns as u128) as usize
        }
    };
    let from = scale(start_ns).min(width.saturating_sub(1));
    let len = scale(duration_ns).max(1).min(width - from);
    let mut bar = String::with_capacity(width);
    for i in 0..width {
        bar.push(if i >= from && i < from + len {
            '#'
        } else {
            '.'
        });
    }
    bar
}

fn run_trace(
    addr: &str,
    last: Option<u64>,
    verb: Option<&str>,
    min_ms: Option<u64>,
    exercise: bool,
    timeout_ms: Option<u64>,
) {
    if exercise {
        exercise_traced(addr, timeout_ms);
    }
    let mut client = connect_daemon(addr, timeout_ms);
    let report = match client.trace(last, verb, min_ms) {
        Ok(report) => report,
        Err(e @ htsat_serve::ClientError::Timeout { .. }) => {
            eprintln!("error: TRACE {e}");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("error: TRACE failed: {e}");
            std::process::exit(2);
        }
    };

    const BAR: usize = 32;
    println!(
        "== trace: {addr} (schema {}, {} timeline(s), {} dropped at the ring) ==",
        htsat_obs::TRACE_SCHEMA,
        report.timelines.len(),
        report.dropped_traces
    );
    for timeline in &report.timelines {
        println!(
            "\ntrace {} verb={} request_id={} total={:.3}ms spans={}{}",
            timeline.trace.to_hex(),
            timeline.verb,
            timeline.request_id,
            timeline.total_ns as f64 / 1e6,
            timeline.spans.len(),
            if timeline.dropped_spans > 0 {
                format!(" (+{} dropped)", timeline.dropped_spans)
            } else {
                String::new()
            }
        );
        for (i, span) in timeline.spans.iter().enumerate() {
            let indent = "  ".repeat(span_depth(&timeline.spans, i) + 1);
            let label = format!("{indent}{}", span.name);
            println!(
                "{label:<34} {} {:>10.3}ms @ +{:.3}ms",
                span_bar(span.start_ns, span.duration_ns, timeline.total_ns, BAR),
                span.duration_ns as f64 / 1e6,
                span.start_ns as f64 / 1e6,
            );
        }
    }

    if exercise {
        // The CI trace gate: the traffic just driven must come back as
        // timelines attributing every stage of the request path.
        let sample_timelines: Vec<_> = report
            .timelines
            .iter()
            .filter(|t| t.verb == "sample")
            .collect();
        if sample_timelines.len() < 4 {
            eprintln!(
                "error: exercised daemon returned {} sample timeline(s); expected the 4 driven",
                sample_timelines.len()
            );
            std::process::exit(1);
        }
        for required in [
            "serve.reader",
            "serve.request",
            "serve.worker.queue_wait",
            "serve.writer.serialize",
            "serve.writer.write",
            "engine.round",
            "stream.dedup",
        ] {
            if !sample_timelines
                .iter()
                .any(|t| t.spans.iter().any(|s| s.name == required))
            {
                eprintln!("error: no exercised sample timeline contains a `{required}` span");
                std::process::exit(1);
            }
        }
        // The explicit ids stamped by the exercise clients must be the ids
        // the ring recorded (wire propagation, not server-side minting).
        for expected in [0xAAAA_0001u128, 0xAAAA_0002] {
            if !sample_timelines
                .iter()
                .any(|t| t.trace.as_u128() == expected)
            {
                eprintln!("error: no timeline carries the client-supplied trace id {expected:#x}");
                std::process::exit(1);
            }
        }
        println!("\nexercise: OK (pipelined traced samples attributed end-to-end)");
    }
}

fn run_bench_degrade(input: &Path, output: &Path, factor: f64) {
    let mut artifact = read_artifact(input);
    for cell in &mut artifact.cells {
        for sample in &mut cell.samples {
            sample.throughput *= factor;
            // Keep the artifact self-consistent: same unique count over a
            // proportionally longer (or shorter) wall-clock.
            sample.seconds /= factor;
        }
        match cell.recompute_summary() {
            Ok(summary) => cell.summary = summary,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = artifact.write_to(output) {
        eprintln!("error: cannot write {}: {e}", output.display());
        std::process::exit(2);
    }
    println!(
        "wrote {} with every throughput sample scaled by {factor}",
        output.display()
    );
}

fn main() {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", cli::usage());
            std::process::exit(2);
        }
    };
    match &command {
        Command::Bench { .. }
        | Command::BenchDiff { .. }
        | Command::BenchDegrade { .. }
        | Command::Stats { .. }
        | Command::Trace { .. } => {}
        _ => {
            // The figure/table subcommands print the historical header.
            let scale = match &command {
                Command::Table2(o)
                | Command::Fig2(o, _)
                | Command::Fig3Iters(o)
                | Command::Fig3Mem(o)
                | Command::Fig4(o)
                | Command::Threads(o, _, _)
                | Command::ServeBench(o, _, _)
                | Command::All(o, _) => o.scale,
                _ => unreachable!(),
            };
            println!(
                "# htsat repro — {} ablation instances available\n",
                ablation_instances(scale).len()
            );
        }
    }
    match command {
        Command::Table2(options) => run_table2(&options),
        Command::Fig2(options, instances) => run_fig2(&options, instances),
        Command::Fig3Iters(options) => run_fig3_iters(&options),
        Command::Fig3Mem(options) => run_fig3_mem(&options),
        Command::Fig4(options) => run_fig4(&options),
        Command::Threads(options, counts, out) => run_threads(&options, &counts, out.as_deref()),
        Command::ServeBench(options, out, router) => {
            run_serve_bench(&options, out.as_deref(), router);
        }
        Command::All(options, instances) => {
            run_table2(&options);
            println!();
            run_fig2(&options, instances);
            println!();
            run_fig3_iters(&options);
            println!();
            run_fig3_mem(&options);
            println!();
            run_fig4(&options);
        }
        Command::Bench { config, out } => run_bench_cmd(&config, out),
        Command::BenchDiff { old, new, options } => run_bench_diff(&old, &new, &options),
        Command::Stats {
            addr,
            reset,
            exercise,
            timeout_ms,
            format,
        } => run_stats(&addr, reset, exercise, timeout_ms, format),
        Command::Trace {
            addr,
            last,
            verb,
            min_ms,
            exercise,
            timeout_ms,
        } => run_trace(&addr, last, verb.as_deref(), min_ms, exercise, timeout_ms),
        Command::BenchDegrade {
            input,
            output,
            factor,
        } => run_bench_degrade(&input, &output, factor),
    }
}
