//! `htsat-perfbench` — the repository's closed-loop sampling benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload inproc-paper|wire-direct \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One client keeps one request for [`sample::N`] unique solutions in
//! flight, either to an in-process stream session or to a direct
//! `htsat-serve`; traced runs add a ladder through `htsat-router` in front
//! of two registered daemons. `--trace 0` prints the end-to-end metrics and
//! `--trace 1` the per-layer ones; see `perfbench/README.md` for every
//! metric's definition. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod procs;
mod sample;
mod spans;
mod stats;

use htsat_cnf::{dimacs, Cnf, Fingerprint};
use htsat_core::{diversity::diversity, PreparedFormula, StreamStats, TransformConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_obs::TraceId;
use htsat_serve::Client;
use procs::{Bins, Daemon, RoutedTree, MICROS_PER_TICK};
use sample::{check, request_seed, Target, N};
use spans::{serve_layers, Collected, FETCH_EVERY};
use stats::{
    median, parse_cpu_ticks, parse_steal_ticks, parse_vmhwm_kib, tail_percentile, undisturbed,
    undisturbed_or_all, Tally, MIN_BEYOND_TAIL,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Timed requests per run whose diversity is reported and, on the wire,
/// whose outputs are compared with the in-process stream and with the same
/// request routed. The first ones, so the set is fixed by the seed.
const CHECKED: usize = 4;

/// Request indices of the warm-up, far from the timed ones.
const WARMUP_BASE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    InprocPaper,
    WireDirect,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "inproc-paper" => Some(Workload::InprocPaper),
            "wire-direct" => Some(Workload::WireDirect),
            _ => None,
        }
    }

    /// The instance: paper-scale `s15850a_3_2` (about 1.7 s per request)
    /// in process; `75-10-1-q` (about 33 ms, identical at both scales) on
    /// the wire, long enough that scheduler noise does not dominate.
    fn instance(self) -> &'static str {
        match self {
            Workload::InprocPaper => "s15850a_3_2",
            Workload::WireDirect => "75-10-1-q",
        }
    }

    fn warmup_requests(self) -> u64 {
        match self {
            Workload::InprocPaper => 1,
            Workload::WireDirect => 8,
        }
    }

    /// Matched requests of the traced run's ladder.
    fn ladder_requests(self) -> u64 {
        match self {
            Workload::InprocPaper => 3,
            Workload::WireDirect => 8,
        }
    }

    fn layer_reps(self) -> layers::Reps {
        match self {
            Workload::InprocPaper => layers::Reps { stage: 3, rows: 64 },
            Workload::WireDirect => layers::Reps {
                stage: 15,
                rows: 512,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("invalid --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// The workload's formula as a client LOADs it: DIMACS text, and the CNF
/// parsed back from that text (what the daemon samples).
struct Formula {
    name: &'static str,
    text: String,
    cnf: Cnf,
}

impl Formula {
    fn generate(workload: Workload) -> Result<Formula, String> {
        let name = workload.instance();
        let instance = table2_instance(name, SuiteScale::Paper).ok_or("unknown instance")?;
        let text = dimacs::to_string(&instance.cnf);
        let cnf = dimacs::parse_str(&text).map_err(|e| e.to_string())?;
        Ok(Formula { name, text, cnf })
    }

    fn prepare(&self) -> Result<PreparedFormula, String> {
        PreparedFormula::prepare(&self.cnf, &TransformConfig::default()).map_err(|e| e.to_string())
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Whose CPU time a pass charges to each request: the benchmark's own
/// process from the request's start to its end (the checks that follow are
/// the benchmark's), or the daemon's from the previous request's end to
/// this one's (a daemon finishes a request's tail work, such as dropping
/// its stream, after sending the last frame).
enum Cpu<'a> {
    SelfProcess,
    Daemon(&'a Daemon),
}

impl Cpu<'_> {
    fn ticks(&self) -> Result<u64, String> {
        match self {
            Cpu::SelfProcess => {
                let text = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
                parse_cpu_ticks(&text).ok_or_else(|| "/proc/self/stat: no cpu times".to_string())
            }
            Cpu::Daemon(daemon) => daemon.cpu_ticks(),
        }
    }
}

/// Hands out request indices: the timed requests of a run are indices
/// 0, 1, 2, … of the workload seed.
struct Seeds {
    workload_seed: u64,
    next: u64,
}

impl Seeds {
    fn next(&mut self) -> (u64, u64) {
        let index = self.next;
        self.next += 1;
        (index, request_seed(self.workload_seed, index))
    }
}

/// One timed request.
struct Timing {
    first_ms: f64,
    total_ms: f64,
    /// Unique valid solutions delivered (0 when the request failed).
    unique: usize,
    /// utime+stime of the serving process charged to the request (see
    /// [`Cpu`]).
    cpu_ticks: u64,
    /// See [`stats::undisturbed`].
    undisturbed: bool,
}

/// One closed-loop timed pass.
#[derive(Default)]
struct Pass {
    requests: Vec<Timing>,
    stats: StreamStats,
    /// `mean_normalized_hamming` of the first [`CHECKED`] requests.
    diversity: Vec<f64>,
    /// (seed, output) of the first `keep` requests.
    kept: Vec<(u64, Vec<Vec<bool>>)>,
    /// Trace ids stamped on the pass's requests.
    traced: Vec<TraceId>,
}

impl Pass {
    /// The requests the timing metrics are taken over.
    fn timed(&self) -> Vec<&Timing> {
        undisturbed_or_all(&self.requests, |t| t.undisturbed)
    }

    fn unique_per_s(&self) -> f64 {
        let timed = self.timed();
        let seconds: f64 = timed.iter().map(|t| t.total_ms / 1e3).sum();
        let unique: usize = timed.iter().map(|t| t.unique).sum();
        if seconds > 0.0 {
            unique as f64 / seconds
        } else {
            0.0
        }
    }

    fn median_ms(&self, field: fn(&Timing) -> f64) -> f64 {
        median(&self.timed().into_iter().map(field).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

fn steal_ticks() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    parse_steal_ticks(&text).ok_or_else(|| "/proc/stat: no steal field".to_string())
}

/// Runs requests back to back for `seconds`. Every output is checked, and
/// steal and CPU time read, outside the timed window; a transport error
/// ends the pass.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    target: &mut Target<'_>,
    cnf: &Cnf,
    seeds: &mut Seeds,
    seconds: f64,
    keep: usize,
    cpu: &Cpu<'_>,
    tally: &mut Tally,
    mut collect: Option<&mut Collected>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut cpu_window_start = cpu.ticks()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (index, seed) = seeds.next();
        // Bit 63 keeps the id non-zero for seed 0, request 0.
        let trace = collect.is_some().then(|| {
            TraceId::from_u128(
                (u128::from(seeds.workload_seed) << 64) | (1 << 63) | u128::from(index),
            )
        });
        if matches!(cpu, Cpu::SelfProcess) {
            cpu_window_start = cpu.ticks()?;
        }
        let steal_start = steal_ticks()?;
        let outcome = target.issue(seed, trace);
        let stolen = steal_ticks()? - steal_start;
        let cpu_window_end = cpu.ticks()?;
        let cpu_ticks = cpu_window_end - cpu_window_start;
        cpu_window_start = cpu_window_end;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                tally.record(Err(format!("request {index}: {e}")));
                break;
            }
        };
        pass.traced.extend(trace);
        let verdict = check(cnf, &outcome.solutions);
        let total_ms = outcome.total.as_secs_f64() * 1e3;
        pass.requests.push(Timing {
            first_ms: outcome.first.as_secs_f64() * 1e3,
            total_ms,
            unique: if verdict.is_ok() {
                outcome.solutions.len()
            } else {
                0
            },
            cpu_ticks,
            undisturbed: undisturbed(stolen, total_ms),
        });
        pass.stats.merge(&outcome.stats);
        if pass.diversity.len() < CHECKED {
            if let Some(report) = diversity(&outcome.solutions) {
                pass.diversity.push(report.mean_normalized_hamming);
            }
        }
        if pass.kept.len() < keep {
            pass.kept.push((seed, outcome.solutions));
        }
        tally.record(verdict.map_err(|e| format!("seed {seed}: {e}")));
        if let (Some(collected), Target::Wire(client, _)) = (collect.as_deref_mut(), &mut *target) {
            if pass.traced.len() % FETCH_EVERY == 0 {
                collected.fetch(client, &pass.traced)?;
            }
        }
    }
    if let (Some(collected), Target::Wire(client, _)) = (collect, target) {
        collected.fetch(client, &pass.traced)?;
    }
    Ok(pass)
}

/// The laws the wire must keep, checked on the kept requests of a direct
/// pass: direct output equals the in-process stream of the same seed, and
/// output routed through `routed` equals direct output. A violation fails
/// the request.
fn compare_kept(
    kept: &[(u64, Vec<Vec<bool>>)],
    engine: &PreparedFormula,
    routed: (&mut Client, Fingerprint),
    tally: &mut Tally,
) -> Result<(), String> {
    let (client, fingerprint) = routed;
    for (seed, output) in kept {
        let reference = Target::InProc(engine).issue(*seed, None)?;
        let routed_output = Target::Wire(client, fingerprint).issue(*seed, None)?;
        if *output != reference.solutions {
            tally.fail(format!(
                "seed {seed}: direct output differs from the in-process stream"
            ));
        } else if *output != routed_output.solutions {
            tally.fail(format!("seed {seed}: routed output differs from direct"));
        }
    }
    Ok(())
}

/// The matched ladder of the traced run: the same seeds in process, on a
/// direct daemon and through the router, each output checked against the
/// rung below it. Returns per-seed (in-process, direct, routed) ms and the
/// trace ids of the wire requests.
fn ladder(
    seeds: &[u64],
    engine: &PreparedFormula,
    direct: (&mut Client, Fingerprint),
    routed: (&mut Client, Fingerprint),
    tally: &mut Tally,
) -> Result<(Vec<[f64; 3]>, Vec<TraceId>), String> {
    let (direct_client, direct_fp) = direct;
    let (routed_client, routed_fp) = routed;
    let mut rows = Vec::new();
    let mut trace_ids = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let id =
            |rung: u128| TraceId::from_u128((rung << 96) | (u128::from(seed) << 16) | i as u128);
        let inproc = Target::InProc(engine).issue(seed, None)?;
        let direct = Target::Wire(direct_client, direct_fp).issue(seed, Some(id(1)))?;
        let routed = Target::Wire(routed_client, routed_fp).issue(seed, Some(id(2)))?;
        trace_ids.extend([id(1), id(2)]);
        let verdict = if direct.solutions != inproc.solutions {
            Err(format!(
                "ladder seed {seed}: direct differs from in-process"
            ))
        } else if routed.solutions != direct.solutions {
            Err(format!("ladder seed {seed}: routed differs from direct"))
        } else {
            Ok(())
        };
        tally.record(verdict);
        rows.push([inproc, direct, routed].map(|o| o.total.as_secs_f64() * 1e3));
    }
    Ok((rows, trace_ids))
}

fn ladder_metrics(rows: &[[f64; 3]], metrics: &mut Metrics) {
    let column = |f: &dyn Fn(&[f64; 3]) -> f64| -> f64 {
        median(&rows.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    metrics.push("ladder.inproc_ms_p50", column(&|r| r[0]), "ms");
    metrics.push("ladder.wire_hop_ms_p50", column(&|r| r[1] - r[0]), "ms");
    metrics.push("ladder.router_hop_ms_p50", column(&|r| r[2] - r[1]), "ms");
}

/// Per-layer metrics shared by every workload: layer timings and stream
/// ratios.
fn common_layers(
    formula: &Formula,
    engine: &PreparedFormula,
    workload: Workload,
    seed: u64,
    pass: &Pass,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let times = layers::measure(&formula.text, engine, seed, workload.layer_reps())?;
    let s = &pass.stats;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.push("cnf.parse_ms", times.parse_ms, "ms");
    metrics.push("core.transform_ms", times.transform_ms, "ms");
    metrics.push("core.compile_ms", times.compile_ms, "ms");
    metrics.push("core.round_ms", times.round_ms, "ms");
    metrics.push("tensor.descend_us_per_row", times.descend_us_per_row, "us");
    metrics.push("core.harden_us_per_row", times.harden_us_per_row, "us");
    metrics.push("cnf.validate_us_per_row", times.validate_us_per_row, "us");
    metrics.push(
        "core.valid_per_attempt",
        ratio(s.valid, s.attempts),
        "ratio",
    );
    metrics.push(
        "runtime.dedup_us_per_solution",
        times.dedup_us_per_solution,
        "us",
    );
    metrics.push(
        "runtime.unique_per_valid",
        ratio(s.yielded, s.valid),
        "ratio",
    );
    metrics.push(
        "runtime.rounds_per_request",
        ratio(s.rounds, pass.requests.len()),
        "count",
    );
    // Computed, not measured: one byte per variable per remembered solution.
    metrics.push(
        "runtime.seen_mib_per_request",
        (N * formula.cnf.num_vars()) as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    metrics.push(
        "proto.encode_us_per_solution",
        times.encode_us_per_solution,
        "us",
    );
    metrics.push(
        "proto.decode_us_per_solution",
        times.decode_us_per_solution,
        "us",
    );
    Ok(())
}

/// Serve-side metrics: stage times of the `collected` TRACE timelines, and
/// the `STATS` bytes per request and thread gauge the caller read.
fn serve_metrics(
    collected: &Collected,
    bytes_out_per_request: f64,
    threads: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let layers = serve_layers(collected.timelines.values())
        .ok_or("no traced request carried a serve.request span")?;
    eprintln!("serve layers over {} traced requests", layers.requests);
    metrics.push("serve.reader_us_p50", layers.reader_us, "us");
    metrics.push("serve.worker_ms_p50", layers.worker_ms, "ms");
    metrics.push("serve.engine_round_ms_p50", layers.engine_round_ms, "ms");
    metrics.push("serve.queue_wait_us_p50", layers.queue_wait_us, "us");
    metrics.push("serve.serialize_us_p50", layers.serialize_us, "us");
    metrics.push("serve.write_us_p50", layers.write_us, "us");
    metrics.push(
        "serve.bytes_out_per_request",
        bytes_out_per_request,
        "bytes",
    );
    metrics.push("serve.process_threads", threads, "count");
    Ok(())
}

fn stats_snapshot(client: &mut Client) -> Result<htsat_obs::Snapshot, String> {
    client.stats().map_err(|e| format!("STATS: {e}"))
}

fn bytes_out(snapshot: &htsat_obs::Snapshot) -> f64 {
    snapshot.counter("serve.bytes_out").unwrap_or(0) as f64
}

fn threads_gauge(snapshot: &htsat_obs::Snapshot) -> f64 {
    snapshot.gauge("process.threads").unwrap_or(0) as f64
}

fn self_vmhwm_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = parse_vmhwm_kib(&text).ok_or("/proc/self/status: no VmHWM")?;
    Ok(kib as f64 / 1024.0)
}

/// End-to-end metrics of one untraced pass.
fn end_to_end(pass: &Pass, setups: &[f64], peak_rss_mib: f64, metrics: &mut Metrics) {
    let timed = pass.timed();
    let totals: Vec<f64> = timed.iter().map(|t| t.total_ms).collect();
    eprintln!(
        "timing over {} undisturbed of {} requests",
        timed.len(),
        pass.requests.len()
    );
    match tail_percentile(&totals, 0.95) {
        Some(p95) => eprintln!("request_ms p95 {p95:.4}"),
        None => eprintln!(
            "request_ms p95 not reported: fewer than {MIN_BEYOND_TAIL} requests lie beyond it"
        ),
    }
    metrics.push("unique_per_s", pass.unique_per_s(), "1/s");
    metrics.push("request_ms_p50", pass.median_ms(|t| t.total_ms), "ms");
    metrics.push(
        "first_solution_ms_p50",
        pass.median_ms(|t| t.first_ms),
        "ms",
    );
    let cpu_ticks: u64 = timed.iter().map(|t| t.cpu_ticks).sum();
    let unique: usize = timed.iter().map(|t| t.unique).sum();
    let cpu_us = cpu_ticks as f64 * MICROS_PER_TICK / unique.max(1) as f64;
    metrics.push("cpu_us_per_solution", cpu_us, "us");
    metrics.push("setup_s", median(setups).unwrap_or(0.0), "s");
    metrics.push("peak_rss_mib", peak_rss_mib, "MiB");
    let mean_diversity = pass.diversity.iter().sum::<f64>() / pass.diversity.len().max(1) as f64;
    metrics.push("diversity_hamming", mean_diversity, "ratio");
}

/// A fresh routed tree with the formula loaded through the router; the
/// second value is the client-timed cold LOAD in ms.
fn loaded_tree(
    bins: &Bins,
    formula: &Formula,
) -> Result<(RoutedTree, Client, Fingerprint, f64), String> {
    let tree = RoutedTree::spawn(bins)?;
    let mut client = tree.router.client()?;
    let start = Instant::now();
    let load = client
        .load_dimacs(Some(formula.name), &formula.text)
        .map_err(|e| format!("LOAD: {e}"))?;
    Ok((
        tree,
        client,
        load.fingerprint,
        start.elapsed().as_secs_f64() * 1e3,
    ))
}

struct Report {
    tally: Tally,
    metrics: Metrics,
}

fn run_inproc(args: &Args, formula: &Formula, bins: &Bins) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let start = Instant::now();
        engine = Some(formula.prepare()?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up ran");
    let mut target = Target::InProc(&engine);
    for i in 0..args.workload.warmup_requests() {
        target.issue(request_seed(args.seed, WARMUP_BASE + i), None)?;
    }
    let mut tally = Tally::default();
    let mut seeds = Seeds {
        workload_seed: args.seed,
        next: 0,
    };
    let mut metrics = Metrics::default();
    let cpu = Cpu::SelfProcess;
    if !args.trace {
        let pass = run_pass(
            &mut target,
            &formula.cnf,
            &mut seeds,
            args.seconds,
            0,
            &cpu,
            &mut tally,
            None,
        )?;
        end_to_end(&pass, &setups, self_vmhwm_mib()?, &mut metrics);
        return Ok(Report { tally, metrics });
    }

    let half = args.seconds / 2.0;
    let plain = run_pass(
        &mut target,
        &formula.cnf,
        &mut seeds,
        half,
        0,
        &cpu,
        &mut tally,
        None,
    )?;
    // In process the timelines stay in this process's ring: only the cost of
    // recording them is measured here.
    let mut in_process_ring = Collected::default();
    let traced = run_pass(
        &mut target,
        &formula.cnf,
        &mut seeds,
        half,
        0,
        &cpu,
        &mut tally,
        Some(&mut in_process_ring),
    )?;

    // The wire rungs of the ladder run on a routed tree: the shard owner
    // is the direct daemon, and its traced requests give the serve layers.
    let (tree, mut router, fingerprint, load_cold_ms) = loaded_tree(bins, formula)?;
    let mut owner = tree.owner(&fingerprint.to_hex())?.client()?;
    let before = stats_snapshot(&mut router)?;
    let ladder_seeds: Vec<u64> = (0..args.workload.ladder_requests())
        .map(|i| request_seed(args.seed, i))
        .collect();
    let (rows, ids) = ladder(
        &ladder_seeds,
        &engine,
        (&mut owner, fingerprint),
        (&mut router, fingerprint),
        &mut tally,
    )?;
    let after = stats_snapshot(&mut router)?;
    let mut collected = Collected::default();
    collected.fetch(&mut router, &ids)?;
    drop((owner, router));
    tree.stop();

    common_layers(
        formula,
        &engine,
        args.workload,
        args.seed,
        &plain,
        &mut metrics,
    )?;
    metrics.push("serve.load_cold_ms", load_cold_ms, "ms");
    serve_metrics(
        &collected,
        (bytes_out(&after) - bytes_out(&before)) / ids.len() as f64,
        threads_gauge(&after),
        &mut metrics,
    )?;
    ladder_metrics(&rows, &mut metrics);
    metrics.push("obs.trace_overhead_pct", overhead_pct(&plain, &traced), "%");
    Ok(Report { tally, metrics })
}

fn overhead_pct(plain: &Pass, traced: &Pass) -> f64 {
    (plain.unique_per_s() - traced.unique_per_s()) / plain.unique_per_s().max(f64::MIN_POSITIVE)
        * 100.0
}

fn run_direct(args: &Args, formula: &Formula, bins: &Bins) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut kept: Option<(Daemon, Client, Fingerprint)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((daemon, client, _)) = kept.take() {
            drop(client);
            daemon.stop();
        }
        let start = Instant::now();
        let daemon = procs::spawn_direct(bins)?;
        let mut client = daemon.client()?;
        let load_start = Instant::now();
        let load = client
            .load_dimacs(Some(formula.name), &formula.text)
            .map_err(|e| format!("LOAD: {e}"))?;
        loads.push(load_start.elapsed().as_secs_f64() * 1e3);
        setups.push(start.elapsed().as_secs_f64());
        if load.cached {
            return Err("a fresh daemon answered LOAD from its cache".to_string());
        }
        kept = Some((daemon, client, load.fingerprint));
    }
    let (daemon, mut client, fingerprint) = kept.expect("at least one set-up ran");
    let engine = formula.prepare()?;
    {
        let mut target = Target::Wire(&mut client, fingerprint);
        for i in 0..args.workload.warmup_requests() {
            target.issue(request_seed(args.seed, WARMUP_BASE + i), None)?;
        }
    }
    let mut tally = Tally::default();
    let mut seeds = Seeds {
        workload_seed: args.seed,
        next: 0,
    };
    let mut metrics = Metrics::default();
    let cpu = Cpu::Daemon(&daemon);

    if !args.trace {
        let pass = run_pass(
            &mut Target::Wire(&mut client, fingerprint),
            &formula.cnf,
            &mut seeds,
            args.seconds,
            CHECKED,
            &cpu,
            &mut tally,
            None,
        )?;
        let peak_rss_mib = daemon.vmhwm_kib()? as f64 / 1024.0;
        let (tree, mut router, routed_fp, _) = loaded_tree(bins, formula)?;
        compare_kept(&pass.kept, &engine, (&mut router, routed_fp), &mut tally)?;
        drop(router);
        tree.stop();
        end_to_end(&pass, &setups, peak_rss_mib, &mut metrics);
        drop(client);
        daemon.stop();
        return Ok(Report { tally, metrics });
    }

    let half = args.seconds / 2.0;
    let before = stats_snapshot(&mut client)?;
    let plain = run_pass(
        &mut Target::Wire(&mut client, fingerprint),
        &formula.cnf,
        &mut seeds,
        half,
        0,
        &cpu,
        &mut tally,
        None,
    )?;
    // Includes the `before` reply itself: one STATS line against hundreds
    // of sample streams.
    let bytes_per_request = (bytes_out(&stats_snapshot(&mut client)?) - bytes_out(&before))
        / plain.requests.len() as f64;
    let mut collected = Collected::default();
    let traced = run_pass(
        &mut Target::Wire(&mut client, fingerprint),
        &formula.cnf,
        &mut seeds,
        half,
        0,
        &cpu,
        &mut tally,
        Some(&mut collected),
    )?;
    let threads = threads_gauge(&stats_snapshot(&mut client)?);

    // The ladder checks both laws on the first seeds of the run.
    let (tree, mut router, routed_fp, _) = loaded_tree(bins, formula)?;
    let ladder_seeds: Vec<u64> = (0..args.workload.ladder_requests())
        .map(|i| request_seed(args.seed, i))
        .collect();
    // The serve layers come from the timed traced pass; the ladder's own
    // trace ids are not needed here.
    let (rows, _) = ladder(
        &ladder_seeds,
        &engine,
        (&mut client, fingerprint),
        (&mut router, routed_fp),
        &mut tally,
    )?;
    drop(router);
    tree.stop();
    drop(client);
    daemon.stop();

    common_layers(
        formula,
        &engine,
        args.workload,
        args.seed,
        &plain,
        &mut metrics,
    )?;
    metrics.push("serve.load_cold_ms", median(&loads).unwrap_or(0.0), "ms");
    serve_metrics(&collected, bytes_per_request, threads, &mut metrics)?;
    ladder_metrics(&rows, &mut metrics);
    metrics.push("obs.trace_overhead_pct", overhead_pct(&plain, &traced), "%");
    Ok(Report { tally, metrics })
}

fn result_line(report: &Report) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in &report.metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.all_passed(),
        report.tally.attempted,
        report.tally.failed,
        fields.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let bins = Bins::in_dir(&args.bin_dir)?;
    let formula = Formula::generate(args.workload)?;
    let report = match args.workload {
        Workload::InprocPaper => run_inproc(&args, &formula, &bins)?,
        Workload::WireDirect => run_direct(&args, &formula, &bins)?,
    };
    for (name, value, unit) in &report.metrics.0 {
        eprintln!("{name:32} {value:>14.4} {unit}");
    }
    eprintln!(
        "requests attempted {} failed {}{}",
        report.tally.attempted,
        report.tally.failed,
        report
            .tally
            .first_failure
            .as_deref()
            .map(|r| format!(" (first: {r})"))
            .unwrap_or_default()
    );
    result_line(&report)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("htsat-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
