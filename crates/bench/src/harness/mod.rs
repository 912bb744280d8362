//! The statistical bench harness: interleaved invocations over a matrix of
//! (instance, engine, threads) cells, emitting a machine-readable
//! perf-trajectory artifact.
//!
//! # Measurement discipline (cargo-harness style)
//!
//! * **Interleaved runs.** One *invocation* is a full sweep of the matrix —
//!   every cell runs once, in a fixed order — and the harness repeats `I`
//!   invocations. No cell is ever run `I` times in a tight loop: a
//!   frequency-scaling event or a background process perturbs *all* cells
//!   of one invocation roughly equally instead of poisoning a single
//!   cell's entire sample set.
//! * **Warmup / timing separation.** The first `warmup` invocations run
//!   the identical sweep but record nothing, so page-cache population,
//!   allocator growth and branch-predictor warmup are not billed to the
//!   first measured cell.
//! * **Statistics, not single numbers.** Each cell keeps every raw
//!   per-invocation sample; summaries (min / median / mean / 95% CI) are
//!   computed by [`stats`] and recomputable from the artifact forever.
//! * **Tracked environment.** The artifact records host, core count,
//!   toolchain, git revision and suite scale; `bench-diff` refuses to
//!   compare artifacts whose host or scale differ (see [`diff`]).
//!
//! Each cell run streams one engine through the same measurement loop as
//! the Table II reproduction (preparation inside the timed window, target
//! cut-off, per-run timeout), so harness numbers and `repro table2`
//! numbers share semantics.

pub mod artifact;
pub mod diff;
pub mod stats;

pub use artifact::{
    ArtifactError, BenchArtifact, BenchSettings, Cell, CellKey, Environment, Sample,
    ARTIFACT_VERSION,
};
pub use diff::{diff as diff_artifacts, CellDiff, DiffError, DiffOptions, DiffReport};
pub use stats::{geomean, summarize, StatsError, Summary};

use crate::RunOptions;
use htsat_core::SampleEngine;
use htsat_core::TransformConfig;
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_instances::Instance;
use htsat_tensor::Backend;
use std::fmt;
use std::process::Command;
use std::time::{Duration, SystemTime};

/// Configuration of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Shared run options (scale, target, timeout, batch size).
    pub options: RunOptions,
    /// Timed invocations (full interleaved sweeps of the matrix).
    pub invocations: usize,
    /// Warmup invocations before timing starts.
    pub warmup: usize,
    /// Engines of the matrix, by canonical name (`gd`, `walksat`, ...).
    pub engines: Vec<String>,
    /// Worker-thread counts of the matrix.
    pub thread_counts: Vec<usize>,
    /// Instance names of the matrix (Table II names).
    pub instances: Vec<String>,
}

impl Default for BenchConfig {
    /// The standard matrix: the four ablation instances, the paper's
    /// sampler plus the two fastest baselines, one thread, five timed
    /// invocations after one warmup.
    fn default() -> Self {
        BenchConfig {
            options: RunOptions {
                target: 100,
                timeout: Duration::from_secs(2),
                ..RunOptions::default()
            },
            invocations: 5,
            warmup: 1,
            engines: vec!["gd".into(), "cmsgen".into(), "walksat".into()],
            thread_counts: vec![1],
            instances: vec![
                "or-100-20-8-UC-10".into(),
                "90-10-10-q".into(),
                "s15850a_15_7".into(),
                "Prod-32".into(),
            ],
        }
    }
}

impl BenchConfig {
    /// A matrix small enough for CI: two fast instances, two engines,
    /// three timed invocations after one warmup, tight target/timeout.
    #[must_use]
    pub fn quick() -> Self {
        BenchConfig {
            options: RunOptions {
                target: 30,
                timeout: Duration::from_millis(500),
                batch_size: 128,
                ..RunOptions::default()
            },
            invocations: 3,
            warmup: 1,
            engines: vec!["gd".into(), "walksat".into()],
            thread_counts: vec![1],
            instances: vec!["90-10-10-q".into(), "or-50-10-7-UC-10".into()],
        }
    }

    /// Total cell runs the harness will execute (warmup included).
    #[must_use]
    pub fn total_runs(&self) -> usize {
        (self.invocations + self.warmup)
            * self.engines.len()
            * self.thread_counts.len()
            * self.instances.len()
    }
}

/// Why a harness run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// An instance name is not in the Table II suite.
    UnknownInstance(String),
    /// An engine name is not a canonical engine.
    UnknownEngine(String),
    /// The matrix was empty along one axis.
    EmptyMatrix(&'static str),
    /// Summarizing a cell failed.
    Stats(StatsError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownInstance(name) => write!(
                f,
                "unknown instance `{name}` (valid: {})",
                htsat_instances::suite::table2_names().join(", ")
            ),
            BenchError::UnknownEngine(name) => write!(
                f,
                "unknown engine `{name}` (valid: {})",
                htsat_baselines::ENGINE_NAMES.join(", ")
            ),
            BenchError::EmptyMatrix(axis) => write!(f, "the `{axis}` axis of the matrix is empty"),
            BenchError::Stats(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<StatsError> for BenchError {
    fn from(e: StatsError) -> Self {
        BenchError::Stats(e)
    }
}

/// Progress of a running harness, reported once per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationEvent {
    /// 1-based invocation number (warmup invocations first).
    pub invocation: usize,
    /// Total invocations, warmup included.
    pub total: usize,
    /// Whether this invocation is warmup (unrecorded).
    pub warmup: bool,
}

/// Runs the harness silently. See [`run_bench_with`].
///
/// # Errors
///
/// Propagates [`BenchError`].
pub fn run_bench(config: &BenchConfig) -> Result<BenchArtifact, BenchError> {
    run_bench_with(config, |_| {})
}

/// Runs the matrix in interleaved invocation order and returns the
/// artifact, invoking `progress` at the start of every invocation.
///
/// # Errors
///
/// [`BenchError::UnknownInstance`] / [`BenchError::UnknownEngine`] for bad
/// matrix axes (checked before any measurement), [`BenchError::EmptyMatrix`]
/// for an empty axis, [`BenchError::Stats`] if a cell cannot be summarized.
pub fn run_bench_with(
    config: &BenchConfig,
    mut progress: impl FnMut(InvocationEvent),
) -> Result<BenchArtifact, BenchError> {
    if config.instances.is_empty() {
        return Err(BenchError::EmptyMatrix("instances"));
    }
    if config.engines.is_empty() {
        return Err(BenchError::EmptyMatrix("engines"));
    }
    if config.thread_counts.is_empty() {
        return Err(BenchError::EmptyMatrix("threads"));
    }
    if config.invocations == 0 {
        return Err(BenchError::EmptyMatrix("invocations"));
    }

    // Resolve every axis before the first measurement so a typo fails in
    // milliseconds, not after a half-finished run.
    let instances: Vec<Instance> = config
        .instances
        .iter()
        .map(|name| {
            table2_instance(name, config.options.scale)
                .ok_or_else(|| BenchError::UnknownInstance(name.clone()))
        })
        .collect::<Result<_, _>>()?;
    let engines: Vec<&'static str> = config
        .engines
        .iter()
        .map(|name| {
            htsat_baselines::resolve_engine_name(name)
                .ok_or_else(|| BenchError::UnknownEngine(name.clone()))
        })
        .collect::<Result<_, _>>()?;

    // Cell order is fixed: instance-major, then engine, then threads. One
    // invocation sweeps all cells once; samples land per cell.
    let mut keys: Vec<CellKey> = Vec::new();
    for instance in &instances {
        for engine in &engines {
            for &threads in &config.thread_counts {
                keys.push(CellKey {
                    instance: instance.name.clone(),
                    engine: (*engine).to_string(),
                    threads: threads as u64,
                });
            }
        }
    }
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); keys.len()];

    let total = config.warmup + config.invocations;
    for invocation in 0..total {
        let warmup = invocation < config.warmup;
        progress(InvocationEvent {
            invocation: invocation + 1,
            total,
            warmup,
        });
        let mut cell = 0usize;
        for instance in &instances {
            for engine in &engines {
                for &threads in &config.thread_counts {
                    let result = run_cell(instance, engine, threads, &config.options);
                    if !warmup {
                        samples[cell].push(result);
                    }
                    cell += 1;
                }
            }
        }
    }

    let cells = keys
        .into_iter()
        .zip(samples)
        .map(|(key, samples)| {
            let throughputs: Vec<f64> = samples.iter().map(|s| s.throughput).collect();
            Ok(Cell {
                key,
                summary: summarize(&throughputs)?,
                samples,
            })
        })
        .collect::<Result<Vec<Cell>, BenchError>>()?;

    Ok(BenchArtifact {
        version: ARTIFACT_VERSION,
        environment: capture_environment(config.options.scale),
        settings: BenchSettings {
            invocations: config.invocations as u64,
            warmup: config.warmup as u64,
            target: config.options.target as u64,
            timeout_ms: config.options.timeout.as_millis() as u64,
            batch: config.options.batch_size as u64,
            date: utc_today(),
        },
        cells,
    })
}

/// One timed run of one cell, through the same measurement loop as the
/// Table II reproduction (preparation inside the window, target cut-off,
/// timeout). The GD engine gets the harness batch option installed
/// as its session template; baselines prepare from the CNF alone.
fn run_cell(
    instance: &Instance,
    engine: &'static str,
    threads: usize,
    options: &RunOptions,
) -> Sample {
    let backend = Backend::Threads(threads);
    let result = crate::run_engine(
        || {
            if engine == "gd" {
                crate::gd_engine(instance, options, backend)
                    .map(|e| Box::new(e) as Box<dyn SampleEngine>)
            } else {
                htsat_baselines::engine_by_name(engine, &instance.cnf, &TransformConfig::default())
            }
        },
        engine,
        options,
        backend,
        engine == "gd",
    );
    Sample {
        seconds: result.elapsed.as_secs_f64().max(1e-9),
        unique: result.unique as u64,
        throughput: result.throughput,
    }
}

/// Records the environment a run happened in. Host and scale gate
/// comparability in [`diff`]; the rest is provenance.
#[must_use]
pub fn capture_environment(scale: SuiteScale) -> Environment {
    Environment {
        host: detect_host(),
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
        os: format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
        toolchain: command_stdout("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        git_rev: command_stdout("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into()),
        scale: scale_label(scale).to_string(),
    }
}

/// The string form of a suite scale as recorded in artifacts.
#[must_use]
pub fn scale_label(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Small => "small",
        SuiteScale::Paper => "paper",
    }
}

fn detect_host() -> String {
    let raw = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .or_else(|| command_stdout("hostname", &[]))
        .unwrap_or_default();
    artifact::sanitize_component(&raw)
}

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
#[must_use]
pub fn utc_today() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → (year, month, day), Howard Hinnant's civil-calendar
/// algorithm (exact for the proleptic Gregorian calendar).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(20_514), (2026, 3, 2)); // after a leap year
    }

    #[test]
    fn environment_capture_is_sane() {
        let env = capture_environment(SuiteScale::Small);
        assert!(!env.host.is_empty());
        assert!(env.cores >= 1);
        assert_eq!(env.scale, "small");
        assert!(env.os.contains('-'));
    }

    #[test]
    fn unknown_axes_fail_before_measurement() {
        let mut config = BenchConfig::quick();
        config.instances = vec!["no-such-instance".into()];
        assert!(matches!(
            run_bench(&config),
            Err(BenchError::UnknownInstance(_))
        ));
        let mut config = BenchConfig::quick();
        config.engines = vec!["no-such-engine".into()];
        assert!(matches!(
            run_bench(&config),
            Err(BenchError::UnknownEngine(_))
        ));
        let mut config = BenchConfig::quick();
        config.thread_counts.clear();
        assert!(matches!(
            run_bench(&config),
            Err(BenchError::EmptyMatrix("threads"))
        ));
    }

    #[test]
    fn total_runs_counts_warmup() {
        let config = BenchConfig::quick();
        // (1 warmup + 3 timed) x 2 instances x 2 engines x 1 thread count.
        assert_eq!(config.total_runs(), 16);
    }
}
