//! Argument parsing for the `repro` binary.
//!
//! Parsing lives in the library so it is unit-testable, and it is strict
//! per subcommand: every subcommand declares the flags it accepts, and a
//! stray flag — even one another subcommand would take — is an error that
//! names the valid flags instead of being silently ignored. Historically
//! `--instances` was accepted (and ignored) by every subcommand except
//! `fig2`, which made typos invisible; now `repro table2 --instances 3`
//! exits non-zero with the valid flag list.

use crate::harness::{BenchConfig, DiffOptions};
use crate::RunOptions;
use htsat_instances::suite::SuiteScale;
use std::path::PathBuf;
use std::time::Duration;

/// A parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `table2` — the Table II reproduction.
    Table2(RunOptions),
    /// `fig2` — latency vs unique solutions, with an instance cap.
    Fig2(RunOptions, usize),
    /// `fig3-iters` — solutions vs iteration count.
    Fig3Iters(RunOptions),
    /// `fig3-mem` — modelled memory vs batch size.
    Fig3Mem(RunOptions),
    /// `fig4` and its column aliases.
    Fig4(RunOptions),
    /// `threads` — the thread-scaling sweep; `--out` folds the points into
    /// a bench artifact.
    Threads(RunOptions, Vec<usize>, Option<PathBuf>),
    /// `serve-bench` — the daemon loopback gate; `--out` folds the wire
    /// legs into a bench artifact, and `--router` adds a leg driven
    /// through an `htsat-router` fronting two registered daemons.
    ServeBench(RunOptions, Option<PathBuf>, bool),
    /// `all` — every figure and table in sequence.
    All(RunOptions, usize),
    /// `bench` — the statistical harness; emits an artifact.
    Bench {
        /// Assembled harness configuration.
        config: BenchConfig,
        /// Explicit output path (`--out`); default is
        /// `BENCH_<host>_<date>.json` in the working directory.
        out: Option<PathBuf>,
    },
    /// `bench-diff <old> <new>` — the regression gate.
    BenchDiff {
        /// Baseline artifact path.
        old: PathBuf,
        /// Candidate artifact path.
        new: PathBuf,
        /// Threshold / force options.
        options: DiffOptions,
    },
    /// `stats --addr HOST:PORT` — fetch and pretty-print a running
    /// daemon's metrics snapshot over the `STATS` wire verb.
    Stats {
        /// Daemon address to connect to.
        addr: String,
        /// Reset counters and histograms after reading (`STATS reset`).
        reset: bool,
        /// Drive a LOAD + SAMPLE + induced error against the daemon first,
        /// then assert the key counters moved — CI's observability gate.
        exercise: bool,
        /// Socket read timeout (`--timeout-ms`); an unresponsive daemon
        /// surfaces as a typed `ClientError::Timeout` instead of a hang.
        timeout_ms: Option<u64>,
        /// Output format (`--format pretty|prom`).
        format: StatsFormat,
    },
    /// `trace --addr HOST:PORT` — fetch a running daemon's recent request
    /// timelines over the `TRACE` wire verb and print span waterfalls.
    Trace {
        /// Daemon address to connect to.
        addr: String,
        /// Cap on returned timelines (`--last N`; `None` = the whole ring).
        last: Option<u64>,
        /// Keep only this wire verb's timelines (`--verb sample`).
        verb: Option<String>,
        /// Keep only requests at least this slow (`--min-ms N`).
        min_ms: Option<u64>,
        /// Drive traced LOAD + SAMPLE traffic against the daemon first,
        /// then assert the returned timelines attribute it — CI's
        /// trace gate.
        exercise: bool,
        /// Socket read timeout (`--timeout-ms`).
        timeout_ms: Option<u64>,
    },
    /// `bench-degrade <in> <out> --factor F` — scales every throughput
    /// sample; CI's negative gate uses it to prove `bench-diff` catches an
    /// injected regression.
    BenchDegrade {
        /// Input artifact path.
        input: PathBuf,
        /// Output artifact path.
        output: PathBuf,
        /// Multiplier applied to every throughput sample.
        factor: f64,
    },
}

/// How `repro stats` renders the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// Human-readable tables (the default).
    #[default]
    Pretty,
    /// Prometheus text exposition format, suitable for a scrape endpoint
    /// or `promtool` ingestion.
    Prom,
}

/// Every subcommand with the flags it accepts.
const SUBCOMMANDS: &[(&str, &[&str])] = &[
    ("table2", RUN_FLAGS),
    ("fig2", FIG2_FLAGS),
    ("fig3-iters", RUN_FLAGS),
    ("fig3-mem", RUN_FLAGS),
    ("fig4", RUN_FLAGS),
    ("fig4-speedup", RUN_FLAGS),
    ("fig4-ops", RUN_FLAGS),
    ("fig4-transform", RUN_FLAGS),
    ("threads", THREADS_FLAGS),
    ("serve-bench", SERVE_BENCH_FLAGS),
    ("all", FIG2_FLAGS),
    ("bench", BENCH_FLAGS),
    ("bench-diff", DIFF_FLAGS),
    ("bench-degrade", DEGRADE_FLAGS),
    ("stats", STATS_FLAGS),
    ("trace", TRACE_FLAGS),
];

const RUN_FLAGS: &[&str] = &["--scale", "--target", "--timeout", "--batch", "--threads"];
const FIG2_FLAGS: &[&str] = &[
    "--scale",
    "--target",
    "--timeout",
    "--batch",
    "--threads",
    "--instances",
];
const THREADS_FLAGS: &[&str] = &[
    "--scale",
    "--target",
    "--timeout",
    "--batch",
    "--threads",
    "--counts",
    "--out",
];
const SERVE_BENCH_FLAGS: &[&str] = &[
    "--scale",
    "--target",
    "--timeout",
    "--batch",
    "--threads",
    "--out",
    "--router",
];
const BENCH_FLAGS: &[&str] = &[
    "--scale",
    "--target",
    "--timeout",
    "--batch",
    "--quick",
    "--invocations",
    "--warmup",
    "--engines",
    "--suite",
    "--counts",
    "--out",
];
const DIFF_FLAGS: &[&str] = &["--threshold", "--force"];
const DEGRADE_FLAGS: &[&str] = &["--factor"];
const STATS_FLAGS: &[&str] = &[
    "--addr",
    "--reset",
    "--exercise",
    "--timeout-ms",
    "--format",
];
const TRACE_FLAGS: &[&str] = &[
    "--addr",
    "--last",
    "--verb",
    "--min-ms",
    "--exercise",
    "--timeout-ms",
];

/// One line listing every subcommand, for error messages and `--help`-style
/// usage output.
#[must_use]
pub fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro <{}> [flags...]\n  run flags: {}\n  bench flags: {}\n  bench-diff: repro bench-diff <old.json> <new.json> [--threshold PCT] [--force]\n  bench-degrade: repro bench-degrade <in.json> <out.json> --factor F\n  stats: repro stats --addr HOST:PORT [--reset] [--exercise] [--timeout-ms MS] [--format pretty|prom]\n  trace: repro trace --addr HOST:PORT [--last N] [--verb V] [--min-ms MS] [--exercise] [--timeout-ms MS]",
        names.join("|"),
        RUN_FLAGS.join(" "),
        BENCH_FLAGS.join(" ")
    )
}

fn valid_flags(command: &str) -> &'static [&'static str] {
    SUBCOMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .map(|(_, flags)| *flags)
        .unwrap_or(&[])
}

/// Parses a `repro` argument list (without the program name).
///
/// # Errors
///
/// A human-readable message for unknown subcommands (naming the valid
/// ones), flags a subcommand does not accept (naming its valid flags),
/// malformed values, and missing positional arguments.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter().peekable();
    let command = args.next().unwrap_or_else(|| "all".to_string());
    if !SUBCOMMANDS.iter().any(|(name, _)| *name == command) {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown subcommand `{command}` (valid: {})",
            names.join(", ")
        ));
    }
    let allowed = valid_flags(&command);

    let mut options = RunOptions::default();
    let mut fig2_instances = 12usize;
    let mut thread_counts = vec![1usize, 2, 4, 8];
    let mut quick = false;
    let mut router = false;
    let mut invocations: Option<usize> = None;
    let mut warmup: Option<usize> = None;
    let mut engines: Option<Vec<String>> = None;
    let mut suite: Option<Vec<String>> = None;
    let mut bench_counts: Option<Vec<usize>> = None;
    let mut out: Option<PathBuf> = None;
    let mut diff_options = DiffOptions::default();
    let mut factor: Option<f64> = None;
    let mut addr: Option<String> = None;
    let mut stats_reset = false;
    let mut exercise = false;
    let mut timeout_ms: Option<u64> = None;
    let mut stats_format = StatsFormat::default();
    let mut trace_last: Option<u64> = None;
    let mut trace_verb: Option<String> = None;
    let mut trace_min_ms: Option<u64> = None;
    let mut positionals: Vec<String> = Vec::new();
    // `bench` leaves scale/target/timeout/batch at the profile's values
    // (standard or --quick) unless explicitly overridden.
    let mut scale_set = false;
    let mut target_set = false;
    let mut timeout_set = false;
    let mut batch_set = false;

    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positionals.push(arg);
            continue;
        }
        if !allowed.contains(&arg.as_str()) {
            return Err(format!(
                "subcommand `{command}` does not accept `{arg}` (valid flags: {})",
                if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                }
            ));
        }
        // Flags without a value.
        match arg.as_str() {
            "--quick" => {
                quick = true;
                continue;
            }
            "--router" => {
                router = true;
                continue;
            }
            "--force" => {
                diff_options.force = true;
                continue;
            }
            "--reset" => {
                stats_reset = true;
                continue;
            }
            "--exercise" => {
                exercise = true;
                continue;
            }
            _ => {}
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {arg}"))?;
        match arg.as_str() {
            "--scale" => {
                options.scale = match value.as_str() {
                    "paper" => SuiteScale::Paper,
                    "small" => SuiteScale::Small,
                    other => return Err(format!("unknown scale `{other}`")),
                };
                scale_set = true;
            }
            "--target" => {
                options.target = value
                    .parse()
                    .map_err(|e| format!("invalid --target: {e}"))?;
                target_set = true;
            }
            "--timeout" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --timeout: {e}"))?;
                options.timeout = Duration::from_secs_f64(secs);
                timeout_set = true;
            }
            "--batch" => {
                options.batch_size = value.parse().map_err(|e| format!("invalid --batch: {e}"))?;
                batch_set = true;
            }
            "--threads" => {
                options.threads = Some(
                    value
                        .parse()
                        .map_err(|e| format!("invalid --threads: {e}"))?,
                );
            }
            "--instances" => {
                fig2_instances = value
                    .parse()
                    .map_err(|e| format!("invalid --instances: {e}"))?;
            }
            "--counts" => {
                let counts = value
                    .split(',')
                    .map(|c| c.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|e| format!("invalid --counts: {e}"))?;
                if counts.is_empty() {
                    return Err("--counts needs at least one thread count".to_string());
                }
                thread_counts.clone_from(&counts);
                bench_counts = Some(counts);
            }
            "--invocations" => {
                invocations = Some(
                    value
                        .parse()
                        .map_err(|e| format!("invalid --invocations: {e}"))?,
                );
            }
            "--warmup" => {
                warmup = Some(
                    value
                        .parse()
                        .map_err(|e| format!("invalid --warmup: {e}"))?,
                );
            }
            "--engines" => {
                engines = Some(split_list(&value, "--engines")?);
            }
            "--suite" => {
                suite = Some(split_list(&value, "--suite")?);
            }
            "--out" => {
                out = Some(PathBuf::from(value));
            }
            "--threshold" => {
                let pct: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --threshold: {e}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("invalid --threshold: `{pct}` must be >= 0"));
                }
                diff_options.threshold_pct = pct;
            }
            "--addr" => {
                addr = Some(value);
            }
            "--format" => {
                stats_format = match value.as_str() {
                    "pretty" => StatsFormat::Pretty,
                    "prom" => StatsFormat::Prom,
                    other => return Err(format!("unknown format `{other}` (valid: pretty, prom)")),
                };
            }
            "--last" => {
                trace_last = Some(value.parse().map_err(|e| format!("invalid --last: {e}"))?);
            }
            "--verb" => {
                trace_verb = Some(value);
            }
            "--min-ms" => {
                trace_min_ms = Some(
                    value
                        .parse()
                        .map_err(|e| format!("invalid --min-ms: {e}"))?,
                );
            }
            "--timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("invalid --timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("invalid --timeout-ms: must be > 0".to_string());
                }
                timeout_ms = Some(ms);
            }
            "--factor" => {
                let f: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --factor: {e}"))?;
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!("invalid --factor: `{f}` must be > 0"));
                }
                factor = Some(f);
            }
            other => unreachable!("flag `{other}` accepted but unhandled"),
        }
    }

    let expect_positionals = |want: usize, what: &str| -> Result<(), String> {
        if positionals.len() == want {
            Ok(())
        } else {
            Err(format!(
                "`{command}` takes exactly {want} positional argument(s) ({what}); got {}",
                positionals.len()
            ))
        }
    };

    match command.as_str() {
        "table2" => {
            expect_positionals(0, "")?;
            Ok(Command::Table2(options))
        }
        "fig2" => {
            expect_positionals(0, "")?;
            Ok(Command::Fig2(options, fig2_instances))
        }
        "fig3-iters" => {
            expect_positionals(0, "")?;
            Ok(Command::Fig3Iters(options))
        }
        "fig3-mem" => {
            expect_positionals(0, "")?;
            Ok(Command::Fig3Mem(options))
        }
        "fig4" | "fig4-speedup" | "fig4-ops" | "fig4-transform" => {
            expect_positionals(0, "")?;
            Ok(Command::Fig4(options))
        }
        "threads" => {
            expect_positionals(0, "")?;
            Ok(Command::Threads(options, thread_counts, out))
        }
        "serve-bench" => {
            expect_positionals(0, "")?;
            Ok(Command::ServeBench(options, out, router))
        }
        "all" => {
            expect_positionals(0, "")?;
            Ok(Command::All(options, fig2_instances))
        }
        "bench" => {
            expect_positionals(0, "")?;
            let mut config = if quick {
                BenchConfig::quick()
            } else {
                BenchConfig::default()
            };
            if scale_set {
                config.options.scale = options.scale;
            }
            if target_set {
                config.options.target = options.target;
            }
            if timeout_set {
                config.options.timeout = options.timeout;
            }
            if batch_set {
                config.options.batch_size = options.batch_size;
            }
            if let Some(i) = invocations {
                config.invocations = i;
            }
            if let Some(w) = warmup {
                config.warmup = w;
            }
            if let Some(e) = engines {
                config.engines = e;
            }
            if let Some(s) = suite {
                config.instances = s;
            }
            if let Some(c) = bench_counts {
                config.thread_counts = c;
            }
            Ok(Command::Bench { config, out })
        }
        "bench-diff" => {
            expect_positionals(2, "<old.json> <new.json>")?;
            Ok(Command::BenchDiff {
                old: PathBuf::from(&positionals[0]),
                new: PathBuf::from(&positionals[1]),
                options: diff_options,
            })
        }
        "stats" => {
            expect_positionals(0, "")?;
            Ok(Command::Stats {
                addr: addr.ok_or("stats requires --addr HOST:PORT")?,
                reset: stats_reset,
                exercise,
                timeout_ms,
                format: stats_format,
            })
        }
        "trace" => {
            expect_positionals(0, "")?;
            Ok(Command::Trace {
                addr: addr.ok_or("trace requires --addr HOST:PORT")?,
                last: trace_last,
                verb: trace_verb,
                min_ms: trace_min_ms,
                exercise,
                timeout_ms,
            })
        }
        "bench-degrade" => {
            expect_positionals(2, "<in.json> <out.json>")?;
            Ok(Command::BenchDegrade {
                input: PathBuf::from(&positionals[0]),
                output: PathBuf::from(&positionals[1]),
                factor: factor.ok_or("bench-degrade requires --factor F (e.g. 0.75)")?,
            })
        }
        _ => unreachable!("subcommand validated above"),
    }
}

fn split_list(value: &str, flag: &str) -> Result<Vec<String>, String> {
    let items: Vec<String> = value
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(format!("{flag} needs at least one comma-separated name"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn defaults_to_all() {
        assert!(matches!(parse([].into_iter()), Ok(Command::All(_, 12))));
    }

    #[test]
    fn unknown_subcommand_lists_valid_ones() {
        let err = parse_str("tabel2").unwrap_err();
        assert!(err.contains("unknown subcommand `tabel2`"), "{err}");
        assert!(err.contains("table2"), "{err}");
        assert!(err.contains("bench-diff"), "{err}");
    }

    #[test]
    fn stray_flag_names_the_valid_flags_per_subcommand() {
        // `--instances` belongs to fig2/all, not table2 — historically it
        // was silently ignored there.
        let err = parse_str("table2 --instances 3").unwrap_err();
        assert!(
            err.contains("`table2` does not accept `--instances`"),
            "{err}"
        );
        assert!(err.contains("--threads"), "lists valid flags: {err}");
        assert!(!err.contains("--instances,"), "{err}");

        // `--counts` belongs to threads/bench, not fig2.
        let err = parse_str("fig2 --counts 1,2").unwrap_err();
        assert!(err.contains("`fig2` does not accept `--counts`"), "{err}");

        // Flags never accepted anywhere are still caught.
        let err = parse_str("bench --bogus 1").unwrap_err();
        assert!(err.contains("`bench` does not accept `--bogus`"), "{err}");
        assert!(err.contains("--engines"), "{err}");
    }

    #[test]
    fn fig2_accepts_instances_and_threads_accepts_counts() {
        assert!(matches!(
            parse_str("fig2 --instances 3"),
            Ok(Command::Fig2(_, 3))
        ));
        match parse_str("threads --counts 1,2 --out /tmp/t.json").expect("parse") {
            Command::Threads(_, counts, out) => {
                assert_eq!(counts, vec![1, 2]);
                assert_eq!(out, Some(PathBuf::from("/tmp/t.json")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_str("serve-bench --out /tmp/s.json"),
            Ok(Command::ServeBench(_, Some(_), false))
        ));
        assert!(matches!(
            parse_str("serve-bench --router"),
            Ok(Command::ServeBench(_, None, true))
        ));
        assert!(
            parse_str("table2 --router").is_err(),
            "--router is a serve-bench flag only"
        );
    }

    #[test]
    fn bench_quick_profile_with_overrides() {
        let Command::Bench { config, out } =
            parse_str("bench --quick --engines gd --invocations 2 --out /tmp/x.json")
                .expect("parse")
        else {
            panic!("expected bench");
        };
        assert_eq!(config.engines, vec!["gd".to_string()]);
        assert_eq!(config.invocations, 2);
        // --quick's profile survives for everything not overridden.
        assert_eq!(config.warmup, BenchConfig::quick().warmup);
        assert_eq!(config.options.target, BenchConfig::quick().options.target);
        assert_eq!(out, Some(PathBuf::from("/tmp/x.json")));
    }

    #[test]
    fn bench_diff_requires_two_paths_and_parses_gate_flags() {
        let err = parse_str("bench-diff only-one.json").unwrap_err();
        assert!(err.contains("exactly 2"), "{err}");

        let Command::BenchDiff { old, new, options } =
            parse_str("bench-diff a.json b.json --threshold 25 --force").expect("parse")
        else {
            panic!("expected bench-diff");
        };
        assert_eq!(old, PathBuf::from("a.json"));
        assert_eq!(new, PathBuf::from("b.json"));
        assert!((options.threshold_pct - 25.0).abs() < 1e-12);
        assert!(options.force);
    }

    #[test]
    fn bench_degrade_requires_factor() {
        let err = parse_str("bench-degrade a.json b.json").unwrap_err();
        assert!(err.contains("--factor"), "{err}");
        assert!(parse_str("bench-degrade a.json b.json --factor 0").is_err());
        assert!(matches!(
            parse_str("bench-degrade a.json b.json --factor 0.75"),
            Ok(Command::BenchDegrade { factor, .. }) if (factor - 0.75).abs() < 1e-12
        ));
    }

    #[test]
    fn stats_requires_addr_and_takes_its_two_switches() {
        let err = parse_str("stats").unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        assert!(matches!(
            parse_str("stats --addr 127.0.0.1:7878"),
            Ok(Command::Stats {
                reset: false,
                exercise: false,
                ..
            })
        ));
        let Command::Stats {
            addr,
            reset,
            exercise,
            timeout_ms,
            ..
        } = parse_str("stats --addr 127.0.0.1:7878 --reset --exercise --timeout-ms 250")
            .expect("parse")
        else {
            panic!("expected stats");
        };
        assert_eq!(addr, "127.0.0.1:7878");
        assert!(reset && exercise);
        assert_eq!(timeout_ms, Some(250));
        assert!(parse_str("stats --addr x --timeout-ms 0").is_err());
        // Its flags stay scoped to it.
        let err = parse_str("table2 --addr x").unwrap_err();
        assert!(err.contains("`table2` does not accept `--addr`"), "{err}");
    }

    #[test]
    fn stats_format_defaults_pretty_and_rejects_junk() {
        assert!(matches!(
            parse_str("stats --addr x"),
            Ok(Command::Stats {
                format: StatsFormat::Pretty,
                ..
            })
        ));
        assert!(matches!(
            parse_str("stats --addr x --format prom"),
            Ok(Command::Stats {
                format: StatsFormat::Prom,
                ..
            })
        ));
        let err = parse_str("stats --addr x --format xml").unwrap_err();
        assert!(err.contains("unknown format `xml`"), "{err}");
    }

    #[test]
    fn trace_requires_addr_and_parses_filters() {
        let err = parse_str("trace").unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let Command::Trace {
            addr,
            last,
            verb,
            min_ms,
            exercise,
            timeout_ms,
        } = parse_str(
            "trace --addr 127.0.0.1:7878 --last 5 --verb sample --min-ms 2 \
             --exercise --timeout-ms 250",
        )
        .expect("parse")
        else {
            panic!("expected trace");
        };
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(last, Some(5));
        assert_eq!(verb.as_deref(), Some("sample"));
        assert_eq!(min_ms, Some(2));
        assert!(exercise);
        assert_eq!(timeout_ms, Some(250));
        // Its filters stay scoped to it.
        let err = parse_str("stats --addr x --last 3").unwrap_err();
        assert!(err.contains("`stats` does not accept `--last`"), "{err}");
        let err = parse_str("trace --addr x --format prom").unwrap_err();
        assert!(err.contains("`trace` does not accept `--format`"), "{err}");
    }

    #[test]
    fn malformed_values_error() {
        assert!(parse_str("table2 --target nope").is_err());
        assert!(parse_str("table2 --scale huge").is_err());
        assert!(parse_str("bench-diff a b --threshold -3").is_err());
        assert!(parse_str("table2 --timeout").is_err(), "missing value");
    }
}
