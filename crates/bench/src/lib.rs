//! # htsat-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section:
//!
//! | Paper artifact | Harness entry point | `repro` subcommand |
//! |---|---|---|
//! | Table II (throughput + speedups) | [`table2`] | `table2` |
//! | Fig. 2 (latency vs unique solutions) | [`fig2`] | `fig2` |
//! | Fig. 3 left (solutions vs iterations) | [`fig3_iterations`] | `fig3-iters` |
//! | Fig. 3 right (memory vs batch size) | [`fig3_memory`] | `fig3-mem` |
//! | Fig. 4 (parallel-vs-serial speedup, ops reduction, transformation time) | [`fig4`] | `fig4` |
//!
//! Absolute numbers differ from the paper (our "GPU" is the `htsat-runtime`
//! thread pool, our baselines are re-implementations), but the comparisons
//! the paper draws — who wins, by how much, and how the trends scale — are
//! reproduced.
//!
//! Beyond the figure reproductions, the [`harness`] module is a statistical
//! bench runner (interleaved invocations, warmup/timing separation,
//! min/median/mean/CI summaries) that records machine-readable
//! `BENCH_<host>_<date>.json` perf-trajectory artifacts; `repro bench` runs
//! it, `repro bench-diff` gates one artifact against another (CI's
//! regression gate), and `repro bench-degrade` injects synthetic
//! regressions to prove the gate fires. The [`cli`] module owns `repro`
//! argument parsing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;

use htsat_baselines::engine_by_name;
use htsat_cnf::{Cnf, Solution};
use htsat_core::compile::{self, CompiledCircuit};
use htsat_core::{
    transform, GdSampler, PreparedFormula, SampleEngine, SamplerConfig, SessionConfig,
    TransformConfig, TransformError, TransformResult,
};
use htsat_instances::suite::{full_suite, table2_instances, SuiteScale};
use htsat_instances::Instance;
use htsat_runtime::derive_stream_seed;
use htsat_tensor::{Backend, BatchMatrix, GROUP_ROWS, LANES};
use std::time::Duration;

/// Options shared by every experiment runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Instance scale (shrunk for quick runs, paper-sized otherwise).
    pub scale: SuiteScale,
    /// Target number of unique solutions per instance.
    pub target: usize,
    /// Per-sampler, per-instance timeout.
    pub timeout: Duration,
    /// Batch size of the gradient-descent samplers.
    pub batch_size: usize,
    /// Worker threads for the gradient-descent sampler: `Some(0)` sizes the
    /// pool to the machine, `Some(n)` pins it, `None` uses the default
    /// backend (also auto-sized).
    pub threads: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: SuiteScale::Small,
            target: 200,
            timeout: Duration::from_secs(3),
            batch_size: 512,
            threads: None,
        }
    }
}

impl RunOptions {
    /// The backend the gradient-descent sampler runs on under these options.
    #[must_use]
    pub fn gd_backend(&self) -> Backend {
        match self.threads {
            Some(n) => Backend::Threads(n),
            None => Backend::default(),
        }
    }
}

/// One sampler's result on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerResult {
    /// Sampler name.
    pub sampler: &'static str,
    /// Unique solutions found.
    pub unique: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Unique-solution throughput (solutions / second).
    pub throughput: f64,
}

/// One row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Instance name.
    pub instance: String,
    /// Primary-input count reported by the transformation.
    pub primary_inputs: usize,
    /// Primary-output / constrained-output count.
    pub primary_outputs: usize,
    /// CNF variable count.
    pub vars: usize,
    /// CNF clause count.
    pub clauses: usize,
    /// Per-sampler results, "this work" first.
    pub results: Vec<SamplerResult>,
    /// Speedup of "this work" over the best baseline.
    pub speedup: f64,
}

fn gd_config(options: &RunOptions, backend: Backend) -> SamplerConfig {
    SamplerConfig {
        batch_size: options.batch_size,
        backend,
        ..SamplerConfig::default()
    }
}

/// Prepares the paper's sampler as a [`SampleEngine`] with the harness
/// options (batch size) installed as the session template.
pub(crate) fn gd_engine(
    instance: &Instance,
    options: &RunOptions,
    backend: Backend,
) -> Result<PreparedFormula, TransformError> {
    Ok(
        PreparedFormula::prepare(&instance.cnf, &TransformConfig::default())?
            .with_template(gd_config(options, backend)),
    )
}

/// Runs one engine on one instance — THE measurement loop every comparison
/// in this harness goes through, whether the engine is the GD sampler or a
/// baseline. `build` runs *inside* the timed window, matching the
/// historical measurement (engine preparation counted against the sampler,
/// as a one-shot CLI run would pay it). `count_surplus` preserves the
/// historical counting: the GD rows always included the final round's
/// surplus beyond the target, the baseline rows stopped exactly at it.
pub(crate) fn run_engine(
    build: impl FnOnce() -> Result<Box<dyn SampleEngine>, TransformError>,
    label: &'static str,
    options: &RunOptions,
    backend: Backend,
    count_surplus: bool,
) -> SamplerResult {
    let started = std::time::Instant::now();
    let config = SessionConfig {
        seed: 0,
        backend,
        batch: None,
    };
    let unique = match build().and_then(|engine| engine.stream(&config)) {
        Ok(stream) => {
            let mut stream = stream.with_timeout(options.timeout);
            let consumed = stream.by_ref().take(options.target).count();
            if count_surplus {
                consumed + stream.drain_ready().len()
            } else {
                consumed
            }
        }
        Err(_) => 0,
    };
    let elapsed = started.elapsed();
    SamplerResult {
        sampler: label,
        unique,
        elapsed,
        throughput: htsat_runtime::unique_throughput(unique, elapsed),
    }
}

/// Runs the GD engine on one instance (the "this-work" rows).
fn run_gd(instance: &Instance, options: &RunOptions, backend: Backend) -> SamplerResult {
    run_engine(
        || gd_engine(instance, options, backend).map(|e| Box::new(e) as Box<dyn SampleEngine>),
        "this-work",
        options,
        backend,
        true,
    )
}

/// Runs a baseline engine (by canonical name) on one instance.
fn run_named_engine(
    name: &'static str,
    instance: &Instance,
    options: &RunOptions,
) -> SamplerResult {
    run_engine(
        || engine_by_name(name, &instance.cnf, &TransformConfig::default()),
        name,
        options,
        options.gd_backend(),
        false,
    )
}

/// The baseline engines of the Table II comparison, in table order.
const TABLE2_BASELINES: [&str; 3] = ["unigen", "cmsgen", "diffsampler"];

/// The full baseline roster of the Fig. 2 comparison.
const FIG2_BASELINES: [&str; 5] = ["unigen", "cmsgen", "diffsampler", "quicksampler", "walksat"];

/// Reproduces Table II: unique-solution throughput of this work against the
/// UniGen-, CMSGen- and DiffSampler-style baselines on the 14 representative
/// instances.
pub fn table2(options: &RunOptions) -> Vec<Table2Row> {
    table2_instances(options.scale)
        .iter()
        .map(|instance| table2_row(instance, options))
        .collect()
}

/// Runs the Table II measurement for a single instance.
pub fn table2_row(instance: &Instance, options: &RunOptions) -> Table2Row {
    let transform_result = transform(&instance.cnf).ok();
    let (pi, po) = transform_result
        .as_ref()
        .map(|t| (t.primary_inputs().len(), t.netlist.outputs().len()))
        .unwrap_or((0, 0));
    // One loop over engines instead of a special case per sampler: the GD
    // engine ("this-work") first, then every Table II baseline through the
    // identical measurement path.
    let mut results = vec![run_gd(instance, options, options.gd_backend())];
    for name in TABLE2_BASELINES {
        results.push(run_named_engine(name, instance, options));
    }
    let ours = results[0].throughput;
    let best_baseline = results[1..]
        .iter()
        .map(|r| r.throughput)
        .fold(0.0f64, f64::max);
    Table2Row {
        instance: instance.name.clone(),
        primary_inputs: pi,
        primary_outputs: po,
        vars: instance.num_vars(),
        clauses: instance.num_clauses(),
        results,
        speedup: if best_baseline > 0.0 {
            ours / best_baseline
        } else {
            f64::INFINITY
        },
    }
}

/// One point of the Fig. 2 latency-vs-solutions curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Point {
    /// Instance name.
    pub instance: String,
    /// Sampler name.
    pub sampler: &'static str,
    /// Unique solutions obtained.
    pub unique: usize,
    /// Latency in milliseconds.
    pub latency_ms: f64,
}

/// Reproduces Fig. 2: runtime versus number of unique solutions across the
/// full suite (or its first `max_instances` entries) for every sampler.
pub fn fig2(options: &RunOptions, max_instances: usize) -> Vec<Fig2Point> {
    let mut points = Vec::new();
    for instance in full_suite(options.scale).into_iter().take(max_instances) {
        let gd = run_gd(&instance, options, options.gd_backend());
        points.push(Fig2Point {
            instance: instance.name.clone(),
            sampler: "this-work",
            unique: gd.unique,
            latency_ms: gd.elapsed.as_secs_f64() * 1e3,
        });
        for name in FIG2_BASELINES {
            let r = run_named_engine(name, &instance, options);
            points.push(Fig2Point {
                instance: instance.name.clone(),
                sampler: r.sampler,
                unique: r.unique,
                latency_ms: r.elapsed.as_secs_f64() * 1e3,
            });
        }
    }
    points
}

/// The four instances used by the paper's Fig. 3 / Fig. 4 ablations.
pub fn ablation_instances(scale: SuiteScale) -> Vec<Instance> {
    ["or-100-20-8-UC-10", "90-10-10-q", "s15850a_15_7", "Prod-32"]
        .iter()
        .filter_map(|name| htsat_instances::suite::table2_instance(name, scale))
        .collect()
}

/// One point of the Fig. 3 (left) learning curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3IterPoint {
    /// Instance name.
    pub instance: String,
    /// Number of gradient-descent iterations.
    pub iterations: usize,
    /// Unique solutions obtained from one batch.
    pub unique: usize,
}

/// Reproduces Fig. 3 (left): unique solutions versus iteration count.
pub fn fig3_iterations(options: &RunOptions, max_iterations: usize) -> Vec<Fig3IterPoint> {
    let mut points = Vec::new();
    for instance in ablation_instances(options.scale) {
        for iterations in 1..=max_iterations {
            let config = SamplerConfig {
                batch_size: options.batch_size,
                iterations,
                ..SamplerConfig::default()
            };
            let unique = match GdSampler::new(&instance.cnf, config) {
                Ok(mut sampler) => {
                    let mut set = std::collections::HashSet::new();
                    for bits in sampler.sample_round() {
                        set.insert(bits);
                    }
                    set.len()
                }
                Err(_) => 0,
            };
            points.push(Fig3IterPoint {
                instance: instance.name.clone(),
                iterations,
                unique,
            });
        }
    }
    points
}

/// One point of the Fig. 3 (right) memory curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3MemPoint {
    /// Instance name.
    pub instance: String,
    /// Batch size.
    pub batch: usize,
    /// Modelled memory usage in MiB.
    pub memory_mib: f64,
}

/// Reproduces Fig. 3 (right): memory usage versus batch size.
pub fn fig3_memory(options: &RunOptions, batches: &[usize]) -> Vec<Fig3MemPoint> {
    let mut points = Vec::new();
    for instance in ablation_instances(options.scale) {
        if let Ok(sampler) = GdSampler::new(&instance.cnf, gd_config(options, options.gd_backend()))
        {
            for &batch in batches {
                points.push(Fig3MemPoint {
                    instance: instance.name.clone(),
                    batch,
                    memory_mib: sampler.memory_model_for_batch(batch).total_mib(),
                });
            }
        }
    }
    points
}

/// One row of the Fig. 4 ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Instance name.
    pub instance: String,
    /// Throughput with the data-parallel ("GPU") backend.
    pub parallel_throughput: f64,
    /// Throughput with the sequential ("CPU") backend.
    pub sequential_throughput: f64,
    /// Parallel-over-sequential speedup (Fig. 4 left).
    pub speedup: f64,
    /// Ops-reduction ratio of the transformation (Fig. 4 middle).
    pub ops_reduction: f64,
    /// Share of the circuit's nodes in the constrained outputs' fan-in
    /// cone, the part the descent runs (`0..=1`).
    pub cone_share: f64,
    /// Transformation latency in seconds (Fig. 4 right).
    pub transform_seconds: f64,
}

/// Reproduces Fig. 4: backend speedup, ops reduction and transformation time
/// for the four ablation instances.
pub fn fig4(options: &RunOptions) -> Vec<Fig4Row> {
    ablation_instances(options.scale)
        .iter()
        .map(|instance| {
            let parallel = run_gd(instance, options, options.gd_backend());
            let sequential = run_gd(instance, options, Backend::Threads(1));
            let stats = transform(&instance.cnf)
                .map(|t| {
                    let cone = t.netlist.constrained_cone();
                    let in_cone = cone.iter().filter(|&&c| c).count();
                    (
                        t.stats.ops_reduction(),
                        t.stats.transform_time.as_secs_f64(),
                        in_cone as f64 / cone.len().max(1) as f64,
                    )
                })
                .unwrap_or((0.0, 0.0, 0.0));
            Fig4Row {
                instance: instance.name.clone(),
                parallel_throughput: parallel.throughput,
                sequential_throughput: sequential.throughput,
                speedup: if sequential.throughput > 0.0 {
                    parallel.throughput / sequential.throughput
                } else {
                    f64::INFINITY
                },
                ops_reduction: stats.0,
                cone_share: stats.2,
                transform_seconds: stats.1,
            }
        })
        .collect()
}

/// One measurement of the thread-scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadsPoint {
    /// Instance name.
    pub instance: String,
    /// Worker-thread count of the sampler's pool.
    pub threads: usize,
    /// Unique solutions obtained.
    pub unique: usize,
    /// Unique-solution throughput (solutions / second).
    pub throughput: f64,
}

/// Runs the gradient-descent sampler on the ablation instances at each
/// requested worker-thread count — the backend's scaling curve, and the
/// measurement behind `docs/BASELINES.md`.
pub fn threads_sweep(options: &RunOptions, counts: &[usize]) -> Vec<ThreadsPoint> {
    let mut points = Vec::new();
    for instance in ablation_instances(options.scale) {
        for &threads in counts {
            let result = run_gd(&instance, options, Backend::Threads(threads));
            points.push(ThreadsPoint {
                instance: instance.name.clone(),
                threads,
                unique: result.unique,
                throughput: result.throughput,
            });
        }
    }
    points
}

/// One measured leg of the daemon round-trip benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchLeg {
    /// What the leg measured.
    pub label: String,
    /// Client-observed round-trip latency in milliseconds.
    pub round_trip_ms: f64,
    /// Unique solutions carried back over the wire (0 for `LOAD` legs).
    pub unique: usize,
}

/// The outcome of [`serve_bench`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Instance the daemon served.
    pub instance: String,
    /// The measured legs, in execution order.
    pub legs: Vec<ServeBenchLeg>,
    /// Engine preparations the daemon performed (must stay
    /// [`ServeBenchReport::EXPECTED_COMPILES`]: one per loaded engine — the
    /// warm legs ride the registry hit path).
    pub compiles: u64,
    /// Whether every daemon `SAMPLE` reproduced the in-process engine
    /// stream bit-for-bit: the GD engine at 1 and 8 threads, plus a
    /// baseline engine (`walksat`) over the wire.
    pub deterministic: bool,
}

impl ServeBenchReport {
    /// Engine preparations a clean run performs: one GD compile plus one
    /// walksat preparation. Anything more means a warm leg recompiled.
    pub const EXPECTED_COMPILES: u64 = 2;
}

/// Round-trips the daemon on a loopback ephemeral port: cold `LOAD`
/// (parse + transform + compile), warm re-`LOAD` (registry hit), warm
/// `SAMPLE`s at 1 and 8 worker threads whose solution sequences are checked
/// bit-for-bit against the in-process streaming API, and a baseline-engine
/// leg (`"engine": "walksat"`) checked the same way against the in-process
/// adapter.
///
/// This is both a latency benchmark (what does the wire cost over calling
/// the library directly?) and the CI loopback end-to-end gate.
pub fn serve_bench(options: &RunOptions) -> ServeBenchReport {
    use htsat_serve::{serve, ServeConfig};

    let server = serve(ServeConfig::default()).expect("bind loopback daemon");
    let (instance, legs, deterministic, mut client) = drive_wire_legs(options, server.local_addr());
    let compiles = server.registry().counters().compiles;
    client.shutdown().expect("graceful shutdown");
    ServeBenchReport {
        instance,
        legs,
        compiles,
        deterministic,
    }
}

/// [`serve_bench`] with every wire leg driven through an `htsat-router`
/// fronting two daemons that joined via the `REGISTER` heartbeat: same
/// legs, same bit-for-bit determinism checks, now measured across the
/// extra hop. `compiles` sums both backend registries, so
/// [`ServeBenchReport::EXPECTED_COMPILES`] still applies — each engine's
/// preparation happens exactly once somewhere in the fleet.
pub fn serve_bench_routed(options: &RunOptions) -> ServeBenchReport {
    use htsat_router::{route, RouterConfig};
    use htsat_serve::{serve, ServeConfig};
    use std::time::{Duration, Instant};

    let router = route(RouterConfig::default()).expect("bind loopback router");
    let router_addr = router.local_addr().to_string();
    let backends: Vec<htsat_serve::ServerHandle> = (0..2)
        .map(|_| {
            let config = ServeConfig {
                register: Some(router_addr.clone()),
                ..Default::default()
            };
            serve(config).expect("bind loopback backend")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.discovery().live().len() < backends.len() {
        assert!(
            Instant::now() < deadline,
            "backends never registered with the router"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (instance, legs, deterministic, mut client) = drive_wire_legs(options, router.local_addr());
    let compiles = backends
        .iter()
        .map(|backend| backend.registry().counters().compiles)
        .sum();
    // One SHUTDOWN through the router broadcasts to the daemons, then
    // stops the router itself — the graceful-tree teardown path.
    client.shutdown().expect("tree shutdown");
    ServeBenchReport {
        instance,
        legs,
        compiles,
        deterministic,
    }
}

/// Runs the measured wire legs against any daemon-compatible address (a
/// daemon or a router): cold and warm `LOAD`, warm `SAMPLE`s at 1 and 8
/// worker threads, the walksat A/B leg, and the pipelined v2 leg. Returns
/// the instance name, the legs, the bit-for-bit verdict, and the
/// still-open client so the caller can read compile counters before
/// shutting the tree down.
fn drive_wire_legs(
    options: &RunOptions,
    addr: std::net::SocketAddr,
) -> (String, Vec<ServeBenchLeg>, bool, htsat_serve::Client) {
    use htsat_serve::proto::SampleParams;
    use htsat_serve::Client;
    use std::time::Instant;

    let instance = htsat_instances::suite::table2_instance("or-60-20-10-UC-10", options.scale)
        .expect("table2 instance exists");
    let dimacs_text = htsat_cnf::dimacs::to_string(&instance.cnf);
    let mut client = Client::connect(addr).expect("connect");
    let mut legs = Vec::new();

    let started = Instant::now();
    let load = client
        .load_dimacs(Some(&instance.name), &dimacs_text)
        .expect("cold load");
    legs.push(ServeBenchLeg {
        label: "LOAD cold (parse+transform+compile)".to_string(),
        round_trip_ms: started.elapsed().as_secs_f64() * 1e3,
        unique: 0,
    });
    assert!(!load.cached, "first load cannot be cached");

    let started = Instant::now();
    let reload = client
        .load_dimacs(Some(&instance.name), &dimacs_text)
        .expect("warm load");
    legs.push(ServeBenchLeg {
        label: "LOAD warm (registry hit)".to_string(),
        round_trip_ms: started.elapsed().as_secs_f64() * 1e3,
        unique: 0,
    });
    assert!(reload.cached, "second load must hit the registry");

    let seed = 0xBEEF;
    let mut deterministic = true;
    for threads in [1usize, 8] {
        // In-process reference sequence for the same seed and thread count.
        let config = SamplerConfig {
            seed,
            backend: Backend::Threads(threads),
            ..SamplerConfig::default()
        };
        let mut reference = GdSampler::new(&instance.cnf, config).expect("reference sampler");
        let expected: Vec<Solution> = reference.stream().take(options.target).collect();

        let started = Instant::now();
        let reply = client
            .sample(&SampleParams {
                n: options.target,
                seed,
                threads: Some(threads),
                ..SampleParams::new(load.fingerprint)
            })
            .expect("warm sample");
        legs.push(ServeBenchLeg {
            label: format!("SAMPLE warm, {threads} thread(s)"),
            round_trip_ms: started.elapsed().as_secs_f64() * 1e3,
            unique: reply.solutions.len(),
        });
        deterministic &= reply.solutions == expected;
    }

    // A/B leg: the same formula served by a baseline engine over the wire,
    // checked bit-for-bit against the in-process adapter — the engine API's
    // acceptance gate.
    let walksat_n = options.target.min(16);
    let walksat = engine_by_name("walksat", &instance.cnf, &TransformConfig::default())
        .expect("walksat engine");
    let expected: Vec<Solution> = walksat
        .stream(&SessionConfig::with_seed(seed))
        .expect("walksat stream")
        .take(walksat_n)
        .collect();
    let started = Instant::now();
    let load = client
        .load_dimacs_engine(Some(&instance.name), "walksat", &dimacs_text)
        .expect("load walksat engine");
    let reply = client
        .sample(&SampleParams {
            n: walksat_n,
            seed,
            threads: Some(1),
            ..SampleParams::with_engine(load.fingerprint, "walksat")
        })
        .expect("walksat sample");
    legs.push(ServeBenchLeg {
        label: "LOAD+SAMPLE engine=walksat (A/B vs gd)".to_string(),
        round_trip_ms: started.elapsed().as_secs_f64() * 1e3,
        unique: reply.solutions.len(),
    });
    deterministic &= reply.solutions == expected;

    // Protocol v2 leg: upgrade the connection and run two chunked SAMPLEs
    // pipelined on it, draining their interleaved frames round-robin. Each
    // reassembled stream must stay bit-identical to its in-process
    // reference — the multiplexed framing is not allowed to cost
    // determinism (or much latency).
    client.hello().expect("protocol v2 negotiation");
    let pipelined_n = options.target.min(32);
    let references: Vec<Vec<Solution>> = (0..2u64)
        .map(|lane| {
            let config = SamplerConfig {
                seed: seed + 1 + lane,
                backend: Backend::Threads(1),
                ..SamplerConfig::default()
            };
            let mut reference =
                GdSampler::new(&instance.cnf, config).expect("pipelined reference sampler");
            reference.stream().take(pipelined_n).collect()
        })
        .collect();
    let started = Instant::now();
    let mut lanes: Vec<(u64, Vec<Solution>, bool)> = (0..2u64)
        .map(|lane| {
            let id = client
                .sample_start(&SampleParams {
                    n: pipelined_n,
                    seed: seed + 1 + lane,
                    threads: Some(1),
                    ..SampleParams::new(load.fingerprint)
                })
                .expect("start pipelined sample");
            (id, Vec::new(), false)
        })
        .collect();
    let mut open = lanes.len();
    while open > 0 {
        for (id, solutions, done) in &mut lanes {
            if *done {
                continue;
            }
            match client.sample_next(*id).expect("pipelined sample frame") {
                htsat_serve::SampleEvent::Batch(batch) => solutions.extend(batch),
                htsat_serve::SampleEvent::Done(_) => {
                    *done = true;
                    open -= 1;
                }
            }
        }
    }
    legs.push(ServeBenchLeg {
        label: "SAMPLE x2 pipelined (v2 chunked)".to_string(),
        round_trip_ms: started.elapsed().as_secs_f64() * 1e3,
        unique: lanes.iter().map(|(_, s, _)| s.len()).sum(),
    });
    for (lane, reference) in references.iter().enumerate() {
        deterministic &= &lanes[lane].1 == reference;
    }

    (instance.name, legs, deterministic, client)
}

/// Rows the kernel oracle replays: two full [`LANES`]-row blocks and a
/// partial third.
const ORACLE_ROWS: usize = 2 * LANES + 1;

/// Descent iterations the kernel oracle replays per row (the paper's 5).
const ORACLE_ITERATIONS: usize = 5;

/// Row-level oracle for the sampler's fused inner loop: replays 33
/// deterministic logit rows for 5 descent steps through the block entry
/// point the sampler's descend region runs
/// ([`htsat_tensor::FlatKernel::fused_gd_block`], [`LANES`] rows per block:
/// two full blocks and a partial one) and, independently, through the
/// staged composition on the reference [`htsat_tensor::SoftCircuit`]
/// (embed with [`ops::embed_logit`], loss and input gradient with
/// `loss_and_grad_single`, chain rule through
/// [`ops::sigmoid_grad_from_output`], descend). After every iteration each
/// row's loss and logits must agree bit for bit.
///
/// Returns the first row whose loss or logits diverge, or `None` when the
/// two forms agree everywhere.
///
/// [`ops::embed_logit`]: htsat_tensor::ops::embed_logit
/// [`ops::sigmoid_grad_from_output`]: htsat_tensor::ops::sigmoid_grad_from_output
pub fn kernel_oracle(compiled: &CompiledCircuit, learning_rate: f32) -> Option<usize> {
    use htsat_tensor::ops;
    let n = compiled.num_inputs();
    // Logits spread over the sampler's default initialisation range.
    let mut fused = BatchMatrix::from_fn(ORACLE_ROWS, n, |row, j| {
        ((row * 31 + j * 7) % 41) as f32 / 10.0 - 2.0
    });
    let mut staged = fused.clone();
    let mut workspace = compiled.kernel.lane_workspace::<LANES>();
    let mut losses = [0.0f64; ORACLE_ROWS];
    let mut probs = vec![0.0f32; n];
    let mut grad = vec![0.0f32; n];
    let mut diverged = [false; ORACLE_ROWS];
    for _ in 0..ORACLE_ITERATIONS {
        for first in (0..ORACLE_ROWS).step_by(LANES) {
            let rows = LANES.min(ORACLE_ROWS - first);
            let block = &mut fused.as_mut_slice()[first * n..(first + rows) * n];
            let loss = compiled.kernel.fused_gd_block(
                block,
                learning_rate,
                1,
                || false,
                ops::embed_logit,
                &mut workspace,
            );
            losses[first..first + rows].copy_from_slice(&loss[..rows]);
        }
        for (row, diverged) in diverged.iter_mut().enumerate() {
            let logits = staged.row_mut(row);
            for (p, &v) in probs.iter_mut().zip(logits.iter()) {
                *p = ops::embed_logit(v);
            }
            let staged_loss = compiled.circuit.loss_and_grad_single(&probs, &mut grad);
            for ((v, &g), &p) in logits.iter_mut().zip(&grad).zip(&probs) {
                *v -= learning_rate * (g * ops::sigmoid_grad_from_output(p));
            }
            *diverged |= losses[row].to_bits() != staged_loss.to_bits()
                || fused
                    .row(row)
                    .iter()
                    .zip(staged.row(row))
                    .any(|(a, b)| a.to_bits() != b.to_bits());
        }
    }
    diverged.iter().position(|&d| d)
}

/// Rows the harden oracle replays: a full [`GROUP_ROWS`]-row group, then
/// a partial one of two full 64-row words and a partial third.
const HARDEN_ORACLE_ROWS: usize = GROUP_ROWS + 130;

/// Row-level oracle for the sampler's group-parallel hardening: replays
/// 386 deterministic logit rows through
/// [`CompiledCircuit::harden_rows`] (as a full group and a partial one,
/// then the first group as a first slice cuts it: one [`LANES`]-row block
/// and the rest) and, independently, through the scalar composition
/// the sampler ran before words existed —
/// [`TransformResult::assignment_from_inputs`] with inputs read through
/// [`CompiledCircuit::column_of`] and free variables from
/// [`compile::free_value`], then [`Cnf::is_satisfied_by_bits`].
///
/// Even rows are first descended 5 steps through the fused kernel, as a
/// sampler round would, so that most of them harden into solutions; odd
/// rows keep their raw initialisation, sprinkled with `0.0`, `-0.0` and
/// NaN logits, so that most of them do not. A row counts as agreeing when
/// both paths give it the same validity and, if valid, the same bits.
///
/// Returns the first row on which the two paths disagree (or that a
/// range's hard pass returns from outside the range), or `None`.
pub fn harden_oracle(
    cnf: &Cnf,
    transform: &TransformResult,
    compiled: &CompiledCircuit,
    learning_rate: f32,
) -> Option<usize> {
    let edge_values = [0.0, -0.0, f32::NAN];
    let mut logits = BatchMatrix::from_fn(HARDEN_ORACLE_ROWS, compiled.num_inputs(), |row, j| {
        let h = derive_stream_seed(row as u64, j);
        if row % 2 == 1 && h.is_multiple_of(8) {
            edge_values[(h >> 3) as usize % edge_values.len()]
        } else {
            (h >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
        }
    });
    let mut workspace = compiled.kernel.workspace();
    for row in (0..HARDEN_ORACLE_ROWS).step_by(2) {
        for _ in 0..ORACLE_ITERATIONS {
            compiled
                .kernel
                .fused_gd_step(logits.row_mut(row), learning_rate, &mut workspace);
        }
    }
    let free_seed = 0x5eed_f4ee;
    let scalar: Vec<Option<Vec<bool>>> = (0..HARDEN_ORACLE_ROWS)
        .map(|row| {
            let values = logits.row(row);
            let bits = transform.assignment_from_inputs(
                |v| compiled.column_of(v).is_some_and(|c| values[c] > 0.0),
                |v| compile::free_value(free_seed, row, v),
            );
            cnf.is_satisfied_by_bits(&bits).then_some(bits)
        })
        .collect();
    let ranges = [
        0..GROUP_ROWS,
        GROUP_ROWS..HARDEN_ORACLE_ROWS,
        0..LANES,
        LANES..GROUP_ROWS,
    ];
    ranges.into_iter().find_map(|rows| {
        let mut hardened = compiled
            .harden_rows(cnf, &logits, rows.clone(), free_seed)
            .into_iter()
            .peekable();
        rows.into_iter()
            .find(|&row| {
                let word = hardened
                    .next_if(|(r, _)| *r == row)
                    .map(|(_, solution)| solution.to_bits());
                scalar[row] != word
            })
            .or_else(|| hardened.next().map(|(row, _)| row))
    })
}

/// Formats the Table II rows as a text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>6} {:>6} {:>8} {:>9} {:>14} {:>12} {:>12} {:>14} {:>9}\n",
        "instance",
        "PI",
        "PO",
        "vars",
        "clauses",
        "this-work",
        "unigen",
        "cmsgen",
        "diffsampler",
        "speedup"
    ));
    for row in rows {
        let t = |name: &str| {
            row.results
                .iter()
                .find(|r| r.sampler.contains(name))
                .map(|r| r.throughput)
                .unwrap_or(0.0)
        };
        out.push_str(&format!(
            "{:<20} {:>6} {:>6} {:>8} {:>9} {:>14.1} {:>12.1} {:>12.1} {:>14.1} {:>8.1}x\n",
            row.instance,
            row.primary_inputs,
            row.primary_outputs,
            row.vars,
            row.clauses,
            t("this-work"),
            t("unigen"),
            t("cmsgen"),
            t("diffsampler"),
            row.speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> RunOptions {
        RunOptions {
            scale: SuiteScale::Small,
            target: 20,
            timeout: Duration::from_millis(500),
            batch_size: 64,
            threads: None,
        }
    }

    #[test]
    fn table2_row_produces_all_samplers() {
        let instance = htsat_instances::suite::table2_instance("90-10-10-q", SuiteScale::Small)
            .expect("exists");
        let row = table2_row(&instance, &quick_options());
        assert_eq!(row.results.len(), 4);
        assert_eq!(row.results[0].sampler, "this-work");
        assert!(row.vars > 0 && row.clauses > 0);
    }

    #[test]
    fn ablation_instances_resolve() {
        assert_eq!(ablation_instances(SuiteScale::Small).len(), 4);
    }

    #[test]
    fn gd_backend_reflects_thread_option() {
        let mut options = quick_options();
        assert_eq!(options.gd_backend(), Backend::default());
        options.threads = Some(2);
        assert_eq!(options.gd_backend(), Backend::Threads(2));
    }

    #[test]
    fn streaming_and_blocking_paths_find_solutions() {
        let instance = htsat_instances::suite::table2_instance("90-10-10-q", SuiteScale::Small)
            .expect("exists");
        let options = quick_options();
        let streamed = run_gd(&instance, &options, options.gd_backend());
        let config = gd_config(&options, options.gd_backend());
        let blocking = GdSampler::new(&instance.cnf, config)
            .expect("build")
            .sample(options.target, options.timeout);
        assert!(streamed.unique > 0);
        assert!(!blocking.solutions.is_empty());
    }

    #[test]
    fn threads_sweep_produces_a_point_per_instance_and_count() {
        let points = threads_sweep(&quick_options(), &[1, 2]);
        assert_eq!(points.len(), 4 * 2);
        assert!(points.iter().all(|p| p.threads == 1 || p.threads == 2));
    }

    #[test]
    fn fig3_memory_is_monotone_in_batch() {
        let points = fig3_memory(&quick_options(), &[100, 1_000, 10_000]);
        for chunk in points.chunks(3) {
            assert!(chunk[0].memory_mib < chunk[1].memory_mib);
            assert!(chunk[1].memory_mib < chunk[2].memory_mib);
        }
    }

    #[test]
    fn fig3_iterations_produces_points_for_each_instance() {
        let points = fig3_iterations(&quick_options(), 2);
        assert_eq!(points.len(), 4 * 2);
    }

    #[test]
    fn format_table2_contains_instance_names() {
        let instance =
            htsat_instances::suite::table2_instance("or-50-10-7-UC-10", SuiteScale::Small)
                .expect("exists");
        let rows = vec![table2_row(&instance, &quick_options())];
        let text = format_table2(&rows);
        assert!(text.contains("or-50-10-7-UC-10"));
        assert!(text.contains("speedup"));
    }
}
