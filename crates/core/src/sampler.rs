//! Gradient-descent SAT sampling over the transformed circuit.
//!
//! The sampler reproduces the training loop of the paper: a batch of input
//! logits `V ∈ R^{b×n}` is embedded into probabilities with a clamped
//! sigmoid ([`htsat_tensor::ops::embed_logit`]), the probabilistic circuit
//! maps them to output probabilities, an ℓ2 loss against the constrained
//! targets is minimised with plain gradient descent (learning rate 10,
//! five iterations by default), the logits are hardened to bits, validated
//! against the *original* CNF and deduplicated.
//!
//! The inner loop runs on the fused [`htsat_tensor::FlatKernel::descend`],
//! [`LANES`] rows at a time (the DiffSampler baseline runs the same descent
//! with the plain sigmoid embedding): the descend region maps over
//! `batch.div_ceil(LANES)` blocks, and each block is transposed into a
//! per-worker lane-major
//! [`htsat_tensor::Workspace`] once, runs every iteration — embedding,
//! forward, backward, chain rule and the descent update as one pass over
//! the flat circuit layout, each CSR step moving all of the block's rows
//! through one node — and is transposed back into the persistent logit
//! matrix. Zero allocations per block, and every row ends bit-identical to
//! the one-row [`htsat_tensor::FlatKernel::fused_gd_step`]. The
//! stage-by-stage [`htsat_tensor::SoftCircuit`] computes the identical math
//! (bit for bit) and serves as the row-level oracle the kernel is checked
//! against (`htsat_bench::kernel_oracle`).
//!
//! Hardening and validation walk the circuit and the clauses once per
//! [`GROUP_ROWS`] (256) rows, one bit lane of four `u64` words per row
//! ([`CompiledCircuit::harden_rows`]): thresholded input words go
//! through the kernel's hard-logic pass
//! ([`htsat_tensor::FlatKernel::forward_words`]), every CNF variable
//! takes its driver node's words, and [`Cnf::satisfying_lanes`] checks
//! every clause for all the group's rows at once and packs only the
//! surviving rows into [`Solution`]s, by transposing the variable words 64
//! variables at a time.
//! The per-row composition
//! [`TransformResult::assignment_from_inputs`] +
//! [`Cnf::is_satisfied_by_bits`] yields the same rows and is the oracle
//! the word path is checked against (`htsat_bench::harden_oracle`).
//!
//! The primary consumption API is **streaming**: [`GdSampler::stream`]
//! returns a [`SampleStream`] — a lazy `Iterator` of unique solutions that
//! runs gradient-descent rounds on demand on the configured
//! [`Backend`], deduplicates incrementally and supports cancellation
//! (stop token) and deadlines. The blocking [`GdSampler::sample`] call is a
//! thin wrapper that collects the stream.
//!
//! A stream runs the sampler's first round in two *slices* (init, descent
//! and hardening over a range of rows): one [`LANES`]-row block per
//! worker, so a fresh session's first solutions leave after one block,
//! then the rest. Each row depends only on its round's two seeds and its
//! own index, so the solutions are the same as a whole round's, bit for bit.
//!
//! Sampling is deterministic in the seed *and independent of the thread
//! count*: every batch row draws its logits from a private RNG stream
//! derived with [`htsat_runtime::derive_stream_seed`], and rounds emit rows
//! in index order, so `Backend::Threads(1)` and `Backend::Threads(8)`
//! produce the identical solution sequence for the same seed.
//!
//! [`LANES`]: htsat_tensor::LANES
//! [`GROUP_ROWS`]: htsat_tensor::GROUP_ROWS

use crate::compile::{compile, CompiledCircuit};
use crate::transform::{transform_with_config, TransformConfig, TransformResult};
use crate::TransformError;
use htsat_cnf::{Cnf, Solution};
use htsat_runtime::{derive_stream_seed, RoundSource, SampleStream, StopToken};
use htsat_tensor::{ops, Backend, BatchMatrix, MemoryModel, GROUP_ROWS, LANES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the gradient-descent sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Number of candidate assignments learned in parallel per round.
    pub batch_size: usize,
    /// Gradient-descent iterations per round (the paper uses 5).
    pub iterations: usize,
    /// Learning rate γ (the paper uses 10). Must be positive and finite.
    pub learning_rate: f32,
    /// Execution backend for the batch dimension: `Threads(n)` workers (the
    /// GPU stand-in; `Threads(0)`, one per core, is the default and
    /// `Threads(1)` the CPU baseline).
    pub backend: Backend,
    /// Seed of the sampler's RNG (logit initialisation and free variables).
    pub seed: u64,
    /// Scale of the uniform logit initialisation `V ~ U(-s, s)`. Must be
    /// positive and finite.
    pub init_scale: f32,
    /// Options forwarded to the CNF-to-circuit transformation.
    pub transform: TransformConfig,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            batch_size: 256,
            iterations: 5,
            learning_rate: 10.0,
            backend: Backend::default(),
            seed: 0,
            init_scale: 2.0,
            transform: TransformConfig::default(),
        }
    }
}

/// The outcome of a sampling run.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Unique satisfying assignments over the original CNF variables,
    /// unpacked one `bool` per variable.
    pub solutions: Vec<Vec<bool>>,
    /// Total candidate assignments evaluated (batch size × rounds).
    pub attempts: usize,
    /// Candidates that hardened into valid (possibly duplicate) solutions.
    pub valid: usize,
    /// Number of gradient-descent rounds executed.
    pub rounds: usize,
    /// Wall-clock time of the sampling loop (excluding transformation).
    pub elapsed: Duration,
}

impl SampleReport {
    /// The smallest elapsed time [`SampleReport::throughput`] divides by:
    /// one microsecond, the resolution the repro tables report at.
    /// (Re-exported from [`htsat_runtime::MIN_MEASURABLE_TICK`], the one
    /// definition every reporting layer shares.)
    pub const MIN_MEASURABLE_TICK: Duration = htsat_runtime::MIN_MEASURABLE_TICK;

    /// Unique-solution throughput in **unique solutions per second** — the
    /// headline metric of the paper's Table II.
    ///
    /// Delegates to [`htsat_runtime::unique_throughput`], which clamps the
    /// denominator to [`SampleReport::MIN_MEASURABLE_TICK`]: a run that
    /// completes faster than the clock can resolve yields the finite upper
    /// bound `solutions / 1µs` instead of silently returning the raw
    /// solution *count* (which repro tables would then print as a rate).
    pub fn throughput(&self) -> f64 {
        htsat_runtime::unique_throughput(self.solutions.len(), self.elapsed)
    }

    /// Fraction of candidates that hardened into valid solutions.
    pub fn valid_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.valid as f64 / self.attempts as f64
    }

    /// The one blocking collector behind [`GdSampler::sample`] and
    /// [`crate::SampleEngine::sample`]: drives `stream` until
    /// `min_solutions` unique solutions are taken or it ends (deadline,
    /// stale limit, cancellation), then also delivers the unique solutions
    /// the final round call (a slice of a round, see the module docs)
    /// discovered beyond the target — they were already paid for.
    pub(crate) fn collect<S: RoundSource<Item = Solution>>(
        mut stream: SampleStream<S>,
        min_solutions: usize,
    ) -> SampleReport {
        let mut packed: Vec<Solution> = stream.by_ref().take(min_solutions).collect();
        packed.append(&mut stream.drain_ready());
        let solutions = packed.iter().map(Solution::to_bits).collect();
        let stats = *stream.stats();
        SampleReport {
            solutions,
            attempts: stats.attempts,
            valid: stats.valid,
            rounds: stats.rounds,
            elapsed: stream.elapsed(),
        }
    }
}

/// A formula carried through transformation and compilation, ready to mint
/// samplers without repeating either stage.
///
/// This is the reuse hook of the serving layer: a long-lived registry keeps
/// one `PreparedFormula` per formula fingerprint and builds a fresh
/// [`GdSampler`] per request with [`PreparedFormula::sampler`]. The
/// immutable artifacts (CNF, transform result, compiled circuit) are held
/// behind [`Arc`]s and *shared* with every minted sampler — per-request
/// cost is three reference-count bumps plus the sampler's own mutable
/// state (logit matrix, RNG, dedup set), not a copy of the circuit. The
/// minted sampler is bit-identical to one built with [`GdSampler::new`]
/// from the same CNF and configuration, so determinism survives the reuse
/// path.
#[derive(Debug, Clone)]
pub struct PreparedFormula {
    cnf: Arc<Cnf>,
    transform_config: TransformConfig,
    transform: Arc<TransformResult>,
    compiled: Arc<CompiledCircuit>,
    /// Template the engine API mints sessions from: a full [`SamplerConfig`]
    /// whose seed/backend/batch are overridden per request.
    template: SamplerConfig,
}

impl PreparedFormula {
    /// Runs the CNF-to-circuit transformation and compiles both execution
    /// forms, capturing everything a sampler needs except the run-time
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError`] if the formula is structurally
    /// unsatisfiable.
    pub fn prepare(cnf: &Cnf, transform_config: &TransformConfig) -> Result<Self, TransformError> {
        let transform = {
            let _span = htsat_obs::span!("prepare.transform");
            transform_with_config(cnf, transform_config)?
        };
        Ok(Self::from_transformed(cnf, transform_config, transform))
    }

    /// Builds a prepared formula from an already transformed netlist —
    /// the warm path of an on-disk artifact cache, where the expensive
    /// transformation was deserialized instead of re-run. Only the cheap
    /// mechanical circuit compilation happens here.
    ///
    /// The caller is responsible for `transform` actually being the result
    /// of transforming `cnf` under `transform_config`; nothing re-verifies
    /// that correspondence.
    pub fn from_transformed(
        cnf: &Cnf,
        transform_config: &TransformConfig,
        transform: TransformResult,
    ) -> Self {
        let compiled = {
            let _span = htsat_obs::span!("prepare.compile");
            compile(&transform)
        };
        PreparedFormula {
            cnf: Arc::new(cnf.clone()),
            transform_config: transform_config.clone(),
            transform: Arc::new(transform),
            compiled: Arc::new(compiled),
            template: SamplerConfig {
                transform: transform_config.clone(),
                ..SamplerConfig::default()
            },
        }
    }

    /// Sets the [`SamplerConfig`] template that
    /// [`SampleEngine::session`](crate::SampleEngine::session) mints from,
    /// for GD-specific knobs the generic [`crate::SessionConfig`] does not
    /// carry (iterations, learning rate, initialisation scale, default
    /// batch).
    ///
    /// `template.transform` is overwritten with the configuration the
    /// artifacts were actually prepared with (see
    /// [`PreparedFormula::sampler`] for why mixing them would be unsound).
    #[must_use]
    pub fn with_template(mut self, mut template: SamplerConfig) -> Self {
        template.transform = self.transform_config.clone();
        self.template = template;
        self
    }

    /// The original CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// The transformation result backing the prepared artifacts (variable
    /// classification, netlist, transformation statistics).
    pub fn transform_result(&self) -> &TransformResult {
        &self.transform
    }

    /// The transformation configuration the artifacts were built with.
    pub fn transform_config(&self) -> &TransformConfig {
        &self.transform_config
    }

    /// Number of learnable input columns of the compiled circuit.
    pub fn num_inputs(&self) -> usize {
        self.compiled.num_inputs()
    }

    /// Number of nodes of the compiled circuit.
    pub fn num_nodes(&self) -> usize {
        self.compiled.circuit.num_nodes()
    }

    /// Memory model of a sampling round at `batch` rows over `workers`
    /// pool workers — the quantity a serving registry budgets by.
    pub fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        self.compiled.memory_model(batch, workers)
    }

    /// Builds a sampler from the prepared artifacts, skipping the
    /// transformation and compilation stages entirely and sharing the
    /// artifacts by reference count (no circuit copy).
    ///
    /// `config.transform` is ignored: the artifacts were built with
    /// [`PreparedFormula::transform_config`], and silently mixing two
    /// transformation configurations would produce a sampler whose circuit
    /// does not match its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError::InvalidConfig`] for the same invalid
    /// run-time configurations [`GdSampler::new`] rejects.
    pub fn sampler(&self, mut config: SamplerConfig) -> Result<GdSampler, TransformError> {
        config.transform = self.transform_config.clone();
        validate_sampler_config(&config)?;
        Ok(GdSampler {
            cnf: self.cnf.clone(),
            transform: self.transform.clone(),
            compiled: self.compiled.clone(),
            rng: SmallRng::seed_from_u64(config.seed),
            seen: HashSet::new(),
            logits: BatchMatrix::zeros(config.batch_size, self.compiled.num_inputs()),
            cursor: None,
            last_slice: 0,
            config,
        })
    }
}

/// The paper's sampler as a [`crate::SampleEngine`]: the prepared formula
/// *is* the engine ("gd" on the wire), and a session is a freshly minted
/// [`GdSampler`] — three reference-count bumps plus the per-request mutable
/// state, no recompilation.
impl crate::SampleEngine for PreparedFormula {
    fn name(&self) -> &'static str {
        "gd"
    }

    fn cnf(&self) -> &Cnf {
        PreparedFormula::cnf(self)
    }

    fn session(
        &self,
        config: &crate::SessionConfig,
    ) -> Result<crate::BoxedSession, TransformError> {
        let mut sampler_config = self.template.clone();
        sampler_config.seed = config.seed;
        sampler_config.backend = config.backend;
        if let Some(batch) = config.batch {
            sampler_config.batch_size = batch;
        }
        Ok(Box::new(self.sampler(sampler_config)?))
    }

    fn memory_model(&self, batch: usize, workers: usize) -> MemoryModel {
        PreparedFormula::memory_model(self, batch, workers)
    }

    /// The compiled circuit's input columns and nodes, and how many of each
    /// lie in the constrained outputs' fan-in cone (the part the descent
    /// runs).
    fn artifact_dims(&self) -> Vec<(&'static str, usize)> {
        let kernel = &self.compiled.kernel;
        vec![
            ("inputs", self.num_inputs()),
            ("nodes", self.num_nodes()),
            ("cone_inputs", kernel.descend_inputs()),
            ("cone_nodes", kernel.descend_nodes()),
        ]
    }
}

/// Rejects run-time configurations that would poison or panic the sampling
/// loop (zero batch/iterations; NaN, infinite or non-positive learning rate
/// or initialisation scale).
fn validate_sampler_config(config: &SamplerConfig) -> Result<(), TransformError> {
    if config.batch_size == 0 {
        return Err(TransformError::InvalidConfig(
            "batch size must be non-zero".into(),
        ));
    }
    if config.iterations == 0 {
        return Err(TransformError::InvalidConfig(
            "iterations must be non-zero".into(),
        ));
    }
    // A NaN learning rate or scale would silently poison every logit;
    // a non-positive scale panics inside `gen_range`. Reject both here.
    if !(config.learning_rate.is_finite() && config.learning_rate > 0.0) {
        return Err(TransformError::InvalidConfig(format!(
            "learning rate must be positive and finite, got {}",
            config.learning_rate
        )));
    }
    if !(config.init_scale.is_finite() && config.init_scale > 0.0) {
        return Err(TransformError::InvalidConfig(format!(
            "init scale must be positive and finite, got {}",
            config.init_scale
        )));
    }
    Ok(())
}

/// The gradient-descent SAT sampler: transformation, compilation and the
/// batched learning loop behind one API.
pub struct GdSampler {
    cnf: Arc<Cnf>,
    transform: Arc<TransformResult>,
    compiled: Arc<CompiledCircuit>,
    config: SamplerConfig,
    rng: SmallRng,
    seen: HashSet<Solution>,
    /// The batch logit matrix, allocated once and reused every round: the
    /// fused kernel updates it in place, so the GD inner loop performs no
    /// per-row (or per-iteration) allocations.
    logits: BatchMatrix,
    /// The round in progress, `None` between rounds.
    cursor: Option<RoundCursor>,
    /// Rows the last slice ran; zero until the first slice runs.
    last_slice: usize,
}

/// A round in progress: the seeds it drew at its start, and its next row.
#[derive(Debug, Clone, Copy)]
struct RoundCursor {
    round_seed: u64,
    free_seed: u64,
    next: usize,
}

impl GdSampler {
    /// Builds a sampler for `cnf`: runs the CNF-to-circuit transformation and
    /// compiles the differentiable circuit (both the reference form and the
    /// flat fused kernel).
    ///
    /// # Errors
    ///
    /// Returns a [`TransformError`] if the formula is structurally
    /// unsatisfiable or the configuration is invalid (zero batch size or
    /// iterations; NaN, infinite or non-positive learning rate or
    /// initialisation scale).
    pub fn new(cnf: &Cnf, config: SamplerConfig) -> Result<Self, TransformError> {
        validate_sampler_config(&config)?;
        PreparedFormula::prepare(cnf, &config.transform)?.sampler(config)
    }

    /// The transformation result backing this sampler.
    pub fn transform_result(&self) -> &TransformResult {
        &self.transform
    }

    /// The sampler configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Memory model of one sampling round at `batch` rows over the
    /// configured backend's workers — the quantity plotted in the paper's
    /// Fig. 3 (right); the same model as [`PreparedFormula::memory_model`].
    pub fn memory_model_for_batch(&self, batch: usize) -> MemoryModel {
        let workers = self.config.backend.effective_threads();
        self.compiled.memory_model(batch, workers)
    }

    /// Runs one gradient-descent round and returns the valid (but not
    /// deduplicated) hardened assignments, unpacked.
    ///
    /// Compatibility shim for the benchmark in `perfbench/`, which still
    /// reads `Vec<bool>` rounds; deleted when the benchmark moves to
    /// [`Solution`] (ROADMAP.md, item 7). Everything else runs
    /// [`GdSampler::sample_round_cancellable`].
    pub fn sample_round(&mut self) -> Vec<Vec<bool>> {
        self.sample_round_cancellable(&StopToken::new())
            .iter()
            .map(Solution::to_bits)
            .collect()
    }

    /// Finishes the round in progress, or runs a whole new one, and returns
    /// its valid (but not deduplicated) hardened assignments, polling `stop`
    /// before every gradient-descent iteration of each block and per
    /// hardened [`GROUP_ROWS`]-row group, and returning early (with an
    /// empty or partial batch) once it is set.
    pub fn sample_round_cancellable(&mut self, stop: &StopToken) -> Vec<Solution> {
        self.slice(stop, self.config.batch_size)
    }

    /// Runs the round in progress, or a new one, up to row `end`. A stopped
    /// slice is dropped like a stopped round: its rows never come back.
    fn slice(&mut self, stop: &StopToken, end: usize) -> Vec<Solution> {
        let n = self.compiled.num_inputs();
        let scale = self.config.init_scale;
        let backend = self.config.backend;
        // Two master draws per round, the logit seed and then the free seed;
        // every row then owns a private RNG stream, so the initialisation
        // (and therefore the produced samples) is a function of (seed, row)
        // alone — not of the thread count or of how the round is sliced.
        let mut cursor = self.cursor.take().unwrap_or_else(|| RoundCursor {
            round_seed: self.rng.gen(),
            free_seed: self.rng.gen(),
            next: 0,
        });
        let rows = cursor.next..end;
        cursor.next = end;
        self.cursor = (end < self.config.batch_size).then_some(cursor);
        self.last_slice = rows.len();
        {
            let _span = htsat_obs::span!("engine.gd.init");
            backend.for_each_row(self.logits.row_range_mut(rows.clone()), n, |b, row| {
                let seed = derive_stream_seed(cursor.round_seed, rows.start + b);
                let mut row_rng = SmallRng::seed_from_u64(seed);
                for v in row.iter_mut() {
                    *v = row_rng.gen_range(-scale..=scale);
                }
            });
        }

        // The fused hot path: one parallel region runs every row's whole
        // gradient-descent trajectory (rows are independent), LANES rows per
        // block.
        {
            let _span = htsat_obs::span!("engine.gd.descend");
            self.compiled.kernel.descend(
                self.logits.row_range_mut(rows.clone()),
                backend,
                self.config.learning_rate,
                self.config.iterations,
                || stop.is_stopped(),
                ops::embed_logit,
            );
        }
        if stop.is_stopped() {
            return Vec::new();
        }

        // Harden, reconstruct full assignments and validate against the
        // CNF, one group of rows per task; valid rows only, in row order.
        let _span = htsat_obs::span!("engine.gd.harden");
        let groups = backend.map_indices(rows.len().div_ceil(GROUP_ROWS), |group| {
            if stop.is_stopped() {
                return Vec::new();
            }
            let first = rows.start + group * GROUP_ROWS;
            let group = first..end.min(first + GROUP_ROWS);
            self.compiled
                .harden_rows(&self.cnf, &self.logits, group, cursor.free_seed)
        });
        groups
            .into_iter()
            .flatten()
            .map(|(_, solution)| solution)
            .collect()
    }

    /// Returns a lazy stream of unique solutions, borrowing the sampler.
    ///
    /// The stream runs gradient-descent rounds on demand and deduplicates
    /// incrementally — including against solutions returned by previous
    /// `sample`/`stream` calls on this sampler. Deadlines, stale-round
    /// limits and an external stop token can be attached with the
    /// [`SampleStream`] builder methods:
    ///
    /// ```
    /// # use htsat_cnf::{Cnf, Solution};
    /// # use htsat_core::{GdSampler, SamplerConfig};
    /// # let mut cnf = Cnf::new(3);
    /// # cnf.add_dimacs_clause([1, 2, 3]);
    /// # let mut sampler = GdSampler::new(&cnf, SamplerConfig::default())?;
    /// let solutions: Vec<Solution> = sampler.stream().take(3).collect();
    /// assert_eq!(solutions.len(), 3);
    /// # Ok::<(), htsat_core::TransformError>(())
    /// ```
    pub fn stream(&mut self) -> SampleStream<&mut GdSampler> {
        SampleStream::new(self)
    }

    /// Consumes the sampler into an owning stream of unique solutions.
    ///
    /// Like [`GdSampler::stream`] but `'static`: the stream can be moved to
    /// another thread or stored, which is what a long-lived sampling service
    /// needs.
    pub fn into_stream(self) -> SampleStream<GdSampler> {
        SampleStream::new(self)
    }

    /// Samples until at least `min_solutions` unique solutions are collected
    /// or `timeout` elapses, whichever comes first.
    ///
    /// This is a thin wrapper that collects [`GdSampler::stream`]: it drives
    /// the stream until the target is met, the deadline passes, or eight
    /// consecutive rounds stop producing new solutions (a formula with fewer
    /// solutions than the target would otherwise burn the whole timeout
    /// re-discovering known models). Unique solutions discovered by the
    /// final round beyond `min_solutions` are included, and solutions found
    /// in previous calls are remembered, so repeated calls keep extending
    /// the unique set.
    pub fn sample(&mut self, min_solutions: usize, timeout: Duration) -> SampleReport {
        SampleReport::collect(self.stream().with_timeout(timeout), min_solutions)
    }
}

/// A [`GdSampler`] is a round source for the runtime's streaming service:
/// one round call runs one cancellable slice of a gradient-descent batch
/// (the first round in two, see the module docs), and the sampler's
/// cross-call dedup memory is lent to the stream for its lifetime.
impl RoundSource for GdSampler {
    type Item = Solution;

    fn round(&mut self, stop: &StopToken) -> Vec<Solution> {
        let batch = self.config.batch_size;
        let end = match self.last_slice {
            0 => batch.min(LANES * self.config.backend.effective_threads()),
            _ => batch,
        };
        self.slice(stop, end)
    }

    fn round_size(&self) -> usize {
        self.last_slice
    }

    fn take_seen(&mut self) -> HashSet<Solution> {
        std::mem::take(&mut self.seen)
    }

    fn restore_seen(&mut self, seen: HashSet<Solution>) {
        self.seen = seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsat_cnf::dimacs;
    use htsat_instances::suite::{table2_instance, SuiteScale};
    use htsat_tensor::GROUP_WORDS;

    fn mux_constrained_cnf() -> Cnf {
        // x5 = MUX(x4; x2, x3) with x5 = 1 and x4 = ¬x1.
        dimacs::parse_str(
            "p cnf 5 7\n\
             -1 -4 0\n1 4 0\n\
             -4 -2 5 0\n-4 2 -5 0\n4 -3 5 0\n4 3 -5 0\n\
             5 0\n",
        )
        .expect("valid DIMACS")
    }

    #[test]
    fn sampler_finds_valid_solutions() {
        let cnf = mux_constrained_cnf();
        let mut sampler = GdSampler::new(&cnf, SamplerConfig::default()).expect("build");
        let report = sampler.sample(4, Duration::from_secs(10));
        assert!(!report.solutions.is_empty());
        for s in &report.solutions {
            assert!(cnf.is_satisfied_by_bits(s));
        }
        assert!(report.valid_rate() > 0.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn solutions_are_unique() {
        let cnf = mux_constrained_cnf();
        let mut sampler = GdSampler::new(&cnf, SamplerConfig::default()).expect("build");
        let report = sampler.sample(8, Duration::from_secs(10));
        let set: HashSet<&Vec<bool>> = report.solutions.iter().collect();
        assert_eq!(set.len(), report.solutions.len());
    }

    #[test]
    fn repeated_sampling_does_not_return_duplicates() {
        let cnf = mux_constrained_cnf();
        let mut sampler = GdSampler::new(&cnf, SamplerConfig::default()).expect("build");
        let first = sampler.sample(4, Duration::from_secs(5));
        let second = sampler.sample(4, Duration::from_secs(5));
        for s in &second.solutions {
            assert!(!first.solutions.contains(s), "duplicate across calls");
        }
    }

    #[test]
    fn sequential_and_parallel_backends_both_work() {
        let cnf = mux_constrained_cnf();
        for backend in [Backend::Threads(1), Backend::Threads(2)] {
            let config = SamplerConfig {
                backend,
                batch_size: 64,
                ..SamplerConfig::default()
            };
            let mut sampler = GdSampler::new(&cnf, config).expect("build");
            let report = sampler.sample(2, Duration::from_secs(10));
            assert!(!report.solutions.is_empty(), "backend {backend:?}");
        }
    }

    /// A formula whose GD rounds harden into both valid and invalid rows:
    /// the MUX constraint plus an XOR-chain constraint that five weak
    /// descent steps often miss, over a universe with unused (free)
    /// variables 11–14.
    fn mixed_validity_sampler(batch_size: usize, threads: usize, seed: u64) -> GdSampler {
        let cnf = dimacs::parse_str(
            "p cnf 14 15\n\
             -1 -4 0\n1 4 0\n\
             -4 -2 5 0\n-4 2 -5 0\n4 -3 5 0\n4 3 -5 0\n\
             5 0\n\
             -6 -7 -8 0\n6 7 -8 0\n6 -7 8 0\n-6 7 8 0\n\
             -8 -9 -10 0\n8 9 -10 0\n8 -9 10 0\n-8 9 10 0\n\
             10 0\n",
        )
        .expect("valid DIMACS");
        let config = SamplerConfig {
            batch_size,
            seed,
            learning_rate: 0.5,
            backend: Backend::Threads(threads),
            ..SamplerConfig::default()
        };
        GdSampler::new(&cnf, config).expect("build")
    }

    /// Re-derives a finished round's output from the logits it left in
    /// `sampler.logits`, row by row through the scalar oracle:
    /// `assignment_from_inputs` then `is_satisfied_by_bits`.
    fn scalar_round(sampler: &GdSampler, free_seed: u64) -> Vec<Vec<bool>> {
        let compiled = &sampler.compiled;
        (0..sampler.config.batch_size)
            .filter_map(|b| {
                let row = sampler.logits.row(b);
                let bits = sampler.transform.assignment_from_inputs(
                    |v| compiled.column_of(v).is_some_and(|c| row[c] > 0.0),
                    |v| crate::compile::free_value(free_seed, b, v),
                );
                sampler.cnf.is_satisfied_by_bits(&bits).then_some(bits)
            })
            .collect()
    }

    /// Re-derives row `b`'s post-descent logits from its init stream
    /// through the one-lane kernel: `iterations` calls of `fused_gd_step`.
    fn scalar_descent(sampler: &GdSampler, round_seed: u64, b: usize) -> Vec<u32> {
        let kernel = &sampler.compiled.kernel;
        let SamplerConfig {
            init_scale,
            iterations,
            learning_rate,
            ..
        } = sampler.config;
        let mut rng = SmallRng::seed_from_u64(derive_stream_seed(round_seed, b));
        let mut row: Vec<f32> = (0..kernel.num_inputs())
            .map(|_| rng.gen_range(-init_scale..=init_scale))
            .collect();
        let mut ws = kernel.workspace();
        for _ in 0..iterations {
            kernel.fused_gd_step(&mut row, learning_rate, &mut ws);
        }
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn word_rounds_match_the_scalar_oracle_at_word_boundaries() {
        let (mut valid, mut attempts) = (0, 0);
        for threads in [1, 3] {
            for batch in [1, 15, 16, 17, 33, 63, 64, 65, 130, 255, 256, 257, 300, 513] {
                let mut sampler = mixed_validity_sampler(batch, threads, batch as u64);
                for round in 0..4 {
                    // The round draws its logit seed, then its free seed.
                    let mut rng = sampler.rng.clone();
                    let logit_seed: u64 = rng.gen();
                    let free_seed: u64 = rng.gen();
                    let rows = sampler.sample_round();
                    // Descent in LANES-row blocks leaves every row where the
                    // one-lane kernel takes it, block boundaries included.
                    for b in 0..batch {
                        let block: Vec<u32> =
                            sampler.logits.row(b).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            block,
                            scalar_descent(&sampler, logit_seed, b),
                            "threads {threads}, batch {batch}, round {round}, row {b}"
                        );
                    }
                    assert_eq!(
                        rows,
                        scalar_round(&sampler, free_seed),
                        "threads {threads}, batch {batch}, round {round}"
                    );
                    valid += rows.len();
                    attempts += batch;
                }
            }
        }
        // Both verdicts occur, so the mask is checked in both directions.
        assert!(0 < valid && valid < attempts, "{valid} of {attempts} valid");
    }

    #[test]
    fn each_round_at_batch_64_is_a_prefix_of_the_round_at_batch_130() {
        // Rows depend only on (seed, row), so extra rows only append.
        for threads in [1, 3] {
            let mut small = mixed_validity_sampler(64, threads, 11);
            let mut large = mixed_validity_sampler(130, threads, 11);
            for round in 0..2 {
                let (small, large) = (small.sample_round(), large.sample_round());
                assert!(
                    large.len() > small.len() && large.starts_with(&small),
                    "threads {threads}, round {round}"
                );
            }
        }
    }

    /// Rows each round call of a fresh sampler runs: one lane block per
    /// worker, then the rest of the first round, then whole rounds.
    fn call_sizes(batch: usize, threads: usize) -> impl Iterator<Item = usize> {
        let first = batch.min(LANES * threads);
        [first, batch - first]
            .into_iter()
            .filter(|&rows| rows > 0)
            .chain(std::iter::repeat(batch))
    }

    /// `rounds` whole rounds of `sampler`, deduplicated in order.
    fn whole_rounds(sampler: &mut GdSampler, rounds: usize) -> Vec<Solution> {
        let mut seen = HashSet::new();
        (0..rounds)
            .flat_map(|_| sampler.sample_round_cancellable(&StopToken::new()))
            .filter(|solution| seen.insert(solution.clone()))
            .collect()
    }

    const SLICE_BATCHES: [usize; 8] = [1, 31, 32, 33, 64, 65, 256, 300];

    #[test]
    fn the_first_round_call_runs_one_lane_block_per_worker() {
        for threads in [1, 3] {
            for batch in SLICE_BATCHES {
                let mut sampler = mixed_validity_sampler(batch, threads, 3);
                let sizes: Vec<usize> = (0..3)
                    .map(|_| {
                        sampler.round(&StopToken::new());
                        sampler.round_size()
                    })
                    .collect();
                let expected: Vec<usize> = call_sizes(batch, threads).take(3).collect();
                assert_eq!(sizes, expected, "threads {threads}, batch {batch}");

                let mut sampler = mixed_validity_sampler(batch, threads, 3);
                let mut stream = sampler.stream();
                stream.next();
                let stats = *stream.stats();
                let attempts: usize = call_sizes(batch, threads).take(stats.rounds).sum();
                assert_eq!(stats.attempts, attempts, "threads {threads}, batch {batch}");
            }
        }
    }

    #[test]
    fn a_stream_yields_its_whole_rounds_deduplicated_in_order() {
        for threads in [1, 3] {
            for batch in SLICE_BATCHES {
                let label = format!("threads {threads}, batch {batch}");
                let split = batch > LANES * threads;
                // After the split first round every call is a whole round.
                let whole = |calls: usize| calls.saturating_sub(usize::from(split));
                let mut sampler = mixed_validity_sampler(batch, threads, 5);
                let mut stream = sampler.stream();
                let mut items = Vec::new();
                while whole(stream.stats().rounds) < 4 {
                    let Some(first) = stream.next() else { break };
                    items.push(first);
                    items.append(&mut stream.drain_ready());
                }
                let stats = *stream.stats();
                let attempts: usize = call_sizes(batch, threads).take(stats.rounds).sum();
                assert_eq!(stats.attempts, attempts, "{label}");
                drop(stream);
                let mut reference = mixed_validity_sampler(batch, threads, 5);
                let expected = whole_rounds(&mut reference, whole(stats.rounds));
                assert_eq!(items, expected, "{label}");
            }
        }
    }

    #[test]
    fn a_first_round_cut_short_finishes_in_the_next_stream() {
        for threads in [1, 3] {
            for batch in SLICE_BATCHES {
                let label = format!("threads {threads}, batch {batch}");
                let mut sampler = mixed_validity_sampler(batch, threads, 9);
                // The first stream makes one call, found something or not.
                let mut items: Vec<Solution> = {
                    let mut stream = sampler.stream().with_stale_limit(1);
                    let mut items: Vec<Solution> = stream.next().into_iter().collect();
                    items.append(&mut stream.drain_ready());
                    assert_eq!(stream.stats().rounds, 1, "{label}");
                    items
                };
                let mut stream = sampler.stream();
                while stream.stats().rounds < 2 {
                    let Some(first) = stream.next() else { break };
                    items.push(first);
                    items.append(&mut stream.drain_ready());
                }
                let stats = *stream.stats();
                // The second stream's first call finishes the first round.
                let attempts: usize = call_sizes(batch, threads).skip(1).take(stats.rounds).sum();
                assert_eq!(stats.attempts, attempts, "{label}");
                drop(stream);
                let split = batch > LANES * threads;
                let mut reference = mixed_validity_sampler(batch, threads, 9);
                let expected = whole_rounds(&mut reference, stats.rounds + usize::from(!split));
                assert_eq!(items, expected, "{label}");
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cnf = mux_constrained_cnf();
        let rejected = |config: SamplerConfig| {
            matches!(
                GdSampler::new(&cnf, config),
                Err(TransformError::InvalidConfig(_))
            )
        };
        assert!(rejected(SamplerConfig {
            batch_size: 0,
            ..SamplerConfig::default()
        }));
        assert!(rejected(SamplerConfig {
            iterations: 0,
            ..SamplerConfig::default()
        }));
        // A NaN learning rate or init scale silently poisons every logit; a
        // non-positive init scale panics inside gen_range. All rejected.
        for learning_rate in [f32::NAN, 0.0, -1.0, f32::INFINITY] {
            assert!(
                rejected(SamplerConfig {
                    learning_rate,
                    ..SamplerConfig::default()
                }),
                "learning_rate {learning_rate} must be rejected"
            );
        }
        for init_scale in [f32::NAN, 0.0, -2.0, f32::NEG_INFINITY] {
            assert!(
                rejected(SamplerConfig {
                    init_scale,
                    ..SamplerConfig::default()
                }),
                "init_scale {init_scale} must be rejected"
            );
        }
    }

    #[test]
    fn throughput_is_finite_when_elapsed_rounds_to_zero() {
        let report = SampleReport {
            solutions: vec![vec![true]; 5],
            attempts: 5,
            valid: 5,
            rounds: 1,
            elapsed: Duration::ZERO,
        };
        // Clamped to the minimum measurable tick (1µs): an upper bound in
        // solutions *per second*, never the raw count.
        let expected = 5.0 / SampleReport::MIN_MEASURABLE_TICK.as_secs_f64();
        assert!((report.throughput() - expected).abs() < 1e-3);
        assert!(report.throughput().is_finite());
    }

    #[test]
    fn memory_model_scales_with_batch() {
        let cnf = mux_constrained_cnf();
        let sampler = GdSampler::new(&cnf, SamplerConfig::default()).expect("build");
        let small = sampler.memory_model_for_batch(100).total_bytes();
        let large = sampler.memory_model_for_batch(10_000).total_bytes();
        assert!(large > small);
        // The sampler and the prepared formula budget by one formula.
        let prepared =
            PreparedFormula::prepare(&cnf, &TransformConfig::default()).expect("prepare");
        let workers = sampler.config().backend.effective_threads();
        for batch in [100, 10_000] {
            assert_eq!(
                sampler.memory_model_for_batch(batch),
                prepared.memory_model(batch, workers)
            );
        }
    }

    #[test]
    fn memory_model_counts_the_block_workspace_the_descend_region_builds() {
        // The MUX formula's cone is its whole circuit; small `s15850a_3_2`'s
        // is a part of it, so its workspace holds only the cone.
        let partial = table2_instance("s15850a_3_2", SuiteScale::Small).expect("instance");
        for (cnf, whole_cone) in [(mux_constrained_cnf(), true), (partial.cnf, false)] {
            let prepared =
                PreparedFormula::prepare(&cnf, &TransformConfig::default()).expect("prepare");
            let kernel = &prepared.compiled.kernel;
            let block = kernel.lane_workspace::<LANES>();
            for batch in [1, 256] {
                assert_eq!(
                    prepared.memory_model(batch, 1).workspace_bytes(),
                    block.bytes() as u64
                );
            }
            assert_eq!(kernel.descend_nodes() == prepared.num_nodes(), whole_cone);
            assert_eq!(kernel.descend_inputs() == prepared.num_inputs(), whole_cone);
        }
    }

    #[test]
    fn memory_model_counts_the_hard_pass_group_each_worker_holds() {
        // One group of words per input column, node and variable, per
        // worker, whatever the batch.
        let instance = table2_instance("s15850a_3_2", SuiteScale::Small).expect("instance");
        let prepared =
            PreparedFormula::prepare(&instance.cnf, &TransformConfig::default()).expect("prepare");
        let held = prepared.num_inputs() + prepared.num_nodes() + instance.cnf.num_vars();
        let group_bytes = (GROUP_WORDS * held * 8) as u64;
        for (batch, workers) in [(1, 1), (256, 1), (513, 3)] {
            let model = prepared.memory_model(batch, workers);
            assert_eq!(model.hard_bytes(), workers as u64 * group_bytes);
            let parts = model.persistent_bytes() + model.workspace_bytes() + model.hard_bytes();
            assert_eq!(model.total_bytes(), parts);
        }
    }

    #[test]
    fn prepared_formula_mints_bit_identical_samplers() {
        let cnf = mux_constrained_cnf();
        let prepared =
            PreparedFormula::prepare(&cnf, &TransformConfig::default()).expect("prepare");
        for threads in [1usize, 4] {
            let config = SamplerConfig {
                batch_size: 64,
                seed: 99,
                backend: Backend::Threads(threads),
                ..SamplerConfig::default()
            };
            // The reuse path (no transform/compile) must reproduce the exact
            // solution sequence of the from-scratch path.
            let mut fresh = GdSampler::new(&cnf, config.clone()).expect("fresh");
            let mut minted = prepared.sampler(config).expect("minted");
            let from_scratch: Vec<Solution> = fresh.stream().take(6).collect();
            let reused: Vec<Solution> = minted.stream().take(6).collect();
            assert_eq!(from_scratch, reused, "threads={threads}");
        }
        assert_eq!(
            prepared.num_inputs(),
            prepared.memory_model(1, 1).num_inputs
        );
        assert!(prepared.num_nodes() > 0);
        assert!(prepared.memory_model(256, 4).total_bytes() > 0);
    }

    #[test]
    fn preparing_records_a_transform_and_a_compile_span() {
        let count = |name| htsat_obs::global().histogram(name).count();
        let (transforms, compiles) = (count("prepare.transform"), count("prepare.compile"));
        PreparedFormula::prepare(&mux_constrained_cnf(), &TransformConfig::default())
            .expect("prepare");
        // Other tests may prepare concurrently, so the counts only grow.
        assert!(count("prepare.transform") > transforms);
        assert!(count("prepare.compile") > compiles);
    }

    #[test]
    fn prepared_formula_rejects_invalid_runtime_configs() {
        let cnf = mux_constrained_cnf();
        let prepared =
            PreparedFormula::prepare(&cnf, &TransformConfig::default()).expect("prepare");
        let invalid = SamplerConfig {
            batch_size: 0,
            ..SamplerConfig::default()
        };
        assert!(matches!(
            prepared.sampler(invalid),
            Err(TransformError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unconstrained_formula_samples_diverse_assignments() {
        // Four free variables (single tautology-free loose clause each).
        let mut cnf = Cnf::new(4);
        cnf.add_dimacs_clause([1, 2, 3, 4]);
        let config = SamplerConfig {
            batch_size: 128,
            ..SamplerConfig::default()
        };
        let mut sampler = GdSampler::new(&cnf, config).expect("build");
        let report = sampler.sample(8, Duration::from_secs(10));
        assert!(
            report.solutions.len() >= 8,
            "found {}",
            report.solutions.len()
        );
    }
}
