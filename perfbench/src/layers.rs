//! Per-layer timings taken by calling each layer's public function on the
//! workload's own instance, outside every timed end-to-end pass.

use crate::sample::request_seed;
use crate::stats::median;
use htsat_cnf::{dimacs, Cnf, Var};
use htsat_core::compile::compile;
use htsat_core::{transform, PreparedFormula, SampleStream, SamplerConfig, StopToken};
use htsat_runtime::RoundSource;
use htsat_serve::json::Json;
use htsat_serve::proto::{decode_solution, frame_chunk};
use htsat_tensor::Backend;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// GD iterations and learning rate of the sampler's default round.
const ITERATIONS: usize = 5;
const LEARNING_RATE: f32 = 10.0;

/// How much repetition a layer timing gets: a paper-scale formula costs a
/// hundred times more per call than a small one.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Calls of whole-formula stages (parse, transform, compile, round).
    pub stage: usize,
    /// Rows for the per-row descend / harden / validate timings.
    pub rows: usize,
}

/// The layer timings of one instance.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub parse_ms: f64,
    pub transform_ms: f64,
    pub compile_ms: f64,
    pub round_ms: f64,
    pub descend_us_per_row: f64,
    pub harden_us_per_row: f64,
    pub validate_us_per_row: f64,
    pub dedup_us_per_solution: f64,
    pub encode_us_per_solution: f64,
    pub decode_us_per_solution: f64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            ms(start)
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Replays recorded rounds into a [`SampleStream`], isolating its dedup
/// from the rounds that produced the candidates.
struct Replay(VecDeque<Vec<Vec<bool>>>);

impl RoundSource for Replay {
    type Item = Vec<bool>;

    fn round(&mut self, _stop: &StopToken) -> Vec<Vec<bool>> {
        self.0.pop_front().unwrap_or_default()
    }
}

/// Times every layer on `text` (the DIMACS a client LOADs) and `engine`
/// (the same formula, prepared in process).
pub fn measure(
    text: &str,
    engine: &PreparedFormula,
    seed: u64,
    reps: Reps,
) -> Result<LayerTimes, String> {
    let cnf: Cnf = dimacs::parse_str(text).map_err(|e| e.to_string())?;
    let parse_ms = median_ms(reps.stage, || dimacs::parse_str(text));
    let transform_ms = median_ms(reps.stage, || transform(&cnf));
    let transformed = engine.transform_result();
    let compiled = compile(transformed);
    let compile_ms = median_ms(reps.stage, || compile(transformed));

    // Rounds: timed as the stream runs them, and recorded for the dedup,
    // encode and decode timings below.
    let mut sampler = engine
        .sampler(SamplerConfig {
            seed,
            backend: Backend::Threads(crate::sample::THREADS),
            ..SamplerConfig::default()
        })
        .map_err(|e| e.to_string())?;
    let mut rounds = Vec::with_capacity(reps.stage);
    let mut round_times = Vec::with_capacity(reps.stage);
    for _ in 0..reps.stage {
        let start = Instant::now();
        rounds.push(sampler.sample_round());
        round_times.push(ms(start));
    }
    let round_ms = median(&round_times).unwrap_or(0.0);

    // One row at a time through the round's three phases, as the sampler
    // runs them: descend, harden (netlist re-evaluation), validate.
    let kernel = &compiled.kernel;
    let inputs = kernel.num_inputs();
    let mut workspace = kernel.workspace();
    let mut draws = 0u64;
    let (mut descend, mut harden, mut validate) = (0.0, 0.0, 0.0);
    for row_index in 0..reps.rows {
        // Logits uniform in [-2, 2], the default initialisation. A row's
        // descent cost depends on its logits, so many rows are averaged.
        let mut row: Vec<f32> = (0..inputs)
            .map(|_| {
                draws += 1;
                (request_seed(seed, draws) >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            })
            .collect();
        let start = Instant::now();
        for _ in 0..ITERATIONS {
            black_box(kernel.fused_gd_step(&mut row, LEARNING_RATE, &mut workspace));
        }
        descend += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let bits = transformed.assignment_from_inputs(
            |v: Var| compiled.column_of(v).is_some_and(|c| row[c] > 0.0),
            |v: Var| (v.index() as usize ^ row_index) & 1 == 1,
        );
        harden += start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(cnf.is_satisfied_by_bits(&bits));
        validate += start.elapsed().as_secs_f64();
    }
    let per_row_us = |seconds: f64| seconds * 1e6 / reps.rows.max(1) as f64;

    let candidates: usize = rounds.iter().map(Vec::len).sum();
    let mut dedup_times = Vec::new();
    for _ in 0..reps.stage {
        let replay = Replay(rounds.iter().cloned().collect());
        let start = Instant::now();
        let yielded = SampleStream::new(replay).with_stale_limit(1).count();
        dedup_times.push(start.elapsed().as_secs_f64() * 1e6 / yielded.max(1) as f64);
    }

    let lines: Vec<String> = rounds
        .iter()
        .enumerate()
        .map(|(seq, batch)| frame_chunk(1, seq as u64, batch).encode())
        .collect();
    let encode_ms = median_ms(reps.stage, || {
        rounds
            .iter()
            .enumerate()
            .map(|(seq, batch)| frame_chunk(1, seq as u64, batch).encode().len())
            .sum::<usize>()
    });
    let decode_ms = median_ms(reps.stage, || -> Result<usize, String> {
        let mut decoded = 0;
        for line in &lines {
            let frame = Json::parse(line).map_err(|e| e.to_string())?;
            for text in frame.get("solutions").and_then(Json::as_arr).unwrap_or(&[]) {
                decode_solution(text.as_str().unwrap_or("")).map_err(|e| e.to_string())?;
                decoded += 1;
            }
        }
        Ok(decoded)
    });
    let per_candidate_us = |ms: f64| ms * 1e3 / candidates.max(1) as f64;

    Ok(LayerTimes {
        parse_ms,
        transform_ms,
        compile_ms,
        round_ms,
        descend_us_per_row: per_row_us(descend),
        harden_us_per_row: per_row_us(harden),
        validate_us_per_row: per_row_us(validate),
        dedup_us_per_solution: median(&dedup_times).unwrap_or(0.0),
        encode_us_per_solution: per_candidate_us(encode_ms),
        decode_us_per_solution: per_candidate_us(decode_ms),
    })
}
