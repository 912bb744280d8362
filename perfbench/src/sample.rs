//! One closed-loop request at each depth — an in-process stream session or
//! a chunked v2 `SAMPLE` — and the output checks every request must pass.

use htsat_cnf::{Cnf, Fingerprint};
use htsat_core::{PreparedFormula, SampleEngine, SessionConfig, StreamStats};
use htsat_obs::trace::{self, TraceId};
use htsat_serve::proto::SampleParams;
use htsat_serve::{Client, SampleEvent};
use htsat_tensor::Backend;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Unique solutions every request asks for.
pub const N: usize = 512;

/// Worker threads of every request: two threads on the two-core reference
/// host gave run-to-run spreads wider than any useful bound.
pub const THREADS: usize = 1;

/// What one request delivered and how long it took.
#[derive(Debug)]
pub struct Outcome {
    pub solutions: Vec<Vec<bool>>,
    pub stats: StreamStats,
    /// Issue to the first solution (first `chunk` frame on the wire).
    pub first: Duration,
    /// Issue to the last solution (the terminal `done` frame on the wire).
    pub total: Duration,
}

/// Per-request seed `index` of a workload seed (SplitMix64 finaliser), so
/// one workload seed fixes every request.
pub fn request_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z = workload_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where requests go.
pub enum Target<'a> {
    /// A fresh [`SampleEngine::stream`] session per request.
    InProc(&'a PreparedFormula),
    /// A chunked v2 `SAMPLE` on one connection.
    Wire(&'a mut Client, Fingerprint),
}

impl Target<'_> {
    /// Issues one request for [`N`] unique solutions. With `trace` set, the
    /// request records a span timeline (on the wire, in the daemon's ring).
    pub fn issue(&mut self, seed: u64, trace: Option<TraceId>) -> Result<Outcome, String> {
        match self {
            Target::InProc(engine) => inproc_request(engine, seed, trace),
            Target::Wire(client, fingerprint) => {
                client.set_trace(trace);
                let outcome = wire_request(client, *fingerprint, seed);
                client.set_trace(None);
                outcome
            }
        }
    }
}

fn inproc_request(
    engine: &PreparedFormula,
    seed: u64,
    trace_id: Option<TraceId>,
) -> Result<Outcome, String> {
    let handle = trace_id.and_then(|id| trace::start(id, trace::span_name("sample"), 0));
    let scope = handle.map(trace::install);
    let started = Instant::now();
    let config = SessionConfig {
        seed,
        backend: Backend::Threads(THREADS),
        batch: None,
    };
    let mut stream = engine.stream(&config).map_err(|e| e.to_string())?;
    // The same chunking loop the daemon's worker runs, so the in-process
    // sequence is the one the wire must reproduce.
    let mut solutions = Vec::with_capacity(N);
    let mut first = None;
    while solutions.len() < N {
        let batch = stream.next_batch(N - solutions.len());
        if batch.is_empty() {
            break;
        }
        first.get_or_insert_with(|| started.elapsed());
        solutions.extend(batch);
    }
    let stats = *stream.stats();
    drop(stream);
    let total = started.elapsed();
    drop(scope);
    if let Some(handle) = handle {
        trace::finish(handle, None);
    }
    Ok(Outcome {
        solutions,
        stats,
        first: first.unwrap_or(total),
        total,
    })
}

fn wire_request(
    client: &mut Client,
    fingerprint: Fingerprint,
    seed: u64,
) -> Result<Outcome, String> {
    let params = SampleParams {
        n: N,
        seed,
        threads: Some(THREADS),
        ..SampleParams::new(fingerprint)
    };
    let started = Instant::now();
    let id = client.sample_start(&params).map_err(|e| e.to_string())?;
    let mut solutions = Vec::with_capacity(N);
    let mut first = None;
    loop {
        match client.sample_next(id).map_err(|e| e.to_string())? {
            SampleEvent::Batch(batch) => {
                first.get_or_insert_with(|| started.elapsed());
                solutions.extend(batch);
            }
            SampleEvent::Done(done) => {
                let total = started.elapsed();
                return Ok(Outcome {
                    solutions,
                    stats: done.stats,
                    first: first.unwrap_or(total),
                    total,
                });
            }
        }
    }
}

/// The checks every delivered request passes: exactly [`N`] solutions,
/// each satisfying the CNF, none repeated within the request.
pub fn check(cnf: &Cnf, solutions: &[Vec<bool>]) -> Result<(), String> {
    if solutions.len() != N {
        return Err(format!("{} of {N} solutions", solutions.len()));
    }
    let mut seen = HashSet::with_capacity(solutions.len());
    for (i, bits) in solutions.iter().enumerate() {
        if bits.len() != cnf.num_vars() || !cnf.is_satisfied_by_bits(bits) {
            return Err(format!("solution {i} does not satisfy the CNF"));
        }
        if !seen.insert(bits) {
            return Err(format!("solution {i} repeats an earlier one"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seeds_are_fixed_by_the_workload_seed() {
        assert_eq!(request_seed(7, 3), request_seed(7, 3));
        assert_ne!(request_seed(7, 3), request_seed(7, 4));
        assert_ne!(request_seed(7, 3), request_seed(8, 3));
    }

    #[test]
    fn check_rejects_short_invalid_and_repeated_outputs() {
        let mut cnf = Cnf::new(10);
        cnf.add_dimacs_clause([1, 2]);
        let valid = |i: usize| -> Vec<bool> { (0..10).map(|b| (i >> b) & 1 == 1).collect() };
        // Indices 1..=512 all set var 1 or var 2 except multiples of 4.
        let good: Vec<Vec<bool>> = (0..1024)
            .filter(|i| i % 4 != 0)
            .take(N)
            .map(valid)
            .collect();
        assert_eq!(check(&cnf, &good), Ok(()));
        assert!(check(&cnf, &good[1..]).is_err());
        let mut repeated = good.clone();
        repeated[5] = repeated[4].clone();
        assert!(check(&cnf, &repeated).unwrap_err().contains("repeats"));
        let mut invalid = good;
        invalid[0] = valid(0);
        assert!(check(&cnf, &invalid).unwrap_err().contains("satisfy"));
    }
}
