//! Streaming-sampler integration tests: thread-count determinism and
//! cancellation.
//!
//! The contract under test is the headline property of the runtime
//! subsystem: for a fixed seed the sampler emits the *identical* solution
//! sequence at any worker-thread count (per-row RNG streams +
//! an order-preserving backend), and a stream stops promptly when its stop
//! token fires.

use htsat_cnf::{dimacs, Cnf};
use htsat_core::{GdSampler, SampleStream, SamplerConfig, StopToken};
use htsat_tensor::Backend;
use std::time::{Duration, Instant};

/// A loosely constrained formula with plenty of distinct solutions.
fn roomy_cnf() -> Cnf {
    dimacs::parse_str(
        "p cnf 8 4\n\
         1 2 3 0\n\
         -3 4 5 0\n\
         6 7 8 0\n\
         -1 -6 2 0\n",
    )
    .expect("valid DIMACS")
}

fn config_with(backend: Backend) -> SamplerConfig {
    SamplerConfig {
        batch_size: 64,
        backend,
        seed: 7,
        ..SamplerConfig::default()
    }
}

fn first_solutions(backend: Backend, take: usize) -> Vec<Vec<bool>> {
    let cnf = roomy_cnf();
    let mut sampler = GdSampler::new(&cnf, config_with(backend)).expect("build");
    sampler
        .stream()
        .with_timeout(Duration::from_secs(30))
        .take(take)
        .map(|s| s.to_bits())
        .collect()
}

#[test]
fn determinism_same_seed_same_solutions_at_thread_counts_1_2_8() {
    let reference = first_solutions(Backend::Threads(1), 24);
    assert_eq!(reference.len(), 24, "reference run found too few solutions");
    for threads in [2usize, 8] {
        let solutions = first_solutions(Backend::Threads(threads), 24);
        // Not just the same *set*: the same sequence, because rounds emit
        // rows in index order regardless of scheduling.
        assert_eq!(
            solutions, reference,
            "thread count {threads} changed the sampled solutions"
        );
    }
}

#[test]
fn determinism_sequential_backend_matches_the_pool() {
    let reference = first_solutions(Backend::Threads(4), 16);
    assert_eq!(first_solutions(Backend::Threads(1), 16), reference);
}

#[test]
fn blocking_sample_is_a_wrapper_over_the_same_stream() {
    let cnf = roomy_cnf();
    let streamed = first_solutions(Backend::Threads(2), 12);
    let mut sampler = GdSampler::new(&cnf, config_with(Backend::Threads(2))).expect("build");
    let report = sampler.sample(12, Duration::from_secs(30));
    assert!(report.solutions.len() >= 12);
    assert_eq!(report.solutions[..12], streamed[..]);
    for s in &report.solutions {
        assert!(cnf.is_satisfied_by_bits(s));
    }
}

#[test]
fn stream_dedups_across_calls_like_sample() {
    let cnf = roomy_cnf();
    let mut sampler = GdSampler::new(&cnf, config_with(Backend::Threads(2))).expect("build");
    let first: Vec<Vec<bool>> = sampler.stream().take(8).map(|s| s.to_bits()).collect();
    let second: Vec<Vec<bool>> = sampler.stream().take(8).map(|s| s.to_bits()).collect();
    for s in &second {
        assert!(
            !first.contains(s),
            "stream repeated a solution across calls"
        );
    }
}

#[test]
fn cancellation_stops_the_stream_promptly() {
    let cnf = roomy_cnf();
    // A large batch so a round is non-trivial work.
    let config = SamplerConfig {
        batch_size: 4096,
        backend: Backend::Threads(2),
        seed: 11,
        ..SamplerConfig::default()
    };
    let mut sampler = GdSampler::new(&cnf, config).expect("build");
    let mut stream = sampler.stream();
    let token: StopToken = stream.stop_token();
    assert!(stream.next().is_some(), "stream should produce solutions");
    token.stop();
    let stopped_at = Instant::now();
    assert_eq!(stream.next(), None, "stream must end once the token is set");
    assert!(
        stopped_at.elapsed() < Duration::from_millis(100),
        "cancelled next() took {:?}",
        stopped_at.elapsed()
    );
}

#[test]
fn cancellation_from_another_thread_interrupts_a_running_stream() {
    let cnf = roomy_cnf();
    let config = SamplerConfig {
        batch_size: 1024,
        backend: Backend::Threads(2),
        seed: 3,
        ..SamplerConfig::default()
    };
    let sampler = GdSampler::new(&cnf, config).expect("build");
    // An owning stream with no deadline and no stale limit would run forever
    // on this roomy formula; the only way out is the token.
    let mut stream = sampler.into_stream().with_stale_limit(0);
    let token = stream.stop_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.stop();
    });
    let started = Instant::now();
    let drained: usize = stream.by_ref().count();
    canceller.join().expect("canceller thread");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "stream did not stop after cancellation (drained {drained} items in {:?})",
        started.elapsed()
    );
}

#[test]
fn deadline_bounds_the_stream() {
    let cnf = roomy_cnf();
    let mut sampler = GdSampler::new(&cnf, config_with(Backend::Threads(2))).expect("build");
    let started = Instant::now();
    let _: Vec<Vec<bool>> = SampleStream::new(&mut sampler)
        .with_timeout(Duration::from_millis(200))
        .with_stale_limit(0)
        .map(|s| s.to_bits())
        .collect();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline ignored: ran {:?}",
        started.elapsed()
    );
}

#[test]
fn solutions_from_the_stream_are_valid_and_unique() {
    let cnf = roomy_cnf();
    let mut sampler = GdSampler::new(&cnf, config_with(Backend::Threads(8))).expect("build");
    let solutions: Vec<Vec<bool>> = sampler
        .stream()
        .with_timeout(Duration::from_secs(30))
        .take(32)
        .map(|s| s.to_bits())
        .collect();
    let unique: std::collections::HashSet<&Vec<bool>> = solutions.iter().collect();
    assert_eq!(unique.len(), solutions.len());
    for s in &solutions {
        assert!(cnf.is_satisfied_by_bits(s));
    }
}
