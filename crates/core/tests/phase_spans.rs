//! The round's phase spans account for the round: over six GD rounds of a
//! stream, at one worker and at two, `engine.gd.init`, `engine.gd.descend`
//! and `engine.gd.harden` together cover at least 95 % of `engine.round`,
//! each phase records once per round, however many lane blocks and
//! hard-pass groups the round walks, and each phase is exactly one
//! parallel region (`runtime.regions` advances by 3 per round).
//!
//! This file is its own integration-test binary holding one test on
//! purpose: the `htsat-obs` registry is process-global, so no other test's
//! rounds may land in the histograms read here.

use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_obs::Snapshot;
use htsat_tensor::{Backend, GROUP_ROWS};

const PHASES: [&str; 3] = ["engine.gd.init", "engine.gd.descend", "engine.gd.harden"];

#[test]
fn phase_spans_cover_the_round_once_per_round() {
    let instance = table2_instance("s15850a_3_2", SuiteScale::Small).expect("instance");
    for threads in [1, 2] {
        // Three hard-pass groups (the last holds one row) and many lane
        // blocks.
        let config = SamplerConfig {
            batch_size: 2 * GROUP_ROWS + 1,
            backend: Backend::Threads(threads),
            seed: 5,
            ..SamplerConfig::default()
        };
        let mut sampler = GdSampler::new(&instance.cnf, config).expect("sampler");
        let before = htsat_obs::global().snapshot();
        let mut stream = sampler.stream();
        while stream.stats().rounds < 6 {
            assert!(stream.next().is_some(), "the stream ended early");
            stream.drain_ready();
        }
        let rounds = stream.stats().rounds as u64;
        let after = htsat_obs::global().snapshot();

        // (count, total ns) of a span over this stream's rounds alone.
        let span = |name: &str| {
            let h = after.histogram(name).expect(name);
            let (count, ns) = before.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
            (h.count - count, h.sum - ns)
        };
        let counter = |s: &Snapshot| s.counter("runtime.regions").unwrap_or(0);
        let (round_count, round_ns) = span("engine.round");
        assert_eq!(round_count, rounds);
        let mut phase_ns = 0;
        for phase in PHASES {
            let (count, ns) = span(phase);
            assert_eq!(count, rounds, "{phase} records once per round");
            phase_ns += ns;
        }
        assert!(
            phase_ns as f64 >= 0.95 * round_ns as f64,
            "threads={threads}: the phases cover {phase_ns} of {round_ns} ns of the rounds"
        );
        assert!(phase_ns <= round_ns, "the phases nest inside the round");
        assert_eq!(
            counter(&after) - counter(&before),
            3 * rounds,
            "threads={threads}: init, descend and harden are one region each"
        );
    }
}
