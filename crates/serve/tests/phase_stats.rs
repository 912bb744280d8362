//! The daemon's `STATS` account for its rounds: after one v2 `SAMPLE` at
//! one thread on `s15850a_3_2`, `engine.gd.init`, `engine.gd.descend` and
//! `engine.gd.harden` each record once per `engine.round`, and together
//! cover 95–100 % of its time.
//!
//! This file is its own integration-test binary holding one test on
//! purpose: the `htsat-obs` registry is process-global, so no other test's
//! rounds may land in the histograms read here.

use htsat_cnf::dimacs;
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_serve::proto::{SampleParams, PROTOCOL_V2};
use htsat_serve::{serve, Client, ServeConfig};

const PHASES: [&str; 3] = ["engine.gd.init", "engine.gd.descend", "engine.gd.harden"];

#[test]
fn daemon_phase_spans_cover_the_round() {
    let instance = table2_instance("s15850a_3_2", SuiteScale::Small).expect("instance");
    let mut server = serve(ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.hello().expect("hello"), PROTOCOL_V2);
    let load = client
        .load_dimacs(Some(&instance.name), &dimacs::to_string(&instance.cnf))
        .expect("load");
    let reply = client
        .sample(&SampleParams {
            n: 64,
            seed: 11,
            threads: Some(1),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("sample");
    assert!(!reply.solutions.is_empty());

    let stats = client.stats().expect("stats");
    let span = |name: &str| {
        let h = stats.histogram(name).expect(name);
        (h.count, h.sum)
    };
    let (rounds, round_ns) = span("engine.round");
    assert!(rounds > 0, "the SAMPLE ran rounds");
    let mut phase_ns = 0;
    for phase in PHASES {
        let (count, ns) = span(phase);
        assert_eq!(count, rounds, "{phase} records once per round");
        phase_ns += ns;
    }
    assert!(
        phase_ns as f64 >= 0.95 * round_ns as f64,
        "the phases cover {phase_ns} of {round_ns} ns of the rounds"
    );
    assert!(phase_ns <= round_ns, "the phases nest inside the round");
    server.shutdown();
}
