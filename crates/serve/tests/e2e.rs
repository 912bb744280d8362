//! End-to-end tests: a real daemon on a loopback ephemeral port, driven by
//! the blocking client.
//!
//! The centrepiece is the wire-determinism matrix required by the serving
//! layer's acceptance criteria: a daemon `SAMPLE` with a fixed seed must
//! reproduce the *exact* in-process `GdSampler::stream()` solution sequence
//! at 1 and at 8 worker threads.

use htsat_baselines::{engine_by_name, ENGINE_NAMES};
use htsat_cnf::dimacs;
use htsat_core::{GdSampler, SamplerConfig, SessionConfig, TransformConfig};
use htsat_instances::families;
use htsat_serve::json::Json;
use htsat_serve::proto::SampleParams;
use htsat_serve::registry::RegistryConfig;
use htsat_serve::{serve, Client, ClientError, ServeConfig};
use htsat_tensor::Backend;

/// A gen_suite-family CNF (the same generator `gen_suite` exports), small
/// enough for fast rounds but with a real circuit structure.
fn corpus_instance() -> (String, htsat_cnf::Cnf) {
    let instance = families::or_chain("or-e2e", 24, 2, 0xE2E);
    (dimacs::to_string(&instance.cnf), instance.cnf)
}

fn start_server() -> htsat_serve::ServerHandle {
    serve(ServeConfig::default()).expect("bind loopback ephemeral port")
}

#[test]
fn wire_determinism_matches_in_process_stream_at_1_and_8_threads() {
    let (dimacs_text, cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let load = client
        .load_dimacs(Some("or-e2e"), &dimacs_text)
        .expect("load");
    assert!(!load.cached);
    assert_eq!(load.vars, cnf.num_vars());

    const SEED: u64 = 41;
    const N: usize = 10;
    for threads in [1usize, 8] {
        // The in-process reference: a fresh sampler over the same CNF with
        // the same seed, streamed through the public API.
        let config = SamplerConfig {
            seed: SEED,
            backend: Backend::Threads(threads),
            ..SamplerConfig::default()
        };
        let mut reference = GdSampler::new(&cnf, config).expect("build sampler");
        let expected: Vec<Vec<bool>> = reference.stream().take(N).map(|s| s.to_bits()).collect();
        assert_eq!(expected.len(), N, "reference found enough solutions");

        let reply = client
            .sample(&SampleParams {
                n: N,
                seed: SEED,
                threads: Some(threads),
                ..SampleParams::new(load.fingerprint)
            })
            .expect("sample");
        assert_eq!(
            reply.solutions, expected,
            "daemon must reproduce the in-process sequence bit-for-bit at {threads} threads"
        );
        for solution in &reply.solutions {
            assert!(cnf.is_satisfied_by_bits(solution));
        }
        assert!(reply.stats.rounds > 0);
        assert!(reply.elapsed_ms >= 0.0);
    }

    // Seeds above 2^53 must survive the JSON transport exactly (they
    // travel as decimal strings): same contract, full 64-bit seed.
    let big_seed = u64::MAX - 7;
    let config = SamplerConfig {
        seed: big_seed,
        backend: Backend::Threads(1),
        ..SamplerConfig::default()
    };
    let mut reference = GdSampler::new(&cnf, config).expect("build sampler");
    let expected: Vec<Vec<bool>> = reference.stream().take(4).map(|s| s.to_bits()).collect();
    let reply = client
        .sample(&SampleParams {
            n: 4,
            seed: big_seed,
            threads: Some(1),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("sample with 64-bit seed");
    assert_eq!(reply.solutions, expected, "seed must not round through f64");
}

#[test]
fn cross_engine_determinism_matrix() {
    // The tentpole guarantee of the engine API: for EVERY engine, a fixed
    // seed reproduces the identical solution sequence at 1 and 8 worker
    // threads, in-process and through the daemon — so clients can A/B the
    // GD sampler against any baseline over the wire bit-for-bit.
    let (dimacs_text, cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    const SEED: u64 = 0xA1B2;
    const N: usize = 3;
    for engine_name in ENGINE_NAMES {
        let engine =
            engine_by_name(engine_name, &cnf, &TransformConfig::default()).expect("engine");
        let load = client
            .load_dimacs_engine(Some(engine_name), engine_name, &dimacs_text)
            .expect("load engine");
        assert_eq!(load.engine, engine_name);
        assert!(!load.cached, "first load of ({engine_name}) must prepare");

        let mut sequences = Vec::new();
        for threads in [1usize, 8] {
            // In-process reference through the engine adapter.
            let expected: Vec<Vec<bool>> = engine
                .stream(&SessionConfig {
                    seed: SEED,
                    backend: Backend::Threads(threads),
                    batch: None,
                })
                .expect("stream")
                .take(N)
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(
                expected.len(),
                N,
                "engine {engine_name} found too few solutions in-process"
            );
            for s in &expected {
                assert!(cnf.is_satisfied_by_bits(s), "{engine_name} invalid");
            }

            let reply = client
                .sample(&SampleParams {
                    n: N,
                    seed: SEED,
                    threads: Some(threads),
                    ..SampleParams::with_engine(load.fingerprint, engine_name)
                })
                .expect("sample");
            assert_eq!(
                reply.solutions, expected,
                "daemon must reproduce the in-process {engine_name} sequence \
                 bit-for-bit at {threads} threads"
            );
            sequences.push(expected);
        }
        assert_eq!(
            sequences[0], sequences[1],
            "engine {engine_name} must be thread-count independent"
        );
    }
    // One entry per (formula, engine) pair, each prepared exactly once.
    assert_eq!(server.registry().len(), ENGINE_NAMES.len());
    assert_eq!(
        server.registry().counters().compiles,
        ENGINE_NAMES.len() as u64
    );
}

#[test]
fn engine_must_be_loaded_before_sampling_and_unknown_engines_fail() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Loaded for gd only: sampling walksat on the same fingerprint is a
    // miss — the registry is keyed by the (formula, engine) pair.
    let load = client.load_dimacs(None, &dimacs_text).expect("load gd");
    match client.sample(&SampleParams::with_engine(load.fingerprint, "walksat")) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not loaded"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Unknown engine names are rejected on LOAD.
    match client.load_dimacs_engine(None, "frobnicate", &dimacs_text) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown engine"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
}

#[test]
fn status_reports_engine_names_and_evict_accepts_the_pair() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let gd = client.load_dimacs(Some("demo"), &dimacs_text).expect("gd");
    let walksat = client
        .load_dimacs_engine(Some("demo"), "walksat", &dimacs_text)
        .expect("walksat");
    assert_eq!(gd.fingerprint, walksat.fingerprint);
    client
        .sample(&SampleParams {
            n: 2,
            threads: Some(1),
            ..SampleParams::with_engine(gd.fingerprint, "walksat")
        })
        .expect("sample walksat");

    // STATUS lists one entry per engine, each tagged with its engine name
    // and carrying its own cumulative stream stats.
    let status = client.status().expect("status");
    let entries = status
        .get("entries")
        .and_then(Json::as_arr)
        .expect("entries");
    assert_eq!(entries.len(), 2);
    let engine_of = |entry: &Json| {
        entry
            .get("engine")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    let mut engines: Vec<String> = entries.iter().map(engine_of).collect();
    engines.sort();
    assert_eq!(engines, ["gd", "walksat"]);
    let walksat_entry = entries
        .iter()
        .find(|e| e.get("engine").and_then(Json::as_str) == Some("walksat"))
        .expect("walksat entry");
    let stats = walksat_entry.get("stats").expect("stats");
    assert!(
        stats.get("rounds").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the walksat SAMPLE must be accounted to the walksat entry"
    );

    // EVICT with the (fingerprint, engine) pair drops only that engine.
    assert!(client
        .evict_engine(gd.fingerprint, "walksat")
        .expect("evict walksat"));
    assert!(server.registry().get(&gd.fingerprint, "gd").is_some());
    assert!(server.registry().get(&gd.fingerprint, "walksat").is_none());
    // EVICT without an engine sweeps the remaining entries of the formula.
    assert!(client.evict(gd.fingerprint).expect("evict all"));
    assert!(server.registry().is_empty());
}

#[test]
fn registry_hit_path_skips_recompilation() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let first = client.load_dimacs(None, &dimacs_text).expect("first load");
    assert!(!first.cached);
    assert_eq!(server.registry().counters().compiles, 1);

    // Re-loading the identical formula — and sampling it twice — must not
    // compile again.
    let second = client.load_dimacs(None, &dimacs_text).expect("second load");
    assert!(second.cached);
    assert_eq!(second.fingerprint, first.fingerprint);
    for seed in [1u64, 2] {
        client
            .sample(&SampleParams {
                n: 4,
                seed,
                threads: Some(1),
                ..SampleParams::new(first.fingerprint)
            })
            .expect("sample");
    }
    let counters = server.registry().counters();
    assert_eq!(counters.compiles, 1, "hit path recompiled");
    assert!(counters.hits >= 3);

    // The status report exposes the same counters over the wire.
    let status = client.status().expect("status");
    assert_eq!(status.get("compiles").and_then(Json::as_u64), Some(1));
    let entries = status
        .get("entries")
        .and_then(Json::as_arr)
        .expect("entries");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("fingerprint").and_then(Json::as_str),
        Some(first.fingerprint.to_hex().as_str())
    );
    // Cumulative per-entry stream stats accumulated across the requests.
    let stats = entries[0].get("stats").expect("stats");
    assert!(stats.get("rounds").and_then(Json::as_u64).unwrap_or(0) > 0);
}

#[test]
fn load_is_fingerprint_canonical_across_clause_order() {
    let (_text, cnf) = corpus_instance();
    // Re-emit the DIMACS with the clause list reversed: semantically the
    // same formula, different bytes.
    let mut reversed = htsat_cnf::Cnf::new(cnf.num_vars());
    for clause in cnf.clauses().iter().rev() {
        reversed.push_clause(clause.clone());
    }
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let a = client
        .load_dimacs(None, &dimacs::to_string(&cnf))
        .expect("load");
    let b = client
        .load_dimacs(None, &dimacs::to_string(&reversed))
        .expect("load reversed");
    assert_eq!(a.fingerprint, b.fingerprint);
    assert!(b.cached, "reordered clauses must hit the resident entry");
}

#[test]
fn sample_deadline_and_stale_limit_are_honoured() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let load = client.load_dimacs(None, &dimacs_text).expect("load");

    // A zero deadline means no round ever starts.
    let reply = client
        .sample(&SampleParams {
            n: 5,
            deadline_ms: Some(0),
            threads: Some(1),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("sample");
    assert!(reply.solutions.is_empty());
    assert_eq!(reply.stats.rounds, 0);

    // A tiny formula with a huge `n` exhausts instead of spinning forever.
    let tiny = client
        .load_dimacs(Some("tiny"), "p cnf 2 1\n1 2 0\n")
        .expect("load tiny");
    let reply = client
        .sample(&SampleParams {
            n: 1_000,
            max_stale: Some(2),
            threads: Some(1),
            ..SampleParams::new(tiny.fingerprint)
        })
        .expect("sample tiny");
    assert!(reply.exhausted);
    assert!(reply.solutions.len() <= 3, "only 3 satisfying assignments");
}

#[test]
fn errors_do_not_poison_the_session() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Unknown fingerprint.
    let missing = SampleParams::new(htsat_cnf::Fingerprint::of(&htsat_cnf::Cnf::new(1)));
    match client.sample(&missing) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not loaded"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }

    // Unparseable DIMACS.
    match client.load_dimacs(None, "this is not dimacs") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("parse"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }

    // Path loads are disabled by default.
    match client.load_path(None, "/etc/hostname") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("disabled"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }

    // Wire-supplied resource knobs are capped server-side.
    let (dimacs_text, _cnf) = corpus_instance();
    let load = client.load_dimacs(None, &dimacs_text).expect("load");
    for params in [
        SampleParams {
            batch: Some(1 << 40),
            ..SampleParams::new(load.fingerprint)
        },
        SampleParams {
            threads: Some(1_000_000),
            ..SampleParams::new(load.fingerprint)
        },
        SampleParams {
            n: 1 << 30,
            ..SampleParams::new(load.fingerprint)
        },
    ] {
        match client.sample(&params) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected cap error, got {other:?}"),
        }
    }

    // After all the failures the session still serves good requests.
    let reply = client
        .sample(&SampleParams {
            n: 2,
            threads: Some(1),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("still works");
    assert_eq!(reply.solutions.len(), 2);
}

#[test]
fn evict_then_reload_recompiles() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let load = client.load_dimacs(None, &dimacs_text).expect("load");
    assert!(client.evict(load.fingerprint).expect("evict"));
    assert!(
        !client.evict(load.fingerprint).expect("evict again"),
        "gone"
    );
    match client.sample(&SampleParams::new(load.fingerprint)) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not loaded"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    let again = client.load_dimacs(None, &dimacs_text).expect("reload");
    assert!(!again.cached);
    assert_eq!(server.registry().counters().compiles, 2);
}

#[test]
fn lru_eviction_over_the_wire() {
    // Budget sized from a probe entry so exactly two formulas fit.
    let probe = serve(ServeConfig::default()).expect("probe server");
    let mut probe_client = Client::connect(probe.local_addr()).expect("connect");
    let mk = |seed: u64| {
        let instance = families::or_chain(&format!("or-lru-{seed}"), 16, 2, seed);
        dimacs::to_string(&instance.cnf)
    };
    let mut probed = Vec::new();
    for seed in 0..3u64 {
        let load = probe_client.load_dimacs(None, &mk(seed)).expect("probe");
        let bytes = probe
            .registry()
            .get(&load.fingerprint, "gd")
            .expect("probe entry")
            .bytes;
        probed.push(bytes);
    }
    // Room for `a` plus either of `b`/`c`, but never all three: inserting
    // `c` must evict exactly the LRU entry (`b`).
    let server = serve(ServeConfig {
        registry: RegistryConfig {
            budget_bytes: probed[0] + probed[1].max(probed[2]),
            ..RegistryConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let a = client.load_dimacs(Some("a"), &mk(0)).expect("a");
    let _b = client.load_dimacs(Some("b"), &mk(1)).expect("b");
    // Touch `a`, then insert `c`: `b` is the LRU victim.
    client
        .sample(&SampleParams {
            n: 1,
            threads: Some(1),
            ..SampleParams::new(a.fingerprint)
        })
        .expect("touch a");
    let _c = client.load_dimacs(Some("c"), &mk(2)).expect("c");
    let names: Vec<String> = server
        .registry()
        .snapshot()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    assert!(names.contains(&"a".to_string()), "recently-used a survives");
    assert!(names.contains(&"c".to_string()), "new entry admitted");
    assert!(server.registry().counters().evictions >= 1);
}

#[test]
fn graceful_shutdown_over_the_wire() {
    let (dimacs_text, _cnf) = corpus_instance();
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.load_dimacs(None, &dimacs_text).expect("load");
    client.shutdown().expect("shutdown acknowledged");
    server.wait();
    assert!(server.is_stopped());
    // The already-open session is closed; further requests on it fail.
    // (Deliberately NOT asserting that a fresh connect fails: the freed
    // ephemeral port may be rebound by a concurrently running test.)
    assert!(client.status().is_err());
}

#[test]
fn concurrent_clients_share_the_registry() {
    let (dimacs_text, cnf) = corpus_instance();
    let server = start_server();
    let addr = server.local_addr();
    let mut seed_threads = Vec::new();
    for seed in 0..3u64 {
        let text = dimacs_text.clone();
        seed_threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let load = client.load_dimacs(None, &text).expect("load");
            client
                .sample(&SampleParams {
                    n: 4,
                    seed,
                    threads: Some(1),
                    ..SampleParams::new(load.fingerprint)
                })
                .expect("sample")
                .solutions
        }));
    }
    for handle in seed_threads {
        let solutions = handle.join().expect("client thread");
        assert_eq!(solutions.len(), 4);
        for s in &solutions {
            assert!(cnf.is_satisfied_by_bits(s));
        }
    }
    // Three concurrent loads of the same formula, one compile.
    assert_eq!(server.registry().counters().compiles, 1);
    assert_eq!(server.registry().len(), 1);
}

#[test]
fn shutdown_is_not_held_up_by_a_router_that_never_finishes_its_reply() {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    // A fake router: accepts the heartbeat's connection and drips one byte
    // every 500 ms without ever sending a newline, so a reader bounded only
    // by a per-read socket timeout would wait forever.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake router");
    let router_addr = fake.local_addr().expect("fake router addr");
    let dripping = Arc::new(AtomicBool::new(true));
    let drip_flag = dripping.clone();
    let (accepted_tx, accepted_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = fake.accept().expect("the heartbeat dials the router");
        let _ = accepted_tx.send(());
        while drip_flag.load(Ordering::Relaxed) && stream.write_all(b" ").is_ok() {
            std::thread::sleep(Duration::from_millis(500));
        }
    });

    let mut server = serve(ServeConfig {
        register: Some(router_addr.to_string()),
        ..ServeConfig::default()
    })
    .expect("bind");
    accepted_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the heartbeat connected to the fake router");
    // Let the heartbeat send REGISTER and block on the dripping reply.
    std::thread::sleep(Duration::from_millis(200));

    // Watchdog: shutdown runs on its own thread and must report back in 5 s.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(5));
    dripping.store(false, Ordering::Relaxed);
    assert!(
        finished.is_ok(),
        "ServerHandle::shutdown() hung on the heartbeat's unterminated reply"
    );
}
