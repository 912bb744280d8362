//! The CI `protocol-gate`: one real daemon driven the way the v2 protocol
//! is meant to be used in anger, with determinism as the acceptance bar.
//!
//! * Two v2 clients, each running two pipelined chunked SAMPLEs at once —
//!   every reassembled stream must be bit-identical to the in-process
//!   `stream()` sequence, at 1 and at 8 worker threads.
//! * A v1 client working the same daemon concurrently, whose replies must
//!   round-trip completely unchanged (no v2 framing fields).
//! * One SUBSCRIBE feed fanning out a single engine session to three
//!   subscribers, one of them zero-credit: it stalls alone, the other two
//!   drain bit-identical batch sequences.
//! * The multiplexing is visible in STATS, and the daemon shuts down
//!   gracefully at the end.

use htsat_cnf::{dimacs, Solution};
use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::families;
use htsat_serve::json::Json;
use htsat_serve::proto::{SampleParams, SubscribeParams};
use htsat_serve::{serve, Client, ClientError, SampleEvent, ServeConfig, SubEvent};
use htsat_tensor::Backend;

#[test]
fn protocol_gate() {
    let instance = families::or_chain("or-gate", 24, 2, 0xF2A);
    let cnf = instance.cnf;
    let dimacs_text = dimacs::to_string(&cnf);
    let mut server = serve(ServeConfig::default()).expect("bind loopback daemon");
    let addr = server.local_addr();

    // Load once; every client below rides the resident entry.
    let mut loader = Client::connect(addr).expect("connect loader");
    let load = loader
        .load_dimacs(Some("or-gate"), &dimacs_text)
        .expect("load");
    let fingerprint = load.fingerprint;

    const N: usize = 10;
    let reference = |seed: u64, threads: usize| -> Vec<Solution> {
        let config = SamplerConfig {
            seed,
            backend: Backend::Threads(threads),
            ..SamplerConfig::default()
        };
        let mut sampler = GdSampler::new(&cnf, config).expect("reference sampler");
        sampler.stream().take(N).collect()
    };

    let t0 = std::time::Instant::now();
    // --- Leg 1: 2 clients x 2 pipelined chunked SAMPLEs, 1 and 8 threads.
    for threads in [1usize, 8] {
        let mut client_threads = Vec::new();
        for client_idx in 0..2u64 {
            let cnf = cnf.clone();
            client_threads.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect v2 client");
                assert_eq!(client.hello().expect("hello"), 2);
                let seeds = [100 + client_idx * 10, 101 + client_idx * 10];
                let ids: Vec<u64> = seeds
                    .iter()
                    .map(|&seed| {
                        client
                            .sample_start(&SampleParams {
                                n: N,
                                seed,
                                threads: Some(threads),
                                ..SampleParams::new(fingerprint)
                            })
                            .expect("start pipelined sample")
                    })
                    .collect();
                // Drain the two streams strictly interleaved so chunks of
                // each arrive while the reader waits on the other.
                let mut reassembled: Vec<Vec<Solution>> = vec![Vec::new(); ids.len()];
                let mut open = vec![true; ids.len()];
                while open.iter().any(|o| *o) {
                    for (lane, &id) in ids.iter().enumerate() {
                        if !open[lane] {
                            continue;
                        }
                        match client.sample_next(id).expect("sample frame") {
                            SampleEvent::Batch(batch) => reassembled[lane].extend(batch),
                            SampleEvent::Done(done) => {
                                assert!(done.stats.rounds > 0);
                                assert!(done.chunks >= 1);
                                open[lane] = false;
                            }
                        }
                    }
                }
                for (lane, solutions) in reassembled.iter().enumerate() {
                    for s in solutions {
                        assert!(cnf.is_satisfied_by_bits(&s.to_bits()));
                    }
                    assert_eq!(solutions.len(), N, "lane {lane} short");
                }
                (seeds, reassembled)
            }));
        }
        for handle in client_threads {
            let (seeds, reassembled) = handle.join().expect("v2 client thread");
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_eq!(
                    reassembled[lane],
                    reference(seed, threads),
                    "pipelined chunked SAMPLE (seed {seed}) must be bit-identical \
                     to the in-process stream at {threads} thread(s)"
                );
            }
        }
        eprintln!(
            "[gate] leg 1 ({threads} threads) done at {:?}",
            t0.elapsed()
        );
    }

    // --- Leg 2: a v1-framed client round-trips unchanged against the v2
    // daemon (same process, same registry, no HELLO).
    let mut v1 = Client::connect(addr).expect("connect v1 client");
    assert_eq!(v1.version(), 1);
    let reply = v1
        .sample(&SampleParams {
            n: N,
            seed: 100,
            threads: Some(1),
            ..SampleParams::new(fingerprint)
        })
        .expect("v1 sample");
    assert_eq!(
        reply.solutions,
        reference(100, 1),
        "the v1 path must serve the identical sequence"
    );

    eprintln!("[gate] leg 2 (v1 round-trip) done at {:?}", t0.elapsed());

    // --- Leg 3: SUBSCRIBE fanout — one engine session, three subscribers,
    // the zero-credit one stalls without blocking the others. A tiny
    // instance (three satisfying assignments) keeps the feed short: the
    // stream goes stale after a handful of batches no matter how much
    // credit the subscribers keep granting.
    let mut subscriber = Client::connect(addr).expect("connect subscriber client");
    subscriber.hello().expect("hello");
    let tiny_text = "p cnf 2 1\n1 2 0\n";
    let tiny_cnf = dimacs::parse_str(tiny_text).expect("parse tiny");
    let tiny = subscriber
        .load_dimacs(Some("tiny"), tiny_text)
        .expect("load tiny");
    let base = SubscribeParams {
        seed: 9,
        threads: Some(1),
        max_stale: Some(2),
        chunk: 2,
        ..SubscribeParams::new(tiny.fingerprint)
    };
    // All three seats open with ZERO credit: the producer parks, so the
    // status snapshot and the seating order are deterministic — every seat
    // exists before the first batch.
    let seats: Vec<u64> = (0..3)
        .map(|_| {
            subscriber
                .subscribe(&SubscribeParams {
                    credit: 0,
                    ..base.clone()
                })
                .expect("subscribe")
        })
        .collect();
    let (starved, funded) = (seats[0], &seats[1..]);
    let status = subscriber.status().expect("status");
    assert_eq!(status.get("feeds").and_then(Json::as_u64), Some(1));
    assert_eq!(status.get("subscribers").and_then(Json::as_u64), Some(3));

    // Funding the first seat wakes the producer, and the tiny stream can
    // run stale so fast that the feed is already over when the second
    // grant lands — that rejection is the protocol working as specified
    // (the seat's terminal frame is in flight), so it is tolerated.
    subscriber
        .grant_credit(funded[0], 64)
        .expect("grant credit");
    match subscriber.grant_credit(funded[1], 64) {
        Ok(_) => {}
        Err(ClientError::Server(msg)) if msg.contains("unknown subscription") => {}
        Err(other) => panic!("grant credit: {other:?}"),
    }
    let mut sequences: Vec<Vec<(u64, Vec<Solution>)>> = Vec::new();
    let mut totals = Vec::new();
    for &sub in funded {
        let mut batches = Vec::new();
        loop {
            match subscriber.sub_next(sub).expect("feed event") {
                SubEvent::Batch { seq, solutions } => batches.push((seq, solutions)),
                SubEvent::Done {
                    delivered, stalls, ..
                } => {
                    assert_eq!(delivered as usize, batches.len());
                    totals.push(delivered + stalls);
                    break;
                }
            }
        }
        sequences.push(batches);
    }
    assert!(
        !sequences[0].is_empty(),
        "the first-funded seat drained the feed"
    );
    // Bit-identical fanout wherever two seats saw the same batch.
    for (seq, batch) in &sequences[0] {
        if let Some((_, other)) = sequences[1].iter().find(|(s, _)| s == seq) {
            assert_eq!(batch, other, "fanout of seq {seq} diverged");
        }
    }
    for s in sequences.iter().flat_map(|b| b.iter().flat_map(|(_, s)| s)) {
        assert!(tiny_cnf.is_satisfied_by_bits(&s.to_bits()));
    }
    match subscriber.sub_next(starved).expect("starved terminal") {
        SubEvent::Done {
            delivered, stalls, ..
        } => {
            assert_eq!(delivered, 0, "a zero-credit seat receives nothing");
            assert!(stalls >= 1, "and stalls for every batch it missed");
            totals.push(delivered + stalls);
        }
        SubEvent::Batch { .. } => panic!("zero-credit seat got a batch"),
    }
    // Every seat was in place before the producer woke, so each one was
    // seated for the feed's whole life: delivered + stalls agree exactly.
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "all seats accounted for every batch: {totals:?}"
    );

    eprintln!("[gate] leg 3 (subscribe fanout) done at {:?}", t0.elapsed());

    // --- Leg 4: the multiplexing left its marks in STATS.
    let snapshot = loader.stats().expect("stats");
    assert!(
        snapshot
            .histogram("serve.multiplex_depth")
            .map_or(0, |h| h.count)
            > 0,
        "tagged dispatch must record multiplex depth"
    );
    assert!(snapshot.counter("serve.requests.hello").unwrap_or(0) >= 5);
    assert!(snapshot.counter("serve.sub.batches").unwrap_or(0) >= 2);
    assert!(snapshot.counter("serve.sub.stalls").unwrap_or(0) >= 1);
    assert_eq!(
        snapshot.gauge("serve.inflight").unwrap_or(-1),
        0,
        "no worker is left in flight once every stream completed"
    );
    assert_eq!(snapshot.gauge("serve.sub.subscribers").unwrap_or(-1), 0);

    // --- Leg 5: graceful shutdown.
    loader.shutdown().expect("graceful shutdown");
    server.wait();
    assert!(server.is_stopped());
}
