//! Protocol v2 framing edge cases, driven against a real daemon.
//!
//! Covers the negotiation boundary (`HELLO` versions, v1 replies staying
//! bit-for-bit free of v2 framing), reader-side admission (duplicate
//! in-flight ids, missing ids), multiplexed streams (interleaved chunks
//! reassembling bit-identically), the `shutdown` terminal error frames for
//! in-flight streams, credit starvation that stalls exactly the starved
//! subscriber, and partial-line / read-timeout survival under the new
//! framing.

use htsat_cnf::dimacs;
use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::families;
use htsat_serve::json::Json;
use htsat_serve::proto::{SampleParams, SubscribeParams};
use htsat_serve::{serve, Client, ClientError, SampleEvent, ServeConfig, SubEvent};
use htsat_tensor::Backend;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A 2-variable formula with exactly three satisfying assignments: its
/// streams exhaust fast under a stale limit, or run forever without one
/// (ideal for holding a stream open until SHUTDOWN).
const TINY: &str = "p cnf 2 1\n1 2 0\n";

fn corpus_instance() -> (String, htsat_cnf::Cnf) {
    let instance = families::or_chain("or-v2", 24, 2, 0xF2A);
    (dimacs::to_string(&instance.cnf), instance.cnf)
}

fn start_server() -> htsat_serve::ServerHandle {
    serve(ServeConfig::default()).expect("bind loopback ephemeral port")
}

/// A raw line-oriented wire connection, for asserting exact frame shapes
/// the typed client would normalize away.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Raw {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "server closed the connection");
        Json::parse(line.trim_end()).expect("parse reply")
    }

    /// Reads frames until `predicate` matches, failing after `limit` frames.
    fn recv_until(&mut self, limit: usize, predicate: impl Fn(&Json) -> bool) -> Json {
        for _ in 0..limit {
            let frame = self.recv();
            if predicate(&frame) {
                return frame;
            }
        }
        panic!("no matching frame within {limit} frames");
    }
}

fn kind(frame: &Json) -> Option<&str> {
    frame.get("frame").and_then(Json::as_str)
}

fn id_of(frame: &Json) -> Option<u64> {
    frame.get("id").and_then(Json::as_u64)
}

#[test]
fn hello_negotiates_versions_and_rejects_unknown_ones() {
    let server = start_server();

    // Explicitly negotiating v1 is valid and changes nothing.
    let mut v1 = Raw::connect(server.local_addr());
    v1.send("{\"cmd\":\"hello\",\"version\":1}");
    let reply = v1.recv();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("max_version").and_then(Json::as_u64), Some(2));
    assert!(reply.get("frame").is_none(), "v1 replies carry no framing");
    v1.send("{\"cmd\":\"status\"}");
    assert!(v1.recv().get("frame").is_none());

    // An unknown version is rejected (and the session stays v1).
    let mut bad = Raw::connect(server.local_addr());
    bad.send("{\"cmd\":\"hello\",\"version\":99}");
    let reply = bad.recv();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad-request")
    );
    assert!(reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error text")
        .contains("unsupported protocol version 99"));
    bad.send("{\"cmd\":\"status\"}");
    assert_eq!(bad.recv().get("ok").and_then(Json::as_bool), Some(true));

    // Negotiating v2 switches every subsequent exchange to tagged frames.
    let mut v2 = Raw::connect(server.local_addr());
    v2.send("{\"cmd\":\"hello\",\"version\":2}");
    let reply = v2.recv();
    assert_eq!(reply.get("version").and_then(Json::as_u64), Some(2));
    assert!(reply.get("frame").is_none(), "the HELLO reply itself is v1");
    v2.send("{\"cmd\":\"status\",\"id\":7}");
    let frame = v2.recv();
    assert_eq!(kind(&frame), Some("reply"));
    assert_eq!(id_of(&frame), Some(7));
    // A second HELLO on an upgraded session is an error.
    v2.send("{\"cmd\":\"hello\",\"version\":2,\"id\":8}");
    let frame = v2.recv();
    assert_eq!(kind(&frame), Some("error"));
    assert_eq!(id_of(&frame), Some(8));
}

#[test]
fn v1_framing_stays_bit_for_bit_free_of_v2_fields() {
    let (dimacs_text, _cnf) = corpus_instance();
    let server = start_server();
    let mut raw = Raw::connect(server.local_addr());

    // A v1 session (no HELLO): every reply — success, error, SAMPLE — must
    // be indistinguishable from the pre-v2 daemon: no `frame`, no `id`.
    let escaped = dimacs_text.replace('\n', "\\n");
    raw.send(&format!("{{\"cmd\":\"load\",\"dimacs\":\"{escaped}\"}}"));
    let load = raw.recv();
    assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));
    let fingerprint = load
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    raw.send(&format!(
        "{{\"cmd\":\"sample\",\"fingerprint\":\"{fingerprint}\",\"n\":3,\"seed\":5,\"threads\":1}}"
    ));
    let sample = raw.recv();
    raw.send("{\"cmd\":\"frobnicate\"}");
    let error = raw.recv();
    for (name, reply) in [("load", &load), ("sample", &sample), ("error", &error)] {
        assert!(reply.get("frame").is_none(), "{name} reply grew `frame`");
        assert!(reply.get("id").is_none(), "{name} reply grew `id`");
        assert!(reply.get("seq").is_none(), "{name} reply grew `seq`");
    }
    assert_eq!(
        sample
            .get("solutions")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3),
        "a v1 SAMPLE still returns the whole batch in one reply"
    );
    assert_eq!(error.get("ok").and_then(Json::as_bool), Some(false));
}

#[test]
fn reader_rejects_duplicate_and_missing_ids_and_shutdown_closes_streams() {
    let mut server = start_server();
    let mut raw = Raw::connect(server.local_addr());
    raw.send("{\"cmd\":\"hello\",\"version\":2}");
    raw.recv();

    raw.send(&format!(
        "{{\"cmd\":\"load\",\"dimacs\":\"{}\",\"id\":1}}",
        TINY.replace('\n', "\\n")
    ));
    let load = raw.recv_until(4, |f| id_of(f) == Some(1));
    assert_eq!(kind(&load), Some("reply"));
    let fingerprint = load
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();

    // A v2 request without an id cannot be attributed: error with id null.
    raw.send("{\"cmd\":\"status\"}");
    let unattributed = raw.recv();
    assert_eq!(kind(&unattributed), Some("error"));
    assert_eq!(unattributed.get("id"), Some(&Json::Null));
    assert_eq!(
        unattributed.get("code").and_then(Json::as_str),
        Some("bad-request")
    );

    // Open a stream that cannot finish within the test: 3 satisfying
    // assignments, a 1000-solution target, and a stale limit so large the
    // dedup rounds effectively never exhaust.
    let sample = format!(
        "{{\"cmd\":\"sample\",\"fingerprint\":\"{fingerprint}\",\"n\":1000,\"seed\":3,\
         \"threads\":1,\"max_stale\":4000000000,\"id\":2}}"
    );
    raw.send(&sample);

    // Reusing the in-flight id is rejected without touching the stream.
    raw.send(&sample);
    let duplicate = raw.recv_until(8, |f| kind(f) == Some("error") && id_of(f) == Some(2));
    assert_eq!(
        duplicate.get("code").and_then(Json::as_str),
        Some("bad-request")
    );
    assert!(duplicate
        .get("error")
        .and_then(Json::as_str)
        .expect("error text")
        .contains("duplicate in-flight `id` 2"));

    // SHUTDOWN with the stream still open: the stream must get a terminal
    // error frame with code `shutdown` before the socket closes.
    raw.send("{\"cmd\":\"shutdown\",\"id\":3}");
    let mut saw_ack = false;
    let mut saw_stream_shutdown = false;
    for _ in 0..16 {
        let frame = raw.recv();
        match id_of(&frame) {
            Some(3) => saw_ack = true,
            Some(2) if kind(&frame) == Some("error") => {
                assert_eq!(
                    frame.get("code").and_then(Json::as_str),
                    Some("shutdown"),
                    "in-flight streams end with the shutdown code"
                );
                saw_stream_shutdown = true;
            }
            _ => {} // chunks of the stream racing the shutdown
        }
        if saw_ack && saw_stream_shutdown {
            break;
        }
    }
    assert!(saw_ack, "SHUTDOWN must still be acknowledged");
    assert!(
        saw_stream_shutdown,
        "the open stream must receive a terminal `shutdown` error frame"
    );
    server.wait();
}

#[test]
fn shutdown_terminates_every_open_stream_through_the_client() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("tiny"), TINY).expect("load");

    // Two concurrently in-flight chunked streams, neither able to finish
    // within the test (stale limit effectively infinite).
    let first = client
        .sample_start(&SampleParams {
            n: 1000,
            seed: 1,
            threads: Some(1),
            max_stale: Some(u32::MAX),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("start first");
    let second = client
        .sample_start(&SampleParams {
            n: 1000,
            seed: 2,
            threads: Some(1),
            max_stale: Some(u32::MAX),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("start second");

    client.shutdown().expect("shutdown acknowledged");

    // Both streams must end with the `shutdown` terminal error (their
    // already-produced chunks still arrive first, in order).
    for id in [first, second] {
        loop {
            match client.sample_next(id) {
                Ok(SampleEvent::Batch(batch)) => assert!(!batch.is_empty()),
                Ok(SampleEvent::Done(done)) => {
                    panic!("stream {id} completed normally: {done:?}")
                }
                Err(ClientError::Server(msg)) => {
                    assert!(msg.contains("shutting down"), "{msg}");
                    break;
                }
                Err(other) => panic!("stream {id}: unexpected {other:?}"),
            }
        }
    }
    server.wait();
    assert!(server.is_stopped());
}

#[test]
fn interleaved_chunked_samples_reassemble_bit_identically() {
    let (dimacs_text, cnf) = corpus_instance();
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("hello");
    let load = client
        .load_dimacs(Some("or-v2"), &dimacs_text)
        .expect("load");

    const N: usize = 12;
    let seeds = [11u64, 12];
    for threads in [1usize, 8] {
        // In-process references, one per seed.
        let references: Vec<Vec<Vec<bool>>> = seeds
            .iter()
            .map(|&seed| {
                let config = SamplerConfig {
                    seed,
                    backend: Backend::Threads(threads),
                    ..SamplerConfig::default()
                };
                let mut reference = GdSampler::new(&cnf, config).expect("reference");
                reference.stream().take(N).map(|s| s.to_bits()).collect()
            })
            .collect();

        // Both streams in flight at once; drain them strictly alternating,
        // so chunks of one arrive while the reader waits on the other and
        // must be routed, not dropped.
        let ids: Vec<u64> = seeds
            .iter()
            .map(|&seed| {
                client
                    .sample_start(&SampleParams {
                        n: N,
                        seed,
                        threads: Some(threads),
                        ..SampleParams::new(load.fingerprint)
                    })
                    .expect("start")
            })
            .collect();
        let mut reassembled = vec![Vec::new(); ids.len()];
        let mut open = vec![true; ids.len()];
        while open.iter().any(|o| *o) {
            for (lane, &id) in ids.iter().enumerate() {
                if !open[lane] {
                    continue;
                }
                match client.sample_next(id).expect("frame") {
                    SampleEvent::Batch(batch) => reassembled[lane].extend(batch),
                    SampleEvent::Done(done) => {
                        assert!(done.chunks >= 1);
                        open[lane] = false;
                    }
                }
            }
        }
        assert_eq!(
            reassembled, references,
            "pipelined chunked streams must concatenate bit-identically to \
             the in-process sequences at {threads} thread(s)"
        );
    }
}

#[test]
fn credit_exhaustion_stalls_exactly_the_starved_subscriber() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("tiny"), TINY).expect("load");

    let base = SubscribeParams {
        seed: 9,
        threads: Some(1),
        max_stale: Some(2),
        chunk: 2,
        ..SubscribeParams::new(load.fingerprint)
    };
    // Every seat opens with ZERO credit: the producer parks until the
    // first grant, so the status snapshot and the seating order are
    // deterministic — all three seats exist before any batch is produced.
    let starved = client
        .subscribe(&SubscribeParams {
            credit: 0,
            ..base.clone()
        })
        .expect("subscribe starved");
    let fed_a = client
        .subscribe(&SubscribeParams {
            credit: 0,
            ..base.clone()
        })
        .expect("subscribe a");
    let fed_b = client
        .subscribe(&SubscribeParams { credit: 0, ..base })
        .expect("subscribe b");
    let status = client.status().expect("status");
    assert_eq!(status.get("feeds").and_then(Json::as_u64), Some(1));
    assert_eq!(status.get("subscribers").and_then(Json::as_u64), Some(3));

    // The first grant wakes the producer, and the tiny stream can run
    // stale before the second grant lands — in which case that grant
    // bounces off an already-ended subscription, which is the protocol
    // working as specified (the seat's terminal frame is in flight).
    client.grant_credit(fed_a, 64).expect("grant a");
    match client.grant_credit(fed_b, 64) {
        Ok(_) => {}
        Err(ClientError::Server(msg)) if msg.contains("unknown subscription") => {}
        Err(other) => panic!("grant b: {other:?}"),
    }

    // The funded subscribers drain to the end. What the contract
    // guarantees: batches at the same `seq` are bit-identical across
    // seats, each seat's own delivery has no internal gaps, and
    // delivered + stalls accounts for every batch produced while seated.
    let mut batches_by_seq: Vec<(u64, Vec<Vec<bool>>)> = Vec::new();
    let mut totals = Vec::new();
    for sub in [fed_a, fed_b] {
        let mut seqs = Vec::new();
        loop {
            match client.sub_next(sub).expect("feed event") {
                SubEvent::Batch {
                    seq,
                    solutions: batch,
                } => {
                    if let Some((_, seen)) = batches_by_seq.iter().find(|(s, _)| *s == seq) {
                        assert_eq!(seen, &batch, "fanout of seq {seq} is bit-identical");
                    } else {
                        batches_by_seq.push((seq, batch));
                    }
                    seqs.push(seq);
                }
                SubEvent::Done {
                    delivered, stalls, ..
                } => {
                    assert_eq!(delivered as usize, seqs.len());
                    totals.push(delivered + stalls);
                    break;
                }
            }
        }
        // Contiguous from this seat's first batch: it stalled at most at
        // the start (before its credit landed), never in the middle.
        if let Some(&first) = seqs.first() {
            assert_eq!(
                seqs,
                (first..first + seqs.len() as u64).collect::<Vec<u64>>()
            );
        }
    }
    assert!(
        totals[0] >= 1,
        "the first-funded subscriber drained the feed"
    );

    // The starved subscriber saw the whole feed as stalls — and delivered
    // nothing.
    match client.sub_next(starved).expect("starved terminal") {
        SubEvent::Done {
            delivered, stalls, ..
        } => {
            assert_eq!(delivered, 0, "zero credit means zero deliveries");
            assert!(stalls >= 1, "every produced batch counted as a stall");
            totals.push(delivered + stalls);
        }
        SubEvent::Batch { .. } => panic!("a zero-credit subscriber got a batch"),
    }
    // delivered + stalls is the batch count produced while a seat was
    // held. All three seats were in place before the producer woke, so
    // all three agree exactly.
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "every seat was seated for every batch: {totals:?}"
    );

    // The fanout is visible in STATS (counters are process-global across
    // the test binary, so assert floors, not exact values).
    let snapshot = client.stats().expect("stats");
    assert!(snapshot.counter("serve.sub.batches").unwrap_or(0) >= 2);
    assert!(snapshot.counter("serve.sub.stalls").unwrap_or(0) >= 1);
}

#[test]
fn unsubscribe_reclaims_the_seat_and_frees_the_feed() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("tiny"), TINY).expect("load");

    // A zero-credit subscriber parks the producer; unsubscribing the only
    // seat abandons the feed, which must clean itself up.
    let sub = client
        .subscribe(&SubscribeParams {
            seed: 4,
            threads: Some(1),
            max_stale: Some(2),
            credit: 0,
            ..SubscribeParams::new(load.fingerprint)
        })
        .expect("subscribe");
    client.unsubscribe(sub).expect("unsubscribe");
    // Unknown afterwards — both to the server and to the client.
    match client.grant_credit(sub, 1) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown subscription"), "{msg}"),
        other => panic!("expected unknown-subscription error, got {other:?}"),
    }
    // The feed drains off the registry once the producer notices.
    for _ in 0..100 {
        let status = client.status().expect("status");
        if status.get("subscribers").and_then(Json::as_u64) == Some(0)
            && status.get("feeds").and_then(Json::as_u64) == Some(0)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("abandoned feed never cleaned up");
}

#[test]
fn client_timeout_is_typed_and_carries_the_pending_ids() {
    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("tiny"), TINY).expect("load");

    // A stream that produces its 3 unique solutions and then goes quiet
    // for the rest of the test (stale limit effectively infinite, target
    // far above the solution count).
    let id = client
        .sample_start(&SampleParams {
            n: 1000,
            seed: 6,
            threads: Some(1),
            max_stale: Some(u32::MAX),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("start");
    client
        .set_timeout(Some(Duration::from_millis(150)))
        .expect("arm timeout");
    let mut got_batch = false;
    loop {
        match client.sample_next(id) {
            Ok(SampleEvent::Batch(_)) => got_batch = true,
            Ok(SampleEvent::Done(done)) => panic!("stream completed: {done:?}"),
            Err(ClientError::Timeout { pending }) => {
                assert_eq!(pending, vec![id], "the stalled stream is pending");
                break;
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(got_batch, "the solutions arrived before the stall");

    // The connection survives the timeout: the same session still answers
    // (with the timeout still armed — replies just have to be fast).
    let status = client.status().expect("status after timeout");
    assert!(status.get("uptime_ms").is_some() || status.get("ok").is_some());
    client.shutdown().expect("shutdown");
    match client.sample_next(id) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("shutting down"), "{msg}"),
        other => panic!("expected shutdown error, got {other:?}"),
    }
    server.wait();
}

#[test]
fn partial_lines_survive_the_read_poll_under_both_framings() {
    let server = start_server();

    // v1: a request split across writes with a pause longer than the
    // server's 50ms read poll must still parse as one line.
    let mut v1 = Raw::connect(server.local_addr());
    let line = "{\"cmd\":\"status\"}\n";
    let (head, tail) = line.split_at(7);
    v1.writer.write_all(head.as_bytes()).expect("head");
    std::thread::sleep(Duration::from_millis(120));
    v1.writer.write_all(tail.as_bytes()).expect("tail");
    assert_eq!(v1.recv().get("ok").and_then(Json::as_bool), Some(true));

    // v2: same split, now through the tagged reader loop.
    let mut v2 = Raw::connect(server.local_addr());
    v2.send("{\"cmd\":\"hello\",\"version\":2}");
    v2.recv();
    let line = "{\"cmd\":\"status\",\"id\":5}\n";
    let (head, tail) = line.split_at(9);
    v2.writer.write_all(head.as_bytes()).expect("head");
    std::thread::sleep(Duration::from_millis(120));
    v2.writer.write_all(tail.as_bytes()).expect("tail");
    let frame = v2.recv();
    assert_eq!(kind(&frame), Some("reply"));
    assert_eq!(id_of(&frame), Some(5));
}
