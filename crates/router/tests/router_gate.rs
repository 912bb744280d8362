//! End-to-end gate for the routing layer: determinism through routing at
//! 1 and 8 threads, failover to a warm-started backend, kill-and-restart
//! of the shard owner with a provably skipped recompile (the restarted
//! daemon's compile counter stays at zero), v1 transparency, aggregation
//! fan-out, and graceful whole-tree shutdown.
//!
//! Every test runs a real router fronting real daemons that join via the
//! wire `REGISTER` heartbeat, all sharing one on-disk compile cache.

use htsat_cnf::dimacs;
use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::families;
use htsat_router::{route, RouterConfig, RouterHandle};
use htsat_serve::json::Json;
use htsat_serve::proto::SampleParams;
use htsat_serve::{serve, Client, ClientError, SampleEvent, ServeConfig, ServerHandle};
use htsat_tensor::Backend;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A 2-variable formula with exactly three satisfying assignments: with a
/// huge stale limit its stream produces the three and then parks forever,
/// ideal for holding a stream open across a backend kill.
const TINY: &str = "p cnf 2 1\n1 2 0\n";

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htsat-router-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a daemon on an ephemeral port that announces itself to the
/// router and persists compiles to the shared cache directory.
fn start_backend(router_addr: &str, cache_dir: &Path) -> ServerHandle {
    start_backend_at("127.0.0.1:0", router_addr, cache_dir)
}

fn start_backend_at(addr: &str, router_addr: &str, cache_dir: &Path) -> ServerHandle {
    let mut config = ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    };
    config.register = Some(router_addr.to_string());
    config.registry.cache_dir = Some(cache_dir.to_path_buf());
    serve(config).expect("bind backend")
}

/// Waits until the router's discovery map sees `n` live backends.
fn wait_for_backends(router: &RouterHandle, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.discovery().live().len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} backends registered",
            router.discovery().live().len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The in-process stream the routed one must match bit for bit.
fn reference(cnf: &htsat_cnf::Cnf, seed: u64, threads: usize, n: usize) -> Vec<Vec<bool>> {
    let config = SamplerConfig {
        seed,
        backend: Backend::Threads(threads),
        ..SamplerConfig::default()
    };
    let mut sampler = GdSampler::new(cnf, config).expect("reference sampler");
    sampler.stream().take(n).map(|s| s.to_bits()).collect()
}

/// Drains one chunked stream to completion.
fn drain(client: &mut Client, id: u64) -> Vec<Vec<bool>> {
    let mut solutions = Vec::new();
    loop {
        match client.sample_next(id).expect("stream frame") {
            SampleEvent::Batch(batch) => solutions.extend(batch),
            SampleEvent::Done(_) => return solutions,
        }
    }
}

#[test]
fn routed_streams_are_bit_identical_at_one_and_eight_threads() {
    let cache = temp_cache("identical");
    let router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let _b1 = start_backend(&router_addr, &cache);
    let _b2 = start_backend(&router_addr, &cache);
    wait_for_backends(&router, 2);

    // Two formulas so the shards can land on different backends, both
    // streamed concurrently and drained strictly alternating — chunks of
    // one arrive while the reader waits on the other.
    let first = families::or_chain("route-a", 24, 2, 0xA11);
    let second = families::or_chain("route-b", 26, 2, 0xB22);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    client.hello().expect("hello v2 through the router");
    let loads = [
        client
            .load_dimacs(Some("route-a"), &dimacs::to_string(&first.cnf))
            .expect("load a"),
        client
            .load_dimacs(Some("route-b"), &dimacs::to_string(&second.cnf))
            .expect("load b"),
    ];

    const N: usize = 12;
    for threads in [1usize, 8] {
        let references = [
            reference(&first.cnf, 41, threads, N),
            reference(&second.cnf, 42, threads, N),
        ];
        let ids: Vec<u64> = loads
            .iter()
            .zip([41u64, 42])
            .map(|(load, seed)| {
                client
                    .sample_start(&SampleParams {
                        n: N,
                        seed,
                        threads: Some(threads),
                        ..SampleParams::new(load.fingerprint)
                    })
                    .expect("start stream")
            })
            .collect();
        let mut reassembled = vec![Vec::new(); ids.len()];
        let mut open = vec![true; ids.len()];
        while open.iter().any(|o| *o) {
            for (lane, &id) in ids.iter().enumerate() {
                if !open[lane] {
                    continue;
                }
                match client.sample_next(id).expect("stream frame") {
                    SampleEvent::Batch(batch) => reassembled[lane].extend(batch),
                    SampleEvent::Done(_) => open[lane] = false,
                }
            }
        }
        assert_eq!(
            reassembled,
            references.to_vec(),
            "routed pipelined streams must match the in-process sequences \
             bit for bit at {threads} thread(s)"
        );
    }
}

#[test]
fn failover_and_owner_restart_preserve_streams_and_skip_recompilation() {
    let cache = temp_cache("failover");
    let router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let mut backends = [
        start_backend(&router_addr, &cache),
        start_backend(&router_addr, &cache),
    ];
    wait_for_backends(&router, 2);

    let instance = families::or_chain("route-kill", 24, 2, 0xC33);
    let text = dimacs::to_string(&instance.cnf);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("route-kill"), &text).expect("load");
    let fingerprint_hex = load.fingerprint.to_hex();

    const N: usize = 10;
    let want = reference(&instance.cnf, 7, 1, N);
    let start = |client: &mut Client| {
        client
            .sample_start(&SampleParams {
                n: N,
                seed: 7,
                threads: Some(1),
                ..SampleParams::new(load.fingerprint)
            })
            .expect("start stream")
    };

    // Baseline through the shard owner.
    let id = start(&mut client);
    assert_eq!(drain(&mut client, id), want, "baseline routed stream");

    // Kill the owner. The survivor has never LOADed the formula: serving
    // the same request means warm-starting the artifact off the shared
    // cache directory.
    let owner = router
        .discovery()
        .owner(&fingerprint_hex, "gd")
        .expect("an owner exists");
    let dead = backends
        .iter()
        .position(|b| b.local_addr().to_string() == owner)
        .expect("the owner is one of ours");
    backends[dead].shutdown();
    let survivor_addr = backends[1 - dead].local_addr();

    let id = start(&mut client);
    assert_eq!(
        drain(&mut client, id),
        want,
        "the failover stream must be bit-identical (same seed, warm artifact)"
    );

    // The survivor served it without compiling: the artifact came off disk.
    let mut direct = Client::connect(survivor_addr).expect("connect to survivor");
    let status = direct.status().expect("survivor status");
    assert_eq!(
        status.get("compiles").and_then(Json::as_u64),
        Some(0),
        "the failover backend never compiled"
    );
    assert!(
        status.get("disk_hits").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the failover backend warm-started from the shared cache"
    );

    // Restart the owner on its old port; the heartbeat re-registers it and
    // rendezvous hands its shard back.
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match std::panic::catch_unwind(|| start_backend_at(&owner, &router_addr, &cache)) {
                Ok(server) => break server,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.discovery().live().contains(&owner) {
        assert!(
            Instant::now() < deadline,
            "restarted owner never re-registered"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        router.discovery().owner(&fingerprint_hex, "gd").as_deref(),
        Some(owner.as_str()),
        "rendezvous hands the shard back to the restarted owner"
    );

    let id = start(&mut client);
    assert_eq!(
        drain(&mut client, id),
        want,
        "the post-restart stream must be bit-identical"
    );

    // The restart provably skipped the recompile: the fresh process served
    // the shard from the disk artifact with its compile counter still zero.
    let mut direct = Client::connect(restarted.local_addr()).expect("connect to restarted owner");
    let status = direct.status().expect("restarted owner status");
    assert_eq!(
        status.get("compiles").and_then(Json::as_u64),
        Some(0),
        "the restarted owner never recompiled"
    );
    assert!(
        status.get("disk_hits").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the restarted owner warm-started from the cache"
    );
}

#[test]
fn a_backend_lost_mid_stream_surfaces_backend_lost_and_a_reissue_matches() {
    let cache = temp_cache("midstream");
    let router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let mut backends = [
        start_backend(&router_addr, &cache),
        start_backend(&router_addr, &cache),
    ];
    wait_for_backends(&router, 2);

    let tiny_cnf = dimacs::parse_str(TINY).expect("parse tiny");
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    client.hello().expect("hello");
    let load = client.load_dimacs(Some("tiny"), TINY).expect("load");

    // A stream that produces its three unique solutions and then parks
    // forever (stale limit effectively infinite) — provably mid-flight.
    let id = client
        .sample_start(&SampleParams {
            n: 1000,
            seed: 3,
            threads: Some(1),
            max_stale: Some(u32::MAX),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("start stream");
    match client.sample_next(id).expect("first frame") {
        SampleEvent::Batch(batch) => assert!(!batch.is_empty()),
        SampleEvent::Done(done) => panic!("parked stream completed: {done:?}"),
    }

    // Kill the backend the stream lives on.
    let owner = router
        .discovery()
        .owner(&load.fingerprint.to_hex(), "gd")
        .expect("an owner exists");
    let dead = backends
        .iter()
        .position(|b| b.local_addr().to_string() == owner)
        .expect("the owner is one of ours");
    backends[dead].shutdown();

    // The stream already produced output, so it cannot be silently
    // re-routed: it must end with a terminal error. A graceful daemon
    // shutdown gets its own `shutdown` terminal frame relayed verbatim
    // before the socket closes; a harder death (EOF with the request
    // still in flight) surfaces the router's `backend-lost`. Either way
    // the stream ends with an error, never a fabricated `done`.
    loop {
        match client.sample_next(id) {
            Ok(SampleEvent::Batch(_)) => {} // chunks racing the loss
            Ok(SampleEvent::Done(done)) => panic!("lost stream completed: {done:?}"),
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("backend lost") || msg.contains("shutting down"),
                    "unexpected error: {msg}"
                );
                break;
            }
            Err(other) => panic!("unexpected failure: {other:?}"),
        }
    }

    // Re-issuing the request re-routes to the survivor, which serves the
    // identical stream from the start (same seed, warm artifact).
    let want = reference(&tiny_cnf, 3, 1, 3);
    let id = client
        .sample_start(&SampleParams {
            n: 3,
            seed: 3,
            threads: Some(1),
            ..SampleParams::new(load.fingerprint)
        })
        .expect("re-issue");
    assert_eq!(drain(&mut client, id), want, "re-issued stream matches");
}

#[test]
fn v1_clients_route_transparently() {
    let cache = temp_cache("v1");
    let router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let _b1 = start_backend(&router_addr, &cache);
    let _b2 = start_backend(&router_addr, &cache);
    wait_for_backends(&router, 2);

    let instance = families::or_chain("route-v1", 24, 2, 0xD44);
    let want = reference(&instance.cnf, 5, 1, 4);

    // A raw v1 session (no HELLO): replies must be indistinguishable from
    // a direct daemon — no v2 framing, whole batch in one reply.
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: String| -> Json {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert!(!reply.is_empty(), "router closed the connection");
        Json::parse(reply.trim_end()).expect("parse reply")
    };

    let escaped = dimacs::to_string(&instance.cnf).replace('\n', "\\n");
    let load = exchange(format!("{{\"cmd\":\"load\",\"dimacs\":\"{escaped}\"}}"));
    assert_eq!(load.get("ok").and_then(Json::as_bool), Some(true));
    assert!(load.get("frame").is_none(), "v1 replies carry no framing");
    let fingerprint = load
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();

    let sample = exchange(format!(
        "{{\"cmd\":\"sample\",\"fingerprint\":\"{fingerprint}\",\"n\":4,\"seed\":5,\"threads\":1}}"
    ));
    assert_eq!(sample.get("ok").and_then(Json::as_bool), Some(true));
    assert!(sample.get("frame").is_none());
    let solutions: Vec<Vec<bool>> = sample
        .get("solutions")
        .and_then(Json::as_arr)
        .expect("solutions")
        .iter()
        .map(|row| {
            htsat_serve::proto::decode_solution(row.as_str().expect("bit string"))
                .expect("decode solution")
        })
        .collect();
    assert_eq!(solutions, want, "routed v1 SAMPLE matches the reference");
}

#[test]
fn aggregation_verbs_fan_out_across_the_fleet() {
    let cache = temp_cache("aggregate");
    let router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let _b1 = start_backend(&router_addr, &cache);
    let _b2 = start_backend(&router_addr, &cache);
    wait_for_backends(&router, 2);

    let instance = families::or_chain("route-agg", 24, 2, 0xE55);
    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    client.hello().expect("hello");
    let load = client
        .load_dimacs(Some("route-agg"), &dimacs::to_string(&instance.cnf))
        .expect("load");

    // STATUS aggregates: registry counters sum, entries concatenate, and
    // the router contributes its own `backends` liveness array.
    let status = client.status().expect("status through router");
    let backends_field = status
        .get("backends")
        .and_then(Json::as_arr)
        .expect("router status carries a backends array");
    assert!(backends_field.len() >= 2, "both backends are listed");
    assert!(
        status.get("compiles").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the owner's compile shows up in the summed counters"
    );
    let entries = status
        .get("entries")
        .and_then(Json::as_arr)
        .expect("entries");
    assert!(
        entries.iter().any(|entry| {
            entry.get("fingerprint").and_then(Json::as_str)
                == Some(load.fingerprint.to_hex().as_str())
        }),
        "the loaded formula appears in the concatenated entries"
    );

    // STATS merges into one valid htsat-stats-v1 snapshot the unchanged
    // typed client (and therefore `repro stats`) parses.
    let snapshot = client.stats().expect("stats through router");
    assert!(
        snapshot.counter("router.requests.load").unwrap_or(0) >= 1,
        "router-side counters are in the merged snapshot"
    );
    assert!(
        snapshot.counter("serve.requests.load").unwrap_or(0) >= 1,
        "backend-side counters are in the merged snapshot"
    );

    // TRACE merges into one valid htsat-trace-v1 report (the unchanged
    // `repro trace` path).
    let report = client
        .trace(Some(32), None, None)
        .expect("trace through router");
    assert!(
        report
            .timelines
            .iter()
            .any(|timeline| timeline.verb == "load"),
        "the routed LOAD shows up in some fleet member's timelines"
    );

    // EVICT broadcasts; the shard owner reports the eviction.
    assert!(client.evict(load.fingerprint).expect("evict"), "evicted");
    let status = client.status().expect("status after evict");
    assert!(
        status
            .get("entries")
            .and_then(Json::as_arr)
            .expect("entries")
            .is_empty(),
        "no fleet member still holds the evicted formula"
    );
}

#[test]
fn shutdown_through_the_router_stops_the_whole_tree() {
    let cache = temp_cache("shutdown");
    let mut router = route(RouterConfig::default()).expect("router");
    let router_addr = router.local_addr().to_string();
    let mut backends = [
        start_backend(&router_addr, &cache),
        start_backend(&router_addr, &cache),
    ];
    wait_for_backends(&router, 2);

    let mut client = Client::connect(router.local_addr()).expect("connect to router");
    client.hello().expect("hello");
    client.shutdown().expect("shutdown acknowledged");

    // The broadcast reached every daemon and the router stopped itself.
    for backend in &mut backends {
        backend.wait();
        assert!(backend.is_stopped(), "backend received the broadcast");
    }
    router.wait();
    assert!(
        router.is_stopped(),
        "the router stopped after the broadcast"
    );
}

/// A raw line-level connection, so reply bytes are compared exactly as
/// they crossed the wire.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        RawConn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
    }

    /// The next reply line, terminator included.
    fn reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(
            line.ends_with('\n'),
            "connection closed mid-reply: {line:?}"
        );
        line
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(format!("{line}\n").as_bytes());
        self.reply()
    }
}

/// Drives the malformed-line and per-connection-error script against
/// `addr`, returning every reply line in order.
fn malformed_line_transcript(addr: std::net::SocketAddr, tiny_hex: &str) -> Vec<String> {
    let mut conn = RawConn::connect(addr);
    let unloaded = "0123456789abcdef0123456789abcdef";
    let mut replies = vec![
        // v1 phase.
        conn.ask("{not json"),
        conn.ask(r#"{"cmd":"status","trace":"not-hex"}"#),
        conn.ask(r#"{"cmd":"hello","version":9}"#),
        conn.ask(r#"{"cmd":"hello","version":2}"#),
        // v2 phase.
        conn.ask("{not json"),
        conn.ask(r#"{"cmd":"status"}"#),
        conn.ask(r#"{"cmd":"status","id":"three"}"#),
        conn.ask(r#"{"cmd":"status","id":3,"trace":"not-hex"}"#),
        conn.ask(r#"{"cmd":"hello","id":4,"version":2}"#),
    ];
    // A CRLF-terminated, traced SAMPLE of a formula nobody loaded.
    conn.send(
        format!(
            "{{\"cmd\":\"sample\",\"id\":5,\"fingerprint\":\"{unloaded}\",\"trace\":\"c0ffee\"}}\r\n"
        )
        .as_bytes(),
    );
    replies.push(conn.reply());
    // A traced EVICT whose line is split by a pause longer than the read
    // poll.
    let split =
        format!("{{\"cmd\":\"evict\",\"id\":6,\"fingerprint\":\"{unloaded}\",\"trace\":\"ab\"}}\n");
    let (head, tail) = split.split_at(split.len() / 2);
    conn.send(head.as_bytes());
    std::thread::sleep(htsat_serve::conn::READ_POLL * 3);
    conn.send(tail.as_bytes());
    replies.push(conn.reply());
    // A duplicate in-flight id: the first SAMPLE parks after TINY's three
    // solutions (huge stale limit), so the second arrives while it is open.
    let parked = format!(
        "{{\"cmd\":\"sample\",\"id\":7,\"fingerprint\":\"{tiny_hex}\",\"n\":10,\"seed\":1,\
         \"threads\":1,\"max_stale\":4000000000}}"
    );
    conn.send(format!("{parked}\n{parked}\n").as_bytes());
    loop {
        let line = conn.reply();
        if !line.contains(r#""frame":"chunk""#) {
            replies.push(line);
            break;
        }
    }
    replies
}

#[test]
fn routed_error_frames_equal_direct_ones_byte_for_byte() {
    let cache = temp_cache("malformed");
    let router = route(RouterConfig::default()).expect("router");
    let backend = start_backend(&router.local_addr().to_string(), &cache);
    wait_for_backends(&router, 1);
    let mut client = Client::connect(backend.local_addr()).expect("connect to backend");
    let tiny_hex = client
        .load_dimacs(Some("tiny"), TINY)
        .expect("load tiny")
        .fingerprint
        .to_hex();

    let direct = malformed_line_transcript(backend.local_addr(), &tiny_hex);
    let routed = malformed_line_transcript(router.local_addr(), &tiny_hex);
    assert_eq!(direct.len(), routed.len());
    for (step, (direct, routed)) in direct.iter().zip(&routed).enumerate() {
        assert_eq!(
            direct, routed,
            "reply {step} differs between daemon and router"
        );
    }

    // The script really exercised the error paths it names.
    let expect = [
        (0, "invalid JSON"),
        (1, "`trace` must be"),
        (2, "unsupported protocol version 9"),
        (3, r#""version":2"#),
        (4, r#""frame":"error","id":null"#),
        (5, "v2 requests need an `id`"),
        (6, r#""id":null"#),
        (7, "`trace` must be"),
        (8, "protocol version already negotiated"),
        (
            9,
            r#""code":"not-loaded","trace":"00000000000000000000000000c0ffee""#,
        ),
        (
            10,
            r#""evicted_count":0,"trace":"000000000000000000000000000000ab""#,
        ),
        (11, "duplicate in-flight `id` 7"),
    ];
    assert_eq!(direct.len(), expect.len());
    for (step, needle) in expect {
        assert!(
            direct[step].contains(needle),
            "reply {step} should contain {needle:?}: {}",
            direct[step]
        );
    }
}
