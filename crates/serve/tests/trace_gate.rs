//! Request-scoped tracing, driven against a real daemon: wire-propagated
//! trace ids, per-request span timelines with the full
//! reader → worker → writer attribution, the `TRACE` verb's filters, and
//! the framing contracts (explicit ids echoed on *every* v2 frame of the
//! request; v1 responses never growing a `trace` key).
//!
//! The trace ring is process-global, so every assertion here filters by
//! the test's own trace ids or verbs — tests in this binary run
//! concurrently and each drives its own daemon.

use htsat_cnf::dimacs;
use htsat_instances::families;
use htsat_obs::trace::Timeline;
use htsat_obs::TraceId;
use htsat_serve::json::Json;
use htsat_serve::proto::SampleParams;
use htsat_serve::{serve, Client, SampleEvent, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn corpus_instance() -> String {
    let instance = families::or_chain("or-trace", 24, 2, 0xF2A);
    dimacs::to_string(&instance.cnf)
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
}

/// The span names of one timeline, in recorded order.
fn span_names(timeline: &Timeline) -> Vec<&str> {
    timeline.spans.iter().map(|s| s.name.as_str()).collect()
}

#[test]
fn pipelined_traced_samples_attribute_reader_worker_writer_and_engine() {
    let server = start_server();
    let dimacs_text = corpus_instance();

    // Two concurrent v2 connections, each stamping its own trace id and
    // pipelining two chunked SAMPLEs — four in-flight traced requests.
    let (trace_a, trace_b) = (
        TraceId::from_u128(0x7ACE_0001),
        TraceId::from_u128(0x7ACE_0002),
    );
    let mut fingerprint = None;
    for trace in [trace_a, trace_b] {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.hello().expect("negotiate v2");
        client.set_trace(Some(trace));
        let load = client
            .load_dimacs(Some("trace-gate"), &dimacs_text)
            .expect("load");
        fingerprint = Some(load.fingerprint);
        let ids: Vec<u64> = (0..2)
            .map(|i| {
                client
                    .sample_start(&SampleParams {
                        n: 5,
                        seed: 7 + i,
                        ..SampleParams::new(load.fingerprint)
                    })
                    .expect("start pipelined sample")
            })
            .collect();
        for id in ids {
            while let SampleEvent::Batch(batch) = client.sample_next(id).expect("stream event") {
                assert!(!batch.is_empty());
            }
        }
    }
    let _ = fingerprint.expect("loaded");

    // Query TRACE through a fresh (v1!) connection: the verb works on both
    // framings.
    let mut reader = Client::connect(server.local_addr()).expect("connect");
    let report = reader
        .trace(None, Some("sample"), None)
        .expect("TRACE report");
    let ours: Vec<&Timeline> = report
        .timelines
        .iter()
        .filter(|t| t.trace == trace_a || t.trace == trace_b)
        .collect();
    assert_eq!(ours.len(), 4, "all four pipelined samples recorded");

    for timeline in &ours {
        assert_eq!(timeline.verb, "sample");
        assert!(timeline.total_ns > 0);
        assert_eq!(timeline.dropped_spans, 0);
        let names = span_names(timeline);
        // The full request path is attributed: reader admission, the
        // worker's serve.request with the engine's rounds nested beneath
        // it, then the writer splitting queue-wait / serialize / write for
        // the request's frames.
        for required in [
            "serve.reader",
            "serve.request",
            "engine.round",
            "stream.dedup",
            "serve.worker.queue_wait",
            "serve.writer.serialize",
            "serve.writer.write",
        ] {
            assert!(
                names.contains(&required),
                "timeline {} misses `{required}`: {names:?}",
                timeline.trace.to_hex()
            );
        }
        // Parent structure: engine rounds hang off the worker's
        // serve.request span (thread-local binding), writer spans are
        // roots (they happen on the writer thread, outside any scope).
        let request_idx = timeline
            .spans
            .iter()
            .position(|s| s.name == "serve.request")
            .expect("serve.request span");
        for span in &timeline.spans {
            match span.name.as_str() {
                "engine.round" => {
                    assert_eq!(
                        span.parent,
                        Some(request_idx as u32),
                        "engine.round nests under serve.request"
                    );
                }
                "serve.reader"
                | "serve.worker.queue_wait"
                | "serve.writer.serialize"
                | "serve.writer.write" => {
                    assert_eq!(span.parent, None, "{} is a root span", span.name);
                }
                _ => {}
            }
            assert!(
                span.start_ns + span.duration_ns <= timeline.total_ns,
                "span {} ends inside the request total",
                span.name
            );
        }
        // A chunked stream writes at least two frames (chunk + done), each
        // recording its own queue-wait/serialize/write triple.
        let writes = names.iter().filter(|n| **n == "serve.writer.write").count();
        assert!(writes >= 2, "expected >= 2 written frames, got {writes}");
    }

    // TRACE filters: `last` caps, an impossible `min_ms` empties.
    let capped = reader.trace(Some(1), None, None).expect("capped");
    assert!(capped.timelines.len() <= 1);
    let none = reader
        .trace(None, Some("sample"), Some(10 * 60 * 1000))
        .expect("min-ms filtered");
    assert!(
        none.timelines.is_empty(),
        "no sample can have taken ten minutes"
    );
}

#[test]
fn explicit_trace_ids_echo_on_every_v2_frame_and_never_on_v1() {
    let server = start_server();
    let dimacs_text = corpus_instance();

    // v1: a traced request records server-side but the response stays
    // bit-for-bit free of any trace key.
    let mut v1 = Raw::connect(server.local_addr());
    v1.send(
        &Json::obj(vec![
            ("cmd", "load".into()),
            ("dimacs", dimacs_text.clone().into()),
            ("trace", "beef0001".into()),
        ])
        .encode(),
    );
    let reply = v1.recv();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        reply.get("trace").is_none(),
        "v1 replies never carry a trace key"
    );
    let fingerprint = reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();

    // The v1-recorded timeline still exists — with the explicit id — and
    // carries the lockstep writer's own write span.
    let mut reader = Client::connect(server.local_addr()).expect("connect");
    let report = reader.trace(None, Some("load"), None).expect("TRACE");
    let recorded = report
        .timelines
        .iter()
        .find(|t| t.trace == TraceId::from_u128(0xBEEF_0001))
        .expect("v1 traced request recorded");
    let names = span_names(recorded);
    assert!(names.contains(&"serve.request"));
    assert!(names.contains(&"serve.writer.write"));

    // An ill-formed trace id is a bad request, not a silent drop.
    let mut bad = Raw::connect(server.local_addr());
    bad.send("{\"cmd\":\"status\",\"trace\":\"not-hex!\"}");
    let reply = bad.recv();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad-request")
    );

    // v2: every frame of a traced request — chunks and the terminal done —
    // echoes the id; an untraced request's frames carry no trace key.
    let mut v2 = Raw::connect(server.local_addr());
    v2.send("{\"cmd\":\"hello\",\"version\":2}");
    assert_eq!(v2.recv().get("ok").and_then(Json::as_bool), Some(true));
    v2.send(&format!(
        "{{\"cmd\":\"sample\",\"fingerprint\":\"{fingerprint}\",\"n\":5,\"seed\":3,\"id\":1,\
         \"trace\":\"c0ffee\"}}"
    ));
    let mut frames = 0;
    loop {
        let frame = v2.recv();
        assert_eq!(frame.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(
            frame.get("trace").and_then(Json::as_str),
            Some("00000000000000000000000000c0ffee"),
            "every frame of a traced request echoes the full-width id"
        );
        frames += 1;
        match frame.get("frame").and_then(Json::as_str) {
            Some("chunk") => {}
            Some("done") => break,
            other => panic!("unexpected frame kind {other:?}"),
        }
    }
    assert!(frames >= 2, "chunked stream: chunk frame(s) + done");

    v2.send(&format!(
        "{{\"cmd\":\"sample\",\"fingerprint\":\"{fingerprint}\",\"n\":2,\"seed\":4,\"id\":2}}"
    ));
    loop {
        let frame = v2.recv();
        assert!(
            frame.get("trace").is_none(),
            "untraced requests keep the pre-trace frame shape"
        );
        if frame.get("frame").and_then(Json::as_str) == Some("done") {
            break;
        }
    }
}
