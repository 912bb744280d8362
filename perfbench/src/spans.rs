//! Serve-layer times read off the daemons' `TRACE` timelines.

use crate::stats::{median, self_times_ns};
use htsat_obs::trace::Timeline;
use htsat_obs::TraceId;
use htsat_serve::Client;
use std::collections::BTreeMap;

/// The trace ring holds 64 timelines; fetching after at most this many
/// traced requests keeps every one of them from being overwritten.
pub const FETCH_EVERY: usize = 16;

/// Timelines of the benchmark's own traced requests, keyed by trace id.
#[derive(Default)]
pub struct Collected {
    pub timelines: BTreeMap<u128, Timeline>,
}

impl Collected {
    /// Pulls the ring's `sample` timelines and keeps those whose trace id
    /// is in `wanted` (re-fetched timelines replace themselves).
    pub fn fetch(&mut self, client: &mut Client, wanted: &[TraceId]) -> Result<(), String> {
        let report = client
            .trace(None, Some("sample"), None)
            .map_err(|e| format!("TRACE: {e}"))?;
        for timeline in report.timelines {
            if wanted.contains(&timeline.trace) {
                self.timelines.insert(timeline.trace.as_u128(), timeline);
            }
        }
        Ok(())
    }
}

/// Medians over traced requests of each serve-side stage.
#[derive(Debug, Default)]
pub struct ServeLayers {
    /// `serve.reader` self time, µs.
    pub reader_us: f64,
    /// `serve.request` self time (the worker outside `engine.round`), ms.
    pub worker_ms: f64,
    /// One `engine.round` in the daemon, ms.
    pub engine_round_ms: f64,
    /// `serve.worker.queue_wait`, summed over a request's frames, µs.
    pub queue_wait_us: f64,
    /// `serve.writer.serialize`, summed over a request's frames, µs.
    pub serialize_us: f64,
    /// `serve.writer.write`, summed over a request's frames, µs.
    pub write_us: f64,
    /// Timelines the medians are taken over.
    pub requests: usize,
}

/// Per-request stage times from `timelines`; `None` when no timeline has
/// a `serve.request` span.
pub fn serve_layers<'a>(timelines: impl IntoIterator<Item = &'a Timeline>) -> Option<ServeLayers> {
    let mut stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rounds = Vec::new();
    let mut requests = 0;
    for timeline in timelines {
        if !timeline.spans.iter().any(|s| s.name == "serve.request") {
            continue;
        }
        requests += 1;
        let selfs = self_times_ns(&timeline.spans);
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, self_ns) in timeline.spans.iter().zip(&selfs) {
            match span.name.as_str() {
                "engine.round" => rounds.push(span.duration_ns as f64 / 1e6),
                name @ ("serve.reader"
                | "serve.request"
                | "serve.worker.queue_wait"
                | "serve.writer.serialize"
                | "serve.writer.write") => {
                    *sums.entry(name).or_default() += self_ns;
                }
                _ => {}
            }
        }
        for name in [
            "serve.reader",
            "serve.request",
            "serve.worker.queue_wait",
            "serve.writer.serialize",
            "serve.writer.write",
        ] {
            let ns = sums.get(name).copied().unwrap_or(0);
            stage.entry(name).or_default().push(ns as f64);
        }
    }
    if requests == 0 {
        return None;
    }
    let p50 = |name: &str, scale: f64| median(&stage[name]).unwrap_or(0.0) / scale;
    Some(ServeLayers {
        reader_us: p50("serve.reader", 1e3),
        worker_ms: p50("serve.request", 1e6),
        engine_round_ms: median(&rounds).unwrap_or(0.0),
        queue_wait_us: p50("serve.worker.queue_wait", 1e3),
        serialize_us: p50("serve.writer.serialize", 1e3),
        write_us: p50("serve.writer.write", 1e3),
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsat_obs::trace::SpanRecord;

    fn span(name: &str, parent: Option<u32>, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            parent,
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn worker_time_excludes_rounds_and_frames_sum_per_request() {
        let timeline = Timeline {
            trace: TraceId::from_u128(1),
            verb: "sample".to_string(),
            request_id: 1,
            total_ns: 10_000_000,
            dropped_spans: 0,
            spans: vec![
                span("serve.reader", None, 0, 20_000),
                span("serve.request", None, 20_000, 9_000_000),
                span("engine.round", Some(1), 100_000, 4_000_000),
                span("runtime.region", Some(2), 100_000, 3_000_000),
                span("engine.round", Some(1), 4_200_000, 4_000_000),
                span("serve.worker.queue_wait", None, 4_100_000, 5_000),
                span("serve.writer.serialize", None, 4_105_000, 300_000),
                span("serve.writer.write", None, 4_405_000, 40_000),
                span("serve.worker.queue_wait", None, 8_300_000, 7_000),
                span("serve.writer.serialize", None, 8_307_000, 100_000),
                span("serve.writer.write", None, 8_407_000, 60_000),
            ],
            order: 1,
        };
        let layers = serve_layers([&timeline]).expect("one traced request");
        assert_eq!(layers.requests, 1);
        assert_eq!(layers.reader_us, 20.0);
        assert_eq!(layers.worker_ms, 1.0);
        assert_eq!(layers.engine_round_ms, 4.0);
        assert_eq!(layers.queue_wait_us, 12.0);
        assert_eq!(layers.serialize_us, 400.0);
        assert_eq!(layers.write_us, 100.0);
        let untraced = Timeline {
            spans: vec![span("serve.reader", None, 0, 1)],
            ..timeline
        };
        assert!(serve_layers([&untraced]).is_none());
    }
}
