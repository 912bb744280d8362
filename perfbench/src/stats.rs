//! The benchmark's own arithmetic: medians, tail percentiles that refuse
//! to extrapolate, span self time, failure accounting and `/proc` parsing.

use htsat_obs::trace::SpanRecord;

/// How many samples must lie beyond a tail percentile before it is
/// reported; fewer would make the tail a reading of one or two outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering a share q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let start = span.start_ns;
            let end = span.start_ns.saturating_add(span.duration_ns);
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|child| child.parent == Some(index as u32))
                .map(|child| {
                    let child_end = child.start_ns.saturating_add(child.duration_ns);
                    (
                        child.start_ns.clamp(start, end),
                        child_end.clamp(start, end),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut cursor = start;
            for (s, e) in children {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration_ns.saturating_sub(covered)
        })
        .collect()
}

/// Requests attempted and failed, with the first failure's reason.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests issued in the timed passes.
    pub attempted: u64,
    /// Requests that failed any check.
    pub failed: u64,
    /// Why the first failed request failed.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one request; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    /// Marks an already counted request as failed (a check that runs after
    /// the timed pass, such as a reference comparison).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(reason);
    }

    /// Whether every attempted request passed.
    pub fn all_passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Whether a request ran undisturbed by the host: the VM lost at most one
/// clock tick of CPU to the hypervisor (`steal`) per 100 ms of request
/// time, which is 5 % of two CPUs. On a shared host, stolen time comes in
/// bursts that slowed requests by up to 40 % and is no property of the
/// program, so the timing and CPU metrics leave such requests out.
pub fn undisturbed(stolen_ticks: u64, request_ms: f64) -> bool {
    stolen_ticks as f64 * 100.0 <= request_ms
}

/// The items timing and CPU metrics are taken over: those `keep` selects, unless
/// fewer than a quarter of all (or none) are kept — then every item, so a
/// run in a long burst still reports.
pub fn undisturbed_or_all<T>(items: &[T], keep: impl Fn(&T) -> bool) -> Vec<&T> {
    let kept: Vec<&T> = items.iter().filter(|item| keep(item)).collect();
    if kept.is_empty() || kept.len() * 4 < items.len() {
        items.iter().collect()
    } else {
        kept
    }
}

/// The VM-wide `steal` ticks from a `/proc/stat` text (field 8 of the
/// aggregate `cpu` line).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` text. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            name: "s".to_string(),
            parent,
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_is_refused_with_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199 samples has rank 190: only 9 samples lie beyond.
        assert_eq!(tail_percentile(&values, 0.95), None);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&values, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&[1.0; 12], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span(None, 0, 100),    // root
            span(Some(0), 10, 30), // child [10, 40)
            span(Some(0), 30, 20), // overlapping child [30, 50)
            span(Some(1), 15, 10), // grandchild: not the root's child
            span(Some(0), 90, 50), // child running past the root's end
            span(None, 200, 7),    // unrelated root without children
        ];
        let selfs = self_times_ns(&spans);
        // Root: 100 − |[10, 50) ∪ [90, 100)| = 100 − 50.
        assert_eq!(selfs[0], 50);
        // Child 1: 30 − its grandchild's 10.
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[5], 7);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut tally = Tally::default();
        assert!(!tally.all_passed(), "nothing attempted is not a pass");
        tally.record(Ok(()));
        tally.record(Err("short".to_string()));
        tally.record(Ok(()));
        tally.fail("mismatch".to_string());
        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.failed, 2);
        assert_eq!(tally.first_failure.as_deref(), Some("short"));
        assert!(!tally.all_passed());
    }

    #[test]
    fn proc_status_and_stat_parse() {
        let status =
            "Name:\thtsat-serve\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12345));
        assert_eq!(parse_vmhwm_kib("Name:\tx\n"), None);
        // A command name with a space and a parenthesis, as the kernel
        // prints it; utime = 1500, stime = 250.
        let stat = "4242 (htsat (serve) x) S 1 4242 4242 0 -1 4194560 \
                    900 0 0 0 1500 250 0 0 20 0 7 0 123456 1000000 300";
        assert_eq!(parse_cpu_ticks(stat), Some(1750));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        let proc_stat = "cpu  197705 0 12621 400760 576 0 1153 20953 0 0\n\
                         cpu0 98000 0 6000 200000 300 0 600 10000 0 0\n";
        assert_eq!(parse_steal_ticks(proc_stat), Some(20953));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn disturbed_requests_leave_the_timing_unless_too_few_remain() {
        // One tick per 100 ms: a 35 ms request tolerates none, 1.7 s up to 17.
        assert!(undisturbed(0, 35.0));
        assert!(!undisturbed(1, 35.0));
        assert!(undisturbed(17, 1700.0));
        assert!(!undisturbed(18, 1700.0));
        let requests = [(1, true), (2, false), (3, true), (4, true)];
        let kept = undisturbed_or_all(&requests, |r| r.1);
        assert_eq!(kept.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 3, 4]);
        // One of five kept is under a quarter: every request counts.
        let requests = [(1, true), (2, false), (3, false), (4, false), (5, false)];
        assert_eq!(undisturbed_or_all(&requests, |r| r.1).len(), 5);
        assert_eq!(undisturbed_or_all(&requests[1..], |r| r.1).len(), 4);
    }
}
