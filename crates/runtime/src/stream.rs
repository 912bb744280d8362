//! The streaming sampling service: turn a round-based producer into a
//! deduplicated, cancellable iterator of unique items.

use crate::StopToken;
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// A producer of sampling rounds.
///
/// One `round` call produces a batch of candidate items (for the SAT
/// samplers: valid, not-yet-deduplicated satisfying assignments).
/// [`SampleStream`] drives rounds lazily and handles deduplication,
/// deadlines and cancellation on top.
pub trait RoundSource {
    /// The item type produced by a round.
    type Item: Clone + Eq + Hash;

    /// Produces the next batch of candidate items.
    ///
    /// Implementations should poll `stop` at natural cut points (per
    /// gradient-descent iteration, per row) and return early — possibly with
    /// a partial batch — once it is set.
    fn round(&mut self, stop: &StopToken) -> Vec<Self::Item>;

    /// Number of candidates attempted per round, used for statistics.
    /// `0` when unknown. The stream calls this right after each
    /// [`RoundSource::round`], so variable-size sources may report the
    /// most recent round's actual attempt count.
    fn round_size(&self) -> usize {
        0
    }

    /// Hands the source's memory of previously emitted items to the stream.
    ///
    /// Sources that deduplicate across API calls (e.g. a sampler whose
    /// repeated `sample` calls must never repeat a solution) return their
    /// seen-set here; the stream extends it and returns it through
    /// [`RoundSource::restore_seen`] when dropped. The default is an empty
    /// set (no cross-stream memory).
    fn take_seen(&mut self) -> HashSet<Self::Item> {
        HashSet::new()
    }

    /// Receives the seen-set back when the stream is dropped.
    fn restore_seen(&mut self, _seen: HashSet<Self::Item>) {}

    /// Whether the source already deduplicates: every item its rounds
    /// return is unique across the whole stream. [`SampleStream::new`]
    /// reads this once; a `true` source makes the stream skip its own
    /// seen-set (halving the dedup memory and avoiding a clone per item)
    /// and count an empty round as a stale round.
    ///
    /// Only sources that *must* track uniqueness internally anyway (e.g. a
    /// QuickSampler-style session, whose mutation logic depends on which
    /// candidates were fresh) should claim this; a source that breaks the
    /// guarantee makes the stream yield duplicates. The default is `false`.
    fn dedups_internally(&self) -> bool {
        false
    }
}

impl<S: RoundSource> RoundSource for &mut S {
    type Item = S::Item;

    fn round(&mut self, stop: &StopToken) -> Vec<Self::Item> {
        (**self).round(stop)
    }

    fn round_size(&self) -> usize {
        (**self).round_size()
    }

    fn take_seen(&mut self) -> HashSet<Self::Item> {
        (**self).take_seen()
    }

    fn restore_seen(&mut self, seen: HashSet<Self::Item>) {
        (**self).restore_seen(seen);
    }

    fn dedups_internally(&self) -> bool {
        (**self).dedups_internally()
    }
}

/// Boxed sources are sources too — this is what lets heterogeneous engines
/// (`Box<dyn RoundSource<Item = …>>` sessions) drive one [`SampleStream`].
impl<S: RoundSource + ?Sized> RoundSource for Box<S> {
    type Item = S::Item;

    fn round(&mut self, stop: &StopToken) -> Vec<Self::Item> {
        (**self).round(stop)
    }

    fn round_size(&self) -> usize {
        (**self).round_size()
    }

    fn take_seen(&mut self) -> HashSet<Self::Item> {
        (**self).take_seen()
    }

    fn restore_seen(&mut self, seen: HashSet<Self::Item>) {
        (**self).restore_seen(seen);
    }

    fn dedups_internally(&self) -> bool {
        (**self).dedups_internally()
    }
}

/// The smallest elapsed time [`unique_throughput`] divides by: one
/// microsecond, the resolution the repro tables report at.
pub const MIN_MEASURABLE_TICK: Duration = Duration::from_micros(1);

/// Unique-item throughput in items per second, with the denominator clamped
/// to [`MIN_MEASURABLE_TICK`].
///
/// This is the **one** throughput definition every reporting layer shares
/// (`SampleReport` in `htsat-core`, the bench tables): a run that completes
/// faster than the clock can resolve yields the finite upper bound
/// `count / 1µs` instead of silently returning the raw item *count* (which a
/// table would then print as a rate).
#[must_use]
pub fn unique_throughput(count: usize, elapsed: Duration) -> f64 {
    count as f64 / elapsed.max(MIN_MEASURABLE_TICK).as_secs_f64()
}

/// Progress counters of a [`SampleStream`].
///
/// The struct is `Copy` and exposes its counters both as plain fields and
/// through [`StreamStats::fields`] — a stable name/value listing that
/// reporting layers (status endpoints, wire protocols, log lines) can
/// serialize without this crate depending on any serialization framework.
/// Accumulate per-request stats into a long-lived total with
/// [`StreamStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rounds executed so far.
    pub rounds: usize,
    /// Candidates attempted (`rounds × round_size`).
    pub attempts: usize,
    /// Valid candidates produced by the source (before deduplication).
    pub valid: usize,
    /// Unique items yielded to the consumer.
    pub yielded: usize,
    /// Valid candidates dropped as duplicates.
    pub duplicates: usize,
}

impl StreamStats {
    /// Adds every counter of `other` into `self`.
    ///
    /// A serving layer calls this once per finished request to keep a
    /// cumulative per-formula (or per-server) total.
    pub fn merge(&mut self, other: &StreamStats) {
        self.rounds += other.rounds;
        self.attempts += other.attempts;
        self.valid += other.valid;
        self.yielded += other.yielded;
        self.duplicates += other.duplicates;
    }

    /// The counters as `(name, value)` pairs, in declaration order.
    ///
    /// The names are stable and lowercase (`rounds`, `attempts`, `valid`,
    /// `yielded`, `duplicates`) — suitable as serialization keys.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, usize); 5] {
        [
            ("rounds", self.rounds),
            ("attempts", self.attempts),
            ("valid", self.valid),
            ("yielded", self.yielded),
            ("duplicates", self.duplicates),
        ]
    }
}

impl std::fmt::Display for StreamStats {
    /// Formats the counters as `key=value` pairs separated by spaces — the
    /// log-line form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, value) in self.fields() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

/// A lazy, deduplicated, cancellable stream of unique items.
///
/// `SampleStream` is an `Iterator`: each `next` first drains items already
/// discovered, then — while the stop token is clear, the deadline (if any)
/// has not passed, and the source still makes progress — runs further rounds
/// on demand. Items are deduplicated incrementally against a seen-set, and
/// because rounds return items in a deterministic order, the *stream order*
/// is deterministic too for a deterministic source.
///
/// Termination:
///
/// * **Cancellation** — once the [`StopToken`] is set the stream returns
///   `None` immediately, even if undelivered items are pending (use
///   [`SampleStream::drain_ready`] to recover them).
/// * **Deadline** — after the deadline no further rounds run, but pending
///   items are still delivered.
/// * **Exhaustion** — [`SampleStream::with_stale_limit`] consecutive rounds
///   without a new unique item mark the stream exhausted (sources over a
///   finite solution space would otherwise spin forever re-discovering known
///   items).
pub struct SampleStream<S: RoundSource> {
    source: S,
    stop: StopToken,
    deadline: Option<Instant>,
    stale_limit: u32,
    stale_rounds: u32,
    exhausted: bool,
    seen: HashSet<S::Item>,
    /// The source guarantees round items are already unique (see
    /// [`RoundSource::dedups_internally`]); skip the stream's own seen-set.
    source_dedups: bool,
    pending: VecDeque<S::Item>,
    stats: StreamStats,
    started: Instant,
    /// Lifetime total of progress-free rounds (unlike `stale_rounds`, never
    /// reset), folded into the `engine.stale_rounds` metric on drop.
    stale_total: usize,
    /// The stream returned `None` because its deadline passed.
    hit_deadline: bool,
    /// The stream returned `None` because its stop token fired.
    cancelled: bool,
}

impl<S: RoundSource> SampleStream<S> {
    /// Default number of progress-free rounds after which the stream reports
    /// exhaustion.
    pub const DEFAULT_STALE_LIMIT: u32 = 8;

    /// Creates a stream over `source` with no deadline, a fresh stop token
    /// and the default stale limit.
    pub fn new(mut source: S) -> Self {
        let seen = source.take_seen();
        let source_dedups = source.dedups_internally();
        SampleStream {
            source,
            stop: StopToken::new(),
            deadline: None,
            stale_limit: Self::DEFAULT_STALE_LIMIT,
            stale_rounds: 0,
            exhausted: false,
            seen,
            source_dedups,
            pending: VecDeque::new(),
            stats: StreamStats::default(),
            started: Instant::now(),
            stale_total: 0,
            hit_deadline: false,
            cancelled: false,
        }
    }

    /// Uses `stop` for cancellation instead of a private token.
    #[must_use]
    pub fn with_stop_token(mut self, stop: StopToken) -> Self {
        self.stop = stop;
        self
    }

    /// Stops starting new rounds once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops starting new rounds once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }

    /// Marks the stream exhausted after `limit` consecutive rounds without a
    /// new unique item (`0` disables the early exit).
    #[must_use]
    pub fn with_stale_limit(mut self, limit: u32) -> Self {
        self.stale_limit = limit;
        self
    }

    /// A clone of the stream's stop token; set it (from any thread) to
    /// cancel the stream.
    #[must_use]
    pub fn stop_token(&self) -> StopToken {
        self.stop.clone()
    }

    /// Progress counters so far.
    #[must_use]
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Time since the stream was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the source has stopped making progress (stale-limit hit).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Yields every already-discovered item without running new rounds.
    ///
    /// Useful after `take(n)` (the final round usually discovers more unique
    /// items than were consumed) and after cancellation.
    pub fn drain_ready(&mut self) -> Vec<S::Item> {
        let drained: Vec<S::Item> = self.pending.drain(..).collect();
        self.stats.yielded += drained.len();
        drained
    }

    /// Yields the next chunk of up to `max` unique items: runs rounds until
    /// at least one item is available (exactly like [`Iterator::next`]),
    /// then drains further *already-discovered* items up to the cap without
    /// starting another round.
    ///
    /// Chunks therefore fall on [`RoundSource::round`] call boundaries
    /// (slice boundaries, which may depend on the thread count, for a
    /// source that slices its rounds), and the concatenation of successive
    /// `next_batch` calls is **identical** to plain iteration — this is
    /// what lets a serving layer stream a request as incremental chunks
    /// while preserving the bit-for-bit determinism contract of the
    /// underlying sequence. An empty return means the
    /// stream ended (cancelled, deadline passed, or exhausted).
    pub fn next_batch(&mut self, max: usize) -> Vec<S::Item> {
        let mut chunk = Vec::new();
        if max == 0 {
            return chunk;
        }
        if let Some(first) = self.next() {
            chunk.push(first);
            while chunk.len() < max {
                match self.pending.pop_front() {
                    Some(item) => {
                        self.stats.yielded += 1;
                        chunk.push(item);
                    }
                    None => break,
                }
            }
        }
        chunk
    }

    fn deadline_passed(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

impl<S: RoundSource> Iterator for SampleStream<S> {
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        loop {
            if self.stop.is_stopped() {
                self.cancelled = true;
                return None;
            }
            if let Some(item) = self.pending.pop_front() {
                self.stats.yielded += 1;
                return Some(item);
            }
            if self.exhausted {
                return None;
            }
            if self.deadline_passed() {
                self.hit_deadline = true;
                return None;
            }
            let batch = {
                let _round_span = htsat_obs::span!("engine.round");
                self.source.round(&self.stop)
            };
            self.stats.rounds += 1;
            self.stats.attempts += self.source.round_size();
            self.stats.valid += batch.len();
            let mut fresh = 0usize;
            {
                // One span per round around the whole seen-set pass, never
                // one per item.
                let _dedup_span = htsat_obs::span!("stream.dedup");
                for item in batch {
                    if self.source_dedups || self.seen.insert(item.clone()) {
                        self.pending.push_back(item);
                        fresh += 1;
                    } else {
                        self.stats.duplicates += 1;
                    }
                }
            }
            if fresh == 0 {
                self.stale_rounds += 1;
                self.stale_total += 1;
                if self.stale_limit > 0 && self.stale_rounds >= self.stale_limit {
                    self.exhausted = true;
                }
            } else {
                self.stale_rounds = 0;
            }
        }
    }
}

impl<S: RoundSource> Drop for SampleStream<S> {
    fn drop(&mut self) {
        self.source.restore_seen(std::mem::take(&mut self.seen));
        // Fold the stream's lifetime totals into the global metrics in one
        // batch: a handful of relaxed atomic adds per stream, zero cost per
        // item. Every engine session flows through a `SampleStream`, so
        // these are the `engine.*` counters of the metric catalog.
        htsat_obs::counter!("engine.streams").inc();
        htsat_obs::counter!("engine.rounds").add(self.stats.rounds as u64);
        htsat_obs::counter!("engine.attempts").add(self.stats.attempts as u64);
        htsat_obs::counter!("engine.valid").add(self.stats.valid as u64);
        htsat_obs::counter!("engine.samples").add(self.stats.yielded as u64);
        htsat_obs::counter!("engine.duplicates").add(self.stats.duplicates as u64);
        htsat_obs::counter!("engine.stale_rounds").add(self.stale_total as u64);
        if self.exhausted {
            htsat_obs::counter!("engine.exhaustions").inc();
        }
        if self.hit_deadline {
            htsat_obs::counter!("engine.deadline_expiries").inc();
        }
        if self.cancelled {
            htsat_obs::counter!("engine.cancellations").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `0..width`, then `batch..batch+width`, ... — every round half
    /// overlapping the previous one, so deduplication is exercised.
    struct Counter {
        next: usize,
        width: usize,
        overlap: usize,
        memory: HashSet<usize>,
    }

    impl Counter {
        fn new(width: usize, overlap: usize) -> Self {
            Counter {
                next: 0,
                width,
                overlap,
                memory: HashSet::new(),
            }
        }
    }

    impl RoundSource for Counter {
        type Item = usize;

        fn round(&mut self, _stop: &StopToken) -> Vec<usize> {
            let start = self.next.saturating_sub(self.overlap);
            let batch: Vec<usize> = (start..self.next + self.width).collect();
            self.next += self.width;
            batch
        }

        fn round_size(&self) -> usize {
            self.width + self.overlap
        }

        fn take_seen(&mut self) -> HashSet<usize> {
            std::mem::take(&mut self.memory)
        }

        fn restore_seen(&mut self, seen: HashSet<usize>) {
            self.memory = seen;
        }
    }

    /// A source whose solution space has exactly `total` items.
    struct Finite {
        total: usize,
    }

    impl RoundSource for Finite {
        type Item = usize;

        fn round(&mut self, _stop: &StopToken) -> Vec<usize> {
            (0..self.total).collect()
        }
    }

    #[test]
    fn yields_unique_items_in_order() {
        let stream = SampleStream::new(Counter::new(4, 2));
        let items: Vec<usize> = stream.take(10).collect();
        assert_eq!(items, (0..10).collect::<Vec<usize>>());
    }

    #[test]
    fn duplicates_are_counted_not_yielded() {
        let mut stream = SampleStream::new(Counter::new(4, 2));
        let items: Vec<usize> = stream.by_ref().take(8).collect();
        assert_eq!(items, (0..8).collect::<Vec<usize>>());
        assert!(stream.stats().duplicates > 0);
        assert_eq!(stream.stats().yielded, 8);
    }

    #[test]
    fn stale_limit_ends_a_finite_stream() {
        let mut stream = SampleStream::new(Finite { total: 5 }).with_stale_limit(3);
        let items: Vec<usize> = stream.by_ref().collect();
        assert_eq!(items.len(), 5);
        assert!(stream.is_exhausted());
        // 1 productive round + 3 stale rounds.
        assert_eq!(stream.stats().rounds, 4);
    }

    #[test]
    fn stop_token_cancels_immediately_even_with_pending_items() {
        let mut stream = SampleStream::new(Counter::new(8, 0));
        assert_eq!(stream.next(), Some(0)); // 7 items still pending
        stream.stop_token().stop();
        assert_eq!(stream.next(), None);
        let recovered = stream.drain_ready();
        assert_eq!(recovered, (1..8).collect::<Vec<usize>>());
    }

    #[test]
    fn deadline_stops_new_rounds_but_delivers_pending() {
        let mut stream = SampleStream::new(Counter::new(4, 0))
            .with_deadline(Instant::now() - Duration::from_secs(1));
        // Deadline already passed: no round ever runs.
        assert_eq!(stream.next(), None);
        assert_eq!(stream.stats().rounds, 0);

        // With items already discovered, a passed deadline still delivers them.
        let mut stream = SampleStream::new(Counter::new(4, 0));
        assert_eq!(stream.next(), Some(0));
        let mut stream = stream.with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(stream.next(), Some(1));
        assert_eq!(stream.next(), Some(2));
        assert_eq!(stream.next(), Some(3));
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn seen_set_round_trips_through_the_source() {
        let mut counter = Counter::new(4, 4);
        {
            let stream = SampleStream::new(&mut counter);
            let first: Vec<usize> = stream.take(4).collect();
            assert_eq!(first, vec![0, 1, 2, 3]);
        }
        // The counter restarts half-overlapping, but the restored seen-set
        // suppresses everything already emitted by the first stream.
        let stream = SampleStream::new(&mut counter);
        let second: Vec<usize> = stream.take(4).collect();
        assert_eq!(second, vec![4, 5, 6, 7]);
    }

    #[test]
    fn stats_track_attempts_and_valid() {
        let mut stream = SampleStream::new(Counter::new(2, 0));
        let _: Vec<usize> = stream.by_ref().take(4).collect();
        assert_eq!(stream.stats().rounds, 2);
        assert_eq!(stream.stats().attempts, 4);
        assert_eq!(stream.stats().valid, 4);
    }

    #[test]
    fn drain_ready_after_exhaustion_recovers_undelivered_items() {
        // The finite source exhausts after the stale limit with items still
        // undelivered; drain_ready must hand them over and count them.
        let mut stream = SampleStream::new(Finite { total: 6 }).with_stale_limit(2);
        assert_eq!(stream.next(), Some(0));
        assert_eq!(stream.next(), Some(1));
        // Consume the rest lazily until exhaustion reports None...
        while stream.next().is_some() {}
        assert!(stream.is_exhausted());
        // ...then nothing is pending, and drain_ready is an empty no-op.
        assert!(stream.drain_ready().is_empty());

        // Now exhaust *with* pending items: stop consuming right after the
        // first item, then force extra stale rounds by iterating a clone of
        // the same discovered set.
        let mut stream = SampleStream::new(Finite { total: 4 }).with_stale_limit(1);
        assert_eq!(stream.next(), Some(0)); // 3 pending from the first round
        let recovered = stream.drain_ready();
        assert_eq!(recovered, vec![1, 2, 3]);
        assert_eq!(stream.stats().yielded, 4);
        // Further nexts run rounds that discover nothing new -> exhaustion.
        assert_eq!(stream.next(), None);
        assert!(stream.is_exhausted());
        assert!(stream.drain_ready().is_empty());
    }

    #[test]
    fn next_batch_concatenation_matches_plain_iteration() {
        // Reference order: plain iteration.
        let reference: Vec<usize> = SampleStream::new(Counter::new(4, 2)).take(17).collect();

        // Chunked: batches fall on round boundaries but concatenate to the
        // exact same sequence, for any cap.
        for cap in [1, 3, 4, 5, 100] {
            let mut stream = SampleStream::new(Counter::new(4, 2));
            let mut chunked = Vec::new();
            while chunked.len() < reference.len() {
                let batch = stream.next_batch(cap.min(reference.len() - chunked.len()));
                assert!(!batch.is_empty(), "stream ended early at cap {cap}");
                assert!(batch.len() <= cap);
                chunked.extend(batch);
            }
            assert_eq!(chunked, reference, "cap {cap}");
            assert_eq!(stream.stats().yielded, reference.len());
        }
    }

    #[test]
    fn next_batch_signals_end_with_an_empty_chunk() {
        let mut stream = SampleStream::new(Finite { total: 3 }).with_stale_limit(1);
        assert_eq!(stream.next_batch(10), vec![0, 1, 2]);
        assert!(stream.next_batch(10).is_empty());
        assert!(stream.is_exhausted());
        // A zero cap never runs a round.
        let mut stream = SampleStream::new(Finite { total: 3 });
        assert!(stream.next_batch(0).is_empty());
        assert_eq!(stream.stats().rounds, 0);
    }

    /// Alternates between a round of already-seen items and a round with one
    /// fresh item, to exercise the stale-counter reset.
    struct Alternating {
        round: usize,
    }

    impl RoundSource for Alternating {
        type Item = usize;

        fn round(&mut self, _stop: &StopToken) -> Vec<usize> {
            self.round += 1;
            if self.round.is_multiple_of(2) {
                vec![0] // always a duplicate after round 1
            } else {
                vec![0, self.round] // one fresh item
            }
        }
    }

    #[test]
    fn stale_counter_resets_on_fresh_unique_items() {
        // Every even round is fully stale, every odd round has a fresh item.
        // With a stale limit of 2 the counter must keep resetting, so the
        // stream stays productive far past 2 consecutive-stale-round pairs.
        let mut stream = SampleStream::new(Alternating { round: 0 }).with_stale_limit(2);
        let items: Vec<usize> = stream.by_ref().take(6).collect();
        assert_eq!(items, vec![0, 1, 3, 5, 7, 9]);
        assert!(!stream.is_exhausted());
        assert!(stream.stats().duplicates > 0);
    }

    #[test]
    fn deadline_already_past_at_construction_never_runs_a_round() {
        // An Instant deadline in the past and a zero timeout are both "late
        // from birth": the stream must not start a single round.
        let past = SampleStream::new(Counter::new(4, 0))
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(past.stats().rounds, 0);
        let mut past = past;
        assert_eq!(past.next(), None);
        assert_eq!(past.stats().rounds, 0);

        let mut zero = SampleStream::new(Counter::new(4, 0)).with_timeout(Duration::ZERO);
        assert_eq!(zero.next(), None);
        assert_eq!(zero.stats().rounds, 0);
        assert!(!zero.is_exhausted(), "a deadline is not exhaustion");
    }

    #[test]
    fn stats_merge_and_fields_round_trip() {
        let mut total = StreamStats::default();
        let a = StreamStats {
            rounds: 1,
            attempts: 10,
            valid: 5,
            yielded: 4,
            duplicates: 1,
        };
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.rounds, 2);
        assert_eq!(total.attempts, 20);
        let fields = total.fields();
        assert_eq!(fields[0], ("rounds", 2));
        assert_eq!(fields[4], ("duplicates", 2));
        assert_eq!(
            total.to_string(),
            "rounds=2 attempts=20 valid=10 yielded=8 duplicates=2"
        );
    }

    /// Emits `width` genuinely fresh items per round until `total` is
    /// reached, then empty rounds — a source that dedups internally.
    struct SelfDeduping {
        next: usize,
        width: usize,
        total: usize,
    }

    impl RoundSource for SelfDeduping {
        type Item = usize;

        fn round(&mut self, _stop: &StopToken) -> Vec<usize> {
            let end = (self.next + self.width).min(self.total);
            let batch: Vec<usize> = (self.next..end).collect();
            self.next = end;
            batch
        }

        fn dedups_internally(&self) -> bool {
            true
        }
    }

    #[test]
    fn source_dedup_mode_skips_the_stream_seen_set_and_detects_staleness() {
        // Boxed and borrowed sources forward the declaration.
        let mut borrowed = SelfDeduping {
            next: 0,
            width: 3,
            total: 7,
        };
        assert!(SampleStream::new(&mut borrowed).source_dedups);
        let boxed: Box<dyn RoundSource<Item = usize> + Send> = Box::new(borrowed);
        let mut stream = SampleStream::new(boxed).with_stale_limit(2);
        assert!(stream.source_dedups);
        let items: Vec<usize> = stream.by_ref().collect();
        assert_eq!(items, (0..7).collect::<Vec<usize>>());
        assert!(stream.is_exhausted(), "empty rounds must count as stale");
        assert_eq!(stream.stats().duplicates, 0);
        // The stream kept no seen-set of its own: the set it restores to
        // the source (via Drop) is still the empty one it took.
        assert!(stream.seen.is_empty());
    }

    #[test]
    fn boxed_dyn_sources_drive_a_stream() {
        let boxed: Box<dyn RoundSource<Item = usize> + Send> = Box::new(Counter::new(4, 2));
        let mut stream = SampleStream::new(boxed);
        let items: Vec<usize> = stream.by_ref().take(6).collect();
        assert_eq!(items, (0..6).collect::<Vec<usize>>());
        assert!(stream.stats().rounds > 0);
    }

    #[test]
    fn unique_throughput_clamps_the_denominator() {
        // Zero elapsed clamps to the minimum tick: a finite rate, never the
        // raw count.
        let expected = 5.0 / MIN_MEASURABLE_TICK.as_secs_f64();
        assert!((unique_throughput(5, Duration::ZERO) - expected).abs() < 1e-3);
        assert!((unique_throughput(10, Duration::from_secs(2)) - 5.0).abs() < 1e-9);
        assert_eq!(unique_throughput(0, Duration::ZERO), 0.0);
    }

    #[test]
    fn external_stop_token_is_respected() {
        let token = StopToken::new();
        let mut stream = SampleStream::new(Counter::new(2, 0)).with_stop_token(token.clone());
        assert_eq!(stream.next(), Some(0));
        token.stop();
        assert_eq!(stream.next(), None);
    }
}
