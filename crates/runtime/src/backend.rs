//! The execution backend: how batch rows are scheduled onto cores.

use std::ops::Range;
use std::sync::Mutex;
use std::thread;

/// How many jobs each worker thread gets on average.
///
/// Oversubscribing the job queue (rather than cutting exactly one job per
/// worker) is what makes the pool load-balance: a worker that drew a cheap
/// job goes back to the queue and claims another while a slow job is still
/// running elsewhere.
const CHUNKS_PER_THREAD: usize = 4;

/// How batch rows are processed.
///
/// The paper runs one independent task per batch element on a GPU; here a
/// scoped `std::thread` pool plays that role. Work is cut into contiguous
/// jobs (about four per worker), the workers claim jobs from one shared
/// queue until it drains, and the scope joins them. Because the workers are
/// spawned inside `thread::scope`, the closures may borrow the caller's
/// stack (no `'static` bound and no `unsafe`); the cost is one thread spawn
/// per worker per parallel region. A region with one worker, or one job,
/// runs on the calling thread.
///
/// Every thread count observes the same contract: a per-row kernel runs
/// exactly once per row and [`Backend::map_indices`] preserves index order,
/// so for a pure kernel the thread count never changes the result — only
/// the wall-clock time. Each call is one parallel region, recorded as one
/// `runtime.region` span plus the `runtime.regions`/`runtime.rows`
/// counters at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Process batch rows on this many worker threads; `0` sizes the pool
    /// to the available hardware threads.
    Threads(usize),
}

impl Default for Backend {
    /// The pool sized to the machine (`Threads(0)`).
    fn default() -> Self {
        Backend::Threads(0)
    }
}

impl Backend {
    /// Number of worker threads this backend resolves to on this machine.
    #[must_use]
    pub fn effective_threads(self) -> usize {
        match self {
            Backend::Threads(0) => thread::available_parallelism().map_or(1, usize::from),
            Backend::Threads(n) => n,
        }
    }

    /// Runs `f(row_index, row, workspace)` over every `width`-sized row of
    /// `rows` (a trailing partial row counts as a row, as in `chunks_mut`),
    /// building one workspace with `init` **per worker per parallel
    /// region** and reusing it for every row that worker claims — the entry
    /// point for allocation-free kernels whose "rows" may be blocks of
    /// several batch rows. Kernels must fully overwrite whatever workspace
    /// state they read, so no information leaks between rows.
    ///
    /// Does nothing (and builds no workspace) when `width == 0`.
    pub fn for_each_row_with<W, I, F>(self, rows: &mut [f32], width: usize, init: I, f: F)
    where
        I: Fn() -> W + Sync,
        F: Fn(usize, &mut [f32], &mut W) + Sync,
    {
        if width == 0 {
            return;
        }
        let threads = self.effective_threads();
        let num_rows = rows.len().div_ceil(width);
        let mut rest = rows;
        let jobs: Vec<(usize, &mut [f32])> = chunk_ranges(num_rows, threads * CHUNKS_PER_THREAD)
            .into_iter()
            .map(|range| {
                let len = (range.len() * width).min(rest.len());
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                (range.start, chunk)
            })
            .collect();
        run(
            threads,
            num_rows,
            jobs,
            init,
            |(first, chunk), workspace| {
                for (offset, row) in chunk.chunks_mut(width).enumerate() {
                    f(first + offset, row, workspace);
                }
            },
        );
    }

    /// [`Backend::for_each_row_with`] for kernels that need no workspace.
    pub fn for_each_row<F>(self, rows: &mut [f32], width: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        self.for_each_row_with(rows, width, || (), |i, row, ()| f(i, row));
    }

    /// Maps `f` over the indices `0..n` and collects the results in index
    /// order.
    pub fn map_indices<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.effective_threads();
        let jobs = chunk_ranges(n, threads * CHUNKS_PER_THREAD);
        let chunks = run(
            threads,
            n,
            jobs,
            || (),
            |range, ()| range.map(&f).collect::<Vec<T>>(),
        );
        chunks.into_iter().flatten().collect()
    }

    /// A short human-readable label, used in benchmark reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Backend::Threads(0) => format!("threads-auto({})", self.effective_threads()),
            Backend::Threads(n) => format!("threads-{n}"),
        }
    }
}

/// The one scheduling primitive: runs `work(job, state)` for every job on
/// up to `threads` workers and returns the results in job order. Each
/// worker builds its `state` with `init` once and claims jobs from one
/// `Mutex`-guarded queue until it drains; `rows` is what the region's
/// `runtime.rows` counter adds. A daemon-wide pool of parked workers would
/// replace the scoped spawns here (ROADMAP.md, item 8).
///
/// # Panics
///
/// Propagates a panic from any worker.
fn run<J, S, T>(
    threads: usize,
    rows: usize,
    jobs: Vec<J>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(J, &mut S) -> T + Sync,
) -> Vec<T>
where
    J: Send,
    T: Send,
{
    let _region = htsat_obs::span!("runtime.region");
    htsat_obs::counter!("runtime.regions").inc();
    htsat_obs::counter!("runtime.rows").add(rows as u64);
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        let mut state = init();
        return jobs.into_iter().map(|job| work(job, &mut state)).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let (queue, init, work) = (&queue, &init, &work);
    let mut done: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement,
                        // so no job runs under the lock.
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((index, job)) = next else { break };
                        done.push((index, work(job, &mut state)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("htsat-runtime worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Splits `0..n` into `chunks` contiguous ranges whose lengths differ by at
/// most one (the first `n % chunks` ranges are the longer ones); fewer when
/// `n < chunks`, none when `n == 0`.
fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.min(n);
    if chunks == 0 {
        return Vec::new();
    }
    let (base, extra) = (n / chunks, n % chunks);
    let mut start = 0;
    (0..chunks)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            start - len..start
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const ALL: [Backend; 5] = [
        Backend::Threads(0),
        Backend::Threads(1),
        Backend::Threads(2),
        Backend::Threads(3),
        Backend::Threads(8),
    ];

    /// The reference every thread count must reproduce: `kernel` over
    /// `chunks_mut` on the calling thread.
    fn sequential_rows(len: usize, width: usize, kernel: impl Fn(usize, &mut [f32])) -> Vec<f32> {
        let mut rows = vec![1.0f32; len];
        for (i, row) in rows.chunks_mut(width).enumerate() {
            kernel(i, row);
        }
        rows
    }

    /// Adds the row index to the first element and counts the visit in
    /// the last, so a skipped, repeated or misnumbered row shows.
    fn mark(i: usize, row: &mut [f32]) {
        row[0] += i as f32;
        *row.last_mut().expect("non-empty row") += 10.0;
    }

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 33] {
                let ranges = chunk_ranges(n, chunks);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} chunks={chunks}");
                assert_eq!(ranges.len(), chunks.min(n));
                let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
                if let (Some(min), Some(max)) = (lens.iter().min(), lens.iter().max()) {
                    assert!(max - min <= 1, "unbalanced: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn all_backends_produce_identical_map_results() {
        for backend in ALL {
            for n in [0usize, 1, 5, 257] {
                assert_eq!(
                    backend.map_indices(n, |i| i * 3 + 1),
                    (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                    "{backend:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn for_each_row_sums_and_mutates_identically_everywhere() {
        // Each row's kernel writes its index into the first element and the
        // row's sum into the last, so every thread count must reproduce
        // both the mutation and the per-row sums of the reference.
        let width = 4;
        let kernel = |i: usize, row: &mut [f32]| {
            row[0] = i as f32;
            let sum: f32 = row.iter().sum();
            *row.last_mut().expect("non-empty row") = sum;
        };
        let reference = sequential_rows(33 * width, width, kernel);
        assert_eq!(reference[4 * width..5 * width], [4.0, 1.0, 1.0, 7.0]);
        for backend in ALL {
            let mut data = vec![1.0f32; 33 * width];
            backend.for_each_row(&mut data, width, kernel);
            assert_eq!(data, reference, "{backend:?}");
        }
    }

    #[test]
    fn for_each_row_with_agrees_with_for_each_row_everywhere() {
        let width = 3;
        let reference = sequential_rows(41 * width, width, mark);
        for backend in ALL {
            let mut plain = vec![1.0f32; 41 * width];
            backend.for_each_row(&mut plain, width, mark);
            let mut with = vec![1.0f32; 41 * width];
            backend.for_each_row_with(
                &mut with,
                width,
                Vec::new,
                |i, row, scratch: &mut Vec<f32>| {
                    scratch.clear();
                    scratch.extend_from_slice(row);
                    mark(i, scratch);
                    row.copy_from_slice(scratch);
                },
            );
            assert_eq!(with, plain, "{backend:?}");
            assert_eq!(with, reference, "{backend:?}");
        }
    }

    #[test]
    fn trailing_partial_row_is_visited_like_sequential() {
        // 10 floats at width 4: two full rows and a 2-element row 2, the
        // shape of a descent's partial last lane block.
        let reference = sequential_rows(10, 4, mark);
        assert_eq!(reference[8..], [3.0, 11.0]);
        for backend in ALL {
            let mut data = vec![1.0f32; 10];
            backend.for_each_row(&mut data, 4, mark);
            assert_eq!(data, reference, "{backend:?}");
        }
    }

    #[test]
    fn zero_width_is_a_no_op() {
        for backend in ALL {
            let inits = AtomicUsize::new(0);
            backend.for_each_row_with(
                &mut [],
                0,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _, _| panic!("no rows at zero width"),
            );
            backend.for_each_row(&mut [], 0, |_, _| panic!("no rows at zero width"));
            assert_eq!(inits.load(Ordering::Relaxed), 0, "{backend:?}");
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let backend = Backend::Threads(16);
        assert_eq!(backend.map_indices(3, |i| i), vec![0, 1, 2]);
        let mut one = vec![2.0f32];
        backend.for_each_row(&mut one, 1, |i, row| row[0] += i as f32 + 1.0);
        assert_eq!(one, [3.0]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = ALL.iter().map(|b| b.label()).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
    }

    #[test]
    fn default_is_the_auto_sized_pool() {
        assert_eq!(Backend::default(), Backend::Threads(0));
        let available = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(Backend::default().effective_threads(), available);
        assert_eq!(Backend::Threads(3).effective_threads(), 3);
    }
}
