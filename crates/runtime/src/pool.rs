//! A scoped `std::thread` worker pool with counter-based chunk stealing.

use crate::executor::{chunk_ranges, Executor, SequentialExecutor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// How many chunks each worker thread gets on average.
///
/// Oversubscribing the chunk queue (rather than cutting exactly one chunk
/// per worker) is what makes the pool load-balance: a worker that drew a
/// cheap chunk goes back to the queue and claims another while a slow chunk
/// is still running elsewhere.
const CHUNKS_PER_THREAD: usize = 4;

/// A work-stealing thread pool over `std::thread::scope`.
///
/// Work is described as `n` independent tasks, split into a queue of
/// contiguous chunks (about four per worker). The scoped
/// workers claim chunks through one shared [`AtomicUsize`] cursor — the
/// dependency-free equivalent of popping a chunked deque — until the queue
/// is drained, then the scope joins them. Because workers are spawned inside
/// `thread::scope`, the submitted closures may borrow the caller's stack
/// (no `'static` bound and no `unsafe` required); the cost is one thread
/// spawn per worker per parallel region. That overhead is negligible for
/// large batches but measurable for small ones — a persistent pool with
/// parked workers is the known upgrade path if profiling shows the spawns
/// on the hot path.
///
/// A pool with one thread (or one-element workloads) short-circuits to the
/// calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers; `0` means one worker per
    /// available hardware thread (`std::thread::available_parallelism`).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        ThreadPool { threads }
    }

    /// A pool sized to the available hardware parallelism.
    #[must_use]
    pub fn auto() -> Self {
        ThreadPool::new(0)
    }

    /// Runs `work(chunk_id, worker_state)` for every chunk id in
    /// `0..num_chunks` across the worker threads and returns the results in
    /// chunk-id order. `init` builds one state value per worker (once per
    /// call), which the worker reuses for every chunk it claims.
    ///
    /// This is the pool's one scheduling primitive; both [`Executor`]
    /// methods are built on it.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker.
    fn dispatch_with<W, T, I, F>(&self, num_chunks: usize, init: I, work: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> W + Send + Sync,
        F: Fn(usize, &mut W) -> T + Send + Sync,
    {
        if self.threads <= 1 || num_chunks <= 1 {
            let mut state = init();
            return (0..num_chunks)
                .map(|chunk| work(chunk, &mut state))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(num_chunks);
        let (cursor, init, work) = (&cursor, &init, &work);
        let per_worker: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut state = init();
                        let mut claimed = Vec::new();
                        loop {
                            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                            if chunk >= num_chunks {
                                break;
                            }
                            claimed.push((chunk, work(chunk, &mut state)));
                        }
                        claimed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("htsat-runtime worker panicked"))
                .collect()
        });
        // Re-assemble in chunk order so results are deterministic regardless
        // of claim order.
        let mut out: Vec<Option<T>> = (0..num_chunks).map(|_| None).collect();
        for (chunk, value) in per_worker.into_iter().flatten() {
            out[chunk] = Some(value);
        }
        out.into_iter()
            .map(|slot| slot.expect("every chunk claimed exactly once"))
            .collect()
    }

    /// Stateless convenience over [`ThreadPool::dispatch_with`].
    fn dispatch<T, F>(&self, num_chunks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        self.dispatch_with(num_chunks, || (), |chunk, ()| work(chunk))
    }

    fn chunk_count(&self, n: usize) -> usize {
        n.min(self.threads * CHUNKS_PER_THREAD)
    }
}

/// A claimed row chunk: the index of its first row plus the rows themselves.
type RowChunk<'a> = (usize, &'a mut [f32]);

impl Executor for ThreadPool {
    fn threads(&self) -> usize {
        self.threads
    }

    fn reduce_rows_with<W, I, F>(&self, rows: &mut [f32], width: usize, init: I, f: F) -> f64
    where
        W: Send,
        I: Fn() -> W + Send + Sync,
        F: Fn(usize, &mut [f32], &mut W) -> f64 + Send + Sync,
    {
        if width == 0 {
            return 0.0;
        }
        // Count a trailing partial row as a row, matching `chunks_mut` (and
        // therefore `SequentialExecutor`) exactly.
        let num_rows = rows.len().div_ceil(width);
        // One parallel region per call (the guard spans the short-circuit
        // path too, so region counts are thread-count independent).
        let _region = htsat_obs::span!("runtime.region");
        htsat_obs::counter!("runtime.regions").inc();
        htsat_obs::counter!("runtime.rows").add(num_rows as u64);
        let ranges = chunk_ranges(num_rows, self.chunk_count(num_rows));
        if self.threads <= 1 || ranges.len() <= 1 {
            // Calling-thread short-circuit: exactly the sequential contract.
            return SequentialExecutor.reduce_rows_with(rows, width, init, f);
        }
        // Pre-split the buffer along chunk boundaries. Each slot is locked
        // exactly once — by the worker that claims the chunk id — so the
        // mutexes carry the disjoint `&mut` borrows across threads without
        // contention or unsafe aliasing.
        let mut slots: Vec<Mutex<Option<RowChunk<'_>>>> = Vec::with_capacity(ranges.len());
        let mut rest = rows;
        for range in &ranges {
            let take = (range.len() * width).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            slots.push(Mutex::new(Some((range.start, head))));
            rest = tail;
        }
        // Each worker builds its workspace once per parallel region
        // (dispatch_with's per-worker state) and reuses it for every chunk
        // it claims; the chunk-ordered result vector keeps the final
        // floating-point accumulation deterministic.
        let partials = self.dispatch_with(slots.len(), &init, |chunk, workspace: &mut W| {
            let (first_row, chunk_rows) = slots[chunk]
                .lock()
                .expect("chunk slot poisoned")
                .take()
                .expect("chunk claimed exactly once");
            chunk_rows
                .chunks_mut(width)
                .enumerate()
                .map(|(offset, row)| f(first_row + offset, row, workspace))
                .sum::<f64>()
        });
        partials.into_iter().sum()
    }

    fn map_indices<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        let _region = htsat_obs::span!("runtime.region");
        htsat_obs::counter!("runtime.regions").inc();
        htsat_obs::counter!("runtime.rows").add(n as u64);
        let ranges = chunk_ranges(n, self.chunk_count(n));
        let ranges = &ranges;
        let chunks = self.dispatch(ranges.len(), |chunk| {
            ranges[chunk].clone().map(&f).collect::<Vec<T>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SequentialExecutor;

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(ThreadPool::new(0).threads() >= 1);
        assert_eq!(ThreadPool::auto(), ThreadPool::new(0));
    }

    #[test]
    fn map_indices_matches_sequential_at_every_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 5, 257] {
                assert_eq!(
                    pool.map_indices(n, |i| i * 3 + 1),
                    SequentialExecutor.map_indices(n, |i| i * 3 + 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn reduce_rows_matches_sequential_at_every_thread_count() {
        let width = 5;
        let rows = 33;
        let kernel = |i: usize, row: &mut [f32]| {
            row[0] += i as f32;
            row.iter().map(|&v| f64::from(v)).sum::<f64>()
        };
        let mut reference = vec![1.0f32; rows * width];
        let expected = SequentialExecutor.reduce_rows(&mut reference, width, kernel);
        for threads in [1usize, 2, 4, 8] {
            let mut data = vec![1.0f32; rows * width];
            let total = ThreadPool::new(threads).reduce_rows(&mut data, width, kernel);
            assert_eq!(data, reference, "threads={threads}");
            assert!((total - expected).abs() < 1e-9, "threads={threads}");
        }
    }

    #[test]
    fn reduce_rows_with_zero_width_is_zero() {
        assert_eq!(ThreadPool::new(4).reduce_rows(&mut [], 0, |_, _| 1.0), 0.0);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let pool = ThreadPool::new(16);
        assert_eq!(pool.map_indices(3, |i| i), vec![0, 1, 2]);
        let mut one = vec![2.0f32];
        assert!((pool.reduce_rows(&mut one, 1, |_, r| f64::from(r[0])) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_partial_row_is_visited_like_sequential() {
        // 10 floats at width 4 = two full rows + one 2-element remainder;
        // `chunks_mut` semantics say the remainder is row 2.
        let kernel = |i: usize, row: &mut [f32]| {
            row[0] += i as f32;
            row.len() as f64
        };
        let mut reference = vec![1.0f32; 10];
        let expected = SequentialExecutor.reduce_rows(&mut reference, 4, kernel);
        assert!((expected - 10.0).abs() < 1e-12);
        for threads in [2usize, 8] {
            let mut data = vec![1.0f32; 10];
            let total = ThreadPool::new(threads).reduce_rows(&mut data, 4, kernel);
            assert_eq!(data, reference, "threads={threads}");
            assert!((total - expected).abs() < 1e-12, "threads={threads}");
        }
    }

    #[test]
    fn reduce_rows_with_matches_sequential_at_every_thread_count() {
        let width = 3;
        let rows = 41;
        let kernel = |i: usize, row: &mut [f32], scratch: &mut Vec<f32>| {
            scratch.resize(width, 0.0);
            scratch[0] = i as f32;
            row[0] += scratch[0];
            row.iter().map(|&v| f64::from(v)).sum::<f64>()
        };
        let mut reference = vec![1.0f32; rows * width];
        let expected = SequentialExecutor.reduce_rows_with(&mut reference, width, Vec::new, kernel);
        for threads in [1usize, 2, 4, 8] {
            let mut data = vec![1.0f32; rows * width];
            let total =
                ThreadPool::new(threads).reduce_rows_with(&mut data, width, Vec::new, kernel);
            assert_eq!(data, reference, "threads={threads}");
            assert!((total - expected).abs() < 1e-9, "threads={threads}");
        }
    }

    #[test]
    fn workspaces_are_built_per_worker_not_per_row() {
        use std::sync::atomic::AtomicUsize;
        let width = 2;
        let rows = 64;
        for threads in [1usize, 2, 4] {
            let inits = AtomicUsize::new(0);
            let mut data = vec![0.0f32; rows * width];
            let visits = ThreadPool::new(threads).reduce_rows_with(
                &mut data,
                width,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |_, row, ()| {
                    row[0] += 1.0;
                    1.0
                },
            );
            assert!((visits - rows as f64).abs() < 1e-12);
            let built = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&built),
                "threads={threads} built {built} workspaces for {rows} rows"
            );
        }
    }

    #[test]
    fn uneven_chunks_still_cover_all_rows() {
        // 7 rows, 2 threads -> uneven chunk queue; every row must be visited
        // exactly once.
        let width = 2;
        let mut data = vec![0.0f32; 7 * width];
        let visits = ThreadPool::new(2).reduce_rows(&mut data, width, |_, row| {
            row[0] += 1.0;
            1.0
        });
        assert!((visits - 7.0).abs() < 1e-12);
        for row in data.chunks(width) {
            assert_eq!(row[0], 1.0);
        }
    }
}
