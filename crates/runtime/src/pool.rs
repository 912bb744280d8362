//! Tests of [`Backend`](crate::Backend) as a worker pool: at every thread
//! count the claimed jobs cover each row exactly once and reproduce the
//! single-worker result.

#[cfg(test)]
mod tests {
    use crate::Backend;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// The reference every thread count must reproduce: `kernel` over
    /// `chunks_mut` on the calling thread.
    fn sequential_rows(len: usize, width: usize, kernel: impl Fn(usize, &mut [f32])) -> Vec<f32> {
        let mut rows = vec![1.0f32; len];
        for (i, row) in rows.chunks_mut(width).enumerate() {
            kernel(i, row);
        }
        rows
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let available = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(Backend::Threads(0).effective_threads(), available);
        assert!(Backend::Threads(0).effective_threads() >= 1);
    }

    #[test]
    fn map_indices_matches_sequential_at_every_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 5, 257] {
                assert_eq!(
                    Backend::Threads(threads).map_indices(n, |i| i * 3 + 1),
                    Backend::Threads(1).map_indices(n, |i| i * 3 + 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn reduce_rows_matches_sequential_at_every_thread_count() {
        // Index into the first element, a visit count into the last: a
        // skipped, repeated or misnumbered row shows at any width.
        let kernel = |i: usize, row: &mut [f32]| {
            row[0] += i as f32;
            *row.last_mut().expect("non-empty row") += 10.0;
        };
        for width in [1usize, 2, 5] {
            let reference = sequential_rows(33 * width, width, kernel);
            for threads in [1usize, 2, 4, 8] {
                let mut data = vec![1.0f32; 33 * width];
                Backend::Threads(threads).for_each_row(&mut data, width, kernel);
                assert_eq!(data, reference, "threads={threads} width={width}");
            }
        }
    }

    #[test]
    fn reduce_rows_with_zero_width_is_zero() {
        let (inits, visits) = (AtomicUsize::new(0), AtomicUsize::new(0));
        Backend::Threads(4).for_each_row_with(
            &mut [],
            0,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, ()| {
                visits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 0);
        assert_eq!(visits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reduce_rows_with_matches_sequential_at_every_thread_count() {
        let (width, rows) = (3, 41);
        let reference = sequential_rows(rows * width, width, |i, row| row[0] += i as f32);
        for threads in [1usize, 2, 4, 8] {
            let mut data = vec![1.0f32; rows * width];
            Backend::Threads(threads).for_each_row_with(
                &mut data,
                width,
                Vec::new,
                |i, row, scratch: &mut Vec<f32>| {
                    scratch.resize(width, 0.0);
                    scratch[0] = i as f32;
                    row[0] += scratch[0];
                },
            );
            assert_eq!(data, reference, "threads={threads}");
        }
    }

    #[test]
    fn workspaces_are_built_per_worker_not_per_row() {
        let (width, rows) = (2, 64);
        for threads in [1usize, 2, 4] {
            let inits = AtomicUsize::new(0);
            let mut data = vec![0.0f32; rows * width];
            Backend::Threads(threads).for_each_row_with(
                &mut data,
                width,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, row, _| row[0] += 1.0,
            );
            assert!(data.chunks(width).all(|row| row[0] == 1.0));
            assert_eq!(inits.load(Ordering::Relaxed), threads, "one per worker");
        }
    }

    #[test]
    fn uneven_chunks_still_cover_all_rows() {
        // 7 rows make 7 one-row jobs that 2 or 3 workers claim unevenly;
        // every row must still be visited exactly once.
        let width = 2;
        for threads in [2usize, 3] {
            let visits = AtomicUsize::new(0);
            let mut data = vec![0.0f32; 7 * width];
            Backend::Threads(threads).for_each_row(&mut data, width, |_, row| {
                visits.fetch_add(1, Ordering::Relaxed);
                row[0] += 1.0;
            });
            assert_eq!(visits.load(Ordering::Relaxed), 7, "threads={threads}");
            assert!(
                data.chunks(width).all(|row| row[0] == 1.0),
                "threads={threads}"
            );
        }
    }
}
