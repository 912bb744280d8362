//! Tests of [`Backend`](crate::Backend) at one worker: a `Threads(1)`
//! region runs every row on the calling thread, in order, with a single
//! workspace.

#[cfg(test)]
mod tests {
    use crate::Backend;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    const ONE: Backend = Backend::Threads(1);

    #[test]
    fn sequential_reduce_rows_sums_and_mutates() {
        let caller = thread::current().id();
        let width = 3;
        let mut rows = vec![1.0f32; 4 * width];
        ONE.for_each_row(&mut rows, width, |i, row| {
            assert_eq!(thread::current().id(), caller, "row {i} left the caller");
            row[0] = i as f32;
            let sum: f32 = row.iter().sum();
            row[width - 1] = sum;
        });
        assert_eq!(rows[width..2 * width], [1.0, 1.0, 3.0]);
        let sums: Vec<f32> = rows.chunks(width).map(|row| row[width - 1]).collect();
        assert_eq!(sums, [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn sequential_map_indices_preserves_order() {
        let caller = thread::current().id();
        assert_eq!(
            ONE.map_indices(4, |i| {
                assert_eq!(thread::current().id(), caller, "index {i} left the caller");
                i * 10
            }),
            vec![0, 10, 20, 30]
        );
    }

    #[test]
    fn zero_width_reduce_is_zero() {
        let visits = AtomicUsize::new(0);
        ONE.for_each_row(&mut [], 0, |_, _| {
            visits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(visits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sequential_reduce_rows_with_builds_one_workspace_for_the_region() {
        let inits = AtomicUsize::new(0);
        let width = 2;
        let mut rows = vec![1.0f32; 8 * width];
        ONE.for_each_row_with(
            &mut rows,
            width,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0.0f32; 4]
            },
            |i, row, ws: &mut Vec<f32>| {
                ws[0] = i as f32;
                row[0] += ws[0];
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(rows[3 * width], 1.0 + 3.0);
        assert_eq!(rows[7 * width], 1.0 + 7.0);
    }

    #[test]
    fn zero_width_reduce_with_never_builds_a_workspace() {
        let inits = AtomicUsize::new(0);
        ONE.for_each_row_with(
            &mut [],
            0,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, ()| panic!("no rows at zero width"),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }
}
