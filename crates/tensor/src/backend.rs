//! Execution backends: how batch elements are scheduled onto cores.

use htsat_runtime::{Executor, SequentialExecutor, ThreadPool};

/// How batch elements are processed.
///
/// The paper's ablation (Fig. 4, left) compares GPU execution against CPU
/// execution of the same sampler. On a CPU-only machine the GPU's role — one
/// independent task per batch element — is played by a thread pool:
///
/// * [`Backend::Sequential`] — every batch element on the calling thread, in
///   index order. The paper's CPU baseline.
/// * [`Backend::Threads`] — the [`htsat_runtime::ThreadPool`] scoped
///   work-stealing pool with the given worker count (`0` = one worker per
///   available core). This is the parallel path and the default.
///
/// Every backend observes the same contract: per-row kernels run exactly
/// once per row and [`Backend::map_indices`] preserves index order, so for a
/// pure kernel the choice of backend (and thread count) never changes the
/// result — only the wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Process batch elements one after another on the calling thread.
    Sequential,
    /// Process batch elements on the htsat-runtime thread pool with this
    /// many workers; `0` sizes the pool to the available hardware threads.
    Threads(usize),
}

impl Default for Backend {
    /// The default backend is the thread pool sized to the machine
    /// (`Threads(0)`).
    fn default() -> Self {
        Backend::Threads(0)
    }
}

impl Backend {
    /// The thread pool sized to the available hardware parallelism.
    #[must_use]
    pub fn auto() -> Self {
        Backend::Threads(0)
    }

    /// Number of worker threads this backend resolves to on this machine.
    #[must_use]
    pub fn effective_threads(self) -> usize {
        match self {
            Backend::Sequential => 1,
            Backend::Threads(n) => ThreadPool::new(n).threads(),
        }
    }

    /// Runs `f(batch_index, row)` over every row of a mutable row-chunked
    /// buffer, sequentially or in parallel according to the backend, and sums
    /// the returned values.
    pub fn for_each_row<F>(self, rows: &mut [f32], width: usize, f: F) -> f64
    where
        F: Fn(usize, &mut [f32]) -> f64 + Sync + Send,
    {
        if width == 0 {
            return 0.0;
        }
        match self {
            Backend::Sequential => SequentialExecutor.reduce_rows(rows, width, f),
            Backend::Threads(n) => ThreadPool::new(n).reduce_rows(rows, width, f),
        }
    }

    /// Runs `f(batch_index, row, workspace)` over every row of a mutable
    /// row-chunked buffer and sums the returned values, building one
    /// workspace with `init` **per worker per parallel region** — the entry
    /// point for allocation-free kernels such as
    /// [`FlatKernel::fused_gd_block`](crate::FlatKernel::fused_gd_block),
    /// whose "rows" are blocks of [`LANES`](crate::LANES) batch rows.
    /// Each workspace is reused for every row its worker claims.
    pub fn for_each_row_with<W, I, F>(self, rows: &mut [f32], width: usize, init: I, f: F) -> f64
    where
        W: Send,
        I: Fn() -> W + Sync + Send,
        F: Fn(usize, &mut [f32], &mut W) -> f64 + Sync + Send,
    {
        if width == 0 {
            return 0.0;
        }
        match self {
            Backend::Sequential => SequentialExecutor.reduce_rows_with(rows, width, init, f),
            Backend::Threads(n) => ThreadPool::new(n).reduce_rows_with(rows, width, init, f),
        }
    }

    /// Maps `f` over the indices `0..n`, sequentially or in parallel, and
    /// collects the results in index order.
    pub fn map_indices<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        match self {
            Backend::Sequential => SequentialExecutor.map_indices(n, f),
            Backend::Threads(t) => ThreadPool::new(t).map_indices(n, f),
        }
    }

    /// A short human-readable label, used in benchmark reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Backend::Sequential => "cpu-sequential".to_string(),
            Backend::Threads(0) => format!("threads-auto({})", self.effective_threads()),
            Backend::Threads(n) => format!("threads-{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Backend; 4] = [
        Backend::Sequential,
        Backend::Threads(0),
        Backend::Threads(2),
        Backend::Threads(8),
    ];

    #[test]
    fn all_backends_produce_identical_map_results() {
        let n = 257;
        let reference = Backend::Sequential.map_indices(n, |i| i * i);
        for backend in ALL {
            assert_eq!(
                backend.map_indices(n, |i| i * i),
                reference,
                "backend {backend:?}"
            );
        }
    }

    #[test]
    fn for_each_row_sums_and_mutates_identically_everywhere() {
        let width = 4;
        let mut reference = vec![1.0f32; 33 * width];
        let kernel = |i: usize, row: &mut [f32]| {
            row[0] = i as f32;
            row.iter().map(|&v| f64::from(v)).sum()
        };
        let expected = Backend::Sequential.for_each_row(&mut reference, width, kernel);
        for backend in ALL {
            let mut data = vec![1.0f32; 33 * width];
            let total = backend.for_each_row(&mut data, width, kernel);
            assert_eq!(data, reference, "backend {backend:?}");
            assert!((total - expected).abs() < 1e-9, "backend {backend:?}");
        }
    }

    #[test]
    fn for_each_row_with_agrees_with_for_each_row_everywhere() {
        let width = 3;
        let make = || vec![2.0f32; 17 * width];
        let mut reference = make();
        let expected = Backend::Sequential.for_each_row(&mut reference, width, |i, row| {
            row[0] = i as f32;
            row.iter().map(|&v| f64::from(v)).sum()
        });
        for backend in ALL {
            let mut data = make();
            let total = backend.for_each_row_with(
                &mut data,
                width,
                || vec![0.0f32; width],
                |i, row, scratch: &mut Vec<f32>| {
                    scratch[0] = i as f32;
                    row[0] = scratch[0];
                    row.iter().map(|&v| f64::from(v)).sum()
                },
            );
            assert_eq!(data, reference, "backend {backend:?}");
            assert!((total - expected).abs() < 1e-9, "backend {backend:?}");
        }
    }

    #[test]
    fn zero_width_is_a_no_op() {
        for backend in ALL {
            let mut empty: Vec<f32> = Vec::new();
            assert_eq!(backend.for_each_row(&mut empty, 0, |_, _| 1.0), 0.0);
            assert_eq!(
                backend.for_each_row_with(&mut empty, 0, || (), |_, _, ()| 1.0),
                0.0
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = ALL.iter().map(|b| b.label()).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
    }

    #[test]
    fn default_is_the_auto_sized_pool() {
        assert_eq!(Backend::default(), Backend::auto());
        assert!(Backend::default().effective_threads() >= 1);
        assert_eq!(Backend::Threads(3).effective_threads(), 3);
        assert_eq!(Backend::Sequential.effective_threads(), 1);
    }
}
