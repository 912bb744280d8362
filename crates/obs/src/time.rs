//! Timing helpers — the single timing substrate of the workspace.
//!
//! The span API ([`crate::SpanGuard`]) is built on [`Stopwatch`], so every
//! span reads the clock the same way.

use std::time::{Duration, Instant};

/// A monotonic stopwatch over [`Instant`].
///
/// `Stopwatch` cannot be paused — it models wall-clock measurement windows,
/// not CPU accounting.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Total time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}
