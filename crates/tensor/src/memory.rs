//! Memory-usage model for the batched sampler.
//!
//! The paper's Fig. 3 (right) plots GPU memory usage versus batch size for a
//! subset of instances, observing that memory grows with both the complexity
//! of the transformed Boolean function and the batch size. This module models
//! the same quantity for the workspace-based execution model of
//! [`FlatKernel::descend`](crate::FlatKernel::descend), which both gradient
//! engines run ([`FlatKernel::memory_model`](crate::FlatKernel::memory_model)
//! builds their model):
//!
//! * **Persistent buffers** scale with the batch: the logit matrix
//!   `[batch, inputs]` the gradient-descent loop updates in place, plus one
//!   hardened bit per input per row.
//! * **Workspaces** scale with the worker count, *not* the batch: each pool
//!   worker owns one [`Workspace`](crate::Workspace) per parallel region
//!   (logits, probabilities, input gradients, node activations, node
//!   gradients and fan-in scratch, each `lanes` values wide), reused for
//!   every row or block it claims. The fused kernel's workspace holds only
//!   the descend prefix's nodes and the input columns it reads.
//! * **Hard-pass buffers** scale with the worker count too: each worker
//!   holds [`GROUP_WORDS`](crate::GROUP_WORDS) `u64`s per column, node and
//!   variable of the group of rows it hardens.
//!
//! This is the key difference from a GPU resident-activation model: no
//! step keeps a batch-wide matrix of probabilities, gradients or
//! activations, so activations cost `workers × nodes`, not
//! `batch × nodes`, and circuit complexity does not multiply the batch
//! size.

/// Memory model of one gradient-descent sampling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Number of learnable input columns.
    pub num_inputs: usize,
    /// Input columns each workspace holds: all of them, or for the fused
    /// kernel only those its descent reads
    /// ([`FlatKernel::descend_inputs`](crate::FlatKernel::descend_inputs)).
    pub workspace_inputs: usize,
    /// Circuit nodes each workspace holds: all of them, or for the fused
    /// kernel the descend prefix
    /// ([`FlatKernel::descend_nodes`](crate::FlatKernel::descend_nodes)).
    pub num_nodes: usize,
    /// Batch size.
    pub batch: usize,
    /// Worker threads holding a live workspace (1 for sequential).
    pub workers: usize,
    /// Widest gate fan-in (sizes the per-workspace gather scratch).
    pub max_fanin: usize,
    /// Batch rows each workspace carries side by side: 1 for a per-row
    /// workspace, [`LANES`](crate::LANES) for the sampler's descend blocks.
    pub lanes: usize,
    /// `u64` words each worker's hard pass holds at once (0: no hard pass).
    pub hard_words: usize,
}

impl MemoryModel {
    /// Creates a model for workspaces of `num_nodes` nodes over
    /// `num_inputs` learnable inputs at the given batch size, assuming one
    /// worker, no fan-in scratch, one-row workspaces, every input held
    /// in each workspace and no hard pass. Refine with the `with_` methods.
    pub fn new(num_inputs: usize, num_nodes: usize, batch: usize) -> Self {
        MemoryModel {
            num_inputs,
            workspace_inputs: num_inputs,
            num_nodes,
            batch,
            workers: 1,
            max_fanin: 0,
            lanes: 1,
            hard_words: 0,
        }
    }

    /// Sets the worker count whose workspaces are resident simultaneously.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the widest fan-in of the modelled circuit.
    #[must_use]
    pub fn with_max_fanin(mut self, max_fanin: usize) -> Self {
        self.max_fanin = max_fanin;
        self
    }

    /// Sets how many batch rows each workspace carries side by side.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Sets how many input columns each workspace holds.
    #[must_use]
    pub fn with_workspace_inputs(mut self, workspace_inputs: usize) -> Self {
        self.workspace_inputs = workspace_inputs;
        self
    }

    /// Sets how many `u64` words each worker's hard pass holds at once.
    #[must_use]
    pub fn with_hard_words(mut self, hard_words: usize) -> Self {
        self.hard_words = hard_words;
        self
    }

    /// Bytes used by persistent batch-wide buffers: the in-place logit
    /// matrix (`[batch, inputs]` f32) plus the hardened bit per entry.
    pub fn persistent_bytes(&self) -> u64 {
        let cells = self.batch as u64 * self.num_inputs as u64;
        cells * 4 + cells
    }

    /// Bytes used by the per-worker workspaces: per worker and lane, three
    /// buffers of `workspace_inputs` (logits, probabilities and input
    /// gradients), two of `num_nodes` (activations and node gradients) and
    /// two fan-in gather buffers, all f32 — independent of the batch size.
    /// Equal to [`Workspace::bytes`](crate::Workspace::bytes) of each
    /// worker's workspace.
    pub fn workspace_bytes(&self) -> u64 {
        let per_lane =
            3 * self.workspace_inputs as u64 + 2 * (self.num_nodes as u64 + self.max_fanin as u64);
        self.workers as u64 * self.lanes as u64 * per_lane * 4
    }

    /// Bytes of the per-worker hard-pass buffers, whatever the batch.
    pub fn hard_bytes(&self) -> u64 {
        self.workers as u64 * self.hard_words as u64 * 8
    }

    /// Total modelled bytes.
    pub fn total_bytes(&self) -> u64 {
        self.persistent_bytes() + self.workspace_bytes() + self.hard_bytes()
    }

    /// Total modelled mebibytes, the unit used in the paper's figure.
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_memory_grows_linearly_with_batch() {
        let small = MemoryModel::new(100, 1000, 1_000);
        let large = MemoryModel::new(100, 1000, 10_000);
        let ratio = large.persistent_bytes() as f64 / small.persistent_bytes() as f64;
        assert!((ratio - 10.0).abs() < 1e-9);
        assert!(large.total_bytes() > small.total_bytes());
    }

    #[test]
    fn workspaces_scale_with_workers_not_batch() {
        let one = MemoryModel::new(100, 1000, 1_000).with_workers(1);
        let eight = MemoryModel::new(100, 1000, 1_000).with_workers(8);
        assert_eq!(eight.workspace_bytes(), 8 * one.workspace_bytes());
        let huge_batch = MemoryModel::new(100, 1000, 1_000_000).with_workers(8);
        assert_eq!(huge_batch.workspace_bytes(), eight.workspace_bytes());
        // A block workspace carries its lanes side by side.
        let blocks = eight.with_lanes(16);
        assert_eq!(blocks.workspace_bytes(), 16 * eight.workspace_bytes());
        assert_eq!(blocks.persistent_bytes(), eight.persistent_bytes());
    }

    #[test]
    fn memory_grows_with_circuit_size() {
        let small = MemoryModel::new(100, 1_000, 1_000);
        let large = MemoryModel::new(100, 50_000, 1_000);
        assert!(large.total_bytes() > small.total_bytes());
    }

    #[test]
    fn workspace_inputs_shrink_only_the_workspaces() {
        let all = MemoryModel::new(100, 1000, 64);
        let cone = all.with_workspace_inputs(40);
        assert_eq!(all.workspace_bytes() - cone.workspace_bytes(), 3 * 60 * 4);
        assert_eq!(cone.persistent_bytes(), all.persistent_bytes());
    }

    #[test]
    fn hard_pass_words_are_counted_per_worker() {
        let m = MemoryModel::new(100, 1000, 256).with_workers(3);
        let hard = m.with_hard_words(4 * 2000);
        assert_eq!(hard.hard_bytes(), 3 * 4 * 2000 * 8);
        assert_eq!(hard.total_bytes() - m.total_bytes(), hard.hard_bytes());
        let huge_batch = MemoryModel {
            batch: 1 << 20,
            ..hard
        };
        assert_eq!(huge_batch.hard_bytes(), hard.hard_bytes());
    }

    #[test]
    fn fanin_scratch_is_counted() {
        let narrow = MemoryModel::new(10, 100, 10).with_max_fanin(2);
        let wide = MemoryModel::new(10, 100, 10).with_max_fanin(64);
        assert!(wide.workspace_bytes() > narrow.workspace_bytes());
    }

    #[test]
    fn component_breakdown_sums_to_total() {
        let m = MemoryModel::new(64, 256, 128)
            .with_workers(4)
            .with_max_fanin(8)
            .with_hard_words(40);
        let parts = m.persistent_bytes() + m.workspace_bytes() + m.hard_bytes();
        assert_eq!(m.total_bytes(), parts);
        assert!(m.total_mib() > 0.0);
    }

    #[test]
    fn zero_batch_keeps_only_workspaces() {
        let m = MemoryModel::new(10, 10, 0).with_workers(2);
        assert_eq!(m.persistent_bytes(), 0);
        assert_eq!(m.total_bytes(), m.workspace_bytes());
    }
}
