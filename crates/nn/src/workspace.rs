//! A reusable scratch-buffer arena for the allocation-free kernel path.
//!
//! Every training epoch of the seed code allocated (and freed) dozens of
//! full-size matrices: forward activations, caches, gradients, gathered
//! batches. [`Workspace`] turns that churn into a checkout/return
//! protocol: [`Workspace::take`] hands out a buffer (reusing a pooled one
//! when its capacity suffices), and [`Workspace::give`] returns it for the
//! next step. After a one-epoch warmup the pool is saturated and steady-
//! state training performs **O(1) heap allocations per epoch** (verified
//! by `crates/bench/tests/alloc_count.rs` with a counting allocator).
//! Every `give` in the trainers returns a buffer a `take` handed out, so a
//! warm epoch leaves the pool's buffer count and bytes where it found them.
//!
//! The arena is deliberately dumb — a best-fit scan over at most
//! [`MAX_POOLED`] buffers, no size classes, no thread-safety: whoever runs
//! a model holds the arena it runs through. A model starts with an empty
//! one of its own and uses it when driven by hand; a federated run lends
//! it one per *worker* for the length of a client's turn
//! ([`crate::GraphModel::swap_workspace`]), so what a client keeps between
//! rounds is not scratch. [`Workspace::take`] zero-fills, so which arena a
//! model runs through — and what ran through it before — cannot reach a
//! result.
//!
//! `Clone` yields an **empty** workspace: pooled scratch is an optimization,
//! not state, and cloning a model (e.g. broadcasting global parameters to
//! clients) must not duplicate megabytes of dead buffers.

use crate::tensor::Matrix;

/// Upper bound on pooled buffers; returns beyond this are dropped.
const MAX_POOLED: usize = 64;

/// Raises the `workspace.high_water_bytes` gauge to the capacity of the
/// largest single buffer ever checked out (across all workspaces in the
/// process). Disarmed: one relaxed load.
#[inline]
fn record_high_water(cap_elems: usize) {
    use std::sync::{Arc, OnceLock};
    if !fedgta_obs::metrics_on() {
        return;
    }
    static HWM: OnceLock<Arc<fedgta_obs::Gauge>> = OnceLock::new();
    HWM.get_or_init(|| fedgta_obs::global().gauge("workspace.high_water_bytes"))
        .set_max((cap_elems * std::mem::size_of::<f32>()) as u64);
}

/// A pool of reusable `Vec<f32>` scratch buffers (see module docs).
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Clone for Workspace {
    /// Clones to an *empty* workspace — scratch is never model state.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zeroed buffer of exactly `len` elements.
    ///
    /// Best-fit: the smallest pooled buffer whose *capacity* covers `len`
    /// is reused (no reallocation); otherwise a fresh buffer is allocated.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len
                && best.is_none_or(|j: usize| self.pool[j].capacity() > b.capacity())
            {
                best = Some(i);
            }
        }
        let mut buf = match best {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        buf.clear();
        buf.resize(len, 0.0);
        record_high_water(buf.capacity());
        buf
    }

    /// Checks out a zeroed `rows × cols` matrix.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Returns a buffer to the pool (dropped if the pool is full or the
    /// buffer owns no capacity).
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.pool.len() < MAX_POOLED {
            self.pool.push(buf);
        }
    }

    /// Returns a matrix's buffer to the pool.
    pub fn give_matrix(&mut self, m: Matrix) {
        self.give(m.into_vec());
    }

    /// Number of buffers currently pooled (for tests/diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Capacity, in elements, of the largest pooled buffer (for
    /// tests/diagnostics).
    pub fn largest_pooled(&self) -> usize {
        self.pool.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// Heap bytes the pooled buffers retain (capacities).
    #[doc(hidden)]
    pub fn bytes(&self) -> usize {
        self.pool.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_reuses_capacity() {
        let mut ws = Workspace::new();
        let buf = ws.take(100);
        let ptr = buf.as_ptr();
        ws.give(buf);
        assert_eq!(ws.pooled(), 1);
        // Same-size request reuses the exact buffer.
        let again = ws.take(100);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 100);
        // Smaller request also reuses it (capacity covers).
        ws.give(again);
        let smaller = ws.take(10);
        assert_eq!(smaller.as_ptr(), ptr);
        assert_eq!(smaller.len(), 10);
    }

    #[test]
    fn take_zeroes_recycled_buffers() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(4);
        buf.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.give(buf);
        assert_eq!(ws.take(4), vec![0.0; 4]);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(16);
        let small_ptr = small.as_ptr();
        ws.give(big);
        ws.give(small);
        // A 10-element request must grab the 16-capacity buffer, not the
        // 1000-capacity one.
        let got = ws.take(10);
        assert_eq!(got.as_ptr(), small_ptr);
    }

    #[test]
    fn matrix_roundtrip() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 4);
        assert_eq!(m.shape(), (3, 4));
        ws.give_matrix(m);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.give(vec![0.0; 32]);
        assert_eq!(ws.clone().pooled(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_POOLED + 10) {
            ws.give(vec![0.0; 8]);
        }
        assert_eq!(ws.pooled(), MAX_POOLED);
        ws.give(Vec::new()); // zero-capacity buffers are never pooled
        assert_eq!(ws.pooled(), MAX_POOLED);
    }
}
