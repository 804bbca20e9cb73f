//! The mini-batch MLP head under the decoupled family and GAMLP.

use super::common::{make_batches, step, supervise, GraphDataset, TrainHooks};
use super::ModelConfig;
use crate::mlp::{Mlp, MlpCache};
use crate::ops::softmax_rows_inplace;
use crate::optim::Optimizer;
use crate::tensor::{MatView, Matrix};
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// The head's input for one piece of rows.
pub(crate) enum HeadInput<'a> {
    /// Consecutive rows of a resident matrix, read where they lie.
    Rows(MatView<'a>),
    /// Rows assembled in a matrix checked out of the piece loop's
    /// workspace, which takes it back.
    Pooled(Matrix),
}

/// What the decoupled family and GAMLP share: an MLP head trained by
/// mini-batches, and the scratch arena its training and its inference both
/// run through. The two differ only in how a batch's head input is built
/// (gather vs gate-combine) and in what lies upstream of it (data vs the
/// hop gate), which they pass in.
#[derive(Clone)]
pub(crate) struct BatchedHead {
    pub head: Mlp,
    batch_size: usize,
    rng: StdRng,
    /// The scratch arena batches and activations go through: the head's
    /// own (empty after `clone()`) unless the caller swapped one in.
    pub ws: Workspace,
}

impl BatchedHead {
    /// A head of `cfg.layers` linear layers from `head_in` inputs
    /// (`cfg.layers == 1`: the linear head of the SGC paper; deeper heads
    /// insert `cfg.hidden`-wide ReLU layers) behind `extra` parameters of
    /// the owner's; `salt` separates the owners' batching streams.
    pub fn new(
        cfg: &ModelConfig,
        head_in: usize,
        num_classes: usize,
        extra: usize,
        salt: u64,
    ) -> Self {
        let dims = cfg.widths(head_in, num_classes);
        Self {
            head: Mlp::with_extra(&dims, cfg.dropout, cfg.seed, extra),
            batch_size: cfg.batch_size,
            rng: StdRng::seed_from_u64(cfg.seed ^ salt),
            ws: Workspace::new(),
        }
    }

    /// Rows of the largest batch training cuts from `data` — the most rows
    /// that ever go through the workspace at once.
    fn max_batch_rows(&self, data: &GraphDataset) -> usize {
        let n = data.train_nodes.len().max(1);
        match self.batch_size {
            0 => n,
            b => b.min(n),
        }
    }

    /// One epoch of mini-batch training; returns the mean batch loss.
    ///
    /// `input(head, batch, ws)` builds a batch's head input out of `ws`,
    /// plus whatever `backward` needs to keep of it; `backward(head, cache,
    /// d_logits, hidden_grad, kept, ws)` returns the flat gradient, checked
    /// out of `ws`, having given everything else it took back.
    pub fn train_epoch<K>(
        &mut self,
        data: &GraphDataset,
        opt: &mut dyn Optimizer,
        hooks: &mut TrainHooks<'_>,
        mut input: impl FnMut(&Mlp, &[u32], &mut Workspace) -> (Matrix, K),
        mut backward: impl FnMut(
            &Mlp,
            &MlpCache,
            &Matrix,
            Option<&Matrix>,
            K,
            &mut Workspace,
        ) -> Vec<f32>,
    ) -> f32 {
        let Self { head, batch_size, rng, ws, .. } = self;
        let batches = make_batches(&data.train_nodes, *batch_size, rng);
        let mut total_loss = 0f64;
        let mut steps = 0usize;
        for batch in batches.iter().filter(|b| !b.is_empty()) {
            // The batch's input becomes the forward cache's layer-0 entry.
            let (xb, kept) = input(head, batch, ws);
            let (logits, cache) = head.forward_ws(xb, true, ws);
            // Rows are local to the batch, and every one of them is labeled.
            let labels: Vec<u32> = batch.iter().map(|&i| data.labels[i as usize]).collect();
            let rows: Vec<u32> = (0..batch.len() as u32).collect();
            let (loss, d_logits, hidden_grad) =
                supervise(&logits, &labels, &rows, batch, cache.penultimate(), hooks, ws);
            let mut grads = backward(head, &cache, &d_logits, hidden_grad.as_ref(), kept, ws);
            step(head.params_mut(), &mut grads, opt, hooks);
            // Everything checked out of the arena goes back for the next
            // batch (`hidden_grad` is the hook's own allocation: pooling it
            // would grow the arena by a buffer per batch).
            ws.give(grads);
            ws.give_matrix(d_logits);
            cache.recycle(ws);
            ws.give_matrix(logits);
            total_loss += loss as f64;
            steps += 1;
        }
        if steps == 0 {
            0.0
        } else {
            (total_loss / steps as f64) as f32
        }
    }

    /// The row-separable forward: `out` becomes `n_rows × |Y|` and its
    /// rows `r` = `softmax(head(input(r, ws)))`, where `input` yields the
    /// head's input for a range of output rows.
    ///
    /// Rows go through the workspace at most [`Self::max_batch_rows`] at a
    /// time, so inference reuses the buffers training pooled and never
    /// grows a client's resident pool by an `n`-row logits, hidden
    /// activation or gather. A logit depends on its own input row only and
    /// keeps its `k`-order whatever rows share the GEMM call, so the pieces
    /// are invisible in the result.
    pub fn probs_by_pieces<'a>(
        &mut self,
        data: &GraphDataset,
        n_rows: usize,
        mut input: impl FnMut(Range<usize>, &mut Workspace) -> HeadInput<'a>,
        out: &mut Matrix,
    ) {
        let piece = self.max_batch_rows(data);
        let (head, ws) = (&self.head, &mut self.ws);
        let classes = *head.dims().last().expect("an MLP has at least one layer");
        out.resize_to(n_rows, classes);
        for (p, dst) in out.as_mut_slice().chunks_mut(piece * classes).enumerate() {
            let x = input(p * piece..p * piece + dst.len() / classes, ws);
            let view = match &x {
                HeadInput::Rows(v) => *v,
                HeadInput::Pooled(m) => m.view(),
            };
            let mut probs = head.infer_ws(view, ws);
            softmax_rows_inplace(&mut probs);
            dst.copy_from_slice(probs.as_slice());
            ws.give_matrix(probs);
            if let HeadInput::Pooled(m) = x {
                ws.give_matrix(m);
            }
        }
    }
}
