//! The one round every aggregating strategy runs: an [`Objective`]'s
//! server rule returns the collaboration matrix `W` — for each slot of the
//! model [`Store`] it writes, a weighted [`Row`] over the round's arrivals
//! — and [`Averaged`] applies `P′ = W·P` with one blocked row kernel
//! ([`fedgta_nn::ops::weighted_sum_rows_into`] on column blocks).
//!
//! A store is [`Store::shared`] (FedAvg's one slot, GCFL+'s clusters) or
//! [`Store::personal`]: slot `i` is client `i`'s, as FedGTA's Eq. 7 gives
//! every client a model of its own. In memory a personal slot lives in its
//! client's model, so a personalized model is never held twice, and `W`
//! is applied to the arrivals' models in place. On the wire every slot
//! keeps a buffer of its own: there the server's slot and the client's
//! model really differ (a lost upload leaves the slot behind the model,
//! and the slot is what the server re-sends and anchors error feedback
//! on).

use super::{RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{train_participants, LocalResult};
use crate::transport::WirePayload;
use fedgta_graph::par::{par_map_indexed, resolve_threads};
use fedgta_nn::ops::weighted_sum_rows_into;
use fedgta_nn::TrainHooks;
use fedgta_obs::SpanGuard;

/// An upload the server weighs: the trained parameters and `n_train`.
pub type Weighted = (Vec<f32>, f64);

/// One row of `W`: `Σₘ weights[m] · P[members[m]]` (divided by `divisor`
/// when set), summed in member order with `f64` carries; row `p` of `P` is
/// the round's `p`-th arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Arrival indices, in summation order.
    pub members: Vec<usize>,
    /// One weight per member.
    pub weights: Vec<f32>,
    /// What the `f64` sum is divided by before its one rounding.
    pub divisor: Option<f64>,
}

impl Row {
    /// FedAvg's Eq. 2 over `(arrival, weight)` pairs: `Σ w·p / Σ w`,
    /// divided once, after the sum. A total that is not positive — no
    /// member has a training node — weighs the members alike.
    ///
    /// # Panics
    ///
    /// With no pair, or a weight a row's `f32` does not hold exactly
    /// (`n_train` is exact below 2²⁴).
    pub fn average(pairs: impl IntoIterator<Item = (usize, f64)>) -> Self {
        let (members, raw): (Vec<usize>, Vec<f64>) = pairs.into_iter().unzip();
        assert!(!members.is_empty(), "cannot average zero uploads");
        let (weights, divisor) = match raw.iter().sum::<f64>() {
            total if total > 0.0 => {
                let exact = raw.iter().all(|&w| w as f32 as f64 == w);
                assert!(exact, "a weight of {raw:?} does not fit a row's f32 exactly");
                (raw.iter().map(|&w| w as f32).collect(), total)
            }
            _ => (vec![1.0; members.len()], members.len() as f64),
        };
        Self { members, weights, divisor: Some(divisor) }
    }

    /// `out = self · P`, `out` resized to `P`'s width (its memory reused).
    pub fn apply(&self, p: &[&[f32]], out: &mut Vec<f32>) {
        out.resize(p.first().map_or(0, |r| r.len()), 0.0);
        weighted_sum_rows_into(p, &self.members, &self.weights, self.divisor, out);
    }
}

/// `outs[k] = rows[k] · P`, each resized to `P`'s width, on `threads`
/// workers (0 = auto): the blocked kernel the round applies `W` with,
/// bit-identical at any thread count.
pub fn apply_rows(p: &[&[f32]], rows: &[Row], outs: &mut [Vec<f32>], threads: usize) {
    apply_pooled(p, rows, outs, &mut Vec::new(), threads);
}

/// [`apply_rows`] with the kernel's scratch pooled by the caller.
fn apply_pooled(
    p: &[&[f32]],
    rows: &[Row],
    outs: &mut [Vec<f32>],
    scratch: &mut Vec<f32>,
    threads: usize,
) {
    assert_eq!(rows.len(), outs.len(), "one output per row");
    let plen = p.first().map_or(0, |r| r.len());
    let sources: Vec<Source<'_>> = p.iter().map(|&row| Source::Fixed(row)).collect();
    let mut targets: Vec<&mut [f32]> = (outs.iter_mut())
        .map(|out| {
            out.resize(plen, 0.0);
            out.as_mut_slice()
        })
        .collect();
    let dest: Vec<usize> = (0..rows.len()).collect();
    apply_blocked(&sources, rows, &dest, &mut targets, scratch, threads);
}

/// Columns per block of [`apply_blocked`]: a 4 KiB page of each row.
const APPLY_BLOCK: usize = 1024;

/// Where [`apply_blocked`] reads one row of `P`.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// A vector no row writes.
    Fixed(&'a [f32]),
    /// Target `t`, which some row also writes.
    Target(usize),
}

/// `targets[dest[k]] = rows[k] · P` for every row `k`, in place: a row may
/// read a target that it or another row writes. Workers of `threads`
/// split the columns into contiguous runs of [`APPLY_BLOCK`]-wide blocks,
/// and each block's outputs for every row go into the worker's part of
/// `scratch` (`rows × APPLY_BLOCK`, pooled by the caller) before any is
/// written back. Each row of a block is one
/// [`weighted_sum_rows_into`] call on sub-slices, whose every element sums
/// its members in order, so no bit — and no `aggregate.axpy_flops` count —
/// depends on the block width or the thread count. Allocates a few small
/// vectors per call and per worker, none per block.
fn apply_blocked(
    p: &[Source<'_>],
    rows: &[Row],
    dest: &[usize],
    targets: &mut [&mut [f32]],
    scratch: &mut Vec<f32>,
    threads: usize,
) {
    assert_eq!(rows.len(), dest.len(), "one destination per row");
    let Some(plen) = targets.first().map(|t| t.len()).filter(|_| !rows.is_empty()) else {
        return;
    };
    assert!(targets.iter().all(|t| t.len() == plen), "targets of unequal lengths");
    let blocks = plen.div_ceil(APPLY_BLOCK);
    let workers = resolve_threads(Some(threads)).min(blocks).max(1);
    let stride = rows.len() * APPLY_BLOCK;
    scratch.resize(workers * stride, 0.0);
    // Worker `w` owns blocks `[w·blocks/workers, (w+1)·blocks/workers)` of
    // every target, and one `rows × APPLY_BLOCK` part of the scratch.
    let edge = |w: usize| (w * blocks / workers * APPLY_BLOCK).min(plen);
    let mut parts: Vec<Part<'_>> = (0..workers)
        .zip(scratch.chunks_mut(stride))
        .map(|(w, scratch)| Part {
            start: edge(w),
            cols: Vec::with_capacity(targets.len()),
            scratch,
        })
        .collect();
    for target in targets.iter_mut() {
        let mut rest: &mut [f32] = target;
        for (w, part) in parts.iter_mut().enumerate() {
            let (mine, next) = std::mem::take(&mut rest).split_at_mut(edge(w + 1) - edge(w));
            part.cols.push(mine);
            rest = next;
        }
    }
    par_map_indexed(&mut parts, Some(threads), |_, Part { start, cols, scratch }| {
        let end = *start + cols[0].len();
        let mut views: Vec<&[f32]> = Vec::with_capacity(p.len());
        let mut b0 = *start;
        while b0 < end {
            let b1 = (b0 + APPLY_BLOCK).min(end);
            let (lo, hi) = (b0 - *start, b1 - *start);
            // Every row reads the block before any of it is written back.
            let mut block = recycle(views);
            block.extend(p.iter().map(|src| match *src {
                Source::Fixed(v) => &v[b0..b1],
                Source::Target(t) => &cols[t][lo..hi],
            }));
            for (row, out) in rows.iter().zip(scratch.chunks_mut(APPLY_BLOCK)) {
                weighted_sum_rows_into(
                    &block,
                    &row.members,
                    &row.weights,
                    row.divisor,
                    &mut out[..hi - lo],
                );
            }
            views = recycle(block);
            for (&t, out) in dest.iter().zip(scratch.chunks(APPLY_BLOCK)) {
                cols[t][lo..hi].copy_from_slice(&out[..hi - lo]);
            }
            b0 = b1;
        }
    });
}

/// One worker's share of [`apply_blocked`]: columns `start..` of every
/// target, and its part of the scratch.
struct Part<'a> {
    start: usize,
    cols: Vec<&'a mut [f32]>,
    scratch: &'a mut [f32],
}

/// An emptied `views`, its allocation kept for borrows of another block:
/// std collects a mapped `vec::IntoIter` into its source allocation when
/// the element layouts match.
fn recycle<'b>(mut views: Vec<&[f32]>) -> Vec<&'b [f32]> {
    views.clear();
    views.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// What a server rule writes into one slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Next {
    /// A weighted row over the round's arrivals.
    Row(Row),
    /// A model computed by a rule that is not a weighted row (Scaffold's
    /// `w + mean Δwᵢ`, a trimmed mean).
    Model(Vec<f32>),
}

/// The collaboration matrix `W`: `(slot, next model)` per slot written,
/// each slot at most once.
pub type Collaboration = Vec<(usize, Next)>;

/// FedAvg's server rule: slot 0 becomes one row over every arrival,
/// weighted by `n_train`.
pub fn average(arrived: &[LocalResult<Weighted>]) -> Collaboration {
    let row = Row::average(arrived.iter().map(|r| r.payload.1).enumerate());
    vec![(0, Next::Row(row))]
}

/// The round's only model store: the slot models, and the slot each client
/// trains from — `None` until the client first gets a broadcast, and never
/// `None` again ([`super::Broadcast`]'s arrival contract).
///
/// A [`Self::shared`] store starts with one slot that every client trains
/// from; a rule may add slots and move clients between them
/// ([`Self::assign`], as GCFL+'s splits do). Each of its slots keeps a
/// buffer of its own, so a rule may read the broadcast model after its
/// holders trained, as Scaffold's does. In a [`Self::personal`] store slot
/// `i` is client `i`'s own, held from the first round `W` writes it. In
/// memory its model *is* client `i`'s parameters: `W` is applied there in
/// place and the store keeps no buffer, so `W` writes every arrival's slot
/// in every round (the arrival's training has moved the only copy), and
/// the store never starts a wire round after.
#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Vec<f32>>,
    slot_of: Vec<Option<usize>>,
    /// Whether slot `i` is client `i`'s own.
    personal: bool,
    /// Whether the slots live in the clients' models: a personal store
    /// written in memory.
    in_place: bool,
    /// The blocked kernel's `rows × block` scratch, per worker.
    scratch: Vec<f32>,
}

impl Store {
    /// One slot holding `model`, which all `clients` clients train from.
    pub fn shared(model: Vec<f32>, clients: usize) -> Self {
        Self { slots: vec![model], slot_of: vec![Some(0); clients], ..Self::default() }
    }

    /// Slot `i` for each client `i` of `clients`, held from the round `W`
    /// first writes it.
    pub fn personal(clients: usize) -> Self {
        let (slots, slot_of) = (vec![Vec::new(); clients], vec![None; clients]);
        Self { slots, slot_of, personal: true, ..Self::default() }
    }

    /// Slot `slot`'s model.
    ///
    /// # Panics
    ///
    /// If the slots live in the clients' models.
    pub fn model(&self, slot: usize) -> &[f32] {
        assert!(!self.in_place, "slot {slot} lives in its client's model");
        &self.slots[slot]
    }

    /// Whether client `i` has a slot: it then starts each turn from it,
    /// with a reset optimizer.
    pub fn holds(&self, i: usize) -> bool {
        self.slot_of.get(i).is_some_and(Option::is_some)
    }

    /// The vector client `i` starts its next turn from, if it has a slot
    /// that is not its model already.
    pub fn vector_for(&self, i: usize) -> Option<&[f32]> {
        let slot = self.slot_of.get(i).copied().flatten().filter(|_| !self.in_place)?;
        Some(&self.slots[slot])
    }

    /// Heap bytes of the slot buffers: none for slots that live in the
    /// clients' models.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(|s| 4 * s.len()).sum()
    }

    /// Moves `client` to `slot` of a shared store, creating the slot
    /// (empty until `W` writes it) when it is past the last one.
    ///
    /// # Panics
    ///
    /// On a personal store, whose slot `i` is client `i`'s.
    pub fn assign(&mut self, client: usize, slot: usize) {
        let fixed = "a personal store's slots are fixed";
        assert!(!self.personal, "client {client} cannot move to slot {slot}: {fixed}");
        self.grow(slot);
        self.slot_of[client] = Some(slot);
    }

    fn grow(&mut self, slot: usize) {
        let len = self.slots.len().max(slot + 1);
        self.slots.resize_with(len, Vec::new);
    }

    /// Applies `W` over `p`, one `(client, tensor)` per arrival: the
    /// upload's own tensor, or `None` when it is the client's model. In
    /// memory a personal store's `W` writes exactly the arrivals' slots, in
    /// arrival order and with rows, into the arrivals' models, and one
    /// blocked kernel applies them in place, so a row may read a model
    /// another row overwrites. Otherwise every row goes into its slot's own
    /// buffer (warm rounds allocate no parameter-sized memory). Returns
    /// which slots it wrote.
    fn write(
        &mut self,
        w: Collaboration,
        clients: &mut [Client],
        p: &[(usize, Option<&[f32]>)],
        in_memory: bool,
        threads: usize,
    ) -> Vec<bool> {
        let mut written = vec![false; self.slots.len()];
        for &(slot, _) in &w {
            self.grow(slot);
            written.resize(self.slots.len(), false);
            assert!(!std::mem::replace(&mut written[slot], true), "W writes slot {slot} twice");
            if self.personal {
                self.slot_of[slot] = Some(slot);
            }
        }
        if self.personal && in_memory {
            let arrivals = p.iter().map(|&(client, _)| client);
            assert!(
                w.iter().map(|&(slot, _)| slot).eq(arrivals),
                "W writes the arrivals' slots, in arrival order"
            );
            let rows: Vec<Row> = (w.into_iter())
                .map(|(slot, next)| match next {
                    Next::Row(row) => row,
                    Next::Model(_) => {
                        panic!("slot {slot} lives in its client's model: W writes it with a row")
                    }
                })
                .collect();
            let mut models: Vec<Option<&mut [f32]>> =
                clients.iter_mut().map(|c| Some(c.model.param_slice_mut())).collect();
            let mut targets: Vec<&mut [f32]> = p
                .iter()
                .map(|&(client, _)| models[client].take().expect("one arrival per slot"))
                .collect();
            let sources: Vec<Source<'_>> = (p.iter().enumerate())
                .map(|(m, &(_, own))| own.map_or(Source::Target(m), Source::Fixed))
                .collect();
            let dest: Vec<usize> = (0..rows.len()).collect();
            apply_blocked(&sources, &rows, &dest, &mut targets, &mut self.scratch, threads);
            self.in_place = true;
            return written;
        }
        let (mut slots, mut rows, mut outs) = (Vec::new(), Vec::new(), Vec::new());
        for (slot, next) in w {
            match next {
                Next::Model(model) => self.slots[slot] = model,
                Next::Row(row) => {
                    slots.push(slot);
                    rows.push(row);
                    outs.push(std::mem::take(&mut self.slots[slot]));
                }
            }
        }
        let p: Vec<&[f32]> = (p.iter())
            .map(|&(client, own)| own.unwrap_or(clients[client].model.param_slice()))
            .collect();
        apply_pooled(&p, &rows, &mut outs, &mut self.scratch, threads);
        for (slot, out) in slots.into_iter().zip(outs) {
            self.slots[slot] = out;
        }
        written
    }

    /// Installs each written slot on every client assigned to it (in
    /// memory a personal slot was written into its client's model);
    /// returns how many clients received a model.
    fn install(&self, clients: &mut [Client], written: &[bool]) -> usize {
        let mut receivers = 0;
        for (c, slot) in clients.iter_mut().zip(&self.slot_of) {
            if let Some(slot) = slot.filter(|&s| written[s]) {
                if !self.in_place {
                    c.model.set_params(&self.slots[slot]);
                }
                receivers += 1;
            }
        }
        receivers
    }
}

/// A round's arrivals as its server rule sees them.
pub struct Arrivals<'a, U> {
    /// What arrived, in participant order: `P`'s rows are their parameters
    /// as the rule leaves them (FedDC rewrites them).
    pub results: &'a mut [LocalResult<U>],
    /// The store before `W`: the models broadcast this round, and each
    /// client's slot, which a rule over a shared store may change.
    pub store: &'a mut Store,
    /// Worker threads for the rule's own parallel work.
    pub threads: usize,
    /// The round's `aggregate` span, for the rule's decision fields.
    pub span: &'a mut SpanGuard,
}

/// What makes an aggregating strategy itself: a local objective and a
/// server rule.
pub trait Objective: Send + Sync {
    /// Name in the paper's tables; the `aggregate` span's `strategy`.
    const NAME: &'static str;
    /// What a participant uploads; tensor 0 is its parameters, its row of
    /// `P` ([`WirePayload::params`]).
    type Upload: Send + WirePayload;

    /// [`Self::NAME`], unless a configuration renames the strategy.
    fn name(&self) -> String {
        Self::NAME.into()
    }

    /// The store a run starts from: one slot holding client 0's model,
    /// which every client trains from, unless overridden.
    fn store(&self, clients: &[Client]) -> Store {
        Store::shared(clients[0].model.params(), clients.len())
    }

    /// Sizes the per-client state for `clients` clients and `plen`
    /// parameters; called at the top of every round.
    fn prepare(&mut self, _clients: usize, _plen: usize) {}

    /// Worker side: client `i`'s local step, from the model the executor
    /// installed — read anchors off `c.model`, not the server's copy. Runs
    /// on any thread; it may read `self` but not change it.
    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload);

    /// Driver side: the round's `W`, given at least one arrival.
    fn server(&mut self, round: Arrivals<'_, Self::Upload>) -> Collaboration;

    /// Analytic `(up, down)` bytes when `arrived` uploads came in and
    /// `receivers` clients get a `plen`-parameter model back.
    fn bytes(
        &self,
        plen: usize,
        arrived: &[LocalResult<Self::Upload>],
        receivers: usize,
    ) -> (usize, usize) {
        let msg = 4 * plen + 8;
        (arrived.len() * msg, receivers * msg)
    }
}

/// Local training under `hooks` plus the round's pseudo-labels; uploads
/// the trained parameters weighted by `n_train`.
pub fn train_weighted<'a>(
    i: usize,
    c: &mut Client,
    ctx: &RoundCtx<'a>,
    mut hooks: TrainHooks<'a>,
) -> (f32, Weighted) {
    hooks.pseudo = ctx.pseudo_for(i);
    let loss = c.train_local(ctx.epochs, &mut hooks);
    (loss, (c.model.params(), c.n_train() as f64))
}

/// An aggregating strategy: the model store, and the [`Objective`] that
/// trains and aggregates it.
#[derive(Default)]
pub struct Averaged<O> {
    /// The objective: its hyperparameters and per-client state.
    pub objective: O,
    store: Store,
}

impl<O> From<O> for Averaged<O> {
    fn from(objective: O) -> Self {
        Self { objective, store: Store::default() }
    }
}

impl<O: Default> Averaged<O> {
    /// The strategy with its objective's default hyperparameters.
    pub fn with_defaults() -> Self {
        O::default().into()
    }
}

impl<O> Averaged<O> {
    /// The model store as the last round left it.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl<O: Objective> Strategy for Averaged<O> {
    fn name(&self) -> String {
        self.objective.name()
    }

    fn store_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Participants train from their slots, the server rule turns what
    /// arrived into `W`, and every client assigned to a slot `W` writes
    /// installs it — in memory, a personal slot's row is written straight
    /// into its client's model. With no arrival every model stays.
    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        if self.store.slot_of.len() != clients.len() {
            self.store = self.objective.store(clients);
        }
        // A wire round broadcasts, re-sends and anchors error feedback on
        // the server's own slots.
        let in_memory = ctx.comms.is_none();
        assert!(
            in_memory || !self.store.in_place,
            "a store whose slots live in the clients' models cannot start a wire round"
        );
        let plen = clients[0].model.num_params();
        self.objective.prepare(clients.len(), plen);
        let trainer = &self.objective;
        let sent = RoundCtx { broadcast: Some(&self.store), ..*ctx };
        let mut arrived =
            train_participants(clients, participants, &sent, |i, c| trainer.train(i, c, &sent));
        let mut span =
            fedgta_obs::span!("aggregate", strategy = O::NAME, participants = arrived.len());
        if arrived.is_empty() {
            return RoundStats::default();
        }
        let mean_loss = arrived.iter().fold(0.0, |sum, r| sum + r.loss) / arrived.len() as f32;
        let w = self.objective.server(Arrivals {
            results: &mut arrived,
            store: &mut self.store,
            threads: ctx.threads,
            span: &mut span,
        });
        // `P`: each arrival's own tensor, or `None` where it is its client's
        // model — which `W` may overwrite.
        let p: Vec<(usize, Option<&[f32]>)> = (arrived.iter())
            .map(|r| {
                let model = clients[r.client].model.param_slice();
                let row = r.payload.params(model).expect("an upload's tensor 0 is its parameters");
                let own = !std::ptr::eq(row, model);
                (r.client, own.then(|| r.payload.params(&[])).flatten())
            })
            .collect();
        let written = self.store.write(w, clients, &p, in_memory, ctx.threads);
        let receivers = self.store.install(clients, &written);
        let (bytes_uploaded, bytes_downloaded) = self.objective.bytes(plen, &arrived, receivers);
        RoundStats { mean_loss, bytes_uploaded, bytes_downloaded }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::small_federation;
    use super::super::{FedAvg, FedDc, FedProx, Moon};
    use super::*;
    use fedgta_nn::models::ModelKind;

    /// The reference FedAvg row must keep the bits of: `Σ wᵢ·paramsᵢ / Σ
    /// wᵢ` in `f64`, member order, one rounding; a total that is not
    /// positive weighs the uploads alike.
    fn weighted_average(uploads: &[(Vec<f32>, f64)]) -> Vec<f32> {
        let len = uploads[0].0.len();
        let (uniform, total) = match uploads.iter().map(|(_, w)| w).sum::<f64>() {
            total if total > 0.0 => (false, total),
            _ => (true, uploads.len() as f64),
        };
        let mut out = vec![0f64; len];
        for (p, w) in uploads {
            let w = if uniform { 1.0 } else { *w };
            for (o, &v) in out.iter_mut().zip(p) {
                *o += w * v as f64;
            }
        }
        out.iter().map(|&v| (v / total) as f32).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` uploads of `plen` awkward floats with `n_train`-like weights.
    fn uploads(n: usize, plen: usize, weight: impl Fn(usize) -> f64) -> Vec<(Vec<f32>, f64)> {
        (0..n)
            .map(|c| {
                let p =
                    (0..plen).map(|j| ((c * 131 + j * 17) as f32 * 0.071).sin() * 3.7).collect();
                (p, weight(c))
            })
            .collect()
    }

    #[test]
    fn the_fedavg_row_keeps_the_reference_bits() {
        // 37 = two full 16-wide blocks and a 5-wide tail; a zero total.
        let weights: [fn(usize) -> f64; 2] = [|c| (5 + 7 * c) as f64, |_| 0.0];
        for plen in [37usize, 16, 1] {
            for weight in weights {
                let ups = uploads(6, plen, weight);
                let want = bits(&weighted_average(&ups));
                let p: Vec<&[f32]> = ups.iter().map(|u| u.0.as_slice()).collect();
                let row = Row::average(ups.iter().map(|u| u.1).enumerate());
                // Three copies of the row, as GCFL+ writes two slots of a
                // splitting cluster: each worker count gives every one the
                // reference's bits.
                let rows = vec![row.clone(), row.clone(), row];
                for threads in [1, 4] {
                    let mut outs = vec![vec![9.0f32; 3]; 3];
                    apply_rows(&p, &rows, &mut outs, threads);
                    for out in &outs {
                        assert_eq!(bits(out), want, "plen {plen}, {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn a_fedavg_round_installs_the_reference_average_at_one_and_four_threads() {
        let run = |threads: usize| {
            let mut clients = small_federation(ModelKind::Sgc, 2);
            let ctx = RoundCtx::with_threads(1, threads);
            let mut s = FedAvg::new();
            s.round(&mut clients, &[3, 0, 2], &ctx);
            // The uploads the round averaged, trained again by hand.
            let mut replay = small_federation(ModelKind::Sgc, 2);
            let global = replay[0].model.params();
            let ups: Vec<(Vec<f32>, f64)> = [3usize, 0, 2]
                .iter()
                .map(|&i| {
                    let c = &mut replay[i];
                    c.model.set_params(&global);
                    c.opt.reset();
                    c.train_local(1, &mut TrainHooks::none());
                    (c.model.params(), c.n_train() as f64)
                })
                .collect();
            let want = bits(&weighted_average(&ups));
            for c in &clients {
                assert_eq!(bits(c.model.param_slice()), want, "client {}, {threads} threads", c.id);
            }
        };
        run(1);
        run(4);
    }

    #[test]
    #[should_panic(expected = "does not fit a row's f32 exactly")]
    fn a_weight_a_row_cannot_hold_is_refused() {
        Row::average([(0, 0.1)]);
    }

    #[test]
    fn a_round_whose_arrivals_have_no_training_node_weighs_them_alike() {
        let same = weighted_average(&[(vec![1.0, 2.0], 0.0), (vec![3.0, 0.0], 0.0)]);
        assert_eq!(same, vec![2.0, 1.0]);
        let baselines: [fn() -> Box<dyn Strategy>; 4] = [
            || Box::new(FedAvg::new()),
            || Box::new(FedProx::new(0.01)),
            || Box::new(FedDc::new(0.01)),
            || Box::new(Moon::new(1.0, 0.5)),
        ];
        for make in baselines {
            let mut clients = small_federation(ModelKind::Sgc, 1);
            clients[2].data.train_nodes.clear();
            let mut s = make();
            s.round(&mut clients, &[2], &RoundCtx::plain(1));
            let p0 = clients[0].model.params();
            assert!(p0.iter().all(|v| v.is_finite()), "{}", s.name());
            assert!(clients.iter().all(|c| c.model.params() == p0), "{}", s.name());
        }
    }

    #[test]
    fn a_slot_nobody_is_assigned_to_is_written_but_installed_nowhere() {
        // GCFL+'s case: a shared store, a client moved to a new slot, and a
        // slot nobody holds written with a model. Every slot keeps a buffer,
        // in memory as on the wire.
        for in_memory in [false, true] {
            let mut clients = small_federation(ModelKind::Sgc, 3);
            let before: Vec<Vec<f32>> = clients.iter().map(|c| c.model.params()).collect();
            let plen = before[0].len();
            let mut store = Store::shared(vec![0.5; plen], clients.len());
            store.assign(1, 1);
            let (a, b) = (vec![1.0f32; plen], vec![3.0f32; plen]);
            let w = vec![
                (1, Next::Row(Row::average([(0, 1.0), (1, 1.0)]))),
                (4, Next::Model(b.clone())),
            ];
            let written =
                store.write(w, &mut clients, &[(0, Some(&a)), (2, Some(&b))], in_memory, 1);
            assert_eq!(written, [false, true, false, false, true]);
            assert_eq!(store.install(&mut clients, &written), 1);
            assert_eq!(clients[1].model.params(), vec![2.0; plen]);
            for i in [0, 2, 3] {
                assert_eq!(clients[i].model.params(), before[i], "client {i}");
            }
            assert_eq!(store.bytes(), 3 * 4 * plen, "in memory: {in_memory}");
            assert_eq!(store.vector_for(0), Some(&vec![0.5; plen][..]));
            assert_eq!(store.vector_for(1), Some(&vec![2.0; plen][..]));
        }
    }

    #[test]
    fn a_personal_slot_is_its_clients_model_in_memory_and_a_buffer_on_the_wire() {
        for in_memory in [false, true] {
            let mut clients = small_federation(ModelKind::Sgc, 3);
            let (n, plen) = (clients.len(), clients[0].model.num_params());
            let mut store = Store::personal(n);
            assert!((0..n).all(|i| !store.holds(i) && store.vector_for(i).is_none()));
            // Arrivals: client 2 uploads its model in place, client 0 a
            // tensor of its own; both rows read both, before either is
            // written.
            clients[2].model.set_params(&vec![3.0; plen]);
            let own = vec![1.0f32; plen];
            let row = || Next::Row(Row::average([(0, 1.0), (1, 1.0)]));
            let w = vec![(2, row()), (0, row())];
            let written = store.write(w, &mut clients, &[(2, None), (0, Some(&own))], in_memory, 1);
            assert_eq!(written, (0..n).map(|i| i == 0 || i == 2).collect::<Vec<_>>());
            assert_eq!(store.install(&mut clients, &written), 2);
            for (i, &written) in written.iter().enumerate() {
                assert_eq!(store.holds(i), written, "client {i}");
            }
            for i in [0, 2] {
                assert_eq!(clients[i].model.params(), vec![2.0; plen], "client {i}");
            }
            // In memory each slot is its client's model; on the wire it is
            // a buffer the client starts its next turn from.
            let (bytes, start) =
                if in_memory { (0, None) } else { (2 * 4 * plen, Some(vec![2.0; plen])) };
            assert_eq!(store.bytes(), bytes, "in memory: {in_memory}");
            assert_eq!(store.vector_for(2).map(<[f32]>::to_vec), start, "in memory: {in_memory}");
        }
    }

    #[test]
    #[should_panic(expected = "a personal store's slots are fixed")]
    fn a_personal_store_refuses_to_move_a_client() {
        Store::personal(2).assign(0, 1);
    }

    #[test]
    #[should_panic(expected = "W writes it with a row")]
    fn a_slot_that_lives_in_its_clients_model_refuses_a_model() {
        let mut clients = small_federation(ModelKind::Sgc, 3);
        let mut store = Store::personal(clients.len());
        let model = clients[0].model.params();
        store.write(vec![(0, Next::Model(model))], &mut clients, &[(0, None)], true, 1);
    }

    /// The out-of-place apply the blocked kernel replaced: one row per
    /// worker, each into a buffer of its own.
    fn apply_rows_oracle(p: &[&[f32]], rows: &[Row], outs: &mut [Vec<f32>], threads: usize) {
        par_map_indexed(outs, Some(threads), |k, out| rows[k].apply(p, out));
    }

    #[test]
    fn the_blocked_in_place_apply_keeps_the_oracles_bits() {
        // Seven models; arrival `m` is the model row `m` writes, uploaded in
        // place, but arrival 6 uploads a filtered tensor of its own. Rows 0
        // and 1 read each other's destination, rows 2–4 a cycle, row 5 only
        // itself, and row 6 the owned upload and arrival 0 into a model no
        // row reads.
        let row = |members: &[usize], weights: &[f32], divisor| Row {
            members: members.to_vec(),
            weights: weights.to_vec(),
            divisor,
        };
        let rows = [
            row(&[1, 0], &[0.25, 0.75], None),
            row(&[0, 1], &[3.0, 5.0], Some(8.0)),
            row(&[3], &[1.0], None),
            row(&[4, 2], &[0.5, 0.5], None),
            row(&[2], &[0.3], None),
            row(&[5], &[0.7], Some(0.9)),
            row(&[6, 0], &[2.0, 1.0], Some(3.0)),
        ];
        // Row `k` writes target `dest[k]`, listed out of order.
        let dest = [1usize, 0, 4, 2, 3, 6, 5];
        for plen in [5, APPLY_BLOCK, 2 * APPLY_BLOCK + 37] {
            let models: Vec<Vec<f32>> =
                uploads(7, plen, |_| 0.0).into_iter().map(|u| u.0).collect();
            let filtered: Vec<f32> = models[dest[6]].iter().map(|v| v * 0.5 + 0.125).collect();
            let mut oracle_p: Vec<&[f32]> = (0..6).map(|m| models[dest[m]].as_slice()).collect();
            oracle_p.push(&filtered);
            let mut want = vec![Vec::new(); rows.len()];
            apply_rows_oracle(&oracle_p, &rows, &mut want, 1);
            for threads in [1, 4] {
                let mut got = models.clone();
                let mut targets: Vec<&mut [f32]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                let mut sources: Vec<Source<'_>> =
                    dest[..6].iter().map(|&t| Source::Target(t)).collect();
                sources.push(Source::Fixed(&filtered));
                apply_blocked(&sources, &rows, &dest, &mut targets, &mut Vec::new(), threads);
                for (k, &t) in dest.iter().enumerate() {
                    assert_eq!(
                        bits(&got[t]),
                        bits(&want[k]),
                        "row {k}, plen {plen}, {threads} threads"
                    );
                }
            }
        }
    }
}
