//! The one round every aggregating strategy runs: an [`Objective`]'s
//! server rule returns the collaboration matrix `W` — for each slot of the
//! model [`Store`] it writes, a weighted [`Row`] over the round's arrivals
//! — and [`Averaged`] applies `P′ = W·P` with one row kernel
//! ([`fedgta_nn::ops::weighted_sum_rows_into`]).

use super::{RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{train_participants, LocalResult};
use crate::transport::WirePayload;
use fedgta_graph::par::par_map_indexed;
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

/// `outs[k] = rows[k] · P`, one row per worker of `threads` (0 = auto):
/// bit-identical at any thread count.
pub fn apply_rows(p: &[&[f32]], rows: &[Row], outs: &mut [Vec<f32>], threads: usize) {
    assert_eq!(rows.len(), outs.len(), "one output per row");
    par_map_indexed(outs, Some(threads), |k, out| rows[k].apply(p, out));
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
#[derive(Debug, Default)]
pub struct Store {
    slots: Vec<Vec<f32>>,
    slot_of: Vec<Option<usize>>,
}

impl Store {
    /// One slot holding `model`, which all `clients` clients train from.
    pub fn shared(model: Vec<f32>, clients: usize) -> Self {
        Self { slots: vec![model], slot_of: vec![Some(0); clients] }
    }

    /// No slot yet: the server rule assigns each client one as it arrives.
    pub fn empty(clients: usize) -> Self {
        Self { slots: Vec::new(), slot_of: vec![None; clients] }
    }

    /// Slot `slot`'s model.
    pub fn model(&self, slot: usize) -> &[f32] {
        &self.slots[slot]
    }

    /// The vector client `i` starts its next turn from, if any.
    pub fn vector_for(&self, i: usize) -> Option<&[f32]> {
        Some(&self.slots[self.slot_of.get(i).copied().flatten()?])
    }

    /// Moves `client` to `slot`, creating it (empty until `W` writes it)
    /// when it is past the last one.
    pub fn assign(&mut self, client: usize, slot: usize) {
        self.grow(slot);
        self.slot_of[client] = Some(slot);
    }

    fn grow(&mut self, slot: usize) {
        self.slots.resize_with(self.slots.len().max(slot + 1), Vec::new);
    }

    /// Applies `W`, each row into its slot's own buffer (warm rounds
    /// allocate no parameter-sized memory); returns which slots it wrote.
    fn write(&mut self, w: Collaboration, p: &[&[f32]], threads: usize) -> Vec<bool> {
        let mut written = vec![false; self.slots.len()];
        let (mut targets, mut rows, mut outs) = (Vec::new(), Vec::new(), Vec::new());
        for (slot, next) in w {
            self.grow(slot);
            written.resize(self.slots.len(), false);
            assert!(!std::mem::replace(&mut written[slot], true), "W writes slot {slot} twice");
            match next {
                Next::Model(model) => self.slots[slot] = model,
                Next::Row(row) => {
                    targets.push(slot);
                    rows.push(row);
                    outs.push(std::mem::take(&mut self.slots[slot]));
                }
            }
        }
        apply_rows(p, &rows, &mut outs, threads);
        for (slot, out) in targets.into_iter().zip(outs) {
            self.slots[slot] = out;
        }
        written
    }

    /// Installs each written slot on every client assigned to it; returns
    /// how many clients received a model.
    fn install(&self, clients: &mut [Client], written: &[bool]) -> usize {
        let mut receivers = 0;
        for (c, slot) in clients.iter_mut().zip(&self.slot_of) {
            if let Some(slot) = slot.filter(|&s| written[s]) {
                c.model.set_params(&self.slots[slot]);
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
    /// client's slot, which the rule may change.
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

impl<O: Objective> Strategy for Averaged<O> {
    fn name(&self) -> String {
        self.objective.name()
    }

    /// Participants train from their slots, the server rule turns what
    /// arrived into `W`, and every client assigned to a slot `W` writes
    /// installs it. With no arrival every model stays.
    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        if self.store.slot_of.len() != clients.len() {
            self.store = self.objective.store(clients);
        }
        self.objective.prepare(clients.len(), clients[0].model.num_params());
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
        // `P` may read the models the install overwrites.
        let p: Vec<&[f32]> = (arrived.iter())
            .map(|r| r.payload.params(clients[r.client].model.param_slice()))
            .collect::<Option<_>>()
            .expect("an upload's tensor 0 is its parameters");
        let plen = p[0].len();
        let written = self.store.write(w, &p, ctx.threads);
        drop(p);
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
                let p = (0..plen).map(|j| ((c * 131 + j * 17) as f32 * 0.071).sin() * 3.7).collect();
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
            assert!(
                clients.iter().all(|c| c.model.params() == p0),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn a_slot_nobody_is_assigned_to_is_written_but_installed_nowhere() {
        let mut clients = small_federation(ModelKind::Sgc, 3);
        let before: Vec<Vec<f32>> = clients.iter().map(|c| c.model.params()).collect();
        let mut store = Store::empty(clients.len());
        store.assign(1, 1);
        let (a, b) = (vec![1.0f32; before[0].len()], vec![3.0f32; before[0].len()]);
        let w = vec![
            (1, Next::Row(Row::average([(0, 1.0), (1, 1.0)]))),
            (4, Next::Model(b.clone())),
        ];
        let written = store.write(w, &[&a, &b], 1);
        assert_eq!(written, [false, true, false, false, true]);
        assert_eq!(store.install(&mut clients, &written), 1);
        assert_eq!(clients[1].model.params(), vec![2.0; a.len()]);
        for i in [0, 2, 3] {
            assert_eq!(clients[i].model.params(), before[i], "client {i}");
        }
    }
}
