//! The FedAvg family's one round. FedAvg, FedProx, FedDC, MOON and
//! Scaffold differ only in what they add to local training and how the
//! server combines the uploads: each is an [`Objective`], and [`Averaged`]
//! runs the round around it. GCFL+ runs each cluster through its `step`.

use super::{weighted_average, Broadcast, RoundCtx, RoundStats, Strategy};
use crate::client::Client;
use crate::exec::{train_participants, LocalResult};
use crate::transport::WirePayload;
use fedgta_nn::TrainHooks;

/// An upload the server weighs: the trained parameters and `n_train`.
pub type Weighted = (Vec<f32>, f64);

/// What a server rule makes of a round's arrivals.
pub enum Server {
    /// `(params, weight)` pairs the round's `weighted_average` combines.
    Average(Vec<Weighted>),
    /// The next global model, computed by the rule itself.
    Model(Vec<f32>),
}

/// What makes a FedAvg-family baseline itself: a local objective and a
/// server rule.
pub trait Objective: Send + Sync {
    /// Name in the paper's tables.
    const NAME: &'static str;
    /// What a participant uploads; tensor 0 is its parameters.
    type Upload: Send + WirePayload;

    /// Sizes the per-client state for `clients` clients and `plen`
    /// parameters; called at the top of every round.
    fn prepare(&mut self, _clients: usize, _plen: usize) {}

    /// Worker side: client `i`'s local step, from the model the executor
    /// installed — read anchors off `c.model`, not the server's copy. Runs
    /// on any thread; it may read `self` but not change it.
    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload);

    /// Driver side: what the server makes of `arrived` (participant order)
    /// given `global`, the model it broadcast.
    fn server(&mut self, global: &[f32], arrived: Vec<LocalResult<Self::Upload>>) -> Server;

    /// Analytic `(up, down)` bytes when `arrived` uploads came in and
    /// `receivers` clients get the `plen`-parameter model back.
    fn bytes(plen: usize, arrived: usize, receivers: usize) -> (usize, usize) {
        let msg = 4 * plen + 8;
        (arrived * msg, receivers * msg)
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

/// One group's turn: `members` train from `model` (the declared
/// broadcast), the server rule folds what arrived into the group's next
/// model, which replaces `model` and is installed on every client of
/// `receivers`. Adds the arrivals' bytes to `stats` and their losses, in
/// participant order, to `stats.mean_loss` — a sum the caller divides by
/// the returned arrival count. When nothing arrives the group keeps `model`.
pub(crate) fn step<O: Objective>(
    objective: &mut O,
    clients: &mut [Client],
    members: &[usize],
    receivers: &[usize],
    model: &mut Vec<f32>,
    ctx: &RoundCtx<'_>,
    stats: &mut RoundStats,
) -> usize {
    let ctx = ctx.with_broadcast(Broadcast::Global(model));
    let trainer = &*objective;
    let results = train_participants(clients, members, &ctx, |i, c| trainer.train(i, c, &ctx));
    let _agg = fedgta_obs::span!("aggregate", strategy = O::NAME);
    let arrived = results.len();
    if arrived == 0 {
        return 0;
    }
    for r in &results {
        stats.mean_loss += r.loss;
    }
    let next = match objective.server(model, results) {
        Server::Average(uploads) => weighted_average(&uploads),
        Server::Model(next) => next,
    };
    for &i in receivers {
        clients[i].model.set_params(&next);
    }
    let (up, down) = O::bytes(next.len(), arrived, receivers.len());
    stats.bytes_uploaded += up;
    stats.bytes_downloaded += down;
    *model = next;
    arrived
}

/// A FedAvg-family baseline: the global model, and the [`Objective`] that
/// trains and aggregates it. Every client, participant or not, receives the
/// new global model at the end of a round.
#[derive(Default)]
pub struct Averaged<O> {
    /// The objective: its hyperparameters and per-client state.
    pub objective: O,
    global: Option<Vec<f32>>,
}

impl<O> From<O> for Averaged<O> {
    fn from(objective: O) -> Self {
        Self {
            objective,
            global: None,
        }
    }
}

impl<O: Objective> Strategy for Averaged<O> {
    fn name(&self) -> String {
        O::NAME.into()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let global = self.global.get_or_insert_with(|| clients[0].model.params());
        self.objective.prepare(clients.len(), global.len());
        let everyone: Vec<usize> = (0..clients.len()).collect();
        let mut stats = RoundStats::default();
        let arrived = step(
            &mut self.objective,
            clients,
            participants,
            &everyone,
            global,
            ctx,
            &mut stats,
        );
        stats.mean_loss /= arrived.max(1) as f32;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::small_federation;
    use super::super::{FedAvg, FedDc, FedProx, Moon};
    use super::*;
    use fedgta_nn::models::ModelKind;

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
}
