//! FedGTA as an [`Objective`] — Algorithms 1 & 2 of the paper — run by
//! the one aggregating round ([`FedGta`]). Per round:
//! 1. every participant trains locally from its *personalized* parameters,
//!    its own slot of the model store (Algorithm 1, lines 2–4);
//! 2. the client computes its topology-aware soft labels via
//!    non-parametric LP, its smoothing confidence `H`, and its moment
//!    sketch `M` (lines 5–10) and "uploads" them;
//! 3. the server forms each arrival's aggregation set by moment similarity
//!    and its confidence weights: its row of `W` (Algorithm 2).
//!
//! Non-participants keep their previous personalized parameters — FedGTA
//! is robust to partial participation (paper Fig. 6).

use crate::aggregate::{personalized_rows, AggregateOptions, AggregationReport};
use crate::config::FedGtaConfig;
use crate::confidence::local_smoothing_confidence;
use crate::extensions::feature_moment_sketch;
use crate::lp::label_propagation_into;
use crate::moments::mixed_moments_into;
use crate::scratch::UploadScratch;
use fedgta_fed::client::Client;
use fedgta_fed::exec::LocalResult;
use fedgta_fed::kit::Pool;
use fedgta_fed::strategies::{
    Arrivals, Averaged, Collaboration, Next, Objective, RoundCtx, Store,
};
use fedgta_fed::ParamTensor;
use fedgta_nn::TrainHooks;
use fedgta_obs::JsonVal;
use std::collections::HashMap;
use std::sync::Mutex;

/// FedGTA: [`TopologyAware`] through the one aggregating round.
/// `FedGta::with_defaults()` has the paper's hyperparameters,
/// `FedGta::from(config)` any others.
pub type FedGta = Averaged<TopologyAware>;

impl From<FedGtaConfig> for FedGta {
    /// # Panics
    ///
    /// On `k_lp == 0`, `moment_order == 0` or `alpha` outside `[0, 1]`
    /// (NaN included). The first two would otherwise panic on a worker
    /// thread in the middle of round 1; the third yields negative
    /// "probabilities" that Eq. 4 scores as maximally confident.
    fn from(config: FedGtaConfig) -> Self {
        assert!(config.k_lp >= 1, "FedGtaConfig::k_lp must be at least 1");
        assert!(
            config.moment_order >= 1,
            "FedGtaConfig::moment_order must be at least 1"
        );
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "FedGtaConfig::alpha must lie in [0, 1], got {}",
            config.alpha
        );
        TopologyAware { config, ..TopologyAware::default() }.into()
    }
}

/// FedGTA's objective: local training plus the Algorithm-1 upload metrics;
/// Eqs. 6–7 as the server rule.
#[derive(Default)]
pub struct TopologyAware {
    /// Hyperparameters (paper defaults via `FedGtaConfig::default()`).
    pub config: FedGtaConfig,
    /// The last round's aggregation report (Fig. 3 data).
    last_report: Option<AggregationReport>,
    /// Checkout pool of Algorithm-1 intermediates: `client_metrics` takes
    /// an instance and gives it back, so at most one exists per
    /// concurrently running worker.
    scratch: Pool<UploadScratch>,
    /// The feature-moment extension's sketch of each client served, by
    /// client id. It reads only the client's graph and raw features, which
    /// never change, so it is computed on the client's first call and
    /// replayed on every later one. Empty unless `config.feature_moments`
    /// is set.
    feature_sketches: Mutex<HashMap<usize, Vec<f32>>>,
}

impl TopologyAware {
    /// The most recent aggregation report (populated after each round).
    pub fn last_report(&self) -> Option<&AggregationReport> {
        self.last_report.as_ref()
    }

    /// `(instances, heap bytes)` the scratch pool holds between calls.
    #[doc(hidden)]
    pub fn pooled_scratch(&self) -> (usize, usize) {
        self.scratch.held(UploadScratch::bytes)
    }

    /// Heap bytes of the feature-moment sketches kept per client.
    fn kept_sketch_bytes(&self) -> usize {
        let sketches = self.feature_sketches.lock().expect("feature sketch cache poisoned");
        sketches.values().map(|f| 4 * f.len()).sum()
    }

    fn options(&self) -> AggregateOptions {
        AggregateOptions {
            epsilon: self.config.epsilon,
            epsilon_quantile: self.config.epsilon_quantile,
            similarity: self.config.similarity,
            use_moments: self.config.use_moments,
            use_confidence: self.config.use_confidence,
        }
    }

    /// Computes one client's upload metrics from its current model —
    /// Algorithm 1, lines 5–10: returns `H` and writes the sketch `M` into
    /// `sketch` (cleared first).
    ///
    /// No intermediate survives the call, so none belongs to the client:
    /// soft labels, LP steps and the moment accumulator live in an
    /// [`UploadScratch`] checked out of the strategy's pool, and every one
    /// of them is rewritten in full before it is read (`predict_into`
    /// writes every row of `soft`, each LP step every row of its matrix,
    /// `acc` is cleared per step) — the instance drawn, and whichever
    /// client it served last, cannot reach a result bit. The one value that
    /// outlives the call, the feature-moment extension's sketch, stays with
    /// the strategy under the client's id. Once the pool and `sketch` have
    /// grown to the largest client, **warm calls perform zero heap
    /// allocations** (proven by the bench crate's counting-allocator
    /// harness).
    pub fn client_metrics(&self, client: &mut Client, sketch: &mut Vec<f32>) -> f64 {
        let mut s = self.scratch.take();
        client.model.predict_into(&client.data, &mut s.soft);
        {
            let _lp = fedgta_obs::span!("lp", k = self.config.k_lp);
            label_propagation_into(
                &client.data.adj_norm,
                &s.soft,
                self.config.k_lp,
                self.config.alpha,
                &mut s.steps,
                &mut s.prop,
            );
        }
        let h = {
            let mut span = fedgta_obs::span!("confidence");
            let h = local_smoothing_confidence(
                s.steps.last().expect("k_lp >= 1"),
                &client.data.degrees_hat,
            );
            span.record("h", JsonVal::from(h));
            h
        };
        let mom = fedgta_obs::span!("moments", order = self.config.moment_order);
        mixed_moments_into(
            &s.steps,
            self.config.moment_order,
            self.config.moment_kind,
            &mut s.acc,
            sketch,
        );
        if let Some(fm) = &self.config.feature_moments {
            assert!(
                client.data.propagated.is_none(),
                "FedGTA's feature moments propagate raw features, but client {}'s already are ({:?}): \
                 pair them with a backbone that reads raw features (SAGE, GAMLP)",
                client.id,
                client.data.propagated
            );
            let cache = || self.feature_sketches.lock().expect("feature sketch cache poisoned");
            let cached = cache().get(&client.id).map(|f| sketch.extend_from_slice(f)).is_some();
            if !cached {
                // Computed outside the lock, so workers serving different
                // clients' first calls do not wait for each other.
                let (data, c) = (&client.data, &self.config);
                let f = feature_moment_sketch(&data.adj_norm, &data.features, c.k_lp, c.moment_order, c.moment_kind, fm);
                sketch.extend_from_slice(&f);
                cache().insert(client.id, f);
            }
        }
        drop(mom);
        self.scratch.give(s);
        h
    }
}

impl Objective for TopologyAware {
    const NAME: &'static str = "FedGTA";
    /// `(W, H, M, n_train)`.
    type Upload = (ParamTensor, f64, Vec<f32>, usize);

    fn name(&self) -> String {
        match (self.config.use_moments, self.config.use_confidence) {
            (true, true) => "FedGTA",
            (false, _) => "FedGTA(w/o Mom.)",
            (true, false) => "FedGTA(w/o Conf.)",
        }
        .into()
    }

    /// Slot `i` is client `i`'s, held from its first upload that arrives.
    fn store(&self, clients: &[Client]) -> Store {
        Store::personal(clients.len())
    }

    /// Algorithm 1: local update + metric computation. `W` is the model as
    /// trained: read in place at aggregation, copied only by a stage that
    /// needs bytes of its own.
    fn train(&self, i: usize, c: &mut Client, ctx: &RoundCtx<'_>) -> (f32, Self::Upload) {
        let mut hooks = TrainHooks {
            pseudo: ctx.pseudo_for(i),
            ..TrainHooks::none()
        };
        let loss = c.train_local(ctx.epochs, &mut hooks);
        let mut m = Vec::new();
        let h = self.client_metrics(c, &mut m);
        (loss, (ParamTensor::Resident, h, m, c.n_train()))
    }

    /// Algorithm 2: one Eq. 6/7 row per arrival, into its own slot; absent
    /// clients keep their model.
    fn server(&mut self, round: Arrivals<'_, Self::Upload>) -> Collaboration {
        if fedgta_obs::metrics_on() {
            // Read with every worker's instance back in the pool, next to
            // the run's `fed.kits.*` reading; the kept sketches count too.
            fedgta_obs::global()
                .gauge("fedgta.metric_scratch.bytes")
                .set_max((self.pooled_scratch().1 + self.kept_sketch_bytes()) as u64);
        }
        let opts = self.options();
        let sketches: Vec<&[f32]> = round.results.iter().map(|r| r.payload.2.as_slice()).collect();
        let sources: Vec<f64> = (round.results.iter())
            .map(|r| if opts.use_confidence { r.payload.1 } else { r.payload.3 as f64 })
            .collect();
        let report = personalized_rows(&sketches, &sources, &opts, round.threads);
        if fedgta_obs::trace_on() {
            // The round's decision, not only its duration (`report`'s
            // "FedGTA decisions" table).
            round.span.record("epsilon", JsonVal::from(report.epsilon as f64));
            round.span.record("members_mean", JsonVal::from(report.members_mean()));
            round.span.record("sim_above_eps", JsonVal::from(report.sim_above_eps()));
            round.span.record("rejected", JsonVal::from(report.rejected));
        }
        let w = (round.results.iter().zip(&report.entries))
            .map(|(r, row)| (r.client, Next::Row(row.clone())))
            .collect();
        self.last_report = Some(report);
        w
    }

    /// Up: weights + sketch + confidence. Down: each arrival's personalized
    /// model and nothing else (no scalar back, nothing to absent clients).
    fn bytes(
        &self,
        plen: usize,
        arrived: &[LocalResult<Self::Upload>],
        receivers: usize,
    ) -> (usize, usize) {
        let up = arrived.iter().map(|r| 4 * plen + 4 * r.payload.2.len() + 8).sum();
        (up, receivers * 4 * plen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_fed::eval::global_test_accuracy;
    use fedgta_fed::kit::Kit;
    use fedgta_fed::strategies::test_support::{federation_with, small_federation};
    use fedgta_fed::strategies::{FedAvg, LocalOnly, Strategy};
    use fedgta_fed::{SimConfig, Simulation};
    use fedgta_nn::models::ModelKind;
    use fedgta_nn::{OptState, Workspace};

    #[test]
    #[should_panic(expected = "FedGtaConfig::k_lp")]
    fn zero_lp_steps_are_rejected_at_construction() {
        let _ = FedGta::from(FedGtaConfig {
            k_lp: 0,
            ..FedGtaConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "FedGtaConfig::moment_order")]
    fn zero_moment_order_is_rejected_at_construction() {
        let _ = FedGta::from(FedGtaConfig {
            moment_order: 0,
            ..FedGtaConfig::default()
        });
    }

    #[test]
    fn alpha_outside_the_unit_interval_is_rejected_at_construction() {
        for alpha in [-0.01f32, 1.01, f32::NAN, f32::INFINITY] {
            let err = std::panic::catch_unwind(|| {
                FedGta::from(FedGtaConfig {
                    alpha,
                    ..FedGtaConfig::default()
                })
            })
            .err()
            .unwrap_or_else(|| panic!("alpha {alpha} accepted"));
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("FedGtaConfig::alpha"), "{msg}");
        }
        // The closed interval's ends are valid restarts.
        let _ = FedGta::from(FedGtaConfig {
            alpha: 0.0,
            ..FedGtaConfig::default()
        });
        let _ = FedGta::from(FedGtaConfig {
            alpha: 1.0,
            ..FedGtaConfig::default()
        });
    }

    #[test]
    fn fedgta_learns() {
        let mut clients = small_federation(ModelKind::Sgc, 100);
        let mut s = FedGta::with_defaults();
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..15 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        let acc = global_test_accuracy(&mut clients);
        assert!(acc > 0.7, "acc {acc}");
    }

    #[test]
    fn report_is_populated_and_consistent() {
        let mut clients = small_federation(ModelKind::Sgc, 101);
        let mut s = FedGta::with_defaults();
        let parts: Vec<usize> = (0..clients.len()).collect();
        s.round(&mut clients, &parts, &RoundCtx::plain(1));
        let report = s.objective.last_report().expect("report after round");
        assert_eq!(report.entries.len(), clients.len());
        for (i, e) in report.entries.iter().enumerate() {
            assert!(e.members.contains(&i), "self missing from I_{i}");
            let w: f32 = e.weights.iter().sum();
            assert!((w - 1.0).abs() < 1e-4, "weights of {i} sum to {w}");
        }
    }

    #[test]
    fn personalization_can_differ_across_clients() {
        let mut clients = small_federation(ModelKind::Sgc, 102);
        let mut s = FedGta::from(FedGtaConfig {
            epsilon: 0.999, // near-exclusive: most clients aggregate alone
            ..FedGtaConfig::default()
        });
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..3 {
            s.round(&mut clients, &parts, &RoundCtx::plain(1));
        }
        let any_different = clients
            .windows(2)
            .any(|w| w[0].model.params() != w[1].model.params());
        assert!(any_different, "all clients identical despite epsilon≈1");
    }

    #[test]
    fn partial_participation_preserves_absent_models() {
        let mut clients = small_federation(ModelKind::Sgc, 103);
        let mut s = FedGta::with_defaults();
        let before = clients[3].model.params();
        s.round(&mut clients, &[0, 1], &RoundCtx::plain(1));
        assert_eq!(clients[3].model.params(), before);
    }

    #[test]
    fn metrics_have_expected_shapes() {
        let mut clients = small_federation(ModelKind::Sgc, 104);
        let s = FedGta::with_defaults();
        let c = clients[0].data.num_classes;
        let mut m = vec![7.0; 3]; // stale contents are cleared, not extended
        let h = s.objective.client_metrics(&mut clients[0], &mut m);
        assert!(h >= 0.0);
        assert_eq!(m.len(), s.objective.config.k_lp * s.objective.config.moment_order * c);
    }

    #[test]
    fn metrics_are_stable_across_warm_scratch_calls() {
        // Second call reuses the pooled scratch; values must be
        // bit-identical and the caller's sketch buffer must not move.
        let mut clients = small_federation(ModelKind::Sgc, 108);
        let s = FedGta::with_defaults();
        let mut m = Vec::new();
        let h1 = s.objective.client_metrics(&mut clients[0], &mut m);
        let (first, ptr1) = (m.clone(), m.as_ptr());
        let h2 = s.objective.client_metrics(&mut clients[0], &mut m);
        assert_eq!(h1.to_bits(), h2.to_bits());
        assert_eq!(m, first);
        assert_eq!(m.as_ptr(), ptr1, "warm sketch buffer must be reused");
        assert_eq!(s.objective.pooled_scratch().0, 1, "scratch went back to the pool");
        assert!(s.objective.feature_sketches.lock().unwrap().is_empty(), "nothing kept per client");
    }

    /// `(H bits, M bits)` of one `client_metrics` call.
    fn metrics_bits(s: &FedGta, client: &mut Client) -> (u64, Vec<u32>) {
        let mut m = Vec::new();
        let h = s.objective.client_metrics(client, &mut m);
        (h.to_bits(), m.iter().map(|v| v.to_bits()).collect())
    }

    /// Three clients of strictly decreasing node count: the largest, one
    /// in between and the smallest of a six-client federation, on GAMLP —
    /// a backbone the feature extension can read raw features under.
    fn three_sizes(seed: u64) -> Vec<Client> {
        let mut clients = federation_with(ModelKind::Gamlp, seed, 6, 700);
        clients.sort_by_key(|c| std::cmp::Reverse(c.data.num_nodes()));
        clients.dedup_by_key(|c| c.data.num_nodes());
        assert!(clients.len() >= 3, "seed {seed} has no three client sizes");
        let smallest = clients.pop().expect("three clients");
        clients.truncate(2);
        clients.push(smallest);
        clients
    }

    #[test]
    fn one_pooled_scratch_serves_clients_of_any_size_bit_for_bit() {
        // Large → small → large through one strategy (one pooled instance,
        // shrunk and regrown) against a fresh strategy — an empty pool, no
        // sketch kept — per call: no stale row leaks through a shrunk
        // `resize_to`, and with the feature extension each client's sketch
        // is computed once and replayed to that client alone.
        for cfg in [FedGtaConfig::default(), FedGtaConfig::with_feature_moments()] {
            let mut clients = three_sizes(108);
            let with_cache = cfg.feature_moments.is_some();
            let shared = FedGta::from(cfg.clone());
            let mut first_buffer = HashMap::new();
            for visit in [0usize, 2, 1, 2, 0] {
                let got = metrics_bits(&shared, &mut clients[visit]);
                let want = metrics_bits(&FedGta::from(cfg.clone()), &mut clients[visit]);
                assert_eq!(got, want, "client {visit}, feature moments {with_cache}");
                // Serial calls: one instance, as large as the largest client.
                let (instances, bytes) = shared.objective.pooled_scratch();
                let (n, c) = (clients[0].data.num_nodes(), clients[0].data.num_classes);
                assert_eq!(instances, 1);
                assert!(bytes >= 4 * (1 + shared.objective.config.k_lp) * n * c, "{bytes} bytes");
                // A replay reads the buffer the client's first call filled.
                let id = clients[visit].id;
                if let Some(f) = shared.objective.feature_sketches.lock().unwrap().get(&id) {
                    assert_eq!(*first_buffer.entry(id).or_insert(f.as_ptr()), f.as_ptr(), "client {visit} recomputed");
                }
            }
            // What the strategy keeps is one sketch per client served, and
            // only if the extension is configured.
            let kept = shared.objective.feature_sketches.lock().unwrap().len();
            assert_eq!(kept, if with_cache { clients.len() } else { 0 });
        }
    }

    #[test]
    fn pool_holds_one_scratch_per_worker_and_threads_do_not_show() {
        let run = |threads: usize| {
            let mut clients = federation_with(ModelKind::Sgc, 112, 8, 900);
            let mut s = FedGta::with_defaults();
            let parts: Vec<usize> = (0..clients.len()).collect();
            let mut losses = Vec::new();
            for _ in 0..2 {
                let ctx = RoundCtx::with_threads(1, threads);
                losses.push(s.round(&mut clients, &parts, &ctx).mean_loss.to_bits());
            }
            // Full participation: every client went through the pool, and
            // nothing was kept for any of them.
            let (instances, bytes) = s.objective.pooled_scratch();
            assert!((1..=threads).contains(&instances), "{instances} at {threads} threads");
            assert!(bytes > 0);
            assert!(s.objective.feature_sketches.lock().unwrap().is_empty());
            let metrics: Vec<_> = clients.iter_mut().map(|c| metrics_bits(&s, c)).collect();
            let params: Vec<Vec<f32>> = clients.iter().map(|c| c.model.params()).collect();
            (losses, metrics, params)
        };
        assert_eq!(run(1), run(4));
    }

    /// `(arena bytes, optimizer-state bytes)` a client holds itself.
    fn own_scratch(c: &mut Client) -> (usize, usize) {
        let (mut ws, mut state) = (Workspace::new(), OptState::default());
        c.model.swap_workspace(&mut ws);
        c.opt.swap_state(&mut state);
        let held = (ws.bytes(), state.bytes());
        c.model.swap_workspace(&mut ws);
        c.opt.swap_state(&mut state);
        held
    }

    #[test]
    fn a_run_holds_one_kit_per_worker_and_its_clients_hold_no_scratch() {
        // Runs `rounds` 1-epoch rounds; returns the bytes its kits hold.
        let run = |strategy: Box<dyn Strategy>, kind: ModelKind, rounds: usize, threads: usize| {
            let clients = federation_with(kind, 113, 8, 900);
            let config = SimConfig { rounds, local_epochs: 1, threads, ..SimConfig::default() };
            let mut sim = Simulation::new(clients, strategy, config);
            sim.run();
            let (instances, bytes) = sim.kits.held(Kit::bytes);
            assert!((1..=threads).contains(&instances), "{instances} kits at {threads} threads");
            assert!(bytes > 0);
            // Arena and moments both went back with the kit: FedGTA's
            // clients trained round 1 on moments of their own (nothing was
            // broadcast yet) and lost them as the turn ended, their
            // uploads having arrived.
            for c in &mut sim.clients {
                assert_eq!(own_scratch(c), (0, 0), "client {} at {threads} threads", c.id);
            }
            bytes
        };
        for kind in [ModelKind::Sign, ModelKind::Gcn] {
            for threads in [1, 4] {
                run(Box::new(FedGta::with_defaults()), kind, 2, threads);
                run(Box::new(FedAvg::new()), kind, 2, threads);
            }
            // Nothing ratchets: ten more rounds through the same kit leave
            // it the size two did (one worker, so one fixed serving order).
            let two = run(Box::new(FedGta::with_defaults()), kind, 2, 1);
            assert_eq!(run(Box::new(FedGta::with_defaults()), kind, 12, 1), two, "{kind:?}");
        }
    }

    #[test]
    fn a_client_nobody_broadcasts_to_trains_on_its_own_persistent_moments() {
        // `LocalOnly` never resets an optimizer, so the executor lends it
        // nothing: three 1-epoch rounds are three epochs trained directly.
        let mut direct = small_federation(ModelKind::Sign, 114);
        for c in &mut direct {
            c.train_local(3, &mut TrainHooks::none());
        }
        let config = SimConfig { rounds: 3, local_epochs: 1, threads: 2, ..SimConfig::default() };
        let clients = small_federation(ModelKind::Sign, 114);
        let mut sim = Simulation::new(clients, Box::new(LocalOnly::new()), config);
        sim.run();
        let bits = |c: &Client| c.model.params().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (c, d) in sim.clients.iter_mut().zip(&direct) {
            assert_eq!(bits(c), bits(d), "client {}", c.id);
            let (arena, moments) = own_scratch(c);
            assert_eq!(arena, 0);
            assert_eq!(moments, 2 * 4 * c.model.num_params(), "Adam's m and v stay with the client");
        }
    }

    #[test]
    fn download_bytes_count_exactly_the_personalized_parameters() {
        // The server returns only each participant's personalized
        // parameter vector — no confidence scalar rides along (that is
        // upload-only), so download = Σ 4·|W| exactly.
        let mut clients = small_federation(ModelKind::Sgc, 109);
        let mut s = FedGta::with_defaults();
        let parts = [0usize, 2];
        let expect: usize = parts
            .iter()
            .map(|&i| clients[i].model.num_params() * 4)
            .sum();
        let stats = s.round(&mut clients, &parts, &RoundCtx::plain(1));
        assert_eq!(stats.bytes_downloaded, expect);
        // Upload still carries sketch + confidence on top of parameters.
        assert!(stats.bytes_uploaded > expect);
    }

    #[test]
    fn ablations_still_learn() {
        for cfg in [FedGtaConfig::without_moments(), FedGtaConfig::without_confidence()] {
            let mut clients = small_federation(ModelKind::Sgc, 105);
            let mut s = FedGta::from(cfg);
            let parts: Vec<usize> = (0..clients.len()).collect();
            for _ in 0..10 {
                s.round(&mut clients, &parts, &RoundCtx::plain(2));
            }
            // w/o-Mom is confidence-weighted FedAvg: under heavy label
            // Non-iid it is expected to trail full FedGTA, so the bar is lower.
            assert!(global_test_accuracy(&mut clients) > 0.45, "{}", s.name());
        }
    }

    #[test]
    fn adaptive_epsilon_extension_learns_and_varies_threshold() {
        let mut clients = small_federation(ModelKind::Sgc, 110);
        let mut s = FedGta::from(FedGtaConfig::adaptive(0.8));
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..10 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.6);
        // Quantile 0.8 keeps only the most-similar pairs: the threshold is
        // selective, so no client may aggregate with the whole federation.
        let report = s.objective.last_report().unwrap();
        let n = clients.len();
        assert!(
            report.entries.iter().all(|e| e.members.len() < n),
            "adaptive threshold connected everyone"
        );
    }

    #[test]
    fn feature_moment_extension_learns_and_extends_sketch() {
        let mut clients = small_federation(ModelKind::Gamlp, 111);
        let s = FedGta::from(FedGtaConfig::with_feature_moments());
        let cfg = &s.objective.config;
        let c = clients[0].data.num_classes;
        let label_len = cfg.k_lp * cfg.moment_order * c;
        let fm = cfg.feature_moments.as_ref().unwrap();
        let feat_len = cfg.k_lp * cfg.moment_order * fm.dims.min(clients[0].data.num_features());
        let mut m = Vec::new();
        s.objective.client_metrics(&mut clients[0], &mut m);
        assert_eq!(m.len(), label_len + feat_len);

        let mut s = FedGta::from(FedGtaConfig::with_feature_moments());
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..10 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.6);
    }

    #[test]
    #[should_panic(expected = "FedGTA's feature moments propagate raw features, but client 0's already are")]
    fn feature_moments_refuse_a_propagated_client() {
        let metrics = |kind| {
            let s = FedGta::from(FedGtaConfig::with_feature_moments());
            s.objective.client_metrics(&mut small_federation(kind, 111)[0], &mut Vec::new())
        };
        // A GCN client holds its first layer's `Â·X`.
        let gcn = std::panic::catch_unwind(|| metrics(ModelKind::Gcn)).expect_err("GCN is refused");
        assert!(gcn.downcast_ref::<String>().is_some_and(|m| m.contains("already are (Some((Sgc, 1)))")));
        metrics(ModelKind::Sgc);
    }

    #[test]
    fn fedgta_beats_or_matches_fedavg_on_noniid_split() {
        // The headline claim, at unit-test scale: Louvain split ⇒ label
        // Non-iid clients ⇒ personalized aggregation should not lose.
        let run = |mut strat: Box<dyn Strategy>, seed: u64| {
            let mut clients = small_federation(ModelKind::Sgc, seed);
            let parts: Vec<usize> = (0..clients.len()).collect();
            let mut best = 0f64;
            for _ in 0..12 {
                strat.round(&mut clients, &parts, &RoundCtx::plain(2));
                best = best.max(global_test_accuracy(&mut clients));
            }
            best
        };
        let mut wins = 0;
        for seed in [200u64, 201, 202] {
            let gta = run(Box::new(FedGta::with_defaults()), seed);
            let avg = run(Box::new(FedAvg::new()), seed);
            if gta >= avg - 0.02 {
                wins += 1;
            }
        }
        assert!(wins >= 2, "FedGTA lost to FedAvg on most seeds");
    }
}
