//! FedGTA as a [`fedgta_fed::Strategy`] — Algorithms 1 & 2 of the paper.
//!
//! Per round:
//! 1. every participant trains locally from its *personalized* parameters
//!    (Algorithm 1, lines 2–4);
//! 2. the client computes its topology-aware soft labels via
//!    non-parametric LP, its smoothing confidence `H`, and its moment
//!    sketch `M` (lines 5–10) and "uploads" them;
//! 3. the server forms each client's aggregation set by moment similarity
//!    and returns the confidence-weighted personalized average
//!    (Algorithm 2).
//!
//! Non-participants keep their previous personalized parameters — FedGTA
//! is robust to partial participation (paper Fig. 6).

use crate::aggregate::{
    personalized_aggregate_into, AggregateOptions, AggregationReport, ClientUpload,
};
use crate::config::FedGtaConfig;
use crate::confidence::local_smoothing_confidence;
use crate::lp::label_propagation_into;
use crate::moments::mixed_moments_into;
use crate::scratch::UploadScratch;
use fedgta_fed::client::Client;
use fedgta_fed::exec::{mean_loss, train_participants};
use fedgta_fed::strategies::{RoundCtx, RoundStats, Strategy};
use fedgta_nn::TrainHooks;

/// The FedGTA optimization strategy.
pub struct FedGta {
    /// Hyperparameters (paper defaults via `FedGtaConfig::default()`).
    pub config: FedGtaConfig,
    /// Per-client personalized parameters (`W̃ᵢ` between rounds).
    personalized: Vec<Option<Vec<f32>>>,
    /// The last round's aggregation report (Fig. 3 data).
    last_report: Option<AggregationReport>,
}

impl FedGta {
    /// Creates FedGTA with the given configuration.
    ///
    /// # Panics
    ///
    /// On `k_lp == 0`, `moment_order == 0` or `alpha` outside `[0, 1]`
    /// (NaN included). The first two would otherwise panic on a worker
    /// thread in the middle of round 1; the third yields negative
    /// "probabilities" that Eq. 4 scores as maximally confident.
    pub fn new(config: FedGtaConfig) -> Self {
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
        Self {
            config,
            personalized: Vec::new(),
            last_report: None,
        }
    }

    /// Creates FedGTA with paper-default hyperparameters.
    pub fn with_defaults() -> Self {
        Self::new(FedGtaConfig::default())
    }

    /// The most recent aggregation report (populated after each round).
    pub fn last_report(&self) -> Option<&AggregationReport> {
        self.last_report.as_ref()
    }

    /// Computes one client's upload metrics `(H, M)` from its current
    /// model — Algorithm 1, lines 5–10.
    ///
    /// The returned sketch borrows the client's persistent
    /// [`UploadScratch`]: every intermediate (soft labels, LP steps,
    /// moment accumulators, the sketch itself) lives in per-client
    /// buffers that survive between rounds, so **warm calls perform zero
    /// heap allocations** (proven by the bench crate's counting-allocator
    /// harness). Callers that need an owned copy (`round`'s cross-thread
    /// upload payload) call `.to_vec()` on the result.
    pub fn client_metrics<'a>(&self, client: &'a mut Client) -> (f64, &'a [f32]) {
        // Check the scratch out of the client — created on first use,
        // recycled (no downcast failure path in practice) afterwards.
        let mut scratch: Box<UploadScratch> = match client.metric_scratch.take() {
            Some(b) => b.downcast::<UploadScratch>().unwrap_or_default(),
            None => Box::default(),
        };
        let s = &mut *scratch;
        // Disjoint borrows: model (mut) vs data (imm) vs scratch.
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
        let h = local_smoothing_confidence(
            s.steps.last().expect("k_lp >= 1"),
            &client.data.degrees_hat,
        );
        let _mom = fedgta_obs::span!("moments", order = self.config.moment_order);
        mixed_moments_into(
            &s.steps,
            self.config.moment_order,
            self.config.moment_kind,
            &mut s.acc,
            &mut s.sketch,
        );
        if let Some(fm) = &self.config.feature_moments {
            // Round-invariant per client: computed once, replayed from
            // the cache on every later round.
            let feat = s.feat.get_or_compute(
                &client.data.adj_norm,
                &client.data.features,
                self.config.k_lp,
                self.config.moment_order,
                self.config.moment_kind,
                fm,
            );
            s.sketch.extend_from_slice(feat);
        }
        client.metric_scratch = Some(scratch);
        let sketch = client
            .metric_scratch
            .as_deref()
            .and_then(|a| a.downcast_ref::<UploadScratch>())
            .map(|s| s.sketch.as_slice())
            .expect("scratch stored above");
        (h, sketch)
    }
}

impl Strategy for FedGta {
    fn name(&self) -> String {
        if self.config.use_moments && self.config.use_confidence {
            "FedGTA".into()
        } else if !self.config.use_moments {
            "FedGTA(w/o Mom.)".into()
        } else {
            "FedGTA(w/o Conf.)".into()
        }
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        if self.personalized.len() != clients.len() {
            self.personalized = vec![None; clients.len()];
        }
        // Algorithm 1: local update + metric computation, client-parallel.
        // Each participant's personalized snapshot is a declared per-client
        // broadcast — the executor loads it (through the download codec
        // when armed) before the closure runs; `None` entries (first round)
        // train from wherever the client is. Each worker reads only the
        // shared config (through `&self`); all `self` mutation happens
        // after aggregation on the driver, in participant order.
        let this = &*self;
        let ctx = ctx.with_broadcast(fedgta_fed::Broadcast::PerClient(&this.personalized));
        let ctx = &ctx;
        let results = train_participants(clients, participants, ctx, |i, c| {
            let mut hooks = TrainHooks {
                pseudo: ctx.pseudo_for(i),
                ..TrainHooks::none()
            };
            let loss = c.train_local(ctx.epochs, &mut hooks);
            // Snapshot params/n_train before the metrics call: the sketch
            // borrows the client's scratch, so `c` stays borrowed until
            // the upload payload is assembled.
            let params = c.model.params();
            let n_train = c.n_train();
            let (h, m) = this.client_metrics(c);
            (loss, (params, h, m.to_vec(), n_train))
        });
        let loss = mean_loss(&results);
        // Last use of the broadcast-carrying ctx: it borrows
        // `self.personalized`, which the aggregation below mutates.
        let threads = ctx.threads;
        // Under the fault-injecting transport only the accepted quorum's
        // uploads arrive; aggregation is over whoever actually reported
        // (identical to `participants` on the no-fault path).
        let mut arrived: Vec<usize> = Vec::with_capacity(results.len());
        let mut params: Vec<Vec<f32>> = Vec::with_capacity(results.len());
        let mut confidences: Vec<f64> = Vec::with_capacity(results.len());
        let mut sketches: Vec<Vec<f32>> = Vec::with_capacity(results.len());
        let mut n_trains: Vec<usize> = Vec::with_capacity(results.len());
        for r in results {
            let (p, h, m, n) = r.payload;
            arrived.push(r.client);
            params.push(p);
            confidences.push(h);
            sketches.push(m);
            n_trains.push(n);
        }
        // Algorithm 2: personalized aggregation.
        let _agg = fedgta_obs::span!(
            "aggregate",
            strategy = "FedGTA",
            participants = arrived.len()
        );
        let uploads: Vec<ClientUpload<'_>> = (0..arrived.len())
            .map(|p| ClientUpload {
                params: &params[p],
                confidence: confidences[p],
                moments: &sketches[p],
                n_train: n_trains[p],
            })
            .collect();
        let opts = AggregateOptions {
            epsilon: self.config.epsilon,
            epsilon_quantile: self.config.epsilon_quantile,
            similarity: self.config.similarity,
            use_moments: self.config.use_moments,
            use_confidence: self.config.use_confidence,
        };
        // Recycle last round's personalized buffers as the aggregation
        // outputs: on warm rounds the server allocates no parameter-sized
        // memory. `ctx.threads` parallelizes Eq. 6 similarity rows and the
        // per-client Eq. 7 axpy (bit-identical at any thread count).
        let mut aggregated: Vec<Vec<f32>> = arrived
            .iter()
            .map(|&i| self.personalized[i].take().unwrap_or_default())
            .collect();
        let report = personalized_aggregate_into(&uploads, &opts, threads, &mut aggregated);
        for (&i, buf) in arrived.iter().zip(aggregated) {
            clients[i].model.set_params(&buf);
            // Move — not clone — the aggregate into the personalized
            // store: `set_params` already copied it into the model, so
            // the seed's second per-round parameter memcpy is gone.
            self.personalized[i] = Some(buf);
        }
        self.last_report = Some(report);
        // Upload = model weights + moment sketch + confidence scalar.
        let bytes_uploaded = (0..arrived.len())
            .map(|p| params[p].len() * 4 + sketches[p].len() * 4 + 8)
            .sum();
        // Download = each participant's personalized aggregate, and
        // nothing else — the server sends no confidence scalar back, and
        // absent clients receive nothing (they keep their old personal
        // model).
        let bytes_downloaded = (0..arrived.len())
            .map(|p| params[p].len() * 4)
            .sum();
        RoundStats {
            mean_loss: loss,
            bytes_uploaded,
            bytes_downloaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_fed::eval::global_test_accuracy;
    use fedgta_fed::strategies::test_support::small_federation;
    use fedgta_fed::strategies::FedAvg;
    use fedgta_nn::models::ModelKind;

    #[test]
    #[should_panic(expected = "FedGtaConfig::k_lp")]
    fn zero_lp_steps_are_rejected_at_construction() {
        FedGta::new(FedGtaConfig {
            k_lp: 0,
            ..FedGtaConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "FedGtaConfig::moment_order")]
    fn zero_moment_order_is_rejected_at_construction() {
        FedGta::new(FedGtaConfig {
            moment_order: 0,
            ..FedGtaConfig::default()
        });
    }

    #[test]
    fn alpha_outside_the_unit_interval_is_rejected_at_construction() {
        for alpha in [-0.01f32, 1.01, f32::NAN, f32::INFINITY] {
            let err = std::panic::catch_unwind(|| {
                FedGta::new(FedGtaConfig {
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
        FedGta::new(FedGtaConfig {
            alpha: 0.0,
            ..FedGtaConfig::default()
        });
        FedGta::new(FedGtaConfig {
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
        let report = s.last_report().expect("report after round");
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
        let mut s = FedGta::new(FedGtaConfig {
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
        let (h, m) = s.client_metrics(&mut clients[0]);
        assert!(h >= 0.0);
        assert_eq!(m.len(), s.config.k_lp * s.config.moment_order * c);
    }

    #[test]
    fn metrics_are_stable_across_warm_scratch_calls() {
        // Second call reuses the persistent scratch; values must be
        // bit-identical and the sketch buffer must not move.
        let mut clients = small_federation(ModelKind::Sgc, 108);
        let s = FedGta::with_defaults();
        let (h1, m1) = s.client_metrics(&mut clients[0]);
        let first: Vec<f32> = m1.to_vec();
        let ptr1 = m1.as_ptr();
        let (h2, m2) = s.client_metrics(&mut clients[0]);
        assert_eq!(h1.to_bits(), h2.to_bits());
        assert_eq!(m2, &first[..]);
        assert_eq!(m2.as_ptr(), ptr1, "warm sketch buffer must be reused");
        assert!(clients[0].metric_scratch.is_some(), "scratch persisted");
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
            let mut s = FedGta::new(cfg);
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
        let mut s = FedGta::new(FedGtaConfig::adaptive(0.8));
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..10 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.6);
        // Quantile 0.8 keeps only the most-similar pairs: the threshold is
        // selective, so no client may aggregate with the whole federation.
        let report = s.last_report().unwrap();
        let n = clients.len();
        assert!(
            report.entries.iter().all(|e| e.members.len() < n),
            "adaptive threshold connected everyone"
        );
    }

    #[test]
    fn feature_moment_extension_learns_and_extends_sketch() {
        let mut clients = small_federation(ModelKind::Sgc, 111);
        let s = FedGta::new(FedGtaConfig::with_feature_moments());
        let cfg = &s.config;
        let c = clients[0].data.num_classes;
        let label_len = cfg.k_lp * cfg.moment_order * c;
        let fm = cfg.feature_moments.as_ref().unwrap();
        let feat_len = cfg.k_lp * cfg.moment_order * fm.dims.min(clients[0].data.num_features());
        let (_, m) = s.client_metrics(&mut clients[0]);
        assert_eq!(m.len(), label_len + feat_len);

        let mut s = FedGta::new(FedGtaConfig::with_feature_moments());
        let parts: Vec<usize> = (0..clients.len()).collect();
        for _ in 0..10 {
            s.round(&mut clients, &parts, &RoundCtx::plain(2));
        }
        assert!(global_test_accuracy(&mut clients) > 0.6);
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
