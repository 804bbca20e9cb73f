//! Cross-crate model-behaviour tests: checkpoint round-trips through the
//! federation, personalization survives evaluation views, flat-vector
//! interchange between backbones of the same architecture, and what a
//! decoupled client holds after it is built.

use fedgta_fed::strategies::test_support::small_federation;
use fedgta_graph::par::par_map_indexed;
use fedgta_nn::io::{load_params, save_params};
use fedgta_nn::metrics::accuracy;
use fedgta_nn::models::precompute::{combine, hop_features};
use fedgta_nn::models::{build_model, ModelConfig, ModelKind, PrecomputeKind};
use fedgta_nn::ops::softmax_rows_inplace;
use fedgta_nn::{Adam, Matrix, Mlp, TrainHooks, Workspace};

#[test]
fn checkpoint_transfers_a_trained_model_between_processes() {
    // Train in one "process" (client), checkpoint, restore into a fresh
    // model in another, and verify identical predictions.
    let mut clients = small_federation(ModelKind::Sign, 400);
    let c = &mut clients[0];
    let mut opt = Adam::new(0.03, 0.0);
    for _ in 0..10 {
        c.model.train_epoch(&c.data, &mut opt, &mut TrainHooks::none());
    }
    let trained_probs = c.model.predict(&c.data);

    let mut buf = Vec::new();
    save_params(&mut buf, &c.model.params()).unwrap();

    let mut fresh = build_model(
        &ModelConfig {
            kind: ModelKind::Sign,
            hidden: 16,
            layers: 2,
            k: 2,
            batch_size: 0,
            seed: 400, // same architecture; init irrelevant after restore
            ..ModelConfig::default()
        },
        c.data.num_features(),
        c.data.num_classes,
    );
    let restored = load_params(&mut buf.as_slice(), fresh.num_params()).unwrap();
    fresh.set_params(&restored);
    let fresh_probs = fresh.predict(&c.data);
    for (a, b) in trained_probs.as_slice().iter().zip(fresh_probs.as_slice()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn models_of_same_config_are_parameter_compatible() {
    // Federated aggregation relies on every client's flat vector aligning.
    let clients = small_federation(ModelKind::Gamlp, 401);
    let lens: Vec<usize> = clients.iter().map(|c| c.model.num_params()).collect();
    assert!(lens.windows(2).all(|w| w[0] == w[1]), "lens {lens:?}");
    // Swapping params across clients must be legal.
    let p0 = clients[0].model.params();
    let mut c1_model = clients[1].model.clone();
    c1_model.set_params(&p0);
    assert_eq!(c1_model.params(), p0);
}

#[test]
fn training_improves_over_initialization_for_every_backbone() {
    for kind in [
        ModelKind::Gcn,
        ModelKind::Sage,
        ModelKind::Sgc,
        ModelKind::Sign,
        ModelKind::S2gc,
        ModelKind::Gbp,
        ModelKind::Gamlp,
    ] {
        let mut clients = small_federation(kind, 402);
        let c = &mut clients[0];
        let before = accuracy(&c.model.predict(&c.data), &c.data.labels, &c.data.test_nodes);
        let mut opt = Adam::new(0.03, 0.0);
        for _ in 0..15 {
            c.model.train_epoch(&c.data, &mut opt, &mut TrainHooks::none());
        }
        let after = accuracy(&c.model.predict(&c.data), &c.data.labels, &c.data.test_nodes);
        assert!(after > before + 0.1, "{}: {before:.3} -> {after:.3}", kind.name());
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_decoupled_client_holds_its_propagation_and_predicts_as_before() {
    // The same clients' raw datasets: GAMLP's `prepare` is the identity.
    let raw = small_federation(ModelKind::Gamlp, 403);
    let kinds = [
        (ModelKind::Sgc, PrecomputeKind::Sgc),
        (ModelKind::Sign, PrecomputeKind::Sign),
        (ModelKind::S2gc, PrecomputeKind::S2gc),
        (ModelKind::Gbp, PrecomputeKind::Gbp { beta: 0.5 }),
    ];
    for (kind, pre) in kinds {
        let mut clients = small_federation(kind, 403);
        for c in &mut clients {
            c.train_local(1, &mut TrainHooks::none());
        }
        for threads in [1, 4] {
            let got = par_map_indexed(&mut clients, Some(threads), |_, c| c.model.predict(&c.data));
            for ((c, r), probs) in clients.iter().zip(&raw).zip(&got) {
                let (n, f) = r.data.features.shape();
                assert_eq!(c.data.features.shape(), (n, pre.out_dim(f, 2)), "{kind:?}");
                assert_eq!(c.data.propagated, Some((pre, 2)), "{kind:?}");
                // The input a model used to compute and cache on first
                // use, through the same head.
                let combined = combine(pre, &hop_features(&r.data.adj_norm, &r.data.features, 2));
                let mut head = Mlp::new(&[combined.cols(), 16, 4], 0.0, 0);
                head.set_params(&c.model.params());
                let mut want = head.infer_ws(combined.view(), &mut Workspace::new());
                softmax_rows_inplace(&mut want);
                assert_eq!(
                    bits(probs),
                    bits(&want),
                    "{kind:?} client {} at {threads} threads",
                    c.id
                );
            }
        }
        // Nothing is cached beside the dataset: a forward reads what the
        // client holds now.
        let c = &mut clients[0];
        let before = c.model.predict(&c.data);
        c.data.features.scale(0.0);
        assert_ne!(bits(&c.model.predict(&c.data)), bits(&before), "{kind:?}");
    }
}
