//! Allocation-budget test: one MLP training epoch through a warm
//! [`Workspace`] performs O(1) heap allocations — a small constant that
//! does not grow with batch size, layer width, or epoch count — the
//! `_into` kernels themselves perform exactly zero, and a warm epoch of
//! every one of the seven backbones stays inside one small budget whose
//! count does not depend on the client's size — and leaves the arena's
//! buffer count and bytes where it found them: every `give` has a `take`.
//!
//! Lives in `fedgta-bench` (not `fedgta-nn`) because the counting
//! allocator building blocks are here and `nn` cannot depend back on
//! `bench`. Kept to a single `#[test]` fn: the counter behind
//! `#[global_allocator]` is process-wide, so a concurrent test's
//! allocations would be charged here. The kernels never spawn and the
//! evaluation is asked for one thread, so the budget holds whatever
//! `FEDGTA_THREADS` says (CI runs this file under `FEDGTA_THREADS=4`).

use fedgta_bench::alloc::{alloc_bytes, alloc_count, CountingAlloc};
use fedgta_fed::strategies::test_support::federation_with;
use fedgta_fed::strategies::FedAvg;
use fedgta_fed::{RoundCtx, SimConfig, Simulation};
use fedgta_nn::loss::softmax_ce_into;
use fedgta_nn::models::ModelKind;
use fedgta_nn::ops::{matmul_bias_relu_into, matmul_into, matmul_nt_into, matmul_tn_into};
use fedgta_nn::optim::Optimizer;
use fedgta_nn::{Adam, Matrix, Mlp, TrainHooks, Workspace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn gen(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 7919) % 97) as f32 / 48.5)
                    - 1.0
            })
            .collect(),
    )
}

/// One full supervised epoch: forward (train mode, dropout), hard-label
/// CE into a pooled gradient matrix, backward (with or without the batch-input gradient — the two call
/// shapes of `Mlp`), Adam step, then return every buffer to the pool.
fn epoch(
    mlp: &mut Mlp,
    x: &Matrix,
    labels: &[u32],
    rows: &[u32],
    opt: &mut Adam,
    ws: &mut Workspace,
    input_grad: bool,
) -> f32 {
    // The batch is gathered into a pooled matrix, as the models do; the
    // forward pass takes it by value and `recycle` returns it.
    let mut xb = ws.take_matrix(x.rows(), x.cols());
    xb.copy_from(x);
    let (logits, cache) = mlp.forward_ws(xb, true, ws);
    let mut d_logits = ws.take_matrix(logits.rows(), logits.cols());
    let loss = softmax_ce_into(&logits, labels, rows, &mut d_logits);
    let grads = if input_grad {
        let (grads, dx) = mlp.backward_input_ws(&cache, &d_logits, None, ws);
        ws.give_matrix(dx);
        grads
    } else {
        mlp.backward_ws(&cache, &d_logits, None, ws)
    };
    opt.step(mlp.params_mut(), &grads);
    ws.give(grads);
    ws.give_matrix(d_logits);
    ws.give_matrix(logits);
    cache.recycle(ws);
    loss
}

#[test]
fn mlp_epoch_is_o1_allocations_and_kernels_are_zero() {
    let n = 128;
    let x = gen(n, 32, 1);
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
    let train_rows: Vec<u32> = (0..n as u32).filter(|i| i % 3 == 0).collect();

    // Both backward call shapes — parameter gradients only (SGC/SIGN) and
    // with the batch-input gradient (GAMLP) — each from a cold pool.
    for input_grad in [false, true] {
        let mut mlp = Mlp::new(&[32, 64, 7], 0.5, 42);
        let mut opt = Adam::new(1e-2, 5e-4);
        let mut ws = Workspace::new();

        // Two warmup epochs: the first populates the workspace pool and
        // Adam's moment buffers; the second settles best-fit reuse.
        let l0 = epoch(&mut mlp, &x, &labels, &train_rows, &mut opt, &mut ws, input_grad);
        assert!(l0.is_finite());
        epoch(&mut mlp, &x, &labels, &train_rows, &mut opt, &mut ws, input_grad);

        // Steady state: each epoch pays only the two small pointer `Vec`s
        // holding the forward cache — 2 allocations, a constant
        // independent of batch size, width, and epoch count. Every f32
        // buffer (batch, activations, dropout masks, the loss gradient the
        // softmax is written straight into, grads, dx) must come from the
        // pool — and go back to it: the pool ends every epoch as it began.
        const EPOCH_ALLOCS: u64 = 2;
        let pooled = (ws.pooled(), ws.bytes());
        let mut per_epoch = Vec::new();
        for _ in 0..3 {
            let before = alloc_count();
            let loss = epoch(&mut mlp, &x, &labels, &train_rows, &mut opt, &mut ws, input_grad);
            per_epoch.push(alloc_count() - before);
            assert!(loss.is_finite());
            assert_eq!((ws.pooled(), ws.bytes()), pooled, "the pool grew over a warm epoch");
        }
        eprintln!("per-epoch heap allocations (input_grad={input_grad}): {per_epoch:?}");
        for (e, &count) in per_epoch.iter().enumerate() {
            assert_eq!(
                count, EPOCH_ALLOCS,
                "epoch {e}: {count} heap allocations (pinned at {EPOCH_ALLOCS}); \
                 the workspace pool is leaking buffers"
            );
        }
    }

    // The `_into` kernels themselves: exactly zero allocations once the
    // output buffers exist.
    let a = gen(33, 17, 2);
    let b = gen(17, 9, 3);
    let bt = gen(17, 9, 4);
    let dy = gen(33, 9, 5);
    let bias: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
    let mut out_mn = vec![0f32; 33 * 9];
    let mut out_kn = vec![0f32; 17 * 9];
    let mut out_mk = vec![0f32; 33 * 17];
    let before = alloc_count();
    matmul_into(a.view(), b.view(), &mut out_mn);
    matmul_bias_relu_into(a.view(), b.view(), &bias, &mut out_mn);
    matmul_tn_into(a.view(), dy.view(), &mut out_kn);
    matmul_nt_into(dy.view(), bt.view(), &mut out_mk);
    let delta = alloc_count() - before;
    assert_eq!(delta, 0, "_into kernels allocated {delta} times");

    // Every backbone, through the trainer they share, on clients from
    // `build_clients` (a decoupled one's features already propagated by
    // `prepare`): a warm epoch makes
    // at most `BACKBONE_EPOCH_ALLOCS` heap allocations — the heads' count:
    // shuffled order, batch list, gathered labels, row ids, the forward
    // cache's two pointer `Vec`s — and the same number on a client four
    // times the size: no activation, gradient, gathered hop or parameter
    // copy is allocated per epoch. Nor does the arena ratchet: what it
    // pools after warm epoch 2 is what it pools after warm epoch 12.
    const BACKBONE_EPOCH_ALLOCS: u64 = 6;
    let arena = |c: &mut fedgta_fed::Client| {
        let mut ws = Workspace::new();
        c.model.swap_workspace(&mut ws);
        let held = (ws.pooled(), ws.bytes());
        c.model.swap_workspace(&mut ws);
        held
    };
    for kind in ModelKind::all() {
        let mut seen = Vec::new();
        for nodes in [600, 2400] {
            let mut clients = federation_with(kind, 7, 4, nodes);
            let c = &mut clients[0];
            // Warm-up: the pool and Adam's moments fill, best-fit settles.
            c.train_local(2, &mut TrainHooks::none());
            let after_two = arena(c);
            assert!(after_two.1 > 0, "{}: training went through no arena", kind.name());
            c.train_local(10, &mut TrainHooks::none());
            assert_eq!(arena(c), after_two, "{}: (buffers, bytes) pooled", kind.name());
            let (count, bytes) = (alloc_count(), alloc_bytes());
            let loss = c.train_local(1, &mut TrainHooks::none());
            let (count, bytes) = (alloc_count() - count, alloc_bytes() - bytes);
            assert!(loss.is_finite());
            let n = c.data.num_nodes();
            eprintln!("{}: warm epoch at n = {n}: {count} allocations, {bytes} bytes", kind.name());
            assert!(
                count <= BACKBONE_EPOCH_ALLOCS,
                "{}: {count} allocations per warm epoch (budget {BACKBONE_EPOCH_ALLOCS})",
                kind.name()
            );
            seen.push((n, count));
        }
        assert!(seen[1].0 > 3 * seen[0].0, "the second client is not larger: {seen:?}");
        assert_eq!(seen[0].1, seen[1].1, "{}: the count grows with n: {seen:?}", kind.name());
    }

    // Evaluation on a decoupled federation (SIGN: the widest gathered
    // rows) whose clients have trained one round: scoring allocates the
    // result vector plus, per client, the probability rows of its test
    // nodes — nothing the size of a feature, hidden or full logit matrix,
    // all of which hold more floats than that. This holds from the first
    // evaluation on: the gathered rows and the logits go through the
    // buffers training left in the worker's kit, in pieces that fit them,
    // although every client here has more test than training nodes.
    let clients = federation_with(ModelKind::Sign, 7, 4, 600);
    for c in &clients {
        assert!(c.data.test_nodes.len() > c.data.train_nodes.len());
    }
    let result_rows: usize =
        clients.iter().map(|c| c.data.test_nodes.len() * c.data.num_classes).sum();
    let n_clients = clients.len();
    // Trained and scored the way a run does — through the run's kits, on
    // the one thread it asks for — but with no evaluation before the first
    // one measured.
    let config = SimConfig { threads: 1, ..SimConfig::default() };
    let mut sim = Simulation::new(clients, Box::new(FedAvg::new()), config);
    let mut ctx = RoundCtx::with_threads(1, 1);
    ctx.kits = Some(&sim.kits);
    sim.strategy.round(&mut sim.clients, &[0, 1, 2, 3], &ctx);
    let mut accs = Vec::new();
    for call in 0..2 {
        let (count, bytes) = (alloc_count(), alloc_bytes());
        accs.push(sim.test_accuracy().to_bits());
        let (count, bytes) = (alloc_count() - count, alloc_bytes() - bytes);
        eprintln!(
            "evaluation {call}: {count} allocations, {bytes} bytes ({result_rows} result floats)"
        );
        // (+1: the first call makes one more 32-byte allocation.)
        assert!(count <= n_clients as u64 + 2, "{count} allocations");
        assert!(
            bytes <= (result_rows * 4 + 64 * n_clients) as u64,
            "{bytes} bytes allocated for {result_rows} result floats"
        );
    }
    assert_eq!(accs[0], accs[1]);
}
