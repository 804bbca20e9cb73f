//! Allocation-budget test for FedGTA's Algorithm-1 upload path: once the
//! strategy's pooled [`fedgta::UploadScratch`] has grown to its largest
//! client, every `FedGta::client_metrics` call — softmax prediction, k-step
//! label propagation, smoothing confidence, mixed moments — performs
//! **zero** heap allocations, on one client or alternating between two:
//! the contract is per strategy, not per client. That holds for the five
//! backbones whose forward is a head over cached features (SGC, SIGN,
//! S²GC, GBP and GAMLP, the CLI's default); the two full-batch ones (GCN,
//! SAGE) allocate only their forward cache's pointer `Vec`s — the same
//! bytes on a small client and a large one.
//!
//! Lives in `fedgta-bench` (not `fedgta`) because the counting allocator
//! building blocks are here and `fedgta` cannot depend back on `bench`.
//! Kept to a single `#[test]` fn: the counter behind `#[global_allocator]`
//! is process-wide, so a concurrent test's allocations would be charged
//! here. Nothing on this path spawns, whatever `FEDGTA_THREADS` says (CI
//! runs this file under `FEDGTA_THREADS=4`).

use fedgta::{FedGta, FedGtaConfig};
use fedgta_bench::alloc::{alloc_bytes, alloc_count, CountingAlloc};
use fedgta_fed::strategies::test_support::small_federation;
use fedgta_nn::models::ModelKind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_client_metrics_performs_zero_heap_allocations() {
    for kind in [ModelKind::Sgc, ModelKind::Sign, ModelKind::S2gc, ModelKind::Gbp, ModelKind::Gamlp]
    {
        head_backbone_is_allocation_free(kind);
    }
    for kind in [ModelKind::Gcn, ModelKind::Sage] {
        full_batch_backbone_allocates_nothing_n_sized(kind);
    }
}

/// GCN / SAGE: a warm call allocates the same few bytes whatever the
/// client's size — nothing with a row per node.
fn full_batch_backbone_allocates_nothing_n_sized(kind: ModelKind) {
    let mut clients = small_federation(kind, 7);
    clients.sort_by_key(|c| c.data.num_nodes());
    let (small, large) = (0, clients.len() - 1);
    assert!(clients[small].data.num_nodes() < clients[large].data.num_nodes());
    let strat = FedGta::from(FedGtaConfig::default());
    let mut m = Vec::new();
    // Largest client first, so the pooled scratch never grows afterwards.
    for _ in 0..2 {
        for c in [large, small] {
            strat.objective.client_metrics(&mut clients[c], &mut m);
        }
    }
    let mut seen = Vec::new();
    for c in [small, large, small] {
        let (count, bytes) = (alloc_count(), alloc_bytes());
        strat.objective.client_metrics(&mut clients[c], &mut m);
        let (count, bytes) = (alloc_count() - count, alloc_bytes() - bytes);
        eprintln!(
            "{}: warm client_metrics at n = {}: {count} allocations, {bytes} bytes",
            kind.name(),
            clients[c].data.num_nodes()
        );
        seen.push((count, bytes));
    }
    assert!(
        seen.iter().all(|s| *s == seen[0]),
        "{}: allocations grow with n: {seen:?}",
        kind.name()
    );
}

fn head_backbone_is_allocation_free(kind: ModelKind) {
    let mut clients = small_federation(kind, 7);
    assert_ne!(clients[2].data.num_nodes(), clients[3].data.num_nodes());

    // One client, then two of different sizes alternating through the
    // same pooled scratch.
    for visited in [vec![0], vec![2, 3]] {
        let strat = FedGta::from(FedGtaConfig::default());
        let mut m = Vec::new();
        // Cold calls: grow the pooled scratch (soft-label matrix, LP steps,
        // accumulator) and the caller's sketch to the largest client, and
        // each client's workspace. The second pass settles any capacity
        // growth.
        let mut cold = Vec::new();
        for pass in 0..2 {
            for &c in &visited {
                let h = strat.objective.client_metrics(&mut clients[c], &mut m);
                if pass == 0 {
                    cold.push((h, m.clone()));
                }
            }
        }

        for call in 0..3 {
            for (&c, (h0, m0)) in visited.iter().zip(&cold) {
                let before = alloc_count();
                let h = strat.objective.client_metrics(&mut clients[c], &mut m);
                let allocs = alloc_count() - before;
                // Warm calls are deterministic replays of the cold call…
                assert_eq!(h.to_bits(), h0.to_bits(), "{kind:?} client {c}: H drifted");
                assert_eq!(m.len(), m0.len(), "{kind:?} client {c}: sketch length drifted");
                assert!(
                    m.iter().zip(m0).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind:?} client {c}: sketch drifted bitwise"
                );
                // …and allocation-free.
                assert_eq!(
                    allocs, 0,
                    "{kind:?} client {c} warm call {call}: {allocs} heap allocations \
                     (budget 0); a scratch buffer is being reallocated"
                );
            }
        }
        assert_eq!(strat.objective.pooled_scratch().0, 1, "serial calls share one scratch");
    }
}
