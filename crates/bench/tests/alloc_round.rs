//! Allocation contract of a warm in-memory FedGTA round: the server reads
//! each arrived upload's parameters off its client's model in place
//! (`fedgta_fed::ParamTensor::Resident`) and writes Eq. 7's personalized
//! model back there, block by block through the store's pooled scratch, so
//! once the round's pools are warm — that scratch, the worker's kit grown,
//! the upload scratch pooled — a round allocates a small fraction of one
//! parameter-vector copy per participant, which is what exporting every
//! upload used to cost on its own, and the store holds no vector at all.
//!
//! Lives in `fedgta-bench` for the counting allocator, as one `#[test]`:
//! the counter is process-wide. The round runs on one worker, so nothing
//! spawns whatever `FEDGTA_THREADS` says.

use fedgta::FedGta;
use fedgta_bench::alloc::{alloc_bytes, CountingAlloc};
use fedgta_data::{generate_from_spec, DatasetSpec, Task};
use fedgta_fed::client::{build_clients, Client, ClientBuildConfig};
use fedgta_fed::kit::{Kit, Pool};
use fedgta_fed::strategies::{RoundCtx, Strategy};
use fedgta_nn::models::{ModelConfig, ModelKind};
use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Eight SIGN clients whose head is wide enough (hidden 256, 13 572
/// parameters) that one parameter copy per participant outweighs
/// everything else a round allocates.
fn federation() -> Vec<Client> {
    let spec = DatasetSpec {
        name: "alloc-round",
        nodes: 800,
        features: 16,
        classes: 4,
        avg_degree: 8.0,
        train_frac: 0.3,
        val_frac: 0.2,
        test_frac: 0.5,
        task: Task::Transductive,
        blocks_per_class: 3,
        homophily: 0.85,
        description: "allocation-contract graph",
    };
    let bench = generate_from_spec(&spec, 11);
    let comm = louvain(&bench.graph, &LouvainConfig::default());
    let parts = communities_to_clients(&comm, 8).unwrap();
    let model = ModelConfig {
        kind: ModelKind::Sign,
        hidden: 256,
        layers: 2,
        k: 2,
        batch_size: 0,
        seed: 11,
        ..ModelConfig::default()
    };
    let cfg = ClientBuildConfig { model, lr: 0.03, weight_decay: 0.0, halo: false };
    build_clients(&bench, &parts, &cfg)
}

/// A warm round stays under `1/BOUND_DIVISOR` of one parameter copy per
/// participant: 8 431 of 271 440 bytes here, where exporting each upload
/// allocated 279 214.
const BOUND_DIVISOR: usize = 20;

#[test]
fn a_warm_in_memory_fedgta_round_copies_no_upload() {
    let mut clients = federation();
    let participants: Vec<usize> = (0..clients.len()).collect();
    let mut fedgta = FedGta::with_defaults();
    let kits: Pool<Kit> = Pool::default();
    let ctx = RoundCtx { kits: Some(&kits), ..RoundCtx::with_threads(1, 1) };
    // Round 1 allocates the store's scratch; round 2 the kit's moments.
    for _ in 0..2 {
        fedgta.round(&mut clients, &participants, &ctx);
    }
    let copies: usize = participants.iter().map(|&i| 4 * clients[i].model.num_params()).sum();
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let before = alloc_bytes();
        fedgta.round(&mut clients, &participants, &ctx);
        rounds.push(alloc_bytes() - before);
    }
    eprintln!(
        "warm FedGTA rounds allocated {rounds:?} bytes; one upload copy per participant: {copies}"
    );
    assert_eq!(fedgta.store_bytes(), 0, "the store keeps a personalized model of its own");
    for bytes in rounds {
        assert!(
            (bytes as usize) < copies / BOUND_DIVISOR,
            "a warm round allocated {bytes} bytes, not under 1/{BOUND_DIVISOR} of the {copies} bytes \
             one parameter copy per participant costs: is an upload copied again?"
        );
    }
}
