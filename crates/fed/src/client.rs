//! Federated clients and their construction from a partitioned benchmark.

use fedgta_data::{Benchmark, Task};
use fedgta_graph::{halo_subgraph, induced_subgraphs, Subgraph};
use fedgta_nn::models::{build_model, ModelConfig};
use fedgta_nn::{Adam, GraphDataset, GraphModel, Optimizer, TrainHooks};
use fedgta_partition::Partition;

/// One federated participant.
pub struct Client {
    /// Client index (position in the simulation's client vector).
    pub id: usize,
    /// The training view of the local subgraph, prepared for `model`
    /// ([`GraphModel::prepare`]: a decoupled model's clients hold their
    /// propagated features, a GCN's its first layer's `Â·X`, not their raw
    /// ones).
    pub data: GraphDataset,
    /// Inductive evaluation view (full local subgraph including test
    /// nodes), prepared like `data`; `None` means transductive — evaluate
    /// on `data`.
    pub eval_data: Option<GraphDataset>,
    /// The local model: its parameters (GAMLP also caches its hops of
    /// `data`) — in memory also the client's personal slot of the server's
    /// model store, which keeps no copy ([`crate::strategies::Store`]). Its
    /// scratch arena stays empty while a run drives the client — the
    /// worker lends one for each turn ([`crate::kit`]).
    pub model: Box<dyn GraphModel>,
    /// The local optimizer. Its moment vectors persist across rounds for
    /// as long as nothing will reset them; a turn that starts from a
    /// broadcast — the executor resets the optimizer at every one — trains
    /// on a worker's vectors, and a turn after which the client will start
    /// from one frees its own, so the client keeps none from then on.
    pub opt: Box<dyn Optimizer>,
    /// Local-to-global node id map of the training view.
    pub global_ids: Vec<u32>,
    /// Error-feedback accumulators for the lossy upload codec
    /// ([`crate::ef`]), persisted across rounds. `None` until the first
    /// round with error feedback armed.
    pub ef: Option<crate::ef::EfState>,
}

impl Client {
    /// A transductive client over `data`, prepared for `model` here, whose
    /// local node ids are the global ones, with no strategy state yet. A
    /// caller with an evaluation view or an id map of its own sets those
    /// fields (and prepares the view).
    pub fn new(
        id: usize,
        data: GraphDataset,
        model: Box<dyn GraphModel>,
        opt: Box<dyn Optimizer>,
    ) -> Self {
        let data = model.prepare(data);
        Self {
            id,
            global_ids: (0..data.num_nodes() as u32).collect(),
            data,
            eval_data: None,
            model,
            opt,
            ef: None,
        }
    }

    /// Number of local training nodes (FedAvg's `n_i`).
    pub fn n_train(&self) -> usize {
        self.data.train_nodes.len()
    }

    /// Heap bytes of what the client holds between rounds: its datasets,
    /// its model's parameter vector, its optimizer's moments and its
    /// error-feedback state.
    pub fn bytes(&self) -> usize {
        let data = self.data.bytes() + self.eval_data.as_ref().map_or(0, GraphDataset::bytes);
        let state = self.opt.state_bytes() + self.ef.as_ref().map_or(0, crate::ef::EfState::bytes);
        data + 4 * self.model.num_params() + state
    }

    /// Runs `epochs` local epochs with the given hooks; returns mean loss.
    pub fn train_local(&mut self, epochs: usize, hooks: &mut TrainHooks<'_>) -> f32 {
        let mut total = 0f32;
        for _ in 0..epochs {
            total += self.model.train_epoch(&self.data, self.opt.as_mut(), hooks);
        }
        if epochs == 0 {
            0.0
        } else {
            total / epochs as f32
        }
    }
}

/// How clients are carved out of the global benchmark.
#[derive(Debug, Clone)]
pub struct ClientBuildConfig {
    /// Local model hyperparameters (seed is offset per client).
    pub model: ModelConfig,
    /// Adam learning rate for local optimizers.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Materialize 1-hop halo (ghost) nodes so client subgraphs overlap —
    /// required by FedGL/FedSage+.
    pub halo: bool,
}

impl ClientBuildConfig {
    /// The optimizer half of [`ModelConfig::paper`]: Adam at `lr = 0.02`
    /// with weight decay `5e-4`, what the CLI and every table train with.
    pub fn paper(model: ModelConfig, halo: bool) -> Self {
        Self { model, lr: 0.02, weight_decay: 5e-4, halo }
    }
}

impl Default for ClientBuildConfig {
    fn default() -> Self {
        Self { model: ModelConfig::default(), lr: 0.01, weight_decay: 5e-4, halo: false }
    }
}

/// Split membership of every global node, built once per federation:
/// bit 0 train, bit 1 validation, bit 2 test.
fn split_flags(bench: &Benchmark) -> Vec<u8> {
    let mut flags = vec![0u8; bench.graph.num_nodes()];
    for (bit, nodes) in
        [&bench.split.train, &bench.split.val, &bench.split.test].into_iter().enumerate()
    {
        for &v in nodes {
            flags[v as usize] |= 1 << bit;
        }
    }
    flags
}

/// Builds the local [`GraphDataset`] for one subgraph view.
///
/// Only *owned* nodes receive labels and split membership; halo nodes are
/// present for message passing but never supervised or evaluated.
fn subgraph_dataset(
    sg: &Subgraph,
    bench: &Benchmark,
    flags: &[u8],
    train_only: bool,
) -> GraphDataset {
    let features = bench.features.gather_rows(&sg.global_ids);
    let labels: Vec<u32> = sg.global_ids.iter().map(|&g| bench.labels[g as usize]).collect();
    let mut splits = [Vec::new(), Vec::new(), Vec::new()];
    let kept = if train_only { 1 } else { 3 };
    // The halo suffix carries no supervision.
    for (local, &g) in sg.global_ids[..sg.num_owned].iter().enumerate() {
        for (bit, split) in splits[..kept].iter_mut().enumerate() {
            if flags[g as usize] & (1 << bit) != 0 {
                split.push(local as u32);
            }
        }
    }
    let [train, val, test] = splits;
    GraphDataset::new(&sg.graph, features, labels, bench.num_classes, train, val, test)
}

/// Builds one client per partition part.
///
/// Transductive benchmarks give each client a single dataset (training and
/// evaluation share the graph). Inductive benchmarks give a training view
/// whose graph is induced on the client's train nodes only, plus a full
/// evaluation view — test nodes and their edges are invisible during
/// training, matching the paper's Flickr/Reddit protocol. Both views are
/// prepared for the client's model.
pub fn build_clients(
    bench: &Benchmark,
    partition: &Partition,
    cfg: &ClientBuildConfig,
) -> Vec<Client> {
    let flags = split_flags(bench);
    let induced = |parts: &[u32]| {
        induced_subgraphs(&bench.graph, parts, partition.num_parts)
            .expect("a partition of the benchmark's nodes")
    };
    let full_views: Vec<Option<Subgraph>> = if cfg.halo {
        let halo = |nodes: &Vec<u32>| {
            (!nodes.is_empty()).then(|| halo_subgraph(&bench.graph, nodes).expect("client nodes"))
        };
        partition.members().iter().map(halo).collect()
    } else {
        induced(&partition.parts).into_iter().map(|sg| (sg.num_owned > 0).then_some(sg)).collect()
    };
    // Inductive training views: each client's graph induced on its owned
    // train nodes only — every other node is in no part.
    let train_part = |(&p, &f): (&u32, &u8)| if f & 1 != 0 { p } else { u32::MAX };
    let mut train_views = (bench.spec.task == Task::Inductive)
        .then(|| induced(&partition.parts.iter().zip(&flags).map(train_part).collect::<Vec<_>>()))
        .into_iter()
        .flatten();
    let mut clients = Vec::with_capacity(full_views.len());
    for (id, full_sg) in full_views.into_iter().enumerate() {
        let train_sg = train_views.next();
        let Some(full_sg) = full_sg else { continue };
        let view = subgraph_dataset(&full_sg, bench, &flags, false);
        let (data, eval_data) = match train_sg {
            Some(t) if t.num_owned > 0 => (subgraph_dataset(&t, bench, &flags, true), Some(view)),
            _ => (view, None),
        };
        let mut model_cfg = cfg.model.clone();
        model_cfg.seed = cfg.model.seed.wrapping_add(id as u64 * 1013);
        let model = build_model(&model_cfg, bench.features.cols(), bench.num_classes);
        let opt = Box::new(Adam::new(cfg.lr, cfg.weight_decay));
        clients.push(Client {
            eval_data: eval_data.map(|d| model.prepare(d)),
            global_ids: full_sg.global_ids,
            ..Client::new(id, data, model, opt)
        });
    }
    clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedgta_data::load_benchmark;
    use fedgta_nn::models::ModelKind;
    use fedgta_partition::{communities_to_clients, louvain, LouvainConfig};

    fn setup(halo: bool) -> Vec<Client> {
        let bench = load_benchmark("cora", 0).unwrap();
        let comm = louvain(&bench.graph, &LouvainConfig::default());
        let parts = communities_to_clients(&comm, 4).unwrap();
        build_clients(
            &bench,
            &parts,
            &ClientBuildConfig {
                model: ModelConfig {
                    kind: ModelKind::Sgc,
                    layers: 2,
                    hidden: 16,
                    ..ModelConfig::default()
                },
                halo,
                ..ClientBuildConfig::default()
            },
        )
    }

    #[test]
    fn clients_partition_the_global_nodes() {
        let clients = setup(false);
        assert_eq!(clients.len(), 4);
        let total: usize = clients.iter().map(|c| c.data.num_nodes()).sum();
        assert_eq!(total, 2708);
        for c in &clients {
            assert!(c.n_train() > 0, "client {} has no train nodes", c.id);
        }
    }

    #[test]
    fn halo_clients_overlap() {
        let clients = setup(true);
        let total: usize = clients.iter().map(|c| c.global_ids.len()).sum();
        assert!(total > 2708, "halo should duplicate boundary nodes");
        // Halo nodes never appear in train/test.
        for c in &clients {
            let owned = c.data.num_nodes();
            assert!(c.data.train_nodes.iter().all(|&v| (v as usize) < owned));
        }
    }

    #[test]
    fn local_training_reduces_loss() {
        let mut clients = setup(false);
        let c = &mut clients[0];
        let l0 = c.train_local(1, &mut TrainHooks::none());
        for _ in 0..15 {
            c.train_local(1, &mut TrainHooks::none());
        }
        let l1 = c.train_local(1, &mut TrainHooks::none());
        assert!(l1 < l0, "loss {l0} -> {l1}");
    }

    #[test]
    fn inductive_split_hides_test_nodes_from_training_graph() {
        let bench = load_benchmark("flickr", 0).unwrap();
        let comm = louvain(&bench.graph, &LouvainConfig::default());
        let parts = communities_to_clients(&comm, 4).unwrap();
        let clients = build_clients(&bench, &parts, &ClientBuildConfig::default());
        for c in &clients {
            let eval = c.eval_data.as_ref().expect("inductive eval view");
            assert!(c.data.num_nodes() < eval.num_nodes());
            assert!(c.data.test_nodes.is_empty());
            assert!(!eval.test_nodes.is_empty() || eval.num_nodes() < 50);
        }
    }
}
