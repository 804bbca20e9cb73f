//! Federated evaluation: global test accuracy over the union of client
//! test nodes.
//!
//! Each client evaluates its *own* model on its *own* test nodes (the
//! personalized-FL protocol FedGTA uses; for global-model strategies every
//! client holds the same parameters, so this reduces to the standard
//! global-model evaluation). The result is micro-averaged over all test
//! nodes in the federation.

use crate::client::Client;
use crate::kit::{lend, Kit, Moments, Pool};
use fedgta_graph::par::par_map_indexed;
use fedgta_nn::Matrix;

/// One client's accuracy on its test nodes and their count. Only those
/// rows are scored ([`fedgta_nn::GraphModel::predict_rows_into`]); a
/// client with none returns before any forward.
fn client_accuracy(c: &mut Client) -> (f64, usize) {
    // Disjoint field borrows: `model` (mut) and `eval_data`/`data` (imm).
    let view = c.eval_data.as_ref().unwrap_or(&c.data);
    let nodes = &view.test_nodes;
    if nodes.is_empty() {
        return (0.0, 0);
    }
    let mut probs = Matrix::default();
    c.model.predict_rows_into(view, nodes, &mut probs);
    let correct = nodes
        .iter()
        .enumerate()
        .filter(|&(r, &i)| probs.argmax_row(r) == view.labels[i as usize] as usize)
        .count();
    (correct as f64 / nodes.len() as f64, nodes.len())
}

/// Micro-averaged test accuracy and the number of rows scored. Per-client
/// accuracies are computed client-parallel on `threads` workers (`None` /
/// `Some(0)` = auto), each through an arena lent from `kits`, and reduced
/// on the caller's thread in client order — deterministic for any thread
/// count.
pub(crate) fn micro_average(
    clients: &mut [Client],
    threads: Option<usize>,
    kits: Option<&Pool<Kit>>,
) -> (f64, usize) {
    let per_client =
        par_map_indexed(clients, threads, |_, c| lend(kits, c, Moments::Keep, client_accuracy));
    let mut correct = 0f64;
    let mut total = 0usize;
    for (acc, n) in per_client {
        correct += acc * n as f64;
        total += n;
    }
    let acc = if total == 0 { 0.0 } else { correct / total as f64 };
    (acc, total)
}

/// Micro-averaged test accuracy across all clients.
pub fn global_test_accuracy(clients: &mut [Client]) -> f64 {
    micro_average(clients, None, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{SimConfig, Simulation};
    use crate::strategies::test_support::{federation_with, small_federation};
    use crate::strategies::FedAvg;
    use fedgta_nn::models::ModelKind;
    use fedgta_nn::{GraphDataset, GraphModel, Optimizer, TrainHooks};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// A model that logs the thread of every full forward; scoring reaches
    /// it through the default `predict_rows_into`.
    #[derive(Clone, Default)]
    struct Probe {
        forwards: Arc<Mutex<Vec<ThreadId>>>,
    }

    impl GraphModel for Probe {
        fn param_slice(&self) -> &[f32] {
            &[]
        }
        fn param_slice_mut(&mut self) -> &mut [f32] {
            &mut []
        }
        fn train_epoch(
            &mut self,
            _: &GraphDataset,
            _: &mut dyn Optimizer,
            _: &mut TrainHooks<'_>,
        ) -> f32 {
            0.0
        }
        fn predict_into(&mut self, data: &GraphDataset, out: &mut Matrix) {
            let me = std::thread::current().id();
            self.forwards.lock().unwrap().push(me);
            *out = Matrix::zeros(data.num_nodes(), data.num_classes);
        }
        fn penultimate(&mut self, data: &GraphDataset) -> Matrix {
            self.predict(data)
        }
        fn clone_box(&self) -> Box<dyn GraphModel> {
            Box::new(self.clone())
        }
    }

    /// Six clients sharing one probe log.
    fn probed_federation() -> (Vec<Client>, Probe) {
        let probe = Probe::default();
        let mut clients = federation_with(ModelKind::Sgc, 41, 6, 600);
        for c in &mut clients {
            c.model = probe.clone_box();
        }
        (clients, probe)
    }

    #[test]
    fn accuracy_is_a_probability() {
        let mut clients = small_federation(ModelKind::Sgc, 40);
        let acc = global_test_accuracy(&mut clients);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn empty_clients_give_zero() {
        let mut clients: Vec<crate::client::Client> = Vec::new();
        assert_eq!(global_test_accuracy(&mut clients), 0.0);
    }

    #[test]
    fn a_client_without_scored_nodes_runs_no_forward() {
        let (mut clients, probe) = probed_federation();
        clients[1].data.test_nodes.clear();
        clients[4].data.test_nodes.clear();
        let scored: usize = clients.iter().map(|c| c.data.test_nodes.len()).sum();
        assert_eq!(micro_average(&mut clients, Some(1), None).1, scored);
        assert_eq!(probe.forwards.lock().unwrap().len(), 4);
    }

    #[test]
    fn simulation_scores_on_its_configured_thread_count() {
        let me = std::thread::current().id();
        for threads in [1usize, 3] {
            let (clients, probe) = probed_federation();
            let config = SimConfig { threads, ..SimConfig::default() };
            Simulation::new(clients, Box::new(FedAvg::new()), config).test_accuracy();
            let log = probe.forwards.lock().unwrap();
            assert_eq!(log.len(), 6);
            if threads == 1 {
                // No fan-out, whatever FEDGTA_THREADS / the core count say.
                assert!(log.iter().all(|&t| t == me));
            } else {
                let workers: HashSet<_> = log.iter().filter(|&&t| t != me).collect();
                assert_eq!(workers.len(), threads, "forwards ran on {log:?}");
            }
        }
    }
}
