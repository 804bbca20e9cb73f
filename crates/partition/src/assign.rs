//! Packing Louvain communities onto federated clients.
//!
//! The paper: "we apply Louvain on the global graph to assign discovered
//! communities to multi-clients". Louvain typically finds far more
//! communities than clients, so whole communities are packed onto `N`
//! clients with longest-processing-time (LPT) bin packing: sort communities
//! by size descending, repeatedly give the next community to the currently
//! lightest client. Each client thus receives a *few whole communities* —
//! which is exactly what makes the client label distributions Non-iid
//! (Fig. 1a).

use crate::{Partition, PartitionError};

/// Packs a community assignment onto `n_clients` clients. Returns the
/// node → client partition.
pub fn communities_to_clients(
    communities: &Partition,
    n_clients: usize,
) -> Result<Partition, PartitionError> {
    if n_clients == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if n_clients > communities.parts.len() {
        return Err(PartitionError::TooManyParts {
            parts: n_clients,
            nodes: communities.parts.len(),
        });
    }
    let sizes = communities.sizes();
    // (size, community id) sorted descending by size, id ascending for ties:
    // deterministic LPT.
    let mut order: Vec<(usize, u32)> =
        sizes.iter().enumerate().map(|(c, &s)| (s, c as u32)).collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut load = vec![0usize; n_clients];
    let mut comm_client = vec![0u32; communities.num_parts];
    for (size, comm) in order {
        // Lightest client (lowest id on ties).
        let (client, _) =
            load.iter().enumerate().min_by_key(|&(i, &l)| (l, i)).expect("n_clients > 0");
        comm_client[comm as usize] = client as u32;
        load[client] += size;
    }
    let parts = communities.parts.iter().map(|&c| comm_client[c as usize]).collect();
    Ok(Partition::new(parts).compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_communities_whole() {
        // 4 communities of sizes 4,3,2,1 onto 2 clients.
        let comm = Partition::new(vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 3]);
        let clients = communities_to_clients(&comm, 2).unwrap();
        assert_eq!(clients.num_parts, 2);
        // Nodes of the same community share a client.
        for ids in comm.members() {
            let c0 = clients.parts[ids[0] as usize];
            assert!(ids.iter().all(|&v| clients.parts[v as usize] == c0));
        }
        // LPT: loads are 5 and 5.
        let sizes = clients.sizes();
        assert_eq!(sizes, vec![5, 5]);
    }

    #[test]
    fn single_client_takes_everything() {
        let comm = Partition::new(vec![0, 1, 2]);
        let clients = communities_to_clients(&comm, 1).unwrap();
        assert_eq!(clients.num_parts, 1);
    }

    #[test]
    fn errors_on_impossible_requests() {
        let comm = Partition::new(vec![0, 1]);
        assert!(communities_to_clients(&comm, 0).is_err());
        assert!(communities_to_clients(&comm, 3).is_err());
    }

    #[test]
    fn fewer_communities_than_clients_leaves_no_empty_visible_part() {
        // 2 communities onto 2 clients works; onto 2 clients each gets one.
        let comm = Partition::new(vec![0, 0, 1]);
        let clients = communities_to_clients(&comm, 2).unwrap();
        assert_eq!(clients.num_parts, 2);
        assert_eq!(clients.sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn deterministic() {
        let comm = Partition::new(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        let a = communities_to_clients(&comm, 3).unwrap();
        let b = communities_to_clients(&comm, 3).unwrap();
        assert_eq!(a, b);
    }
}
