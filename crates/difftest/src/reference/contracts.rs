//! The pre-class contract generator, frozen as an oracle.
//!
//! This is intent derivation exactly as it stood before contracts
//! became a shared class plus a per-device binding: one owned
//! [`Contract`] value per (device, prefix), each device's list derived
//! on its own from the metadata facts (§2.4.1–§2.4.3). It is kept
//! verbatim (not re-expressed through classes or groups) so the
//! `engines` oracle can hold [`rcdc::contracts::ContractGenerator`] to
//! the same contracts in the same report order on every random fabric.
//! Do not optimize this module.

use dctopo::{ClusterId, DeviceId, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use rcdc::contracts::{ContractKind, Expectation};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One local forwarding contract, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// The device the contract applies to.
    pub device: DeviceId,
    /// Covered prefix (`0.0.0.0/0` for the default contract).
    pub prefix: Prefix,
    /// Default or specific.
    pub kind: ContractKind,
    /// Expected forwarding behavior.
    pub expectation: Expectation,
}

/// Sorted, shared next-hop address list for a set of neighbor facts.
fn hops(facts: impl IntoIterator<Item = Ipv4>) -> Arc<[Ipv4]> {
    let mut v: Vec<Ipv4> = facts.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v.into()
}

/// Streaming contract generator: precomputes the cluster indices once,
/// then yields one device's contract set at a time — the shape of the
/// real contract-generator microservice, and what lets a 10⁴-router
/// validation run without materializing ~10⁸ contracts at once.
pub struct ContractGenerator<'a> {
    meta: &'a MetadataService,
    cluster_leaf_set: HashMap<ClusterId, HashSet<DeviceId>>,
    /// Clusters each spine is wired into (through its leaf neighbors);
    /// precomputed so per-prefix contract emission is O(neighbors), not
    /// O(neighbors × their neighbors).
    spine_clusters: HashMap<DeviceId, HashSet<ClusterId>>,
}

impl<'a> ContractGenerator<'a> {
    /// Build the generator over a metadata snapshot.
    pub fn new(meta: &'a MetadataService) -> Self {
        let mut cluster_leaf_set: HashMap<ClusterId, HashSet<DeviceId>> = HashMap::new();
        for c in meta.clusters() {
            cluster_leaf_set.insert(c, meta.leaves_of(c).iter().copied().collect());
        }
        let mut spine_clusters: HashMap<DeviceId, HashSet<ClusterId>> = HashMap::new();
        for dev in meta.devices() {
            if dev.role == Role::Spine {
                spine_clusters.insert(
                    dev.id,
                    meta.neighbors_with_role(dev.id, Role::Leaf)
                        .filter_map(|nf| meta.device(nf.device).cluster)
                        .collect(),
                );
            }
        }
        ContractGenerator {
            meta,
            cluster_leaf_set,
            spine_clusters,
        }
    }

    /// Generate the contract set for one device.
    pub fn device(&self, id: DeviceId) -> Vec<Contract> {
        let meta = self.meta;
        let cluster_leaf_set = &self.cluster_leaf_set;
        let dev = meta.device(id);
        let mut contracts = Vec::new();
        match dev.role {
            Role::Tor => {
                let leaf_hops = hops(
                    meta.neighbors_with_role(dev.id, Role::Leaf)
                        .map(|nf| nf.next_hop_addr),
                );
                contracts.push(Contract {
                    device: dev.id,
                    prefix: Prefix::DEFAULT,
                    kind: ContractKind::Default,
                    expectation: Expectation::NextHops(leaf_hops.clone()),
                });
                let own: HashSet<Prefix> = meta.hosted_by(dev.id).iter().copied().collect();
                for fact in meta.prefix_facts() {
                    if own.contains(&fact.prefix) {
                        continue; // §2.4.1: "besides the prefix it announces"
                    }
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: fact.prefix,
                        kind: ContractKind::Specific,
                        expectation: Expectation::NextHops(leaf_hops.clone()),
                    });
                }
            }
            Role::Leaf => {
                let spine_hops = hops(
                    meta.neighbors_with_role(dev.id, Role::Spine)
                        .map(|nf| nf.next_hop_addr),
                );
                contracts.push(Contract {
                    device: dev.id,
                    prefix: Prefix::DEFAULT,
                    kind: ContractKind::Default,
                    expectation: Expectation::NextHops(spine_hops.clone()),
                });
                let own_cluster = dev.cluster.expect("leaves belong to clusters");
                // Hop sets repeat per (hosting ToR) and per (hosting
                // cluster); memoize both so emission is linear in the
                // number of prefixes.
                let mut tor_hops: HashMap<DeviceId, Arc<[Ipv4]>> = HashMap::new();
                let mut cluster_hops: HashMap<ClusterId, Arc<[Ipv4]>> = HashMap::new();
                for fact in meta.prefix_facts() {
                    let expectation = if fact.cluster == own_cluster {
                        // Directly to the hosting ToR (§2.4.2).
                        let set = tor_hops.entry(fact.tor).or_insert_with(|| {
                            hops(
                                meta.neighbors_with_role(dev.id, Role::Tor)
                                    .filter(|nf| nf.device == fact.tor)
                                    .map(|nf| nf.next_hop_addr),
                            )
                        });
                        Expectation::NextHops(set.clone())
                    } else {
                        // "Spine devices that connect to the leaf devices
                        // that connect directly to the prefix" (§2.4.2).
                        let set = cluster_hops.entry(fact.cluster).or_insert_with(|| {
                            hops(
                                meta.neighbors_with_role(dev.id, Role::Spine)
                                    .filter(|nf| {
                                        self.spine_clusters[&nf.device].contains(&fact.cluster)
                                    })
                                    .map(|nf| nf.next_hop_addr),
                            )
                        });
                        Expectation::NextHops(set.clone())
                    };
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: fact.prefix,
                        kind: ContractKind::Specific,
                        expectation,
                    });
                }
            }
            Role::Spine => {
                contracts.push(Contract {
                    device: dev.id,
                    prefix: Prefix::DEFAULT,
                    kind: ContractKind::Default,
                    expectation: Expectation::NextHops(hops(
                        meta.neighbors_with_role(dev.id, Role::RegionalSpine)
                            .map(|nf| nf.next_hop_addr),
                    )),
                });
                let mut cluster_hops: HashMap<ClusterId, Arc<[Ipv4]>> = HashMap::new();
                for fact in meta.prefix_facts() {
                    // Neighbor leaves from the cluster hosting the
                    // prefix (§2.4.3); one distinct set per cluster.
                    let set = cluster_hops.entry(fact.cluster).or_insert_with(|| {
                        let hosting_leaves = &cluster_leaf_set[&fact.cluster];
                        hops(
                            meta.neighbors_with_role(dev.id, Role::Leaf)
                                .filter(|nf| hosting_leaves.contains(&nf.device))
                                .map(|nf| nf.next_hop_addr),
                        )
                    });
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: fact.prefix,
                        kind: ContractKind::Specific,
                        expectation: Expectation::NextHops(set.clone()),
                    });
                }
            }
            Role::RegionalSpine => {
                // Regional spines sit outside the datacenter boundary
                // RCDC validates: §2.4.1–§2.4.3 define contracts for
                // ToR, leaf, and spine devices only, and Claim 1 is
                // stated over those three tiers. This is also what
                // makes the §2.4.4 example exact: "R1 and R2 have no
                // contract failures" even while their spine-learned
                // ECMP sets fluctuate with faults below them.
            }
        }
        // ToRs additionally deliver their own prefixes locally; the
        // engines treat a hosted prefix as implicitly satisfied, so no
        // contract is emitted (matching §2.4.1).
        contracts
    }
}
