//! Automatic intent extraction: local forwarding contracts.
//!
//! "A local forwarding contract for a device consists of a prefix and a
//! set of next hops, and states the expectation that all packets whose
//! destination address matches the given prefix must be forwarded to
//! the specified next hops" (§2.4). This module derives the complete
//! contract set for every device from metadata alone (§2.4.1–§2.4.3):
//!
//! | role          | default contract        | specific contract for prefix *p*                                   |
//! |---------------|-------------------------|--------------------------------------------------------------------|
//! | ToR           | all neighbor leaves     | all neighbor leaves (except *p* hosted here: none — local delivery) |
//! | Leaf          | all neighbor spines     | hosting ToR if *p* in own cluster, else neighbor spines wired to the hosting cluster |
//! | Spine         | all neighbor regionals  | neighbor leaves belonging to the cluster hosting *p*                |
//!
//! Regional spines receive no contracts: they sit outside the
//! datacenter boundary that RCDC validates (Claim 1 is stated over ToR,
//! leaf, and spine devices), which is what makes §2.4.4's "R1 and R2
//! have no contract failures" exact.
//!
//! Contracts use the *expected* topology: "we create contracts based on
//! expected topology, and therefore will ignore current state of the
//! links when generating contracts" (§2.4).

use dctopo::{ClusterId, DeviceId, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Whether a contract covers a concrete prefix or the default route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContractKind {
    /// The `0.0.0.0/0` contract: expectation for packets matching no
    /// specific rule (§2.4, validated as a special case per §2.5.1).
    Default,
    /// A contract for one concrete hosted prefix.
    Specific,
}

/// What the device is expected to do with matching packets.
///
/// Next-hop sets are `Arc`-shared: a ToR's thousands of specific
/// contracts all reference one leaf set, which keeps a 10⁴-router
/// datacenter's ~10⁸ contracts within memory (the same interning
/// trick [`bgpsim::Fib`] uses for routes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Forward to exactly this set of next-hop interface addresses.
    NextHops(Arc<[Ipv4]>),
    /// Deliver locally (the ToR hosting the prefix; the regional spine
    /// originating the default).
    Local,
}

/// One local forwarding contract.
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

impl Contract {
    /// Expected next hops, or `None` for local delivery.
    pub fn next_hops(&self) -> Option<&[Ipv4]> {
        match &self.expectation {
            Expectation::NextHops(h) => Some(h),
            Expectation::Local => None,
        }
    }
}

/// `(address, length)` preorder key packed into one word: the order
/// the flat trie lays rules out in, the batched sweep judges contracts
/// in, and [`DeviceContracts::affected`] searches. Nested prefixes sort
/// ancestor first.
#[inline]
pub(crate) fn preorder_key(p: Prefix) -> u64 {
    (u64::from(p.addr().0) << 6) | u64::from(p.len())
}

/// The keys of every prefix whose address lies inside `p`'s block.
fn block_keys(p: Prefix) -> Range<u64> {
    let first = u64::from(p.addr().0);
    first << 6..(first + (1u64 << (32 - p.len()))) << 6
}

/// Contract positions sorted by [`preorder_key`], keys and positions
/// in parallel arrays so the binary searches walk a dense key column:
/// an explorer revalidates a different device every time, so each
/// search starts cache-cold and pays per line it pulls (reading the
/// keys through the positions instead costs `whatif_k2` ~10 %).
#[derive(Debug)]
struct Sorted {
    keys: Vec<u64>,
    at: Vec<u32>,
}

impl Sorted {
    fn new(mut slots: Vec<(u64, u32)>) -> Sorted {
        slots.sort_unstable();
        let (keys, at) = slots.into_iter().unzip();
        Sorted { keys, at }
    }

    /// Positions of the contracts keyed inside `range`, ascending
    /// among equal keys.
    fn within(&self, range: Range<u64>) -> &[u32] {
        let a = self.keys.partition_point(|&k| k < range.start);
        let b = a + self.keys[a..].partition_point(|&k| k < range.end);
        &self.at[a..b]
    }

    /// Positions of the contracts for exactly `prefix`.
    fn exactly(&self, prefix: Prefix) -> &[u32] {
        let key = preorder_key(prefix);
        self.within(key..key + 1)
    }
}

/// What turns "which contracts can a change to these rules affect"
/// into a few binary searches instead of a scan of the whole set.
#[derive(Debug)]
struct PreorderIndex {
    specs: Sorted,
    /// Default-kind contract positions, ascending.
    defaults: Vec<u32>,
    /// Distinct specific-contract prefix lengths, descending.
    lengths: Vec<u8>,
}

impl PreorderIndex {
    fn build(contracts: &[Contract]) -> PreorderIndex {
        let mut specs = Vec::new();
        let mut defaults = Vec::new();
        let mut lengths: Vec<u8> = Vec::new();
        for (i, c) in contracts.iter().enumerate() {
            match c.kind {
                ContractKind::Default => defaults.push(i as u32),
                ContractKind::Specific => {
                    specs.push((preorder_key(c.prefix), i as u32));
                    if !lengths.contains(&c.prefix.len()) {
                        lengths.push(c.prefix.len());
                    }
                }
            }
        }
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        PreorderIndex {
            specs: Sorted::new(specs),
            defaults,
            lengths,
        }
    }
}

/// The full contract set of one device.
///
/// The set is fixed at construction, which is what lets it carry a
/// lazily built preorder index: the index is built by the first
/// [`affected`](Self::affected) call (a cold sweep never takes the
/// delta path and pays neither its time nor its memory) and can never
/// go stale. Cloning and comparing look at the contracts only.
#[derive(Debug, Default)]
pub struct DeviceContracts {
    /// Contracts, default first, then specifics in prefix order.
    contracts: Vec<Contract>,
    index: OnceLock<PreorderIndex>,
}

impl Clone for DeviceContracts {
    fn clone(&self) -> Self {
        DeviceContracts::new(self.contracts.clone())
    }
}

impl PartialEq for DeviceContracts {
    fn eq(&self, other: &Self) -> bool {
        self.contracts == other.contracts
    }
}

impl Eq for DeviceContracts {}

impl DeviceContracts {
    /// A device's contract set; report order follows `contracts`.
    pub fn new(contracts: Vec<Contract>) -> DeviceContracts {
        DeviceContracts {
            contracts,
            index: OnceLock::new(),
        }
    }

    /// The contracts, in report order.
    pub fn contracts(&self) -> &[Contract] {
        &self.contracts
    }

    /// The default contract, if the device has one.
    pub fn default_contract(&self) -> Option<&Contract> {
        self.contracts
            .iter()
            .find(|c| c.kind == ContractKind::Default)
    }

    /// Specific contracts only.
    pub fn specifics(&self) -> impl Iterator<Item = &Contract> {
        self.contracts
            .iter()
            .filter(|c| c.kind == ContractKind::Specific)
    }

    /// Number of contracts.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// No contracts at all?
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }

    fn index(&self) -> &PreorderIndex {
        self.index
            .get_or_init(|| PreorderIndex::build(&self.contracts))
    }

    /// Indices of the contracts whose verdict a change to the rules at
    /// `touched` can alter, ascending (= report order) and distinct.
    ///
    /// A specific contract's verdict reads only its candidate set
    /// `{r | C ⊆ r ∨ r ⊆ C}`, so it is affected exactly when a touched
    /// prefix overlaps its own; a default contract reads nothing but
    /// the `0.0.0.0/0` rule. `touched` may come in any order and repeat
    /// prefixes.
    pub fn affected(&self, touched: &[Prefix]) -> Vec<u32> {
        let ix = self.index();
        let mut out: Vec<u32> = Vec::new();
        for &p in touched {
            if p.is_default() {
                out.extend_from_slice(&ix.defaults);
            }
            // Contracts whose address lies inside the touched block
            // all overlap it: an aligned block no larger than `p`'s
            // starting inside it is contained, and a larger one can
            // only start at `p`'s own address, where it contains `p`.
            out.extend_from_slice(ix.specs.within(block_keys(p)));
            // Strictly shorter containing contracts sit at the touched
            // address truncated to each contract length.
            for &l in ix.lengths.iter().filter(|&&l| l < p.len()) {
                let ancestor = Prefix::containing(p.addr(), l).expect("l < 32");
                out.extend_from_slice(ix.specs.exactly(ancestor));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Indices of the contracts a violation naming `(prefix, kind)` can
    /// belong to, ascending. More than one means the set holds
    /// duplicates, and a report alone cannot say which of them spoke.
    /// Default contracts all read the same one rule and are not told
    /// apart by prefix.
    pub(crate) fn holders(&self, prefix: Prefix, kind: ContractKind) -> &[u32] {
        let ix = self.index();
        match kind {
            ContractKind::Default => &ix.defaults,
            ContractKind::Specific => ix.specs.exactly(prefix),
        }
    }
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
    pub fn device(&self, id: DeviceId) -> DeviceContracts {
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
        DeviceContracts::new(contracts)
    }
}

/// Generate contracts for every device in the datacenter, indexed by
/// device id. Runs once per datacenter; the result is pushed to the
/// contract store of the monitoring pipeline (§2.6.1). For very large
/// datacenters prefer streaming with [`ContractGenerator::device`].
pub fn generate_contracts(meta: &MetadataService) -> Vec<DeviceContracts> {
    let generator = ContractGenerator::new(meta);
    meta.devices()
        .iter()
        .map(|d| generator.device(d.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::generator::figure3;

    fn fig3_contracts() -> (dctopo::generator::Figure3, Vec<DeviceContracts>, MetadataService) {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        (f, contracts, meta)
    }

    /// Map expected next-hop addresses back to device ids for readable
    /// assertions.
    fn hop_devices(meta: &MetadataService, c: &Contract) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = c
            .next_hops()
            .unwrap()
            .iter()
            .map(|&h| meta.owner_of(h).unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn tor1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let t1 = &contracts[f.tors[0].0 as usize];
        // Default + 3 specifics (B, C, D) — own Prefix_A excluded.
        assert_eq!(t1.len(), 4);
        let d = t1.default_contract().unwrap();
        assert_eq!(hop_devices(&meta, d), {
            let mut v = f.a.to_vec();
            v.sort();
            v
        });
        for c in t1.specifics() {
            assert_ne!(c.prefix, f.prefixes[0]);
            assert_eq!(hop_devices(&meta, c).len(), 4);
        }
    }

    #[test]
    fn leaf_a1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let a1 = &contracts[f.a[0].0 as usize];
        // Default + 4 specifics.
        assert_eq!(a1.len(), 5);
        // Default -> D1 only.
        assert_eq!(hop_devices(&meta, a1.default_contract().unwrap()), vec![f.d[0]]);
        let by_prefix: HashMap<Prefix, &Contract> =
            a1.specifics().map(|c| (c.prefix, c)).collect();
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[0]]), vec![f.tors[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[1]]), vec![f.tors[1]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[2]]), vec![f.d[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[3]]), vec![f.d[0]]);
    }

    #[test]
    fn spine_d1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let d1 = &contracts[f.d[0].0 as usize];
        assert_eq!(d1.len(), 5);
        // Default -> R1, R3.
        assert_eq!(
            hop_devices(&meta, d1.default_contract().unwrap()),
            vec![f.r[0], f.r[2]]
        );
        let by_prefix: HashMap<Prefix, &Contract> =
            d1.specifics().map(|c| (c.prefix, c)).collect();
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[0]]), vec![f.a[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[1]]), vec![f.a[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[2]]), vec![f.b[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[3]]), vec![f.b[0]]);
    }

    #[test]
    fn regional_spines_have_no_contracts() {
        let (f, contracts, _meta) = fig3_contracts();
        for &r in &f.r {
            assert!(contracts[r.0 as usize].is_empty());
        }
    }

    #[test]
    fn contracts_ignore_link_state() {
        // Generating contracts on a faulted topology yields the same
        // result as on the healthy one (§2.4).
        let mut f = figure3();
        let healthy = generate_contracts(&MetadataService::from_topology(&f.topology));
        for &leaf in &[f.a[2], f.a[3]] {
            let l = f.topology.link_between(f.tors[0], leaf).unwrap().id;
            f.topology.set_link_state(l, dctopo::LinkState::OperDown);
        }
        let faulted = generate_contracts(&MetadataService::from_topology(&f.topology));
        for (h, ft) in healthy.iter().zip(&faulted) {
            assert_eq!(h.contracts, ft.contracts);
        }
    }

    #[test]
    fn affected_finds_ancestors_descendants_twins_and_defaults() {
        let contract = |prefix: &str, kind| Contract {
            device: DeviceId(0),
            prefix: prefix.parse().unwrap(),
            kind,
            expectation: Expectation::Local,
        };
        use ContractKind::{Default, Specific};
        let dc = DeviceContracts::new(vec![
            contract("10.0.1.0/24", Specific), // 0
            contract("0.0.0.0/0", Default),    // 1
            contract("10.0.0.0/16", Specific), // 2: contains 0, 3 and 5
            contract("10.0.1.128/25", Specific), // 3: inside 0
            contract("192.168.0.0/24", Specific), // 4
            contract("10.0.1.0/24", Specific), // 5: twin of 0
        ]);
        let affected = |touched: &[&str]| {
            let touched: Vec<Prefix> = touched.iter().map(|p| p.parse().unwrap()).collect();
            dc.affected(&touched)
        };
        assert_eq!(affected(&[]), []);
        // A rule inside the /25: the /25 and everything containing it.
        assert_eq!(affected(&["10.0.1.200/32"]), [0, 2, 3, 5]);
        // A rule in the /24's other half misses the /25.
        assert_eq!(affected(&["10.0.1.0/25"]), [0, 2, 5]);
        // A rule containing contracts reaches all of them.
        assert_eq!(affected(&["10.0.0.0/8"]), [0, 2, 3, 5]);
        assert_eq!(affected(&["11.0.0.0/8"]), []);
        // The default route is every specific's ancestor, and the only
        // rule a default contract reads.
        assert_eq!(affected(&["0.0.0.0/0"]), [0, 1, 2, 3, 4, 5]);
        // Order and repeats in the touched list do not matter.
        assert_eq!(
            affected(&["192.168.0.0/24", "10.0.1.128/25", "192.168.0.0/24"]),
            [0, 2, 3, 4, 5]
        );

        assert_eq!(dc.holders("10.0.1.0/24".parse().unwrap(), Specific), [0, 5]);
        assert_eq!(dc.holders("10.0.1.128/25".parse().unwrap(), Specific), [3]);
        assert_eq!(dc.holders("0.0.0.0/0".parse().unwrap(), Default), [1]);
        assert_eq!(dc.holders("0.0.0.0/0".parse().unwrap(), Specific), []);
    }

    #[test]
    fn index_is_built_by_the_first_delta_call_only() {
        use crate::engine::{trie::TrieEngine, Engine};
        let (f, contracts, _meta) = fig3_contracts();
        let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
        let tor = f.tors[0].0 as usize;
        let (fib, dc) = (&fibs[tor], &contracts[tor]);
        // What a cold sweep does: no index, so no time or memory for it.
        let report = TrieEngine::new().validate_device(fib, dc);
        assert!(dc.index.get().is_none());
        TrieEngine::new().validate_touched(fib, dc, &[f.prefixes[1]], &report);
        assert!(dc.index.get().is_some());
        // A copy shares the contracts, not the index.
        assert!(dc.clone().index.get().is_none());
        assert_eq!(&dc.clone(), dc);
    }

    #[test]
    fn every_dc_device_has_exactly_one_default_contract() {
        let (f, contracts, meta) = fig3_contracts();
        for dc in &contracts {
            let defaults = dc
                .contracts
                .iter()
                .filter(|c| c.kind == ContractKind::Default)
                .count();
            if dc.is_empty() {
                continue; // regional spines
            }
            assert_eq!(defaults, 1);
        }
        let _ = (f, meta);
    }

    #[test]
    fn contract_counts_scale_with_prefixes() {
        use dctopo::{build_clos, ClosParams};
        let p = ClosParams::default();
        let t = build_clos(&p);
        let meta = MetadataService::from_topology(&t);
        let contracts = generate_contracts(&meta);
        let total_prefixes = (p.clusters * p.tors_per_cluster * p.prefixes_per_tor) as usize;
        for dev in meta.devices() {
            let n = contracts[dev.id.0 as usize].len();
            match dev.role {
                // own prefixes excluded
                Role::Tor => assert_eq!(n, 1 + total_prefixes - p.prefixes_per_tor as usize),
                Role::RegionalSpine => assert_eq!(n, 0),
                _ => assert_eq!(n, 1 + total_prefixes),
            }
        }
    }
}
