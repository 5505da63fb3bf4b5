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
//!
//! The table is a function of *role and address locality*, not of
//! device identity, and the representation says so. A
//! [`DeviceContracts`] is a shared class — one for all ToRs, one for
//! all spines, one per cluster for its leaves: the contracts in report
//! order, each naming a neighbour group where its addresses would be,
//! and their preorder index — plus a small per-device binding that
//! resolves every group against that device's own neighbour facts. The
//! 1.9 × 10⁷ contracts of a 4 680-device fabric are 66 classes and
//! 4 680 bindings; a [`Contract`] value exists only while a view of the
//! set hands it out.

use dctopo::metadata::{NeighborFact, PrefixFact};
use dctopo::{ClusterId, DeviceId, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

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
/// A device holds one `Expectation` per neighbour *group* (its leaves,
/// the spines toward cluster *c*, …), not one per contract: a ToR's
/// thousands of specific contracts all read the same one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Forward to exactly this set of next-hop interface addresses.
    NextHops(Arc<[Ipv4]>),
    /// Deliver locally (the ToR hosting the prefix; the regional spine
    /// originating the default).
    Local,
}

/// One local forwarding contract, as a [`DeviceContracts`] view hands
/// it out: the set stores no such value per contract.
#[derive(Debug, Clone, Copy)]
pub struct Contract<'a> {
    /// The device the contract applies to.
    pub device: DeviceId,
    /// Covered prefix (`0.0.0.0/0` for the default contract).
    pub prefix: Prefix,
    /// Default or specific.
    pub kind: ContractKind,
    /// Expected forwarding behavior.
    pub expectation: &'a Expectation,
    /// Which of its set's expectations that is: contracts of one set
    /// with equal groups share one.
    pub(crate) group: u32,
}

impl<'a> Contract<'a> {
    /// Expected next hops, or `None` for local delivery.
    pub fn next_hops(&self) -> Option<&'a [Ipv4]> {
        match self.expectation {
            Expectation::NextHops(h) => Some(h),
            Expectation::Local => None,
        }
    }
}

/// Contracts are equal when they say the same thing, whichever group
/// numbering their sets use.
impl PartialEq for Contract<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.device, self.prefix, self.kind, self.expectation)
            == (other.device, other.prefix, other.kind, other.expectation)
    }
}

impl Eq for Contract<'_> {}

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

/// One contract of a class: everything about it but whom it is for
/// and which addresses its group resolves to there.
#[derive(Debug, Clone, Copy)]
struct Member {
    prefix: Prefix,
    kind: ContractKind,
    group: u32,
}

/// What every device of one role and locality shares (§2.3–§2.4.3):
/// the contracts in report order with a symbolic neighbour group in
/// place of addresses, and their preorder index — the order the batched
/// sweep judges specifics in, and what turns "which contracts can a
/// change to these rules affect" into a few binary searches. Built
/// once per class, immutable, so it can never go stale.
#[derive(Debug)]
struct ContractClass {
    members: Vec<Member>,
    /// Specific-kind positions in preorder.
    specs: Sorted,
    /// Default-kind positions, ascending.
    defaults: Vec<u32>,
    /// Distinct specific-contract prefix lengths, descending.
    lengths: Vec<u8>,
}

impl ContractClass {
    fn new(members: Vec<Member>) -> ContractClass {
        let mut specs = Vec::new();
        let mut defaults = Vec::new();
        let mut lengths: Vec<u8> = Vec::new();
        for (i, m) in members.iter().enumerate() {
            match m.kind {
                ContractKind::Default => defaults.push(i as u32),
                ContractKind::Specific => {
                    specs.push((preorder_key(m.prefix), i as u32));
                    if !lengths.contains(&m.prefix.len()) {
                        lengths.push(m.prefix.len());
                    }
                }
            }
        }
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        ContractClass {
            members,
            specs: Sorted::new(specs),
            defaults,
            lengths,
        }
    }
}

/// The full contract set of one device: a shared class plus this
/// device's binding of it.
///
/// A contract's *index* is its position in the class, so indices
/// ascend in report order and mean the same contract on every device
/// of the class. A ToR holds no contract for the prefixes it hosts
/// (§2.4.1): their positions are its `skip` list, and no view, count or
/// index of the set ever mentions them. The list holds specific
/// contracts only, and every position of a prefix or none — what lets
/// `defaults` and `holders` answer with slices of the class.
#[derive(Debug, Clone)]
pub struct DeviceContracts {
    class: Arc<ContractClass>,
    device: DeviceId,
    /// Group → what this device's own neighbour facts resolve it to.
    expect: Vec<Expectation>,
    /// Class positions this device has no contract at, ascending.
    skip: Vec<u32>,
}

/// The empty set (what a regional spine holds).
impl Default for DeviceContracts {
    fn default() -> Self {
        DeviceContracts::new(DeviceId(0), [])
    }
}

/// Two sets are equal when they hold equal contracts in equal order.
impl PartialEq for DeviceContracts {
    fn eq(&self, other: &Self) -> bool {
        self.contracts().eq(other.contracts())
    }
}

impl Eq for DeviceContracts {}

impl DeviceContracts {
    /// A hand-built set for `device` — a class of its own, one group
    /// per contract; report order follows `contracts`.
    pub fn new(
        device: DeviceId,
        contracts: impl IntoIterator<Item = (Prefix, ContractKind, Expectation)>,
    ) -> DeviceContracts {
        let (members, expect) = contracts
            .into_iter()
            .enumerate()
            .map(|(i, (prefix, kind, expectation))| {
                let group = i as u32;
                (Member { prefix, kind, group }, expectation)
            })
            .unzip();
        DeviceContracts {
            class: Arc::new(ContractClass::new(members)),
            device,
            expect,
            skip: Vec::new(),
        }
    }

    #[inline]
    fn skipped(&self, index: u32) -> bool {
        // At most a ToR's hosted prefixes: one or two entries.
        self.skip.contains(&index)
    }

    fn live<'a>(
        &'a self,
        indices: impl Iterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        indices.filter(|&i| !self.skipped(i))
    }

    /// The contract at `index`, which must be one this set issued
    /// ([`affected`](Self::affected) is the public source).
    #[inline]
    pub fn contract(&self, index: u32) -> Contract<'_> {
        debug_assert!(!self.skipped(index), "index {index} is not of this set");
        let m = self.class.members[index as usize];
        Contract {
            device: self.device,
            prefix: m.prefix,
            kind: m.kind,
            expectation: &self.expect[m.group as usize],
            group: m.group,
        }
    }

    /// The contracts, in report order.
    pub fn contracts(&self) -> impl Iterator<Item = Contract<'_>> + '_ {
        self.live(0..self.class.members.len() as u32)
            .map(|i| self.contract(i))
    }

    /// Indices of the default contracts, ascending.
    pub(crate) fn defaults(&self) -> &[u32] {
        &self.class.defaults
    }

    /// The default contract, if the device has one.
    pub fn default_contract(&self) -> Option<Contract<'_>> {
        self.defaults().first().map(|&i| self.contract(i))
    }

    /// Indices of the specific contracts in prefix preorder, contracts
    /// for one prefix in report order.
    pub(crate) fn preorder(&self) -> impl Iterator<Item = u32> + '_ {
        self.live(self.class.specs.at.iter().copied())
    }

    /// Specific contracts only, in prefix preorder.
    pub fn specifics(&self) -> impl Iterator<Item = Contract<'_>> + '_ {
        self.preorder().map(|i| self.contract(i))
    }

    /// Number of contracts.
    pub fn len(&self) -> usize {
        self.class.members.len() - self.skip.len()
    }

    /// No contracts at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many distinct expectations the contracts read: every
    /// [`Contract::group`] is below it.
    pub(crate) fn groups(&self) -> usize {
        self.expect.len()
    }

    /// Indices of the contracts whose verdict a change to the rules at
    /// `touched` can alter, ascending (= report order) and distinct.
    ///
    /// A specific contract's verdict reads only its candidate set
    /// `{r | C ⊆ r ∨ r ⊆ C}`, so it is affected exactly when a touched
    /// prefix overlaps its own; a default contract reads nothing but
    /// the `0.0.0.0/0` rule. `touched` may come in any order and repeat
    /// prefixes.
    pub fn affected(&self, touched: impl IntoIterator<Item = Prefix>) -> Vec<u32> {
        let ix = &*self.class;
        let mut out: Vec<u32> = Vec::new();
        for p in touched {
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
        out.retain(|&i| !self.skipped(i));
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
        match kind {
            ContractKind::Default => &self.class.defaults,
            ContractKind::Specific => match self.class.specs.exactly(prefix) {
                [first, ..] if self.skipped(*first) => &[],
                held => held,
            },
        }
    }
}

/// A neighbour group of a generated class, by what it means: resolved
/// per device from that device's own neighbour facts, so a class is
/// exact on any fabric — devices share the *question* each contract
/// asks, never another device's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Group {
    /// Every neighbour of the next tier up: a ToR's leaves, a leaf's
    /// spines, a spine's regional spines.
    Uplinks,
    /// The hosting ToR of a prefix in a leaf's own cluster (§2.4.2).
    Tor(DeviceId),
    /// A leaf's spines that are wired into the hosting cluster:
    /// "spine devices that connect to the leaf devices that connect
    /// directly to the prefix" (§2.4.2).
    SpinesToward(ClusterId),
    /// A spine's leaves that belong to the hosting cluster (§2.4.3).
    LeavesOf(ClusterId),
}

/// A generated class and what its group ids stand for.
struct ClassPlan {
    class: Arc<ContractClass>,
    group_ids: HashMap<Group, u32>,
}

impl ClassPlan {
    /// The class of one role and locality: the default contract on
    /// [`Group::Uplinks`], then one specific per prefix fact on the
    /// group `group_of` names, in fact order.
    fn new(meta: &MetadataService, group_of: impl Fn(&PrefixFact) -> Group) -> ClassPlan {
        let mut group_ids: HashMap<Group, u32> = HashMap::new();
        let mut id_of = |g: Group| {
            let next = group_ids.len() as u32;
            *group_ids.entry(g).or_insert(next)
        };
        let mut members = vec![Member {
            prefix: Prefix::DEFAULT,
            kind: ContractKind::Default,
            group: id_of(Group::Uplinks),
        }];
        members.extend(meta.prefix_facts().iter().map(|fact| Member {
            prefix: fact.prefix,
            kind: ContractKind::Specific,
            group: id_of(group_of(fact)),
        }));
        ClassPlan {
            class: Arc::new(ContractClass::new(members)),
            group_ids,
        }
    }
}

/// Streaming contract generator: derives the contract classes once —
/// one for ToRs, one for spines, one per cluster for its leaves — then
/// yields one device's binding at a time in O(neighbours), the shape
/// of the real contract-generator microservice.
pub struct ContractGenerator<'a> {
    meta: &'a MetadataService,
    tors: ClassPlan,
    leaves: HashMap<ClusterId, ClassPlan>,
    spines: ClassPlan,
    /// Clusters each spine is wired into (through its leaf neighbors).
    spine_clusters: HashMap<DeviceId, Vec<ClusterId>>,
}

impl<'a> ContractGenerator<'a> {
    /// Build the generator over a metadata snapshot.
    pub fn new(meta: &'a MetadataService) -> Self {
        let mut leaves: HashMap<ClusterId, ClassPlan> = HashMap::new();
        let mut spine_clusters: HashMap<DeviceId, Vec<ClusterId>> = HashMap::new();
        for dev in meta.devices() {
            match dev.role {
                Role::Leaf => {
                    let own = dev.cluster.expect("leaves belong to clusters");
                    leaves.entry(own).or_insert_with(|| {
                        ClassPlan::new(meta, |fact| {
                            if fact.cluster == own {
                                Group::Tor(fact.tor)
                            } else {
                                Group::SpinesToward(fact.cluster)
                            }
                        })
                    });
                }
                Role::Spine => {
                    let mut wired: Vec<ClusterId> = meta
                        .neighbors_with_role(dev.id, Role::Leaf)
                        .filter_map(|nf| meta.device(nf.device).cluster)
                        .collect();
                    wired.sort_unstable();
                    wired.dedup();
                    spine_clusters.insert(dev.id, wired);
                }
                Role::Tor | Role::RegionalSpine => {}
            }
        }
        ContractGenerator {
            meta,
            // §2.4.1: all neighbor leaves, whatever the prefix.
            tors: ClassPlan::new(meta, |_| Group::Uplinks),
            leaves,
            spines: ClassPlan::new(meta, |fact| Group::LeavesOf(fact.cluster)),
            spine_clusters,
        }
    }

    /// Generate the contract set for one device.
    pub fn device(&self, id: DeviceId) -> DeviceContracts {
        let meta = self.meta;
        let dev = meta.device(id);
        let (plan, uplink) = match dev.role {
            Role::Tor => (&self.tors, Role::Leaf),
            Role::Leaf => {
                let own = dev.cluster.expect("leaves belong to clusters");
                (&self.leaves[&own], Role::Spine)
            }
            Role::Spine => (&self.spines, Role::RegionalSpine),
            // Regional spines sit outside the datacenter boundary
            // RCDC validates: §2.4.1–§2.4.3 define contracts for
            // ToR, leaf, and spine devices only, and Claim 1 is
            // stated over those three tiers. This is also what
            // makes the §2.4.4 example exact: "R1 and R2 have no
            // contract failures" even while their spine-learned
            // ECMP sets fluctuate with faults below them.
            Role::RegionalSpine => return DeviceContracts::default(),
        };
        // One pass over the neighbour facts: each lands in the groups
        // it answers. A group nobody answers expects the empty set.
        let mut hops: Vec<Vec<Ipv4>> = vec![Vec::new(); plan.group_ids.len()];
        let mut answer = |g: Group, nf: &NeighborFact| {
            if let Some(&id) = plan.group_ids.get(&g) {
                hops[id as usize].push(nf.next_hop_addr);
            }
        };
        for nf in meta.neighbors(id) {
            if nf.role == uplink {
                answer(Group::Uplinks, nf);
            }
            match (dev.role, nf.role) {
                (Role::Leaf, Role::Tor) => answer(Group::Tor(nf.device), nf),
                (Role::Leaf, Role::Spine) => {
                    for &c in &self.spine_clusters[&nf.device] {
                        answer(Group::SpinesToward(c), nf);
                    }
                }
                (Role::Spine, Role::Leaf) => {
                    if let Some(c) = meta.device(nf.device).cluster {
                        answer(Group::LeavesOf(c), nf);
                    }
                }
                _ => {}
            }
        }
        let expect = hops
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                v.dedup();
                Expectation::NextHops(v.into())
            })
            .collect();
        // §2.4.1: "besides the prefix it announces" — the ToR delivers
        // its own prefixes locally, and the engines treat a hosted
        // prefix as implicitly satisfied, so it holds no contract there.
        let mut skip: Vec<u32> = Vec::new();
        if dev.role == Role::Tor {
            for &own in meta.hosted_by(id) {
                skip.extend_from_slice(plan.class.specs.exactly(own));
            }
            skip.sort_unstable();
            skip.dedup();
        }
        DeviceContracts {
            class: plan.class.clone(),
            device: id,
            expect,
            skip,
        }
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
    fn hop_devices(meta: &MetadataService, c: Contract) -> Vec<DeviceId> {
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
        let by_prefix: HashMap<Prefix, Contract> =
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
        let by_prefix: HashMap<Prefix, Contract> =
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
            assert_eq!(h, ft);
        }
    }

    #[test]
    fn affected_finds_ancestors_descendants_twins_and_defaults() {
        let contract = |prefix: &str, kind| (prefix.parse().unwrap(), kind, Expectation::Local);
        use ContractKind::{Default, Specific};
        let dc = DeviceContracts::new(DeviceId(0), [
            contract("10.0.1.0/24", Specific), // 0
            contract("0.0.0.0/0", Default),    // 1
            contract("10.0.0.0/16", Specific), // 2: contains 0, 3 and 5
            contract("10.0.1.128/25", Specific), // 3: inside 0
            contract("192.168.0.0/24", Specific), // 4
            contract("10.0.1.0/24", Specific), // 5: twin of 0
        ]);
        let affected = |touched: &[&str]| {
            dc.affected(touched.iter().map(|p| p.parse().unwrap()))
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
    fn index_is_the_classes_and_a_cold_sweep_builds_none_per_device() {
        use crate::engine::{trie::TrieEngine, Engine};
        let (f, contracts, _meta) = fig3_contracts();
        let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
        let class_of = |d: DeviceId| Arc::as_ptr(&contracts[d.0 as usize].class);
        // Built with the class, before any device asks: the two ToRs of
        // different clusters answer from one index.
        assert_eq!(class_of(f.tors[0]), class_of(f.tors[1]));
        let shared = &contracts[f.tors[0].0 as usize].class;
        assert_eq!(shared.specs.at.len(), f.prefixes.len());
        let holders = Arc::strong_count(shared);
        // A cold sweep and a delta call read it; neither builds or
        // attaches anything — a device is its class handle, a hop set
        // per group and a skip list, before and after.
        let delta = netprim::wire::FibDelta {
            patch: bgpsim::FibPatch::new(vec![bgpsim::PatchOp::Withdraw(f.prefixes[1])]),
            ..Default::default()
        };
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let report = TrieEngine::new().validate_device(fib, dc);
            TrieEngine::new().validate_delta(fib, dc, &delta, &report);
        }
        assert_eq!(Arc::strong_count(shared), holders);
        assert_eq!(class_of(f.tors[0]), Arc::as_ptr(shared));
        let tor = &contracts[f.tors[0].0 as usize];
        assert_eq!((tor.expect.len(), tor.skip.len()), (1, 1));
        // A copy shares the class and equals the original.
        let copy = tor.clone();
        assert!(Arc::ptr_eq(&copy.class, &tor.class));
        assert_eq!(&copy, tor);
    }

    #[test]
    fn default_clos_has_one_class_per_role_and_locality() {
        use dctopo::{build_clos, ClosParams};
        let p = ClosParams::default();
        let meta = MetadataService::from_topology(&build_clos(&p));
        let contracts = generate_contracts(&meta);
        let mut classes: Vec<*const ContractClass> = Vec::new();
        let mut by_key: HashMap<(Role, Option<ClusterId>), *const ContractClass> = HashMap::new();
        for dev in meta.devices() {
            let dc = &contracts[dev.id.0 as usize];
            if dev.role == Role::RegionalSpine {
                assert_eq!(dc, &DeviceContracts::default());
                assert!(dc.is_empty() && dc.contracts().next().is_none());
                continue;
            }
            let class = Arc::as_ptr(&dc.class);
            classes.push(class);
            // Leaves share per cluster, ToRs and spines fleet-wide.
            let key = (dev.role, dev.cluster.filter(|_| dev.role == Role::Leaf));
            assert_eq!(*by_key.entry(key).or_insert(class), class, "{dev:?}");
        }
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), 2 + p.clusters as usize);
        assert_eq!(by_key.len(), classes.len());
    }

    #[test]
    fn a_tor_with_two_prefixes_never_sees_its_skipped_positions() {
        use crate::engine::{trie::TrieEngine, Engine};
        use dctopo::{build_clos, ClosParams};
        let p = ClosParams {
            prefixes_per_tor: 2,
            ..ClosParams::default()
        };
        let topology = build_clos(&p);
        let meta = MetadataService::from_topology(&topology);
        let contracts = generate_contracts(&meta);
        let fibs = bgpsim::simulate(&topology, &bgpsim::SimConfig::healthy());
        let all: Vec<Prefix> = meta.prefix_facts().iter().map(|f| f.prefix).collect();
        for dev in meta.devices().iter().filter(|d| d.role == Role::Tor) {
            let dc = &contracts[dev.id.0 as usize];
            let own = meta.hosted_by(dev.id);
            assert_eq!((own.len(), dc.skip.len()), (2, 2));
            assert_eq!(dc.len(), 1 + all.len() - 2);
            // Every view agrees on what the set holds.
            assert_eq!(dc.contracts().count(), dc.len());
            assert_eq!(dc.specifics().count(), dc.len() - 1);
            assert!(dc.contracts().all(|c| !own.contains(&c.prefix)));
            assert_eq!(dc.default_contract().unwrap().kind, ContractKind::Default);
            // Touching everything — own prefixes and the default route
            // included — reaches every contract once, in report order,
            // and nothing else.
            let mut touched = all.clone();
            touched.push(Prefix::DEFAULT);
            let affected = dc.affected(touched);
            assert!(affected.windows(2).all(|w| w[0] < w[1]));
            assert!(affected.iter().all(|i| !dc.skip.contains(i)));
            let walked: Vec<Contract> = dc.contracts().collect();
            let reached: Vec<Contract> = affected.iter().map(|&i| dc.contract(i)).collect();
            assert_eq!(reached, walked);
            for &p in own {
                assert_eq!(dc.affected([p]), []);
                assert_eq!(dc.holders(p, ContractKind::Specific), []);
            }
            let other = all.iter().find(|p| !own.contains(p)).unwrap();
            let held = dc.holders(*other, ContractKind::Specific);
            assert_eq!(held.len(), 1);
            assert_eq!(dc.contract(held[0]).prefix, *other);
            let report = TrieEngine::new().validate_device(&fibs[dev.id.0 as usize], dc);
            assert!(report.is_clean(), "{:?}", report.violations);
            assert_eq!(report.contracts_checked, dc.len());
        }
    }

    #[test]
    fn every_dc_device_has_exactly_one_default_contract() {
        let (f, contracts, meta) = fig3_contracts();
        for dc in &contracts {
            let defaults = dc
                .contracts()
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
