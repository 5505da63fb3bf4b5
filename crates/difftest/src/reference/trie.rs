//! The original pointer-chasing trie engine, frozen as an oracle.
//!
//! This is the §2.5.2 algorithm exactly as it shipped before the flat
//! rewrite in [`rcdc::engine::trie`]: one heap-allocated binary trie
//! per device, one full candidate walk per contract. The
//! `flat_trie_equivalence` suite judges random workloads against it and
//! the `engines` oracle cross-checks it on every seed. It shares
//! nothing with the engine it judges — `Coverage` below is its own
//! copy of the range accumulator — and must stay semantically frozen;
//! performance work goes in [`rcdc::engine::trie`].

use bgpsim::{Fib, FibEntry};
use netprim::wire::FibDelta;
use netprim::{IpRange, Prefix};
use rcdc::contracts::{Contract, ContractKind, DeviceContracts, Expectation};
use rcdc::report::{ValidationReport, Violation, ViolationReason};
use rcdc::Engine;
use std::collections::HashMap;

/// Binary prefix trie over FIB entries.
struct Trie {
    nodes: Vec<Node>,
}

#[derive(Default, Clone)]
struct Node {
    children: [Option<u32>; 2],
    /// Index into the FIB entry array, if a rule ends here.
    entry: Option<u32>,
}

impl Trie {
    fn build(fib: &Fib) -> Trie {
        let mut t = Trie {
            nodes: vec![Node::default()],
        };
        for (i, e) in fib.entries().iter().enumerate() {
            t.insert(e.prefix, i as u32);
        }
        t
    }

    fn insert(&mut self, prefix: Prefix, entry: u32) {
        let mut cur = 0usize;
        for bit_index in 0..prefix.len() {
            let b = prefix.bit(bit_index) as usize;
            let next = match self.nodes[cur].children[b] {
                Some(n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[cur].children[b] = Some(n as u32);
                    n
                }
            };
            cur = next;
        }
        self.nodes[cur].entry = Some(entry);
    }

    /// Candidate rules for a contract range: ancestors (rules whose
    /// prefix contains the contract prefix) and descendants (rules
    /// extending it). Returned as FIB entry indices.
    fn candidates(&self, prefix: Prefix) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = 0usize;
        if let Some(e) = self.nodes[0].entry {
            out.push(e);
        }
        let mut complete_path = true;
        for bit_index in 0..prefix.len() {
            let b = prefix.bit(bit_index) as usize;
            match self.nodes[cur].children[b] {
                Some(n) => {
                    cur = n as usize;
                    if let Some(e) = self.nodes[cur].entry {
                        out.push(e);
                    }
                }
                None => {
                    complete_path = false;
                    break;
                }
            }
        }
        if complete_path {
            // Subtree below the contract's node: all strict extensions.
            // (The node's own entry was already collected above.)
            let mut stack: Vec<u32> = self.nodes[cur]
                .children
                .iter()
                .flatten()
                .copied()
                .collect();
            while let Some(n) = stack.pop() {
                let node = &self.nodes[n as usize];
                if let Some(e) = node.entry {
                    out.push(e);
                }
                stack.extend(node.children.iter().flatten().copied());
            }
        }
        out
    }
}

/// Disjoint-range coverage accumulator over a contract's range.
struct Coverage {
    target: IpRange,
    covered: Vec<IpRange>, // sorted, disjoint
    covered_size: u64,
}

impl Coverage {
    fn new(target: IpRange) -> Coverage {
        Coverage {
            target,
            covered: Vec::new(),
            covered_size: 0,
        }
    }

    /// Add a range; returns the number of target addresses it newly
    /// covers (zero when longer rules already serve its whole span).
    fn add(&mut self, r: IpRange) -> u64 {
        let mut added = 0;
        if let Some(clipped) = r.intersect(self.target) {
            // Merge into the sorted disjoint list.
            let mut new_parts = vec![clipped];
            for &c in &self.covered {
                let mut next = Vec::new();
                for part in new_parts {
                    next.extend(part.subtract(c));
                }
                new_parts = next;
                if new_parts.is_empty() {
                    break;
                }
            }
            for p in new_parts {
                added += p.size();
                self.covered.push(p);
            }
            self.covered_size += added;
            self.covered.sort();
        }
        added
    }

    fn complete(&self) -> bool {
        self.covered_size >= self.target.size()
    }
}

/// The pre-flat-rewrite trie engine (see the module docs). Strict and
/// semantic modes mirror [`rcdc::TrieEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ReferenceTrieEngine {
    strict: bool,
}

impl Default for ReferenceTrieEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceTrieEngine {
    /// Strict-mode reference engine.
    pub fn new() -> ReferenceTrieEngine {
        ReferenceTrieEngine { strict: true }
    }

    /// Semantic-mode (Definition 2.1 only) reference engine.
    pub fn semantic() -> ReferenceTrieEngine {
        ReferenceTrieEngine { strict: false }
    }

    fn check_default(fib: &Fib, c: &Contract, out: &mut Vec<Violation>) {
        let entry = fib.default_entry();
        match (&c.expectation, entry) {
            (Expectation::NextHops(expected), Some(e)) => {
                if e.local {
                    out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    return;
                }
                let actual = fib.next_hops(e);
                if actual != &expected[..] {
                    out.push(Violation::of(
                        c,
                        ViolationReason::DefaultMismatch {
                            expected: expected.to_vec(),
                            actual: actual.to_vec(),
                        },
                    ));
                }
            }
            (Expectation::NextHops(_), None) => {
                out.push(Violation::of(c, ViolationReason::MissingDefault));
            }
            (Expectation::Local, Some(e)) => {
                if !e.local {
                    out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                }
            }
            (Expectation::Local, None) => {
                out.push(Violation::of(c, ViolationReason::MissingDefault));
            }
        }
    }

    fn check_specific(&self, fib: &Fib, trie: &Trie, c: &Contract, out: &mut Vec<Violation>) {
        let expected = match &c.expectation {
            Expectation::NextHops(h) => h,
            Expectation::Local => {
                // Not generated today, but handle defensively: the
                // covering rule must be local.
                if let Some(e) = fib.entry_for(c.prefix) {
                    if !e.local {
                        out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    }
                } else {
                    out.push(Violation::of(c, ViolationReason::MissingRoute));
                }
                return;
            }
        };
        let mut candidates = trie.candidates(c.prefix);
        // Descending prefix length = longest-prefix-match precedence.
        candidates.sort_by(|&a, &b| {
            let (ea, eb) = (&fib.entries()[a as usize], &fib.entries()[b as usize]);
            eb.prefix.len().cmp(&ea.prefix.len())
        });
        let mut coverage = Coverage::new(c.prefix.range());
        if self.strict && fib.entry_for(c.prefix).is_none() {
            // Production strictness: the exact specific route must be
            // programmed, whatever broader rules would do (§2.6.2
            // Migrations).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
        for idx in candidates {
            let e: &FibEntry = &fib.entries()[idx as usize];
            // A rule only matters for the part of the contract range it
            // actually serves (see the flat engine for the full
            // argument); fully shadowed rules are never judged.
            let newly_served = coverage.add(e.prefix.range());
            if newly_served > 0 {
                let actual = fib.next_hops(e);
                let matches = !e.local && actual == &expected[..];
                if !matches {
                    out.push(Violation::of(
                        c,
                        ViolationReason::NextHopMismatch {
                            rule: e.prefix,
                            expected: expected.to_vec(),
                            actual: actual.to_vec(),
                        },
                    ));
                }
            }
            if coverage.complete() {
                return;
            }
        }
        if !coverage.complete()
            && !out
                .iter()
                .any(|v| v.prefix == c.prefix && v.reason == ViolationReason::MissingRoute)
        {
            // Part of the range is served by no rule at all: traffic is
            // dropped there (no default route either, or the default
            // would have covered everything).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
    }

    /// A contract's verdict can only change if the delta touched a rule
    /// inside its candidate set (ancestor or descendant prefix).
    fn contract_affected(c: &Contract, touched: &[Prefix]) -> bool {
        match c.kind {
            ContractKind::Default => touched.iter().any(|p| p.is_default()),
            ContractKind::Specific => touched.iter().any(|p| p.overlaps(c.prefix)),
        }
    }
}

impl Engine for ReferenceTrieEngine {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        let trie = Trie::build(fib);
        let mut violations = Vec::new();
        for c in contracts.contracts() {
            let c = &c;
            match c.kind {
                ContractKind::Default => Self::check_default(fib, c, &mut violations),
                ContractKind::Specific => self.check_specific(fib, &trie, c, &mut violations),
            }
        }
        ValidationReport {
            violations,
            contracts_checked: contracts.len(),
            solver_stats: smtkit::SessionStats::default(),
        }
    }

    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        let touched: Vec<Prefix> = delta.patch.prefixes().collect();
        if touched.len() * 4 > fib.len() || prior.contracts_checked != contracts.len() {
            return self.validate_device(fib, contracts);
        }
        let mut carry: HashMap<(Prefix, ContractKind), Vec<&Violation>> = HashMap::new();
        for v in &prior.violations {
            carry.entry((v.prefix, v.kind)).or_default().push(v);
        }
        // The carry is keyed by what a violation says of its contract,
        // which duplicated contracts share: carrying would hand each of
        // them the whole group's violations, so they are re-checked.
        let mut holders: HashMap<(Prefix, ContractKind), usize> = HashMap::new();
        for c in contracts.contracts() {
            *holders.entry((c.prefix, c.kind)).or_default() += 1;
        }
        let mut trie = None;
        let mut violations = Vec::new();
        for c in contracts.contracts() {
            let c = &c;
            if Self::contract_affected(c, &touched) || holders[&(c.prefix, c.kind)] > 1 {
                match c.kind {
                    ContractKind::Default => Self::check_default(fib, c, &mut violations),
                    ContractKind::Specific => {
                        let trie = trie.get_or_insert_with(|| Trie::build(fib));
                        self.check_specific(fib, trie, c, &mut violations);
                    }
                }
            } else if let Some(prev) = carry.get(&(c.prefix, c.kind)) {
                violations.extend(prev.iter().map(|&v| v.clone()));
            }
        }
        ValidationReport {
            violations,
            contracts_checked: contracts.len(),
            solver_stats: smtkit::SessionStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "trie-ref"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::MetadataService;

    #[test]
    fn reference_engine_is_clean_on_healthy_fabric() {
        let f = dctopo::generator::figure3();
        let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
        let contracts = rcdc::generate_contracts(&MetadataService::from_topology(&f.topology));
        let eng = ReferenceTrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            assert!(eng.validate_device(fib, dc).is_clean());
        }
    }
}
