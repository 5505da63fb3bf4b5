//! The specialized trie-based verification algorithm (§2.5.2),
//! rebuilt for raw speed: a flat array-packed trie plus one batched
//! traversal for the whole contract set.
//!
//! **Flat layout.** FIB entries sorted by `(address, length)` are
//! exactly a DFS preorder of the rule containment forest: two prefixes
//! are either nested or disjoint, so every rule's descendants form a
//! contiguous run right after it. The trie is therefore one `Vec` of
//! nodes in that order — each carrying its prefix, FIB entry index and
//! exclusive subtree end as `u32` indices into the arena — built in
//! O(n) with a stack, no per-bit pointer chasing.
//!
//! **Batched traversal.** Instead of one candidate walk per contract,
//! the specific contracts are sorted into the same `(address, length)`
//! order and judged in a single left-to-right sweep (the intent-based
//! slicing idea: contracts sharing a prefix subtree share the walk).
//! The sweep keeps a stack of open ancestors — rules containing the
//! current contract — and a cursor into the node array; advancing to
//! the next contract pushes the rules that contain it and skips
//! disjoint subtrees in O(1) via `subtree_end`. A contract's
//! candidates are then its ancestor stack plus the contiguous
//! descendant run at the cursor. Soundness: the candidate set
//! `{r | C ⊆ r ∨ r ⊆ C}` is identical to the per-contract walk's, and
//! judging order (descending prefix length) is preserved, so verdicts
//! are rule-for-rule identical — difftest's `flat_trie_equivalence`
//! suite and `engines` oracle gate this against the frozen pointer
//! trie kept there and the SMT engine. The root rule (`0.0.0.0/0`), when present, is the first
//! node and contains every contract, so it enters the ancestor stack
//! at the first contract and never leaves: default-route semantics
//! survive group boundaries by construction.
//!
//! **Bitset next-hop matching.** Next-hop set comparisons go through a
//! per-device [`HopSet`] codex: each distinct address gets a bit, FIB
//! pool sets and contract expectations are encoded once, and the
//! per-candidate comparison is a 64-byte mask equality instead of an
//! address-vector compare. Encodings that exceed the bitset capacity
//! (or non-canonical expectation vectors) fall back to the exact
//! vector compare, so verdicts never change.
//!
//! For the common workload (exact prefix hit) a contract costs one
//! cursor advance, one mask compare and no allocation, which is why
//! this engine is orders of magnitude faster than the SMT path
//! (experiment E1).
//!
//! **One incremental body over a `(base, patch)` view.** Revalidation
//! after a small change is locate → judge → splice
//! (`TrieEngine::revalidate`): ask the contract set which contracts
//! the touched prefixes can affect, judge those, carry the rest of the
//! prior report over. What it judges against is a `View` — a base
//! table seen through a [`FibPatch`], rules named by `u32` handles —
//! so the same body serves [`Engine::validate_delta`] (the new table
//! as it stands: the patch names where it changed, the view's is
//! empty) and [`Engine::validate_patch`] (a what-if state: the
//! anchor's table plus the ~3 rules the fault moved). When the
//! re-judged contracts are few, candidates come from binary searches
//! over the base's sorted entries, corrected by the patch, and the
//! patched table is never built; the batched sweep needs the arena, so
//! it — and a patch that rewrites a large share of the table — builds
//! the table first and proceeds as if handed it.

use crate::contracts::{preorder_key, Contract, ContractKind, DeviceContracts, Expectation};
use crate::engine::Engine;
use crate::report::{ValidationReport, Violation, ViolationReason};
use bgpsim::{Fib, FibPatch, PatchOp};
use netprim::wire::{DeltaRule, FibDelta};
use netprim::{HopSet, IpRange, Ipv4, Prefix};
use std::borrow::Cow;
use std::collections::HashMap;

/// One rule in the flat trie arena.
struct FlatNode {
    prefix: Prefix,
    /// Index into the FIB entry array.
    entry: u32,
    /// Exclusive arena end of this rule's descendant run.
    subtree_end: u32,
}

/// Array-packed prefix trie: nodes in DFS preorder, `u32` links, one
/// contiguous arena.
pub(crate) struct FlatTrie {
    nodes: Vec<FlatNode>,
}

impl FlatTrie {
    pub(crate) fn build(fib: &Fib) -> FlatTrie {
        let entries = fib.entries();
        let order = Self::preorder(fib);
        let mut nodes: Vec<FlatNode> = Vec::with_capacity(order.len());
        // Stack of open ancestors; a node not containing the incoming
        // prefix can never contain a later one (preorder), so it is
        // closed permanently and its subtree end is known.
        let mut open: Vec<u32> = Vec::new();
        for ei in order {
            let p = entries[ei as usize].prefix;
            let idx = nodes.len() as u32;
            while let Some(&top) = open.last() {
                if nodes[top as usize].prefix.contains_prefix(p) {
                    break;
                }
                nodes[top as usize].subtree_end = idx;
                open.pop();
            }
            nodes.push(FlatNode {
                prefix: p,
                entry: ei,
                subtree_end: 0, // patched when closed
            });
            open.push(idx);
        }
        let end = nodes.len() as u32;
        for i in open {
            nodes[i as usize].subtree_end = end;
        }
        FlatTrie { nodes }
    }

    /// Entry indices in DFS-preorder (`preorder_key`) order.
    ///
    /// The FIB is sorted by (descending length, ascending address), so
    /// each length run is already ascending in `preorder_key`; preorder
    /// is their k-way merge over at most 33 runs (2–3 in real tables).
    /// That makes ordering O(n·k) pointer bumps instead of a full
    /// comparison sort — `build` is the dominant per-device cost of a
    /// cold validation sweep after the batched-sweep rewrite.
    fn preorder(fib: &Fib) -> Vec<u32> {
        let entries = fib.entries();
        let n = entries.len();
        // Length-run boundaries: (cursor, end) per run.
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let len = entries[start].prefix.len();
            let end = start
                + entries[start..].partition_point(|e| e.prefix.len() == len);
            runs.push((start as u32, end as u32));
            start = end;
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        match runs.as_slice() {
            [] => {}
            [_] => order.extend(0..n as u32),
            _ => {
                while let Some(best) = runs
                    .iter()
                    .enumerate()
                    .filter(|(_, &(c, e))| c < e)
                    .min_by_key(|(_, &(c, _))| {
                        preorder_key(entries[c as usize].prefix)
                    })
                    .map(|(r, _)| r)
                {
                    let (c, e) = runs[best];
                    // Take the whole stretch of this run that stays
                    // below every other run's head key.
                    let limit = runs
                        .iter()
                        .enumerate()
                        .filter(|&(r, &(c2, e2))| r != best && c2 < e2)
                        .map(|(_, &(c2, _))| preorder_key(entries[c2 as usize].prefix))
                        .min()
                        .unwrap_or(u64::MAX);
                    let mut c = c;
                    while c < e && preorder_key(entries[c as usize].prefix) < limit {
                        order.push(c);
                        c += 1;
                    }
                    if c == runs[best].0 {
                        // Head key == another head key is impossible
                        // (prefixes are unique per FIB), so progress is
                        // guaranteed; this arm is defensive.
                        order.push(c);
                        c += 1;
                    }
                    runs[best].0 = c;
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        order
    }

    /// Direct children of node `i`: hop the arena by `subtree_end`.
    #[cfg(test)]
    fn children(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let end = self.nodes[i as usize].subtree_end;
        std::iter::successors(
            (i + 1 < end).then_some(i + 1),
            move |&c| {
                let next = self.nodes[c as usize].subtree_end;
                (next < end).then_some(next)
            },
        )
    }
}

/// One rule of the table being judged.
#[derive(Clone, Copy)]
struct Rule {
    prefix: Prefix,
    local: bool,
    /// Names the rule's next hops to [`View::hops`] and the
    /// [`HopCodex`]: a base pool id, or the pool length plus `j` for
    /// the rule patch outcome `j` sets — so a patch rule never aliases
    /// a pooled set.
    hops: u32,
}

/// The table a judgement reads: a base table seen through a patch,
/// never built. Rules are named by `u32` handles — `i < base.len()` is
/// base entry `i`, `base.len() + j` is the rule patch outcome `j` sets.
/// A base entry the patch replaces or withdraws is still there under
/// its handle; it is the candidate lookup that must not hand it out.
struct View<'a> {
    base: &'a Fib,
    patch: &'a [PatchOp],
}

impl<'a> View<'a> {
    /// A table as it stands: the empty patch.
    fn of(fib: &'a Fib) -> View<'a> {
        View {
            base: fib,
            patch: &[],
        }
    }

    fn set_rule(&self, j: usize) -> &'a DeltaRule {
        match &self.patch[j] {
            PatchOp::Set(r) => r,
            PatchOp::Withdraw(p) => unreachable!("withdrawal of {p} named as a rule"),
        }
    }

    #[inline]
    fn rule(&self, handle: u32) -> Rule {
        match self.base.entries().get(handle as usize) {
            Some(e) => Rule {
                prefix: e.prefix,
                local: e.local,
                hops: e.set,
            },
            None => {
                let j = handle as usize - self.base.len();
                let r = self.set_rule(j);
                Rule {
                    prefix: r.prefix,
                    local: r.local,
                    hops: (self.base.set_pool_len() + j) as u32,
                }
            }
        }
    }

    #[inline]
    fn hops(&self, id: u32) -> &'a [Ipv4] {
        match (id as usize).checked_sub(self.base.set_pool_len()) {
            None => self.base.set(id),
            Some(j) => &self.set_rule(j).next_hops,
        }
    }

    /// The handle patch outcome `j` puts a rule under, if it sets one.
    fn set_handle(&self, j: usize) -> Option<u32> {
        matches!(self.patch[j], PatchOp::Set(_)).then(|| (self.base.len() + j) as u32)
    }

    /// The rule for exactly `prefix`: the patch's word before the
    /// base's.
    fn exact(&self, prefix: Prefix) -> Option<Rule> {
        let handle = match self.patch.iter().position(|op| op.prefix() == prefix) {
            Some(j) => self.set_handle(j),
            None => self.base.index_of(prefix).map(|i| i as u32),
        };
        handle.map(|h| self.rule(h))
    }

    /// The `0.0.0.0/0` rule. Outcomes are in canonical order, so the
    /// patch's word on it is its last.
    fn default_rule(&self) -> Option<Rule> {
        match self.patch.last() {
            Some(op) if op.prefix().is_default() => {
                self.set_handle(self.patch.len() - 1).map(|h| self.rule(h))
            }
            // Sorted by descending length: the default, if any, is last.
            _ => self
                .base
                .default_entry()
                .map(|_| self.rule(self.base.len() as u32 - 1)),
        }
    }
}

/// Per-device next-hop encoding: addresses → bits, so candidate
/// matching is a [`HopSet`] equality. Rule hop sets are encoded at
/// most once (memoized by [`Rule::hops`] id), contract expectations at
/// most once per group of the set (memoized by [`Contract::group`] —
/// a ToR's thousands of contracts all read one).
struct HopCodex {
    enabled: bool,
    universe: HashMap<Ipv4, u16, BuildFold>,
    pool: Vec<Option<HopSet>>,
    /// By contract group: unresolved, or the group's encoding (`None`
    /// when it has none).
    expect: Vec<Option<Option<HopSet>>>,
    /// The previous `hops_match` verdict, keyed by (rule hop-set id,
    /// contract group). Both identify their hop set exactly — the id
    /// names one pooled set or one patch rule, the group one
    /// expectation of the set being judged — so a repeat is the same
    /// comparison. Long stretches of contracts hit one (ECMP set,
    /// expectation) pair, and the repeat costs an 8-byte compare
    /// instead of two 64-byte set loads.
    last_verdict: Option<(u32, u32, bool)>,
}

/// Multiply-fold hasher (the rustc `FxHash` recipe) for the codex's
/// `Ipv4` keys. The map sits on the hop-set encoding path, where
/// SipHash would be the single largest cost; keys here are
/// attacker-free, so the collision-resistance trade is safe.
#[derive(Default)]
struct FoldHasher(u64);

impl std::hash::Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
}

impl FoldHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type BuildFold = std::hash::BuildHasherDefault<FoldHasher>;

impl HopCodex {
    fn new(view: &View, contracts: &DeviceContracts) -> HopCodex {
        HopCodex {
            enabled: true,
            universe: HashMap::default(),
            pool: vec![None; view.base.set_pool_len() + view.patch.len()],
            expect: vec![None; contracts.groups()],
            last_verdict: None,
        }
    }

    /// A codex that encodes nothing: every comparison is the exact
    /// vector compare. For a handful of contracts, where building the
    /// encoding costs more than the compares it would save.
    fn off() -> HopCodex {
        HopCodex {
            enabled: false,
            universe: HashMap::default(),
            pool: Vec::new(),
            expect: Vec::new(),
            last_verdict: None,
        }
    }

    fn bit_of(&mut self, a: Ipv4) -> Option<u16> {
        if let Some(&b) = self.universe.get(&a) {
            return Some(b);
        }
        let next = self.universe.len();
        if next >= HopSet::CAPACITY {
            return None;
        }
        self.universe.insert(a, next as u16);
        Some(next as u16)
    }

    fn encode(&mut self, addrs: &[Ipv4]) -> Option<HopSet> {
        let mut s = HopSet::new();
        for &a in addrs {
            s.insert(self.bit_of(a)?);
        }
        Some(s)
    }

    fn set_of_rule(&mut self, view: &View, id: u32) -> Option<HopSet> {
        if let Some(s) = self.pool[id as usize] {
            return Some(s);
        }
        let s = self.encode(view.hops(id));
        if let Some(s) = s {
            self.pool[id as usize] = Some(s);
        }
        s
    }

    fn set_of_expected(&mut self, group: u32, expected: &[Ipv4]) -> Option<HopSet> {
        if let Some(s) = self.expect[group as usize] {
            return s;
        }
        // Bitset equality is set equality; it matches the exact vector
        // compare it replaces only because FIB hop vectors are
        // canonical (sorted, duplicate-free). A non-canonical
        // expectation can never equal a canonical vector, so it gets
        // no encoding and falls back to the (always-false) compare.
        let canonical = expected.windows(2).all(|w| w[0] < w[1]);
        let s = if canonical { self.encode(expected) } else { None };
        self.expect[group as usize] = Some(s);
        s
    }

    /// Does the rule forward to exactly `expected`, the hop set of
    /// contract group `group`? Verdict-identical to
    /// `view.hops(id) == expected`.
    fn hops_match(&mut self, view: &View, id: u32, group: u32, expected: &[Ipv4]) -> bool {
        if self.enabled {
            if let Some((s, g, v)) = self.last_verdict {
                if s == id && g == group {
                    return v;
                }
            }
            match (self.set_of_rule(view, id), self.set_of_expected(group, expected)) {
                (Some(a), Some(b)) => {
                    let v = a == b;
                    self.last_verdict = Some((id, group, v));
                    return v;
                }
                (None, _) => self.enabled = false,
                _ => {}
            }
        }
        view.hops(id) == expected
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

/// The trie-based engine (a flat trie is built per device).
///
/// In **strict** mode (the production default) a specific contract also
/// requires an exact specific route to exist: §2.6.2's migration case
/// shows RCDC flagging ToRs whose specifics were absent even though
/// defaults delivered traffic correctly ("the lack of specific routes
/// could potentially cause the traffic to use a longer path in the
/// presence of some link failures"). **Semantic** mode checks only the
/// forwarding formula of Definition 2.1.
#[derive(Debug, Clone, Copy)]
pub struct TrieEngine {
    strict: bool,
}

impl Default for TrieEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TrieEngine {
    /// Production engine: strict mode.
    pub fn new() -> TrieEngine {
        TrieEngine { strict: true }
    }

    /// Formula-equivalence-only engine (Definition 2.1 semantics).
    pub fn semantic() -> TrieEngine {
        TrieEngine { strict: false }
    }

    fn check_default(view: &View, c: &Contract, out: &mut Vec<Violation>) {
        match (c.expectation, view.default_rule()) {
            (Expectation::NextHops(expected), Some(e)) => {
                if e.local {
                    out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    return;
                }
                let actual = view.hops(e.hops);
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

    /// Judge specific contracts in one sweep over the flat trie.
    ///
    /// `specs` are contract indices in prefix preorder, same-prefix
    /// contracts in report order (the order [`DeviceContracts::preorder`]
    /// walks) — which, with the sweep-local `prior_missing` flag,
    /// reproduces the reference engine's cross-contract `MissingRoute`
    /// dedup exactly. Emitted violations are tagged with the index so
    /// the caller can restore report order.
    fn judge_specifics(
        &self,
        fib: &Fib,
        trie: &FlatTrie,
        contracts: &DeviceContracts,
        specs: impl Iterator<Item = u32>,
        tagged: &mut Vec<(u32, Violation)>,
    ) {
        let view = &View::of(fib);
        let mut codex = HopCodex::new(view, contracts);
        let nodes = &trie.nodes;
        let n = nodes.len();
        // Sweep state: open ancestors of the current contract + the
        // cursor at the first node not yet classified. Both only move
        // forward — a popped ancestor or skipped subtree can never
        // contain a later (preorder-greater) contract.
        let mut stack: Vec<u32> = Vec::new();
        let mut cursor = 0usize;
        // Scratch reused across contracts.
        let mut desc: Vec<u32> = Vec::new();
        let mut anc: Vec<u32> = Vec::new();
        let mut cviol: Vec<Violation> = Vec::new();
        // Cross-contract MissingRoute dedup (same-prefix contracts are
        // adjacent in sweep order).
        let mut prior_prefix: Option<Prefix> = None;
        let mut prior_missing = false;

        for idx in specs {
            let c = &contracts.contract(idx);
            if prior_prefix != Some(c.prefix) {
                prior_prefix = Some(c.prefix);
                prior_missing = false;
            }
            while let Some(&top) = stack.last() {
                if nodes[top as usize].prefix.contains_prefix(c.prefix) {
                    break;
                }
                stack.pop();
            }
            let target = preorder_key(c.prefix);
            while cursor < n {
                let node = &nodes[cursor];
                if preorder_key(node.prefix) >= target {
                    break;
                }
                if node.prefix.contains_prefix(c.prefix) {
                    stack.push(cursor as u32);
                    cursor += 1;
                } else {
                    // A preorder-smaller rule not containing the
                    // contract is disjoint from it — and so is its
                    // whole subtree.
                    cursor = node.subtree_end as usize;
                }
            }
            // Descendant candidates: the contiguous run of contained
            // rules at the cursor. The cursor itself does not advance —
            // a later (possibly nested) contract may anchor inside.
            let mut i = cursor;
            while i < n && c.prefix.contains_prefix(nodes[i].prefix) {
                i += 1;
            }
            desc.clear();
            desc.extend(nodes[cursor..i].iter().map(|nd| nd.entry));
            // Ancestors leaf→root: strictly shorter rules containing
            // the contract, in descending prefix length.
            anc.clear();
            anc.extend(stack.iter().rev().map(|&s| nodes[s as usize].entry));

            cviol.clear();
            self.judge_one(view, &mut desc, &anc, c, &mut codex, prior_missing, &mut cviol);
            prior_missing |= cviol
                .iter()
                .any(|v| v.reason == ViolationReason::MissingRoute);
            tagged.extend(cviol.drain(..).map(|v| (idx, v)));
        }
    }

    /// Judge specific contracts without a trie: candidates come from
    /// binary searches over the base's `(descending length, ascending
    /// address)` entry order — one address-range probe per length run
    /// at or below the contract's length for descendants, one address
    /// probe per shorter run for the unique possible ancestor — and
    /// then take the patch's word: a base rule the patch replaces or
    /// withdraws is dropped, a rule it sets joins under its own handle.
    /// The candidate set `{r | C ⊆ r ∨ r ⊆ C}` and its judging order are
    /// exactly what the sweep finds in the patched table, so verdicts
    /// stay byte-identical; only the lookup strategy differs. Worth it
    /// when a delta re-checks a handful of contracts in a large table:
    /// O(specs · (runs · log n + patch)) against the sweep's O(n) trie
    /// build — and the only lookup that needs no table built.
    fn judge_specifics_direct(
        &self,
        view: &View,
        contracts: &DeviceContracts,
        specs: &[u32],
        tagged: &mut Vec<(u32, Violation)>,
    ) {
        let entries = view.base.entries();
        // Length-run boundaries in storage order (descending length).
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut start = 0usize;
        while start < entries.len() {
            let len = entries[start].prefix.len();
            let end =
                start + entries[start..].partition_point(|e| e.prefix.len() == len);
            runs.push((start as u32, end as u32));
            start = end;
        }
        let mut codex = HopCodex::off();
        let mut desc: Vec<u32> = Vec::new();
        let mut anc: Vec<u32> = Vec::new();
        let mut cviol: Vec<Violation> = Vec::new();
        let mut prior_prefix: Option<Prefix> = None;
        let mut prior_missing = false;
        for &idx in specs {
            let c = &contracts.contract(idx);
            if prior_prefix != Some(c.prefix) {
                prior_prefix = Some(c.prefix);
                prior_missing = false;
            }
            desc.clear();
            anc.clear();
            let c_addr = c.prefix.addr();
            let c_end = u64::from(c_addr.0) + (1u64 << (32 - c.prefix.len()));
            for &(s, e) in &runs {
                let run = &entries[s as usize..e as usize];
                if run[0].prefix.len() >= c.prefix.len() {
                    // Descendants: aligned blocks no larger than the
                    // contract's lie entirely inside it or entirely
                    // outside, so containment is an address-range test.
                    let lo = run.partition_point(|r| r.prefix.addr() < c_addr);
                    let hi = lo
                        + run[lo..].partition_point(|r| {
                            u64::from(r.prefix.addr().0) < c_end
                        });
                    desc.extend(s + lo as u32..s + hi as u32);
                } else {
                    // Ancestors: within one length run blocks are
                    // disjoint, so the only rule that can contain the
                    // contract is the last one at or below its address.
                    // Runs arrive in descending length, matching the
                    // sweep's leaf→root stack order.
                    let p = run.partition_point(|r| r.prefix.addr() <= c_addr);
                    if p > 0 && run[p - 1].prefix.contains_prefix(c.prefix) {
                        anc.push(s + p as u32 - 1);
                    }
                }
            }
            for (j, op) in view.patch.iter().enumerate() {
                let p = op.prefix();
                let inside = c.prefix.contains_prefix(p);
                if !inside && !p.contains_prefix(c.prefix) {
                    continue;
                }
                if let Some(replaced) = view.base.index_of(p) {
                    let list = if inside { &mut desc } else { &mut anc };
                    list.retain(|&h| h as usize != replaced);
                }
                match view.set_handle(j) {
                    Some(h) if inside => desc.push(h),
                    Some(h) => {
                        // Keep leaf→root order: at most one candidate
                        // per length contains the contract.
                        let at = anc
                            .iter()
                            .position(|&a| view.rule(a).prefix.len() < p.len())
                            .unwrap_or(anc.len());
                        anc.insert(at, h);
                    }
                    None => {}
                }
            }
            cviol.clear();
            self.judge_one(view, &mut desc, &anc, c, &mut codex, prior_missing, &mut cviol);
            prior_missing |= cviol
                .iter()
                .any(|v| v.reason == ViolationReason::MissingRoute);
            tagged.extend(cviol.drain(..).map(|v| (idx, v)));
        }
    }

    /// Judge one specific contract given its candidate rule handles:
    /// `descendants` (rules the contract contains, re-sorted here) and
    /// `ancestors` (rules strictly containing it, descending prefix
    /// length). Verdicts and violation order are identical to the
    /// reference engine's descending-prefix-length candidate walk,
    /// whichever lookup produced the candidates (trie sweep or direct
    /// binary search).
    #[allow(clippy::too_many_arguments)]
    fn judge_one(
        &self,
        view: &View,
        descendants: &mut [u32],
        ancestors: &[u32],
        c: &Contract,
        codex: &mut HopCodex,
        prior_missing: bool,
        out: &mut Vec<Violation>,
    ) {
        let expected = match c.expectation {
            Expectation::NextHops(h) => h,
            Expectation::Local => {
                // Not generated today, but handle defensively: the
                // covering rule must be local.
                if let Some(e) = view.exact(c.prefix) {
                    if !e.local {
                        out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    }
                } else {
                    out.push(Violation::of(c, ViolationReason::MissingRoute));
                }
                return;
            }
        };
        let mismatch = |e: Rule, codex: &mut HopCodex| {
            let matches = !e.local && codex.hops_match(view, e.hops, c.group, expected);
            (!matches).then(|| {
                Violation::of(
                    c,
                    ViolationReason::NextHopMismatch {
                        rule: e.prefix,
                        expected: expected.to_vec(),
                        actual: view.hops(e.hops).to_vec(),
                    },
                )
            })
        };
        // Fast path (the common workload): the only candidate that can
        // serve the range is an exact-match rule with no extensions —
        // one mask compare, no coverage accumulator, no allocation.
        if let [only] = *descendants {
            let e = view.rule(only);
            if e.prefix == c.prefix {
                if let Some(v) = mismatch(e, codex) {
                    out.push(v);
                }
                return;
            }
        }
        // Candidates in descending prefix length: descendants
        // re-sorted, then the ancestors (strictly shorter than the
        // contract). Same-length ties break on descending address —
        // the emission order of the reference engine's trie walk — so
        // reports stay byte-identical across the rewrite.
        descendants.sort_unstable_by_key(|&i| {
            let p = view.rule(i).prefix;
            (std::cmp::Reverse(p.len()), std::cmp::Reverse(p.addr()))
        });
        // Minimal length, minimal address sorts last: an exact-match
        // rule can only be the final descendant.
        let exact = descendants
            .last()
            .is_some_and(|&i| view.rule(i).prefix == c.prefix);
        if self.strict && !exact {
            // Production strictness: the exact specific route must be
            // programmed, whatever broader rules would do (§2.6.2
            // Migrations).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
        let mut coverage = Coverage::new(c.prefix.range());
        for &i in descendants.iter().chain(ancestors.iter()) {
            let e = view.rule(i);
            // A rule only matters for the part of the contract range it
            // actually serves: extensions serve their own range; an
            // ancestor rule serves whatever is left uncovered. A rule
            // whose span is entirely shadowed by longer rules serves
            // nothing — longest-prefix match never selects it inside
            // the contract range, so its next hops are irrelevant to
            // Definition 2.1 and flagging it would disagree with the
            // SMT engine's formula (caught by the differential fuzzer).
            let newly_served = coverage.add(e.prefix.range());
            if newly_served > 0 {
                if let Some(v) = mismatch(e, codex) {
                    out.push(v);
                }
            }
            if coverage.complete() {
                return;
            }
        }
        if !coverage.complete()
            && !prior_missing
            && !out.iter().any(|v| v.reason == ViolationReason::MissingRoute)
        {
            // Part of the range is served by no rule at all: traffic is
            // dropped there (no default route either, or the default
            // would have covered everything).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
    }

    /// Check the default contracts at `indices`.
    fn check_defaults(
        view: &View,
        contracts: &DeviceContracts,
        indices: impl Iterator<Item = u32>,
        tagged: &mut Vec<(u32, Violation)>,
    ) {
        let mut buf: Vec<Violation> = Vec::new();
        for i in indices {
            Self::check_default(view, &contracts.contract(i), &mut buf);
            tagged.extend(buf.drain(..).map(|v| (i, v)));
        }
    }

    fn finish(
        mut tagged: Vec<(u32, Violation)>,
        contracts: &DeviceContracts,
    ) -> ValidationReport {
        tagged.sort_by_key(|(i, _)| *i); // stable: per-contract order kept
        ValidationReport {
            violations: tagged.into_iter().map(|(_, v)| v).collect(),
            contracts_checked: contracts.len(),
            solver_stats: smtkit::SessionStats::default(),
        }
    }

    /// The incremental path (§2.6.1's continuous monitoring workload,
    /// and every state a what-if explorer prices): locate the contracts
    /// whose prefix space `patch` touched, judge only those, and splice
    /// their verdicts into `prior` by contract index. `base` is the
    /// table `prior` judged, read through the patch — or, when
    /// `applied`, the table the patch already led to, read as it
    /// stands. Verdicts are emitted in contract order either way, so
    /// the result is identical — violation for violation — to a full
    /// pass over the patched table. (Same-prefix contracts are affected
    /// together, so the sweep-local `MissingRoute` dedup sees the same
    /// neighbors.)
    fn revalidate(
        &self,
        base: &Fib,
        patch: &FibPatch,
        applied: bool,
        contracts: &DeviceContracts,
        prior: &ValidationReport,
    ) -> ValidationReport {
        let view = &View {
            base,
            patch: if applied { &[] } else { patch.ops() },
        };
        // Whoever needs the patched table itself builds it here.
        let table = || match applied {
            true => Cow::Borrowed(base),
            false => Cow::Owned(base.patched(patch)),
        };
        // A churn that rewrote a large share of the table re-checks
        // most contracts anyway; skip the bookkeeping and go full. The
        // same fallback covers a prior report from a different contract
        // set (republished contracts change the count).
        if patch.len() * 4 > base.len() || prior.contracts_checked != contracts.len() {
            return self.validate_device(&table(), contracts);
        }
        let mut affected = contracts.affected(patch.prefixes());
        if affected.is_empty() {
            return prior.clone();
        }
        // A prior violation stays iff its contract is unaffected. It
        // names its contract by `(prefix, kind)` only, so one raised
        // by a duplicated contract cannot be pinned to an index: the
        // duplicates are re-judged instead.
        let mut tagged: Vec<(u32, Violation)> = Vec::new();
        let mut duplicated: Vec<u32> = Vec::new();
        for v in &prior.violations {
            match *contracts.holders(v.prefix, v.kind) {
                [i] => {
                    if affected.binary_search(&i).is_err() {
                        tagged.push((i, v.clone()));
                    }
                }
                ref holders => duplicated.extend_from_slice(holders),
            }
        }
        if !duplicated.is_empty() {
            affected.extend(duplicated);
            affected.sort_unstable();
            affected.dedup();
        }
        let (defaults, mut specs): (Vec<u32>, Vec<u32>) = affected
            .iter()
            .partition(|&&i| contracts.contract(i).kind == ContractKind::Default);
        Self::check_defaults(view, contracts, defaults.into_iter(), &mut tagged);
        if !specs.is_empty() {
            // The order the sweep judges in — the cross-contract
            // `MissingRoute` dedup must see the same neighbors. Stable,
            // so same-prefix contracts stay in report order.
            specs.sort_by_key(|&i| preorder_key(contracts.contract(i).prefix));
            // The trie costs O(table) to build — and needs the table
            // built; a handful of re-checked contracts is cheaper to
            // serve by binary search straight off the sorted entries
            // (the what-if sweep's per-scenario shape: one or two
            // touched prefixes per changed device). Both produce
            // identical verdicts.
            if specs.len() * 16 <= base.len() {
                self.judge_specifics_direct(view, contracts, &specs, &mut tagged);
            } else {
                let fib = table();
                let trie = FlatTrie::build(&fib);
                self.judge_specifics(&fib, &trie, contracts, specs.into_iter(), &mut tagged);
            }
        }
        Self::finish(tagged, contracts)
    }
}

impl Engine for TrieEngine {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        let mut tagged: Vec<(u32, Violation)> = Vec::new();
        let defaults = contracts.defaults().iter().copied();
        Self::check_defaults(&View::of(fib), contracts, defaults, &mut tagged);
        // The class's own preorder: nothing to collect or sort per
        // device.
        let mut specs = contracts.preorder().peekable();
        if specs.peek().is_some() {
            let trie = FlatTrie::build(fib);
            self.judge_specifics(fib, &trie, contracts, specs, &mut tagged);
        }
        Self::finish(tagged, contracts)
    }

    /// `TrieEngine::revalidate` over the new table: the patch says
    /// where to look, the table what is there.
    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        self.revalidate(fib, &delta.patch, true, contracts, prior)
    }

    /// `TrieEngine::revalidate` over `(base, patch)`: the
    /// patched table is built only when the patch is large or reaches
    /// most of the contracts.
    fn validate_patch(
        &self,
        base: &Fib,
        patch: &FibPatch,
        contracts: &DeviceContracts,
        prior: &ValidationReport,
    ) -> ValidationReport {
        self.revalidate(base, patch, false, contracts, prior)
    }

    fn name(&self) -> &'static str {
        "trie"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy};
    use crate::report::ViolationReason as VR;

    #[test]
    fn healthy_figure3_is_clean_everywhere() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        let eng = TrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let r = eng.validate_device(fib, dc);
            assert!(
                r.is_clean(),
                "device {:?} violations: {:?}",
                fib.device(),
                r.violations
            );
        }
    }

    #[test]
    fn faulted_figure3_reproduces_section_2_4_4() {
        let (f, fibs, contracts, _meta) = fig3_faulted();
        let eng = TrieEngine::new();
        let report = |d: dctopo::DeviceId| {
            eng.validate_device(&fibs[d.0 as usize], &contracts[d.0 as usize])
        };

        // ToR1, A1, A2, D1, D2 have a contract failure for Prefix_B.
        for d in [f.tors[0], f.a[0], f.a[1], f.d[0], f.d[1]] {
            let r = report(d);
            assert!(
                r.violations.iter().any(|v| v.prefix == f.prefixes[1]),
                "device {d:?} must violate the Prefix_B contract: {:?}",
                r.violations
            );
        }
        // ToR2, A3, A4, D3, D4 similarly for Prefix_A.
        for d in [f.tors[1], f.a[2], f.a[3], f.d[2], f.d[3]] {
            let r = report(d);
            assert!(
                r.violations.iter().any(|v| v.prefix == f.prefixes[0]),
                "device {d:?} must violate the Prefix_A contract"
            );
        }
        // Both ToRs have a default contract failure (2 of 4 hops).
        for d in [f.tors[0], f.tors[1]] {
            let r = report(d);
            let dv: Vec<_> = r.by_kind(ContractKind::Default).collect();
            assert_eq!(dv.len(), 1, "{d:?}");
            match &dv[0].reason {
                VR::DefaultMismatch { expected, actual } => {
                    assert_eq!(expected.len(), 4);
                    assert_eq!(actual.len(), 2);
                }
                other => panic!("unexpected reason {other:?}"),
            }
        }
        // R1, R2 (and D3, D4 for Prefix_B) are clean for Prefix_B, which
        // is what keeps the longer path available (§2.4.4).
        for d in [f.r[0], f.r[1], f.d[2], f.d[3], f.a[2], f.a[3]] {
            let r = report(d);
            assert!(
                !r.violations.iter().any(|v| v.prefix == f.prefixes[1]),
                "device {d:?} must NOT violate Prefix_B: {:?}",
                r.violations
            );
        }
        // The R devices are clean entirely.
        for d in f.r {
            assert!(report(d).is_clean(), "{d:?}");
        }
    }

    #[test]
    fn fully_shadowed_rule_is_not_judged() {
        // Minimized differential-fuzzer case: a /31 with wrong next
        // hops whose entire span is shadowed by two correct /32s. LPM
        // never selects the /31 inside the contract range, so reporting
        // it would contradict the SMT engine (no satisfying witness
        // exists) and Definition 2.1.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;

        let good = vec![Ipv4::new(30, 0, 0, 1)];
        let bad = vec![Ipv4::new(30, 0, 0, 2)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/32".parse().unwrap(), good.clone(), false);
        b.push("10.0.0.1/32".parse().unwrap(), good.clone(), false);
        b.push("10.0.0.0/31".parse().unwrap(), bad, false);
        b.push("10.0.0.0/30".parse().unwrap(), good.clone(), false);
        let fib = b.finish();
        let dc = DeviceContracts::new(
            dctopo::DeviceId(0),
            [(
                "10.0.0.0/30".parse().unwrap(),
                ContractKind::Specific,
                Expectation::NextHops(good.into()),
            )],
        );
        for eng in [TrieEngine::new(), TrieEngine::semantic()] {
            let r = eng.validate_device(&fib, &dc);
            assert!(r.is_clean(), "{:?}", r.violations);
        }
    }

    #[test]
    fn missing_specific_with_matching_default_semantic_vs_strict() {
        // If the default route already sends packets to exactly the
        // contract's next hops, a missing specific is *semantically*
        // satisfied (Definition 2.1), but the strict production engine
        // still flags the absent specific route (§2.6.2 Migrations).
        use bgpsim::FibBuilder;

        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let original = &fibs[tor.0 as usize];
        // Rebuild the ToR FIB without the Prefix_B specific.
        let mut b = FibBuilder::new(tor);
        for e in original.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            b.push(e.prefix, original.next_hops(e).to_vec(), e.local);
        }
        let fib = b.finish();
        let r = TrieEngine::semantic().validate_device(&fib, &contracts[tor.0 as usize]);
        assert!(r.is_clean(), "{:?}", r.violations);
        let r = TrieEngine::new().validate_device(&fib, &contracts[tor.0 as usize]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].reason, VR::MissingRoute);
        assert_eq!(r.violations[0].prefix, f.prefixes[1]);

        // But if the default also has the wrong hops, the Prefix_B
        // contract must flag the default rule.
        let mut b = FibBuilder::new(tor);
        for e in original.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            let mut hops = original.next_hops(e).to_vec();
            if e.prefix.is_default() {
                hops.truncate(2);
            }
            b.push(e.prefix, hops, e.local);
        }
        let fib = b.finish();
        let r = TrieEngine::semantic().validate_device(&fib, &contracts[tor.0 as usize]);
        let pb: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.prefix == f.prefixes[1])
            .collect();
        assert_eq!(pb.len(), 1);
        match &pb[0].reason {
            VR::NextHopMismatch { rule, .. } => assert!(rule.is_default()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_fib_violates_everything() {
        let (f, _fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let fib = Fib::empty(tor);
        let r = TrieEngine::new().validate_device(&fib, &contracts[tor.0 as usize]);
        // Default missing + every specific has no covering rule.
        assert_eq!(r.violations.len(), contracts[tor.0 as usize].len());
        assert!(r
            .violations
            .iter()
            .any(|v| v.reason == VR::MissingDefault));
        assert!(r
            .violations
            .iter()
            .filter(|v| v.kind == ContractKind::Specific)
            .all(|v| v.reason == VR::MissingRoute));
    }

    #[test]
    fn partial_coverage_by_extensions_detected() {
        // A contract /24 covered by two /25s with correct hops on one
        // half and wrong hops on the other: exactly one violation.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let expected = vec![Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 3)];
        let wrong = vec![Ipv4::new(30, 0, 0, 5)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        b.push("10.0.0.128/25".parse().unwrap(), wrong.clone(), false);
        let fib = b.finish();
        let contract = (
            "10.0.0.0/24".parse().unwrap(),
            ContractKind::Specific,
            Expectation::NextHops(expected.into()),
        );
        let dc = DeviceContracts::new(dctopo::DeviceId(0), [contract]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1);
        match &r.violations[0].reason {
            VR::NextHopMismatch { rule, actual, .. } => {
                assert_eq!(*rule, "10.0.0.128/25".parse::<Prefix>().unwrap());
                assert_eq!(actual, &wrong);
            }
            other => panic!("{other:?}"),
        }
        // Strict mode additionally flags the absent exact specific.
        let r = TrieEngine::new().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn uncovered_gap_is_missing_route() {
        // Only half the contract range has any rule and no default
        // exists: the gap is a MissingRoute violation.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let expected = vec![Ipv4::new(30, 0, 0, 1)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        let fib = b.finish();
        let contract = (
            "10.0.0.0/24".parse().unwrap(),
            ContractKind::Specific,
            Expectation::NextHops(expected.into()),
        );
        let dc = DeviceContracts::new(dctopo::DeviceId(0), [contract]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].reason, VR::MissingRoute);
    }

    #[test]
    fn incremental_matches_full_across_fault_transition() {
        // Healthy → faulted and faulted → healthy: revalidating via the
        // delta must reproduce the full report exactly, both directions,
        // in both engine modes.
        let (_f, healthy, contracts, _meta) = fig3_healthy();
        let (_f2, faulted, _c2, _m2) = fig3_faulted();
        for eng in [TrieEngine::new(), TrieEngine::semantic()] {
            for (old_fibs, new_fibs) in [(&healthy, &faulted), (&faulted, &healthy)] {
                for ((old, new), dc) in old_fibs.iter().zip(new_fibs.iter()).zip(&contracts) {
                    let delta = Fib::delta(old, new);
                    let prior = eng.validate_device(old, dc);
                    let incremental = eng.validate_delta(new, dc, &delta, &prior);
                    let full = eng.validate_device(new, dc);
                    assert_eq!(incremental, full, "device {:?}", new.device());
                }
            }
        }
    }

    #[test]
    fn empty_delta_returns_prior_verbatim() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let eng = TrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let prior = eng.validate_device(fib, dc);
            let delta = Fib::delta(fib, fib);
            assert!(delta.patch.is_empty());
            let r = eng.validate_delta(fib, dc, &delta, &prior);
            assert_eq!(r, prior);
        }
    }

    #[test]
    fn single_rule_churn_rechecks_only_overlapping_contracts() {
        // Drop one specific from a ToR: the delta path must flag exactly
        // that contract while carrying every other verdict over.
        use bgpsim::FibBuilder;
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let dc = &contracts[tor.0 as usize];
        let mut b = FibBuilder::new(tor);
        for e in old.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            b.push(e.prefix, old.next_hops(e).to_vec(), e.local);
        }
        let new = b.finish();
        let delta = Fib::delta(old, &new);
        assert_eq!(delta.patch.len(), 1);
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, dc);
        let r = eng.validate_delta(&new, dc, &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, dc));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].prefix, f.prefixes[1]);
    }

    #[test]
    fn large_delta_falls_back_to_full_validation() {
        // Replacing the whole table is a "large" delta; the fallback
        // must still produce the exact full report.
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let new = Fib::empty(tor);
        let delta = Fib::delta(old, &new);
        assert!(delta.patch.len() * 4 > new.len().max(1));
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, &contracts[tor.0 as usize]);
        let r = eng.validate_delta(&new, &contracts[tor.0 as usize], &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, &contracts[tor.0 as usize]));
    }

    #[test]
    fn default_route_churn_rechecks_default_contract() {
        // Truncating the default route's hops affects the default
        // contract and every specific (the default is an ancestor
        // candidate of all of them): incremental == full, and the
        // default contract's fresh verdict shows the truncation.
        use bgpsim::FibBuilder;
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let dc = &contracts[tor.0 as usize];
        let mut b = FibBuilder::new(tor);
        for e in old.entries() {
            let mut hops = old.next_hops(e).to_vec();
            if e.prefix.is_default() {
                hops.truncate(1);
            }
            b.push(e.prefix, hops, e.local);
        }
        let new = b.finish();
        let delta = Fib::delta(old, &new);
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, dc);
        let r = eng.validate_delta(&new, dc, &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, dc));
        assert!(r
            .by_kind(ContractKind::Default)
            .any(|v| matches!(&v.reason, VR::DefaultMismatch { actual, .. } if actual.len() == 1)));
    }

    #[test]
    fn coverage_accumulator_handles_overlap() {
        let target: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut cov = Coverage::new(target.range());
        let half: Prefix = "10.0.0.0/25".parse().unwrap();
        assert_eq!(cov.add(half.range()), 128);
        // Adding the same range again must not double-count — and must
        // report that it serves nothing new.
        assert_eq!(cov.add(half.range()), 0);
        assert!(!cov.complete());
        // The containing /24 completes it, serving only the other half.
        assert_eq!(cov.add(target.range()), 128);
        assert!(cov.complete());
    }

    #[test]
    fn flat_trie_layout_is_dfs_preorder() {
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let hops = vec![Ipv4::new(30, 0, 0, 1)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        // Inserted shuffled; the arena must come out in (addr, len)
        // DFS preorder with correct subtree links.
        for p in [
            "10.0.1.0/24",
            "0.0.0.0/0",
            "10.0.0.0/16",
            "10.0.1.128/25",
            "10.0.1.0/25",
            "192.168.0.0/24",
        ] {
            b.push(p.parse().unwrap(), hops.clone(), false);
        }
        let fib = b.finish();
        let trie = FlatTrie::build(&fib);
        let prefixes: Vec<String> = trie.nodes.iter().map(|n| n.prefix.to_string()).collect();
        assert_eq!(
            prefixes,
            [
                "0.0.0.0/0",
                "10.0.0.0/16",
                "10.0.1.0/24",
                "10.0.1.0/25",
                "10.0.1.128/25",
                "192.168.0.0/24"
            ]
        );
        // Root covers everything; its children are the /16 and the
        // 192.168/24, the /24's children are the two /25 halves.
        assert_eq!(trie.nodes[0].subtree_end, 6);
        assert_eq!(trie.children(0).collect::<Vec<_>>(), [1, 5]);
        assert_eq!(trie.children(2).collect::<Vec<_>>(), [3, 4]);
        // Each node's FIB entry link round-trips.
        for n in &trie.nodes {
            assert_eq!(fib.entries()[n.entry as usize].prefix, n.prefix);
        }
    }

    #[test]
    fn default_route_shadows_longer_prefix_across_group_boundaries() {
        // Regression (batched traversal): the default route enters the
        // ancestor stack at the first contract group and must still be
        // judged for later groups in the same sweep — including one
        // where it serves the half of a contract range that a longer
        // (group-local) prefix does not cover.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let good = vec![Ipv4::new(30, 0, 0, 1)];
        let dflt = vec![Ipv4::new(30, 0, 0, 9)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("0.0.0.0/0".parse().unwrap(), dflt.clone(), false);
        b.push("10.0.0.0/24".parse().unwrap(), good.clone(), false);
        // Third group: only half the /24 has a specific; the default
        // serves the rest with the wrong hops.
        b.push("20.0.0.0/25".parse().unwrap(), good.clone(), false);
        let fib = b.finish();
        let spec = |p: &str, hops: &[Ipv4]| {
            (
                p.parse().unwrap(),
                ContractKind::Specific,
                Expectation::NextHops(hops.to_vec().into()),
            )
        };
        let dc = DeviceContracts::new(dctopo::DeviceId(0), [
            // Group 1: exact hit (fast path), default irrelevant.
            spec("10.0.0.0/24", &good),
            // Group 2: no specific at all — served entirely by the
            // default route, whose hops match.
            spec("15.0.0.0/24", &dflt),
            // Group 3: /25 covers half, default (wrong hops for
            // this contract) covers the other half.
            spec("20.0.0.0/24", &good),
        ]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].prefix, "20.0.0.0/24".parse::<Prefix>().unwrap());
        match &r.violations[0].reason {
            VR::NextHopMismatch { rule, actual, .. } => {
                assert!(rule.is_default(), "must flag the default rule");
                assert_eq!(actual, &dflt);
            }
            other => panic!("{other:?}"),
        }
        // Strict mode adds MissingRoute for the two absent specifics,
        // still exactly one violation against the default rule.
        let r = TrieEngine::new().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
        assert_eq!(
            r.violations
                .iter()
                .filter(|v| v.reason == VR::MissingRoute)
                .count(),
            2
        );
    }
}
