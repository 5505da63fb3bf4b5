//! Equivalence suite for the flat-trie rewrite: random workloads
//! judged by the flat [`TrieEngine`], the frozen pointer-trie
//! [`ReferenceTrieEngine`], and the [`SmtEngine`].
//!
//! The two tries share every convention (violation order, strictness,
//! the cross-contract `MissingRoute` dedup), so they are compared on
//! *full report identity* — rule for rule, in order. The SMT engine is
//! compared on violated-contract keys, the cross-encoding agreement
//! convention the differential fuzzer uses. The generator deliberately
//! produces the shapes the batched sweep has to get right: overlapping
//! rules under one subtree, a default route shadowing longer prefixes
//! across contract groups, duplicate same-prefix contracts, and
//! non-canonical expectation vectors (which must bypass the bitset
//! codex). The delta path gets its own shape on top — small churn
//! against a dirty prior, aimed at the rules the contracts read —
//! because independently drawn tables differ almost everywhere and only
//! ever reach the large-churn fallback. Every small-churn case enters
//! the one incremental judge from both sides of the patch — the new
//! table with the delta, the old table with the patch — beside a full
//! pass.

use bgpsim::{Fib, FibBuilder};
use dctopo::DeviceId;
use difftest::reference::trie::ReferenceTrieEngine;
use netprim::wire::FibDelta;
use netprim::{Ipv4, Prefix};
use proptest::collection::vec;
use proptest::prelude::*;
use rcdc::contracts::{ContractKind, DeviceContracts, Expectation};
use rcdc::{Engine, SmtEngine, TrieEngine, ValidationReport};

/// Address universe base (`10.0.0.0/24`) — tiny on purpose: collisions
/// (shadowing, partial coverage, shared subtrees) are where engines
/// can disagree.
const BASE: u32 = 0x0a00_0000;

fn prefix(offset: u32, len: u8) -> Prefix {
    Prefix::containing(Ipv4(BASE + offset), len).expect("len <= 32")
}

/// A FIB rule or a contract: offset into the universe, length, hops,
/// and locality (rules) or default-kind (contracts).
type Spec = (u32, u8, Vec<Ipv4>, bool);

/// A FIB rule: offset into the universe, length, hop subset, locality.
/// Length 0 is the default route.
fn rule_strategy() -> impl Strategy<Value = Spec> {
    (
        0u32..256,
        // Length 0 (the default route) with weight 1/4.
        prop_oneof![24u8..=32, 24u8..=32, 24u8..=32, Just(0u8)],
        hops_strategy(),
        (0u32..100).prop_map(|x| x < 12),
    )
}

/// Sorted, deduplicated, nonempty hops from a six-address pool.
fn hops_strategy() -> impl Strategy<Value = Vec<Ipv4>> {
    vec(1u32..=6, 1..=3).prop_map(|raw| {
        let mut hops: Vec<Ipv4> = raw.into_iter().map(|i| Ipv4(0x1e00_0000 + i)).collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    })
}

fn build_fib(rules: &[Spec]) -> Fib {
    let mut b = FibBuilder::new(DeviceId(0));
    let mut seen = std::collections::HashSet::new();
    for (offset, len, hops, local) in rules {
        let p = if *len == 0 {
            Prefix::DEFAULT
        } else {
            prefix(*offset, *len)
        };
        if !seen.insert(p) {
            continue;
        }
        let hops = if *local { Vec::new() } else { hops.clone() };
        b.push(p, hops, *local);
    }
    b.finish()
}

/// Contracts: mostly specific (duplicates allowed — they exercise the
/// cross-contract `MissingRoute` dedup), sometimes a default contract.
fn contracts_strategy() -> impl Strategy<Value = Vec<Spec>> {
    vec(
        (
            0u32..256,
            // Length 0 (a root-anchored contract) with weight 1/6.
            prop_oneof![
                24u8..=32,
                24u8..=32,
                24u8..=32,
                24u8..=32,
                24u8..=32,
                Just(0u8)
            ],
            hops_strategy(),
            // is_default_kind: only meaningful with len 0.
            any::<bool>(),
        ),
        1..8,
    )
}

fn build_contracts(specs: &[Spec]) -> DeviceContracts {
    DeviceContracts::new(
        DeviceId(0),
        specs.iter().map(|(offset, len, hops, default_kind)| {
            let (p, kind) = if *len == 0 {
                (
                    Prefix::DEFAULT,
                    if *default_kind {
                        ContractKind::Default
                    } else {
                        ContractKind::Specific
                    },
                )
            } else {
                (prefix(*offset, *len), ContractKind::Specific)
            };
            (p, kind, Expectation::NextHops(hops.clone().into()))
        }),
    )
}

/// A hop outside the pool that rules and contracts draw from: no base
/// table forwards to it, a re-hopped rule forwards to nothing else.
const FOREIGN_HOP: Ipv4 = Ipv4(0x1e00_0063);

/// The contract shapes the splice has to get right, shuffled in among
/// random ones: two contracts for one prefix (one of which no base
/// table satisfies, so the prior is always dirty and carries a
/// violation that names no single contract), a nested pair, and a
/// default-kind contract.
fn splice_contracts_strategy() -> impl Strategy<Value = Vec<Spec>> {
    (
        contracts_strategy(),
        0u32..256,
        0u32..256,
        hops_strategy(),
        hops_strategy(),
        // Sort keys: one per contract (at most 7 random + 5 fixed).
        vec(0u32..1000, 12),
    )
        .prop_map(|(mut specs, twin, nest, h1, h2, keys)| {
            specs.extend([
                (twin, 28, h1.clone(), false),
                (twin, 28, vec![FOREIGN_HOP], false),
                (nest, 24, h1, false),
                (nest, 30, h2.clone(), false),
                (0, 0, h2, true),
            ]);
            let mut keyed: Vec<(u32, Spec)> = keys.into_iter().zip(specs).collect();
            keyed.sort_by_key(|(key, _)| *key);
            keyed.into_iter().map(|(_, spec)| spec).collect()
        })
}

/// Where a directed edit lands relative to a contract's prefix.
#[derive(Debug, Clone, Copy)]
enum Near {
    /// The exact rule the strict engine insists on.
    Exact,
    /// One bit longer: an extension inside the contract.
    Extension,
    /// One bit shorter (the default route from a /24): an ancestor.
    Ancestor,
    /// The default route, whatever the contract.
    Default,
}

/// One step of small churn; indices wrap around the rule list or the
/// contract list.
#[derive(Debug, Clone)]
enum Edit {
    Drop(usize),
    Rehop(usize),
    Insert(Spec),
    /// Withdraw the rule at that spot by a contract, or add one there
    /// if the table has none.
    Toggle(usize, Near, Vec<Ipv4>),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    let near = prop_oneof![
        Just(Near::Exact),
        Just(Near::Extension),
        Just(Near::Ancestor),
        Just(Near::Default),
    ];
    prop_oneof![
        (0usize..1000).prop_map(Edit::Drop),
        (0usize..1000).prop_map(Edit::Rehop),
        rule_strategy().prop_map(Edit::Insert),
        (0usize..1000, near.clone(), hops_strategy()).prop_map(|(i, n, h)| Edit::Toggle(i, n, h)),
        (0usize..1000, near, hops_strategy()).prop_map(|(i, n, h)| Edit::Toggle(i, n, h)),
    ]
}

fn spec_prefix(offset: u32, len: u8) -> Prefix {
    if len == 0 {
        Prefix::DEFAULT
    } else {
        prefix(offset, len)
    }
}

/// `base` plus the exact rules of the contracts `mix` selects as a
/// table, that table after as many of `edits` as keep the change small
/// enough for the engines' delta path, and the delta between the two.
fn small_churn(
    base: &[Spec],
    contracts: &[Spec],
    edits: &[Edit],
    mix: usize,
) -> (Fib, Fib, FibDelta) {
    let mut rules = base.to_vec();
    // Exact rules there to be withdrawn, satisfying their contract
    // until they are.
    for (i, (offset, len, hops, _)) in contracts.iter().enumerate() {
        if mix >> (i % 12) & 1 == 1 {
            rules.push((*offset, *len, hops.clone(), false));
        }
    }
    let old = build_fib(&rules);
    let (mut new, mut delta) = (old.clone(), Fib::delta(&old, &old));
    for edit in edits {
        match edit {
            Edit::Drop(i) => drop(rules.remove(i % rules.len())),
            Edit::Rehop(i) => {
                let n = rules.len();
                (rules[i % n].2, rules[i % n].3) = (vec![FOREIGN_HOP], false);
            }
            Edit::Insert(rule) => rules.push(rule.clone()),
            Edit::Toggle(i, near, hops) => {
                let (offset, len, ..) = contracts[i % contracts.len()];
                let (offset, len) = match near {
                    Near::Exact => (offset, len),
                    Near::Extension if len == 0 => (offset, 24),
                    Near::Extension => (offset, (len + 1).min(32)),
                    Near::Ancestor if len > 24 => (offset, len - 1),
                    Near::Ancestor | Near::Default => (0, 0),
                };
                let at = spec_prefix(offset, len);
                let before = rules.len();
                rules.retain(|r| spec_prefix(r.0, r.1) != at);
                if rules.len() == before {
                    rules.push((offset, len, hops.clone(), false));
                }
            }
        }
        if rules.is_empty() {
            break;
        }
        let next = build_fib(&rules);
        let differ = Fib::delta(&old, &next);
        // The patch is measured against the table it is read beside:
        // the old one from the old side, the new one from the new.
        if differ.patch.len() * 4 > next.len().min(old.len()) {
            break;
        }
        (new, delta) = (next, differ);
    }
    (old, new, delta)
}

fn violated_keys(r: &ValidationReport) -> Vec<(Prefix, ContractKind)> {
    let mut keys: Vec<_> = r.violations.iter().map(|v| (v.prefix, v.kind)).collect();
    keys.sort();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat trie == reference trie (full report), and both agree with
    /// the SMT engine on violated keys, in strict and semantic modes.
    #[test]
    fn three_engines_agree(
        rules in vec(rule_strategy(), 0..14),
        specs in contracts_strategy(),
    ) {
        let fib = build_fib(&rules);
        let dc = build_contracts(&specs);
        for strict in [true, false] {
            let (flat, reference): (TrieEngine, ReferenceTrieEngine) = if strict {
                (TrieEngine::new(), ReferenceTrieEngine::new())
            } else {
                (TrieEngine::semantic(), ReferenceTrieEngine::semantic())
            };
            let rf = flat.validate_device(&fib, &dc);
            let rr = reference.validate_device(&fib, &dc);
            prop_assert_eq!(&rf, &rr, "strict={} flat vs reference", strict);

            let smt = if strict { SmtEngine::new() } else { SmtEngine::semantic() };
            let rs = smt.validate_device(&fib, &dc);
            prop_assert_eq!(
                violated_keys(&rf),
                violated_keys(&rs),
                "strict={} trie vs smt keys",
                strict
            );
        }
    }

    /// Incremental revalidation reproduces the full report exactly and
    /// matches the reference engine's delta path: through a random
    /// delta between unrelated tables (the large-churn fallback), and
    /// through small churn against a dirty prior (locate, judge,
    /// splice) — the latter asked from the new side of the patch *and*
    /// from the old.
    #[test]
    fn incremental_matches_full_and_reference(
        old_rules in vec(rule_strategy(), 0..14),
        new_rules in vec(rule_strategy(), 0..14),
        specs in contracts_strategy(),
        base in vec(rule_strategy(), 16..=48),
        filler in 0u32..=200,
        edits in vec(edit_strategy(), 1..=12),
        mix in 0usize..10_000,
        splice_specs in splice_contracts_strategy(),
    ) {
        let old = build_fib(&old_rules);
        let new = build_fib(&new_rules);
        let dc = build_contracts(&specs);
        let delta = Fib::delta(&old, &new);
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            let prior = flat.validate_device(&old, &dc);
            let inc = flat.validate_delta(&new, &dc, &delta, &prior);
            prop_assert_eq!(&inc, &flat.validate_device(&new, &dc));
            prop_assert_eq!(&inc, &reference.validate_delta(&new, &dc, &delta, &prior));
            prop_assert_eq!(&inc, &flat.validate_patch(&old, &delta.patch, &dc, &prior));
        }

        // Rules in other /24s than the one every contract reads: they
        // overlap no contract, and make the table large enough, in
        // about half the cases, for the few re-judged contracts to take
        // the engine's trie-less lookup instead of the sweep.
        let mut base = base;
        base.extend((0..filler).map(|i| {
            (256 + i * 37 % 3840, 24 + (i % 9) as u8, vec![Ipv4(0x1e00_0001 + i % 3)], false)
        }));
        let (old, new, delta) = small_churn(&base, &splice_specs, &edits, mix);
        let patch = &delta.patch;
        let least = new.len().min(old.len());
        prop_assert!(patch.len() * 4 <= least, "generator strayed onto the fallback");
        prop_assert_eq!(old.patched(patch).content_hash(), new.content_hash());
        let dc = build_contracts(&splice_specs);
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            let prior = flat.validate_device(&old, &dc);
            prop_assert!(!prior.is_clean());
            let full = flat.validate_device(&new, &dc);
            prop_assert_eq!(&flat.validate_patch(&old, patch, &dc, &prior), &full);
            prop_assert_eq!(&flat.validate_delta(&new, &dc, &delta, &prior), &full);
            prop_assert_eq!(&reference.validate_delta(&new, &dc, &delta, &prior), &full);
        }
    }

    /// Non-canonical expectation vectors (unsorted or duplicated) must
    /// bypass the bitset codex and fall back to the exact vector
    /// compare: flat and reference verdicts stay identical.
    #[test]
    fn non_canonical_expectations_fall_back(
        rules in vec(rule_strategy(), 0..14),
        raw_expect in vec(1u32..=6, 1..=4),
        offset in 0u32..256,
        len in 24u8..=32,
    ) {
        let fib = build_fib(&rules);
        let hops: Vec<Ipv4> = raw_expect.into_iter().map(|i| Ipv4(0x1e00_0000 + i)).collect();
        let dc = DeviceContracts::new(
            DeviceId(0),
            [(
                prefix(offset, len),
                ContractKind::Specific,
                // As-generated: possibly unsorted, possibly duplicated.
                Expectation::NextHops(hops.into()),
            )],
        );
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            prop_assert_eq!(
                flat.validate_device(&fib, &dc),
                reference.validate_device(&fib, &dc)
            );
        }
    }
}

/// A next-hop universe wider than `HopSet::CAPACITY` (512 bits)
/// disables the bitset codex mid-device; verdicts must be unaffected.
#[test]
fn hop_universe_overflow_falls_back_to_vector_compare() {
    let wide: Vec<Ipv4> = (0..600u32).map(|i| Ipv4(0x1e00_0000 + i)).collect();
    let good = vec![Ipv4(0x2000_0001)];
    let mut b = FibBuilder::new(DeviceId(0));
    b.push(prefix(0, 24), wide.clone(), false);
    b.push(prefix(256, 24), good.clone(), false);
    let fib = b.finish();
    let spec = |off: u32, hops: &[Ipv4]| {
        (
            prefix(off, 24),
            ContractKind::Specific,
            Expectation::NextHops(hops.to_vec().into()),
        )
    };
    // The wide set first (overflows the codex), then contracts that
    // must still be judged correctly by the fallback.
    let dc = DeviceContracts::new(
        DeviceId(0),
        [
            spec(0, &wide),
            spec(256, &good),
            spec(256, &wide), // mismatch
        ],
    );
    for (flat, reference) in [
        (TrieEngine::new(), ReferenceTrieEngine::new()),
        (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
    ] {
        let rf = flat.validate_device(&fib, &dc);
        assert_eq!(rf, reference.validate_device(&fib, &dc));
        assert!(rf
            .violations
            .iter()
            .any(|v| v.prefix == prefix(256, 24)));
    }
}

/// Figure-3 FIBs, healthy or under the paper's four §2.4.4 link
/// failures, with the healthy fabric's contracts.
fn fig3(faulted: bool) -> (Vec<Fib>, Vec<DeviceContracts>) {
    let mut f = dctopo::generator::figure3();
    let meta = dctopo::MetadataService::from_topology(&f.topology);
    if faulted {
        for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
            for leaf in leaves {
                let l = f.topology.link_between(tor, leaf).unwrap().id;
                f.topology.set_link_state(l, dctopo::LinkState::OperDown);
            }
        }
    }
    let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
    (fibs, rcdc::generate_contracts(&meta))
}

/// Rule-for-rule verdict identity with the frozen pointer-trie engine
/// on both Figure-3 fixtures, full and incremental paths.
#[test]
fn batched_sweep_matches_reference_on_figure3() {
    let (healthy, contracts) = fig3(false);
    let (faulted, _) = fig3(true);
    for (flat, reference) in [
        (TrieEngine::new(), ReferenceTrieEngine::new()),
        (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
    ] {
        for (old, new) in [(&healthy, &faulted), (&faulted, &healthy)] {
            for ((o, n), dc) in old.iter().zip(new.iter()).zip(&contracts) {
                assert_eq!(
                    flat.validate_device(n, dc),
                    reference.validate_device(n, dc),
                    "full, device {:?}",
                    n.device()
                );
                let delta = Fib::delta(o, n);
                let prior = flat.validate_device(o, dc);
                assert_eq!(
                    flat.validate_delta(n, dc, &delta, &prior),
                    reference.validate_delta(n, dc, &delta, &prior),
                    "delta, device {:?}",
                    n.device()
                );
            }
        }
    }
}

/// The default route enters the batched sweep's ancestor stack at the
/// first contract group and is judged for later groups too (rcdc pins
/// the verdicts themselves); order and content match the reference.
#[test]
fn default_route_across_group_boundaries_matches_reference() {
    let good = vec![Ipv4::new(30, 0, 0, 1)];
    let dflt = vec![Ipv4::new(30, 0, 0, 9)];
    let mut b = FibBuilder::new(DeviceId(0));
    b.push(Prefix::DEFAULT, dflt.clone(), false);
    b.push("10.0.0.0/24".parse().unwrap(), good.clone(), false);
    b.push("20.0.0.0/25".parse().unwrap(), good.clone(), false);
    let fib = b.finish();
    let spec = |p: &str, hops: &[Ipv4]| {
        (
            p.parse().unwrap(),
            ContractKind::Specific,
            Expectation::NextHops(hops.to_vec().into()),
        )
    };
    let dc = DeviceContracts::new(
        DeviceId(0),
        [
            spec("10.0.0.0/24", &good),
            spec("15.0.0.0/24", &dflt),
            spec("20.0.0.0/24", &good),
        ],
    );
    let r = TrieEngine::new().validate_device(&fib, &dc);
    assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
    assert_eq!(r, ReferenceTrieEngine::new().validate_device(&fib, &dc));
}

/// The oracle is not a selectable backend: no `EngineChoice` parses
/// from its name.
#[test]
fn reference_engine_is_not_an_engine_choice() {
    let name = ReferenceTrieEngine::new().name();
    assert_eq!(name, "trie-ref");
    assert!(name.parse::<rcdc::EngineChoice>().is_err());
}
