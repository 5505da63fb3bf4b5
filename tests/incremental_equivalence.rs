//! Incremental validation is *exactly* full validation.
//!
//! The delta path (`Engine::validate_delta`) exists purely as an
//! optimization: given the prior snapshot's verdict and the FIB delta,
//! it must produce a report byte-equal to validating the new snapshot
//! from scratch. This file establishes that equivalence over random
//! churn — any divergence means the affected-contract analysis in the
//! trie engine under- or over-approximates.
//!
//! The same churn also exercises the delta codec end-to-end:
//! `Fib::delta` → wire encode/decode → `Fib::apply_delta` must
//! reproduce the target snapshot exactly — and the live service's
//! verdict reuse, which must equal a cold pass.

use proptest::prelude::*;
use rcdc::pipeline::{DeviceStore, ValidateMode};
use rcdc::VirtualClock;
use validatedc::prelude::*;

#[derive(Debug, Clone)]
enum FibMutation {
    /// Remove the entry for prefix #k on device #d.
    DropEntry { device: usize, prefix: usize },
    /// Truncate next hops of prefix #k on device #d to one.
    TruncateHops { device: usize, prefix: usize },
    /// Remove the default route on device #d.
    DropDefault { device: usize },
    /// Truncate the default route's hops on device #d.
    TruncateDefault { device: usize },
}

fn mutation_strategy() -> BoxedStrategy<Vec<FibMutation>> {
    let one = prop_oneof![
        (0usize..16, 0usize..4)
            .prop_map(|(device, prefix)| FibMutation::DropEntry { device, prefix }),
        (0usize..16, 0usize..4)
            .prop_map(|(device, prefix)| FibMutation::TruncateHops { device, prefix }),
        (0usize..16).prop_map(|device| FibMutation::DropDefault { device }),
        (0usize..16).prop_map(|device| FibMutation::TruncateDefault { device }),
    ];
    proptest::collection::vec(one, 0..6).boxed()
}

fn apply_mutations(
    f: &dctopo::generator::Figure3,
    fibs: &mut [Fib],
    mutations: &[FibMutation],
) {
    for m in mutations {
        let (device, drop_prefix, truncate_prefix) = match *m {
            FibMutation::DropEntry { device, prefix } => (device, Some(f.prefixes[prefix]), None),
            FibMutation::TruncateHops { device, prefix } => {
                (device, None, Some(f.prefixes[prefix]))
            }
            FibMutation::DropDefault { device } => (device, Some(Prefix::DEFAULT), None),
            FibMutation::TruncateDefault { device } => (device, None, Some(Prefix::DEFAULT)),
        };
        let original = &fibs[device];
        let mut b = FibBuilder::new(original.device());
        for e in original.entries() {
            if Some(e.prefix) == drop_prefix {
                continue;
            }
            let mut hops = original.next_hops(e).to_vec();
            if Some(e.prefix) == truncate_prefix {
                hops.truncate(1);
            }
            b.push(e.prefix, hops, e.local);
        }
        fibs[device] = b.finish();
    }
}

/// Check `validate_delta` against `validate_device` for every device of
/// an old→new transition, on every engine backend.
fn assert_incremental_matches_full(
    old_fibs: &[Fib],
    new_fibs: &[Fib],
    contracts: &[rcdc::contracts::DeviceContracts],
) -> Result<(), TestCaseError> {
    let engines: Vec<Box<dyn Engine + Sync>> = vec![
        EngineChoice::Trie.instantiate(),
        EngineChoice::TrieSemantic.instantiate(),
        EngineChoice::Smt.instantiate(),
    ];
    for engine in &engines {
        for ((old, new), dc) in old_fibs.iter().zip(new_fibs).zip(contracts) {
            let prior = engine.validate_device(old, dc);
            let delta = Fib::delta(old, new);
            let incremental = engine.validate_delta(new, dc, &delta, &prior);
            let full = engine.validate_device(new, dc);
            prop_assert_eq!(
                &incremental,
                &full,
                "incremental != full on device {:?} ({} engine, delta {} rules)",
                new.device(),
                engine.name(),
                delta.patch.len()
            );
        }
    }
    Ok(())
}

/// Check the delta codec round trip: encode → decode → apply *is* the
/// target snapshot.
fn assert_delta_round_trips(old_fibs: &[Fib], new_fibs: &[Fib]) -> Result<(), TestCaseError> {
    for (old, new) in old_fibs.iter().zip(new_fibs) {
        let delta = Fib::delta(old, new);
        let decoded = netprim::wire::FibDelta::decode(&delta.encode()).expect("codec");
        let applied = old.apply_delta(&decoded).expect("apply");
        // Simulator-emitted tables: `==`, pool layout included.
        prop_assert_eq!(&applied, new);
    }
    Ok(())
}

/// Figure 3's converged tables: healthy, or under the paper's four
/// §2.4.4 link failures, where ten devices already violate contracts.
fn figure3_tables(f: &dctopo::generator::Figure3, faulted: bool) -> Vec<Fib> {
    let mut topology = f.topology.clone();
    if faulted {
        for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
            for leaf in leaves {
                let link = topology.link_between(tor, leaf).unwrap().id;
                topology.set_link_state(link, LinkState::OperDown);
            }
        }
    }
    simulate(&topology, &SimConfig::healthy())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn on Figure 3: old and new snapshots are independent
    /// random mutations of one converged state, so deltas contain
    /// additions, removals, and modifications in both directions. From
    /// the healthy state the priors are mostly clean; from the faulted
    /// one they are dirty, and the delta path has to splice around
    /// violations it did not raise.
    #[test]
    fn incremental_equals_full_under_random_churn(
        old_mutations in mutation_strategy(),
        new_mutations in mutation_strategy(),
    ) {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        for faulted in [false, true] {
            let base = figure3_tables(&f, faulted);
            let mut old_fibs = base.clone();
            apply_mutations(&f, &mut old_fibs, &old_mutations);
            let mut new_fibs = base;
            apply_mutations(&f, &mut new_fibs, &new_mutations);

            assert_incremental_matches_full(&old_fibs, &new_fibs, &contracts)?;
            assert_delta_round_trips(&old_fibs, &new_fibs)?;
        }
    }

    /// Verdict reuse (`DeviceStore::judge`) is a cold pass: a store
    /// that judged the old tables answers each new one from its cache
    /// exactly when the content hash held, as a delta otherwise, and
    /// every report equals a cold `Validator::run` over the new tables.
    #[test]
    fn device_store_verdicts_equal_a_cold_pass_under_random_churn(
        old_mutations in mutation_strategy(),
        new_mutations in mutation_strategy(),
    ) {
        let f = figure3();
        let healthy = simulate(&f.topology, &SimConfig::healthy());
        let mut old_fibs = healthy.clone();
        apply_mutations(&f, &mut old_fibs, &old_mutations);
        let mut new_fibs = healthy;
        apply_mutations(&f, &mut new_fibs, &new_mutations);
        let meta = MetadataService::from_topology(&f.topology);
        let cold = Validator::new(&meta).build().run(&new_fibs);

        let (store, engine, clock) = (DeviceStore::default(), TrieEngine::new(), VirtualClock::new());
        for (fib, contracts) in old_fibs.iter().zip(generate_contracts(&meta)) {
            store.publish(fib.device(), contracts);
        }
        for fib in &old_fibs {
            store.judge(fib.device(), Some(fib.clone()), &engine, &clock);
        }
        for ((old, new), expected) in old_fibs.iter().zip(&new_fibs).zip(&cold.reports) {
            let result = store.judge(new.device(), Some(new.clone()), &engine, &clock);
            let result = result.expect("every device has published contracts");
            prop_assert_eq!(&*result.report, expected);
            let mode = if old.content_hash() == new.content_hash() {
                ValidateMode::CacheHit
            } else {
                ValidateMode::Incremental
            };
            prop_assert_eq!(result.mode, mode, "device {:?}", new.device());
        }
    }
}

/// Deterministic single-device churn across every device of the
/// default Clos (the acceptance shape): truncate the first multi-hop
/// entry and compare incremental vs full on the churned device.
#[test]
fn incremental_equals_full_on_default_clos_churn() {
    let topology = build_clos(&ClosParams::default());
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let contracts = generate_contracts(&meta);
    let trie = TrieEngine::new();

    for (fib, dc) in fibs.iter().zip(&contracts) {
        let Some(target) = fib
            .entries()
            .iter()
            .find(|e| !e.local && fib.next_hops(e).len() > 1)
            .map(|e| e.prefix)
        else {
            continue;
        };
        let mut b = FibBuilder::new(fib.device());
        for e in fib.entries() {
            let mut hops = fib.next_hops(e).to_vec();
            if e.prefix == target {
                hops.truncate(1);
            }
            b.push(e.prefix, hops, e.local);
        }
        let churned = b.finish();

        let prior = trie.validate_device(fib, dc);
        let delta = Fib::delta(fib, &churned);
        assert!(!delta.patch.is_empty());
        let incremental = trie.validate_delta(&churned, dc, &delta, &prior);
        let full = trie.validate_device(&churned, dc);
        assert_eq!(incremental, full, "device {:?}", fib.device());
    }
}
