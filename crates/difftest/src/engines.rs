//! Oracle: the verification engines against each other and against
//! exhaustive forwarding ground truth.
//!
//! Single-device mode: random FIBs and contracts inside a 256-address
//! universe are checked by `TrieEngine` (strict and semantic) and
//! `SmtEngine` (strict and semantic); all four verdicts are compared on
//! violated-contract key sets (the `(prefix, kind)` convention the
//! in-repo fig3 cross-check uses), and both are compared against a
//! per-address reference that literally walks every covered address
//! through `Fib::lookup` — the paper's Definition 2.1 evaluated by
//! brute force.
//!
//! Fabric mode (a fraction of seeds): the Figure-3 datacenter with a
//! random set of downed links, trie vs SMT on every device, plus the
//! Claim 1 implication — if every local contract holds, the global
//! baseline must find no dropped or looping paths for any hosted
//! prefix.
//!
//! Cold-sweep mode (every seed): a random Clos no larger than
//! 128 devices with random downed links, converged by
//! `bgpsim::simulate_with` — serial and threaded — and by the frozen
//! [`reference::sim`](crate::reference::sim), the `Vec` hop accumulator:
//! every table must match bit for bit (interned pool layout
//! included) with identical work counters, and every device's report
//! under the flat trie must match the reference trie's rule for rule.
//!
//! Contracts mode (every seed, the same random Clos as designed): every
//! device's class-derived contract set, expanded, against the frozen
//! per-device generator [`reference::contracts`](crate::reference::contracts)
//! — the same contracts in the same report order, and the same count.

use crate::gen::{
    build_contracts, build_fib, random_contract_specs, random_fib_specs, render_case,
    ContractSpec, FibSpec,
};
use crate::reference::trie::ReferenceTrieEngine;
use crate::Failure;
use bgpsim::{simulate, simulate_with, Fib, SimConfig, SimOptions};
use dctopo::generator::figure3;
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService, Topology};
use rcdc::contracts::DeviceContracts;
use netprim::Prefix;
use rcdc::contracts::Expectation;
use crate::reference::global_baseline::{forwarding_analysis, PathInfo};
use rcdc::shrink::shrink_list;
use rcdc::{generate_contracts, Contract, ContractKind, Engine, SmtEngine, TrieEngine};
use simnet::rng::Rng;

/// Violated-contract keys of a report: sorted, deduplicated
/// `(prefix, kind)` pairs, the cross-engine agreement convention.
fn violated_keys(r: &rcdc::ValidationReport) -> Vec<(Prefix, ContractKind)> {
    let mut keys: Vec<_> = r.violations.iter().map(|v| (v.prefix, v.kind)).collect();
    keys.sort();
    keys.dedup();
    keys
}

/// Per-address reference verdict for one contract (Definition 2.1 by
/// exhaustive evaluation). Returns true when the contract is violated
/// under `strict` rules.
fn reference_violated(fib: &Fib, c: &Contract, strict: bool) -> bool {
    match c.kind {
        ContractKind::Default => {
            // Mirrors the shared structural default check: the engines
            // and the reference all read only the 0.0.0.0/0 entry.
            let entry = fib.default_entry();
            match (&c.expectation, entry) {
                (Expectation::NextHops(expected), Some(e)) => {
                    e.local || fib.next_hops(e) != &expected[..]
                }
                (Expectation::NextHops(_), None) => true,
                (Expectation::Local, Some(e)) => !e.local,
                (Expectation::Local, None) => true,
            }
        }
        ContractKind::Specific => {
            let expected = match &c.expectation {
                Expectation::NextHops(h) => h,
                Expectation::Local => {
                    return match fib.entry_for(c.prefix) {
                        Some(e) => !e.local,
                        None => true,
                    };
                }
            };
            if strict && fib.entry_for(c.prefix).is_none() {
                return true;
            }
            let (lo, hi) = (c.prefix.first().0, c.prefix.last().0);
            debug_assert!(u64::from(hi - lo) < 1 << 10, "universe kept small by gen");
            (lo..=hi).any(|ip| match fib.lookup(netprim::Ipv4(ip)) {
                None => true,
                Some(e) => e.local || fib.next_hops(e) != &expected[..],
            })
        }
    }
}

/// All four engines + the reference on one (FIB, contracts) case.
/// Returns the first disagreement.
fn check_single_device(fib_specs: &[FibSpec], contract_specs: &[ContractSpec]) -> Option<String> {
    let device = DeviceId(0);
    let fib = build_fib(device, fib_specs);
    let contracts = build_contracts(device, contract_specs);

    let trie_strict = TrieEngine::new().validate_device(&fib, &contracts);
    let trie_sem = TrieEngine::semantic().validate_device(&fib, &contracts);
    let smt_strict = SmtEngine::new().validate_device(&fib, &contracts);
    let smt_sem = SmtEngine::semantic().validate_device(&fib, &contracts);

    // The flat trie vs the frozen pointer-trie reference: these share
    // the violation conventions exactly, so the comparison is the full
    // report — rule for rule, in order — not just violated keys.
    for (label, flat, reference) in [
        ("strict", &trie_strict, ReferenceTrieEngine::new()),
        ("semantic", &trie_sem, ReferenceTrieEngine::semantic()),
    ] {
        let want = reference.validate_device(&fib, &contracts);
        if *flat != want {
            return Some(format!(
                "{label} flat trie diverges from reference trie: {:?} vs {:?}",
                flat.violations, want.violations
            ));
        }
    }

    let kt_strict = violated_keys(&trie_strict);
    let kt_sem = violated_keys(&trie_sem);
    let ks_strict = violated_keys(&smt_strict);
    let ks_sem = violated_keys(&smt_sem);

    if kt_strict != ks_strict {
        return Some(format!(
            "strict engines disagree: trie {kt_strict:?} vs smt {ks_strict:?}"
        ));
    }
    if kt_sem != ks_sem {
        return Some(format!(
            "semantic engines disagree: trie {kt_sem:?} vs smt {ks_sem:?}"
        ));
    }
    // Strict only adds checks, never removes them.
    if !kt_sem.iter().all(|k| kt_strict.contains(k)) {
        return Some(format!(
            "semantic violations not a subset of strict: {kt_sem:?} vs {kt_strict:?}"
        ));
    }

    // Exhaustive reference, per contract.
    for c in contracts.contracts() {
        let key = (c.prefix, c.kind);
        for (strict, keys, label) in [
            (true, &kt_strict, "strict"),
            (false, &kt_sem, "semantic"),
        ] {
            let want = reference_violated(&fib, &c, strict);
            let got = keys.contains(&key);
            if got != want {
                return Some(format!(
                    "{label} engines say violated={got} for {:?} {}, per-address reference says {want}",
                    c.kind, c.prefix
                ));
            }
        }
    }
    None
}

fn single_device_case(r: &mut Rng) -> (Vec<FibSpec>, Vec<ContractSpec>) {
    (random_fib_specs(r, 12), random_contract_specs(r, 6))
}

fn minimize_single(
    fib: &[FibSpec],
    contracts: &[ContractSpec],
) -> (Vec<FibSpec>, Vec<ContractSpec>) {
    let contracts_min = shrink_list(contracts, |cs| check_single_device(fib, cs).is_some());
    let fib_min = shrink_list(fib, |fs| check_single_device(fs, &contracts_min).is_some());
    (fib_min, contracts_min)
}

/// Figure-3 fabric under a random fault set: whole-fabric trie/SMT
/// agreement plus the Claim 1 implication against the global baseline.
fn check_fabric(r: &mut Rng) -> Option<(String, Vec<usize>)> {
    let n_links = figure3().topology.links().len();
    let kills: Vec<usize> = {
        let k = r.below(4);
        let mut v: Vec<usize> = (0..k).map(|_| r.below(n_links as u64) as usize).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // SMT on every device would dominate the runtime; sample a few and
    // rely on many seeds for coverage.
    let smt_devices: Vec<usize> = (0..3).map(|_| r.below(20) as usize).collect();
    check_fabric_case(&kills, &smt_devices).map(|s| (s, kills))
}

fn check_fabric_case(kills: &[usize], smt_devices: &[usize]) -> Option<String> {
    let fig = figure3();
    let mut topology = fig.topology;
    for &k in kills {
        let id = topology.links()[k].id;
        topology.set_link_state(id, LinkState::OperDown);
    }
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let contracts = generate_contracts(&meta);

    let trie = TrieEngine::new();
    let smt = SmtEngine::new();
    let mut all_clean = true;
    for (i, (fib, dc)) in fibs.iter().zip(&contracts).enumerate() {
        let rt = trie.validate_device(fib, dc);
        all_clean &= rt.is_clean();
        if smt_devices.contains(&i) {
            let rs = smt.validate_device(fib, dc);
            let (kt, ks) = (violated_keys(&rt), violated_keys(&rs));
            if kt != ks {
                return Some(format!(
                    "fabric device {i}: trie {kt:?} vs smt {ks:?} (kills {kills:?})"
                ));
            }
        }
    }

    // Claim 1: local contracts all holding implies global reachability
    // (no black holes, no loops) for every hosted prefix.
    if all_clean {
        for (tor, prefix) in topology.all_hosted() {
            let analysis = forwarding_analysis(&fibs, &meta, prefix);
            for (dev, info) in analysis.info.iter().enumerate() {
                if matches!(info, PathInfo::Dropped | PathInfo::Loops) {
                    return Some(format!(
                        "all contracts clean but device {dev} has {info:?} toward {prefix} \
                         (hosted on {tor:?}, kills {kills:?})"
                    ));
                }
            }
        }
    }
    None
}

/// A Clos shape no larger than the 128-device shape (8 clusters × 8
/// ToRs, 4 leaves, 8 spines, 4 regional spines in 2 groups).
fn random_clos(r: &mut Rng) -> ClosParams {
    let leaves = r.range(1, 4) as u32;
    let groups = r.range(1, 2) as u32;
    ClosParams {
        clusters: r.range(1, 8) as u32,
        tors_per_cluster: r.range(1, 8) as u32,
        leaves_per_cluster: leaves,
        spines: leaves * r.range(1, u64::from(8 / leaves)) as u32,
        regional_spines: groups * r.range(1, u64::from(4 / groups)) as u32,
        regional_groups: groups,
        prefixes_per_tor: r.range(1, 2) as u32,
    }
}

/// One cold sweep of `params` with links `kills` down: the optimized
/// simulator under every option set against `reference_sim`, then the
/// flat trie against the reference trie on every device.
fn check_clos_case(
    params: &ClosParams,
    kills: &[usize],
    threads: usize,
    reference_sim: impl Fn(&Topology, &SimConfig) -> Vec<Fib>,
) -> Option<String> {
    let mut topology = build_clos(params);
    // Intent comes from the fabric as designed, so downed links show
    // up as violations for the two tries to agree on.
    let contracts = generate_contracts(&MetadataService::from_topology(&topology));
    for &k in kills {
        let id = topology.links()[k].id;
        topology.set_link_state(id, LinkState::OperDown);
    }
    let config = SimConfig::healthy();
    let want = reference_sim(&topology, &config);

    let runs = [SimOptions::default(), SimOptions { threads }]
        .map(|opts| (opts, simulate_with(&topology, &config, opts)));
    let (fibs, stats) = &runs[0].1;
    if stats.prefixes != topology.all_hosted().count() + 1 {
        return Some(format!(
            "{stats:?} on {params:?}: not one run per hosted prefix + default"
        ));
    }
    for (opts, (got, got_stats)) in &runs {
        if got_stats != stats {
            return Some(format!("{opts:?}: {got_stats:?} vs serial {stats:?}"));
        }
        if got.len() != want.len() {
            return Some(format!("{opts:?}: {} tables vs {}", got.len(), want.len()));
        }
        for (g, w) in got.iter().zip(&want) {
            // `Fib` equality covers the interned pool layout, so equal
            // tables also encode to equal wire bytes.
            if g != w {
                let rule = |f: &Fib, i: usize| {
                    f.entries().get(i).map(|e| {
                        let hops: Vec<String> =
                            f.next_hops(e).iter().map(|h| h.to_string()).collect();
                        format!("{} via [{}] local={}", e.prefix, hops.join(" "), e.local)
                    })
                };
                // No differing rule means the tables differ in pool
                // layout only.
                let differ = (0..g.len().max(w.len())).find(|&i| rule(g, i) != rule(w, i));
                return Some(format!(
                    "{opts:?}: device {:?} diverges from the reference simulator \
                     (links {kills:?} down), first at rule {differ:?}: {:?} vs {:?}",
                    g.device(),
                    differ.and_then(|i| rule(g, i)),
                    differ.and_then(|i| rule(w, i)),
                ));
            }
        }
    }

    let (flat, reference) = (TrieEngine::new(), ReferenceTrieEngine::new());
    for (fib, dc) in fibs.iter().zip(&contracts) {
        let (got, want) = (
            flat.validate_device(fib, dc),
            reference.validate_device(fib, dc),
        );
        if got != want {
            return Some(format!(
                "device {:?}: flat trie {:?} vs reference trie {:?} (links {kills:?} down)",
                fib.device(),
                got.violations,
                want.violations
            ));
        }
    }
    None
}

/// A failing cold sweep, with its downed links ddmin-shrunk.
fn clos_failure(
    params: &ClosParams,
    kills: &[usize],
    threads: usize,
    reference_sim: impl Fn(&Topology, &SimConfig) -> Vec<Fib>,
) -> Option<Failure> {
    let summary = check_clos_case(params, kills, threads, &reference_sim)?;
    let kills_min = shrink_list(kills, |ks| {
        check_clos_case(params, ks, threads, &reference_sim).is_some()
    });
    Some(Failure {
        summary,
        minimized: format!("{params:?}, threads {threads}, links {kills_min:?} set OperDown"),
    })
}

/// Contracts `derive` hands out for the fabric of `params` against the
/// frozen per-device generator's, contract for contract in report
/// order; a failure names the fewest devices that still show it.
fn contracts_failure(
    params: &ClosParams,
    derive: impl Fn(&MetadataService) -> Vec<DeviceContracts>,
) -> Option<Failure> {
    let meta = MetadataService::from_topology(&build_clos(params));
    let got = derive(&meta);
    let reference = crate::reference::contracts::ContractGenerator::new(&meta);
    let diverges = |d: &DeviceId| -> Option<String> {
        let (got, want) = (&got[d.0 as usize], reference.device(*d));
        let walked: Vec<Contract> = got.contracts().collect();
        if (got.len(), walked.len()) != (want.len(), want.len()) {
            return Some(format!(
                "device {d:?}: len() {}, {} contracts walked, reference generator {}",
                got.len(),
                walked.len(),
                want.len()
            ));
        }
        walked.iter().zip(&want).enumerate().find_map(|(i, (g, w))| {
            let same = (g.device, g.prefix, g.kind, g.expectation)
                == (w.device, w.prefix, w.kind, &w.expectation);
            (!same).then(|| {
                format!("device {d:?} contract #{i}: {g:?} vs reference generator {w:?}")
            })
        })
    };
    let devices: Vec<DeviceId> = meta.devices().iter().map(|d| d.id).collect();
    let summary = devices.iter().find_map(diverges)?;
    let devices_min = shrink_list(&devices, |ds| ds.iter().any(|d| diverges(d).is_some()));
    Some(Failure {
        summary,
        minimized: format!("{params:?}, contracts of devices {devices_min:?}"),
    })
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let (fib, contracts) = single_device_case(&mut r);
    if let Some(summary) = check_single_device(&fib, &contracts) {
        let (fib_min, contracts_min) = minimize_single(&fib, &contracts);
        return Err(Failure {
            summary,
            minimized: render_case(&fib_min, &contracts_min),
        });
    }
    // Whole-fabric mode on a fraction of seeds (simulate + 20 devices
    // is ~an order of magnitude more work than the single-device case).
    if r.chance(1, 8) {
        let smt_devices: Vec<usize> = (0..3).map(|_| r.below(20) as usize).collect();
        if let Some((summary, kills)) = check_fabric(&mut r) {
            let kills_min = shrink_list(&kills, |ks| {
                check_fabric_case(ks, &smt_devices).is_some()
            });
            return Err(Failure {
                summary,
                minimized: format!("figure3 with links {kills_min:?} set OperDown"),
            });
        }
    }
    // Cold-sweep mode on every seed: four convergences and two
    // validation passes of at most 128 devices, a few milliseconds.
    let params = random_clos(&mut r);
    let n_links = build_clos(&params).links().len() as u64;
    let kills: Vec<usize> = (0..r.below(6)).map(|_| r.below(n_links) as usize).collect();
    let threads = r.range(2, 4) as usize;
    if let Some(failure) = clos_failure(&params, &kills, threads, crate::reference::sim::simulate) {
        return Err(failure);
    }
    contracts_failure(&params, generate_contracts).map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netprim::Ipv4;

    #[test]
    fn reference_flags_missing_default() {
        let fib = build_fib(DeviceId(0), &[]);
        let dc = build_contracts(
            DeviceId(0),
            &[ContractSpec {
                prefix: Prefix::DEFAULT,
                kind: ContractKind::Default,
                expected: Some(vec![Ipv4(0x1e00_0001)]),
            }],
        );
        assert!(reference_violated(&fib, &dc.default_contract().unwrap(), false));
    }

    #[test]
    fn healthy_fabric_has_no_divergence() {
        assert_eq!(check_fabric_case(&[], &[0, 7, 19]), None);
    }

    #[test]
    fn cold_sweep_arm_reports_and_shrinks_a_planted_divergence() {
        // A reference simulator that is wrong only while link 3 is
        // down: it loses one hop of device 0's first ECMP rule.
        let broken = |t: &Topology, c: &SimConfig| {
            let mut fibs = crate::reference::sim::simulate(t, c);
            if !t.links()[3].state.session_up() {
                let fib = &fibs[0];
                let mut b = bgpsim::FibBuilder::new(fib.device());
                let mut flipped = false;
                for e in fib.entries() {
                    let mut hops = fib.next_hops(e).to_vec();
                    if !flipped && hops.len() > 1 {
                        hops.pop();
                        flipped = true;
                    }
                    b.push(e.prefix, hops, e.local);
                }
                assert!(flipped);
                fibs[0] = b.finish();
            }
            fibs
        };
        let (params, kills) = (ClosParams::default(), [1, 3, 7]);
        assert!(clos_failure(&params, &kills, 2, crate::reference::sim::simulate).is_none());
        let failure = clos_failure(&params, &kills, 2, broken).expect("planted divergence");
        assert!(
            failure
                .summary
                .contains("diverges from the reference simulator"),
            "{}",
            failure.summary
        );
        assert!(
            failure.minimized.ends_with("links [3] set OperDown"),
            "{}",
            failure.minimized
        );
    }

    #[test]
    fn contracts_arm_reports_and_shrinks_a_planted_divergence() {
        // A generator that is wrong for one spine only: it binds "the
        // leaves of cluster 0" to what cluster 1's prefixes expect.
        let params = ClosParams::default();
        let spine = build_clos(&params)
            .devices_with_role(dctopo::Role::Spine)
            .nth(1)
            .expect("the default Clos has spines")
            .id;
        let broken = |meta: &MetadataService| {
            let mut all = generate_contracts(meta);
            let cluster_of = |p: Prefix| {
                let fact = meta.prefix_facts().iter().find(|f| f.prefix == p);
                fact.map(|f| f.cluster.0)
            };
            let dc = &all[spine.0 as usize];
            let toward_1 = dc
                .specifics()
                .find(|c| cluster_of(c.prefix) == Some(1))
                .expect("cluster 1 hosts prefixes")
                .expectation
                .clone();
            let rebound = DeviceContracts::new(
                spine,
                dc.contracts().map(|c| {
                    let wrong = c.kind == ContractKind::Specific && cluster_of(c.prefix) == Some(0);
                    let expectation = if wrong { &toward_1 } else { c.expectation };
                    (c.prefix, c.kind, expectation.clone())
                }),
            );
            all[spine.0 as usize] = rebound;
            all
        };
        assert!(contracts_failure(&params, generate_contracts).is_none());
        let failure = contracts_failure(&params, broken).expect("planted divergence");
        assert!(
            failure.summary.starts_with(&format!("device {spine:?} contract #1:")),
            "{}",
            failure.summary
        );
        assert!(
            failure.minimized.ends_with(&format!("contracts of devices [{spine:?}]")),
            "{}",
            failure.minimized
        );
    }

    #[test]
    fn shadowed_mismatched_rule_is_not_a_violation() {
        // A /31 rule with wrong hops fully shadowed by two correct /32
        // extensions never forwards anything inside the contract range:
        // Definition 2.1 is satisfied, so no engine may flag it. This is
        // the minimized form of the trie over-report the fuzzer caught.
        let good = vec![Ipv4(0x1e00_0001)];
        let bad = vec![Ipv4(0x1e00_0002)];
        let base = 0x0a00_0000u32;
        let fib = vec![
            FibSpec {
                prefix: Prefix::containing(Ipv4(base), 32).unwrap(),
                hops: good.clone(),
                local: false,
            },
            FibSpec {
                prefix: Prefix::containing(Ipv4(base + 1), 32).unwrap(),
                hops: good.clone(),
                local: false,
            },
            FibSpec {
                prefix: Prefix::containing(Ipv4(base), 31).unwrap(),
                hops: bad,
                local: false,
            },
            FibSpec {
                prefix: Prefix::containing(Ipv4(base), 30).unwrap(),
                hops: good.clone(),
                local: false,
            },
        ];
        let contracts = vec![ContractSpec {
            prefix: Prefix::containing(Ipv4(base), 30).unwrap(),
            kind: ContractKind::Specific,
            expected: Some(good),
        }];
        assert_eq!(check_single_device(&fib, &contracts), None);
    }
}
