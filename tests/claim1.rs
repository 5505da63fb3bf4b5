//! Claim 1 (§2.4.5), established constructively:
//!
//! > "If local contracts are preserved in the ToR, leaf, and spine
//! > devices, then all pairs of ToRs in the datacenter are reachable to
//! > one another through the maximal set of shortest paths provided by
//! > the redundant routers deployed in the datacenter."
//!
//! Strategy: over a sweep of Clos shapes and random fault sets, compare
//! the *local* verdict (contract validation + the §2.4.5 δ/C
//! obligations) with the *global* oracle (exact path analysis over the
//! merged snapshot). Local-clean must imply globally maximal shortest
//! paths; conversely, any loss of shortest-path redundancy must surface
//! as some local violation.

use difftest::reference::framework::check_local_obligations;
use difftest::reference::global_baseline::{forwarding_analysis, PathInfo};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use validatedc::prelude::*;

/// Expected shortest-path count between two ToRs in a healthy Clos:
/// intra-cluster = #leaves; inter-cluster = #leaves × (spines per
/// plane) × 1 (each spine reaches the destination cluster through
/// exactly one leaf, which serves the ToR directly).
fn expected_paths(p: &ClosParams) -> (u64, u64) {
    let intra = p.leaves_per_cluster as u64;
    let inter = p.leaves_per_cluster as u64 * (p.spines / p.leaves_per_cluster) as u64;
    (intra, inter)
}

fn sweep_shapes() -> Vec<ClosParams> {
    vec![
        ClosParams {
            clusters: 2,
            tors_per_cluster: 2,
            leaves_per_cluster: 4,
            spines: 4,
            regional_spines: 4,
            regional_groups: 2,
            prefixes_per_tor: 1,
        },
        ClosParams {
            clusters: 3,
            tors_per_cluster: 4,
            leaves_per_cluster: 2,
            spines: 6,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 2,
        },
        ClosParams::default(),
    ]
}

#[test]
fn clean_local_contracts_imply_maximal_global_reachability() {
    for params in sweep_shapes() {
        let topology = build_clos(&params);
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);

        // Local: contracts and formal obligations all hold.
        let report = Validator::new(&meta).build().run(&fibs);
        assert!(report.is_clean(), "{params:?}");
        assert!(check_local_obligations(&fibs, &meta).is_empty());

        // Global: every ToR pair reaches on shortest paths with the
        // architecture's full redundancy.
        let (intra, inter) = expected_paths(&params);
        for fact in meta.prefix_facts() {
            let analysis = forwarding_analysis(&fibs, &meta, fact.prefix);
            for tor in topology.devices_with_role(Role::Tor) {
                if tor.id == fact.tor {
                    assert_eq!(analysis.from_device(tor.id), PathInfo::Local);
                    continue;
                }
                let same_cluster = tor.cluster == Some(fact.cluster);
                match analysis.from_device(tor.id) {
                    PathInfo::Reaches {
                        min_len,
                        max_len,
                        paths,
                    } => {
                        let expect_len = if same_cluster { 2 } else { 4 };
                        assert_eq!(min_len, expect_len, "{params:?}");
                        assert_eq!(max_len, expect_len, "only shortest paths");
                        assert_eq!(
                            paths,
                            if same_cluster { intra } else { inter },
                            "maximal redundancy {params:?}"
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }
}

#[test]
fn redundancy_loss_always_surfaces_as_a_local_violation() {
    // Contrapositive direction, probed with random fault injection:
    // whenever the global oracle sees *less* than maximal shortest-path
    // redundancy for some pair, at least one device must violate a
    // local contract.
    let mut rng = StdRng::seed_from_u64(0xC1A11);
    let params = ClosParams {
        clusters: 2,
        tors_per_cluster: 3,
        leaves_per_cluster: 3,
        spines: 3,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    };
    let (intra, inter) = expected_paths(&params);
    for round in 0..20 {
        let mut topology = build_clos(&params);
        // Fail 1..4 random links.
        let link_count = topology.links().len();
        let n_faults = rng.gen_range(1..=4);
        let mut ids: Vec<u32> = (0..link_count as u32).collect();
        ids.shuffle(&mut rng);
        for &l in ids.iter().take(n_faults) {
            topology.set_link_state(dctopo::LinkId(l), LinkState::OperDown);
        }
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);
        let report = Validator::new(&meta).build().run(&fibs);

        let mut degraded = false;
        for fact in meta.prefix_facts() {
            let analysis = forwarding_analysis(&fibs, &meta, fact.prefix);
            for tor in topology.devices_with_role(Role::Tor) {
                if tor.id == fact.tor {
                    continue;
                }
                let same_cluster = tor.cluster == Some(fact.cluster);
                let expect_len = if same_cluster { 2 } else { 4 };
                let expect_paths = if same_cluster { intra } else { inter };
                match analysis.from_device(tor.id) {
                    PathInfo::Reaches {
                        min_len,
                        max_len,
                        paths,
                    } if min_len == expect_len
                        && max_len == expect_len
                        && paths == expect_paths => {}
                    _ => degraded = true,
                }
            }
        }
        if degraded {
            assert!(
                !report.is_clean(),
                "round {round}: global degradation with no local violation"
            );
        } else {
            // No degradation at all means the faults were absorbed…
            // but links feeding contracts failed, so local checks must
            // still hold only if the faults touched no validated hop.
            // (With ToR/leaf/spine faults they always do; just sanity
            // check consistency.)
            assert!(report.is_clean() || report.total_violations() > 0);
        }
    }
}

#[test]
fn contract_violations_dominate_framework_obligations() {
    // The concrete contracts are strictly stronger than the §2.4.5
    // δ/C obligations: contracts additionally police default-route
    // redundancy toward the regional spines (outside δ's domain). So
    // a clean contract pass implies the obligations hold, and any
    // obligation failure implies a dirty contract pass — but not the
    // converse.
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let params = ClosParams {
        clusters: 2,
        tors_per_cluster: 2,
        leaves_per_cluster: 2,
        spines: 2,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    };
    for _ in 0..30 {
        let mut topology = build_clos(&params);
        let n_faults = rng.gen_range(0..=3);
        let link_count = topology.links().len() as u32;
        for _ in 0..n_faults {
            let l = rng.gen_range(0..link_count);
            topology.set_link_state(dctopo::LinkId(l), LinkState::OperDown);
        }
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);
        let report = Validator::new(&meta).build().run(&fibs);
        let obligations = check_local_obligations(&fibs, &meta);
        if report.is_clean() {
            assert!(obligations.is_empty(), "clean contracts imply obligations hold");
        }
        if !obligations.is_empty() {
            assert!(!report.is_clean(), "obligation failure must show as a violation");
        }
    }
}
