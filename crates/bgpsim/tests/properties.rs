//! Property-based tests for the BGP simulator: structural invariants
//! that must hold for every generated topology and fault set.

use bgpsim::{simulate, Fib, SimConfig};
use dctopo::{build_clos, ClosParams, LinkId, LinkState, MetadataService, Role};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ClosParams> {
    (1u32..=3, 1u32..=4, 1u32..=3, 1u32..=2, 1u32..=2).prop_map(
        |(clusters, tors, leaves, spine_per_plane, regionals)| ClosParams {
            clusters,
            tors_per_cluster: tors,
            leaves_per_cluster: leaves,
            spines: leaves * spine_per_plane,
            regional_spines: regionals,
            regional_groups: 1,
            prefixes_per_tor: 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn healthy_fibs_have_full_tables_and_valid_next_hops(params in arb_params()) {
        let topology = build_clos(&params);
        let meta = MetadataService::from_topology(&topology);
        let fibs = simulate(&topology, &SimConfig::healthy());
        let total_prefixes = (params.clusters * params.tors_per_cluster) as usize;
        for d in topology.devices() {
            let fib = &fibs[d.id.0 as usize];
            // Every device sees every hosted prefix plus the default.
            prop_assert_eq!(fib.len(), total_prefixes + 1, "{}", d.name);
            for e in fib.entries() {
                // Every next hop resolves to a *session neighbor*.
                for h in fib.next_hops(e) {
                    let owner = meta.owner_of(*h);
                    prop_assert!(owner.is_some(), "unknown next-hop address");
                    let owner = owner.unwrap();
                    prop_assert!(
                        topology.live_neighbors(d.id).any(|(_, n)| n == owner),
                        "next hop not a live neighbor"
                    );
                }
                // Local entries have no next hops and vice versa.
                prop_assert_eq!(e.local, fib.next_hops(e).is_empty());
            }
        }
    }

    #[test]
    fn fault_injection_never_creates_bogus_routes(
        params in arb_params(),
        fault_seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut topology = build_clos(&params);
        let mut rng = StdRng::seed_from_u64(fault_seed);
        let n_links = topology.links().len() as u32;
        for _ in 0..rng.gen_range(0..=4) {
            let l = LinkId(rng.gen_range(0..n_links));
            topology.set_link_state(
                l,
                if rng.gen_bool(0.5) {
                    LinkState::OperDown
                } else {
                    LinkState::AdminShut
                },
            );
        }
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);
        for d in topology.devices() {
            let fib = &fibs[d.id.0 as usize];
            for e in fib.entries() {
                for h in fib.next_hops(e) {
                    let owner = meta.owner_of(*h).expect("hop resolves");
                    // Routes never point over dead links.
                    let link = topology.link_between(d.id, owner).unwrap();
                    prop_assert!(link.state.session_up());
                }
            }
        }
    }

    #[test]
    fn ecmp_sets_are_monotone_under_link_failure(params in arb_params()) {
        // Failing one ToR uplink can only shrink (or preserve) every
        // ECMP set on that ToR, never grow it.
        let mut topology = build_clos(&params);
        let tor = topology.devices_with_role(Role::Tor).next().unwrap().id;
        let before = simulate(&topology, &SimConfig::healthy());
        let link = topology.links_of(tor).next().unwrap().id;
        topology.set_link_state(link, LinkState::OperDown);
        let after = simulate(&topology, &SimConfig::healthy());
        let (fb, fa) = (&before[tor.0 as usize], &after[tor.0 as usize]);
        for ea in fa.entries() {
            if let Some(eb) = fb.entry_for(ea.prefix) {
                prop_assert!(fa.next_hops(ea).len() <= fb.next_hops(eb).len());
            }
        }
    }

    #[test]
    fn simulation_is_deterministic(params in arb_params()) {
        let topology = build_clos(&params);
        let a = simulate(&topology, &SimConfig::healthy());
        let b = simulate(&topology, &SimConfig::healthy());
        prop_assert_eq!(a, b);
    }
}

/// A wire delta applied to a simulator-emitted table is the
/// simulator's successor under strict `==`, pool ids included — not
/// merely a table with the same `content_hash`. Needs a delta that
/// brings in two or more hop sets at once: only then can the order
/// they enter the pool in differ from the simulator's.
#[test]
fn applied_delta_is_the_simulated_successor_pool_layout_included() {
    let mut topology = build_clos(&ClosParams {
        clusters: 2,
        tors_per_cluster: 4,
        leaves_per_cluster: 4,
        spines: 4,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    });
    let before = simulate(&topology, &SimConfig::healthy());
    // One uplink of each of the first three ToRs, a different leaf each.
    let tors: Vec<_> = topology.devices_with_role(Role::Tor).map(|d| d.id).collect();
    for (i, &tor) in tors.iter().take(3).enumerate() {
        let link = topology.links_of(tor).nth(i).unwrap().id;
        topology.set_link_state(link, LinkState::OperDown);
    }
    let after = simulate(&topology, &SimConfig::healthy());
    let mut most_new_sets = 0;
    for (old, new) in before.iter().zip(&after) {
        fn pool(fib: &Fib) -> impl Iterator<Item = &[netprim::Ipv4]> {
            (0..fib.set_pool_len() as u32).map(|id| fib.set(id))
        }
        let new_sets = pool(new).filter(|&s| pool(old).all(|o| o != s)).count();
        most_new_sets = most_new_sets.max(new_sets);
        let applied = old.apply_delta(&Fib::delta(old, new)).unwrap();
        assert_eq!(&applied, new, "device {:?}", old.device());
    }
    assert!(most_new_sets >= 2, "some delta must bring in ≥ 2 hop sets, most was {most_new_sets}");
}
