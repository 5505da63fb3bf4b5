//! The abstract local-validation framework of §2.4.5.
//!
//! "In the abstract, local validation amounts to checking policies
//! `P_v : H → 2^{H×V}` that at node `v` map a header `h` into a set of
//! next nodes… It requires a mapping into the natural numbers
//! `δ : H × V → ℕ` (perhaps helpful to think of as a time to live),
//! such that whenever `(h', v') ∈ P_v(h)`, then `δ(h,v) > δ(h',v')` and
//! such that when `δ(h,v) = 0`, then `v` is the intended destination
//! for header `h`. It requires a cardinality bound `C : H × V → ℕ` …
//! satisfied when `|{v' | (h',v') ∈ P_v(h)}| ≥ C(h,v)`."
//!
//! This module implements exactly that machinery over merged FIBs and
//! checks the two obligations per (prefix, device):
//!
//! * **δ-decrease** — every next hop strictly decreases the ranking
//!   function, which for a Clos is the tier-distance to the hosting
//!   ToR. This rules out loops and non-shortest detours by a purely
//!   local check.
//! * **C-cardinality** — the device has at least `C(h, v)` next hops,
//!   with `C(h, v) > 0` whenever `δ(h, v) > 0` (no dead ends).
//!
//! Together with the constructive global oracle in
//! [`super::global_baseline`], the integration tests establish Claim 1:
//! if the local obligations hold everywhere, all ToR pairs are
//! reachable over the maximal set of shortest paths.

use bgpsim::Fib;
use dctopo::{ClusterId, DeviceId, MetadataService, Role};
use netprim::Prefix;

/// The ranking function δ for one destination prefix: the expected
/// forwarding distance (in hops) from each device to the hosting ToR,
/// derived from architecture alone.
///
/// ToR hosting the prefix: 0. Leaves of the hosting cluster: 1. Spines:
/// 2. Leaves of other clusters: 3. ToRs of other clusters: 4 (the
/// shortest-path lengths behind Intent 2). Regional spines are outside
/// the validated boundary and get `None`.
pub fn delta(meta: &MetadataService, prefix_cluster: ClusterId, hosting_tor: DeviceId, v: DeviceId) -> Option<u32> {
    let dev = meta.device(v);
    Some(match dev.role {
        Role::Tor if v == hosting_tor => 0,
        Role::Leaf if dev.cluster == Some(prefix_cluster) => 1,
        Role::Spine => 2,
        Role::Leaf => 3,
        Role::Tor => {
            if dev.cluster == Some(prefix_cluster) {
                2 // intra-cluster ToR: ToR → leaf → ToR
            } else {
                4
            }
        }
        Role::RegionalSpine => return None,
    })
}

/// The cardinality lower bound C for one (prefix, device): the full
/// redundancy the architecture provides (Intent 3). `C(h,v) > 0`
/// whenever `δ(h,v) > 0`, as §2.4.5 requires.
pub fn cardinality(meta: &MetadataService, prefix_cluster: ClusterId, hosting_tor: DeviceId, v: DeviceId) -> Option<u32> {
    let dev = meta.device(v);
    Some(match dev.role {
        Role::Tor if v == hosting_tor => 0,
        // Any other ToR forwards up to all its leaves.
        Role::Tor => meta.neighbors_with_role(v, Role::Leaf).count() as u32,
        Role::Leaf if dev.cluster == Some(prefix_cluster) => 1, // the hosting ToR
        // Leaves of remote clusters forward to all their plane spines.
        Role::Leaf => meta.neighbors_with_role(v, Role::Spine).count() as u32,
        // Spines forward down to their leaf in the hosting cluster.
        Role::Spine => meta
            .neighbors_with_role(v, Role::Leaf)
            .filter(|nf| meta.device(nf.device).cluster == Some(prefix_cluster))
            .count() as u32,
        Role::RegionalSpine => return None,
    })
}

/// One failed local obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationFailure {
    /// A next hop does not strictly decrease δ.
    DeltaViolation {
        /// The device whose FIB entry is at fault.
        device: DeviceId,
        /// The prefix.
        prefix: Prefix,
        /// The offending next hop.
        next_hop: DeviceId,
        /// δ at the device.
        delta_here: u32,
        /// δ at the next hop.
        delta_there: u32,
    },
    /// Too few next hops (cardinality bound not met).
    CardinalityViolation {
        /// The device.
        device: DeviceId,
        /// The prefix.
        prefix: Prefix,
        /// Programmed next-hop count.
        actual: u32,
        /// Required lower bound.
        required: u32,
    },
}

/// Check both §2.4.5 obligations for every (validated device, hosted
/// prefix) pair over the merged FIBs. Empty result = obligations hold.
pub fn check_local_obligations(
    fibs: &[Fib],
    meta: &MetadataService,
) -> Vec<ObligationFailure> {
    let mut failures = Vec::new();
    for fact in meta.prefix_facts() {
        for dev in meta.devices() {
            let Some(d_here) = delta(meta, fact.cluster, fact.tor, dev.id) else {
                continue;
            };
            if d_here == 0 {
                continue; // intended destination
            }
            let Some(required) = cardinality(meta, fact.cluster, fact.tor, dev.id) else {
                continue;
            };
            let fib = &fibs[dev.id.0 as usize];
            let hops: Vec<DeviceId> = match fib.lookup(fact.prefix.addr()) {
                None => Vec::new(),
                Some(e) => fib
                    .next_hops(e)
                    .iter()
                    .filter_map(|&h| meta.owner_of(h))
                    .collect(),
            };
            if (hops.len() as u32) < required {
                failures.push(ObligationFailure::CardinalityViolation {
                    device: dev.id,
                    prefix: fact.prefix,
                    actual: hops.len() as u32,
                    required,
                });
            }
            for nh in hops {
                match delta(meta, fact.cluster, fact.tor, nh) {
                    Some(d_there) if d_there < d_here => {}
                    Some(d_there) => failures.push(ObligationFailure::DeltaViolation {
                        device: dev.id,
                        prefix: fact.prefix,
                        next_hop: nh,
                        delta_here: d_here,
                        delta_there: d_there,
                    }),
                    None => failures.push(ObligationFailure::DeltaViolation {
                        device: dev.id,
                        prefix: fact.prefix,
                        next_hop: nh,
                        delta_here: d_here,
                        delta_there: u32::MAX,
                    }),
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::global_baseline::{forwarding_analysis, PathInfo};
    use crate::reference::tests::{fig3_faulted, fig3_healthy};

    #[test]
    fn healthy_network_satisfies_all_obligations() {
        let (_f, fibs, _c, meta) = fig3_healthy();
        let failures = check_local_obligations(&fibs, &meta);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn obligations_imply_global_reachability_claim1() {
        // Constructive Claim 1 on the healthy network: obligations hold
        // (previous test) AND the independent global oracle confirms
        // every ToR pair reaches over shortest paths with max fan-out.
        let (f, fibs, _c, meta) = fig3_healthy();
        assert!(check_local_obligations(&fibs, &meta).is_empty());
        for (pi, &prefix) in f.prefixes.iter().enumerate() {
            let analysis = forwarding_analysis(&fibs, &meta, prefix);
            for (ti, &tor) in f.tors.iter().enumerate() {
                if ti == pi {
                    continue;
                }
                match analysis.from_device(tor) {
                    PathInfo::Reaches { min_len, max_len, paths } => {
                        let expect = if (ti < 2) == (pi < 2) { 2 } else { 4 };
                        assert_eq!((min_len, max_len), (expect, expect));
                        assert_eq!(paths, 4, "maximal redundancy");
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn faults_break_obligations_locally() {
        let (f, fibs, _c, meta) = fig3_faulted();
        let failures = check_local_obligations(&fibs, &meta);
        assert!(!failures.is_empty());
        // ToR1 must report a cardinality violation for Prefix_B (its
        // δ-distance is 2 but it has no conforming next hops).
        assert!(failures.iter().any(|fl| matches!(
            fl,
            ObligationFailure::CardinalityViolation { device, prefix, .. }
                if *device == f.tors[0] && *prefix == f.prefixes[1]
        )));
        // Delta violations appear where traffic would climb to the
        // regional spine: D1 forwards Prefix_B along its default (up),
        // i.e. its FIB lookup resolves to regional spines with no δ.
        assert!(failures.iter().any(|fl| matches!(
            fl,
            ObligationFailure::DeltaViolation { device, prefix, .. }
                if *device == f.d[0] && *prefix == f.prefixes[1]
        )));
    }

    #[test]
    fn delta_is_architecturally_consistent() {
        // On the expected topology, every expected next hop of a
        // contract decreases δ — the reason the decomposition is sound.
        let (f, _fibs, contracts, meta) = fig3_healthy();
        for fact in meta.prefix_facts() {
            for dc in &contracts {
                for c in dc.specifics().filter(|c| c.prefix == fact.prefix) {
                    let here = delta(&meta, fact.cluster, fact.tor, c.device).unwrap();
                    for &h in c.next_hops().unwrap() {
                        let nh = meta.owner_of(h).unwrap();
                        let there = delta(&meta, fact.cluster, fact.tor, nh).unwrap();
                        assert!(
                            there < here,
                            "contract next hop must descend: {:?} {} -> {:?} {}",
                            c.device,
                            here,
                            nh,
                            there
                        );
                    }
                }
            }
        }
        let _ = f;
    }

    #[test]
    fn cardinality_positive_where_delta_positive() {
        // §2.4.5: C(h,v) > 0 whenever δ(h,v) > 0.
        let (_f, _fibs, _c, meta) = fig3_healthy();
        for fact in meta.prefix_facts() {
            for dev in meta.devices() {
                if let (Some(d), Some(cd)) = (
                    delta(&meta, fact.cluster, fact.tor, dev.id),
                    cardinality(&meta, fact.cluster, fact.tor, dev.id),
                ) {
                    if d > 0 {
                        assert!(cd > 0, "{:?}", dev.id);
                    } else {
                        assert_eq!(cd, 0);
                    }
                }
            }
        }
    }
}
