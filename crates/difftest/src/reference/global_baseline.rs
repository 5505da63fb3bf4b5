//! Global verification baselines over merged FIB snapshots.
//!
//! Two purposes (§1, experiment E8):
//!
//! * **Oracle for Claim 1** — [`forwarding_analysis`] computes, for
//!   every destination prefix, the exact forwarding behavior from every
//!   device by dynamic programming over the merged forwarding graph:
//!   reachability, minimal/maximal path lengths, and the number of
//!   distinct forwarding paths. The integration suite uses it to verify
//!   that clean local contracts imply all-pairs shortest-path
//!   reachability with maximal redundancy.
//! * **Cost model of global checking** — [`all_pairs_paths_naive`]
//!   enumerates paths per (source, destination) pair the way a
//!   snapshot-based checker without datacenter insight must ("at least
//!   cubic in the network graph … an exponential number of ECMP
//!   redundant paths", §2.4). Benchmark E8 runs it against the local
//!   runner to reproduce the scaling gap.

use bgpsim::Fib;
use dctopo::{DeviceId, MetadataService};
use netprim::Prefix;

/// Forwarding behavior of one device toward one destination prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathInfo {
    /// The destination is delivered here (hosting device).
    Local,
    /// Packets reach the destination: (min hops, max hops, #paths).
    Reaches {
        /// Shortest forwarding path length in hops.
        min_len: u32,
        /// Longest forwarding path length in hops.
        max_len: u32,
        /// Number of distinct forwarding paths (saturating).
        paths: u64,
    },
    /// Packets are dropped (no route at some device).
    Dropped,
    /// Packets loop (cycle in the forwarding graph).
    Loops,
}

/// Per-destination analysis of the merged snapshot.
#[derive(Debug, Clone)]
pub struct DestinationAnalysis {
    /// The destination prefix analyzed.
    pub prefix: Prefix,
    /// Behavior per device, indexed by device id.
    pub info: Vec<PathInfo>,
}

/// Analyze forwarding toward `prefix` from every device, following
/// longest-prefix-match through the merged FIBs.
pub fn forwarding_analysis(
    fibs: &[Fib],
    meta: &MetadataService,
    prefix: Prefix,
) -> DestinationAnalysis {
    let n = fibs.len();
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unvisited,
        InProgress,
        Done,
    }
    let mut state = vec![State::Unvisited; n];
    let mut info = vec![PathInfo::Dropped; n];
    // Destination address representative: any address in the prefix.
    let probe = prefix.addr();

    // Iterative DFS with explicit stack to avoid recursion limits on
    // long failure chains.
    for start in 0..n {
        if state[start] == State::Done {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(d, _)) = stack.last() {
            if state[d] == State::Done {
                stack.pop();
                continue;
            }
            state[d] = State::InProgress;
            // Resolve this device's successors once.
            let succs: Vec<usize> = match fibs[d].lookup(probe) {
                None => Vec::new(),
                Some(e) if e.local => {
                    info[d] = PathInfo::Local;
                    state[d] = State::Done;
                    stack.pop();
                    continue;
                }
                Some(e) => fibs[d]
                    .next_hops(e)
                    .iter()
                    .filter_map(|&h| meta.owner_of(h))
                    .map(|id| id.0 as usize)
                    .collect(),
            };
            if succs.is_empty() {
                info[d] = PathInfo::Dropped;
                state[d] = State::Done;
                stack.pop();
                continue;
            }
            // Push unresolved successors first.
            let mut pending = false;
            for &s in &succs {
                match state[s] {
                    State::Unvisited => {
                        stack.push((s, 0));
                        pending = true;
                    }
                    State::InProgress => {
                        // Cycle through s.
                        info[d] = PathInfo::Loops;
                    }
                    State::Done => {}
                }
            }
            if pending {
                continue;
            }
            // All successors resolved: combine.
            if info[d] == PathInfo::Loops
                || succs.iter().any(|&s| info[s] == PathInfo::Loops)
            {
                info[d] = PathInfo::Loops;
            } else if succs.iter().all(|&s| info[s] == PathInfo::Dropped) {
                info[d] = PathInfo::Dropped;
            } else {
                let mut min_len = u32::MAX;
                let mut max_len = 0u32;
                let mut paths = 0u64;
                let mut any_drop = false;
                for &s in &succs {
                    match info[s] {
                        PathInfo::Local => {
                            min_len = min_len.min(1);
                            max_len = max_len.max(1);
                            paths = paths.saturating_add(1);
                        }
                        PathInfo::Reaches {
                            min_len: ml,
                            max_len: xl,
                            paths: p,
                        } => {
                            min_len = min_len.min(ml + 1);
                            max_len = max_len.max(xl + 1);
                            paths = paths.saturating_add(p);
                        }
                        PathInfo::Dropped => any_drop = true,
                        PathInfo::Loops => unreachable!("handled above"),
                    }
                }
                // ECMP may spray some flows into a dropping branch; we
                // classify by the reachable fraction but record drops by
                // leaving max semantics to the caller. A device with any
                // dropping ECMP branch is still "Reaches" for the probe
                // flows that take surviving branches.
                let _ = any_drop;
                info[d] = PathInfo::Reaches {
                    min_len,
                    max_len,
                    paths,
                };
            }
            state[d] = State::Done;
            stack.pop();
        }
    }
    DestinationAnalysis { prefix, info }
}

impl DestinationAnalysis {
    /// Path info from one device.
    pub fn from_device(&self, d: DeviceId) -> PathInfo {
        self.info[d.0 as usize]
    }
}

/// Naive global checker: enumerate every forwarding path from `src`
/// toward `prefix` by DFS over the merged snapshot. Returns
/// `(paths_found, min_len, max_len)`; `cap` bounds the enumeration
/// (the blow-up the paper attributes to global approaches — "roughly
/// 1000 different paths per pair of end-points", §2.4).
pub fn all_pairs_paths_naive(
    fibs: &[Fib],
    meta: &MetadataService,
    src: DeviceId,
    prefix: Prefix,
    cap: u64,
) -> (u64, u32, u32) {
    let probe = prefix.addr();
    let mut count = 0u64;
    let mut min_len = u32::MAX;
    let mut max_len = 0u32;
    // DFS stack of (device, depth).
    let mut stack: Vec<(usize, u32)> = vec![(src.0 as usize, 0)];
    while let Some((d, depth)) = stack.pop() {
        if count >= cap {
            break;
        }
        if depth > 16 {
            continue; // loop guard
        }
        match fibs[d].lookup(probe) {
            None => {}
            Some(e) if e.local => {
                count += 1;
                min_len = min_len.min(depth);
                max_len = max_len.max(depth);
            }
            Some(e) => {
                for &h in fibs[d].next_hops(e) {
                    if let Some(next) = meta.owner_of(h) {
                        stack.push((next.0 as usize, depth + 1));
                    }
                }
            }
        }
    }
    (count, min_len, max_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tests::{fig3_faulted, fig3_healthy};

    #[test]
    fn healthy_fig3_all_tor_pairs_shortest_and_redundant() {
        let (f, fibs, _c, meta) = fig3_healthy();
        for (pi, &prefix) in f.prefixes.iter().enumerate() {
            let analysis = forwarding_analysis(&fibs, &meta, prefix);
            assert_eq!(analysis.from_device(f.tors[pi]), PathInfo::Local);
            for (ti, &tor) in f.tors.iter().enumerate() {
                if ti == pi {
                    continue;
                }
                let same_cluster = (ti < 2) == (pi < 2);
                match analysis.from_device(tor) {
                    PathInfo::Reaches {
                        min_len,
                        max_len,
                        paths,
                    } => {
                        let expect = if same_cluster { 2 } else { 4 };
                        assert_eq!(min_len, expect, "tor{ti}->prefix{pi}");
                        assert_eq!(max_len, expect, "paths must all be shortest");
                        // Intra-cluster: 4 leaves. Inter-cluster: 4
                        // leaves × 1 spine per leaf × 1 leaf down = 4.
                        assert_eq!(paths, 4);
                    }
                    other => panic!("tor{ti}->prefix{pi}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn faulted_fig3_keeps_reachability_via_longer_paths() {
        let (f, fibs, _c, meta) = fig3_faulted();
        let analysis = forwarding_analysis(&fibs, &meta, f.prefixes[1]);
        match analysis.from_device(f.tors[0]) {
            PathInfo::Reaches { min_len, .. } => {
                assert_eq!(min_len, 6, "ToR-leaf-spine-regional-spine-leaf-ToR");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dropped_when_no_route_exists() {
        let (f, mut fibs, _c, meta) = fig3_healthy();
        // Remove every route everywhere for Prefix_A except at its host.
        for (d, fib) in fibs.iter_mut().enumerate() {
            if d == f.tors[0].0 as usize {
                continue;
            }
            let mut b = bgpsim::FibBuilder::new(fib.device());
            for e in fib.entries() {
                if e.prefix == f.prefixes[0] || e.prefix.is_default() {
                    continue;
                }
                b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
            }
            *fib = b.finish();
        }
        let analysis = forwarding_analysis(&fibs, &meta, f.prefixes[0]);
        assert_eq!(analysis.from_device(f.tors[2]), PathInfo::Dropped);
        assert_eq!(analysis.from_device(f.tors[0]), PathInfo::Local);
    }

    #[test]
    fn loop_detection() {
        // Hand-build a two-node forwarding loop.
        use bgpsim::FibBuilder;
        use dctopo::generator::figure3;
        let f = figure3();
        let meta = dctopo::MetadataService::from_topology(&f.topology);
        let prefix: Prefix = f.prefixes[2];
        // ToR1 -> A1 -> ToR1 (A1 points back down at ToR1).
        let l_t1_a1 = f.topology.link_between(f.tors[0], f.a[0]).unwrap();
        let t1_addr_on_link = l_t1_a1.lo_addr; // ToR1 is the lower tier
        let a1_addr_on_link = l_t1_a1.hi_addr;
        let mut fibs: Vec<Fib> = f
            .topology
            .devices()
            .iter()
            .map(|d| Fib::empty(d.id))
            .collect();
        let mut b = FibBuilder::new(f.tors[0]);
        b.push(prefix, vec![a1_addr_on_link], false);
        fibs[f.tors[0].0 as usize] = b.finish();
        let mut b = FibBuilder::new(f.a[0]);
        b.push(prefix, vec![t1_addr_on_link], false);
        fibs[f.a[0].0 as usize] = b.finish();

        let analysis = forwarding_analysis(&fibs, &meta, prefix);
        assert_eq!(analysis.from_device(f.tors[0]), PathInfo::Loops);
        assert_eq!(analysis.from_device(f.a[0]), PathInfo::Loops);
    }

    #[test]
    fn naive_enumeration_counts_every_path() {
        let (f, fibs, _c, meta) = fig3_healthy();
        // Inter-cluster: 4 distinct paths of length 4.
        let (paths, min_len, max_len) =
            all_pairs_paths_naive(&fibs, &meta, f.tors[0], f.prefixes[2], u64::MAX);
        assert_eq!((paths, min_len, max_len), (4, 4, 4));
        // Intra-cluster: 4 paths of length 2.
        let (paths, min_len, max_len) =
            all_pairs_paths_naive(&fibs, &meta, f.tors[0], f.prefixes[1], u64::MAX);
        assert_eq!((paths, min_len, max_len), (4, 2, 2));
    }

    #[test]
    fn naive_enumeration_respects_cap() {
        let (f, fibs, _c, meta) = fig3_healthy();
        let (paths, _, _) =
            all_pairs_paths_naive(&fibs, &meta, f.tors[0], f.prefixes[2], 2);
        assert_eq!(paths, 2);
    }
}
