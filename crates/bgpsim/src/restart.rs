//! Fault-injected fixed-point restart: converge a failure scenario
//! from the healthy solution instead of from scratch.
//!
//! A k-failure what-if sweep evaluates thousands of scenarios against
//! one fabric, and each scenario differs from the healthy network by a
//! handful of dead links. Re-running [`simulate`](crate::simulate) per
//! scenario repeats almost all of its work: the per-prefix BFS is a
//! function of the session graph, and most prefixes never route through
//! the dead links at all. [`Baseline`] snapshots the healthy fixed
//! point once and then answers each scenario by *patching* it:
//!
//! * A dead session edge `s → r` matters for a prefix only if it
//!   carried a minimal-distance advertisement in the healthy run —
//!   `best[s] + 1 == best[r]` and `s`'s address is in `r`'s hop set.
//!   Edges that never contributed leave the prefix untouched.
//! * If the edge contributed but `r` keeps other equal-length senders,
//!   the fixed point without the edge differs only in `r`'s hop mask.
//!   Distances, discovery order and every other device's hops are
//!   unchanged, so the patch is a single bit clear. When the dead edge
//!   was `r`'s BFS *parent*, the re-run would pick another parent; the
//!   patch is still exact whenever the prefix is *tie-break-free* —
//!   every multi-sender device's candidate parents advertise identical
//!   AS-path sequences, so any parent choice produces the same
//!   observables (acceptance verdicts and hop masks). Tie-break
//!   freedom is a property of the healthy state, computed once at
//!   [`Baseline::converge`]; generated Clos fabrics satisfy it for
//!   every prefix (same-tier ECMP senders share ASN sequences).
//! * Anything else — a hop set emptied, a non-tie-break-free parent
//!   lost — falls back to re-running the per-prefix BFS on the faulted
//!   session graph, which is exact by construction. Fallbacks are the
//!   rare case, and only the affected prefixes pay for them.
//!
//! What comes back is a *patch*, not a fleet of tables:
//! [`Baseline::restart`] recomputes only the emissions a scenario can
//! have moved and returns, per changed device, the rules that differ
//! from its healthy table as a [`FibPatch`] — a what-if explorer hands
//! `(healthy table, patch)` straight to a verification engine and
//! never builds the faulted table. [`Baseline::resimulate`] is
//! `restart` plus [`Fib::patched`], which copies the healthy entry
//! runs around the patch and remaps interned set ids in first-use
//! order — the same content-keyed order a from-scratch interner
//! assigns — so the table, pool layout included, is bit-identical to a
//! from-scratch `simulate` on the faulted topology. The regression
//! suite pins this — and with it the patches — for every single-link
//! failure on a seeded Clos.

use crate::config::SimConfig;
use crate::fib::{Fib, FibBuilder, FibPatch, PatchOp};
use crate::sim::{
    emit_runs, expand_runs, propagate, work_list, EmitRle, Hops, Relaxation, SimNet, SimStats, INF,
};
use dctopo::{Asn, DeviceId, LinkId, LinkState, Topology};
use netprim::wire::DeltaRule;
use netprim::{HopSet, Ipv4, Prefix};
use std::collections::{HashMap, HashSet};

/// One failure scenario: a set of links and devices to take down
/// simultaneously. A dead device is modeled as all of its incident
/// links going down (it still originates its hosted prefixes locally,
/// exactly as a from-scratch simulation of the faulted topology would).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Links to fail.
    pub links: Vec<LinkId>,
    /// Devices to fail (all incident links go down).
    pub devices: Vec<DeviceId>,
}

impl FaultSpec {
    /// A scenario failing exactly these links.
    pub fn links(links: impl IntoIterator<Item = LinkId>) -> FaultSpec {
        FaultSpec {
            links: links.into_iter().collect(),
            devices: Vec::new(),
        }
    }

    /// A scenario failing exactly these devices.
    pub fn devices(devices: impl IntoIterator<Item = DeviceId>) -> FaultSpec {
        FaultSpec {
            links: Vec::new(),
            devices: devices.into_iter().collect(),
        }
    }

    /// No failures at all (the healthy network).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.devices.is_empty()
    }

    /// Apply the scenario to a topology by marking every named link —
    /// and every link incident to a named device — `OperDown`. This is
    /// the from-scratch view of the scenario, used by the oracles to
    /// cross-check [`Baseline::restart`].
    pub fn apply(&self, topology: &mut Topology) {
        let mut dead: Vec<LinkId> = self.links.clone();
        for &d in &self.devices {
            dead.extend(topology.links_of(d).map(|l| l.id));
        }
        for l in dead {
            topology.set_link_state(l, LinkState::OperDown);
        }
    }
}

/// Work counters for one [`Baseline::restart`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Prefixes in the work list (hosted + default).
    pub prefixes: usize,
    /// Prefixes repaired by hop-mask patching alone.
    pub patched: usize,
    /// Prefixes that fell back to a from-scratch per-prefix BFS.
    pub repropagated: usize,
    /// Devices whose FIB actually changed.
    pub devices_changed: usize,
    /// Rules set or withdrawn across those devices' patches — the work
    /// a patch-judging engine is handed.
    pub rules_touched: usize,
}

impl RestartStats {
    /// Merge another scenario's counters into this one (sweep totals).
    pub fn absorb(&mut self, other: &RestartStats) {
        self.prefixes += other.prefixes;
        self.patched += other.patched;
        self.repropagated += other.repropagated;
        self.devices_changed += other.devices_changed;
        self.rules_touched += other.rules_touched;
    }
}

/// The outcome of one scenario as [`Baseline::restart`] reports it:
/// only the devices whose FIBs differ from the healthy solution, each
/// with exactly the rules that differ.
#[derive(Debug, Clone)]
pub struct ScenarioPatches {
    /// Changed devices, ascending by device id, each with its
    /// non-empty patch against the healthy table: no rule equal to the
    /// healthy rule for its prefix, no withdrawal of an absent prefix.
    pub changed: Vec<(DeviceId, FibPatch)>,
    /// Work counters for this scenario.
    pub stats: RestartStats,
}

/// The outcome of one scenario with the changed tables built
/// ([`Baseline::resimulate`]).
#[derive(Debug, Clone)]
pub struct ScenarioFibs {
    /// Changed devices and their new tables, ascending by device id.
    pub changed: Vec<(DeviceId, Fib)>,
    /// Aligned with `changed`: the prefixes whose rules differ from the
    /// healthy table (added, removed, or re-hopped), in canonical entry
    /// order — each device's patch's prefix list.
    pub touched: Vec<Vec<Prefix>>,
    /// Work counters for this scenario.
    pub stats: RestartStats,
}

impl ScenarioFibs {
    /// Materialize the scenario's full FIB vector by splicing the
    /// changed tables over the healthy ones.
    pub fn splice(&self, healthy: &[Fib]) -> Vec<Fib> {
        let mut out = healthy.to_vec();
        for (d, fib) in &self.changed {
            out[d.0 as usize] = fib.clone();
        }
        out
    }
}

/// One prefix's converged state, snapshotted from the relaxation
/// scratch. Hop data is only valid where `0 < best < INF` (origins
/// emit local entries, unreached devices emit nothing).
struct PrefixState {
    /// BFS distance per device (`INF` = unreached).
    best: Vec<u8>,
    /// BFS parent per device (valid where `0 < best < INF`).
    parent: Vec<u32>,
    /// Hop mask over the device's neighbor-address table (devices
    /// whose table fits a [`HopSet`]).
    bits: Vec<HopSet>,
    /// Hop addresses for over-capacity devices (rare; unsorted, the
    /// relaxation's insertion order).
    spill: HashMap<u32, Vec<Ipv4>>,
    /// Every multi-sender device's candidate parents advertise equal
    /// AS-path sequences, so a parent-edge death still patches exactly.
    tie_free: bool,
}

/// The healthy fixed point, snapshotted per prefix, ready to answer
/// failure scenarios incrementally. Shared-state only: `restart`
/// takes `&self`, so one baseline serves a parallel scenario driver.
pub struct Baseline {
    topology: Topology,
    config: SimConfig,
    net: SimNet,
    l2_bug: Vec<bool>,
    work: Vec<(Prefix, Vec<DeviceId>)>,
    states: Vec<PrefixState>,
    healthy: Vec<Fib>,
    /// The work list's prefixes are strictly canonical-ordered (the
    /// generated fabrics always are), so a healthy table's entry
    /// sequence is the work list filtered by reachability and a
    /// device's affected work indices come out in patch order. A
    /// non-canonical work list (possible for hand-built topologies)
    /// falls back to full per-device replay, which sorts in `finish`.
    canonical_work: bool,
}

impl Baseline {
    /// Converge the healthy network and snapshot its per-prefix state.
    pub fn converge(topology: &Topology, config: &SimConfig) -> Baseline {
        let n = topology.len();
        let net = SimNet::build(topology, config);
        let l2_bug: Vec<bool> = topology
            .devices()
            .iter()
            .map(|d| config.device(d.id).is_some_and(|o| o.l2_port_bug))
            .collect();
        let mut bit_peer: Vec<Vec<u32>> =
            net.addr_table.iter().map(|t| vec![0; t.len()]).collect();
        for l in topology.links() {
            let (lo, hi) = (l.lo.0 as usize, l.hi.0 as usize);
            let bl = net.addr_table[lo]
                .binary_search(&l.hi_addr)
                .expect("link address is in the owner's table");
            bit_peer[lo][bl] = l.hi.0;
            let bh = net.addr_table[hi]
                .binary_search(&l.lo_addr)
                .expect("link address is in the owner's table");
            bit_peer[hi][bh] = l.lo.0;
        }
        let work = work_list(topology);
        let canonical_work = work.windows(2).all(|w| {
            w[1].0
                .len()
                .cmp(&w[0].0.len())
                .then(w[0].0.addr().cmp(&w[1].0.addr()))
                .is_lt()
        });
        // One pass does both jobs: snapshot each prefix's converged
        // state for the scenario patcher, and emit the healthy tables
        // through the simulator's own run-length path — the exact
        // serial push sequence `simulate` performs, so the healthy
        // FIBs are bit-identical by construction, not by replay.
        let mut relax = Relaxation::new(n);
        let mut sim_stats = SimStats::default();
        let mut states = Vec::with_capacity(work.len());
        let mut rle = EmitRle::new(n);
        let mut builders: Vec<FibBuilder> = topology
            .devices()
            .iter()
            .map(|d| FibBuilder::new(d.id))
            .collect();
        for (k, (prefix, origins)) in work.iter().enumerate() {
            relax.reset();
            propagate(&net, &mut relax, *prefix, origins, &mut sim_stats);
            let mut st = snapshot(&net, &relax);
            st.tie_free = tie_break_free(&st, &net.asn, &net.addr_table, &bit_peer);
            states.push(st);
            emit_runs(&net, &relax, k as u32, *prefix, &mut rle, &mut builders);
        }
        let prefixes: Vec<Prefix> = work.iter().map(|(p, _)| *p).collect();
        expand_runs(&rle, &prefixes, &mut builders);
        let healthy: Vec<Fib> = builders.into_iter().map(FibBuilder::finish).collect();
        Baseline {
            topology: topology.clone(),
            config: config.clone(),
            net,
            l2_bug,
            work,
            states,
            healthy,
            canonical_work,
        }
    }

    /// The healthy FIBs (bit-identical to `simulate(topology, config)`).
    pub fn healthy_fibs(&self) -> &[Fib] {
        &self.healthy
    }

    /// The topology this baseline was converged on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The config this baseline was converged under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Re-simulate one failure scenario from the healthy solution,
    /// with the changed tables built.
    ///
    /// Returns exactly the devices whose FIBs change, each table
    /// bit-identical (interned pool layout included) to what a
    /// from-scratch [`simulate`](crate::simulate) of the faulted
    /// topology would produce: [`restart`](Self::restart), then
    /// [`Fib::patched`] per changed device. (On a non-canonical work
    /// list — hand-built topologies only — the rules are identical and
    /// the pool comes in entry order rather than `simulate`'s push
    /// order.)
    pub fn resimulate(&self, fault: &FaultSpec) -> ScenarioFibs {
        let out = self.restart(fault);
        let mut changed = Vec::with_capacity(out.changed.len());
        let mut touched = Vec::with_capacity(out.changed.len());
        for (d, patch) in out.changed {
            changed.push((d, self.healthy[d.0 as usize].patched(&patch)));
            touched.push(patch.prefixes().collect());
        }
        ScenarioFibs {
            changed,
            touched,
            stats: out.stats,
        }
    }

    /// Restart the fixed point under one failure scenario.
    ///
    /// Returns exactly the devices whose FIBs change, each with the
    /// rules that differ from its healthy table — the faulted tables
    /// themselves are never built.
    pub fn restart(&self, fault: &FaultSpec) -> ScenarioPatches {
        let n = self.topology.len();
        let mut dead_devices: HashSet<u32> = fault.devices.iter().map(|d| d.0).collect();
        let mut dead_links: HashSet<LinkId> = fault.links.iter().copied().collect();
        for &d in &fault.devices {
            dead_links.extend(self.topology.links_of(d).map(|l| l.id));
        }

        // A live device whose every live session edge died is
        // indistinguishable from a dead one: `FaultSpec::apply` marks
        // all incident links down either way, so the from-scratch run
        // reaches it for no prefix and it emits only its hosted-local
        // entries. Synthesizing it as dead keeps full-isolation
        // scenarios (a decommissioned rack's every uplink shut) on the
        // patch path; otherwise its emptied hop set would cascade a
        // per-prefix BFS fallback for nearly every prefix in the
        // fabric.
        let live_session = |l: &dctopo::Link| {
            l.state.session_up() && !self.l2_bug[l.lo.0 as usize] && !self.l2_bug[l.hi.0 as usize]
        };
        let endpoints: HashSet<u32> = dead_links
            .iter()
            .flat_map(|&lid| {
                let l = self.topology.link(lid);
                [l.lo.0, l.hi.0]
            })
            .collect();
        for &d in &endpoints {
            if !dead_devices.contains(&d)
                && self
                    .topology
                    .links_of(DeviceId(d))
                    .all(|l| !live_session(l) || dead_links.contains(&l.id))
            {
                dead_devices.insert(d);
            }
        }

        // Directed dead session edges actually present in the healthy
        // session graph (already-down or L2-bugged links never carried
        // advertisements, so killing them changes nothing).
        let mut edges: Vec<(u32, u32, u16)> = Vec::new();
        for &lid in &dead_links {
            let l = self.topology.link(lid);
            if !l.state.session_up() {
                continue;
            }
            let (lo, hi) = (l.lo.0 as usize, l.hi.0 as usize);
            if self.l2_bug[lo] || self.l2_bug[hi] {
                continue;
            }
            let bit = |owner: usize, addr: Ipv4| {
                self.net.addr_table[owner]
                    .binary_search(&addr)
                    .expect("session address is in the peer's table") as u16
            };
            edges.push((l.lo.0, l.hi.0, bit(hi, l.lo_addr)));
            edges.push((l.hi.0, l.lo.0, bit(lo, l.hi_addr)));
        }
        edges.sort_unstable();

        let mut stats = RestartStats {
            prefixes: self.work.len(),
            ..RestartStats::default()
        };
        // Per receiver: the (prefix index, neighbor-table bits) pairs
        // to clear, ascending in prefix index (the analysis loop runs
        // in work order). A prefix is either fully patchable or
        // re-propagated, never both, so patches and scenario states
        // stay disjoint.
        let mut patches: HashMap<u32, Vec<(u32, Vec<u16>)>> = HashMap::new();
        let mut fallback: Vec<u32> = Vec::new();
        let mut candidates: HashSet<u32> = HashSet::new();
        for (k, st) in self.states.iter().enumerate() {
            let mut removed: HashMap<u32, Vec<u16>> = HashMap::new();
            let mut needs_fallback = false;
            for &(s, r, bit) in &edges {
                if dead_devices.contains(&r) {
                    continue; // dead receivers are synthesized below
                }
                let (su, ru) = (s as usize, r as usize);
                let (bs, br) = (st.best[su], st.best[ru]);
                if bs == INF || br == 0 || br == INF || bs + 1 != br {
                    continue; // edge never carried a minimal-path route
                }
                let contributed = match st.spill.get(&r) {
                    Some(sp) => sp.contains(&self.net.addr_table[ru][bit as usize]),
                    None => st.bits[ru].contains(bit),
                };
                if !contributed {
                    continue;
                }
                if st.parent[ru] == s && !st.tie_free {
                    // A parent died and a re-run's tie-break could pick
                    // a parent with a different AS path: not patchable.
                    needs_fallback = true;
                    break;
                }
                removed.entry(r).or_default().push(bit);
            }
            if !needs_fallback {
                // An emptied hop set changes the receiver's distance
                // and cascades; only the BFS knows where to.
                needs_fallback = removed.iter().any(|(&r, bits_rm)| {
                    let healthy_len = match st.spill.get(&r) {
                        Some(sp) => sp.len(),
                        None => st.bits[r as usize].len() as usize,
                    };
                    healthy_len == bits_rm.len()
                });
            }
            if needs_fallback {
                fallback.push(k as u32);
            } else if !removed.is_empty() {
                stats.patched += 1;
                for (r, bits_rm) in removed {
                    candidates.insert(r);
                    patches.entry(r).or_default().push((k as u32, bits_rm));
                }
            }
        }

        // Fallback prefixes: exact per-prefix BFS on the faulted graph.
        // The per-device diff against the healthy state records *which*
        // fallback prefixes moved each device, so its patch recomputes
        // only those — an unchanged per-prefix state is guaranteed to
        // re-emit the healthy rule, so skipping it is byte-identical.
        let mut scen_states: HashMap<u32, PrefixState> = HashMap::new();
        let mut fallback_of: HashMap<u32, Vec<u32>> = HashMap::new();
        if !fallback.is_empty() {
            stats.repropagated = fallback.len();
            let fnet = SimNet::build_filtered(&self.topology, &self.config, &dead_links);
            let mut relax = Relaxation::new(n);
            let mut sim_stats = SimStats::default();
            for &k in &fallback {
                let (prefix, origins) = &self.work[k as usize];
                relax.reset();
                propagate(&fnet, &mut relax, *prefix, origins, &mut sim_stats);
                let st = snapshot(&self.net, &relax);
                let healthy = &self.states[k as usize];
                for du in 0..n {
                    if !dead_devices.contains(&(du as u32))
                        && !state_eq_at(healthy, &st, du, &self.net)
                    {
                        candidates.insert(du as u32);
                        // Ascending in k: the fallback list is sorted.
                        fallback_of.entry(du as u32).or_default().push(k);
                    }
                }
                scen_states.insert(k, st);
            }
        }
        candidates.extend(dead_devices.iter().copied());

        // Patch every candidate and keep only genuine changes. Live
        // candidates on a canonical work list recompute just their
        // affected emissions; everything else replays in full and
        // diffs.
        let mut sorted: Vec<u32> = candidates.into_iter().collect();
        sorted.sort_unstable();
        let mut changed = Vec::new();
        const NO_PATCHES: &[(u32, Vec<u16>)] = &[];
        const NO_FALLBACK: &[u32] = &[];
        for d in sorted {
            let dead = dead_devices.contains(&d);
            let patched = patches.get(&d).map_or(NO_PATCHES, Vec::as_slice);
            let dev_fallback = fallback_of.get(&d).map_or(NO_FALLBACK, Vec::as_slice);
            let patch = if !dead && self.canonical_work {
                self.patch_device(d, patched, dev_fallback, &scen_states)
            } else {
                let fib = self.replay_device(d, dead, &scen_states, patched);
                Fib::diff(&self.healthy[d as usize], &fib)
            };
            if !patch.is_empty() {
                stats.rules_touched += patch.len();
                changed.push((DeviceId(d), patch));
            }
        }
        stats.devices_changed = changed.len();
        ScenarioPatches { changed, stats }
    }

    /// The ECMP cap `du` applies to a prefix's hop set.
    fn cap(&self, du: usize, prefix: Prefix) -> u32 {
        if prefix.is_default() {
            self.net.default_cap[du]
        } else {
            self.net.ecmp_cap[du]
        }
    }

    /// One live candidate's patch against its healthy table: visit
    /// only the affected work indices (this device's hop-mask patches
    /// merged with the fallback prefixes — ascending, so in canonical
    /// entry order), recompute just those emissions, and keep the ones
    /// that differ from the healthy one.
    ///
    /// Empty when every recomputed emission matches the healthy table
    /// (e.g. a cleared hop bit that ECMP truncation had already
    /// dropped).
    fn patch_device(
        &self,
        d: u32,
        patched: &[(u32, Vec<u16>)],
        fallback: &[u32],
        scen_states: &HashMap<u32, PrefixState>,
    ) -> FibPatch {
        let du = d as usize;
        let mut ops: Vec<PatchOp> = Vec::new();
        // Both lists ascend in work index and are disjoint by
        // construction.
        let (mut pi, mut fi) = (0usize, 0usize);
        loop {
            let np = patched.get(pi).map_or(u32::MAX, |&(k, _)| k);
            let nf = fallback.get(fi).copied().unwrap_or(u32::MAX);
            if np == u32::MAX && nf == u32::MAX {
                break;
            }
            let (k, removed) = if np < nf {
                pi += 1;
                (np as usize, Some(patched[pi - 1].1.as_slice()))
            } else {
                fi += 1;
                (nf as usize, None)
            };
            let prefix = self.work[k].0;
            let cap = self.cap(du, prefix);
            // Patch receivers keep their healthy state minus the dead
            // senders; fallback prefixes have a state of their own.
            let (st, removed) = match removed {
                Some(bits_rm) => (&self.states[k], bits_rm),
                None => (&scen_states[&(k as u32)], NO_REMOVALS),
            };
            let now = emission(st, du, removed, cap, &self.net);
            // The healthy rule is the healthy state's emission, so the
            // comparison never touches the table. Equal happens: a
            // dead bit beyond the ECMP cap, a moved state that emits
            // the same hops.
            if now == emission(&self.states[k], du, NO_REMOVALS, cap, &self.net) {
                continue;
            }
            ops.push(match now {
                Some((local, next_hops)) => PatchOp::Set(DeltaRule {
                    prefix,
                    next_hops,
                    local,
                }),
                None => PatchOp::Withdraw(prefix),
            });
        }
        FibPatch::from_canonical(ops).expect("ascending work indices are canonical entry order")
    }

    /// Rebuild one device's table by replaying the canonical emission
    /// order over (healthy | patched | re-propagated | dead) per-prefix
    /// states — the same push sequence `simulate` performs, so the
    /// finished table matches it bit-for-bit. The slow exact path,
    /// kept for dead devices (tiny tables) and non-canonical work
    /// lists; live candidates normally take
    /// [`patch_device`](Self::patch_device).
    fn replay_device(
        &self,
        d: u32,
        dead: bool,
        scen_states: &HashMap<u32, PrefixState>,
        patched: &[(u32, Vec<u16>)],
    ) -> Fib {
        let du = d as usize;
        let mut builder = FibBuilder::new(DeviceId(d));
        let mut pi = 0usize;
        for (k, (prefix, origins)) in self.work.iter().enumerate() {
            let removed: &[u16] = match patched.get(pi) {
                Some((pk, bits)) if *pk as usize == k => {
                    pi += 1;
                    bits
                }
                _ => NO_REMOVALS,
            };
            if dead {
                // A dead device keeps originating its hosted prefixes
                // locally (its from-scratch faulted run has best == 0
                // there and INF everywhere else).
                if origins.contains(&DeviceId(d)) {
                    builder.push(*prefix, Vec::new(), true);
                }
                continue;
            }
            let (st, removed) = match scen_states.get(&(k as u32)) {
                Some(st) => (st, NO_REMOVALS),
                None => (&self.states[k], removed),
            };
            let cap = self.cap(du, *prefix);
            if let Some((local, hops)) = emission(st, du, removed, cap, &self.net) {
                builder.push(*prefix, hops, local);
            }
        }
        builder.finish()
    }
}

const NO_REMOVALS: &[u16] = &[];

/// The rule one device emits for one prefix under a snapshotted state
/// with `removed` neighbor-table bits cleared from its hop set —
/// `(local, next hops)`, or `None` where the prefix is unreached —
/// exactly what the simulator's emit loop pushes for that state.
fn emission(
    st: &PrefixState,
    du: usize,
    removed: &[u16],
    cap: u32,
    net: &SimNet,
) -> Option<(bool, Vec<Ipv4>)> {
    match st.best[du] {
        INF => None,
        0 => Some((true, Vec::new())),
        _ => Some((false, emit_hops(st, du, removed, cap, net))),
    }
}

/// A reached non-origin device's next hops for one prefix: the
/// snapshotted hop state minus `removed` neighbor-table bits,
/// canonicalized and cap-truncated exactly as the simulator's emit
/// loop would (sort → truncate → dedup; bit order is already address
/// order on the bitset path, so truncating the mask keeps the smallest
/// addresses).
fn emit_hops(
    st: &PrefixState,
    du: usize,
    removed: &[u16],
    cap: u32,
    net: &SimNet,
) -> Vec<Ipv4> {
    match st.spill.get(&(du as u32)) {
        Some(sp) => {
            let mut h = sp.clone();
            for &bit in removed {
                let addr = net.addr_table[du][bit as usize];
                h.retain(|&x| x != addr);
            }
            h.sort_unstable();
            h.truncate(cap as usize);
            h.dedup();
            h
        }
        None => {
            let mut mask = st.bits[du];
            for &bit in removed {
                mask.remove(bit);
            }
            if cap != u32::MAX && cap < mask.len() {
                mask.truncate(cap);
            }
            mask.iter()
                .map(|bit| net.addr_table[du][bit as usize])
                .collect()
        }
    }
}

/// Snapshot the relaxation scratch into an owned [`PrefixState`],
/// zeroing hop data where it is stale (origins, unreached devices).
fn snapshot(net: &SimNet, relax: &Relaxation) -> PrefixState {
    let n = relax.best.len();
    let Hops { bits, spill } = &relax.hops;
    let mut sbits = vec![HopSet::new(); n];
    let mut sspill = HashMap::new();
    for du in 0..n {
        let b = relax.best[du];
        if b == 0 || b == INF {
            continue;
        }
        if net.fits[du] {
            sbits[du] = bits[du];
        } else {
            sspill.insert(du as u32, spill[du].clone());
        }
    }
    PrefixState {
        best: relax.best.clone(),
        parent: relax.parent.iter().map(|p| p.0).collect(),
        bits: sbits,
        spill: sspill,
        tie_free: false,
    }
}

/// Do two snapshots agree on one device's emitted state?
fn state_eq_at(a: &PrefixState, b: &PrefixState, du: usize, net: &SimNet) -> bool {
    let (x, y) = (a.best[du], b.best[du]);
    if x != y {
        return false;
    }
    if x == 0 || x == INF {
        return true;
    }
    if net.fits[du] {
        a.bits[du] == b.bits[du]
    } else {
        a.spill.get(&(du as u32)) == b.spill.get(&(du as u32))
    }
}

/// The AS-path sequence device `from` advertises, via parent walk.
fn path_seq(st: &PrefixState, asn: &[Asn], mut from: u32, out: &mut Vec<Asn>) {
    out.clear();
    loop {
        out.push(asn[from as usize]);
        if st.best[from as usize] == 0 {
            return;
        }
        from = st.parent[from as usize];
    }
}

/// Is the prefix tie-break-free: does every device with multiple
/// equal-length senders see identical AS-path sequences from all of
/// them? If so, any BFS parent choice yields the same observables, and
/// a parent-edge death is patchable without re-running the BFS.
fn tie_break_free(
    st: &PrefixState,
    asn: &[Asn],
    addr_table: &[Vec<Ipv4>],
    bit_peer: &[Vec<u32>],
) -> bool {
    let mut first = Vec::new();
    let mut other = Vec::new();
    for ru in 0..st.best.len() {
        let b = st.best[ru];
        if b == 0 || b == INF {
            continue;
        }
        let senders: Vec<u32> = match st.spill.get(&(ru as u32)) {
            Some(sp) => sp
                .iter()
                .map(|addr| {
                    let bit = addr_table[ru]
                        .binary_search(addr)
                        .expect("hop address is in the neighbor table");
                    bit_peer[ru][bit]
                })
                .collect(),
            None => st.bits[ru].iter().map(|bit| bit_peer[ru][bit as usize]).collect(),
        };
        if senders.len() <= 1 {
            continue;
        }
        path_seq(st, asn, senders[0], &mut first);
        for &s in &senders[1..] {
            path_seq(st, asn, s, &mut other);
            if first != other {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use dctopo::generator::{build_clos, figure3, ClosParams};
    use dctopo::Role;

    /// A config exercising every override the simulator honors.
    fn faulted_config(f: &dctopo::generator::Figure3) -> SimConfig {
        SimConfig::healthy()
            .with_max_ecmp(f.tors[0], 2)
            .with_rib_fib_bug(f.tors[1], 1)
            .with_default_reject(f.a[0])
            .with_l2_port_bug(f.b[1])
            .with_asn_override(f.b[0], f.topology.device(f.a[0]).asn)
    }

    /// Restart, patch and from-scratch simulation must tell one story:
    /// the patched tables are the from-scratch ones (`==`, pool layout
    /// included), and each patch is exactly the difference — canonical,
    /// duplicate-free and minimal.
    fn assert_scenario_exact(base: &Baseline, fault: &FaultSpec, what: &str) -> RestartStats {
        let out = base.restart(fault);
        let fibs = base.resimulate(fault);
        let mut faulted = base.topology().clone();
        fault.apply(&mut faulted);
        let scratch = simulate(&faulted, base.config());
        assert_eq!(
            fibs.splice(base.healthy_fibs()),
            scratch,
            "restart diverged from scratch: {what}"
        );
        assert_eq!(fibs.stats, out.stats);
        assert_eq!(out.stats.devices_changed, out.changed.len());
        let differing = (base.healthy_fibs().iter().zip(&scratch))
            .filter(|(h, s)| h != s)
            .count();
        assert_eq!(out.changed.len(), differing, "changed device list: {what}");
        let mut rules = 0usize;
        for (i, (d, patch)) in out.changed.iter().enumerate() {
            let healthy = &base.healthy_fibs()[d.0 as usize];
            let target = &scratch[d.0 as usize];
            assert_eq!(fibs.changed[i].0, *d);
            assert_eq!(fibs.touched[i], patch.prefixes().collect::<Vec<_>>());
            assert!(!patch.is_empty(), "unchanged device reported: {what}");
            rules += patch.len();
            for w in patch.ops().windows(2) {
                let (a, b) = (w[0].prefix(), w[1].prefix());
                assert!(
                    a.len() > b.len() || (a.len() == b.len() && a.addr() < b.addr()),
                    "patch order {a} then {b}: {what}"
                );
            }
            for op in patch.ops() {
                let base_rule = healthy.entry_for(op.prefix());
                match op {
                    PatchOp::Set(r) => assert!(
                        base_rule.is_none_or(|e| e.local != r.local
                            || healthy.next_hops(e) != r.next_hops.as_slice()),
                        "patch restates the healthy rule for {}: {what}",
                        r.prefix
                    ),
                    PatchOp::Withdraw(p) => {
                        assert!(base_rule.is_some(), "withdrawal of absent {p}: {what}")
                    }
                }
            }
            assert_eq!(
                patch,
                &Fib::diff(healthy, target),
                "patch diverges from the real diff: {what}"
            );
            assert_eq!(&healthy.patched(patch), target, "patched table: {what}");
        }
        assert_eq!(out.stats.rules_touched, rules);
        out.stats
    }

    #[test]
    fn healthy_replay_matches_simulate() {
        let f = figure3();
        for config in [SimConfig::healthy(), faulted_config(&f)] {
            let base = Baseline::converge(&f.topology, &config);
            assert_eq!(base.healthy_fibs(), &simulate(&f.topology, &config)[..]);
        }
        let medium = build_clos(&ClosParams::default());
        let base = Baseline::converge(&medium, &SimConfig::healthy());
        assert_eq!(
            base.healthy_fibs(),
            &simulate(&medium, &SimConfig::healthy())[..]
        );
    }

    #[test]
    fn empty_fault_changes_nothing() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let out = base.resimulate(&FaultSpec::default());
        assert!(out.changed.is_empty());
        assert_eq!(out.stats.patched + out.stats.repropagated, 0);
    }

    /// The satellite regression: every single-link failure on a seeded
    /// 3-tier Clos produces FIBs bit-identical to a from-scratch run.
    #[test]
    fn every_single_link_failure_matches_scratch_on_clos() {
        let t = build_clos(&ClosParams::default());
        let base = Baseline::converge(&t, &SimConfig::healthy());
        let mut total = RestartStats::default();
        for l in t.links() {
            let fault = FaultSpec::links([l.id]);
            total.absorb(&assert_scenario_exact(&base, &fault, &format!("link {}", l.id.0)));
        }
        // The sweep must exercise both repair paths.
        assert!(total.patched > 0, "no scenario used the patch fast path");
        assert!(total.repropagated > 0, "no scenario used the BFS fallback");
    }

    #[test]
    fn single_link_failures_match_scratch_under_faulted_config() {
        let f = figure3();
        let config = faulted_config(&f);
        let base = Baseline::converge(&f.topology, &config);
        for l in f.topology.links() {
            assert_scenario_exact(&base, &FaultSpec::links([l.id]), &format!("link {}", l.id.0));
        }
    }

    #[test]
    fn link_pairs_match_scratch() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let links = f.topology.links();
        for i in 0..links.len() {
            for j in (i + 1)..links.len() {
                assert_scenario_exact(
                    &base,
                    &FaultSpec::links([links[i].id, links[j].id]),
                    &format!("links {} {}", links[i].id.0, links[j].id.0),
                );
            }
        }
    }

    #[test]
    fn device_failures_match_scratch() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        for d in f.topology.devices() {
            assert_scenario_exact(
                &base,
                &FaultSpec::devices([d.id]),
                &format!("device {}", d.name),
            );
        }
        // Mixed link + device scenarios.
        let spine = f.d[0];
        let link = f.topology.links_of(f.tors[2]).next().unwrap().id;
        assert_scenario_exact(
            &base,
            &FaultSpec {
                links: vec![link],
                devices: vec![spine],
            },
            "mixed spine + tor-link",
        );
    }

    #[test]
    fn device_failures_match_scratch_on_clos() {
        let t = build_clos(&ClosParams {
            clusters: 2,
            tors_per_cluster: 4,
            leaves_per_cluster: 3,
            spines: 6,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        });
        let base = Baseline::converge(&t, &SimConfig::healthy());
        for role in [Role::Tor, Role::Leaf, Role::Spine, Role::RegionalSpine] {
            let d = t.devices_with_role(role).next().unwrap();
            assert_scenario_exact(
                &base,
                &FaultSpec::devices([d.id]),
                &format!("device {}", d.name),
            );
        }
    }

    #[test]
    fn already_down_links_are_no_ops() {
        let mut f = figure3();
        let l = f.topology.link_between(f.tors[0], f.a[0]).unwrap().id;
        f.topology.set_link_state(l, LinkState::OperDown);
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let out = base.resimulate(&FaultSpec::links([l]));
        assert!(out.changed.is_empty(), "re-failing a down link is a no-op");
        // ... and changes nothing about what a live link's failure does.
        let live = f.topology.link_between(f.tors[0], f.a[1]).unwrap().id;
        let alone = assert_scenario_exact(&base, &FaultSpec::links([live]), "live link");
        let both = assert_scenario_exact(&base, &FaultSpec::links([l, live]), "down + live");
        assert_eq!(alone, both);
    }
}
