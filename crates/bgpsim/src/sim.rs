//! The per-prefix EBGP convergence engine.
//!
//! With no route aggregation, BGP converges per prefix independently.
//! For each prefix (the ToR-hosted specifics plus the regional-spine
//! default), the engine runs a monotone shortest-AS-path relaxation:
//!
//! * origins start at distance 0;
//! * a device at distance `L` advertises to every session-up neighbor,
//!   which accepts at distance `L+1` unless BGP loop prevention (own
//!   ASN in the advertised path, modulo ToR allowas-in) or an import
//!   policy rejects it;
//! * all neighbors delivering the minimal distance form the ECMP
//!   next-hop set.
//!
//! The advertised AS path of a device is reconstructed by walking BFS
//! parents (paths are at most 4 ASNs deep in a Clos), avoiding per-hop
//! path allocation across the ~10⁸ relaxations of a 10⁴-router run.

use crate::config::SimConfig;
use crate::fib::{Fib, FibBuilder};
use dctopo::{Asn, DeviceId, Role, Topology};
use netprim::{HopSet, Ipv4, Prefix};

/// The default route prefix originated by the regional spines.
pub fn default_prefix() -> Prefix {
    Prefix::DEFAULT
}

pub(crate) const INF: u8 = u8::MAX;
/// Upper bound on AS-path length in a 4-tier Clos (loop prevention
/// caps real paths at 4; 16 leaves margin for override experiments).
const MAX_LEN: usize = 16;


/// Tuning knobs for [`simulate_with`].
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Worker threads for the prefix-parallel fixed-point. Prefixes
    /// converge independently (no aggregation), so the work list is
    /// chunked across workers; `1` runs the serial loop. The result is
    /// bit-identical at any thread count.
    pub threads: usize,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions { threads: 1 }
    }
}

impl SimOptions {
    /// Options with `threads` defaulted to the detected core count —
    /// the service-path default, where the fixed point competes with
    /// nothing else. The output is bit-identical at any thread count.
    pub fn auto() -> SimOptions {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SimOptions { threads }
    }
}

/// Deterministic work counters for one simulation run: identical for
/// any [`SimOptions`] (threading changes neither the relaxation
/// schedule per prefix nor its fixed point).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Prefixes converged (hosted prefixes + the default route).
    pub prefixes: usize,
    /// BFS levels processed across all prefixes (per-prefix iteration
    /// counts, summed).
    pub rounds: u64,
    /// Session relaxations attempted across all prefixes.
    pub relaxations: u64,
}

impl SimStats {
    fn absorb(&mut self, other: &SimStats) {
        self.prefixes += other.prefixes;
        self.rounds += other.rounds;
        self.relaxations += other.relaxations;
    }
}

/// Per-prefix hop accumulation: a [`HopSet`] bit mask over each
/// device's sorted neighbor table. The bitset makes the ECMP-extend
/// step a branch-free bit set instead of a linear `contains` scan, and
/// materializes born-sorted vectors at emit (no per-entry sort + dedup
/// in the FIB interner).
pub(crate) struct Hops {
    /// Per-device hop bitset over its neighbor-address table.
    pub(crate) bits: Vec<HopSet>,
    /// Unordered `Vec` fallback for devices whose neighbor table
    /// exceeds [`HopSet::CAPACITY`] (large spines in the 10⁴-router
    /// shapes). Selected per *receiver* via `SimNet::fits`, so one fat
    /// device never forces the whole fabric off the fast path.
    pub(crate) spill: Vec<Vec<Ipv4>>,
}

/// Scratch state reused across prefixes.
pub(crate) struct Relaxation {
    pub(crate) best: Vec<u8>,
    pub(crate) parent: Vec<DeviceId>,
    /// 64-bit Bloom signature of the ASNs on each device's advertised
    /// path (`bit(asn) | signature(parent)`). A clear receiver bit
    /// proves the ASN is absent, letting the acceptance fast path skip
    /// the parent-chain walk; a set bit falls back to the exact walk,
    /// so loop-prevention verdicts are unchanged. No per-prefix reset
    /// is needed: the signature is only read for senders, and a sender
    /// was always (re)written during the current prefix's relaxation.
    path_asns: Vec<u64>,
    pub(crate) hops: Hops,
    touched: Vec<DeviceId>,
    buckets: Vec<Vec<DeviceId>>,
}

/// The bit `asn` occupies in a path signature.
#[inline]
fn asn_bit(a: Asn) -> u64 {
    1u64 << (a.0 & 63)
}

impl Relaxation {
    pub(crate) fn new(n: usize) -> Self {
        Relaxation {
            best: vec![INF; n],
            parent: vec![DeviceId(0); n],
            path_asns: vec![0; n],
            hops: Hops {
                bits: vec![HopSet::new(); n],
                spill: vec![Vec::new(); n],
            },
            touched: Vec::new(),
            buckets: vec![Vec::new(); MAX_LEN],
        }
    }

    pub(crate) fn reset(&mut self) {
        // Only `best` needs restoring: hop sets are written before they
        // are read. A non-origin device enters a prefix with
        // `best == INF`, so its first relaxation takes the improvement
        // branch, which clears the hop set itself — and emit never
        // reads hops for origins (`len == 0`) or unreached devices.
        for &d in &self.touched {
            self.best[d.0 as usize] = INF;
        }
        self.touched.clear();
        for b in &mut self.buckets {
            b.clear();
        }
    }
}

/// A device's forwarding state for one prefix, encoded as a run code:
/// absent (no route), a local/origin entry, or an interned hop-set id.
/// Set ids stay below the flag bits.
const RUN_ABSENT: u32 = u32::MAX;
const RUN_LOCAL: u32 = 1 << 31;

/// Run-length-encoded emit state. A device's FIB over the chunk's
/// prefix sequence is long stretches of one state (a ToR forwards every
/// remote /24 over the same leaf ECMP set), so the emit path
/// records only state *changes* — a handful of runs per device — and
/// expands them into entries per device afterwards. The per-(prefix,
/// device) work drops to a sequential mask compare, and the entry
/// writes become per-device streaming appends instead of 10⁴ scattered
/// pushes per prefix. Expansion replays the exact per-prefix push
/// sequence, interned pool layout included, because a set id is
/// interned at its run's start — the same first-use moment at which
/// per-prefix pushes would have interned it.
pub(crate) struct EmitRle {
    /// Per device: (chunk-local prefix index where the run starts, run
    /// code). A run ends where the next begins, or at the chunk's end.
    /// Devices implicitly start in an absent run at index 0.
    runs: Vec<Vec<(u32, u32)>>,
    /// Per device: the current (latest) run's code.
    last_code: Vec<u32>,
    /// Per device: the current run's hop mask, valid when `last_code`
    /// is a set id (post-truncation, so cap changes break runs).
    mask: Vec<HopSet>,
}

impl EmitRle {
    pub(crate) fn new(n: usize) -> EmitRle {
        EmitRle {
            runs: vec![Vec::new(); n],
            last_code: vec![RUN_ABSENT; n],
            mask: vec![HopSet::new(); n],
        }
    }
}

/// Precomputed, immutable per-run state shared by every worker.
pub(crate) struct SimNet {
    pub(crate) asn: Vec<Asn>,
    allowas_in: Vec<bool>,
    /// Session adjacency in CSR form: device `d`'s sessions are
    /// `sess[sess_off[d]..sess_off[d + 1]]`, each `(peer, peer_bit)` —
    /// the receiving device and the rank of this device's interface
    /// address in the receiver's sorted neighbor table. The next-hop
    /// address the receiver programs is `addr_table[peer][peer_bit]`,
    /// so 8 bytes carry the whole relaxation: the propagate loop scans
    /// ~10⁵ sessions per prefix and is bound by this stream's width.
    sess_off: Vec<u32>,
    sess: Vec<(u32, u32)>,
    /// Per device: its neighbors' interface addresses, ascending — the
    /// bit↔address mapping of the hop bitsets.
    pub(crate) addr_table: Vec<Vec<Ipv4>>,
    /// Per device: its neighbor table fits a [`HopSet`]; devices over
    /// capacity use the Vec spill path instead.
    pub(crate) fits: Vec<bool>,
    /// Per device: ECMP width cap for specific routes (`u32::MAX` when
    /// unbounded). Emit runs once per (device, prefix) pair, so the
    /// config override lookup is hoisted out of that loop.
    pub(crate) ecmp_cap: Vec<u32>,
    /// Per device: ECMP width cap for the default route — the specific
    /// cap further limited by the RIB→FIB default-hop truncation bug.
    pub(crate) default_cap: Vec<u32>,
    /// Per device: the default-route import rejection override.
    reject_default: Vec<bool>,
}

impl SimNet {
    pub(crate) fn build(topology: &Topology, config: &SimConfig) -> SimNet {
        SimNet::build_filtered(topology, config, &std::collections::HashSet::new())
    }

    /// [`SimNet::build`] with an extra set of links excluded from the
    /// session graph — the fault-injection surface of the restart API.
    /// Only sessions are filtered: the neighbor-address table (and with
    /// it the bit↔address mapping) still covers every physical link, so
    /// hop masks computed against the healthy table stay valid.
    pub(crate) fn build_filtered(
        topology: &Topology,
        config: &SimConfig,
        dead: &std::collections::HashSet<dctopo::LinkId>,
    ) -> SimNet {
        let n = topology.len();
        // Effective ASNs (migration overrides applied).
        let asn: Vec<Asn> = topology
            .devices()
            .iter()
            .map(|d| {
                config
                    .device(d.id)
                    .and_then(|o| o.asn_override)
                    .unwrap_or(d.asn)
            })
            .collect();
        let l2_bug: Vec<bool> = topology
            .devices()
            .iter()
            .map(|d| config.device(d.id).is_some_and(|o| o.l2_port_bug))
            .collect();
        // The neighbor-address table covers every physical link
        // regardless of session state, so the bit↔address mapping is
        // stable across fault configurations (link /31 addresses are
        // globally unique, hence sorted-unique per device).
        let mut addr_table: Vec<Vec<Ipv4>> = (0..n).map(|_| Vec::new()).collect();
        for l in topology.links() {
            addr_table[l.lo.0 as usize].push(l.hi_addr);
            addr_table[l.hi.0 as usize].push(l.lo_addr);
        }
        for t in &mut addr_table {
            t.sort_unstable();
        }
        let fits: Vec<bool> = addr_table
            .iter()
            .map(|t| t.len() <= HopSet::CAPACITY)
            .collect();
        // Session adjacency over healthy links between non-L2-bugged
        // devices, flattened to CSR (per-device order is link order,
        // which fixes ECMP insertion order and BFS tie-breaks).
        let mut per_dev: Vec<Vec<(u32, u32)>> = (0..n).map(|_| Vec::new()).collect();
        for l in topology.links() {
            if !l.state.session_up() || dead.contains(&l.id) {
                continue;
            }
            if l2_bug[l.lo.0 as usize] || l2_bug[l.hi.0 as usize] {
                continue;
            }
            let bit = |peer: DeviceId, addr: Ipv4| {
                addr_table[peer.0 as usize]
                    .binary_search(&addr)
                    .expect("session address is in the peer's table") as u32
            };
            per_dev[l.lo.0 as usize].push((l.hi.0, bit(l.hi, l.lo_addr)));
            per_dev[l.hi.0 as usize].push((l.lo.0, bit(l.lo, l.hi_addr)));
        }
        let mut sess_off = Vec::with_capacity(n + 1);
        let mut sess = Vec::with_capacity(per_dev.iter().map(Vec::len).sum());
        sess_off.push(0);
        for d in &per_dev {
            sess.extend_from_slice(d);
            sess_off.push(sess.len() as u32);
        }
        let allowas_in: Vec<bool> = topology
            .devices()
            .iter()
            .map(|d| d.role == Role::Tor)
            .collect();
        // Truncation caps and import overrides, hoisted out of the
        // per-(device, prefix) emit/relax loops. `m.max(1)` mirrors the
        // historical closure: a cap of zero still forwards one hop.
        let cap = |m: Option<usize>| -> u32 {
            m.map_or(u32::MAX, |m| m.max(1).min(u32::MAX as usize) as u32)
        };
        let mut ecmp_cap = vec![u32::MAX; n];
        let mut default_cap = vec![u32::MAX; n];
        let mut reject_default = vec![false; n];
        for d in topology.devices() {
            if let Some(o) = config.device(d.id) {
                let du = d.id.0 as usize;
                ecmp_cap[du] = cap(o.max_ecmp);
                default_cap[du] = ecmp_cap[du].min(cap(o.rib_fib_default_hops));
                reject_default[du] = o.reject_default_import;
            }
        }
        SimNet {
            asn,
            allowas_in,
            sess_off,
            sess,
            addr_table,
            fits,
            ecmp_cap,
            default_cap,
            reject_default,
        }
    }
}

/// Simulate EBGP convergence and return one FIB per device (indexed by
/// device id).
pub fn simulate(topology: &Topology, config: &SimConfig) -> Vec<Fib> {
    simulate_with(topology, config, SimOptions::default()).0
}

/// [`simulate`] with explicit threading options, also returning the
/// run's deterministic work counters.
pub fn simulate_with(
    topology: &Topology,
    config: &SimConfig,
    opts: SimOptions,
) -> (Vec<Fib>, SimStats) {
    let n = topology.len();
    let net = SimNet::build(topology, config);
    let work = work_list(topology);

    let fresh_builders = || -> Vec<FibBuilder> {
        topology
            .devices()
            .iter()
            .map(|d| FibBuilder::new(d.id))
            .collect()
    };

    let run_chunk = |chunk: &[(Prefix, Vec<DeviceId>)]| -> (Vec<FibBuilder>, SimStats) {
        let mut builders = fresh_builders();
        let mut relax = Relaxation::new(n);
        let mut rle = EmitRle::new(n);
        let mut stats = SimStats {
            prefixes: chunk.len(),
            ..SimStats::default()
        };
        for (k, (prefix, origins)) in chunk.iter().enumerate() {
            relax.reset();
            propagate(&net, &mut relax, *prefix, origins, &mut stats);
            emit_runs(&net, &relax, k as u32, *prefix, &mut rle, &mut builders);
        }
        let prefixes: Vec<Prefix> = chunk.iter().map(|(p, _)| *p).collect();
        expand_runs(&rle, &prefixes, &mut builders);
        (builders, stats)
    };

    let threads = opts.threads.max(1).min(work.len().max(1));
    let (builders, stats) = if threads <= 1 {
        run_chunk(&work)
    } else {
        // Chunk the prefix list across scoped workers — the same
        // static-partition idiom as the validation runner. Each worker
        // converges its prefixes into private per-device partial
        // builders; absorbing the workers in chunk order replays the
        // exact serial push sequence, so the merged tables (interned
        // pool layout included) are bit-identical to a 1-thread run.
        let chunk_size = work.len().div_ceil(threads);
        let results: Vec<(Vec<FibBuilder>, SimStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(|| run_chunk(chunk)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut results = results.into_iter();
        let (mut builders, mut stats) = results.next().expect("at least one chunk");
        for (worker_builders, worker_stats) in results {
            for (dst, src) in builders.iter_mut().zip(&worker_builders) {
                dst.absorb(src);
            }
            stats.absorb(&worker_stats);
        }
        (builders, stats)
    };

    (
        builders.into_iter().map(FibBuilder::finish).collect(),
        stats,
    )
}

/// The canonical simulation work list: every hosted prefix (origin: its
/// ToR) and the default route (origins: all regional spines), in the
/// order every convergence path — serial, parallel, and restart —
/// processes them. Push order over this list fixes the FIB layout, so
/// replaying it reproduces tables bit-for-bit.
pub(crate) fn work_list(topology: &Topology) -> Vec<(Prefix, Vec<DeviceId>)> {
    let mut work: Vec<(Prefix, Vec<DeviceId>)> = topology
        .all_hosted()
        .map(|(tor, prefix)| (prefix, vec![tor]))
        .collect();
    let regionals: Vec<DeviceId> = topology
        .devices_with_role(Role::RegionalSpine)
        .map(|d| d.id)
        .collect();
    work.push((default_prefix(), regionals));
    work
}

/// Does the AS path advertised by `from` (walked via BFS parents)
/// contain `receiver_asn`? The advertised path is
/// `asn(from), asn(parent(from)), …, asn(origin)`.
fn path_contains(
    relax: &Relaxation,
    asn: &[Asn],
    mut from: DeviceId,
    receiver_asn: Asn,
) -> bool {
    loop {
        if asn[from.0 as usize] == receiver_asn {
            return true;
        }
        let len = relax.best[from.0 as usize];
        if len == 0 {
            return false; // reached an origin
        }
        from = relax.parent[from.0 as usize];
    }
}

pub(crate) fn propagate(
    net: &SimNet,
    relax: &mut Relaxation,
    prefix: Prefix,
    origins: &[DeviceId],
    stats: &mut SimStats,
) {
    let is_default = prefix.is_default();
    for &o in origins {
        // An origin with the L2 bug still "hosts" the prefix but cannot
        // announce it (no sessions) — handled naturally since its
        // session list is empty.
        relax.best[o.0 as usize] = 0;
        relax.path_asns[o.0 as usize] = asn_bit(net.asn[o.0 as usize]);
        relax.touched.push(o);
        relax.buckets[0].push(o);
    }

    for level in 0..MAX_LEN - 1 {
        if relax.buckets[level].is_empty() {
            continue;
        }
        stats.rounds += 1;
        let senders = std::mem::take(&mut relax.buckets[level]);
        for d in senders {
            let du = d.0 as usize;
            if relax.best[du] != level as u8 {
                continue; // stale entry; improved earlier
            }
            let sess = &net.sess[net.sess_off[du] as usize..net.sess_off[du + 1] as usize];
            for &(peer, bit) in sess {
                stats.relaxations += 1;
                let nu = peer as usize;
                let nl = level as u8 + 1;
                let cur = relax.best[nu];
                if nl > cur {
                    continue;
                }
                // Import policy: default-route rejection (§2.6.2).
                if is_default && net.reject_default[nu] {
                    continue;
                }
                // BGP loop prevention on the receiver, unless
                // allowas-in. The Bloom signature proves most accepted
                // paths clean without walking the parent chain.
                if !net.allowas_in[nu]
                    && relax.path_asns[du] & asn_bit(net.asn[nu]) != 0
                    && path_contains(relax, &net.asn, d, net.asn[nu])
                {
                    continue;
                }
                // Self-announcement guard: an origin never reimports.
                if relax.best[nu] == 0 {
                    continue;
                }
                if nl < cur {
                    if cur == INF {
                        relax.touched.push(DeviceId(peer));
                    }
                    relax.best[nu] = nl;
                    relax.parent[nu] = d;
                    relax.path_asns[nu] = relax.path_asns[du] | asn_bit(net.asn[nu]);
                    if net.fits[nu] {
                        relax.hops.bits[nu].clear();
                        relax.hops.bits[nu].insert(bit as u16);
                    } else {
                        relax.hops.spill[nu].clear();
                        relax.hops.spill[nu].push(net.addr_table[nu][bit as usize]);
                    }
                    relax.buckets[nl as usize].push(DeviceId(peer));
                } else {
                    // Equal length: extend the ECMP set. The bitset
                    // insert is idempotent — the branch-free form of
                    // the spill path's `contains` scan.
                    if net.fits[nu] {
                        relax.hops.bits[nu].insert(bit as u16);
                    } else {
                        let hops = &mut relax.hops.spill[nu];
                        let addr = net.addr_table[nu][bit as usize];
                        if !hops.contains(&addr) {
                            hops.push(addr);
                        }
                    }
                }
            }
        }
    }
}

/// Per-prefix emit: extend or break each device's
/// current run (see [`EmitRle`]). `k` is the chunk-local prefix index.
///
/// Devices are scanned in id order rather than BFS-touch order: the
/// reached set is nearly every device, and ascending ids make every
/// array access here a sequential stream. Each device still yields
/// exactly one state per prefix, so the expanded push sequence — and
/// therefore the finished table — is unchanged.
pub(crate) fn emit_runs(
    net: &SimNet,
    relax: &Relaxation,
    k: u32,
    prefix: Prefix,
    rle: &mut EmitRle,
    builders: &mut [FibBuilder],
) {
    let caps = if prefix.is_default() {
        &net.default_cap
    } else {
        &net.ecmp_cap
    };
    let Hops { bits, spill } = &relax.hops;
    for du in 0..relax.best.len() {
        let len = relax.best[du];
        if len == INF {
            if rle.last_code[du] != RUN_ABSENT {
                rle.runs[du].push((k, RUN_ABSENT));
                rle.last_code[du] = RUN_ABSENT;
            }
            continue;
        }
        if len == 0 {
            // Origin: ToRs install their hosted prefix as local.
            // Regional spines originate the default (modeled as local
            // too: it points out of the datacenter). Local entries all
            // share the empty hop set, so any local run continues.
            if rle.last_code[du] != RUN_ABSENT && rle.last_code[du] & RUN_LOCAL != 0 {
                continue;
            }
            let id = builders[du].intern(Vec::new());
            let code = RUN_LOCAL | id;
            rle.runs[du].push((k, code));
            rle.last_code[du] = code;
            continue;
        }
        let cap = caps[du];
        if !net.fits[du] {
            // Over-capacity device: the spill Vec holds its hops,
            // interned every prefix. The interner
            // canonicalizes, so an id repeat is a state repeat.
            let mut hops = spill[du].clone();
            hops.sort_unstable();
            hops.truncate(cap as usize);
            let id = builders[du].intern(hops);
            if rle.last_code[du] != id {
                rle.runs[du].push((k, id));
                rle.last_code[du] = id;
            }
            continue;
        }
        // Bit order is address order, so truncating to the k lowest
        // bits keeps the k smallest addresses — exactly the spill
        // path's sort + truncate. Uncapped devices (the overwhelming
        // majority) skip the popcount and the 64-byte copy entirely.
        let stored;
        let mask: &HopSet = if cap != u32::MAX && cap < bits[du].len() {
            stored = {
                let mut c = bits[du];
                c.truncate(cap);
                c
            };
            &stored
        } else {
            &bits[du]
        };
        // Run continues only while the device stays in a plain-set
        // state with an identical post-truncation mask; `mask[du]` is
        // stale after a local/absent interlude, and `last_code`'s flag
        // bits reject exactly those cases.
        if rle.last_code[du] < RUN_LOCAL && rle.mask[du] == *mask {
            continue;
        }
        let id = builders[du].intern_bits(mask, &net.addr_table[du]);
        rle.mask[du] = *mask;
        rle.runs[du].push((k, id));
        rle.last_code[du] = id;
    }
}

/// Expand every device's runs into its builder, in prefix order —
/// replaying exactly the per-prefix push sequence the runs encode.
pub(crate) fn expand_runs(rle: &EmitRle, prefixes: &[Prefix], builders: &mut [FibBuilder]) {
    for (du, runs) in rle.runs.iter().enumerate() {
        let span = |ri: usize, k0: u32| -> std::ops::Range<usize> {
            let k1 = runs
                .get(ri + 1)
                .map_or(prefixes.len(), |&(k, _)| k as usize);
            k0 as usize..k1
        };
        // One exact reservation per device: growth reallocations over
        // 10⁴ builders × 10⁴ entries otherwise dominate the expansion.
        let total: usize = runs
            .iter()
            .enumerate()
            .filter(|&(_, &(_, code))| code != RUN_ABSENT)
            .map(|(ri, &(k0, _))| span(ri, k0).len())
            .sum();
        builders[du].reserve(total);
        for (ri, &(k0, code)) in runs.iter().enumerate() {
            if code == RUN_ABSENT {
                continue;
            }
            let local = code & RUN_LOCAL != 0;
            let id = code & !RUN_LOCAL;
            builders[du].extend_run(&prefixes[span(ri, k0)], id, local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::generator::{build_clos, figure3, ClosParams};
    use dctopo::{LinkState, MetadataService};

    /// Healthy Figure 3 datacenter, simulated.
    fn healthy_fig3() -> (dctopo::generator::Figure3, Vec<Fib>) {
        let f = figure3();
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        (f, fibs)
    }

    #[test]
    fn tor_has_default_via_all_leaves() {
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        let fib = &fibs[f.tors[0].0 as usize];
        let d = fib.default_entry().expect("ToR must have a default route");
        let hops = fib.next_hops(d);
        assert_eq!(hops.len(), 4, "default must fan out over all 4 leaves");
        for h in hops {
            let owner = m.owner_of(*h).unwrap();
            assert_eq!(f.topology.device(owner).role, Role::Leaf);
            assert_eq!(
                f.topology.device(owner).cluster,
                f.topology.device(f.tors[0]).cluster
            );
        }
    }

    #[test]
    fn tor_has_specific_for_every_remote_prefix() {
        let (f, fibs) = healthy_fig3();
        let fib = &fibs[f.tors[0].0 as usize];
        // Own prefix is local; the other three are via the 4 leaves.
        let own = fib.entry_for(f.prefixes[0]).unwrap();
        assert!(own.local);
        for &p in &f.prefixes[1..] {
            let e = fib.entry_for(p).unwrap();
            assert!(!e.local);
            assert_eq!(fib.next_hops(e).len(), 4, "prefix {p}");
        }
        // Total: default + 4 prefixes.
        assert_eq!(fib.len(), 5);
    }

    #[test]
    fn leaf_forwards_cluster_prefixes_to_tors_directly() {
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        // A1: Prefix_A -> ToR1, Prefix_B -> ToR2 (paper Figure 4).
        let fib = &fibs[f.a[0].0 as usize];
        for (pi, tor) in [(0usize, f.tors[0]), (1, f.tors[1])] {
            let e = fib.entry_for(f.prefixes[pi]).unwrap();
            let hops = fib.next_hops(e);
            assert_eq!(hops.len(), 1);
            assert_eq!(m.owner_of(hops[0]), Some(tor));
        }
        // Prefix_C, Prefix_D -> D1 (the only spine of A1).
        for pi in [2usize, 3] {
            let e = fib.entry_for(f.prefixes[pi]).unwrap();
            let hops = fib.next_hops(e);
            assert_eq!(hops.len(), 1);
            assert_eq!(m.owner_of(hops[0]), Some(f.d[0]));
        }
        // Default -> D1.
        let de = fib.default_entry().unwrap();
        assert_eq!(m.owner_of(fib.next_hops(de)[0]), Some(f.d[0]));
        assert_eq!(fib.next_hops(de).len(), 1);
    }

    #[test]
    fn spine_routes_match_figure4() {
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        let fib = &fibs[f.d[0].0 as usize];
        // D1: Prefix_A, Prefix_B -> A1; Prefix_C, Prefix_D -> B1.
        for (pi, leaf) in [(0usize, f.a[0]), (1, f.a[0]), (2, f.b[0]), (3, f.b[0])] {
            let e = fib.entry_for(f.prefixes[pi]).unwrap();
            let hops = fib.next_hops(e);
            assert_eq!(hops.len(), 1, "prefix index {pi}");
            assert_eq!(m.owner_of(hops[0]), Some(leaf));
        }
        // Default -> R1, R3.
        let de = fib.default_entry().unwrap();
        let owners: Vec<_> = fib
            .next_hops(de)
            .iter()
            .map(|&h| m.owner_of(h).unwrap())
            .collect();
        assert_eq!(owners.len(), 2);
        assert!(owners.contains(&f.r[0]) && owners.contains(&f.r[2]));
    }

    #[test]
    fn regional_spine_sees_every_prefix_but_no_valley() {
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        let fib = &fibs[f.r[0].0 as usize];
        // R1 connects to D1 and D3; every prefix reachable via exactly
        // the spines that have it (1 per prefix here: plane wiring).
        for &p in &f.prefixes {
            let e = fib.entry_for(p).unwrap();
            for h in fib.next_hops(e) {
                let o = m.owner_of(*h).unwrap();
                assert_eq!(f.topology.device(o).role, Role::Spine);
            }
        }
        // The default is locally originated at regionals.
        assert!(fib.default_entry().unwrap().local);
        // No spine ever has a route through a regional back down:
        // D1 must not know Prefix_C via R1/R3 (valley-free).
        let d1 = &fibs[f.d[0].0 as usize];
        let e = d1.entry_for(f.prefixes[2]).unwrap();
        for h in d1.next_hops(e) {
            let o = m.owner_of(*h).unwrap();
            assert_eq!(f.topology.device(o).role, Role::Leaf);
        }
    }

    #[test]
    fn intra_cluster_path_is_two_hops() {
        // Forward a packet ToR1 -> Prefix_B by walking FIBs; the path
        // must be ToR1 -> leaf -> ToR2 (length 2, §2.1).
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        let dst = f.prefixes[1].addr();
        let mut cur = f.tors[0];
        let mut hops = 0;
        loop {
            let fib = &fibs[cur.0 as usize];
            let e = fib.lookup(dst).expect("route must exist");
            if e.local {
                break;
            }
            cur = m.owner_of(fib.next_hops(e)[0]).unwrap();
            hops += 1;
            assert!(hops <= 8, "forwarding loop");
        }
        assert_eq!(cur, f.tors[1]);
        assert_eq!(hops, 2);
    }

    #[test]
    fn inter_cluster_path_is_four_hops() {
        let (f, fibs) = healthy_fig3();
        let m = MetadataService::from_topology(&f.topology);
        let dst = f.prefixes[2].addr(); // Prefix_C in cluster B
        let mut cur = f.tors[0];
        let mut path = vec![cur];
        loop {
            let fib = &fibs[cur.0 as usize];
            let e = fib.lookup(dst).unwrap();
            if e.local {
                break;
            }
            cur = m.owner_of(fib.next_hops(e)[0]).unwrap();
            path.push(cur);
            assert!(path.len() <= 8, "forwarding loop: {path:?}");
        }
        assert_eq!(path.len(), 5, "ToR,leaf,spine,leaf,ToR: {path:?}");
        assert_eq!(*path.last().unwrap(), f.tors[2]);
        let roles: Vec<Role> = path
            .iter()
            .map(|&d| f.topology.device(d).role)
            .collect();
        assert_eq!(
            roles,
            vec![Role::Tor, Role::Leaf, Role::Spine, Role::Leaf, Role::Tor]
        );
    }

    #[test]
    fn link_failure_shrinks_ecmp_sets() {
        let mut f = figure3();
        // Fail ToR1-A3 and ToR1-A4 (two of the paper's four failures).
        for &leaf in &[f.a[2], f.a[3]] {
            let l = f.topology.link_between(f.tors[0], leaf).unwrap().id;
            f.topology.set_link_state(l, LinkState::OperDown);
        }
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let fib = &fibs[f.tors[0].0 as usize];
        let d = fib.default_entry().unwrap();
        assert_eq!(fib.next_hops(d).len(), 2, "two of four uplinks remain");
    }

    #[test]
    fn figure3_failures_blackhole_specifics_but_keep_default_path() {
        // The paper's full §2.4.4 scenario: ToR1 loses A3/A4, ToR2
        // loses A1/A2. ToR1 then has no *specific* route for Prefix_B
        // (A1/A2 can't reach ToR2, A3/A4 unreachable from ToR1), but
        // the packet still arrives via default routes through the
        // regional spine — in 6 hops instead of 2.
        let mut f = figure3();
        for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
            for leaf in leaves {
                let l = f.topology.link_between(tor, leaf).unwrap().id;
                f.topology.set_link_state(l, LinkState::OperDown);
            }
        }
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let m = MetadataService::from_topology(&f.topology);
        let tor1 = &fibs[f.tors[0].0 as usize];
        assert!(
            tor1.entry_for(f.prefixes[1]).is_none(),
            "no specific route for Prefix_B may survive at ToR1"
        );
        // Forward ToR1 -> Prefix_B: must succeed via default routes.
        let dst = f.prefixes[1].addr();
        let mut cur = f.tors[0];
        let mut hops = 0;
        loop {
            let fib = &fibs[cur.0 as usize];
            let e = fib.lookup(dst).expect("must not blackhole");
            if e.local && !e.prefix.is_default() {
                break;
            }
            // At a regional spine the default is local-originated; the
            // specific must exist there instead.
            let nh = fib.next_hops(e);
            assert!(!nh.is_empty(), "dead end at {cur:?}");
            cur = m.owner_of(nh[0]).unwrap();
            hops += 1;
            assert!(hops <= 10, "loop");
        }
        assert_eq!(cur, f.tors[1]);
        assert_eq!(hops, 6, "ToR,leaf,spine,regional,spine,leaf,ToR");
    }

    #[test]
    fn l2_port_bug_empties_fib() {
        let f = figure3();
        let cfg = SimConfig::healthy().with_l2_port_bug(f.a[1]);
        let fibs = simulate(&f.topology, &cfg);
        // A1-bugged leaf has no sessions: only nothing (leaf hosts no
        // prefixes), so its FIB is empty.
        assert!(fibs[f.a[1].0 as usize].is_empty());
        // Its ToRs lose one uplink.
        let t1 = &fibs[f.tors[0].0 as usize];
        assert_eq!(t1.next_hops(t1.default_entry().unwrap()).len(), 3);
    }

    #[test]
    fn default_reject_policy_drops_default_only() {
        let f = figure3();
        let cfg = SimConfig::healthy().with_default_reject(f.tors[0]);
        let fibs = simulate(&f.topology, &cfg);
        let fib = &fibs[f.tors[0].0 as usize];
        assert!(fib.default_entry().is_none(), "default must be rejected");
        assert!(fib.entry_for(f.prefixes[1]).is_some(), "specifics unaffected");
    }

    #[test]
    fn ecmp_misconfig_truncates_next_hops() {
        let f = figure3();
        let cfg = SimConfig::healthy().with_max_ecmp(f.tors[0], 1);
        let fibs = simulate(&f.topology, &cfg);
        let fib = &fibs[f.tors[0].0 as usize];
        assert_eq!(fib.next_hops(fib.default_entry().unwrap()).len(), 1);
        let e = fib.entry_for(f.prefixes[1]).unwrap();
        assert_eq!(fib.next_hops(e).len(), 1);
    }

    #[test]
    fn rib_fib_bug_truncates_default_only() {
        let f = figure3();
        let cfg = SimConfig::healthy().with_rib_fib_bug(f.tors[0], 1);
        let fibs = simulate(&f.topology, &cfg);
        let fib = &fibs[f.tors[0].0 as usize];
        assert_eq!(fib.next_hops(fib.default_entry().unwrap()).len(), 1);
        let e = fib.entry_for(f.prefixes[1]).unwrap();
        assert_eq!(fib.next_hops(e).len(), 4, "specifics keep full ECMP");
    }

    #[test]
    fn migration_asn_collision_hides_specifics_both_ways() {
        // Cluster B's leaves get cluster A's leaf ASN: ToRs in each
        // cluster stop seeing the other cluster's specifics (§2.6.2
        // Migrations), but defaults still deliver traffic.
        let f = figure3();
        let cluster_a_leaf_asn = f.topology.device(f.a[0]).asn;
        let mut cfg = SimConfig::healthy();
        for &leaf in &f.b {
            cfg = cfg.with_asn_override(leaf, cluster_a_leaf_asn);
        }
        let fibs = simulate(&f.topology, &cfg);
        let t1 = &fibs[f.tors[0].0 as usize];
        assert!(t1.entry_for(f.prefixes[2]).is_none());
        assert!(t1.entry_for(f.prefixes[3]).is_none());
        assert!(t1.entry_for(f.prefixes[1]).is_some(), "intra-cluster fine");
        let t3 = &fibs[f.tors[2].0 as usize];
        assert!(t3.entry_for(f.prefixes[0]).is_none());
        // Defaults still present on both sides.
        assert!(t1.default_entry().is_some());
        assert!(t3.default_entry().is_some());
    }

    /// A config exercising every override the simulator honors, so the
    /// thread equivalence test covers the full emit surface.
    fn faulted_config(f: &dctopo::generator::Figure3) -> SimConfig {
        SimConfig::healthy()
            .with_max_ecmp(f.tors[0], 2)
            .with_rib_fib_bug(f.tors[1], 1)
            .with_default_reject(f.a[0])
            .with_l2_port_bug(f.b[1])
            .with_asn_override(f.b[0], f.topology.device(f.a[0]).asn)
    }

    #[test]
    fn parallel_matches_serial_fixed_point() {
        // Prefix-parallel convergence must be bit-identical to the
        // serial loop — same final FIBs (interned pools included) and
        // the same iteration counts — at every thread count, on both
        // healthy and faulted fabrics.
        let f = figure3();
        let medium = build_clos(&ClosParams::default());
        for (topo, config) in [
            (&f.topology, SimConfig::healthy()),
            (&f.topology, faulted_config(&f)),
            (&medium, SimConfig::healthy()),
        ] {
            let (serial, serial_stats) = simulate_with(topo, &config, SimOptions::default());
            assert!(serial_stats.rounds > 0 && serial_stats.relaxations > 0);
            for threads in [2, 3, 8] {
                let (parallel, parallel_stats) = simulate_with(
                    topo,
                    &config,
                    SimOptions { threads },
                );
                assert_eq!(serial, parallel, "threads={threads}");
                assert_eq!(serial_stats, parallel_stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn auto_options_default_to_detected_cores() {
        let detected = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(SimOptions::auto().threads, detected);
    }

    #[test]
    fn auto_options_keep_the_fixed_point_bit_identical() {
        // The service path's auto-threaded convergence must agree with
        // the serial loop byte for byte, whatever core count the host
        // detects.
        let f = figure3();
        let serial = simulate(&f.topology, &SimConfig::healthy());
        let (auto, _) = simulate_with(&f.topology, &SimConfig::healthy(), SimOptions::auto());
        assert_eq!(serial, auto);
    }

    #[test]
    fn stats_count_prefixes_and_rounds() {
        let f = figure3();
        let (_, stats) = simulate_with(&f.topology, &SimConfig::healthy(), SimOptions::default());
        // 4 hosted prefixes + the default route.
        assert_eq!(stats.prefixes, 5);
        // Every prefix needs at least one round to leave its origin.
        assert!(stats.rounds >= 5);
        let mut merged = SimStats::default();
        merged.absorb(&stats);
        assert_eq!(merged, stats);
    }

    #[test]
    fn generated_scale_fib_sizes() {
        // Medium datacenter: every device's FIB holds every hosted
        // prefix (+ default), matching "routing tables with several
        // thousands of prefixes" at scale.
        let params = ClosParams::default();
        let t = build_clos(&params);
        let fibs = simulate(&t, &SimConfig::healthy());
        let total_prefixes = (params.clusters * params.tors_per_cluster) as usize;
        for d in t.devices() {
            let fib = &fibs[d.id.0 as usize];
            match d.role {
                Role::Tor | Role::Leaf | Role::Spine => {
                    assert_eq!(fib.len(), total_prefixes + 1, "{}", d.name);
                }
                Role::RegionalSpine => {
                    assert_eq!(fib.len(), total_prefixes + 1, "{}", d.name);
                }
            }
        }
    }

    #[test]
    fn all_tor_pairs_reachable_in_healthy_network() {
        let t = build_clos(&ClosParams::default());
        let m = MetadataService::from_topology(&t);
        let fibs = simulate(&t, &SimConfig::healthy());
        let tors: Vec<_> = t.devices_with_role(Role::Tor).map(|d| d.id).collect();
        for &src in &tors {
            for &dst_tor in &tors {
                if src == dst_tor {
                    continue;
                }
                let dst = t.hosted_prefixes(dst_tor)[0].addr();
                let mut cur = src;
                let mut hops = 0;
                loop {
                    let fib = &fibs[cur.0 as usize];
                    let e = fib.lookup(dst).unwrap();
                    if e.local {
                        break;
                    }
                    cur = m.owner_of(fib.next_hops(e)[0]).unwrap();
                    hops += 1;
                    assert!(hops <= 4, "path too long {src:?}->{dst_tor:?}");
                }
                assert_eq!(cur, dst_tor);
                let same_cluster =
                    t.device(src).cluster == t.device(dst_tor).cluster;
                assert_eq!(hops, if same_cluster { 2 } else { 4 });
            }
        }
    }
}
