//! The pre-rewrite convergence engine, frozen as an oracle.
//!
//! This is the simulator exactly as it stood before the hot-path
//! raw-speed pass: per-hop `Vec<Ipv4>` accumulation, per-entry
//! config-override probes in emit, no interning memo. It is kept
//! verbatim (not re-expressed through the new internals) so the
//! `engines` oracle and the tests below can hold the optimized
//! [`bgpsim::simulate_with`] to bit-identical FIB output forever. Do
//! not optimize this module.

use bgpsim::{Fib, FibBuilder, SimConfig};
use dctopo::{Asn, DeviceId, LinkId, Role, Topology};
use netprim::{Ipv4, Prefix};


const INF: u8 = u8::MAX;
/// Upper bound on AS-path length in a 4-tier Clos (loop prevention
/// caps real paths at 4; 16 leaves margin for override experiments).
const MAX_LEN: usize = 16;

struct Session {
    peer: DeviceId,
    /// This device's own interface address on the shared link — the
    /// next-hop address the *peer* programs to reach this device.
    local_addr: Ipv4,
    link: LinkId,
}

/// Scratch state reused across prefixes.
struct Relaxation {
    best: Vec<u8>,
    parent: Vec<DeviceId>,
    hops: Vec<Vec<Ipv4>>,
    touched: Vec<DeviceId>,
    buckets: Vec<Vec<DeviceId>>,
}

impl Relaxation {
    fn new(n: usize) -> Self {
        Relaxation {
            best: vec![INF; n],
            parent: vec![DeviceId(0); n],
            hops: vec![Vec::new(); n],
            touched: Vec::new(),
            buckets: vec![Vec::new(); MAX_LEN],
        }
    }

    fn reset(&mut self) {
        for &d in &self.touched {
            self.best[d.0 as usize] = INF;
            self.hops[d.0 as usize].clear();
        }
        self.touched.clear();
        for b in &mut self.buckets {
            b.clear();
        }
    }
}

/// Simulate EBGP convergence with the frozen pre-rewrite engine,
/// returning one FIB per device (indexed by device id). Must agree
/// with [`bgpsim::simulate`] on every input, bit for bit.
pub fn simulate(topology: &Topology, config: &SimConfig) -> Vec<Fib> {
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

    // Session adjacency over healthy links between non-L2-bugged devices.
    let mut sessions: Vec<Vec<Session>> = (0..n).map(|_| Vec::new()).collect();
    for l in topology.links() {
        if !l.state.session_up() {
            continue;
        }
        if l2_bug[l.lo.0 as usize] || l2_bug[l.hi.0 as usize] {
            continue;
        }
        sessions[l.lo.0 as usize].push(Session {
            peer: l.hi,
            local_addr: l.lo_addr,
            link: l.id,
        });
        sessions[l.hi.0 as usize].push(Session {
            peer: l.lo,
            local_addr: l.hi_addr,
            link: l.id,
        });
    }
    let _ = &sessions; // borrow below
    let allowas_in: Vec<bool> = topology
        .devices()
        .iter()
        .map(|d| d.role == Role::Tor)
        .collect();

    let mut builders: Vec<FibBuilder> = topology
        .devices()
        .iter()
        .map(|d| FibBuilder::new(d.id))
        .collect();

    let mut relax = Relaxation::new(n);

    // Work items: every hosted prefix (origin: its ToR) and the default
    // route (origins: all regional spines).
    let mut work: Vec<(Prefix, Vec<DeviceId>)> = topology
        .all_hosted()
        .map(|(tor, prefix)| (prefix, vec![tor]))
        .collect();
    let regionals: Vec<DeviceId> = topology
        .devices_with_role(Role::RegionalSpine)
        .map(|d| d.id)
        .collect();
    work.push((Prefix::DEFAULT, regionals));

    for (prefix, origins) in work {
        relax.reset();
        propagate(
            topology,
            config,
            &sessions,
            &asn,
            &allowas_in,
            &mut relax,
            prefix,
            &origins,
        );
        emit(topology, config, &relax, prefix, &origins, &mut builders);
    }

    builders.into_iter().map(FibBuilder::finish).collect()
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

#[allow(clippy::too_many_arguments)]
fn propagate(
    topology: &Topology,
    config: &SimConfig,
    sessions: &[Vec<Session>],
    asn: &[Asn],
    allowas_in: &[bool],
    relax: &mut Relaxation,
    prefix: Prefix,
    origins: &[DeviceId],
) {
    let is_default = prefix.is_default();
    for &o in origins {
        // An origin with the L2 bug still "hosts" the prefix but cannot
        // announce it (no sessions) — handled naturally since its
        // session list is empty.
        relax.best[o.0 as usize] = 0;
        relax.touched.push(o);
        relax.buckets[0].push(o);
    }
    let _ = topology;

    for level in 0..MAX_LEN - 1 {
        if relax.buckets[level].is_empty() {
            continue;
        }
        let senders = std::mem::take(&mut relax.buckets[level]);
        for d in senders {
            let du = d.0 as usize;
            if relax.best[du] != level as u8 {
                continue; // stale entry; improved earlier
            }
            for s in &sessions[du] {
                let nu = s.peer.0 as usize;
                let nl = level as u8 + 1;
                let cur = relax.best[nu];
                if nl > cur {
                    continue;
                }
                // Import policy: default-route rejection (§2.6.2).
                if is_default
                    && config
                        .device(s.peer)
                        .is_some_and(|o| o.reject_default_import)
                {
                    continue;
                }
                // BGP loop prevention on the receiver, unless allowas-in.
                if !allowas_in[nu] && path_contains(relax, asn, d, asn[nu]) {
                    continue;
                }
                // Self-announcement guard: an origin never reimports.
                if relax.best[nu] == 0 {
                    continue;
                }
                if nl < cur {
                    if cur == INF {
                        relax.touched.push(s.peer);
                    }
                    relax.best[nu] = nl;
                    relax.parent[nu] = d;
                    relax.hops[nu].clear();
                    relax.hops[nu].push(s.local_addr);
                    relax.buckets[nl as usize].push(s.peer);
                } else {
                    // Equal length: extend the ECMP set.
                    let hops = &mut relax.hops[nu];
                    if !hops.contains(&s.local_addr) {
                        hops.push(s.local_addr);
                    }
                }
                let _ = s.link;
            }
        }
    }
}

fn emit(
    topology: &Topology,
    config: &SimConfig,
    relax: &Relaxation,
    prefix: Prefix,
    origins: &[DeviceId],
    builders: &mut [FibBuilder],
) {
    let is_default = prefix.is_default();
    for &d in &relax.touched {
        let du = d.0 as usize;
        let len = relax.best[du];
        debug_assert_ne!(len, INF);
        if len == 0 {
            // Origin: ToRs install their hosted prefix as local.
            // Regional spines originate the default (modeled as local
            // too: it points out of the datacenter).
            builders[du].push(prefix, Vec::new(), true);
            continue;
        }
        let mut hops = relax.hops[du].clone();
        hops.sort_unstable();
        if let Some(o) = config.device(d) {
            if let Some(k) = o.max_ecmp {
                hops.truncate(k.max(1));
            }
            if is_default {
                if let Some(k) = o.rib_fib_default_hops {
                    hops.truncate(k.max(1));
                }
            }
        }
        builders[du].push(prefix, hops, false);
    }
    let _ = (topology, origins);
}


#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::generator::{build_clos, figure3, ClosParams};

    /// The optimized engine must reproduce the frozen baseline bit for
    /// bit — interned pool layout included — on a healthy fabric and
    /// under every override the emit path honors.
    #[test]
    fn optimized_engine_matches_frozen_baseline() {
        let f = figure3();
        let faulted = SimConfig::healthy()
            .with_max_ecmp(f.tors[0], 2)
            .with_rib_fib_bug(f.tors[1], 1)
            .with_default_reject(f.a[0])
            .with_l2_port_bug(f.b[1])
            .with_asn_override(f.b[0], f.topology.device(f.a[0]).asn);
        for config in [SimConfig::healthy(), faulted] {
            assert_eq!(
                simulate(&f.topology, &config),
                bgpsim::simulate(&f.topology, &config)
            );
        }
        let medium = build_clos(&ClosParams::default());
        assert_eq!(
            simulate(&medium, &SimConfig::healthy()),
            bgpsim::simulate(&medium, &SimConfig::healthy())
        );
    }

    /// A fabric where one layer's devices have more neighbors than a
    /// `HopSet` can index: a single fat leaf seeing 256 ToRs plus 260
    /// spines = 516 sessions > 512 bits. That device must take the
    /// per-device Vec spill path — and still match the baseline bit
    /// for bit — without dragging the rest of the fabric off the
    /// bitset fast path.
    #[test]
    fn over_capacity_device_spills_and_matches_baseline() {
        let params = ClosParams {
            clusters: 1,
            tors_per_cluster: 256,
            leaves_per_cluster: 1,
            spines: 260,
            regional_spines: 1,
            regional_groups: 1,
            prefixes_per_tor: 1,
        };
        let t = build_clos(&params);
        let config = SimConfig::healthy();
        assert_eq!(simulate(&t, &config), bgpsim::simulate(&t, &config));
    }
}
