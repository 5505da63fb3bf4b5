//! Parameterized Clos topology generation.
//!
//! Mirrors the synthetic "cloud topology generator" the paper points to
//! for benchmarks (§2.6.3, reference \[29\]): a hierarchical Clos with
//! Azure's wiring and ASN allocation scheme (§2.1):
//!
//! * every ToR connects to every leaf of its cluster;
//! * the spine layer is split into `leaves_per_cluster` planes and leaf
//!   `j` of each cluster connects to all spines of plane `j`;
//! * regional spines are split into `regional_groups` groups and spine
//!   `s` connects to all regional spines of group `s mod groups`;
//! * all spines share one ASN, leaves share one ASN per cluster, and
//!   ToR ASNs are unique within a cluster but **reused across
//!   clusters** (the detail that forces allowas-in on ToR sessions and
//!   enables the §2.6.2 migration misconfiguration).

use crate::device::{Asn, ClusterId, Device, DeviceId, Role};
use crate::faults::LinkState;
use crate::topology::{Link, LinkId, Topology};
use netprim::{Ipv4, Prefix};
use std::collections::HashMap;

/// Parameters of a generated Clos datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosParams {
    /// Number of clusters (`n` in Figure 1).
    pub clusters: u32,
    /// ToRs per cluster (`k`).
    pub tors_per_cluster: u32,
    /// Leaves per cluster (`m`); also the number of spine planes.
    pub leaves_per_cluster: u32,
    /// Total spine devices (`p`); must be a multiple of
    /// `leaves_per_cluster`.
    pub spines: u32,
    /// Regional spine devices reachable from this datacenter.
    pub regional_spines: u32,
    /// Groups the regional spines are partitioned into.
    pub regional_groups: u32,
    /// VLAN prefixes hosted per ToR.
    pub prefixes_per_tor: u32,
}

impl Default for ClosParams {
    fn default() -> Self {
        ClosParams {
            clusters: 4,
            tors_per_cluster: 8,
            leaves_per_cluster: 4,
            spines: 8,
            regional_spines: 4,
            regional_groups: 2,
            prefixes_per_tor: 1,
        }
    }
}

impl ClosParams {
    /// Total device count of the generated topology.
    pub fn device_count(&self) -> u32 {
        self.clusters * (self.tors_per_cluster + self.leaves_per_cluster)
            + self.spines
            + self.regional_spines
    }

    /// Check the shape against the generator's rules. The error names
    /// the rule that failed.
    pub fn validate(&self) -> Result<(), String> {
        let dimensions = [
            self.clusters,
            self.tors_per_cluster,
            self.leaves_per_cluster,
            self.spines,
            self.regional_spines,
            self.regional_groups,
            self.prefixes_per_tor,
        ];
        if dimensions.contains(&0) {
            return Err("every fabric dimension must be at least 1".to_string());
        }
        if !self.spines.is_multiple_of(self.leaves_per_cluster) {
            return Err(format!(
                "{} spines must divide evenly into {} planes, one per leaf",
                self.spines, self.leaves_per_cluster
            ));
        }
        if !self.regional_spines.is_multiple_of(self.regional_groups) {
            return Err(format!(
                "{} regional spines must divide evenly into {} groups",
                self.regional_spines, self.regional_groups
            ));
        }
        if self.clusters > 400 {
            return Err(format!(
                "{} clusters: the leaf ASN band supports at most 400",
                self.clusters
            ));
        }
        if self.tors_per_cluster > 256 {
            return Err(format!(
                "{} ToRs per cluster: the ToR ASN band supports at most 256",
                self.tors_per_cluster
            ));
        }
        let total_prefixes =
            self.clusters as u64 * self.tors_per_cluster as u64 * self.prefixes_per_tor as u64;
        if total_prefixes > 1 << 16 {
            return Err(format!(
                "{total_prefixes} hosted prefixes: the prefix pool (10.0.0.0/8 in /24s) \
                 holds at most 65536"
            ));
        }
        Ok(())
    }
}

/// ASN shared by every spine in the datacenter (65535 in Figure 1).
pub const SPINE_ASN: Asn = Asn(65535);
/// Leaf ASN for cluster `c` is `65534 - c` (65534, 65533, … as in Figure 1).
pub fn leaf_asn(cluster: ClusterId) -> Asn {
    Asn(65534 - cluster.0)
}
/// ToR ASN for in-cluster index `t`; reused across clusters (§2.1).
pub fn tor_asn(index_in_cluster: u32) -> Asn {
    Asn(65100 + index_in_cluster)
}
/// ASN shared by the regional spine layer.
pub const REGIONAL_ASN: Asn = Asn(64900);

/// Generate a Clos topology. All links start [`LinkState::Up`].
///
/// # Panics
///
/// With [`ClosParams::validate`]'s message when `p` breaks one of the
/// generator's rules; callers taking shapes from input check it first.
pub fn build_clos(p: &ClosParams) -> Topology {
    if let Err(broken) = p.validate() {
        panic!("{broken}");
    }
    let mut devices = Vec::with_capacity(p.device_count() as usize);
    let mut push = |name: String, role: Role, asn: Asn, cluster: Option<ClusterId>| {
        let id = DeviceId(devices.len() as u32);
        devices.push(Device {
            id,
            name,
            role,
            asn,
            cluster,
        });
        id
    };

    // ToRs (cluster-major), then leaves, spines, regional spines.
    let mut tors = vec![Vec::with_capacity(p.tors_per_cluster as usize); p.clusters as usize];
    for c in 0..p.clusters {
        for t in 0..p.tors_per_cluster {
            let id = push(
                format!("tor-c{c}-t{t}"),
                Role::Tor,
                tor_asn(t),
                Some(ClusterId(c)),
            );
            tors[c as usize].push(id);
        }
    }
    let mut leaves = vec![Vec::with_capacity(p.leaves_per_cluster as usize); p.clusters as usize];
    for c in 0..p.clusters {
        for j in 0..p.leaves_per_cluster {
            let id = push(
                format!("leaf-c{c}-l{j}"),
                Role::Leaf,
                leaf_asn(ClusterId(c)),
                Some(ClusterId(c)),
            );
            leaves[c as usize].push(id);
        }
    }
    let spines: Vec<DeviceId> = (0..p.spines)
        .map(|s| push(format!("spine-s{s}"), Role::Spine, SPINE_ASN, None))
        .collect();
    let regionals: Vec<DeviceId> = (0..p.regional_spines)
        .map(|r| push(format!("regional-r{r}"), Role::RegionalSpine, REGIONAL_ASN, None))
        .collect();

    // Links: /31 interface pairs carved out of 30.0.0.0/8.
    let mut links = Vec::new();
    let mut connect = |lo: DeviceId, hi: DeviceId| {
        let id = LinkId(links.len() as u32);
        let base = Ipv4::new(30, 0, 0, 0).0 + 2 * id.0;
        links.push(Link {
            id,
            lo,
            hi,
            lo_addr: Ipv4(base),
            hi_addr: Ipv4(base + 1),
            state: LinkState::Up,
        });
    };

    for c in 0..p.clusters as usize {
        for &t in &tors[c] {
            for &l in &leaves[c] {
                connect(t, l);
            }
        }
        // Leaf j connects to all spines of plane j.
        for (j, &l) in leaves[c].iter().enumerate() {
            for (s, &sp) in spines.iter().enumerate() {
                if s as u32 % p.leaves_per_cluster == j as u32 {
                    connect(l, sp);
                }
            }
        }
    }
    for (s, &sp) in spines.iter().enumerate() {
        for (r, &reg) in regionals.iter().enumerate() {
            if r as u32 % p.regional_groups == s as u32 % p.regional_groups {
                connect(sp, reg);
            }
        }
    }

    // Hosted prefixes: /24s carved out of 10.0.0.0/8, per ToR.
    let mut hosted: HashMap<DeviceId, Vec<Prefix>> = HashMap::new();
    let mut next_slot: u32 = 0;
    for cluster_tors in &tors {
        for &t in cluster_tors {
            let mut ps = Vec::with_capacity(p.prefixes_per_tor as usize);
            for _ in 0..p.prefixes_per_tor {
                let addr = Ipv4(Ipv4::new(10, 0, 0, 0).0 + (next_slot << 8));
                ps.push(Prefix::new(addr, 24).expect("aligned /24"));
                next_slot += 1;
            }
            hosted.insert(t, ps);
        }
    }

    Topology::new(devices, links, hosted)
}

/// Handles into the paper's Figure 3 scaled-down topology.
///
/// Two clusters (A and B), each with two ToRs and four leaves; four
/// spines `D1..D4` each reached by exactly one leaf per cluster; four
/// regional spines `R1..R4` in two groups. `prefix_a..prefix_d` are the
/// prefixes hosted by `tor1..tor4` respectively.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// The topology itself.
    pub topology: Topology,
    /// `ToR1`, `ToR2` (cluster A), `ToR3`, `ToR4` (cluster B).
    pub tors: [DeviceId; 4],
    /// Cluster A leaves `A1..A4`.
    pub a: [DeviceId; 4],
    /// Cluster B leaves `B1..B4`.
    pub b: [DeviceId; 4],
    /// Spines `D1..D4`.
    pub d: [DeviceId; 4],
    /// Regional spines `R1..R4`.
    pub r: [DeviceId; 4],
    /// `Prefix_A..Prefix_D`, hosted by `ToR1..ToR4`.
    pub prefixes: [Prefix; 4],
}

/// Build the Figure 3 topology with named handles.
pub fn figure3() -> Figure3 {
    let params = ClosParams {
        clusters: 2,
        tors_per_cluster: 2,
        leaves_per_cluster: 4,
        spines: 4,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    };
    let topology = build_clos(&params);
    let find = |name: &str| {
        topology
            .devices()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("missing device {name}"))
            .id
    };
    let tors = [
        find("tor-c0-t0"),
        find("tor-c0-t1"),
        find("tor-c1-t0"),
        find("tor-c1-t1"),
    ];
    let a = [
        find("leaf-c0-l0"),
        find("leaf-c0-l1"),
        find("leaf-c0-l2"),
        find("leaf-c0-l3"),
    ];
    let b = [
        find("leaf-c1-l0"),
        find("leaf-c1-l1"),
        find("leaf-c1-l2"),
        find("leaf-c1-l3"),
    ];
    let d = [
        find("spine-s0"),
        find("spine-s1"),
        find("spine-s2"),
        find("spine-s3"),
    ];
    let r = [
        find("regional-r0"),
        find("regional-r1"),
        find("regional-r2"),
        find("regional-r3"),
    ];
    let prefixes = [
        topology.hosted_prefixes(tors[0])[0],
        topology.hosted_prefixes(tors[1])[0],
        topology.hosted_prefixes(tors[2])[0],
        topology.hosted_prefixes(tors[3])[0],
    ];
    Figure3 {
        topology,
        tors,
        a,
        b,
        d,
        r,
        prefixes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_and_link_counts() {
        let p = ClosParams::default();
        let t = build_clos(&p);
        assert_eq!(t.len() as u32, p.device_count());
        // tor-leaf: clusters * k * m; leaf-spine: clusters * spines
        // (each leaf gets spines/m spines, m leaves per cluster);
        // spine-regional: spines * regionals / groups.
        let expect_links = p.clusters * p.tors_per_cluster * p.leaves_per_cluster
            + p.clusters * p.spines
            + p.spines * (p.regional_spines / p.regional_groups);
        assert_eq!(t.links().len() as u32, expect_links);
    }

    #[test]
    fn asn_scheme_matches_paper() {
        let t = build_clos(&ClosParams::default());
        for d in t.devices_with_role(Role::Spine) {
            assert_eq!(d.asn, SPINE_ASN);
        }
        // Leaves of one cluster share an ASN; different clusters differ.
        let leaf_asns: Vec<_> = t
            .devices_with_role(Role::Leaf)
            .map(|d| (d.cluster.unwrap(), d.asn))
            .collect();
        for (c, a) in &leaf_asns {
            assert_eq!(*a, leaf_asn(*c));
        }
        // ToR ASNs unique within a cluster, reused across clusters.
        let c0: Vec<_> = t
            .devices_with_role(Role::Tor)
            .filter(|d| d.cluster == Some(ClusterId(0)))
            .map(|d| d.asn)
            .collect();
        let mut uniq = c0.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), c0.len(), "ToR ASNs must be unique in a cluster");
        let c1: Vec<_> = t
            .devices_with_role(Role::Tor)
            .filter(|d| d.cluster == Some(ClusterId(1)))
            .map(|d| d.asn)
            .collect();
        assert_eq!(c0, c1, "ToR ASNs are reused across clusters");
    }

    #[test]
    fn tors_connect_to_all_cluster_leaves_only() {
        let p = ClosParams::default();
        let t = build_clos(&p);
        for tor in t.devices_with_role(Role::Tor) {
            let peers: Vec<_> = t.expected_neighbors(tor.id).map(|(_, d)| d).collect();
            assert_eq!(peers.len() as u32, p.leaves_per_cluster);
            for peer in peers {
                let pd = t.device(peer);
                assert_eq!(pd.role, Role::Leaf);
                assert_eq!(pd.cluster, tor.cluster);
            }
        }
    }

    #[test]
    fn leaves_cover_disjoint_spine_planes() {
        let p = ClosParams::default();
        let t = build_clos(&p);
        // Each spine must be reachable from every cluster exactly once.
        for spine in t.devices_with_role(Role::Spine) {
            let leaf_peers: Vec<_> = t
                .expected_neighbors_with_role(spine.id, Role::Leaf)
                .map(|(_, d)| t.device(d).cluster.unwrap())
                .collect();
            assert_eq!(leaf_peers.len() as u32, p.clusters);
            let mut uniq = leaf_peers.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), leaf_peers.len());
        }
    }

    #[test]
    fn interface_addresses_are_unique() {
        let t = build_clos(&ClosParams::default());
        let mut addrs: Vec<Ipv4> = t
            .links()
            .iter()
            .flat_map(|l| [l.lo_addr, l.hi_addr])
            .collect();
        let before = addrs.len();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), before);
    }

    #[test]
    fn hosted_prefixes_are_disjoint_across_tors() {
        let p = ClosParams {
            prefixes_per_tor: 3,
            ..ClosParams::default()
        };
        let t = build_clos(&p);
        let mut all: Vec<Prefix> = t.all_hosted().map(|(_, pf)| pf).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
        assert_eq!(
            before as u32,
            p.clusters * p.tors_per_cluster * p.prefixes_per_tor
        );
    }

    #[test]
    fn figure3_wiring_matches_paper() {
        let f = figure3();
        let t = &f.topology;
        // ToR1's leaves are A1..A4.
        let tor1_peers: Vec<_> = t.expected_neighbors(f.tors[0]).map(|(_, d)| d).collect();
        assert_eq!(tor1_peers.len(), 4);
        for &ai in &f.a {
            assert!(tor1_peers.contains(&ai));
        }
        // A1's only spine is D1.
        let a1_spines: Vec<_> = t
            .expected_neighbors_with_role(f.a[0], Role::Spine)
            .map(|(_, d)| d)
            .collect();
        assert_eq!(a1_spines, vec![f.d[0]]);
        // D1's regional spines are R1 and R3.
        let d1_regionals: Vec<_> = t
            .expected_neighbors_with_role(f.d[0], Role::RegionalSpine)
            .map(|(_, d)| d)
            .collect();
        assert_eq!(d1_regionals, vec![f.r[0], f.r[2]]);
        // D2's regional spines are R2 and R4.
        let d2_regionals: Vec<_> = t
            .expected_neighbors_with_role(f.d[1], Role::RegionalSpine)
            .map(|(_, d)| d)
            .collect();
        assert_eq!(d2_regionals, vec![f.r[1], f.r[3]]);
        // D1 reaches cluster A only through A1, cluster B only through B1.
        let d1_leaves: Vec<_> = t
            .expected_neighbors_with_role(f.d[0], Role::Leaf)
            .map(|(_, d)| d)
            .collect();
        assert_eq!(d1_leaves, vec![f.a[0], f.b[0]]);
        // Four distinct hosted prefixes.
        let mut ps = f.prefixes.to_vec();
        ps.sort();
        ps.dedup();
        assert_eq!(ps.len(), 4);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_unbalanced_planes() {
        build_clos(&ClosParams {
            spines: 7,
            leaves_per_cluster: 4,
            ..ClosParams::default()
        });
    }

    #[test]
    fn each_rejected_shape_names_its_rule() {
        let d = ClosParams::default();
        assert_eq!(d.validate(), Ok(()));
        let cases = [
            (ClosParams { prefixes_per_tor: 0, ..d }, "must be at least 1"),
            (ClosParams { spines: 6, ..d }, "6 spines must divide evenly into 4 planes"),
            (ClosParams { regional_groups: 3, ..d }, "4 regional spines must divide evenly"),
            (ClosParams { clusters: 401, ..d }, "401 clusters: the leaf ASN band"),
            (ClosParams { tors_per_cluster: 257, ..d }, "257 ToRs per cluster: the ToR ASN band"),
            (
                ClosParams { clusters: 300, tors_per_cluster: 256, ..d },
                "76800 hosted prefixes: the prefix pool",
            ),
        ];
        for (p, cause) in cases {
            let err = p.validate().unwrap_err();
            assert!(err.contains(cause), "{p:?}: {err}");
        }
    }

    #[test]
    fn ten_k_scale_generation_is_fast() {
        // ~10^4 devices, the E2 scale point.
        let p = ClosParams {
            clusters: 96,
            tors_per_cluster: 96,
            leaves_per_cluster: 8,
            spines: 64,
            regional_spines: 8,
            regional_groups: 2,
            prefixes_per_tor: 1,
        };
        let t = build_clos(&p);
        assert!(t.len() >= 10_000, "{} devices", t.len());
    }
}
