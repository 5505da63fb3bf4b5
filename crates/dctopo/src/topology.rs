//! The physical topology: devices, point-to-point links, hosted
//! prefixes, and adjacency queries.

use crate::device::{Device, DeviceId, Role};
use crate::faults::LinkState;
use netprim::{Ipv4, Prefix};
use std::collections::HashMap;

/// Dense numeric identifier of a link within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// A point-to-point link between two devices, carrying one EBGP
/// session (§2.1: "EBGP sessions over direct point-to-point links").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Link id.
    pub id: LinkId,
    /// Lower-tier endpoint (e.g. the ToR on a ToR–leaf link).
    pub lo: DeviceId,
    /// Upper-tier endpoint.
    pub hi: DeviceId,
    /// Interface address on the `lo` side (one side of a /31).
    pub lo_addr: Ipv4,
    /// Interface address on the `hi` side.
    pub hi_addr: Ipv4,
    /// Current operational state.
    pub state: LinkState,
}

impl Link {
    /// The other endpoint as seen from `from`.
    pub fn peer_of(&self, from: DeviceId) -> DeviceId {
        if from == self.lo {
            self.hi
        } else {
            debug_assert_eq!(from, self.hi);
            self.lo
        }
    }

    /// The interface address on the *peer's* side, i.e. the next-hop
    /// address `from` uses when forwarding over this link.
    pub fn peer_addr_of(&self, from: DeviceId) -> Ipv4 {
        if from == self.lo {
            self.hi_addr
        } else {
            debug_assert_eq!(from, self.hi);
            self.lo_addr
        }
    }
}

/// The full datacenter topology, plus hosted-prefix facts.
///
/// Link state is mutable (fault injection); everything else is fixed at
/// construction, mirroring the paper's split between a fixed
/// architecture and fluctuating network state.
#[derive(Debug, Clone)]
pub struct Topology {
    devices: Vec<Device>,
    links: Vec<Link>,
    /// `adjacency[device]` = link ids incident to the device.
    adjacency: Vec<Vec<LinkId>>,
    /// VLAN prefixes each ToR announces (§2.1).
    hosted: HashMap<DeviceId, Vec<Prefix>>,
}

impl Topology {
    /// Assemble a topology from parts. Used by the generator; panics on
    /// dangling device references (a construction bug, not input error).
    pub fn new(devices: Vec<Device>, links: Vec<Link>, hosted: HashMap<DeviceId, Vec<Prefix>>) -> Self {
        let mut adjacency = vec![Vec::new(); devices.len()];
        for l in &links {
            assert!((l.lo.0 as usize) < devices.len() && (l.hi.0 as usize) < devices.len());
            adjacency[l.lo.0 as usize].push(l.id);
            adjacency[l.hi.0 as usize].push(l.id);
        }
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.id.0 as usize, i, "device ids must be dense and ordered");
        }
        for d in hosted.keys() {
            assert!((d.0 as usize) < devices.len());
        }
        Topology {
            devices,
            links,
            adjacency,
            hosted,
        }
    }

    /// All devices, ordered by id.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All links, ordered by id.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Device lookup.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Links incident to a device (regardless of state).
    pub fn links_of(&self, id: DeviceId) -> impl Iterator<Item = &Link> + '_ {
        self.adjacency[id.0 as usize].iter().map(|&l| self.link(l))
    }

    /// Neighbors over links whose BGP session is currently up.
    pub fn live_neighbors(&self, id: DeviceId) -> impl Iterator<Item = (&Link, DeviceId)> + '_ {
        self.links_of(id)
            .filter(|l| l.state.session_up())
            .map(move |l| (l, l.peer_of(id)))
    }

    /// Neighbors per the *expected* topology (ignoring state) — the
    /// basis for contract generation (§2.4: "we create contracts based
    /// on expected topology").
    pub fn expected_neighbors(&self, id: DeviceId) -> impl Iterator<Item = (&Link, DeviceId)> + '_ {
        self.links_of(id).map(move |l| (l, l.peer_of(id)))
    }

    /// Expected neighbors restricted to a role.
    pub fn expected_neighbors_with_role(
        &self,
        id: DeviceId,
        role: Role,
    ) -> impl Iterator<Item = (&Link, DeviceId)> + '_ {
        self.expected_neighbors(id)
            .filter(move |&(_, peer)| self.device(peer).role == role)
    }

    /// Prefixes hosted by a ToR.
    pub fn hosted_prefixes(&self, id: DeviceId) -> &[Prefix] {
        self.hosted.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every `(tor, prefix)` hosting fact in the datacenter.
    pub fn all_hosted(&self) -> impl Iterator<Item = (DeviceId, Prefix)> + '_ {
        let mut tors: Vec<_> = self.hosted.iter().collect();
        tors.sort_by_key(|(d, _)| **d);
        tors.into_iter()
            .flat_map(|(&d, ps)| ps.iter().map(move |&p| (d, p)))
    }

    /// Devices with a given role, in id order.
    pub fn devices_with_role(&self, role: Role) -> impl Iterator<Item = &Device> + '_ {
        self.devices.iter().filter(move |d| d.role == role)
    }

    /// Mutate the state of a link (fault injection / remediation).
    pub fn set_link_state(&mut self, id: LinkId, state: LinkState) {
        self.links[id.0 as usize].state = state;
    }

    /// Find the link between two devices, if one exists.
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> Option<&Link> {
        self.links_of(a)
            .find(|l| l.peer_of(a) == b)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the topology has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Asn, Role};

    fn tiny() -> Topology {
        let devices = vec![
            Device {
                id: DeviceId(0),
                name: "tor-0".into(),
                role: Role::Tor,
                asn: Asn(65510),
                cluster: Some(crate::ClusterId(0)),
            },
            Device {
                id: DeviceId(1),
                name: "leaf-0".into(),
                role: Role::Leaf,
                asn: Asn(65533),
                cluster: Some(crate::ClusterId(0)),
            },
        ];
        let links = vec![Link {
            id: LinkId(0),
            lo: DeviceId(0),
            hi: DeviceId(1),
            lo_addr: Ipv4::new(30, 0, 0, 0),
            hi_addr: Ipv4::new(30, 0, 0, 1),
            state: LinkState::Up,
        }];
        let mut hosted = HashMap::new();
        hosted.insert(DeviceId(0), vec!["10.0.0.0/24".parse().unwrap()]);
        Topology::new(devices, links, hosted)
    }

    #[test]
    fn peer_resolution() {
        let t = tiny();
        let l = t.link(LinkId(0));
        assert_eq!(l.peer_of(DeviceId(0)), DeviceId(1));
        assert_eq!(l.peer_of(DeviceId(1)), DeviceId(0));
        assert_eq!(l.peer_addr_of(DeviceId(0)), Ipv4::new(30, 0, 0, 1));
        assert_eq!(l.peer_addr_of(DeviceId(1)), Ipv4::new(30, 0, 0, 0));
    }

    #[test]
    fn live_neighbors_respect_state() {
        let mut t = tiny();
        assert_eq!(t.live_neighbors(DeviceId(0)).count(), 1);
        t.set_link_state(LinkId(0), LinkState::OperDown);
        assert_eq!(t.live_neighbors(DeviceId(0)).count(), 0);
        // Expected neighbors are unaffected: contracts don't move.
        assert_eq!(t.expected_neighbors(DeviceId(0)).count(), 1);
        t.set_link_state(LinkId(0), LinkState::Up);
        assert_eq!(t.live_neighbors(DeviceId(0)).count(), 1);
    }

    #[test]
    fn hosted_prefix_lookup() {
        let t = tiny();
        assert_eq!(t.hosted_prefixes(DeviceId(0)).len(), 1);
        assert!(t.hosted_prefixes(DeviceId(1)).is_empty());
        let all: Vec<_> = t.all_hosted().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, DeviceId(0));
    }

    #[test]
    fn link_between_lookup() {
        let t = tiny();
        assert!(t.link_between(DeviceId(0), DeviceId(1)).is_some());
        assert!(t.link_between(DeviceId(1), DeviceId(0)).is_some());
    }

    #[test]
    fn role_filtered_neighbors() {
        let t = tiny();
        assert_eq!(
            t.expected_neighbors_with_role(DeviceId(0), Role::Leaf).count(),
            1
        );
        assert_eq!(
            t.expected_neighbors_with_role(DeviceId(0), Role::Spine).count(),
            0
        );
    }
}
