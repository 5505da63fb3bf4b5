//! Devices, roles, clusters, and ASN allocation.

use std::fmt;

/// Dense numeric identifier of a device within one [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Identifier of a cluster — the set of racks behind one leaf layer
/// (paper §2.1: "the set of racks that are connected together").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// A BGP autonomous system number. Azure's scheme uses private ASNs
/// (§2.1); we keep the same 64512–65534 band for generated topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The fixed role a device plays in the Clos hierarchy. Roles are the
/// crux of local validation: "each network device plays a fixed role
/// for a set of address ranges" (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Top-of-rack switch (T0): hosts server VLAN prefixes.
    Tor,
    /// Leaf / aggregation switch (T1): cluster boundary.
    Leaf,
    /// Spine switch (T2): datacenter boundary.
    Spine,
    /// Regional spine: connects the datacenter to the regional network.
    RegionalSpine,
}

impl Role {
    /// Tier number, ToR = 0 … regional spine = 3. Shortest-path length
    /// arguments in Claim 1 use the tier distance.
    pub const fn tier(self) -> u8 {
        match self {
            Role::Tor => 0,
            Role::Leaf => 1,
            Role::Spine => 2,
            Role::RegionalSpine => 3,
        }
    }

    /// The role one tier up, if any.
    pub const fn upstream(self) -> Option<Role> {
        match self {
            Role::Tor => Some(Role::Leaf),
            Role::Leaf => Some(Role::Spine),
            Role::Spine => Some(Role::RegionalSpine),
            Role::RegionalSpine => None,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Tor => "tor",
            Role::Leaf => "leaf",
            Role::Spine => "spine",
            Role::RegionalSpine => "regional-spine",
        };
        f.write_str(s)
    }
}

/// One network device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Dense id within the topology.
    pub id: DeviceId,
    /// Human-readable name (`tor-c0-t1`, `spine-s3`, …).
    pub name: String,
    /// Fixed architectural role.
    pub role: Role,
    /// Allocated autonomous system number.
    pub asn: Asn,
    /// Cluster membership; `None` for spines and regional spines.
    pub cluster: Option<ClusterId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering_matches_hierarchy() {
        assert!(Role::Tor.tier() < Role::Leaf.tier());
        assert!(Role::Leaf.tier() < Role::Spine.tier());
        assert!(Role::Spine.tier() < Role::RegionalSpine.tier());
    }

    #[test]
    fn upstream_chain() {
        assert_eq!(Role::Tor.upstream(), Some(Role::Leaf));
        assert_eq!(Role::Leaf.upstream(), Some(Role::Spine));
        assert_eq!(Role::Spine.upstream(), Some(Role::RegionalSpine));
        assert_eq!(Role::RegionalSpine.upstream(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DeviceId(7).to_string(), "d7");
        assert_eq!(Asn(65534).to_string(), "AS65534");
        assert_eq!(Role::RegionalSpine.to_string(), "regional-spine");
        assert_eq!(ClusterId(2).to_string(), "cluster2");
    }
}
