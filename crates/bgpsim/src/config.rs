//! Simulation configuration and fault/bug injection.
//!
//! Each field of [`DeviceOverride`] reproduces one root cause from the
//! paper's §2.6.2 error taxonomy; link-level faults (hardware failures,
//! administrative shutdowns) are injected on the topology itself via
//! [`dctopo::LinkState`].

use dctopo::{Asn, DeviceId};
use std::collections::HashMap;

/// Per-device configuration deviations from the healthy baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DeviceOverride {
    /// §2.6.2 *Software Bug 1*: a RIB→FIB inconsistency where the FIB
    /// programs "significantly fewer next hops for the default route
    /// compared to expected". `Some(k)` keeps only the first `k` next
    /// hops of the default route in the FIB (the RIB is unaffected).
    pub rib_fib_default_hops: Option<usize>,

    /// §2.6.2 *Software Bug 2*: interfaces treated as layer-2 switch
    /// ports — no IP addresses, so "BGP sessions could not be set up on
    /// any of the interfaces". All sessions of this device are down.
    pub l2_port_bug: bool,

    /// §2.6.2 *Policy Errors* (route maps): the device rejects default
    /// route announcements from upstream devices.
    pub reject_default_import: bool,

    /// §2.6.2 *Policy Errors* (ECMP misconfiguration): the device
    /// programs at most this many next hops per route instead of the
    /// full ECMP set. `Some(1)` reproduces the paper's "single next hop
    /// for upstream traffic" case.
    pub max_ecmp: Option<usize>,

    /// §2.6.2 *Migrations*: the device is configured with the wrong
    /// ASN (e.g. new-infrastructure leaves reusing the decommissioned
    /// infrastructure's ASN), causing loop-prevention to silently drop
    /// announcements.
    pub asn_override: Option<Asn>,
}

impl DeviceOverride {
    /// Is this the all-defaults (healthy) override?
    pub fn is_noop(&self) -> bool {
        *self == DeviceOverride::default()
    }
}

/// Configuration for one simulation run: a sparse map of per-device
/// overrides. An empty config is the healthy datacenter.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    overrides: HashMap<DeviceId, DeviceOverride>,
}

impl SimConfig {
    /// The healthy baseline configuration.
    pub fn healthy() -> Self {
        SimConfig::default()
    }

    /// Mutable access to the override for a device, creating a default
    /// entry on first touch.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut DeviceOverride {
        self.overrides.entry(id).or_default()
    }

    /// The override for a device, if any.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceOverride> {
        self.overrides.get(&id)
    }

    /// Devices with non-default overrides.
    pub fn overridden(&self) -> impl Iterator<Item = (DeviceId, &DeviceOverride)> {
        self.overrides
            .iter()
            .filter(|(_, o)| !o.is_noop())
            .map(|(&d, o)| (d, o))
    }

    /// Convenience: inject Software Bug 1 on a device.
    pub fn with_rib_fib_bug(mut self, id: DeviceId, hops: usize) -> Self {
        self.device_mut(id).rib_fib_default_hops = Some(hops);
        self
    }

    /// Convenience: inject Software Bug 2 on a device.
    pub fn with_l2_port_bug(mut self, id: DeviceId) -> Self {
        self.device_mut(id).l2_port_bug = true;
        self
    }

    /// Convenience: inject a default-route-rejecting route map.
    pub fn with_default_reject(mut self, id: DeviceId) -> Self {
        self.device_mut(id).reject_default_import = true;
        self
    }

    /// Convenience: inject an ECMP misconfiguration.
    pub fn with_max_ecmp(mut self, id: DeviceId, k: usize) -> Self {
        self.device_mut(id).max_ecmp = Some(k);
        self
    }

    /// Convenience: inject a migration ASN collision.
    pub fn with_asn_override(mut self, id: DeviceId, asn: Asn) -> Self {
        self.device_mut(id).asn_override = Some(asn);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_config_has_no_overrides() {
        let c = SimConfig::healthy();
        assert_eq!(c.overridden().count(), 0);
        assert!(c.device(DeviceId(3)).is_none());
    }

    #[test]
    fn builders_accumulate() {
        let c = SimConfig::healthy()
            .with_l2_port_bug(DeviceId(1))
            .with_max_ecmp(DeviceId(1), 1)
            .with_default_reject(DeviceId(2));
        assert_eq!(c.overridden().count(), 2);
        let o1 = c.device(DeviceId(1)).unwrap();
        assert!(o1.l2_port_bug);
        assert_eq!(o1.max_ecmp, Some(1));
        assert!(!o1.reject_default_import);
    }

    #[test]
    fn default_override_is_noop() {
        assert!(DeviceOverride::default().is_noop());
        let o = DeviceOverride {
            asn_override: Some(Asn(65533)),
            ..DeviceOverride::default()
        };
        assert!(!o.is_noop());
    }
}
