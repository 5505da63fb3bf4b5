//! Link and session state, and the failure modes RCDC classifies.
//!
//! Contracts are generated from the **expected** topology; faults only
//! affect the simulated control plane (and therefore the FIBs), which
//! is exactly how RCDC surfaces them as contract violations (§2.4,
//! §2.6.2).

use std::fmt;

/// The operational state of a point-to-point link / its BGP session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Link and BGP session healthy.
    Up,
    /// Operationally down — e.g. optical-cable hardware failure
    /// (§2.6.2 "Hardware Failures"). Remediation: replace the cable.
    OperDown,
    /// BGP session administratively shut — e.g. a lossy-link
    /// mitigation that was never rolled back (§2.6.2 "Operation
    /// Drift"). Remediation: unshut and monitor.
    AdminShut,
}

impl LinkState {
    /// Does a BGP session run over this link right now?
    pub const fn session_up(self) -> bool {
        matches!(self, LinkState::Up)
    }
}

impl fmt::Display for LinkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkState::Up => "up",
            LinkState::OperDown => "oper-down",
            LinkState::AdminShut => "admin-shut",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_up_carries_sessions() {
        assert!(LinkState::Up.session_up());
        assert!(!LinkState::OperDown.session_up());
        assert!(!LinkState::AdminShut.session_up());
    }
}
