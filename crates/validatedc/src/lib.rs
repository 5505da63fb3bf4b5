//! # validatedc — validating datacenters at scale, in Rust
//!
//! Umbrella crate re-exporting the full reproduction of *Validating
//! Datacenters At Scale* (SIGCOMM 2019): the RCDC forwarding-state
//! checker, the SecGuru connectivity-policy checker, and every
//! substrate they run on.
//!
//! | crate | role |
//! |---|---|
//! | [`netprim`] | addresses, prefixes, header spaces, FIB wire codec |
//! | [`smtkit`] | from-scratch QF_BV SMT solver (CDCL + bit-blasting) |
//! | [`dctopo`] | Clos topology model, metadata service, generator, faults |
//! | [`bgpsim`] | EBGP convergence producing per-device FIBs |
//! | [`rcdc`] | local contracts, verification engines, monitoring pipeline |
//! | [`secguru`] | ACL/NSG/firewall verification and change gating |
//! | [`obskit`] | dependency-free metrics: counters, gauges, histograms, exporters |
//!
//! ## Quickstart
//!
//! ```
//! use validatedc::prelude::*;
//!
//! // A small Clos datacenter with healthy state.
//! let topology = build_clos(&ClosParams::default());
//! let fibs = simulate(&topology, &SimConfig::healthy());
//!
//! // Intent is derived from architecture, not from network state.
//! let meta = MetadataService::from_topology(&topology);
//!
//! // Local validation: every device independently.
//! let validator = Validator::new(&meta).engine(EngineChoice::Trie).build();
//! let report = validator.run(&fibs);
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod render;
pub mod serve;
mod verbs;

pub use bgpsim;
pub use dctopo;
pub use netprim;
pub use obskit;
pub use rcdc;
pub use secguru;
pub use smtkit;

/// Commonly used items, for `use validatedc::prelude::*`.
pub mod prelude {
    pub use bgpsim::{simulate, simulate_with, DeviceOverride, Fib, FibBuilder, SimConfig, SimOptions};
    pub use dctopo::generator::figure3;
    pub use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService, Role, Topology};
    pub use netprim::{HeaderSpace, HeaderTuple, IpRange, Ipv4, PortRange, Prefix, Protocol};
    pub use obskit::{MetricsSnapshot, Observer, Registry};
    pub use rcdc::classify::{classify_device, Classification, RootCause};
    pub use rcdc::contracts::generate_contracts;
    pub use rcdc::engine::{smt::SmtEngine, trie::TrieEngine, Engine};
    pub use rcdc::report::{risk_of, Risk, ValidationReport, Violation};
    pub use rcdc::rollout::{
        seeded_scenario, ConfigChange, ManagedNetwork, OrderCheck, PlanOptions, PlanReport,
        PlanStep, PlanVerdict, Prechecker, PrecheckReport, RolloutPlanner, RolloutScenario,
        UnsafePrefix, WorkflowOutcome,
    };
    pub use rcdc::runner::{DatacenterReport, EngineChoice};
    pub use rcdc::service::{IngestEvent, ServiceHandle, ValidationService};
    pub use rcdc::shard::ShardRouter;
    pub use rcdc::validator::{Validator, ValidatorBuilder};
    pub use rcdc::whatif::{
        FailCondition, FailureElement, RobustnessVerdict, SweepOptions, SweepReport, WhatIfSweeper,
    };
    pub use secguru::engine::{IntervalEngine, SecGuru};
    pub use secguru::model::{Action, Contract, Convention, Policy, Rule};
    pub use secguru::parser::{parse_acl, parse_nsg};
}
