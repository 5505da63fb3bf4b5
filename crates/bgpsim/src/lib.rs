//! # bgpsim — EBGP route propagation for Clos datacenters
//!
//! RCDC consumes FIBs; this crate produces them, the way the paper's
//! network does (§2.1–§2.2): every device runs EBGP over point-to-point
//! links, ToRs originate their VLAN prefixes, regional spines originate
//! the default route, nothing is aggregated, and ECMP spreads traffic
//! over all equal-length best paths.
//!
//! The simulation exploits a property of path-vector routing that the
//! paper's own simulator reference \[31\] leans on: with no aggregation,
//! **prefixes propagate independently**, so convergence can be computed
//! one prefix at a time as a monotone shortest-AS-path relaxation with
//! BGP loop prevention. The ASN allocation scheme (shared spine ASN,
//! per-cluster leaf ASN, reused ToR ASNs) is what confines routes to
//! valley-free up/down paths — no explicit policy is needed, exactly as
//! in Azure's design. ToR sessions use allowas-in so prefixes of
//! same-numbered ToRs in other clusters are accepted (§2.1).
//!
//! [`config`] injects every failure mode of the paper's §2.6.2 error
//! taxonomy: RIB→FIB inconsistency, layer-2 port bugs, hardware link
//! failures, administrative drift, migration ASN collisions, route-map
//! misconfigurations, and ECMP misconfigurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fib;
pub mod restart;
pub mod route;
pub mod sim;

pub use config::{DeviceOverride, SimConfig};
pub use fib::{Fib, FibBuilder, FibEntry, FibPatch, PatchOp};
pub use restart::{Baseline, FaultSpec, RestartStats, ScenarioFibs, ScenarioPatches};
pub use sim::{simulate, simulate_with, SimOptions, SimStats};
