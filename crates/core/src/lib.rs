//! # rcdc — Reality Checker for Data Centers
//!
//! The paper's primary contribution: validation of datacenter
//! forwarding state against automatically derived intent, using
//! **local, per-device contracts** instead of global snapshots.
//!
//! The pipeline, mirroring §2 of the paper:
//!
//! 1. **Intent extraction** ([`contracts`]): from the metadata service's
//!    architectural facts, generate every device's default and specific
//!    forwarding contracts (§2.4.1–§2.4.3). Contracts are derived from
//!    the *expected* topology and never change with network state.
//! 2. **Verification engines** ([`engine`]): check one device's FIB
//!    against its contracts, with two interchangeable backends — the
//!    bit-vector SMT encoding of §2.5.1 and the specialized hash-trie
//!    algorithm of §2.5.2 ("much faster" for the common workload, a
//!    claim benchmark E1 reproduces). After a small change — one
//!    [`bgpsim::FibPatch`] — an engine re-checks only the contracts the
//!    patched prefixes can affect ([`DeviceContracts::affected`], the
//!    one affectedness test) and splices them into the prior report:
//!    [`Engine::validate_delta`] for a caller holding the new table,
//!    [`Engine::validate_patch`] for one holding the old, which the
//!    trie engine judges without building the new table.
//! 3. **Reports, severity, classification** ([`report`], [`classify`]):
//!    violations are ranked by risk (§2.6.4) and correlated with
//!    operational metadata to recover the §2.6.2 root causes.
//! 4. **Datacenter runner** ([`runner`], [`validator`]): validates
//!    every device independently — the embarrassingly parallel
//!    structure that local validation buys (§2.4). The [`Validator`]
//!    facade is the entry point; a batch pass checks every device.
//! 5. **Live monitoring** ([`service`]): the §2.6.1 microservice
//!    architecture — contract generator, FIB puller, validator workers,
//!    stream-analytics sink — as one in-process sharded service. The
//!    device space is partitioned across shard-local stores
//!    ([`shard`]), each one record per device behind one lock:
//!    contracts, parked table, verdict. Each shard's worker is the
//!    pull → ingest → judge loop over its store, whose
//!    [`judge`](pipeline::DeviceStore::judge) method is the
//!    pipeline's one step (cache hit / incremental / full), fed by a
//!    bounded ingest queue with back-pressure, while a
//!    [`ServiceHandle`] answers verdict and alert queries
//!    concurrently. A one-shot sweep is the same service driven once:
//!    `pull_all`, `drain`, read the handle.
//! 6. **Triage** ([`triage`]): the automated remediation-queue routing
//!    of §2.6.4 — classified errors land in per-action queues drained
//!    high-risk first.
//! 7. **Ops simulation** ([`burndown`]): the prioritized remediation
//!    process whose output is the paper's Figure 6 burndown graph.
//! 8. **K-failure robustness sweeps** ([`whatif`]): enumerate failure
//!    scenarios over the fabric — exhaustive at k ≤ 2, sampled beyond
//!    — and answer with a `Robust(k)` certificate or a ddmin-minimal
//!    counterexample ([`shrink`]).
//! 9. **Change pre-checks and rollout planning** ([`rollout`]): the
//!    §2.7 emulator pre-check ([`Prechecker`]) and a Snowcap-style
//!    ordering search ([`RolloutPlanner`]) that finds a sequence of
//!    per-device changes whose every intermediate fixed point
//!    satisfies the contracts — or a ddmin-minimal unsafe subset when
//!    none does.
//!
//! Items 8 and 9 are two search policies over one crate-private
//! state-evaluation core (`explore`): a converged, validated anchor;
//! a fixed-point restart per fault set that returns, per device whose
//! FIB changed, the handful of rules that differ, and revalidates each
//! as `(anchor table, patch)` through [`Engine::validate_patch`] — no
//! per-state table, hash or memo, so a state costs what its touched
//! rules cost; and one judge of which violations count.
//!
//! What *states* the paper's claims — §2.4.5's obligations, the global
//! all-pairs checker behind Claim 1 and E8 — is `difftest::reference`,
//! beside the other oracles, not this library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burndown;
pub mod classify;
pub mod clock;
pub mod contracts;
pub mod engine;
mod explore;
pub mod pipeline;
pub mod report;
pub mod rollout;
pub mod runner;
pub mod service;
pub mod shard;
pub mod shrink;
pub mod triage;
pub mod validator;
pub mod whatif;

pub use clock::{Clock, RealClock, VirtualClock};
pub use contracts::{generate_contracts, Contract, ContractKind, DeviceContracts};
pub use engine::{smt::SmtEngine, trie::TrieEngine, Engine, ObservedEngine};
pub use report::{Risk, ValidationReport, Violation, ViolationReason};
pub use rollout::{
    seeded_scenario, ConfigChange, ManagedNetwork, OrderCheck, PlanOptions, PlanReport, PlanStep,
    PlanVerdict, Prechecker, PrecheckReport, RolloutPlanner, RolloutScenario, UnsafePrefix,
    WorkflowOutcome,
};
pub use runner::{DatacenterReport, EngineChoice, PassMetrics};
pub use service::{IngestEvent, ServiceHandle, ValidationService};
pub use shard::{ShardRouter, ShardStores};
pub use validator::{Validator, ValidatorBuilder};
pub use whatif::{
    Counterexample, FailCondition, FailureElement, RobustnessVerdict, ScenarioCheck, SweepOptions,
    SweepReport, WhatIfSweeper,
};
