//! The unified entry point for datacenter validation.
//!
//! [`Validator`] bundles contracts, engine backend and thread count
//! behind one builder. A batch [`run`](Validator::run) is a cold
//! sweep; the same builder starts the live service, which is where
//! verdicts for unchanged tables are reused:
//!
//! ```
//! use rcdc::{Validator, EngineChoice};
//! use dctopo::MetadataService;
//!
//! let f = dctopo::generator::figure3();
//! let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
//! let meta = MetadataService::from_topology(&f.topology);
//!
//! let validator = Validator::new(&meta)
//!     .engine(EngineChoice::Trie)
//!     .threads(8)
//!     .build();
//! let report = validator.run(&fibs);
//! assert!(report.is_clean());
//! assert_eq!(report.reports.len(), fibs.len());
//! ```

use crate::contracts::{generate_contracts, DeviceContracts};
use crate::engine::Engine;
use crate::explore::{ExploreMetrics, Explorer};
use crate::pipeline::SnapshotSource;
use crate::runner::{run_pass, DatacenterReport, EngineChoice, PassMetrics};
use crate::service::{ServiceConfig, ValidationService};
use bgpsim::Fib;
use dctopo::MetadataService;
use obskit::Registry;
use std::sync::Arc;

/// Configured datacenter validator. Build one with
/// [`Validator::new`] (contracts generated from metadata) or
/// [`Validator::with_contracts`] (pre-built contracts).
pub struct Validator {
    contracts: Vec<DeviceContracts>,
    engine: Box<dyn Engine + Sync>,
    choice: EngineChoice,
    threads: usize,
    metrics: Option<PassMetrics>,
}

/// Builder returned by [`Validator::new`] / [`Validator::with_contracts`]
/// — the single construction path for both batch passes
/// ([`build`](Self::build)) and the sharded monitoring service
/// ([`build_service`](Self::build_service)).
pub struct ValidatorBuilder {
    contracts: Vec<DeviceContracts>,
    engine: EngineChoice,
    threads: usize,
    shards: usize,
    ingest_capacity: usize,
    meta: Option<MetadataService>,
    clock: Option<Arc<dyn crate::Clock>>,
    registry: Option<Registry>,
}

impl ValidatorBuilder {
    /// Select the verification engine (default: [`EngineChoice::Trie`]).
    pub fn engine(mut self, choice: EngineChoice) -> Self {
        self.engine = choice;
        self
    }

    /// Worker threads; 0 or 1 = current thread only (default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Worker shards for [`build_service`](Self::build_service) — how
    /// many devices it pulls and validates at once (default 1). Batch
    /// [`build`](Self::build) passes ignore this.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Per-shard bounded ingest-queue capacity for
    /// [`build_service`](Self::build_service) (default 1024). Submits
    /// beyond a full queue block — the service's back-pressure seam.
    pub fn ingest_capacity(mut self, capacity: usize) -> Self {
        self.ingest_capacity = capacity.max(1);
        self
    }

    /// Attach the metadata service ([`Validator::new`] already does).
    /// [`build_service`](Self::build_service) requires it — the
    /// service's `alerts(risk)` query correlates verdicts against
    /// architectural metadata.
    pub fn metadata(mut self, meta: &MetadataService) -> Self {
        self.meta = Some(meta.clone());
        self
    }

    /// Drive service timestamps (notification→verdict latency, pull
    /// latency) from `clock` instead of the wall clock.
    pub fn clock(mut self, clock: Arc<dyn crate::Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Export pass metrics into `registry` (the `rcdc_pass_*`
    /// families). The registry is cheap to clone and shared — handles
    /// are resolved once at [`build`](Self::build), so the per-pass
    /// recording cost is a handful of atomic ops.
    pub fn metrics(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Instantiate the chosen engine. With a metrics registry attached
    /// it is wrapped in [`crate::engine::ObservedEngine`], so
    /// per-device checks also feed the `rcdc_engine_*` families.
    fn observed_engine(&self) -> Box<dyn Engine + Sync> {
        let engine = self.engine.instantiate();
        match &self.registry {
            Some(registry) => Box::new(crate::engine::ObservedEngine::new(engine, registry)),
            None => engine,
        }
    }

    /// Finish: instantiate the engine (observed when a metrics
    /// registry is attached).
    pub fn build(self) -> Validator {
        let engine = self.observed_engine();
        Validator {
            contracts: self.contracts,
            engine,
            choice: self.engine,
            threads: self.threads,
            metrics: self.registry.as_ref().map(PassMetrics::new),
        }
    }

    /// Finish the state-evaluation core both explorers search over:
    /// converge and validate `topology` under `config` as its root,
    /// against this builder's contracts and (observed) engine, with
    /// the shared explorer families under `rcdc_<family>_*`. Hands the
    /// registry back for the families only one explorer exports.
    fn build_explorer(
        self,
        topology: &dctopo::Topology,
        config: &bgpsim::SimConfig,
        family: &str,
    ) -> (Explorer, Option<Registry>) {
        let engine = self.observed_engine();
        let metrics = self
            .registry
            .as_ref()
            .map(|r| ExploreMetrics::new(r, family));
        let explorer = Explorer::new(
            topology,
            config,
            self.contracts,
            engine,
            self.threads,
            self.meta,
            metrics,
        );
        (explorer, self.registry)
    }

    /// Finish as a k-failure robustness sweeper ([`crate::whatif`]):
    /// converge the healthy routing baseline for `topology` under
    /// `config`, validate it once, and return a
    /// [`WhatIfSweeper`](crate::WhatIfSweeper) that evaluates failure
    /// scenarios incrementally — restarted fixed point, delta-only
    /// revalidation — against this builder's contracts and engine.
    /// With a metrics registry attached, scenario throughput, delta
    /// sizes, and per-scenario latency land in the `rcdc_whatif_*`
    /// families (and the engine is observed, as in
    /// [`build`](Self::build)).
    pub fn build_whatif(
        self,
        topology: &dctopo::Topology,
        config: &bgpsim::SimConfig,
    ) -> crate::WhatIfSweeper {
        let (explorer, registry) = self.build_explorer(topology, config, "whatif");
        crate::whatif::WhatIfSweeper::new(explorer, registry.as_ref())
    }

    /// Finish as a §2.7 change pre-checker ([`crate::Prechecker`]):
    /// the emulator pre-check and Figure-7 workflow over a clone of
    /// `production`, validating with this builder's contracts, engine,
    /// and thread count.
    pub fn build_precheck(self, production: &crate::ManagedNetwork) -> crate::Prechecker {
        let engine = self.observed_engine();
        crate::rollout::Prechecker::new(production.clone(), self.contracts, engine, self.threads)
    }

    /// Finish as a safe change-rollout planner
    /// ([`crate::RolloutPlanner`]): converge and validate the
    /// production baseline once, then search change orderings whose
    /// every intermediate fixed point satisfies the contracts —
    /// incrementally, via restart-patched fixed points and delta-only
    /// revalidation. With a metrics registry attached, state
    /// throughput, step-check latency, memo hits, and backtracks land
    /// in the `rcdc_rollout_*` families (and the engine is observed,
    /// as in [`build`](Self::build)).
    pub fn build_planner(self, production: &crate::ManagedNetwork) -> crate::RolloutPlanner {
        let (explorer, registry) =
            self.build_explorer(&production.topology, &production.config, "rollout");
        crate::rollout::RolloutPlanner::new(production.clone(), explorer, registry.as_ref())
    }

    /// Finish as a long-running [`ValidationService`]: the contracts
    /// are published across [`shards`](Self::shards) shard-local
    /// stores, one worker thread per shard starts draining its bounded
    /// ingest queue, and FIB snapshots are pulled from `source`.
    ///
    /// # Panics
    ///
    /// When no metadata service is attached — use [`Validator::new`]
    /// or [`metadata`](Self::metadata) before building the service.
    pub fn build_service(self, source: Arc<dyn SnapshotSource + Send + Sync>) -> ValidationService {
        let meta = self.meta.expect(
            "build_service requires metadata: construct via Validator::new(&meta) \
             or attach it with .metadata(&meta)",
        );
        ValidationService::start(
            ServiceConfig {
                shards: self.shards,
                ingest_capacity: self.ingest_capacity,
                engine: self.engine,
                meta,
                contracts: self.contracts,
                clock: self
                    .clock
                    .unwrap_or_else(|| Arc::new(crate::RealClock::new())),
            },
            source,
        )
    }
}

impl Validator {
    /// Start a builder with contracts generated from the metadata
    /// service (the §2.3 contract generator).
    // `new` deliberately returns the builder: construction always goes
    // through `.build()`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(meta: &MetadataService) -> ValidatorBuilder {
        Self::with_contracts(generate_contracts(meta)).metadata(meta)
    }

    /// Start a builder over pre-built contracts (indexed by device id,
    /// like [`generate_contracts`]'s output).
    pub fn with_contracts(contracts: Vec<DeviceContracts>) -> ValidatorBuilder {
        ValidatorBuilder {
            contracts,
            engine: EngineChoice::default(),
            threads: 0,
            shards: 1,
            ingest_capacity: 1024,
            meta: None,
            clock: None,
            registry: None,
        }
    }

    /// Cold pass: validate every device.
    pub fn run(&self, fibs: &[Fib]) -> DatacenterReport {
        run_pass(
            self.engine.as_ref(),
            self.threads,
            fibs,
            &self.contracts,
            self.metrics.as_ref(),
        )
    }

    /// The contracts being validated against, indexed by device id.
    pub fn contracts(&self) -> &[DeviceContracts] {
        &self.contracts
    }

    /// The configured engine backend.
    pub fn engine_choice(&self) -> EngineChoice {
        self.choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::fig3_healthy;
    use bgpsim::{simulate, SimConfig};
    use dctopo::{build_clos, ClosParams};

    #[test]
    fn builder_configures_engine_and_threads() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let v = Validator::new(&meta)
            .engine(EngineChoice::Smt)
            .threads(4)
            .build();
        assert_eq!(v.engine_choice(), EngineChoice::Smt);
        assert!(v.run(&fibs).is_clean());
    }

    #[test]
    fn medium_datacenter_end_to_end_clean() {
        let p = ClosParams::default();
        let t = build_clos(&p);
        let fibs = simulate(&t, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&t);
        let r = Validator::new(&meta).build().run(&fibs);
        assert!(r.is_clean());
        // 32 prefixes: ToRs check 32 contracts (own prefix skipped),
        // leaves and spines 33, regional spines none.
        let tors = (p.clusters * p.tors_per_cluster) as usize;
        let regionals = p.regional_spines as usize;
        assert_eq!(
            r.contracts_checked(),
            (t.devices().len() - regionals) * 33 - tors
        );
    }

}
