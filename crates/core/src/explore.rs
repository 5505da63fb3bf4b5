//! Incremental state evaluation: the one machine under the what-if
//! sweeper and the rollout planner.
//!
//! Both [`crate::whatif`] (k-failure sweeps) and [`crate::rollout`]
//! (change-ordering search) ask the same question of many perturbed
//! fabrics: "which contracts break in *this* state?" They differ only
//! in which states they visit. Everything else lives here, once:
//!
//! * an [`Anchor`] is a converged routing fixed point with every
//!   device validated — [`Explorer::converge`] is the only place one is
//!   built. Its tables go through the explorer's one verdict-reuse
//!   policy (`reuse_verdicts`, also behind the planner's final-state
//!   pass): the root's verdict for every table whose content hash did
//!   not move, the caller's `(device, fib hash)` [`VerdictMemo`] for the
//!   rest, where a hit saves a whole-table validation;
//! * [`Explorer::restart`] prices a fault set from an anchor: the
//!   fixed point is restarted ([`Baseline::restart`]), only the devices
//!   whose FIBs changed come back, each as the *patch* — the handful of
//!   rules — its table differs by, and each is revalidated as
//!   `(anchor table, patch)` against its anchor report
//!   ([`Engine::validate_patch`], clean or not). No faulted table is
//!   built, hashed or memoized: a state costs what its touched rules
//!   cost;
//! * a [`Judge`] reads the resulting reports against a
//!   [`FailCondition`], and a [`Tally`] turns "which devices changed"
//!   into the fabric-wide count by subtracting the anchor's share and
//!   adding the new one;
//! * [`cold`] is the from-scratch reference path (simulate, validate
//!   everything) behind the §2.7 pre-checker.
//!
//! The explorers are search policies over this module: they lower
//! their own vocabulary (failure elements, configuration changes) to a
//! topology + config for `converge` and a [`FaultSpec`] for `restart`,
//! and keep only enumeration, ordering and pruning to themselves.

use crate::contracts::DeviceContracts;
use crate::engine::Engine;
use crate::report::{risk_of, Risk, ValidationReport, Violation, ViolationReason};
use crate::runner::{run_pass, validate_jobs, DatacenterReport};
use bgpsim::restart::{Baseline, FaultSpec, RestartStats};
use bgpsim::{simulate, Fib, SimConfig};
use dctopo::{DeviceId, MetadataService, Topology};
use obskit::{Counter, Histogram, Registry};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};

/// Cross-anchor verdict memo: validation is pure in the FIB bytes and
/// the contract set, so `(device, fib content hash)` fully determines
/// the report no matter which change context produced the table — the
/// same argument that makes the pipeline's `(fib_hash, epoch)`
/// verdict key sound. Consulted only where anchors are
/// converged, which hash every table anyway; restarted states are
/// cheaper to judge than to fingerprint.
pub(crate) type VerdictMemo = RwLock<HashMap<(u32, u64), ValidationReport>>;

/// What makes a state count as a failure of the fabric.
///
/// Contracts are derived from the *expected* topology, so almost any
/// physical failure leaves some contract unsatisfied (a dead link
/// shrinks an ECMP set somewhere). The policy picks which violations
/// disqualify a state, which is what makes `Robust(k)` — and "every
/// intermediate rollout state is safe" — a meaningful certificate
/// rather than a tautology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCondition {
    /// Any violation at all (the strictest reading).
    AnyViolation,
    /// Any violation at or above this risk rank (§2.6.4), judged
    /// against the metadata service.
    AtLeast(Risk),
    /// Traffic is actually lost: a device misses its default route
    /// (the last-resort path out), so packets to unknown destinations
    /// blackhole instead of detouring.
    Blackhole,
}

impl std::str::FromStr for FailCondition {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "any" => Ok(FailCondition::AnyViolation),
            "blackhole" => Ok(FailCondition::Blackhole),
            "low" => Ok(FailCondition::AtLeast(Risk::Low)),
            "medium" => Ok(FailCondition::AtLeast(Risk::Medium)),
            "high" => Ok(FailCondition::AtLeast(Risk::High)),
            other => Err(format!(
                "unknown fail condition {other:?} (expected any|low|medium|high|blackhole)"
            )),
        }
    }
}

impl std::fmt::Display for FailCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailCondition::AnyViolation => write!(f, "any"),
            FailCondition::AtLeast(Risk::Low) => write!(f, "low"),
            FailCondition::AtLeast(Risk::Medium) => write!(f, "medium"),
            FailCondition::AtLeast(Risk::High) => write!(f, "high"),
            FailCondition::Blackhole => write!(f, "blackhole"),
        }
    }
}

/// A [`FailCondition`] resolved against the metadata it needs, so the
/// per-violation test cannot fail.
enum Test<'a> {
    Any,
    Blackhole,
    AtLeast(Risk, &'a MetadataService),
}

/// Reads validation reports against one condition: a violation
/// *offends* when it matches the condition and is not in the allowed
/// set. The sweeper allows nothing (every matching violation counts);
/// the planner allows what production and, optionally, the final state
/// already show (only violations transient to the rollout count).
pub(crate) struct Judge<'a> {
    test: Test<'a>,
    allowed: HashSet<Violation>,
}

impl<'a> Judge<'a> {
    /// Resolve `condition`. Risk-ranked conditions need the metadata
    /// service; asking for one without it is the caller's
    /// configuration error and is reported here, before any state is
    /// evaluated, rather than at the first violation judged.
    pub(crate) fn new(
        condition: FailCondition,
        meta: Option<&'a MetadataService>,
        allowed: HashSet<Violation>,
    ) -> Result<Judge<'a>, String> {
        let test = match (condition, meta) {
            (FailCondition::AnyViolation, _) => Test::Any,
            (FailCondition::Blackhole, _) => Test::Blackhole,
            (FailCondition::AtLeast(min), Some(meta)) => Test::AtLeast(min, meta),
            (FailCondition::AtLeast(_), None) => {
                return Err(
                    "risk-ranked fail conditions require metadata: construct the \
                            explorer via Validator::new(&meta) or attach it with .metadata(&meta)"
                        .to_string(),
                )
            }
        };
        Ok(Judge { test, allowed })
    }

    /// The offending violations of one report, in report order.
    pub(crate) fn offending<'r>(
        &'r self,
        report: &'r ValidationReport,
    ) -> impl Iterator<Item = &'r Violation> {
        report.violations.iter().filter(move |v| {
            let matches = match self.test {
                Test::Any => true,
                Test::Blackhole => matches!(v.reason, ViolationReason::MissingDefault),
                Test::AtLeast(min, meta) => risk_of(v, meta) >= min,
            };
            matches && !self.allowed.contains(v)
        })
    }

    /// How many violations of `report` offend.
    pub(crate) fn count(&self, report: &ValidationReport) -> usize {
        self.offending(report).count()
    }
}

/// One anchor's offending-violation counts under one [`Judge`],
/// computed once so that judging a restarted state touches only the
/// devices that changed.
pub(crate) struct Tally {
    per_device: Vec<u32>,
    /// Offending violations across the whole anchor.
    pub(crate) total: usize,
}

impl Tally {
    /// Count every device report of an anchor.
    pub(crate) fn of(judge: &Judge, reports: &[ValidationReport]) -> Tally {
        let per_device: Vec<u32> = reports.iter().map(|r| judge.count(r) as u32).collect();
        let total = per_device.iter().map(|&c| c as usize).sum();
        Tally { per_device, total }
    }

    /// The fabric-wide count once `changed` replaces the anchor's
    /// reports for those devices: subtract each changed device's old
    /// share, add its new one.
    pub(crate) fn spliced(&self, judge: &Judge, changed: &[(DeviceId, ValidationReport)]) -> usize {
        changed.iter().fold(self.total, |total, (d, report)| {
            total - self.per_device[d.0 as usize] as usize + judge.count(report)
        })
    }
}

/// The four metric families both explorers export, under the
/// explorer's own prefix (`rcdc_whatif_*`, `rcdc_rollout_*`).
pub(crate) struct ExploreMetrics {
    ok: Counter,
    bad: Counter,
    latency: Histogram,
    revalidated: Counter,
    reused: Counter,
}

impl ExploreMetrics {
    /// Resolve the families for `explorer` (`"whatif"` or `"rollout"`).
    /// The sweeper's unit of work is a scenario that passes or fails,
    /// the planner's a state that is safe or unsafe; the families are
    /// otherwise the same.
    pub(crate) fn new(registry: &Registry, explorer: &str) -> ExploreMetrics {
        let (unit, ok, bad) = match explorer {
            "whatif" => ("scenario", "pass", "fail"),
            _ => ("state", "safe", "unsafe"),
        };
        let outcome = |o| {
            registry.counter(
                &format!("rcdc_{explorer}_{unit}s_total"),
                &format!("{unit}s evaluated, by outcome"),
                &[("outcome", o)],
            )
        };
        ExploreMetrics {
            ok: outcome(ok),
            bad: outcome(bad),
            latency: registry.histogram(
                &format!("rcdc_{explorer}_{unit}_latency_ns"),
                &format!("per-{unit} incremental evaluation latency in nanoseconds"),
                &[],
            ),
            revalidated: registry.counter(
                &format!("rcdc_{explorer}_devices_revalidated_total"),
                "per-device delta validations performed",
                &[],
            ),
            reused: registry.counter(
                &format!("rcdc_{explorer}_verdicts_reused_total"),
                "per-device verdicts reused while converging anchors",
                &[],
            ),
        }
    }
}

/// A converged fixed point with every device validated: what fault
/// sets restart from and what their changed devices are judged
/// against.
pub(crate) struct Anchor {
    /// The converged routing solution, ready to answer fault sets.
    pub(crate) baseline: Baseline,
    /// Per-device validation reports of the converged tables.
    pub(crate) reports: Vec<ValidationReport>,
    /// Per-device FIB content hashes, indexed like `reports`.
    pub(crate) hashes: Vec<u64>,
    /// Devices the engine validated while building this anchor; the
    /// rest were answered by the root-hash or memo shortcut.
    pub(crate) revalidated: usize,
}

/// What one [`Explorer::restart`] found: only the devices whose FIBs
/// differ from the anchor's, each revalidated, with their new reports,
/// and the work it took.
#[derive(Default)]
pub(crate) struct StateDelta {
    /// Changed devices and their new reports, ascending by device id.
    pub(crate) changed: Vec<(DeviceId, ValidationReport)>,
    /// Fixed-point restart work counters.
    pub(crate) stats: RestartStats,
}

/// Running totals over the states an exploration evaluated — the
/// counters both explorers report.
#[derive(Default)]
pub(crate) struct Totals {
    /// States evaluated.
    pub(crate) states: usize,
    /// Per-device validations performed.
    pub(crate) revalidated: usize,
    /// Per-device verdicts reused while converging anchors (a
    /// restarted state revalidates every device it changes).
    pub(crate) reused: usize,
    /// Summed restart work counters.
    pub(crate) restart: RestartStats,
}

impl Totals {
    /// Account for one evaluated state.
    pub(crate) fn add(&mut self, delta: &StateDelta) {
        self.states += 1;
        self.revalidated += delta.changed.len();
        self.restart.absorb(&delta.stats);
    }

    /// Fold in another worker's totals.
    pub(crate) fn merge(&mut self, other: &Totals) {
        self.states += other.states;
        self.revalidated += other.revalidated;
        self.reused += other.reused;
        self.restart.absorb(&other.restart);
    }
}

/// The explorer's one verdict-reuse policy: hash each table, take
/// `root`'s verdict where the hash matches and `memo`'s where it holds
/// one, validate the rest and add their verdicts to `memo`. Returns
/// every device's report and table hash, and how many devices the
/// engine validated.
fn reuse_verdicts(
    engine: &(dyn Engine + Sync),
    threads: usize,
    contracts: &[DeviceContracts],
    root: Option<&Anchor>,
    memo: Option<&VerdictMemo>,
    fibs: &[Fib],
) -> (Vec<ValidationReport>, Vec<u64>, usize) {
    let hashes: Vec<u64> = fibs.iter().map(Fib::content_hash).collect();
    let mut reports = vec![ValidationReport::default(); fibs.len()];
    let mut todo: Vec<usize> = Vec::new();
    for (du, &h) in hashes.iter().enumerate() {
        let known = match root {
            Some(root) if root.hashes[du] == h => Some(root.reports[du].clone()),
            _ => memo.and_then(|m| m.read().get(&(du as u32, h)).cloned()),
        };
        match known {
            Some(report) => reports[du] = report,
            None => todo.push(du),
        }
    }
    let jobs: Vec<(&Fib, &DeviceContracts)> =
        todo.iter().map(|&du| (&fibs[du], &contracts[du])).collect();
    let fresh = validate_jobs(engine, threads, &jobs);
    let mut memo = memo.map(|m| m.write());
    for (&du, report) in todo.iter().zip(fresh) {
        if let Some(memo) = memo.as_mut() {
            memo.insert((du as u32, hashes[du]), report.clone());
        }
        reports[du] = report;
    }
    (reports, hashes, todo.len())
}

/// Converge a network into an [`Anchor`], its tables judged by
/// [`reuse_verdicts`].
fn converge_anchor(
    engine: &(dyn Engine + Sync),
    threads: usize,
    contracts: &[DeviceContracts],
    root: Option<&Anchor>,
    memo: Option<&VerdictMemo>,
    topology: &Topology,
    config: &SimConfig,
) -> Anchor {
    let baseline = Baseline::converge(topology, config);
    let (reports, hashes, revalidated) =
        reuse_verdicts(engine, threads, contracts, root, memo, baseline.healthy_fibs());
    Anchor {
        baseline,
        reports,
        hashes,
        revalidated,
    }
}

/// From-scratch evaluation of one network state: simulate the control
/// plane to its fixed point and validate every device. The reference
/// the incremental path is tested against, and the §2.7 pre-check.
pub(crate) fn cold(
    engine: &(dyn Engine + Sync),
    threads: usize,
    contracts: &[DeviceContracts],
    topology: &Topology,
    config: &SimConfig,
) -> DatacenterReport {
    run_pass(engine, threads, &simulate(topology, config), contracts, None)
}

/// The state-evaluation core: a validated root [`Anchor`] plus what it
/// takes to evaluate perturbed states against the same contracts with
/// the same engine.
pub(crate) struct Explorer {
    root: Anchor,
    contracts: Vec<DeviceContracts>,
    engine: Box<dyn Engine + Sync>,
    threads: usize,
    meta: Option<MetadataService>,
    metrics: Option<ExploreMetrics>,
}

impl Explorer {
    /// Converge and validate `topology` under `config` as the root
    /// anchor.
    pub(crate) fn new(
        topology: &Topology,
        config: &SimConfig,
        contracts: Vec<DeviceContracts>,
        engine: Box<dyn Engine + Sync>,
        threads: usize,
        meta: Option<MetadataService>,
        metrics: Option<ExploreMetrics>,
    ) -> Explorer {
        let root = converge_anchor(
            engine.as_ref(),
            threads,
            &contracts,
            None,
            None,
            topology,
            config,
        );
        Explorer {
            root,
            contracts,
            engine,
            threads,
            meta,
            metrics,
        }
    }

    /// The root anchor.
    pub(crate) fn root(&self) -> &Anchor {
        &self.root
    }

    /// The contract sets being validated against (indexed by device).
    pub(crate) fn contracts(&self) -> &[DeviceContracts] {
        &self.contracts
    }

    /// `requested` worker threads, or the configured count when 0.
    pub(crate) fn threads_or(&self, requested: usize) -> usize {
        if requested > 0 {
            requested
        } else {
            self.threads.max(1)
        }
    }

    /// A judge for `condition` over this explorer's metadata.
    pub(crate) fn judge(
        &self,
        condition: FailCondition,
        allowed: HashSet<Violation>,
    ) -> Result<Judge<'_>, String> {
        Judge::new(condition, self.meta.as_ref(), allowed)
    }

    /// Count one judged state in the outcome family.
    pub(crate) fn record_outcome(&self, fails: bool) {
        if let Some(m) = &self.metrics {
            if fails { &m.bad } else { &m.ok }.inc();
        }
    }

    /// Converge another network over the same devices into an anchor.
    /// Tables equal to the root's keep the root's verdicts; with a
    /// memo, tables seen in earlier anchors keep theirs.
    pub(crate) fn converge(
        &self,
        topology: &Topology,
        config: &SimConfig,
        memo: Option<&VerdictMemo>,
    ) -> Anchor {
        let anchor = converge_anchor(
            self.engine.as_ref(),
            self.threads,
            &self.contracts,
            Some(&self.root),
            memo,
            topology,
            config,
        );
        if let Some(m) = &self.metrics {
            m.reused.add((anchor.reports.len() - anchor.revalidated) as u64);
        }
        anchor
    }

    /// Judge another set of tables over the same devices by
    /// [`reuse_verdicts`] against the root and `memo`, on `threads`
    /// workers. Nothing is counted as explored work.
    pub(crate) fn validate(
        &self,
        fibs: &[Fib],
        threads: usize,
        memo: &VerdictMemo,
    ) -> Vec<ValidationReport> {
        let engine = self.engine.as_ref();
        let root = Some(&self.root);
        reuse_verdicts(engine, threads, &self.contracts, root, Some(memo), fibs).0
    }

    /// Evaluate `fault` from `anchor`: restart the fixed point and
    /// revalidate exactly the devices whose FIBs changed, each as its
    /// anchor table plus the rules that differ, against its anchor
    /// report. No table is built, hashed or remembered: the work is
    /// proportional to the rules the fault moved. The empty fault set
    /// is the anchor itself.
    pub(crate) fn restart(&self, anchor: &Anchor, fault: &FaultSpec) -> StateDelta {
        if fault.is_empty() {
            return StateDelta::default();
        }
        let _timer = self.metrics.as_ref().map(|m| m.latency.start_timer());
        let out = anchor.baseline.restart(fault);
        let tables = anchor.baseline.healthy_fibs();
        let changed: Vec<(DeviceId, ValidationReport)> = (out.changed.iter())
            .map(|(d, patch)| {
                let du = d.0 as usize;
                let (contracts, prior) = (&self.contracts[du], &anchor.reports[du]);
                let report = self.engine.validate_patch(&tables[du], patch, contracts, prior);
                (*d, report)
            })
            .collect();
        if let Some(m) = &self.metrics {
            m.revalidated.add(changed.len() as u64);
        }
        StateDelta {
            changed,
            stats: out.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::{ConfigChange, ManagedNetwork, PlanOptions};
    use crate::validator::Validator;
    use crate::engine::testutil::{Calls, Counting};
    use crate::whatif::{SweepOptions, WhatIfSweeper};
    use crate::TrieEngine;
    use dctopo::generator::figure3;
    use dctopo::LinkState;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn restarted_states_reach_the_engine_as_patches_only() {
        // Every equivalence suite passes just as well if a state's
        // tables are built and handed over whole — through a forwarder
        // that forgets `validate_patch`, or a `restart` that calls the
        // wrong primitive. Only the call counts tell.
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let calls = Arc::new(Calls::default());
        let explorer = Explorer::new(
            &f.topology,
            &SimConfig::healthy(),
            crate::generate_contracts(&meta),
            Box::new(Counting(TrieEngine::new(), calls.clone())),
            1,
            Some(meta),
            None,
        );
        let anchored = calls.device.load(Ordering::Relaxed);
        assert_eq!(anchored, f.topology.len(), "the root anchor validates every table");
        let report = WhatIfSweeper::new(explorer, None).sweep(&SweepOptions {
            k: 1,
            exhaustive: true,
            condition: FailCondition::Blackhole,
            ..SweepOptions::default()
        });
        assert!(report.devices_revalidated > 0);
        // Figure 3 blackholes at k=1: the one-failure counterexample is
        // evaluated once more to be reported (ddmin's only probe of it
        // is the empty fault, which reaches no engine).
        let reported = match &report.verdict {
            crate::whatif::RobustnessVerdict::Counterexample(c) => c.changed_devices,
            v => panic!("figure 3 leaves have single-homed defaults: {v}"),
        };
        assert_eq!(
            calls.patch.load(Ordering::Relaxed),
            report.devices_revalidated + reported
        );
        assert_eq!(calls.delta.load(Ordering::Relaxed), 0);
        assert_eq!(calls.device.load(Ordering::Relaxed), anchored);
    }

    #[test]
    fn both_explorers_export_the_shared_families_under_their_own_names() {
        // The family names are public surface (dashboards, the CLI's
        // `--metrics`); one handle struct now serves both explorers,
        // so pin every name, and tie the shared counters to the
        // reports they summarize.
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let registry = Registry::new();
        let sweeper = Validator::new(&meta)
            .metrics(&registry)
            .build_whatif(&f.topology, &SimConfig::healthy());
        let sweep = sweeper.sweep(&SweepOptions {
            k: 1,
            exhaustive: true,
            condition: FailCondition::Blackhole,
            ..SweepOptions::default()
        });
        // Every revalidation is one call into the engine's delta
        // primitive, including the ones that find nothing affected.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(
                "rcdc_engine_checks_total",
                &[("engine", "trie"), ("op", "delta")]
            ),
            snap.counter("rcdc_whatif_devices_revalidated_total", &[]),
        );
        let planner = Validator::new(&meta)
            .metrics(&registry)
            .build_planner(&ManagedNetwork::new(f.topology.clone()));
        let shuts: Vec<ConfigChange> = [f.a[0], f.a[1]]
            .iter()
            .map(|&leaf| ConfigChange::SetLinkState {
                link: f.topology.link_between(f.tors[0], leaf).unwrap().id,
                state: LinkState::AdminShut,
            })
            .collect();
        let plan = planner.plan(&shuts, &PlanOptions::default()).unwrap();

        let snap = registry.snapshot();
        for family in [
            "rcdc_whatif_scenarios_total",
            "rcdc_whatif_scenario_latency_ns",
            "rcdc_whatif_devices_revalidated_total",
            "rcdc_whatif_verdicts_reused_total",
            "rcdc_whatif_delta_devices",
            "rcdc_rollout_states_total",
            "rcdc_rollout_state_latency_ns",
            "rcdc_rollout_devices_revalidated_total",
            "rcdc_rollout_verdicts_reused_total",
            "rcdc_rollout_backtracks_total",
            "rcdc_rollout_dead_prefix_hits_total",
            "rcdc_rollout_anchors_total",
        ] {
            assert!(snap.has_family(family), "missing {family}");
        }
        let count = |name: &str, outcome: &str| {
            snap.counter(name, &[("outcome", outcome)])
                .unwrap_or_else(|| panic!("{name}{{outcome={outcome}}} missing"))
        };
        // The sweep's level scenarios, plus ddmin's probes of the
        // first failing one.
        let scenarios = count("rcdc_whatif_scenarios_total", "pass")
            + count("rcdc_whatif_scenarios_total", "fail");
        assert!(scenarios >= sweep.scenarios_checked as u64);
        assert!(!sweep.failing.is_empty(), "figure 3 blackholes at k=1");
        assert!(count("rcdc_whatif_scenarios_total", "fail") >= sweep.failing.len() as u64);
        assert_eq!(
            count("rcdc_rollout_states_total", "safe")
                + count("rcdc_rollout_states_total", "unsafe"),
            plan.states_evaluated as u64
        );
        assert_eq!(
            snap.counter("rcdc_rollout_devices_revalidated_total", &[]),
            Some(plan.devices_revalidated as u64)
        );
    }
}
