//! Safe change-rollout planning: find an ordering of configuration
//! changes whose *every intermediate state* satisfies the contracts.
//!
//! The paper's §2.7 pre-deployment check validates one candidate
//! configuration as a whole; the operational risk it leaves open is
//! *ordering*. A migration that is safe end-to-end can still blackhole
//! traffic halfway through — shut both old uplinks before the new ones
//! come up and the ToR has no default route until the rollout
//! finishes. Snowcap (SIGCOMM 2021) frames this as a search over
//! per-device reconfiguration sequences; Plankton shows the search
//! scales when each explored state is checked *incrementally* rather
//! than rebuilt. The incremental check is `crate::explore`'s — the
//! same anchor / restart / memo / judge machine the what-if sweeps run
//! on; what this module owns is the *search policy* over it:
//!
//! * Changes are absolute-state writes to **distinct targets** (a
//!   classification error otherwise), so they commute: the network
//!   state after applying a subset is a function of the *set*, not the
//!   order. The search therefore explores subsets (`u128` masks), not
//!   sequences — a plan is a path through the subset lattice.
//! * Each subset is lowered to the explorer's two inputs: its
//!   *general* part (link bring-ups, override edits — anything a
//!   fixed-point restart cannot patch) is a network to converge into
//!   an anchor, its *fault* part (links going down) a fault set to
//!   restart from that anchor. Anchors never bake faults in, so one
//!   anchor serves every fault combination above it — and ddmin can
//!   evaluate *arbitrary* subsets, not just search prefixes.
//! * One verdict memo spans the anchors a search converges (seeded
//!   with the final state's verdicts), so a table validated for one
//!   anchor is not validated again for another. Restarted states are
//!   judged as rule patches against their anchor and never hashed.
//!
//! A state is *safe* when every condition-matching violation in it is
//! **allowed** — present in the production baseline (pre-existing
//! conditions are not the rollout's fault) or in the final state (the
//! operator asked for that state; see
//! [`PlanOptions::accept_final`]). The driver is a deterministic DFS:
//! candidates in ascending index order, fault-shaped candidates of a
//! frontier pre-evaluated in parallel chunks, dead prefixes memoized,
//! backtracking bounded. When no safe ordering exists the planner
//! reports a ddmin-minimal unsafe change *set* ([`crate::shrink`]):
//! applying those changes together is unsafe no matter the order and
//! removing any one of them makes the remainder orderable.
//!
//! Build a planner with
//! [`ValidatorBuilder::build_planner`](crate::ValidatorBuilder::build_planner),
//! a plain §2.7 pre-checker with
//! [`build_precheck`](crate::ValidatorBuilder::build_precheck).

use crate::contracts::DeviceContracts;
use crate::engine::Engine;
use crate::explore::{
    self, Anchor, Explorer, FailCondition, Judge, StateDelta, Tally, Totals, VerdictMemo,
};
use crate::report::{ValidationReport, Violation};
use crate::runner::{DatacenterReport, EngineChoice};
use crate::shrink::shrink_list;
use bgpsim::restart::{FaultSpec, RestartStats};
use bgpsim::{simulate, DeviceOverride, SimConfig};
use dctopo::{DeviceId, LinkId, LinkState, Topology};
use obskit::Registry;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One configuration change under review — the shared change
/// vocabulary of the pre-checker and the rollout planner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConfigChange {
    /// Replace a device's configuration overrides (route maps, ECMP
    /// settings, ASN) — the §2.6.2 "policy error" and "migration"
    /// change classes.
    SetOverride {
        /// Target device.
        device: DeviceId,
        /// New override (use `DeviceOverride::default()` to clear).
        config: DeviceOverride,
    },
    /// Administratively change a link/session state (maintenance,
    /// lossy-link mitigation, decommissioning).
    SetLinkState {
        /// Target link.
        link: LinkId,
        /// New state.
        state: LinkState,
    },
}

impl ConfigChange {
    /// What the change writes to, as `(kind, id)`. Changes of one
    /// batch must have distinct targets — that is what makes them
    /// commute — so sorting by target puts a change *set* into one
    /// canonical sequence.
    fn target(&self) -> (&'static str, u32) {
        match self {
            ConfigChange::SetLinkState { link, .. } => ("link", link.0),
            ConfigChange::SetOverride { device, .. } => ("device", device.0),
        }
    }
}

/// The production network being managed: the model the emulator
/// clones, deployments mutate, and rollout plans step through.
#[derive(Clone)]
pub struct ManagedNetwork {
    /// Physical topology, including current link states.
    pub topology: Topology,
    /// Device configuration overrides currently in production.
    pub config: SimConfig,
}

impl ManagedNetwork {
    /// A healthy network over a topology.
    pub fn new(topology: Topology) -> ManagedNetwork {
        ManagedNetwork {
            topology,
            config: SimConfig::healthy(),
        }
    }

    /// Apply a change in place (used for production deploys and on the
    /// emulator clone).
    pub fn apply(&mut self, change: &ConfigChange) {
        match change {
            ConfigChange::SetOverride { device, config } => {
                *self.config.device_mut(*device) = config.clone();
            }
            ConfigChange::SetLinkState { link, state } => {
                self.topology.set_link_state(*link, *state);
            }
        }
    }

    /// Converge the control plane and validate every device; returns
    /// all violations (the flattened datacenter report). Convenience
    /// over the default engine on the current thread; construct a
    /// [`Prechecker`] to pick the engine and thread count.
    pub fn validate(&self, contracts: &[DeviceContracts]) -> Vec<Violation> {
        let engine = EngineChoice::default().instantiate();
        violations(explore::cold(
            engine.as_ref(),
            0,
            contracts,
            &self.topology,
            &self.config,
        ))
    }
}

/// Every violation of a datacenter report, in device order.
fn violations(report: DatacenterReport) -> Vec<Violation> {
    report
        .reports
        .into_iter()
        .flat_map(|r| r.violations)
        .collect()
}

/// A seeded rollout-scenario shape, shared by the `validatedc plan`
/// subcommand, the difftest rollout oracle, and the perf ledger so
/// they all exercise the same operations the planner was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutScenario {
    /// Uplink migration: for each picked ToR, the "new" half of its
    /// uplinks is admin-shut in production; the change set shuts the
    /// "old" half and brings up the new half, listed in the naive
    /// submit order (all shuts first) — the order that blackholes the
    /// ToR mid-rollout and forces the planner to interleave.
    Migrate,
    /// Rack decommission: shut every uplink of each picked ToR. Safe
    /// in any order when the final state is accepted, minimally
    /// unsafe otherwise.
    Decommission,
}

impl std::str::FromStr for RolloutScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<RolloutScenario, String> {
        match s {
            "migrate" => Ok(RolloutScenario::Migrate),
            "decommission" => Ok(RolloutScenario::Decommission),
            other => Err(format!(
                "unknown scenario {other:?} (expected migrate|decommission)"
            )),
        }
    }
}

/// Build a seeded rollout scenario over `racks` distinct seed-chosen
/// ToRs of a topology: the production network (standby links already
/// shut for [`Migrate`](RolloutScenario::Migrate)) plus the change set
/// in naive submit order. `racks` is clamped to the available ToRs;
/// keep `racks × uplinks-per-ToR × 2` within the planner's 128-change
/// budget.
pub fn seeded_scenario(
    topology: &Topology,
    scenario: RolloutScenario,
    racks: usize,
    seed: u64,
) -> (ManagedNetwork, Vec<ConfigChange>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut tors: Vec<DeviceId> = topology
        .devices_with_role(dctopo::Role::Tor)
        .map(|d| d.id)
        .collect();
    let n = racks.clamp(1, tors.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let j = rng.gen_range(i..tors.len());
        tors.swap(i, j);
    }
    let mut net = ManagedNetwork::new(topology.clone());
    let mut shuts = Vec::new();
    let mut ups = Vec::new();
    for &tor in &tors[..n] {
        let uplinks: Vec<LinkId> = net.topology.links_of(tor).map(|l| l.id).collect();
        let standby_from = match scenario {
            // Decommission touches every uplink; migration splits them
            // into an "old" (shut) and a "new" (bring-up) half.
            RolloutScenario::Decommission => uplinks.len(),
            RolloutScenario::Migrate => uplinks.len().div_ceil(2),
        };
        for &link in &uplinks[..standby_from] {
            shuts.push(ConfigChange::SetLinkState {
                link,
                state: LinkState::AdminShut,
            });
        }
        for &link in &uplinks[standby_from..] {
            net.topology.set_link_state(link, LinkState::AdminShut);
            ups.push(ConfigChange::SetLinkState {
                link,
                state: LinkState::Up,
            });
        }
    }
    shuts.extend(ups);
    (net, shuts)
}

/// Result of a pre-check run.
#[derive(Debug)]
pub struct PrecheckReport {
    /// Violations present before the change (pre-existing conditions
    /// are not the change's fault).
    pub baseline: Vec<Violation>,
    /// Violations present after the change, on the emulator.
    pub candidate: Vec<Violation>,
}

impl PrecheckReport {
    /// Violations introduced by the change: candidate minus baseline.
    pub fn regressions(&self) -> Vec<&Violation> {
        self.candidate
            .iter()
            .filter(|v| !self.baseline.contains(v))
            .collect()
    }

    /// Does the change pass (no new violations)?
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }
}

/// Outcome of the full Figure-7 workflow for one change set.
#[derive(Debug)]
pub enum WorkflowOutcome {
    /// Pre-check failed: the change never reached production.
    RejectedAtPrecheck(PrecheckReport),
    /// Deployed; post-validation green.
    Deployed,
    /// Deployed, post-validation regressed (e.g. emulator/production
    /// divergence injected in tests), change rolled back.
    RolledBack {
        /// The violations seen post-deployment.
        regressions: Vec<Violation>,
    },
}

/// The §2.7 emulator pre-check and Figure-7 change workflow over one
/// production network. Build with
/// [`ValidatorBuilder::build_precheck`](crate::ValidatorBuilder::build_precheck).
pub struct Prechecker {
    production: ManagedNetwork,
    contracts: Vec<DeviceContracts>,
    engine: Box<dyn Engine + Sync>,
    threads: usize,
}

impl Prechecker {
    pub(crate) fn new(
        production: ManagedNetwork,
        contracts: Vec<DeviceContracts>,
        engine: Box<dyn Engine + Sync>,
        threads: usize,
    ) -> Prechecker {
        Prechecker {
            production,
            contracts,
            engine,
            threads,
        }
    }

    /// The production network (mutated only by successful
    /// [`submit`](Self::submit) deploys).
    pub fn production(&self) -> &ManagedNetwork {
        &self.production
    }

    /// Converge and validate a network with this checker's engine and
    /// thread count; returns the flattened violation list.
    pub fn validate(&self, network: &ManagedNetwork) -> Vec<Violation> {
        violations(explore::cold(
            self.engine.as_ref(),
            self.threads,
            &self.contracts,
            &network.topology,
            &network.config,
        ))
    }

    /// Run the emulator pre-check for a change set: clone production,
    /// apply, converge, compare against the baseline validation.
    pub fn precheck(&self, changes: &[ConfigChange]) -> PrecheckReport {
        let baseline = self.validate(&self.production);
        let mut emulated = self.production.clone();
        for c in changes {
            emulated.apply(c);
        }
        let candidate = self.validate(&emulated);
        PrecheckReport {
            baseline,
            candidate,
        }
    }

    /// Run a change set through the Figure-7 workflow: pre-check →
    /// deploy → post-check → rollback on regression.
    pub fn submit(&mut self, changes: &[ConfigChange]) -> WorkflowOutcome {
        let pre = self.precheck(changes);
        if !pre.passed() {
            return WorkflowOutcome::RejectedAtPrecheck(pre);
        }
        // Deploy to production.
        let before = self.production.clone();
        for c in changes {
            self.production.apply(c);
        }
        // Post-check on the live network.
        let post = self.validate(&self.production);
        let regressions: Vec<Violation> = post
            .into_iter()
            .filter(|v| !pre.baseline.contains(v))
            .collect();
        if regressions.is_empty() {
            WorkflowOutcome::Deployed
        } else {
            self.production = before;
            WorkflowOutcome::RolledBack { regressions }
        }
    }
}

/// Rollout-search configuration.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// What makes an intermediate state unsafe (default: any new
    /// violation at all).
    pub condition: FailCondition,
    /// Treat the final state's violations as allowed (default). The
    /// operator asked for the end state — a decommission *ends* with
    /// fewer links — so only violations transient to intermediate
    /// steps should block the rollout. Disable to demand that every
    /// state, the last included, stays regression-free.
    pub accept_final: bool,
    /// Abort the search after this many backtracks (dead subsets); the
    /// report's [`search_exhausted`](PlanReport::search_exhausted)
    /// records whether the space was covered.
    pub max_backtracks: usize,
    /// Worker threads for frontier evaluation (0 = the planner's
    /// configured thread count). The emitted plan is identical at any
    /// thread count.
    pub threads: usize,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions {
            condition: FailCondition::AnyViolation,
            accept_final: true,
            max_backtracks: 4096,
            threads: 0,
        }
    }
}

/// One step of an emitted plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Index of the change in the submitted change list.
    pub index: usize,
    /// The change itself.
    pub change: ConfigChange,
}

/// Why no safe ordering exists: a minimal subset of the submitted
/// changes that is unsafe *as a set* — since changes commute, every
/// ordering of the full submission passes through some unsafe state
/// containing it.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsafePrefix {
    /// The ddmin-minimized unsafe subset (ascending submission index):
    /// removing any one change makes the remainder safe.
    pub prefix: Vec<PlanStep>,
    /// The unsafe subset the search first discovered (a superset).
    pub found: Vec<PlanStep>,
    /// The transient violations (condition-matching, not allowed)
    /// present in the minimized subset's state.
    pub transient: Vec<Violation>,
}

/// The planner's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanVerdict {
    /// A safe ordering: apply the steps in sequence and every
    /// intermediate fixed point satisfies the contracts (modulo
    /// allowed baseline/final violations).
    Safe(Vec<PlanStep>),
    /// No safe ordering exists; here is a minimal witness.
    Unsafe(UnsafePrefix),
}

impl std::fmt::Display for PlanVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanVerdict::Safe(steps) => write!(f, "safe plan of {} step(s)", steps.len()),
            PlanVerdict::Unsafe(u) => {
                write!(
                    f,
                    "unsafe: minimal unsafe subset of {} change(s)",
                    u.prefix.len()
                )
            }
        }
    }
}

/// Everything a planning run did and decided.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The verdict.
    pub verdict: PlanVerdict,
    /// The condition intermediate states were judged against.
    pub condition: FailCondition,
    /// Distinct intermediate states evaluated (anchors + restarts).
    pub states_evaluated: usize,
    /// Per-device validations performed: every device a restarted
    /// state changed, plus the tables of each converged anchor that no
    /// earlier verdict covered.
    pub devices_revalidated: usize,
    /// Per-device verdicts reused while converging anchors: tables
    /// equal to production's, or already validated for the final state
    /// or an earlier anchor. (A restarted state reuses nothing — it
    /// revalidates exactly the devices it changes.)
    pub verdicts_reused: usize,
    /// Converged anchors built for general-change subsets.
    pub anchors_built: usize,
    /// Search steps skipped because the subset was a memoized dead
    /// prefix.
    pub dead_prefix_hits: usize,
    /// Subsets proven dead (every completion blocked).
    pub backtracks: usize,
    /// Did the search cover the space? `false` means the backtrack
    /// budget ran out — an `Unsafe` verdict is then still a true
    /// witness, but a safe ordering outside the explored region may
    /// have been missed.
    pub search_exhausted: bool,
    /// Aggregated fixed-point restart counters across all states.
    pub restart: RestartStats,
    /// Wall-clock time for the whole planning run.
    pub elapsed: Duration,
}

impl PlanReport {
    /// Did the planner find a safe ordering?
    pub fn is_safe(&self) -> bool {
        matches!(self.verdict, PlanVerdict::Safe(_))
    }
}

/// One submitted order checked step by step (no search) — the §2.7
/// workflow's question, answered with intermediate states included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderCheck {
    /// Index of the first step whose post-state is unsafe (`None` =
    /// the order is safe end to end).
    pub first_unsafe: Option<usize>,
    /// Transient violations in that first unsafe state.
    pub transient: usize,
    /// Intermediate states evaluated.
    pub states_evaluated: usize,
}

/// The families only the planner exports; the four it shares with the
/// sweeper are [`explore::ExploreMetrics`].
struct RolloutMetrics {
    backtracks: obskit::Counter,
    dead_hits: obskit::Counter,
    anchors: obskit::Counter,
}

impl RolloutMetrics {
    fn new(registry: &Registry) -> RolloutMetrics {
        RolloutMetrics {
            backtracks: registry.counter(
                "rcdc_rollout_backtracks_total",
                "subsets proven dead during ordering search",
                &[],
            ),
            dead_hits: registry.counter(
                "rcdc_rollout_dead_prefix_hits_total",
                "search steps skipped via the dead-prefix memo",
                &[],
            ),
            anchors: registry.counter(
                "rcdc_rollout_anchors_total",
                "converged anchors built for general-change subsets",
                &[],
            ),
        }
    }
}

/// How a change interacts with the incremental evaluation stack,
/// classified once against production (valid for every subset because
/// targets are distinct — no later change can alter the classification
/// of an earlier one's target).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// No routing effect (override equal to current, or a link-state
    /// write that does not change session liveness).
    Noop,
    /// A live session going down — exactly what a fixed-point restart
    /// patches.
    Fault(LinkId),
    /// Everything else (link bring-up, override edit): needs a fresh
    /// converged anchor.
    General,
}

/// A classified change list: the subset lattice the search walks, and
/// the lowering of a subset (`u128` mask over the list) to what
/// `crate::explore` evaluates — a network to converge for its general
/// part, a [`FaultSpec`] to restart for its fault part.
struct Lattice<'a> {
    changes: &'a [ConfigChange],
    shapes: Vec<Shape>,
    noop_mask: u128,
    general_mask: u128,
    /// All submitted changes (raw mask, noops included).
    full: u128,
}

impl Lattice<'_> {
    /// Canonical state key: noop changes have no routing effect, so
    /// masks differing only in noop bits denote the same state.
    fn canon(&self, m: u128) -> u128 {
        m & !self.noop_mask
    }

    /// The changes selected by `m`, with their submission indices.
    fn picked(&self, m: u128) -> impl Iterator<Item = (usize, &ConfigChange)> {
        let picked = move |(i, _): &(usize, &ConfigChange)| m & (1u128 << i) != 0;
        self.changes.iter().enumerate().filter(picked)
    }

    /// `m`'s fault-shaped part: the live links it takes down.
    fn fault(&self, m: u128) -> FaultSpec {
        FaultSpec::links(self.picked(m).filter_map(|(i, _)| match self.shapes[i] {
            Shape::Fault(l) => Some(l),
            _ => None,
        }))
    }

    /// `production` with the changes selected by `m` applied.
    fn applied(&self, production: &ManagedNetwork, m: u128) -> ManagedNetwork {
        let mut net = production.clone();
        for (_, c) in self.picked(m) {
            net.apply(c);
        }
        net
    }

    /// The selected changes as plan steps, ascending by index.
    fn steps(&self, m: u128) -> Vec<PlanStep> {
        self.picked(m).map(|(i, _)| self.step(i)).collect()
    }

    fn step(&self, index: usize) -> PlanStep {
        PlanStep {
            index,
            change: self.changes[index].clone(),
        }
    }
}

/// The safe change-rollout planner. Build one with
/// [`ValidatorBuilder::build_planner`](crate::ValidatorBuilder::build_planner).
pub struct RolloutPlanner {
    production: ManagedNetwork,
    /// The shared state-evaluation core; its root anchor is production.
    explorer: Explorer,
    metrics: Option<RolloutMetrics>,
}

impl RolloutPlanner {
    pub(crate) fn new(
        production: ManagedNetwork,
        explorer: Explorer,
        registry: Option<&Registry>,
    ) -> RolloutPlanner {
        RolloutPlanner {
            production,
            explorer,
            metrics: registry.map(RolloutMetrics::new),
        }
    }

    /// The production network plans start from.
    pub fn production(&self) -> &ManagedNetwork {
        &self.production
    }

    /// The production baseline's per-device validation reports.
    pub fn baseline_reports(&self) -> &[ValidationReport] {
        &self.explorer.root().reports
    }

    /// The contract sets being validated against (indexed by device).
    pub fn contracts(&self) -> &[DeviceContracts] {
        self.explorer.contracts()
    }

    /// Classify each change against production. Errors on duplicate
    /// targets (changes must commute for subset-keyed evaluation to be
    /// sound) and on change sets too large for the mask width.
    fn classify<'a>(&self, changes: &'a [ConfigChange]) -> Result<Lattice<'a>, String> {
        let n = changes.len();
        if n > 128 {
            return Err(format!("at most 128 changes per plan (got {n})"));
        }
        let mut seen = HashSet::new();
        let shapes = changes
            .iter()
            .map(|c| {
                let (kind, id) = c.target();
                if !seen.insert((kind, id)) {
                    return Err(format!(
                        "duplicate change target: {kind} {id} appears twice"
                    ));
                }
                Ok(match c {
                    ConfigChange::SetLinkState { link, state } => {
                        let current = self.production.topology.link(*link).state;
                        if current.session_up() == state.session_up() {
                            // Up→up is the same state; down→down (e.g.
                            // OperDown → AdminShut) changes bookkeeping
                            // but not the session graph the fixed
                            // point reads.
                            Shape::Noop
                        } else if current.session_up() {
                            Shape::Fault(*link)
                        } else {
                            Shape::General
                        }
                    }
                    ConfigChange::SetOverride { device, config } => {
                        let current = self.production.config.device(*device);
                        if current.cloned().unwrap_or_default() == *config {
                            Shape::Noop
                        } else {
                            Shape::General
                        }
                    }
                })
            })
            .collect::<Result<Vec<Shape>, String>>()?;
        let (mut noop_mask, mut general_mask) = (0u128, 0u128);
        for (i, s) in shapes.iter().enumerate() {
            match s {
                Shape::Noop => noop_mask |= 1u128 << i,
                Shape::General => general_mask |= 1u128 << i,
                Shape::Fault(_) => {}
            }
        }
        Ok(Lattice {
            changes,
            shapes,
            noop_mask,
            general_mask,
            full: if n == 0 { 0 } else { (!0u128) >> (128 - n) },
        })
    }

    /// The full per-device report vector after applying `changes` (as
    /// a set — order is irrelevant), computed through the incremental
    /// machinery: general changes converge an anchor, fault changes
    /// restart from it, only changed devices are revalidated.
    ///
    /// The oracle hook, computed per call: [`plan`](Self::plan) and
    /// [`check_order`](Self::check_order) never use it, the difftest
    /// rollout oracle byte-compares it against a from-scratch simulate
    /// + cold validation of the same state.
    pub fn state_reports(&self, changes: &[ConfigChange]) -> Result<Vec<ValidationReport>, String> {
        let lattice = self.classify(changes)?;
        let root = self.explorer.root();
        let built = (lattice.general_mask != 0).then(|| {
            let net = lattice.applied(&self.production, lattice.general_mask);
            self.explorer.converge(&net.topology, &net.config, None)
        });
        let fault = lattice.fault(lattice.full);
        let changed = if fault.is_empty() {
            Vec::new()
        } else {
            let anchor = built.as_ref().unwrap_or(root);
            self.explorer.restart(anchor, &fault).changed
        };
        let mut reports = built.map_or_else(|| root.reports.clone(), |a| a.reports);
        for (d, r) in changed {
            reports[d.0 as usize] = r;
        }
        Ok(reports)
    }

    /// Search for a safe ordering of `changes`. Deterministic at any
    /// thread count: the emitted plan always applies the
    /// lowest-indexed safe candidate first (threads only change how
    /// many candidate states get evaluated, never which one is
    /// chosen).
    pub fn plan(&self, changes: &[ConfigChange], opts: &PlanOptions) -> Result<PlanReport, String> {
        let start = Instant::now();
        let mut search = Search::new(self, self.classify(changes)?, opts)?;
        let full = search.lattice.full;
        let mut order: Vec<usize> = Vec::new();
        // The final state's eval is pre-seeded. (An empty submission is
        // its own final state: `dfs` returns at once with the empty
        // order.)
        let safe = if search.eval_of(full) == 0 {
            search.dfs(0, &mut order)
        } else {
            // Even the complete change set violates the condition —
            // no ordering can end anywhere else, so skip the search
            // and go straight to minimization.
            search.first_unsafe = Some(full);
            false
        };
        let verdict = if safe {
            let lattice = &search.lattice;
            PlanVerdict::Safe(order.iter().map(|&i| lattice.step(i)).collect())
        } else {
            // A failed search always evaluated at least one unsafe
            // state: the dead-prefix memo starts empty, so the first
            // subset to fail saw only unsafe children.
            let found = search
                .first_unsafe
                .expect("failed search must have recorded an unsafe state");
            let mask_of = |subset: &[usize]| subset.iter().fold(0u128, |m, &i| m | (1u128 << i));
            let found_idx: Vec<usize> = search.lattice.picked(found).map(|(i, _)| i).collect();
            let minimized = shrink_list(&found_idx, |subset| search.eval_of(mask_of(subset)) > 0);
            let minimal = mask_of(&minimized);
            let transient = search.transient_violations(minimal);
            PlanVerdict::Unsafe(UnsafePrefix {
                prefix: search.lattice.steps(minimal),
                found: search.lattice.steps(found),
                transient,
            })
        };
        if let Some(m) = &self.metrics {
            m.backtracks.add(search.backtracks as u64);
            m.dead_hits.add(search.dead_hits as u64);
            m.anchors.add(search.anchors.len() as u64);
        }
        Ok(PlanReport {
            verdict,
            condition: opts.condition,
            states_evaluated: search.totals.states,
            devices_revalidated: search.totals.revalidated,
            verdicts_reused: search.totals.reused,
            anchors_built: search.anchors.len(),
            dead_prefix_hits: search.dead_hits,
            backtracks: search.backtracks,
            search_exhausted: !search.aborted,
            restart: search.totals.restart,
            elapsed: start.elapsed(),
        })
    }

    /// Check one submitted order step by step — the naive deployment
    /// sequence's safety, answered incrementally with no search.
    pub fn check_order(
        &self,
        changes: &[ConfigChange],
        opts: &PlanOptions,
    ) -> Result<OrderCheck, String> {
        let mut search = Search::new(self, self.classify(changes)?, opts)?;
        // Step i's post-state is the first i + 1 changes applied.
        let first_unsafe = (0..changes.len()).find_map(|i| {
            let transient = search.eval_of(u128::MAX >> (127 - i));
            (transient > 0).then_some((i, transient))
        });
        Ok(OrderCheck {
            first_unsafe: first_unsafe.map(|(i, _)| i),
            transient: first_unsafe.map_or(0, |(_, t)| t),
            states_evaluated: search.totals.states,
        })
    }
}

/// One search over a classified change list: the judge and verdict
/// memo its states share, the memoized evals, anchors and dead
/// prefixes, and the exploration counters. Evaluating a state from
/// its anchor needs only `&self`, so parallel frontier workers share
/// the search while nothing mutates it.
struct Search<'a> {
    p: &'a RolloutPlanner,
    lattice: Lattice<'a>,
    /// Judges a state's *transient* violations: condition-matching and
    /// not allowed, where allowed = baseline ∪ (optionally) final-state
    /// violations — present in states the operator already accepts.
    judge: Judge<'a>,
    threads: usize,
    /// `(device, fib content hash)` verdict memo shared by every
    /// anchor the search converges.
    memo: VerdictMemo,
    max_backtracks: usize,
    /// Transient-violation count per evaluated canonical mask.
    evals: HashMap<u128, usize>,
    /// Converged anchors by general-change mask (the empty mask is the
    /// explorer's root and is never stored).
    anchors: HashMap<u128, (Anchor, Tally)>,
    root_tally: Tally,
    /// Canonical masks from which no safe completion exists.
    dead: HashSet<u128>,
    first_unsafe: Option<u128>,
    totals: Totals,
    dead_hits: usize,
    backtracks: usize,
    aborted: bool,
}

impl<'a> Search<'a> {
    fn new(
        p: &'a RolloutPlanner,
        lattice: Lattice<'a>,
        opts: &PlanOptions,
    ) -> Result<Search<'a>, String> {
        let threads = p.explorer.threads_or(opts.threads);
        let root = p.explorer.root();
        // The final state, simulated once: it defines the allowed set
        // (with `accept_final`) and pre-seeds the full mask's eval, and
        // its tables that differ from production's seed the verdict
        // memo — deep search states share most tables with it.
        let canon_full = lattice.canon(lattice.full);
        let memo: VerdictMemo = RwLock::new(HashMap::new());
        let final_reports = (canon_full != 0).then(|| {
            let net = lattice.applied(&p.production, lattice.full);
            p.explorer
                .validate(&simulate(&net.topology, &net.config), threads, &memo)
        });
        let finals = final_reports.as_deref().unwrap_or(&root.reports);
        let accepted: &[ValidationReport] = if opts.accept_final { finals } else { &[] };
        let allowed: HashSet<Violation> = root
            .reports
            .iter()
            .chain(accepted)
            .flat_map(|r| r.violations.iter().cloned())
            .collect();
        let judge = p.explorer.judge(opts.condition, allowed)?;
        let root_tally = Tally::of(&judge, &root.reports);
        let final_transient: usize = finals.iter().map(|r| judge.count(r)).sum();
        let evals = HashMap::from([(0, root_tally.total), (canon_full, final_transient)]);
        Ok(Search {
            p,
            lattice,
            judge,
            threads,
            memo,
            max_backtracks: opts.max_backtracks,
            evals,
            anchors: HashMap::new(),
            root_tally,
            dead: HashSet::new(),
            first_unsafe: None,
            totals: Totals::default(),
            dead_hits: 0,
            backtracks: 0,
            aborted: false,
        })
    }

    /// Evaluate a fault set from an anchor: the state's transient
    /// count (the anchor's, patched with the changed devices) and its
    /// delta.
    fn eval_fault(&self, anchor: &Anchor, tally: &Tally, fault: &FaultSpec) -> (usize, StateDelta) {
        let delta = self.p.explorer.restart(anchor, fault);
        (tally.spliced(&self.judge, &delta.changed), delta)
    }

    /// Account for one evaluated state.
    fn absorb(&mut self, transient: usize, delta: &StateDelta) {
        self.totals.add(delta);
        self.p.explorer.record_outcome(transient > 0);
    }

    /// Build (or reuse) the converged anchor for a general-change
    /// subset. Devices whose tables match production, the final state
    /// or an earlier anchor reuse those verdicts.
    fn ensure_anchor(&mut self, g: u128) {
        if g == 0 || self.anchors.contains_key(&g) {
            return;
        }
        let net = self.lattice.applied(&self.p.production, g);
        let explorer = &self.p.explorer;
        let anchor = explorer.converge(&net.topology, &net.config, Some(&self.memo));
        self.totals.revalidated += anchor.revalidated;
        self.totals.reused += anchor.reports.len() - anchor.revalidated;
        let tally = Tally::of(&self.judge, &anchor.reports);
        self.anchors.insert(g, (anchor, tally));
    }

    /// The anchor a canonical mask restarts from, with its tally.
    fn anchored(&self, m: u128) -> (&Anchor, &Tally) {
        match self.anchors.get(&(m & self.lattice.general_mask)) {
            Some((anchor, tally)) => (anchor, tally),
            None => (self.p.explorer.root(), &self.root_tally),
        }
    }

    /// Evaluate a canonical mask's state from its anchor, bypassing
    /// the eval memo.
    fn eval_state(&mut self, m: u128) -> (usize, StateDelta) {
        self.ensure_anchor(m & self.lattice.general_mask);
        let (anchor, tally) = self.anchored(m);
        let (transient, delta) = self.eval_fault(anchor, tally, &self.lattice.fault(m));
        self.absorb(transient, &delta);
        (transient, delta)
    }

    /// The (memoized) transient-violation count of a subset state.
    fn eval_of(&mut self, raw: u128) -> usize {
        let m = self.lattice.canon(raw);
        if let Some(&e) = self.evals.get(&m) {
            return e;
        }
        let (transient, _) = self.eval_state(m);
        self.evals.insert(m, transient);
        transient
    }

    /// Pre-evaluate a frontier chunk in parallel. Only fault-shaped
    /// candidates qualify (they share the frontier's anchor and touch
    /// no search state); results land in the eval memo, so the serial
    /// scan that follows picks candidates exactly as it would have
    /// single-threaded.
    fn eval_chunk(&mut self, mask: u128, block: &[usize]) {
        if self.threads <= 1 {
            return;
        }
        let lattice = &self.lattice;
        let todo: Vec<(u128, FaultSpec)> = block
            .iter()
            .filter_map(|&i| {
                if !matches!(lattice.shapes[i], Shape::Fault(_)) {
                    return None;
                }
                let child = lattice.canon(mask | (1u128 << i));
                if self.evals.contains_key(&child) || self.dead.contains(&child) {
                    return None;
                }
                Some((child, lattice.fault(child)))
            })
            .collect();
        if todo.len() < 2 {
            return;
        }
        let m = lattice.canon(mask);
        self.ensure_anchor(m & lattice.general_mask);
        let results: Vec<(u128, (usize, StateDelta))> = {
            let (anchor, tally) = self.anchored(m);
            let search = &*self;
            std::thread::scope(|scope| {
                let handles: Vec<_> = todo
                    .iter()
                    .map(|(child, fault)| {
                        scope.spawn(move || (*child, search.eval_fault(anchor, tally, fault)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        for (child, (transient, delta)) in results {
            self.absorb(transient, &delta);
            self.evals.insert(child, transient);
        }
    }

    /// Depth-first ordering search from a subset state. Returns `true`
    /// with `order` extended by a safe completion, or `false` after
    /// marking the subset dead (or aborting on backtrack budget).
    fn dfs(&mut self, mask: u128, order: &mut Vec<usize>) -> bool {
        if mask == self.lattice.full {
            return true;
        }
        let n = self.lattice.changes.len();
        let candidates: Vec<usize> = (0..n).filter(|&i| mask & (1u128 << i) == 0).collect();
        let chunk = self.threads.max(1);
        for block in candidates.chunks(chunk) {
            self.eval_chunk(mask, block);
            for &i in block {
                let child = mask | (1u128 << i);
                if self.dead.contains(&self.lattice.canon(child)) {
                    self.dead_hits += 1;
                    continue;
                }
                if self.eval_of(child) > 0 {
                    if self.first_unsafe.is_none() {
                        self.first_unsafe = Some(child);
                    }
                    continue;
                }
                order.push(i);
                if self.dfs(child, order) {
                    return true;
                }
                order.pop();
                if self.aborted {
                    return false;
                }
            }
        }
        self.dead.insert(self.lattice.canon(mask));
        self.backtracks += 1;
        if self.backtracks > self.max_backtracks {
            self.aborted = true;
        }
        false
    }

    /// The transient violations present in a subset's state (spliced
    /// full view), for unsafe-prefix reporting.
    fn transient_violations(&mut self, raw: u128) -> Vec<Violation> {
        let m = self.lattice.canon(raw);
        let changed: HashMap<DeviceId, ValidationReport> =
            self.eval_state(m).1.changed.into_iter().collect();
        let (anchor, _) = self.anchored(m);
        anchor
            .reports
            .iter()
            .enumerate()
            .flat_map(|(du, base)| {
                let report = changed.get(&DeviceId(du as u32)).unwrap_or(base);
                self.judge.offending(report).cloned()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ViolationReason;
    use crate::validator::Validator;
    use crate::TrieEngine;
    use bgpsim::simulate;
    use dctopo::generator::{figure3, Figure3};
    use dctopo::MetadataService;

    fn planner_for(net: &ManagedNetwork) -> RolloutPlanner {
        let meta = MetadataService::from_topology(&net.topology);
        Validator::new(&meta).build_planner(net)
    }

    fn shut(f: &Figure3, a: DeviceId, b: DeviceId) -> ConfigChange {
        ConfigChange::SetLinkState {
            link: f.topology.link_between(a, b).unwrap().id,
            state: LinkState::AdminShut,
        }
    }

    fn bring_up(f: &Figure3, a: DeviceId, b: DeviceId) -> ConfigChange {
        ConfigChange::SetLinkState {
            link: f.topology.link_between(a, b).unwrap().id,
            state: LinkState::Up,
        }
    }

    /// The uplink-migration scenario: ToR0's standby uplinks (a2, a3)
    /// are admin-shut in production; the rollout shuts the active pair
    /// and brings up the standby pair. Safe only interleaved.
    fn migrate() -> (Figure3, ManagedNetwork, Vec<ConfigChange>) {
        let f = figure3();
        let mut net = ManagedNetwork::new(f.topology.clone());
        for leaf in [f.a[2], f.a[3]] {
            let l = net.topology.link_between(f.tors[0], leaf).unwrap().id;
            net.topology.set_link_state(l, LinkState::AdminShut);
        }
        let changes = vec![
            shut(&f, f.tors[0], f.a[0]),
            shut(&f, f.tors[0], f.a[1]),
            bring_up(&f, f.tors[0], f.a[2]),
            bring_up(&f, f.tors[0], f.a[3]),
        ];
        (f, net, changes)
    }

    #[test]
    fn seeded_clos_migration_needs_interleaving_and_plans_safely() {
        // The shared scenario generator must reproduce the migrate
        // shape on a generated Clos fabric: naive submit order fails
        // mid-rollout, the planner finds a safe interleaving.
        let params = dctopo::ClosParams {
            clusters: 2,
            tors_per_cluster: 2,
            leaves_per_cluster: 4,
            spines: 4,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        };
        let topology = dctopo::build_clos(&params);
        let (net, changes) = seeded_scenario(&topology, RolloutScenario::Migrate, 1, 11);
        assert_eq!(changes.len(), 4, "{changes:?}");
        let planner = planner_for(&net);
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            ..PlanOptions::default()
        };
        let naive = planner.check_order(&changes, &opts).unwrap();
        assert!(naive.first_unsafe.is_some(), "{naive:?}");
        let report = planner.plan(&changes, &opts).unwrap();
        assert!(report.is_safe(), "{}", report.verdict);
        // Different seeds pick different racks, same shape.
        let (net2, changes2) = seeded_scenario(&topology, RolloutScenario::Decommission, 2, 3);
        assert_eq!(changes2.len(), 8);
        assert_eq!(net2.topology.links().len(), topology.links().len());
    }

    #[test]
    fn empty_change_set_plans_trivially() {
        let f = figure3();
        let planner = planner_for(&ManagedNetwork::new(f.topology));
        let report = planner.plan(&[], &PlanOptions::default()).unwrap();
        assert_eq!(report.verdict, PlanVerdict::Safe(Vec::new()));
        assert!(report.is_safe());
        assert!(report.search_exhausted);
    }

    #[test]
    fn duplicate_targets_are_rejected() {
        let (f, net, _) = migrate();
        let planner = planner_for(&net);
        let twice = vec![shut(&f, f.tors[0], f.a[0]), shut(&f, f.tors[0], f.a[0])];
        let err = planner.plan(&twice, &PlanOptions::default()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let cfg = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride::default(),
        };
        let err = planner
            .check_order(&[cfg.clone(), cfg], &PlanOptions::default())
            .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn migration_submit_order_fails_but_planner_interleaves() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            ..PlanOptions::default()
        };
        // The naive submitted order shuts both active uplinks before
        // any standby comes up: ToR0 loses its default mid-rollout.
        let naive = planner.check_order(&changes, &opts).unwrap();
        assert_eq!(naive.first_unsafe, Some(1), "{naive:?}");
        assert!(naive.transient > 0);
        // The planner interleaves shut/bring-up: [shut a0, up a2,
        // shut a1, up a3] — the lowest-index-first deterministic
        // ordering that keeps a default path at every step.
        let report = planner.plan(&changes, &opts).unwrap();
        let steps = match &report.verdict {
            PlanVerdict::Safe(steps) => steps.clone(),
            v => panic!("expected a safe plan, got {v}"),
        };
        assert_eq!(
            steps.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 2, 1, 3]
        );
        assert!(report.search_exhausted);
        assert!(report.states_evaluated > 0);
        // Replaying the emitted order step by step is clean.
        let ordered: Vec<ConfigChange> =
            steps.iter().map(|s| s.change.clone()).collect();
        let replay = planner.check_order(&ordered, &opts).unwrap();
        assert_eq!(replay.first_unsafe, None, "{replay:?}");
    }

    #[test]
    fn plan_is_deterministic_at_any_thread_count() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let verdicts: Vec<PlanVerdict> = [1usize, 2, 5]
            .iter()
            .map(|&threads| {
                let opts = PlanOptions {
                    condition: FailCondition::Blackhole,
                    threads,
                    ..PlanOptions::default()
                };
                planner.plan(&changes, &opts).unwrap().verdict
            })
            .collect();
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[1], verdicts[2]);
    }

    #[test]
    fn decommission_without_accepting_final_is_minimally_unsafe() {
        // Shutting all four ToR0 uplinks blackholes the ToR in the
        // *final* state: with accept_final off there is no safe
        // ordering, and the minimal unsafe subset is all four changes
        // (any three leave one uplink carrying the default).
        let f = figure3();
        let net = ManagedNetwork::new(f.topology.clone());
        let planner = planner_for(&net);
        let changes: Vec<ConfigChange> = f
            .a
            .iter()
            .map(|&leaf| shut(&f, f.tors[0], leaf))
            .collect();
        let opts = PlanOptions {
            condition: FailCondition::Blackhole,
            accept_final: false,
            ..PlanOptions::default()
        };
        let report = planner.plan(&changes, &opts).unwrap();
        let u = match &report.verdict {
            PlanVerdict::Unsafe(u) => u.clone(),
            v => panic!("decommission must not plan clean: {v}"),
        };
        assert_eq!(u.prefix.len(), 4, "{u:?}");
        assert_eq!(u.found.len(), 4);
        assert!(u
            .transient
            .iter()
            .any(|v| v.device == f.tors[0]
                && matches!(v.reason, ViolationReason::MissingDefault)));
        // Minimality replay: dropping any single change makes the
        // remainder plannable.
        for skip in 0..changes.len() {
            let rest: Vec<ConfigChange> = changes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            assert!(planner.plan(&rest, &opts).unwrap().is_safe(), "skip {skip}");
        }
        // With accept_final (the default) the end state is the
        // operator's intent and any order works.
        let accepted = planner
            .plan(
                &changes,
                &PlanOptions {
                    condition: FailCondition::Blackhole,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
        assert!(accepted.is_safe(), "{:?}", accepted.verdict);
    }

    #[test]
    fn single_change_plan_matches_precheck() {
        // k=1: a plan with accept_final off under the strict condition
        // asks exactly the §2.7 precheck question.
        let f = figure3();
        let net = ManagedNetwork::new(f.topology.clone());
        let meta = MetadataService::from_topology(&net.topology);
        let planner = planner_for(&net);
        let checker = Validator::new(&meta).build_precheck(&net);
        let opts = PlanOptions {
            accept_final: false,
            ..PlanOptions::default()
        };
        let cases = vec![
            ConfigChange::SetOverride {
                device: f.tors[0],
                config: DeviceOverride {
                    reject_default_import: true,
                    ..DeviceOverride::default()
                },
            },
            ConfigChange::SetOverride {
                device: f.tors[0],
                config: DeviceOverride::default(),
            },
            shut(&f, f.tors[0], f.a[0]),
        ];
        for change in cases {
            let plan = planner.plan(std::slice::from_ref(&change), &opts).unwrap();
            let pre = checker.precheck(std::slice::from_ref(&change));
            assert_eq!(plan.is_safe(), pre.passed(), "{change:?}");
        }
    }

    #[test]
    fn state_reports_match_scratch_validation() {
        // The oracle contract in miniature: a mixed subset (fault +
        // general + noop) evaluated incrementally must be byte-equal
        // to from-scratch simulation + cold validation.
        let (f, net, _) = migrate();
        let planner = planner_for(&net);
        let changes = vec![
            shut(&f, f.tors[0], f.a[0]),
            bring_up(&f, f.tors[0], f.a[2]),
            ConfigChange::SetOverride {
                device: f.tors[1],
                config: DeviceOverride {
                    max_ecmp: Some(2),
                    ..DeviceOverride::default()
                },
            },
            ConfigChange::SetOverride {
                device: f.tors[2],
                config: DeviceOverride::default(), // noop
            },
        ];
        let incremental = planner.state_reports(&changes).unwrap();
        let mut scratch = net.clone();
        for c in &changes {
            scratch.apply(c);
        }
        let fibs = simulate(&scratch.topology, &scratch.config);
        let engine = TrieEngine::new();
        let cold: Vec<ValidationReport> = fibs
            .iter()
            .enumerate()
            .map(|(du, fib)| engine.validate_device(fib, &planner.contracts()[du]))
            .collect();
        assert_eq!(incremental, cold);
        // Fault-only subsets take the root-anchor restart path.
        let fault_only = vec![shut(&f, f.tors[0], f.a[0]), shut(&f, f.tors[1], f.a[0])];
        let incremental = planner.state_reports(&fault_only).unwrap();
        let mut scratch = net.clone();
        for c in &fault_only {
            scratch.apply(c);
        }
        let fibs = simulate(&scratch.topology, &scratch.config);
        let cold: Vec<ValidationReport> = fibs
            .iter()
            .enumerate()
            .map(|(du, fib)| engine.validate_device(fib, &planner.contracts()[du]))
            .collect();
        assert_eq!(incremental, cold);
    }

    /// The counters a plan reports, as one comparable tuple.
    fn counters(r: &PlanReport) -> (usize, usize, usize, usize, usize, usize, RestartStats) {
        (
            r.states_evaluated,
            r.devices_revalidated,
            r.verdicts_reused,
            r.anchors_built,
            r.dead_prefix_hits,
            r.backtracks,
            r.restart,
        )
    }

    #[test]
    fn plan_counters_are_pinned() {
        // Golden values: the ledger's `rollout_plan` throughput is
        // states per second, so a change that silently visits other
        // states must fail here rather than read as a change in speed.
        let blackhole = |accept_final| PlanOptions {
            condition: FailCondition::Blackhole,
            accept_final,
            threads: 1,
            ..PlanOptions::default()
        };
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let restart = |prefixes, patched, repropagated, devices_changed, rules_touched| {
            RestartStats {
                prefixes,
                patched,
                repropagated,
                devices_changed,
                rules_touched,
            }
        };
        let naive = planner.check_order(&changes, &blackhole(true)).unwrap();
        assert_eq!(naive.states_evaluated, 2);
        let report = planner.plan(&changes, &blackhole(true)).unwrap();
        assert_eq!(
            counters(&report),
            // 26 + 40 = 52 + 14: restarted states no longer probe the
            // verdict memo; the 14 left are the anchor's reused tables.
            (4, 52, 14, 1, 0, 0, restart(20, 12, 4, 46, 58))
        );

        let topology = dctopo::build_clos(&dctopo::ClosParams {
            clusters: 2,
            tors_per_cluster: 2,
            leaves_per_cluster: 4,
            spines: 4,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        });
        let (net, changes) = seeded_scenario(&topology, RolloutScenario::Decommission, 2, 3);
        let planner = planner_for(&net);
        let accepted = planner.plan(&changes, &blackhole(true)).unwrap();
        assert!(accepted.is_safe());
        assert_eq!(
            counters(&accepted),
            // No anchors here, so nothing is reused: 50 + 58 = 108.
            (7, 108, 0, 0, 0, 0, restart(35, 21, 10, 108, 168))
        );
        let strict = planner.plan(&changes, &blackhole(false)).unwrap();
        assert!(!strict.is_safe());
        assert_eq!(
            counters(&strict),
            // 53 + 67 = 120.
            (8, 120, 0, 0, 0, 0, restart(40, 24, 8, 120, 144))
        );
        let order = planner.check_order(&changes, &blackhole(true)).unwrap();
        assert_eq!(order.states_evaluated, 7);
    }

    #[test]
    fn risk_ranked_condition_without_metadata_is_an_error() {
        // A planner built from bare contracts cannot rank risk: both
        // entry points must say so before evaluating any state, with
        // the fix in the message — not panic at the first violation.
        let (_f, net, changes) = migrate();
        let meta = MetadataService::from_topology(&net.topology);
        let planner =
            Validator::with_contracts(crate::generate_contracts(&meta)).build_planner(&net);
        let opts = PlanOptions {
            condition: FailCondition::AtLeast(crate::Risk::High),
            ..PlanOptions::default()
        };
        for err in [
            planner.plan(&changes, &opts).unwrap_err(),
            planner.check_order(&changes, &opts).unwrap_err(),
            planner.check_order(&[], &opts).unwrap_err(),
        ] {
            assert!(err.contains("Validator::new(&meta)"), "{err}");
            assert!(err.contains(".metadata(&meta)"), "{err}");
        }
        // The same planner still serves conditions that need no metadata.
        let blackhole = PlanOptions {
            condition: FailCondition::Blackhole,
            ..PlanOptions::default()
        };
        assert!(planner.plan(&changes, &blackhole).unwrap().is_safe());
    }

    #[test]
    fn planner_memoizes_verdicts_across_the_frontier() {
        let (_f, net, changes) = migrate();
        let planner = planner_for(&net);
        let report = planner
            .plan(
                &changes,
                &PlanOptions {
                    condition: FailCondition::Blackhole,
                    ..PlanOptions::default()
                },
            )
            .unwrap();
        assert!(
            report.verdicts_reused > 0,
            "search states share FIB content: {report:?}"
        );
        assert!(report.anchors_built > 0, "bring-ups need anchors");
    }

    #[test]
    fn prechecker_workflow_deploys_and_rejects() {
        // The Figure-7 workflow through the builder route.
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let mut checker =
            Validator::new(&meta).build_precheck(&ManagedNetwork::new(f.topology.clone()));
        let bad = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride {
                reject_default_import: true,
                ..DeviceOverride::default()
            },
        };
        assert!(matches!(
            checker.submit(std::slice::from_ref(&bad)),
            WorkflowOutcome::RejectedAtPrecheck(_)
        ));
        let benign = ConfigChange::SetOverride {
            device: f.tors[0],
            config: DeviceOverride::default(),
        };
        assert!(matches!(
            checker.submit(std::slice::from_ref(&benign)),
            WorkflowOutcome::Deployed
        ));
        assert!(checker.validate(checker.production()).is_empty());
    }
}
