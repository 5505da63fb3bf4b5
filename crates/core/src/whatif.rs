//! K-failure robustness sweeps: "every contract holds under *any* k
//! simultaneous link/device failures."
//!
//! The paper validates one snapshot of the fabric at a time; operators
//! want the combinatorial claim. ACORN and Plankton attack the same
//! scenario explosion with route nondeterminism and partial-order
//! reduction — this module's lever is *incrementality*: each scenario
//! is evaluated as a delta against the healthy fixed point, not a
//! fresh build of the world.
//!
//! The evaluation itself is `crate::explore`'s: a scenario is a
//! [`FaultSpec`] restarted from the healthy root anchor — only the
//! devices whose FIBs change come back, each judged as its healthy
//! table plus the rules that differ, against its healthy report — and
//! judged against the sweep's [`FailCondition`]. What this
//! module owns is the *search policy*: which scenarios to visit and in
//! which order.
//!
//! Scenarios of size 1 and 2 are enumerated exhaustively, larger sizes
//! are sampled (seeded, deterministic). The sweep returns a
//! [`RobustnessVerdict`]: a `Robust(k)` certificate, or a
//! counterexample minimized by ddmin ([`crate::shrink`]) so that
//! removing any single failure from the reported set makes the
//! contracts pass again.

use crate::explore::{Explorer, Judge, StateDelta, Tally, Totals};
use crate::report::ValidationReport;
use crate::shrink::shrink_list;
use bgpsim::restart::{Baseline, FaultSpec, RestartStats};
use dctopo::{DeviceId, LinkId, Topology};
use obskit::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub use crate::explore::FailCondition;

/// One element of a failure scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureElement {
    /// A link going down.
    Link(LinkId),
    /// A device going down (all its links).
    Device(DeviceId),
}

impl FailureElement {
    /// Human-readable rendering against a topology.
    pub fn render(&self, t: &Topology) -> String {
        match self {
            FailureElement::Link(l) => {
                let link = t.link(*l);
                format!("link {}~{}", t.device(link.lo).name, t.device(link.hi).name)
            }
            FailureElement::Device(d) => format!("device {}", t.device(*d).name),
        }
    }

    fn sort_key(&self) -> (u8, u32) {
        match self {
            FailureElement::Link(l) => (0, l.0),
            FailureElement::Device(d) => (1, d.0),
        }
    }
}

/// Convert a scenario to the restart API's fault set.
fn to_fault(elems: &[FailureElement]) -> FaultSpec {
    let mut fault = FaultSpec::default();
    for e in elems {
        match e {
            FailureElement::Link(l) => fault.links.push(*l),
            FailureElement::Device(d) => fault.devices.push(*d),
        }
    }
    fault
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Maximum simultaneous failures to certify (scenario sizes
    /// `1..=k` are all checked; `0` = judge only the healthy fabric).
    pub k: usize,
    /// Include device failures in the universe (links always are).
    pub include_devices: bool,
    /// Cap scenarios per size level. `None` keeps sizes 1–2
    /// exhaustive and samples 256 per level beyond.
    pub sample: Option<usize>,
    /// Seed for sampled levels (deterministic).
    pub seed: u64,
    /// Scenario-driver worker threads (0 = the sweeper's configured
    /// thread count).
    pub threads: usize,
    /// Keep sweeping past the first counterexample and report every
    /// failing scenario (equality testing; disables early exit).
    pub exhaustive: bool,
    /// What disqualifies a scenario.
    pub condition: FailCondition,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            k: 1,
            include_devices: false,
            sample: None,
            seed: 0,
            threads: 0,
            exhaustive: false,
            condition: FailCondition::AnyViolation,
        }
    }
}

/// A minimal failing scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The ddmin-minimized failure set: removing any one element makes
    /// the contracts pass again.
    pub scenario: Vec<FailureElement>,
    /// The originally discovered failing scenario (a superset).
    pub found: Vec<FailureElement>,
    /// Condition-matching violations under the minimized scenario.
    pub violations: usize,
    /// Devices whose FIBs change under the minimized scenario.
    pub changed_devices: usize,
}

/// The sweep's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RobustnessVerdict {
    /// Every checked scenario of size `<= k` satisfies the condition.
    Robust(usize),
    /// Some scenario fails; here is a minimal one.
    Counterexample(Counterexample),
}

impl std::fmt::Display for RobustnessVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustnessVerdict::Robust(k) => write!(f, "Robust({k})"),
            RobustnessVerdict::Counterexample(c) => {
                write!(f, "counterexample of {} failure(s)", c.scenario.len())
            }
        }
    }
}

/// Everything a sweep did and decided.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The verdict.
    pub verdict: RobustnessVerdict,
    /// The `k` that was swept.
    pub k: usize,
    /// The condition scenarios were judged against.
    pub condition: FailCondition,
    /// Scenarios evaluated (including the healthy baseline).
    pub scenarios_checked: usize,
    /// Every failing scenario, in enumeration order (exhaustive mode
    /// only; otherwise just the first).
    pub failing: Vec<Vec<FailureElement>>,
    /// Per-device delta validations performed: one per device a
    /// scenario changed.
    pub devices_revalidated: usize,
    /// Per-device verdicts reused while converging anchors. A sweep
    /// converges none beyond the healthy root and a scenario
    /// revalidates every device it changes, so this is 0.
    pub verdicts_reused: usize,
    /// Aggregated restart work counters across all scenarios.
    pub restart: RestartStats,
    /// Wall-clock time for the whole sweep.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Did the sweep certify robustness?
    pub fn is_robust(&self) -> bool {
        matches!(self.verdict, RobustnessVerdict::Robust(_))
    }
}

/// One scenario's evaluation (the unit the difftest oracle
/// cross-checks against brute force).
#[derive(Debug, Clone)]
pub struct ScenarioCheck {
    /// Does the scenario fail the condition?
    pub fails: bool,
    /// Condition-matching violations across the whole fabric.
    pub matching_violations: usize,
    /// Changed devices and their new validation reports.
    pub changed: Vec<(DeviceId, ValidationReport)>,
    /// Restart work counters.
    pub stats: RestartStats,
    /// Devices delta-validated for this scenario: all of `changed`.
    pub revalidated: usize,
    /// Verdicts reused from an anchor's convergence; 0 for a scenario.
    pub reused: usize,
}

/// The k-failure robustness sweeper. Build one with
/// [`ValidatorBuilder::build_whatif`](crate::ValidatorBuilder::build_whatif).
pub struct WhatIfSweeper {
    /// The shared state-evaluation core; its root anchor is the
    /// healthy fabric every scenario restarts from.
    explorer: Explorer,
    /// `rcdc_whatif_delta_devices` (the one family only sweeps export).
    delta_devices: Option<obskit::Histogram>,
}

/// What one `sweep` / `check_scenario` call judges scenarios with.
struct Scope<'a> {
    judge: Judge<'a>,
    /// The healthy fabric's offending counts, computed once per call
    /// so a scenario only recounts its changed devices.
    healthy: Tally,
}

impl WhatIfSweeper {
    pub(crate) fn new(explorer: Explorer, registry: Option<&Registry>) -> WhatIfSweeper {
        WhatIfSweeper {
            explorer,
            delta_devices: registry.map(|r| {
                r.histogram(
                    "rcdc_whatif_delta_devices",
                    "devices whose FIB changed per scenario",
                    &[],
                )
            }),
        }
    }

    /// The healthy baseline the scenarios restart from.
    pub fn baseline(&self) -> &Baseline {
        &self.explorer.root().baseline
    }

    /// The healthy per-device validation reports (scenario priors).
    pub fn healthy_reports(&self) -> &[ValidationReport] {
        &self.explorer.root().reports
    }

    /// Resolve `condition` once, on the caller's thread.
    ///
    /// # Panics
    ///
    /// On a risk-ranked condition without metadata (`sweep` and
    /// `check_scenario` have no error channel).
    fn scope(&self, condition: FailCondition) -> Scope<'_> {
        let judge = self
            .explorer
            .judge(condition, HashSet::new())
            .unwrap_or_else(|e| panic!("{e}"));
        Scope {
            healthy: Tally::of(&judge, self.healthy_reports()),
            judge,
        }
    }

    /// Evaluate one scenario incrementally: restart the fixed point,
    /// delta-validate only the changed devices, judge the condition.
    pub fn check_scenario(
        &self,
        elems: &[FailureElement],
        condition: FailCondition,
    ) -> ScenarioCheck {
        let (matching, delta) = self.eval(elems, &self.scope(condition));
        ScenarioCheck {
            fails: matching > 0,
            matching_violations: matching,
            revalidated: delta.changed.len(),
            reused: 0,
            changed: delta.changed,
            stats: delta.stats,
        }
    }

    /// The full per-device report vector a scenario induces: the
    /// healthy reports with the changed devices' verdicts spliced in.
    pub fn spliced_reports(&self, check: &ScenarioCheck) -> Vec<ValidationReport> {
        let mut out = self.healthy_reports().to_vec();
        for (d, r) in &check.changed {
            out[d.0 as usize] = r.clone();
        }
        out
    }

    /// One scenario's offending-violation count and state delta.
    fn eval(&self, elems: &[FailureElement], scope: &Scope) -> (usize, StateDelta) {
        let delta = self.explorer.restart(self.explorer.root(), &to_fault(elems));
        let matching = scope.healthy.spliced(&scope.judge, &delta.changed);
        self.explorer.record_outcome(matching > 0);
        if let Some(h) = &self.delta_devices {
            h.record(delta.changed.len() as u64);
        }
        (matching, delta)
    }

    /// The failure universe: every session-up link, plus (optionally)
    /// every device.
    pub fn universe(&self, include_devices: bool) -> Vec<FailureElement> {
        let t = self.baseline().topology();
        let mut u: Vec<FailureElement> = t
            .links()
            .iter()
            .filter(|l| l.state.session_up())
            .map(|l| FailureElement::Link(l.id))
            .collect();
        if include_devices {
            u.extend(t.devices().iter().map(|d| FailureElement::Device(d.id)));
        }
        u
    }

    /// Run the sweep: certify `Robust(k)` or return a ddmin-minimal
    /// counterexample. Deterministic at any thread count — the
    /// reported counterexample is always minimized from the first
    /// failing scenario in enumeration order.
    pub fn sweep(&self, opts: &SweepOptions) -> SweepReport {
        let start = Instant::now();
        let scope = self.scope(opts.condition);
        let threads = self.explorer.threads_or(opts.threads);
        let mut totals = Totals::default();
        let mut failing: Vec<Vec<FailureElement>> = Vec::new();

        // Level 0: the healthy fabric itself (k=0 ≡ a plain sweep).
        let (matching, healthy) = self.eval(&[], &scope);
        totals.add(&healthy);
        if matching > 0 {
            failing.push(Vec::new());
        }

        if failing.is_empty() || opts.exhaustive {
            let universe = self.universe(opts.include_devices);
            for size in 1..=opts.k {
                let scenarios: Vec<Vec<FailureElement>> =
                    level_combos(universe.len(), size, opts)
                        .iter()
                        .map(|c| c.iter().map(|&i| universe[i as usize]).collect())
                        .collect();
                let level = self.run_level(&scenarios, &scope, threads, opts.exhaustive);
                totals.merge(&level.totals);
                failing.extend(level.failing.iter().map(|&i| scenarios[i].clone()));
                if !failing.is_empty() && !opts.exhaustive {
                    break;
                }
            }
        }

        // Failing scenarios are recorded in enumeration order, so the
        // first is the one every thread count agrees on.
        let verdict = match failing.first().cloned() {
            None => RobustnessVerdict::Robust(opts.k),
            Some(found) => {
                let mut minimized = shrink_list(&found, |subset| self.eval(subset, &scope).0 > 0);
                minimized.sort_by_key(FailureElement::sort_key);
                let (violations, delta) = self.eval(&minimized, &scope);
                RobustnessVerdict::Counterexample(Counterexample {
                    scenario: minimized,
                    found,
                    violations,
                    changed_devices: delta.changed.len(),
                })
            }
        };
        SweepReport {
            verdict,
            k: opts.k,
            condition: opts.condition,
            scenarios_checked: totals.states,
            failing,
            devices_revalidated: totals.revalidated,
            verdicts_reused: totals.reused,
            restart: totals.restart,
            elapsed: start.elapsed(),
        }
    }

    /// Evaluate one size level, in parallel, with deterministic
    /// early exit: the minimum failing index is exact because every
    /// worker scans its indices in ascending order and only skips
    /// indices above an already-recorded failure.
    fn run_level(
        &self,
        scenarios: &[Vec<FailureElement>],
        scope: &Scope,
        threads: usize,
        exhaustive: bool,
    ) -> LevelResult {
        let threads = threads.max(1).min(scenarios.len().max(1));
        let run_worker = |worker: usize, first_fail: &AtomicUsize| -> LevelResult {
            let mut out = LevelResult::default();
            let mut i = worker;
            while i < scenarios.len() {
                if !exhaustive && i > first_fail.load(Ordering::Relaxed) {
                    break;
                }
                let (matching, delta) = self.eval(&scenarios[i], scope);
                out.totals.add(&delta);
                if matching > 0 {
                    if !exhaustive {
                        first_fail.fetch_min(i, Ordering::Relaxed);
                    }
                    out.failing.push(i);
                }
                i += threads;
            }
            out
        };
        let first_fail = AtomicUsize::new(usize::MAX);
        let mut merged = if threads <= 1 {
            run_worker(0, &first_fail)
        } else {
            let (run_worker, first_fail) = (&run_worker, &first_fail);
            let results: Vec<LevelResult> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| s.spawn(move || run_worker(w, first_fail)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut merged = LevelResult::default();
            for r in results {
                merged.totals.merge(&r.totals);
                merged.failing.extend(r.failing);
            }
            merged
        };
        merged.failing.sort_unstable();
        merged
    }
}

/// One size level's outcome: the work done and the failing scenario
/// indices, ascending.
#[derive(Default)]
struct LevelResult {
    totals: Totals,
    failing: Vec<usize>,
}

/// Is `C(n, size)` strictly greater than `cap`?
fn combos_exceed(n: usize, size: usize, cap: usize) -> bool {
    if size > n {
        return false;
    }
    let mut c: u128 = 1;
    for i in 0..size {
        c = c * (n - i) as u128 / (i + 1) as u128;
        if c > cap as u128 {
            return true;
        }
    }
    c > cap as u128
}

/// All `size`-combinations of `0..n`, lexicographic.
fn all_combos(n: usize, size: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    if size == 0 || size > n {
        return out;
    }
    let mut idx: Vec<u32> = (0..size as u32).collect();
    loop {
        out.push(idx.clone());
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] < (n - size + i) as u32 {
                idx[i] += 1;
                for j in (i + 1)..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// `count` distinct `size`-combinations of `0..n`, seeded and sorted
/// (deterministic across runs and thread counts).
fn sampled_combos(n: usize, size: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (size as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut attempts = 0usize;
    while seen.len() < count && attempts < count.saturating_mul(30) {
        attempts += 1;
        let mut pick: Vec<u32> = Vec::with_capacity(size);
        while pick.len() < size {
            let c = rng.gen_range(0..n as u32);
            if !pick.contains(&c) {
                pick.push(c);
            }
        }
        pick.sort_unstable();
        seen.insert(pick);
    }
    let mut out: Vec<Vec<u32>> = seen.into_iter().collect();
    out.sort();
    out
}

/// The scenario index list for one size level: exhaustive for sizes
/// 1–2 (unless `sample` caps them), sampled beyond (default 256).
fn level_combos(n: usize, size: usize, opts: &SweepOptions) -> Vec<Vec<u32>> {
    let cap = match opts.sample {
        Some(s) => Some(s),
        None if size > 2 => Some(256),
        None => None,
    };
    match cap {
        Some(c) if combos_exceed(n, size, c) => sampled_combos(n, size, c, opts.seed),
        _ => all_combos(n, size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::pipeline::{DeviceStore, ValidateMode};
    use crate::report::{Risk, ViolationReason};
    use crate::validator::Validator;
    use bgpsim::{simulate, SimConfig};
    use dctopo::generator::figure3;
    use dctopo::{LinkState, MetadataService};

    fn fig3_sweeper() -> (dctopo::generator::Figure3, WhatIfSweeper) {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let sweeper = Validator::new(&meta).build_whatif(&f.topology, &SimConfig::healthy());
        (f, sweeper)
    }

    #[test]
    fn combinatorics_helpers() {
        assert_eq!(all_combos(4, 2).len(), 6);
        assert_eq!(all_combos(3, 3), vec![vec![0, 1, 2]]);
        assert!(all_combos(2, 3).is_empty());
        assert!(combos_exceed(10, 3, 100));
        assert!(!combos_exceed(10, 3, 120));
        let s = sampled_combos(10, 3, 20, 7);
        assert_eq!(s.len(), 20);
        assert_eq!(s, sampled_combos(10, 3, 20, 7), "sampling is seeded");
        for c in &s {
            assert_eq!(c.len(), 3);
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn k0_matches_plain_sweep() {
        // Healthy fabric: Robust(0) iff a plain validator pass is
        // clean; a faulted baseline yields the empty counterexample.
        let (f, sweeper) = fig3_sweeper();
        let report = sweeper.sweep(&SweepOptions {
            k: 0,
            ..SweepOptions::default()
        });
        assert_eq!(report.verdict, RobustnessVerdict::Robust(0));

        let meta = MetadataService::from_topology(&f.topology);
        let config = SimConfig::healthy().with_default_reject(f.tors[0]);
        let plain = Validator::new(&meta)
            .build()
            .run(&simulate(&f.topology, &config));
        assert!(!plain.is_clean());
        let faulted = Validator::new(&meta).build_whatif(&f.topology, &config);
        let report = faulted.sweep(&SweepOptions {
            k: 0,
            ..SweepOptions::default()
        });
        match report.verdict {
            RobustnessVerdict::Counterexample(c) => {
                assert!(c.scenario.is_empty(), "baseline failure needs no failures");
            }
            v => panic!("faulted baseline must not certify: {v}"),
        }
    }

    #[test]
    fn any_violation_k1_finds_single_link_counterexample() {
        // Contracts mirror the expected topology, so under the strict
        // condition any single link failure is already a violation.
        let (f, sweeper) = fig3_sweeper();
        let report = sweeper.sweep(&SweepOptions {
            k: 1,
            ..SweepOptions::default()
        });
        match &report.verdict {
            RobustnessVerdict::Counterexample(c) => {
                assert_eq!(c.scenario.len(), 1, "ddmin must keep exactly one failure");
                assert!(c.violations > 0);
            }
            v => panic!("figure-3 is not any-violation robust: {v}"),
        }
        let _ = report.verdict.to_string();
        let _ = f;
    }

    #[test]
    fn blackhole_counterexample_is_minimal_and_real() {
        // Figure-3 leaves reach the default via a single spine, so one
        // leaf-spine link failure blackholes that leaf.
        let (f, sweeper) = fig3_sweeper();
        let report = sweeper.sweep(&SweepOptions {
            k: 1,
            condition: FailCondition::Blackhole,
            ..SweepOptions::default()
        });
        let c = match report.verdict {
            RobustnessVerdict::Counterexample(c) => c,
            v => panic!("figure-3 leaves have single-homed defaults: {v}"),
        };
        assert_eq!(c.scenario.len(), 1);
        // Minimality: the empty subset passes.
        assert!(!sweeper.check_scenario(&[], FailCondition::Blackhole).fails);
        // The reported scenario really fails, incrementally and from
        // scratch.
        let check = sweeper.check_scenario(&c.scenario, FailCondition::Blackhole);
        assert!(check.fails);
        let mut faulted = f.topology.clone();
        to_fault(&c.scenario).apply(&mut faulted);
        let meta = MetadataService::from_topology(&f.topology);
        let cold = Validator::new(&meta)
            .build()
            .run(&simulate(&faulted, &SimConfig::healthy()));
        let blackholes = cold
            .reports
            .iter()
            .flat_map(|r| &r.violations)
            .filter(|v| matches!(v.reason, ViolationReason::MissingDefault))
            .count();
        assert_eq!(check.matching_violations, blackholes);
    }

    #[test]
    fn risk_condition_orders_strictness() {
        // high-only is no stricter than medium, which is no stricter
        // than any violation at all.
        let (_f, sweeper) = fig3_sweeper();
        let counts: Vec<usize> = [
            FailCondition::AnyViolation,
            FailCondition::AtLeast(Risk::Medium),
            FailCondition::AtLeast(Risk::High),
        ]
        .iter()
        .map(|&condition| {
            let universe = sweeper.universe(false);
            universe
                .iter()
                .filter(|&&e| sweeper.check_scenario(&[e], condition).fails)
                .count()
        })
        .collect();
        assert!(counts[0] >= counts[1] && counts[1] >= counts[2], "{counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn scenario_element_order_is_irrelevant() {
        let (f, sweeper) = fig3_sweeper();
        let l1 = FailureElement::Link(f.topology.link_between(f.tors[0], f.a[0]).unwrap().id);
        let l2 = FailureElement::Link(f.topology.link_between(f.a[0], f.d[0]).unwrap().id);
        let d = FailureElement::Device(f.tors[2]);
        let fwd = sweeper.check_scenario(&[l1, l2, d], FailCondition::AnyViolation);
        let rev = sweeper.check_scenario(&[d, l2, l1], FailCondition::AnyViolation);
        assert_eq!(fwd.fails, rev.fails);
        assert_eq!(fwd.matching_violations, rev.matching_violations);
        assert_eq!(fwd.changed.len(), rev.changed.len());
        for ((da, ra), (db, rb)) in fwd.changed.iter().zip(&rev.changed) {
            assert_eq!(da, db);
            assert_eq!(ra.violations, rb.violations);
        }
    }

    #[test]
    fn verdict_memo_and_cache_keys_are_sound_across_fault_contexts() {
        // Satellite check: the pipeline's verdict key is (fib_hash, epoch).
        // Two different fault scenarios can produce the *same* FIB
        // content for a device; the cached verdict must still be
        // correct, because validation is pure in the FIB bytes and the
        // contract set — the fault context is not an input. The
        // planner's cross-anchor verdict memo relies on exactly this
        // purity.
        let (f, sweeper) = fig3_sweeper();
        let meta = MetadataService::from_topology(&f.topology);
        let tor1_leaf = f.topology.link_between(f.tors[1], f.a[0]).unwrap().id;
        let far_link = f.topology.link_between(f.tors[3], f.b[0]).unwrap().id;
        let s1 = [FailureElement::Link(tor1_leaf)];
        let s2 = [FailureElement::Link(tor1_leaf), FailureElement::Link(far_link)];
        let c1 = sweeper.check_scenario(&s1, FailCondition::AnyViolation);
        let c2 = sweeper.check_scenario(&s2, FailCondition::AnyViolation);
        let fib1 = c1.changed.iter().find(|(d, _)| *d == f.tors[1]);
        let fib2 = c2.changed.iter().find(|(d, _)| *d == f.tors[1]);
        let (r1, r2) = (&fib1.unwrap().1, &fib2.unwrap().1);
        assert_eq!(r1.violations, r2.violations);

        // Same device, same FIB content, different fault contexts: a
        // cache hit returns the stored report, and it matches a fresh
        // validation byte for byte.
        let out1 = sweeper.baseline().resimulate(&to_fault(&s1));
        let out2 = sweeper.baseline().resimulate(&to_fault(&s2));
        let find = |out: &bgpsim::ScenarioFibs| {
            out.changed
                .iter()
                .find(|(d, _)| *d == f.tors[1])
                .map(|(_, fib)| fib.clone())
                .unwrap()
        };
        let (fib_a, fib_b) = (find(&out1), find(&out2));
        assert_eq!(fib_a, fib_b, "the two scenarios must collide on content");
        let store = DeviceStore::default();
        let contracts = crate::generate_contracts(&meta);
        let (engine, clock) = (crate::TrieEngine::new(), crate::RealClock::new());
        let du = f.tors[1].0 as usize;
        store.publish(f.tors[1], contracts[du].clone());
        let judge = |fib: &bgpsim::Fib| {
            let r = store.judge(f.tors[1], Some(fib.clone()), &engine, &clock);
            r.expect("contracts are published")
        };
        let stored = judge(&fib_a);
        assert_eq!(stored.mode, ValidateMode::Full);
        assert_eq!(*stored.report, engine.validate_device(&fib_a, &contracts[du]));
        let hit = judge(&fib_b);
        assert_eq!(hit.mode, ValidateMode::CacheHit, "identical content must hit");
        assert_eq!(*hit.report, engine.validate_device(&fib_b, &contracts[du]));
        assert_eq!(hit.report, stored.report);
    }

    /// The counters a sweep reports, as one comparable tuple.
    fn counters(r: &SweepReport) -> (usize, usize, usize, RestartStats) {
        (
            r.scenarios_checked,
            r.devices_revalidated,
            r.verdicts_reused,
            r.restart,
        )
    }

    #[test]
    fn sweep_counters_are_pinned() {
        // Golden values: the ledger's `whatif_k2` throughput is
        // scenarios per second, so a change that silently visits other
        // states, or revalidates more of them, must fail here rather
        // than read as a change in speed.
        let (_f, sweeper) = fig3_sweeper();
        let exhaustive = sweeper.sweep(&SweepOptions {
            k: 2,
            exhaustive: true,
            threads: 1,
            condition: FailCondition::Blackhole,
            ..SweepOptions::default()
        });
        let restart = |prefixes, patched, repropagated, devices_changed, rules_touched| {
            RestartStats {
                prefixes,
                patched,
                repropagated,
                devices_changed,
                rules_touched,
            }
        };
        // Every changed device is revalidated (1588 + the 4160 the
        // cross-scenario memo used to answer: restarted states are no
        // longer hashed), and level 0 — the empty fault — no longer
        // walks the 5-prefix work list (2645 - 5).
        assert_eq!(
            counters(&exhaustive),
            (529, 5748, 0, restart(2640, 1120, 1504, 5748, 11332))
        );
        let topology = dctopo::build_clos(&dctopo::ClosParams {
            clusters: 2,
            tors_per_cluster: 4,
            leaves_per_cluster: 4,
            spines: 12,
            regional_spines: 4,
            regional_groups: 2,
            prefixes_per_tor: 1,
        });
        let meta = MetadataService::from_topology(&topology);
        let sweeper = Validator::new(&meta).build_whatif(&topology, &SimConfig::healthy());
        let sampled = sweeper.sweep(&SweepOptions {
            k: 2,
            sample: Some(12),
            seed: 7,
            threads: 1,
            condition: FailCondition::Blackhole,
            ..SweepOptions::default()
        });
        assert_eq!(sampled.verdict, RobustnessVerdict::Robust(2));
        // Same two reasons: 224 + 21 memo hits = 245, 225 - 9.
        assert_eq!(
            counters(&sampled),
            (25, 245, 0, restart(216, 174, 42, 245, 585))
        );
    }

    /// A sweeper built from bare contracts: no metadata to rank risk.
    fn fig3_sweeper_without_metadata() -> WhatIfSweeper {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        Validator::with_contracts(crate::generate_contracts(&meta))
            .build_whatif(&f.topology, &SimConfig::healthy())
    }

    #[test]
    #[should_panic(expected = "risk-ranked fail conditions require metadata")]
    fn risk_ranked_sweep_without_metadata_fails_on_the_callers_thread() {
        // The healthy fabric has no violation to judge, so the first
        // violation is judged inside a level worker at `threads: 4`. A
        // panic there reaches the caller as `join().unwrap()` on `Any`;
        // the condition must be rejected before any worker starts.
        fig3_sweeper_without_metadata().sweep(&SweepOptions {
            k: 1,
            threads: 4,
            condition: FailCondition::AtLeast(Risk::High),
            ..SweepOptions::default()
        });
    }

    #[test]
    #[should_panic(expected = "risk-ranked fail conditions require metadata")]
    fn risk_ranked_scenario_check_without_metadata_panics_up_front() {
        // No failure at all: nothing would ever have been judged.
        fig3_sweeper_without_metadata().check_scenario(&[], FailCondition::AtLeast(Risk::Low));
    }

    #[test]
    fn sweep_handles_already_down_links() {
        // A universe built on a degraded fabric only contains live
        // links; the down one is neither enumerated nor double-failed.
        let mut f = figure3();
        let down = f.topology.link_between(f.tors[0], f.a[3]).unwrap().id;
        f.topology.set_link_state(down, LinkState::OperDown);
        let meta = MetadataService::from_topology(&f.topology);
        let sweeper = Validator::new(&meta).build_whatif(&f.topology, &SimConfig::healthy());
        let universe = sweeper.universe(false);
        assert!(!universe.contains(&FailureElement::Link(down)));
        assert_eq!(universe.len(), f.topology.links().len() - 1);
    }
}
