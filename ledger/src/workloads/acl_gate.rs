//! `acl_gate` — SecGuru §3.3–3.4: the Figure-11 eight-change refactor
//! of a legacy edge ACL (`synthesize_legacy_acl(2500, 100)`) through
//! `execute_plan` with `edge_contracts()`, an `SmtDiff` of every
//! change, `SecGuru::check_all` on ACLs of about 130, 1 000 and 4 000
//! rules, and one planted contract-breaking change that the precheck
//! must reject. Fresh engines every repetition. The ACLs and changes are
//! the figure's and do not depend on the seed (which change deletes
//! which rules moves the solver's work by a quarter, and runs with
//! different seeds must be comparable); the seed picks the planted
//! change.
//!
//! Why: the only workload that enters `smtkit` and `secguru`. Every
//! RCDC-side optimisation must leave it flat, and a solver change
//! shows only here.

use crate::harness::{timed, Checks, Config, Layers, Rep, Workload};
use crate::rng::Rng;
use crate::trace::{subtree_self_times, Tracer};
use secguru::diff::{PolicyDiff, SmtDiff};
use secguru::refactor::{
    edge_contracts, execute_plan, synthesize_legacy_acl, Change, ChangeOutcome, ChangeRecord,
    DeviceGroup, RefactorPlan,
};
use secguru::{Policy, SecGuru};
use smtkit::SessionStats;
use std::hint::black_box;

const CHANGES: usize = 8;
/// The refactor removes every service and zero-day rule; what is left
/// of the Figure-8 skeleton.
const FINAL_RULES: usize = 21;
/// `execute_plan` × 8, a diff × 8, `check_all` × 3, the planted change.
const CHECKS_PER_REP: usize = CHANGES + CHANGES + 3 + 1;

struct Inputs {
    legacy: Policy,
    plan: RefactorPlan,
    /// Does change `i` delete a zero-day deny? Those, and only those,
    /// newly permit traffic.
    removes_deny: Vec<bool>,
    acls: [Policy; 3],
    planted: RefactorPlan,
}

fn build(cfg: &Config) -> Inputs {
    let scale = if cfg.quick { 10 } else { 1 };
    let legacy = synthesize_legacy_acl(2500 / scale, 100 / scale);
    let removable: Vec<String> = legacy
        .rules()
        .iter()
        .filter(|r| r.name.starts_with("svc-") || r.name.starts_with("zeroday-"))
        .map(|r| r.name.clone())
        .collect();
    let per_change = removable.len().div_ceil(CHANGES);
    let changes: Vec<Change> = removable
        .chunks(per_change)
        .enumerate()
        .map(|(i, chunk)| Change {
            description: format!("change-{i}"),
            remove: chunk.to_vec(),
            add: vec![],
        })
        .collect();
    let removes_deny = changes
        .iter()
        .map(|c| c.remove.iter().any(|n| n.starts_with("zeroday-")))
        .collect();
    let contracts = edge_contracts();
    Inputs {
        plan: RefactorPlan {
            changes,
            contracts: contracts.clone(),
        },
        removes_deny,
        acls: [
            synthesize_legacy_acl(100 / scale, 10 / scale),
            synthesize_legacy_acl(950 / scale, 40 / scale),
            synthesize_legacy_acl(3800 / scale, 150 / scale),
        ],
        // The three private source ranges are denied by one rule
        // each; without it the broad permits let that range in.
        planted: RefactorPlan {
            changes: vec![Change {
                description: "planted: drop a private-range deny".into(),
                remove: vec![format!("private-{}", 1 + Rng::new(cfg.seed, 5).below(3))],
                add: vec![],
            }],
            contracts,
        },
        legacy,
    }
}

fn run_plan(legacy: &Policy, plan: &RefactorPlan) -> Vec<ChangeRecord> {
    let mut groups = vec![DeviceGroup {
        name: "global".into(),
        deployed: legacy.clone(),
    }];
    execute_plan(legacy, plan, &mut groups, |_, p| p.clone())
}

#[derive(Default)]
pub struct AclGate {
    reps: u64,
}

impl Workload for AclGate {
    fn rep(&mut self, cfg: &Config, t: &mut Tracer, checks: &mut Checks) -> Rep {
        self.reps += 1;
        let setup = t.open_op("acl_gate.setup", self.reps);
        let (inputs, setup_s) = timed(|| build(cfg));
        t.close(setup);

        let mut stats = SessionStats::default();
        let body = t.open_op("acl_gate.body", self.reps);
        let ((records, diffs, failures, planted), body_s) = timed(|| {
            let span = t.open("secguru.execute_plan");
            let records = run_plan(&inputs.legacy, &inputs.plan);
            t.close(span);

            let mut diffs: Vec<PolicyDiff> = Vec::with_capacity(CHANGES);
            let mut current = inputs.legacy.clone();
            for change in &inputs.plan.changes {
                let span = t.open("secguru.diff");
                let next = change.apply(&current);
                let mut diff = SmtDiff::new(&current, &next);
                diffs.push(diff.diff());
                t.close(span);
                stats.absorb(&diff.stats());
                current = next;
            }

            let mut failures = Vec::with_capacity(inputs.acls.len());
            for acl in &inputs.acls {
                let span = t.open("secguru.check_all");
                let mut engine = SecGuru::new(acl.clone());
                failures.push(engine.check_all(&inputs.plan.contracts).len());
                t.close(span);
                stats.absorb(&engine.stats());
            }

            let span = t.open("secguru.execute_plan");
            let planted = run_plan(&inputs.legacy, &inputs.planted);
            t.close(span);
            (records, diffs, failures, planted)
        });
        t.close(body);
        black_box(&records);

        // Known answers, one per ACL check.
        for (i, r) in records.iter().enumerate() {
            checks.expect(r.outcome == ChangeOutcome::Deployed, || {
                format!("change {i}: {:?}, expected Deployed", r.outcome)
            });
        }
        let last = records.last().map_or(0, |r| r.rule_count);
        checks.expect(records.len() == CHANGES && last == FINAL_RULES, || {
            format!(
                "{} changes ending at {last} rules, expected {CHANGES} ending at {FINAL_RULES}",
                records.len()
            )
        });
        for (i, (d, &removes_deny)) in diffs.iter().zip(&inputs.removes_deny).enumerate() {
            let ok = d.newly_denied.is_none() && d.newly_permitted.is_some() == removes_deny;
            checks.expect(ok, || {
                format!("diff of change {i}: {d:?}; deletes a zero-day deny: {removes_deny}")
            });
        }
        for (acl, &failed) in inputs.acls.iter().zip(&failures) {
            checks.expect(failed == 0, || {
                format!("{failed} edge contracts fail on the {}-rule ACL", acl.len())
            });
        }
        checks.expect(
            matches!(planted.as_slice(), [r] if matches!(r.outcome, ChangeOutcome::PrecheckRejected(_))),
            || format!("planted contract-breaking change: {:?}", planted.first().map(|r| &r.outcome)),
        );

        let layers = t.enabled().then(|| {
            let mut l = Layers::default();
            l.set(
                "secguru.execute_plan_s",
                t.total_s_under(body, "secguru.execute_plan"),
            );
            l.set("secguru.diff_s", t.total_s_under(body, "secguru.diff"));
            l.set(
                "secguru.check_all_s",
                t.total_s_under(body, "secguru.check_all"),
            );
            // From the engines the benchmark holds: the diffs and the
            // three `check_all` engines. `execute_plan` keeps its own.
            l.set("smtkit.conflicts", stats.conflicts as f64);
            l.set("smtkit.propagations", stats.propagations as f64);
            let lookups = stats.blast_cache_hits + stats.blast_cache_misses;
            l.set(
                "smtkit.blast_cache_hit_ratio",
                stats.blast_cache_hits as f64 / lookups.max(1) as f64,
            );
            let (_, closure) = subtree_self_times(t.spans(), body);
            l.set("bench.trace_closure_pct", 100.0 * closure);
            l
        });

        Rep {
            setup_s,
            verdict_s: body_s,
            ops_per_s: CHECKS_PER_REP as f64 / body_s,
            measured_s: body_s,
            layers,
        }
    }

    fn setup_only(&mut self, cfg: &Config) -> Option<f64> {
        let (inputs, s) = timed(|| build(cfg));
        black_box(inputs.legacy);
        Some(s)
    }

    /// The solver's watch lists live in the first- and second-level
    /// caches a sibling hardware thread shares, so a busy neighbour
    /// costs it more than it costs the calibration slice: over 116
    /// recorded repetitions and the acceptance runs its body followed
    /// the slice's slowdown to the power 1.4.
    fn sensitivity(&self) -> f64 {
        1.3
    }
}
