//! Deterministic rendering of every `validatedc` report.
//!
//! Factored out of the CLI so the exact operator-facing text is
//! golden-snapshot-tested: everything here is a pure function of a
//! verb's result (wall-clock time is the caller's optional suffix), so
//! the same datacenter must render byte-identically forever — or the
//! golden file must be re-blessed consciously. Every function returns
//! whole lines, newline included.

use crate::serve::ServeReport;
use dctopo::{DeviceId, LinkState, MetadataService, Topology};
use rcdc::classify::classify_device;
use rcdc::report::risk_of;
use rcdc::rollout::{ConfigChange, OrderCheck, PlanReport, PlanVerdict};
use rcdc::runner::DatacenterReport;
use rcdc::whatif::{RobustnessVerdict, SweepReport};
use secguru::diff::PolicyDiff;
use secguru::engine::CheckOutcome;
use std::fmt::Write;
use std::time::Duration;

/// Dirty devices listed before the report truncates.
const MAX_DEVICES_SHOWN: usize = 20;

/// Render the validation summary, solver totals and triaged dirty-device
/// list exactly as the CLI prints them. `elapsed` appends wall-clock
/// time to the summary line when given (the CLI passes it; golden tests
/// do not, keeping the output deterministic).
pub fn render_validate_report(
    report: &DatacenterReport,
    topology: &Topology,
    meta: &MetadataService,
    elapsed: Option<Duration>,
) -> String {
    let mut out = String::new();
    write!(
        out,
        "checked {} contracts on {} devices",
        report.contracts_checked(),
        topology.devices().len()
    )
    .unwrap();
    if let Some(elapsed) = elapsed {
        write!(out, " in {elapsed:?}").unwrap();
    }
    writeln!(
        out,
        ": {} violations on {} devices",
        report.total_violations(),
        report.dirty_devices()
    )
    .unwrap();
    let solver = report.solver_totals();
    if solver.queries > 0 {
        writeln!(
            out,
            "solver: {} queries, {} conflicts, {} propagations, {} learned clauses, \
             {} blast-cache hits / {} misses",
            solver.queries,
            solver.conflicts,
            solver.propagations,
            solver.learned,
            solver.blast_cache_hits,
            solver.blast_cache_misses
        )
        .unwrap();
    }
    let mut shown = 0;
    for (i, r) in report.reports.iter().enumerate() {
        if r.is_clean() {
            continue;
        }
        let device = DeviceId(i as u32);
        let risk = r
            .violations
            .iter()
            .map(|v| risk_of(v, meta))
            .max()
            .unwrap();
        let cause = classify_device(device, r, topology, meta)
            .map(|c| format!("{:?}", c.cause))
            .unwrap_or_default();
        writeln!(
            out,
            "  [{risk:?}] {} — {} violations — {}",
            meta.device(device).name,
            r.violations.len(),
            cause
        )
        .unwrap();
        shown += 1;
        if shown >= MAX_DEVICES_SHOWN {
            writeln!(out, "  … ({} more dirty devices)", report.dirty_devices() - shown).unwrap();
            break;
        }
    }
    out
}

/// Render a `whatif` sweep: work done, then the `Robust(k)`
/// certificate or the minimal counterexample. `exhaustive` (the sweep
/// ran past its first counterexample) adds the failing-scenario count;
/// `elapsed` appends wall-clock time and throughput to the first line.
pub fn render_whatif(
    report: &SweepReport,
    topology: &Topology,
    exhaustive: bool,
    elapsed: Option<Duration>,
) -> String {
    let (condition, checked, work) = (report.condition, report.scenarios_checked, report.restart);
    let mut out = format!("checked {checked} scenarios");
    if let Some(elapsed) = elapsed {
        let secs = elapsed.as_secs_f64().max(1e-9);
        let rate = checked as f64 / secs;
        write!(out, " in {secs:.2}s — {rate:.0} scenarios/s").unwrap();
    }
    writeln!(
        out,
        "\nrestart: {} rules touched on {} devices ({} prefixes patched, \
         {} repropagated); {} devices revalidated",
        work.rules_touched,
        work.devices_changed,
        work.patched,
        work.repropagated,
        report.devices_revalidated,
    )
    .unwrap();
    match &report.verdict {
        RobustnessVerdict::Robust(k) => writeln!(
            out,
            "VERDICT: Robust({k}) — no checked scenario of <= {k} failure(s) \
             violates condition '{condition}'"
        )
        .unwrap(),
        RobustnessVerdict::Counterexample(c) => {
            let (failures, found) = (c.scenario.len(), c.found.len().max(c.scenario.len()));
            writeln!(
                out,
                "VERDICT: counterexample — {failures} failure(s) violate condition '{condition}':"
            )
            .unwrap();
            for element in &c.scenario {
                writeln!(out, "  - {}", element.render(topology)).unwrap();
            }
            writeln!(
                out,
                "  -> {} matching violation(s), {} device FIB(s) changed (minimized \
                 from {found} failure(s); removing any listed failure passes)",
                c.violations, c.changed_devices,
            )
            .unwrap();
        }
    }
    if exhaustive && report.failing.len() > 1 {
        let failing = report.failing.len();
        writeln!(out, "exhaustive mode: {failing} failing scenarios in total").unwrap();
    }
    out
}

/// One submitted change, by device name.
fn render_change(change: &ConfigChange, topology: &Topology) -> String {
    let name = |device| &topology.device(device).name;
    match change {
        ConfigChange::SetLinkState { link, state } => {
            let (link, up) = (topology.link(*link), matches!(state, LinkState::Up));
            let verb = if up { "bring up" } else { "shut" };
            format!("{verb} {} <-> {}", name(link.lo), name(link.hi))
        }
        ConfigChange::SetOverride { device, .. } => format!("override on {}", name(*device)),
    }
}

/// Render a `plan` run over `changes`: where the naive submit order
/// first fails, the search's work, then the safe plan or the minimal
/// unsafe change set. `elapsed` appends wall-clock time to the search
/// line.
pub fn render_plan(
    naive: &OrderCheck,
    report: &PlanReport,
    changes: &[ConfigChange],
    topology: &Topology,
    elapsed: Option<Duration>,
) -> String {
    let condition = report.condition;
    let mut out = match naive.first_unsafe {
        Some(step) => format!(
            "naive submit order: UNSAFE at step {} ({}) — {} matching transient violation(s)\n",
            step + 1,
            render_change(&changes[step], topology),
            naive.transient,
        ),
        None => "naive submit order: already safe at every step\n".to_string(),
    };
    let states = report.states_evaluated;
    write!(out, "searched {states} intermediate state(s)").unwrap();
    if let Some(elapsed) = elapsed {
        write!(out, " in {:.2}s", elapsed.as_secs_f64()).unwrap();
    }
    let aborted = if report.search_exhausted {
        ""
    } else {
        " (search aborted at the backtrack budget)"
    };
    writeln!(
        out,
        " — {} devices revalidated, {} verdicts reused, {} anchors, \
         {} dead-prefix hits, {} backtracks{aborted}",
        report.devices_revalidated,
        report.verdicts_reused,
        report.anchors_built,
        report.dead_prefix_hits,
        report.backtracks,
    )
    .unwrap();
    match &report.verdict {
        PlanVerdict::Safe(steps) => {
            writeln!(
                out,
                "VERDICT: safe plan — {} step(s), every intermediate state satisfies '{condition}'",
                steps.len()
            )
            .unwrap();
            for (i, step) in steps.iter().enumerate() {
                let change = render_change(&step.change, topology);
                writeln!(out, "  {}. {change}", i + 1).unwrap();
            }
        }
        PlanVerdict::Unsafe(u) => {
            writeln!(
                out,
                "VERDICT: no safe ordering — minimal unsafe change set \
                 ({} of {} change(s); removing any one makes the rest orderable):",
                u.prefix.len(),
                changes.len()
            )
            .unwrap();
            for step in &u.prefix {
                writeln!(out, "  - {}", render_change(&step.change, topology)).unwrap();
            }
            for v in u.transient.iter().take(4) {
                let device = &topology.device(v.device).name;
                writeln!(out, "  -> {device} prefix {}: {}", v.prefix, v.reason).unwrap();
            }
        }
    }
    out
}

/// Render a `serve` run: fleet size, the cold sweep, each churn round,
/// the restore round and the notification→verdict latency.
pub fn render_serve(report: &ServeReport) -> String {
    let (devices, shards, churn) = (report.devices, report.shards, report.churn);
    let mut out = format!("serve: {devices} devices across {shards} shards\n");
    writeln!(out, "cold sweep done: {} dirty devices", report.cold_dirty).unwrap();
    for (i, (dirty, alerts)) in report.rounds.iter().enumerate() {
        let round = i + 1;
        let outcome = format!("{dirty} dirty, {alerts} high-risk alerts");
        writeln!(out, "round {round}: {churn} churn events, {outcome}").unwrap();
    }
    writeln!(out, "restore round: {} dirty devices", report.restore_dirty).unwrap();
    let latency = "rcdc_service_notify_latency_ns";
    let h = report.snapshot.histogram_total(latency, &[]);
    let (p50, p99) = (h.p50().unwrap_or(0) / 1_000, h.p99().unwrap_or(0) / 1_000);
    let quantiles = format!("p50 {p50}µs, p99 {p99}µs over {} verdicts", h.count);
    out + &format!("notification→verdict latency: {quantiles}\n")
}

/// Render a contract suite's failures, one `<word> …` line each
/// (`VIOLATED` for an ACL, `REJECTED` for an NSG update), or the
/// `clean` line when there are none.
pub fn render_failures(word: &str, failures: &[CheckOutcome], clean: &str) -> String {
    let mut out = String::new();
    for f in failures {
        let (contract, rule) = (&f.contract, f.violating_rule.as_deref().unwrap_or("?"));
        let witness = f.witness.map(|w| w.to_string()).unwrap_or_default();
        writeln!(out, "{word} {contract} — rule {rule} — witness {witness}").unwrap();
    }
    if failures.is_empty() {
        writeln!(out, "{clean}").unwrap();
    }
    out
}

/// Render a semantic ACL diff: a witness per changed direction, or the
/// equivalence statement.
pub fn render_diff(diff: &PolicyDiff) -> String {
    let mut out = String::new();
    if let Some(packet) = diff.newly_denied {
        writeln!(out, "newly DENIED traffic exists, e.g. {packet}").unwrap();
    }
    if let Some(packet) = diff.newly_permitted {
        writeln!(out, "newly PERMITTED traffic exists, e.g. {packet}").unwrap();
    }
    if diff.is_equivalent() {
        writeln!(out, "policies are semantically equivalent").unwrap();
    }
    out
}
