//! Oracle: the rollout planner's incremental state evaluation and
//! verdicts vs brute force.
//!
//! The planner ([`rcdc::RolloutPlanner`]) prices each explored
//! intermediate state as a delta — restart-patched fixed points from
//! general-subset anchors, changed devices revalidated as rule patches
//! against their anchor tables, and a cross-anchor `(device, fib hash)`
//! verdict memo. All of that reuse
//! must be invisible in the reports. This oracle builds a small seeded
//! fabric with a seeded maintenance scenario (uplink migration or rack
//! decommission, optionally mixed with device overrides), then:
//!
//! * cross-checks random change *subsets*: the planner's
//!   [`state_reports`](rcdc::RolloutPlanner::state_reports) against
//!   applying the subset to a clone, re-simulating from scratch, and
//!   validating cold — report for report, byte for byte;
//! * runs [`plan`](rcdc::RolloutPlanner::plan) and audits the answer
//!   by brute force: every prefix state of a safe plan must be free of
//!   disallowed condition-matching violations (with the allowed set —
//!   baseline plus, when accepted, final-state violations — itself
//!   recomputed from brute states), and an unsafe verdict's minimal
//!   change set must fail by brute force while every
//!   remove-one subset passes;
//! * replays the plan serial and parallel — the verdict, step for
//!   step, must not depend on the thread count.

use crate::Failure;
use bgpsim::{simulate, DeviceOverride};
use dctopo::generator::figure3;
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService};
use rcdc::report::risk_of;
use rcdc::rollout::{seeded_scenario, RolloutScenario};
use rcdc::shrink::shrink_list;
use rcdc::{
    ConfigChange, FailCondition, ManagedNetwork, PlanOptions, PlanVerdict, Risk, RolloutPlanner,
    ValidationReport, Validator, Violation, ViolationReason,
};
use simnet::rng::Rng;
use std::collections::HashSet;

/// The oracle's own reading of a fail condition, recomputed from raw
/// violations (independent of the planner's accounting).
fn violation_matches(v: &Violation, condition: FailCondition, meta: &MetadataService) -> bool {
    match condition {
        FailCondition::AnyViolation => true,
        FailCondition::Blackhole => matches!(v.reason, ViolationReason::MissingDefault),
        FailCondition::AtLeast(min) => risk_of(v, meta) >= min,
    }
}

/// Brute force: apply the change subset to a clone of production,
/// re-simulate the whole fabric from scratch, validate cold.
fn brute_reports(
    net: &ManagedNetwork,
    validator: &rcdc::validator::Validator,
    changes: &[ConfigChange],
) -> Vec<ValidationReport> {
    let mut m = net.clone();
    for c in changes {
        m.apply(c);
    }
    validator.run(&simulate(&m.topology, &m.config)).reports
}

/// Disallowed condition-matching violations in a brute state.
fn transient_count(
    reports: &[ValidationReport],
    condition: FailCondition,
    meta: &MetadataService,
    allowed: &HashSet<Violation>,
) -> usize {
    reports
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| violation_matches(v, condition, meta) && !allowed.contains(v))
        .count()
}

/// One subset, planner vs brute force. Returns the first disagreement.
fn check_subset_case(
    planner: &RolloutPlanner,
    validator: &rcdc::validator::Validator,
    net: &ManagedNetwork,
    subset: &[ConfigChange],
) -> Option<String> {
    let incremental = match planner.state_reports(subset) {
        Ok(r) => r,
        Err(e) => return Some(format!("state_reports rejected a valid subset: {e}")),
    };
    let brute = brute_reports(net, validator, subset);
    if incremental != brute {
        let first = incremental
            .iter()
            .zip(&brute)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(format!(
            "incremental state reports diverge from cold re-simulation at device {first}: \
             {:?} vs {:?}",
            incremental[first].violations, brute[first].violations
        ));
    }
    None
}

fn render(net: &ManagedNetwork, changes: &[ConfigChange]) -> String {
    let mut s = format!("fabric: {} devices\nchanges:\n", net.topology.len());
    for c in changes {
        match c {
            ConfigChange::SetLinkState { link, state } => {
                let l = &net.topology.links()[link.0 as usize];
                s.push_str(&format!(
                    "  {:?} {} <-> {}\n",
                    state,
                    net.topology.device(l.lo).name,
                    net.topology.device(l.hi).name
                ));
            }
            ConfigChange::SetOverride { device, config } => {
                s.push_str(&format!(
                    "  override {} = {config:?}\n",
                    net.topology.device(*device).name
                ));
            }
        }
    }
    s
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let topology = if r.chance(1, 2) {
        figure3().topology
    } else {
        let leaves = r.range(2, 4) as u32;
        build_clos(&ClosParams {
            clusters: r.range(1, 3) as u32,
            tors_per_cluster: r.range(2, 4) as u32,
            leaves_per_cluster: leaves,
            spines: leaves * r.range(1, 3) as u32,
            regional_spines: r.range(1, 3) as u32,
            regional_groups: 1,
            prefixes_per_tor: 1,
        })
    };
    let scenario = if r.chance(1, 2) {
        RolloutScenario::Migrate
    } else {
        RolloutScenario::Decommission
    };
    let (mut net, mut changes) = seeded_scenario(&topology, scenario, 1, r.below(1 << 32));
    // Sometimes production is already degraded (pre-existing
    // violations exercise the allowed-set semantics).
    if r.chance(1, 4) {
        let untouched: Vec<_> = net
            .topology
            .links()
            .iter()
            .filter(|l| {
                !changes.iter().any(
                    |c| matches!(c, ConfigChange::SetLinkState { link, .. } if *link == l.id),
                )
            })
            .map(|l| l.id)
            .collect();
        if !untouched.is_empty() {
            let id = *r.pick(&untouched);
            net.topology.set_link_state(id, LinkState::OperDown);
        }
    }
    // Mix in 0-2 device overrides (distinct targets, sometimes no-ops).
    let n = net.topology.len() as u64;
    for _ in 0..r.below(3) {
        let device = DeviceId(r.below(n) as u32);
        if changes
            .iter()
            .any(|c| matches!(c, ConfigChange::SetOverride { device: d, .. } if *d == device))
        {
            continue;
        }
        let config = match r.below(3) {
            0 => DeviceOverride::default(),
            1 => DeviceOverride {
                reject_default_import: true,
                ..DeviceOverride::default()
            },
            _ => DeviceOverride {
                max_ecmp: Some(r.range(1, 3) as usize),
                ..DeviceOverride::default()
            },
        };
        changes.push(ConfigChange::SetOverride { device, config });
    }

    let meta = MetadataService::from_topology(&net.topology);
    let planner = Validator::new(&meta).build_planner(&net);
    let validator = Validator::new(&meta).build();

    // Random subsets: incremental state evaluation vs brute force.
    for _ in 0..4 {
        let subset: Vec<ConfigChange> = changes
            .iter()
            .filter(|_| r.chance(1, 2))
            .cloned()
            .collect();
        if let Some(summary) = check_subset_case(&planner, &validator, &net, &subset) {
            let minimized = shrink_list(&subset, |sub| {
                check_subset_case(&planner, &validator, &net, sub).is_some()
            });
            return Err(Failure {
                summary,
                minimized: render(&net, &minimized),
            });
        }
    }

    // One full plan, audited against brute-force state evaluation.
    let condition = *r.pick(&[
        FailCondition::AnyViolation,
        FailCondition::Blackhole,
        FailCondition::AtLeast(Risk::High),
    ]);
    let accept_final = r.chance(3, 4);
    let opts = PlanOptions {
        condition,
        accept_final,
        threads: r.range(1, 5) as usize,
        ..PlanOptions::default()
    };
    let report = match planner.plan(&changes, &opts) {
        Ok(rep) => rep,
        Err(e) => {
            return Err(Failure {
                summary: format!("plan rejected a valid change set: {e}"),
                minimized: render(&net, &changes),
            })
        }
    };
    let mut allowed: HashSet<Violation> = brute_reports(&net, &validator, &[])
        .iter()
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    if accept_final {
        allowed.extend(
            brute_reports(&net, &validator, &changes)
                .iter()
                .flat_map(|r| r.violations.iter().cloned()),
        );
    }
    match &report.verdict {
        PlanVerdict::Safe(steps) => {
            // Every prefix state of the emitted order must be clean by
            // brute force.
            let ordered: Vec<ConfigChange> =
                steps.iter().map(|s| s.change.clone()).collect();
            for cut in 0..=ordered.len() {
                let brute = brute_reports(&net, &validator, &ordered[..cut]);
                let transient = transient_count(&brute, condition, &meta, &allowed);
                if transient > 0 {
                    return Err(Failure {
                        summary: format!(
                            "safe plan has {transient} disallowed violation(s) after step {cut} \
                             by brute force"
                        ),
                        minimized: render(&net, &ordered[..cut]),
                    });
                }
            }
        }
        PlanVerdict::Unsafe(u) => {
            if report.search_exhausted {
                // The minimal unsafe change set must fail by brute
                // force and be 1-minimal under brute force.
                let unsafe_set: Vec<ConfigChange> =
                    u.prefix.iter().map(|s| s.change.clone()).collect();
                let brute = brute_reports(&net, &validator, &unsafe_set);
                if transient_count(&brute, condition, &meta, &allowed) == 0 {
                    return Err(Failure {
                        summary: "reported unsafe change set passes under brute force".into(),
                        minimized: render(&net, &unsafe_set),
                    });
                }
                for skip in 0..unsafe_set.len() {
                    let sub: Vec<ConfigChange> = unsafe_set
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, c)| c.clone())
                        .collect();
                    let brute = brute_reports(&net, &validator, &sub);
                    if transient_count(&brute, condition, &meta, &allowed) > 0 {
                        return Err(Failure {
                            summary: format!(
                                "unsafe change set is not minimal: still fails without \
                                 element {skip} by brute force"
                            ),
                            minimized: render(&net, &sub),
                        });
                    }
                }
            }
        }
    }

    // Thread-count independence: the verdict — step for step — must
    // match between the serial and parallel drivers.
    let serial = planner
        .plan(&changes, &PlanOptions { threads: 1, ..opts.clone() })
        .map_err(|e| Failure {
            summary: format!("serial replay errored: {e}"),
            minimized: render(&net, &changes),
        })?;
    let parallel = planner
        .plan(&changes, &PlanOptions { threads: 4, ..opts.clone() })
        .map_err(|e| Failure {
            summary: format!("parallel replay errored: {e}"),
            minimized: render(&net, &changes),
        })?;
    if serial.verdict != parallel.verdict {
        return Err(Failure {
            summary: format!(
                "plan verdict depends on thread count: serial {} vs parallel {}",
                serial.verdict, parallel.verdict
            ),
            minimized: render(&net, &changes),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_cross_check_is_clean_on_fig3_migration() {
        let f = figure3();
        let (net, changes) = seeded_scenario(&f.topology, RolloutScenario::Migrate, 1, 0);
        let meta = MetadataService::from_topology(&net.topology);
        let planner = Validator::new(&meta).build_planner(&net);
        let validator = Validator::new(&meta).build();
        for subset in [&changes[..0], &changes[..2], &changes[..]] {
            assert_eq!(check_subset_case(&planner, &validator, &net, subset), None);
        }
    }

    #[test]
    fn first_seed_is_clean() {
        assert!(run(0).is_ok());
    }

    #[test]
    fn degraded_production_uses_config_not_healthy() {
        // brute_reports must simulate with the production SimConfig,
        // not a fresh healthy one.
        let f = figure3();
        let mut net = ManagedNetwork::new(f.topology.clone());
        net.config = std::mem::take(&mut net.config).with_default_reject(f.tors[0]);
        let meta = MetadataService::from_topology(&net.topology);
        let validator = Validator::new(&meta).build();
        let brute = brute_reports(&net, &validator, &[]);
        assert!(brute.iter().any(|r| !r.violations.is_empty()));
    }
}
