//! `whatif_k2` — a k=2 failure sweep on the 1084-device fabric:
//! `build_whatif` (set-up), then one
//! `sweep(SweepOptions { k: 2, sample, condition: Blackhole, threads: 1, seed, .. })`
//! with the cross-scenario memo on.
//!
//! Why: `bgpsim::restart` plus delta revalidation over mostly
//! *distinct* states — each scenario revalidates most of the fabric
//! and the memo reuses little — which is the workload slice-granular
//! revalidation (ROADMAP item 2) must move. The simulator's full
//! fixed point runs only inside set-up here.

use crate::fabric::{self, FABRIC_1K};
use crate::harness::{timed, Checks, Config, Layers, Rep, Workload};
use crate::rng::Rng;
use crate::stats::{median, tail};
use crate::trace::{subtree_self_times, Tracer};
use bgpsim::{FaultSpec, SimConfig};
use dctopo::{build_clos, ClosParams, LinkState, MetadataService, Role};
use rcdc::whatif::{FailureElement, RobustnessVerdict, SweepOptions, WhatIfSweeper};
use rcdc::{FailCondition, Validator};
use std::hint::black_box;

/// Scenarios sampled per size level: 1 + 2 × this many per sweep, at
/// about 17 ms each — a body of about 1.7 s, so that a 15 s run holds
/// eight of them with their set-ups and the median has repetitions
/// enough to shrug off a neighbour's burst.
fn sample(quick: bool) -> usize {
    if quick {
        10
    } else {
        50
    }
}

fn options(cfg: &Config) -> SweepOptions {
    SweepOptions {
        k: 2,
        sample: Some(sample(cfg.quick)),
        condition: FailCondition::Blackhole,
        threads: 1,
        seed: cfg.seed,
        ..SweepOptions::default()
    }
}

fn sweeper_for(topology: &dctopo::Topology) -> WhatIfSweeper {
    let meta = MetadataService::from_topology(topology);
    Validator::new(&meta)
        .threads(1)
        .build_whatif(topology, &SimConfig::healthy())
}

fn fault_of(elems: &[FailureElement]) -> FaultSpec {
    FaultSpec::links(elems.iter().filter_map(|e| match e {
        FailureElement::Link(l) => Some(*l),
        FailureElement::Device(_) => None,
    }))
}

#[derive(Default)]
pub struct WhatIfK2 {
    reps: u64,
}

impl Workload for WhatIfK2 {
    fn rep(&mut self, cfg: &Config, t: &mut Tracer, checks: &mut Checks) -> Rep {
        self.reps += 1;
        let params = fabric::pick(FABRIC_1K, cfg.quick);
        let opts = options(cfg);

        let setup = t.open_op("whatif_k2.setup", self.reps);
        let (sweeper, setup_s) = timed(|| sweeper_for(&build_clos(&params)));
        t.close(setup);

        let body = t.open_op("whatif.sweep", self.reps);
        let (report, body_s) = timed(|| sweeper.sweep(&opts));
        t.close(body);

        // Known answers: the healthy fabric survives any two link
        // failures without a blackhole, and the sweep looked at the
        // healthy state plus `sample` scenarios of each size.
        let expected = 1 + 2 * sample(cfg.quick);
        checks.ops(
            report.scenarios_checked as u64,
            report.failing.len() as u64,
            "scenarios",
        );
        checks.expect(report.verdict == RobustnessVerdict::Robust(2), || {
            format!("healthy fabric: {}, expected Robust(2)", report.verdict)
        });
        checks.expect(report.scenarios_checked == expected, || {
            format!(
                "{} scenarios checked, expected {expected}",
                report.scenarios_checked
            )
        });

        let layers = t.enabled().then(|| {
            // `sweep` hides its scenarios: replay as many seeded ones
            // of each size through `check_scenario`, and each of those
            // again through the restart alone.
            let universe = sweeper.universe(false);
            let mut rng = Rng::new(cfg.seed, 3);
            let mut scenario_s = Vec::new();
            let mut restart_s = 0.0;
            for size in 1..=2usize {
                for _ in 0..sample(cfg.quick) {
                    let mut elems: Vec<FailureElement> = Vec::with_capacity(size);
                    while elems.len() < size {
                        let e = universe[rng.below(universe.len())];
                        if !elems.contains(&e) {
                            elems.push(e);
                        }
                    }
                    let op = scenario_s.len() as u64;
                    let (check, span) = t.replay("whatif.check_scenario", body, op, || {
                        sweeper.check_scenario(&elems, opts.condition)
                    });
                    checks.expect(!check.fails, || {
                        format!("replayed scenario {elems:?} blackholes")
                    });
                    scenario_s.push(t.duration_s(span));
                    let fault = fault_of(&elems);
                    let (fibs, restart) = t.replay("bgpsim.restart", span, op, || {
                        sweeper.baseline().resimulate(&fault)
                    });
                    black_box(fibs);
                    restart_s += t.duration_s(restart);
                }
            }
            let scenario_ms: Vec<f64> = scenario_s.iter().map(|s| s * 1e3).collect();

            let mut l = Layers::default();
            l.set("whatif.scenarios", report.scenarios_checked as f64);
            l.set("whatif.scenario_p50_ms", median(&scenario_ms));
            l.set("whatif.scenario_tail_ms", tail(&scenario_ms).value);
            l.set(
                "whatif.revalidate_s",
                scenario_s.iter().sum::<f64>() - restart_s,
            );
            l.set(
                "whatif.devices_revalidated",
                report.devices_revalidated as f64,
            );
            l.set("whatif.verdicts_reused", report.verdicts_reused as f64);
            l.set("bgpsim.restart_s", restart_s);
            l.set("bgpsim.restart_patched", report.restart.patched as f64);
            l.set(
                "bgpsim.restart_repropagated",
                report.restart.repropagated as f64,
            );
            l.set(
                "bgpsim.restart_devices_changed",
                report.restart.devices_changed as f64,
            );
            let (_, closure) = subtree_self_times(t.spans(), body);
            l.set("bench.trace_closure_pct", 100.0 * closure);
            l
        });

        Rep {
            setup_s,
            verdict_s: body_s,
            ops_per_s: report.scenarios_checked as f64 / body_s,
            measured_s: body_s,
            layers,
        }
    }

    /// Known answer with a counterexample in it, on a fabric small
    /// enough to sweep k=2 exhaustively: with two of a ToR's four
    /// uplinks already down, losing the other two blackholes the ToR,
    /// and no smaller or other pair does.
    fn final_checks(&mut self, cfg: &Config, checks: &mut Checks) {
        let mut topology = build_clos(&ClosParams {
            clusters: 2,
            tors_per_cluster: 4,
            leaves_per_cluster: 4,
            spines: 12,
            regional_spines: 4,
            regional_groups: 2,
            prefixes_per_tor: 1,
        });
        let tor = topology
            .devices_with_role(Role::Tor)
            .next()
            .expect("the fabric has ToRs")
            .id;
        let uplinks: Vec<_> = topology.links_of(tor).map(|l| l.id).collect();
        for &l in &uplinks[..2] {
            topology.set_link_state(l, LinkState::OperDown);
        }
        let report = sweeper_for(&topology).sweep(&SweepOptions {
            sample: None,
            ..options(cfg)
        });
        let expected: Vec<FailureElement> = uplinks[2..]
            .iter()
            .map(|&l| FailureElement::Link(l))
            .collect();
        let found = match &report.verdict {
            RobustnessVerdict::Counterexample(c) => Some(c.scenario.clone()),
            RobustnessVerdict::Robust(_) => None,
        };
        checks.expect(found.as_ref() == Some(&expected), || {
            format!("pre-failed ToR: minimal counterexample {found:?}, expected {expected:?}")
        });
    }
}
