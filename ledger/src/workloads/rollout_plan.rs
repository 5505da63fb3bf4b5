//! `rollout_plan` — safe change-rollout planning on the 1084-device
//! fabric, mirroring `validatedc plan` under the `Blackhole` condition.
//!
//! * One seeded `Migrate` scenario with a planner of its own (built
//!   during set-up): `check_order` on the naive submit order → `plan`
//!   → `check_order` replaying the emitted plan.
//! * One planner over the healthy fabric shared by two seeded
//!   `Decommission` change sets (two and three racks): `plan` with and
//!   without `accept_final`, plus one seeded permutation of each set
//!   through `check_order`.
//!
//! Nine planner calls, a body of about 2.3 s: a 15 s run holds six or
//! seven, which the median needs on a box with busy neighbours.
//!
//! Why: the same restart, delta and memo layers as `whatif_k2`, used
//! differently — lattice states are revisited (memo-heavy), and a
//! bring-up takes the costly re-anchor path where a shut takes the
//! cheap restart — so a gain for the sweep that costs the planner
//! shows here.

use crate::fabric::{self, FABRIC_1K};
use crate::harness::{timed, Checks, Config, Layers, Rep, Workload};
use crate::rng::Rng;
use crate::trace::{subtree_self_times, SpanId, Tracer};
use bgpsim::{Baseline, FaultSpec, RestartStats, SimConfig};
use dctopo::{build_clos, MetadataService, Role, Topology};
use rcdc::rollout::{seeded_scenario, ManagedNetwork, RolloutScenario};
use rcdc::{
    ConfigChange, FailCondition, OrderCheck, PlanOptions, PlanReport, PlanVerdict, RolloutPlanner,
    Validator,
};
use std::hint::black_box;

const MIGRATIONS: u64 = 1;
const DECOMMISSION_RACKS: [usize; 2] = [2, 3];
const PERMUTATIONS: usize = 1;

fn planner_for(net: &ManagedNetwork) -> RolloutPlanner {
    let meta = MetadataService::from_topology(&net.topology);
    Validator::new(&meta).threads(1).build_planner(net)
}

fn options(accept_final: bool) -> PlanOptions {
    PlanOptions {
        condition: FailCondition::Blackhole,
        accept_final,
        threads: 1,
        ..PlanOptions::default()
    }
}

struct Migration {
    planner: RolloutPlanner,
    changes: Vec<ConfigChange>,
}

struct Decommission {
    changes: Vec<ConfigChange>,
    permutations: Vec<Vec<ConfigChange>>,
}

struct Inputs {
    topology: Topology,
    migrations: Vec<Migration>,
    shared: RolloutPlanner,
    decommissions: Vec<Decommission>,
}

fn build(cfg: &Config) -> Inputs {
    let topology = build_clos(&fabric::pick(FABRIC_1K, cfg.quick));
    let migrations = (0..MIGRATIONS)
        .map(|m| {
            let seed = cfg.seed.wrapping_mul(MIGRATIONS).wrapping_add(m);
            let (net, changes) = seeded_scenario(&topology, RolloutScenario::Migrate, 1, seed);
            Migration {
                planner: planner_for(&net),
                changes,
            }
        })
        .collect();
    // A decommission pre-shuts nothing, so every such change set
    // applies to the healthy fabric and one planner serves them all.
    let shared = planner_for(&ManagedNetwork::new(topology.clone()));
    let mut rng = Rng::new(cfg.seed, 4);
    let decommissions = DECOMMISSION_RACKS
        .iter()
        .map(|&racks| {
            let (_, changes) = seeded_scenario(
                &topology,
                RolloutScenario::Decommission,
                racks,
                rng.next_u64(),
            );
            let permutations = (0..PERMUTATIONS)
                .map(|_| {
                    let mut p = changes.clone();
                    rng.shuffle(&mut p);
                    p
                })
                .collect();
            Decommission {
                changes,
                permutations,
            }
        })
        .collect();
    Inputs {
        topology,
        migrations,
        shared,
        decommissions,
    }
}

/// Planner calls with the spans around them, and the counters their
/// reports carry.
#[derive(Default)]
struct Calls {
    plans: Vec<(SpanId, PlanReport)>,
    orders: Vec<OrderCheck>,
}

impl Calls {
    fn plan(
        &mut self,
        t: &mut Tracer,
        p: &RolloutPlanner,
        changes: &[ConfigChange],
        accept_final: bool,
    ) -> PlanVerdict {
        let span = t.open("rollout.plan");
        let report = p
            .plan(changes, &options(accept_final))
            .expect("seeded change sets have distinct targets");
        t.close(span);
        let verdict = report.verdict.clone();
        self.plans.push((span, report));
        verdict
    }

    fn check_order(
        &mut self,
        t: &mut Tracer,
        p: &RolloutPlanner,
        order: &[ConfigChange],
    ) -> OrderCheck {
        let span = t.open("rollout.check_order");
        let check = p
            .check_order(order, &options(true))
            .expect("seeded change sets have distinct targets");
        t.close(span);
        self.orders.push(check.clone());
        check
    }

    fn states(&self) -> usize {
        self.plans
            .iter()
            .map(|(_, r)| r.states_evaluated)
            .sum::<usize>()
            + self
                .orders
                .iter()
                .map(|o| o.states_evaluated)
                .sum::<usize>()
    }
}

#[derive(Default)]
pub struct RolloutPlan {
    reps: u64,
}

impl Workload for RolloutPlan {
    fn rep(&mut self, cfg: &Config, t: &mut Tracer, checks: &mut Checks) -> Rep {
        self.reps += 1;
        let setup = t.open_op("rollout_plan.setup", self.reps);
        let (inputs, setup_s) = timed(|| build(cfg));
        t.close(setup);

        let mut calls = Calls::default();
        // Verdicts are judged after the clock stops.
        let mut migrated = Vec::new();
        let mut decommissioned = Vec::new();
        let body = t.open_op("rollout_plan.body", self.reps);
        let ((), body_s) = timed(|| {
            for m in &inputs.migrations {
                let naive = calls.check_order(t, &m.planner, &m.changes);
                let verdict = calls.plan(t, &m.planner, &m.changes, true);
                let replay = match &verdict {
                    PlanVerdict::Safe(steps) => {
                        let emitted: Vec<ConfigChange> =
                            steps.iter().map(|s| s.change.clone()).collect();
                        Some(calls.check_order(t, &m.planner, &emitted))
                    }
                    PlanVerdict::Unsafe(_) => None,
                };
                migrated.push((naive, verdict, replay));
            }
            for d in &inputs.decommissions {
                let accepted = calls.plan(t, &inputs.shared, &d.changes, true);
                let strict = calls.plan(t, &inputs.shared, &d.changes, false);
                let permuted: Vec<OrderCheck> = d
                    .permutations
                    .iter()
                    .map(|p| calls.check_order(t, &inputs.shared, p))
                    .collect();
                decommissioned.push((accepted, strict, permuted));
            }
        });
        t.close(body);

        // Known answers, one per planner call.
        for (naive, verdict, replay) in &migrated {
            checks.expect(naive.first_unsafe.is_some(), || {
                "naive migrate order (all shuts first) was judged safe".into()
            });
            checks.expect(matches!(verdict, PlanVerdict::Safe(_)), || {
                format!("migration: {verdict}, expected a safe plan")
            });
            checks.expect(
                replay.as_ref().is_some_and(|r| r.first_unsafe.is_none()),
                || format!("emitted migration plan does not replay clean: {replay:?}"),
            );
        }
        let uplinks = inputs
            .topology
            .devices_with_role(Role::Tor)
            .next()
            .map_or(0, |tor| inputs.topology.links_of(tor.id).count());
        for (accepted, strict, permuted) in &decommissioned {
            checks.expect(matches!(accepted, PlanVerdict::Safe(_)), || {
                format!("decommission accepting its final state: {accepted}")
            });
            // Without `accept_final`, isolating a rack is the offence:
            // the minimal unsafe set is one rack's uplinks.
            let minimal = match strict {
                PlanVerdict::Unsafe(u) => u.prefix.len(),
                PlanVerdict::Safe(_) => 0,
            };
            checks.expect(minimal == uplinks, || {
                format!("decommission refusing its final state: minimal unsafe set of {minimal}, expected {uplinks}")
            });
            for p in permuted {
                checks.expect(p.first_unsafe.is_none(), || {
                    format!(
                        "permuted decommission order unsafe at step {:?}",
                        p.first_unsafe
                    )
                });
            }
        }

        let states = calls.states();
        let layers = t.enabled().then(|| {
            // `plan` hides its states. The restarts of the shut-only
            // ones can be replayed: each prefix of an emitted
            // decommission order is a fault set over the healthy
            // baseline. Bring-up states re-anchor and have no leaf to
            // replay; they stay in the planner's self time.
            let baseline = Baseline::converge(&inputs.topology, &SimConfig::healthy());
            let mut restart_s = 0.0;
            for (span, report) in &calls.plans {
                let PlanVerdict::Safe(steps) = &report.verdict else {
                    continue;
                };
                let links: Option<Vec<_>> = steps
                    .iter()
                    .map(|s| match &s.change {
                        ConfigChange::SetLinkState { link, state } if !state.session_up() => {
                            Some(*link)
                        }
                        _ => None,
                    })
                    .collect();
                let Some(links) = links else { continue };
                for cut in 1..=links.len() {
                    let fault = FaultSpec::links(links[..cut].iter().copied());
                    let (fibs, replay) = t.replay("bgpsim.restart", *span, cut as u64, || {
                        baseline.resimulate(&fault)
                    });
                    black_box(fibs);
                    restart_s += t.duration_s(replay);
                }
            }
            let mut restart = RestartStats::default();
            let (mut anchors, mut revalidated, mut reused) = (0, 0, 0);
            for (_, r) in &calls.plans {
                restart.absorb(&r.restart);
                anchors += r.anchors_built;
                revalidated += r.devices_revalidated;
                reused += r.verdicts_reused;
            }
            let mut l = Layers::default();
            l.set("rollout.states_evaluated", states as f64);
            l.set("rollout.ms_per_state", body_s * 1e3 / states.max(1) as f64);
            l.set("rollout.anchors_built", anchors as f64);
            l.set("rollout.devices_revalidated", revalidated as f64);
            l.set("rollout.verdicts_reused", reused as f64);
            l.set("rollout.plan_s", t.total_s_under(body, "rollout.plan"));
            l.set(
                "rollout.check_order_s",
                t.total_s_under(body, "rollout.check_order"),
            );
            l.set("bgpsim.restart_s", restart_s);
            l.set("bgpsim.restart_patched", restart.patched as f64);
            l.set("bgpsim.restart_repropagated", restart.repropagated as f64);
            l.set(
                "bgpsim.restart_devices_changed",
                restart.devices_changed as f64,
            );
            let (_, closure) = subtree_self_times(t.spans(), body);
            l.set("bench.trace_closure_pct", 100.0 * closure);
            l
        });

        Rep {
            setup_s,
            verdict_s: body_s,
            ops_per_s: states as f64 / body_s,
            measured_s: body_s,
            layers,
        }
    }
}
