//! Oracle: incremental what-if scenario evaluation vs brute force.
//!
//! The k-failure sweeper ([`rcdc::WhatIfSweeper`]) gets its speed from
//! two reuse layers — the fault-injected fixed-point restart, which
//! returns each changed device's table as a rule patch, and the
//! engines' revalidation of `(healthy table, patch)` against the
//! healthy report. Both must be invisible in the verdicts. This oracle builds a small
//! seeded fabric (Figure 3 or a tiny random Clos, optionally already
//! degraded, under a random fault-injection config), then:
//!
//! * cross-checks random failure scenarios: the sweeper's incremental
//!   evaluation against full re-simulation from scratch plus a cold
//!   validation pass — report for report, byte for byte, and
//!   condition verdict for condition verdict (the condition logic is
//!   reimplemented here from the violation reports, so the sweeper's
//!   accounting is checked too);
//! * runs an exhaustive sweep and checks the answer: a counterexample
//!   must fail by brute force and be 1-minimal under brute force; a
//!   `Robust(k)` certificate is spot-checked against brute force on
//!   random scenarios of size `<= k`;
//! * replays the same sweep serial and parallel — the verdict,
//!   including the exact minimized counterexample, must not depend on
//!   the thread count.

use crate::Failure;
use bgpsim::{simulate, FaultSpec, SimConfig};
use dctopo::generator::figure3;
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService, Topology};
use rcdc::report::risk_of;
use rcdc::shrink::shrink_list;
use rcdc::{
    FailCondition, FailureElement, Risk, RobustnessVerdict, SweepOptions, Validator,
    ValidationReport, Violation, ViolationReason, WhatIfSweeper,
};
use simnet::rng::Rng;

/// A replayable fabric choice.
#[derive(Debug, Clone)]
enum Fabric {
    Figure3,
    Clos(ClosParams),
}

impl Fabric {
    fn build(&self) -> Topology {
        match self {
            Fabric::Figure3 => figure3().topology,
            Fabric::Clos(p) => build_clos(p),
        }
    }
}

/// A replayable config fault.
#[derive(Debug, Clone)]
enum ConfigFault {
    DefaultReject(u32),
    MaxEcmp(u32, usize),
    RibFib(u32, usize),
    L2Port(u32),
}

fn apply_faults(mut config: SimConfig, faults: &[ConfigFault]) -> SimConfig {
    for f in faults {
        config = match *f {
            ConfigFault::DefaultReject(d) => config.with_default_reject(DeviceId(d)),
            ConfigFault::MaxEcmp(d, k) => config.with_max_ecmp(DeviceId(d), k),
            ConfigFault::RibFib(d, h) => config.with_rib_fib_bug(DeviceId(d), h),
            ConfigFault::L2Port(d) => config.with_l2_port_bug(DeviceId(d)),
        };
    }
    config
}

/// The oracle's own reading of a fail condition, recomputed from raw
/// violation reports (independent of the sweeper's accounting).
fn violation_matches(v: &Violation, condition: FailCondition, meta: &MetadataService) -> bool {
    match condition {
        FailCondition::AnyViolation => true,
        FailCondition::Blackhole => matches!(v.reason, ViolationReason::MissingDefault),
        FailCondition::AtLeast(min) => risk_of(v, meta) >= min,
    }
}

fn matching_total(
    reports: &[ValidationReport],
    condition: FailCondition,
    meta: &MetadataService,
) -> usize {
    reports
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| violation_matches(v, condition, meta))
        .count()
}

/// Brute force: down the scenario's elements on a topology clone,
/// re-simulate the whole fabric from scratch, validate cold.
fn brute_reports(
    topology: &Topology,
    config: &SimConfig,
    validator: &rcdc::validator::Validator,
    elems: &[FailureElement],
) -> Vec<ValidationReport> {
    let mut fault = FaultSpec::default();
    for e in elems {
        match e {
            FailureElement::Link(l) => fault.links.push(*l),
            FailureElement::Device(d) => fault.devices.push(*d),
        }
    }
    let mut faulted = topology.clone();
    fault.apply(&mut faulted);
    validator.run(&simulate(&faulted, config)).reports
}

/// One scenario, incremental vs brute force. Returns the first
/// disagreement.
fn check_scenario_case(
    sweeper: &WhatIfSweeper,
    validator: &rcdc::validator::Validator,
    topology: &Topology,
    config: &SimConfig,
    meta: &MetadataService,
    condition: FailCondition,
    elems: &[FailureElement],
) -> Option<String> {
    let check = sweeper.check_scenario(elems, condition);
    let incremental = sweeper.spliced_reports(&check);
    let brute = brute_reports(topology, config, validator, elems);
    if incremental != brute {
        let first = incremental
            .iter()
            .zip(&brute)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(format!(
            "incremental reports diverge from cold re-simulation at device {first}: \
             {:?} vs {:?}",
            incremental[first].violations, brute[first].violations
        ));
    }
    let want = matching_total(&brute, condition, meta);
    if check.matching_violations != want {
        return Some(format!(
            "sweeper counts {} condition-matching violations, reports hold {want}",
            check.matching_violations
        ));
    }
    if check.fails != (want > 0) {
        return Some(format!(
            "sweeper verdict fails={} but {want} matching violations exist",
            check.fails
        ));
    }
    None
}

/// The sweep's end-to-end answer vs brute force.
fn check_sweep_case(
    sweeper: &WhatIfSweeper,
    validator: &rcdc::validator::Validator,
    topology: &Topology,
    config: &SimConfig,
    meta: &MetadataService,
    opts: &SweepOptions,
    r: &mut Rng,
) -> Option<String> {
    let report = sweeper.sweep(opts);
    match &report.verdict {
        RobustnessVerdict::Counterexample(c) => {
            let brute = brute_reports(topology, config, validator, &c.scenario);
            if matching_total(&brute, opts.condition, meta) == 0 {
                return Some(format!(
                    "counterexample {:?} passes under brute force",
                    c.scenario
                ));
            }
            // 1-minimality must also hold by brute force.
            for skip in 0..c.scenario.len() {
                let mut sub = c.scenario.clone();
                sub.remove(skip);
                let brute = brute_reports(topology, config, validator, &sub);
                if matching_total(&brute, opts.condition, meta) > 0 {
                    return Some(format!(
                        "counterexample {:?} is not minimal: still fails without {:?}",
                        c.scenario, c.scenario[skip]
                    ));
                }
            }
        }
        RobustnessVerdict::Robust(k) => {
            // Spot-check the certificate: random in-budget scenarios
            // must pass by brute force (enumeration was exhaustive for
            // the sizes this oracle sweeps).
            let universe = sweeper.universe(opts.include_devices);
            for _ in 0..4 {
                let size = r.range(1, (*k).max(1) as u64 + 1) as usize;
                let mut elems: Vec<FailureElement> = Vec::new();
                while elems.len() < size.min(universe.len()) {
                    let e = *r.pick(&universe);
                    if !elems.contains(&e) {
                        elems.push(e);
                    }
                }
                let brute = brute_reports(topology, config, validator, &elems);
                if matching_total(&brute, opts.condition, meta) > 0 {
                    return Some(format!(
                        "sweep certified Robust({k}) but {elems:?} fails by brute force"
                    ));
                }
            }
        }
    }
    // Thread-count independence: the verdict — including the exact
    // minimized counterexample — must match between serial and
    // parallel drivers.
    let serial = sweeper.sweep(&SweepOptions {
        threads: 1,
        ..opts.clone()
    });
    let parallel = sweeper.sweep(&SweepOptions {
        threads: 4,
        ..opts.clone()
    });
    if serial.verdict != parallel.verdict {
        return Some(format!(
            "sweep verdict depends on thread count: serial {:?} vs parallel {:?}",
            serial.verdict, parallel.verdict
        ));
    }
    None
}

fn render(
    fabric: &Fabric,
    faults: &[ConfigFault],
    condition: FailCondition,
    scenario: &[FailureElement],
    topology: &Topology,
) -> String {
    let mut s = format!("fabric: {fabric:?}\nconfig faults: {faults:?}\ncondition: {condition}\n");
    s.push_str("scenario:\n");
    for e in scenario {
        s.push_str(&format!("  {} ({e:?})\n", e.render(topology)));
    }
    s
}

fn random_fabric(r: &mut Rng) -> Fabric {
    if r.chance(1, 2) {
        Fabric::Figure3
    } else {
        // Spines must spread evenly across the leaf planes.
        let leaves = r.range(2, 4) as u32;
        Fabric::Clos(ClosParams {
            clusters: r.range(1, 3) as u32,
            tors_per_cluster: r.range(2, 4) as u32,
            leaves_per_cluster: leaves,
            spines: leaves * r.range(1, 3) as u32,
            regional_spines: r.range(1, 3) as u32,
            regional_groups: 1,
            prefixes_per_tor: r.range(1, 3) as u32,
        })
    }
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let fabric = random_fabric(&mut r);
    let mut topology = fabric.build();
    // Sometimes the fabric is already degraded before the sweep.
    if r.chance(1, 4) {
        let id = topology.links()[r.below(topology.links().len() as u64) as usize].id;
        topology.set_link_state(id, LinkState::OperDown);
    }
    let n = topology.len() as u64;
    let faults: Vec<ConfigFault> = (0..r.below(3))
        .map(|_| match r.below(4) {
            0 => ConfigFault::DefaultReject(r.below(n) as u32),
            1 => ConfigFault::MaxEcmp(r.below(n) as u32, r.range(1, 3) as usize),
            2 => ConfigFault::RibFib(r.below(n) as u32, r.range(1, 3) as usize),
            _ => ConfigFault::L2Port(r.below(n) as u32),
        })
        .collect();
    let config = apply_faults(SimConfig::healthy(), &faults);
    let condition = *r.pick(&[
        FailCondition::AnyViolation,
        FailCondition::Blackhole,
        FailCondition::AtLeast(Risk::High),
    ]);

    let meta = MetadataService::from_topology(&topology);
    let sweeper = Validator::new(&meta).build_whatif(&topology, &config);
    let validator = Validator::new(&meta).build();
    let include_devices = r.chance(1, 2);
    let universe = sweeper.universe(include_devices);

    // Random scenarios: incremental vs brute force.
    for _ in 0..5 {
        let size = r.below(4) as usize;
        let mut elems: Vec<FailureElement> = Vec::new();
        while elems.len() < size.min(universe.len()) {
            let e = *r.pick(&universe);
            if !elems.contains(&e) {
                elems.push(e);
            }
        }
        if let Some(summary) =
            check_scenario_case(&sweeper, &validator, &topology, &config, &meta, condition, &elems)
        {
            let minimized = shrink_list(&elems, |sub| {
                check_scenario_case(
                    &sweeper, &validator, &topology, &config, &meta, condition, sub,
                )
                .is_some()
            });
            return Err(Failure {
                summary,
                minimized: render(&fabric, &faults, condition, &minimized, &topology),
            });
        }
    }

    // One full sweep: k=2 stays exhaustive when the universe is small
    // enough to afford it, k=1 otherwise.
    let k = if universe.len() <= 30 && r.chance(1, 3) {
        2
    } else {
        1
    };
    let opts = SweepOptions {
        k,
        include_devices,
        condition,
        threads: r.range(1, 5) as usize,
        ..SweepOptions::default()
    };
    if let Some(summary) =
        check_sweep_case(&sweeper, &validator, &topology, &config, &meta, &opts, &mut r)
    {
        return Err(Failure {
            summary,
            minimized: render(&fabric, &faults, condition, &[], &topology),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_cross_check_is_clean_on_fig3() {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let config = SimConfig::healthy();
        let sweeper = Validator::new(&meta).build_whatif(&f.topology, &config);
        let validator = Validator::new(&meta).build();
        let l1 = FailureElement::Link(f.topology.link_between(f.tors[0], f.a[0]).unwrap().id);
        let dev = FailureElement::Device(f.a[1]);
        for scenario in [vec![], vec![l1], vec![l1, dev]] {
            assert_eq!(
                check_scenario_case(
                    &sweeper,
                    &validator,
                    &f.topology,
                    &config,
                    &meta,
                    FailCondition::AnyViolation,
                    &scenario,
                ),
                None
            );
        }
    }

    #[test]
    fn first_seed_is_clean() {
        assert!(run(0).is_ok());
    }
}
