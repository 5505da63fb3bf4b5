//! The what-if sweeper's answers are properties of the *scenario*,
//! not of how the sweep was driven.
//!
//! Four equivalences over random fault-injection configs on the
//! Figure-3 fabric:
//!
//! * **Order insensitivity** — a scenario is a set: permuting its
//!   elements changes nothing, down to the spliced per-device reports.
//! * **Driver determinism** — serial and parallel sweeps return the
//!   same verdict (including the exact minimized counterexample), and
//!   in exhaustive mode the same failing-scenario list.
//! * **Counterexample minimality** — the reported scenario fails, and
//!   removing any single element from it makes the contracts pass.
//! * **k=0 ≡ plain validation** — sweeping nothing is exactly a cold
//!   validator pass over the baseline FIBs; a failing baseline yields
//!   the empty counterexample.
//!
//! The brute-force cross-check (incremental evaluation vs full
//! re-simulation plus cold validation) lives in the difftest `whatif`
//! oracle; these properties pin the sweep-level invariants.

use proptest::prelude::*;
use validatedc::prelude::*;

/// A replayable fault-injection config on the 20-device Figure 3.
#[derive(Debug, Clone)]
enum ConfigFault {
    Reject(usize),
    Ecmp(usize, usize),
    RibFib(usize, usize),
    L2Port(usize),
}

fn fault_strategy() -> impl Strategy<Value = Vec<ConfigFault>> {
    let one = prop_oneof![
        (0usize..20).prop_map(ConfigFault::Reject),
        (0usize..20, 1usize..3).prop_map(|(d, k)| ConfigFault::Ecmp(d, k)),
        (0usize..20, 1usize..3).prop_map(|(d, h)| ConfigFault::RibFib(d, h)),
        (0usize..20).prop_map(ConfigFault::L2Port),
    ];
    proptest::collection::vec(one, 0..3)
}

fn build_config(faults: &[ConfigFault]) -> SimConfig {
    faults.iter().fold(SimConfig::healthy(), |c, f| match *f {
        ConfigFault::Reject(d) => c.with_default_reject(DeviceId(d as u32)),
        ConfigFault::Ecmp(d, k) => c.with_max_ecmp(DeviceId(d as u32), k),
        ConfigFault::RibFib(d, h) => c.with_rib_fib_bug(DeviceId(d as u32), h),
        ConfigFault::L2Port(d) => c.with_l2_port_bug(DeviceId(d as u32)),
    })
}

fn fig3_sweeper(config: &SimConfig) -> WhatIfSweeper {
    let f = figure3();
    let meta = MetadataService::from_topology(&f.topology);
    Validator::new(&meta).build_whatif(&f.topology, config)
}

fn condition(i: usize) -> FailCondition {
    [
        FailCondition::AnyViolation,
        FailCondition::Blackhole,
        FailCondition::AtLeast(Risk::High),
    ][i % 3]
}

/// Distinct scenario elements picked by arbitrary indices.
fn scenario_from(universe: &[FailureElement], picks: &[usize]) -> Vec<FailureElement> {
    let mut out: Vec<FailureElement> = Vec::new();
    for &p in picks {
        let e = universe[p % universe.len()];
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scenario_order_is_irrelevant(
        picks in proptest::collection::vec(0usize..10_000, 0..4),
        rot in 0usize..4,
        cond_i in 0usize..3,
        faults in fault_strategy(),
    ) {
        let sweeper = fig3_sweeper(&build_config(&faults));
        let cond = condition(cond_i);
        let universe = sweeper.universe(true);
        let scenario = scenario_from(&universe, &picks);
        let mut permuted = scenario.clone();
        if !permuted.is_empty() {
            let rot = rot % permuted.len();
            permuted.rotate_left(rot);
            permuted.reverse();
        }
        let a = sweeper.check_scenario(&scenario, cond);
        let b = sweeper.check_scenario(&permuted, cond);
        prop_assert_eq!(a.fails, b.fails);
        prop_assert_eq!(a.matching_violations, b.matching_violations);
        prop_assert_eq!(sweeper.spliced_reports(&a), sweeper.spliced_reports(&b));
    }

    #[test]
    fn k0_equals_plain_validation(faults in fault_strategy()) {
        let config = build_config(&faults);
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let plain = Validator::new(&meta)
            .build()
            .run(&simulate(&f.topology, &config));
        let sweeper = fig3_sweeper(&config);
        let report = sweeper.sweep(&SweepOptions { k: 0, ..SweepOptions::default() });
        prop_assert_eq!(report.is_robust(), plain.is_clean());
        if let RobustnessVerdict::Counterexample(c) = &report.verdict {
            prop_assert!(c.scenario.is_empty(), "a failing baseline needs no failures");
        }
    }
}

proptest! {
    // Whole-sweep properties run hundreds of scenarios per case; fewer
    // cases keep the suite inside test-tier budgets.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serial_and_parallel_sweeps_agree(
        k in 1usize..3,
        cond_i in 0usize..3,
        exhaustive in any::<bool>(),
        faults in fault_strategy(),
    ) {
        let sweeper = fig3_sweeper(&build_config(&faults));
        let base = SweepOptions {
            k,
            include_devices: true,
            exhaustive,
            condition: condition(cond_i),
            ..SweepOptions::default()
        };
        let serial = sweeper.sweep(&SweepOptions { threads: 1, ..base.clone() });
        let parallel = sweeper.sweep(&SweepOptions { threads: 4, ..base.clone() });
        prop_assert_eq!(&serial.verdict, &parallel.verdict);
        if exhaustive {
            prop_assert_eq!(&serial.failing, &parallel.failing);
            prop_assert_eq!(serial.scenarios_checked, parallel.scenarios_checked);
            // Nothing in a scenario's work depends on which scenario
            // ran first, so the work counters agree too.
            prop_assert_eq!(serial.devices_revalidated, parallel.devices_revalidated);
            prop_assert_eq!(serial.verdicts_reused, parallel.verdicts_reused);
            prop_assert_eq!(serial.restart, parallel.restart);
        }
    }

    #[test]
    fn counterexamples_are_minimal(
        k in 1usize..3,
        cond_i in 0usize..3,
        faults in fault_strategy(),
    ) {
        let sweeper = fig3_sweeper(&build_config(&faults));
        let cond = condition(cond_i);
        let report = sweeper.sweep(&SweepOptions {
            k,
            condition: cond,
            ..SweepOptions::default()
        });
        if let RobustnessVerdict::Counterexample(c) = &report.verdict {
            prop_assert!(sweeper.check_scenario(&c.scenario, cond).fails);
            for skip in 0..c.scenario.len() {
                let mut sub = c.scenario.clone();
                sub.remove(skip);
                prop_assert!(
                    !sweeper.check_scenario(&sub, cond).fails,
                    "still fails without {:?}",
                    c.scenario[skip]
                );
            }
        }
    }
}
