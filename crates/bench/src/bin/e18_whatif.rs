//! E18 — the what-if sweep's incrementality dividend: per-scenario
//! fixed-point restart + delta-only revalidation vs naive full
//! re-simulation + cold validation.
//!
//! For each fabric shape on the E2 scaling curve, the same seeded set
//! of k=2 failure scenarios is evaluated twice:
//!
//! * **incremental** — [`rcdc::WhatIfSweeper::check_scenario`]: the
//!   routing fixed point restarts from the healthy solution, only the
//!   changed devices are revalidated, each as its healthy table plus
//!   the rules that differ (nothing is shared across scenarios, so the
//!   measurement is each scenario's own cost);
//! * **naive** — clone the topology, down the scenario's links,
//!   re-converge the entire fabric from scratch, validate every
//!   device cold.
//!
//! Both arms must agree on every per-device report, byte for byte —
//! the speedup is only admissible because the verdicts are provably
//! the same. The incremental arm's total is charged the baseline
//! construction (converge + healthy validation) so the ratio is the
//! honest end-to-end cost of a sweep of this size.
//!
//! Output row: devices, links, scenarios, baseline setup seconds,
//! incremental/naive sweep seconds, mean changed devices per
//! scenario, restart patch/repropagate counters, speedup. The largest
//! shape asserts the >=5x floor (the PR gate). Pass `--quick` for the
//! CI perf-smoke variant: fewer scenarios per shape (so the baseline
//! setup amortizes over less work) and a looser smoke floor sized for
//! noisy shared workers.

use bgpsim::{simulate, FaultSpec, SimConfig};
use dcbench::scale_shapes;
use dctopo::{LinkId, MetadataService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcdc::{FailCondition, FailureElement, Validator};
use std::time::Instant;

const SPEEDUP_FLOOR: f64 = 5.0;
/// `--quick` runs on shared CI workers with fewer scenarios to
/// amortize the baseline setup over, so its gate is a smoke floor —
/// loose enough to absorb worker noise, tight enough to catch a real
/// incrementality regression (the ratio sits around 5-6x when
/// healthy). The full run asserts the paper-grade floor.
const QUICK_SPEEDUP_FLOOR: f64 = 3.5;
const SEED: u64 = 7;

/// Distinct seeded link pairs (k=2 scenarios) over the live links.
fn sample_scenarios(links: &[LinkId], count: usize, seed: u64) -> Vec<[FailureElement; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a = rng.gen_range(0..links.len());
        let b = rng.gen_range(0..links.len());
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if seen.insert((lo, hi)) {
            out.push([
                FailureElement::Link(links[lo]),
                FailureElement::Link(links[hi]),
            ]);
        }
    }
    out
}

fn run_point(label: &str, params: &dctopo::ClosParams, scenarios: usize, floor: Option<f64>) {
    let topology = dctopo::build_clos(params);
    let config = SimConfig::healthy();
    let meta = MetadataService::from_topology(&topology);

    // Baseline: converge once, validate once. Charged to the
    // incremental arm.
    let t0 = Instant::now();
    let sweeper = Validator::new(&meta).build_whatif(&topology, &config);
    let validator = Validator::new(&meta).build();
    let setup = t0.elapsed();

    let links: Vec<LinkId> = topology
        .links()
        .iter()
        .filter(|l| l.state.session_up())
        .map(|l| l.id)
        .collect();
    let cases = sample_scenarios(&links, scenarios, SEED);

    // Each arm runs its scenarios back to back — that is the shape of
    // a real sweep, and it is what the incremental path's warm caches
    // (healthy fibs, contract indexes, contract tables) are for.
    // Results are dropped as they are produced: retaining hundreds of
    // full report vectors would swamp the allocator with bench-only
    // bookkeeping.
    // Verdict identity is audited on a sample stride here (outside
    // both timed regions); the exhaustive byte-for-byte equivalence
    // claim is the difftest `whatif` oracle's and the proptest
    // suite's, over far more scenarios than one bench run.
    let audit_stride = (cases.len() / 12).max(1);
    let mut changed_total = 0usize;
    let mut patched = 0usize;
    let mut repropagated = 0usize;
    let mut sampled = Vec::new();
    let t0 = Instant::now();
    for (i, c) in cases.iter().enumerate() {
        let check = sweeper.check_scenario(c, FailCondition::AnyViolation);
        changed_total += check.changed.len();
        patched += check.stats.patched;
        repropagated += check.stats.repropagated;
        if i % audit_stride == 0 {
            sampled.push((i, check));
        }
    }
    let incremental = t0.elapsed();

    let mut naive_time = std::time::Duration::ZERO;
    let mut audit = sampled.iter();
    let mut next_audit = audit.next();
    for (i, c) in cases.iter().enumerate() {
        let mut fault = FaultSpec::default();
        for e in c {
            if let FailureElement::Link(l) = e {
                fault.links.push(*l);
            }
        }
        let mut faulted = topology.clone();
        let t0 = Instant::now();
        fault.apply(&mut faulted);
        let cold = validator.run(&simulate(&faulted, &config)).reports;
        naive_time += t0.elapsed();
        if let Some((ai, check)) = next_audit {
            if *ai == i {
                assert_eq!(
                    sweeper.spliced_reports(check),
                    cold,
                    "{label}: incremental reports diverge from naive re-validation"
                );
                next_audit = audit.next();
            }
        }
    }

    let incr_total = setup + incremental;
    let speedup = naive_time.as_secs_f64() / incr_total.as_secs_f64();
    println!(
        "{label},{},{},{},{:.3},{:.3},{:.3},{:.1},{patched},{repropagated},{:.2}",
        topology.devices().len(),
        links.len(),
        cases.len(),
        setup.as_secs_f64(),
        incremental.as_secs_f64(),
        naive_time.as_secs_f64(),
        changed_total as f64 / cases.len().max(1) as f64,
        speedup
    );
    if let Some(floor) = floor {
        assert!(
            speedup >= floor,
            "incremental what-if sweep speedup {speedup:.2}x is below the {floor}x gate \
             ({label}: naive {:.2}s vs baseline {:.2}s + incremental {:.2}s)",
            naive_time.as_secs_f64(),
            setup.as_secs_f64(),
            incremental.as_secs_f64()
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scenarios = if quick { 100 } else { 240 };
    println!(
        "label,devices,links,scenarios,setup_s,incremental_s,naive_s,\
         mean_changed_devices,prefixes_patched,prefixes_repropagated,speedup"
    );
    let shapes = scale_shapes();
    let last = shapes.len() - 1;
    for (i, (label, params)) in shapes.iter().enumerate() {
        // The ~1.1k-device shape carries the k=2 gate.
        let floor = (i == last).then_some(if quick { QUICK_SPEEDUP_FLOOR } else { SPEEDUP_FLOOR });
        run_point(label, params, scenarios, floor);
    }
    let gate = if quick { QUICK_SPEEDUP_FLOOR } else { SPEEDUP_FLOOR };
    eprintln!("# gate: >= {gate}x vs naive full re-simulation at k=2 on the largest shape");
}
