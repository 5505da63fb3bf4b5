//! E15 — observability overhead. The metrics layer claims its
//! pre-resolved handles make instrumentation free on the hot path;
//! this holds the claim to a number: an instrumented warm incremental
//! pass (the steady-state workload) must stay within 2% of an
//! uninstrumented one.
//!
//! It is a timing gate, so it is `#[ignore]`d — `cargo test` stays
//! timing-free — and CI's `metrics-smoke` job runs it on an optimized
//! build:
//! `cargo test --release -p rcdc --test observability_overhead -- --ignored`.

use bgpsim::{simulate, SimConfig};
use dctopo::{build_clos, ClosParams, MetadataService};
use obskit::Registry;
use rcdc::{DatacenterReport, Validator};
use std::time::{Duration, Instant};

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn instrumented_warm_pass_stays_within_two_percent() {
    let topology = build_clos(&ClosParams::default());
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);

    let plain = Validator::new(&meta).build();
    let registry = Registry::new();
    let observed = Validator::new(&meta).metrics(&registry).build();
    let plain_report = plain.run(&fibs);
    let observed_report = observed.run(&fibs);

    // Min-of-trials on both sides drowns scheduler noise, which only
    // ever inflates a measurement.
    const TRIALS: usize = 5;
    const PASSES: u32 = 60;
    let min_warm = |v: &Validator, warm: &DatacenterReport| {
        (0..TRIALS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..PASSES {
                    let r = v.run_incremental(&fibs, warm);
                    assert_eq!(r.reused, fibs.len());
                }
                t0.elapsed()
            })
            .min()
            .expect("TRIALS > 0")
    };
    let base = min_warm(&plain, &plain_report);
    let instrumented = min_warm(&observed, &observed_report);
    println!(
        "E15: warm pass {:?} plain vs {:?} instrumented ({:+.2}% overhead)",
        base / PASSES,
        instrumented / PASSES,
        (instrumented.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
    );
    // 2% relative, with a small absolute floor so sub-microsecond
    // timer jitter cannot fail the run on its own.
    assert!(
        instrumented <= base.mul_f64(1.02) + Duration::from_micros(200),
        "instrumented warm pass exceeds 2% overhead: plain {base:?}, observed {instrumented:?}"
    );
}
