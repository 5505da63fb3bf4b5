//! E15 — observability overhead. The metrics layer claims its
//! pre-resolved handles make instrumentation free on the hot path;
//! this holds the claim to a number: an instrumented k = 1 exhaustive
//! what-if sweep — the observed engine's `validate_patch` timer per
//! changed device, the `rcdc_whatif_*` families per scenario — must
//! stay within 2% of an uninstrumented one.
//!
//! It is a timing gate, so it is `#[ignore]`d — `cargo test` stays
//! timing-free — and CI's `metrics-smoke` job runs it on an optimized
//! build:
//! `cargo test --release -p rcdc --test observability_overhead -- --ignored`.

use bgpsim::SimConfig;
use dctopo::{build_clos, ClosParams, MetadataService};
use obskit::Registry;
use rcdc::{SweepOptions, Validator, WhatIfSweeper};
use std::time::{Duration, Instant};

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn instrumented_whatif_sweep_stays_within_two_percent() {
    let topology = build_clos(&ClosParams::default());
    let meta = MetadataService::from_topology(&topology);
    let healthy = SimConfig::healthy();

    let plain = Validator::new(&meta).build_whatif(&topology, &healthy);
    let registry = Registry::new();
    let observed = Validator::new(&meta)
        .metrics(&registry)
        .build_whatif(&topology, &healthy);
    let opts = SweepOptions {
        k: 1,
        exhaustive: true,
        ..SweepOptions::default()
    };
    let scenarios = plain.sweep(&opts).scenarios_checked;
    assert_eq!(observed.sweep(&opts).scenarios_checked, scenarios);

    // Min-of-trials on both sides drowns scheduler noise, which only
    // ever inflates a measurement; alternating the arms trial by trial
    // keeps a slow stretch of the machine from landing on one side.
    const TRIALS: usize = 40;
    const SWEEPS: u32 = 2;
    let time = |sweeper: &WhatIfSweeper| {
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            assert_eq!(sweeper.sweep(&opts).scenarios_checked, scenarios);
        }
        t0.elapsed()
    };
    let (mut base, mut instrumented) = (Duration::MAX, Duration::MAX);
    for _ in 0..TRIALS {
        base = base.min(time(&plain));
        instrumented = instrumented.min(time(&observed));
    }
    println!(
        "E15: k=1 sweep of {scenarios} scenarios {:?} plain vs {:?} instrumented ({:+.2}% overhead)",
        base / SWEEPS,
        instrumented / SWEEPS,
        (instrumented.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
    );
    // 2% relative, with a small absolute floor so sub-microsecond
    // timer jitter cannot fail the run on its own.
    assert!(
        instrumented <= base.mul_f64(1.02) + Duration::from_micros(200),
        "instrumented sweep exceeds 2% overhead: plain {base:?}, observed {instrumented:?}"
    );
}
