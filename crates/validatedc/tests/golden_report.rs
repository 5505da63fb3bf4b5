//! Golden snapshots of the `validatedc` report texts.
//!
//! The rendered report is the operator-facing contract of the CLI:
//! for `validate` the summary line, solver totals (`SessionStats`),
//! and the triaged dirty-device list, pinned for a fixed faulted
//! datacenter on the SMT engine; for `whatif` a `Robust(k)`
//! certificate and a counterexample, for `plan` a safe plan and a
//! minimal unsafe change set, each on a seeded Figure-3-sized fabric.
//! Any change to wording, triage, risk ranking, or solver accounting
//! shows up as a diff.
//!
//! To update after an intentional change, bless the snapshots:
//!
//! ```text
//! BLESS=1 cargo test -p validatedc --test golden_report
//! ```

use validatedc::prelude::*;
use validatedc::render::{render_plan, render_validate_report, render_whatif};

/// Hold `got` to the snapshot `tests/golden/<name>.txt` (or write it,
/// under `BLESS`).
fn assert_golden(name: &str, got: &str) {
    let golden = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {golden} ({e}); run with BLESS=1 to create it")
    });
    assert!(
        got == want,
        "report drifted from golden snapshot.\n--- golden\n{want}\n--- got\n{got}\n\
         If the change is intentional, re-bless with:\n  \
         BLESS=1 cargo test -p validatedc --test golden_report"
    );
}

/// A small datacenter with two deterministically failed links — enough
/// to produce violations on several devices with mixed risk ranks.
fn rendered_report() -> String {
    let params = ClosParams {
        clusters: 2,
        tors_per_cluster: 4,
        leaves_per_cluster: 2,
        spines: 4,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    };
    let mut topology = build_clos(&params);
    let links = topology.links().len() as u32;
    // Fixed link choices (not RNG-drawn) so the snapshot depends only
    // on the generator and the validator, not on any PRNG stream.
    for l in [3u32, links / 2, links - 5] {
        topology.set_link_state(dctopo::LinkId(l), LinkState::OperDown);
    }
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let validator = Validator::new(&meta)
        .engine(EngineChoice::Smt)
        .threads(1)
        .build();
    let report = validator.run(&fibs);
    assert!(
        !report.is_clean(),
        "scenario must produce violations or the snapshot tests nothing"
    );
    let solver = report.solver_totals();
    assert!(
        solver.queries > 0,
        "SMT engine must contribute SessionStats totals to the report"
    );
    render_validate_report(&report, &topology, &meta, None)
}

#[test]
fn validate_report_matches_golden_snapshot() {
    assert_golden("validate_report", &rendered_report());
}

/// The 24-device fabric of `--clusters 2 --tors 2` (Figure 3 has 20).
fn small_fabric() -> Topology {
    build_clos(&ClosParams {
        clusters: 2,
        tors_per_cluster: 2,
        leaves_per_cluster: 4,
        spines: 8,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    })
}

#[test]
fn whatif_renders_match_golden_snapshots() {
    let topology = small_fabric();
    let meta = MetadataService::from_topology(&topology);
    let sweeper = Validator::new(&meta).build_whatif(&topology, &SimConfig::healthy());
    for (name, condition) in [
        ("whatif_robust", FailCondition::Blackhole),
        ("whatif_counterexample", FailCondition::AtLeast(Risk::High)),
    ] {
        let options = SweepOptions {
            k: 1,
            threads: 1,
            condition,
            ..SweepOptions::default()
        };
        let report = sweeper.sweep(&options);
        assert_eq!(report.is_robust(), name == "whatif_robust");
        assert_golden(name, &render_whatif(&report, &topology, false, None));
    }
}

#[test]
fn plan_renders_match_golden_snapshots() {
    for (name, scenario, racks, accept_final) in [
        ("plan_safe", RolloutScenario::Migrate, 1, true),
        ("plan_unsafe", RolloutScenario::Decommission, 2, false),
    ] {
        let (net, changes) = seeded_scenario(&small_fabric(), scenario, racks, 11);
        let meta = MetadataService::from_topology(&net.topology);
        let planner = Validator::new(&meta).build_planner(&net);
        let options = PlanOptions {
            condition: FailCondition::Blackhole,
            accept_final,
            max_backtracks: 4096,
            threads: 1,
        };
        let naive = planner.check_order(&changes, &options).expect("plannable");
        let report = planner.plan(&changes, &options).expect("plannable");
        assert_eq!(report.is_safe(), name == "plan_safe");
        let rendered = render_plan(&naive, &report, &changes, &net.topology, None);
        assert_golden(name, &rendered);
    }
}

#[test]
fn rendering_is_deterministic() {
    assert_eq!(rendered_report(), rendered_report());
}

#[test]
fn elapsed_suffix_is_the_only_nondeterministic_part() {
    // The CLI passes `Some(elapsed)`; everything after the summary
    // line must be identical with and without it.
    let without = rendered_report();
    let tail = without.split_once('\n').unwrap().1;
    assert!(!tail.is_empty());
    assert!(without.starts_with("checked "));
}
