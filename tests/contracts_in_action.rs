//! E7 — the paper's worked example, end to end (§2.4.4, Figures 3/4).
//!
//! Four link failures in the Figure 3 topology: ToR1 loses its uplinks
//! to A3/A4, ToR2 loses its uplinks to A1/A2. The paper states the
//! exact violation pattern; both verification engines must reproduce
//! it, and the independent global checker must confirm the "longer
//! route" consequence.

use validatedc::prelude::*;

struct Fixture {
    f: dctopo::generator::Figure3,
    fibs: Vec<bgpsim::Fib>,
    contracts: Vec<rcdc::contracts::DeviceContracts>,
    meta: MetadataService,
}

fn faulted_fixture() -> Fixture {
    let mut f = figure3();
    for (tor, leaves) in [
        (f.tors[0], [f.a[2], f.a[3]]),
        (f.tors[1], [f.a[0], f.a[1]]),
    ] {
        for leaf in leaves {
            let l = f.topology.link_between(tor, leaf).unwrap().id;
            f.topology.set_link_state(l, LinkState::OperDown);
        }
    }
    let fibs = simulate(&f.topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    Fixture {
        f,
        fibs,
        contracts,
        meta,
    }
}

fn check_paper_claims(engine: &dyn Engine, fx: &Fixture) {
    let report =
        |d: DeviceId| engine.validate_device(&fx.fibs[d.0 as usize], &fx.contracts[d.0 as usize]);
    let f = &fx.f;

    // "ToR1, A1, A2, D1, and D2 have a contract failure for Prefix_B."
    for d in [f.tors[0], f.a[0], f.a[1], f.d[0], f.d[1]] {
        assert!(
            report(d).violations.iter().any(|v| v.prefix == f.prefixes[1]),
            "{} must violate Prefix_B under engine {}",
            fx.meta.device(d).name,
            engine.name()
        );
    }
    // "ToR2, A3, A4, D3, and D4 have a similar failure for Prefix_A."
    for d in [f.tors[1], f.a[2], f.a[3], f.d[2], f.d[3]] {
        assert!(
            report(d).violations.iter().any(|v| v.prefix == f.prefixes[0]),
            "{} must violate Prefix_A",
            fx.meta.device(d).name
        );
    }
    // "Both ToR1 and ToR2 have a default contract failure because the
    // default route in both devices have only two next hops compared to
    // the expected four."
    for d in [f.tors[0], f.tors[1]] {
        let r = report(d);
        let default_violation = r
            .violations
            .iter()
            .find(|v| v.prefix.is_default())
            .expect("default contract must fail");
        match &default_violation.reason {
            rcdc::report::ViolationReason::DefaultMismatch { expected, actual } => {
                assert_eq!(expected.len(), 4);
                assert_eq!(actual.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }
    // "R1, R2, D3, D4, A3, and A4 have no contract failures for
    // Prefix_B" — the availability of the longer route.
    for d in [f.r[0], f.r[1], f.d[2], f.d[3], f.a[2], f.a[3]] {
        assert!(
            !report(d).violations.iter().any(|v| v.prefix == f.prefixes[1]),
            "{} must be clean for Prefix_B",
            fx.meta.device(d).name
        );
    }
    // Regional spines carry no contracts and are wholly clean.
    for d in f.r {
        assert!(report(d).is_clean());
    }
}

#[test]
fn trie_engine_reproduces_the_worked_example() {
    let fx = faulted_fixture();
    check_paper_claims(&TrieEngine::new(), &fx);
}

#[test]
fn smt_engine_reproduces_the_worked_example() {
    let fx = faulted_fixture();
    check_paper_claims(&SmtEngine::new(), &fx);
}

#[test]
fn traffic_follows_the_longer_route_through_regional_spines() {
    // "First, such packets must follow default routes all the way up to
    // R1 or R2. … the packets must be able to follow the specific
    // routes in those devices to reach ToR2."
    let fx = faulted_fixture();
    let f = &fx.f;
    let analysis =
        difftest::reference::global_baseline::forwarding_analysis(&fx.fibs, &fx.meta, f.prefixes[1]);
    match analysis.from_device(f.tors[0]) {
        difftest::reference::global_baseline::PathInfo::Reaches { min_len, .. } => {
            assert_eq!(min_len, 6, "2 + 4 extra hops via the regional spine");
        }
        other => panic!("{other:?}"),
    }
    // And the reverse direction, ToR2 -> Prefix_A.
    let analysis =
        difftest::reference::global_baseline::forwarding_analysis(&fx.fibs, &fx.meta, f.prefixes[0]);
    match analysis.from_device(f.tors[1]) {
        difftest::reference::global_baseline::PathInfo::Reaches { min_len, .. } => {
            assert_eq!(min_len, 6);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn severity_ranks_regional_higher_than_spine_blast_radius() {
    // §2.4.4: "the severity of an error in R1 is higher than a similar
    // error in D1" — in our risk model both spine tiers are High, and
    // ToR-level missing specifics are Low; verify the ordering the
    // remediation queues rely on.
    let fx = faulted_fixture();
    let f = &fx.f;
    let engine = TrieEngine::new();
    let d1_report =
        engine.validate_device(&fx.fibs[f.d[0].0 as usize], &fx.contracts[f.d[0].0 as usize]);
    let d1_risk = d1_report
        .violations
        .iter()
        .map(|v| risk_of(v, &fx.meta))
        .max()
        .unwrap();
    assert_eq!(d1_risk, Risk::High);

    let tor_report = engine.validate_device(
        &fx.fibs[f.tors[0].0 as usize],
        &fx.contracts[f.tors[0].0 as usize],
    );
    let specific_risk = tor_report
        .violations
        .iter()
        .filter(|v| !v.prefix.is_default())
        .map(|v| risk_of(v, &fx.meta))
        .max()
        .unwrap();
    assert!(specific_risk < Risk::High);
}

#[test]
fn healthy_figure3_has_zero_violations_and_maximal_paths() {
    let f = figure3();
    let fibs = simulate(&f.topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&f.topology);
    let report = Validator::new(&meta).build().run(&fibs);
    assert!(report.is_clean());
    // Redundant shortest paths: 4 per ToR pair (Intent 3).
    for (pi, &prefix) in f.prefixes.iter().enumerate() {
        let analysis = difftest::reference::global_baseline::forwarding_analysis(&fibs, &meta, prefix);
        for (ti, &tor) in f.tors.iter().enumerate() {
            if ti == pi {
                continue;
            }
            match analysis.from_device(tor) {
                difftest::reference::global_baseline::PathInfo::Reaches { paths, .. } => {
                    assert_eq!(paths, 4)
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
