//! E11 — the §2.7 change-validation pipeline (Figure 7): bad changes
//! are blocked before production, good changes flow through, and the
//! emulator reports the same error classes as live monitoring.
//!
//! The workflow is owned by a [`Prechecker`] constructed through the
//! unified builder (`Validator::new(&meta).build_precheck(production)`).

use validatedc::prelude::*;

fn prechecker(production: ManagedNetwork) -> Prechecker {
    let meta = MetadataService::from_topology(&production.topology);
    Validator::new(&meta).build_precheck(&production)
}

#[test]
fn healthy_baseline_validates_clean() {
    let f = figure3();
    let w = prechecker(ManagedNetwork::new(f.topology));
    assert!(w.validate(w.production()).is_empty());
}

#[test]
fn route_map_regression_names_the_tor_default() {
    // The §2.6.2 "policy error": a route map rejecting default
    // announcements. The rejection must carry the regression that
    // explains it — the ToR's default contract.
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    let outcome = w.submit(&[ConfigChange::SetOverride {
        device: f.tors[0],
        config: DeviceOverride {
            reject_default_import: true,
            ..DeviceOverride::default()
        },
    }]);
    match outcome {
        WorkflowOutcome::RejectedAtPrecheck(report) => {
            assert!(!report.passed());
            assert!(report
                .regressions()
                .iter()
                .any(|v| v.device == f.tors[0] && v.prefix.is_default()));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn asn_collision_migration_rejected_at_precheck() {
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    let asn = f.topology.device(f.a[0]).asn;
    let changes: Vec<ConfigChange> = f
        .b
        .iter()
        .map(|&leaf| ConfigChange::SetOverride {
            device: leaf,
            config: DeviceOverride {
                asn_override: Some(asn),
                ..DeviceOverride::default()
            },
        })
        .collect();
    assert!(matches!(
        w.submit(&changes),
        WorkflowOutcome::RejectedAtPrecheck(_)
    ));
}

#[test]
fn link_shutdown_for_maintenance_is_caught() {
    // Shutting a ToR uplink violates the ToR's default contract
    // (reduced ECMP) — precheck rejects; the operator knows the
    // maintenance will reduce redundancy before touching anything.
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    let link = f.topology.link_between(f.tors[0], f.a[0]).unwrap().id;
    let outcome = w.submit(&[ConfigChange::SetLinkState {
        link,
        state: LinkState::AdminShut,
    }]);
    match outcome {
        WorkflowOutcome::RejectedAtPrecheck(report) => {
            let regs = report.regressions();
            assert!(regs.iter().any(|v| v.device == f.tors[0]));
            // The leaf loses its route toward the ToR's prefix.
            assert!(regs.iter().any(|v| v.device == f.a[0]));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn precheck_ignores_preexisting_violations() {
    // Production already has a fault; an unrelated benign change
    // must not be blamed for it. Contracts come from the intended
    // topology, so the fault shows in the baseline.
    let f = figure3();
    let mut production = ManagedNetwork::new(f.topology.clone());
    let link = production
        .topology
        .link_between(f.tors[1], f.a[3])
        .unwrap()
        .id;
    production.topology.set_link_state(link, LinkState::OperDown);
    let meta = MetadataService::from_topology(&f.topology);
    let mut w = Validator::new(&meta).build_precheck(&production);
    assert!(
        !w.validate(w.production()).is_empty(),
        "pre-existing fault is visible"
    );
    let outcome = w.submit(&[ConfigChange::SetOverride {
        device: f.tors[0],
        config: DeviceOverride::default(),
    }]);
    assert!(matches!(outcome, WorkflowOutcome::Deployed));
}

#[test]
fn route_map_bug_blocked_before_production() {
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    let bad = DeviceOverride {
        reject_default_import: true,
        ..DeviceOverride::default()
    };
    let outcome = w.submit(&[ConfigChange::SetOverride {
        device: f.tors[0],
        config: bad,
    }]);
    assert!(matches!(outcome, WorkflowOutcome::RejectedAtPrecheck(_)));
    assert!(w.validate(w.production()).is_empty());
}

#[test]
fn interop_style_bug_mix_blocked() {
    // A change batch mixing an ECMP misconfiguration with an ASN
    // override — the multi-root-cause change the pre-check pipeline is
    // built to catch.
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    let ecmp = DeviceOverride {
        max_ecmp: Some(1),
        ..DeviceOverride::default()
    };
    let asn = DeviceOverride {
        asn_override: Some(f.topology.device(f.a[0]).asn),
        ..DeviceOverride::default()
    };
    let outcome = w.submit(&[
        ConfigChange::SetOverride {
            device: f.tors[2],
            config: ecmp,
        },
        ConfigChange::SetOverride {
            device: f.b[0],
            config: asn,
        },
    ]);
    match outcome {
        WorkflowOutcome::RejectedAtPrecheck(report) => {
            let regs = report.regressions();
            assert!(regs.iter().any(|v| v.device == f.tors[2]));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn benign_then_restore_deploys_cleanly() {
    let f = figure3();
    let mut w = prechecker(ManagedNetwork::new(f.topology.clone()));
    // Benign no-op.
    assert!(matches!(
        w.submit(&[ConfigChange::SetOverride {
            device: f.d[0],
            config: DeviceOverride::default(),
        }]),
        WorkflowOutcome::Deployed
    ));
    assert!(w.validate(w.production()).is_empty());
}

#[test]
fn repair_change_on_faulted_network_deploys() {
    // Production has an admin-shut link (drift). The change that
    // restores it must pass the pre-check (it removes violations).
    let f = figure3();
    let mut production = ManagedNetwork::new(f.topology.clone());
    let link = production
        .topology
        .link_between(f.tors[0], f.a[0])
        .unwrap()
        .id;
    production.topology.set_link_state(link, LinkState::AdminShut);
    let mut w = prechecker(production);
    assert!(!w.validate(w.production()).is_empty());

    let outcome = w.submit(&[ConfigChange::SetLinkState {
        link,
        state: LinkState::Up,
    }]);
    assert!(matches!(outcome, WorkflowOutcome::Deployed));
    assert!(w.validate(w.production()).is_empty());
}

#[test]
fn emulated_and_live_error_classes_match() {
    // §2.7: "RCDC is then used on FIBs extracted from these networks,
    // reporting the same class of errors as on the live network."
    let f = figure3();
    for scenario in 0..3u32 {
        let mut live = ManagedNetwork::new(f.topology.clone());
        match scenario {
            0 => {
                live.config = std::mem::take(&mut live.config).with_rib_fib_bug(f.tors[0], 1)
            }
            1 => live.config = std::mem::take(&mut live.config).with_l2_port_bug(f.a[2]),
            _ => {
                let l = live.topology.link_between(f.tors[1], f.a[1]).unwrap().id;
                live.topology.set_link_state(l, LinkState::OperDown);
            }
        }
        let emulated = live.clone();
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        assert_eq!(
            live.validate(&contracts),
            emulated.validate(&contracts),
            "scenario {scenario}"
        );
    }
}
