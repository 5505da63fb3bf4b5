//! E10 — the §2.6.2 error taxonomy: every root cause the paper's
//! deployment uncovered is injected, detected, and classified.

use validatedc::prelude::*;

struct Scenario {
    name: &'static str,
    expect_cause: RootCause,
    expect_device: DeviceId,
}

fn run_scenario(
    mutate: impl FnOnce(&mut dctopo::generator::Figure3, &mut SimConfig) -> Scenario,
) -> (Scenario, Option<Classification>, usize) {
    let mut f = figure3();
    let mut config = SimConfig::healthy();
    let scenario = mutate(&mut f, &mut config);
    let fibs = simulate(&f.topology, &config);
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    let engine = TrieEngine::new();
    let d = scenario.expect_device;
    let report = engine.validate_device(&fibs[d.0 as usize], &contracts[d.0 as usize]);
    let count = report.violations.len();
    let classification = classify_device(d, &report, &f.topology, &meta);
    (scenario, classification, count)
}

#[test]
fn software_bug_1_rib_fib_inconsistency() {
    // "Those devices used significantly fewer next hops for the default
    // route compared to expected, and therefore violated the default
    // contracts."
    let (s, c, n) = run_scenario(|f, config| {
        *config = std::mem::take(config).with_rib_fib_bug(f.tors[0], 1);
        Scenario {
            name: "rib-fib",
            expect_cause: RootCause::RibFibInconsistency,
            expect_device: f.tors[0],
        }
    });
    let c = c.unwrap_or_else(|| panic!("{} must be detected", s.name));
    assert_eq!(c.cause, s.expect_cause);
    assert!(n >= 1);
}

#[test]
fn software_bug_2_layer2_ports() {
    // "BGP sessions could not be set up on any of the interfaces in
    // those devices, and therefore their routing tables violated all
    // forwarding contracts."
    let (s, c, n) = run_scenario(|f, config| {
        *config = std::mem::take(config).with_l2_port_bug(f.a[0]);
        Scenario {
            name: "l2-ports",
            expect_cause: RootCause::Layer2PortBug,
            expect_device: f.a[0],
        }
    });
    let c = c.unwrap();
    assert_eq!(c.cause, s.expect_cause);
    // ALL contracts violated: default + 4 specifics.
    assert_eq!(n, 5);
}

#[test]
fn hardware_failure_optical_cable() {
    let (s, c, _) = run_scenario(|f, _| {
        let l = f.topology.link_between(f.tors[0], f.a[0]).unwrap().id;
        f.topology.set_link_state(l, LinkState::OperDown);
        Scenario {
            name: "hardware",
            expect_cause: RootCause::HardwareFailure,
            expect_device: f.tors[0],
        }
    });
    let c = c.unwrap();
    assert_eq!(c.cause, s.expect_cause);
    assert_eq!(
        c.remediation,
        rcdc::classify::Remediation::ReplaceCable,
        "cabling faults are remediated by replacing the cables (§2.6.1)"
    );
}

#[test]
fn operation_drift_admin_shut_never_restored() {
    let (s, c, _) = run_scenario(|f, _| {
        let l = f.topology.link_between(f.tors[0], f.a[1]).unwrap().id;
        f.topology.set_link_state(l, LinkState::AdminShut);
        Scenario {
            name: "drift",
            expect_cause: RootCause::OperationDrift,
            expect_device: f.tors[0],
        }
    });
    let c = c.unwrap();
    assert_eq!(c.cause, s.expect_cause);
    assert_eq!(c.remediation, rcdc::classify::Remediation::UnshutAndMonitor);
}

#[test]
fn migration_asn_collision() {
    // "The top-of-rack switches violated all the specific contracts.
    // There were no reachability issues because the traffic … was
    // following default routes and reaching the correct destination."
    let f = figure3();
    let asn = f.topology.device(f.a[0]).asn;
    let mut config = SimConfig::healthy();
    for &leaf in &f.b {
        config = config.with_asn_override(leaf, asn);
    }
    let fibs = simulate(&f.topology, &config);
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    let engine = TrieEngine::new();

    let report = engine.validate_device(
        &fibs[f.tors[0].0 as usize],
        &contracts[f.tors[0].0 as usize],
    );
    // Specific contracts for the remote cluster violated; default fine.
    assert!(report.violations.iter().all(|v| !v.prefix.is_default()));
    assert_eq!(report.violations.len(), 2, "both cluster-B prefixes");
    let c = classify_device(f.tors[0], &report, &f.topology, &meta).unwrap();
    assert_eq!(c.cause, RootCause::MigrationAsnCollision);

    // "There were no reachability issues": defaults climb to the spine
    // tier, which still holds the specifics, so traffic is delivered —
    // the latent risk only materializes under additional link failures.
    match difftest::reference::global_baseline::forwarding_analysis(&fibs, &meta, f.prefixes[2])
        .from_device(f.tors[0])
    {
        difftest::reference::global_baseline::PathInfo::Reaches { min_len, .. } => {
            assert_eq!(min_len, 4, "delivered via default routes")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn policy_error_default_rejected() {
    let (s, c, _) = run_scenario(|f, config| {
        *config = std::mem::take(config).with_default_reject(f.tors[0]);
        Scenario {
            name: "route-map",
            expect_cause: RootCause::PolicyError,
            expect_device: f.tors[0],
        }
    });
    assert_eq!(c.unwrap().cause, s.expect_cause);
}

#[test]
fn policy_error_single_next_hop_ecmp() {
    let (s, c, _) = run_scenario(|f, config| {
        *config = std::mem::take(config).with_max_ecmp(f.tors[0], 1);
        Scenario {
            name: "ecmp",
            expect_cause: RootCause::EcmpMisconfiguration,
            expect_device: f.tors[0],
        }
    });
    assert_eq!(c.unwrap().cause, s.expect_cause);
}

#[test]
fn all_scenarios_detected_by_full_datacenter_run() {
    // One sweep with several simultaneous faults: the runner must mark
    // exactly the affected devices dirty.
    let mut f = figure3();
    let mut config = SimConfig::healthy();
    config = config.with_rib_fib_bug(f.tors[1], 1);
    config = config.with_max_ecmp(f.tors[3], 1);
    let cable = f.topology.link_between(f.tors[0], f.a[0]).unwrap().id;
    f.topology.set_link_state(cable, LinkState::OperDown);

    let fibs = simulate(&f.topology, &config);
    let meta = MetadataService::from_topology(&f.topology);
    let report = Validator::new(&meta).build().run(&fibs);
    assert!(!report.is_clean());

    let dirty: Vec<String> = report
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_clean())
        .map(|(i, _)| meta.device(DeviceId(i as u32)).name.clone())
        .collect();
    // The injected ToRs are dirty…
    for d in [f.tors[0], f.tors[1], f.tors[3]] {
        assert!(dirty.contains(&meta.device(d).name), "{dirty:?}");
    }
    // …and so is A1 (lost its session to ToR1).
    assert!(dirty.contains(&meta.device(f.a[0]).name));
    // Regional spines are never dirty (no contracts).
    for r in f.r {
        assert!(!dirty.contains(&meta.device(r).name));
    }
}
