//! The two search policies agree wherever their domains overlap.
//!
//! The what-if sweeper and the rollout planner are thin policies over
//! one state-evaluation core: a set of live links going down is a
//! failure scenario to the one and a batch of `AdminShut` changes to
//! the other. On Figure 3 and on small generated Clos fabrics,
//! optionally already degraded, for a random set `F` of live links:
//!
//! * the sweeper's spliced reports for `F`,
//! * the planner's state reports for `F`, and
//! * a from-scratch simulation of the faulted fabric validated cold
//!
//! are the same per-device report vector, byte for byte; and the
//! sweeper's `matching_violations` is this test's own count of the
//! condition-matching violations in that vector, under every kind of
//! fail condition.

use proptest::prelude::*;
use validatedc::prelude::*;

/// A replayable fabric: Figure 3, or a Clos small enough to simulate
/// from scratch per case.
#[derive(Debug, Clone)]
enum Fabric {
    Figure3,
    Clos { tors: u32, leaves: u32 },
}

fn fabric_strategy() -> impl Strategy<Value = Fabric> {
    prop_oneof![
        Just(Fabric::Figure3),
        (2u32..4, 2u32..5).prop_map(|(tors, leaves)| Fabric::Clos { tors, leaves }),
    ]
}

impl Fabric {
    /// The intended topology (what contracts are derived from).
    fn build(&self) -> Topology {
        match *self {
            Fabric::Figure3 => figure3().topology,
            Fabric::Clos { tors, leaves } => build_clos(&ClosParams {
                clusters: 2,
                tors_per_cluster: tors,
                leaves_per_cluster: leaves,
                // One spine plane per leaf position, two spines each.
                spines: 2 * leaves,
                regional_spines: 2,
                regional_groups: 1,
                prefixes_per_tor: 1,
            }),
        }
    }
}

/// This test's own reading of a fail condition.
fn matches(v: &Violation, condition: FailCondition, meta: &MetadataService) -> bool {
    match condition {
        FailCondition::AnyViolation => true,
        FailCondition::Blackhole => matches!(v.reason, rcdc::ViolationReason::MissingDefault),
        FailCondition::AtLeast(min) => risk_of(v, meta) >= min,
    }
}

/// One case: `degrade` picks a link that is already down in
/// production, `picks` the live links that fail on top. Returns how
/// many devices were revalidated against an anchor report that was not
/// clean.
fn check_agreement(
    fabric: &Fabric,
    degrade: Option<usize>,
    picks: &[usize],
) -> Result<usize, TestCaseError> {
    let mut dirty_anchors = 0;
    let intended = fabric.build();
    let meta = MetadataService::from_topology(&intended);
    let mut production = intended.clone();
    if let Some(d) = degrade {
        let link = production.links()[d % production.links().len()].id;
        production.set_link_state(link, LinkState::OperDown);
    }
    let sweeper = Validator::new(&meta).build_whatif(&production, &SimConfig::healthy());
    let planner = Validator::new(&meta).build_planner(&ManagedNetwork::new(production.clone()));

    // F: distinct live links.
    let universe = sweeper.universe(false);
    let mut scenario: Vec<FailureElement> = Vec::new();
    for &p in picks {
        let e = universe[p % universe.len()];
        if !scenario.contains(&e) {
            scenario.push(e);
        }
    }
    let links: Vec<_> = scenario
        .iter()
        .map(|e| match e {
            FailureElement::Link(l) => *l,
            FailureElement::Device(_) => unreachable!("the universe excludes devices"),
        })
        .collect();

    let mut faulted = production.clone();
    for &link in &links {
        faulted.set_link_state(link, LinkState::AdminShut);
    }
    let scratch = Validator::new(&meta)
        .build()
        .run(&simulate(&faulted, &SimConfig::healthy()))
        .reports;

    let shuts: Vec<ConfigChange> = links
        .iter()
        .map(|&link| ConfigChange::SetLinkState { link, state: LinkState::AdminShut })
        .collect();
    prop_assert_eq!(&planner.state_reports(&shuts).unwrap(), &scratch);

    for condition in [
        FailCondition::AnyViolation,
        FailCondition::Blackhole,
        FailCondition::AtLeast(Risk::High),
    ] {
        let check = sweeper.check_scenario(&scenario, condition);
        prop_assert_eq!(&sweeper.spliced_reports(&check), &scratch);
        dirty_anchors += check
            .changed
            .iter()
            .filter(|(d, _)| !sweeper.healthy_reports()[d.0 as usize].is_clean())
            .count();
        let expected = scratch
            .iter()
            .flat_map(|r| &r.violations)
            .filter(|v| matches(v, condition, &meta))
            .count();
        prop_assert_eq!(check.matching_violations, expected, "{}", condition);
        prop_assert_eq!(check.fails, expected > 0);
    }
    Ok(dirty_anchors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sweeper_planner_and_scratch_agree_on_link_failures(
        fabric in fabric_strategy(),
        degrade in prop_oneof![Just(None), (0usize..10_000).prop_map(Some)],
        picks in proptest::collection::vec(0usize..10_000, 0..4),
    ) {
        check_agreement(&fabric, degrade, &picks)?;
    }
}

/// Pre-degraded production, pinned: with Figure 3's first link already
/// down, this failure changes devices whose anchor reports carry
/// violations — some on contracts the change cannot affect, which have
/// to survive the splice — so revalidation against a dirty prior is
/// compared against scratch on every run, not only when the random
/// cases happen to reach it.
#[test]
fn pre_degraded_anchor_is_revalidated_dirty() {
    let dirty = check_agreement(&Fabric::Figure3, Some(0), &[3]).unwrap();
    assert!(dirty > 0, "no changed device had a violating anchor report");
}
