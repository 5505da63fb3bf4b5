//! Property tests for the rule-identification helpers that violation
//! reports cite: `Policy::first_match` and `Policy::deciding_rule`
//! must always name a rule consistent with the reference semantics
//! `Policy::allows`, under both rule-combination conventions — a
//! report blaming the wrong rule is as bad as a wrong verdict. And for
//! the two semantic differs (interval boxes, SMT): they must agree on
//! whether traffic changed hands, each with a witness that did.

use netprim::{HeaderSpace, HeaderTuple, IpRange, Ipv4, PortRange, Protocol};
use proptest::prelude::*;
use secguru::diff::{semantic_diff, SmtDiff};
use secguru::{Action, Convention, Policy, Rule};

/// A deliberately small universe (16 addresses, 4 ports, 3 protocol
/// numbers) so random rules and random packets actually collide.
fn arb_space() -> impl Strategy<Value = HeaderSpace> {
    (
        (0u32..16, 0u32..16),
        (0u16..4, 0u16..4),
        (0u32..16, 0u32..16),
        (0u16..4, 0u16..4),
        0u8..4,
    )
        .prop_map(|(src, sp, dst, dp, proto)| {
            let ips = |(a, b): (u32, u32)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                IpRange::new(Ipv4(lo), Ipv4(hi)).unwrap()
            };
            let ports = |(a, b): (u16, u16)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                PortRange::new(lo, hi).unwrap()
            };
            HeaderSpace {
                src: ips(src),
                src_ports: ports(sp),
                dst: ips(dst),
                dst_ports: ports(dp),
                protocol: match proto {
                    0 => Protocol::Any,
                    1 => Protocol::Tcp,
                    2 => Protocol::Udp,
                    _ => Protocol::Number(99),
                },
            }
        })
}

fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec((arb_space(), any::<bool>(), 0u32..8), 0..8).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (filter, permit, priority))| Rule {
                name: format!("r{i}"),
                priority,
                filter,
                action: if permit { Action::Permit } else { Action::Deny },
            })
            .collect()
    })
}

fn arb_packet() -> impl Strategy<Value = HeaderTuple> {
    (0u32..16, 0u16..4, 0u32..16, 0u16..4, 0u8..4).prop_map(
        |(src_ip, src_port, dst_ip, dst_port, proto)| HeaderTuple {
            src_ip: Ipv4(src_ip),
            src_port,
            dst_ip: Ipv4(dst_ip),
            dst_port,
            protocol: match proto {
                1 => 6,
                2 => 17,
                3 => 99,
                _ => proto,
            },
        },
    )
}

/// The consistency conditions a report helper must satisfy for one
/// packet against one policy.
fn check_consistency(p: &Policy, h: &HeaderTuple) -> Result<(), TestCaseError> {
    let allowed = p.allows(h);
    let deciding = p.deciding_rule(h);
    let first = p.first_match(h);

    // The verdict follows from the deciding rule: permitted iff the
    // deciding rule is a permit (no rule ⇒ default deny under both
    // conventions — §3.1 default deny, §3.2 requires a permit).
    prop_assert_eq!(
        allowed,
        matches!(deciding, Some(r) if r.action == Action::Permit),
        "verdict {} inconsistent with deciding rule {:?} for {}",
        allowed,
        deciding.map(|r| &r.name),
        h
    );

    // Whatever rule a report names must actually match the packet.
    if let Some(r) = deciding {
        prop_assert!(r.matches(h), "deciding rule {} does not match {}", r.name, h);
    }
    if let Some(r) = first {
        prop_assert!(r.matches(h), "first_match {} does not match {}", r.name, h);
        // ... and be the earliest matching rule in evaluation order.
        let earliest = p.rules().iter().find(|c| c.matches(h)).unwrap();
        prop_assert_eq!(&r.name, &earliest.name);
    }
    prop_assert_eq!(first.is_some(), p.rules().iter().any(|r| r.matches(h)));

    match p.convention {
        // Definition 3.1: the first matching rule IS the decision.
        Convention::FirstApplicable => {
            prop_assert_eq!(first.map(|r| &r.name), deciding.map(|r| &r.name));
        }
        // Definition 3.2: a matching deny always wins; a named permit
        // implies no deny matched at all.
        Convention::DenyOverrides => {
            if let Some(r) = deciding {
                if r.action == Action::Permit {
                    prop_assert!(
                        !p.rules().iter().any(|c| c.action == Action::Deny && c.matches(h)),
                        "permit {} named although a deny matches {}",
                        r.name,
                        h
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn report_helpers_consistent_first_applicable(
        rules in arb_rules(),
        packets in proptest::collection::vec(arb_packet(), 1..16),
    ) {
        let p = Policy::new("prop", Convention::FirstApplicable, rules);
        for h in &packets {
            check_consistency(&p, h)?;
        }
    }

    #[test]
    fn report_helpers_consistent_deny_overrides(
        rules in arb_rules(),
        packets in proptest::collection::vec(arb_packet(), 1..16),
    ) {
        let p = Policy::new("prop", Convention::DenyOverrides, rules);
        for h in &packets {
            check_consistency(&p, h)?;
        }
    }

    #[test]
    fn removing_the_deciding_rule_changes_or_preserves_soundly(
        rules in arb_rules(),
        h in arb_packet(),
    ) {
        // A sanity link between the helpers and `without_rule`: after
        // deleting the named deciding rule, that rule can no longer be
        // the decider (names are unique in these generated policies).
        for conv in [Convention::FirstApplicable, Convention::DenyOverrides] {
            let p = Policy::new("prop", conv, rules.clone());
            if let Some(name) = p.deciding_rule(&h).map(|r| r.name.clone()) {
                let pruned = p.without_rule(&name);
                prop_assert!(pruned.deciding_rule(&h).is_none_or(|r| r.name != name));
                check_consistency(&pruned, &h)?;
            }
        }
    }

    #[test]
    fn interval_diff_agrees_with_smt_diff(old in arb_rules(), new in arb_rules()) {
        const CONVENTIONS: [Convention; 2] =
            [Convention::FirstApplicable, Convention::DenyOverrides];
        for old_conv in CONVENTIONS {
            for new_conv in CONVENTIONS {
                let old = Policy::new("old", old_conv, old.clone());
                let new = Policy::new("new", new_conv, new.clone());
                let interval = semantic_diff(&old, &new);
                let smt = SmtDiff::new(&old, &new).diff();
                prop_assert_eq!(interval.newly_denied.is_some(), smt.newly_denied.is_some());
                prop_assert_eq!(interval.newly_permitted.is_some(), smt.newly_permitted.is_some());
                for w in [interval.newly_denied, smt.newly_denied].into_iter().flatten() {
                    prop_assert!(old.allows(&w) && !new.allows(&w), "{} not newly denied", w);
                }
                for w in [interval.newly_permitted, smt.newly_permitted].into_iter().flatten() {
                    prop_assert!(!old.allows(&w) && new.allows(&w), "{} not newly permitted", w);
                }
            }
        }
    }
}
