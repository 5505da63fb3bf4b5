//! Oracle: SecGuru's three implementations of NSG semantics.
//!
//! A random policy pair (B is a small mutation of A) is judged three
//! ways: the SMT contract checker, the interval-algebra engine, and
//! concrete `Policy::allows` evaluated over an exhaustively enumerable
//! header universe. The universe is closed by construction — rule and
//! contract filters only use 16 addresses × 4 ports per side, and every
//! protocol behaves like one of `{0, 6, 17, 99}` (any header outside
//! matches exactly the `Any`-protocol rules, the class protocol 0
//! represents) — so the concrete sweep is a complete ground truth, not
//! a sample. Cross-checks: per-contract verdicts and witness validity
//! for both engines, and `semantic_diff` / `smt_confirms_equivalence`
//! against ground-truth policy equivalence.

use crate::Failure;
use netprim::{HeaderSpace, HeaderTuple, IpRange, Ipv4, PortRange, Protocol};
use rcdc::shrink::shrink_list;
use secguru::diff::{semantic_diff, smt_confirms_equivalence};
use secguru::{Action, Contract, Convention, IntervalEngine, Policy, Rule, SecGuru};
use simnet::rng::Rng;

const IPS: u32 = 16;
const PORTS: u16 = 4;
const PROTOCOLS: [u8; 4] = [0, 6, 17, 99];

fn random_ip_range(r: &mut Rng) -> IpRange {
    let lo = r.below(u64::from(IPS)) as u32;
    let hi = r.range(u64::from(lo), u64::from(IPS) - 1) as u32;
    IpRange::new(Ipv4(lo), Ipv4(hi)).expect("lo <= hi")
}

fn random_port_range(r: &mut Rng) -> PortRange {
    let lo = r.below(u64::from(PORTS)) as u16;
    let hi = r.range(u64::from(lo), u64::from(PORTS) - 1) as u16;
    PortRange::new(lo, hi).expect("lo <= hi")
}

fn random_protocol(r: &mut Rng) -> Protocol {
    *r.pick(&[Protocol::Any, Protocol::Tcp, Protocol::Udp, Protocol::Number(99)])
}

fn random_space(r: &mut Rng) -> HeaderSpace {
    HeaderSpace {
        src: random_ip_range(r),
        src_ports: random_port_range(r),
        dst: random_ip_range(r),
        dst_ports: random_port_range(r),
        protocol: random_protocol(r),
    }
}

fn random_rule(r: &mut Rng, i: usize) -> Rule {
    Rule {
        name: format!("r{i}"),
        priority: r.below(16) as u32,
        filter: random_space(r),
        action: if r.chance(1, 2) {
            Action::Permit
        } else {
            Action::Deny
        },
    }
}

fn random_rules(r: &mut Rng) -> Vec<Rule> {
    (0..r.range(0, 8)).map(|i| random_rule(r, i as usize)).collect()
}

/// B starts as a copy of A and takes one small mutation — the shape of
/// real NSG churn (§3.4's incremental updates).
fn mutate_rules(r: &mut Rng, rules: &[Rule]) -> Vec<Rule> {
    let mut out = rules.to_vec();
    match r.below(5) {
        0 if !out.is_empty() => {
            let i = r.below(out.len() as u64) as usize;
            out.remove(i);
        }
        1 => out.push(random_rule(r, 100)),
        2 if !out.is_empty() => {
            let i = r.below(out.len() as u64) as usize;
            out[i].action = match out[i].action {
                Action::Permit => Action::Deny,
                Action::Deny => Action::Permit,
            };
        }
        3 if !out.is_empty() => {
            let i = r.below(out.len() as u64) as usize;
            out[i].priority = r.below(16) as u32;
        }
        _ => {}
    }
    out
}

fn random_contracts(r: &mut Rng) -> Vec<Contract> {
    (0..r.range(1, 3))
        .map(|i| {
            Contract::new(
                format!("c{i}"),
                random_space(r),
                if r.chance(1, 2) {
                    Action::Permit
                } else {
                    Action::Deny
                },
            )
        })
        .collect()
}

/// Every header-behavior class in the closed universe.
fn universe() -> impl Iterator<Item = HeaderTuple> {
    (0..IPS).flat_map(|si| {
        (0..PORTS).flat_map(move |sp| {
            (0..IPS).flat_map(move |di| {
                (0..PORTS).flat_map(move |dp| {
                    PROTOCOLS.into_iter().map(move |pr| HeaderTuple {
                        src_ip: Ipv4(si),
                        src_port: sp,
                        dst_ip: Ipv4(di),
                        dst_port: dp,
                        protocol: pr,
                    })
                })
            })
        })
    })
}

/// Ground-truth contract verdict by exhaustive evaluation.
fn reference_holds(p: &Policy, c: &Contract) -> bool {
    !universe().any(|h| {
        c.filter.contains(&h)
            && match c.expect {
                Action::Permit => !p.allows(&h),
                Action::Deny => p.allows(&h),
            }
    })
}

/// A reported witness must be a genuine counterexample.
fn witness_error(p: &Policy, c: &Contract, out: &secguru::CheckOutcome, who: &str) -> Option<String> {
    if out.holds {
        return None;
    }
    let Some(w) = &out.witness else {
        return Some(format!("{who}: violated contract {} has no witness", c.name));
    };
    if !c.filter.contains(w) {
        return Some(format!("{who}: witness for {} is outside the contract filter", c.name));
    }
    let wrong = match c.expect {
        Action::Permit => !p.allows(w),
        Action::Deny => p.allows(w),
    };
    if !wrong {
        return Some(format!(
            "{who}: witness for {} does not actually violate the contract",
            c.name
        ));
    }
    None
}

fn check_pair(
    a_rules: &[Rule],
    b_rules: &[Rule],
    convention: Convention,
    contracts: &[Contract],
) -> Option<String> {
    let a = Policy::new("A", convention, a_rules.to_vec());
    let b = Policy::new("B", convention, b_rules.to_vec());

    // Per-contract: SMT vs intervals vs exhaustive evaluation, on both
    // policies.
    for (label, p) in [("A", &a), ("B", &b)] {
        let mut smt = SecGuru::new(p.clone());
        let intervals = IntervalEngine::new();
        for c in contracts {
            let want = reference_holds(p, c);
            let got_smt = smt.check(c);
            let got_iv = intervals.check(p, c);
            if got_smt.holds != want {
                return Some(format!(
                    "policy {label}, contract {}: smt says holds={}, exhaustive says {want}",
                    c.name, got_smt.holds
                ));
            }
            if got_iv.holds != want {
                return Some(format!(
                    "policy {label}, contract {}: intervals say holds={}, exhaustive says {want}",
                    c.name, got_iv.holds
                ));
            }
            for (who, out) in [("smt", &got_smt), ("intervals", &got_iv)] {
                if let Some(e) = witness_error(p, c, out, who) {
                    return Some(format!("policy {label}: {e}"));
                }
            }
        }
    }

    // Pair-level: semantic diff vs ground-truth equivalence.
    let equivalent = universe().all(|h| a.allows(&h) == b.allows(&h));
    let diff = semantic_diff(&a, &b);
    if diff.is_equivalent() != equivalent {
        return Some(format!(
            "semantic_diff says equivalent={}, exhaustive says {equivalent}",
            diff.is_equivalent()
        ));
    }
    if let Some(w) = &diff.newly_denied {
        if !a.allows(w) || b.allows(w) {
            return Some("newly_denied witness is not (permitted before ∧ denied now)".into());
        }
    }
    if let Some(w) = &diff.newly_permitted {
        if a.allows(w) || !b.allows(w) {
            return Some("newly_permitted witness is not (denied before ∧ permitted now)".into());
        }
    }
    if smt_confirms_equivalence(&a, &b) != equivalent {
        return Some(format!(
            "smt_confirms_equivalence disagrees with exhaustive equivalence ({equivalent})"
        ));
    }
    None
}

fn render(a: &[Rule], b: &[Rule], convention: Convention, contracts: &[Contract]) -> String {
    let fmt_rules = |rules: &[Rule]| {
        rules
            .iter()
            .map(|r| {
                format!(
                    "  {} prio={} {:?} src {:?} ports {:?} dst {:?} ports {:?} proto {:?}\n",
                    r.name,
                    r.priority,
                    r.action,
                    r.filter.src,
                    r.filter.src_ports,
                    r.filter.dst,
                    r.filter.dst_ports,
                    r.filter.protocol
                )
            })
            .collect::<String>()
    };
    let mut s = format!("convention: {convention:?}\npolicy A:\n");
    s.push_str(&fmt_rules(a));
    s.push_str("policy B:\n");
    s.push_str(&fmt_rules(b));
    s.push_str("contracts:\n");
    for c in contracts {
        s.push_str(&format!("  {} expect {:?} on {:?}\n", c.name, c.expect, c.filter));
    }
    s
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let convention = if r.chance(1, 2) {
        Convention::FirstApplicable
    } else {
        Convention::DenyOverrides
    };
    let a = random_rules(&mut r);
    let b = mutate_rules(&mut r, &a);
    let contracts = random_contracts(&mut r);

    if let Some(summary) = check_pair(&a, &b, convention, &contracts) {
        let contracts_min =
            shrink_list(&contracts, |cs| check_pair(&a, &b, convention, cs).is_some());
        let a_min = shrink_list(&a, |ar| check_pair(ar, &b, convention, &contracts_min).is_some());
        let b_min =
            shrink_list(&b, |br| check_pair(&a_min, br, convention, &contracts_min).is_some());
        return Err(Failure {
            summary,
            minimized: render(&a_min, &b_min, convention, &contracts_min),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_policies_are_equivalent_and_deny() {
        let c = vec![Contract::new("deny-all", HeaderSpace::ALL, Action::Deny)];
        assert_eq!(check_pair(&[], &[], Convention::FirstApplicable, &c), None);
    }

    #[test]
    fn flipped_action_is_caught_by_all_three() {
        let mut r = Rng::new(99);
        let rule = random_rule(&mut r, 0);
        let mut flipped = rule.clone();
        flipped.action = match rule.action {
            Action::Permit => Action::Deny,
            Action::Deny => Action::Permit,
        };
        // The pair-level equivalence machinery must agree with ground
        // truth whichever way the verdict goes.
        assert_eq!(
            check_pair(
                &[rule],
                &[flipped],
                Convention::FirstApplicable,
                &[Contract::new("probe", HeaderSpace::ALL, Action::Deny)]
            ),
            None
        );
    }
}
