//! Oracle: SecGuru's three implementations of NSG semantics.
//!
//! A random policy pair (B is A after one small mutation, or — half the
//! time — a 6–12-rule A after 2–4 edits, so that rules the edits leave
//! alone overlap the ones they touch) is judged three ways: the SMT
//! contract checker, the interval-algebra engine, and concrete
//! `Policy::allows` evaluated over an exhaustively enumerable header
//! universe. The universe is closed by construction — rule and
//! contract filters only use 16 addresses × 4 ports per side, and every
//! protocol behaves like one of `{0, 6, 17, 99}` (any header outside
//! matches exactly the `Any`-protocol rules, the class protocol 0
//! represents) — so the concrete sweep is a complete ground truth, not
//! a sample. Cross-checks: per-contract verdicts and witness validity
//! for both engines, and both differs (`semantic_diff`, `SmtDiff`) per
//! direction of change: a witness exists exactly when the sweep finds a
//! packet changing hands that way, and it changes hands on the whole
//! policies. The differs answer from the pair's change slice; the sweep
//! never slices, which makes this the gate for the slice.

use crate::Failure;
use netprim::{HeaderSpace, HeaderTuple, IpRange, Ipv4, PortRange, Protocol};
use rcdc::shrink::shrink_list;
use secguru::diff::{semantic_diff, SmtDiff};
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

/// A rule's filter: like the ACLs of §3.3, a rule constrains only some
/// fields — each is the whole universe half the time — so rules overlap
/// each other often, and an edit is seldom alone in its header space.
fn random_filter(r: &mut Rng) -> HeaderSpace {
    let mut f = random_space(r);
    let all_ips = IpRange::new(Ipv4(0), Ipv4(IPS - 1)).expect("0 <= 15");
    let all_ports = PortRange::new(0, PORTS - 1).expect("0 <= 3");
    if r.chance(1, 2) {
        f.src = all_ips;
    }
    if r.chance(1, 2) {
        f.src_ports = all_ports;
    }
    if r.chance(1, 2) {
        f.dst = all_ips;
    }
    if r.chance(1, 2) {
        f.dst_ports = all_ports;
    }
    if r.chance(1, 2) {
        f.protocol = Protocol::Any;
    }
    f
}

fn random_rule(r: &mut Rng, i: usize) -> Rule {
    Rule {
        name: format!("r{i}"),
        priority: r.below(16) as u32,
        filter: random_filter(r),
        action: if r.chance(1, 2) {
            Action::Permit
        } else {
            Action::Deny
        },
    }
}

/// One edit in place: delete, insert, flip an action, move (redraw a
/// priority), or nothing — the shape of real NSG churn (§3.4's
/// incremental updates).
fn edit(r: &mut Rng, rules: &mut Vec<Rule>) {
    let kind = r.below(5);
    if kind == 1 {
        let fresh = random_rule(r, 100 + rules.len());
        rules.push(fresh);
    } else if !rules.is_empty() && kind < 4 {
        let i = r.below(rules.len() as u64) as usize;
        match kind {
            0 => drop(rules.remove(i)),
            2 => rules[i].action = rules[i].action.negate(),
            _ => rules[i].priority = r.below(16) as u32,
        }
    }
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

    // Pair-level: both differs against the sweep of the whole policies,
    // direction by direction.
    let changes_hands =
        |before: &Policy, after: &Policy, h: &HeaderTuple| before.allows(h) && !after.allows(h);
    let smt = SmtDiff::new(&a, &b).diff();
    let interval = semantic_diff(&a, &b);
    for (direction, before, after, witnesses) in [
        ("newly_denied", &a, &b, [smt.newly_denied, interval.newly_denied]),
        ("newly_permitted", &b, &a, [smt.newly_permitted, interval.newly_permitted]),
    ] {
        let exists = universe().any(|h| changes_hands(before, after, &h));
        for (who, witness) in ["SmtDiff", "semantic_diff"].into_iter().zip(witnesses) {
            if witness.is_some() != exists {
                return Some(format!(
                    "{who}: {direction} witness {witness:?}, exhaustive sweep says one exists: {exists}"
                ));
            }
            if witness.is_some_and(|w| !changes_hands(before, after, &w)) {
                return Some(format!(
                    "{who}: {direction} witness {witness:?} does not change hands on the whole policies"
                ));
            }
        }
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
    // One mutation of a short policy, or several edits of a longer one.
    let (len, edits) = if r.chance(1, 2) {
        (r.range(0, 8), 1)
    } else {
        (r.range(6, 12), r.range(2, 4))
    };
    let a: Vec<Rule> = (0..len).map(|i| random_rule(&mut r, i as usize)).collect();
    let mut b = a.clone();
    for _ in 0..edits {
        edit(&mut r, &mut b);
    }
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
