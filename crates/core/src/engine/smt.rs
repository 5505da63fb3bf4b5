//! The bit-vector SMT verification engine (§2.5.1).
//!
//! The device's longest-prefix-match policy is encoded once, per
//! Definition 2.1, as a nested if-then-else over the rules sorted by
//! descending prefix length:
//!
//! ```text
//! P(x)   = P_1(x)
//! P_i(x) = if r_i.prefix(x) then r_i.nexthops else P_{i+1}(x)
//! P_n(x) = drop
//! ```
//!
//! where `r_i.prefix(x)` is a bit-vector range check
//! (`lo <= x <= hi`, eq. (1)) and `r_i.nexthops` is a disjunction of
//! one Boolean variable per next-hop interface (eq. (2)). Each specific
//! contract is then a single satisfiability query under assumptions:
//!
//! ```text
//! C.range(x) ∧ ¬(P(x) ⇔ C.nexthops)     satisfiable ⇒ violation
//! ```
//!
//! (the "all output ports" variant the paper describes), with the
//! witness model's destination address used to identify the violating
//! rule. The policy is interned once into the device's [`Session`]
//! arena and bit-blasted once; every contract query reuses that CNF
//! under assumptions, so clause learning accumulates across the
//! thousands of per-device queries. The default contract is checked
//! structurally, as the special case the paper calls out.

use crate::contracts::{Contract, ContractKind, DeviceContracts, Expectation};
use crate::engine::Engine;
use crate::report::{ValidationReport, Violation, ViolationReason};
use bgpsim::Fib;
use netprim::Ipv4;
use smtkit::{BoolId, Session, SmtResult, TermId};

/// Maximum violating rules enumerated per contract before giving up
/// (defensive bound; real violations involve a handful of rules).
const MAX_WITNESSES: usize = 64;

/// The SMT-based engine.
///
/// Shares the strict/semantic distinction with the trie engine: strict
/// mode additionally requires the exact specific route to be present
/// (a structural check; the satisfiability query is unchanged).
#[derive(Debug, Clone, Copy)]
pub struct SmtEngine {
    strict: bool,
}

impl Default for SmtEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SmtEngine {
    /// Production engine: strict mode, one incremental session per device.
    pub fn new() -> SmtEngine {
        SmtEngine { strict: true }
    }

    /// Formula-equivalence-only engine (Definition 2.1 semantics).
    pub fn semantic() -> SmtEngine {
        SmtEngine { strict: false }
    }
}

/// Per-device encoding state: one session whose arena holds the policy.
struct DeviceEncoding {
    session: Session,
    /// The policy meaning `P(x)` as a formula over next-hop vars.
    policy: BoolId,
    /// The destination-address variable.
    x: TermId,
}

fn hop_var_name(addr: Ipv4) -> String {
    format!("nh_{}", addr)
}

impl DeviceEncoding {
    fn build(fib: &Fib) -> DeviceEncoding {
        let mut session = Session::new();
        let a = session.arena_mut();
        let x = a.var("dst", 32);
        // drop = false is the innermost policy (Definition 2.1).
        let mut policy = a.fls();
        // Entries are sorted by descending prefix length; build the
        // ite chain inside-out (shortest prefix innermost).
        for e in fib.entries().iter().rev() {
            let guard = a.in_range(x, e.prefix.first().0 as u64, e.prefix.last().0 as u64);
            let meaning = if e.local {
                // Local delivery is modeled as its own "port".
                a.bool_var("deliver_local")
            } else {
                let hops: Vec<BoolId> = fib
                    .next_hops(e)
                    .iter()
                    .map(|&h| a.bool_var(&hop_var_name(h)))
                    .collect();
                a.or_all(&hops)
            };
            policy = a.ite_bool(guard, meaning, policy);
        }
        DeviceEncoding { session, policy, x }
    }
}

impl Engine for SmtEngine {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        let mut enc = DeviceEncoding::build(fib);
        let mut violations = Vec::new();

        for c in contracts.contracts() {
            match c.kind {
                // §2.5.1: "Validating a routing contract for the default
                // route … is handled as a special case": compare the
                // default rule's next hops with the contract's directly.
                ContractKind::Default => check_default(fib, &c, &mut violations),
                ContractKind::Specific => {
                    check_specific_smt(self.strict, fib, &mut enc, &c, &mut violations)
                }
            }
        }
        ValidationReport {
            violations,
            contracts_checked: contracts.len(),
            solver_stats: enc.session.stats(),
        }
    }

    fn name(&self) -> &'static str {
        "smt"
    }
}

fn check_default(fib: &Fib, c: &Contract, out: &mut Vec<Violation>) {
    let entry = fib.default_entry();
    match (c.expectation, entry) {
        (Expectation::NextHops(expected), Some(e)) => {
            if e.local {
                out.push(Violation::of(c, ViolationReason::LocalityMismatch));
            } else if fib.next_hops(e) != &expected[..] {
                out.push(Violation::of(
                    c,
                    ViolationReason::DefaultMismatch {
                        expected: expected.to_vec(),
                        actual: fib.next_hops(e).to_vec(),
                    },
                ));
            }
        }
        (Expectation::NextHops(_), None) => {
            out.push(Violation::of(c, ViolationReason::MissingDefault));
        }
        (Expectation::Local, Some(e)) => {
            if !e.local {
                out.push(Violation::of(c, ViolationReason::LocalityMismatch));
            }
        }
        (Expectation::Local, None) => {
            out.push(Violation::of(c, ViolationReason::MissingDefault));
        }
    }
}

fn check_specific_smt(
    strict: bool,
    fib: &Fib,
    enc: &mut DeviceEncoding,
    c: &Contract,
    out: &mut Vec<Violation>,
) {
    let expected = match c.expectation {
        Expectation::NextHops(h) => h,
        Expectation::Local => {
            // Defensive path (not generated today).
            match fib.entry_for(c.prefix) {
                Some(e) if e.local => {}
                Some(_) => out.push(Violation::of(c, ViolationReason::LocalityMismatch)),
                None => out.push(Violation::of(c, ViolationReason::MissingRoute)),
            }
            return;
        }
    };
    if strict && fib.entry_for(c.prefix).is_none() {
        out.push(Violation::of(c, ViolationReason::MissingRoute));
    }

    // Enumerate violating rules: find a witness, report the rule that
    // serves it, exclude that rule's range, repeat (§2.5: "produces a
    // list of rules in P that violate the contract").
    let mut excluded: Vec<(u64, u64)> = Vec::new();
    let mut reported = std::collections::HashSet::new();
    for _ in 0..MAX_WITNESSES {
        let assumptions = {
            let (policy, x) = (enc.policy, enc.x);
            let a = enc.session.arena_mut();
            let hops: Vec<BoolId> = expected
                .iter()
                .map(|&h| a.bool_var(&hop_var_name(h)))
                .collect();
            let contract_hops = a.or_all(&hops);
            let range = a.in_range(x, c.prefix.first().0 as u64, c.prefix.last().0 as u64);
            let agree = a.iff(policy, contract_hops);
            let mut v = vec![range, a.not(agree)];
            for &(lo, hi) in &excluded {
                let r = a.in_range(x, lo, hi);
                v.push(a.not(r));
            }
            v
        };
        if enc.session.check_assuming(&assumptions) != SmtResult::Sat {
            return;
        }
        let witness = Ipv4(
            enc.session
                .model()
                .value("dst")
                .expect("dst is constrained") as u32,
        );
        match fib.lookup(witness) {
            Some(rule) => {
                if reported.insert(rule.prefix) {
                    out.push(Violation::of(
                        c,
                        ViolationReason::NextHopMismatch {
                            rule: rule.prefix,
                            expected: expected.to_vec(),
                            actual: fib.next_hops(rule).to_vec(),
                        },
                    ));
                }
                excluded.push((rule.prefix.first().0 as u64, rule.prefix.last().0 as u64));
            }
            None => {
                if !out
                    .iter()
                    .any(|v| v.prefix == c.prefix && v.reason == ViolationReason::MissingRoute)
                {
                    out.push(Violation::of(c, ViolationReason::MissingRoute));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy};
    use crate::engine::trie::TrieEngine;
    use smtkit::SessionStats;

    #[test]
    fn healthy_figure3_is_clean() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        let eng = SmtEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let r = eng.validate_device(fib, dc);
            assert!(r.is_clean(), "{:?}: {:?}", fib.device(), r.violations);
        }
    }

    #[test]
    fn faulted_figure3_matches_trie_engine_verdicts() {
        // The two engines must agree on which (device, contract) pairs
        // are violated — the cross-engine soundness check.
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let smt = SmtEngine::new();
        let trie = TrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let rs = smt.validate_device(fib, dc);
            let rt = trie.validate_device(fib, dc);
            let mut key_s: Vec<_> = rs.violations.iter().map(|v| (v.prefix, v.kind)).collect();
            let mut key_t: Vec<_> = rt.violations.iter().map(|v| (v.prefix, v.kind)).collect();
            key_s.sort();
            key_s.dedup();
            key_t.sort();
            key_t.dedup();
            assert_eq!(key_s, key_t, "engine disagreement on {:?}", fib.device());
        }
    }

    #[test]
    fn session_mode_reports_cache_reuse() {
        // With several specific contracts per device, the shared policy
        // encoding must produce observable bit-blast cache hits.
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        let eng = SmtEngine::new();
        let mut total = SessionStats::default();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            total.absorb(&eng.validate_device(fib, dc).solver_stats);
        }
        assert!(total.queries > 0);
        assert!(
            total.blast_cache_hits > 0,
            "shared subterms must hit the blast cache: {total:?}"
        );
    }

    #[test]
    fn smt_identifies_the_violating_rule() {
        use bgpsim::FibBuilder;
        let expected = vec![Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 3)];
        let wrong = vec![Ipv4::new(30, 0, 0, 5)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        b.push("10.0.0.128/25".parse().unwrap(), wrong.clone(), false);
        b.push("0.0.0.0/0".parse().unwrap(), expected.clone(), false);
        let fib = b.finish();
        let dc = DeviceContracts::new(
            dctopo::DeviceId(0),
            [(
                "10.0.0.0/24".parse().unwrap(),
                ContractKind::Specific,
                Expectation::NextHops(expected.into()),
            )],
        );
        let r = SmtEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1);
        match &r.violations[0].reason {
            ViolationReason::NextHopMismatch { rule, actual, .. } => {
                assert_eq!(*rule, "10.0.0.128/25".parse().unwrap());
                assert_eq!(actual, &wrong);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn smt_enumerates_multiple_violating_rules() {
        use bgpsim::FibBuilder;
        let expected = vec![Ipv4::new(30, 0, 0, 1)];
        let wrong_a = vec![Ipv4::new(30, 0, 0, 5)];
        let wrong_b = vec![Ipv4::new(30, 0, 0, 7)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), wrong_a, false);
        b.push("10.0.0.128/25".parse().unwrap(), wrong_b, false);
        let fib = b.finish();
        let dc = DeviceContracts::new(
            dctopo::DeviceId(0),
            [(
                "10.0.0.0/24".parse().unwrap(),
                ContractKind::Specific,
                Expectation::NextHops(expected.into()),
            )],
        );
        let r = SmtEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
    }

    #[test]
    fn smt_detects_dropped_traffic_as_missing_route() {
        use bgpsim::FibBuilder;
        let expected = vec![Ipv4::new(30, 0, 0, 1)];
        // Rule covers only half the contract range; no default route.
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        let fib = b.finish();
        let dc = DeviceContracts::new(
            dctopo::DeviceId(0),
            [(
                "10.0.0.0/24".parse().unwrap(),
                ContractKind::Specific,
                Expectation::NextHops(expected.into()),
            )],
        );
        let r = SmtEngine::new().validate_device(&fib, &dc);
        assert!(r
            .violations
            .iter()
            .any(|v| v.reason == ViolationReason::MissingRoute));
    }
}
