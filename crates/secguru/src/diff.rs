//! Semantic policy diffing: what traffic changes hands between two
//! policy versions?
//!
//! §3.3's core difficulty — "the semantics and the size together made
//! it difficult for engineers to assess the impact of changes to the
//! ACL manually" — is answered by a semantic diff: the set of packets
//! on which the old and new policies disagree, with witnesses. The SMT
//! formulation is one satisfiability query per direction:
//!
//! ```text
//! newly-denied   :  P_old(x̄) ∧ ¬P_new(x̄)
//! newly-permitted: ¬P_old(x̄) ∧  P_new(x̄)
//! ```
//!
//! [`SmtDiff`] asks exactly that. [`semantic_diff`] answers the same
//! question without the solver, over the interval engine's box
//! algebra (`Box5`): exact too, differentially tested against the
//! SMT path, and what the refactoring planner calls per candidate.

use crate::engine::{policy_expr, rule_boxes, subtract_each, Box5, IntervalEngine, PacketVars};
use crate::model::{Action, Convention, Policy};
use netprim::HeaderTuple;
use obskit::{Histogram, Observer, Registry};
use smtkit::{BoolId, Session, SessionStats, SmtResult};

/// One direction of behavioral change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeDirection {
    /// Traffic the old policy permitted and the new one denies.
    NewlyDenied,
    /// Traffic the old policy denied and the new one permits.
    NewlyPermitted,
}

/// The semantic difference between two policies.
#[derive(Debug, Clone, Default)]
pub struct PolicyDiff {
    /// A packet permitted before and denied now, if any exists.
    pub newly_denied: Option<HeaderTuple>,
    /// A packet denied before and permitted now, if any exists.
    pub newly_permitted: Option<HeaderTuple>,
}

impl PolicyDiff {
    /// Are the two policies semantically identical?
    pub fn is_equivalent(&self) -> bool {
        self.newly_denied.is_none() && self.newly_permitted.is_none()
    }
}

/// Interval-engine semantic diff: exact in both directions (`None` is
/// a proof that no packet changed hands that way), never calls the
/// solver. `old` and `new` may use different conventions (e.g.
/// comparing a first-applicable rewrite of a deny-overrides policy).
/// [`SmtDiff`] is the SMT formulation of the same question.
pub fn semantic_diff(old: &Policy, new: &Policy) -> PolicyDiff {
    PolicyDiff {
        newly_denied: direction_witness(old, new, ChangeDirection::NewlyDenied),
        newly_permitted: direction_witness(old, new, ChangeDirection::NewlyPermitted),
    }
}

/// Find a packet changed in the given direction, if one exists.
///
/// "`grant` permits x" is the contract `Permit(everything grant
/// permits)`, so a witness for `P_grant ∧ ¬P_check` is exactly a
/// violation of one permitted region of `grant` checked against
/// `check`. Both halves are the interval engine's box algebra — the
/// regions are `Box5`es and `IntervalEngine::check_box` is asked
/// about each directly — for either convention on either side.
pub fn direction_witness(
    old: &Policy,
    new: &Policy,
    direction: ChangeDirection,
) -> Option<HeaderTuple> {
    let (grant, check) = match direction {
        ChangeDirection::NewlyDenied => (old, new),
        ChangeDirection::NewlyPermitted => (new, old),
    };
    let interval = IntervalEngine::new();
    permitted_regions(grant).into_iter().find_map(|region| {
        // Does `check` deny any of it?
        let (w, _) = interval.check_box(check, region, Action::Permit)?;
        debug_assert!(!check.allows(&w));
        debug_assert!(grant.allows(&w));
        Some(w)
    })
}

/// Decompose the permit set of a policy into boxes (exact; exponential
/// only in pathological rule structures): each permit rule's filter
/// minus the filters that can override it — every earlier rule under
/// first-applicable, every deny under deny-overrides.
fn permitted_regions(policy: &Policy) -> Vec<Box5> {
    let all = rule_boxes(policy, |_| true);
    let denies = rule_boxes(policy, |r| r.action == Action::Deny);
    let mut out = Vec::new();
    for (i, r) in policy.rules().iter().enumerate() {
        if r.action == Action::Permit {
            let overriders = match policy.convention {
                Convention::FirstApplicable => &all[..i],
                Convention::DenyOverrides => &denies[..],
            };
            out.extend(subtract_each(vec![all[i]], overriders));
        }
    }
    out
}

/// SMT policy differ: both policies encoded once over one shared
/// packet tuple in a single incremental session. Each direction of
/// change is then one assumption-based satisfiability query, and any
/// number of follow-up queries (restricted diffs, equivalence
/// re-checks after edits to the question) reuse the same bit-blasted
/// encoding and learned clauses.
pub struct SmtDiff {
    session: Session,
    vars: PacketVars,
    old_expr: BoolId,
    new_expr: BoolId,
    latency: Option<Histogram>,
}

impl SmtDiff {
    /// Encode the policy pair for diffing.
    pub fn new(old: &Policy, new: &Policy) -> SmtDiff {
        let mut session = Session::new();
        let a = session.arena_mut();
        let vars = PacketVars::new(a);
        let old_expr = policy_expr(old, &vars, a);
        let new_expr = policy_expr(new, &vars, a);
        SmtDiff {
            session,
            vars,
            old_expr,
            new_expr,
            latency: None,
        }
    }

    /// Record each direction query's latency into `registry`'s
    /// `secguru_diff_latency_ns` histogram.
    #[must_use]
    pub fn metrics(mut self, registry: &Registry) -> Self {
        self.latency = Some(registry.histogram(
            "secguru_diff_latency_ns",
            "per-direction semantic-diff query latency in nanoseconds",
            &[],
        ));
        self
    }

    /// A packet changed in the given direction, if any exists. Exact:
    /// `None` is a proof that no such packet exists.
    pub fn witness(&mut self, direction: ChangeDirection) -> Option<HeaderTuple> {
        let _span = self.latency.as_ref().map(|h| h.start_timer());
        let query = {
            let (o, n) = (self.old_expr, self.new_expr);
            let a = self.session.arena_mut();
            match direction {
                // P_old ∧ ¬P_new
                ChangeDirection::NewlyDenied => {
                    let nn = a.not(n);
                    a.and(o, nn)
                }
                // ¬P_old ∧ P_new
                ChangeDirection::NewlyPermitted => {
                    let no = a.not(o);
                    a.and(no, n)
                }
            }
        };
        match self.session.check_assuming(&[query]) {
            SmtResult::Unsat => None,
            SmtResult::Sat => Some(self.vars.witness(&self.session.model())),
        }
    }

    /// Are the two policies semantically identical? Two queries against
    /// the shared encoding.
    pub fn is_equivalent(&mut self) -> bool {
        self.witness(ChangeDirection::NewlyDenied).is_none()
            && self.witness(ChangeDirection::NewlyPermitted).is_none()
    }

    /// The full diff (both directions) as one [`PolicyDiff`].
    pub fn diff(&mut self) -> PolicyDiff {
        PolicyDiff {
            newly_denied: self.witness(ChangeDirection::NewlyDenied),
            newly_permitted: self.witness(ChangeDirection::NewlyPermitted),
        }
    }

    /// Solver counters accumulated across the queries so far.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }
}

impl Observer for SmtDiff {
    fn observe(&self, registry: &Registry) {
        self.stats().observe_into(registry, "secguru_diff_solver", &[]);
    }
}

/// Cross-check the diff verdict with the SMT engine: decide the
/// "policies are equivalent" obligation exactly with [`SmtDiff`] and
/// confirm it agrees with the interval result. Used by tests and
/// available for paranoid callers.
pub fn smt_confirms_equivalence(old: &Policy, new: &Policy) -> bool {
    let smt_equivalent = SmtDiff::new(old, new).is_equivalent();
    let interval_equivalent = semantic_diff(old, new).is_equivalent();
    debug_assert_eq!(
        smt_equivalent, interval_equivalent,
        "SMT and interval diff must agree"
    );
    smt_equivalent && interval_equivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Rule;
    use crate::parser::{figure8_acl, parse_acl};
    use netprim::{HeaderSpace, PortRange, Protocol};

    fn allows(p: &Policy, w: &HeaderTuple) -> bool {
        p.allows(w)
    }

    #[test]
    fn identical_policies_are_equivalent() {
        let p = figure8_acl();
        let d = semantic_diff(&p, &p);
        assert!(d.is_equivalent());
        assert!(smt_confirms_equivalence(&p, &p));
    }

    #[test]
    fn rule_reorder_without_overlap_is_equivalent() {
        let a = parse_acl(
            "a",
            "
            deny tcp any any eq 445
            deny udp any any eq 445
            permit ip any 104.208.32.0/20
            ",
        )
        .unwrap();
        let b = parse_acl(
            "b",
            "
            deny udp any any eq 445
            deny tcp any any eq 445
            permit ip any 104.208.32.0/20
            ",
        )
        .unwrap();
        assert!(semantic_diff(&a, &b).is_equivalent());
    }

    #[test]
    fn tightening_detected_as_newly_denied() {
        let old = figure8_acl();
        // Add one more standard block: port 135.
        let new = old.with_rules([Rule {
            name: "deny-135".into(),
            priority: 0, // evaluated first
            filter: HeaderSpace {
                dst_ports: PortRange::single(135),
                protocol: Protocol::Tcp,
                ..HeaderSpace::ALL
            },
            action: Action::Deny,
        }]);
        let d = semantic_diff(&old, &new);
        let w = d.newly_denied.expect("tightening must be detected");
        assert_eq!(w.dst_port, 135);
        assert!(allows(&old, &w) && !allows(&new, &w));
        assert!(d.newly_permitted.is_none(), "nothing was opened");
    }

    #[test]
    fn loosening_detected_as_newly_permitted() {
        let old = figure8_acl();
        let new = old.with_rules([Rule {
            name: "open-9-9-9".into(),
            priority: 10_000, // evaluated last, before default deny
            filter: HeaderSpace::to_dst("9.9.9.0/24".parse().unwrap()),
            action: Action::Permit,
        }]);
        let d = semantic_diff(&old, &new);
        let w = d.newly_permitted.expect("loosening must be detected");
        assert!(!allows(&old, &w) && allows(&new, &w));
        assert!(d.newly_denied.is_none());
    }

    #[test]
    fn refactoring_step_is_behavior_preserving() {
        // Deleting a redundant rule (shadowed by an earlier identical
        // deny) must be a semantic no-op — the §3.3 "unnecessary or
        // redundant" deletions.
        let old = parse_acl(
            "a",
            "
            deny ip 10.0.0.0/8 any
            deny ip 10.2.0.0/16 any
            permit ip any any
            ",
        )
        .unwrap();
        let new = old.without_rule("line3"); // the shadowed /16 deny
        assert!(semantic_diff(&old, &new).is_equivalent());
        assert!(smt_confirms_equivalence(&old, &new));
    }

    #[test]
    fn cross_convention_equivalence() {
        // deny-overrides {permit all, deny 10/8} ==
        // first-applicable {deny 10/8, permit all}.
        let fa = parse_acl(
            "fa",
            "
            deny ip 10.0.0.0/8 any
            permit ip any any
            ",
        )
        .unwrap();
        let rules = vec![
            Rule {
                name: "permit-all".into(),
                priority: 1,
                filter: HeaderSpace::ALL,
                action: Action::Permit,
            },
            Rule {
                name: "deny-10".into(),
                priority: 2,
                filter: HeaderSpace::from_src("10.0.0.0/8".parse().unwrap()),
                action: Action::Deny,
            },
        ];
        let dov = Policy::new("do", Convention::DenyOverrides, rules);
        assert!(semantic_diff(&fa, &dov).is_equivalent());
    }

    #[test]
    fn smt_diff_agrees_with_interval_diff() {
        let old = figure8_acl();
        let new = old.with_rules([Rule {
            name: "deny-135".into(),
            priority: 0,
            filter: HeaderSpace {
                dst_ports: PortRange::single(135),
                protocol: Protocol::Tcp,
                ..HeaderSpace::ALL
            },
            action: Action::Deny,
        }]);
        let mut sd = SmtDiff::new(&old, &new);
        let d = sd.diff();
        let w = d.newly_denied.expect("tightening must be detected");
        assert_eq!(w.dst_port, 135);
        assert!(allows(&old, &w) && !allows(&new, &w));
        assert!(d.newly_permitted.is_none());
        // Both directions ran against one shared encoding: two queries,
        // with the second reusing the first's bit-blasted subterms.
        let st = sd.stats();
        assert_eq!(st.queries, 2);
        assert!(st.blast_cache_hits > 0, "{st:?}");
    }

    #[test]
    fn smt_diff_proves_equivalence_exactly() {
        let p = figure8_acl();
        assert!(SmtDiff::new(&p, &p).is_equivalent());
        let reordered = parse_acl(
            "r",
            "
            deny udp any any eq 445
            deny tcp any any eq 445
            permit ip any 104.208.32.0/20
            ",
        )
        .unwrap();
        let original = parse_acl(
            "o",
            "
            deny tcp any any eq 445
            deny udp any any eq 445
            permit ip any 104.208.32.0/20
            ",
        )
        .unwrap();
        assert!(SmtDiff::new(&original, &reordered).is_equivalent());
        assert!(!SmtDiff::new(&original, &p).is_equivalent());
    }

    #[test]
    fn diff_respects_protocol_dimension() {
        let old = parse_acl("a", "permit ip any any").unwrap();
        let new = parse_acl(
            "b",
            "
            deny 47 any any
            permit ip any any
            ",
        )
        .unwrap();
        let d = semantic_diff(&old, &new);
        let w = d.newly_denied.unwrap();
        assert_eq!(w.protocol, 47);
        assert!(d.newly_permitted.is_none());

        // The residual-range case: what `carved` permits is X ×
        // protocols 0–5 and 7–255, two boxes rather than 255 spaces.
        let carved = parse_acl(
            "c",
            "
            deny tcp any 10.1.0.0/16
            permit ip any 10.1.0.0/16
            ",
        )
        .unwrap();
        let empty = Policy::new("empty", Convention::FirstApplicable, vec![]);
        let d = semantic_diff(&carved, &empty);
        let w = d.newly_denied.expect("everything carved permits is now denied");
        assert_ne!(w.protocol, 6);
        assert!(allows(&carved, &w) && !allows(&empty, &w));
        assert!(d.newly_permitted.is_none());
        let open = parse_acl("o", "permit ip any 10.1.0.0/16").unwrap();
        let d = semantic_diff(&carved, &open);
        let w = d.newly_permitted.expect("dropping the tcp deny opens tcp");
        assert_eq!(w.protocol, 6, "only TCP changes hands");
        assert!(!allows(&carved, &w) && allows(&open, &w));
        assert!(d.newly_denied.is_none());
    }
}
