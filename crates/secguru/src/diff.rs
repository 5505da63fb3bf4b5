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
//! Both ask it of the pair's [`change_slice`], not of the whole
//! policies: §3.3's edits are small against a large known-good ACL.

use crate::engine::{policy_expr, rule_boxes, subtract_each, Box5, IntervalEngine, PacketVars};
use crate::model::{Action, Convention, Policy, Rule};
use netprim::HeaderTuple;
use obskit::{Histogram, Observer, Registry};
use smtkit::{BoolId, Session, SessionStats, SmtResult};
use std::collections::HashMap;

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

/// The pair a diff of `(old, new)` can depend on.
///
/// *K* is a longest common subsequence of the two rule lists under
/// `(filter, action)` equality (order ignored under deny-overrides;
/// empty when the conventions differ), *U* the union of the filters of
/// the rules outside *K*; a rule stays iff it is outside *K* or meets
/// *U*. Off *U* no changed rule matches, so both policies — and both
/// slices — decide x on the same *K*-subsequence and agree; on *U*
/// every rule matching x is kept, so each slice decides x as its policy
/// does. Hence `old(x) ≠ new(x)` ⇔ the slices differ on x, the same
/// way: every sliced witness is a witness of the full pair.
pub(crate) fn change_slice(old: &Policy, new: &Policy) -> (Policy, Policy) {
    let sides = [old, new];
    let mut in_k = sides.map(|p| vec![false; p.len()]);
    if old.convention == new.convention {
        // `(key id, rule index)` per rule, so matching compares
        // integers; sorted under deny-overrides, where a longest common
        // subsequence is then the multiset intersection.
        let mut ids = HashMap::new();
        let [a, b] = sides.map(|p| {
            let key = |(i, r): (usize, &Rule)| {
                let fresh = ids.len();
                (*ids.entry((r.filter, r.action)).or_insert(fresh), i)
            };
            let mut keys: Vec<(usize, usize)> = p.rules().iter().enumerate().map(key).collect();
            if p.convention == Convention::DenyOverrides {
                keys.sort_unstable();
            }
            keys
        });
        for (i, j) in longest_common_subsequence(&a, &b) {
            in_k[0][a[i].1] = true;
            in_k[1][b[j].1] = true;
        }
    }
    let boxes = sides.map(|p| rule_boxes(p, |_| true));
    let outside = |s: usize| boxes[s].iter().zip(&in_k[s]).filter(|(_, &k)| !k);
    let changed: Vec<&Box5> = (0..2).flat_map(outside).map(|(b, _)| b).collect();
    let [old, new] = [0, 1].map(|s| {
        let meets = |b: &Box5| changed.iter().any(|c| b.intersect(c).is_some());
        let kept = (0..sides[s].len()).filter(|&i| !in_k[s][i] || meets(&boxes[s][i]));
        let rules = kept.map(|i| sides[s].rules()[i].clone()).collect();
        Policy::new(sides[s].name.clone(), sides[s].convention, rules)
    });
    (old, new)
}

/// Positions `(i, j)` of a longest common subsequence of `a` and `b`
/// under equality of the `.0` keys: the common prefix and suffix, and
/// the textbook table over the middle — unless that would take more
/// than `CELLS`, when the middle counts as wholly changed (any common
/// subsequence is sound).
fn longest_common_subsequence(a: &[(usize, usize)], b: &[(usize, usize)]) -> Vec<(usize, usize)> {
    const CELLS: usize = 1 << 22; // 16 MiB of `u32`
    let same = |i: usize, j: usize| a[i].0 == b[j].0;
    let (la, lb) = (a.len(), b.len());
    let pre = (0..la.min(lb)).take_while(|&i| same(i, i)).count();
    let (n, m) = (la - pre, lb - pre);
    let suf = (1..=n.min(m)).take_while(|&d| same(la - d, lb - d)).count();
    let (n, m) = (n - suf, m - suf);
    let mut out: Vec<(usize, usize)> = (0..pre).map(|i| (i, i)).collect();
    if n.saturating_mul(m) <= CELLS {
        // len[at(i, j)]: LCS length of the middles from i and j on.
        let at = |i: usize, j: usize| i * (m + 1) + j;
        let mut len = vec![0u32; (n + 1) * (m + 1)];
        for (i, j) in (0..n).rev().flat_map(|i| (0..m).rev().map(move |j| (i, j))) {
            len[at(i, j)] = if same(pre + i, pre + j) {
                len[at(i + 1, j + 1)] + 1
            } else {
                len[at(i + 1, j)].max(len[at(i, j + 1)])
            };
        }
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if same(pre + i, pre + j) {
                out.push((pre + i, pre + j));
                (i, j) = (i + 1, j + 1);
            } else if len[at(i + 1, j)] >= len[at(i, j + 1)] {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    out.extend((1..=suf).rev().map(|d| (la - d, lb - d)));
    out
}

/// Interval-engine semantic diff: exact in both directions (`None` is
/// a proof that no packet changed hands that way), never calls the
/// solver. `old` and `new` may use different conventions (e.g.
/// comparing a first-applicable rewrite of a deny-overrides policy).
/// [`SmtDiff`] is the SMT formulation of the same question.
pub fn semantic_diff(old: &Policy, new: &Policy) -> PolicyDiff {
    let (old, new) = change_slice(old, new);
    PolicyDiff {
        newly_denied: direction_witness(&old, &new, ChangeDirection::NewlyDenied),
        newly_permitted: direction_witness(&old, &new, ChangeDirection::NewlyPermitted),
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
fn direction_witness(
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

/// SMT policy differ: the pair's [`change_slice`] encoded once over one
/// shared packet tuple in a single incremental session. Each direction of
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
        let (old, new) = change_slice(old, new);
        let mut session = Session::new();
        let a = session.arena_mut();
        let vars = PacketVars::new(a);
        let old_expr = policy_expr(&old, &vars, a);
        let new_expr = policy_expr(&new, &vars, a);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{figure8_acl, parse_acl};
    use netprim::{HeaderSpace, PortRange, Protocol};

    fn allows(p: &Policy, w: &HeaderTuple) -> bool {
        p.allows(w)
    }

    fn src_rule(name: &str, priority: u32, src: &str, action: Action) -> Rule {
        Rule {
            name: name.into(),
            priority,
            filter: HeaderSpace::from_src(src.parse().unwrap()),
            action,
        }
    }

    fn fa(rules: Vec<Rule>) -> Policy {
        Policy::new("p", Convention::FirstApplicable, rules)
    }

    fn names(p: &Policy) -> Vec<&str> {
        p.rules().iter().map(|r| r.name.as_str()).collect()
    }

    #[test]
    fn kept_deny_shadowing_a_removed_permit_stays_in_the_slice() {
        let old = fa(vec![
            src_rule("deny-10", 1, "10.0.0.0/8", Action::Deny),
            src_rule("permit-10-1", 2, "10.1.0.0/16", Action::Permit),
            src_rule("permit-11", 3, "11.0.0.0/8", Action::Permit),
        ]);
        let new = old.without_rule("permit-10-1");
        // Without the kept deny the removed permit would look live.
        let (so, sn) = change_slice(&old, &new);
        assert_eq!(names(&so), ["deny-10", "permit-10-1"]);
        assert_eq!(names(&sn), ["deny-10"]);
        assert!(semantic_diff(&old, &new).is_equivalent());
        assert!(SmtDiff::new(&old, &new).is_equivalent());
    }

    #[test]
    fn removed_deny_before_a_kept_permit_is_witnessed_through_the_permit() {
        let old = fa(vec![
            src_rule("deny-10-1", 1, "10.1.0.0/16", Action::Deny),
            src_rule("permit-10", 2, "10.0.0.0/8", Action::Permit),
            src_rule("permit-11", 3, "11.0.0.0/8", Action::Permit),
        ]);
        let new = old.without_rule("deny-10-1");
        for d in [semantic_diff(&old, &new), SmtDiff::new(&old, &new).diff()] {
            let w = d.newly_permitted.expect("10.1/16 opened");
            assert!(!allows(&old, &w) && allows(&new, &w));
            assert_eq!(new.deciding_rule(&w).unwrap().name, "permit-10");
            assert!(d.newly_denied.is_none());
        }
    }

    #[test]
    fn kept_rule_disjoint_from_the_change_is_not_in_the_slice() {
        let old = fa(vec![
            src_rule("deny-10-1", 1, "10.1.0.0/16", Action::Deny),
            src_rule("permit-10", 2, "10.0.0.0/8", Action::Permit),
            src_rule("permit-11", 3, "11.0.0.0/8", Action::Permit),
        ]);
        let (so, sn) = change_slice(&old, &old.without_rule("deny-10-1"));
        assert_eq!(names(&so), ["deny-10-1", "permit-10"]);
        assert_eq!(names(&sn), ["permit-10"]);
        // Nothing changed: nothing to ask about.
        let (so, sn) = change_slice(&old, &old);
        assert!(so.is_empty() && sn.is_empty());
    }

    #[test]
    fn moving_one_rule_costs_a_slice_that_does_not_grow_with_the_acl() {
        let sizes = [300, 1200].map(|services| {
            let old = crate::refactor::synthesize_legacy_acl(services, 20);
            let rule = |name: &str| old.rules().iter().find(|r| r.name == name).unwrap();
            // svc-100 moves behind svc-200: a hundred rules (and the
            // zero-day denies between them) change position relative
            // to it, one rule is outside the common subsequence.
            let moved = Rule {
                priority: rule("svc-200").priority,
                ..rule("svc-100").clone()
            };
            let new = old.without_rule("svc-100").with_rules([moved]);
            assert_ne!(names(&old), names(&new));
            let (so, sn) = change_slice(&old, &new);
            assert!(names(&so).contains(&"svc-100") && names(&sn).contains(&"svc-100"));
            assert!(semantic_diff(&old, &new).is_equivalent());
            (so.len(), sn.len())
        });
        // The moved rule, the six source denies and the /16 permit.
        assert_eq!(sizes, [(8, 8), (8, 8)]);
    }

    #[test]
    fn lcs_matches_common_ends_for_free_and_gives_up_on_a_huge_middle() {
        // `middle` shared keys between two end keys.
        let around = |first: usize, middle: usize, last: usize| {
            let keys = [first].into_iter().chain(1..=middle).chain([last]);
            keys.enumerate().map(|(i, k)| (k, i)).collect::<Vec<_>>()
        };
        type Keys = Vec<(usize, usize)>;
        let lcs = |a: Keys, b: Keys| longest_common_subsequence(&a, &b).len();
        // Swapped ends: the table finds the middle.
        assert_eq!(lcs(around(5000, 1000, 6000), around(6000, 1000, 5000)), 1000);
        // Equal lists need no table, however long.
        assert_eq!(lcs(around(5000, 3000, 6000), around(5000, 3000, 6000)), 3002);
        // A 2 102 × 2 102 table is over the cap: nothing is matched,
        // which is sound — the whole middle counts as changed.
        assert_eq!(lcs(around(5000, 2100, 6000), around(6000, 2100, 5000)), 0);
    }

    #[test]
    fn mixed_conventions_slice_to_the_identity_and_deny_overrides_ignores_order() {
        let rules = |first: u32, second: u32| {
            vec![
                src_rule("permit-10", first, "10.0.0.0/8", Action::Permit),
                src_rule("deny-10-1", second, "10.1.0.0/16", Action::Deny),
            ]
        };
        let first = fa(rules(2, 1));
        let dov = Policy::new("do", Convention::DenyOverrides, rules(1, 2));
        assert_eq!(change_slice(&first, &dov), (first.clone(), dov.clone()));
        assert!(semantic_diff(&first, &dov).is_equivalent());
        let reordered = Policy::new("do", Convention::DenyOverrides, rules(2, 1));
        let (so, sn) = change_slice(&dov, &reordered);
        assert!(so.is_empty() && sn.is_empty());
        // Under first-applicable the same swap is a change.
        let (so, sn) = change_slice(&first, &fa(rules(1, 2)));
        assert_eq!((so.len(), sn.len()), (2, 2));
    }

    #[test]
    fn identical_policies_are_equivalent() {
        let p = figure8_acl();
        let d = semantic_diff(&p, &p);
        assert!(d.is_equivalent());
        assert!(SmtDiff::new(&p, &p).is_equivalent());
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
        assert!(SmtDiff::new(&old, &new).is_equivalent());
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
