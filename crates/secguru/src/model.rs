//! Policies, rules, and contracts for connectivity restrictions.
//!
//! "In both cases, a policy is a set of rules. Each rule describes a
//! packet filter and an action" (§3.1). Network-device ACLs and NSGs
//! use first-applicable semantics (Definition 3.1); the distributed
//! firewall templates of §3.5 use deny-overrides (Definition 3.2).

use netprim::{HeaderSpace, HeaderTuple};
use std::fmt;

/// Rule action: admit or block matching packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Admit matching packets.
    Permit,
    /// Block matching packets.
    Deny,
}

impl Action {
    /// The opposite action.
    pub const fn negate(self) -> Action {
        match self {
            Action::Permit => Action::Deny,
            Action::Deny => Action::Permit,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Action::Permit => "permit",
            Action::Deny => "deny",
        })
    }
}

/// One policy rule: a packet filter plus an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Human-readable name (NSG rule name, or `line<N>` for ACLs).
    pub name: String,
    /// Evaluation priority: smaller is earlier. For ACLs this is the
    /// line sequence; for NSGs the priority field (§3.1).
    pub priority: u32,
    /// The packet filter.
    pub filter: HeaderSpace,
    /// Permit or deny.
    pub action: Action,
}

impl Rule {
    /// Does this rule match the packet?
    pub fn matches(&self, h: &HeaderTuple) -> bool {
        self.filter.contains(h)
    }
}

/// The rule-combination convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Convention {
    /// First matching rule decides; default deny (Definition 3.1).
    FirstApplicable,
    /// A packet is admitted iff some permit rule matches and no deny
    /// rule matches (Definition 3.2).
    DenyOverrides,
}

/// A complete policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Policy name (ACL name or NSG name).
    pub name: String,
    /// Rule-combination convention.
    pub convention: Convention,
    /// Rules, kept sorted by ascending priority.
    rules: Vec<Rule>,
}

impl Policy {
    /// Build a policy; rules are sorted by priority (stable, so equal
    /// priorities keep their given order — ACL line order).
    pub fn new(name: impl Into<String>, convention: Convention, mut rules: Vec<Rule>) -> Policy {
        rules.sort_by_key(|r| r.priority);
        Policy {
            name: name.into(),
            convention,
            rules,
        }
    }

    /// The rules in evaluation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Policy with no rules (denies everything under both conventions).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Reference semantics: evaluate one concrete packet.
    ///
    /// This is the ground truth the SMT and interval engines are
    /// differentially tested against.
    pub fn allows(&self, h: &HeaderTuple) -> bool {
        match self.convention {
            Convention::FirstApplicable => {
                for r in &self.rules {
                    if r.matches(h) {
                        return r.action == Action::Permit;
                    }
                }
                false // default deny (§3.1)
            }
            Convention::DenyOverrides => {
                let mut permitted = false;
                for r in &self.rules {
                    if r.matches(h) {
                        match r.action {
                            Action::Deny => return false,
                            Action::Permit => permitted = true,
                        }
                    }
                }
                permitted
            }
        }
    }

    /// The first rule matching a packet (first-applicable semantics);
    /// used for violating-rule identification in error reports.
    pub fn first_match(&self, h: &HeaderTuple) -> Option<&Rule> {
        self.rules.iter().find(|r| r.matches(h))
    }

    /// For deny-overrides: the deciding rule for a packet (a matching
    /// deny if any, else a matching permit).
    pub fn deciding_rule(&self, h: &HeaderTuple) -> Option<&Rule> {
        match self.convention {
            Convention::FirstApplicable => self.first_match(h),
            Convention::DenyOverrides => self
                .rules
                .iter()
                .find(|r| r.action == Action::Deny && r.matches(h))
                .or_else(|| self.rules.iter().find(|r| r.matches(h))),
        }
    }

    /// A copy with one rule removed by name (refactoring steps).
    pub fn without_rule(&self, name: &str) -> Policy {
        Policy {
            name: self.name.clone(),
            convention: self.convention,
            rules: self
                .rules
                .iter()
                .filter(|r| r.name != name)
                .cloned()
                .collect(),
        }
    }

    /// A copy with extra rules added (re-sorted by priority).
    pub fn with_rules(&self, extra: impl IntoIterator<Item = Rule>) -> Policy {
        let mut rules = self.rules.clone();
        rules.extend(extra);
        Policy::new(self.name.clone(), self.convention, rules)
    }
}

/// A contract: a packet filter plus the expectation of whether those
/// packets "must be permitted or denied" (§3.2). Contracts are "a set
/// of regression tests for the ACL" (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Contract name, used in reports.
    pub name: String,
    /// The traffic the contract speaks about.
    pub filter: HeaderSpace,
    /// Whether that traffic must be permitted or denied.
    pub expect: Action,
}

impl Contract {
    /// Build a contract.
    pub fn new(name: impl Into<String>, filter: HeaderSpace, expect: Action) -> Contract {
        Contract {
            name: name.into(),
            filter,
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netprim::{IpRange, Ipv4, PortRange, Prefix, Protocol};

    fn rule(name: &str, prio: u32, dst: &str, action: Action) -> Rule {
        Rule {
            name: name.into(),
            priority: prio,
            filter: HeaderSpace::to_dst(dst.parse::<Prefix>().unwrap()),
            action,
        }
    }

    fn pkt(dst: [u8; 4]) -> HeaderTuple {
        HeaderTuple {
            src_ip: Ipv4::new(1, 2, 3, 4),
            src_port: 12345,
            dst_ip: Ipv4::from(dst),
            dst_port: 443,
            protocol: 6,
        }
    }

    #[test]
    fn first_applicable_order_matters() {
        let p = Policy::new(
            "t",
            Convention::FirstApplicable,
            vec![
                rule("deny10", 1, "10.0.0.0/8", Action::Deny),
                rule("permit-all", 2, "0.0.0.0/0", Action::Permit),
            ],
        );
        assert!(!p.allows(&pkt([10, 1, 1, 1])));
        assert!(p.allows(&pkt([11, 1, 1, 1])));
        // Reversed priorities flip the outcome.
        let p = Policy::new(
            "t",
            Convention::FirstApplicable,
            vec![
                rule("deny10", 2, "10.0.0.0/8", Action::Deny),
                rule("permit-all", 1, "0.0.0.0/0", Action::Permit),
            ],
        );
        assert!(p.allows(&pkt([10, 1, 1, 1])));
    }

    #[test]
    fn default_deny_when_nothing_matches() {
        let p = Policy::new(
            "t",
            Convention::FirstApplicable,
            vec![rule("permit10", 1, "10.0.0.0/8", Action::Permit)],
        );
        assert!(!p.allows(&pkt([11, 0, 0, 1])));
        let empty = Policy::new("e", Convention::FirstApplicable, vec![]);
        assert!(!empty.allows(&pkt([10, 0, 0, 1])));
        assert!(empty.is_empty());
    }

    #[test]
    fn deny_overrides_ignores_order() {
        for (p1, p2) in [(1, 2), (2, 1)] {
            let p = Policy::new(
                "t",
                Convention::DenyOverrides,
                vec![
                    rule("permit-all", p1, "0.0.0.0/0", Action::Permit),
                    rule("deny10", p2, "10.0.0.0/8", Action::Deny),
                ],
            );
            assert!(!p.allows(&pkt([10, 1, 1, 1])), "prio {p1}/{p2}");
            assert!(p.allows(&pkt([11, 1, 1, 1])));
        }
    }

    #[test]
    fn deny_overrides_requires_a_permit() {
        let p = Policy::new(
            "t",
            Convention::DenyOverrides,
            vec![rule("deny10", 1, "10.0.0.0/8", Action::Deny)],
        );
        // No permit rule: everything is denied.
        assert!(!p.allows(&pkt([11, 1, 1, 1])));
    }

    #[test]
    fn stable_sort_preserves_acl_line_order() {
        // Two rules at the same priority: the first listed wins.
        let p = Policy::new(
            "t",
            Convention::FirstApplicable,
            vec![
                rule("deny", 5, "10.0.0.0/8", Action::Deny),
                rule("permit", 5, "10.0.0.0/8", Action::Permit),
            ],
        );
        assert!(!p.allows(&pkt([10, 0, 0, 1])));
    }

    #[test]
    fn first_match_and_deciding_rule() {
        let p = Policy::new(
            "t",
            Convention::DenyOverrides,
            vec![
                rule("permit-all", 1, "0.0.0.0/0", Action::Permit),
                rule("deny10", 2, "10.0.0.0/8", Action::Deny),
            ],
        );
        // first_match by priority is the permit; the deciding rule for
        // a 10/8 packet under deny-overrides is the deny.
        assert_eq!(p.first_match(&pkt([10, 0, 0, 1])).unwrap().name, "permit-all");
        assert_eq!(p.deciding_rule(&pkt([10, 0, 0, 1])).unwrap().name, "deny10");
        assert_eq!(p.deciding_rule(&pkt([11, 0, 0, 1])).unwrap().name, "permit-all");
    }

    #[test]
    fn rule_editing_helpers() {
        let p = Policy::new(
            "t",
            Convention::FirstApplicable,
            vec![
                rule("a", 1, "10.0.0.0/8", Action::Deny),
                rule("b", 2, "0.0.0.0/0", Action::Permit),
            ],
        );
        let without = p.without_rule("a");
        assert_eq!(without.len(), 1);
        assert!(without.allows(&pkt([10, 0, 0, 1])));
        let with = without.with_rules([rule("c", 0, "10.0.0.0/8", Action::Deny)]);
        assert_eq!(with.len(), 2);
        assert!(!with.allows(&pkt([10, 0, 0, 1])));
    }

    #[test]
    fn filters_with_ports_and_protocols() {
        let smb = Rule {
            name: "deny-445".into(),
            priority: 1,
            filter: HeaderSpace {
                src: IpRange::ALL,
                src_ports: PortRange::ALL,
                dst: IpRange::ALL,
                dst_ports: PortRange::single(445),
                protocol: Protocol::Tcp,
            },
            action: Action::Deny,
        };
        let permit_all = rule("permit-all", 2, "0.0.0.0/0", Action::Permit);
        let p = Policy::new("t", Convention::FirstApplicable, vec![smb, permit_all]);
        let mut h = pkt([8, 8, 8, 8]);
        h.dst_port = 445;
        assert!(!p.allows(&h));
        h.protocol = 17; // UDP not covered by the TCP deny
        assert!(p.allows(&h));
        h.protocol = 6;
        h.dst_port = 446;
        assert!(p.allows(&h));
    }
}
