//! The SecGuru verification engine (§3.2) and the interval baseline.
//!
//! **SMT path.** "SecGuru encodes policies and contracts as predicates
//! in bit-vector logic, and leverages satisfiability checking to
//! extract answers." The packet is the tuple
//! `⟨srcIp, srcPort, dstIp, dstPort, protocol⟩` of bit-vectors of
//! widths 32/16/32/16/8. The policy formula follows Definition 3.1
//! (first-applicable) or 3.2 (deny-overrides); the outcome of checking
//! contract `C` against policy `P`:
//!
//! * expect **Permit**: `C ∧ ¬P` satisfiable ⇒ some traffic the
//!   contract requires is denied — report the witness packet and the
//!   deciding rule;
//! * expect **Deny**: `C ∧ P` satisfiable ⇒ some traffic the contract
//!   forbids is admitted.
//!
//! **Interval path.** The specialized baseline the paper situates
//! against ("algorithms that have been specifically tuned to policy
//! analysis"): exact 5-dimensional box algebra over the same
//! semantics. It exists to differentially validate the SMT path and to
//! reproduce the engine-comparison ablation in benchmark E3.

use crate::model::{Action, Contract, Convention, Policy, Rule};
use netprim::{HeaderSpace, HeaderTuple, Ipv4};
use obskit::{Counter, Histogram, Observer, Registry};
use smtkit::{BoolId, Model, Session, SessionStats, SmtResult, TermArena, TermId};

/// Result of checking one contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The contract's name.
    pub contract: String,
    /// Did the policy preserve the contract?
    pub holds: bool,
    /// A counterexample packet when violated.
    pub witness: Option<HeaderTuple>,
    /// The rule that decided the witness ("(default-deny)" when no
    /// rule matched) — the §3.4 reports "enumerate the specific rule in
    /// the NSG that caused the failure".
    pub violating_rule: Option<String>,
}

impl CheckOutcome {
    fn pass(contract: &Contract) -> CheckOutcome {
        CheckOutcome {
            contract: contract.name.clone(),
            holds: true,
            witness: None,
            violating_rule: None,
        }
    }

    fn fail(contract: &Contract, witness: HeaderTuple, rule: Option<&Rule>) -> CheckOutcome {
        CheckOutcome {
            contract: contract.name.clone(),
            holds: false,
            witness: Some(witness),
            violating_rule: Some(
                rule.map(|r| r.name.clone())
                    .unwrap_or_else(|| "(default-deny)".to_string()),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// SMT engine
// ---------------------------------------------------------------------------

/// The SecGuru analysis engine: one policy, many contract checks.
///
/// The policy meaning is interned once into the session's term arena
/// and bit-blasted once; each contract check is an assumption-based
/// query against the same session, so learned clauses carry over
/// between checks of the same policy.
pub struct SecGuru {
    policy: Policy,
    session: Session,
    policy_expr: BoolId,
    vars: PacketVars,
    metrics: Option<CheckMetrics>,
}

/// Pre-resolved handles for per-policy check metrics: the
/// `secguru_checks_total{policy,outcome}` counters and the
/// `secguru_check_latency_ns{policy}` histogram.
#[derive(Clone)]
struct CheckMetrics {
    held: Counter,
    violated: Counter,
    latency: Histogram,
}

impl CheckMetrics {
    fn new(registry: &Registry, policy: &str) -> CheckMetrics {
        let outcome = |outcome| {
            registry.counter(
                "secguru_checks_total",
                "contract checks by policy and outcome",
                &[("policy", policy), ("outcome", outcome)],
            )
        };
        CheckMetrics {
            held: outcome("held"),
            violated: outcome("violated"),
            latency: registry.histogram(
                "secguru_check_latency_ns",
                "per-contract check latency in nanoseconds, by policy",
                &[("policy", policy)],
            ),
        }
    }
}

/// The §3.2 packet tuple `⟨srcIp, srcPort, dstIp, dstPort, protocol⟩`
/// as arena variables (widths 32/16/32/16/8). Shared with the semantic
/// differ, which encodes two policies over one tuple.
pub(crate) struct PacketVars {
    src_ip: TermId,
    src_port: TermId,
    dst_ip: TermId,
    dst_port: TermId,
    protocol: TermId,
}

impl PacketVars {
    pub(crate) fn new(a: &mut TermArena) -> PacketVars {
        PacketVars {
            src_ip: a.var("srcIp", 32),
            src_port: a.var("srcPort", 16),
            dst_ip: a.var("dstIp", 32),
            dst_port: a.var("dstPort", 16),
            protocol: a.var("protocol", 8),
        }
    }

    /// The predicate `r(x̄)` of one packet filter (§3.2's example).
    ///
    /// Hash-consing makes repetition cheap: rules and contracts over
    /// the same ranges intern to the same nodes and bit-blast once.
    pub(crate) fn filter_expr(&self, a: &mut TermArena, f: &HeaderSpace) -> BoolId {
        let mut parts = vec![
            a.in_range(self.src_ip, f.src.start().0 as u64, f.src.end().0 as u64),
            a.in_range(
                self.src_port,
                f.src_ports.start() as u64,
                f.src_ports.end() as u64,
            ),
            a.in_range(self.dst_ip, f.dst.start().0 as u64, f.dst.end().0 as u64),
            a.in_range(
                self.dst_port,
                f.dst_ports.start() as u64,
                f.dst_ports.end() as u64,
            ),
        ];
        if let Some(p) = f.protocol.number() {
            let pc = a.constant(8, p as u64);
            parts.push(a.eq(self.protocol, pc));
        }
        a.and_all(&parts)
    }

    /// Decode the model of a satisfiable query into a packet.
    pub(crate) fn witness(&self, m: &Model) -> HeaderTuple {
        HeaderTuple {
            src_ip: Ipv4(m.value("srcIp").unwrap_or(0) as u32),
            src_port: m.value("srcPort").unwrap_or(0) as u16,
            dst_ip: Ipv4(m.value("dstIp").unwrap_or(0) as u32),
            dst_port: m.value("dstPort").unwrap_or(0) as u16,
            protocol: m.value("protocol").unwrap_or(0) as u8,
        }
    }
}

/// Build the policy meaning `P(x̄)` per Definition 3.1 or 3.2.
pub(crate) fn policy_expr(policy: &Policy, vars: &PacketVars, a: &mut TermArena) -> BoolId {
    match policy.convention {
        Convention::FirstApplicable => {
            // P_i = r_i ∨ P_{i+1} (allow) / ¬r_i ∧ P_{i+1} (deny);
            // built inside-out from P_n = false.
            let mut p = a.fls();
            for r in policy.rules().iter().rev() {
                let ri = vars.filter_expr(a, &r.filter);
                p = match r.action {
                    Action::Permit => a.or(ri, p),
                    Action::Deny => {
                        let nri = a.not(ri);
                        a.and(nri, p)
                    }
                };
            }
            p
        }
        Convention::DenyOverrides => {
            let allow_parts: Vec<BoolId> = policy
                .rules()
                .iter()
                .filter(|r| r.action == Action::Permit)
                .map(|r| vars.filter_expr(a, &r.filter))
                .collect();
            let deny_parts: Vec<BoolId> = policy
                .rules()
                .iter()
                .filter(|r| r.action == Action::Deny)
                .map(|r| {
                    let ri = vars.filter_expr(a, &r.filter);
                    a.not(ri)
                })
                .collect();
            let allows = a.or_all(&allow_parts);
            let denies = a.and_all(&deny_parts);
            a.and(allows, denies)
        }
    }
}

impl SecGuru {
    /// Encode a policy for analysis.
    pub fn new(policy: Policy) -> SecGuru {
        let mut session = Session::new();
        let a = session.arena_mut();
        let vars = PacketVars::new(a);
        let policy_expr = policy_expr(&policy, &vars, a);
        SecGuru {
            policy,
            session,
            policy_expr,
            vars,
            metrics: None,
        }
    }

    /// Export per-check metrics into `registry`, labeled by this
    /// engine's policy name. Handles are resolved once here; each
    /// check then adds a counter bump and a histogram sample.
    pub fn metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(CheckMetrics::new(registry, &self.policy.name));
        self
    }

    /// The analyzed policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Solver counters accumulated over every check so far — queries,
    /// conflicts, and the bit-blast cache reuse the shared encoding
    /// produces.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Check one contract (§3.2's two outcomes).
    pub fn check(&mut self, contract: &Contract) -> CheckOutcome {
        let timer = self.metrics.as_ref().map(|m| m.latency.start_timer());
        let outcome = self.check_inner(contract);
        if let Some(t) = timer {
            t.stop();
        }
        if let Some(m) = &self.metrics {
            if outcome.holds { &m.held } else { &m.violated }.inc();
        }
        outcome
    }

    fn check_inner(&mut self, contract: &Contract) -> CheckOutcome {
        let query = {
            let (policy_expr, a) = (self.policy_expr, self.session.arena_mut());
            let c = self.vars.filter_expr(a, &contract.filter);
            match contract.expect {
                // Permit contract: violated if C ∧ ¬P is satisfiable.
                Action::Permit => {
                    let np = a.not(policy_expr);
                    a.and(c, np)
                }
                // Deny contract: violated if C ∧ P is satisfiable.
                Action::Deny => a.and(c, policy_expr),
            }
        };
        match self.session.check_assuming(&[query]) {
            SmtResult::Unsat => CheckOutcome::pass(contract),
            SmtResult::Sat => {
                let witness = self.vars.witness(&self.session.model());
                debug_assert!(contract.filter.contains(&witness));
                let rule = self.policy.deciding_rule(&witness);
                CheckOutcome::fail(contract, witness, rule)
            }
        }
    }

    /// Check a contract suite; returns only the failures (empty =
    /// "the list is empty if all invariants pass", §3.4).
    pub fn check_all(&mut self, contracts: &[Contract]) -> Vec<CheckOutcome> {
        contracts
            .iter()
            .map(|c| self.check(c))
            .filter(|o| !o.holds)
            .collect()
    }
}

impl Observer for SecGuru {
    /// Publish the engine's solver-session totals as
    /// `secguru_solver_*{policy=...}` gauges.
    fn observe(&self, registry: &Registry) {
        self.stats()
            .observe_into(registry, "secguru_solver", &[("policy", &self.policy.name)]);
    }
}

// ---------------------------------------------------------------------------
// Interval (box-algebra) baseline
// ---------------------------------------------------------------------------

/// A closed 5-dimensional box over the packet tuple: a [`HeaderSpace`]
/// with the protocol widened to a range, so that subtraction stays
/// closed. The one box algebra of the interval side — contract checks
/// and [`crate::diff`]'s permitted regions are both made of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Box5 {
    src: (u32, u32),
    sp: (u16, u16),
    dst: (u32, u32),
    dp: (u16, u16),
    proto: (u8, u8),
}

impl Box5 {
    pub(crate) fn from_space(f: &HeaderSpace) -> Box5 {
        Box5 {
            src: (f.src.start().0, f.src.end().0),
            sp: (f.src_ports.start(), f.src_ports.end()),
            dst: (f.dst.start().0, f.dst.end().0),
            dp: (f.dst_ports.start(), f.dst_ports.end()),
            proto: match f.protocol.number() {
                None => (0, 255),
                Some(p) => (p, p),
            },
        }
    }

    fn sample(&self) -> HeaderTuple {
        HeaderTuple {
            src_ip: Ipv4(self.src.0),
            src_port: self.sp.0,
            dst_ip: Ipv4(self.dst.0),
            dst_port: self.dp.0,
            protocol: self.proto.0,
        }
    }

    pub(crate) fn intersect(&self, o: &Box5) -> Option<Box5> {
        fn dim<T: Ord + Copy>(a: (T, T), b: (T, T)) -> Option<(T, T)> {
            let lo = a.0.max(b.0);
            let hi = a.1.min(b.1);
            (lo <= hi).then_some((lo, hi))
        }
        Some(Box5 {
            src: dim(self.src, o.src)?,
            sp: dim(self.sp, o.sp)?,
            dst: dim(self.dst, o.dst)?,
            dp: dim(self.dp, o.dp)?,
            proto: dim(self.proto, o.proto)?,
        })
    }

    /// `self − o`: at most 10 disjoint residual boxes (two per
    /// dimension, carving around the intersection).
    fn subtract(&self, o: &Box5) -> Vec<Box5> {
        let Some(mid) = self.intersect(o) else {
            return vec![*self];
        };
        let mut out = Vec::new();
        let mut rest = *self;

        macro_rules! carve {
            ($field:ident) => {
                if rest.$field.0 < mid.$field.0 {
                    let mut b = rest;
                    b.$field = (rest.$field.0, mid.$field.0 - 1);
                    out.push(b);
                }
                if mid.$field.1 < rest.$field.1 {
                    let mut b = rest;
                    b.$field = (mid.$field.1 + 1, rest.$field.1);
                    out.push(b);
                }
                rest.$field = mid.$field;
            };
        }
        carve!(src);
        carve!(sp);
        carve!(dst);
        carve!(dp);
        carve!(proto);
        let _ = rest; // fully carved down to the intersection
        out
    }
}

/// The boxes of the rules `keep` selects, in rule order.
pub(crate) fn rule_boxes(policy: &Policy, keep: impl Fn(&Rule) -> bool) -> Vec<Box5> {
    let kept = policy.rules().iter().filter(|r| keep(r));
    kept.map(|r| Box5::from_space(&r.filter)).collect()
}

/// `boxes − ∪cuts`, stopping as soon as nothing is left.
pub(crate) fn subtract_each<'a>(
    mut boxes: Vec<Box5>,
    cuts: impl IntoIterator<Item = &'a Box5>,
) -> Vec<Box5> {
    for cut in cuts {
        if boxes.is_empty() {
            break;
        }
        boxes = boxes.iter().flat_map(|b| b.subtract(cut)).collect();
    }
    boxes
}

/// The interval-analysis engine: exact, allocation-heavy, fast for the
/// rule counts real policies have.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntervalEngine;

impl IntervalEngine {
    /// Create the engine.
    pub fn new() -> IntervalEngine {
        IntervalEngine
    }

    /// Check one contract against a policy; same verdicts as
    /// [`SecGuru::check`] (differentially tested).
    pub fn check(&self, policy: &Policy, contract: &Contract) -> CheckOutcome {
        match self.check_box(policy, Box5::from_space(&contract.filter), contract.expect) {
            None => CheckOutcome::pass(contract),
            Some((w, rule)) => CheckOutcome::fail(contract, w, rule),
        }
    }

    /// A packet of `c0` that `policy` does not decide as `expect`, with
    /// the rule that decided it (`None` = default deny); `None` when
    /// every packet of the box is decided as expected.
    pub(crate) fn check_box<'p>(
        &self,
        policy: &'p Policy,
        c0: Box5,
        expect: Action,
    ) -> Option<(HeaderTuple, Option<&'p Rule>)> {
        match policy.convention {
            Convention::FirstApplicable => {
                // Walk rules in order, tracking the part of the contract
                // space not yet decided. A decided part with the wrong
                // action is a violation.
                let mut undecided = vec![c0];
                for r in policy.rules() {
                    if undecided.is_empty() {
                        break;
                    }
                    let rb = Box5::from_space(&r.filter);
                    if r.action != expect {
                        // Any overlap of undecided space with this rule
                        // is decided wrongly.
                        if let Some(bad) = undecided.iter().find_map(|u| u.intersect(&rb)) {
                            return Some((bad.sample(), Some(r)));
                        }
                    }
                    undecided = subtract_each(undecided, [&rb]);
                }
                // Whatever is still undecided falls to default deny.
                match undecided.first() {
                    Some(first) if expect == Action::Permit => Some((first.sample(), None)),
                    _ => None,
                }
            }
            Convention::DenyOverrides => {
                let denies = rule_boxes(policy, |r| r.action == Action::Deny);
                let permits = rule_boxes(policy, |r| r.action == Action::Permit);
                let decided = |b: &Box5| {
                    let w = b.sample();
                    (w, policy.deciding_rule(&w))
                };
                match expect {
                    // Violated iff some packet in C is permitted and
                    // not denied: ∪(C∩permit_i) − ∪deny.
                    Action::Deny => permits
                        .iter()
                        .filter_map(|pb| c0.intersect(pb))
                        .find_map(|hit| subtract_each(vec![hit], &denies).first().map(decided)),
                    // Violated iff some packet in C is denied or
                    // matched by no permit.
                    Action::Permit => denies
                        .iter()
                        .find_map(|d| c0.intersect(d))
                        .map(|hit| decided(&hit))
                        .or_else(|| {
                            let uncovered = subtract_each(vec![c0], &permits);
                            uncovered.first().map(|first| (first.sample(), None))
                        }),
                }
            }
        }
    }

    /// Check a suite, returning failures only.
    pub fn check_all(&self, policy: &Policy, contracts: &[Contract]) -> Vec<CheckOutcome> {
        contracts
            .iter()
            .map(|c| self.check(policy, c))
            .filter(|o| !o.holds)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{figure8_acl, parse_nsg};
    use netprim::{IpRange, PortRange, Prefix, Protocol};

    fn dst_contract(name: &str, dst: &str, expect: Action) -> Contract {
        Contract::new(
            name,
            HeaderSpace::to_dst(dst.parse::<Prefix>().unwrap()),
            expect,
        )
    }

    #[test]
    fn check_metrics_count_outcomes_and_time_checks() {
        let registry = Registry::new();
        let mut sg = SecGuru::new(figure8_acl()).metrics(&registry);
        let held = Contract::new(
            "private-src-isolated",
            HeaderSpace::from_src("10.0.0.0/8".parse::<Prefix>().unwrap()),
            Action::Deny,
        );
        let violated = dst_contract("svc24-reachable", "104.208.32.0/24", Action::Permit);
        assert!(sg.check(&held).holds);
        assert!(!sg.check(&violated).holds);
        assert!(!sg.check(&violated).holds);

        let policy = sg.policy().name.clone();
        let snap = registry.observe_and_snapshot(&[&sg]);
        let held_labels = [("policy", policy.as_str()), ("outcome", "held")];
        let violated_labels = [("policy", policy.as_str()), ("outcome", "violated")];
        assert_eq!(snap.counter("secguru_checks_total", &held_labels), Some(1));
        assert_eq!(snap.counter("secguru_checks_total", &violated_labels), Some(2));
        let latency = snap
            .histogram("secguru_check_latency_ns", &[("policy", policy.as_str())])
            .expect("check latency histogram");
        assert_eq!(latency.count, 3);
        // The Observer bridge publishes solver session gauges per policy.
        let queries = snap
            .gauge("secguru_solver_queries", &[("policy", policy.as_str())])
            .expect("solver query gauge");
        assert!(queries >= 3, "three checks need at least three queries, got {queries}");
    }

    #[test]
    fn smt_diff_metrics_time_witness_queries() {
        let registry = Registry::new();
        let old = figure8_acl();
        let smb_deny = old
            .rules()
            .iter()
            .find(|r| r.filter.dst_ports == PortRange::single(445))
            .expect("figure 8 has a tcp/445 rule")
            .name
            .clone();
        let new = old.without_rule(&smb_deny);
        let mut diff = crate::diff::SmtDiff::new(&old, &new).metrics(&registry);
        let _ = diff.diff();
        let snap = registry.observe_and_snapshot(&[&diff]);
        let latency = snap
            .histogram("secguru_diff_latency_ns", &[])
            .expect("diff latency histogram");
        assert_eq!(latency.count, 2, "one query per change direction");
        assert_eq!(snap.gauge("secguru_diff_solver_queries", &[]), Some(2));
    }

    #[test]
    fn figure8_contracts_smt() {
        let mut sg = SecGuru::new(figure8_acl());
        // Private datacenter addresses must not be reachable from the
        // Internet (§3.3's example invariant): traffic FROM 10/8 denied.
        let c = Contract::new(
            "private-src-isolated",
            HeaderSpace::from_src("10.0.0.0/8".parse::<Prefix>().unwrap()),
            Action::Deny,
        );
        assert!(sg.check(&c).holds);

        // The /24 service range must be reachable on any port.
        let c = dst_contract("svc24-reachable", "104.208.32.0/24", Action::Permit);
        let o = sg.check(&c);
        assert!(!o.holds, "10/8 sources are denied; contract too broad");
        // Narrow the source to the Internet (outside blocked ranges).
        let c = Contract::new(
            "svc24-reachable-internet",
            HeaderSpace {
                src: IpRange::new(Ipv4::new(8, 0, 0, 0), Ipv4::new(8, 255, 255, 255)).unwrap(),
                ..HeaderSpace::to_dst("104.208.32.0/24".parse::<Prefix>().unwrap())
            },
            Action::Permit,
        );
        assert!(sg.check(&c).holds);
    }

    #[test]
    fn witness_identifies_violating_rule() {
        let mut sg = SecGuru::new(figure8_acl());
        // Port 445 toward the /20 must be permitted? No — violated by
        // the SMB deny rule (line 8 of the parsed policy).
        let c = Contract::new(
            "smb-reachable",
            HeaderSpace {
                src: IpRange::new(Ipv4::new(8, 0, 0, 0), Ipv4::new(8, 255, 255, 255)).unwrap(),
                dst_ports: PortRange::single(445),
                protocol: Protocol::Tcp,
                ..HeaderSpace::to_dst("104.208.40.0/24".parse::<Prefix>().unwrap())
            },
            Action::Permit,
        );
        let o = sg.check(&c);
        assert!(!o.holds);
        let w = o.witness.unwrap();
        assert_eq!(w.dst_port, 445);
        assert_eq!(w.protocol, 6);
        // The deciding rule is the tcp/445 deny.
        let rule = o.violating_rule.unwrap();
        let p = figure8_acl();
        let deciding = p.rules().iter().find(|r| r.name == rule).unwrap();
        assert_eq!(deciding.action, Action::Deny);
        assert_eq!(deciding.filter.dst_ports, PortRange::single(445));
    }

    #[test]
    fn default_deny_witnessed_without_rule() {
        let mut sg = SecGuru::new(figure8_acl());
        let c = dst_contract("unknown-dst", "9.9.9.0/24", Action::Permit);
        let o = sg.check(&c);
        assert!(!o.holds);
        assert_eq!(o.violating_rule.as_deref(), Some("(default-deny)"));
    }

    #[test]
    fn interval_engine_agrees_on_figure8() {
        let policy = figure8_acl();
        let ie = IntervalEngine::new();
        let mut sg = SecGuru::new(policy.clone());
        let contracts = vec![
            Contract::new(
                "private-src",
                HeaderSpace::from_src("10.0.0.0/8".parse::<Prefix>().unwrap()),
                Action::Deny,
            ),
            dst_contract("svc24", "104.208.32.0/24", Action::Permit),
            dst_contract("unknown", "9.9.9.0/24", Action::Permit),
            dst_contract("unknown-deny", "9.9.9.0/24", Action::Deny),
        ];
        for c in &contracts {
            let a = sg.check(c);
            let b = ie.check(&policy, c);
            assert_eq!(a.holds, b.holds, "contract {}", c.name);
        }
    }

    #[test]
    fn nsg_first_applicable_check() {
        let nsg = parse_nsg(
            "db-nsg",
            "
            100; AllowWeb; Any; Any; 10.1.0.0/16; 443; tcp; Allow
            4000; DenyAllInbound; Any; Any; Any; Any; Any; Deny
            ",
        )
        .unwrap();
        let mut sg = SecGuru::new(nsg);
        // Backups (infrastructure 20.0.0.0/16 -> db 10.1.9.0/24:1433)
        // are blocked: the §3.4 failure mode.
        let backup = Contract::new(
            "db-backup-reachable",
            HeaderSpace {
                src: "20.0.0.0/16".parse::<Prefix>().unwrap().range(),
                dst_ports: PortRange::single(1433),
                protocol: Protocol::Tcp,
                ..HeaderSpace::to_dst("10.1.9.0/24".parse::<Prefix>().unwrap())
            },
            Action::Permit,
        );
        let o = sg.check(&backup);
        assert!(!o.holds);
        assert_eq!(o.violating_rule.as_deref(), Some("DenyAllInbound"));
    }

    #[test]
    fn deny_overrides_checks() {
        let rules = vec![
            Rule {
                name: "permit-vnet".into(),
                priority: 1,
                filter: HeaderSpace::to_dst("10.0.0.0/8".parse::<Prefix>().unwrap()),
                action: Action::Permit,
            },
            Rule {
                name: "deny-infra".into(),
                priority: 2,
                filter: HeaderSpace::to_dst("10.255.0.0/16".parse::<Prefix>().unwrap()),
                action: Action::Deny,
            },
        ];
        let p = Policy::new("fw", Convention::DenyOverrides, rules);
        let mut sg = SecGuru::new(p.clone());
        let ie = IntervalEngine::new();
        let infra_denied = dst_contract("infra-denied", "10.255.0.0/16", Action::Deny);
        let vnet_ok = dst_contract("vnet-ok", "10.1.0.0/16", Action::Permit);
        let outside = dst_contract("outside-denied", "11.0.0.0/8", Action::Deny);
        for c in [&infra_denied, &vnet_ok, &outside] {
            assert!(sg.check(c).holds, "{}", c.name);
            assert!(ie.check(&p, c).holds, "{}", c.name);
        }
        // The full vnet permit contract fails: infra subrange is denied.
        let too_broad = dst_contract("vnet-all", "10.0.0.0/8", Action::Permit);
        let o = sg.check(&too_broad);
        assert!(!o.holds);
        assert_eq!(o.violating_rule.as_deref(), Some("deny-infra"));
        assert!(!ie.check(&p, &too_broad).holds);
    }

    #[test]
    fn box_subtract_is_exact() {
        let all = Box5::from_space(&HeaderSpace::ALL);
        let cut = Box5::from_space(&HeaderSpace::to_dst("10.0.0.0/8".parse().unwrap()));
        let parts = all.subtract(&cut);
        // Residuals are disjoint from the cut and from each other, and
        // sizes add up.
        for p in &parts {
            assert!(p.intersect(&cut).is_none());
        }
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert!(a.intersect(b).is_none());
            }
        }
        fn size(b: &Box5) -> u128 {
            (b.src.1 as u128 - b.src.0 as u128 + 1)
                * (b.sp.1 as u128 - b.sp.0 as u128 + 1)
                * (b.dst.1 as u128 - b.dst.0 as u128 + 1)
                * (b.dp.1 as u128 - b.dp.0 as u128 + 1)
                * (b.proto.1 as u128 - b.proto.0 as u128 + 1)
        }
        let total: u128 = parts.iter().map(size).sum();
        assert_eq!(total + size(&cut), size(&all));
    }

    #[test]
    fn empty_policy_denies_everything() {
        let p = Policy::new("empty", Convention::FirstApplicable, vec![]);
        let mut sg = SecGuru::new(p.clone());
        let c = dst_contract("anything", "0.0.0.0/0", Action::Deny);
        assert!(sg.check(&c).holds);
        assert!(IntervalEngine::new().check(&p, &c).holds);
        let c = dst_contract("anything-permit", "1.2.3.4/32", Action::Permit);
        assert!(!sg.check(&c).holds);
        assert!(!IntervalEngine::new().check(&p, &c).holds);
    }

    #[test]
    fn check_all_returns_failures_only() {
        let mut sg = SecGuru::new(figure8_acl());
        let contracts = vec![
            Contract::new(
                "private-src",
                HeaderSpace::from_src("10.0.0.0/8".parse::<Prefix>().unwrap()),
                Action::Deny,
            ),
            dst_contract("unknown", "9.9.9.0/24", Action::Permit),
        ];
        let failures = sg.check_all(&contracts);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].contract, "unknown");
    }
}
