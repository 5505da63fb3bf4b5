//! The user-facing incremental SMT context.
//!
//! [`Session`] owns a [`TermArena`] and lowers interned formulas onto
//! the SAT core on demand. The bit-blast cache is keyed on arena ids,
//! so every shared subterm is Tseitin-encoded exactly once per session
//! — across queries, not just within one. On top of the
//! assumption-capable CDCL core it provides:
//!
//! * `assert` — assertions scoped to the current `push` depth (the
//!   policy encoding at scope 0, per-experiment extras above it);
//! * `push`/`pop` — assertion scopes implemented with activation
//!   literals, so popping retires clauses without touching the clause
//!   database and learned clauses survive;
//! * `check_assuming` — satisfiability under per-query assumptions
//!   (the contract under test), exactly the incremental interface the
//!   paper leans on for its per-device contract sweeps (§2.5.1);
//! * model extraction — the witness packet header that the paper's
//!   error reports surface when a contract fails.

use crate::arena::{BoolId, BoolNode, TermArena, TermId, TermNode, Work};
use crate::bv::{
    blast_add, blast_and, blast_concat, blast_const, blast_eq, blast_extract, blast_fresh,
    blast_ite, blast_not, blast_or, blast_sub, blast_ule, blast_xor, Bits, BvOp,
};
use crate::cnf::GateCtx;
use crate::sat::{Lit, SatResult};
use std::collections::HashMap;

/// Result of an SMT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable under the current assertions and assumptions.
    Unsat,
}

/// A satisfying assignment restricted to the named variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<String, u64>,
    bools: HashMap<String, bool>,
}

impl Model {
    /// Value of a named bit-vector variable, if it was declared.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Value of a named Boolean variable, if it was declared.
    pub fn bool_value(&self, name: &str) -> Option<bool> {
        self.bools.get(name).copied()
    }
}

/// Counters exposing how much work a [`Session`] did and how much it
/// reused, so warm-solver wins are observable rather than inferred
/// from wall clock alone. Absorbed into validation reports and sweep
/// analytics by the engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// SAT queries issued (`check` / `check_assuming` calls).
    pub queries: u64,
    /// CDCL conflicts across all queries in the session.
    pub conflicts: u64,
    /// CDCL decisions across all queries.
    pub decisions: u64,
    /// Unit propagations across all queries.
    pub propagations: u64,
    /// Learned clauses currently retained by the solver.
    pub learned: u64,
    /// SAT variables allocated (Tseitin gates + vars).
    pub sat_vars: u64,
    /// Bit-blast cache hits: a requested node was already encoded.
    pub blast_cache_hits: u64,
    /// Bit-blast cache misses: nodes encoded for the first time.
    pub blast_cache_misses: u64,
}

impl SessionStats {
    /// The counters as `(stable name, value)` pairs, in declaration
    /// order — the single source of truth for every exporter and
    /// report renderer that spells these fields out.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("queries", self.queries),
            ("conflicts", self.conflicts),
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("learned", self.learned),
            ("sat_vars", self.sat_vars),
            ("blast_cache_hits", self.blast_cache_hits),
            ("blast_cache_misses", self.blast_cache_misses),
        ]
    }

    /// Bridge the counters into `registry` as gauges named
    /// `{prefix}_{field}` with the given labels — gauges, not
    /// counters, because a [`SessionStats`] is a point-in-time total
    /// (and `learned` can shrink when the clause database is reduced).
    pub fn observe_into(
        &self,
        registry: &obskit::Registry,
        prefix: &str,
        labels: &[(&str, &str)],
    ) {
        for (field, value) in self.fields() {
            registry
                .gauge(
                    &format!("{prefix}_{field}"),
                    "solver session totals (see smtkit::SessionStats)",
                    labels,
                )
                .set(i64::try_from(value).unwrap_or(i64::MAX));
        }
    }

    /// Field-wise accumulate, for merging per-session counters into a
    /// per-device or per-sweep total.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.learned += other.learned;
        self.sat_vars += other.sat_vars;
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
    }
}

/// Bridge with the default `smt_session` gauge prefix and no labels —
/// callers wanting per-engine or per-policy labels use
/// [`SessionStats::observe_into`] directly.
impl obskit::Observer for SessionStats {
    fn observe(&self, registry: &obskit::Registry) {
        self.observe_into(registry, "smt_session", &[]);
    }
}

/// An incremental SMT solver for quantifier-free bit-vector formulas
/// over a hash-consed [`TermArena`].
pub struct Session {
    arena: TermArena,
    g: GateCtx,
    bv_vars: HashMap<u32, Bits>,
    bool_vars: HashMap<u32, Lit>,
    /// Bit-blast caches, indexed by arena node index. Ids are dense
    /// and stable, so plain vectors replace the pointer-keyed memo
    /// (and the Rc-retention hack that kept it sound) entirely.
    term_cache: Vec<Option<Bits>>,
    bool_cache: Vec<Option<Lit>>,
    /// Activation literal per open scope. A scoped assertion `e`
    /// becomes the clause `¬act ∨ e`; `check` assumes every open
    /// `act`; `pop` permanently asserts `¬act`.
    scopes: Vec<Lit>,
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Create an empty session with its own arena.
    pub fn new() -> Session {
        Session {
            arena: TermArena::new(),
            g: GateCtx::new(),
            bv_vars: HashMap::new(),
            bool_vars: HashMap::new(),
            term_cache: Vec::new(),
            bool_cache: Vec::new(),
            scopes: Vec::new(),
            queries: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The term arena backing this session (read access).
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// The term arena backing this session. Build formulas here, then
    /// pass the resulting ids to [`Session::assert`] /
    /// [`Session::check_assuming`].
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Number of SAT variables allocated (statistics).
    pub fn num_sat_vars(&self) -> usize {
        self.g.sat.num_vars()
    }

    /// Current `push` depth.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Session counters (monotone over the session's lifetime, except
    /// `learned`, which reflects the clause database right now).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries,
            conflicts: self.g.sat.num_conflicts(),
            decisions: self.g.sat.num_decisions(),
            propagations: self.g.sat.num_propagations(),
            learned: self.g.sat.num_learnts() as u64,
            sat_vars: self.g.sat.num_vars() as u64,
            blast_cache_hits: self.cache_hits,
            blast_cache_misses: self.cache_misses,
        }
    }

    /// Assert a formula in the current scope: permanently at depth 0,
    /// retracted by the matching [`Session::pop`] otherwise.
    pub fn assert(&mut self, e: BoolId) {
        let l = self.lower_bool(e);
        match self.scopes.last().copied() {
            None => self.g.assert(l),
            Some(act) => {
                let _ = self.g.sat.add_clause(&[!act, l]);
            }
        }
    }

    /// Open an assertion scope.
    pub fn push(&mut self) {
        let act = self.g.fresh();
        self.scopes.push(act);
    }

    /// Close the innermost scope, retiring its assertions. Clauses
    /// learned inside the scope remain — they are conditioned on the
    /// scope's activation literal where needed, so this is sound.
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let act = self.scopes.pop().expect("pop without matching push");
        self.g.assert(!act);
    }

    /// Check satisfiability of the active assertions.
    pub fn check(&mut self) -> SmtResult {
        self.check_assuming(&[])
    }

    /// Check satisfiability under additional assumptions that do not
    /// persist. Clause learning does persist, so sequences of related
    /// queries (one per contract, one per ACL rule pair) get faster,
    /// not slower.
    pub fn check_assuming(&mut self, assumptions: &[BoolId]) -> SmtResult {
        let mut lits: Vec<Lit> = Vec::with_capacity(self.scopes.len() + assumptions.len());
        for &e in assumptions {
            lits.push(self.lower_bool(e));
        }
        lits.extend(self.scopes.iter().copied());
        self.queries += 1;
        match self.g.sat.solve_with(&lits) {
            SatResult::Sat => SmtResult::Sat,
            SatResult::Unsat => SmtResult::Unsat,
        }
    }

    /// Extract the model for every declared variable. Meaningful only
    /// after a `Sat` result.
    pub fn model(&self) -> Model {
        let mut m = Model::default();
        for (&name, bits) in &self.bv_vars {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if self.g.sat.model_value(l.var()) != l.is_neg() {
                    v |= 1 << i;
                }
            }
            m.values.insert(self.arena.name_str(name).to_string(), v);
        }
        for (&name, &l) in &self.bool_vars {
            m.bools.insert(
                self.arena.name_str(name).to_string(),
                self.g.sat.model_value(l.var()) != l.is_neg(),
            );
        }
        m
    }

    fn bv_var_bits(&mut self, name: u32, width: u32) -> Bits {
        if let Some(bits) = self.bv_vars.get(&name) {
            return bits.clone();
        }
        let bits = blast_fresh(&mut self.g, width);
        self.bv_vars.insert(name, bits.clone());
        bits
    }

    fn bool_var_lit(&mut self, name: u32) -> Lit {
        if let Some(&l) = self.bool_vars.get(&name) {
            return l;
        }
        let l = self.g.fresh();
        self.bool_vars.insert(name, l);
        l
    }

    fn is_cached(&self, w: &Work) -> bool {
        match *w {
            Work::B(b) => self.bool_cache[b.index()].is_some(),
            Work::T(t) => self.term_cache[t.index()].is_some(),
        }
    }

    /// Literal of an already-lowered Boolean id, applying the id's
    /// negation bit.
    fn cached_lit(&self, b: BoolId) -> Lit {
        let l = self.bool_cache[b.index()].expect("bool node lowered");
        if b.is_neg() {
            !l
        } else {
            l
        }
    }

    fn cached_bits(&self, t: TermId) -> Bits {
        self.term_cache[t.index()].clone().expect("term node lowered")
    }

    fn lower_bool(&mut self, e: BoolId) -> Lit {
        self.lower_all(Work::B(e));
        self.cached_lit(e)
    }

    /// Iterative post-order lowering with an explicit stack.
    ///
    /// Policy encodings are chains thousands of nodes deep (one node
    /// per routing rule / ACL line); a recursive lowering would
    /// overflow the thread stack, so children are scheduled explicitly
    /// and a node is encoded only once all of its children are cached.
    fn lower_all(&mut self, root: Work) {
        // The arena may have grown since the last lowering.
        self.term_cache.resize(self.arena.num_term_nodes(), None);
        self.bool_cache.resize(self.arena.num_bool_nodes(), None);

        let mut stack: Vec<(Work, bool)> = vec![(root, false)];
        while let Some((w, expanded)) = stack.pop() {
            if self.is_cached(&w) {
                if !expanded {
                    self.cache_hits += 1;
                }
                continue;
            }
            if !expanded {
                stack.push((w, true));
                let mut kids = Vec::new();
                self.arena.children(w, &mut kids);
                for k in kids {
                    stack.push((k, false));
                }
                continue;
            }
            self.cache_misses += 1;
            match w {
                Work::B(b) => {
                    let l = self.encode_bool(b);
                    self.bool_cache[b.index()] = Some(l);
                }
                Work::T(t) => {
                    let bits = self.encode_term(t);
                    self.term_cache[t.index()] = Some(bits);
                }
            }
        }
    }

    /// Encode one Boolean node whose children are all cached.
    fn encode_bool(&mut self, b: BoolId) -> Lit {
        match self.arena.bool_node(b).clone() {
            BoolNode::True => self.g.tru(),
            BoolNode::Var(n) => self.bool_var_lit(n),
            BoolNode::And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|&x| self.cached_lit(x)).collect();
                self.g.and_many(&lits)
            }
            BoolNode::Xor(a, c) => {
                let (la, lc) = (self.cached_lit(a), self.cached_lit(c));
                self.g.xor2(la, lc)
            }
            BoolNode::Ite { cond, then, els } => {
                let (lc, lt, le) = (
                    self.cached_lit(cond),
                    self.cached_lit(then),
                    self.cached_lit(els),
                );
                self.g.ite(lc, lt, le)
            }
            BoolNode::Eq(a, c) => {
                let (ba, bc) = (self.cached_bits(a), self.cached_bits(c));
                blast_eq(&mut self.g, &ba, &bc)
            }
            BoolNode::Ule(a, c) => {
                let (ba, bc) = (self.cached_bits(a), self.cached_bits(c));
                blast_ule(&mut self.g, &ba, &bc)
            }
        }
    }

    /// Encode one term node whose children are all cached.
    fn encode_term(&mut self, t: TermId) -> Bits {
        match *self.arena.term_node(t) {
            TermNode::Const { width, value } => blast_const(&self.g, width, value),
            TermNode::Var { name, width } => self.bv_var_bits(name, width),
            TermNode::Bin { op, lhs, rhs } => {
                let (a, b) = (self.cached_bits(lhs), self.cached_bits(rhs));
                match op {
                    BvOp::Add => blast_add(&mut self.g, &a, &b),
                    BvOp::Sub => blast_sub(&mut self.g, &a, &b),
                    BvOp::And => blast_and(&mut self.g, &a, &b),
                    BvOp::Or => blast_or(&mut self.g, &a, &b),
                    BvOp::Xor => blast_xor(&mut self.g, &a, &b),
                }
            }
            TermNode::Not(a) => {
                let bits = self.cached_bits(a);
                blast_not(&bits)
            }
            TermNode::Ite { cond, then, els } => {
                let c = self.cached_lit(cond);
                let (bt, be) = (self.cached_bits(then), self.cached_bits(els));
                blast_ite(&mut self.g, c, &bt, &be)
            }
            TermNode::Extract { term, hi, lo } => {
                let bits = self.cached_bits(term);
                blast_extract(&bits, hi, lo)
            }
            TermNode::Concat { hi, lo } => {
                let (bh, bl) = (self.cached_bits(hi), self.cached_bits(lo));
                blast_concat(&bh, &bl)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_membership() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 16);
        let q = a.in_range(x, 100, 200);
        s.assert(q);
        assert_eq!(s.check(), SmtResult::Sat);
        let v = s.model().value("x").unwrap();
        assert!((100..=200).contains(&v), "witness {v} outside range");
    }

    #[test]
    fn empty_range_unsat() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 16);
        let above = a.in_range(x, 300, 400);
        let below = a.in_range(x, 0, 100);
        let both = a.and(above, below);
        s.assert(both);
        assert_eq!(s.check(), SmtResult::Unsat);
    }

    #[test]
    fn in_range_is_exact_for_every_range_at_width_6() {
        for lo in 0..64u64 {
            for hi in 0..64u64 {
                let mut s = Session::new();
                let a = s.arena_mut();
                let x = a.var("x", 6);
                let q = a.in_range(x, lo, hi);
                for v in 0..64u64 {
                    let got = a.eval_bool(q, &|_| v, &|_| false);
                    assert_eq!(got, lo <= v && v <= hi, "[{lo}, {hi}] at {v}");
                }
                // The solver agrees with the comparator definition,
                // built here from `ule` so the prefix rewrite is not
                // checked against itself.
                let (lo_t, hi_t) = (a.constant(6, lo), a.constant(6, hi));
                let (ge, le) = (a.ule(lo_t, x), a.ule(x, hi_t));
                let by_ule = a.and(ge, le);
                let differs = a.xor(q, by_ule);
                assert_eq!(s.check_assuming(&[differs]), SmtResult::Unsat, "[{lo}, {hi}]");
                match s.check_assuming(&[q]) {
                    // The whole width folds to `true` and never lowers `x`.
                    SmtResult::Sat => {
                        let v = s.model().value("x").unwrap_or(lo);
                        assert!(lo <= v && v <= hi, "model {v} outside [{lo}, {hi}]");
                    }
                    SmtResult::Unsat => assert!(lo > hi, "[{lo}, {hi}] has members"),
                }
            }
        }
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 8);
        let c5 = a.constant(8, 5);
        let c9 = a.constant(8, 9);
        let is5 = a.eq(x, c5);
        let is9 = a.eq(x, c9);
        assert_eq!(s.check_assuming(&[is5]), SmtResult::Sat);
        assert_eq!(s.model().value("x"), Some(5));
        assert_eq!(s.check_assuming(&[is9]), SmtResult::Sat);
        assert_eq!(s.model().value("x"), Some(9));
        let both = s.arena_mut().and(is5, is9);
        assert_eq!(s.check_assuming(&[both]), SmtResult::Unsat);
        // None of the above stuck.
        assert_eq!(s.check(), SmtResult::Sat);
    }

    #[test]
    fn arithmetic_identity() {
        // (x + y) - y == x is valid: its negation is unsat.
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 16);
        let y = a.var("y", 16);
        let sum = a.add(x, y);
        let back = a.sub(sum, y);
        let ne = a.ne(back, x);
        s.assert(ne);
        assert_eq!(s.check(), SmtResult::Unsat);
    }

    #[test]
    fn demorgan_is_valid() {
        // ¬(p ∧ q) ↔ (¬p ∨ ¬q). The arena folds both sides to the
        // same id, so the negated equivalence is *structurally* false
        // before the SAT core ever runs.
        let mut s = Session::new();
        let a = s.arena_mut();
        let p = a.bool_var("p");
        let q = a.bool_var("q");
        let conj = a.and(p, q);
        let lhs = a.not(conj);
        let np = a.not(p);
        let nq = a.not(q);
        let rhs = a.or(np, nq);
        let equiv = a.iff(lhs, rhs);
        let neg = a.not(equiv);
        assert_eq!(a.bool_value(neg), Some(false));
        s.assert(neg);
        assert_eq!(s.check(), SmtResult::Unsat);
    }

    #[test]
    fn bool_model_extraction() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let p = a.bool_var("p");
        let q = a.bool_var("q");
        let nq = a.not(q);
        let both = a.and(p, nq);
        s.assert(both);
        assert_eq!(s.check(), SmtResult::Sat);
        let m = s.model();
        assert_eq!(m.bool_value("p"), Some(true));
        assert_eq!(m.bool_value("q"), Some(false));
    }

    #[test]
    fn shared_subterms_are_encoded_once() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 32);
        let y = a.var("y", 32);
        let sum = a.add(x, y);
        let c1 = a.constant(32, 1000);
        let c2 = a.constant(32, 2000);
        let q1 = a.ule(sum, c1);
        let q2 = a.ule(sum, c2);
        assert_eq!(s.check_assuming(&[q1]), SmtResult::Sat);
        let vars_after_first = s.num_sat_vars();
        assert_eq!(s.check_assuming(&[q2]), SmtResult::Sat);
        let st = s.stats();
        assert!(
            st.blast_cache_hits >= 1,
            "second query should reuse the shared adder: {st:?}"
        );
        // The second comparison adds gates, but not a second adder.
        assert!(s.num_sat_vars() < vars_after_first + 64);
        assert_eq!(st.queries, 2);
    }

    #[test]
    fn ite_term_selects_branch() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let p = a.bool_var("p");
        let t = a.constant(8, 10);
        let e = a.constant(8, 20);
        let pick = a.ite_term(p, t, e);
        let out = a.var("out", 8);
        let tie = a.eq(out, pick);
        s.assert(tie);
        s.assert(p);
        assert_eq!(s.check(), SmtResult::Sat);
        assert_eq!(s.model().value("out"), Some(10));
    }

    #[test]
    fn first_applicable_acl_semantics_example() {
        // Rule 1: deny [0,9]. Rule 2: permit [0,99]. Default: deny.
        // First match wins, so 5 is denied and 50 is permitted.
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("pkt", 8);
        let r1 = a.in_range(x, 0, 9);
        let r2 = a.in_range(x, 0, 99);
        let tru = a.tru();
        let fls = a.fls();
        let after1 = a.ite_bool(r2, tru, fls);
        let policy = a.ite_bool(r1, fls, after1);
        let c5 = a.constant(8, 5);
        let c50 = a.constant(8, 50);
        let at5 = a.eq(x, c5);
        let at50 = a.eq(x, c50);
        let permit5 = a.and(at5, policy);
        let permit50 = a.and(at50, policy);
        assert_eq!(s.check_assuming(&[permit5]), SmtResult::Unsat);
        assert_eq!(s.check_assuming(&[permit50]), SmtResult::Sat);
    }

    #[test]
    fn extract_concat_round_trip() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 32);
        let hi = a.extract(x, 31, 16);
        let lo = a.extract(x, 15, 0);
        let back = a.concat(hi, lo);
        let ne = a.ne(back, x);
        assert_eq!(s.check_assuming(&[ne]), SmtResult::Unsat);
    }

    #[test]
    fn xor_and_bitwise_ops() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 16);
        let y = a.var("y", 16);
        // (x ^ y) ^ y == x is valid.
        let xy = a.bvxor(x, y);
        let xyy = a.bvxor(xy, y);
        let ne1 = a.ne(xyy, x);
        // (x & y) | x == x (absorption) is valid.
        let conj = a.bvand(x, y);
        let absorbed = a.bvor(conj, x);
        let ne2 = a.ne(absorbed, x);
        assert_eq!(s.check_assuming(&[ne1]), SmtResult::Unsat);
        assert_eq!(s.check_assuming(&[ne2]), SmtResult::Unsat);
    }

    #[test]
    fn push_pop_scopes_assertions() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 8);
        let c3 = a.constant(8, 3);
        let c4 = a.constant(8, 4);
        let is3 = a.eq(x, c3);
        let is4 = a.eq(x, c4);
        s.assert(is3);
        assert_eq!(s.check(), SmtResult::Sat);
        s.push();
        assert_eq!(s.scope_depth(), 1);
        s.assert(is4);
        assert_eq!(s.check(), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.scope_depth(), 0);
        assert_eq!(s.check(), SmtResult::Sat);
        assert_eq!(s.model().value("x"), Some(3));
    }

    #[test]
    fn nested_scopes_retire_in_order() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 8);
        let lo = a.in_range(x, 0, 100);
        let hi = a.in_range(x, 200, 255);
        let mid = a.in_range(x, 50, 60);
        s.push();
        s.assert(lo);
        s.push();
        s.assert(hi);
        assert_eq!(s.check(), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.check(), SmtResult::Sat);
        s.push();
        s.assert(mid);
        assert_eq!(s.check(), SmtResult::Sat);
        let v = s.model().value("x").unwrap();
        assert!((50..=60).contains(&v));
        s.pop();
        s.pop();
        // All scopes closed: x is unconstrained again.
        let is250 = {
            let a = s.arena_mut();
            let c = a.constant(8, 250);
            a.eq(x, c)
        };
        assert_eq!(s.check_assuming(&[is250]), SmtResult::Sat);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut s = Session::new();
        s.pop();
    }

    #[test]
    fn scoped_assumptions_compose() {
        let mut s = Session::new();
        let a = s.arena_mut();
        let x = a.var("x", 8);
        let band = a.in_range(x, 10, 20);
        let c15 = a.constant(8, 15);
        let c25 = a.constant(8, 25);
        let is15 = a.eq(x, c15);
        let is25 = a.eq(x, c25);
        s.push();
        s.assert(band);
        assert_eq!(s.check_assuming(&[is15]), SmtResult::Sat);
        assert_eq!(s.check_assuming(&[is25]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.check_assuming(&[is25]), SmtResult::Sat);
    }
}
