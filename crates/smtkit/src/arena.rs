//! Hash-consed term arena: the structural core of the incremental
//! solver.
//!
//! Every bit-vector term and Boolean formula lives in a [`TermArena`]
//! and is named by a copyable id ([`TermId`], [`BoolId`]). Construction
//! interns: structurally identical subterms map to the same id, so the
//! DAG sharing the paper relies on ("formula sharing", §2.5.1) is a
//! property of the representation rather than of caller discipline, and
//! the bit-blast cache in [`crate::solver::Session`] can key on plain
//! indices instead of pointer identity.
//!
//! Two further invariants fall out of interning:
//!
//! * **Children precede parents.** A node's operands are interned
//!   before the node itself, so arena indices are a topological order —
//!   evaluation and lowering never need recursion.
//! * **Constant folding happens at intern time.** Operations over
//!   constants never allocate a node (`x & 0` *is* `0`); the Tseitin
//!   layer below folds again at the literal level, but folding here
//!   keeps whole subtrees from ever existing.
//!
//! Boolean ids carry their negation in the low bit (the same trick as
//! [`crate::sat::Lit`]): `¬e` is id arithmetic, double negation is
//! involutive for free, and complementary operands are detected by a
//! single XOR.

use crate::bv::BvOp;
use std::collections::HashMap;

/// Id of an interned bit-vector term. Plain index; copy freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

/// Id of an interned Boolean formula. The low bit is the negation
/// flag, so `not` allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoolId(u32);

impl TermId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl BoolId {
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    pub(crate) fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn negated(self) -> BoolId {
        BoolId(self.0 ^ 1)
    }
}

/// Interned bit-vector node. Operands are ids, so equality and hashing
/// are O(arity) regardless of subtree size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum TermNode {
    Const { width: u32, value: u64 },
    Var { name: u32, width: u32 },
    Bin { op: BvOp, lhs: TermId, rhs: TermId },
    Not(TermId),
    Ite { cond: BoolId, then: TermId, els: TermId },
    Extract { term: TermId, hi: u32, lo: u32 },
    Concat { hi: TermId, lo: TermId },
}

/// Interned Boolean node. Stored in positive polarity only; negation
/// lives in the referencing [`BoolId`]. There is no `Or` node:
/// disjunction is `¬∧¬`, which doubles structural sharing between the
/// two (the policy encodings use both freely).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum BoolNode {
    True,
    Var(u32),
    And(Vec<BoolId>),
    Xor(BoolId, BoolId),
    Ite { cond: BoolId, then: BoolId, els: BoolId },
    Eq(TermId, TermId),
    Ule(TermId, TermId),
}

/// A unit of DAG traversal shared by evaluation and lowering.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// A Boolean node (by id).
    B(BoolId),
    /// A term node (by id).
    T(TermId),
}

fn mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The hash-consing arena for bit-vector terms and Boolean formulas.
///
/// All construction goes through `&mut self` methods returning ids;
/// [`crate::solver::Session`] owns one arena and lowers ids on demand.
pub struct TermArena {
    terms: Vec<TermNode>,
    widths: Vec<u32>,
    bools: Vec<BoolNode>,
    term_memo: HashMap<TermNode, TermId>,
    bool_memo: HashMap<BoolNode, BoolId>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    /// Declared width per bit-vector variable name (id-indexed), so a
    /// redeclaration with a different width panics instead of silently
    /// interning a second, unrelated variable.
    bv_var_width: HashMap<u32, u32>,
}

impl Default for TermArena {
    fn default() -> Self {
        Self::new()
    }
}

impl TermArena {
    /// Create an arena. Node 0 of the Boolean table is the constant
    /// `true`; its negation is `false`.
    pub fn new() -> TermArena {
        let mut a = TermArena {
            terms: Vec::new(),
            widths: Vec::new(),
            bools: Vec::new(),
            term_memo: HashMap::new(),
            bool_memo: HashMap::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            bv_var_width: HashMap::new(),
        };
        a.intern_bool(BoolNode::True);
        a
    }

    /// Number of interned term nodes (dedup makes this the DAG size).
    pub fn num_term_nodes(&self) -> usize {
        self.terms.len()
    }

    /// Number of interned Boolean nodes.
    pub fn num_bool_nodes(&self) -> usize {
        self.bools.len()
    }

    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_ids.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), i);
        i
    }

    pub(crate) fn name_str(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub(crate) fn term_node(&self, t: TermId) -> &TermNode {
        &self.terms[t.index()]
    }

    pub(crate) fn bool_node(&self, b: BoolId) -> &BoolNode {
        &self.bools[b.index()]
    }

    fn intern_term(&mut self, node: TermNode, width: u32) -> TermId {
        if let Some(&id) = self.term_memo.get(&node) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(node.clone());
        self.widths.push(width);
        self.term_memo.insert(node, id);
        id
    }

    fn intern_bool(&mut self, node: BoolNode) -> BoolId {
        if let Some(&id) = self.bool_memo.get(&node) {
            return id;
        }
        let id = BoolId((self.bools.len() as u32) << 1);
        self.bools.push(node.clone());
        self.bool_memo.insert(node, id);
        id
    }

    // -- term constructors --------------------------------------------------

    /// A constant of `width` bits. Panics if the value does not fit.
    pub fn constant(&mut self, width: u32, value: u64) -> TermId {
        assert!((1..=64).contains(&width));
        assert!(value <= mask(width), "constant wider than {width} bits");
        self.intern_term(TermNode::Const { width, value }, width)
    }

    /// A named free variable of `width` bits. Equal names denote the
    /// same variable; redeclaring with a different width panics.
    pub fn var(&mut self, name: &str, width: u32) -> TermId {
        assert!((1..=64).contains(&width));
        let n = self.name_id(name);
        if let Some(&w) = self.bv_var_width.get(&n) {
            assert_eq!(w, width, "variable {name} redeclared with different width");
        } else {
            self.bv_var_width.insert(n, width);
        }
        self.intern_term(TermNode::Var { name: n, width }, width)
    }

    /// Static width of a term.
    pub fn width(&self, t: TermId) -> u32 {
        self.widths[t.index()]
    }

    /// The value of a term that folded to a constant, if it did.
    pub fn term_value(&self, t: TermId) -> Option<u64> {
        match self.terms[t.index()] {
            TermNode::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The value of a Boolean that folded to a constant, if it did.
    pub fn bool_value(&self, b: BoolId) -> Option<bool> {
        match self.bools[b.index()] {
            BoolNode::True => Some(!b.is_neg()),
            _ => None,
        }
    }

    fn bin(&mut self, op: BvOp, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "width mismatch");
        let (ca, cb) = (self.term_value(a), self.term_value(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            let v = match op {
                BvOp::Add => x.wrapping_add(y),
                BvOp::Sub => x.wrapping_sub(y),
                BvOp::And => x & y,
                BvOp::Or => x | y,
                BvOp::Xor => x ^ y,
            };
            return self.constant(w, v & mask(w));
        }
        match op {
            BvOp::Add => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::Sub => {
                if a == b {
                    return self.constant(w, 0);
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::And => {
                if a == b {
                    return a;
                }
                if ca == Some(0) || cb == Some(0) {
                    return self.constant(w, 0);
                }
                if ca == Some(mask(w)) {
                    return b;
                }
                if cb == Some(mask(w)) {
                    return a;
                }
            }
            BvOp::Or => {
                if a == b {
                    return a;
                }
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(mask(w)) || cb == Some(mask(w)) {
                    return self.constant(w, mask(w));
                }
            }
            BvOp::Xor => {
                if a == b {
                    return self.constant(w, 0);
                }
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
        }
        // Commutative ops are stored operand-sorted so `x+y` and `y+x`
        // intern to the same node.
        let (lhs, rhs) = match op {
            BvOp::Sub => (a, b),
            _ if a <= b => (a, b),
            _ => (b, a),
        };
        self.intern_term(TermNode::Bin { op, lhs, rhs }, w)
    }

    /// Modular addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvOp::Add, a, b)
    }

    /// Modular subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvOp::Sub, a, b)
    }

    /// Bitwise AND.
    pub fn bvand(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn bvor(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn bvxor(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvOp::Xor, a, b)
    }

    /// Bitwise complement.
    pub fn bvnot(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.term_value(a) {
            return self.constant(w, !v & mask(w));
        }
        if let TermNode::Not(inner) = self.terms[a.index()] {
            return inner;
        }
        self.intern_term(TermNode::Not(a), w)
    }

    /// If-then-else over terms.
    pub fn ite_term(&mut self, cond: BoolId, then: TermId, els: TermId) -> TermId {
        let w = self.width(then);
        assert_eq!(w, self.width(els), "width mismatch in ite");
        match self.bool_value(cond) {
            Some(true) => return then,
            Some(false) => return els,
            None => {}
        }
        if then == els {
            return then;
        }
        // Canonical positive condition.
        let (cond, then, els) = if cond.is_neg() {
            (cond.negated(), els, then)
        } else {
            (cond, then, els)
        };
        self.intern_term(TermNode::Ite { cond, then, els }, w)
    }

    /// Extract bits `[lo, hi]` (inclusive, LSB numbering).
    pub fn extract(&mut self, t: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(t);
        assert!(lo <= hi && hi < w, "extract out of range");
        if lo == 0 && hi == w - 1 {
            return t;
        }
        let nw = hi - lo + 1;
        if let Some(v) = self.term_value(t) {
            return self.constant(nw, (v >> lo) & mask(nw));
        }
        if let TermNode::Extract { term, lo: ilo, .. } = self.terms[t.index()] {
            // extract of extract composes into one node.
            return self.extract(term, ilo + hi, ilo + lo);
        }
        self.intern_term(TermNode::Extract { term: t, hi, lo }, nw)
    }

    /// Concatenation: `hi` occupies the most-significant bits. Total
    /// width stays within 64 bits.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let (wh, wl) = (self.width(hi), self.width(lo));
        assert!(wh + wl <= 64, "concat wider than 64 bits");
        if let (Some(vh), Some(vl)) = (self.term_value(hi), self.term_value(lo)) {
            return self.constant(wh + wl, (vh << wl) | vl);
        }
        self.intern_term(TermNode::Concat { hi, lo }, wh + wl)
    }

    // -- Boolean constructors -----------------------------------------------

    /// Constant true.
    pub fn tru(&self) -> BoolId {
        BoolId(0)
    }

    /// Constant false.
    pub fn fls(&self) -> BoolId {
        BoolId(1)
    }

    /// A Boolean constant.
    pub fn bool_constant(&self, b: bool) -> BoolId {
        if b {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// A named free Boolean variable (e.g. one per next-hop interface,
    /// paper §2.5.1 eq. (2)).
    pub fn bool_var(&mut self, name: &str) -> BoolId {
        let n = self.name_id(name);
        self.intern_bool(BoolNode::Var(n))
    }

    /// Negation — pure id arithmetic, no allocation.
    pub fn not(&self, b: BoolId) -> BoolId {
        b.negated()
    }

    /// N-ary conjunction; empty input is `true`.
    pub fn and_all(&mut self, xs: &[BoolId]) -> BoolId {
        let mut ops: Vec<BoolId> = Vec::with_capacity(xs.len());
        for &x in xs {
            match self.bool_value(x) {
                Some(false) => return self.fls(),
                Some(true) => continue,
                None => ops.push(x),
            }
        }
        ops.sort_unstable();
        ops.dedup();
        // Complementary operands differ only in the sign bit and are
        // adjacent after sorting.
        if ops.windows(2).any(|w| w[0] == w[1].negated()) {
            return self.fls();
        }
        match ops.len() {
            0 => self.tru(),
            1 => ops[0],
            _ => self.intern_bool(BoolNode::And(ops)),
        }
    }

    /// N-ary disjunction; empty input is `false` (`∨ = ¬∧¬`).
    pub fn or_all(&mut self, xs: &[BoolId]) -> BoolId {
        let negs: Vec<BoolId> = xs.iter().map(|&x| x.negated()).collect();
        self.and_all(&negs).negated()
    }

    /// Conjunction.
    pub fn and(&mut self, a: BoolId, b: BoolId) -> BoolId {
        self.and_all(&[a, b])
    }

    /// Disjunction.
    pub fn or(&mut self, a: BoolId, b: BoolId) -> BoolId {
        self.or_all(&[a, b])
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: BoolId, b: BoolId) -> BoolId {
        match (self.bool_value(a), self.bool_value(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return b.negated(),
            (_, Some(true)) => return a.negated(),
            _ => {}
        }
        // Pull both signs out of the node: a ⊕ b = (pa ⊕ pb) ⊕ sa ⊕ sb.
        let sign = a.is_neg() ^ b.is_neg();
        let (pa, pb) = (BoolId(a.0 & !1), BoolId(b.0 & !1));
        if pa == pb {
            return self.bool_constant(sign);
        }
        let (lo, hi) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        let node = self.intern_bool(BoolNode::Xor(lo, hi));
        if sign {
            node.negated()
        } else {
            node
        }
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: BoolId, b: BoolId) -> BoolId {
        self.or(a.negated(), b)
    }

    /// Equivalence `a ↔ b`.
    pub fn iff(&mut self, a: BoolId, b: BoolId) -> BoolId {
        self.xor(a, b).negated()
    }

    /// Boolean if-then-else.
    pub fn ite_bool(&mut self, cond: BoolId, then: BoolId, els: BoolId) -> BoolId {
        match self.bool_value(cond) {
            Some(true) => return then,
            Some(false) => return els,
            None => {}
        }
        if then == els {
            return then;
        }
        // Canonical positive condition.
        let (cond, then, els) = if cond.is_neg() {
            (cond.negated(), els, then)
        } else {
            (cond, then, els)
        };
        if then == els.negated() {
            // c ? t : ¬t  ≡  c ↔ t
            return self.iff(cond, then);
        }
        match (self.bool_value(then), self.bool_value(els)) {
            (Some(true), _) => return self.or(cond, els),
            (Some(false), _) => return self.and(cond.negated(), els),
            (_, Some(true)) => return self.or(cond.negated(), then),
            (_, Some(false)) => return self.and(cond, then),
            _ => {}
        }
        if then == cond {
            return self.or(cond, els);
        }
        if els == cond {
            return self.and(cond, then);
        }
        self.intern_bool(BoolNode::Ite { cond, then, els })
    }

    /// `a == b`.
    pub fn eq(&mut self, a: TermId, b: TermId) -> BoolId {
        assert_eq!(self.width(a), self.width(b), "width mismatch in eq");
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.term_value(a), self.term_value(b)) {
            return self.bool_constant(x == y);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.intern_bool(BoolNode::Eq(lo, hi))
    }

    /// `a != b`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> BoolId {
        self.eq(a, b).negated()
    }

    /// Unsigned `a <= b`.
    pub fn ule(&mut self, a: TermId, b: TermId) -> BoolId {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "width mismatch in ule");
        if a == b {
            return self.tru();
        }
        match (self.term_value(a), self.term_value(b)) {
            (Some(x), Some(y)) => return self.bool_constant(x <= y),
            (Some(0), _) => return self.tru(),
            (_, Some(v)) if v == mask(w) => return self.tru(),
            _ => {}
        }
        self.intern_bool(BoolNode::Ule(a, b))
    }

    /// Unsigned `a < b`.
    pub fn ult(&mut self, a: TermId, b: TermId) -> BoolId {
        self.ule(b, a).negated()
    }

    /// Unsigned `a >= b`.
    pub fn uge(&mut self, a: TermId, b: TermId) -> BoolId {
        self.ule(b, a)
    }

    /// Unsigned `a > b`.
    pub fn ugt(&mut self, a: TermId, b: TermId) -> BoolId {
        self.ule(a, b).negated()
    }

    /// `lo <= t <= hi` — the range predicate of a routing rule or ACL
    /// filter (paper §2.5.1 eq. (1)).
    ///
    /// Nearly every range those encode is a CIDR prefix or a single
    /// port: an aligned power-of-two block `[lo, lo + 2^k − 1]`, i.e.
    /// the equality `t[w−1:k] == lo >> k` — one AND gate, not two
    /// comparator chains (the whole width is `true`, `k = 0` `t == lo`).
    pub fn in_range(&mut self, t: TermId, lo: u64, hi: u64) -> BoolId {
        let w = self.width(t);
        assert!(lo.max(hi) <= mask(w), "range bound wider than {w} bits");
        let span = hi.wrapping_sub(lo); // 2^k − 1 for a block of 2^k
        if lo <= hi && span & span.wrapping_add(1) == 0 && lo & span == 0 {
            let k = span.count_ones();
            if k == w {
                return self.tru();
            }
            let prefix = self.extract(t, w - 1, k);
            let want = self.constant(w - k, lo >> k);
            return self.eq(prefix, want);
        }
        let lo_t = self.constant(w, lo);
        let hi_t = self.constant(w, hi);
        let a = self.ule(lo_t, t);
        let b = self.ule(t, hi_t);
        self.and(a, b)
    }

    // -- traversal and evaluation -------------------------------------------

    /// Push the children of a node onto `out` (used by both evaluation
    /// and the [`crate::solver::Session`] lowering loop).
    pub(crate) fn children(&self, w: Work, out: &mut Vec<Work>) {
        match w {
            Work::B(b) => match &self.bools[b.index()] {
                BoolNode::True | BoolNode::Var(_) => {}
                BoolNode::And(xs) => out.extend(xs.iter().map(|&x| Work::B(x))),
                BoolNode::Xor(a, c) => {
                    out.push(Work::B(*a));
                    out.push(Work::B(*c));
                }
                BoolNode::Ite { cond, then, els } => {
                    out.push(Work::B(*cond));
                    out.push(Work::B(*then));
                    out.push(Work::B(*els));
                }
                BoolNode::Eq(a, c) | BoolNode::Ule(a, c) => {
                    out.push(Work::T(*a));
                    out.push(Work::T(*c));
                }
            },
            Work::T(t) => match &self.terms[t.index()] {
                TermNode::Const { .. } | TermNode::Var { .. } => {}
                TermNode::Bin { lhs, rhs, .. } => {
                    out.push(Work::T(*lhs));
                    out.push(Work::T(*rhs));
                }
                TermNode::Not(a) => out.push(Work::T(*a)),
                TermNode::Ite { cond, then, els } => {
                    out.push(Work::B(*cond));
                    out.push(Work::T(*then));
                    out.push(Work::T(*els));
                }
                TermNode::Extract { term, .. } => out.push(Work::T(*term)),
                TermNode::Concat { hi, lo } => {
                    out.push(Work::T(*hi));
                    out.push(Work::T(*lo));
                }
            },
        }
    }

    /// Evaluate a Boolean formula under concrete environments.
    /// Bit-vector variable values are masked to the variable's width.
    pub fn eval_bool(
        &self,
        root: BoolId,
        bv_env: &dyn Fn(&str) -> u64,
        bool_env: &dyn Fn(&str) -> bool,
    ) -> bool {
        let (_, bools) = self.eval_reachable(Work::B(root), bv_env, bool_env);
        bools[root.index()].expect("root evaluated") ^ root.is_neg()
    }

    /// Evaluate a term under concrete environments.
    pub fn eval_term(
        &self,
        root: TermId,
        bv_env: &dyn Fn(&str) -> u64,
        bool_env: &dyn Fn(&str) -> bool,
    ) -> u64 {
        let (terms, _) = self.eval_reachable(Work::T(root), bv_env, bool_env);
        terms[root.index()].expect("root evaluated")
    }

    /// Iterative post-order evaluation of the subgraph reachable from
    /// `root` (policy encodings are chains thousands of nodes deep, so
    /// recursion is out).
    fn eval_reachable(
        &self,
        root: Work,
        bv_env: &dyn Fn(&str) -> u64,
        bool_env: &dyn Fn(&str) -> bool,
    ) -> (Vec<Option<u64>>, Vec<Option<bool>>) {
        let mut terms: Vec<Option<u64>> = vec![None; self.terms.len()];
        let mut bools: Vec<Option<bool>> = vec![None; self.bools.len()];
        let done = |terms: &[Option<u64>], bools: &[Option<bool>], w: &Work| match w {
            Work::B(b) => bools[b.index()].is_some(),
            Work::T(t) => terms[t.index()].is_some(),
        };
        let bval = |bools: &[Option<bool>], b: BoolId| -> bool {
            bools[b.index()].expect("child evaluated") ^ b.is_neg()
        };
        let tval = |terms: &[Option<u64>], t: TermId| -> u64 { terms[t.index()].expect("child evaluated") };

        let mut stack: Vec<(Work, bool)> = vec![(root, false)];
        while let Some((w, expanded)) = stack.pop() {
            if done(&terms, &bools, &w) {
                continue;
            }
            if !expanded {
                stack.push((w, true));
                let mut kids = Vec::new();
                self.children(w, &mut kids);
                for k in kids {
                    if !done(&terms, &bools, &k) {
                        stack.push((k, false));
                    }
                }
                continue;
            }
            match w {
                Work::B(b) => {
                    let v = match &self.bools[b.index()] {
                        BoolNode::True => true,
                        BoolNode::Var(n) => bool_env(self.name_str(*n)),
                        BoolNode::And(xs) => xs.iter().all(|&x| bval(&bools, x)),
                        BoolNode::Xor(a, c) => bval(&bools, *a) ^ bval(&bools, *c),
                        BoolNode::Ite { cond, then, els } => {
                            if bval(&bools, *cond) {
                                bval(&bools, *then)
                            } else {
                                bval(&bools, *els)
                            }
                        }
                        BoolNode::Eq(a, c) => tval(&terms, *a) == tval(&terms, *c),
                        BoolNode::Ule(a, c) => tval(&terms, *a) <= tval(&terms, *c),
                    };
                    bools[b.index()] = Some(v);
                }
                Work::T(t) => {
                    let wd = self.widths[t.index()];
                    let v = match &self.terms[t.index()] {
                        TermNode::Const { value, .. } => *value,
                        TermNode::Var { name, .. } => bv_env(self.name_str(*name)) & mask(wd),
                        TermNode::Bin { op, lhs, rhs } => {
                            let (x, y) = (tval(&terms, *lhs), tval(&terms, *rhs));
                            match op {
                                BvOp::Add => x.wrapping_add(y) & mask(wd),
                                BvOp::Sub => x.wrapping_sub(y) & mask(wd),
                                BvOp::And => x & y,
                                BvOp::Or => x | y,
                                BvOp::Xor => x ^ y,
                            }
                        }
                        TermNode::Not(a) => !tval(&terms, *a) & mask(wd),
                        TermNode::Ite { cond, then, els } => {
                            if bval(&bools, *cond) {
                                tval(&terms, *then)
                            } else {
                                tval(&terms, *els)
                            }
                        }
                        TermNode::Extract { term, lo, .. } => {
                            (tval(&terms, *term) >> lo) & mask(wd)
                        }
                        TermNode::Concat { hi, lo } => {
                            let lw = self.widths[lo.index()];
                            (tval(&terms, *hi) << lw) | tval(&terms, *lo)
                        }
                    };
                    terms[t.index()] = Some(v);
                }
            }
        }
        (terms, bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_structurally_equal_terms() {
        let mut a = TermArena::new();
        let x = a.var("x", 8);
        let c = a.constant(8, 3);
        let t1 = a.add(x, c);
        let before = a.num_term_nodes();
        let x2 = a.var("x", 8);
        let c2 = a.constant(8, 3);
        let t2 = a.add(x2, c2);
        assert_eq!(t1, t2);
        assert_eq!(a.num_term_nodes(), before, "no new nodes allocated");
    }

    #[test]
    fn commutative_ops_intern_operand_order_insensitively() {
        let mut a = TermArena::new();
        let x = a.var("x", 8);
        let y = a.var("y", 8);
        assert_eq!(a.add(x, y), a.add(y, x));
        assert_eq!(a.bvand(x, y), a.bvand(y, x));
        assert_eq!(a.bvxor(x, y), a.bvxor(y, x));
        assert_eq!(a.eq(x, y), a.eq(y, x));
        // sub is not commutative.
        assert_ne!(a.sub(x, y), a.sub(y, x));
    }

    #[test]
    fn constants_fold_at_intern_time() {
        let mut a = TermArena::new();
        let c3 = a.constant(8, 3);
        let c5 = a.constant(8, 5);
        let c8 = a.add(c3, c5);
        assert_eq!(a.term_value(c8), Some(8));
        let x = a.var("x", 8);
        let zero = a.constant(8, 0);
        let ones = a.constant(8, 0xff);
        assert_eq!(a.add(x, zero), x);
        assert_eq!(a.bvand(x, zero), zero);
        assert_eq!(a.bvand(x, ones), x);
        assert_eq!(a.bvor(x, zero), x);
        assert_eq!(a.bvor(x, ones), ones);
        assert_eq!(a.bvxor(x, x), zero);
        assert_eq!(a.sub(x, x), zero);
        let nn = a.bvnot(x);
        assert_eq!(a.bvnot(nn), x);
        let wrap = a.constant(8, 200);
        let wrap2 = a.constant(8, 100);
        let s = a.add(wrap, wrap2);
        assert_eq!(a.term_value(s), Some((200 + 100) & 0xff));
    }

    #[test]
    fn boolean_folds() {
        let mut a = TermArena::new();
        let p = a.bool_var("p");
        let t = a.tru();
        let f = a.fls();
        assert_eq!(a.and(p, t), p);
        assert_eq!(a.and(p, f), f);
        assert_eq!(a.or(p, f), p);
        assert_eq!(a.or(p, t), t);
        assert_eq!(a.xor(p, f), p);
        assert_eq!(a.xor(p, t), a.not(p));
        let np = a.not(p);
        assert_eq!(a.and(p, np), f);
        assert_eq!(a.or(p, np), t);
        assert_eq!(a.xor(p, p), f);
        assert_eq!(a.xor(p, np), t);
        assert_eq!(a.not(a.not(p)), p);
        let q = a.bool_var("q");
        assert_eq!(a.ite_bool(t, p, q), p);
        assert_eq!(a.ite_bool(f, p, q), q);
        assert_eq!(a.ite_bool(q, p, p), p);
        // c ? t : ¬t folds to iff.
        let nq = a.not(q);
        let folded = a.ite_bool(p, q, nq);
        let iff = a.iff(p, q);
        assert_eq!(folded, iff);
    }

    #[test]
    fn demorgan_is_structural() {
        // ¬(a ∧ b) and (¬a ∨ ¬b) intern to the same id.
        let mut a = TermArena::new();
        let p = a.bool_var("p");
        let q = a.bool_var("q");
        let conj = a.and(p, q);
        let lhs = a.not(conj);
        let (np, nq) = (a.not(p), a.not(q));
        let rhs = a.or(np, nq);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn comparison_folds() {
        let mut a = TermArena::new();
        let x = a.var("x", 8);
        let zero = a.constant(8, 0);
        let ones = a.constant(8, 0xff);
        assert_eq!(a.ule(zero, x), a.tru());
        assert_eq!(a.ule(x, ones), a.tru());
        assert_eq!(a.eq(x, x), a.tru());
        assert_eq!(a.ule(x, x), a.tru());
        let c3 = a.constant(8, 3);
        let c5 = a.constant(8, 5);
        assert_eq!(a.ule(c3, c5), a.tru());
        assert_eq!(a.ule(c5, c3), a.fls());
        assert_eq!(a.eq(c3, c5), a.fls());
        // Full-width range is vacuous.
        assert_eq!(a.in_range(x, 0, 0xff), a.tru());
    }

    /// `Ule` nodes reachable from `root`.
    fn ule_nodes(a: &TermArena, root: BoolId) -> usize {
        let (mut stack, mut seen, mut n) = (vec![Work::B(root)], Vec::new(), 0);
        while let Some(w) = stack.pop() {
            if let Work::B(b) = w {
                if seen.contains(&b.index()) {
                    continue;
                }
                seen.push(b.index());
                n += usize::from(matches!(a.bool_node(b), BoolNode::Ule(..)));
            }
            a.children(w, &mut stack);
        }
        n
    }

    #[test]
    fn prefix_and_single_value_ranges_are_equalities() {
        let mut a = TermArena::new();
        let ip = a.var("ip", 32);
        let port = a.var("port", 16);
        // 10.1.2.0/24: the top 24 bits are fixed.
        let slash24 = a.in_range(ip, 0x0a01_0200, 0x0a01_02ff);
        let top = a.extract(ip, 31, 8);
        let want = a.constant(24, 0x0a_0102);
        assert_eq!(slash24, a.eq(top, want));
        assert_eq!(ule_nodes(&a, slash24), 0);
        // /0 is vacuous, on the widest variable too.
        assert_eq!(a.in_range(ip, 0, 0xffff_ffff), a.tru());
        let wide = a.var("wide", 64);
        assert_eq!(a.in_range(wide, 0, u64::MAX), a.tru());
        // A single port is `port == 443`.
        let single = a.in_range(port, 443, 443);
        let c443 = a.constant(16, 443);
        assert_eq!(single, a.eq(port, c443));
        assert_eq!(ule_nodes(&a, single), 0);
        // Not a block (1000 values, unaligned): the two comparators.
        let span = a.in_range(port, 8000, 8999);
        assert_eq!(ule_nodes(&a, span), 2);
        // A power-of-two length that is not aligned is not a prefix.
        let unaligned = a.in_range(port, 1, 2);
        assert_eq!(ule_nodes(&a, unaligned), 2);
    }

    #[test]
    fn extract_concat_folds() {
        let mut a = TermArena::new();
        let c = a.constant(16, 0xabcd);
        let hi = a.extract(c, 15, 8);
        let lo = a.extract(c, 7, 0);
        assert_eq!(a.term_value(hi), Some(0xab));
        assert_eq!(a.term_value(lo), Some(0xcd));
        let back = a.concat(hi, lo);
        assert_eq!(a.term_value(back), Some(0xabcd));
        let x = a.var("x", 16);
        assert_eq!(a.extract(x, 15, 0), x, "full extract is identity");
        let mid = a.extract(x, 11, 4);
        let midmid = a.extract(mid, 5, 2);
        let direct = a.extract(x, 9, 6);
        assert_eq!(midmid, direct, "extract composes");
    }

    #[test]
    fn eval_matches_hand_computation() {
        let mut a = TermArena::new();
        let x = a.var("x", 8);
        let y = a.var("y", 8);
        let sum = a.add(x, y);
        let c = a.constant(8, 100);
        let le = a.ule(sum, c);
        let p = a.bool_var("p");
        let e = a.xor(le, p);
        let bv = |n: &str| if n == "x" { 70u64 } else { 40 };
        let bl = |_: &str| true;
        assert_eq!(a.eval_term(sum, &bv, &bl), (70 + 40) & 0xff);
        assert!(!a.eval_bool(le, &bv, &bl)); // 110 > 100
        assert!(a.eval_bool(e, &bv, &bl)); // false ^ true
    }

    #[test]
    fn eval_handles_deep_chains_iteratively() {
        let mut a = TermArena::new();
        let x = a.var("x", 32);
        let mut policy = a.fls();
        for i in (0..50_000u64).rev() {
            let guard = a.in_range(x, i * 10, i * 10 + 9);
            let val = a.bool_constant(i % 2 == 0);
            policy = a.ite_bool(guard, val, policy);
        }
        let bv = |_: &str| 123_457u64; // rule 12345, odd
        let bl = |_: &str| false;
        assert!(!a.eval_bool(policy, &bv, &bl));
        let bv2 = |_: &str| 123_440u64; // rule 12344, even
        assert!(a.eval_bool(policy, &bv2, &bl));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut a = TermArena::new();
        let x = a.var("x", 8);
        let y = a.var("y", 16);
        let _ = a.add(x, y);
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn redeclared_width_panics() {
        let mut a = TermArena::new();
        let _ = a.var("x", 8);
        let _ = a.var("x", 16);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn constant_overflow_panics() {
        let mut a = TermArena::new();
        let _ = a.constant(8, 256);
    }
}
