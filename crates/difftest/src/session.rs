//! Oracle: incremental solver sessions vs fresh solvers vs brute force.
//!
//! Random scripts of `assert` / `push` / `pop` / `check_assuming`
//! steps run against one long-lived [`Session`] — the usage pattern
//! the RCDC SMT engine and SecGuru rely on, where learned clauses and
//! the bit-blast cache survive across queries. Every query's verdict is
//! cross-checked two ways:
//!
//! * a **fresh session** built from scratch with exactly the
//!   assertions active at that point (what a stateless solver binding
//!   would do) must agree — this is what makes the E13 session-reuse
//!   speedup trustworthy;
//! * **brute force** over the tiny universe (two 4-bit bit-vectors and
//!   two Booleans, 1024 assignments) must agree with both.
//!
//! Satisfiable verdicts additionally have their model re-evaluated
//! against every active assertion and assumption. Scripts shrink with
//! the standard ddmin loop; a `pop` at scope depth zero is skipped
//! during replay so every step subset remains a valid script.

use crate::Failure;
use rcdc::shrink::shrink_list;
use simnet::rng::Rng;
use smtkit::arena::{BoolId, TermArena, TermId};
use smtkit::{Session, SmtResult};

const W: u32 = 4;
const MASK: u64 = 0xf;

/// One atomic condition over the universe `x, y : bv4; p, q : bool`.
#[derive(Debug, Clone, Copy)]
enum Atom {
    /// `v ∈ [lo, hi]` for one of the bit-vector variables.
    InRange { var: u8, lo: u8, hi: u8 },
    /// `x = y`.
    VarsEqual,
    /// `x + y = k` (wrapping, 4-bit).
    SumEquals { k: u8 },
    /// `v ≤ k` for one of the bit-vector variables.
    UleConst { var: u8, k: u8 },
    /// One of the Boolean variables.
    BoolVar { var: u8 },
}

/// An atom with optional negation.
#[derive(Debug, Clone, Copy)]
struct Cond {
    atom: Atom,
    negate: bool,
}

/// One step of a session script.
#[derive(Debug, Clone)]
enum Step {
    /// Assert into the current scope.
    Assert(Cond),
    /// Open a scope.
    Push,
    /// Retract the innermost scope (skipped at depth 0 during replay,
    /// so any shrunken subsequence of a script is still a valid script).
    Pop,
    /// An assumption-based query.
    Check(Vec<Cond>),
}

/// A concrete assignment of the universe.
#[derive(Debug, Clone, Copy)]
struct Env {
    x: u64,
    y: u64,
    p: bool,
    q: bool,
}

fn eval(c: &Cond, e: Env) -> bool {
    let bv = |var: u8| if var == 0 { e.x } else { e.y };
    let v = match c.atom {
        Atom::InRange { var, lo, hi } => (lo as u64..=hi as u64).contains(&bv(var)),
        Atom::VarsEqual => e.x == e.y,
        Atom::SumEquals { k } => (e.x + e.y) & MASK == k as u64,
        Atom::UleConst { var, k } => bv(var) <= k as u64,
        Atom::BoolVar { var } => {
            if var == 0 {
                e.p
            } else {
                e.q
            }
        }
    };
    v != c.negate
}

fn intern(c: &Cond, a: &mut TermArena, x: TermId, y: TermId) -> BoolId {
    let bv = |var: u8| if var == 0 { x } else { y };
    let b = match c.atom {
        Atom::InRange { var, lo, hi } => a.in_range(bv(var), lo as u64, hi as u64),
        Atom::VarsEqual => a.eq(x, y),
        Atom::SumEquals { k } => {
            let s = a.add(x, y);
            let kc = a.constant(W, k as u64);
            a.eq(s, kc)
        }
        Atom::UleConst { var, k } => {
            let kc = a.constant(W, k as u64);
            a.ule(bv(var), kc)
        }
        Atom::BoolVar { var } => a.bool_var(if var == 0 { "p" } else { "q" }),
    };
    if c.negate {
        a.not(b)
    } else {
        b
    }
}

/// Brute-force verdict: do the active assertions plus assumptions have
/// a satisfying assignment?
fn brute(scopes: &[Vec<Cond>], assumptions: &[Cond]) -> SmtResult {
    for bits in 0u64..(1 << (2 * W + 2)) {
        let e = Env {
            x: bits & MASK,
            y: (bits >> W) & MASK,
            p: (bits >> (2 * W)) & 1 == 1,
            q: (bits >> (2 * W + 1)) & 1 == 1,
        };
        if scopes.iter().flatten().all(|c| eval(c, e)) && assumptions.iter().all(|c| eval(c, e)) {
            return SmtResult::Sat;
        }
    }
    SmtResult::Unsat
}

/// The stateless-rebuild reference: a brand-new session asserting
/// exactly what is active, queried once.
fn fresh_verdict(scopes: &[Vec<Cond>], assumptions: &[Cond]) -> SmtResult {
    let mut s = Session::new();
    let (x, y) = {
        let a = s.arena_mut();
        (a.var("x", W), a.var("y", W))
    };
    for c in scopes.iter().flatten() {
        let b = intern(c, s.arena_mut(), x, y);
        s.assert(b);
    }
    let ids: Vec<BoolId> = assumptions
        .iter()
        .map(|c| intern(c, s.arena_mut(), x, y))
        .collect();
    s.check_assuming(&ids)
}

/// Replay a script against one long-lived session, cross-checking every
/// query three ways. Returns the first disagreement.
fn check_script(steps: &[Step]) -> Option<String> {
    let mut s = Session::new();
    let (x, y) = {
        let a = s.arena_mut();
        (a.var("x", W), a.var("y", W))
    };
    // Mirror of the session's scope stack, as plain conditions.
    let mut scopes: Vec<Vec<Cond>> = vec![Vec::new()];
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Push => {
                s.push();
                scopes.push(Vec::new());
            }
            Step::Pop => {
                if scopes.len() > 1 {
                    s.pop();
                    scopes.pop();
                }
            }
            Step::Assert(c) => {
                let b = intern(c, s.arena_mut(), x, y);
                s.assert(b);
                scopes.last_mut().expect("scope 0 always open").push(*c);
            }
            Step::Check(assumptions) => {
                let ids: Vec<BoolId> = assumptions
                    .iter()
                    .map(|c| intern(c, s.arena_mut(), x, y))
                    .collect();
                let got = s.check_assuming(&ids);
                let want = brute(&scopes, assumptions);
                if got != want {
                    return Some(format!(
                        "step {i}: session says {got:?}, brute force says {want:?} \
                         (depth {})",
                        scopes.len() - 1
                    ));
                }
                let fresh = fresh_verdict(&scopes, assumptions);
                if fresh != got {
                    return Some(format!(
                        "step {i}: session says {got:?}, fresh solver says {fresh:?}"
                    ));
                }
                if got == SmtResult::Sat {
                    let m = s.model();
                    let e = Env {
                        x: m.value("x").unwrap_or(0),
                        y: m.value("y").unwrap_or(0),
                        p: m.bool_value("p").unwrap_or(false),
                        q: m.bool_value("q").unwrap_or(false),
                    };
                    if let Some(c) = scopes
                        .iter()
                        .flatten()
                        .chain(assumptions)
                        .find(|c| !eval(c, e))
                    {
                        return Some(format!(
                            "step {i}: model {e:?} violates active condition {c:?}"
                        ));
                    }
                }
            }
        }
    }
    None
}

fn random_cond(r: &mut Rng) -> Cond {
    let atom = match r.below(5) {
        0 => {
            let lo = r.below(16) as u8;
            let hi = r.range(lo as u64, 15) as u8;
            Atom::InRange {
                var: r.below(2) as u8,
                lo,
                hi,
            }
        }
        1 => Atom::VarsEqual,
        2 => Atom::SumEquals {
            k: r.below(16) as u8,
        },
        3 => Atom::UleConst {
            var: r.below(2) as u8,
            k: r.below(16) as u8,
        },
        _ => Atom::BoolVar {
            var: r.below(2) as u8,
        },
    };
    Cond {
        atom,
        negate: r.chance(1, 2),
    }
}

fn random_script(r: &mut Rng) -> Vec<Step> {
    let n = r.range(4, 32);
    (0..n)
        .map(|_| match r.below(100) {
            0..=39 => Step::Assert(random_cond(r)),
            40..=54 => Step::Push,
            55..=69 => Step::Pop,
            _ => {
                let k = r.below(3);
                Step::Check((0..k).map(|_| random_cond(r)).collect())
            }
        })
        .collect()
}

fn render(steps: &[Step]) -> String {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{i}: {s:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let steps = random_script(&mut r);
    if let Some(summary) = check_script(&steps) {
        let min = shrink_list(&steps, |sub| check_script(sub).is_some());
        return Err(Failure {
            summary,
            minimized: render(&min),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_seeds_are_green() {
        for seed in 0..50 {
            assert!(run(seed).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn hand_written_scoped_script_passes() {
        let in_lo = |lo: u8, hi: u8| Cond {
            atom: Atom::InRange { var: 0, lo, hi },
            negate: false,
        };
        let steps = vec![
            Step::Assert(in_lo(2, 9)),
            Step::Check(vec![]),
            Step::Push,
            Step::Assert(in_lo(10, 15)), // contradicts scope 0
            Step::Check(vec![]),
            Step::Pop,
            Step::Check(vec![]), // satisfiable again after retraction
            Step::Pop,           // depth 0: skipped, not an error
            Step::Check(vec![in_lo(0, 1)]), // unsat under assumption
        ];
        assert_eq!(check_script(&steps), None);
    }

    #[test]
    fn detects_a_wrong_verdict_shape() {
        // Sanity of the harness itself: a script whose brute-force
        // verdict is Unsat must also be Unsat through the session —
        // evaluate both directly rather than trusting check_script.
        let c = Cond {
            atom: Atom::VarsEqual,
            negate: false,
        };
        let n = Cond {
            atom: Atom::VarsEqual,
            negate: true,
        };
        assert_eq!(brute(&[vec![c, n]], &[]), SmtResult::Unsat);
        assert_eq!(fresh_verdict(&[vec![c, n]], &[]), SmtResult::Unsat);
        assert_eq!(brute(&[vec![c]], &[n]), SmtResult::Unsat);
        assert_eq!(brute(&[vec![c]], &[]), SmtResult::Sat);
    }
}
