//! Oracle: the CDCL SAT solver vs brute-force enumeration.
//!
//! Random small CNF instances are solved plain, under assumptions, and
//! incrementally (clauses added between queries), with every verdict
//! checked against 2^n enumeration and every SAT model re-evaluated
//! clause by clause. Structured pigeonhole instances with analytically
//! known verdicts push the solver into restarts and deep conflict
//! analysis — the regime where the historical false-UNSAT below the
//! assumption frontier lived (see `smtkit::sat`'s regression tests).

use crate::Failure;
use rcdc::shrink::shrink_list;
use simnet::rng::Rng;
use smtkit::{Lit, SatResult, SatSolver, Var};

/// A literal as a signed 1-based variable index (DIMACS style), so
/// minimized cases print in the notation regression tests use.
type DLit = i32;

fn to_lit(d: DLit) -> Lit {
    let v = Var(d.unsigned_abs() - 1);
    if d < 0 {
        Lit::neg(v)
    } else {
        Lit::pos(v)
    }
}

#[derive(Debug, Clone)]
struct SatCase {
    num_vars: u32,
    /// Clauses present before the first query.
    clauses: Vec<Vec<DLit>>,
    /// Assumptions for the first `solve_with` query.
    assumptions: Vec<DLit>,
    /// Clauses added incrementally before the second round of queries.
    additions: Vec<Vec<DLit>>,
    /// Assumptions for the second `solve_with` query.
    assumptions2: Vec<DLit>,
}

/// Brute-force verdict over all assignments, with assumptions treated
/// as unit constraints.
fn brute(num_vars: u32, clauses: &[Vec<DLit>], assumptions: &[DLit]) -> SatResult {
    let sat_under = |bits: u32, lits: &[DLit]| {
        lits.iter()
            .any(|&d| ((bits >> (d.unsigned_abs() - 1)) & 1 == 1) == (d > 0))
    };
    for bits in 0u32..(1u32 << num_vars) {
        if assumptions
            .iter()
            .all(|&a| ((bits >> (a.unsigned_abs() - 1)) & 1 == 1) == (a > 0))
            && clauses.iter().all(|c| sat_under(bits, c))
        {
            return SatResult::Sat;
        }
    }
    SatResult::Unsat
}

/// A model reported by the solver must actually satisfy the instance.
fn model_violation(
    s: &SatSolver,
    clauses: &[Vec<DLit>],
    assumptions: &[DLit],
) -> Option<String> {
    let holds = |d: DLit| s.model_value(Var(d.unsigned_abs() - 1)) == (d > 0);
    for c in clauses {
        if !c.iter().copied().any(holds) {
            return Some(format!("model does not satisfy clause {c:?}"));
        }
    }
    for &a in assumptions {
        if !holds(a) {
            return Some(format!("model does not satisfy assumption {a}"));
        }
    }
    None
}

/// Run the full query sequence of a case and report the first
/// disagreement with brute force, if any.
fn check_case(case: &SatCase) -> Option<String> {
    let mut s = SatSolver::new();
    for _ in 0..case.num_vars {
        s.new_var();
    }
    for c in &case.clauses {
        let lits: Vec<Lit> = c.iter().map(|&d| to_lit(d)).collect();
        s.add_clause(&lits);
    }

    // Query 1: under assumptions.
    let got = s.solve_with(&case.assumptions.iter().map(|&d| to_lit(d)).collect::<Vec<_>>());
    let want = brute(case.num_vars, &case.clauses, &case.assumptions);
    if got != want {
        return Some(format!(
            "solve_with({:?}) = {:?}, brute force says {:?}",
            case.assumptions, got, want
        ));
    }
    if got == SatResult::Sat {
        if let Some(m) = model_violation(&s, &case.clauses, &case.assumptions) {
            return Some(format!("after solve_with: {m}"));
        }
    }

    // Query 2: same instance, no assumptions (the solver must fully
    // recover from the assumption frontier).
    let got = s.solve();
    let want = brute(case.num_vars, &case.clauses, &[]);
    if got != want {
        return Some(format!("solve() = {got:?}, brute force says {want:?}"));
    }
    if got == SatResult::Sat {
        if let Some(m) = model_violation(&s, &case.clauses, &[]) {
            return Some(format!("after solve: {m}"));
        }
    }

    // Query 3: add clauses incrementally (learned clauses and phase
    // state persist), then re-query under fresh assumptions.
    let mut all = case.clauses.clone();
    for c in &case.additions {
        let lits: Vec<Lit> = c.iter().map(|&d| to_lit(d)).collect();
        s.add_clause(&lits);
        all.push(c.clone());
    }
    let got = s.solve_with(
        &case
            .assumptions2
            .iter()
            .map(|&d| to_lit(d))
            .collect::<Vec<_>>(),
    );
    let want = brute(case.num_vars, &all, &case.assumptions2);
    if got != want {
        return Some(format!(
            "incremental solve_with({:?}) = {:?}, brute force says {:?}",
            case.assumptions2, got, want
        ));
    }
    if got == SatResult::Sat {
        if let Some(m) = model_violation(&s, &all, &case.assumptions2) {
            return Some(format!("after incremental solve_with: {m}"));
        }
    }
    None
}

fn random_lits(r: &mut Rng, num_vars: u32, len: u64) -> Vec<DLit> {
    (0..len)
        .map(|_| {
            let v = r.range(1, u64::from(num_vars)) as i32;
            if r.chance(1, 2) {
                v
            } else {
                -v
            }
        })
        .collect()
}

fn random_case(r: &mut Rng) -> SatCase {
    let num_vars = r.range(3, 12) as u32;
    let num_clauses = r.range(0, u64::from(num_vars) * 4);
    let clauses = (0..num_clauses)
        .map(|_| {
            let w = r.range(1, 3);
            random_lits(r, num_vars, w)
        })
        .collect();
    let num_additions = r.range(0, u64::from(num_vars));
    let additions = (0..num_additions)
        .map(|_| {
            let w = r.range(1, 3);
            random_lits(r, num_vars, w)
        })
        .collect();
    let n_a1 = r.range(0, 3);
    let assumptions = random_lits(r, num_vars, n_a1);
    let n_a2 = r.range(0, 3);
    let assumptions2 = random_lits(r, num_vars, n_a2);
    SatCase {
        num_vars,
        clauses,
        assumptions,
        additions,
        assumptions2,
    }
}

/// Pigeonhole principle: `pigeons` into `holes`. Variable `p*holes+h+1`
/// means "pigeon p sits in hole h". UNSAT iff `pigeons > holes`.
fn pigeonhole(pigeons: u32, holes: u32) -> (u32, Vec<Vec<DLit>>) {
    let var = |p: u32, h: u32| (p * holes + h + 1) as DLit;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    (pigeons * holes, clauses)
}

/// Structured instances with analytic verdicts: conflict-heavy enough
/// to force restarts and conflict analysis at depth (no brute force —
/// the verdict is a theorem).
fn check_pigeonhole(r: &mut Rng) -> Option<String> {
    let holes = r.range(4, 5) as u32;
    let (num_vars, clauses) = pigeonhole(holes + 1, holes);
    let mut s = SatSolver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in &clauses {
        let lits: Vec<Lit> = c.iter().map(|&d| to_lit(d)).collect();
        s.add_clause(&lits);
    }
    // Assumptions cannot rescue an unsatisfiable instance.
    let n_assumptions = r.range(0, 2);
    let assumptions = random_lits(r, num_vars, n_assumptions);
    let got = s.solve_with(&assumptions.iter().map(|&d| to_lit(d)).collect::<Vec<_>>());
    if got != SatResult::Unsat {
        return Some(format!(
            "pigeonhole({}, {holes}) under {assumptions:?} reported Sat",
            holes + 1
        ));
    }

    // The satisfiable diagonal: php(n, n) has a model; pinning one
    // pigeon by assumption keeps it satisfiable.
    let (num_vars, clauses) = pigeonhole(holes, holes);
    let mut s = SatSolver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in &clauses {
        let lits: Vec<Lit> = c.iter().map(|&d| to_lit(d)).collect();
        s.add_clause(&lits);
    }
    let pin = vec![(r.below(u64::from(holes)) as i32) + 1];
    let got = s.solve_with(&pin.iter().map(|&d| to_lit(d)).collect::<Vec<_>>());
    if got != SatResult::Sat {
        return Some(format!("pigeonhole({holes}, {holes}) under {pin:?} reported Unsat"));
    }
    if let Some(m) = model_violation(&s, &clauses, &pin) {
        return Some(format!("pigeonhole({holes}, {holes}): {m}"));
    }
    // Incrementally ban pigeon 0 from every hole: now UNSAT, and the
    // learned clauses from the SAT run must not poison the verdict.
    for h in 0..holes {
        s.add_clause(&[Lit::neg(Var(h))]);
    }
    if s.solve() != SatResult::Unsat {
        return Some(format!(
            "pigeonhole({holes}, {holes}) with pigeon 0 banned reported Sat"
        ));
    }
    None
}

fn render(case: &SatCase) -> String {
    format!(
        "vars: {}\nclauses: {:?}\nassumptions: {:?}\nadditions: {:?}\nassumptions2: {:?}",
        case.num_vars, case.clauses, case.assumptions, case.additions, case.assumptions2
    )
}

fn minimize(case: &SatCase) -> SatCase {
    let mut cur = case.clone();
    cur.clauses = shrink_list(&cur.clauses, |cs| {
        check_case(&SatCase {
            clauses: cs.to_vec(),
            ..cur.clone()
        })
        .is_some()
    });
    cur.additions = shrink_list(&cur.additions, |adds| {
        check_case(&SatCase {
            additions: adds.to_vec(),
            ..cur.clone()
        })
        .is_some()
    });
    cur.assumptions = shrink_list(&cur.assumptions, |a| {
        check_case(&SatCase {
            assumptions: a.to_vec(),
            ..cur.clone()
        })
        .is_some()
    });
    cur.assumptions2 = shrink_list(&cur.assumptions2, |a| {
        check_case(&SatCase {
            assumptions2: a.to_vec(),
            ..cur.clone()
        })
        .is_some()
    });
    cur
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let case = random_case(&mut r);
    if let Some(summary) = check_case(&case) {
        let min = minimize(&case);
        return Err(Failure {
            summary,
            minimized: render(&min),
        });
    }
    // Structured hard instances on a fraction of seeds (they cost more
    // than the small random cases).
    if r.chance(1, 8) {
        if let Some(summary) = check_pigeonhole(&mut r) {
            return Err(Failure {
                summary,
                minimized: "(structured pigeonhole instance; see summary)".into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_agrees_with_itself() {
        // (1 ∨ 2) ∧ (-1) forces 2.
        let clauses = vec![vec![1, 2], vec![-1]];
        assert_eq!(brute(2, &clauses, &[]), SatResult::Sat);
        assert_eq!(brute(2, &clauses, &[-2]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_shape() {
        let (vars, clauses) = pigeonhole(3, 2);
        assert_eq!(vars, 6);
        // 3 at-least-one clauses + 2 holes × C(3,2) exclusions.
        assert_eq!(clauses.len(), 3 + 2 * 3);
    }

    #[test]
    fn regression_seed_for_false_unsat_class() {
        // The minimized shape of the historical solve_with false UNSAT
        // (unit learned clause backjumping below the assumption
        // frontier), expressed as a difftest case: must stay green.
        let case = SatCase {
            num_vars: 3,
            clauses: vec![vec![1, 2], vec![1, -2]],
            assumptions: vec![3],
            additions: vec![],
            assumptions2: vec![],
        };
        assert_eq!(check_case(&case), None);
    }
}
