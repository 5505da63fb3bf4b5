//! Oracle: incremental revalidation vs full revalidation over churn.
//!
//! A random FIB evolves through a chain of add/remove/modify steps —
//! the §2.6.1 continuous-monitoring workload. At every step the delta
//! is computed, pushed through the wire codec (as it would travel from
//! the device), applied, and handed to `validate_delta` with the
//! previous step's report as `prior` — and, as the patch it is, to
//! `validate_patch` with the *previous* table as base, the way a
//! what-if explorer prices a restarted state. Both incremental reports
//! must equal a from-scratch `validate_device` pass violation for
//! violation, for both trie modes — any drift means stale verdicts
//! survive churn. Every other chain carries rules outside the /24 the
//! contracts read, so that the few re-judged contracts take the trie
//! engine's trie-less candidate lookup — the only one that reads
//! `(base, patch)` without building the table.

use crate::gen::{
    build_contracts, build_fib, random_contract_specs, random_fib_specs, random_hops,
    random_prefix, render_case, ContractSpec, FibSpec,
};
use crate::Failure;
use bgpsim::Fib;
use netprim::wire::FibDelta;
use netprim::{Ipv4, Prefix};
use rcdc::shrink::shrink_list;
use rcdc::{Engine, SmtEngine, TrieEngine};
use simnet::rng::Rng;

/// One churn step, as replayable data.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Insert (or overwrite) a rule.
    Upsert(FibSpec),
    /// Remove the rule at this index (modulo current table size).
    Remove(usize),
}

fn random_step(r: &mut Rng) -> Step {
    if r.chance(1, 3) {
        Step::Remove(r.below(64) as usize)
    } else {
        let local = r.chance(1, 8);
        Step::Upsert(FibSpec {
            prefix: random_prefix(r, 24, true),
            hops: if local { Vec::new() } else { random_hops(r) },
            local,
        })
    }
}

fn apply_step(specs: &mut Vec<FibSpec>, step: &Step) {
    match step {
        Step::Upsert(s) => {
            specs.retain(|e| e.prefix != s.prefix);
            specs.push(s.clone());
        }
        Step::Remove(i) => {
            if !specs.is_empty() {
                let i = i % specs.len();
                specs.remove(i);
            }
        }
    }
}

/// Walk the churn chain, cross-checking at every step. Returns the
/// first disagreement.
fn check_chain(
    initial: &[FibSpec],
    contracts: &[ContractSpec],
    steps: &[Step],
) -> Option<String> {
    let device = dctopo::DeviceId(0);
    let dcs = build_contracts(device, contracts);
    let engines: [(&str, &dyn Engine); 3] = [
        ("trie-strict", &TrieEngine::new()),
        ("trie-semantic", &TrieEngine::semantic()),
        ("smt-strict", &SmtEngine::new()),
    ];
    // The SMT engine has no incremental path of its own — it keeps the
    // trait's provided defaults honest — and its cost grows with the
    // table, so it rides along on the small ones only.
    let engines = &engines[..if initial.len() <= 16 { 3 } else { 2 }];

    let mut specs = initial.to_vec();
    let mut fib = build_fib(device, &specs);
    let mut priors: Vec<_> = engines
        .iter()
        .map(|(_, e)| e.validate_device(&fib, &dcs))
        .collect();

    for (step_no, step) in steps.iter().enumerate() {
        apply_step(&mut specs, step);
        let new_fib = build_fib(device, &specs);

        // The delta travels over the wire before it is applied.
        let delta = Fib::delta(&fib, &new_fib);
        let delta = match FibDelta::decode(&delta.encode()) {
            Ok(d) => d,
            Err(e) => return Some(format!("step {step_no}: delta round trip failed: {e}")),
        };
        let applied = match fib.apply_delta(&delta) {
            Ok(f) => f,
            Err(e) => return Some(format!("step {step_no}: apply_delta failed: {e}")),
        };
        if applied.content_hash() != new_fib.content_hash() {
            return Some(format!(
                "step {step_no}: apply_delta produced hash {:#x}, rebuild has {:#x}",
                applied.content_hash(),
                new_fib.content_hash()
            ));
        }

        for ((name, engine), prior) in engines.iter().zip(priors.iter_mut()) {
            let full = engine.validate_device(&new_fib, &dcs);
            let incr = engine.validate_delta(&new_fib, &dcs, &delta, prior);
            if incr != full {
                return Some(format!(
                    "step {step_no}: {name} incremental report differs from full \
                     (incremental {:?} vs full {:?})",
                    incr.violations, full.violations
                ));
            }
            let patched = engine.validate_patch(&fib, &delta.patch, &dcs, prior);
            if patched != full {
                return Some(format!(
                    "step {step_no}: {name} (base, patch) report differs from full \
                     (patch {:?} vs full {:?})",
                    patched.violations, full.violations
                ));
            }
            *prior = incr;
        }
        fib = new_fib;
    }
    None
}

fn render(initial: &[FibSpec], contracts: &[ContractSpec], steps: &[Step]) -> String {
    let mut s = render_case(initial, contracts);
    s.push_str("churn steps:\n");
    for st in steps {
        s.push_str(&format!("  {st:?}\n"));
    }
    s
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let mut initial = random_fib_specs(&mut r, 10);
    let contracts = random_contract_specs(&mut r, 5);
    let steps: Vec<Step> = (0..r.range(3, 6)).map(|_| random_step(&mut r)).collect();
    // Every other chain gets bystander rules, one in each of
    // 10.0.1.0/24, 10.0.2.0/24, …: no contract overlaps them, they only
    // make the table large.
    let bystanders = if r.chance(1, 2) { r.range(16, 96) } else { 0 };
    initial.extend((0..bystanders as u32).map(|i| FibSpec {
        prefix: Prefix::containing(Ipv4(0x0a00_0100 + i * 256 + i * 21 % 256), 24 + (i % 9) as u8)
            .expect("len <= 32"),
        hops: vec![Ipv4(0x1e00_0001 + i % 3)],
        local: false,
    }));

    if let Some(summary) = check_chain(&initial, &contracts, &steps) {
        // Shrink the chain first (fewer steps usually isolates the
        // culprit), then the starting state, then the contracts.
        let steps_min = shrink_list(&steps, |ss| {
            check_chain(&initial, &contracts, ss).is_some()
        });
        let initial_min = shrink_list(&initial, |is| {
            check_chain(is, &contracts, &steps_min).is_some()
        });
        let contracts_min = shrink_list(&contracts, |cs| {
            check_chain(&initial_min, cs, &steps_min).is_some()
        });
        return Err(Failure {
            summary,
            minimized: render(&initial_min, &contracts_min, &steps_min),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcdc::ContractKind;

    #[test]
    fn empty_chain_is_clean() {
        assert_eq!(check_chain(&[], &[], &[]), None);
    }

    #[test]
    fn default_route_churn_stays_consistent() {
        let hops = vec![Ipv4(0x1e00_0001)];
        let contracts = vec![ContractSpec {
            prefix: Prefix::DEFAULT,
            kind: ContractKind::Default,
            expected: Some(hops.clone()),
        }];
        let steps = vec![
            Step::Upsert(FibSpec {
                prefix: Prefix::DEFAULT,
                hops: hops.clone(),
                local: false,
            }),
            Step::Remove(0),
            Step::Upsert(FibSpec {
                prefix: Prefix::DEFAULT,
                hops: vec![Ipv4(0x1e00_0002)],
                local: false,
            }),
        ];
        assert_eq!(check_chain(&[], &contracts, &steps), None);
    }
}
