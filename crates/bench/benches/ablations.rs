//! Ablations for the design decisions DESIGN.md calls out.
//!
//! * **strict vs semantic contract checking** — strict mode (require
//!   the exact specific route, §2.6.2 Migrations) vs pure
//!   Definition-2.1 formula semantics: what does the stronger check
//!   cost?
//! * **solver reuse across contracts** — the SMT engine encodes a
//!   device's policy once and answers every contract with assumptions
//!   (clause learning persists); the ablation re-encodes per contract,
//!   the naive formulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcbench::synth_device;
use rcdc::contracts::DeviceContracts;
use rcdc::engine::{smt::SmtEngine, trie::TrieEngine, Engine};

fn ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/strict_vs_semantic");
    group.sample_size(10);
    for prefixes in [2000usize, 8000] {
        let (fib, contracts) = synth_device(prefixes, 4);
        group.bench_with_input(BenchmarkId::new("strict", prefixes), &prefixes, |b, _| {
            let engine = TrieEngine::new();
            b.iter(|| engine.validate_device(&fib, &contracts))
        });
        group.bench_with_input(
            BenchmarkId::new("semantic", prefixes),
            &prefixes,
            |b, _| {
                let engine = TrieEngine::semantic();
                b.iter(|| engine.validate_device(&fib, &contracts))
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/smt_solver_reuse");
    group.sample_size(10);
    let (fib, contracts) = synth_device(100, 4);
    // Shared encoding: one engine run answers all contracts.
    group.bench_function("shared_encoding_all_contracts", |b| {
        let engine = SmtEngine::new();
        b.iter(|| engine.validate_device(&fib, &contracts))
    });
    // Naive: re-encode the policy for every contract.
    group.bench_function("reencode_per_contract", |b| {
        let engine = SmtEngine::new();
        b.iter(|| {
            for c in contracts.contracts() {
                let single = DeviceContracts::new(vec![c.clone()]);
                engine.validate_device(&fib, &single);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
