//! E1 — per-device contract validation (§2.5 / §2.6.3).
//!
//! Paper reference points: the SMT engine answers "within a second for
//! routing tables extracted from our datacenters"; the specialized trie
//! algorithm is "much faster", averaging 180 ms for *all* contracts on
//! a device with several thousands of prefixes.
//!
//! Series regenerated: full-device validation time (trie vs SMT) vs
//! routing-table size, plus a single-contract SMT query latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcbench::synth_device;
use rcdc::contracts::DeviceContracts;
use rcdc::engine::{smt::SmtEngine, trie::TrieEngine, Engine};

fn device_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1/device_check_all_contracts");
    group.sample_size(10);
    for prefixes in [1000usize, 2000, 4000, 8000] {
        let (fib, contracts) = synth_device(prefixes, 4);
        group.bench_with_input(
            BenchmarkId::new("trie", prefixes),
            &prefixes,
            |b, _| {
                let engine = TrieEngine::new();
                b.iter(|| {
                    let r = engine.validate_device(&fib, &contracts);
                    assert!(r.is_clean());
                })
            },
        );
    }
    // SMT full-device runs at smaller sizes (the gap to the trie is the
    // measurement; the paper's production workload runs on the trie).
    for prefixes in [100usize, 250, 500] {
        let (fib, contracts) = synth_device(prefixes, 4);
        group.bench_with_input(
            BenchmarkId::new("smt", prefixes),
            &prefixes,
            |b, _| {
                let engine = SmtEngine::new();
                b.iter(|| {
                    let r = engine.validate_device(&fib, &contracts);
                    assert!(r.is_clean());
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("E1/single_contract");
    group.sample_size(10);
    for prefixes in [1000usize, 4000] {
        let (fib, contracts) = synth_device(prefixes, 4);
        let one = DeviceContracts::new(vec![contracts.contracts()[1].clone()]);
        group.bench_with_input(
            BenchmarkId::new("smt_one_contract", prefixes),
            &prefixes,
            |b, _| {
                // Policy encoding rebuilt per device, matching the
                // production flow (a device is encoded, then queried).
                b.iter(|| {
                    let engine = SmtEngine::new();
                    let r = engine.validate_device(&fib, &one);
                    assert!(r.is_clean());
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("trie_one_contract", prefixes),
            &prefixes,
            |b, _| {
                b.iter(|| {
                    let engine = TrieEngine::new();
                    let r = engine.validate_device(&fib, &one);
                    assert!(r.is_clean());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, device_check);
criterion_main!(benches);
