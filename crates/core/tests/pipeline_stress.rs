//! Threaded stress tests for a shard's [`DeviceStore`].
//!
//! The deterministic simulation (`simnet`) covers scheduling-order
//! bugs; these tests cover the orthogonal risk — data races, lost
//! updates and torn reads under real OS-thread concurrency. N writer
//! threads drive [`DeviceStore::judge`] and [`DeviceStore::ingest`] over
//! the same devices — more than one driver per device, which the API
//! permits — while reader
//! threads continuously run the query API (`record`, `dirty_devices`,
//! `alerts`, `mode_counts`) and audit the store inside one read: a
//! device is in the dirty index iff its record's report has
//! violations, with the same count, and every verdict is for its
//! record's parked table. Afterwards every counter must balance
//! exactly: no verdict lost, no lookup unaccounted for.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::{DeviceId, MetadataService};
use netprim::wire::WireSnapshot;
use rcdc::pipeline::DeviceStore;
use rcdc::report::Risk;
use rcdc::{generate_contracts, DeviceContracts, Engine, RealClock, TrieEngine, ValidationReport};
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: usize = 8;
const ROUNDS: usize = 500;
const DEVICES: u32 = 16;

/// The Figure-3 fabric: per device its contracts, its healthy table
/// (clean) and that table without its first non-local route (dirty),
/// their images, and the report each of the two validates to.
struct Fleet {
    meta: MetadataService,
    contracts: Vec<DeviceContracts>,
    tables: Vec<[Fib; 2]>,
    images: Vec<[WireSnapshot; 2]>,
    reports: Vec<[ValidationReport; 2]>,
}

fn fleet() -> Fleet {
    let f = dctopo::generator::figure3();
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    let tables: Vec<[Fib; 2]> = simulate(&f.topology, &SimConfig::healthy())
        .into_iter()
        .map(|fib| {
            let target = fib.entries().iter().find(|e| !e.local).map(|e| e.prefix);
            let mut b = FibBuilder::new(fib.device());
            for e in fib.entries().iter().filter(|e| Some(e.prefix) != target) {
                b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
            }
            [fib, b.finish()]
        })
        .collect();
    let images = tables.iter().map(|pair| pair.each_ref().map(Fib::to_wire)).collect();
    let engine = TrieEngine::new();
    let reports = tables
        .iter()
        .zip(&contracts)
        .map(|(pair, dc)| [0, 1].map(|i| engine.validate_device(&pair[i], dc)))
        .collect();
    Fleet {
        meta,
        contracts,
        tables,
        images,
        reports,
    }
}

fn published(fleet: &Fleet) -> DeviceStore {
    let store = DeviceStore::default();
    for d in 0..DEVICES {
        store.publish(DeviceId(d), fleet.contracts[d as usize].clone());
    }
    store
}

#[test]
fn analytics_survives_concurrent_ingest_and_queries() {
    let fleet = fleet();
    let store = published(&fleet);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, fleet) = (&store, &fleet);
                s.spawn(move || {
                    let (engine, clock) = (TrieEngine::new(), RealClock::new());
                    for round in 0..ROUNDS {
                        let device = DeviceId(((w * ROUNDS + round) as u32) % DEVICES);
                        // Alternate clean/dirty so the dirty set
                        // churns while readers walk it.
                        let (d, variant) = (device.0 as usize, (w + round) % 2);
                        // Half the writers bring tables, half images.
                        let result = if w % 2 == 0 {
                            let table = fleet.tables[d][variant].clone();
                            store.judge(device, Some(table), &engine, &clock)
                        } else {
                            let image = &fleet.images[d][variant];
                            store.ingest(device, image, &engine, &clock).expect("a table's image")
                        };
                        let result = result.expect("contracts are published");
                        // However many drivers share the device, each
                        // is handed the verdict of the table it brought.
                        assert_eq!(*result.report, fleet.reports[d][variant]);
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let (store, fleet, stop) = (&store, &fleet, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Readers must never observe torn state: inside
                    // one read, index and records agree and every
                    // verdict belongs to its parked table.
                    assert_eq!(store.audit(), Ok(()));
                    for (device, count) in store.dirty_devices() {
                        assert!(count >= 1);
                        assert!(device.0 < DEVICES);
                    }
                    for device in store.alerts(&fleet.meta, Risk::Low) {
                        assert!(device.0 < DEVICES);
                    }
                    let (full, incr, hit) = store.mode_counts();
                    assert!(full + incr + hit <= DEVICES as usize);
                    // One record, one moment: the verdict's key is the
                    // parked table's hash, and that hash is the table's.
                    for d in 0..DEVICES {
                        let record = store.record(DeviceId(d)).expect("published");
                        let Some(verdict) = record.verdict else {
                            continue;
                        };
                        let (table, hash) = record.table.expect("judged with its table");
                        assert_eq!(verdict.fib_hash, hash);
                        assert_eq!(table.content_hash(), hash);
                    }
                }
            });
        }
        for h in writers {
            h.join().expect("writer thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // No verdict lost: the monotone counter saw every write.
    assert_eq!(
        store
            .snapshot()
            .counter("rcdc_analytics_ingested_total", &[]),
        Some((WRITERS * ROUNDS) as u64)
    );
    // Latest-wins keying: exactly one verdict per device, each the one
    // its parked table validates to.
    assert_eq!(store.judged(), DEVICES as usize);
    assert_eq!(store.audit(), Ok(()));
    assert!(store.dirty_count() > 0, "the churned tables must be dirty");
    for d in 0..DEVICES as usize {
        let record = store
            .record(DeviceId(d as u32))
            .expect("every device written");
        let (table, _) = record.table.unwrap();
        let variant = usize::from(*table != fleet.tables[d][0]);
        assert_eq!(*record.verdict.unwrap().report, fleet.reports[d][variant]);
    }
}

#[test]
fn verdict_cache_counters_balance_under_contention() {
    let fleet = fleet();
    let store = published(&fleet);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (store, fleet) = (&store, &fleet);
            s.spawn(move || {
                let (engine, clock) = (TrieEngine::new(), RealClock::new());
                for round in 0..ROUNDS {
                    let device = DeviceId((round as u32) % DEVICES);
                    let d = device.0 as usize;
                    // Every writer walks the same (device, table)
                    // sequence, so repeats hit; one of them keeps
                    // republishing, so epochs churn underneath.
                    if w == 0 && round % 64 == 0 {
                        store.publish(device, fleet.contracts[d].clone());
                    }
                    let variant = (round / 128) % 2;
                    let table = fleet.tables[d][variant].clone();
                    let result = store.judge(device, Some(table), &engine, &clock);
                    let result = result.expect("contracts are published");
                    // A verdict handed out — served or computed — is
                    // the one the table validates to.
                    assert_eq!(*result.report, fleet.reports[d][variant]);
                }
            });
        }
    });

    let total = (WRITERS * ROUNDS) as u64;
    let snap = store.snapshot();
    let counter = |name| snap.counter(name, &[]).unwrap_or(0);
    let (lookups, hits, misses) = (
        counter("rcdc_verdict_cache_lookups_total"),
        counter("rcdc_verdict_cache_hits_total"),
        counter("rcdc_verdict_cache_misses_total"),
    );
    assert_eq!(lookups, total, "every lookup must be counted");
    assert_eq!(
        hits + misses,
        total,
        "hits {hits} + misses {misses} must balance lookups {lookups}",
    );
    assert!(hits > 0, "repeated keys must produce cache hits");
    assert!(misses > 0, "cold keys must produce misses");
    assert_eq!(store.audit(), Ok(()));
}
