//! Readers hammer the [`rcdc::ServiceHandle`] query API while the
//! ingest front-end churns the fleet: every verdict a reader observes
//! must be internally consistent — the report must be exactly the one
//! the claimed `fib_hash` validates to, never a torn pairing of one
//! table's hash with another table's report.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::{DeviceId, MetadataService};
use netprim::wire::WireSnapshot;
use rcdc::pipeline::SnapshotSource;
use rcdc::{Engine, IngestEvent, TrieEngine, Validator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A snapshot source the churn driver rewrites while shard workers
/// pull from it concurrently.
struct LiveSource {
    fibs: RwLock<Vec<Fib>>,
}

impl SnapshotSource for LiveSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        self.fibs.read().unwrap()[device.0 as usize].to_wire()
    }
}

/// Drop the device's first non-local route (deterministic churn, so
/// every table a reader can observe is known in advance).
fn churned(fib: &Fib) -> Fib {
    let target = fib.entries().iter().find(|e| !e.local).map(|e| e.prefix);
    let mut b = FibBuilder::new(fib.device());
    for e in fib.entries() {
        if Some(e.prefix) == target {
            continue;
        }
        b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
    }
    b.finish()
}

#[test]
fn readers_never_observe_torn_verdicts_under_churn() {
    let f = dctopo::generator::figure3();
    let healthy = simulate(&f.topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&f.topology);
    let devices: Vec<DeviceId> = (0..healthy.len() as u32).map(DeviceId).collect();

    // Every table a device can ever expose, and the exact report each
    // one validates to: fib_hash → expected report, per device.
    let engine = TrieEngine::new();
    let contracts = rcdc::generate_contracts(&meta);
    let expected: Vec<HashMap<u64, rcdc::ValidationReport>> = devices
        .iter()
        .map(|&d| {
            let i = d.0 as usize;
            [healthy[i].clone(), churned(&healthy[i])]
                .into_iter()
                .map(|fib| (fib.content_hash(), engine.validate_device(&fib, &contracts[i])))
                .collect()
        })
        .collect();

    let source = Arc::new(LiveSource {
        fibs: RwLock::new(healthy.clone()),
    });
    let service = Validator::new(&meta)
        .shards(4)
        .ingest_capacity(64)
        .build_service(source.clone());
    service.pull_all(&devices);
    service.drain();

    let handle = service.handle();
    let done = AtomicBool::new(false);
    let observations = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Four readers spin over the whole fleet until churn ends.
        for _ in 0..4 {
            let handle = handle.clone();
            let done = &done;
            let observations = &observations;
            let expected = &expected;
            let devices = &devices;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    for &d in devices {
                        let Some(v) = handle.verdict(d) else { continue };
                        let want = expected[d.0 as usize].get(&v.fib_hash).expect(
                            "verdict carries a fib_hash no table of this device ever had",
                        );
                        assert_eq!(
                            &*v.report, want,
                            "torn verdict: device {d:?} pairs hash {:#x} with another \
                             table's report",
                            v.fib_hash
                        );
                        observations.fetch_add(1, Ordering::Relaxed);
                    }
                    // Fleet-wide queries stay coherent mid-churn too.
                    let _ = handle.alerts(rcdc::Risk::Low);
                    let _ = handle.dirty_count();
                }
            });
        }

        // The driver toggles every device healthy↔churned, pulling
        // after each flip.
        for round in 0..60 {
            for &d in &devices {
                let i = d.0 as usize;
                let table = if round % 2 == 0 {
                    churned(&healthy[i])
                } else {
                    healthy[i].clone()
                };
                source.fibs.write().unwrap()[i] = table;
                service.submit(IngestEvent::Pull(d));
            }
            service.drain();
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers must have observed verdicts while churn was in flight"
    );
    // After the final (healthy) round the fleet converges clean.
    assert_eq!(handle.dirty_count(), 0);
    assert!(handle.alerts(rcdc::Risk::Low).is_empty());
    let snap = handle.snapshot();
    let pulls: u64 = (0..4)
        .filter_map(|i| {
            snap.counter(
                "rcdc_service_events_total",
                &[("kind", "pull"), ("shard", &i.to_string())],
            )
        })
        .sum();
    assert_eq!(pulls, (61 * devices.len()) as u64);
}
