//! The CLI `serve` subcommand: a mutable snapshot source, and the
//! churn driver that rewrites it while the sharded validation service
//! keeps pulling from it.

use bgpsim::{Fib, FibBuilder};
use dctopo::DeviceId;
use netprim::wire::WireSnapshot;
use obskit::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcdc::pipeline::SnapshotSource;
use rcdc::report::Risk;
use rcdc::service::IngestEvent;
use rcdc::validator::ValidatorBuilder;
use std::sync::{Arc, RwLock};

/// A [`SnapshotSource`] over tables the driver mutates between pulls —
/// the live network under route churn, as seen by the service's shard
/// workers. Each table is kept beside its image, encoded once when it
/// is set: a pull hands out the shared image.
pub struct ChurningSource {
    tables: RwLock<Vec<(Fib, WireSnapshot)>>,
}

impl ChurningSource {
    /// Wrap the fleet's initial converged tables.
    pub fn new(fibs: Vec<Fib>) -> Self {
        let tables = fibs.into_iter().map(|fib| {
            let image = fib.to_wire();
            (fib, image)
        });
        ChurningSource {
            tables: RwLock::new(tables.collect()),
        }
    }

    /// Replace one device's table (the next pull observes it).
    pub fn set(&self, fib: Fib) {
        let device = fib.device().0 as usize;
        let image = fib.to_wire();
        self.tables.write().unwrap()[device] = (fib, image);
    }

    /// The device's current table.
    pub fn get(&self, device: DeviceId) -> Fib {
        self.tables.read().unwrap()[device.0 as usize].0.clone()
    }
}

impl SnapshotSource for ChurningSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        self.tables.read().unwrap()[device.0 as usize].1.clone()
    }
}

/// Drop the `index`-th (mod eligible) non-local route from a table —
/// the route-withdrawal churn `serve` injects. A table with no
/// droppable routes is returned unchanged.
pub fn drop_route(fib: &Fib, index: usize) -> Fib {
    let eligible: Vec<_> = fib
        .entries()
        .iter()
        .filter(|e| !e.local)
        .map(|e| e.prefix)
        .collect();
    if eligible.is_empty() {
        return fib.clone();
    }
    let target = eligible[index % eligible.len()];
    let mut b = FibBuilder::new(fib.device());
    for e in fib.entries() {
        if e.prefix == target {
            continue;
        }
        b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
    }
    b.finish()
}

/// What a [`churn_run`] observed, round by round.
pub struct ServeReport {
    /// Devices in the fleet.
    pub devices: usize,
    /// Shards the service runs.
    pub shards: usize,
    /// Dirty devices after the cold sweep.
    pub cold_dirty: usize,
    /// Churn events injected per round.
    pub churn: usize,
    /// Per churn round: dirty devices and high-risk alerts once drained.
    pub rounds: Vec<(usize, usize)>,
    /// Dirty devices after every table was healed (0 = reconverged).
    pub restore_dirty: usize,
    /// The service's fleet-wide metrics at the end of the run.
    pub snapshot: MetricsSnapshot,
}

/// Run the always-on service `builder` describes over the fleet
/// `fibs`: a cold sweep, `rounds` rounds of `churn` seeded events each
/// (one in four heals a device, the rest withdraw a route), then a
/// restore round that heals every table.
pub fn churn_run(
    builder: ValidatorBuilder,
    fibs: &[Fib],
    rounds: usize,
    churn: usize,
    seed: u64,
) -> ServeReport {
    let devices: Vec<DeviceId> = (0..fibs.len() as u32).map(DeviceId).collect();
    let source = Arc::new(ChurningSource::new(fibs.to_vec()));
    let service = builder.build_service(source.clone());
    let handle = service.handle();
    service.pull_all(&devices);
    service.drain();
    let cold_dirty = handle.dirty_count();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for _ in 0..churn {
            let device = devices[rng.gen_range(0..devices.len())];
            let table = if rng.gen_bool(0.25) {
                fibs[device.0 as usize].clone() // heal
            } else {
                drop_route(&source.get(device), rng.gen_range(0..64))
            };
            source.set(table);
            service.submit(IngestEvent::Pull(device));
        }
        service.drain();
        per_round.push((handle.dirty_count(), handle.alerts(Risk::High).len()));
    }

    // Restore round: heal every table; the service must reconverge.
    for fib in fibs {
        source.set(fib.clone());
    }
    service.pull_all(&devices);
    service.drain();
    ServeReport {
        devices: devices.len(),
        shards: service.shard_count(),
        cold_dirty,
        churn,
        rounds: per_round,
        restore_dirty: handle.dirty_count(),
        snapshot: handle.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::{simulate, SimConfig};

    #[test]
    fn churned_source_serves_latest_table() {
        let f = dctopo::generator::figure3();
        let fibs = simulate(&f.topology, &SimConfig::healthy());
        let source = ChurningSource::new(fibs.clone());
        let d = f.tors[0];
        let before = Fib::from_wire(&source.pull(d)).unwrap();
        assert_eq!(before.content_hash(), fibs[d.0 as usize].content_hash());

        let dropped = drop_route(&before, 0);
        assert!(dropped.entries().len() < before.entries().len());
        source.set(dropped.clone());
        let after = Fib::from_wire(&source.pull(d)).unwrap();
        assert_eq!(after.content_hash(), dropped.content_hash());
        // Other devices are untouched.
        let other = f.tors[1];
        assert_eq!(
            Fib::from_wire(&source.pull(other)).unwrap().content_hash(),
            fibs[other.0 as usize].content_hash()
        );
    }
}
