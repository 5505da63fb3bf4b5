//! Shard routing for the pipeline's device stores: partition the device
//! space across N independent stores so validation scales by adding
//! shards instead of contending on shared locks.
//!
//! The decomposition follows the paper's observation that local,
//! per-device contracts make validation embarrassingly parallel
//! (§2.4): a device's verdict depends only on its own FIB and
//! contracts, so any partition of the device space is sound. The
//! [`ShardRouter`] uses the simplest one — `device mod shards` — which
//! balances Clos topologies well because device ids are assigned
//! round-robin across clusters by the generator.
//!
//! Each shard owns one [`DeviceStore`] — a record per device, one lock
//! — plus its own obskit [`Registry`], so shard workers never share a
//! lock or a metric cell.
//! Fleet-wide views are produced by merging: [`merged_snapshot`]
//! absorbs every shard's registry under a `shard` label, and the query
//! helpers ([`verdict`], [`alerts`], [`solver_totals`]) fan out and
//! combine. `ShardRouter::new(1)` routes everything to shard 0 — the
//! unsharded pipeline is the one-shard case, not a separate one.
//!
//! [`merged_snapshot`]: ShardRouter::merged_snapshot
//! [`verdict`]: ShardRouter::verdict
//! [`alerts`]: ShardRouter::alerts
//! [`solver_totals`]: ShardRouter::solver_totals

use crate::contracts::DeviceContracts;
use crate::pipeline::{DeviceStore, Verdict};
use crate::report::Risk;
use dctopo::{DeviceId, MetadataService};
use obskit::{MetricsSnapshot, Observer, Registry};

/// One shard's state: everything a shard worker touches lives here and
/// nowhere else.
#[derive(Default)]
pub struct ShardStores {
    /// The records of the devices routed to this shard.
    pub devices: DeviceStore,
    /// This shard's private metric registry; merged views label it
    /// with `shard="<index>"`.
    pub registry: Registry,
}

impl ShardStores {
    /// This shard's metrics: registry families plus the device store's
    /// observer, unlabeled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.devices.observe(&self.registry);
        self.registry.snapshot()
    }
}

/// Routes devices to shards and owns every shard's stores.
pub struct ShardRouter {
    shards: Vec<ShardStores>,
}

impl ShardRouter {
    /// Create a router with `shards` stores (`shards` ≥ 1 enforced).
    /// `ShardRouter::new(1)` is the pre-sharding pipeline: one store,
    /// every device routed to it.
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: (0..shards.max(1)).map(|_| ShardStores::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `device`.
    pub fn shard_of(&self, device: DeviceId) -> usize {
        device.0 as usize % self.shards.len()
    }

    /// The stores owning `device`.
    pub fn stores(&self, device: DeviceId) -> &ShardStores {
        &self.shards[self.shard_of(device)]
    }

    /// Stores of shard `idx` (panics when out of range).
    pub fn shard(&self, idx: usize) -> &ShardStores {
        &self.shards[idx]
    }

    /// Iterate every shard's stores in shard order.
    pub fn iter(&self) -> impl Iterator<Item = &ShardStores> {
        self.shards.iter()
    }

    /// Publish per-device contracts (indexed by device id, like
    /// [`crate::contracts::generate_contracts`]'s output), each routed
    /// to its owning shard.
    pub fn publish_contracts(&self, contracts: Vec<DeviceContracts>) {
        for (i, dc) in contracts.into_iter().enumerate() {
            let device = DeviceId(i as u32);
            self.stores(device).devices.publish(device, dc);
        }
    }

    /// The device's verdict, from its owning shard. The [`Verdict`] is
    /// cloned under the shard store's read lock, so the `(fib_hash,
    /// contract_epoch, report)` triple is always internally consistent
    /// — readers never observe a torn pair even while that shard is
    /// mid-sweep.
    pub fn verdict(&self, device: DeviceId) -> Option<Verdict> {
        self.stores(device).devices.record(device)?.verdict
    }

    /// Devices alerting at `at_least` risk across every shard, sorted
    /// by device id (each shard's dirty index is pre-sorted; the merge
    /// concatenates and sorts the — typically short — union).
    pub fn alerts(&self, meta: &MetadataService, at_least: Risk) -> Vec<DeviceId> {
        let mut all: Vec<DeviceId> = self
            .shards
            .iter()
            .flat_map(|s| s.devices.alerts(meta, at_least))
            .collect();
        all.sort_unstable();
        all
    }

    /// Dirty devices across every shard, with violation counts, sorted
    /// by device id.
    pub fn dirty_devices(&self) -> Vec<(DeviceId, usize)> {
        let mut all: Vec<(DeviceId, usize)> = self
            .shards
            .iter()
            .flat_map(|s| s.devices.dirty_devices())
            .collect();
        all.sort_unstable_by_key(|(d, _)| *d);
        all
    }

    /// Total dirty devices across every shard.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.devices.dirty_count()).sum()
    }

    /// Aggregate solver statistics across every shard's records.
    pub fn solver_totals(&self) -> smtkit::SessionStats {
        let mut total = smtkit::SessionStats::default();
        for s in &self.shards {
            total.absorb(&s.devices.solver_totals());
        }
        total
    }

    /// Fleet-wide metrics: every shard's [`ShardStores::snapshot`]
    /// labeled `shard="<index>"` and absorbed into one snapshot, so
    /// exports carry per-shard series of each family side by side.
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for (i, s) in self.shards.iter().enumerate() {
            merged.absorb(&s.snapshot().with_label("shard", &i.to_string()));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::fig3_faulted;
    use crate::{RealClock, TrieEngine};

    fn ingest_all(router: &ShardRouter, fibs: &[bgpsim::Fib]) {
        let (engine, clock) = (TrieEngine::new(), RealClock::new());
        for fib in fibs {
            let device = fib.device();
            let store = &router.stores(device).devices;
            store.judge(device, Some(fib.clone()), &engine, &clock);
        }
    }

    #[test]
    fn routing_is_total_and_stable() {
        let router = ShardRouter::new(4);
        assert_eq!(router.shard_count(), 4);
        for d in 0..128u32 {
            let shard = router.shard_of(DeviceId(d));
            assert!(shard < 4);
            assert_eq!(shard, router.shard_of(DeviceId(d)), "stable");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let router = ShardRouter::new(1);
        for d in 0..50u32 {
            assert_eq!(router.shard_of(DeviceId(d)), 0);
        }
        // new(0) is promoted to one shard, not a panic.
        assert_eq!(ShardRouter::new(0).shard_count(), 1);
    }

    #[test]
    fn sharded_queries_agree_with_single_shard() {
        let (_f, fibs, contracts, meta) = fig3_faulted();
        let single = ShardRouter::new(1);
        single.publish_contracts(contracts.clone());
        ingest_all(&single, &fibs);
        let sharded = ShardRouter::new(3);
        sharded.publish_contracts(contracts);
        ingest_all(&sharded, &fibs);

        assert_eq!(sharded.dirty_count(), single.dirty_count());
        assert_eq!(sharded.dirty_devices(), single.dirty_devices());
        assert_eq!(
            sharded.alerts(&meta, Risk::High),
            single.alerts(&meta, Risk::High)
        );
        for i in 0..fibs.len() as u32 {
            let d = DeviceId(i);
            match (single.verdict(d), sharded.verdict(d)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.fib_hash, b.fib_hash);
                    assert_eq!(a.report, b.report);
                }
                (None, None) => {}
                _ => panic!("verdict presence must not depend on sharding"),
            }
        }
    }

    #[test]
    fn merged_snapshot_labels_every_shard() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let router = ShardRouter::new(2);
        router.publish_contracts(contracts);
        ingest_all(&router, &fibs);
        let snap = router.merged_snapshot();
        let per_shard: Vec<u64> = (0..2)
            .map(|i| {
                snap.counter(
                    "rcdc_analytics_ingested_total",
                    &[("shard", &i.to_string())],
                )
                .unwrap_or(0)
            })
            .collect();
        assert_eq!(per_shard.iter().sum::<u64>(), fibs.len() as u64);
        assert!(per_shard.iter().all(|&c| c > 0), "both shards ingested");
    }
}
