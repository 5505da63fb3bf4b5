//! The RCDC live-monitoring pipeline (§2.6.1).
//!
//! "RCDC comprises 3 micro services, namely a device contract
//! generator, a forwarding table puller, and a routing table
//! validator." Their shared state is one [`DeviceStore`] per shard —
//! the NoSQL stores and the stream-analytics sink as **one record per
//! device** behind one lock: the device's published contracts and
//! their epoch, its parked table with the table's content hash, and
//! the [`Verdict`] judged for that table, beside the dirty index that
//! alerting and the triage process (see [`crate::classify`]) read. The
//! loop that drives it — pull, ingest, judge — is the shard worker of
//! [`crate::service`], and nowhere else; tables come from a
//! [`SnapshotSource`] ([`SimulatedSource`] optionally charges the
//! 200–800 ms device latency §2.6.1 measured).
//!
//! The pipeline's one step is [`DeviceStore::judge`]. The steady-state
//! workload is dominated by *unchanged* snapshots — a healthy device
//! republishes the same table sweep after sweep — so a pull enters
//! through [`DeviceStore::ingest`], which hashes the pulled `FIB1`
//! bytes before decoding anything: an image whose hash is the parked
//! table's *is* that table, and under an unchanged contract epoch its
//! verdict stands at the cost of that one hash. Any other image is
//! decoded once and takes the incremental path against the record's
//! own parked table: [`crate::Engine::validate_delta`] takes the new
//! table and the [`bgpsim::Fib::diff`] between the two, and re-checks
//! only the contracts the patched prefixes can affect. Republishing a
//! device's contracts bumps its epoch, which retires the verdict held
//! for it: the next event validates in full.
//!
//! The pipeline is horizontally scalable: one instance is "configured
//! to monitor O(10K) devices"; scaling out is more shards over
//! disjoint device sets ([`crate::shard`]).

use crate::clock::{Clock, RealClock};
use crate::contracts::DeviceContracts;
use crate::engine::Engine;
use crate::report::{risk_of, Risk, ValidationReport};
use bgpsim::Fib;
use dctopo::{DeviceId, MetadataService};
use netprim::wire::{FibDelta, WireSnapshot};
use netprim::ParseError;
use obskit::{Counter, Histogram, MetricsSnapshot, Observer, Registry};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Source of FIB snapshots: the live network in production; here, a
/// simulated network or an emulated one (§2.7 uses the same interface).
pub trait SnapshotSource: Sync {
    /// Pull the current FIB snapshot of a device, in wire format.
    fn pull(&self, device: DeviceId) -> WireSnapshot;
}

/// Snapshot source over pre-computed simulation FIBs, with optional
/// simulated per-pull latency (uniform in the given range).
///
/// Latency is charged to the injected [`Clock`] — the wall clock by
/// default, a [`crate::clock::VirtualClock`] in tests and the `simnet`
/// fault-injection harness, where a 200–800 ms pull costs nothing and
/// every run is reproducible.
pub struct SimulatedSource {
    fibs: Vec<Fib>,
    latency: Option<(Duration, Duration)>,
    clock: Arc<dyn Clock>,
}

impl SimulatedSource {
    /// Wrap simulated FIBs with no artificial latency.
    pub fn new(fibs: Vec<Fib>) -> Self {
        SimulatedSource {
            fibs,
            latency: None,
            clock: Arc::new(RealClock::new()),
        }
    }

    /// Add a simulated pull latency range (e.g. 200–800 ms, §2.6.1).
    pub fn with_latency(mut self, min: Duration, max: Duration) -> Self {
        self.latency = Some((min, max));
        self
    }

    /// Charge latency to `clock` instead of the wall clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }
}

impl SnapshotSource for SimulatedSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        if let Some((min, max)) = self.latency {
            // Deterministic per-device jitter: device id hashes into the
            // range (no RNG needed, reproducible runs).
            let span = max.as_millis().saturating_sub(min.as_millis()) as u64;
            let jitter = if span == 0 {
                0
            } else {
                (device.0 as u64).wrapping_mul(2654435761) % span
            };
            self.clock.sleep(min + Duration::from_millis(jitter));
        }
        self.fibs[device.0 as usize].to_wire()
    }
}

/// How a validator worker arrived at a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateMode {
    /// Full validation of every contract.
    Full,
    /// Incremental revalidation of the delta against the parked
    /// table; unaffected contracts carried over.
    Incremental,
    /// Table and contracts unchanged: the record's verdict stands,
    /// after one hash comparison.
    CacheHit,
}

/// Every mode, in declaration order: `MODES[m as usize] == m`, the
/// index of a mode's counter and histogram in a [`DeviceStore`].
const MODES: [ValidateMode; 3] = [
    ValidateMode::Full,
    ValidateMode::Incremental,
    ValidateMode::CacheHit,
];

impl ValidateMode {
    /// Exporter label.
    fn label(self) -> &'static str {
        match self {
            ValidateMode::Full => "full",
            ValidateMode::Incremental => "incremental",
            ValidateMode::CacheHit => "cache_hit",
        }
    }
}

/// The verdict a record holds, with the pair that fully determines it:
/// the content hash of the table it was judged for — always the
/// record's parked table — and the contract epoch it was judged under.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Content hash of the validated FIB.
    pub fib_hash: u64,
    /// Contract epoch the verdict was computed under.
    pub contract_epoch: u64,
    /// The verdict itself.
    pub report: Arc<ValidationReport>,
    /// How the latest event for the device arrived at it.
    pub mode: ValidateMode,
    /// Time that event spent validating (excludes pull and decode).
    pub validate_time: Duration,
}

/// One device's record, as [`DeviceStore::record`] clones it out under
/// one read lock: a handful of pointers and the keys beside them.
#[derive(Clone, Default)]
pub struct DeviceRecord {
    /// Published contracts and the epoch they were stamped with. Every
    /// publish stamps a fresh one, so "same contracts" is told from
    /// "republished contracts" without comparing contract contents.
    pub contracts: Option<(Arc<DeviceContracts>, u64)>,
    /// The parked table and its content hash, taken once when it was
    /// parked.
    pub table: Option<(Arc<Fib>, u64)>,
    /// The verdict judged for `table`; `None` until the device has
    /// both a table and contracts.
    pub verdict: Option<Verdict>,
}

/// One validated result flowing out of [`DeviceStore::judge`].
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The validated device.
    pub device: DeviceId,
    /// The validation outcome.
    pub report: Arc<ValidationReport>,
    /// Time spent validating (excludes pull latency).
    pub validate_time: Duration,
    /// How the verdict was produced.
    pub mode: ValidateMode,
}

/// A shard's keyed state: one [`DeviceRecord`] per device, and the
/// index dashboard queries walk, under the same lock.
#[derive(Default)]
struct Records {
    by_device: HashMap<DeviceId, DeviceRecord>,
    /// Devices whose report has violations, pre-sorted by id, each
    /// with that report — the one its record's verdict holds, written
    /// with it — so a query walking the index never probes the records.
    dirty: BTreeMap<DeviceId, Arc<ValidationReport>>,
    /// The last contract epoch stamped.
    epoch: u64,
}

/// One shard's device state and the pipeline's one step over it.
///
/// An event takes the lock twice — a read that clones the record (a
/// few `Arc`s and the verdict key) and a write that swaps the new
/// table and verdict in and updates the dirty index — and hashes,
/// decodes, diffs and validates under neither, so queries
/// ([`record`](Self::record), [`dirty_devices`](Self::dirty_devices),
/// [`alerts`](Self::alerts)) are served concurrently with in-flight
/// sweeps. Because table, verdict and index entry are written in one
/// critical section, a reader never sees one event's table beside
/// another's verdict, nor a device clean in its record and still in
/// the index. Dashboard queries walk the index, not the records: their
/// cost tracks the (typically tiny) number of dirty devices rather
/// than the fleet size.
#[derive(Default)]
pub struct DeviceStore {
    records: RwLock<Records>,
    lookups: Counter,
    hits: Counter,
    misses: Counter,
    ingested: Counter,
    /// Verdicts produced each way, indexed by mode.
    mode_totals: [Counter; 3],
    /// Per-mode validate-latency histograms, recording *every* verdict
    /// (not just the latest per device).
    latency: [Histogram; 3],
}

impl DeviceStore {
    /// Publish contracts for a device, stamping a new epoch: the
    /// verdict held for the device no longer applies.
    pub fn publish(&self, device: DeviceId, contracts: DeviceContracts) {
        let contracts = Arc::new(contracts);
        let mut records = self.records.write();
        records.epoch += 1;
        let epoch = records.epoch;
        records.by_device.entry(device).or_default().contracts = Some((contracts, epoch));
    }

    /// The device's record: contracts, parked table and verdict as of
    /// one moment. `None` for a device never published or pulled.
    pub fn record(&self, device: DeviceId) -> Option<DeviceRecord> {
        self.records.read().by_device.get(&device).cloned()
    }

    /// Process one event for `device` — the step a [`crate::service`]
    /// shard worker executes, and the `simnet` fault-injection harness
    /// with it. `pulled` is a freshly decoded table, `None` to re-judge
    /// the parked one; a pulled image goes through
    /// [`ingest`](Self::ingest) instead.
    ///
    /// The record's verdict stands when it was judged for a table of
    /// this content hash under the current contract epoch; a different
    /// table under the same epoch is judged as a delta against the
    /// parked one; anything else validates in full. Table and verdict
    /// are written back together. Returns `None` when there is nothing
    /// to judge: no table (a notification whose snapshot was dropped),
    /// or no published contracts (e.g. regional spines) — then a pulled
    /// table is parked for the notification that follows the publish.
    pub fn judge(
        &self,
        device: DeviceId,
        pulled: Option<Fib>,
        engine: &dyn Engine,
        clock: &dyn Clock,
    ) -> Option<PipelineResult> {
        let prior = self.record(device).unwrap_or_default();
        let pulled = pulled.map(|fib| {
            assert_eq!(
                fib.device(),
                device,
                "a table is parked under its own device"
            );
            let hash = fib.content_hash();
            (Arc::new(fib), hash)
        });
        self.decide(device, prior, pulled, engine, clock)
    }

    /// [`judge`](Self::judge) a pulled `FIB1` image, hash first.
    ///
    /// The image is hashed from its bytes, outside any lock. When the
    /// hash is the parked table's, the parked table *is* this table and
    /// is judged again without a decode: a hit under the current epoch,
    /// a full validation after a republish. Otherwise the image is
    /// decoded once and judged as a pulled table under the hash already
    /// taken. An image of another device, or one that does not decode,
    /// is an error, returned before the store is touched.
    pub fn ingest(
        &self,
        device: DeviceId,
        image: &WireSnapshot,
        engine: &dyn Engine,
        clock: &dyn Clock,
    ) -> Result<Option<PipelineResult>, ParseError> {
        if image.device() != device.0 {
            return Err(ParseError::new(
                "fib snapshot",
                "<pull>",
                format!(
                    "pull of device {} answered for device {}",
                    device.0,
                    image.device()
                ),
            ));
        }
        let hash = image.content_hash()?;
        let prior = self.record(device).unwrap_or_default();
        let table = match &prior.table {
            Some((parked, parked_hash)) if *parked_hash == hash => parked.clone(),
            _ => Arc::new(Fib::from_wire(image)?),
        };
        Ok(self.decide(device, prior, Some((table, hash)), engine, clock))
    }

    /// The step behind [`judge`](Self::judge) and
    /// [`ingest`](Self::ingest): `prior` is the record as read once at
    /// the start of the event, `pulled` the table the event brought
    /// with its content hash.
    fn decide(
        &self,
        device: DeviceId,
        prior: DeviceRecord,
        pulled: Option<(Arc<Fib>, u64)>,
        engine: &dyn Engine,
        clock: &dyn Clock,
    ) -> Option<PipelineResult> {
        let t0 = clock.now();
        let Some((contracts, contract_epoch)) = prior.contracts else {
            if pulled.is_some() {
                self.records
                    .write()
                    .by_device
                    .entry(device)
                    .or_default()
                    .table = pulled;
            }
            return None;
        };
        let (table, fib_hash) = pulled.or_else(|| prior.table.clone())?;
        // A verdict is only ever written with the table it judged, so
        // one under the current epoch is the parked table's.
        let current = prior.verdict.filter(|v| v.contract_epoch == contract_epoch);
        let (report, mode) = match current.zip(prior.table) {
            Some((verdict, _)) if verdict.fib_hash == fib_hash => {
                (verdict.report, ValidateMode::CacheHit)
            }
            Some((verdict, (parked, parked_hash))) => {
                // Both hashes are known: only the walk is left to do.
                let delta = FibDelta {
                    device: device.0,
                    base_hash: parked_hash,
                    new_hash: fib_hash,
                    patch: Fib::diff(&parked, &table),
                };
                let report = engine.validate_delta(&table, &contracts, &delta, &verdict.report);
                (Arc::new(report), ValidateMode::Incremental)
            }
            None => (
                Arc::new(engine.validate_device(&table, &contracts)),
                ValidateMode::Full,
            ),
        };
        let validate_time = clock.now() - t0;
        let result = PipelineResult {
            device,
            report: report.clone(),
            validate_time,
            mode,
        };
        let verdict = Verdict {
            fib_hash,
            contract_epoch,
            report,
            mode,
            validate_time,
        };
        self.commit(device, (table, fib_hash), verdict);
        Some(result)
    }

    /// Count a verdict and write it back with its table and its dirty
    /// index entry, in one critical section.
    fn commit(&self, device: DeviceId, table: (Arc<Fib>, u64), verdict: Verdict) {
        self.lookups.inc();
        match verdict.mode {
            ValidateMode::CacheHit => self.hits.inc(),
            _ => self.misses.inc(),
        }
        self.mode_totals[verdict.mode as usize].inc();
        self.ingested.inc();
        self.latency[verdict.mode as usize].record_duration(verdict.validate_time);
        // What the record held is dropped after the lock is released.
        let _replaced = {
            let mut records = self.records.write();
            if verdict.report.is_clean() {
                records.dirty.remove(&device);
            } else {
                records.dirty.insert(device, verdict.report.clone());
            }
            let record = records.by_device.entry(device).or_default();
            (record.table.replace(table), record.verdict.replace(verdict))
        };
    }

    /// Check under one read lock what [`judge`](Self::judge) keeps
    /// true by writing table, verdict and index entry together: every
    /// verdict is for its record's parked table, and the dirty index
    /// lists exactly the devices whose report has violations, each
    /// with that very report.
    pub fn audit(&self) -> Result<(), String> {
        let records = self.records.read();
        let mut dirty = 0;
        for (device, record) in &records.by_device {
            let Some(verdict) = &record.verdict else {
                continue;
            };
            if record.table.as_ref().map(|(_, hash)| *hash) != Some(verdict.fib_hash) {
                return Err(format!("{device:?}: verdict is not for the parked table"));
            }
            let indexed = records.dirty.get(device);
            if verdict.report.is_clean() != indexed.is_none()
                || indexed.is_some_and(|report| !Arc::ptr_eq(report, &verdict.report))
            {
                return Err(format!(
                    "{device:?}: {} violations, dirty index holds {:?}",
                    verdict.report.violations.len(),
                    indexed.map(|report| report.violations.len()),
                ));
            }
            dirty += usize::from(indexed.is_some());
        }
        if dirty != records.dirty.len() {
            return Err("dirty index lists a device with no verdict".into());
        }
        Ok(())
    }

    /// Number of devices with published contracts.
    pub fn published(&self) -> usize {
        let records = self.records.read();
        records
            .by_device
            .values()
            .filter(|r| r.contracts.is_some())
            .count()
    }

    /// Number of devices holding a verdict.
    pub fn judged(&self) -> usize {
        let records = self.records.read();
        records
            .by_device
            .values()
            .filter(|r| r.verdict.is_some())
            .count()
    }

    /// Devices whose report is dirty, with violation counts. Served
    /// from the pre-sorted dirty index: O(dirty), not O(fleet).
    pub fn dirty_devices(&self) -> Vec<(DeviceId, usize)> {
        let records = self.records.read();
        let dirty = records.dirty.iter();
        dirty
            .map(|(d, report)| (*d, report.violations.len()))
            .collect()
    }

    /// Number of dirty devices, without materializing the list.
    pub fn dirty_count(&self) -> usize {
        self.records.read().dirty.len()
    }

    /// Alert query: devices with at least one violation at or above the
    /// given risk (requires metadata for ranking). Walks only the dirty
    /// index — clean devices cannot alert — so a dashboard hammering
    /// this on a healthy fleet costs an empty iteration, not a scan.
    pub fn alerts(&self, meta: &MetadataService, at_least: Risk) -> Vec<DeviceId> {
        let records = self.records.read();
        let alerting = |report: &ValidationReport| {
            let mut violations = report.violations.iter();
            violations.any(|viol| risk_of(viol, meta) >= at_least)
        };
        let dirty = records.dirty.iter();
        dirty
            .filter(|(_, r)| alerting(r))
            .map(|(d, _)| *d)
            .collect()
    }

    /// Mean validation latency over *all* verdicts, not just the one
    /// each record retains — re-validating the same device twice
    /// averages both measurements.
    pub fn mean_validate_time(&self) -> Duration {
        let (sum, count) = self
            .latency
            .iter()
            .fold((0u64, 0u64), |(s, c), h| (s + h.sum(), c + h.count()));
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(sum / count)
    }

    /// Solver counters summed over the report of every device —
    /// all-zero for the trie engine; for SMT-backed sweeps this is the
    /// observable footprint of session reuse (queries, conflicts,
    /// bit-blast cache hits).
    pub fn solver_totals(&self) -> smtkit::SessionStats {
        let records = self.records.read();
        let mut total = smtkit::SessionStats::default();
        for verdict in records
            .by_device
            .values()
            .filter_map(|r| r.verdict.as_ref())
        {
            total.absorb(&verdict.report.solver_stats);
        }
        total
    }

    /// How many of the held verdicts were last produced each way:
    /// `(full, incremental, cache hit)`.
    pub fn mode_counts(&self) -> (usize, usize, usize) {
        let records = self.records.read();
        let [full, incremental, hit] = MODES.map(|m| {
            let verdicts = records
                .by_device
                .values()
                .filter_map(|r| r.verdict.as_ref());
            verdicts.filter(|v| v.mode == m).count()
        });
        (full, incremental, hit)
    }

    /// Point-in-time view of the store's metrics: the
    /// `rcdc_verdict_cache_{lookups,hits,misses}_total`,
    /// `rcdc_validate_mode_total{mode}` and
    /// `rcdc_analytics_ingested_total` counters, per-mode
    /// validate-latency histograms, device/dirty gauges, and the
    /// solver-session totals of the held reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.observe(&registry);
        registry.snapshot()
    }
}

impl Observer for DeviceStore {
    /// Adopt the live counters and latency histograms, so every later
    /// [`judge`](DeviceStore::judge) keeps flowing into the registry's
    /// exported families, and publish point-in-time gauges over the
    /// records (device counts and summed solver-session stats).
    fn observe(&self, registry: &Registry) {
        for (name, help, counter) in [
            (
                "rcdc_verdict_cache_lookups_total",
                "verdict-cache lookups by validator workers",
                &self.lookups,
            ),
            (
                "rcdc_verdict_cache_hits_total",
                "verdict-cache lookups answered with a cached report",
                &self.hits,
            ),
            (
                "rcdc_verdict_cache_misses_total",
                "verdict-cache lookups that required validation",
                &self.misses,
            ),
            (
                "rcdc_analytics_ingested_total",
                "results ingested by the stream-analytics sink",
                &self.ingested,
            ),
        ] {
            registry.register_counter(name, help, &[], counter);
        }
        for mode in MODES {
            let labels = [("mode", mode.label())];
            registry.register_counter(
                "rcdc_validate_mode_total",
                "verdicts produced, by validation mode",
                &labels,
                &self.mode_totals[mode as usize],
            );
            registry.register_histogram(
                "rcdc_validate_latency_ns",
                "per-notification validate latency in nanoseconds",
                &labels,
                &self.latency[mode as usize],
            );
        }
        registry
            .gauge(
                "rcdc_analytics_devices",
                "devices with a retained latest result",
                &[],
            )
            .set(self.judged() as i64);
        registry
            .gauge(
                "rcdc_analytics_dirty_devices",
                "devices whose latest report has violations",
                &[],
            )
            .set(self.dirty_count() as i64);
        self.solver_totals()
            .observe_into(registry, "rcdc_solver", &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::generate_contracts;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy, without};
    use crate::engine::trie::TrieEngine;

    #[test]
    fn simulated_latency_is_bounded_and_deterministic() {
        // The §2.6.1 pull latency is charged to an injected virtual
        // clock, so this test observes 200–800 ms pulls while running
        // in microseconds of wall time — and the per-device jitter is
        // exactly reproducible, not "within scheduling noise".
        let (f, fibs, _contracts, _meta) = fig3_healthy();
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let source = SimulatedSource::new(fibs)
            .with_latency(Duration::from_millis(200), Duration::from_millis(800))
            .with_clock(clock.clone());
        let timed_pull = |device: DeviceId| {
            let t0 = clock.now();
            source.pull(device);
            clock.now() - t0
        };
        let d1 = timed_pull(f.tors[0]);
        let d2 = timed_pull(f.tors[0]);
        let d3 = timed_pull(f.tors[1]);
        assert!((Duration::from_millis(200)..Duration::from_millis(800)).contains(&d1));
        assert!((Duration::from_millis(200)..Duration::from_millis(800)).contains(&d3));
        // Same device → identical deterministic jitter.
        assert_eq!(d1, d2);
        // Virtual time advanced by exactly the three pulls; no wall
        // time was spent sleeping.
        assert_eq!(clock.now(), d1 + d2 + d3);
    }

    /// A store with `contracts` published, device by device.
    fn published(contracts: Vec<DeviceContracts>) -> DeviceStore {
        let store = DeviceStore::default();
        for (i, dc) in contracts.into_iter().enumerate() {
            store.publish(DeviceId(i as u32), dc);
        }
        store
    }

    #[test]
    fn wire_round_trip_through_store() {
        let (f, fibs, _contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let wire = SimulatedSource::new(fibs.clone()).pull(tor);
        let store = DeviceStore::default();
        // No contracts published: the table is parked, nothing judged.
        assert!(store
            .ingest(tor, &wire, &TrieEngine::new(), &RealClock::new())
            .unwrap()
            .is_none());
        // Wire format round-trips entries and hop sets exactly, and the
        // hash beside the table is the table's.
        let (parked, hash) = store.record(tor).unwrap().table.unwrap();
        assert_eq!(parked.as_ref(), &fibs[tor.0 as usize]);
        assert_eq!(hash, fibs[tor.0 as usize].content_hash());
        assert_eq!(store.judged(), 0);
    }

    #[test]
    fn contract_generator_populates_store() {
        let (f, _fibs, _contracts, meta) = fig3_healthy();
        let store = published(generate_contracts(&meta));
        assert_eq!(store.published(), f.topology.len());
        let (contracts, _epoch) = store.record(f.tors[0]).unwrap().contracts.unwrap();
        assert!(!contracts.is_empty());
        assert!(store.record(DeviceId(9999)).is_none());
    }

    /// A fabricated verdict over an empty table, committed the way
    /// [`DeviceStore::judge`] commits a real one.
    fn commit(store: &DeviceStore, device: DeviceId, micros: u64, mode: ValidateMode) {
        let table = bgpsim::FibBuilder::new(device).finish();
        let fib_hash = table.content_hash();
        let verdict = Verdict {
            fib_hash,
            contract_epoch: 1,
            report: Arc::default(),
            mode,
            validate_time: Duration::from_micros(micros),
        };
        store.commit(device, (Arc::new(table), fib_hash), verdict);
    }

    /// `snapshot()` is the one stats surface (the PR-5 getter shims are
    /// gone): the counter families must reflect every event exactly.
    #[test]
    fn snapshot_counters_track_cache_and_ingest_activity() {
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let store = published(contracts);
        let (engine, clock) = (TrieEngine::new(), RealClock::new());
        let d = f.tors[0];
        let table = &fibs[d.0 as usize];
        let mode = |fib: &Fib| {
            store
                .judge(d, Some(fib.clone()), &engine, &clock)
                .unwrap()
                .mode
        };
        assert_eq!(mode(table), ValidateMode::Full);
        assert_eq!(mode(table), ValidateMode::CacheHit);
        assert_eq!(
            mode(&without(table, f.prefixes[1])),
            ValidateMode::Incremental
        );
        let snap = store.snapshot();
        assert_eq!(
            snap.counter("rcdc_verdict_cache_lookups_total", &[]),
            Some(3)
        );
        assert_eq!(snap.counter("rcdc_verdict_cache_hits_total", &[]), Some(1));
        assert_eq!(
            snap.counter("rcdc_verdict_cache_misses_total", &[]),
            Some(2)
        );

        let store = DeviceStore::default();
        for i in 0..5 {
            commit(&store, DeviceId(i), 100, ValidateMode::Full);
        }
        assert_eq!(
            store
                .snapshot()
                .counter("rcdc_analytics_ingested_total", &[]),
            Some(5)
        );
    }

    /// The dirty index answers dashboard queries without scanning the
    /// records: it must track verdicts exactly — a device turning
    /// clean leaves the index, latest-wins updates replace counts.
    #[test]
    fn dirty_index_tracks_latest_reports() {
        let (_f, fibs, contracts, meta) = fig3_faulted();
        let (engine, clock) = (TrieEngine::new(), RealClock::new());
        let store = published(contracts);
        // Judge the real faulted table of every device.
        for fib in &fibs {
            store.judge(fib.device(), Some(fib.clone()), &engine, &clock);
        }
        let dirty = store.dirty_devices();
        assert_eq!(dirty.len(), 16);
        assert_eq!(store.dirty_count(), 16);
        assert!(dirty.windows(2).all(|w| w[0].0 < w[1].0), "pre-sorted");
        assert!(!store.alerts(&meta, Risk::High).is_empty());
        assert_eq!(store.audit(), Ok(()));
        // A dirty device turning clean leaves the index.
        let dirty_device = dirty[0].0;
        let (_f, healthy, _contracts, _meta) = fig3_healthy();
        let healed = healthy[dirty_device.0 as usize].clone();
        let result = store.judge(dirty_device, Some(healed), &engine, &clock);
        assert!(result.unwrap().report.is_clean());
        assert_eq!(store.dirty_count(), 15);
        assert!(!store
            .dirty_devices()
            .iter()
            .any(|(d, _)| *d == dirty_device));
        // Alerts walk only the index; the clean device cannot alert.
        assert!(!store.alerts(&meta, Risk::Low).contains(&dirty_device));
        assert_eq!(store.audit(), Ok(()));
    }

    /// Regression for the duplicate-ingestion skew: the mean must
    /// weight every verdict, not just the one each record retains.
    /// Here one device is revalidated many times; a retained-results
    /// mean would report 1000 µs (the one retained verdict).
    #[test]
    fn mean_validate_time_weights_every_ingested_result() {
        let store = DeviceStore::default();
        for _ in 0..9 {
            commit(&store, DeviceId(0), 100, ValidateMode::Full);
        }
        commit(&store, DeviceId(0), 1_000, ValidateMode::Incremental);
        assert_eq!(store.judged(), 1, "latest-wins keying retains one verdict");
        let mean = store.mean_validate_time();
        // (9·100 + 1000) / 10 = 190 µs.
        assert_eq!(mean, Duration::from_micros(190));
        // The per-mode histograms carry the same story for exporters.
        let snap = store.snapshot();
        let full = snap
            .histogram("rcdc_validate_latency_ns", &[("mode", "full")])
            .unwrap();
        assert_eq!(full.count, 9);
        let incr = snap
            .histogram("rcdc_validate_latency_ns", &[("mode", "incremental")])
            .unwrap();
        assert_eq!(incr.count, 1);
    }
}
