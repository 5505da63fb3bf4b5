//! The RCDC live-monitoring pipeline (§2.6.1).
//!
//! "RCDC comprises 3 micro services, namely a device contract
//! generator, a forwarding table puller, and a routing table
//! validator." This module holds the parts of that architecture; the
//! loop that drives them — pull, park, validate, push to the sink — is
//! the shard worker of [`crate::service`], and nowhere else:
//!
//! * [`ContractStore`] / [`FibStore`] — the NoSQL stores, as
//!   concurrent maps;
//! * [`SnapshotSource`] — where tables are pulled from
//!   ([`SimulatedSource`] optionally charges the 200–800 ms device
//!   latency §2.6.1 measured);
//! * [`validate_notification`] — the per-device validator step: the
//!   single cache-hit / incremental / full decision, shared by the
//!   shard worker and the `simnet` fault-injection harness;
//! * [`StreamAnalytics`] — the queryable result store that alerting and
//!   the triage process (see [`crate::classify`]) read from.
//!
//! The steady-state workload is dominated by *unchanged* snapshots —
//! a healthy device republishes the same table sweep after sweep — so
//! validators consult a [`VerdictCache`] keyed by
//! `(fib content hash, contract epoch)` first: an unchanged snapshot
//! costs one hash comparison instead of a validation pass. A churned
//! snapshot whose predecessor is still in the [`FibStore`] takes the
//! incremental path: [`crate::Engine::validate_delta`] reads off which
//! prefixes the two tables differ at and hands them to the engine's
//! [`validate_touched`](crate::Engine::validate_touched), which
//! re-checks only the contracts those prefixes can affect. Republishing
//! a device's contracts bumps its epoch in the [`ContractStore`],
//! which invalidates every cached verdict for it.
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
use netprim::wire::WireSnapshot;
use obskit::{Counter, Histogram, MetricsSnapshot, Observer, Registry};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Contract store: device → contract set (written by the generator,
/// read by validators). Every write is stamped with a fresh epoch so
/// downstream verdict caches can tell "same contracts" from
/// "republished contracts" without comparing contract contents.
#[derive(Default)]
pub struct ContractStore {
    inner: RwLock<HashMap<DeviceId, (Arc<DeviceContracts>, u64)>>,
    counter: AtomicU64,
}

impl ContractStore {
    /// Publish contracts for a device, stamping a new epoch.
    pub fn put(&self, device: DeviceId, contracts: DeviceContracts) {
        let epoch = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner
            .write()
            .insert(device, (Arc::new(contracts), epoch));
    }

    /// Fetch contracts for a device.
    pub fn get(&self, device: DeviceId) -> Option<Arc<DeviceContracts>> {
        self.inner.read().get(&device).map(|(c, _)| c.clone())
    }

    /// Fetch contracts plus the epoch they were published under.
    pub fn get_versioned(&self, device: DeviceId) -> Option<(Arc<DeviceContracts>, u64)> {
        self.inner.read().get(&device).cloned()
    }

    /// Number of devices with published contracts.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

/// FIB snapshot store: device → latest pulled snapshot, plus the one
/// before it — the base the incremental validator computes its
/// [`netprim::wire::FibDelta`] against.
#[derive(Default)]
pub struct FibStore {
    inner: RwLock<HashMap<DeviceId, FibVersions>>,
}

#[derive(Clone)]
struct FibVersions {
    current: Arc<Fib>,
    previous: Option<Arc<Fib>>,
}

impl FibStore {
    /// Park a pulled snapshot; the snapshot it replaces is retained as
    /// the device's previous version.
    pub fn put(&self, fib: Fib) {
        let mut inner = self.inner.write();
        let device = fib.device();
        let previous = inner.remove(&device).map(|v| v.current);
        inner.insert(
            device,
            FibVersions {
                current: Arc::new(fib),
                previous,
            },
        );
    }

    /// Latest snapshot for a device.
    pub fn get(&self, device: DeviceId) -> Option<Arc<Fib>> {
        self.inner.read().get(&device).map(|v| v.current.clone())
    }

    /// The snapshot the latest one replaced, if any.
    pub fn previous(&self, device: DeviceId) -> Option<Arc<Fib>> {
        self.inner.read().get(&device).and_then(|v| v.previous.clone())
    }
}

/// A cached per-device verdict, keyed by the pair that fully determines
/// it: the FIB's content hash and the contract epoch it was validated
/// under.
#[derive(Debug, Clone)]
pub struct CachedVerdict {
    /// Content hash of the validated FIB.
    pub fib_hash: u64,
    /// Contract epoch the verdict was computed under.
    pub contract_epoch: u64,
    /// The verdict itself.
    pub report: ValidationReport,
}

/// Verdict cache for the validator workers.
///
/// `lookup` hits when *both* key halves match: a republished FIB with
/// identical content is a hit (validation is pure in the FIB), while a
/// contract republish changes the epoch and misses — the §2.6.1
/// pipeline regenerates contracts when the intended topology changes,
/// and stale verdicts must not outlive that.
#[derive(Default)]
pub struct VerdictCache {
    inner: RwLock<HashMap<DeviceId, CachedVerdict>>,
    lookups: Counter,
    hits: Counter,
    misses: Counter,
}

impl VerdictCache {
    /// Look up a verdict for exactly this (hash, epoch) pair, counting
    /// a hit or miss.
    pub fn lookup(
        &self,
        device: DeviceId,
        fib_hash: u64,
        contract_epoch: u64,
    ) -> Option<ValidationReport> {
        self.lookups.inc();
        let hit = self.inner.read().get(&device).and_then(|c| {
            (c.fib_hash == fib_hash && c.contract_epoch == contract_epoch)
                .then(|| c.report.clone())
        });
        match hit {
            Some(r) => {
                self.hits.inc();
                Some(r)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// The device's latest cached verdict regardless of key — the
    /// prior report the incremental path carries verdicts over from.
    /// (Not counted as a hit or miss.)
    pub fn prior(&self, device: DeviceId) -> Option<CachedVerdict> {
        self.inner.read().get(&device).cloned()
    }

    /// Insert or replace the verdict for a device.
    pub fn store(
        &self,
        device: DeviceId,
        fib_hash: u64,
        contract_epoch: u64,
        report: ValidationReport,
    ) {
        self.inner.write().insert(
            device,
            CachedVerdict {
                fib_hash,
                contract_epoch,
                report,
            },
        );
    }

    /// Point-in-time view of the cache's metrics: the
    /// `rcdc_verdict_cache_{lookups,hits,misses}_total` counter
    /// families.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.observe(&registry);
        registry.snapshot()
    }
}

impl Observer for VerdictCache {
    /// Adopt the cache's live counters, so every later
    /// [`lookup`](VerdictCache::lookup) keeps flowing into the
    /// registry's exported families.
    fn observe(&self, registry: &Registry) {
        registry.register_counter(
            "rcdc_verdict_cache_lookups_total",
            "verdict-cache lookups by validator workers",
            &[],
            &self.lookups,
        );
        registry.register_counter(
            "rcdc_verdict_cache_hits_total",
            "verdict-cache lookups answered with a cached report",
            &[],
            &self.hits,
        );
        registry.register_counter(
            "rcdc_verdict_cache_misses_total",
            "verdict-cache lookups that required validation",
            &[],
            &self.misses,
        );
    }
}

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
    /// Incremental revalidation of the delta against the previous
    /// snapshot; unaffected contracts carried over.
    Incremental,
    /// Snapshot and contracts unchanged: verdict served from the
    /// [`VerdictCache`] after one hash comparison.
    CacheHit,
}

/// One validated result flowing into stream analytics.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The validated device.
    pub device: DeviceId,
    /// The validation outcome.
    pub report: ValidationReport,
    /// Time spent validating (excludes pull latency).
    pub validate_time: Duration,
    /// How the verdict was produced.
    pub mode: ValidateMode,
}

/// The stream-analytics sink: collects results and answers the alert
/// and triage queries of §2.6.1/§2.6.4.
///
/// Dashboard-style queries ([`dirty_devices`](Self::dirty_devices),
/// [`alerts`](Self::alerts)) read a pre-sorted dirty index maintained
/// at ingest instead of scanning — and cloning filters of — the full
/// result map under the lock, so their cost tracks the (typically
/// tiny) number of dirty devices rather than the fleet size. The
/// always-on service serves these concurrently with in-flight sweeps.
#[derive(Default)]
pub struct StreamAnalytics {
    inner: RwLock<AnalyticsIndex>,
    ingested: Counter,
    /// Per-mode validate-latency histograms, recording *every* ingested
    /// result (not just the latest per device): full, incremental,
    /// cache-hit — indexed by [`latency_slot`].
    latency: [Histogram; 3],
}

/// The sink's keyed state: latest result per device plus the dirty
/// index dashboard queries walk.
#[derive(Default)]
struct AnalyticsIndex {
    results: HashMap<DeviceId, PipelineResult>,
    /// Devices whose latest report has violations, pre-sorted by id,
    /// with their violation counts. Updated on every ingest.
    dirty: BTreeMap<DeviceId, usize>,
}

/// Index of a [`ValidateMode`]'s latency histogram in
/// [`StreamAnalytics::latency`].
fn latency_slot(mode: ValidateMode) -> usize {
    match mode {
        ValidateMode::Full => 0,
        ValidateMode::Incremental => 1,
        ValidateMode::CacheHit => 2,
    }
}

/// Exporter label for a [`ValidateMode`].
fn mode_label(mode: ValidateMode) -> &'static str {
    match mode {
        ValidateMode::Full => "full",
        ValidateMode::Incremental => "incremental",
        ValidateMode::CacheHit => "cache_hit",
    }
}

impl StreamAnalytics {
    /// Ingest one result (latest wins, like a keyed stream), keeping
    /// the dirty index in step under the same write lock.
    pub fn ingest(&self, r: PipelineResult) {
        self.ingested.inc();
        self.latency[latency_slot(r.mode)].record_duration(r.validate_time);
        let mut inner = self.inner.write();
        if r.report.is_clean() {
            inner.dirty.remove(&r.device);
        } else {
            inner.dirty.insert(r.device, r.report.violations.len());
        }
        inner.results.insert(r.device, r);
    }

    /// Number of devices with results.
    pub fn len(&self) -> usize {
        self.inner.read().results.len()
    }

    /// Is the sink empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().results.is_empty()
    }

    /// Devices whose latest report is dirty, with violation counts.
    /// Served from the pre-sorted dirty index: O(dirty), not O(fleet).
    pub fn dirty_devices(&self) -> Vec<(DeviceId, usize)> {
        self.inner
            .read()
            .dirty
            .iter()
            .map(|(d, n)| (*d, *n))
            .collect()
    }

    /// Number of dirty devices, without materializing the list.
    pub fn dirty_count(&self) -> usize {
        self.inner.read().dirty.len()
    }

    /// Alert query: devices with at least one violation at or above the
    /// given risk (requires metadata for ranking). Walks only the dirty
    /// index — clean devices cannot alert — so a dashboard hammering
    /// this on a healthy fleet costs an empty iteration, not a scan.
    pub fn alerts(&self, meta: &MetadataService, at_least: Risk) -> Vec<DeviceId> {
        let inner = self.inner.read();
        inner
            .dirty
            .keys()
            .filter(|d| {
                inner.results[d]
                    .report
                    .violations
                    .iter()
                    .any(|viol| risk_of(viol, meta) >= at_least)
            })
            .copied()
            .collect()
    }

    /// Mean validation latency over *all* ingested results, not just
    /// the latest per device — re-validating the same device twice
    /// averages both measurements. (An earlier version divided the sum
    /// of the retained latest-per-device results by their count, so a
    /// duplicate-heavy stream skewed the mean toward whichever result
    /// happened to be retained.)
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

    /// The latest result for one device.
    pub fn result(&self, device: DeviceId) -> Option<PipelineResult> {
        self.inner.read().results.get(&device).cloned()
    }

    /// Solver counters summed over the latest result of every device —
    /// all-zero for the trie engine; for SMT-backed sweeps this is the
    /// observable footprint of session reuse (queries, conflicts,
    /// bit-blast cache hits).
    pub fn solver_totals(&self) -> smtkit::SessionStats {
        let inner = self.inner.read();
        let mut total = smtkit::SessionStats::default();
        for r in inner.results.values() {
            total.absorb(&r.report.solver_stats);
        }
        total
    }

    /// How many of the latest results were produced each way.
    pub fn mode_counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.read();
        let count = |m: ValidateMode| inner.results.values().filter(|r| r.mode == m).count();
        (
            count(ValidateMode::Full),
            count(ValidateMode::Incremental),
            count(ValidateMode::CacheHit),
        )
    }

    /// Point-in-time view of the sink's metrics: ingest counter,
    /// per-mode validate-latency histograms, device/dirty gauges, and
    /// the solver-session totals of the retained reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let registry = Registry::new();
        self.observe(&registry);
        registry.snapshot()
    }
}

impl Observer for StreamAnalytics {
    /// Adopt the live ingest counter and latency histograms, and
    /// publish point-in-time gauges over the retained results
    /// (device counts and summed solver-session stats).
    fn observe(&self, registry: &Registry) {
        registry.register_counter(
            "rcdc_analytics_ingested_total",
            "results ingested by the stream-analytics sink",
            &[],
            &self.ingested,
        );
        for mode in [
            ValidateMode::Full,
            ValidateMode::Incremental,
            ValidateMode::CacheHit,
        ] {
            registry.register_histogram(
                "rcdc_validate_latency_ns",
                "per-notification validate latency in nanoseconds",
                &[("mode", mode_label(mode))],
                &self.latency[latency_slot(mode)],
            );
        }
        registry
            .gauge(
                "rcdc_analytics_devices",
                "devices with a retained latest result",
                &[],
            )
            .set(self.len() as i64);
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

/// Pre-resolved `rcdc_validate_mode_total{mode}` handles.
///
/// [`validate_notification`] counts every verdict, so the handles are
/// created once (a few registry lookups) and then cost one atomic op
/// each — no name hashing or lock acquisition per event.
#[derive(Clone)]
pub struct PipelineMetrics {
    mode_totals: [Counter; 3],
}

impl PipelineMetrics {
    /// Create (or re-attach to) the pipeline's metric families in
    /// `registry`.
    pub fn new(registry: &Registry) -> Self {
        let mode_counter = |mode| {
            registry.counter(
                "rcdc_validate_mode_total",
                "verdicts produced, by validation mode",
                &[("mode", mode_label(mode))],
            )
        };
        PipelineMetrics {
            mode_totals: [
                mode_counter(ValidateMode::Full),
                mode_counter(ValidateMode::Incremental),
                mode_counter(ValidateMode::CacheHit),
            ],
        }
    }
}

/// Process one validator-queue notification: the exact per-device step
/// a [`crate::service`] shard worker executes, factored out so other
/// drivers — the `simnet` deterministic fault-injection harness in
/// particular — exercise the *same* code path instead of a
/// reimplementation that could drift.
///
/// Consults `cache` first (one hash comparison for an unchanged
/// snapshot under unchanged contracts), takes the incremental delta
/// path when the previous snapshot and a matching prior verdict are
/// available, and validates in full otherwise. Returns `None` when the
/// device has no published contracts or no stored snapshot (e.g.
/// regional spines, or a notification whose snapshot was dropped).
pub fn validate_notification(
    device: DeviceId,
    contract_store: &ContractStore,
    fib_store: &FibStore,
    cache: &VerdictCache,
    engine: &dyn Engine,
    clock: &dyn Clock,
    metrics: &PipelineMetrics,
) -> Option<PipelineResult> {
    let (contracts, epoch) = contract_store.get_versioned(device)?;
    let fib = fib_store.get(device)?;
    let t0 = clock.now();
    let fib_hash = fib.content_hash();
    let (report, mode) = match cache.lookup(device, fib_hash, epoch) {
        Some(report) => (report, ValidateMode::CacheHit),
        None => {
            let prior = cache.prior(device).zip(fib_store.previous(device));
            let (report, mode) = match prior {
                // The incremental path needs the prior verdict to
                // belong to the previous snapshot under the *current*
                // epoch.
                Some((cached, prev))
                    if cached.contract_epoch == epoch
                        && cached.fib_hash == prev.content_hash() =>
                {
                    let delta = Fib::delta(&prev, &fib);
                    (
                        engine.validate_delta(&fib, &contracts, &delta, &cached.report),
                        ValidateMode::Incremental,
                    )
                }
                _ => (
                    engine.validate_device(&fib, &contracts),
                    ValidateMode::Full,
                ),
            };
            cache.store(device, fib_hash, epoch, report.clone());
            (report, mode)
        }
    };
    metrics.mode_totals[latency_slot(mode)].inc();
    Some(PipelineResult {
        device,
        report,
        validate_time: clock.now() - t0,
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::generate_contracts;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy};
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

    #[test]
    fn wire_round_trip_through_store() {
        let (f, fibs, _contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let wire = SimulatedSource::new(fibs.clone()).pull(tor);
        let fs = FibStore::default();
        fs.put(Fib::from_wire(&wire).unwrap());
        // Wire format round-trips entries and hop sets exactly.
        assert_eq!(fs.get(tor).unwrap().as_ref(), &fibs[tor.0 as usize]);
    }

    #[test]
    fn contract_generator_populates_store() {
        let (f, _fibs, _contracts, meta) = fig3_healthy();
        let cs = ContractStore::default();
        for (i, dc) in generate_contracts(&meta).into_iter().enumerate() {
            cs.put(DeviceId(i as u32), dc);
        }
        assert_eq!(cs.len(), f.topology.len());
        assert!(!cs.get(f.tors[0]).unwrap().is_empty());
        assert!(cs.get(DeviceId(9999)).is_none());
    }

    fn result_for(device: DeviceId, micros: u64, mode: ValidateMode) -> PipelineResult {
        PipelineResult {
            device,
            report: ValidationReport::default(),
            validate_time: Duration::from_micros(micros),
            mode,
        }
    }

    /// `snapshot()` is the one stats surface (the PR-5 getter shims are
    /// gone): the counter families must reflect every lookup exactly.
    #[test]
    fn snapshot_counters_track_cache_and_ingest_activity() {
        let cache = VerdictCache::default();
        let d = DeviceId(0);
        assert!(cache.lookup(d, 1, 1).is_none());
        cache.store(d, 1, 1, ValidationReport::default());
        assert!(cache.lookup(d, 1, 1).is_some());
        assert!(cache.lookup(d, 2, 1).is_none());
        let snap = cache.snapshot();
        assert_eq!(snap.counter("rcdc_verdict_cache_lookups_total", &[]), Some(3));
        assert_eq!(snap.counter("rcdc_verdict_cache_hits_total", &[]), Some(1));
        assert_eq!(snap.counter("rcdc_verdict_cache_misses_total", &[]), Some(2));

        let analytics = StreamAnalytics::default();
        for i in 0..5 {
            analytics.ingest(result_for(DeviceId(i), 100, ValidateMode::Full));
        }
        assert_eq!(
            analytics
                .snapshot()
                .counter("rcdc_analytics_ingested_total", &[]),
            Some(5)
        );
    }

    /// The dirty index answers dashboard queries without scanning the
    /// result map: it must track ingests exactly — a device turning
    /// clean leaves the index, latest-wins updates replace counts.
    #[test]
    fn dirty_index_tracks_latest_reports() {
        let (_f, fibs, contracts, meta) = fig3_faulted();
        let engine = TrieEngine::new();
        let analytics = StreamAnalytics::default();
        // Ingest real faulted reports for every device.
        for (i, fib) in fibs.iter().enumerate() {
            let report = engine.validate_device(fib, &contracts[i]);
            analytics.ingest(PipelineResult {
                device: DeviceId(i as u32),
                report,
                validate_time: Duration::ZERO,
                mode: ValidateMode::Full,
            });
        }
        let dirty = analytics.dirty_devices();
        assert_eq!(dirty.len(), 16);
        assert_eq!(analytics.dirty_count(), 16);
        assert!(dirty.windows(2).all(|w| w[0].0 < w[1].0), "pre-sorted");
        assert!(!analytics.alerts(&meta, Risk::High).is_empty());
        // A dirty device turning clean leaves the index.
        let dirty_device = dirty[0].0;
        analytics.ingest(result_for(dirty_device, 10, ValidateMode::Full));
        assert_eq!(analytics.dirty_count(), 15);
        assert!(!analytics
            .dirty_devices()
            .iter()
            .any(|(d, _)| *d == dirty_device));
        // Alerts walk only the index; the clean device cannot alert.
        assert!(!analytics.alerts(&meta, Risk::Low).contains(&dirty_device));
    }

    /// Regression for the duplicate-ingestion skew: the mean must
    /// weight every ingested result, not just the retained
    /// latest-per-device ones. Here one device is revalidated many
    /// times; the old retained-results mean reported 10 µs (one
    /// retained result, sum over all ten).
    #[test]
    fn mean_validate_time_weights_every_ingested_result() {
        let analytics = StreamAnalytics::default();
        for _ in 0..9 {
            analytics.ingest(result_for(DeviceId(0), 100, ValidateMode::Full));
        }
        analytics.ingest(result_for(DeviceId(0), 1_000, ValidateMode::Incremental));
        assert_eq!(analytics.len(), 1, "latest-wins keying retains one result");
        let mean = analytics.mean_validate_time();
        // (9·100 + 1000) / 10 = 190 µs.
        assert_eq!(mean, Duration::from_micros(190));
        // The per-mode histograms carry the same story for exporters.
        let snap = analytics.snapshot();
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
