//! The long-running sharded validation service: the §2.6.1 pipeline
//! as an always-on system. Its shard worker is the only
//! pull → ingest → judge loop in the repository; a one-shot
//! sweep is the same service driven once
//! ([`pull_all`](ValidationService::pull_all) +
//! [`drain`](ValidationService::drain)), with
//! [`shards`](crate::ValidatorBuilder::shards) as its pull concurrency.
//!
//! A [`ValidationService`] partitions the device space across N worker
//! shards (a [`ShardRouter`]): each shard owns its own device store,
//! engine instance (and therefore its own smtkit sessions), and obskit
//! registry, and drains a private **bounded** ingest queue. Producers
//! submit [`IngestEvent`]s — FIB pulls and notifications —
//! through [`ValidationService::submit`], which routes each event to
//! its device's shard. When a shard's queue is full the submit blocks
//! until the shard catches up, counting the stall in
//! `rcdc_service_backpressure_total`: ingest can never outrun
//! validation by more than the configured capacity, the same
//! back-pressure discipline the paper's pipeline needs to survive
//! churn storms. A pull the source answers with an undecodable or
//! mis-addressed snapshot is counted in
//! `rcdc_service_pull_errors_total` and dropped: the device's record
//! keeps its parked snapshot and verdict, and the shard keeps running.
//!
//! Reads never queue. A cloneable [`ServiceHandle`] answers
//! [`verdict`](ServiceHandle::verdict), [`alerts`](ServiceHandle::alerts),
//! [`snapshot`](ServiceHandle::snapshot) and
//! [`solver_totals`](ServiceHandle::solver_totals) directly from the
//! shard stores, concurrently with in-flight sweeps: a worker hashes,
//! decodes and validates outside its store's lock and holds it only to
//! clone a record out or swap one in. A verdict is cloned under that
//! one shard-local read lock, so the `(fib_hash, contract_epoch,
//! report)` triple a reader observes is always internally consistent.
//!
//! Construction goes through [`crate::ValidatorBuilder`]:
//!
//! ```
//! use rcdc::pipeline::SimulatedSource;
//! use rcdc::Validator;
//! use dctopo::{DeviceId, MetadataService};
//! use std::sync::Arc;
//!
//! let f = dctopo::generator::figure3();
//! let fibs = bgpsim::simulate(&f.topology, &bgpsim::SimConfig::healthy());
//! let meta = MetadataService::from_topology(&f.topology);
//! let devices: Vec<DeviceId> = (0..fibs.len() as u32).map(DeviceId).collect();
//!
//! let service = Validator::new(&meta)
//!     .shards(2)
//!     .ingest_capacity(64)
//!     .build_service(Arc::new(SimulatedSource::new(fibs)));
//! service.pull_all(&devices);
//! service.drain();
//! let handle = service.handle();
//! assert!(handle.verdict(devices[0]).unwrap().report.is_clean());
//! assert!(handle.alerts(rcdc::Risk::Low).is_empty());
//! ```

use crate::clock::Clock;
use crate::engine::Engine;
use crate::pipeline::{DeviceStore, SnapshotSource, Verdict};
use crate::report::Risk;
use crate::runner::EngineChoice;
use crate::shard::ShardRouter;
use dctopo::{DeviceId, MetadataService};
use netprim::ParseError;
use obskit::{Counter, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// An event submitted to the service's ingest front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestEvent {
    /// Pull the device's current snapshot from the source, judge it
    /// and park it with its verdict — the periodic-sweep path.
    Pull(DeviceId),
    /// Re-judge the device's parked snapshot without a pull: a cache
    /// hit, unless its contracts were (re)published since the verdict
    /// — then a full validation under the new epoch.
    Notify(DeviceId),
}

impl IngestEvent {
    /// The device this event is about (and so the shard it routes to).
    pub fn device(self) -> DeviceId {
        match self {
            IngestEvent::Pull(d) | IngestEvent::Notify(d) => d,
        }
    }
}

/// What travels down a shard's ingest queue.
enum Message {
    Event {
        event: IngestEvent,
        /// Submit-time reading of the service clock; the worker's
        /// verdict timestamp minus this is the notification→verdict
        /// latency (`rcdc_service_notify_latency_ns`).
        enqueued_at: Duration,
    },
    /// Shutdown sentinel; the worker drains everything queued before
    /// it, then exits.
    Stop,
}

/// Per-shard ingest accounting, shared by producers and the worker.
struct ShardLane {
    tx: SyncSender<Message>,
    submitted: AtomicU64,
    processed: AtomicU64,
    /// The shard's `rcdc_service_backpressure_total`, resolved at
    /// start so a healthy service exports the family at 0.
    backpressure: Counter,
}

/// Everything the workers and handles share.
struct ServiceInner {
    router: ShardRouter,
    meta: MetadataService,
    clock: Arc<dyn Clock>,
    lanes: Vec<ShardLane>,
}

/// The always-on sharded validation service. Owns one worker thread
/// per shard; dropping the service (or calling
/// [`shutdown`](ValidationService::shutdown)) drains every queue and
/// joins the workers.
pub struct ValidationService {
    inner: Arc<ServiceInner>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Cloneable read-side handle: queries are answered from the shard
/// stores concurrently with in-flight sweeps, never queued behind
/// ingest.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
}

pub(crate) struct ServiceConfig {
    pub shards: usize,
    pub ingest_capacity: usize,
    pub engine: EngineChoice,
    pub meta: MetadataService,
    pub contracts: Vec<crate::contracts::DeviceContracts>,
    pub clock: Arc<dyn Clock>,
}

impl ValidationService {
    pub(crate) fn start(
        config: ServiceConfig,
        source: Arc<dyn SnapshotSource + Send + Sync>,
    ) -> ValidationService {
        let shards = config.shards.max(1);
        let router = ShardRouter::new(shards);
        router.publish_contracts(config.contracts);

        let mut lanes = Vec::with_capacity(shards);
        let mut receivers: Vec<Receiver<Message>> = Vec::with_capacity(shards);
        for stores in router.iter() {
            let (tx, rx) = sync_channel(config.ingest_capacity.max(1));
            lanes.push(ShardLane {
                tx,
                submitted: AtomicU64::new(0),
                processed: AtomicU64::new(0),
                backpressure: stores.registry.counter(
                    "rcdc_service_backpressure_total",
                    "ingest submits that blocked on a full shard queue",
                    &[],
                ),
            });
            receivers.push(rx);
        }

        let inner = Arc::new(ServiceInner {
            router,
            meta: config.meta,
            clock: config.clock,
            lanes,
        });

        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let inner = inner.clone();
                let source = source.clone();
                let engine_choice = config.engine;
                thread::spawn(move || shard_worker(shard, rx, inner, source, engine_choice))
            })
            .collect();

        ValidationService { inner, workers }
    }

    /// Submit one ingest event, routed to its device's shard. When the
    /// shard's bounded queue is full the call **blocks** until the
    /// worker frees a slot — that stall is the back-pressure contract,
    /// counted in the shard's `rcdc_service_backpressure_total`.
    pub fn submit(&self, event: IngestEvent) {
        let shard = self.inner.router.shard_of(event.device());
        let lane = &self.inner.lanes[shard];
        lane.submitted.fetch_add(1, Ordering::Relaxed);
        let msg = Message::Event {
            event,
            enqueued_at: self.inner.clock.now(),
        };
        match lane.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                lane.backpressure.inc();
                if lane.tx.send(msg).is_err() {
                    panic!("shard worker hung up");
                }
            }
            Err(TrySendError::Disconnected(_)) => panic!("shard worker hung up"),
        }
    }

    /// Submit a [`IngestEvent::Pull`] for every device: one sweep of
    /// the fleet, spread across the shards.
    pub fn pull_all(&self, devices: &[DeviceId]) {
        for &d in devices {
            self.submit(IngestEvent::Pull(d));
        }
    }

    /// Block until every event submitted so far has been validated.
    /// New events submitted concurrently extend the wait; in the usual
    /// single-driver setup this is the end-of-round barrier.
    pub fn drain(&self) {
        for lane in &self.inner.lanes {
            while lane.processed.load(Ordering::Acquire) < lane.submitted.load(Ordering::Acquire) {
                thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// A read-side handle; clone freely across threads.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: self.inner.clone(),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.inner.router.shard_count()
    }

    /// The shard router (per-shard stores, partitioning, merged
    /// views) — the seam deterministic drivers like `simnet` build on.
    pub fn router(&self) -> &ShardRouter {
        &self.inner.router
    }

    /// Drain every queue and join the workers. Called automatically on
    /// drop; explicit calls make shutdown observable in tests.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        for lane in &self.inner.lanes {
            // A full queue blocks here until the worker drains it —
            // shutdown never drops queued work.
            let _ = lane.tx.send(Message::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ValidationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServiceHandle {
    /// The device's latest verdict, from its owning shard. The triple
    /// is cloned under the shard store's read lock, so `fib_hash`,
    /// `contract_epoch` and `report` always belong together even while
    /// the shard is mid-sweep. `None` until first validation.
    pub fn verdict(&self, device: DeviceId) -> Option<Verdict> {
        self.inner.router.verdict(device)
    }

    /// Devices currently alerting at `at_least` risk, across all
    /// shards, sorted by device id.
    pub fn alerts(&self, at_least: Risk) -> Vec<DeviceId> {
        self.inner.router.alerts(&self.inner.meta, at_least)
    }

    /// Fleet-wide metrics: every shard's registry (plus its device
    /// store's observer) labeled `shard="<index>"` and merged into one
    /// snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.router.merged_snapshot()
    }

    /// Aggregate solver statistics across all shards.
    pub fn solver_totals(&self) -> smtkit::SessionStats {
        self.inner.router.solver_totals()
    }

    /// Devices whose latest verdict has violations, across all shards.
    pub fn dirty_count(&self) -> usize {
        self.inner.router.dirty_count()
    }
}

/// One ingest event on its owning shard: a [`Pull`](IngestEvent::Pull)
/// hands the device's pulled image to [`DeviceStore::ingest`], a
/// [`Notify`](IngestEvent::Notify) re-judges the parked table with
/// [`DeviceStore::judge`] — the pipeline's one step, which decides hit
/// / incremental / full and writes table and verdict back.
///
/// A snapshot that does not decode, or that is another device's, is an
/// error, returned before the store is touched.
fn step(
    event: IngestEvent,
    source: &dyn SnapshotSource,
    store: &DeviceStore,
    engine: &dyn Engine,
    clock: &dyn Clock,
) -> Result<(), ParseError> {
    let device = event.device();
    match event {
        IngestEvent::Pull(_) => store.ingest(device, &source.pull(device), engine, clock)?,
        IngestEvent::Notify(_) => store.judge(device, None, engine, clock),
    };
    Ok(())
}

/// One shard's worker loop: drain the lane, [`step`], record.
fn shard_worker(
    shard: usize,
    rx: Receiver<Message>,
    inner: Arc<ServiceInner>,
    source: Arc<dyn SnapshotSource + Send + Sync>,
    engine_choice: EngineChoice,
) {
    let stores = inner.router.shard(shard);
    let engine = engine_choice.instantiate();
    let clock = inner.clock.as_ref();
    let latency = stores.registry.histogram(
        "rcdc_service_notify_latency_ns",
        "notification-to-verdict latency through the ingest queue",
        &[],
    );
    let events = |kind| {
        stores.registry.counter(
            "rcdc_service_events_total",
            "ingest events processed, by kind",
            &[("kind", kind)],
        )
    };
    let pulls = events("pull");
    let notifies = events("notify");
    let pull_errors = stores.registry.counter(
        "rcdc_service_pull_errors_total",
        "pulls dropped because the snapshot was undecodable or another device's",
        &[],
    );
    let queue_depth = stores.registry.gauge(
        "rcdc_service_queue_depth",
        "shard ingest-queue depth sampled at dequeue",
        &[],
    );

    let lane = &inner.lanes[shard];
    while let Ok(msg) = rx.recv() {
        let (event, enqueued_at) = match msg {
            Message::Event { event, enqueued_at } => (event, enqueued_at),
            Message::Stop => break,
        };
        // Submitted and not yet processed, less the event in hand (a
        // std receiver has no `len`; the lane's own counters do).
        let submitted = lane.submitted.load(Ordering::Acquire);
        let waiting = submitted - lane.processed.load(Ordering::Acquire) - 1;
        queue_depth.set(waiting as i64);
        match event {
            IngestEvent::Pull(_) => pulls.inc(),
            IngestEvent::Notify(_) => notifies.inc(),
        }
        match step(event, source.as_ref(), &stores.devices, engine.as_ref(), clock) {
            Ok(()) => latency.record((clock.now() - enqueued_at).as_nanos() as u64),
            Err(_) => pull_errors.inc(),
        }
        lane.processed.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy, without};
    use crate::pipeline::{SimulatedSource, ValidateMode};
    use crate::{TrieEngine, Validator};
    use bgpsim::Fib;
    use netprim::wire::WireSnapshot;
    use parking_lot::RwLock;

    fn devices(n: usize) -> Vec<DeviceId> {
        (0..n as u32).map(DeviceId).collect()
    }

    /// A source whose answers a test rewrites between sweeps, down to
    /// the wire snapshot — including ones no device would send.
    struct WireSource(RwLock<Vec<WireSnapshot>>);

    impl WireSource {
        fn new(fibs: &[Fib]) -> Arc<WireSource> {
            Arc::new(WireSource(RwLock::new(
                fibs.iter().map(Fib::to_wire).collect(),
            )))
        }

        fn set(&self, device: DeviceId, wire: WireSnapshot) {
            self.0.write()[device.0 as usize] = wire;
        }
    }

    impl SnapshotSource for WireSource {
        fn pull(&self, device: DeviceId) -> WireSnapshot {
            self.0.read()[device.0 as usize].clone()
        }
    }

    /// The one-shot sweep: pull the fleet once, wait for the verdicts.
    fn sweep(service: &ValidationService, devices: &[DeviceId]) {
        service.pull_all(devices);
        service.drain();
    }

    /// A one-shard service over `fibs`, swept once.
    fn swept(meta: &MetadataService, fibs: &[Fib]) -> ValidationService {
        let service =
            Validator::new(meta).build_service(Arc::new(SimulatedSource::new(fibs.to_vec())));
        sweep(&service, &devices(fibs.len()));
        service
    }

    #[test]
    fn sharded_sweep_matches_unsharded_and_batch_verdicts() {
        let (_f, fibs, _contracts, meta) = fig3_faulted();
        let ds = devices(fibs.len());
        for engine in [EngineChoice::Trie, EngineChoice::Smt] {
            let run = |shards| {
                let service = Validator::new(&meta)
                    .engine(engine)
                    .shards(shards)
                    .build_service(Arc::new(SimulatedSource::new(fibs.clone())));
                sweep(&service, &ds);
                let handle = service.handle();
                (
                    handle.dirty_count(),
                    handle.alerts(Risk::High),
                    ds.iter()
                        .map(|&d| handle.verdict(d).map(|v| (*v.report).clone()))
                        .collect::<Vec<_>>(),
                )
            };
            let single = run(1);
            assert_eq!(single, run(4), "{engine}");
            assert_eq!(single.0, 16, "fig3 fault set dirties 16 devices");
            // The batch loop and the service loop agree, device by
            // device.
            let batch = Validator::new(&meta).engine(engine).build().run(&fibs);
            let batch: Vec<_> = batch.reports.into_iter().map(Some).collect();
            assert_eq!(single.2, batch, "{engine}");
        }
    }

    #[test]
    fn sweep_over_healthy_network_is_clean() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let service = swept(&meta, &fibs);
        assert_eq!(service.router().shard(0).devices.judged(), fibs.len());
        assert_eq!(service.handle().dirty_count(), 0);
        // The trie-backed sweep never touches a solver.
        assert_eq!(
            service.handle().solver_totals(),
            smtkit::SessionStats::default()
        );
    }

    #[test]
    fn sweep_over_faulted_network_raises_alerts() {
        let (f, fibs, _contracts, meta) = fig3_faulted();
        let handle = swept(&meta, &fibs).handle();
        assert_eq!(handle.dirty_count(), 16);
        // High-risk alerts must include both ToRs (default degraded to
        // 2 hops is Medium; spine failures are High) — check spines.
        let high = handle.alerts(Risk::High);
        for d in f.d {
            assert!(high.contains(&d), "{d:?} must alert at high risk");
        }
        // Medium alerts include the ToRs with the degraded defaults.
        let medium = handle.alerts(Risk::Medium);
        assert!(medium.contains(&f.tors[0]));
        assert!(medium.contains(&f.tors[1]));
    }

    #[test]
    fn repeated_sweep_is_served_from_the_verdict_cache() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let service = swept(&meta, &fibs);
        let store = &service.router().shard(0).devices;
        let reports = || -> Vec<_> {
            ds.iter()
                .map(|&d| store.record(d).and_then(|r| r.verdict))
                .collect()
        };
        assert_eq!(store.mode_counts(), (ds.len(), 0, 0));
        let first = reports();

        // Same snapshots, same contracts: every verdict is one hash
        // comparison away.
        sweep(&service, &ds);
        assert_eq!(store.mode_counts(), (0, 0, ds.len()));
        assert_eq!(
            store
                .snapshot()
                .counter("rcdc_verdict_cache_hits_total", &[]),
            Some(ds.len() as u64)
        );
        for (a, b) in first.into_iter().zip(reports()) {
            assert_eq!(a.map(|v| v.report), b.map(|v| v.report));
        }
    }

    /// Mode counters accumulate across the sweeps of one service, and
    /// the queue-depth gauge is sampled (present) once a sweep ran.
    #[test]
    fn mode_counters_accumulate_across_sweeps() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let service = swept(&meta, &fibs);
        sweep(&service, &devices(fibs.len()));
        let snap = service.handle().snapshot();
        let mode = |m| snap.counter("rcdc_validate_mode_total", &[("mode", m), ("shard", "0")]);
        // Every device validates in full on the first sweep and is
        // served from the cache on the identical second sweep.
        assert_eq!(mode("full"), Some(fibs.len() as u64));
        assert_eq!(mode("cache_hit"), Some(fibs.len() as u64));
        assert_eq!(mode("incremental"), Some(0));
        assert!(snap
            .gauge("rcdc_service_queue_depth", &[("shard", "0")])
            .is_some());
    }

    #[test]
    fn churned_device_takes_the_incremental_path() {
        let (f, fibs, contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let source = WireSource::new(&fibs);
        let service = Validator::new(&meta).build_service(source.clone());
        sweep(&service, &ds);

        // Drop one specific from one ToR between sweeps.
        let tor = f.tors[0];
        let churned = without(&fibs[tor.0 as usize], f.prefixes[1]);
        source.set(tor, churned.to_wire());
        sweep(&service, &ds);
        let store = &service.router().shard(0).devices;
        assert_eq!(store.mode_counts(), (0, 1, ds.len() - 1));
        let v = store.record(tor).unwrap().verdict.unwrap();
        assert_eq!(v.mode, ValidateMode::Incremental);
        // The incremental verdict matches a from-scratch validation.
        let fresh = TrieEngine::new().validate_device(&churned, &contracts[tor.0 as usize]);
        assert_eq!(*v.report, fresh);
        assert!(!v.report.is_clean());
    }

    #[test]
    fn republished_contracts_invalidate_cached_verdicts() {
        let (f, fibs, contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let service = swept(&meta, &fibs);

        // Republishing bumps the device's contract epoch, so the cached
        // verdict — keyed on (fib hash, epoch) — no longer applies even
        // though the FIB is unchanged.
        let tor = f.tors[0];
        let store = &service.router().shard(0).devices;
        let mode = || store.record(tor).unwrap().verdict.unwrap().mode;
        store.publish(tor, contracts[tor.0 as usize].clone());
        sweep(&service, &ds);
        assert_eq!(mode(), ValidateMode::Full);
        assert_eq!(store.mode_counts(), (1, 0, ds.len() - 1));
        // The re-check under the fresh epoch repopulates the cache.
        sweep(&service, &ds);
        assert_eq!(mode(), ValidateMode::CacheHit);
    }

    #[test]
    fn an_unchanged_repull_is_decided_on_its_bytes() {
        let (f, fibs, contracts, meta) = fig3_healthy();
        let tor = f.tors[0];
        let table = &fibs[tor.0 as usize];
        // Hashes anchor deltas and key verdicts: the Figure-3 ToR-1
        // table hashes as it always has.
        assert_eq!(table.content_hash(), 0x7de4_ca1d_3707_a07e);
        let source = WireSource::new(&fibs);
        let service = Validator::new(&meta).build_service(source.clone());
        let store = &service.router().stores(tor).devices;
        let pull = |image: Option<WireSnapshot>| {
            if let Some(image) = image {
                source.set(tor, image);
            }
            service.submit(IngestEvent::Pull(tor));
            service.drain();
            let v = store.record(tor).unwrap().verdict.unwrap();
            (v.mode, v.fib_hash)
        };
        let parked = || store.record(tor).unwrap().table.unwrap().0;
        let (healthy, flipped) = (table.to_wire(), without(table, f.prefixes[1]));
        let hash = table.content_hash();
        assert_eq!(pull(None), (ValidateMode::Full, hash));
        let before = parked();
        assert_eq!(pull(None), (ValidateMode::CacheHit, hash));
        assert!(Arc::ptr_eq(&before, &parked()), "a hit decodes nothing");
        let flip = (ValidateMode::Incremental, flipped.content_hash());
        assert_eq!(pull(Some(flipped.to_wire())), flip);
        assert_eq!(pull(Some(healthy)), (ValidateMode::Incremental, hash));
        // A republish retires the verdict: the same bytes are judged in
        // full, and only then stand again.
        store.publish(tor, contracts[tor.0 as usize].clone());
        assert_eq!(pull(None), (ValidateMode::Full, hash));
        assert_eq!(pull(None), (ValidateMode::CacheHit, hash));
    }

    #[test]
    fn bad_pull_is_counted_and_dropped_without_killing_the_shard() {
        let (f, fibs, _contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let source = WireSource::new(&fibs);
        let service = Validator::new(&meta)
            .shards(2)
            .build_service(source.clone());
        sweep(&service, &ds);
        let handle = service.handle();
        let (bad, other) = (f.tors[0], f.tors[1]);
        let store = &service.router().stores(bad).devices;
        let prior = handle.verdict(bad).unwrap();
        let shard = service.router().shard_of(bad).to_string();
        let counter = |name| handle.snapshot().counter(name, &[("shard", &shard)]);
        let errors = || counter("rcdc_service_pull_errors_total");
        assert_eq!(errors(), Some(0), "exported before the first error");
        let hits = counter("rcdc_verdict_cache_hits_total");

        // The bad device's own table re-encoded three ways no device
        // sends: its first entry named twice, its first two entries out
        // of order, and the unchanged image under another device's id.
        let table = &fibs[bad.0 as usize];
        let rules = || table.entries().iter().map(|e| (e.prefix, table.next_hops(e)));
        let first = table.entries()[0].prefix;
        let swapped = rules().skip(1).take(1).chain(rules().take(1)).chain(rules().skip(2));
        let mut foreign = table.to_wire().as_bytes().to_vec();
        foreign[4..8].copy_from_slice(&other.0.to_be_bytes());
        let images = [
            (
                WireSnapshot::write(bad.0, rules().take(1).chain(rules())),
                format!("prefix {first} named twice"),
            ),
            (
                WireSnapshot::write(bad.0, swapped),
                format!("prefix {first} out of order"),
            ),
            (
                WireSnapshot::from_bytes(foreign).unwrap(),
                format!("pull of device {} answered for device {}", bad.0, other.0),
            ),
        ];
        for (n, (image, cause)) in images.into_iter().enumerate() {
            let (engine, clock) = (TrieEngine::new(), RealClock::new());
            let err = store.ingest(bad, &image, &engine, &clock).unwrap_err();
            assert!(err.to_string().contains(&cause), "{err}");
            source.set(bad, image);
            service.submit(IngestEvent::Pull(bad));
            service.drain();
            assert_eq!(errors(), Some(n as u64 + 1));
        }
        // None of them was a hit, and nothing was parked under either
        // device's key.
        assert_eq!(counter("rcdc_verdict_cache_hits_total"), hits);
        let parked = |d: DeviceId| {
            let record = service.router().stores(d).devices.record(d).unwrap();
            record.table.unwrap().0.content_hash()
        };
        assert_eq!(parked(other), fibs[other.0 as usize].content_hash());

        // Through all three, the bad device keeps serving its prior
        // verdict, and the rest of the fleet sweeps on.
        assert_eq!(parked(bad), prior.fib_hash);
        let served = handle.verdict(bad).unwrap();
        assert_eq!(
            (served.fib_hash, served.mode, served.report),
            (prior.fib_hash, prior.mode, prior.report)
        );
        sweep(&service, &ds);
        for &d in &ds {
            assert!(handle.verdict(d).is_some(), "{d:?} lost its verdict");
        }
    }

    #[test]
    fn notify_revalidates_parked_snapshot() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let service = Validator::new(&meta)
            .shards(2)
            .build_service(Arc::new(SimulatedSource::new(fibs.clone())));
        service.pull_all(&ds);
        service.drain();
        let handle = service.handle();
        assert!(handle.alerts(Risk::Low).is_empty());
        let before = handle.verdict(ds[0]).unwrap();

        // A notify with no new snapshot is a cache hit, not a recompute.
        service.submit(IngestEvent::Notify(ds[0]));
        service.drain();
        let after = handle.verdict(ds[0]).unwrap();
        assert_eq!(before.fib_hash, after.fib_hash);
        let snap = handle.snapshot();
        let shard = service.router().shard_of(ds[0]).to_string();
        assert_eq!(
            snap.counter(
                "rcdc_service_events_total",
                &[("kind", "notify"), ("shard", &shard)]
            ),
            Some(1)
        );
        assert!(
            snap.counter("rcdc_verdict_cache_hits_total", &[("shard", &shard)])
                .unwrap()
                >= 1
        );
        // A service that never stalled says so, on every shard.
        for shard in ["0", "1"] {
            assert_eq!(
                snap.counter("rcdc_service_backpressure_total", &[("shard", shard)]),
                Some(0)
            );
        }
    }

    #[test]
    fn table_pulled_before_contracts_is_judged_on_notify() {
        let (f, fibs, contracts, meta) = fig3_healthy();
        let tor = f.tors[0];
        // A service with no contracts published for anyone.
        let service = Validator::with_contracts(Vec::new())
            .metadata(&meta)
            .build_service(Arc::new(SimulatedSource::new(fibs.clone())));
        let handle = service.handle();
        let store = &service.router().stores(tor).devices;
        let events = || {
            let snap = handle.snapshot();
            ["pull", "notify"].map(|kind| {
                snap.counter("rcdc_service_events_total", &[("kind", kind), ("shard", "0")])
            })
        };

        // The pull parks the table and yields no result.
        service.submit(IngestEvent::Pull(tor));
        service.drain();
        assert!(handle.verdict(tor).is_none());
        let (parked, hash) = store.record(tor).unwrap().table.unwrap();
        assert_eq!(hash, fibs[tor.0 as usize].content_hash());
        assert_eq!(store.judged(), 0);

        // Once contracts are published, a notify judges that very
        // table in full, without a new pull.
        store.publish(tor, contracts[tor.0 as usize].clone());
        service.submit(IngestEvent::Notify(tor));
        service.drain();
        let v = handle.verdict(tor).unwrap();
        assert_eq!((v.mode, v.fib_hash), (ValidateMode::Full, hash));
        assert!(v.report.is_clean() && v.report.contracts_checked > 0);
        assert_eq!(events(), [Some(1), Some(1)]);
        let (still, _) = store.record(tor).unwrap().table.unwrap();
        assert!(Arc::ptr_eq(&parked, &still), "the notify re-parked nothing");
    }

    #[test]
    fn backpressure_blocks_and_counts_instead_of_dropping() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        // Capacity 1 with slow pulls: most submits hit a full lane.
        let source = SimulatedSource::new(fibs.clone())
            .with_latency(Duration::from_millis(2), Duration::from_millis(2));
        let service = Validator::new(&meta)
            .shards(1)
            .ingest_capacity(1)
            .build_service(Arc::new(source));
        // A reader samples the dequeue-time depth gauge beside the
        // sweeps: the lane's `submitted − processed − 1`.
        let handle = service.handle();
        let sweeping = std::sync::atomic::AtomicBool::new(true);
        let depths = thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut depths = Vec::new();
                while sweeping.load(Ordering::Acquire) {
                    let snap = handle.snapshot();
                    depths.extend(snap.gauge("rcdc_service_queue_depth", &[("shard", "0")]));
                    thread::sleep(Duration::from_micros(500));
                }
                depths
            });
            for _ in 0..3 {
                service.pull_all(&ds);
            }
            service.drain();
            sweeping.store(false, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(depths.iter().all(|&d| d >= 0), "{depths:?}");
        assert!(depths.iter().any(|&d| d > 0), "a capacity-1 lane behind slow pulls backs up");
        let snap = handle.snapshot();
        let stalls = snap.counter("rcdc_service_backpressure_total", &[("shard", "0")]);
        assert!(stalls > Some(0), "capacity-1 lane must report stalls");
        assert_eq!(
            snap.counter(
                "rcdc_service_events_total",
                &[("kind", "pull"), ("shard", "0")]
            ),
            Some(3 * ds.len() as u64),
            "every submit processed despite the full queue"
        );
        assert!(snap
            .histogram("rcdc_service_notify_latency_ns", &[("shard", "0")])
            .unwrap()
            .p99()
            .is_some());
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (_f, fibs, _contracts, meta) = fig3_healthy();
        let ds = devices(fibs.len());
        let mut service = Validator::new(&meta)
            .shards(2)
            .build_service(Arc::new(SimulatedSource::new(fibs.clone())));
        let handle = service.handle();
        service.pull_all(&ds);
        service.shutdown();
        // Every queued pull was validated before the workers exited.
        for &d in &ds {
            assert!(handle.verdict(d).is_some());
        }
    }
}
