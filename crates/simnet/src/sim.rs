//! The deterministic simulation runner.
//!
//! [`run_script`] executes a [`Script`] against the *real* live
//! pipeline — a [`rcdc::pipeline::DeviceStore`] per shard and its one
//! step, [`rcdc::pipeline::DeviceStore::judge`] — under a virtual clock
//! and a single-threaded event scheduler. Snapshots
//! travel as real wire frames (`FIB1` full snapshots or hash-anchored
//! `FIBD` deltas); the injected faults of the script act on those
//! frames. A `FIB1` frame enters the store the way a service pull does,
//! through [`rcdc::pipeline::DeviceStore::ingest`] (hash first, decode
//! on a miss); a delta is applied to the parked base. The receiver
//! recovers from an unusable frame by falling back to the full
//! snapshot, exactly as §2.6.1's puller would re-pull.
//!
//! After the script drains, a clean settle sweep pulls every device
//! once more and the convergence invariants are checked:
//!
//! 1. **convergence** — every record's final verdict equals a clean
//!    full validation of the device's final true table;
//! 2. **cache-freshness** — no record's verdict is keyed to a
//!    superseded `(fib_hash, epoch)` pair;
//! 3. **counter-balance** — `hits + misses == lookups` and
//!    `ingested == completed`;
//! 4. **incremental-agreement** — the delta path over the script's
//!    net churn reproduces the full verdict bit for bit.

use crate::script::{Action, ChurnKind, DeliveryFault, Script};
use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::{DeviceId, MetadataService};
use netprim::wire::{frame_kind, FibDelta, FrameKind, WireSnapshot};
use obskit::{Registry, SampleValue};
use rcdc::clock::VirtualClock;
use rcdc::contracts::{generate_contracts, DeviceContracts};
use rcdc::engine::{trie::TrieEngine, Engine};
use rcdc::pipeline::ValidateMode;
use rcdc::shard::ShardRouter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The static world a simulation runs in: the Figure-3 fabric, its
/// healthy converged FIBs, and the generated contracts. Built once and
/// shared across a whole seed sweep (and across shrink attempts).
pub struct SimEnv {
    meta: MetadataService,
    healthy: Vec<Fib>,
    contracts: Vec<DeviceContracts>,
}

impl SimEnv {
    /// The Figure-3 fabric with healthy BGP-converged tables.
    pub fn figure3() -> SimEnv {
        let f = dctopo::generator::figure3();
        let healthy = simulate(&f.topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        SimEnv {
            meta,
            healthy,
            contracts,
        }
    }

    /// Number of devices in the fabric (script device indices are
    /// taken modulo this).
    pub fn device_count(&self) -> usize {
        self.healthy.len()
    }

    /// The fabric's metadata service.
    pub fn meta(&self) -> &MetadataService {
        &self.meta
    }
}

/// Deliberate soundness flaws the runner can emulate, proving the
/// invariant checks (and the shrinker behind them) have teeth. Not a
/// production switch: only the self-tests and the difftest `sim`
/// oracle's meta-check turn one on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flaws {
    /// Emulate a verdict keyed on the FIB hash alone: a record's
    /// verdict is left standing even after a contract republish bumped
    /// the epoch — the §2.6.1 staleness bug the `(fib_hash, epoch)`
    /// key exists to prevent.
    pub stale_epoch_cache: bool,
}

/// What a clean run reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// Script events executed.
    pub events: usize,
    /// Wire frames delivered (duplicates counted; drops not).
    pub deliveries: u64,
    /// Deliveries that recovered via the full-snapshot fallback.
    pub fallbacks: u64,
    /// Validator notifications that produced a verdict.
    pub completed: u64,
    /// Verdicts produced by full validation.
    pub full: u64,
    /// Verdicts produced by the incremental delta path.
    pub incremental: u64,
    /// Verdicts served from the cache.
    pub cache_hits: u64,
}

/// One broken convergence invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke (stable name).
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated: {}", self.invariant, self.detail)
    }
}

/// A frame the receiver could use: an image for the store to hash and
/// decode itself, or the table a delta rebuilt from the parked base.
enum Received {
    Image(WireSnapshot),
    Table(Fib),
}

/// A task in the virtual-time scheduler.
enum Task {
    Script(Action),
    Deliver {
        device: usize,
        frame: Vec<u8>,
        /// The full snapshot behind the frame — what a fallback
        /// re-pull of this delivery returns.
        payload: Fib,
    },
}

/// Heap entry ordered by (time, insertion sequence) so equal-time
/// tasks run in a deterministic FIFO order.
struct Scheduled {
    at_ms: u64,
    seq: u64,
    task: Task,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ms, self.seq) == (other.at_ms, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ms, self.seq).cmp(&(other.at_ms, other.seq))
    }
}

struct Sim<'e> {
    env: &'e SimEnv,
    flaws: Flaws,
    /// Shared metric registry: pipeline-component metrics bridge in,
    /// simulation-level counters (`simnet_*`) register directly.
    registry: Registry,
    /// The network's true current table per device.
    truth: Vec<Fib>,
    /// Capture history per device (for stale re-deliveries).
    history: Vec<Vec<Fib>>,
    /// The puller's record of the last table each receiver acked: the
    /// table its store parked.
    acked: Vec<Option<Arc<Fib>>>,
    /// The device stores, partitioned across shards exactly as the
    /// live [`rcdc::service::ValidationService`] partitions them. The
    /// scheduler stays single-threaded — sharding is a partition of
    /// the device space, so one deterministic event loop drives all
    /// shards without losing reproducibility.
    router: ShardRouter,
    /// Verdicts completed per shard (the per-shard half of the
    /// counter-balance invariant).
    completed_per_shard: Vec<u64>,
    clock: VirtualClock,
    engine: TrieEngine,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    out: SimOutcome,
}

impl<'e> Sim<'e> {
    fn new(env: &'e SimEnv, flaws: Flaws, registry: Registry, shards: usize) -> Sim<'e> {
        let router = ShardRouter::new(shards);
        router.publish_contracts(env.contracts.clone());
        let n = env.healthy.len();
        let completed_per_shard = vec![0; router.shard_count()];
        Sim {
            env,
            flaws,
            registry,
            truth: env.healthy.clone(),
            history: vec![Vec::new(); n],
            acked: vec![None; n],
            router,
            completed_per_shard,
            clock: VirtualClock::new(),
            engine: TrieEngine::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            out: SimOutcome::default(),
        }
    }

    fn schedule(&mut self, at_ms: u64, task: Task) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at_ms, seq, task }));
    }

    /// Run every scheduled task in virtual-time order.
    fn drain(&mut self) -> u64 {
        let mut last = 0;
        while let Some(Reverse(s)) = self.heap.pop() {
            last = s.at_ms;
            self.clock.advance_to(Duration::from_millis(s.at_ms));
            match s.task {
                Task::Script(action) => self.run_action(s.at_ms, action),
                Task::Deliver {
                    device,
                    frame,
                    payload,
                } => self.deliver(device, &frame, payload),
            }
        }
        last
    }

    fn run_action(&mut self, now_ms: u64, action: Action) {
        self.out.events += 1;
        let n = self.truth.len();
        match action {
            Action::Pull {
                device,
                latency_ms,
                fault,
            } => {
                let device = device as usize % n;
                self.pull(now_ms, device, latency_ms, fault);
            }
            Action::Churn { device, kind } => {
                let device = device as usize % n;
                self.truth[device] = churned(&self.truth[device], &self.env.healthy[device], kind);
            }
            Action::Republish { device } => {
                let device = device as usize % n;
                let id = DeviceId(device as u32);
                self.router
                    .stores(id)
                    .devices
                    .publish(id, self.env.contracts[device].clone());
            }
        }
    }

    /// Count one injected fault under `simnet_faults_total{kind=...}`.
    fn count_fault(&self, fault: DeliveryFault) {
        let kind = match fault {
            DeliveryFault::None => return,
            DeliveryFault::Drop => "drop",
            DeliveryFault::Duplicate { .. } => "duplicate",
            DeliveryFault::Stale { .. } => "stale",
            DeliveryFault::CorruptDelta { .. } => "corrupt_delta",
        };
        self.registry
            .counter(
                "simnet_faults_total",
                "injected delivery faults by kind",
                &[("kind", kind)],
            )
            .inc();
    }

    /// The puller side: capture the device's current table, frame it
    /// (delta against the last acked table when one exists, full
    /// snapshot otherwise), apply the wire fault, and schedule the
    /// delivery after the pull latency.
    fn pull(&mut self, now_ms: u64, device: usize, latency_ms: u64, fault: DeliveryFault) {
        self.count_fault(fault);
        let capture = self.truth[device].clone();
        self.history[device].push(capture.clone());
        let payload = match fault {
            DeliveryFault::Stale { age } => {
                let h = &self.history[device];
                h[h.len() - 1 - (age as usize).min(h.len() - 1)].clone()
            }
            _ => capture,
        };
        if matches!(fault, DeliveryFault::Drop) {
            return; // the frame is lost; no delivery, no ack
        }
        let mut frame: Vec<u8> = match &self.acked[device] {
            // An acked base exists: ship the (possibly empty) delta.
            Some(base) => Fib::delta(base, &payload).encode().to_vec(),
            None => payload.to_wire().as_bytes().to_vec(),
        };
        if let DeliveryFault::CorruptDelta { byte } = fault {
            // Only delta frames are corrupted: they are hash-anchored,
            // so the receiver can always detect the damage and recover.
            if frame_kind(&frame) == Some(FrameKind::Delta) {
                let i = byte as usize % frame.len();
                frame[i] ^= 0x5A;
            }
        }
        let arrive = now_ms + latency_ms;
        if let DeliveryFault::Duplicate { gap_ms } = fault {
            self.schedule(
                arrive + gap_ms,
                Task::Deliver {
                    device,
                    frame: frame.clone(),
                    payload: payload.clone(),
                },
            );
        }
        self.schedule(
            arrive,
            Task::Deliver {
                device,
                frame,
                payload,
            },
        );
    }

    /// The receiver side: hand a snapshot frame to the store as its
    /// image, apply a delta against the parked base, fall back to the
    /// full snapshot when anything about the frame is unusable, and
    /// judge on the device's owning shard — the same step the service's
    /// shard workers run.
    fn deliver(&mut self, device: usize, frame: &[u8], payload: Fib) {
        self.out.deliveries += 1;
        self.registry
            .counter(
                "simnet_deliveries_total",
                "wire frames delivered to the receiver",
                &[],
            )
            .inc();
        let id = DeviceId(device as u32);
        let shard = self.router.shard_of(id);
        let store = &self.router.shard(shard).devices;
        let record = store.record(id).unwrap_or_default();
        let received = match frame_kind(frame) {
            Some(FrameKind::Snapshot) => WireSnapshot::from_bytes(frame).ok().map(Received::Image),
            Some(FrameKind::Delta) => FibDelta::decode(frame)
                .ok()
                .and_then(|d| {
                    let (base, _) = record.table.as_ref()?;
                    base.apply_delta(&d).ok()
                })
                .map(Received::Table),
            None => None,
        };
        if self.flaws.stale_epoch_cache {
            // Emulated bug: a verdict whose FIB hash matches stands,
            // whatever contract epoch it was judged under.
            let hash = match &received {
                Some(Received::Image(image)) => image.content_hash().ok(),
                Some(Received::Table(fib)) => Some(fib.content_hash()),
                None => Some(payload.content_hash()),
            };
            if record.verdict.zip(hash).is_some_and(|(v, hash)| v.fib_hash == hash) {
                self.acked[device] = record.table.map(|(table, _)| table);
                return;
            }
        }
        let judged = match received {
            Some(Received::Image(image)) => store.ingest(id, &image, &self.engine, &self.clock).ok(),
            Some(Received::Table(fib)) => Some(store.judge(id, Some(fib), &self.engine, &self.clock)),
            None => None,
        };
        let result = match judged {
            Some(result) => result,
            None => {
                // Full-snapshot fallback: re-pull the table behind the
                // unusable frame.
                self.out.fallbacks += 1;
                self.registry
                    .counter(
                        "simnet_fallbacks_total",
                        "deliveries recovered via the full-snapshot fallback",
                        &[],
                    )
                    .inc();
                store.judge(id, Some(payload), &self.engine, &self.clock)
            }
        };
        self.acked[device] = store.record(id).and_then(|r| r.table).map(|(table, _)| table);
        if let Some(result) = result {
            self.out.completed += 1;
            self.completed_per_shard[shard] += 1;
            match result.mode {
                ValidateMode::Full => self.out.full += 1,
                ValidateMode::Incremental => self.out.incremental += 1,
                ValidateMode::CacheHit => self.out.cache_hits += 1,
            }
        }
    }

    /// The clean settle sweep: one faultless pull of every device, so
    /// eventual convergence is observable no matter what the script's
    /// faults left behind.
    fn settle(&mut self, after_ms: u64) {
        for device in 0..self.truth.len() {
            self.pull(after_ms + 1, device, 0, DeliveryFault::None);
        }
        self.drain();
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // Wall-clock timing of the whole convergence check (records on
        // drop, so both the Ok and Err exits are measured).
        let _span = self
            .registry
            .histogram(
                "simnet_convergence_check_latency_ns",
                "wall-clock duration of the post-settle invariant check in nanoseconds",
                &[],
            )
            .start_timer();
        let n = self.truth.len();
        for device in 0..n {
            let id = DeviceId(device as u32);
            let record = self.router.stores(id).devices.record(id);
            let record = record.expect("every device has published contracts");
            let (contracts, epoch) = record
                .contracts
                .expect("every device has published contracts");
            let expected = self.engine.validate_device(&self.truth[device], &contracts);

            // 1. Convergence: the owning shard's last word on the
            // device equals a clean full validation of its true table.
            let got = record.verdict.ok_or_else(|| InvariantViolation {
                invariant: "convergence",
                detail: format!("device {device}: no verdict after settle sweep"),
            })?;
            if *got.report != expected {
                return Err(InvariantViolation {
                    invariant: "convergence",
                    detail: format!(
                        "device {device}: final verdict diverges from a clean full sweep \
                         (got {} violations via {:?}, expected {})",
                        got.report.violations.len(),
                        got.mode,
                        expected.violations.len()
                    ),
                });
            }

            // 2. Cache freshness: no verdict outlives its
            // (fib_hash, epoch) key.
            let truth_hash = self.truth[device].content_hash();
            if got.fib_hash != truth_hash || got.contract_epoch != epoch {
                return Err(InvariantViolation {
                    invariant: "cache-freshness",
                    detail: format!(
                        "device {device}: record holds ({:#x}, epoch {}), current state is \
                         ({truth_hash:#x}, epoch {epoch}) — a superseded verdict survived",
                        got.fib_hash, got.contract_epoch
                    ),
                });
            }

            // 4. Incremental/full agreement over the script's net
            // churn, exercised directly on the engine.
            let prior = self.engine.validate_device(&self.env.healthy[device], &contracts);
            let delta = Fib::delta(&self.env.healthy[device], &self.truth[device]);
            let incr = self
                .engine
                .validate_delta(&self.truth[device], &contracts, &delta, &prior);
            if incr != expected {
                return Err(InvariantViolation {
                    invariant: "incremental-agreement",
                    detail: format!(
                        "device {device}: validate_delta over net churn ({} rules) diverges \
                         from validate_device",
                        delta.patch.len()
                    ),
                });
            }
        }

        // 3. Counter balance, read through the unified metrics API —
        // checked per shard (each shard's own stores balance) and
        // globally (the shard sums equal the run's totals).
        let mut total_lookups = 0;
        let mut total_hits = 0;
        let mut total_misses = 0;
        let mut total_ingested = 0;
        for (shard, stores) in self.router.iter().enumerate() {
            let snap = stores.devices.snapshot();
            let counter = |name| snap.counter(name, &[]).unwrap_or(0);
            let lookups = counter("rcdc_verdict_cache_lookups_total");
            let hits = counter("rcdc_verdict_cache_hits_total");
            let misses = counter("rcdc_verdict_cache_misses_total");
            if hits + misses != lookups {
                return Err(InvariantViolation {
                    invariant: "counter-balance",
                    detail: format!(
                        "shard {shard}: cache lookups {lookups} != hits {hits} + misses {misses}"
                    ),
                });
            }
            let ingested = counter("rcdc_analytics_ingested_total");
            if ingested != self.completed_per_shard[shard] {
                return Err(InvariantViolation {
                    invariant: "counter-balance",
                    detail: format!(
                        "shard {shard}: verdicts ingested {ingested} != completed \
                         validations {}",
                        self.completed_per_shard[shard]
                    ),
                });
            }
            total_lookups += lookups;
            total_hits += hits;
            total_misses += misses;
            total_ingested += ingested;
        }
        if total_hits + total_misses != total_lookups {
            return Err(InvariantViolation {
                invariant: "counter-balance",
                detail: format!(
                    "global: cache lookups {total_lookups} != hits {total_hits} + misses \
                     {total_misses}"
                ),
            });
        }
        if total_ingested != self.out.completed {
            return Err(InvariantViolation {
                invariant: "counter-balance",
                detail: format!(
                    "global: verdicts ingested {total_ingested} != completed validations {}",
                    self.out.completed
                ),
            });
        }
        Ok(())
    }
}

/// Apply one churn to a device's true table.
fn churned(current: &Fib, healthy: &Fib, kind: ChurnKind) -> Fib {
    match kind {
        ChurnKind::Restore => healthy.clone(),
        ChurnKind::DropRoute { index } => {
            let eligible: Vec<_> = current
                .entries()
                .iter()
                .filter(|e| !e.local)
                .map(|e| e.prefix)
                .collect();
            if eligible.is_empty() {
                return current.clone();
            }
            let target = eligible[index as usize % eligible.len()];
            let mut b = FibBuilder::new(current.device());
            for e in current.entries() {
                if e.prefix == target {
                    continue;
                }
                b.push(e.prefix, current.next_hops(e).to_vec(), e.local);
            }
            b.finish()
        }
        ChurnKind::NarrowEcmp { index } => {
            let eligible: Vec<_> = current
                .entries()
                .iter()
                .filter(|e| current.next_hops(e).len() > 1)
                .map(|e| e.prefix)
                .collect();
            if eligible.is_empty() {
                return current.clone();
            }
            let target = eligible[index as usize % eligible.len()];
            let mut b = FibBuilder::new(current.device());
            for e in current.entries() {
                let mut hops = current.next_hops(e).to_vec();
                if e.prefix == target {
                    hops.truncate(1);
                }
                b.push(e.prefix, hops, e.local);
            }
            b.finish()
        }
    }
}

/// Execute a script against a fresh pipeline in `env` and check the
/// convergence invariants. Fully deterministic: same env + script →
/// same outcome, including every counter.
pub fn run_script(env: &SimEnv, script: &Script) -> Result<SimOutcome, InvariantViolation> {
    run_script_with(env, script, Flaws::default())
}

/// [`run_script`] with emulated soundness flaws — the self-test hook
/// proving the invariants catch real staleness bugs.
pub fn run_script_with(
    env: &SimEnv,
    script: &Script,
    flaws: Flaws,
) -> Result<SimOutcome, InvariantViolation> {
    run_script_observed(env, script, flaws, &Registry::new())
}

/// [`run_script_with`], exporting metrics into `registry`: the
/// simulation's own `simnet_*` families plus the device stores'
/// `rcdc_*` counter families, bridged in after the run.
pub fn run_script_observed(
    env: &SimEnv,
    script: &Script,
    flaws: Flaws,
    registry: &Registry,
) -> Result<SimOutcome, InvariantViolation> {
    run_script_sharded(env, script, flaws, registry, 1)
}

/// [`run_script_observed`] over `shards` shard-partitioned stores:
/// the device space splits exactly as the live
/// [`rcdc::service::ValidationService`] splits it, one deterministic
/// single-threaded scheduler drives every shard, and the convergence
/// invariants are checked per shard and globally. `shards = 1` is the
/// pre-sharding runner, unchanged.
pub fn run_script_sharded(
    env: &SimEnv,
    script: &Script,
    flaws: Flaws,
    registry: &Registry,
    shards: usize,
) -> Result<SimOutcome, InvariantViolation> {
    let mut sim = Sim::new(env, flaws, registry.clone(), shards);
    for e in &script.events {
        sim.schedule(e.at_ms, Task::Script(e.action));
    }
    let last = sim.drain();
    sim.settle(last);
    let result = sim.check_invariants();
    // Accumulate the per-run pipeline counters (summed across shards)
    // into the (possibly sweep-shared) registry — even when an
    // invariant broke, the counters are part of the evidence.
    // Accumulation rather than handle adoption: each script runs fresh
    // stores, but a seed sweep shares one registry across all of them.
    for stores in sim.router.iter() {
        for family in stores.devices.snapshot().families {
            for sample in family.samples {
                let SampleValue::Counter(value) = sample.value else {
                    continue;
                };
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                registry
                    .counter(&family.name, &family.help, &labels)
                    .add(value);
            }
        }
    }
    result?;
    Ok(sim.out)
}
