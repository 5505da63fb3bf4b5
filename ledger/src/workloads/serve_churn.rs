//! `serve_churn` — the always-on sharded validation service (§2.6.1)
//! under route churn: `build_service` with 2 shards and an ingest
//! capacity of 64 over the 2744-device fabric, a working set of 512
//! devices strided across the fleet (contracts only for those, as
//! E16), and **zero** pull latency: the benchmark's own
//! `SnapshotSource` hands out pre-built snapshots.
//!
//! Why: per event the service pays wire decode, content hash, delta
//! and a queue hop, and the engine almost nothing — the opposite
//! balance to `cold_sweep`.
//!
//! The seeded event stream walks a seeded permutation of the working
//! set cyclically; 75 % of events re-pull an unchanged table (the
//! cache-hit path, which still decodes and hashes) and 25 % flip the
//! device between its healthy table and one with a seed-chosen route
//! withdrawn (the incremental path). Two events for one device are a
//! whole working set apart, further than the queues can hold, so the
//! mode each event takes is exact for a seed.
//!
//! * `saturate` — closed loop: one driver submits round after round
//!   (the whole working set once), blocking on back-pressure, and
//!   drains at each round's end. The median round gives `verdict_s`
//!   (the time to bring every verdict of the working set up to date)
//!   and `ops_per_s`.
//! * `paced` — traced runs only; open loop at the fixed [`RATE_HZ`]
//!   with seeded exponential gaps. Each flipped event is timed from
//!   its **due** time until `ServiceHandle::verdict` shows the
//!   expected table hash; the driver polls outstanding flips while
//!   idle and sleeps otherwise, and every 100 events also queries the
//!   sink, so reads run beside writes. Gives the per-layer
//!   `service.verdict_p50_ms` and its tail. A latency of under a
//!   millisecond made of thread wake-ups spreads 25–35 % run to run
//!   on this box, which no bound can carry, so it gates nothing.
//!
//! Threads: 2 shard workers and 1 driver that blocks or sleeps, on a
//! 2-core box — per-core program cost, not scheduler luck.

use crate::fabric::{self, FABRIC_3K};
use crate::harness::{timed, Checks, Config, Layers, Rep, Workload};
use crate::rng::{open_loop_schedule, Rng};
use crate::stats::{median, tail};
use crate::trace::{subtree_self_times, Tracer};
use bgpsim::{simulate_with, Fib, SimConfig, SimOptions};
use dctopo::{build_clos, DeviceId, MetadataService};
use netprim::wire::WireSnapshot;
use rcdc::contracts::{ContractGenerator, DeviceContracts};
use rcdc::pipeline::SnapshotSource;
use rcdc::{EngineChoice, IngestEvent, Risk, ServiceHandle, ValidationService, Validator};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use validatedc::serve::drop_route;

/// The open-loop rate of the `paced` phase: about half of what the
/// `saturate` phase sustained at the commit that defined the
/// benchmark, then frozen. A cheaper event lowers utilisation at this
/// rate, so queue wait and the latency tail fall before the median.
pub const RATE_HZ: f64 = 1600.0;

const SHARDS: usize = 2;
const INGEST_CAPACITY: usize = 64;
const FLIP_SHARE: f64 = 0.25;
const SINK_QUERY_EVERY: usize = 100;
/// How long the idle driver sleeps between polls of outstanding flips.
const POLL: Duration = Duration::from_micros(100);
/// A flip whose verdict has not appeared this long after the schedule
/// ended counts as failed.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(5);

struct Sizes {
    working_set: usize,
    c1_events: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            working_set: 32,
            c1_events: 40,
        }
    } else {
        Sizes {
            working_set: 512,
            c1_events: 400,
        }
    }
}

/// Hands the shard workers pre-built snapshots: the table each working
/// device currently holds, healthy (0) or withdrawn (1).
struct LedgerSource {
    /// Device id → index into the working set.
    index_of: Vec<u32>,
    snapshots: [Vec<WireSnapshot>; 2],
    state: Vec<AtomicU8>,
    /// Traced runs only: when each pull happened, and the time spent
    /// inside this source (the benchmark's own cost on the path).
    record: bool,
    pulls: Mutex<Vec<(u32, Instant)>>,
    pull_ns: AtomicU64,
}

impl SnapshotSource for LedgerSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        let i = self.index_of[device.0 as usize] as usize;
        let held = self.state[i].load(Ordering::Acquire) as usize;
        if !self.record {
            return self.snapshots[held][i].clone();
        }
        let t0 = Instant::now();
        let snapshot = self.snapshots[held][i].clone();
        self.pull_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.pulls
            .lock()
            .expect("no pull panics while holding the lock")
            .push((i as u32, t0));
        snapshot
    }
}

/// Everything the set-up builds and the body drives.
struct Fleet {
    working: Vec<DeviceId>,
    /// Per working device: its healthy (0) and withdrawn (1) table.
    tables: [Vec<Fib>; 2],
    hashes: [Vec<u64>; 2],
    contracts: Vec<DeviceContracts>,
    source: Arc<LedgerSource>,
    service: ValidationService,
    handle: ServiceHandle,
    /// The driver's view of which table each device holds.
    held: Vec<u8>,
    /// Seeded cyclic visiting order and the position in it.
    order: Vec<usize>,
    cursor: usize,
    cold_fill_s: f64,
}

impl Fleet {
    fn build(cfg: &Config, record: bool) -> Fleet {
        let sizes = sizes(cfg.quick);
        let topology = build_clos(&fabric::pick(FABRIC_3K, cfg.quick));
        let (fibs, _) = simulate_with(&topology, &SimConfig::healthy(), SimOptions::default());
        let meta = MetadataService::from_topology(&topology);
        let devices = fibs.len();

        // Strided across the whole device space; the odd stride keeps
        // the set uniform over both shards.
        let stride = ((devices - 1) / sizes.working_set).max(1) | 1;
        let working: Vec<DeviceId> = (0..sizes.working_set)
            .map(|i| DeviceId((i * stride) as u32))
            .collect();
        assert!((sizes.working_set - 1) * stride < devices);

        let generator = ContractGenerator::new(&meta);
        let mut contracts = vec![DeviceContracts::default(); devices];
        let mut index_of = vec![u32::MAX; devices];
        let mut rng = Rng::new(cfg.seed, 1);
        let mut healthy = Vec::with_capacity(working.len());
        let mut withdrawn = Vec::with_capacity(working.len());
        for (i, &d) in working.iter().enumerate() {
            contracts[d.0 as usize] = generator.device(d);
            index_of[d.0 as usize] = i as u32;
            let fib = fibs[d.0 as usize].clone();
            withdrawn.push(drop_route(&fib, rng.below(1 << 16)));
            healthy.push(fib);
        }
        drop(fibs);
        let tables = [healthy, withdrawn];
        let hashes = [0, 1].map(|s| tables[s].iter().map(Fib::content_hash).collect::<Vec<_>>());
        let source = Arc::new(LedgerSource {
            index_of,
            snapshots: [0, 1].map(|s| tables[s].iter().map(Fib::to_wire).collect()),
            state: (0..working.len()).map(|_| AtomicU8::new(0)).collect(),
            record,
            pulls: Mutex::new(Vec::new()),
            pull_ns: AtomicU64::new(0),
        });

        let service = Validator::with_contracts(contracts.clone())
            .metadata(&meta)
            .engine(EngineChoice::Trie)
            .shards(SHARDS)
            .ingest_capacity(INGEST_CAPACITY)
            .build_service(source.clone());
        let ((), cold_fill_s) = timed(|| {
            service.pull_all(&working);
            service.drain();
        });

        let mut order: Vec<usize> = (0..working.len()).collect();
        rng.shuffle(&mut order);
        Fleet {
            held: vec![0; working.len()],
            handle: service.handle(),
            working,
            tables,
            hashes,
            contracts,
            source,
            service,
            order,
            cursor: 0,
            cold_fill_s,
        }
    }

    /// The next device in the cyclic order.
    fn next_device(&mut self) -> usize {
        let i = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        i
    }

    /// Make device `i` hold its other table; returns the hash the
    /// service must arrive at.
    fn flip(&mut self, i: usize) -> u64 {
        self.held[i] ^= 1;
        self.source.state[i].store(self.held[i], Ordering::Release);
        self.hashes[self.held[i] as usize][i]
    }

    fn submit(&self, i: usize) {
        self.service.submit(IngestEvent::Pull(self.working[i]));
    }

    fn verdict_is(&self, i: usize, hash: u64) -> bool {
        self.handle
            .verdict(self.working[i])
            .is_some_and(|v| v.fib_hash == hash)
    }

    /// Known answer after a drain: every device's verdict is for the
    /// table it holds, and exactly the devices holding a withdrawn
    /// table are dirty. One operation per device.
    fn check_converged(&self, checks: &mut Checks, what: &str) {
        let stale = (0..self.working.len())
            .filter(|&i| !self.verdict_is(i, self.hashes[self.held[i] as usize][i]))
            .count();
        checks.ops(self.working.len() as u64, stale as u64, what);
        let withdrawn = self.held.iter().filter(|&&s| s == 1).count();
        let dirty = self.handle.dirty_count();
        checks.expect(dirty == withdrawn, || {
            format!("{what}: {dirty} dirty devices, {withdrawn} hold a withdrawn table")
        });
    }
}

/// Counts of events by the path the service must take for them.
#[derive(Default, Clone, Copy)]
struct Mix {
    unchanged: u64,
    flipped: u64,
}

struct Saturate {
    wall_s: f64,
    /// Wall time of each round. The phase reports their median: one
    /// round that lost its core to a neighbour does not move it.
    round_s: Vec<f64>,
}

/// Closed loop: as many whole rounds as should fill `seconds`.
fn saturate(
    fleet: &mut Fleet,
    rng: &mut Rng,
    mix: &mut Mix,
    seconds: f64,
    checks: &mut Checks,
) -> Saturate {
    let mut out = Saturate {
        wall_s: 0.0,
        round_s: Vec::new(),
    };
    // The number of rounds follows from `--seconds` alone, at the rate
    // the seed commit sustained, so that the event mix repeats exactly
    // for a seed on a box of any speed.
    let n = fleet.working.len();
    let rounds = ((seconds * 2.0 * RATE_HZ / n as f64).ceil() as usize).max(1);
    for _ in 0..rounds {
        // The round's events are drawn before the clock starts.
        let round: Vec<(usize, bool)> = (0..n)
            .map(|_| (fleet.next_device(), rng.chance(FLIP_SHARE)))
            .collect();
        let ((), wall_s) = timed(|| {
            for &(i, flip) in &round {
                if flip {
                    fleet.flip(i);
                }
                fleet.submit(i);
            }
            fleet.service.drain();
        });
        out.wall_s += wall_s;
        out.round_s.push(wall_s);
        let flipped = round.iter().filter(|(_, f)| *f).count() as u64;
        mix.flipped += flipped;
        mix.unchanged += n as u64 - flipped;
        fleet.check_converged(checks, "saturate-round device verdicts");
    }
    out
}

#[derive(Default)]
struct Paced {
    wall_s: f64,
    /// Change→verdict latency of each flipped event, from its due time.
    latency_s: Vec<f64>,
    /// How late the generator submitted each event.
    lag_s: Vec<f64>,
    sink_query_s: Vec<f64>,
    /// Traced runs: every event's device and due time in submit order,
    /// and each flip's (event number, due, seen).
    submitted: Vec<(u32, Instant)>,
    flips: Vec<(u64, Instant, Instant)>,
}

/// Open loop at [`RATE_HZ`] for `seconds`.
fn paced(
    fleet: &mut Fleet,
    rng: &mut Rng,
    mix: &mut Mix,
    seconds: f64,
    checks: &mut Checks,
) -> Paced {
    let schedule = open_loop_schedule(rng, RATE_HZ, seconds);
    let record = fleet.source.record;
    let mut out = Paced::default();
    // (device, expected hash, event number, due)
    let mut outstanding: Vec<(usize, u64, u64, Instant)> = Vec::new();
    let mut awaiting = vec![false; fleet.working.len()];
    let mut timed_out = 0u64;
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let now = Instant::now();
        outstanding.retain(|&(i, hash, event, due)| {
            let seen = fleet.verdict_is(i, hash);
            if seen {
                out.latency_s.push((now - due).as_secs_f64());
                awaiting[i] = false;
                if record {
                    out.flips.push((event, due, now));
                }
            }
            !seen
        });
        match schedule.get(k) {
            Some(&offset) if start + Duration::from_secs_f64(offset) <= now => {
                let due = start + Duration::from_secs_f64(offset);
                out.lag_s.push((now - due).as_secs_f64());
                let i = fleet.next_device();
                // At most one outstanding flip per device; the cyclic
                // order makes a second one impossible short of a
                // backlog of a whole working set.
                let flip = rng.chance(FLIP_SHARE) && !awaiting[i];
                if flip {
                    let hash = fleet.flip(i);
                    outstanding.push((i, hash, k as u64, due));
                    awaiting[i] = true;
                    mix.flipped += 1;
                } else {
                    mix.unchanged += 1;
                }
                if record {
                    out.submitted.push((i as u32, due));
                }
                fleet.submit(i);
                k += 1;
                if k.is_multiple_of(SINK_QUERY_EVERY) {
                    let (reads, s) = timed(|| {
                        (
                            fleet.handle.alerts(Risk::High).len(),
                            fleet.handle.dirty_count(),
                        )
                    });
                    black_box(reads);
                    out.sink_query_s.push(s);
                }
            }
            Some(&offset) => {
                let until_due =
                    (start + Duration::from_secs_f64(offset)).saturating_duration_since(now);
                std::thread::sleep(until_due.min(POLL));
            }
            None if outstanding.is_empty() => break,
            None if now.duration_since(start).as_secs_f64()
                > seconds + VERDICT_TIMEOUT.as_secs_f64() =>
            {
                timed_out = outstanding.len() as u64;
                break;
            }
            None => std::thread::sleep(POLL),
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    fleet.service.drain();
    checks.ops(
        out.latency_s.len() as u64 + timed_out,
        timed_out,
        "paced flips reaching their verdict",
    );
    fleet.check_converged(checks, "paced-phase device verdicts");
    out
}

/// Sum of a counter over the shards of a service snapshot.
fn shard_counter(snapshot: &obskit::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    (0..SHARDS)
        .map(|shard| {
            let shard = shard.to_string();
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push(("shard", &shard));
            snapshot.counter(name, &all).unwrap_or(0)
        })
        .sum()
}

#[derive(Default)]
pub struct ServeChurn {
    reps: u64,
}

impl Workload for ServeChurn {
    fn rep(&mut self, cfg: &Config, t: &mut Tracer, checks: &mut Checks) -> Rep {
        self.reps += 1;
        // An untraced repetition spends a third of `--seconds`' worth
        // of rounds in `saturate`, which gives both end-to-end timings.
        // The traced one takes all of `--seconds` and goes on to `paced`
        // (its tail needs over a thousand flips) and `c1`.
        let (saturate_s, paced_s) = if t.enabled() {
            (0.4 * cfg.seconds, 0.6 * cfg.seconds)
        } else {
            (cfg.seconds / 3.0, 0.0)
        };

        let setup = t.open_op("serve_churn.setup", self.reps);
        let (mut fleet, setup_s) = timed(|| Fleet::build(cfg, t.enabled()));
        t.close(setup);

        let mut rng = Rng::new(cfg.seed, 2);
        let mut mix = Mix::default();
        let span = t.open_op("serve_churn.saturate", self.reps);
        let sat = saturate(&mut fleet, &mut rng, &mut mix, saturate_s, checks);
        t.close(span);

        fleet
            .source
            .pulls
            .lock()
            .expect("the workers are idle")
            .clear();
        let paced_span = t.open_op("serve_churn.paced", self.reps);
        let run = if t.enabled() {
            paced(&mut fleet, &mut rng, &mut mix, paced_s, checks)
        } else {
            Paced::default()
        };
        t.close(paced_span);

        // Known answer: the service took the path the generator meant
        // for every event (full for the cold fill, incremental for a
        // flip, cache hit for an unchanged re-pull).
        let snapshot = fleet.handle.snapshot();
        let mode = |m: &str| shard_counter(&snapshot, "rcdc_validate_mode_total", &[("mode", m)]);
        let (full, incremental, cache_hit) = (mode("full"), mode("incremental"), mode("cache_hit"));
        let expected = (fleet.working.len() as u64, mix.flipped, mix.unchanged);
        checks.expect((full, incremental, cache_hit) == expected, || {
            format!("validation modes (full, incremental, cache hit) {full}, {incremental}, {cache_hit}; generated {expected:?}")
        });
        let stalls = shard_counter(&snapshot, "rcdc_service_backpressure_total", &[]);

        let layers = t.enabled().then(|| {
            let mut l = self.attribute(cfg, t, &mut fleet, paced_span, &run, checks);
            l.set("service.cold_fill_s", fleet.cold_fill_s);
            l.set("service.backpressure_stalls", stalls as f64);
            l.set("pipeline.full_events", full as f64);
            l.set("pipeline.incremental_events", incremental as f64);
            l.set("pipeline.cache_hit_events", cache_hit as f64);
            let sink_us: Vec<f64> = run.sink_query_s.iter().map(|s| s * 1e6).collect();
            l.set("pipeline.sink_query_us", median(&sink_us));
            let latency_ms: Vec<f64> = run.latency_s.iter().map(|s| s * 1e3).collect();
            l.set("service.verdict_p50_ms", median(&latency_ms));
            let verdict_tail = tail(&latency_ms);
            l.set("service.verdict_tail_ms", verdict_tail.value);
            l.set("service.verdict_tail_pct", verdict_tail.pct);
            l.set("service.verdict_samples", verdict_tail.samples as f64);
            let lag_ms: Vec<f64> = run.lag_s.iter().map(|s| s * 1e3).collect();
            l.set("bench.generator_lag_tail_ms", tail(&lag_ms).value);
            l.set(
                "bench.source_pull_s",
                fleet.source.pull_ns.load(Ordering::Relaxed) as f64 / 1e9,
            );
            l
        });

        // Known answer: healing every device leaves nothing dirty.
        for i in 0..fleet.working.len() {
            if fleet.held[i] == 1 {
                fleet.flip(i);
            }
        }
        fleet.service.pull_all(&fleet.working);
        fleet.service.drain();
        fleet.check_converged(checks, "healed device verdicts");
        let fleet_len = fleet.working.len();
        drop(fleet);

        let round_s = median(&sat.round_s);
        Rep {
            setup_s,
            verdict_s: round_s,
            ops_per_s: fleet_len as f64 / round_s,
            measured_s: sat.wall_s + run.wall_s,
            layers,
        }
    }
}

impl ServeChurn {
    /// Traced run only: where one event's time goes.
    ///
    /// Queue wait comes from the paced phase: each event's due time to
    /// the moment the benchmark's source saw the shard worker pull for
    /// it. The rest comes from a phase of its own, `c1`: flips
    /// submitted one at a time with nothing else in flight, each timed
    /// from `submit` until its verdict is visible, then replayed
    /// outside the service through the leaf functions the shard worker
    /// calls. What the replays do not explain is the service's own
    /// cost per event: queue hop, stores, cache, analytics.
    fn attribute(
        &self,
        cfg: &Config,
        t: &mut Tracer,
        fleet: &mut Fleet,
        paced_span: u32,
        run: &Paced,
        checks: &mut Checks,
    ) -> Layers {
        let mut l = Layers::default();

        // The k-th pull the source saw for a device answers the k-th
        // event submitted for it: a shard's queue is first in, first out.
        let pulls = std::mem::take(&mut *fleet.source.pulls.lock().expect("the workers are idle"));
        let mut pulls_of: Vec<std::collections::VecDeque<Instant>> =
            vec![Default::default(); fleet.working.len()];
        for (i, at) in pulls {
            pulls_of[i as usize].push_back(at);
        }
        let mut wait_ms = Vec::with_capacity(run.submitted.len());
        for (event, &(i, due)) in run.submitted.iter().enumerate() {
            if let Some(pulled) = pulls_of[i as usize].pop_front() {
                let pulled = pulled.max(due);
                t.record(
                    "service.queue_wait",
                    Some(paced_span),
                    event as u64,
                    due,
                    pulled,
                    false,
                );
                wait_ms.push((pulled - due).as_secs_f64() * 1e3);
            }
        }
        for &(event, due, seen) in &run.flips {
            t.record("service.verdict", Some(paced_span), event, due, seen, false);
        }
        l.set("service.queue_wait_p50_ms", median(&wait_ms));
        l.set("service.queue_wait_tail_ms", tail(&wait_ms).value);

        // The cold fill validated every working device in full; the
        // replay also yields the prior reports the delta path needs.
        let engine = EngineChoice::Trie.instantiate();
        // The service holds its own copy; the replay takes this one.
        let contracts = std::mem::take(&mut fleet.contracts);
        let working = fleet.working.clone();
        let contracts_of = |i: usize| &contracts[working[i].0 as usize];
        let mut full_s = 0.0;
        let reports: [Vec<_>; 2] = [0, 1].map(|held| {
            (0..fleet.working.len())
                .map(|i| {
                    let (r, s) =
                        timed(|| engine.validate_device(&fleet.tables[held][i], contracts_of(i)));
                    if held == 0 {
                        full_s += s;
                    }
                    r
                })
                .collect()
        });
        l.set("engine.validate_device_s", full_s);

        let c1 = t.open("serve_churn.c1");
        let mut events = Vec::new();
        for _ in 0..sizes(cfg.quick).c1_events {
            let i = fleet.next_device();
            let event = t.open_op("service.c1_event", events.len() as u64);
            let hash = fleet.flip(i);
            fleet.submit(i);
            let deadline = Instant::now() + VERDICT_TIMEOUT;
            let mut seen = fleet.verdict_is(i, hash);
            while !seen && Instant::now() < deadline {
                std::thread::yield_now();
                seen = fleet.verdict_is(i, hash);
            }
            t.close(event);
            checks.expect(seen, || {
                format!(
                    "c1 flip of device {} never reached its verdict",
                    fleet.working[i].0
                )
            });
            events.push((event, i, fleet.held[i] as usize));
        }
        t.close(c1);
        fleet.service.drain();

        let mut layer_s = [0.0f64; 5];
        for &(event, i, held) in &events {
            let op = event as u64;
            let (snapshot, s0) = t.replay("bench.source_pull", event, op, || {
                fleet.source.snapshots[held][i].clone()
            });
            let (fib, s1) = t.replay("bgpsim.fib_decode", event, op, || {
                Fib::from_wire(&snapshot).expect("the benchmark's own snapshot decodes")
            });
            let (hash, s2) = t.replay("bgpsim.fib_hash", event, op, || fib.content_hash());
            black_box(hash);
            let previous = &fleet.tables[held ^ 1][i];
            let (delta, s3) =
                t.replay("bgpsim.fib_delta", event, op, || Fib::delta(previous, &fib));
            let (report, s4) = t.replay("engine.validate_delta", event, op, || {
                engine.validate_delta(&fib, contracts_of(i), &delta, &reports[held ^ 1][i])
            });
            checks.expect(report == reports[held][i], || {
                format!(
                    "replayed delta verdict of device {} differs from its full verdict",
                    fleet.working[i].0
                )
            });
            for (sum, span) in layer_s.iter_mut().zip([s0, s1, s2, s3, s4]) {
                *sum += t.duration_s(span);
            }
        }
        let c1_ms: Vec<f64> = events
            .iter()
            .map(|&(e, ..)| t.duration_s(e) * 1e3)
            .collect();
        let c1_total_s: f64 = events.iter().map(|&(e, ..)| t.duration_s(e)).sum();
        let n = events.len().max(1) as f64;
        l.set("service.c1_verdict_p50_ms", median(&c1_ms));
        l.set(
            "service.self_ms_per_event",
            (c1_total_s - layer_s.iter().sum::<f64>()) * 1e3 / n,
        );
        l.set("bgpsim.fib_decode_s", layer_s[1]);
        l.set("bgpsim.fib_hash_s", layer_s[2]);
        l.set("bgpsim.fib_delta_s", layer_s[3]);
        l.set("engine.validate_delta_s", layer_s[4]);
        l.set("engine.validate_delta_calls", events.len() as f64);
        let (_, closure) = subtree_self_times(t.spans(), c1);
        l.set("bench.trace_closure_pct", 100.0 * closure);
        l
    }
}
