//! # simnet — deterministic fault-injection simulation of the live pipeline
//!
//! The paper's live RCDC pipeline (§2.6.1) is a concurrent system fed
//! by an unreliable network: FIB snapshots arrive late, duplicated,
//! stale or corrupted, devices flap mid-sweep, and the contract
//! generator republishes epochs underneath in-flight validations.
//! Thread-based tests can exercise those schedules only by luck.
//! `simnet` removes the luck: a seed generates an explicit event
//! [`script::Script`], a virtual clock and single-threaded scheduler
//! execute it against the *real* pipeline — the per-shard
//! [`rcdc::pipeline::DeviceStore`] and its one step,
//! [`rcdc::pipeline::DeviceStore::judge`] — with real `FIB1`/`FIBD`
//! wire frames, and convergence invariants are checked at the end.
//!
//! When an invariant breaks, the schedule is minimized with the same
//! ddmin machinery the differential fuzzer uses ([`rcdc::shrink`]) and the
//! report ends with a replay command — the seed IS the reproduction.
//!
//! ```
//! let failure = simnet::check_seed(1);
//! assert!(failure.is_none(), "{}", failure.unwrap());
//! ```

pub mod gen;
pub mod rng;
pub mod script;
pub mod sim;

use script::Script;
use sim::{run_script_with, Flaws, SimEnv, SimOutcome};
use std::fmt;

/// A minimized, replayable simulation failure.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The seed whose schedule broke an invariant.
    pub seed: u64,
    /// The violation the *minimized* script still triggers.
    pub violation: sim::InvariantViolation,
    /// Events in the original generated script.
    pub original_events: usize,
    /// The 1-minimal failing script.
    pub script: Script,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simnet: seed {} breaks an invariant", self.seed)?;
        writeln!(f, "  {}", self.violation)?;
        writeln!(
            f,
            "  minimized schedule ({} of {} events):",
            self.script.events.len(),
            self.original_events
        )?;
        for e in &self.script.events {
            writeln!(f, "    {e}")?;
        }
        write!(
            f,
            "  replay: cargo run --release -p simnet -- --seed {} --count 1",
            self.seed
        )
    }
}

/// Run one seed end to end: generate its schedule, execute it, and on
/// an invariant violation shrink the schedule to a 1-minimal failing
/// script. `None` means the seed passed.
pub fn check_seed(seed: u64) -> Option<SimFailure> {
    check_seed_with(&SimEnv::figure3(), seed, Flaws::default())
}

/// [`check_seed`] against a prebuilt environment (cheaper for seed
/// sweeps) and optional emulated flaws (the harness self-test).
pub fn check_seed_with(env: &SimEnv, seed: u64, flaws: Flaws) -> Option<SimFailure> {
    let script = gen::script_for_seed(seed, env.device_count());
    let violation = match run_script_with(env, &script, flaws) {
        Ok(_) => return None,
        Err(v) => v,
    };
    let events = rcdc::shrink::shrink_list(&script.events, |sub| {
        run_script_with(
            env,
            &Script {
                events: sub.to_vec(),
            },
            flaws,
        )
        .is_err()
    });
    let minimized = Script { events };
    // Report the violation the minimized script triggers (shrinking
    // preserves "some invariant fails", not necessarily the same one).
    let violation = run_script_with(env, &minimized, flaws)
        .err()
        .unwrap_or(violation);
    Some(SimFailure {
        seed,
        violation,
        original_events: script.events.len(),
        script: minimized,
    })
}

/// Sweep `count` seeds starting at `start` against one shared
/// environment, stopping at the first failure.
pub fn sweep(start: u64, count: u64) -> Result<SweepStats, SimFailure> {
    sweep_observed(start, count, &obskit::Registry::new())
}

/// [`sweep`], accumulating every seed's pipeline and simulation
/// metrics into `registry` (the `simnet --metrics` export path).
pub fn sweep_observed(
    start: u64,
    count: u64,
    registry: &obskit::Registry,
) -> Result<SweepStats, SimFailure> {
    sweep_sharded(start, count, registry, 1)
}

/// [`sweep_observed`] with every script executed against `shards`
/// shard-partitioned device stores — the deterministic mirror of the live
/// sharded [`rcdc::service::ValidationService`], with the convergence
/// invariants checked per shard and globally.
pub fn sweep_sharded(
    start: u64,
    count: u64,
    registry: &obskit::Registry,
    shards: usize,
) -> Result<SweepStats, SimFailure> {
    let env = SimEnv::figure3();
    let mut stats = SweepStats::default();
    for seed in start..start + count {
        let script = gen::script_for_seed(seed, env.device_count());
        match sim::run_script_sharded(&env, &script, Flaws::default(), registry, shards) {
            Ok(out) => stats.absorb(&out),
            Err(_) => {
                // Re-run through the shrinking path for the report.
                return Err(check_seed_with(&env, seed, Flaws::default())
                    .expect("failure must reproduce deterministically"));
            }
        }
        stats.seeds += 1;
    }
    Ok(stats)
}

/// Aggregate statistics over a clean seed sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Seeds that passed.
    pub seeds: u64,
    /// Script events executed.
    pub events: u64,
    /// Frames delivered.
    pub deliveries: u64,
    /// Full-snapshot fallback recoveries.
    pub fallbacks: u64,
    /// Verdicts produced.
    pub completed: u64,
    /// Verdicts by mode (full / incremental / cache hit).
    pub full: u64,
    /// Incremental-path verdicts.
    pub incremental: u64,
    /// Cache-served verdicts.
    pub cache_hits: u64,
}

impl SweepStats {
    fn absorb(&mut self, out: &SimOutcome) {
        self.events += out.events as u64;
        self.deliveries += out.deliveries;
        self.fallbacks += out.fallbacks;
        self.completed += out.completed;
        self.full += out.full;
        self.incremental += out.incremental;
        self.cache_hits += out.cache_hits;
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seeds ok: {} events, {} deliveries ({} fallback recoveries), \
             {} verdicts ({} full / {} incremental / {} cached)",
            self.seeds,
            self.events,
            self.deliveries,
            self.fallbacks,
            self.completed,
            self.full,
            self.incremental,
            self.cache_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use script::{Action, ChurnKind, DeliveryFault, ScriptEvent};

    fn ev(at_ms: u64, action: Action) -> ScriptEvent {
        ScriptEvent { at_ms, action }
    }

    #[test]
    fn empty_script_converges_via_settle_sweep() {
        let env = SimEnv::figure3();
        let out = sim::run_script(&env, &Script::default()).expect("clean run");
        assert_eq!(out.events, 0);
        // The settle sweep pulls every device exactly once.
        assert_eq!(out.deliveries, env.device_count() as u64);
        assert_eq!(out.fallbacks, 0);
    }

    #[test]
    fn churn_then_pull_takes_the_incremental_path() {
        let env = SimEnv::figure3();
        let script = Script {
            events: vec![
                ev(0, Action::Pull { device: 0, latency_ms: 1, fault: DeliveryFault::None }),
                ev(10, Action::Churn { device: 0, kind: ChurnKind::DropRoute { index: 0 } }),
                ev(20, Action::Pull { device: 0, latency_ms: 1, fault: DeliveryFault::None }),
            ],
        };
        let out = sim::run_script(&env, &script).expect("clean run");
        assert!(out.incremental >= 1, "delta pull after churn must revalidate incrementally");
    }

    #[test]
    fn corrupted_delta_recovers_via_full_snapshot_fallback() {
        let env = SimEnv::figure3();
        let script = Script {
            events: vec![
                ev(0, Action::Pull { device: 3, latency_ms: 1, fault: DeliveryFault::None }),
                ev(10, Action::Churn { device: 3, kind: ChurnKind::NarrowEcmp { index: 0 } }),
                ev(
                    20,
                    Action::Pull {
                        device: 3,
                        latency_ms: 1,
                        fault: DeliveryFault::CorruptDelta { byte: 11 },
                    },
                ),
            ],
        };
        let out = sim::run_script(&env, &script).expect("corruption must be recoverable");
        assert!(out.fallbacks >= 1, "corrupt delta must trigger the full-snapshot fallback");
    }

    #[test]
    fn emulated_stale_epoch_cache_bug_is_caught_and_shrunk() {
        // The harness self-test: emulate a verdict key that ignores
        // the contract epoch and confirm (a) the invariant checks
        // catch it, and (b) ddmin shrinks the schedule to the minimal
        // pull + republish pair that exposes it.
        let env = SimEnv::figure3();
        let flaws = Flaws { stale_epoch_cache: true };
        let failure = (0..64)
            .find_map(|seed| check_seed_with(&env, seed, flaws))
            .expect("some seed in 0..64 must expose the emulated staleness bug");
        assert_eq!(failure.violation.invariant, "cache-freshness");
        assert!(
            failure.script.events.len() <= 3,
            "expected a near-minimal schedule, got {} events:\n{}",
            failure.script.events.len(),
            failure.script
        );
        let rendered = failure.to_string();
        assert!(rendered.contains("replay: cargo run --release -p simnet"));
        assert!(rendered.contains(&format!("--seed {}", failure.seed)));
    }

    #[test]
    fn seed_sweep_smoke() {
        match sweep(0, 25) {
            Ok(stats) => {
                assert_eq!(stats.seeds, 25);
                assert!(stats.deliveries > 0 && stats.completed > 0);
            }
            Err(failure) => panic!("{failure}"),
        }
    }

    #[test]
    fn sharded_sweep_matches_unsharded_outcomes() {
        // Sharding partitions the device space; it must not change a
        // single outcome counter of a deterministic run.
        let r1 = obskit::Registry::new();
        let r4 = obskit::Registry::new();
        let unsharded = sweep_sharded(0, 10, &r1, 1).expect("clean");
        let sharded = sweep_sharded(0, 10, &r4, 4).expect("clean");
        assert_eq!(unsharded, sharded);
        // The bridged pipeline counters agree too (shard sums).
        for name in [
            "rcdc_verdict_cache_lookups_total",
            "rcdc_verdict_cache_hits_total",
            "rcdc_analytics_ingested_total",
        ] {
            assert_eq!(
                r1.snapshot().counter(name, &[]),
                r4.snapshot().counter(name, &[]),
                "{name}"
            );
        }
    }

    #[test]
    fn sharded_runner_still_catches_emulated_bugs() {
        let env = SimEnv::figure3();
        let flaws = Flaws { stale_epoch_cache: true };
        let broke = (0..64).find_map(|seed| {
            let script = gen::script_for_seed(seed, env.device_count());
            sim::run_script_sharded(&env, &script, flaws, &obskit::Registry::new(), 4).err()
        });
        assert_eq!(
            broke.expect("some seed must expose the bug under sharding").invariant,
            "cache-freshness"
        );
    }
}
