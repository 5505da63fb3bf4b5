//! Datacenter-wide validation: local checks, embarrassingly parallel.
//!
//! "Verification methods can be localized to one device at a time, in
//! isolation, enabling scalability" (§1). The runner validates each
//! device independently — sequentially on one CPU (the configuration
//! behind the paper's "10⁴ routers in less than 3 minutes on a single
//! CPU" claim, experiment E2) or across worker threads.
//!
//! A pass is a cold sweep: every device is validated. Reusing a verdict
//! for an unchanged table is the live service's job
//! ([`crate::pipeline::DeviceStore::judge`]).

use crate::contracts::DeviceContracts;
use crate::engine::{smt::SmtEngine, trie::TrieEngine, Engine};
use crate::report::ValidationReport;
use bgpsim::Fib;
use obskit::{Counter, Histogram, Observer, Registry};
use std::time::{Duration, Instant};

/// Which verification engine the runner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// The specialized trie algorithm (§2.5.2) — production default.
    #[default]
    Trie,
    /// The trie algorithm in semantic mode (Definition 2.1 only; no
    /// strict missing-specific check).
    TrieSemantic,
    /// The bit-vector SMT encoding (§2.5.1).
    Smt,
    /// The SMT encoding in semantic mode.
    SmtSemantic,
}

impl EngineChoice {
    /// The engine registry: construct the backend for this choice.
    ///
    /// This is the single place an [`Engine`] implementation is chosen
    /// at runtime; everything downstream (the [`crate::Validator`],
    /// benchmark harnesses) goes through it rather than naming
    /// concrete engine types.
    pub fn instantiate(self) -> Box<dyn Engine + Sync> {
        match self {
            EngineChoice::Trie => Box::new(TrieEngine::new()),
            EngineChoice::TrieSemantic => Box::new(TrieEngine::semantic()),
            EngineChoice::Smt => Box::new(SmtEngine::new()),
            EngineChoice::SmtSemantic => Box::new(SmtEngine::semantic()),
        }
    }

    /// Stable name of the backend (matches [`Engine::name`] plus a
    /// `-semantic` suffix for the non-strict variants).
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Trie => "trie",
            EngineChoice::TrieSemantic => "trie-semantic",
            EngineChoice::Smt => "smt",
            EngineChoice::SmtSemantic => "smt-semantic",
        }
    }

    /// Every backend, in registry order (for CLIs listing valid names).
    pub const ALL: [EngineChoice; 4] = [
        EngineChoice::Trie,
        EngineChoice::TrieSemantic,
        EngineChoice::Smt,
        EngineChoice::SmtSemantic,
    ];
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineChoice {
    type Err = String;

    /// Parse the stable backend name (the inverse of [`EngineChoice::name`]).
    fn from_str(s: &str) -> Result<EngineChoice, String> {
        EngineChoice::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = EngineChoice::ALL.iter().map(|c| c.name()).collect();
                format!("unknown engine {s:?}; expected one of {}", names.join(", "))
            })
    }
}

/// Pre-resolved metric handles for validation passes, attached to a
/// [`crate::Validator`] via
/// [`ValidatorBuilder::metrics`](crate::ValidatorBuilder::metrics).
///
/// Recording one pass is a handful of atomic ops.
#[derive(Clone)]
pub struct PassMetrics {
    pass_latency: Histogram,
    devices_validated: Counter,
    violations: Counter,
}

impl PassMetrics {
    /// Create (or re-attach to) the pass metric families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        PassMetrics {
            pass_latency: registry.histogram(
                "rcdc_pass_latency_ns",
                "wall-clock duration of a datacenter validation pass in nanoseconds",
                &[],
            ),
            devices_validated: registry.counter(
                "rcdc_pass_devices_validated_total",
                "devices validated across passes",
                &[],
            ),
            violations: registry.counter(
                "rcdc_pass_violations_total",
                "contract violations reported across passes",
                &[],
            ),
        }
    }

    /// Record one completed pass.
    pub(crate) fn record(&self, report: &DatacenterReport) {
        self.pass_latency.record_duration(report.elapsed);
        self.devices_validated.add(report.reports.len() as u64);
        self.violations.add(report.total_violations() as u64);
    }
}

/// Aggregate result of a datacenter validation pass.
#[derive(Debug, Clone)]
pub struct DatacenterReport {
    /// Per-device reports, indexed by device id.
    pub reports: Vec<ValidationReport>,
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
}

impl DatacenterReport {
    /// Total contracts checked.
    pub fn contracts_checked(&self) -> usize {
        self.reports.iter().map(|r| r.contracts_checked).sum()
    }

    /// Total violations found.
    pub fn total_violations(&self) -> usize {
        self.reports.iter().map(|r| r.violations.len()).sum()
    }

    /// Devices with at least one violation.
    pub fn dirty_devices(&self) -> usize {
        self.reports.iter().filter(|r| !r.is_clean()).count()
    }

    /// Is the whole datacenter clean?
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.is_clean())
    }

    /// Datacenter-wide solver counters, summed over every device
    /// report. All-zero for the trie engine; for the SMT engine this is
    /// where session reuse shows up (queries ≫ devices, cache hits).
    pub fn solver_totals(&self) -> smtkit::SessionStats {
        let mut total = smtkit::SessionStats::default();
        for r in &self.reports {
            total.absorb(&r.solver_stats);
        }
        total
    }
}

impl Observer for DatacenterReport {
    /// Publish this pass's point-in-time gauges: device/violation
    /// counts, elapsed time, and the summed solver-session counters as
    /// the `rcdc_solver_*` family.
    fn observe(&self, registry: &Registry) {
        let gauge = |name, help, v: i64| registry.gauge(name, help, &[]).set(v);
        gauge(
            "rcdc_pass_devices",
            "devices covered by the last pass",
            self.reports.len() as i64,
        );
        gauge(
            "rcdc_pass_dirty_devices",
            "devices with at least one violation in the last pass",
            self.dirty_devices() as i64,
        );
        gauge(
            "rcdc_pass_violations",
            "violations found by the last pass",
            self.total_violations() as i64,
        );
        gauge(
            "rcdc_pass_elapsed_ns",
            "wall-clock duration of the last pass in nanoseconds",
            i64::try_from(self.elapsed.as_nanos()).unwrap_or(i64::MAX),
        );
        self.solver_totals()
            .observe_into(registry, "rcdc_solver", &[]);
    }
}

/// Validate `jobs` (device FIB + contracts pairs), returning reports in
/// job order.
///
/// The parallel path splits the output buffer into per-worker chunks
/// with `chunks_mut`, so every worker owns a disjoint slice and writes
/// results without locks or claim counters — device checks are
/// independent and uniform enough for a static partition.
pub(crate) fn validate_jobs(
    engine: &(dyn Engine + Sync),
    threads: usize,
    jobs: &[(&Fib, &DeviceContracts)],
) -> Vec<ValidationReport> {
    let mut out = vec![ValidationReport::default(); jobs.len()];
    if threads <= 1 || jobs.len() <= 1 {
        for (slot, (fib, dc)) in out.iter_mut().zip(jobs) {
            *slot = engine.validate_device(fib, dc);
        }
    } else {
        let chunk = jobs.len().div_ceil(threads);
        // A panicking worker re-panics here, at scope exit.
        std::thread::scope(|scope| {
            for (out_chunk, job_chunk) in out.chunks_mut(chunk).zip(jobs.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, (fib, dc)) in out_chunk.iter_mut().zip(job_chunk) {
                        *slot = engine.validate_device(fib, dc);
                    }
                });
            }
        });
    }
    out
}

/// One cold validation pass: every device, timed. Shared
/// implementation behind the [`crate::Validator`] facade.
pub(crate) fn run_pass(
    engine: &(dyn Engine + Sync),
    threads: usize,
    fibs: &[Fib],
    contracts: &[DeviceContracts],
    metrics: Option<&PassMetrics>,
) -> DatacenterReport {
    assert_eq!(fibs.len(), contracts.len(), "fibs and contracts must align");
    let start = Instant::now();
    let jobs: Vec<(&Fib, &DeviceContracts)> = fibs.iter().zip(contracts).collect();
    let report = DatacenterReport {
        reports: validate_jobs(engine, threads, &jobs),
        elapsed: start.elapsed(),
    };
    if let Some(m) = metrics {
        m.record(&report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy};
    use crate::validator::Validator;

    #[test]
    fn healthy_datacenter_is_clean_with_both_engines() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        for engine in [EngineChoice::Trie, EngineChoice::Smt] {
            let v = Validator::with_contracts(contracts.clone()).engine(engine).build();
            let r = v.run(&fibs);
            assert!(r.is_clean(), "{engine:?}");
            assert_eq!(r.total_violations(), 0);
            assert!(r.contracts_checked() > 0);
        }
    }

    #[test]
    fn faulted_datacenter_reports_same_total_across_thread_counts() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let sequential = Validator::with_contracts(contracts.clone()).build().run(&fibs);
        assert!(!sequential.is_clean());
        for threads in [2, 4] {
            let parallel = Validator::with_contracts(contracts.clone())
                .threads(threads)
                .build()
                .run(&fibs);
            assert_eq!(parallel.reports.len(), sequential.reports.len());
            for (a, b) in parallel.reports.iter().zip(&sequential.reports) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn faulted_dirty_device_count_matches_2_4_4() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let r = Validator::with_contracts(contracts).build().run(&fibs);
        // The narrative of §2.4.4 names ToR1, ToR2, A1..A4, D1..D4 and
        // the two default failures. Strict checking also surfaces the
        // real ripple effects the narrative omits: cluster-B leaves
        // missing the dead specifics and cluster-B ToRs with reduced
        // ECMP. Regional spines carry no contracts and stay clean.
        assert_eq!(r.dirty_devices(), 16);
    }

    #[test]
    fn engine_registry_instantiates_every_backend() {
        for (choice, name) in [
            (EngineChoice::Trie, "trie"),
            (EngineChoice::TrieSemantic, "trie"),
            (EngineChoice::Smt, "smt"),
            (EngineChoice::SmtSemantic, "smt"),
        ] {
            assert_eq!(choice.instantiate().name(), name);
            assert!(choice.name().starts_with(name));
        }
    }

    #[test]
    fn engine_choice_round_trips_through_strings() {
        for choice in EngineChoice::ALL {
            assert_eq!(choice.to_string(), choice.name());
            assert_eq!(choice.name().parse::<EngineChoice>(), Ok(choice));
        }
        assert_eq!(EngineChoice::ALL.len(), 4);
        // difftest's frozen reference trie is a test oracle, not a
        // selectable backend: its name is an unknown engine like any
        // other.
        for unknown in ["z3", "trie-ref"] {
            let err = unknown.parse::<EngineChoice>().unwrap_err();
            assert!(err.contains("unknown engine"), "{err}");
            assert!(
                err.ends_with("expected one of trie, trie-semantic, smt, smt-semantic"),
                "{err}"
            );
        }
    }

    #[test]
    fn smt_pass_surfaces_solver_totals() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        let trie = Validator::with_contracts(contracts.clone()).build().run(&fibs);
        assert_eq!(trie.solver_totals(), smtkit::SessionStats::default());
        let smt = Validator::with_contracts(contracts)
            .engine(EngineChoice::Smt)
            .build()
            .run(&fibs);
        let totals = smt.solver_totals();
        assert!(totals.queries > 0);
        assert!(totals.sat_vars > 0);
        assert!(totals.blast_cache_hits > 0, "{totals:?}");
    }

    #[test]
    fn pass_metrics_accumulate_across_runs() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let registry = Registry::new();
        let v = Validator::with_contracts(contracts)
            .metrics(&registry)
            .build();
        let first = v.run(&fibs);
        let second = v.run(&fibs);
        let snap = registry.snapshot();
        let counter = |name| snap.counter(name, &[]).unwrap();
        assert_eq!(
            counter("rcdc_pass_devices_validated_total"),
            2 * fibs.len() as u64
        );
        assert_eq!(
            counter("rcdc_pass_violations_total"),
            (first.total_violations() + second.total_violations()) as u64
        );
        let latency = snap.histogram("rcdc_pass_latency_ns", &[]).unwrap();
        assert_eq!(latency.count, 2);
    }

    #[test]
    fn report_observer_publishes_pass_gauges() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let report = Validator::with_contracts(contracts).build().run(&fibs);
        let registry = Registry::new();
        report.observe(&registry);
        let snap = registry.snapshot();
        let gauge = |name| snap.gauge(name, &[]).unwrap();
        assert_eq!(gauge("rcdc_pass_devices"), fibs.len() as i64);
        assert_eq!(gauge("rcdc_pass_dirty_devices"), 16);
        assert_eq!(
            gauge("rcdc_pass_violations"),
            report.total_violations() as i64
        );
        // Trie pass: solver gauges bridged, all zero.
        assert_eq!(snap.gauge("rcdc_solver_queries", &[]), Some(0));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_inputs_rejected() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        Validator::with_contracts(contracts).build().run(&fibs[..2]);
    }
}
