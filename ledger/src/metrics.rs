//! The metric catalogue: every name the benchmark prints, with its
//! unit and direction, and for end-to-end metrics the regression
//! bound. `BENCHMARK.json` at the repository root lists the same
//! entries (a unit test keeps the two in step); `compare` judges
//! against the bounds here.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` fails. `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// A count that must repeat exactly for a seed; `compare` flags
    /// one that differs.
    pub exact: bool,
}

impl MetricDef {
    /// A duration, which the harness brings to the box's nominal
    /// speed; counts, ratios and sizes are left as measured.
    pub fn is_time(&self) -> bool {
        matches!(self.unit, "s" | "ms" | "us" | "ns")
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, defined on every workload. Every
/// timing is at the box's nominal speed (`calib.rs`): the wall clock
/// divided by how much slower than nominal the calibration slices
/// around the repetition ran.
///
/// * `setup_s` — input generation and construction before the timed
///   body, median over the run's repetitions.
/// * `verdict_s` — time to the verdict: wall time of the timed body on
///   the batch workloads; on `serve_churn` the time the saturated
///   service takes to bring every verdict of the working set up to
///   date (one closed-loop round of 512 events and its drain). Median
///   over repetitions.
/// * `ops_per_s` — operations completed per second of timed body:
///   device verdicts (`cold_sweep`), events (`serve_churn`), scenarios
///   (`whatif_k2`), lattice states (`rollout_plan`), ACL checks
///   (`acl_gate`).
/// * `peak_rss_mb` — the process's `VmHWM` when the repetitions end,
///   less the calibration tables.
///
/// A bound is max(5 %, 2× the widest relative inter-quartile spread any
/// workload showed over the acceptance runs), capped at the 25 % the
/// benchmark contract allows. The README's noise section has the
/// spreads measured on this shared two-core virtual machine.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("verdict_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// One entry per repository layer a later change is likely to move. A
/// traced run prints all of them; a layer the workload never enters
/// reads 0, which is the bypass prediction made visible.
pub const PER_LAYER: &[MetricDef] = &[
    // dctopo + bgpsim: topology and the EBGP fixed point.
    layer("dctopo.build_clos_s", "s", Lower),
    layer("bgpsim.simulate_s", "s", Lower),
    exact("bgpsim.relaxations", Lower),
    layer("bgpsim.ns_per_relaxation", "ns", Lower),
    exact("bgpsim.fib_entries", Lower),
    // bgpsim::restart: fault-injected restarts from the baseline.
    layer("bgpsim.restart_s", "s", Lower),
    exact("bgpsim.restart_patched", Higher),
    exact("bgpsim.restart_repropagated", Lower),
    exact("bgpsim.restart_devices_changed", Lower),
    // bgpsim::fib: wire decode, content hash, delta.
    layer("bgpsim.fib_decode_s", "s", Lower),
    layer("bgpsim.fib_hash_s", "s", Lower),
    layer("bgpsim.fib_delta_s", "s", Lower),
    // rcdc::contracts.
    layer("contracts.generate_s", "s", Lower),
    exact("contracts.count", Lower),
    layer("contracts.ns_per_contract", "ns", Lower),
    // rcdc::engine (trie).
    layer("engine.validate_device_s", "s", Lower),
    layer("engine.ns_per_contract", "ns", Lower),
    layer("engine.device_p50_us", "us", Lower),
    layer("engine.device_tail_us", "us", Lower),
    layer("engine.validate_delta_s", "s", Lower),
    exact("engine.validate_delta_calls", Lower),
    // rcdc::runner.
    layer("runner.run_pass_s", "s", Lower),
    layer("runner.overhead_s", "s", Lower),
    // rcdc::service + rcdc::pipeline.
    layer("service.verdict_p50_ms", "ms", Lower),
    layer("service.verdict_tail_ms", "ms", Lower),
    layer("service.verdict_tail_pct", "%", Higher),
    exact("service.verdict_samples", Higher),
    layer("service.queue_wait_p50_ms", "ms", Lower),
    layer("service.queue_wait_tail_ms", "ms", Lower),
    layer("service.c1_verdict_p50_ms", "ms", Lower),
    layer("service.self_ms_per_event", "ms", Lower),
    layer("service.cold_fill_s", "s", Lower),
    layer("service.backpressure_stalls", "count", Lower),
    exact("pipeline.cache_hit_events", Higher),
    exact("pipeline.incremental_events", Lower),
    exact("pipeline.full_events", Lower),
    layer("pipeline.sink_query_us", "us", Lower),
    // rcdc::whatif.
    exact("whatif.scenarios", Higher),
    layer("whatif.scenario_p50_ms", "ms", Lower),
    layer("whatif.scenario_tail_ms", "ms", Lower),
    layer("whatif.revalidate_s", "s", Lower),
    exact("whatif.devices_revalidated", Lower),
    exact("whatif.verdicts_reused", Higher),
    // rcdc::rollout.
    exact("rollout.states_evaluated", Lower),
    layer("rollout.ms_per_state", "ms", Lower),
    exact("rollout.anchors_built", Lower),
    exact("rollout.devices_revalidated", Lower),
    exact("rollout.verdicts_reused", Higher),
    layer("rollout.plan_s", "s", Lower),
    layer("rollout.check_order_s", "s", Lower),
    // secguru + smtkit.
    layer("secguru.execute_plan_s", "s", Lower),
    layer("secguru.check_all_s", "s", Lower),
    layer("secguru.diff_s", "s", Lower),
    exact("smtkit.conflicts", Lower),
    exact("smtkit.propagations", Lower),
    layer("smtkit.blast_cache_hit_ratio", "ratio", Higher),
    // The benchmark's own cost, so dilution is visible.
    layer("bench.source_pull_s", "s", Lower),
    layer("bench.generator_lag_tail_ms", "ms", Lower),
    layer("bench.slowdown_factor", "ratio", Lower),
    layer("bench.traced_body_s", "s", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.trace_closure_pct", "%", Higher),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_sweep",
        "validatedc validate on the 4680-device fabric: only here do simulate, contract generation and full-table trie validation do all the work and restart, delta and queues none",
    ),
    (
        "serve_churn",
        "always-on sharded service over 2744 devices, 75% unchanged re-pulls and 25% route flips: wire decode, hash, delta and queue hops dominate, the opposite balance to cold_sweep",
    ),
    (
        "whatif_k2",
        "k=2 failure sweep on 1084 devices: restart plus delta revalidation over mostly distinct states with little memo reuse, the workload slice-granular revalidation must move",
    ),
    (
        "rollout_plan",
        "migrate and decommission planning on 1084 devices: the whatif layers on revisited lattice states and costly bring-up re-anchors, so a sweep gain that costs the planner shows",
    ),
    (
        "acl_gate",
        "SecGuru Fig. 11 eight-change refactor with diffs and contract checks on 130 to 4000 rule ACLs: the only workload in smtkit and secguru, flat under every RCDC-side change",
    ),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The driver invokes the benchmark for `RUN_SECONDS` per run.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json` as the catalogue describes it.
pub fn benchmark_json() -> Json {
    let defs = |defs: &[MetricDef]| {
        Json::Arr(
            defs.iter()
                .map(|m| {
                    let mut fields = vec![
                        ("name", Json::Str(m.name.into())),
                        ("unit", Json::Str(m.unit.into())),
                        ("better", Json::Str(m.better.as_str().into())),
                    ];
                    if let Some(b) = m.bound {
                        fields.push(("bound", Json::Num(b)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "ledger/Cargo.toml",
                    "--",
                    "bench",
                ]
                .iter()
                .map(|s| Json::Str((*s).into()))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("ledger".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", defs(END_TO_END)),
        ("per_layer", defs(PER_LAYER)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_benchmark_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        // 4 + 22 runs per workload, each with its set-up, plus two
        // builds, must end within 3420 s.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }
}
