//! What every workload shares: the run configuration, the repetition
//! loops of the untraced and the traced run with the calibration
//! slices between repetitions, the ledger of known-answer checks, and
//! the result a run prints.

use crate::calib::Calibrator;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// One invocation's inputs. The program under test receives only what
/// the workload generates from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// How long the repetitions measure, in seconds.
    pub seconds: f64,
    /// 128-device fabrics, small counts, one repetition: a smoke run,
    /// not a measurement.
    pub quick: bool,
}

/// Operations attempted and failed. An operation is a device verdict,
/// an event, a scenario, a planner call or an ACL check; it fails when
/// its verdict differs from the known answer. Checks run outside the
/// timed regions.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    noted: usize,
}

impl Checks {
    /// Count `attempted` operations of which `failed` missed their
    /// known answer.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// One operation with one known answer.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, note: String) {
        // A systematic miss repeats every repetition; a few lines say it.
        if self.noted < 20 {
            eprintln!("known-answer miss: {note}");
            self.noted += 1;
        }
    }
}

/// Time `f` from outside: two clock readings around the call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// What one repetition measured. The workload fills in wall-clock
/// values; the harness brings them to the box's nominal speed.
pub struct Rep {
    /// Input generation and construction before the timed body.
    pub setup_s: f64,
    /// Time to the verdict (see `metrics::END_TO_END`).
    pub verdict_s: f64,
    pub ops_per_s: f64,
    /// How long the repetition spent measuring; the loops add these up
    /// against `--seconds`.
    pub measured_s: f64,
    /// Per-layer numbers, from a traced repetition only.
    pub layers: Option<Layers>,
}

impl Rep {
    /// Divide every time by `factor`, how much slower than nominal the
    /// calibration slices around this repetition ran.
    fn at_nominal_speed(&mut self, factor: f64) {
        self.setup_s /= factor;
        self.verdict_s /= factor;
        self.ops_per_s *= factor;
        if let Some(layers) = &mut self.layers {
            for m in PER_LAYER.iter().filter(|m| m.is_time()) {
                if let Some(v) = layers.0.get_mut(m.name) {
                    *v /= factor;
                }
            }
        }
    }
}

/// A workload: inputs from a seed, a timed body, known answers.
pub trait Workload {
    /// One repetition: set-up, then the timed body, then (outside both
    /// timed regions) the known-answer checks, and with `tracer`
    /// enabled the replays through leaf functions that attribute the
    /// body to layers.
    fn rep(&mut self, cfg: &Config, tracer: &mut Tracer, checks: &mut Checks) -> Rep;

    /// One more set-up alone, for workloads whose set-up takes
    /// milliseconds: three samples do not pin down such a median.
    /// `None` where one sample per repetition is enough.
    fn setup_only(&mut self, _cfg: &Config) -> Option<f64> {
        None
    }

    /// Known answers checked once per run rather than per repetition.
    fn final_checks(&mut self, _cfg: &Config, _checks: &mut Checks) {}

    /// How much of the box's slowdown reaches this workload: its times
    /// are divided by the calibration slices' slowdown raised to this
    /// power. 1 unless the acceptance runs measured otherwise (README,
    /// "Noise").
    fn sensitivity(&self) -> f64 {
        1.0
    }
}

const MIN_REPS: usize = 3;
const CHEAP_SETUP_SAMPLES: usize = 15;
const CHEAP_SETUP_S: f64 = 0.05;

/// Repeat until the repetitions have measured for `cfg.seconds`, and
/// at least `min_reps` times, with a calibration slice before the
/// first repetition and after each (`slice` returns how much slower
/// than nominal it ran). Returns the repetitions at nominal speed, the
/// factor each was divided by, and the last slice.
fn repeat(
    cfg: &Config,
    min_reps: usize,
    slice: &mut dyn FnMut() -> f64,
    mut rep: impl FnMut() -> Rep,
) -> (Vec<Rep>, Vec<f64>, f64) {
    let (min_reps, max_reps) = if cfg.quick {
        (1, 1)
    } else {
        (min_reps, usize::MAX)
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut factors = Vec::new();
    let mut before = slice();
    while reps.len() < min_reps
        || (reps.len() < max_reps && reps.iter().map(|r| r.measured_s).sum::<f64>() < cfg.seconds)
    {
        let mut r = rep();
        let after = slice();
        let factor = (before + after) / 2.0;
        r.at_nominal_speed(factor);
        reps.push(r);
        factors.push(factor);
        before = after;
    }
    (reps, factors, before)
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The untraced run: end-to-end metrics, medians over repetitions.
pub fn run_untraced(w: &mut dyn Workload, cfg: &Config) -> Outcome {
    let mut cal = Calibrator::new();
    let resident_mb = cal.resident_mb;
    untraced(w, cfg, &mut || cal.slowdown(), resident_mb)
}

fn untraced(
    w: &mut dyn Workload,
    cfg: &Config,
    slice: &mut dyn FnMut() -> f64,
    calibrator_mb: f64,
) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(false);
    let sensitivity = w.sensitivity();
    let slice = &mut || slice().powf(sensitivity);
    let (reps, factors, last_slice) = repeat(cfg, MIN_REPS, slice, || {
        w.rep(cfg, &mut tracer, &mut checks)
    });
    let peak_rss_mb = status_mb("VmHWM:") - calibrator_mb;

    let mut setup_s = column(&reps, |r| r.setup_s);
    if !cfg.quick && median(&setup_s) < CHEAP_SETUP_S {
        let extra: Vec<f64> = (setup_s.len()..CHEAP_SETUP_SAMPLES)
            .map_while(|_| w.setup_only(cfg))
            .collect();
        if !extra.is_empty() {
            let factor = (last_slice + slice()) / 2.0;
            setup_s.extend(extra.iter().map(|s| s / factor));
        }
    }
    w.final_checks(cfg, &mut checks);
    let mut remarks = vec![format!(
        "{} repetitions, {} set-up samples; times at nominal speed (wall clock divided by the factor)",
        reps.len(),
        setup_s.len()
    )];
    remarks.extend(reps.iter().zip(&factors).enumerate().map(|(i, (r, f))| {
        format!(
            "repetition {}: factor {f:.4} setup_s {:.6} verdict_s {:.6} ops_per_s {:.3}",
            i + 1,
            r.setup_s,
            r.verdict_s,
            r.ops_per_s
        )
    }));
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "verdict_s" => median(&column(&reps, |r| r.verdict_s)),
        "ops_per_s" => median(&column(&reps, |r| r.ops_per_s)),
        "peak_rss_mb" => peak_rss_mb,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    Outcome {
        metrics: END_TO_END.iter().map(|m| (m, value(m.name))).collect(),
        checks,
        remarks,
    }
}

/// The traced run: traced repetitions, then one untraced repetition as
/// the reference for the tracing overhead; per-layer metrics are
/// medians over the traced repetitions. Returns the spans for the
/// caller to write out.
pub fn run_traced(w: &mut dyn Workload, cfg: &Config) -> (Outcome, Tracer) {
    let mut cal = Calibrator::new();
    traced(w, cfg, &mut || cal.slowdown())
}

fn traced(w: &mut dyn Workload, cfg: &Config, slice: &mut dyn FnMut() -> f64) -> (Outcome, Tracer) {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(true);
    let sensitivity = w.sensitivity();
    let slice = &mut || slice().powf(sensitivity);
    let (reps, factors, last_slice) =
        repeat(cfg, 1, slice, || w.rep(cfg, &mut tracer, &mut checks));
    // The reference runs last: the first repetition in a process pays
    // for a cold heap, which would read as negative tracing overhead.
    let mut reference = w.rep(cfg, &mut Tracer::new(false), &mut checks);
    reference.at_nominal_speed((last_slice + slice()) / 2.0);
    w.final_checks(cfg, &mut checks);

    let mut layers = Layers::default();
    for m in PER_LAYER {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| r.layers.as_ref().map_or(0.0, |l| l.get(m.name)))
            .collect();
        layers.set(m.name, median(&per_rep));
    }
    let traced_verdict_s = median(&column(&reps, |r| r.verdict_s));
    layers.set("bench.traced_body_s", traced_verdict_s);
    layers.set("bench.slowdown_factor", median(&factors));
    if reference.verdict_s > 0.0 {
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_verdict_s / reference.verdict_s - 1.0),
        );
    }
    let closure = layers.get("bench.trace_closure_pct");
    let mut remarks = vec![format!(
        "{} traced repetitions; times at nominal speed (wall clock divided by bench.slowdown_factor)",
        reps.len()
    )];
    if (closure - 100.0).abs() > 10.0 {
        remarks.push(format!(
            "self times close to {closure:.1}% of the traced body, outside 100% ± 10%"
        ));
    }
    let outcome = Outcome {
        metrics: PER_LAYER.iter().map(|m| (m, layers.get(m.name))).collect(),
        checks,
        remarks,
    };
    (outcome, tracer)
}

/// Tell the allocator to keep what the program frees: no trimming of
/// the heap's top, no separate mappings for large blocks. A repetition
/// frees hundreds of megabytes and the next one allocates them again;
/// by default each page comes back from the kernel at a first-touch
/// cost that on this box swings between 2 and 25 µs with what the host
/// currently backs (a second a repetition on `cold_sweep` when it was
/// measured). Kept, the pages are faulted in once per process. The
/// setting is the benchmark's, the same on every commit it measures.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only stores the two tunables in glibc's
        // allocator state; it is called before any other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_MAX, 0);
        }
    }
}

/// A size from the kernel's account of this process, in MB: `VmHWM:`
/// is the peak resident set so far, `VmRSS:` the current one. Each
/// workload runs in a process of its own, so the peak is that
/// workload's (plus the calibration tables, which the harness takes
/// off again).
pub fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer numbers by catalogue name. Layers a workload never enters
/// stay at 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalogue"
        );
        assert!(value.is_finite(), "{name} is not finite");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a run prints.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Free-form lines printed above the result (repetitions, which
    /// percentile a tail is).
    pub remarks: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(m.unit.into()))]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, then the result line last.
    pub fn print(&self, workload: &str) {
        for r in &self.remarks {
            println!("# {workload}: {r}");
        }
        for (m, v) in &self.metrics {
            println!("{workload} {:<34} {v:>18.6} {}", m.name, m.unit);
        }
        println!(
            "{workload} {:<34} {:>18.6} ratio ({} of {} operations)",
            "failed_ops_share",
            self.checks.failed as f64 / self.checks.attempted.max(1) as f64,
            self.checks.failed,
            self.checks.attempted
        );
        println!("{}", self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        measured_s: f64,
        reps: usize,
        setups: usize,
    }

    impl Workload for Fixed {
        fn rep(&mut self, _: &Config, tracer: &mut Tracer, checks: &mut Checks) -> Rep {
            self.reps += 1;
            checks.ops(10, 0, "ops");
            let mut layers = Layers::default();
            layers.set("bench.trace_closure_pct", 100.0);
            layers.set("whatif.scenarios", self.reps as f64);
            Rep {
                setup_s: 0.001,
                verdict_s: if tracer.enabled() { 2.2 } else { 2.0 },
                ops_per_s: 5.0,
                measured_s: self.measured_s,
                layers: tracer.enabled().then_some(layers),
            }
        }

        fn setup_only(&mut self, _: &Config) -> Option<f64> {
            self.setups += 1;
            Some(0.002)
        }

        fn final_checks(&mut self, _: &Config, checks: &mut Checks) {
            checks.expect(false, || "planted miss".into());
        }
    }

    const CFG: Config = Config {
        seed: 0,
        seconds: 10.0,
        quick: false,
    };

    /// A box at exactly its nominal speed.
    fn nominal() -> f64 {
        1.0
    }

    #[test]
    fn times_are_divided_by_how_slow_the_slices_around_them_ran() {
        let mut w = Fixed {
            measured_s: 20.0,
            reps: 0,
            setups: 0,
        };
        // Slices 1, 2, 3, 4 times slower than nominal around three
        // repetitions: factors 1.5, 2.5, 3.5, and 4.5 for the extra
        // set-up samples.
        let mut n = 0.0;
        let mut slowing = || {
            n += 1.0;
            n
        };
        let out = untraced(&mut w, &CFG, &mut slowing, 0.0);
        let get = |name: &str| out.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
        assert!((get("verdict_s") - 2.0 / 2.5).abs() < 1e-12);
        assert!((get("ops_per_s") - 5.0 * 2.5).abs() < 1e-12);
        assert!((get("setup_s") - 0.002 / 4.5).abs() < 1e-12);

        let (out, _) = traced(&mut w, &CFG, &mut || 2.0);
        let get = |name: &str| out.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
        assert_eq!(get("bench.slowdown_factor"), 2.0);
        assert_eq!(get("bench.traced_body_s"), 1.1);
        // Counts and ratios stay as they are.
        assert_eq!(get("bench.trace_closure_pct"), 100.0);
    }

    #[test]
    fn untraced_run_repeats_three_times_then_until_the_time_is_up() {
        let mut w = Fixed {
            measured_s: 20.0,
            reps: 0,
            setups: 0,
        };
        let out = untraced(&mut w, &CFG, &mut nominal, 0.0);
        assert_eq!((w.reps, w.setups), (3, CHEAP_SETUP_SAMPLES - 3));
        assert_eq!(out.checks.attempted, 31);
        assert!(!out.correct(), "the final check missed");

        let mut w = Fixed {
            measured_s: 3.0,
            reps: 0,
            setups: 0,
        };
        untraced(&mut w, &CFG, &mut nominal, 0.0);
        assert_eq!(w.reps, 4);

        let mut w = Fixed {
            measured_s: 0.0,
            reps: 0,
            setups: 0,
        };
        untraced(&mut w, &Config { quick: true, ..CFG }, &mut nominal, 0.0);
        assert_eq!((w.reps, w.setups), (1, 0));
    }

    #[test]
    fn traced_run_takes_a_reference_and_reports_overhead_and_medians() {
        let mut w = Fixed {
            measured_s: 4.0,
            reps: 0,
            setups: 0,
        };
        let (out, _) = traced(&mut w, &CFG, &mut nominal);
        // 4 + 4 + 4 >= 10 seconds of traced bodies, then one reference.
        assert_eq!(w.reps, 4);
        let get = |name: &str| out.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
        assert!((get("bench.trace_overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(get("bench.traced_body_s"), 2.2);
        // Median over the traced repetitions 1, 2, 3.
        assert_eq!(get("whatif.scenarios"), 2.0);
        assert_eq!(get("smtkit.conflicts"), 0.0);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut w = Fixed {
            measured_s: 20.0,
            reps: 0,
            setups: 0,
        };
        let out = untraced(&mut w, &CFG, &mut nominal, 0.0);
        let v = out.to_json();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            metrics.get("verdict_s").unwrap().to_string(),
            r#"{"value": 2, "unit": "s"}"#
        );
    }

    #[test]
    fn peak_rss_reads_the_kernel_mark() {
        assert!(status_mb("VmHWM:") > 1.0 && status_mb("VmRSS:") > 1.0);
    }
}
