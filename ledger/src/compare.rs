//! `dcledger compare <a.json> <b.json>` — judge result set `b` against
//! baseline `a` under the benchmark's own bounds: one row per
//! (workload, end-to-end metric), then a per-layer diff. This is the
//! tool the "two sets of runs agree" criterion uses, and the one a
//! later change shows its numbers with.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, relative_iqr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the run-to-run spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the baseline by more than the bound.
    WorseThanBound,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression of that size from noise. Not "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::WorseThanBound => "WORSE-THAN-BOUND",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side as a share of its median: the
/// inter-quartile distance with four or more runs, the range with two
/// or three, unknown with one.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() >= 4 {
        return relative_iqr(values);
    }
    let m = median(values);
    (values.len() >= 2 && m != 0.0).then(|| {
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        (hi - lo) / m.abs()
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a` as a share of `a`, in the
    /// metric's own direction; negative when `b` is better.
    pub worse_by: f64,
    /// The wider of the two sides' spreads, when known.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge one end-to-end metric of one workload.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::WorseThanBound
    } else if worse_by < 0.0 && -worse_by > spread.unwrap_or(0.0) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row {
        a: ma,
        b: mb,
        worse_by,
        spread,
        verdict,
    }
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn layer_of(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_share(set: &Json, workload: &str) -> Option<f64> {
    let w = set.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted")?.as_f64()?;
    Some(w.get("failed")?.as_f64()? / attempted.max(1.0))
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

/// Print both tables; `Ok(true)` when `b` passes against `a`.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    let mut compared = 0;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (
                values_of(a, workload, def.name),
                values_of(b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let row = judge(def, &va, &vb);
            pass &= row.verdict != Verdict::WorseThanBound;
            println!(
                "{:<13} {:<12} {:>14.6} {:>14.6} {:>9} {:>8} {:>7}  {}",
                workload,
                def.name,
                row.a,
                row.b,
                pct(row.worse_by),
                row.spread
                    .map_or("n/a".into(), |s| format!("{:.1}%", 100.0 * s)),
                format!("{:.0}%", 100.0 * def.bound.unwrap_or(0.0)),
                row.verdict.as_str()
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(a, workload), failed_share(b, workload)) {
            let rose = fb > fa;
            pass &= !rose;
            println!(
                "{:<13} {:<12} {:>14.6} {:>14.6} {:>9} {:>8} {:>7}  {}",
                workload,
                "failed_ops_share",
                fa,
                fb,
                "",
                "",
                "0%",
                if rose { "ROSE" } else { "not risen" }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload with end-to-end values".into());
    }

    println!();
    println!(
        "{:<13} {:<32} {:>16} {:>16} {:>9}",
        "workload", "per-layer metric", "a", "b", "change"
    );
    let mut counts_differ = 0;
    for (workload, _) in WORKLOADS {
        for def in PER_LAYER {
            let (Some(x), Some(y)) = (
                layer_of(a, workload, def.name),
                layer_of(b, workload, def.name),
            ) else {
                continue;
            };
            if x == 0.0 && y == 0.0 {
                continue;
            }
            counts_differ += usize::from(def.exact && x != y);
            println!(
                "{:<13} {:<32} {:>16.6} {:>16.6} {:>9}{}",
                workload,
                def.name,
                x,
                y,
                if x != 0.0 {
                    pct((y - x) / x.abs())
                } else {
                    "new".into()
                },
                if def.exact && x != y {
                    "  count differs"
                } else {
                    ""
                }
            );
        }
    }
    println!();
    println!(
        "{counts_differ} exact count(s) differ; {}",
        if pass {
            "no end-to-end metric is worse than its bound and no failed share rose"
        } else {
            "FAIL: an end-to-end metric is worse than its bound or a failed share rose"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn spread_uses_quartiles_when_it_can_and_the_range_otherwise() {
        assert_eq!(spread(&[10.0]), None);
        assert_eq!(spread(&[9.0, 11.0]), Some(0.2));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn lower_is_better_metrics_fail_only_past_the_bound() {
        let def = end_to_end("verdict_s").unwrap();
        let bound = def.bound.unwrap();
        let a = [1.0, 1.01, 0.99, 1.0];
        let worse = 1.0 + bound + 0.02;
        let at = |x: f64| [x, x * 1.01, x * 0.99, x];
        assert_eq!(judge(def, &a, &at(worse)).verdict, Verdict::WorseThanBound);
        assert_eq!(
            judge(def, &a, &at(1.0 + bound / 2.0)).verdict,
            Verdict::WithinBound
        );
        assert_eq!(judge(def, &a, &at(0.9)).verdict, Verdict::Better);
        // Better by less than the spread is not a claim.
        assert_eq!(judge(def, &a, &at(0.995)).verdict, Verdict::WithinBound);
        let row = judge(def, &a, &at(worse));
        assert!((row.worse_by - (bound + 0.02)).abs() < 1e-9);
    }

    #[test]
    fn higher_is_better_metrics_are_judged_in_their_own_direction() {
        let def = end_to_end("ops_per_s").unwrap();
        let bound = def.bound.unwrap();
        let a = [100.0, 100.0, 100.0];
        assert_eq!(judge(def, &a, &[130.0; 3]).verdict, Verdict::Better);
        let slower = 100.0 * (1.0 - bound - 0.02);
        assert_eq!(
            judge(def, &a, &[slower; 3]).verdict,
            Verdict::WorseThanBound
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let def = end_to_end("verdict_s").unwrap();
        let noisy = [1.0, 1.6, 0.7, 1.3, 1.0];
        assert_eq!(judge(def, &noisy, &[1.0; 5]).verdict, Verdict::Unresolved);
        // Even a large regression cannot be resolved by such runs.
        assert_eq!(
            judge(def, &[1.0; 5], &noisy.map(|x| 2.0 * x)).verdict,
            Verdict::Unresolved
        );
    }

    fn set(verdict_s: &[f64], failed: f64, scenarios: f64) -> Json {
        let values = Json::Arr(verdict_s.iter().map(|&v| Json::Num(v)).collect());
        Json::obj([(
            "workloads",
            Json::obj([(
                "whatif_k2",
                Json::obj([
                    ("attempted", Json::Num(100.0)),
                    ("failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj([(
                            "verdict_s",
                            Json::obj([("unit", Json::Str("s".into())), ("values", values)]),
                        )]),
                    ),
                    (
                        "per_layer",
                        Json::obj([(
                            "whatif.scenarios",
                            Json::obj([("value", Json::Num(scenarios))]),
                        )]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_passes_equal_sets_and_fails_regressions_and_new_failures() {
        let base = set(&[3.0, 3.05, 2.95], 0.0, 151.0);
        assert_eq!(compare(&base, &base), Ok(true));
        assert_eq!(
            compare(&base, &set(&[3.1, 3.0, 3.05], 0.0, 151.0)),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &set(&[4.0, 4.05, 3.95], 0.0, 151.0)),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &set(&[3.0, 3.05, 2.95], 1.0, 151.0)),
            Ok(false)
        );
        // A count that differs is reported, not failed: a later change
        // may mean to move it.
        assert_eq!(
            compare(&base, &set(&[3.0, 3.05, 2.95], 0.0, 140.0)),
            Ok(true)
        );
        assert!(compare(&base, &Json::obj([("workloads", Json::Obj(vec![]))])).is_err());
    }
}
