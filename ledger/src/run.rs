//! `dcledger run` — every workload, each run in a fresh child process
//! (its own heap, its own `VmHWM`): untraced `--repeat` times for the
//! end-to-end metrics, then once traced for the per-layer metrics. One
//! child runs at a time, so the load comes from one process with no
//! more busy threads than the box has cores. Writes the result set
//! `compare` reads.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub quick: bool,
    /// Names the result file: `run.sh` passes the short commit.
    pub label: String,
    pub out: Option<PathBuf>,
}

/// Where result sets and traces go: `ledger/results/`, wherever the
/// command was started from.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Run one workload in a child process; echo what it prints and return
/// its result line.
fn bench_child(workload: &str, args: &RunArgs, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("{workload} printed no result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line lacks metric {name}"))
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// `Ok(true)` when every workload's known answers held.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    for (workload, _) in WORKLOADS {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for _ in 0..args.repeat.max(1) {
            let result = bench_child(workload, args, false)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (slot, def) in values.iter_mut().zip(END_TO_END) {
                slot.push(metric_value(&result, def.name)?);
            }
        }
        let traced = bench_child(workload, args, true)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        correct &= failed == 0.0;

        let end_to_end = END_TO_END.iter().zip(values).map(|(def, values)| {
            (
                def.name,
                Json::obj([
                    ("unit", Json::Str(def.unit.into())),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        });
        let mut per_layer = Vec::with_capacity(PER_LAYER.len());
        for def in PER_LAYER {
            per_layer.push((
                def.name,
                Json::obj([
                    ("unit", Json::Str(def.unit.into())),
                    ("value", Json::Num(metric_value(&traced, def.name)?)),
                ]),
            ));
        }
        workloads.push((
            *workload,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let set = Json::obj([
        ("schema", Json::Str("dcledger-results-1".into())),
        ("label", Json::Str(args.label.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat.max(1) as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("{}-{}.json", args.label, args.seed)));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::File::create(&out)
        .and_then(|mut f| f.write_all(set.pretty().as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(correct)
}
