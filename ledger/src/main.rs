//! `dcledger` — the perf ledger: one command, five workloads,
//! absolute end-to-end and per-layer numbers. See `ledger/README.md`.

mod calib;
mod compare;
mod fabric;
mod harness;
mod json;
mod metrics;
mod rng;
mod run;
mod stats;
#[cfg(test)]
mod surface;
mod trace;
mod workloads;

use harness::Config;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dcledger bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
      One workload in this process; the last line of stdout is the result as JSON.
  dcledger run --seed <n> [--seconds <s>] [--repeat <r>] [--quick] [--label <name>] [--out <file>]
      Every workload, each run in a fresh child process: untraced <r> times
      (default 3) for the end-to-end metrics, then traced for the per-layer
      metrics. Writes ledger/results/<label>-<seed>.json.
  dcledger compare <a.json> <b.json>
      One row per (workload, end-to-end metric) and a per-layer diff; exits 1 on
      any row worse than its bound or any rise in failed operations.
  dcledger catalogue
      Print BENCHMARK.json as the catalogue in this binary describes it.";

/// `--key value` options after the subcommand.
struct Opts<'a>(&'a [String]);

impl Opts<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: {v:?}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?
            .ok_or_else(|| format!("{key} is required"))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn cmd_bench(opts: &Opts) -> Result<bool, String> {
    let name: String = opts.required("--workload")?;
    let cfg = Config {
        seed: opts.required("--seed")?,
        seconds: opts.required("--seconds")?,
        quick: opts.flag("--quick"),
    };
    let traced = match opts.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    harness::keep_freed_memory();
    let mut workload =
        workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let outcome = if traced {
        let (outcome, tracer) = harness::run_traced(workload.as_mut(), &cfg);
        let dir = run::results_dir();
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json().to_string()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        outcome
    } else {
        harness::run_untraced(workload.as_mut(), &cfg)
    };
    outcome.print(&name);
    Ok(true)
}

fn cmd_run(opts: &Opts) -> Result<bool, String> {
    let quick = opts.flag("--quick");
    run::run(&run::RunArgs {
        seed: opts.required("--seed")?,
        seconds: opts.parsed("--seconds")?.unwrap_or(if quick {
            1.0
        } else {
            metrics::RUN_SECONDS as f64
        }),
        repeat: opts
            .parsed("--repeat")?
            .unwrap_or(if quick { 1 } else { 3 }),
        quick,
        label: opts.value("--label").unwrap_or("local").to_string(),
        out: opts.value("--out").map(Into::into),
    })
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare::compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = Opts(&args[1..]);
    let result = match command.as_str() {
        "bench" => cmd_bench(&opts),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&args[1..]),
        "catalogue" => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(true)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
