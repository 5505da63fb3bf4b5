//! Seed-sweep driver for the deterministic pipeline simulation.
//!
//! ```text
//! simnet --seed 0 --count 300 [--shards N] [--metrics <path|->]
//! ```
//!
//! Exit status 0 when every seed's schedule converges; on an invariant
//! violation, prints the minimized schedule plus a replay command and
//! exits 1. `--shards N` runs every script against N shard-partitioned
//! device stores (the sharded-service configuration) with the invariants
//! checked per shard and globally. With `--metrics`, the sweep's
//! accumulated metric registry is exported after the run: `-` writes
//! Prometheus text to stdout, a `.json` path writes the JSON form, any
//! other path Prometheus text.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seed = 0u64;
    let mut count = 300u64;
    let mut shards = 1u64;
    let mut metrics_dest: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse(args.next(), "--seed"),
            "--count" => count = parse(args.next(), "--count"),
            "--shards" => shards = parse(args.next(), "--shards").max(1),
            "--metrics" => {
                metrics_dest = Some(args.next().unwrap_or_else(|| {
                    eprintln!("simnet: --metrics needs a path (or - for stdout)");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("usage: simnet [--seed N] [--count M] [--shards N] [--metrics <path|->]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simnet: unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    // With metrics on stdout, the human-facing lines move to stderr so
    // the Prometheus exposition stays machine-parseable.
    let metrics_stdout = metrics_dest.as_deref() == Some("-");
    let over = if shards > 1 {
        format!(" over {shards} shards")
    } else {
        String::new()
    };
    if metrics_stdout {
        eprintln!("simnet: sweeping {count} seeds from {seed}{over}");
    } else {
        println!("simnet: sweeping {count} seeds from {seed}{over}");
    }
    let registry = obskit::Registry::new();
    let result = simnet::sweep_sharded(seed, count, &registry, shards as usize);
    if let Some(dest) = metrics_dest {
        if let Err(e) = export_metrics(&registry, &dest) {
            eprintln!("simnet: cannot write metrics to {dest:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(stats) => {
            if metrics_stdout {
                eprintln!("{stats}");
            } else {
                println!("{stats}");
            }
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("{failure}");
            ExitCode::FAILURE
        }
    }
}

/// Write the registry to `dest`: `-` → Prometheus text on stdout,
/// `*.json` → JSON file, anything else → Prometheus text file.
fn export_metrics(registry: &obskit::Registry, dest: &str) -> std::io::Result<()> {
    registry.snapshot().write_to(dest)
}

fn parse(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("simnet: {flag} needs a numeric value");
        std::process::exit(2);
    })
}
