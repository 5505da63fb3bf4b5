//! The seven verbs [`crate::cli::VERBS`] declares: each reads its
//! flags, makes one `ValidatorBuilder` / `SecGuru` / `NsgApi` call and
//! says the pure render of what came back.

use crate::cli::Run;
use crate::prelude::*;
use crate::{metrics, render, serve as churn};
use secguru::diff::SmtDiff;
use secguru::nsg_gate::{NsgApi, UpdateResult, VnetMetadata};

pub(crate) fn validate(run: &mut Run<'_>) -> Result<bool, String> {
    let (topology, announcement) = run.generate("failed");
    run.log(&announcement);
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let report = run.validator(&meta).build().run(&fibs);
    let elapsed = Some(report.elapsed);
    run.say(&render::render_validate_report(
        &report, &topology, &meta, elapsed,
    ));
    // The batch pass alone says nothing about the live pipeline, so
    // the export also runs a cold + warm monitoring sweep over the
    // same FIBs (validate-latency histograms, verdict-cache counters)
    // beside the pass's rcdc_pass_* / rcdc_engine_* / rcdc_solver_*.
    run.export(|registry| {
        let mut snapshot = registry.observe_and_snapshot(&[&report]);
        snapshot.absorb(&metrics::live_sweep(&meta, &fibs));
        snapshot
    });
    Ok(report.is_clean())
}

pub(crate) fn whatif(run: &mut Run<'_>) -> Result<bool, String> {
    let args = &run.args;
    let sample = args.parsed("--sample")?;
    if sample == Some(0) {
        // The healthy fabric alone would read as `Robust(k)`.
        return Err("whatif: --sample 0 checks no failure scenario".to_string());
    }
    let options = SweepOptions {
        k: args.parsed("--k")?.unwrap_or(1),
        include_devices: args.flag("--devices"),
        sample,
        seed: run.seed,
        threads: run.threads,
        exhaustive: args.flag("--exhaustive"),
        condition: args
            .parsed("--condition")?
            .unwrap_or(FailCondition::Blackhole),
    };
    let (topology, announcement) = run.generate("pre-failed");
    run.say(&announcement);
    let meta = MetadataService::from_topology(&topology);
    let sweeper = run
        .validator(&meta)
        .build_whatif(&topology, &SimConfig::healthy());
    let report = sweeper.sweep(&options);
    let (exhaustive, elapsed) = (options.exhaustive, Some(report.elapsed));
    run.say(&render::render_whatif(
        &report, &topology, exhaustive, elapsed,
    ));
    run.export(|registry| registry.observe_and_snapshot(&[]));
    Ok(report.is_robust())
}

pub(crate) fn serve(run: &mut Run<'_>) -> Result<bool, String> {
    let args = &run.args;
    let rounds = args.parsed("--rounds")?.unwrap_or(5);
    let churn = args.parsed("--churn")?.unwrap_or(8);
    let shards = args.parsed("--shards")?.unwrap_or(1);
    let capacity = args.parsed("--ingest-capacity")?.unwrap_or(1024);
    let (topology, _) = run.generate("");
    // The service path owns the machine, so the fleet's initial fixed
    // point uses all detected cores; the output is bit-identical at
    // any thread count.
    let (fibs, _) = simulate_with(&topology, &SimConfig::healthy(), SimOptions::auto());
    let meta = MetadataService::from_topology(&topology);
    let builder = run
        .validator(&meta)
        .shards(shards)
        .ingest_capacity(capacity);
    let report = churn::churn_run(builder, &fibs, rounds, churn, run.seed);
    run.say(&render::render_serve(&report));
    let clean = report.restore_dirty == 0;
    run.export(|_| report.snapshot);
    Ok(clean)
}

pub(crate) fn plan(run: &mut Run<'_>) -> Result<bool, String> {
    let (args, seed) = (&run.args, run.seed);
    let scenario = args
        .parsed("--scenario")?
        .unwrap_or(RolloutScenario::Migrate);
    let racks = args.parsed("--racks")?.unwrap_or(1);
    let options = PlanOptions {
        condition: args
            .parsed("--condition")?
            .unwrap_or(FailCondition::Blackhole),
        accept_final: !args.flag("--no-accept-final"),
        max_backtracks: args.parsed("--max-backtracks")?.unwrap_or(4096),
        threads: run.threads,
    };
    let (topology, announcement) = run.generate("");
    run.say(&announcement);
    let (net, changes) = seeded_scenario(&topology, scenario, racks, seed);
    let count = changes.len();
    run.say(&format!(
        "scenario {scenario:?}: {count} changes over {racks} rack(s), seed {seed}\n"
    ));

    let meta = MetadataService::from_topology(&net.topology);
    let planner = run.validator(&meta).build_planner(&net);
    // How far does the operator's submit order get before violating a
    // contract mid-rollout?
    let naive = planner.check_order(&changes, &options)?;
    let report = planner.plan(&changes, &options)?;
    let (fabric, elapsed) = (&net.topology, Some(report.elapsed));
    run.say(&render::render_plan(
        &naive, &report, &changes, fabric, elapsed,
    ));
    run.export(|registry| registry.observe_and_snapshot(&[]));
    Ok(report.is_safe())
}

/// `"<src>;<dst>;<dport>;<proto>;<permit|deny>"`, each field may be
/// `any`.
fn parse_inline_contract(spec: &str) -> Result<Contract, String> {
    let parts: Vec<&str> = spec.split(';').map(str::trim).collect();
    let [src, dst, dport, proto, action] = parts.as_slice() else {
        let fields = "5 ';'-separated fields (src;dst;dport;proto;action)";
        return Err(format!("contract {spec:?}: expected {fields}"));
    };
    let any = |tok: &str| tok.eq_ignore_ascii_case("any");
    let side = |tok: &str| -> Result<IpRange, String> {
        if any(tok) {
            return Ok(IpRange::ALL);
        }
        let prefix: Prefix = tok.parse().map_err(|e| format!("{e}"))?;
        Ok(prefix.range())
    };
    let dst_ports = if any(dport) {
        PortRange::ALL
    } else {
        PortRange::single(dport.parse().map_err(|_| format!("bad port {dport:?}"))?)
    };
    let filter = HeaderSpace {
        src: side(src)?,
        src_ports: PortRange::ALL,
        dst: side(dst)?,
        dst_ports,
        protocol: proto.parse::<Protocol>().map_err(|e| e.to_string())?,
    };
    let expect = match action.to_ascii_lowercase().as_str() {
        "permit" | "allow" => Action::Permit,
        "deny" => Action::Deny,
        other => return Err(format!("bad action {other:?}")),
    };
    Ok(Contract::new(spec.to_string(), filter, expect))
}

/// Read the policy file at `path` with `parse` (`parse_acl` or `parse_nsg`).
fn read_policy<E: std::fmt::Display>(
    path: &str,
    parse: fn(&str, &str) -> Result<Policy, E>,
) -> Result<Policy, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(path, &text).map_err(|e| e.to_string())
}

pub(crate) fn check_acl(run: &mut Run<'_>) -> Result<bool, String> {
    let file = run.args.positional[0];
    let policy = read_policy(file, parse_acl)?;
    run.log(&format!("parsed {} rules from {file}\n", policy.len()));
    let specs = run.args.values("--contract");
    let mut contracts = specs
        .map(parse_inline_contract)
        .collect::<Result<Vec<_>, _>>()?;
    if contracts.is_empty() {
        run.log("no contracts given; running the built-in edge-ACL suite\n");
        contracts = secguru::refactor::edge_contracts();
    }
    let mut secguru = SecGuru::new(policy);
    if let Some(registry) = run.registry() {
        secguru = secguru.metrics(registry);
    }
    let failures = secguru.check_all(&contracts);
    let clean = format!("all {} contracts hold", contracts.len());
    run.say(&render::render_failures("VIOLATED", &failures, &clean));
    run.export(|registry| registry.observe_and_snapshot(&[&secguru]));
    Ok(failures.is_empty())
}

pub(crate) fn check_nsg(run: &mut Run<'_>) -> Result<bool, String> {
    let (args, file) = (&run.args, run.args.positional[0]);
    let required = |name: &str| args.parsed(name)?.ok_or(format!("{name} required"));
    let metadata = VnetMetadata {
        database_subnet: Some(required("--db-subnet")?),
        infra_service: required("--infra")?,
        backup_port: args.parsed("--port")?.unwrap_or(1433),
    };
    let nsg = read_policy(file, parse_nsg)?;
    let failures = match NsgApi::new(metadata, true).update_policy(nsg) {
        UpdateResult::Accepted => Vec::new(),
        UpdateResult::Rejected(failures) => failures,
    };
    let clean = "NSG accepted: backup path preserved";
    run.say(&render::render_failures("REJECTED", &failures, clean));
    Ok(failures.is_empty())
}

pub(crate) fn diff_acl(run: &mut Run<'_>) -> Result<bool, String> {
    let old = read_policy(run.args.positional[0], parse_acl)?;
    let new = read_policy(run.args.positional[1], parse_acl)?;
    // §3.2's formulation; under `--metrics` the registry captures its
    // query latencies and solver counters.
    let mut smt = SmtDiff::new(&old, &new);
    if let Some(registry) = run.registry() {
        smt = smt.metrics(registry);
    }
    let diff = smt.diff();
    run.export(|registry| registry.observe_and_snapshot(&[&smt]));
    run.say(&render::render_diff(&diff));
    Ok(diff.is_equivalent())
}
