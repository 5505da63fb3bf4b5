//! `validatedc` — command-line front end for the datacenter validation
//! toolkit.
//!
//! ```text
//! validatedc validate [--clusters N] [--tors N] [--leaves N] [--spines N]
//!                     [--fail-links N] [--seed S] [--engine trie|trie-semantic|smt|smt-semantic]
//!                     [--threads N] [--metrics <path|->]
//!     Generate a Clos datacenter, optionally inject random link
//!     faults, converge BGP, validate all local contracts, and print
//!     the triaged report.
//!
//! validatedc whatif   [--k N] [--condition any|low|medium|high|blackhole]
//!                     [--devices] [--symmetry] [--sample N] [--exhaustive]
//!                     [--clusters N] [--tors N] [--leaves N] [--spines N]
//!                     [--fail-links N] [--seed S] [--engine ...] [--threads N]
//!                     [--metrics <path|->]
//!     K-failure robustness sweep: enumerate failure scenarios up to
//!     size k, re-converge each incrementally from the healthy fixed
//!     point, revalidate only the changed devices, and print either a
//!     Robust(k) certificate or a minimal counterexample scenario.
//!
//! validatedc plan     [--scenario migrate|decommission] [--racks N]
//!                     [--condition any|low|medium|high|blackhole]
//!                     [--no-accept-final] [--max-backtracks N]
//!                     [--clusters N] [--tors N] [--leaves N] [--spines N]
//!                     [--seed S] [--engine ...] [--threads N] [--metrics <path|->]
//!     Safe change-rollout planning: build a seeded maintenance
//!     scenario over the generated fabric, show where the naive
//!     submit order first violates the contracts, and search for an
//!     ordering whose every intermediate state is safe. Exit 0 = safe
//!     plan found, 2 = minimal unsafe change set reported.
//!
//! validatedc check-acl <FILE> [--contract "<filter>;<permit|deny>"]...
//!                     [--metrics <path|->]
//!     Parse a Cisco-IOS-style ACL and check contracts against it.
//!     With no contracts given, runs the built-in edge-ACL regression
//!     suite.
//!
//! validatedc check-nsg <FILE> --db-subnet <PFX> --infra <PFX> --port <N>
//!     Validate an NSG policy file against the auto-generated
//!     database-backup reachability contracts (§3.4).
//!
//! validatedc diff-acl <OLD> <NEW> [--metrics <path|->]
//!     Semantic diff of two ACL files: witnesses for newly-denied and
//!     newly-permitted traffic, or a proof of equivalence.
//! ```
//!
//! `--metrics` exports the run's metric registry after the command
//! finishes: `-` writes Prometheus text to stdout (the human report
//! moves to stderr so the exposition stays parseable), a `.json` path
//! writes the JSON form, any other path Prometheus text. On
//! `validate` the export covers the batch pass (`rcdc_pass_*`,
//! `rcdc_engine_*`, `rcdc_solver_*`) plus a cold+warm live-pipeline
//! sweep over the same FIBs (`rcdc_validate_latency_ns`,
//! `rcdc_validate_mode_total`, `rcdc_verdict_cache_*`,
//! `rcdc_analytics_*`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secguru::diff::{semantic_diff, SmtDiff};
use secguru::nsg_gate::{NsgApi, UpdateResult, VnetMetadata};
use std::process::ExitCode;
use std::sync::Arc;
use validatedc::cli::{Console, FabricArgs, Opts};
use validatedc::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "validate" => cmd_validate(rest),
        "whatif" => cmd_whatif(rest),
        "serve" => cmd_serve(rest),
        "plan" => cmd_plan(rest),
        "check-acl" => cmd_check_acl(rest),
        "check-nsg" => cmd_check_nsg(rest),
        "diff-acl" => cmd_diff_acl(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2), // checks ran; violations found
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  validatedc validate [--clusters N] [--tors N] [--leaves N] [--spines N]
                      [--fail-links N] [--seed S] [--engine trie|trie-semantic|smt|smt-semantic] [--threads N]
                      [--metrics <path|->]
  validatedc whatif   [--k N] [--condition any|low|medium|high|blackhole] [--devices]
                      [--symmetry] [--sample N] [--exhaustive]
                      [--clusters N] [--tors N] [--leaves N] [--spines N]
                      [--fail-links N] [--seed S] [--engine trie|trie-semantic|smt|smt-semantic]
                      [--threads N] [--metrics <path|->]
      Sweep failure scenarios up to k simultaneous link (--devices:
      also device) failures, re-converging each incrementally and
      revalidating only the changed devices. Prints Robust(k) or a
      minimal counterexample; exit 0 = robust, 2 = counterexample.
  validatedc serve    [--clusters N] [--tors N] [--leaves N] [--spines N]
                      [--shards N] [--ingest-capacity N] [--rounds N] [--churn N]
                      [--seed S] [--engine trie|trie-semantic|smt|smt-semantic]
                      [--metrics <path|->]
      Run the always-on sharded validation service over a simulated
      fleet: a cold sweep, then --rounds rounds of route churn with
      --churn withdrawals each, then a restore round that must
      reconverge to clean. RCDC_ENGINE / RCDC_THREADS / RCDC_SHARDS /
      RCDC_INGEST_CAPACITY set defaults; flags override.
  validatedc plan     [--scenario migrate|decommission] [--racks N]
                      [--condition any|low|medium|high|blackhole]
                      [--no-accept-final] [--max-backtracks N]
                      [--clusters N] [--tors N] [--leaves N] [--spines N]
                      [--seed S] [--engine trie|trie-semantic|smt|smt-semantic]
                      [--threads N] [--metrics <path|->]
      Search for a change ordering whose every intermediate state
      satisfies the contracts. Prints where the naive submit order
      first fails, then the safe plan (exit 0) or the ddmin-minimal
      unsafe change set (exit 2). --no-accept-final also forbids
      violations present in the rollout's end state.
  validatedc check-acl <FILE> [--contract '<src>;<dst>;<dport>;<proto>;<permit|deny>']... [--metrics <path|->]
  validatedc check-nsg <FILE> --db-subnet <PREFIX> --infra <PREFIX> --port <PORT>
  validatedc diff-acl <OLD> <NEW> [--metrics <path|->]
exit status: 0 = clean, 2 = violations found, 1 = error
--metrics: export the metric registry after the run (- = Prometheus on stdout, *.json = JSON file, else Prometheus file)";

fn cmd_validate(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let common = FabricArgs::parse(&opts)?;
    let fail_links: usize = opts.parsed("--fail-links", 0usize)?;
    let metrics_dest = common.metrics;

    let mut topology = build_clos(&common.params);
    eprintln!(
        "generated {} devices / {} links",
        topology.devices().len(),
        topology.links().len()
    );
    if fail_links > 0 {
        let mut rng = StdRng::seed_from_u64(common.seed);
        let n = topology.links().len() as u32;
        for _ in 0..fail_links {
            let l = dctopo::LinkId(rng.gen_range(0..n));
            topology.set_link_state(l, LinkState::OperDown);
            eprintln!("failed link {}", l.0);
        }
    }
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let registry = Registry::new();
    let mut builder = Validator::new(&meta)
        .engine(common.engine)
        .threads(common.threads);
    if metrics_dest.is_some() {
        builder = builder.metrics(&registry);
    }
    let validator = builder.build();
    let report = validator.run(&fibs);
    let rendered =
        validatedc::render::render_validate_report(&report, &topology, &meta, Some(report.elapsed));
    // With metrics on stdout, the human report moves to stderr so the
    // Prometheus exposition stays machine-parseable.
    if metrics_dest == Some("-") {
        eprint!("{rendered}");
    } else {
        print!("{rendered}");
    }
    if let Some(dest) = metrics_dest {
        // The batch pass alone says nothing about the live pipeline,
        // so the export also runs a cold + warm monitoring sweep over
        // the same FIBs (validate-latency histograms, verdict-cache
        // counters) alongside the batch pass's rcdc_pass_* /
        // rcdc_engine_* / rcdc_solver_* families.
        let mut snapshot = registry.observe_and_snapshot(&[&report]);
        snapshot.absorb(&validatedc::metrics::live_sweep(&meta, &fibs));
        snapshot
            .write_to(dest)
            .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
    }
    Ok(report.is_clean())
}

fn cmd_whatif(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let common = FabricArgs::parse(&opts)?;
    let k: usize = opts.parsed("--k", 1usize)?;
    let condition: FailCondition = opts.value("--condition")?.unwrap_or("blackhole").parse()?;
    let sample: Option<usize> = match opts.value("--sample")? {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --sample: {v:?}"))?),
    };
    let fail_links: usize = opts.parsed("--fail-links", 0usize)?;
    let metrics_dest = common.metrics;
    let con = common.console();
    let say = |line: String| con.say(line);

    let mut topology = build_clos(&common.params);
    say(format!(
        "generated {} devices / {} links",
        topology.devices().len(),
        topology.links().len()
    ));
    if fail_links > 0 {
        let mut rng = StdRng::seed_from_u64(common.seed);
        let n = topology.links().len() as u32;
        for _ in 0..fail_links {
            let l = dctopo::LinkId(rng.gen_range(0..n));
            topology.set_link_state(l, LinkState::OperDown);
            say(format!("pre-failed link {}", l.0));
        }
    }
    let meta = MetadataService::from_topology(&topology);
    let registry = Registry::new();
    let mut builder = Validator::new(&meta)
        .engine(common.engine)
        .threads(common.threads);
    if metrics_dest.is_some() {
        builder = builder.metrics(&registry);
    }
    let sweeper = builder.build_whatif(&topology, &SimConfig::healthy());
    let sweep_opts = SweepOptions {
        k,
        include_devices: opts.flag("--devices"),
        symmetry: opts.flag("--symmetry"),
        sample,
        seed: common.seed,
        threads: common.threads,
        exhaustive: opts.flag("--exhaustive"),
        condition,
    };
    let report = sweeper.sweep(&sweep_opts);

    let secs = report.elapsed.as_secs_f64().max(1e-9);
    say(format!(
        "checked {} scenarios ({} pruned) in {:.2}s — {:.0} scenarios/s",
        report.scenarios_checked,
        report.scenarios_pruned,
        secs,
        report.scenarios_checked as f64 / secs,
    ));
    say(format!(
        "restart: {} rules touched on {} devices ({} prefixes patched, \
         {} repropagated); {} devices revalidated",
        report.restart.rules_touched,
        report.restart.devices_changed,
        report.restart.patched,
        report.restart.repropagated,
        report.devices_revalidated,
    ));
    match &report.verdict {
        RobustnessVerdict::Robust(k) => {
            say(format!(
                "VERDICT: Robust({k}) — no checked scenario of <= {k} failure(s) \
                 violates condition '{condition}'"
            ));
        }
        RobustnessVerdict::Counterexample(c) => {
            say(format!(
                "VERDICT: counterexample — {} failure(s) violate condition '{condition}':",
                c.scenario.len()
            ));
            for e in &c.scenario {
                say(format!("  - {}", e.render(sweeper.baseline().topology())));
            }
            say(format!(
                "  -> {} matching violation(s), {} device FIB(s) changed \
                 (minimized from {} failure(s); removing any listed failure passes)",
                c.violations,
                c.changed_devices,
                c.found.len().max(c.scenario.len()),
            ));
        }
    }
    if sweep_opts.exhaustive && report.failing.len() > 1 {
        say(format!(
            "exhaustive mode: {} failing scenarios in total",
            report.failing.len()
        ));
    }
    if let Some(dest) = metrics_dest {
        registry
            .observe_and_snapshot(&[])
            .write_to(dest)
            .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
    }
    Ok(report.is_robust())
}

fn cmd_serve(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let common = FabricArgs::parse(&opts)?;
    let rounds: usize = opts.parsed("--rounds", 5usize)?;
    let churn: usize = opts.parsed("--churn", 8usize)?;
    let seed = common.seed;
    let metrics_dest = common.metrics;
    let con = common.console();
    let say = |line: String| con.say(line);

    let topology = build_clos(&common.params);
    // The service path owns the machine, so the fleet's initial fixed
    // point defaults to all detected cores (RCDC_SIM_THREADS
    // overrides); the output is bit-identical at any thread count.
    let (fibs, _) = simulate_with(&topology, &SimConfig::healthy(), SimOptions::auto());
    let meta = MetadataService::from_topology(&topology);
    let devices: Vec<DeviceId> = (0..fibs.len() as u32).map(DeviceId).collect();

    // Environment sets the defaults, explicit flags win.
    let mut builder = Validator::new(&meta).from_env()?;
    if let Some(e) = opts.value("--engine")? {
        builder = builder.engine(e.parse()?);
    }
    if opts.value("--threads")?.is_some() {
        builder = builder.threads(opts.parsed("--threads", 0usize)?);
    }
    if opts.value("--shards")?.is_some() {
        builder = builder.shards(opts.parsed("--shards", 1usize)?);
    }
    if opts.value("--ingest-capacity")?.is_some() {
        builder = builder.ingest_capacity(opts.parsed("--ingest-capacity", 1024usize)?);
    }

    let source = Arc::new(validatedc::serve::ChurningSource::new(fibs.clone()));
    let service = builder.build_service(source.clone());
    let handle = service.handle();
    say(format!(
        "serve: {} devices across {} shards",
        devices.len(),
        service.shard_count()
    ));

    service.pull_all(&devices);
    service.drain();
    say(format!(
        "cold sweep done: {} dirty devices",
        handle.dirty_count()
    ));

    let mut rng = StdRng::seed_from_u64(seed);
    for round in 1..=rounds {
        for _ in 0..churn {
            let device = devices[rng.gen_range(0..devices.len())];
            let table = if rng.gen_bool(0.25) {
                fibs[device.0 as usize].clone() // heal
            } else {
                validatedc::serve::drop_route(&source.get(device), rng.gen_range(0..64))
            };
            source.set(table);
            service.submit(IngestEvent::Pull(device));
        }
        service.drain();
        say(format!(
            "round {round}: {churn} churn events, {} dirty, {} high-risk alerts",
            handle.dirty_count(),
            handle.alerts(Risk::High).len()
        ));
    }

    // Restore round: heal every table; the service must reconverge.
    for fib in &fibs {
        source.set(fib.clone());
    }
    service.pull_all(&devices);
    service.drain();
    let clean = handle.dirty_count() == 0;
    say(format!(
        "restore round: {} dirty devices",
        handle.dirty_count()
    ));

    let snap = handle.snapshot();
    let h = snap.histogram_total("rcdc_service_notify_latency_ns", &[]);
    say(format!(
        "notification→verdict latency: p50 {}µs, p99 {}µs over {} verdicts",
        h.p50().unwrap_or(0) / 1_000,
        h.p99().unwrap_or(0) / 1_000,
        h.count
    ));
    if let Some(dest) = metrics_dest {
        snap.write_to(dest)
            .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
    }
    Ok(clean)
}

fn cmd_plan(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let common = FabricArgs::parse(&opts)?;
    let scenario: RolloutScenario = opts.value("--scenario")?.unwrap_or("migrate").parse()?;
    let racks: usize = opts.parsed("--racks", 1usize)?;
    let condition: FailCondition = opts.value("--condition")?.unwrap_or("blackhole").parse()?;
    let accept_final = !opts.flag("--no-accept-final");
    let max_backtracks: usize = opts.parsed("--max-backtracks", 4096usize)?;
    let metrics_dest = common.metrics;
    let con = common.console();
    let say = |line: String| con.say(line);

    let topology = build_clos(&common.params);
    say(format!(
        "generated {} devices / {} links",
        topology.devices().len(),
        topology.links().len()
    ));
    let (net, changes) = seeded_scenario(&topology, scenario, racks, common.seed);
    let render_change = |c: &ConfigChange| match c {
        ConfigChange::SetLinkState { link, state } => {
            let l = &net.topology.links()[link.0 as usize];
            let verb = if matches!(state, LinkState::Up) {
                "bring up"
            } else {
                "shut"
            };
            format!(
                "{verb} {} <-> {}",
                net.topology.device(l.lo).name,
                net.topology.device(l.hi).name
            )
        }
        ConfigChange::SetOverride { device, .. } => {
            format!("override on {}", net.topology.device(*device).name)
        }
    };
    say(format!(
        "scenario {scenario:?}: {} changes over {racks} rack(s), seed {}",
        changes.len(),
        common.seed
    ));

    let meta = MetadataService::from_topology(&net.topology);
    let registry = Registry::new();
    let mut builder = Validator::new(&meta)
        .engine(common.engine)
        .threads(common.threads);
    if metrics_dest.is_some() {
        builder = builder.metrics(&registry);
    }
    let planner = builder.build_planner(&net);
    let plan_opts = PlanOptions {
        condition,
        accept_final,
        max_backtracks,
        threads: common.threads,
    };

    // How far does the operator's submit order get before violating a
    // contract mid-rollout?
    let naive = planner.check_order(&changes, &plan_opts)?;
    match naive.first_unsafe {
        Some(step) => say(format!(
            "naive submit order: UNSAFE at step {} ({}) — {} matching transient violation(s)",
            step + 1,
            render_change(&changes[step]),
            naive.transient,
        )),
        None => say("naive submit order: already safe at every step".to_string()),
    }

    let report = planner.plan(&changes, &plan_opts)?;
    say(format!(
        "searched {} intermediate state(s) in {:.2}s — {} devices revalidated, \
         {} verdicts reused, {} anchors, {} dead-prefix hits, {} backtracks{}",
        report.states_evaluated,
        report.elapsed.as_secs_f64(),
        report.devices_revalidated,
        report.verdicts_reused,
        report.anchors_built,
        report.dead_prefix_hits,
        report.backtracks,
        if report.search_exhausted {
            ""
        } else {
            " (search aborted at the backtrack budget)"
        },
    ));
    match &report.verdict {
        PlanVerdict::Safe(steps) => {
            say(format!(
                "VERDICT: safe plan — {} step(s), every intermediate state satisfies '{condition}'",
                steps.len()
            ));
            for (i, s) in steps.iter().enumerate() {
                say(format!("  {}. {}", i + 1, render_change(&s.change)));
            }
        }
        PlanVerdict::Unsafe(u) => {
            say(format!(
                "VERDICT: no safe ordering — minimal unsafe change set \
                 ({} of {} change(s); removing any one makes the rest orderable):",
                u.prefix.len(),
                changes.len()
            ));
            for s in &u.prefix {
                say(format!("  - {}", render_change(&s.change)));
            }
            for v in u.transient.iter().take(4) {
                say(format!(
                    "  -> {} prefix {}: {}",
                    net.topology.device(v.device).name,
                    v.prefix,
                    v.reason
                ));
            }
        }
    }
    if let Some(dest) = metrics_dest {
        registry
            .observe_and_snapshot(&[])
            .write_to(dest)
            .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
    }
    Ok(report.is_safe())
}

fn parse_inline_contract(spec: &str) -> Result<Contract, String> {
    // "<src>;<dst>;<dport>;<proto>;<permit|deny>", each field may be "any".
    let parts: Vec<&str> = spec.split(';').map(str::trim).collect();
    if parts.len() != 5 {
        return Err(format!(
            "contract {spec:?}: expected 5 ';'-separated fields (src;dst;dport;proto;action)"
        ));
    }
    let parse_side = |tok: &str| -> Result<IpRange, String> {
        if tok.eq_ignore_ascii_case("any") {
            Ok(IpRange::ALL)
        } else {
            tok.parse::<Prefix>()
                .map(|p| p.range())
                .map_err(|e| e.to_string())
        }
    };
    let src = parse_side(parts[0])?;
    let dst = parse_side(parts[1])?;
    let dst_ports = if parts[2].eq_ignore_ascii_case("any") {
        PortRange::ALL
    } else {
        let p: u16 = parts[2].parse().map_err(|_| format!("bad port {:?}", parts[2]))?;
        PortRange::single(p)
    };
    let protocol: Protocol = parts[3].parse().map_err(|e| format!("{e}"))?;
    let expect = match parts[4].to_ascii_lowercase().as_str() {
        "permit" | "allow" => Action::Permit,
        "deny" => Action::Deny,
        other => return Err(format!("bad action {other:?}")),
    };
    Ok(Contract::new(
        spec.to_string(),
        HeaderSpace {
            src,
            src_ports: PortRange::ALL,
            dst,
            dst_ports,
            protocol,
        },
        expect,
    ))
}

fn cmd_check_acl(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let files = opts.positional();
    let [file] = files.as_slice() else {
        return Err("check-acl needs exactly one ACL file".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let policy = parse_acl(file, &text).map_err(|e| e.to_string())?;
    eprintln!("parsed {} rules from {file}", policy.len());

    let contracts: Vec<Contract> = {
        let specs = opts.values("--contract")?;
        if specs.is_empty() {
            eprintln!("no contracts given; running the built-in edge-ACL suite");
            secguru::refactor::edge_contracts()
        } else {
            specs
                .iter()
                .map(|s| parse_inline_contract(s))
                .collect::<Result<_, _>>()?
        }
    };

    let metrics_dest = opts.value("--metrics")?;
    let registry = Registry::new();
    let mut sg = SecGuru::new(policy);
    if metrics_dest.is_some() {
        sg = sg.metrics(&registry);
    }
    let failures = sg.check_all(&contracts);
    let con = Console::for_dest(metrics_dest);
    let say = |line: String| con.say(line);
    let clean = failures.is_empty();
    if clean {
        say(format!("all {} contracts hold", contracts.len()));
    }
    for f in &failures {
        say(format!(
            "VIOLATED {} — rule {} — witness {}",
            f.contract,
            f.violating_rule.as_deref().unwrap_or("?"),
            f.witness.map(|w| w.to_string()).unwrap_or_default()
        ));
    }
    if let Some(dest) = metrics_dest {
        registry
            .observe_and_snapshot(&[&sg])
            .write_to(dest)
            .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
    }
    Ok(clean)
}

fn cmd_check_nsg(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let files = opts.positional();
    let [file] = files.as_slice() else {
        return Err("check-nsg needs exactly one NSG file".into());
    };
    let db: Prefix = opts
        .value("--db-subnet")?
        .ok_or("--db-subnet required")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let infra: Prefix = opts
        .value("--infra")?
        .ok_or("--infra required")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let port: u16 = opts.parsed("--port", 1433u16)?;

    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let nsg = parse_nsg(file, &text).map_err(|e| e.to_string())?;
    let mut api = NsgApi::new(
        VnetMetadata {
            database_subnet: Some(db),
            infra_service: infra,
            backup_port: port,
        },
        true,
    );
    match api.update_policy(nsg) {
        UpdateResult::Accepted => {
            println!("NSG accepted: backup path preserved");
            Ok(true)
        }
        UpdateResult::Rejected(failures) => {
            for f in failures {
                println!(
                    "REJECTED {} — rule {} — witness {}",
                    f.contract,
                    f.violating_rule.as_deref().unwrap_or("?"),
                    f.witness.map(|w| w.to_string()).unwrap_or_default()
                );
            }
            Ok(false)
        }
    }
}

fn cmd_diff_acl(args: &[String]) -> Result<bool, String> {
    let opts = Opts::new(args);
    let files = opts.positional();
    let [old_file, new_file] = files.as_slice() else {
        return Err("diff-acl needs two ACL files".into());
    };
    let old_text = std::fs::read_to_string(old_file).map_err(|e| format!("{old_file}: {e}"))?;
    let new_text = std::fs::read_to_string(new_file).map_err(|e| format!("{new_file}: {e}"))?;
    let old = parse_acl(old_file, &old_text).map_err(|e| e.to_string())?;
    let new = parse_acl(new_file, &new_text).map_err(|e| e.to_string())?;
    let metrics_dest = opts.value("--metrics")?;
    // The instrumented path diffs with the SMT engine (whose query
    // latencies and solver counters the registry captures); the
    // default path uses the interval baseline. Both are exact.
    let diff = match metrics_dest {
        Some(dest) => {
            let registry = Registry::new();
            let mut smt = SmtDiff::new(&old, &new).metrics(&registry);
            let diff = smt.diff();
            registry
                .observe_and_snapshot(&[&smt])
                .write_to(dest)
                .map_err(|e| format!("cannot write metrics to {dest:?}: {e}"))?;
            diff
        }
        None => semantic_diff(&old, &new),
    };
    let con = Console::for_dest(metrics_dest);
    let say = |line: String| con.say(line);
    match (&diff.newly_denied, &diff.newly_permitted) {
        (None, None) => {
            say("policies are semantically equivalent".to_string());
            Ok(true)
        }
        (denied, permitted) => {
            if let Some(w) = denied {
                say(format!("newly DENIED traffic exists, e.g. {w}"));
            }
            if let Some(w) = permitted {
                say(format!("newly PERMITTED traffic exists, e.g. {w}"));
            }
            Ok(false)
        }
    }
}
