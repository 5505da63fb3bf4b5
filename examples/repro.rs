//! One command regenerates the dataset behind every figure and
//! quantitative claim of the paper that this repository reproduces
//! (DESIGN §3, experiments E1–E9):
//!
//! ```sh
//! cargo run --release -p validatedc --example repro -- <id|all> [--quick]
//! ```
//!
//! Each id writes exactly one file, `results/<id>.csv` (relative to
//! the working directory), header row first. Timings are plain
//! `Instant` means and are *reported*, never asserted; what each run
//! asserts is its answer (clean verdicts, the §2.4.4 violation set,
//! every refactoring step deployed, …). `--quick` shortens the timing
//! loops and skips the sizes that take longer than a few seconds (the
//! 10⁴-router point of E2, the largest SMT point of E1); the figure
//! datasets are seeded simulations and come out byte-identical either
//! way. How this repository's own speed moves from PR to PR is the
//! perf ledger's business (`ledger/`), not this file's.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::generator::figure3;
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService, Role};
use difftest::reference::global_baseline::all_pairs_paths_naive;
use netprim::{Ipv4, Prefix};
use rcdc::burndown::{simulate_burndown, BurndownParams};
use rcdc::contracts::{
    generate_contracts, ContractGenerator, ContractKind, DeviceContracts, Expectation,
};
use rcdc::engine::{smt::SmtEngine, trie::TrieEngine, Engine};
use rcdc::pipeline::SimulatedSource;
use rcdc::Validator;
use secguru::engine::{IntervalEngine, SecGuru};
use secguru::nsg_gate::{simulate_incidents, IncidentParams};
use secguru::refactor::{
    edge_contracts, execute_plan, synthesize_legacy_acl, Change, ChangeOutcome, DeviceGroup,
    RefactorPlan,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(id, what it reproduces, generator of the CSV text)`.
type Experiment = (&'static str, &'static str, fn(bool) -> String);

const EXPERIMENTS: &[Experiment] = &[
    (
        "e1",
        "§2.5/§2.6.3 per-device validation latency, trie vs SMT",
        e1,
    ),
    ("e2", "§2.6.3 10^4 routers in < 3 min on one CPU", e2),
    ("e3", "§3.2 SecGuru ACL check latency vs rule count", e3),
    (
        "e8",
        "§1/§2.4 local contracts vs global path enumeration",
        e8,
    ),
    (
        "e9",
        "§2.6.1 monitoring pipeline capacity under 200-800 ms pulls",
        e9,
    ),
    ("fig3", "Figures 3-4 + §2.4.4 contracts in action", fig3),
    ("fig6", "Figure 6 routing-error burndown", fig6),
    (
        "fig11",
        "Figure 11 legacy ACL size across the refactoring",
        fig11,
    ),
    ("fig12", "Figure 12 customer NSG incidents", fig12),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let selected: Vec<&Experiment> = match ids[..] {
        ["all"] => EXPERIMENTS.iter().collect(),
        [id] => EXPERIMENTS.iter().filter(|e| e.0 == id).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: repro <id|all> [--quick]");
        for (id, what, _) in EXPERIMENTS {
            eprintln!("  {id:<6} {what}");
        }
        return ExitCode::FAILURE;
    }
    std::fs::create_dir_all("results").expect("results/ is creatable");
    for (id, what, run) in selected {
        eprintln!("{id}: {what}");
        let csv = run(quick);
        let path = format!("results/{id}.csv");
        std::fs::write(&path, &csv).unwrap_or_else(|e| panic!("{path}: {e}"));
        eprintln!("{id}: wrote {path} ({} rows)", csv.lines().count() - 1);
    }
    ExitCode::SUCCESS
}

/// Mean wall time of `body` in milliseconds: repeated until the time
/// budget is spent, at least once.
fn mean_ms(quick: bool, mut body: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(if quick { 20 } else { 500 });
    let (t0, mut runs) = (Instant::now(), 0u32);
    while runs == 0 || t0.elapsed() < budget {
        body();
        runs += 1;
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(runs)
}

fn clos(clusters: u32, tors: u32, leaves: u32, spines: u32, regional: u32) -> ClosParams {
    ClosParams {
        clusters,
        tors_per_cluster: tors,
        leaves_per_cluster: leaves,
        spines,
        regional_spines: regional,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

/// The small fabric E8, E9 and the first E2 point share.
fn small_shape() -> ClosParams {
    clos(8, 8, 4, 8, 4)
}

/// Clos shapes of the scale experiment, smallest to largest; the last
/// is the 10⁴-router shape of §2.6.3.
fn scale_shapes(quick: bool) -> Vec<(&'static str, ClosParams)> {
    let mut shapes = vec![
        ("128-devices", small_shape()),
        ("532-devices", clos(16, 24, 4, 16, 4)),
        ("1096-devices", clos(24, 40, 4, 24, 4)),
    ];
    if !quick {
        shapes.push(("10k-devices", clos(96, 96, 8, 64, 8)));
    }
    shapes
}

/// A synthetic ToR-like device: `prefixes` specific /24 routes plus a
/// default, all pointing at `hops` uplinks, and the matching contract
/// set — §2.6.3's "several thousands of prefixes" per device.
fn synth_device(prefixes: usize, hops: usize) -> (Fib, DeviceContracts) {
    assert!(prefixes <= 1 << 16);
    let device = DeviceId(0);
    let uplinks: Arc<[Ipv4]> = (0..hops as u32)
        .map(|i| Ipv4(Ipv4::new(30, 0, 0, 0).0 + 2 * i + 1))
        .collect();
    let route = |i: usize| {
        Prefix::new(Ipv4(Ipv4::new(10, 0, 0, 0).0 + ((i as u32) << 8)), 24).expect("aligned /24")
    };
    let rules = std::iter::once((Prefix::DEFAULT, ContractKind::Default))
        .chain((0..prefixes).map(|i| (route(i), ContractKind::Specific)));
    let mut fib = FibBuilder::new(device);
    let mut contracts = Vec::with_capacity(prefixes + 1);
    for (prefix, kind) in rules {
        fib.push(prefix, uplinks.to_vec(), false);
        contracts.push((prefix, kind, Expectation::NextHops(uplinks.clone())));
    }
    (fib.finish(), DeviceContracts::new(device, contracts))
}

/// E1 — "performance is within a second" for the SMT engine, "180 ms
/// to verify all contracts on a single device" for the trie: full
/// device validation and a single-contract query, against table size.
fn e1(quick: bool) -> String {
    let mut csv = String::from("series,engine,prefixes,mean_ms\n");
    let mut row = |series: &str, engine: &dyn Engine, fib: &Fib, dc: &DeviceContracts| {
        let ms = mean_ms(quick, || {
            assert!(engine.validate_device(fib, dc).is_clean())
        });
        writeln!(csv, "{series},{},{},{ms:.4}", engine.name(), fib.len() - 1).unwrap();
    };
    for prefixes in [1000, 2000, 4000, 8000] {
        let (fib, dc) = synth_device(prefixes, 4);
        row("all_contracts", &TrieEngine::new(), &fib, &dc);
    }
    // SMT at smaller sizes: the gap to the trie is the measurement;
    // the paper's production workload runs on the trie.
    for prefixes in if quick {
        &[100, 250][..]
    } else {
        &[100, 250, 500]
    } {
        let (fib, dc) = synth_device(*prefixes, 4);
        row("all_contracts", &SmtEngine::new(), &fib, &dc);
    }
    for prefixes in [1000, 4000] {
        let (fib, dc) = synth_device(prefixes, 4);
        // The policy is encoded per call, as in production: a device
        // is encoded, then queried.
        let first = dc.specifics().next().expect("prefixes > 0");
        let one = DeviceContracts::new(
            first.device,
            [(first.prefix, first.kind, first.expectation.clone())],
        );
        row("one_contract", &TrieEngine::new(), &fib, &one);
        row("one_contract", &SmtEngine::new(), &fib, &one);
    }
    csv
}

/// E2 — datacenter-wide local validation, single-threaded, contracts
/// streamed per device (a 10⁴-router fabric carries ~10⁸ of them).
fn e2(quick: bool) -> String {
    let mut csv = String::from(
        "label,devices,contracts,bgp_sim_s,contract_gen_s,validate_1cpu_s,per_device_ms\n",
    );
    for (label, params) in scale_shapes(quick) {
        let topology = build_clos(&params);
        let t0 = Instant::now();
        let fibs = simulate(&topology, &SimConfig::healthy());
        let sim = t0.elapsed();

        let meta = MetadataService::from_topology(&topology);
        let generator = ContractGenerator::new(&meta);
        let engine = TrieEngine::new();
        let (mut gen, mut validate, mut contracts) = (Duration::ZERO, Duration::ZERO, 0usize);
        for d in topology.devices() {
            let t0 = Instant::now();
            let dc = generator.device(d.id);
            gen += t0.elapsed();
            contracts += dc.len();
            let t0 = Instant::now();
            let report = engine.validate_device(&fibs[d.id.0 as usize], &dc);
            validate += t0.elapsed();
            assert!(report.is_clean(), "healthy {} must validate clean", d.name);
        }
        let devices = topology.devices().len();
        assert!(
            label != "10k-devices" || devices >= 10_000,
            "§2.6.3 is about 10^4 routers"
        );
        writeln!(
            csv,
            "{label},{devices},{contracts},{:.2},{:.2},{:.2},{:.3}",
            sim.as_secs_f64(),
            gen.as_secs_f64(),
            validate.as_secs_f64(),
            validate.as_secs_f64() * 1e3 / devices as f64
        )
        .unwrap();
    }
    csv
}

/// E3 — "a few hundred rules ≈ 300 ms; a few thousand ≈ 1 s": the
/// §3.3 precheck (encode + every edge contract) against ACL size, for
/// the SMT engine and the interval baseline.
fn e3(quick: bool) -> String {
    let contracts = edge_contracts();
    let mut csv = String::from("engine,rules,mean_ms\n");
    for rules in [100, 300, 1000, 4000] {
        let acl = synthesize_legacy_acl(rules, rules / 20 + 1);
        let smt = mean_ms(quick, || {
            assert!(SecGuru::new(acl.clone()).check_all(&contracts).is_empty());
        });
        let interval = mean_ms(quick, || {
            assert!(IntervalEngine::new().check_all(&acl, &contracts).is_empty());
        });
        writeln!(csv, "smt,{},{smt:.4}", acl.len()).unwrap();
        writeln!(csv, "interval,{},{interval:.4}", acl.len()).unwrap();
    }
    csv
}

/// E8 — the full per-device contract pass (covers all pairs) against
/// per-(ToR, prefix) path enumeration, the cost a snapshot checker
/// without architectural insight pays, on identical snapshots.
fn e8(quick: bool) -> String {
    let mut csv = String::from("devices,local_ms,global_naive_ms,global_paths\n");
    for params in [ClosParams::default(), small_shape()] {
        let topology = build_clos(&params);
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);
        let validator = Validator::new(&meta).build();
        let tors: Vec<_> = topology
            .devices_with_role(Role::Tor)
            .map(|d| d.id)
            .collect();

        let local = mean_ms(quick, || assert!(validator.run(&fibs).is_clean()));
        let mut paths = 0u64;
        let global = mean_ms(quick, || {
            paths = 0;
            for fact in meta.prefix_facts() {
                for &src in tors.iter().filter(|&&src| src != fact.tor) {
                    paths += all_pairs_paths_naive(&fibs, &meta, src, fact.prefix, u64::MAX).0;
                }
            }
        });
        assert!(
            paths > 0,
            "a healthy fabric has redundant paths to enumerate"
        );
        writeln!(csv, "{},{local:.4},{global:.4},{paths}", topology.len()).unwrap();
    }
    csv
}

/// E9 — "fetching each routing table takes 200–800 ms, validating
/// O(100) ms; each instance monitors O(10K) devices": one-shot sweeps
/// of the sharded service (shards = concurrent pulls) under simulated
/// pull latency, with the sweep period extrapolated to 10k devices.
fn e9(_quick: bool) -> String {
    let topology = build_clos(&small_shape());
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let devices: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();

    let mut csv = String::from(
        "shards,devices,pull_latency_ms,sweep_s,devices_per_s,mean_validate_ms,\
         p50_validate_ms,p99_validate_ms,extrapolated_10k_sweep_s\n",
    );
    for shards in [8usize, 32, 64] {
        // §2.6.1's pull latency scaled down 10× so the run is short;
        // throughput scales linearly with it.
        let source = SimulatedSource::new(fibs.clone())
            .with_latency(Duration::from_millis(20), Duration::from_millis(80));
        let service = Validator::new(&meta)
            .shards(shards)
            .build_service(Arc::new(source));
        let t0 = Instant::now();
        service.pull_all(&devices);
        service.drain();
        let sweep = t0.elapsed().as_secs_f64();
        let handle = service.handle();
        assert!(
            devices.iter().all(|&d| handle.verdict(d).is_some()),
            "a device went unjudged"
        );
        assert_eq!(handle.dirty_count(), 0, "healthy fabric must sweep clean");

        // A cold sweep validates everything in full mode; quantiles
        // come from the per-shard latency histograms, merged.
        let full = handle
            .snapshot()
            .histogram_total("rcdc_validate_latency_ns", &[("mode", "full")]);
        assert_eq!(full.count, devices.len() as u64);
        let ms = |ns: Option<u64>| ns.map_or(f64::NAN, |ns| ns as f64 / 1e6);
        let rate = devices.len() as f64 / sweep;
        writeln!(
            csv,
            "{shards},{},20-80,{sweep:.2},{rate:.1},{:.3},{:.3},{:.3},{:.1}",
            devices.len(),
            full.mean().map_or(f64::NAN, |ns| ns / 1e6),
            ms(full.quantile(0.50)),
            ms(full.quantile(0.99)),
            10_000.0 / (rate / 10.0)
        )
        .unwrap();
    }
    csv
}

/// Figures 3–4 and §2.4.4: the contract tables of ToR1/A1/D1, then the
/// violation report under the four link failures of the worked example.
fn fig3(_quick: bool) -> String {
    let mut f = figure3();
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    let prefix_label = |p: Prefix| match f.prefixes.iter().position(|&q| q == p) {
        Some(i) => format!("Prefix_{}", (b'A' + i as u8) as char),
        None if p.is_default() => "0/0".to_string(),
        None => p.to_string(),
    };

    let mut csv = String::from("section,device,prefix,detail\n");
    for d in [f.tors[0], f.a[0], f.d[0]] {
        for c in contracts[d.0 as usize].contracts() {
            let hops: Vec<&str> = c
                .next_hops()
                .unwrap_or_default()
                .iter()
                .map(|&h| {
                    meta.device(meta.owner_of(h).expect("hop has an owner"))
                        .name
                        .as_str()
                })
                .collect();
            let (name, prefix) = (&meta.device(d).name, prefix_label(c.prefix));
            writeln!(csv, "contract,{name},{prefix},{}", hops.join(" ")).unwrap();
        }
    }

    for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
        for leaf in leaves {
            let link = f
                .topology
                .link_between(tor, leaf)
                .expect("ToR-leaf link")
                .id;
            f.topology.set_link_state(link, LinkState::OperDown);
        }
    }
    let fibs = simulate(&f.topology, &SimConfig::healthy());
    let engine = TrieEngine::new();
    let mut dirty = 0;
    for d in f.topology.devices() {
        let report = engine.validate_device(&fibs[d.id.0 as usize], &contracts[d.id.0 as usize]);
        // Regional spines carry no contracts and stay clean.
        assert!(d.role != Role::RegionalSpine || report.is_clean());
        dirty += usize::from(!report.is_clean());
        for v in &report.violations {
            writeln!(
                csv,
                "violation,{},{},{}",
                d.name,
                prefix_label(v.prefix),
                v.reason
            )
            .unwrap();
        }
    }
    // §2.4.4 names ToR1, ToR2, A1..A4, D1..D4; strict checking adds the
    // ripple onto cluster B's ToRs and leaves.
    assert_eq!(dirty, 16, "the four failures dirty exactly 16 devices");
    csv
}

/// Figure 6: high-risk errors drain first once monitoring turns on.
fn fig6(_quick: bool) -> String {
    let params = BurndownParams::default();
    let points = simulate_burndown(&params);
    let mut csv = String::from("day,high_fraction,low_fraction,total_fraction\n");
    for pt in &points {
        let total = pt.high_fraction + pt.low_fraction;
        writeln!(
            csv,
            "{},{:.4},{:.4},{total:.4}",
            pt.day, pt.high_fraction, pt.low_fraction
        )
        .unwrap();
    }
    let drained = |open: fn(&rcdc::burndown::BurndownPoint) -> u32| {
        points
            .iter()
            .position(|pt| pt.day > params.deployment_day && open(pt) == 0)
    };
    let (high, low) = (drained(|pt| pt.high_open), drained(|pt| pt.low_open));
    assert!(
        high.is_some() && high < low,
        "high-risk errors must drain first: {high:?} {low:?}"
    );
    csv
}

/// Figure 11: thousands of rules to under a thousand, every step
/// precheck-gated and deployed, no contract regression.
fn fig11(_quick: bool) -> String {
    let legacy = synthesize_legacy_acl(2500, 100);
    let removable: Vec<String> = legacy
        .rules()
        .iter()
        .filter(|r| r.name.starts_with("svc-") || r.name.starts_with("zeroday-"))
        .map(|r| r.name.clone())
        .collect();
    let changes = removable
        .chunks(325)
        .enumerate()
        .map(|(i, chunk)| Change {
            description: format!("change-{i}"),
            remove: chunk.to_vec(),
            add: vec![],
        })
        .collect();
    let plan = RefactorPlan {
        changes,
        contracts: edge_contracts(),
    };
    let mut groups = vec![DeviceGroup {
        name: "global".into(),
        deployed: legacy.clone(),
    }];
    let mut csv = String::from("phase,description,outcome,rule_count\n");
    writeln!(csv, "0,initial,baseline,{}", legacy.len()).unwrap();
    let records = execute_plan(&legacy, &plan, &mut groups, |_, p| p.clone());
    for (i, r) in records.iter().enumerate() {
        let outcome = match &r.outcome {
            ChangeOutcome::Deployed => "deployed",
            ChangeOutcome::PrecheckRejected(_) => "precheck-rejected",
            ChangeOutcome::RolledBack { .. } => "rolled-back",
        };
        assert_eq!(outcome, "deployed", "{}", r.description);
        writeln!(
            csv,
            "{},{},{outcome},{}",
            i + 1,
            r.description,
            r.rule_count
        )
        .unwrap();
    }
    assert!(records.last().is_some_and(|r| r.rule_count < 1000));
    csv
}

/// Figure 12: incidents rise with adoption, then drop once the NSG
/// validation gate ships.
fn fig12(_quick: bool) -> String {
    let params = IncidentParams::default();
    let points = simulate_incidents(&params);
    let mut csv = String::from("day,incidents,gate_rejections,customers\n");
    for pt in &points {
        writeln!(
            csv,
            "{},{},{},{}",
            pt.day, pt.incidents, pt.gate_rejections, pt.customers
        )
        .unwrap();
    }
    let incidents = |days: std::ops::Range<u32>| -> u32 {
        points
            .iter()
            .filter(|pt| days.contains(&pt.day))
            .map(|pt| pt.incidents)
            .sum()
    };
    let (before, after) = (
        incidents(params.gate_day - 30..params.gate_day),
        incidents(params.gate_day..params.gate_day + 30),
    );
    assert!(
        after * 2 < before,
        "the gate must at least halve incidents: {before} -> {after}"
    );
    csv
}
