//! Live monitoring: the §2.6 RCDC pipeline over a datacenter carrying
//! the full §2.6.2 error taxonomy, with classification and triage.
//!
//! ```sh
//! cargo run --release -p validatedc --example live_monitoring
//! ```

use rcdc::pipeline::SimulatedSource;
use std::sync::Arc;
use validatedc::prelude::*;

fn main() {
    let f = figure3();
    let mut topology = f.topology.clone();
    let meta = MetadataService::from_topology(&topology);

    // Inject one instance of every §2.6.2 root cause.
    let mut config = SimConfig::healthy();
    // Software Bug 1: RIB-FIB inconsistency on ToR2.
    config = config.with_rib_fib_bug(f.tors[1], 1);
    // Software Bug 2: layer-2 port bug on leaf A2.
    config = config.with_l2_port_bug(f.a[1]);
    // Policy error: ToR3 rejects default announcements.
    config = config.with_default_reject(f.tors[2]);
    // ECMP misconfiguration on ToR4.
    config = config.with_max_ecmp(f.tors[3], 1);
    // Hardware failure: ToR1-A1 optical cable died.
    let cable = topology.link_between(f.tors[0], f.a[0]).unwrap().id;
    topology.set_link_state(cable, LinkState::OperDown);
    // Operation drift: B1's spine uplink admin-shut and forgotten.
    let shut = topology.link_between(f.b[0], f.d[0]).unwrap().id;
    topology.set_link_state(shut, LinkState::AdminShut);

    // The three microservices (§2.6.1) are one sharded service: the
    // builder publishes the generated contracts, each shard worker
    // pulls, judges and writes verdicts into its device store.
    println!("== contract generator ==");
    let fibs = simulate(&topology, &config);
    let service = Validator::new(&meta)
        .shards(4)
        .build_service(Arc::new(SimulatedSource::new(fibs)));
    let published: usize = service.router().iter().map(|s| s.devices.published()).sum();
    println!("contracts published for {published} devices");

    println!("\n== puller + validator sweep ==");
    let devices: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();
    let handle = service.handle();
    // Fleet-wide reading of a per-shard counter family.
    let total =
        |name: &str, labels: &[(&str, &str)]| handle.snapshot().counter_total(name, labels);
    let verdicts = |mode| total("rcdc_validate_mode_total", &[("mode", mode)]);
    service.pull_all(&devices);
    service.drain();
    println!(
        "swept {} devices: {} full / {} incremental / {} cached verdicts",
        total("rcdc_analytics_ingested_total", &[]),
        verdicts("full"),
        verdicts("incremental"),
        verdicts("cache_hit"),
    );

    // Steady state: the same snapshots arrive again; every verdict is
    // served from the cache at the cost of one hash comparison.
    service.pull_all(&devices);
    service.drain();
    println!("second sweep: {} cached verdicts", verdicts("cache_hit"));
    println!(
        "verdict cache: {} lookups, {} hits, {} misses",
        total("rcdc_verdict_cache_lookups_total", &[]),
        total("rcdc_verdict_cache_hits_total", &[]),
        total("rcdc_verdict_cache_misses_total", &[]),
    );

    println!("\n== alerts (high risk first) ==");
    for d in handle.alerts(Risk::High) {
        println!("  HIGH   {}", meta.device(d).name);
    }
    for d in handle.alerts(Risk::Medium) {
        println!("  MEDIUM {}", meta.device(d).name);
    }

    println!("\n== triage: root causes and remediation queues ==");
    for d in topology.devices() {
        let verdict = handle.verdict(d.id).expect("every device was swept");
        if let Some(c) = classify_device(d.id, &verdict.report, &topology, &meta) {
            println!(
                "  {:<12} {:?} -> {:?}",
                d.name, c.cause, c.remediation
            );
        }
    }
}
