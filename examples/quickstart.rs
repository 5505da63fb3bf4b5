//! Quickstart: validate a datacenter, break it, watch RCDC find it.
//!
//! ```sh
//! cargo run --release -p validatedc --example quickstart
//! ```

use validatedc::prelude::*;

fn main() {
    // 1. A Clos datacenter: 4 clusters × 8 ToRs, 4 leaves/cluster,
    //    8 spines, 4 regional spines (the Figure 1 shape, scaled down).
    let params = ClosParams::default();
    let mut topology = build_clos(&params);
    println!(
        "topology: {} devices, {} links",
        topology.devices().len(),
        topology.links().len()
    );

    // 2. Reality: converge EBGP and extract every device's FIB.
    let fibs = simulate(&topology, &SimConfig::healthy());
    let total_entries: usize = fibs.iter().map(|f| f.len()).sum();
    println!("reality:  {total_entries} FIB entries across the datacenter");

    // 3. Intent: derived from the metadata service alone (§2.3–2.4).
    let meta = MetadataService::from_topology(&topology);
    let contracts = generate_contracts(&meta);
    let total_contracts: usize = contracts.iter().map(|c| c.len()).sum();
    println!("intent:   {total_contracts} local contracts");

    // 4. Local validation: healthy network, everything green.
    let validator = Validator::new(&meta).build();
    let report = validator.run(&fibs);
    println!(
        "validate: {} contracts checked in {:?} -> {} violations",
        report.contracts_checked(),
        report.elapsed,
        report.total_violations()
    );
    assert!(report.is_clean());

    // 5. Cut two uplinks of one ToR (a latent, not-yet-impacting fault).
    let tor = topology.devices_with_role(Role::Tor).next().unwrap().id;
    let uplinks: Vec<_> = topology
        .links_of(tor)
        .map(|l| l.id)
        .take(2)
        .collect();
    for l in uplinks {
        topology.set_link_state(l, LinkState::OperDown);
    }
    println!("\ninjected: 2 uplink failures on {}", meta.device(tor).name);

    // 6. Revalidate. Contracts are unchanged — they come from expected
    //    topology — but reality drifted.
    let fibs = simulate(&topology, &SimConfig::healthy());
    let report = validator.run(&fibs);
    println!(
        "validate: {} violations on {} devices",
        report.total_violations(),
        report.dirty_devices()
    );
    for (i, device_report) in report.reports.iter().enumerate() {
        for v in device_report.violations.iter().take(2) {
            let risk = risk_of(v, &meta);
            println!(
                "  [{risk:?}] {} {} ({:?}): {}",
                meta.device(DeviceId(i as u32)).name,
                v.prefix,
                v.kind,
                v.reason
            );
        }
    }
    assert!(!report.is_clean());
    println!("\nRCDC caught the latent fault before it became an outage.");
}
