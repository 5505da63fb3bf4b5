//! Regenerates the paper's worked example (Figures 3–4, §2.4.4):
//! contract tables for ToR1/A1/D1 and the violation report under the
//! four link failures.

use bgpsim::{simulate, SimConfig};
use dctopo::generator::figure3;
use dctopo::{LinkState, MetadataService};
use rcdc::contracts::generate_contracts;
use rcdc::engine::{trie::TrieEngine, Engine};

fn main() {
    let mut f = figure3();
    let meta = MetadataService::from_topology(&f.topology);
    let contracts = generate_contracts(&meta);
    let name = |d: dctopo::DeviceId| meta.device(d).name.clone();
    let pname = |p: netprim::Prefix| -> String {
        for (i, &q) in f.prefixes.iter().enumerate() {
            if q == p {
                return format!("Prefix_{}", (b'A' + i as u8) as char);
            }
        }
        p.to_string()
    };

    println!("== Figure 4: generated contracts ==");
    for &(d, label) in &[(f.tors[0], "ToR1"), (f.a[0], "A1"), (f.d[0], "D1")] {
        println!("\n{label} ({}) contracts:", name(d));
        println!("  {:<10} next hops", "prefix");
        for c in contracts[d.0 as usize].contracts() {
            let hops: Vec<String> = c
                .next_hops()
                .map(|hs| hs.iter().map(|&h| name(meta.owner_of(h).unwrap())).collect())
                .unwrap_or_default();
            let label = if c.prefix.is_default() {
                "0/0".to_string()
            } else {
                pname(c.prefix)
            };
            println!("  {:<10} {{{}}}", label, hops.join(", "));
        }
    }

    // The four §2.4.4 link failures.
    for (tor, leaves) in [
        (f.tors[0], [f.a[2], f.a[3]]),
        (f.tors[1], [f.a[0], f.a[1]]),
    ] {
        for leaf in leaves {
            let l = f.topology.link_between(tor, leaf).unwrap().id;
            f.topology.set_link_state(l, LinkState::OperDown);
        }
    }
    println!("\n== §2.4.4: four link failures injected ==");
    let fibs = simulate(&f.topology, &SimConfig::healthy());
    let engine = TrieEngine::new();
    println!("{:<12} {:<10} violation", "device", "prefix");
    for d in f.topology.devices() {
        let r = engine.validate_device(&fibs[d.id.0 as usize], &contracts[d.id.0 as usize]);
        for v in &r.violations {
            let label = if v.prefix.is_default() {
                "0/0".to_string()
            } else {
                pname(v.prefix)
            };
            println!("{:<12} {:<10} {}", d.name, label, v.reason);
        }
    }
}
