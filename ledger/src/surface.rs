//! The frozen surface: what of the repository the benchmark calls, and
//! what it must never touch.
//!
//! ROADMAP item 3 deletes the deprecated shim crate, the old bench
//! crate, the frozen reference simulator and trie engine, and the
//! duplicate shrinkers. The benchmark has to survive that untouched,
//! or the numbers before and after are not comparable.

use std::path::Path;

/// Every repository item the benchmark calls: the builder-level API
/// and the leaf functions the traced runs replay. `README.md` lists
/// the same names.
const CALLS: &[&str] = &[
    "dctopo::build_clos",
    "dctopo::MetadataService::from_topology",
    "dctopo::Topology::{devices, devices_with_role, links_of, set_link_state}",
    "bgpsim::simulate_with",
    "bgpsim::Baseline::{converge, resimulate}",
    "bgpsim::FaultSpec::links",
    "bgpsim::Fib::{from_wire, to_wire, content_hash, delta, len}",
    "rcdc::Validator::{new, with_contracts, run, contracts}",
    "rcdc::ValidatorBuilder::{threads, engine, metadata, shards, ingest_capacity, build, build_service, build_whatif, build_planner}",
    "rcdc::ValidationService::{submit, pull_all, drain, handle}",
    "rcdc::ServiceHandle::{verdict, alerts, dirty_count, snapshot}",
    "rcdc::pipeline::SnapshotSource",
    "rcdc::contracts::ContractGenerator::{new, device}",
    "rcdc::EngineChoice::instantiate",
    "rcdc::Engine::{validate_device, validate_delta}",
    "rcdc::WhatIfSweeper::{sweep, check_scenario, universe, baseline}",
    "rcdc::RolloutPlanner::{plan, check_order}",
    "rcdc::rollout::seeded_scenario",
    "rcdc::rollout::ManagedNetwork::new",
    "secguru::refactor::{synthesize_legacy_acl, edge_contracts, execute_plan}",
    "secguru::refactor::Change::apply",
    "secguru::diff::SmtDiff::{new, diff, stats}",
    "secguru::SecGuru::{new, check_all, stats}",
    "validatedc::render::render_validate_report",
    "validatedc::serve::drop_route",
    "obskit::MetricsSnapshot::counter",
];

fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("ledger/src is readable") {
            let path = entry.expect("ledger/src is readable").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("sources are UTF-8");
                out.push((path.display().to_string(), text));
            }
        }
    }
    let mut out = Vec::new();
    walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut out);
    out
}

#[test]
fn no_source_mentions_what_the_roadmap_will_delete() {
    // Spelled in halves so that this file passes its own test.
    let doomed = [
        ["dc", "emu"],
        ["dc", "bench"],
        ["sim_", "reference"],
        ["Trie", "Reference"],
        ["Reference", "TrieEngine"],
        ["diff", "test"],
        ["sim", "net"],
        ["::", "shrink"],
    ]
    .map(|[a, b]| format!("{a}{b}"));
    for (path, text) in sources() {
        for word in &doomed {
            assert!(!text.contains(word.as_str()), "{path} mentions {word}");
        }
    }
}

#[test]
fn readme_lists_the_calls_and_the_sources_make_them() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("ledger/README.md");
    let code: String = sources()
        .into_iter()
        .filter(|(path, _)| !path.ends_with("surface.rs"))
        .map(|(_, text)| text)
        .collect();
    for call in CALLS {
        assert!(readme.contains(call), "README.md does not list {call}");
        // `a::B::{x, y}` names x and y; `a::b` names b.
        let (_, last) = call.rsplit_once("::").expect("calls are paths");
        for name in last.trim_matches(['{', '}']).split(", ") {
            assert!(code.contains(name), "{call}: no source calls {name}");
        }
    }
}
