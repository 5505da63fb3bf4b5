//! `cold_sweep` — the `validatedc validate` path, in process and in
//! the order `cmd_validate` runs it: `build_clos` → `simulate_with` →
//! `MetadataService::from_topology` → `Validator::new(..).build()` →
//! `run` → `render_validate_report`, on the 4680-device fabric.
//!
//! Why: the paper's headline (10⁴ routers in minutes on one CPU). The
//! only workload where the EBGP fixed point, contract generation and
//! full-table trie validation do all the work, and restart, delta and
//! queues do none. The generated topology is the input, so building
//! it is the set-up; everything from the fixed point to the rendered
//! report is the timed body.

use crate::fabric::{self, FABRIC_5K};
use crate::harness::{timed, Checks, Config, Layers, Rep, Workload};
use crate::stats::{median, tail};
use crate::trace::{subtree_self_times, Tracer};
use bgpsim::{simulate_with, SimConfig, SimOptions};
use dctopo::{build_clos, MetadataService};
use rcdc::{EngineChoice, Validator};
use std::hint::black_box;
use validatedc::render::render_validate_report;

/// Exact work counts of the healthy fabric: (contracts checked,
/// relaxations attempted), full shape then quick shape. They must
/// repeat on every run and change only when a change means them to.
const PINNED_FULL: (usize, u64) = (19_137_088, 304_161_280);
const PINNED_QUICK: (usize, u64) = (9_640, 67_392);

#[derive(Default)]
pub struct ColdSweep {
    reps: u64,
}

impl Workload for ColdSweep {
    fn rep(&mut self, cfg: &Config, t: &mut Tracer, checks: &mut Checks) -> Rep {
        let params = fabric::pick(FABRIC_5K, cfg.quick);
        self.reps += 1;

        let setup_span = t.open_op("dctopo.build_clos", self.reps);
        let (topology, setup_s) = timed(|| build_clos(&params));
        t.close(setup_span);

        let body = t.open_op("cold_sweep.body", self.reps);
        let ((fibs, stats, validator, report, rendered, spans), body_s) = timed(|| {
            let simulate = t.open("bgpsim.simulate");
            let (fibs, stats) =
                simulate_with(&topology, &SimConfig::healthy(), SimOptions::default());
            t.close(simulate);
            let metadata = t.open("dctopo.metadata");
            let meta = MetadataService::from_topology(&topology);
            t.close(metadata);
            let generate = t.open("contracts.generate");
            let validator = Validator::new(&meta).threads(1).build();
            t.close(generate);
            let run = t.open("runner.run_pass");
            let report = validator.run(&fibs);
            t.close(run);
            let render = t.open("render.report");
            let rendered = render_validate_report(&report, &topology, &meta, Some(report.elapsed));
            t.close(render);
            (
                fibs,
                stats,
                validator,
                report,
                rendered,
                (simulate, generate, run),
            )
        });
        t.close(body);
        black_box(&rendered);

        // Known answers, outside the timed body: a healthy fabric has
        // no violation on any device, and the work counts are pinned.
        let devices = topology.devices().len();
        checks.ops(
            devices as u64,
            report.dirty_devices() as u64,
            "device verdicts",
        );
        let (contracts, relaxations) = if cfg.quick { PINNED_QUICK } else { PINNED_FULL };
        let checked = report.contracts_checked();
        checks.expect(checked == contracts, || {
            format!("contracts checked: {checked}, pinned {contracts}")
        });
        checks.expect(stats.relaxations == relaxations, || {
            format!("relaxations: {}, pinned {relaxations}", stats.relaxations)
        });
        let summary = ": 0 violations on 0 devices";
        checks.expect(
            rendered
                .lines()
                .next()
                .is_some_and(|l| l.ends_with(summary)),
            || format!("rendered report does not say{summary}"),
        );

        let layers = t.enabled().then(|| {
            let (simulate, generate, run) = spans;
            // `Validator::run` hides its per-device children: replay
            // every device through the same engine, one at a time.
            let engine = EngineChoice::Trie.instantiate();
            let mut device_s = Vec::with_capacity(devices);
            for (i, (fib, contracts)) in fibs.iter().zip(validator.contracts()).enumerate() {
                let (r, span) = t.replay("engine.validate_device", run, i as u64, || {
                    engine.validate_device(fib, contracts)
                });
                black_box(r);
                device_s.push(t.duration_s(span));
            }
            let engine_s: f64 = device_s.iter().sum();
            let device_us: Vec<f64> = device_s.iter().map(|s| s * 1e6).collect();

            let mut l = Layers::default();
            l.set("dctopo.build_clos_s", setup_s);
            l.set("bgpsim.simulate_s", t.duration_s(simulate));
            l.set("bgpsim.relaxations", stats.relaxations as f64);
            l.set(
                "bgpsim.ns_per_relaxation",
                t.duration_s(simulate) * 1e9 / stats.relaxations.max(1) as f64,
            );
            l.set(
                "bgpsim.fib_entries",
                fibs.iter().map(|f| f.len() as f64).sum(),
            );
            l.set("contracts.generate_s", t.duration_s(generate));
            l.set("contracts.count", checked as f64);
            l.set(
                "contracts.ns_per_contract",
                t.duration_s(generate) * 1e9 / checked.max(1) as f64,
            );
            l.set("engine.validate_device_s", engine_s);
            l.set(
                "engine.ns_per_contract",
                engine_s * 1e9 / checked.max(1) as f64,
            );
            l.set("engine.device_p50_us", median(&device_us));
            l.set("engine.device_tail_us", tail(&device_us).value);
            l.set("runner.run_pass_s", t.duration_s(run));
            l.set("runner.overhead_s", t.duration_s(run) - engine_s);
            let (_, closure) = subtree_self_times(t.spans(), body);
            l.set("bench.trace_closure_pct", 100.0 * closure);
            l
        });

        Rep {
            setup_s,
            verdict_s: body_s,
            ops_per_s: devices as f64 / body_s,
            measured_s: body_s,
            layers,
        }
    }

    fn setup_only(&mut self, cfg: &Config) -> Option<f64> {
        let params = fabric::pick(FABRIC_5K, cfg.quick);
        let (topology, s) = timed(|| build_clos(&params));
        black_box(topology);
        Some(s)
    }
}
