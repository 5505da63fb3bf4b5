//! E9 — live-monitoring pipeline capacity (§2.6.1): "Fetching each
//! routing table takes 200-800ms, and validating takes O(100)
//! milliseconds. … Each service instance is configured to monitor
//! O(10K) devices."
//!
//! Runs a one-shot monitoring sweep (`pull_all` + `drain` on the
//! sharded service, shards = concurrent pulls) with simulated pull
//! latency and reports the sustained device throughput and the
//! extrapolated sweep period for a 10k-device instance.

use bgpsim::{simulate, SimConfig};
use dctopo::{build_clos, ClosParams, DeviceId, MetadataService};
use obskit::HistogramSnapshot;
use rcdc::contracts::generate_contracts;
use rcdc::pipeline::{PipelineResult, SimulatedSource, StreamAnalytics, ValidateMode};
use rcdc::report::{Risk, ValidationReport, Violation, ViolationReason};
use rcdc::Validator;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let params = ClosParams {
        clusters: 8,
        tors_per_cluster: 8,
        leaves_per_cluster: 4,
        spines: 8,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    };
    let topology = build_clos(&params);
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let devices: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();

    println!("shards,devices,pull_latency_ms,sweep_s,devices_per_s,mean_validate_ms,p50_validate_ms,p99_validate_ms,extrapolated_10k_sweep_s");
    for shards in [8usize, 32, 64] {
        // §2.6.1's 200–800 ms pull latency, scaled down 10x so the
        // bench finishes quickly; the throughput math scales linearly.
        let source = SimulatedSource::new(fibs.clone())
            .with_latency(Duration::from_millis(20), Duration::from_millis(80));
        let service = Validator::new(&meta)
            .shards(shards)
            .build_service(Arc::new(source));
        let t0 = Instant::now();
        service.pull_all(&devices);
        service.drain();
        let sweep = t0.elapsed();
        let rate = devices.len() as f64 / sweep.as_secs_f64();
        // At 10x the latency, per-worker throughput drops 10x.
        let extrapolated = 10_000.0 / (rate / 10.0);
        // Quantiles come from the exported validate-latency histograms
        // (a cold sweep validates everything in full mode), merged
        // across the shards.
        let snap = service.handle().snapshot();
        let mut full = HistogramSnapshot::default();
        for shard in 0..shards {
            let labels = [("mode", "full"), ("shard", &shard.to_string())];
            if let Some(h) = snap.histogram("rcdc_validate_latency_ns", &labels) {
                full.merge(h);
            }
        }
        let quantile_ms = |q: f64| full.quantile(q).map_or(f64::NAN, |ns| ns as f64 / 1e6);
        println!(
            "{},{},20-80,{:.2},{:.1},{:.3},{:.3},{:.3},{:.1}",
            shards,
            devices.len(),
            sweep.as_secs_f64(),
            rate,
            full.mean().map_or(f64::NAN, |ns| ns / 1e6),
            quantile_ms(0.50),
            quantile_ms(0.99),
            extrapolated
        );
    }
    eprintln!("# paper: one instance monitors O(10K) devices; pulls dominate, validation is O(100) ms");
    dashboard_query_regression(&meta);
}

/// Regression guard for the dashboard-query path: `dirty_devices` /
/// `alerts` are served from the pre-sorted dirty index, so their cost
/// tracks the dirty count, not the fleet size. Populate a 10k-device
/// sink with a handful of dirty devices and require sustained query
/// throughput that a full-map clone under the lock cannot reach.
fn dashboard_query_regression(meta: &MetadataService) {
    let analytics = StreamAnalytics::default();
    let fleet = 10_000u32;
    let dirty = 16u32; // dirty ids stay within the real topology, for alerts()
    let contracts = generate_contracts(meta);
    for i in 0..fleet {
        let device = DeviceId(i);
        let report = if i < dirty {
            let contract = contracts[i as usize]
                .contracts()
                .first()
                .expect("every low-id device carries contracts")
                .clone();
            ValidationReport {
                violations: vec![Violation::of(&contract, ViolationReason::MissingRoute)],
                contracts_checked: 1,
                solver_stats: Default::default(),
            }
        } else {
            ValidationReport::default()
        };
        analytics.ingest(PipelineResult {
            device,
            report,
            validate_time: Duration::from_micros(100),
            mode: ValidateMode::Full,
        });
    }

    let queries = 50_000u32;
    let t0 = Instant::now();
    for _ in 0..queries {
        assert_eq!(analytics.dirty_devices().len(), dirty as usize);
        assert_eq!(analytics.dirty_count(), dirty as usize);
        assert!(!analytics.alerts(meta, Risk::Low).is_empty());
    }
    let rate = queries as f64 / t0.elapsed().as_secs_f64();
    eprintln!("# dashboard queries on a 10k-device sink ({dirty} dirty): {rate:.0}/s");
    assert!(
        rate >= 100_000.0,
        "dashboard queries must be O(dirty), not O(fleet): {rate:.0}/s < 100000/s"
    );
}
