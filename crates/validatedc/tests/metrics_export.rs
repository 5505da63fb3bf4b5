//! End-to-end validation of the `--metrics` export: build the exact
//! snapshot the CLI writes (batch pass with engine instrumentation +
//! cold/warm live-pipeline sweep), render it as Prometheus text, and
//! hold it to the exposition format with obskit's strict parser.

use obskit::export::parse_prometheus;
use validatedc::prelude::*;

fn exported_prometheus() -> (String, usize) {
    let topology = build_clos(&ClosParams {
        clusters: 2,
        tors_per_cluster: 2,
        leaves_per_cluster: 2,
        spines: 2,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    });
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let registry = Registry::new();
    let validator = Validator::new(&meta)
        .engine(EngineChoice::Smt)
        .metrics(&registry)
        .build();
    let report = validator.run(&fibs);
    let mut snapshot = registry.observe_and_snapshot(&[&report]);
    snapshot.absorb(&validatedc::metrics::live_sweep(&meta, &fibs));
    (snapshot.to_prometheus(), fibs.len())
}

#[test]
fn metrics_export_is_valid_prometheus_with_all_families() {
    let (text, devices) = exported_prometheus();
    let samples = parse_prometheus(&text).expect("exported text must parse");
    let value = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels.iter().all(|(k, v)| {
                        s.labels.iter().any(|(sk, sv)| sk == k && sv == v)
                    })
            })
            .map(|s| s.value)
    };

    // Validate-latency histogram, per mode (acceptance check #2).
    let full_count = value("rcdc_validate_latency_ns_count", &[("mode", "full")])
        .expect("full-mode latency histogram");
    assert_eq!(full_count, devices as f64);
    assert!(
        value("rcdc_validate_latency_ns_bucket", &[("mode", "full"), ("le", "+Inf")]).is_some(),
        "histogram must expose cumulative buckets"
    );

    // Verdict-cache counters: cold sweep misses, warm sweep hits.
    assert_eq!(
        value("rcdc_verdict_cache_misses_total", &[]),
        Some(devices as f64)
    );
    assert_eq!(
        value("rcdc_verdict_cache_hits_total", &[]),
        Some(devices as f64)
    );
    assert_eq!(
        value("rcdc_verdict_cache_lookups_total", &[]),
        Some(2.0 * devices as f64)
    );

    // Per-engine check counters from the instrumented batch pass.
    assert_eq!(
        value("rcdc_engine_checks_total", &[("engine", "smt"), ("op", "full")]),
        Some(devices as f64)
    );

    // Solver session gauges (SMT pass: non-zero query count).
    let queries = value("rcdc_solver_queries", &[]).expect("solver gauge family");
    assert!(queries > 0.0, "SMT pass must issue solver queries");

    // Mode counters and pass families ride along.
    assert_eq!(
        value("rcdc_validate_mode_total", &[("mode", "cache_hit")]),
        Some(devices as f64)
    );
    assert_eq!(
        value("rcdc_pass_devices_validated_total", &[]),
        Some(devices as f64)
    );
}

#[test]
fn json_export_round_trips_same_families() {
    let topology = build_clos(&ClosParams {
        clusters: 1,
        tors_per_cluster: 2,
        leaves_per_cluster: 2,
        spines: 2,
        regional_spines: 2,
        regional_groups: 1,
        prefixes_per_tor: 1,
    });
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let json = validatedc::metrics::live_sweep(&meta, &fibs).to_json();
    for family in [
        "rcdc_validate_latency_ns",
        "rcdc_validate_mode_total",
        "rcdc_verdict_cache_hits_total",
        "rcdc_analytics_ingested_total",
        "rcdc_service_queue_depth",
    ] {
        assert!(json.contains(family), "JSON export missing {family}");
    }
}
