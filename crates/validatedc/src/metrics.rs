//! Support for the CLI `--metrics` export: drive the live monitoring
//! pipeline over a set of FIBs so the export carries the pipeline's
//! metric families, not just the batch pass's.
//!
//! Shared between the `validatedc` binary and the integration tests so
//! the exact bytes the CLI emits are what the tests validate.

use dctopo::{DeviceId, MetadataService};
use obskit::MetricsSnapshot;
use rcdc::pipeline::SimulatedSource;
use rcdc::Validator;
use std::sync::Arc;

/// Run a cold + warm monitoring sweep over `fibs` on a one-shard
/// [`rcdc::ValidationService`] and return its merged snapshot: the
/// cold sweep gives every record of the shard's device store its
/// verdict (all misses, all full validations) and the warm sweep finds
/// each one standing (all hits),
/// populating `rcdc_validate_latency_ns{mode}`,
/// `rcdc_validate_mode_total{mode}`, the `rcdc_verdict_cache_*`
/// counters and the `rcdc_analytics_*` and `rcdc_service_*` families,
/// every sample labeled `shard="0"`.
pub fn live_sweep(meta: &MetadataService, fibs: &[bgpsim::Fib]) -> MetricsSnapshot {
    let devices: Vec<DeviceId> = (0..fibs.len() as u32).map(DeviceId).collect();
    let service = Validator::new(meta).build_service(Arc::new(SimulatedSource::new(fibs.to_vec())));
    for _sweep in 0..2 {
        service.pull_all(&devices);
        service.drain();
    }
    service.handle().snapshot()
}
