//! # obskit — observability substrate for the validation pipeline
//!
//! The paper's RCDC deployment is judged from operational signals
//! (§2.6: sweep latency, alert burndown, per-device validation state),
//! not from one-shot exit codes. This crate is the substrate those
//! signals flow through: a lightweight, dependency-free metrics layer
//! shared by the live pipeline, the verification engines, SecGuru, and
//! the fault-injection harness.
//!
//! Building blocks:
//!
//! * [`Counter`] — monotone `AtomicU64`, cloneable handle;
//! * [`Gauge`] — signed instantaneous value;
//! * [`Histogram`] — lock-free log₂-bucketed value distribution with
//!   exact `count`/`sum` and bucket-resolution quantiles (p50/p95/p99);
//!   [`Histogram::start_timer`] turns it into a named span timer;
//! * [`Registry`] — process-wide, cheaply cloneable collection of
//!   *labeled metric families* (`name{label="v"}`), snapshotable at any
//!   moment into a [`MetricsSnapshot`];
//! * exporters — [`MetricsSnapshot::to_prometheus`] (text exposition
//!   format) and [`MetricsSnapshot::to_json`] (stable, sorted JSON);
//! * [`Observer`] — the bridge trait: a component that keeps live
//!   state (the pipeline's device store, a solver
//!   session) registers its handles / publishes point-in-time gauges
//!   into a registry on demand, so ad-hoc per-component getters become
//!   views over one shared registry.
//!
//! Hot-path cost model: recording into a counter or histogram is one
//! or three relaxed atomic RMWs — no locks, no allocation. The
//! registry's lock is touched only when a handle is created or a
//! snapshot is taken, never per observation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use export::{parse_prometheus, PromSample};
pub use metrics::{Counter, Gauge, Histogram, Timer};
pub use registry::{Observer, Registry};
pub use snapshot::{
    FamilySnapshot, HistogramSnapshot, MetricKind, MetricsSnapshot, Sample, SampleValue,
};
