//! The process-wide metric registry and the [`Observer`] bridge trait.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{FamilySnapshot, MetricKind, MetricsSnapshot, Sample, SampleValue};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    metrics: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A collection of labeled metric families.
///
/// Cloning is cheap and shares the underlying store — components can
/// each hold a clone and register into the same registry. Handles
/// returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// get-or-create: asking twice for the same `(name, labels)` yields
/// handles over the same cells, which is what makes re-registration
/// idempotent and concurrent registration safe.
///
/// Existing component-owned handles are adopted with the
/// `register_*` methods — after adoption the component's internal
/// counter *is* the registry's metric, not a copy of it.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<RwLock<BTreeMap<String, Family>>>,
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.write().expect("registry lock poisoned");
        let fresh = fresh();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: fresh.kind(),
            metrics: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            fresh.kind(),
            "metric family {name:?} registered as {} and {}",
            family.kind.name(),
            fresh.kind().name(),
        );
        if family.help.is_empty() && !help.is_empty() {
            family.help = help.to_string();
        }
        family
            .metrics
            .entry(own_labels(labels))
            .or_insert(fresh)
            .clone()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name` already names a family of a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, labels, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, help, labels, || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in get_or_insert"),
        }
    }

    fn adopt(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        let mut families = self.families.write().expect("registry lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: handle.kind(),
            metrics: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            handle.kind(),
            "metric family {name:?} registered as {} and {}",
            family.kind.name(),
            handle.kind().name(),
        );
        family.metrics.insert(own_labels(labels), handle);
    }

    /// Adopt an existing counter handle as `name{labels}` (insert or
    /// replace): the registry exports the live cells the component is
    /// still incrementing.
    pub fn register_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], c: &Counter) {
        self.adopt(name, help, labels, Handle::Counter(c.clone()));
    }

    /// Adopt an existing gauge handle as `name{labels}`.
    pub fn register_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], g: &Gauge) {
        self.adopt(name, help, labels, Handle::Gauge(g.clone()));
    }

    /// Adopt an existing histogram handle as `name{labels}`.
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
    ) {
        self.adopt(name, help, labels, Handle::Histogram(h.clone()));
    }

    /// Freeze every family into a deterministic, sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.read().expect("registry lock poisoned");
        MetricsSnapshot {
            families: families
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name: name.clone(),
                    help: fam.help.clone(),
                    kind: fam.kind,
                    samples: fam
                        .metrics
                        .iter()
                        .map(|(labels, handle)| Sample {
                            labels: labels.clone(),
                            value: match handle {
                                Handle::Counter(c) => SampleValue::Counter(c.get()),
                                Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                                Handle::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Bridge every observer's current state in, then snapshot.
    pub fn observe_and_snapshot(&self, observers: &[&dyn Observer]) -> MetricsSnapshot {
        for o in observers {
            o.observe(self);
        }
        self.snapshot()
    }
}

/// A component whose operational state can be bridged into a registry.
///
/// Implementations either *adopt* their live handles (so subsequent
/// activity keeps flowing into the registry — the pipeline's device
/// store does this) or *publish* point-in-time gauges
/// computed from internal state (solver session totals do this).
/// `observe` must be idempotent: bridging twice re-registers the same
/// handles or overwrites the same gauges.
pub trait Observer {
    /// Register/refresh this component's metrics in `registry`.
    fn observe(&self, registry: &Registry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_cells() {
        let r = Registry::new();
        let a = r.counter("hits_total", "hits", &[("k", "v")]);
        let b = r.counter("hits_total", "", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits_total", &[("k", "v")]), Some(2));
        assert_eq!(snap.families[0].help, "hits", "first help wins");
    }

    #[test]
    fn adopted_handles_stay_live() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(3);
        r.register_counter("adopted_total", "", &[], &c);
        c.inc();
        assert_eq!(r.snapshot().counter("adopted_total", &[]), Some(4));
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "", &[]);
        r.gauge("x", "", &[]);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = Registry::new();
        let a = r.counter("c_total", "", &[("b", "2"), ("a", "1")]);
        let b = r.counter("c_total", "", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("c_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }
}
