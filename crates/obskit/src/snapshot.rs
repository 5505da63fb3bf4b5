//! Point-in-time snapshots of a registry: the one value type every
//! exporter, test, and legacy getter renders from.

use crate::metrics::bucket_index;

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log₂-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name (Prometheus `# TYPE` line, JSON `kind`).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Frozen copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// `(inclusive upper bound, cumulative count)` for every non-empty
    /// bucket, in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Quantile estimate: the upper bound of the bucket containing the
    /// `ceil(q·count)`-th smallest observation, so for a true quantile
    /// `t` the report `r` satisfies `t <= r <= 2·t` (`r == 0` iff
    /// `t == 0`). `None` when empty.
    ///
    /// A single-observation histogram reports the observation itself
    /// (it equals `sum` exactly): a p99 of one 1500 ns sample reads
    /// 1500, not the 2047 bucket edge — dashboards built on sparse
    /// histograms (per-shard latencies right after startup) were
    /// over-reporting by up to 2×. With two or more observations the
    /// bucket bound stands; `sum` wraps on overflow, so it cannot be
    /// used as a clamp in general.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            return Some(self.sum);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        self.buckets
            .iter()
            .find(|(_, cum)| *cum >= rank)
            .map(|(ub, _)| *ub)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Exact mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merge another snapshot into this one. Merging is exact at
    /// bucket resolution: the result's buckets equal those of a
    /// histogram that recorded both sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut dense = [0u64; crate::metrics::HISTOGRAM_BUCKETS];
        for snap in [&*self, other] {
            let mut prev = 0u64;
            for &(ub, cum) in &snap.buckets {
                dense[bucket_index(ub)] += cum - prev;
                prev = cum;
            }
        }
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in dense.iter().enumerate() {
            if c > 0 {
                cum += c;
                buckets.push((crate::metrics::bucket_upper_bound(i), cum));
            }
        }
        self.buckets = buckets;
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One sample's value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One labeled sample of a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// All samples of one metric family (one name, one kind, many label
/// sets).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Family name (e.g. `rcdc_validate_latency_ns`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Samples, sorted by label set.
    pub samples: Vec<Sample>,
}

/// A frozen registry: families sorted by name, samples sorted by
/// labels — deterministic output for golden tests and diffs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

/// Does the sample carry every one of `labels` (and possibly more)?
fn labels_include(sample: &Sample, labels: &[(&str, &str)]) -> bool {
    labels
        .iter()
        .all(|(k, v)| sample.labels.iter().any(|(sk, sv)| sk == k && sv == v))
}

fn labels_match(sample: &Sample, labels: &[(&str, &str)]) -> bool {
    sample.labels.len() == labels.len() && labels_include(sample, labels)
}

impl MetricsSnapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .samples
            .iter()
            .find(|s| labels_match(s, labels))
            .map(|s| &s.value)
    }

    /// Counter reading for `name{labels}`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading for `name{labels}`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find(name, labels)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram reading for `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.find(name, labels)? {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Every sample of `name` whose labels include `labels`: the series
    /// a fold across the remaining labels (e.g. `shard`) ranges over.
    fn including<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a SampleValue> + 'a {
        self.families
            .iter()
            .filter(move |f| f.name == name)
            .flat_map(|f| &f.samples)
            .filter(move |s| labels_include(s, labels))
            .map(|s| &s.value)
    }

    /// Sum of every counter series of `name` whose labels include
    /// `labels` — a per-shard family read fleet-wide, the same value
    /// unlabeled [`absorb`](Self::absorb) would have added up. `0`
    /// when nothing matches.
    pub fn counter_total(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.including(name, labels)
            .map(|v| match v {
                SampleValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// [`merge`](HistogramSnapshot::merge) of every histogram series of
    /// `name` whose labels include `labels`; empty when nothing matches.
    pub fn histogram_total(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for v in self.including(name, labels) {
            if let SampleValue::Histogram(h) = v {
                total.merge(h);
            }
        }
        total
    }

    /// Does a family of this name exist (with at least one sample)?
    pub fn has_family(&self, name: &str) -> bool {
        self.families
            .iter()
            .any(|f| f.name == name && !f.samples.is_empty())
    }

    /// Return a copy with `(key, value)` added to every sample's label
    /// set (keeping labels sorted by key). Sharded services use this to
    /// tag each shard's registry snapshot — e.g. `shard="3"` — before
    /// [`absorb`](Self::absorb)-ing them into one export.
    pub fn with_label(&self, key: &str, value: &str) -> MetricsSnapshot {
        let mut out = self.clone();
        for family in &mut out.families {
            for sample in &mut family.samples {
                let at = sample
                    .labels
                    .partition_point(|(k, _)| k.as_str() < key);
                sample.labels.insert(at, (key.into(), value.into()));
            }
            family.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        out
    }

    /// Merge another snapshot into this one. Families are matched by
    /// name and samples by label set; colliding counters and gauges
    /// add, histograms [`merge`](HistogramSnapshot::merge) (kind
    /// mismatches keep the existing sample). Sorted-output invariants
    /// are preserved, so absorbing N labeled shard snapshots yields a
    /// deterministic fleet-wide export.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for family in &other.families {
            let dst = match self.families.iter_mut().find(|f| f.name == family.name) {
                Some(dst) => dst,
                None => {
                    let at = self
                        .families
                        .partition_point(|f| f.name < family.name);
                    self.families.insert(
                        at,
                        FamilySnapshot {
                            name: family.name.clone(),
                            help: family.help.clone(),
                            kind: family.kind,
                            samples: Vec::new(),
                        },
                    );
                    &mut self.families[at]
                }
            };
            for sample in &family.samples {
                match dst.samples.iter_mut().find(|s| s.labels == sample.labels) {
                    Some(existing) => match (&mut existing.value, &sample.value) {
                        (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                        (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
                        (SampleValue::Histogram(a), SampleValue::Histogram(b)) => a.merge(b),
                        _ => {}
                    },
                    None => {
                        let at = dst
                            .samples
                            .partition_point(|s| s.labels < sample.labels);
                        dst.samples.insert(at, sample.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn merge_equals_concatenated_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [0u64, 1, 7, 900, 900, 1 << 33] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 7, 65_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn with_label_then_absorb_builds_fleet_export() {
        // Two "shards" each with the same counter family and a
        // histogram; labeling keeps samples distinct, absorbing without
        // labels adds them.
        let shard = |n: u64| {
            let h = Histogram::new();
            h.record(10 * n);
            MetricsSnapshot {
                families: vec![
                    FamilySnapshot {
                        name: "a_total".into(),
                        help: "h".into(),
                        kind: MetricKind::Counter,
                        samples: vec![Sample {
                            labels: vec![],
                            value: SampleValue::Counter(n),
                        }],
                    },
                    FamilySnapshot {
                        name: "lat_ns".into(),
                        help: "h".into(),
                        kind: MetricKind::Histogram,
                        samples: vec![Sample {
                            labels: vec![],
                            value: SampleValue::Histogram(h.snapshot()),
                        }],
                    },
                ],
            }
        };

        // Labeled: per-shard samples stay separate.
        let mut labeled = shard(1).with_label("shard", "0");
        labeled.absorb(&shard(2).with_label("shard", "1"));
        assert_eq!(labeled.counter("a_total", &[("shard", "0")]), Some(1));
        assert_eq!(labeled.counter("a_total", &[("shard", "1")]), Some(2));
        assert_eq!(labeled.families[0].samples.len(), 2);

        // Unlabeled: colliding samples add / merge.
        let mut total = shard(1);
        total.absorb(&shard(2));
        assert_eq!(total.counter("a_total", &[]), Some(3));
        let h = total.histogram("lat_ns", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30);

        // Folding the labeled export across `shard` reads the same
        // totals back, with or without the label given.
        assert_eq!(labeled.counter_total("a_total", &[]), 3);
        assert_eq!(&labeled.histogram_total("lat_ns", &[]), h);
        assert_eq!(labeled.counter_total("a_total", &[("shard", "1")]), 2);
        assert_eq!(labeled.counter_total("a_total", &[("shard", "9")]), 0);
        assert_eq!(labeled.histogram_total("nope_ns", &[]).count, 0);

        // Families stay sorted by name after absorbing a new family.
        let mut base = MetricsSnapshot::default();
        base.absorb(&shard(1));
        assert_eq!(base.families[0].name, "a_total");
        assert_eq!(base.families[1].name, "lat_ns");
    }

    #[test]
    fn with_label_keeps_labels_sorted() {
        let snap = MetricsSnapshot {
            families: vec![FamilySnapshot {
                name: "x_total".into(),
                help: String::new(),
                kind: MetricKind::Counter,
                samples: vec![Sample {
                    labels: vec![("mode".into(), "full".into())],
                    value: SampleValue::Counter(3),
                }],
            }],
        };
        let labeled = snap.with_label("shard", "7");
        assert_eq!(
            labeled.families[0].samples[0].labels,
            vec![
                ("mode".into(), "full".into()),
                ("shard".into(), "7".into())
            ]
        );
        let relabeled = snap.with_label("a", "z");
        assert_eq!(relabeled.families[0].samples[0].labels[0].0, "a");
    }

    #[test]
    fn snapshot_lookup_by_labels() {
        let snap = MetricsSnapshot {
            families: vec![FamilySnapshot {
                name: "x_total".into(),
                help: String::new(),
                kind: MetricKind::Counter,
                samples: vec![Sample {
                    labels: vec![("mode".into(), "full".into())],
                    value: SampleValue::Counter(3),
                }],
            }],
        };
        assert_eq!(snap.counter("x_total", &[("mode", "full")]), Some(3));
        assert_eq!(snap.counter("x_total", &[("mode", "hit")]), None);
        assert_eq!(snap.counter("x_total", &[]), None);
        assert!(snap.has_family("x_total"));
        assert!(!snap.has_family("y_total"));
    }
}
