//! Spans recorded by the benchmark around calls into the repository's
//! public functions. Nothing outside `ledger/` is instrumented: a span
//! is two clock readings taken here, kept in memory, and written out
//! when the run ends.
//!
//! Some product calls hide their children (`Validator::run`, the shard
//! worker, `sweep`, `plan`). For those the traced run replays the same
//! inputs through the leaf functions afterwards and records the
//! replays as *replayed* children: their intervals lie outside the
//! parent's, and their whole duration is charged against the parent's
//! self time.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation (event, scenario, repetition) share it.
    pub op_id: u64,
    pub replayed: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so one
/// workload body serves both the untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open span, inheriting its op id.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let op_id = self
            .stack
            .last()
            .map_or(0, |&p| self.spans[p as usize].op_id);
        self.open_op(name, op_id)
    }

    /// Open a span that starts a new operation.
    pub fn open_op(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as SpanId;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op_id,
            replayed: false,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span whose interval was measured elsewhere: on another
    /// thread, or by a replay after its parent ended.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start: Instant,
        end: Instant,
        replayed: bool,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as SpanId;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            replayed,
        });
        id
    }

    /// Time `f` as a replayed child of `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (
            out,
            self.record(name, Some(parent), op_id, start, end, true),
        )
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        self.spans
            .get(id as usize)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// Total duration of the spans called `name` directly under `parent`.
    pub fn total_s_under(&self, parent: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p.into())),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("replayed", Json::Bool(s.replayed)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span, in nanoseconds: its duration minus the part of
/// its interval that in-place children cover, minus the whole duration
/// of each replayed child. Negative when replays cost more than the
/// call they stand in for.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut in_place: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    let mut replayed = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        if s.replayed {
            replayed[p as usize] += s.duration_ns();
        } else {
            in_place.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            if let Some(children) = in_place.get_mut(&(i as SpanId)) {
                children.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in children.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration_ns() as i64 - covered as i64 - replayed[i] as i64
        })
        .collect()
}

/// Self time summed per span name over the subtree of `root`, in
/// seconds, and how well the subtree closes: the non-negative self
/// times as a share of `root`'s duration. With only in-place children
/// the share is exactly 1; replays that cost more than the call they
/// stand in for push it above 1.
pub fn subtree_self_times(spans: &[Span], root: SpanId) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times_ns(spans);
    let mut inside = vec![false; spans.len()];
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut positive = 0.0;
    // Parents are always recorded before their children.
    for (i, s) in spans.iter().enumerate() {
        inside[i] = i as SpanId == root || s.parent.is_some_and(|p| inside[p as usize]);
        if inside[i] {
            let secs = selfs[i] as f64 / 1e9;
            *by_name.entry(s.name).or_default() += secs;
            positive += secs.max(0.0);
        }
    }
    let root_s = spans[root as usize].duration_ns() as f64 / 1e9;
    let closure = if root_s > 0.0 { positive / root_s } else { 0.0 };
    (by_name, closure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        replayed: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_in_place_children() {
        let spans = [
            span("body", 0, 100, None, false),
            span("a", 10, 40, Some(0), false),
            // Overlaps `a`: the union covers 10..60, not 30 + 30.
            span("b", 30, 60, Some(0), false),
            // Sticks out of the parent: only 90..100 counts.
            span("c", 90, 120, Some(0), false),
            span("a.inner", 15, 25, Some(1), false),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn replayed_children_are_charged_in_full() {
        let spans = [
            span("body", 0, 1000, None, false),
            span("run", 100, 900, Some(0), false),
            span("leaf", 2000, 2300, Some(1), true),
            span("leaf", 2300, 2700, Some(1), true),
        ];
        // run: 800 - (300 + 400); body: 1000 - 800.
        assert_eq!(self_times_ns(&spans), vec![200, 100, 300, 400]);
        let (by_name, closure) = subtree_self_times(&spans, 0);
        assert_eq!(by_name["leaf"], 700e-9);
        assert_eq!(by_name["run"], 100e-9);
        assert!((closure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replays_costlier_than_the_call_show_as_closure_above_one() {
        let spans = [
            span("body", 0, 1000, None, false),
            span("run", 0, 1000, Some(0), false),
            span("leaf", 2000, 3200, Some(1), true),
        ];
        let (by_name, closure) = subtree_self_times(&spans, 0);
        assert_eq!(by_name["run"], -200e-9);
        assert!((closure - 1.2).abs() < 1e-12);
    }

    #[test]
    fn subtree_excludes_spans_outside_the_root() {
        let spans = [
            span("setup", 0, 50, None, false),
            span("body", 50, 150, None, false),
            span("x", 60, 70, Some(1), false),
        ];
        let (by_name, closure) = subtree_self_times(&spans, 1);
        assert!(!by_name.contains_key("setup"));
        assert_eq!(by_name["body"], 90e-9);
        assert!((closure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_inherits_op_ids_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let body = t.open_op("body", 7);
        let child = t.open("child");
        t.close(child);
        let ((), replay) = t.replay("leaf", child, 9, || ());
        t.close(body);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].op_id), (Some(body), 7));
        assert_eq!(
            (s[2].parent, s[2].op_id, s[2].replayed),
            (Some(child), 9, true)
        );
        assert_eq!(replay, 2);
        assert!(s[0].end_ns >= s[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.open("body");
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
