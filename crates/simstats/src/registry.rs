//! Named metric registry: monotonic counters and gauges behind cheap
//! integer handles, with order-independent merge and Prometheus export.
//!
//! Each shard of a sharded run owns its own [`MetricsRegistry`] and bumps
//! metrics through [`MetricId`] handles — a `Copy` index into a flat
//! array, so the hot path is one bounds-checked add with no hashing. At
//! aggregation time registries [`merge`](MetricsRegistry::merge) **by
//! name**: counters and gauges both add (a gauge here is a merged
//! population level, e.g. "flows in flight", not a last-write-wins
//! instantaneous reading), so the merge is associative and commutative
//! regardless of shard order. [`crate::export::prometheus_text`] renders
//! the result in the Prometheus text exposition format.
//!
//! # Naming rules
//!
//! Names are validated at registration (DESIGN.md §13): lowercase
//! `snake_case` from `[a-z0-9_]`, starting with a letter; counter names
//! must end in `_total` (the Prometheus convention) and gauge names must
//! not. Violations panic at registration — a misnamed metric is a bug in
//! the instrumentation, not in the run.

use std::collections::BTreeMap;
use std::fmt;

/// Whether a metric only ever goes up (counter) or tracks a level
/// (gauge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing; name must end `_total`.
    Counter,
    /// A level that merges by summation across shards.
    Gauge,
}

/// A cheap `Copy` handle to a registered metric — valid only for the
/// registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(usize);

#[derive(Clone, Debug, PartialEq)]
struct Metric {
    name: String,
    help: String,
    kind: MetricKind,
    value: u64,
}

/// A registry of named counters and gauges (see the [module docs](self)
/// for merge and naming semantics).
///
/// # Examples
///
/// ```
/// use simstats::registry::{MetricsRegistry, MetricKind};
///
/// let mut reg = MetricsRegistry::new();
/// let sent = reg.counter("cells_sent_total", "cells put on the wire");
/// reg.add(sent, 3);
/// reg.add(sent, 2);
/// assert_eq!(reg.value(sent), 5);
///
/// let mut other = MetricsRegistry::new();
/// let sent2 = other.counter("cells_sent_total", "cells put on the wire");
/// other.add(sent2, 10);
/// reg.merge(&other);
/// assert_eq!(reg.value(sent), 15);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    by_name: BTreeMap<String, usize>,
}

pub(crate) fn validate_name(name: &str, kind: MetricKind) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
    let tail_ok = chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    assert!(
        head_ok && tail_ok,
        "metric name {name:?} must be lowercase snake_case starting with a letter"
    );
    match kind {
        MetricKind::Counter => assert!(
            name.ends_with("_total"),
            "counter name {name:?} must end in _total"
        ),
        MetricKind::Gauge => assert!(
            !name.ends_with("_total"),
            "gauge name {name:?} must not end in _total (that suffix marks counters)"
        ),
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&mut self, name: &str, help: &str, kind: MetricKind) -> MetricId {
        // Idempotency check first: an existing name was validated when it
        // was created, and checking kind here gives the precise
        // "already registered as" diagnostic on conflicts.
        if let Some(&idx) = self.by_name.get(name) {
            let existing = &self.metrics[idx];
            assert!(
                existing.kind == kind,
                "metric {name:?} already registered as {:?}",
                existing.kind
            );
            return MetricId(idx);
        }
        validate_name(name, kind);
        let idx = self.metrics.len();
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            value: 0,
        });
        self.by_name.insert(name.to_string(), idx);
        MetricId(idx)
    }

    /// Registers (or re-fetches) a monotonic counter. Idempotent by name.
    ///
    /// # Panics
    ///
    /// Panics on a name violating the naming rules, or if the name is
    /// already registered as a gauge.
    pub fn counter(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, MetricKind::Counter)
    }

    /// Registers (or re-fetches) a gauge. Idempotent by name.
    ///
    /// # Panics
    ///
    /// Panics on a name violating the naming rules, or if the name is
    /// already registered as a counter.
    pub fn gauge(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, MetricKind::Gauge)
    }

    /// Adds `delta` to the metric — the hot-path operation, one array
    /// index away.
    pub fn add(&mut self, id: MetricId, delta: u64) {
        self.metrics[id.0].value += delta;
    }

    /// Overwrites the metric's value — for gauges snapshotted at end of
    /// run (queue depths, live-flow counts).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a counter: counters only go up.
    pub fn set(&mut self, id: MetricId, value: u64) {
        let m = &mut self.metrics[id.0];
        assert!(
            m.kind == MetricKind::Gauge,
            "set() on counter {:?}; counters are add-only",
            m.name
        );
        m.value = value;
    }

    /// Current value of a metric.
    pub fn value(&self, id: MetricId) -> u64 {
        self.metrics[id.0].value
    }

    /// Looks a metric up by name (for tests and exporters).
    pub fn value_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&idx| self.metrics[idx].value)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` if no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds `other` into `self` by metric **name**: matching names add
    /// (counters and gauges alike — see the module docs), names unique
    /// to `other` are adopted. Addition is associative and commutative,
    /// so any merge order yields the same registry.
    ///
    /// # Panics
    ///
    /// Panics if a name is a counter on one side and a gauge on the
    /// other.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        // Exhaustive binding: `by_name` is the name→index cache over
        // `metrics`, rebuilt on our side by `register`, so folding the
        // metrics list alone covers the whole struct.
        let MetricsRegistry {
            metrics,
            by_name: _,
        } = other;
        for m in metrics {
            let id = self.register(&m.name, &m.help, m.kind);
            self.add(id, m.value);
        }
    }

    /// All metrics sorted by name, for export: `(name, help, kind,
    /// value)`.
    pub fn sorted_entries(&self) -> impl Iterator<Item = (&str, &str, MetricKind, u64)> {
        self.by_name.values().map(|&idx| {
            let m = &self.metrics[idx];
            (m.name.as_str(), m.help.as_str(), m.kind, m.value)
        })
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.metrics.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", "operations");
        assert_eq!(reg.value(c), 0);
        reg.add(c, 7);
        reg.add(c, 3);
        assert_eq!(reg.value(c), 10);
        assert_eq!(reg.value_of("ops_total"), Some(10));
        assert_eq!(reg.value_of("missing"), None);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("ops_total", "operations");
        let b = reg.counter("ops_total", "operations");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("flows_live", "live flows");
        // The _total suffix rule makes a public-API collision impossible
        // to express without also violating naming, so exercise the
        // conflict guard through the internal path.
        reg.register("flows_live", "live flows", MetricKind::Counter);
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn counter_requires_total_suffix() {
        MetricsRegistry::new().counter("ops", "operations");
    }

    #[test]
    #[should_panic(expected = "must not end in _total")]
    fn gauge_rejects_total_suffix() {
        MetricsRegistry::new().gauge("flows_total", "flows");
    }

    #[test]
    #[should_panic(expected = "lowercase snake_case")]
    fn name_must_be_snake_case() {
        MetricsRegistry::new().counter("OpsTotal", "operations");
    }

    #[test]
    #[should_panic(expected = "add-only")]
    fn set_on_counter_panics() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", "operations");
        reg.set(c, 5);
    }

    #[test]
    fn gauges_can_be_set_and_merge_by_sum() {
        let mut a = MetricsRegistry::new();
        let live = a.gauge("flows_live", "flows in flight");
        a.set(live, 4);
        let mut b = MetricsRegistry::new();
        let live_b = b.gauge("flows_live", "flows in flight");
        b.set(live_b, 6);
        a.merge(&b);
        assert_eq!(a.value(live), 10, "gauges are population levels: sum");
    }

    #[test]
    fn merge_adopts_unknown_names_and_is_order_independent() {
        let mut a = MetricsRegistry::new();
        let ac = a.counter("a_total", "a");
        a.add(ac, 1);
        let mut b = MetricsRegistry::new();
        let bc = b.counter("b_total", "b");
        b.add(bc, 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Internal insertion order differs; the exported view must not.
        let ab_view: Vec<_> = ab
            .sorted_entries()
            .map(|(n, _, k, v)| (n.to_string(), k, v))
            .collect();
        let ba_view: Vec<_> = ba
            .sorted_entries()
            .map(|(n, _, k, v)| (n.to_string(), k, v))
            .collect();
        assert_eq!(ab_view, ba_view);
        assert_eq!(ab.value_of("a_total"), Some(1));
        assert_eq!(ab.value_of("b_total"), Some(2));
    }
}
