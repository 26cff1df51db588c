//! Named metric registry: monotonic counters behind cheap integer
//! handles, with order-independent merge and Prometheus export.
//!
//! Each shard of a sharded run owns its own [`MetricsRegistry`] and bumps
//! counters through [`MetricId`] handles — a `Copy` index into a flat
//! array, so the hot path is one bounds-checked add with no hashing. At
//! aggregation time registries [`merge`](MetricsRegistry::merge) **by
//! name**: matching counters add, so the merge is associative and
//! commutative regardless of shard order. Gauges are computed after the
//! merge (sketch quantiles, say) and never live in a registry:
//! [`crate::export::prometheus_text`] renders the registry plus those
//! gauges in the Prometheus text exposition format.
//!
//! # Naming rules
//!
//! Names are validated at registration (DESIGN.md §13): lowercase
//! `snake_case` from `[a-z0-9_]`, starting with a letter, and ending in
//! `_total` (the Prometheus convention for counters). Violations panic at
//! registration — a misnamed metric is a bug in the instrumentation, not
//! in the run.

use std::collections::BTreeMap;
use std::fmt;

/// A cheap `Copy` handle to a registered counter — valid only for the
/// registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(usize);

#[derive(Clone, Debug, PartialEq)]
struct Metric {
    name: String,
    help: String,
    value: u64,
}

/// A registry of named counters (see the [module docs](self) for merge
/// and naming semantics).
///
/// # Examples
///
/// ```
/// use simstats::registry::MetricsRegistry;
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

/// Panics unless `name` is lowercase snake case starting with a letter.
pub(crate) fn validate_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
    let tail_ok = chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    assert!(
        head_ok && tail_ok,
        "metric name {name:?} must be lowercase snake_case starting with a letter"
    );
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or re-fetches) a monotonic counter. Idempotent by name.
    ///
    /// # Panics
    ///
    /// Panics on a name violating the naming rules.
    pub fn counter(&mut self, name: &str, help: &str) -> MetricId {
        // An existing name was validated when it was created.
        if let Some(&idx) = self.by_name.get(name) {
            return MetricId(idx);
        }
        validate_name(name);
        assert!(
            name.ends_with("_total"),
            "counter name {name:?} must end in _total"
        );
        let idx = self.metrics.len();
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: 0,
        });
        self.by_name.insert(name.to_string(), idx);
        MetricId(idx)
    }

    /// Adds `delta` to the counter — the hot-path operation, one array
    /// index away.
    pub fn add(&mut self, id: MetricId, delta: u64) {
        self.metrics[id.0].value += delta;
    }

    /// Current value of a counter.
    pub fn value(&self, id: MetricId) -> u64 {
        self.metrics[id.0].value
    }

    /// Looks a counter up by name (for tests and exporters).
    pub fn value_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&idx| self.metrics[idx].value)
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` if no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds `other` into `self` by counter **name**: matching names add,
    /// names unique to `other` are adopted. Addition is associative and
    /// commutative, so any merge order yields the same registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        // Exhaustive binding: `by_name` is the name→index cache over
        // `metrics`, rebuilt on our side by `counter`, so folding the
        // metrics list alone covers the whole struct.
        let MetricsRegistry {
            metrics,
            by_name: _,
        } = other;
        for m in metrics {
            let id = self.counter(&m.name, &m.help);
            self.add(id, m.value);
        }
    }

    /// All counters sorted by name, for export: `(name, help, value)`.
    pub(crate) fn sorted_entries(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.by_name.values().map(|&idx| {
            let m = &self.metrics[idx];
            (m.name.as_str(), m.help.as_str(), m.value)
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
    #[should_panic(expected = "must end in _total")]
    fn counter_requires_total_suffix() {
        MetricsRegistry::new().counter("ops", "operations");
    }

    #[test]
    #[should_panic(expected = "lowercase snake_case")]
    fn name_must_be_snake_case() {
        MetricsRegistry::new().counter("OpsTotal", "operations");
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
            .map(|(n, _, v)| (n.to_string(), v))
            .collect();
        let ba_view: Vec<_> = ba
            .sorted_entries()
            .map(|(n, _, v)| (n.to_string(), v))
            .collect();
        assert_eq!(ab_view, ba_view);
        assert_eq!(ab.value_of("a_total"), Some(1));
        assert_eq!(ab.value_of("b_total"), Some(2));
    }
}
