//! Tracing from the benchmark's side of the public API: spans the benchmark
//! records around each call it makes, and deltas of the program's existing
//! obs catalogue taken around the measured region. Nothing here adds
//! instrumentation to the program itself; self time is a span minus the
//! obs histograms of the kernels inside it (`stats::self_split`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use imrdmd::obs::MetricsSnapshot;

use crate::stats::{ns_to_ms, per_round};

/// The whole process catalogue: linalg kernels, core pipeline and the
/// daemon's `serve.*` series.
pub fn capture() -> MetricsSnapshot {
    imrdmd_serve::obs::fleet_snapshot()
}

/// Obs deltas summed over one or more measured regions. Counters are keyed
/// by name; a histogram contributes its nanosecond sum under its name and
/// its observation count under `<name>#count`.
#[derive(Debug, Default)]
pub struct ObsDelta {
    values: BTreeMap<String, f64>,
}

impl ObsDelta {
    /// Adds the change between two captures of the same catalogue.
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for (b, a) in before.metrics.iter().zip(&after.metrics) {
            if let (Some(x), Some(y)) = (b.counter, a.counter) {
                *self.values.entry(a.name.clone()).or_default() += y.saturating_sub(x) as f64;
            }
            if let (Some(x), Some(y)) = (&b.histogram, &a.histogram) {
                *self.values.entry(a.name.clone()).or_default() +=
                    y.sum_ns.saturating_sub(x.sum_ns) as f64;
                *self.values.entry(format!("{}#count", a.name)).or_default() +=
                    y.count.saturating_sub(x.count) as f64;
            }
        }
    }

    /// A counter's increase, or a histogram's added nanoseconds.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Observations a histogram gained.
    pub fn count(&self, name: &str) -> f64 {
        self.get(&format!("{name}#count"))
    }
}

/// Runs `f` between two captures and adds the delta to `into`.
pub fn observed<T>(into: &mut ObsDelta, f: impl FnOnce() -> T) -> T {
    let before = capture();
    let out = f();
    into.add(&before, &capture());
    out
}

/// One span the benchmark recorded around a public call.
#[derive(Clone, Debug)]
struct Span {
    /// What was called (`client.ingest`, `engine.run_fleet`, …).
    name: &'static str,
    /// The request, round or pass the call belonged to.
    id: u64,
    /// Nanoseconds since the log's origin.
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log, summarised when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span of operation `id`.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Appends every span of `other`, which must share this log's origin.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// One line per span name: spans, operations touched and mean ms.
    pub fn summary(&self) -> String {
        let mut by_name: BTreeMap<&str, (usize, BTreeSet<u64>, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1.insert(s.id);
            e.2 += (s.end_ns - s.start_ns) as f64;
        }
        by_name
            .iter()
            .map(|(name, (n, ids, total))| {
                format!(
                    "span {name}: n={n} ops={} mean={:.4} ms",
                    ids.len(),
                    ns_to_ms(per_round(*total, *n as f64)),
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}
