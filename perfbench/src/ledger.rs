//! The traced run's span ledger.
//!
//! The benchmark opens its own spans (`bench.*`) around each public call
//! into a crate, through the repository's `dbpim-trace` collector. While
//! the collector is installed the program's existing spans record too, so
//! the ledger nests both. Every span that has children gets an
//! `unattributed` row: its time minus the time its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use dbpim_trace::{ChromeTrace, SpanRecord, TraceCollector};

/// Installs a fresh collector; spans from here on are recorded.
pub fn start() -> Arc<TraceCollector> {
    let collector = Arc::new(TraceCollector::new());
    dbpim_trace::install(Arc::clone(&collector));
    collector
}

/// Per-name totals of a recorded span set.
#[derive(Debug, Default, Clone)]
pub struct Row {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_micros: u64,
    /// Summed duration not covered by direct children, in microseconds.
    pub self_micros: u64,
    /// Whether any span of this name had a child.
    pub parent: bool,
}

/// The spans of one traced run, folded by name.
#[derive(Debug)]
pub struct Ledger {
    spans: Vec<SpanRecord>,
    dropped: u64,
    rows: BTreeMap<&'static str, Row>,
}

impl Ledger {
    /// Uninstalls the collector and folds what it recorded.
    #[must_use]
    pub fn finish(collector: &TraceCollector) -> Self {
        dbpim_trace::uninstall();
        Self::from_spans(collector.snapshot(), collector.dropped())
    }

    /// Folds a span set: per-thread nesting comes from each span's depth and
    /// interval (the collector stamps both on one monotonic clock).
    #[must_use]
    pub fn from_spans(mut spans: Vec<SpanRecord>, dropped: u64) -> Self {
        spans.sort_by_key(|s| (s.thread, s.start_micros, s.depth));
        let mut covered = vec![0u64; spans.len()];
        let mut has_child = vec![false; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for index in 0..spans.len() {
            let span = &spans[index];
            while let Some(&top) = stack.last() {
                let open = &spans[top];
                let contains = open.thread == span.thread
                    && open.depth < span.depth
                    && open.end_micros() >= span.end_micros();
                if contains {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                if spans[parent].depth + 1 == span.depth {
                    covered[parent] += span.duration_micros;
                    has_child[parent] = true;
                }
            }
            stack.push(index);
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (index, span) in spans.iter().enumerate() {
            let row = rows.entry(span.name).or_default();
            row.count += 1;
            row.total_micros += span.duration_micros;
            row.self_micros += span.duration_micros.saturating_sub(covered[index]);
            row.parent |= has_child[index];
        }
        Self { spans, dropped, rows }
    }

    /// The totals recorded under `name`.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.get(name)
    }

    /// Mean duration of the spans named `name`, in milliseconds.
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.row(name).map(|row| row.total_micros as f64 / 1e3 / row.count as f64)
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |row| row.total_micros as f64 / 1e3)
    }

    /// The ledger as a table: one row per span name, plus an
    /// `<name>.unattributed` row under every parent.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out =
            format!("{:<40} {:>9} {:>12} {:>10}\n", "span", "count", "total_ms", "mean_ms");
        for (name, row) in &self.rows {
            let total = row.total_micros as f64 / 1e3;
            let _ = writeln!(
                out,
                "{name:<40} {:>9} {total:>12.3} {:>10.3}",
                row.count,
                total / row.count as f64
            );
            if row.parent {
                let unattributed = row.self_micros as f64 / 1e3;
                let _ = writeln!(
                    out,
                    "{:<40} {:>9} {unattributed:>12.3} {:>10.3}",
                    format!("{name}.unattributed"),
                    row.count,
                    unattributed / row.count as f64
                );
            }
        }
        let _ = writeln!(out, "spans dropped by the collector's ring: {}", self.dropped);
        out
    }

    /// Writes the Chrome trace (`<stem>.trace.json`) and the ledger table
    /// (`<stem>.ledger.txt`) into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{stem}.trace.json")), ChromeTrace::render(&self.spans))?;
        std::fs::write(dir.join(format!("{stem}.ledger.txt")), self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, depth: u32, start: u64, duration: u64) -> SpanRecord {
        SpanRecord {
            id: start + 1,
            name,
            thread: 0,
            depth,
            start_micros: start,
            duration_micros: duration,
            args: Vec::new(),
        }
    }

    #[test]
    fn parents_get_their_uncovered_time_as_unattributed() {
        let ledger = Ledger::from_spans(
            vec![
                span("op", 0, 0, 100),
                span("stage.a", 1, 10, 30),
                span("stage.b", 1, 50, 20),
                span("inner", 2, 55, 5),
                span("op", 0, 200, 10),
            ],
            0,
        );
        let op = ledger.row("op").unwrap();
        assert_eq!((op.count, op.total_micros, op.self_micros, op.parent), (2, 110, 60, true));
        let b = ledger.row("stage.b").unwrap();
        assert_eq!((b.self_micros, b.parent), (15, true));
        assert!(!ledger.row("stage.a").unwrap().parent);
        let table = ledger.table();
        assert!(table.contains("op.unattributed"));
        assert!(!table.contains("stage.a.unattributed"));
        assert_eq!(ledger.mean_ms("op"), Some(0.055));
    }
}
