//! Shared harness utilities for the experiment binaries (`src/bin/e*.rs`).
//!
//! Every experiment in `EXPERIMENTS.md` is regenerated by one binary in
//! this crate; the binaries print aligned tables so their output can be
//! diffed against the recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fmt::Write as _;

use twostep_telemetry::{MetricsSnapshot, Path};

/// A simple aligned text table.
///
/// # Example
///
/// ```rust
/// use twostep_bench::Table;
///
/// let mut t = Table::new(&["protocol", "n", "latency"]);
/// t.row(&["Paxos", "5", "2.0Δ"]);
/// t.row(&["TwoStep(task)", "6", "2.0Δ"]);
/// let rendered = t.render();
/// assert!(rendered.contains("protocol"));
/// assert!(rendered.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table under a title banner.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// An agreement cell: `VIOLATED` or `intact`.
pub fn verdict(violated: bool) -> String {
    if violated { "VIOLATED" } else { "intact" }.to_string()
}

/// Mean of a sample (0 for empty input).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on a sorted copy.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats a latency in Δ units to two decimals, or `-` if absent.
pub fn fmt_deltas(latency: Option<f64>) -> String {
    match latency {
        Some(l) => format!("{l:.2}Δ"),
        None => "-".to_string(),
    }
}

/// Formats a telemetry snapshot's per-path decision counts as
/// `fast/slow/recovery-gt/recovery-eq/learned`, e.g. `"5/0/0/1/2"`.
pub fn fmt_path_counts(snap: &MetricsSnapshot) -> String {
    Path::ALL
        .iter()
        .map(|p| snap.decided(*p).to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Formats the share of proposed commands that sat in a proxy's queue
/// until its pump tick, e.g. `"0.0 %"`.
pub fn fmt_pump_share(snap: &MetricsSnapshot) -> String {
    format!("{:.1} %", 100.0 * snap.pump_released_share())
}

/// Formats p50/p99 decision latency per non-empty path. Raw histogram
/// values are divided by `scale` and suffixed with `unit` — pass
/// `(1000.0, "Δ")` for simulator virtual-time units and
/// `(1000.0, "ms")` for runtime microseconds. Returns `-` when no path
/// recorded any latency.
pub fn fmt_path_latencies(snap: &MetricsSnapshot, scale: f64, unit: &str) -> String {
    let mut out = String::new();
    for path in Path::ALL {
        let h = snap.latency_of(path);
        if h.count == 0 {
            continue;
        }
        if !out.is_empty() {
            out.push_str("; ");
        }
        let _ = write!(
            out,
            "{} {:.2}/{:.2}{unit}",
            path.label(),
            h.p50 as f64 / scale,
            h.p99 as f64 / scale,
        );
    }
    if out.is_empty() {
        "-".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        t.row(&["y", "2"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: the second column starts at the same offset.
        let off0 = lines[0].find("long-header").unwrap();
        let off2 = lines[2].find('1').unwrap();
        assert_eq!(off0, off2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
    }

    #[test]
    fn fmt_latency() {
        assert_eq!(fmt_deltas(Some(2.0)), "2.00Δ");
        assert_eq!(fmt_deltas(None), "-");
    }

    #[test]
    fn path_columns_from_snapshot() {
        use twostep_telemetry::{Metrics, ProtocolObserver};
        use twostep_types::ProcessId;

        let m = Metrics::new();
        let empty = m.snapshot();
        assert_eq!(fmt_path_counts(&empty), "0/0/0/0/0");
        assert_eq!(fmt_path_latencies(&empty, 1000.0, "Δ"), "-");

        let p = ProcessId::new(0);
        m.decided(p, Path::Fast);
        m.decision_latency(p, 2000);
        let snap = m.snapshot();
        assert_eq!(fmt_path_counts(&snap), "1/0/0/0/0");
        assert_eq!(fmt_path_latencies(&snap, 1000.0, "Δ"), "fast 2.00/2.00Δ");
    }
}

/// Transport backend selected by an experiment binary's `--backend`
/// flag: the in-memory channels the sweeps default to, or one of the
/// two real-socket backends ([`twostep_runtime::ClusterBuilder::tcp`] /
/// [`twostep_runtime::ClusterBuilder::reactor`]) so the same workload
/// can be compared across transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Crossbeam channels, no sockets (the default).
    #[default]
    Memory,
    /// Blocking TCP: writer thread per destination, reader per accept.
    Tcp,
    /// Non-blocking reactor: one event-loop thread owning all sockets.
    Reactor,
}

impl Backend {
    /// Parses `--backend {memory|tcp|reactor}` from raw argv; defaults
    /// to [`Backend::Memory`] when absent, panics on an unknown value
    /// (a misspelled backend silently falling back to memory would make
    /// a cross-backend comparison lie).
    pub fn from_args(args: &[String]) -> Backend {
        match args
            .iter()
            .position(|a| a == "--backend")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            None => Backend::Memory,
            Some("memory") => Backend::Memory,
            Some("tcp") => Backend::Tcp,
            Some("reactor") => Backend::Reactor,
            Some(other) => panic!("unknown --backend {other:?} (expected memory|tcp|reactor)"),
        }
    }

    /// Applies the selection to a cluster builder.
    pub fn apply(
        self,
        builder: twostep_runtime::ClusterBuilder,
    ) -> twostep_runtime::ClusterBuilder {
        match self {
            Backend::Memory => builder.in_memory(),
            Backend::Tcp => builder.tcp(),
            Backend::Reactor => builder.reactor(),
        }
    }

    /// The flag spelling, used in table titles and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Memory => "memory",
            Backend::Tcp => "tcp",
            Backend::Reactor => "reactor",
        }
    }
}
