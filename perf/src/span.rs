//! Spans around the probe pass's calls into each layer. They are kept
//! in memory and written as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its tracer; the root span of a command has no
/// parent.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `smr.on_message`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The command (or batch, or decision) the span belongs to; spans of
    /// one commit share it.
    pub subject: u64,
}

/// Collects spans for the first `limit` subjects; counts and timings of
/// the probe pass cover every command, the span file only these, which
/// keeps it a few megabytes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    limit: u64,
}

impl Tracer {
    pub fn new(limit: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            limit,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` once `subject` is past the recording limit,
    /// which [`Tracer::close`] accepts and ignores.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        subject: u64,
    ) -> Option<SpanId> {
        if subject >= self.limit {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            subject,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("subject", Json::Num(span.subject as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover. Children are recorded by one thread, so siblings do
/// not overlap and their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns - span.start_ns;
            self_ns[parent as usize] = self_ns[parent as usize].saturating_sub(covered);
        }
    }
    self_ns
}

/// Total self time of the spans whose name starts with `layer.`.
pub fn layer_self_ns(spans: &[Span], layer: &str) -> u64 {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| {
            s.name
                .strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
        .map(|(ns, _)| ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            subject: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("commit.root", 0, 100, None),
            span("smr.on_propose", 10, 40, Some(0)),
            span("codec.encode", 15, 25, Some(1)),
            span("smr.on_message", 50, 90, Some(0)),
        ];
        // root: 100 − 30 − 40; on_propose: 30 − 10; the leaves keep all.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(layer_self_ns(&spans, "smr"), 60);
        assert_eq!(layer_self_ns(&spans, "codec"), 10);
        assert_eq!(layer_self_ns(&spans, "commit"), 30);
        assert_eq!(layer_self_ns(&spans, "sm"), 0, "layer names match whole");
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's duration");
    }

    #[test]
    fn recording_stops_at_the_subject_limit_and_lines_parse() {
        let mut t = Tracer::new(2);
        let root = t.open("commit.root", None, 0);
        let child = t.open("smr.on_propose", root, 0);
        t.close(child);
        t.close(root);
        let skipped = t.open("commit.root", None, 2);
        assert_eq!(skipped, None);
        t.close(skipped);
        assert_eq!(t.spans().len(), 2);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            lines[1].get("name").and_then(Json::as_str),
            Some("smr.on_propose")
        );
    }
}
