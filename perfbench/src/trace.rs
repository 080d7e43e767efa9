//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions;
//! nothing inside the library is instrumented. A span may name a parent.
//! Shadow replays (the array and LTA reads re-run after a poll returns) are
//! attributed to the poll that made the real reads, so a span's self time is
//! its duration minus the durations of its children, wherever they ran.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id, batch id or operation index; `u64::MAX` when none.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span log with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, id });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its value and the span index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one tab-separated line per span:
    /// `index name start_ns end_ns parent id` (`-` for no parent).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.id)?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
            *slot += s.duration_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("serve.poll", 0, 100, None),
            span("lta.search_batch_at", 10, 40, Some(0)),
            span("array.distances_batch", 15, 35, Some(1)),
            span("lta.search_batch_at", 50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 20, 30]);
    }

    #[test]
    fn self_time_counts_replayed_children_outside_the_parent_interval() {
        // A shadow replay after the poll returned still belongs to it.
        let spans = vec![
            span("serve.poll", 0, 100, None),
            span("lta.search_batch_at", 120, 150, Some(0)),
            span("array.distances_batch", 150, 170, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 10, 20]);
    }

    #[test]
    fn self_time_floors_at_zero() {
        let spans =
            vec![span("serve.poll", 0, 10, None), span("lta.search_batch_at", 20, 45, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_times_and_writes_spans() {
        let mut t = Tracer::new();
        let (v, outer) = t.time("serve.poll", None, 7, || 41 + 1);
        let (_, inner) = t.time("array.distances_batch", Some(outer), 7, || ());
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert!(t.spans()[outer].end_ns <= t.spans()[inner].start_ns);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).expect("writes to memory");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("0\tserve.poll\t"));
        assert!(lines[0].ends_with("\t-\t7"));
        assert!(lines[1].ends_with("\t0\t7"));
    }
}
