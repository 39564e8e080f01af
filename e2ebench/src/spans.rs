//! Spans of the traced pass: recorded into a preallocated buffer while
//! the run is timed, written out as JSON Lines when it ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its buffer; also its `id` in the span file.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The id spans of one request share: the packet (or batch, or
    /// 256-packet block) ordinal within its round.
    pub ordinal: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span store with one time origin.
pub struct SpanBuffer {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuffer {
    /// Reserves room for `capacity` spans up front.
    pub fn with_capacity(capacity: usize) -> SpanBuffer {
        SpanBuffer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        ordinal: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            ordinal,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span that [`SpanBuffer::close`] ends — for parents, whose
    /// children are recorded in between.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, ordinal: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, ordinal, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"ordinal\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.ordinal, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every node of a span tree: its duration minus the part
/// its direct children cover. `nodes[i]` is `(parent index, duration)`.
///
/// The result may be negative: the staged replay times each layer on its
/// own, and a child timed standalone can come out longer than the share
/// it has inside its parent. That is reported, not clamped.
pub fn self_times(nodes: &[(Option<usize>, f64)]) -> Vec<f64> {
    let mut own: Vec<f64> = nodes.iter().map(|(_, d)| *d).collect();
    for (parent, duration) in nodes {
        if let Some(p) = parent {
            own[*p] -= duration;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root(100) ⊃ a(60) ⊃ b(25), root ⊃ c(10)
        let nodes = [
            (None, 100.0),
            (Some(0), 60.0),
            (Some(1), 25.0),
            (Some(0), 10.0),
        ];
        assert_eq!(self_times(&nodes), vec![30.0, 35.0, 25.0, 10.0]);
    }

    #[test]
    fn self_time_of_an_overcovered_parent_is_negative() {
        let nodes = [(None, 10.0), (Some(0), 8.0), (Some(0), 5.0)];
        assert_eq!(self_times(&nodes)[0], -3.0);
    }

    #[test]
    fn buffer_links_children_to_parents_on_one_time_origin() {
        let mut buf = SpanBuffer::with_capacity(8);
        let round = buf.open("round", None, 0);
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_nanos(500);
        let t2 = t1 + std::time::Duration::from_nanos(700);
        buf.record("send", Some(round), 0, t0, t1);
        buf.record("send", Some(round), 1, t1, t2);
        buf.close(round);
        let sends: Vec<u64> = buf.spans()[1..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        assert_eq!(sends, [500, 700]);
        assert!(buf.spans()[1..].iter().all(|s| s.parent == Some(round)));
        let r = buf.spans()[round as usize];
        assert!(r.start_ns <= buf.spans()[1].start_ns && r.end_ns >= r.start_ns);
    }

    #[test]
    fn span_file_is_one_json_object_per_line() {
        let mut buf = SpanBuffer::with_capacity(2);
        let root = buf.open("staged", None, 0);
        let t = Instant::now();
        buf.record("kernel.scan", Some(root), 3, t, t);
        buf.close(root);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        buf.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(second.get("name").unwrap().as_str(), Some("kernel.scan"));
        assert_eq!(second.get("ordinal").unwrap().as_f64(), Some(3.0));
    }
}
