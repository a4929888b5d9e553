//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, req)`; spans of one request
//! share `req`. They stay in memory during the run and are written as
//! JSON lines when it ends. Spans inside the program itself are a later
//! change; these sit at the boundaries the harness can see.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Request the span belongs to.
    pub req: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_written_one_object_a_line() {
        let mut r = Recorder::new(8);
        let root = r.push("request", 100, 200, None, 7);
        r.push("net.roundtrip", 110, 185, Some(root), 7);
        assert_eq!(r.len(), 2);
        let path =
            std::env::temp_dir().join(format!("lbsbench-spans-{}.jsonl", std::process::id()));
        r.write_jsonl(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            lines[1].get("name").unwrap().as_str(),
            Some("net.roundtrip")
        );
        assert_eq!(lines[1].get("req").unwrap().as_f64(), Some(7.0));
    }
}
