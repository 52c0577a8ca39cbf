//! Harness-side spans: one per call into a layer, kept in memory and
//! written as JSON lines when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// One timed interval. Times are microseconds since the replay began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Unique within the request.
    pub id: u32,
    /// The span (of the same request) that caused this one.
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its child spans cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<(u64, u32), Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.req, p))
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&(s.req, s.id)) {
                kids.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut reach = s.start_us;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_us);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.req, s.id, s.name, s.start_us, s.end_us
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
        Span {
            req,
            id,
            parent,
            name: format!("s{id}"),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span(1, 0, None, 0.0, 100.0),
            span(1, 1, Some(0), 10.0, 40.0),
            // Overlaps the previous child: only 40..60 is new cover.
            span(1, 2, Some(0), 30.0, 60.0),
            // Sticks out of the parent: clipped at 100.
            span(1, 3, Some(0), 90.0, 130.0),
            span(1, 4, Some(1), 10.0, 25.0),
            // Same ids, another request: must not mix.
            span(2, 0, None, 0.0, 50.0),
            span(2, 1, Some(0), 0.0, 50.0),
        ];
        assert_eq!(
            self_times(&spans),
            vec![40.0, 15.0, 30.0, 40.0, 15.0, 0.0, 50.0]
        );
    }
}
