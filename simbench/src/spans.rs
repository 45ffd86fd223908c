//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer: layer name,
//! start, end, parent span and run id.  Spans stay in memory until the run
//! ends and are then written out as JSON lines.  A layer's self time is the
//! sum over its spans of the span's duration minus the part of it that child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    pub fn new(run: u64) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, layer: &'static str, label: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            label: label.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        label: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.enter(layer, label);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: span duration minus the union of its
    /// children's intervals, summed over the layer's spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(span.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"layer\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.run,
                s.layer,
                s.label.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_coverage() {
        let mut rec = SpanRecorder::new(0);
        let outer = rec.enter("sweep", "outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = rec.enter("engine", "inner");
        std::thread::sleep(std::time::Duration::from_millis(4));
        rec.exit(inner);
        rec.exit(outer);
        let own = rec.self_seconds();
        let total = (rec.spans()[outer].end_ns - rec.spans()[outer].start_ns) as f64 * 1e-9;
        assert!((own["sweep"] + own["engine"] - total).abs() < 1e-6);
        assert!(own["engine"] >= 0.004);
        assert_eq!(rec.spans()[inner].parent, Some(outer));
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
