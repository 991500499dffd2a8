//! In-memory spans recorded around the benchmark's own calls into each
//! layer (setup, verify, compile, slices, fabric epochs, control
//! services, probes). Spans are kept in memory and written out once,
//! when the run ends; a disabled recorder costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`slice`, `setup`, `probe.noc`, ...).
    pub name: String,
    /// The layer the timed call belongs to (a crate name).
    pub layer: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle to an open span (`None` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Self time of one layer: its spans' durations minus the parts their
/// child spans cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed wall time including children, ns.
    pub total_ns: u64,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it). Returns the
    /// span's duration in ns (0 when recording is off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else {
            return 0;
        };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
        end - self.spans[id].start_ns
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per layer.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.layer).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete `X` events, one
    /// track per layer; the parent index rides in `args`), loadable in
    /// Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            let n = tids.len();
            tids.entry(s.layer).or_insert(n + 1);
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (layer, tid) in &tids {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{layer}\"}}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(",\n");
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.layer,
                tids[s.layer],
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let outer = s.open("core", "slice");
        let inner = s.open("noc", "probe");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(inner);
        s.close(outer);
        let t = s.self_times();
        assert_eq!(t["core"].count, 1);
        assert!(t["core"].self_ns < t["noc"].self_ns);
        assert_eq!(t["core"].total_ns, t["core"].self_ns + t["noc"].total_ns);
        assert_eq!(s.spans()[inner.0.unwrap()].parent, outer.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("core", "slice");
        assert_eq!(s.close(id), 0);
        assert!(s.spans().is_empty());
        assert!(s.to_chrome_json().contains("traceEvents"));
    }
}
