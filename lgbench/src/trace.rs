//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer of the stack (never from inside the program). Each
//! span has a layer, a name, start and end, the span that caused it, and
//! the id of the request, DAG node or round it belongs to, so every span
//! of one request or node shares an id. Spans are kept in memory and
//! written at exit as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open.
//!
//! A layer's self time is its spans' duration minus the part covered by
//! their direct children on the same thread (work a span handed to a
//! pool worker runs beside it, not inside it). It is accumulated as spans
//! are recorded (a child's duration is subtracted from its parent's
//! layer), so the totals stay exact even when the stored span list is
//! capped.

use std::io::Write;

/// The layers spans are attributed to, named by module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's driver thread: generation, pacing, bookkeeping.
    Driver,
    /// Useful work inside task bodies.
    App,
    /// `lg-runtime`: spawn, DAG wiring, queueing, drain.
    Runtime,
    /// `lg-core::listener` / `profile`: event dispatch to the profiler.
    Observe,
    /// `lg-core::policy`: engine steps.
    Policy,
    /// `lg-core::admission`: brownout, gate and bulkhead.
    Admission,
    /// `lg-core::arbiter`: control rounds, admit, evict.
    Arbiter,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Driver,
        Layer::App,
        Layer::Runtime,
        Layer::Observe,
        Layer::Policy,
        Layer::Admission,
        Layer::Arbiter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::App => "app",
            Layer::Runtime => "lg-runtime",
            Layer::Observe => "lg-core.observe",
            Layer::Policy => "lg-core.policy",
            Layer::Admission => "lg-core.admission",
            Layer::Arbiter => "lg-core.arbiter",
        }
    }

    /// The per-layer metric reporting this layer's self time.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Driver => "self.driver.us_per_op",
            Layer::App => "self.app.us_per_op",
            Layer::Runtime => "self.lg-runtime.us_per_op",
            Layer::Observe => "self.lg-core.observe.us_per_op",
            Layer::Policy => "self.lg-core.policy.us_per_op",
            Layer::Admission => "self.lg-core.admission.us_per_op",
            Layer::Arbiter => "self.lg-core.arbiter.us_per_op",
        }
    }
}

/// A recorded span's handle: pass it as the parent of the spans it
/// caused.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef {
    sid: u64,
    layer: Layer,
    tid: u32,
}

struct Span {
    sid: u64,
    parent: u64,
    id: u64,
    name: &'static str,
    layer: Layer,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span store plus per-layer self-time totals. Owned by the driver
/// thread; spans of work that ran on pool workers are stamped there and
/// recorded here after the fact.
pub struct Tracer {
    enabled: bool,
    next_sid: u64,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    self_ns: [i128; 7],
}

impl Tracer {
    /// A tracer that stores at most `cap` spans for export. A disabled
    /// tracer records nothing and costs one branch per call site.
    pub fn new(enabled: bool, cap: usize) -> Self {
        Self {
            enabled,
            next_sid: 1,
            spans: Vec::new(),
            cap,
            dropped: 0,
            self_ns: [0; 7],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a handle for a span on thread `tid` before its end is
    /// known, so children can name it as their parent; finish it with
    /// [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, tid: u32) -> SpanRef {
        let sid = self.next_sid;
        self.next_sid += 1;
        SpanRef { sid, layer, tid }
    }

    /// Records the span opened as `span`.
    pub fn close(
        &mut self,
        span: SpanRef,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        id: u64,
        parent: Option<SpanRef>,
    ) {
        if !self.enabled {
            return;
        }
        let dur = end_ns.saturating_sub(start_ns) as i128;
        self.self_ns[span.layer as usize] += dur;
        if let Some(p) = parent.filter(|p| p.tid == span.tid) {
            self.self_ns[p.layer as usize] -= dur;
        }
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                sid: span.sid,
                parent: parent.map_or(0, |p| p.sid),
                id,
                name,
                layer: span.layer,
                tid: span.tid,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Opens and closes in one call.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        layer: Layer,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        id: u64,
        parent: Option<SpanRef>,
        tid: u32,
    ) -> SpanRef {
        let span = self.open(layer, tid);
        self.close(span, name, start_ns, end_ns, id, parent);
        span
    }

    /// Self time per layer, ns.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize].max(0) as f64
    }

    /// Spans recorded (stored or dropped).
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Spans not stored because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the stored spans as Chrome trace-event JSON ("X" complete
    /// events, microsecond timestamps). Layers are the categories; the
    /// span's own id, its parent's and the shared request/node id go in
    /// `args`.
    pub fn write_chrome(&self, w: &mut impl Write, process: &str) -> std::io::Result<()> {
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for s in &self.spans {
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                s.name,
                s.layer.name(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.sid,
                s.parent,
                s.id
            )?;
        }
        writeln!(w, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, 10);
        let root = t.open(Layer::Driver, 0);
        t.record(Layer::Admission, "admit", 10, 30, 7, Some(root), 0);
        t.record(Layer::Runtime, "spawn", 30, 40, 7, Some(root), 0);
        // Runs on a worker beside the request span: not subtracted.
        t.record(Layer::App, "body", 50, 150, 7, Some(root), 1);
        t.close(root, "request", 0, 100, 7, None);
        assert_eq!(t.self_ns(Layer::Driver), 70.0);
        assert_eq!(t.self_ns(Layer::Admission), 20.0);
        assert_eq!(t.self_ns(Layer::Runtime), 10.0);
        assert_eq!(t.self_ns(Layer::App), 100.0);
        assert_eq!(t.span_count(), 4);
    }

    #[test]
    fn cap_drops_storage_but_not_totals() {
        let mut t = Tracer::new(true, 1);
        t.record(Layer::App, "a", 0, 5, 1, None, 1);
        t.record(Layer::App, "b", 5, 12, 2, None, 1);
        assert_eq!(t.self_ns(Layer::App), 12.0);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 10);
        t.record(Layer::App, "a", 0, 5, 1, None, 1);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.self_ns(Layer::App), 0.0);
    }

    #[test]
    fn chrome_export_is_valid_event_json() {
        let mut t = Tracer::new(true, 10);
        let root = t.record(Layer::Driver, "run", 0, 2_000, 0, None, 0);
        t.record(Layer::App, "body", 500, 1_500, 3, Some(root), 2);
        let mut out = Vec::new();
        t.write_chrome(&mut out, "test").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"body\",\"cat\":\"app\",\"ph\":\"X\""));
        assert!(text.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(text.contains("\"parent\":1,\"id\":3"));
    }
}
