//! The span recorder: a virtual-time clock plus a stack of open spans.

use crate::metrics::MetricsRegistry;
use crate::stopwatch::HostStopwatch;

/// The track (Chrome-trace `tid`) the engine's stack-built span tree
/// lives on. Other subsystems record explicit-interval spans on their
/// own tracks (the serving sink assigns per-worker and per-request
/// tracks above this).
pub const TRACK_ENGINE: u32 = 0;

/// How deep the engine's span tree goes. Levels are ordered: a span
/// tagged at a given level is recorded only when the configured detail
/// is at least that deep, so `Layers` sees three spans per inference
/// while `Tiles` sees every weight tile's window.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanDetail {
    /// One span per network layer under the inference root.
    Layers,
    /// Plus per-phase spans: matmuls, squash, routing iterations and
    /// input staging.
    Phases,
    /// Plus per-matmul memory-stall windows and one span per weight
    /// tile's window. At MNIST scale this is tens of thousands of
    /// spans; intended for small design points.
    Tiles,
}

/// Recorder configuration.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TelemetryConfig {
    /// Span-tree depth for the engine track.
    pub detail: SpanDetail,
    /// When true, the functional backend annotates matmul spans with
    /// host nanoseconds spent staging weight K-tiles and sweeping rows.
    /// Host times never enter the virtual clock; they ride along as
    /// span args only.
    pub host_timing: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            detail: SpanDetail::Phases,
            host_timing: false,
        }
    }
}

/// One recorded span: a named `[start, end)` interval of virtual time
/// on a track, with an optional parent (stack-built spans) and numeric
/// args carried into the Chrome-trace export.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Span {
    /// Phase name (e.g. `"matmul"`, `"softmax"`, `"request"`).
    pub name: &'static str,
    /// Track (Chrome-trace `tid`) the span renders on.
    pub track: u32,
    /// Virtual cycle the span opened at.
    pub start: u64,
    /// Virtual cycle the span closed at (`>= start`; zero-length spans
    /// are legal — e.g. the stall window of a matmul that never
    /// stalls).
    pub end: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<u32>,
    /// Numeric annotations (`("i", iteration)`, `("req", id)`,
    /// host-nanosecond timings, ...).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Audited widening of a `u32` span index into host index space.
/// (`capsacc-telemetry` is dependency-free, so it cannot share
/// `capsacc_tensor::usize_from`; std offers no `From<u32> for usize`
/// because of 16-bit targets.)
fn span_index(idx: u32) -> usize {
    usize::try_from(idx).expect("span index fits usize")
}

/// A span recorder with its own virtual clock.
///
/// The clock is advanced *explicitly* by instrumentation
/// ([`Recorder::advance`]) at each point the simulation charges
/// cycles, rather than being derived from engine counters: this crate
/// depends on none of them, and the engine advances it wherever it
/// charges its cycle ledger, which is what makes span trees sum
/// *exactly* to `LayerRun`/`BatchRun` totals.
///
/// A disabled recorder (the default everywhere) turns every method
/// into a cheap early-return: no allocation, no clock movement, no
/// observable effect of any kind.
#[derive(Clone, PartialEq, Debug)]
pub struct Recorder {
    enabled: bool,
    cfg: TelemetryConfig,
    now: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
    track_names: Vec<(u32, String)>,
    metrics: MetricsRegistry,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// The do-nothing recorder every instrumented component defaults
    /// to.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            cfg: TelemetryConfig::default(),
            now: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            track_names: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// An enabled recorder.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            enabled: true,
            cfg,
            ..Self::disabled()
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether host wall-clock annotation was requested (and recording
    /// is on) — instrumented code reads host clocks only when this
    /// returns true.
    pub fn host_timing(&self) -> bool {
        self.enabled && self.cfg.host_timing
    }

    /// A host wall-clock stopwatch started now — running only when
    /// [`Recorder::host_timing`] is on, inert (never reading the clock)
    /// otherwise.
    pub fn host_stopwatch(&self) -> HostStopwatch {
        HostStopwatch::start(self.host_timing())
    }

    /// The configured span detail.
    pub fn detail(&self) -> SpanDetail {
        self.cfg.detail
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// All recorded spans, in creation (i.e. open) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn active(&self, level: SpanDetail) -> bool {
        self.enabled && level <= self.cfg.detail
    }

    /// Opens a span at `level` on the engine track. No-op unless
    /// recording is on and the configured detail reaches `level` —
    /// [`Recorder::end`] applies the same gate, so begin/end pairs
    /// stay balanced at every detail setting.
    pub fn begin(&mut self, level: SpanDetail, name: &'static str) {
        if !self.active(level) {
            return;
        }
        self.push_span(name, Vec::new());
    }

    /// [`Recorder::begin`] with one numeric annotation.
    pub fn begin_arg(&mut self, level: SpanDetail, name: &'static str, key: &'static str, v: u64) {
        if !self.active(level) {
            return;
        }
        self.push_span(name, vec![(key, v)]);
    }

    fn push_span(&mut self, name: &'static str, args: Vec<(&'static str, u64)>) {
        let parent = self.stack.last().copied();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            track: TRACK_ENGINE,
            start: self.now,
            end: self.now,
            parent,
            args,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span. Gated identically to
    /// [`Recorder::begin`].
    ///
    /// # Panics
    ///
    /// Panics if the gate passes but no span is open (an
    /// instrumentation bug).
    pub fn end(&mut self, level: SpanDetail) {
        if !self.active(level) {
            return;
        }
        let idx = self
            .stack
            .pop()
            .expect("Recorder::end without matching begin");
        self.spans[span_index(idx)].end = self.now;
    }

    /// Appends a numeric annotation to the innermost open span (no-op
    /// when nothing is open or recording is off).
    pub fn annotate(&mut self, key: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.stack.last() {
            self.spans[span_index(idx)].args.push((key, v));
        }
    }

    /// Advances the virtual clock by `cycles`, unless recording is off.
    pub fn advance(&mut self, cycles: u64) {
        if self.enabled {
            self.now += cycles;
        }
    }

    /// Records an explicit `[start, end)` span on an arbitrary track —
    /// the serving sink builds its request/batch timeline this way
    /// from `LoggedEvent`s. Does not interact with the stack or the
    /// clock.
    pub fn record_span(
        &mut self,
        track: u32,
        name: &'static str,
        start: u64,
        end: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        assert!(start <= end, "record_span: start after end");
        self.spans.push(Span {
            name,
            track,
            start,
            end,
            parent: None,
            args,
        });
    }

    /// Names a track for the Chrome-trace export (emitted as a
    /// `thread_name` metadata event).
    pub fn set_track_name(&mut self, track: u32, name: &str) {
        if !self.enabled {
            return;
        }
        if !self.track_names.iter().any(|(t, _)| *t == track) {
            self.track_names.push((track, name.to_string()));
        }
    }

    /// Registered track names in registration order.
    pub fn track_names(&self) -> &[(u32, String)] {
        &self.track_names
    }

    /// Adds `v` to a named counter.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        if self.enabled {
            self.metrics.counter_add(name, v);
        }
    }

    /// Appends a `(cycle, value)` sample to a gauge time series.
    pub fn gauge_sample(&mut self, name: &str, cycle: u64, v: f64) {
        if self.enabled {
            self.metrics.gauge_sample(name, cycle, v);
        }
    }

    /// Records one observation into a histogram.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        if self.enabled {
            self.metrics.hist_record(name, v);
        }
    }

    /// Number of spans currently open (zero after any complete run).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }
}

/// Validates the stack-built span tree on `track` and returns the
/// summed length of its root spans.
///
/// Checks, for every span on the track: `start <= end`, children lie
/// inside their parent, and — for each parent that *has* children —
/// the children are contiguous and exactly cover the parent (no gaps,
/// no overlaps, first child starts at the parent's start, last child
/// ends at the parent's end). Root spans must be non-overlapping and
/// in order. Fails if any span is still open.
///
/// Zero-length spans are legal at every level (e.g. the stall window
/// of a matmul that never stalls).
pub fn validate_span_tree(rec: &Recorder, track: u32) -> Result<u64, String> {
    if rec.open_spans() != 0 {
        return Err(format!("{} spans still open", rec.open_spans()));
    }
    let spans = rec.spans();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.track != track {
            continue;
        }
        if s.start > s.end {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            Some(p) => {
                let p = span_index(p);
                let parent = &spans[p];
                if parent.track != track {
                    return Err(format!("span {i} ({}) crosses tracks", s.name));
                }
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} ({}) [{}, {}) escapes parent {} ({}) [{}, {})",
                        s.name, s.start, s.end, p, parent.name, parent.start, parent.end
                    ));
                }
                children[p].push(i);
            }
            None => roots.push(i),
        }
    }
    for (p, kids) in children.iter().enumerate() {
        if kids.is_empty() {
            continue;
        }
        let parent = &spans[p];
        let mut cursor = parent.start;
        for &c in kids {
            let child = &spans[c];
            if child.start != cursor {
                return Err(format!(
                    "gap or overlap before span {c} ({}): expected start {}, got {}",
                    child.name, cursor, child.start
                ));
            }
            cursor = child.end;
        }
        if cursor != parent.end {
            return Err(format!(
                "children of span {p} ({}) end at {}, parent ends at {}",
                parent.name, cursor, parent.end
            ));
        }
    }
    let mut total = 0u64;
    let mut cursor = 0u64;
    for &r in &roots {
        let root = &spans[r];
        if root.start < cursor {
            return Err(format!(
                "root span {r} ({}) overlaps the previous root",
                root.name
            ));
        }
        cursor = root.end;
        total += root.cycles();
    }
    Ok(total)
}

#[allow(dead_code)]
const fn assert_send_sync<T: Send + Sync>() {}
#[allow(dead_code)]
const _: () = assert_send_sync::<Recorder>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        r.begin(SpanDetail::Layers, "a");
        r.advance(100);
        r.end(SpanDetail::Layers);
        r.counter_add("c", 1);
        r.record_span(3, "x", 0, 5, Vec::new());
        assert_eq!(r.now(), 0);
        assert!(r.spans().is_empty());
        assert!(r.metrics().is_empty());
    }

    #[test]
    fn detail_gates_symmetrically() {
        let mut r = Recorder::new(TelemetryConfig {
            detail: SpanDetail::Phases,
            host_timing: false,
        });
        r.begin(SpanDetail::Layers, "layer");
        r.begin(SpanDetail::Phases, "phase");
        r.begin(SpanDetail::Tiles, "tile"); // gated out
        r.advance(7);
        r.end(SpanDetail::Tiles); // gated out
        r.end(SpanDetail::Phases);
        r.end(SpanDetail::Layers);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(validate_span_tree(&r, TRACK_ENGINE), Ok(7));
    }

    #[test]
    fn validator_rejects_gaps_and_escapes() {
        let mut r = Recorder::new(TelemetryConfig {
            detail: SpanDetail::Tiles,
            host_timing: false,
        });
        r.begin(SpanDetail::Layers, "parent");
        r.begin(SpanDetail::Phases, "child");
        r.advance(4);
        r.end(SpanDetail::Phases);
        r.advance(1); // gap: advances outside any child
        r.end(SpanDetail::Layers);
        let err = validate_span_tree(&r, TRACK_ENGINE).unwrap_err();
        assert!(err.contains("end at 4"), "{err}");
    }

    #[test]
    fn validator_accepts_zero_length_children() {
        let mut r = Recorder::new(TelemetryConfig {
            detail: SpanDetail::Tiles,
            host_timing: false,
        });
        r.begin(SpanDetail::Layers, "parent");
        r.begin(SpanDetail::Phases, "a");
        r.advance(4);
        r.end(SpanDetail::Phases);
        r.begin(SpanDetail::Phases, "empty");
        r.end(SpanDetail::Phases);
        r.end(SpanDetail::Layers);
        assert_eq!(validate_span_tree(&r, TRACK_ENGINE), Ok(4));
    }

    #[test]
    fn unclosed_span_fails_validation() {
        let mut r = Recorder::new(TelemetryConfig::default());
        r.begin(SpanDetail::Layers, "open");
        assert!(validate_span_tree(&r, TRACK_ENGINE).is_err());
    }

    #[test]
    fn explicit_spans_do_not_touch_the_engine_track() {
        let mut r = Recorder::new(TelemetryConfig::default());
        r.record_span(7, "request", 10, 20, vec![("req", 1)]);
        assert_eq!(validate_span_tree(&r, TRACK_ENGINE), Ok(0));
        assert_eq!(validate_span_tree(&r, 7), Ok(10));
    }
}
