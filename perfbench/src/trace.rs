//! Tracing for the separate traced run: spans recorded from the
//! benchmark's own decorators around the program's public traits
//! (`Wrapper`, `WireService`, `WarmStore`) and around its calls into the
//! program, plus a collector that drains the span ring `mix_obs` already
//! keeps. Nothing here is compiled into the program itself.
//!
//! Spans are kept in memory while the run measures and written out as
//! JSON lines when it ends. Recording is switched by one global flag so
//! the traced run can alternate traced and untraced windows over the
//! same fixture; a switched-off decorator costs one atomic load.

use mix_dtd::Dtd;
use mix_infer::{Fingerprint, InferredView, SatVerdict, WarmStore};
use mix_mediator::{SourceError, Wrapper};
use mix_net::{WireFault, WireService};
use mix_obs::Registry;
use mix_xmas::Query;
use mix_xml::Document;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Nanoseconds on the benchmark's clock (monotonic, process epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// One timed step: name, start, end, the span that caused it, and the
/// request (operation) it belongs to. `trace` is the `mix_obs` trace id
/// current on the recording thread, which links spans recorded on the
/// mediator's union worker threads back to their request.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub trace: u64,
    pub name: &'static str,
    /// Which source or daemon recorded it (index into the fixture).
    pub tag: u32,
    pub start: u64,
    pub end: u64,
    /// Payload bytes, where the decorator sees them.
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// (innermost open span, its request) on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// An open span; recorded when dropped.
pub struct Guard {
    span: Option<Span>,
    prev: (u64, u64),
}

impl Guard {
    pub fn set_bytes(&mut self, n: usize) {
        if let Some(s) = &mut self.span {
            s.bytes = n as u64;
        }
    }
}

fn open(name: &'static str, tag: u32, new_request: bool) -> Guard {
    if !enabled() {
        return Guard {
            span: None,
            prev: (0, 0),
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(Cell::get);
    let request = if new_request { id } else { prev.1 };
    CURRENT.with(|c| c.set((id, request)));
    Guard {
        span: Some(Span {
            id,
            parent: if new_request { 0 } else { prev.0 },
            request,
            trace: mix_obs::current_trace(),
            name,
            tag,
            start: now_ns(),
            end: 0,
            bytes: 0,
        }),
        prev,
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str, tag: u32) -> Guard {
    open(name, tag, false)
}

/// Opens the root span of a new request.
pub fn begin_request(name: &'static str) -> Guard {
    open(name, 0, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut s) = self.span.take() {
            s.end = now_ns();
            CURRENT.with(|c| c.set(self.prev));
            SPANS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(s);
        }
    }
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// A `Wrapper` decorator timing every call into the wrapped source.
pub struct TracedWrapper<W> {
    inner: W,
    name: &'static str,
    tag: u32,
}

impl<W> TracedWrapper<W> {
    pub fn new(inner: W, name: &'static str, tag: u32) -> TracedWrapper<W> {
        TracedWrapper { inner, name, tag }
    }
}

impl<W: Wrapper> Wrapper for TracedWrapper<W> {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        let _g = enter(self.name, self.tag);
        self.inner.fetch()
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        let _g = enter(self.name, self.tag);
        self.inner.answer(q)
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        let _g = enter(self.name, self.tag);
        self.inner.answer_batch(queries)
    }
}

/// A `WireService` decorator timing each request a daemon handles. It
/// also keeps the first reply to each distinct request text, so the run
/// can time parsing that reply afterwards, outside every window.
pub struct TracedService<S> {
    inner: S,
    tag: u32,
    replies: Mutex<HashMap<Option<String>, Arc<String>>>,
}

impl<S> TracedService<S> {
    pub fn new(inner: S, tag: u32) -> TracedService<S> {
        TracedService {
            inner,
            tag,
            replies: Mutex::new(HashMap::new()),
        }
    }

    /// The kept replies: request text (`None` is a whole-document fetch)
    /// and the reply body.
    pub fn replies(&self) -> Vec<(Option<String>, Arc<String>)> {
        self.replies
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

impl<S: WireService> WireService for TracedService<S> {
    fn export_dtd(&self) -> String {
        self.inner.export_dtd()
    }

    fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
        let mut g = enter("net.handle", self.tag);
        let reply = self.inner.answer(query);
        let recording = g.span.is_some();
        if let Ok(text) = &reply {
            g.set_bytes(text.len());
        }
        drop(g);
        if let (true, Ok(text)) = (recording, &reply) {
            let mut kept = self
                .replies
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            kept.entry(query.map(str::to_owned))
                .or_insert_with(|| Arc::new(text.clone()));
        }
        reply
    }

    fn stats(&self) -> Option<String> {
        self.inner.stats()
    }
}

/// A `WarmStore` decorator timing loads and write-behind records.
pub struct TracedStore {
    inner: Arc<dyn WarmStore>,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn WarmStore>) -> TracedStore {
        TracedStore { inner }
    }
}

impl WarmStore for TracedStore {
    fn load_views(&self) -> Vec<(Fingerprint, InferredView)> {
        let _g = enter("store.load", 0);
        self.inner.load_views()
    }

    fn record_view(&self, fp: &Fingerprint, iv: &InferredView) {
        let _g = enter("store.record", 0);
        self.inner.record_view(fp, iv)
    }

    fn compact(&self, entries: &[(Fingerprint, Arc<InferredView>)]) {
        self.inner.compact(entries)
    }

    fn load_sat_verdicts(&self) -> Vec<(Fingerprint, SatVerdict)> {
        self.inner.load_sat_verdicts()
    }

    fn record_sat_verdict(&self, fp: &Fingerprint, verdict: &SatVerdict) {
        let _g = enter("store.record", 0);
        self.inner.record_sat_verdict(fp, verdict)
    }
}

/// A span drained from a `mix_obs` registry's ring, on the benchmark's
/// clock.
#[derive(Debug, Clone)]
pub struct ObsSpan {
    pub trace: u64,
    pub stage: String,
    pub start: u64,
    pub end: u64,
}

/// Drains a registry's span ring often enough that little is lost, and
/// counts what was lost anyway. The ring has a fixed capacity and keeps
/// the newest spans, so a drain sees every span recorded since the
/// previous drain unless more than a ring's worth arrived in between.
pub struct ObsCollector {
    registry: Registry,
    /// benchmark clock minus registry clock
    offset: i64,
    seen: HashSet<(u64, String, u64, u64)>,
    spans: Vec<ObsSpan>,
    recorded_at_start: u64,
}

fn ring_total(snap: &mix_obs::Snapshot) -> u64 {
    snap.spans.len() as u64
        + snap
            .counters
            .get("obs_spans_dropped_total")
            .copied()
            .unwrap_or(0)
}

impl ObsCollector {
    pub fn new(registry: &Registry) -> ObsCollector {
        let a = now_ns();
        let r = registry.now_ns();
        let b = now_ns();
        let offset = ((a + b) / 2) as i64 - r as i64;
        let snap = registry.snapshot();
        let mut seen = HashSet::new();
        for s in &snap.spans {
            seen.insert((s.trace, s.stage.clone(), s.start_ns, s.dur_ns));
        }
        ObsCollector {
            registry: registry.clone(),
            offset,
            seen,
            spans: Vec::new(),
            recorded_at_start: ring_total(&snap),
        }
    }

    pub fn drain(&mut self) {
        for s in self.registry.snapshot().spans {
            let key = (s.trace, s.stage.clone(), s.start_ns, s.dur_ns);
            if self.seen.insert(key) {
                let start = (s.start_ns as i64 + self.offset).max(0) as u64;
                self.spans.push(ObsSpan {
                    trace: s.trace,
                    stage: s.stage,
                    start,
                    end: start + s.dur_ns,
                });
            }
        }
    }

    /// Every span collected, and how many the ring dropped before a
    /// drain could see them.
    pub fn finish(mut self) -> (Vec<ObsSpan>, u64) {
        self.drain();
        let recorded = ring_total(&self.registry.snapshot()) - self.recorded_at_start;
        let lost = recorded.saturating_sub(self.spans.len() as u64);
        (self.spans, lost)
    }
}

/// Runs `body` while a scoped thread drains `collector` every few
/// milliseconds; returns the body's result.
pub fn draining<T>(collector: &mut ObsCollector, body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                collector.drain();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let out = body();
        stop.store(true, Ordering::SeqCst);
        drainer.join().expect("span drain thread panicked");
        out
    })
}

/// Writes the spans of a traced run as JSON lines.
pub fn write_out(path: &std::path::Path, spans: &[Span], obs: &[ObsSpan]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"trace\":{},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id, s.parent, s.request, s.trace, s.name, s.tag, s.start, s.end, s.bytes
        )?;
    }
    for s in obs {
        writeln!(
            out,
            "{{\"obs\":true,\"trace\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.stage, s.start, s.end
        )?;
    }
    out.flush()
}
