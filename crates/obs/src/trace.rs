//! Span-based structured tracing over lock-free per-thread rings.
//!
//! Each thread owns a fixed-capacity ring of trace events stored as
//! plain `AtomicU64` words, so the recording path is a handful of
//! relaxed stores plus one release store of the head — no locks, no
//! allocation, no `unsafe`. A global registry keeps an `Arc` to every
//! ring ever created (rings outlive their threads so events from
//! finished workers remain drainable). [`drain`] collects the undrained
//! window of every ring into owned [`TraceEvent`]s; [`drain_jsonl`]
//! renders them as one JSON object per line. [`snapshot`] is the
//! non-consuming variant: it copies the same window without advancing
//! the reader watermark, so two concurrent observers both see the full
//! stream instead of splitting it.
//!
//! # Distributed context
//!
//! Every event carries a [`TraceContext`]: a 128-bit trace id plus the
//! span id of its parent. The context lives in a thread-local cell —
//! [`adopt`] installs a remote parent (restoring the previous context
//! when the returned guard drops), spans allocate their own id on entry
//! and re-point the cell at themselves, and [`current`] exports the
//! live context for propagation to a downstream process. Events with an
//! all-zero trace id are local/untraced; they still link to their
//! in-process parent span.
//!
//! Span and trace ids come from a seeded splitmix64 sequence: unique
//! across threads (a shared atomic counter feeds a bijective mixer) and
//! deterministic under [`seed_ids`] for tests. The default seed mixes
//! wall-clock nanoseconds with the process id so ids from different
//! processes in one cluster do not collide in a merged stream.
//!
//! Consistency model: the ring is single-producer (its owning thread)
//! and the drain is best-effort. If a producer laps the reader between
//! the reader's head load and its slot reads, the affected events may
//! be torn (mixed words from two events). With `CAP` = 4096 events per
//! thread and drains driven by a human or a test, this does not happen
//! in practice; the trade is deliberate — correctness of the *observed*
//! program is never affected.
//!
//! Tracing is off by default. [`set_tracing`] flips a global flag that
//! the [`span!`](crate::span)/[`event!`](crate::event) macros check
//! first, so a disabled call site costs one relaxed atomic load.
//!
//! Span names are interned once per call site (the macros cache the id
//! in a `OnceLock`), so steady-state recording never touches the intern
//! table's mutex.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before the ring wraps.
pub const CAP: usize = 4096;

const WORDS: usize = 9;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Enables or disables trace recording process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether trace recording is currently enabled.
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch (first call wins).
#[must_use]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Id generation
// ---------------------------------------------------------------------------

/// Standard splitmix64 finalizer: a bijection on `u64`, so distinct
/// counter values always map to distinct ids.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(seed, counter)`; ids are `splitmix64(seed + counter * odd)`.
fn id_state() -> &'static (AtomicU64, AtomicU64) {
    static STATE: OnceLock<(AtomicU64, AtomicU64)> = OnceLock::new();
    STATE.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed = splitmix64(t ^ (u64::from(std::process::id()) << 32));
        (AtomicU64::new(seed), AtomicU64::new(0))
    })
}

/// Re-seeds the id generator and resets its counter, making subsequent
/// [`next_id`]/[`TraceContext::root`] sequences deterministic. Test-only
/// affordance; production processes keep the entropy-derived default.
pub fn seed_ids(seed: u64) {
    let s = id_state();
    s.0.store(splitmix64(seed), Ordering::Relaxed);
    s.1.store(0, Ordering::Relaxed);
}

/// Returns a fresh non-zero id, unique across threads: the counter is a
/// shared atomic and splitmix64 is a bijection, so two draws can never
/// collide (zero is remapped, costing one theoretical duplicate of 1).
#[must_use]
pub fn next_id() -> u64 {
    let s = id_state();
    let c = s.1.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(id counter needs uniqueness only, not ordering; fetch_add is atomic under any Ordering)
                                                 // Odd multiplier keeps `seed + c*odd` a bijection of the counter.
    let id = splitmix64(
        s.0.load(Ordering::Relaxed)
            .wrapping_add(c.wrapping_mul(0x2545_F491_4F6C_DD1D)),
    );
    if id == 0 {
        1
    } else {
        id
    }
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// A propagatable trace context: 128-bit trace id + parent span id.
///
/// Created at the edge with [`TraceContext::root`], shipped across the
/// wire (the `BATCH` frame's `TRACE_CTX` trailer), and installed in a
/// worker thread via [`adopt`]. `parent_span` is the id of the span
/// that *sent* the context; spans opened while it is adopted become its
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// High 64 bits of the trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the trace id.
    pub trace_lo: u64,
    /// Span id of the remote parent (0 = root).
    pub parent_span: u64,
}

impl TraceContext {
    /// Starts a new trace with a fresh 128-bit id and no parent.
    #[must_use]
    pub fn root() -> Self {
        Self {
            trace_hi: next_id(),
            trace_lo: next_id(),
            parent_span: 0,
        }
    }

    /// Whether the trace id is non-zero (zero means untraced).
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.trace_hi != 0 || self.trace_lo != 0
    }

    /// The trace id as 32 lowercase hex digits (the JSONL `trace` key).
    #[must_use]
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }

    /// Parses a 32-hex-digit trace id as printed by [`Self::trace_hex`].
    #[must_use]
    pub fn parse_trace_hex(s: &str) -> Option<(u64, u64)> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some((hi, lo))
    }
}

thread_local! {
    /// `(trace_hi, trace_lo, current span id)` for the running thread.
    static CURRENT: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn current_raw() -> (u64, u64, u64) {
    CURRENT.try_with(Cell::get).unwrap_or((0, 0, 0))
}

fn set_current(v: (u64, u64, u64)) {
    let _ = CURRENT.try_with(|c| c.set(v));
}

/// Restores the previously-installed context on drop.
#[must_use = "the previous context is restored when this guard drops"]
pub struct ContextGuard {
    prev: (u64, u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        set_current(self.prev);
    }
}

/// Installs `ctx` as the thread's current trace context. Spans and
/// events recorded while the guard lives carry its trace id and parent
/// to `ctx.parent_span`. Nests: dropping the guard restores whatever
/// was current before.
pub fn adopt(ctx: TraceContext) -> ContextGuard {
    let prev = current_raw();
    set_current((ctx.trace_hi, ctx.trace_lo, ctx.parent_span));
    ContextGuard { prev }
}

/// Exports the live context for downstream propagation: the current
/// trace id with the innermost open span as the parent. `None` when the
/// thread has no adopted trace (local spans are not worth shipping).
#[must_use]
pub fn current() -> Option<TraceContext> {
    let (hi, lo, span) = current_raw();
    (hi != 0 || lo != 0).then_some(TraceContext {
        trace_hi: hi,
        trace_lo: lo,
        parent_span: span,
    })
}

// ---------------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------------

fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns `name` and returns its stable id. Idempotent; intended to be
/// called once per call site (the macros cache the result).
#[must_use]
pub fn intern(name: &'static str) -> u32 {
    let mut tbl = names().lock().unwrap();
    if let Some(i) = tbl.iter().position(|&n| n == name) {
        return i as u32;
    }
    tbl.push(name);
    (tbl.len() - 1) as u32
}

fn name_of(id: u32) -> &'static str {
    names()
        .lock()
        .unwrap()
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

struct Ring {
    slots: Box<[AtomicU64]>,
    /// Total events ever written (monotone; slot = head % CAP).
    head: AtomicU64,
    /// Total events already drained (reader-owned watermark).
    drained: AtomicU64,
    tid: u32,
}

impl Ring {
    fn register() -> Arc<Ring> {
        static NEXT_TID: AtomicU32 = AtomicU32::new(0);
        let ring = Arc::new(Ring {
            slots: (0..CAP * WORDS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed), // lint: relaxed-ok(tid allocation needs uniqueness only; the ring itself is published via the rings() mutex)
        });
        rings().lock().unwrap().push(ring.clone());
        ring
    }

    #[allow(clippy::too_many_arguments)]
    fn push(&self, name_id: u32, start_ns: u64, dur_ns: u64, a: u64, b: u64, ctx: [u64; 4]) {
        let seq = self.head.load(Ordering::Relaxed);
        let base = (seq as usize % CAP) * WORDS;
        let meta = (u64::from(name_id) << 32) | u64::from(self.tid);
        let words = [meta, start_ns, dur_ns, a, b, ctx[0], ctx[1], ctx[2], ctx[3]];
        for (off, w) in words.into_iter().enumerate() {
            self.slots[base + off].store(w, Ordering::Relaxed);
        }
        self.head.store(seq + 1, Ordering::Release);
    }

    fn read_window(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let start = self
            .drained
            .load(Ordering::Relaxed)
            .max(head.saturating_sub(CAP as u64));
        for seq in start..head {
            let base = (seq as usize % CAP) * WORDS;
            let w: Vec<u64> = (0..WORDS)
                .map(|off| self.slots[base + off].load(Ordering::Relaxed))
                .collect();
            out.push(TraceEvent {
                name: name_of((w[0] >> 32) as u32),
                tid: w[0] as u32,
                start_ns: w[1],
                dur_ns: w[2],
                a: w[3],
                b: w[4],
                trace_hi: w[5],
                trace_lo: w[6],
                span: w[7],
                parent: w[8],
            });
        }
        head
    }

    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let head = self.read_window(out);
        self.drained.store(head, Ordering::Release);
    }

    /// Non-consuming read: same window as [`Self::drain_into`], but the
    /// watermark stays put so a later drain (or another snapshot) still
    /// sees these events.
    fn snapshot_into(&self, out: &mut Vec<TraceEvent>) {
        let _ = self.read_window(out);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: Arc<Ring> = Ring::register();
}

/// Records with an explicit context word block; the public recorders
/// derive it from the thread's [`CURRENT`] cell.
fn record_ctx(name_id: u32, start_ns: u64, dur_ns: u64, a: u64, b: u64, ctx: [u64; 4]) {
    // try_with: silently drop events during TLS teardown.
    let _ = RING.try_with(|r| r.push(name_id, start_ns, dur_ns, a, b, ctx));
}

fn record(name_id: u32, start_ns: u64, dur_ns: u64, a: u64, b: u64) {
    let (hi, lo, parent) = current_raw();
    record_ctx(name_id, start_ns, dur_ns, a, b, [hi, lo, next_id(), parent]);
}

/// One drained trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned span/event name.
    pub name: &'static str,
    /// Recording thread's trace id (dense, assigned per thread).
    pub tid: u32,
    /// Nanoseconds since the trace epoch at span entry.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// First free-form payload word (span-specific meaning).
    pub a: u64,
    /// Second free-form payload word.
    pub b: u64,
    /// High 64 bits of the propagated trace id (0 = untraced).
    pub trace_hi: u64,
    /// Low 64 bits of the propagated trace id.
    pub trace_lo: u64,
    /// This event's own span id.
    pub span: u64,
    /// Parent span id (0 = root / no parent).
    pub parent: u64,
}

impl TraceEvent {
    /// Whether the event carries a non-zero propagated trace id.
    #[must_use]
    pub fn is_traced(&self) -> bool {
        self.trace_hi != 0 || self.trace_lo != 0
    }

    /// The trace id as 32 hex digits (empty string when untraced).
    #[must_use]
    pub fn trace_hex(&self) -> String {
        if self.is_traced() {
            format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
        } else {
            String::new()
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    /// Untraced events omit the `trace` key; `span`/`parent` are always
    /// present so local parent links survive.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"a\":{},\"b\":{}",
            self.name, self.tid, self.start_ns, self.dur_ns, self.a, self.b
        );
        if self.is_traced() {
            s.push_str(&format!(
                ",\"trace\":\"{:016x}{:016x}\"",
                self.trace_hi, self.trace_lo
            ));
        }
        s.push_str(&format!(
            ",\"span\":{},\"parent\":{}}}",
            self.span, self.parent
        ));
        s
    }
}

/// Collects every undrained event from every thread's ring, ordered by
/// start time. Draining consumes: a second call returns only events
/// recorded in between. For a non-consuming read use [`snapshot`].
#[must_use]
pub fn drain() -> Vec<TraceEvent> {
    let rings = rings().lock().unwrap();
    let mut out = Vec::new();
    for ring in rings.iter() {
        ring.drain_into(&mut out);
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

/// Non-consuming variant of [`drain`]: copies the undrained window of
/// every ring without advancing the reader watermark, so concurrent
/// observers each see the full stream and a later [`drain`] still
/// returns the same events.
#[must_use]
pub fn snapshot() -> Vec<TraceEvent> {
    let rings = rings().lock().unwrap();
    let mut out = Vec::new();
    for ring in rings.iter() {
        ring.snapshot_into(&mut out);
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

/// [`drain`]s and renders one JSON object per line (JSONL).
#[must_use]
pub fn drain_jsonl() -> String {
    to_jsonl(&drain())
}

/// [`snapshot`]s and renders one JSON object per line (JSONL).
#[must_use]
pub fn snapshot_jsonl() -> String {
    to_jsonl(&snapshot())
}

fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_json());
        s.push('\n');
    }
    s
}

/// RAII guard recording a span on drop. Created by the
/// [`span!`](crate::span) macro; hold it for the span's extent.
///
/// On entry the span allocates its own id and installs it as the
/// thread's current span (children parent to it); on drop it records
/// the event and restores the previous current span.
#[must_use = "a span guard records on drop; bind it with `let _g = ...`"]
pub struct SpanGuard {
    name_id: u32,
    start_ns: u64,
    a: u64,
    b: u64,
    trace: (u64, u64),
    span_id: u64,
    parent: u64,
}

impl SpanGuard {
    /// This span's id — what a downstream child will see as its parent.
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = now_ns().saturating_sub(self.start_ns);
        record_ctx(
            self.name_id,
            self.start_ns,
            dur,
            self.a,
            self.b,
            [self.trace.0, self.trace.1, self.span_id, self.parent],
        );
        set_current((self.trace.0, self.trace.1, self.parent));
    }
}

/// Opens a span by interned id; `None` when tracing is disabled.
/// Prefer the [`span!`](crate::span) macro, which interns and caches.
pub fn enter_id(name_id: u32, a: u64, b: u64) -> Option<SpanGuard> {
    if !tracing_enabled() {
        return None;
    }
    let (hi, lo, parent) = current_raw();
    let span_id = next_id();
    set_current((hi, lo, span_id));
    Some(SpanGuard {
        name_id,
        start_ns: now_ns(),
        a,
        b,
        trace: (hi, lo),
        span_id,
        parent,
    })
}

/// Records an instant event by interned id when tracing is enabled.
/// Prefer the [`event!`](crate::event) macro.
pub fn event_id(name_id: u32, a: u64, b: u64) {
    if tracing_enabled() {
        record(name_id, now_ns(), 0, a, b);
    }
}

/// Records a completed span after the fact (e.g. a timed phase or a
/// slow-query report where the duration is already known). Interns
/// `name` on every call — use only off the hot path. The event inherits
/// the thread's current trace context, so slow-query reports recorded
/// inside an adopted span automatically carry the trace id as an
/// exemplar.
pub fn record_complete(name: &'static str, start_ns: u64, dur_ns: u64, a: u64, b: u64) {
    if tracing_enabled() {
        record(intern(name), start_ns, dur_ns, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All trace assertions live in one test: `drain` consumes the
    // shared global rings, so concurrent drain-calling tests would
    // steal each other's events.
    #[test]
    fn record_and_drain() {
        set_tracing(true);
        let id = intern("test.span");
        {
            let _g = enter_id(id, 7, 8);
        }
        event_id(intern("test.event"), 1, 2);
        record_complete("test.complete", 10, 20, 3, 4);
        set_tracing(false);
        event_id(id, 9, 9); // disabled: must not record

        // Snapshot does not consume: two observers both see the full
        // window, and the later drain still returns everything.
        let snap_a: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.name.starts_with("test."))
            .collect();
        let snap_b: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.name.starts_with("test."))
            .collect();
        assert_eq!(snap_a.len(), 3, "snapshot consumed events: {snap_a:?}");
        assert_eq!(snap_a, snap_b, "two snapshots must see the same stream");

        let events = drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("test."))
            .collect();
        assert_eq!(mine.len(), 3, "events: {events:?}");
        let span = mine.iter().find(|e| e.name == "test.span").unwrap();
        assert_eq!((span.a, span.b), (7, 8));
        assert_ne!(span.span, 0, "spans allocate their own id");
        assert!(!span.is_traced(), "no adopted context: untraced");
        assert!(!span.to_json().contains("\"trace\""));
        let comp = mine.iter().find(|e| e.name == "test.complete").unwrap();
        assert_eq!((comp.start_ns, comp.dur_ns), (10, 20));
        assert!(comp.to_json().contains("\"name\":\"test.complete\""));

        // Drained: a second drain (and snapshot) sees none of ours.
        assert!(!drain().iter().any(|e| e.name.starts_with("test.")));
        assert!(!snapshot().iter().any(|e| e.name.starts_with("test.")));

        // Adopted context: spans carry the trace id and parent-link to
        // the remote parent; nested spans parent to the outer span; the
        // context pops with the guard.
        set_tracing(true);
        let ctx = TraceContext {
            trace_hi: 0xAAAA,
            trace_lo: 0xBBBB,
            parent_span: 77,
        };
        let (outer_id, inner_id);
        {
            let _adopted = adopt(ctx);
            let outer = enter_id(intern("test.ctx.outer"), 0, 0).unwrap();
            outer_id = outer.span_id();
            let fwd = current().expect("context is live inside the span");
            assert_eq!((fwd.trace_hi, fwd.trace_lo), (0xAAAA, 0xBBBB));
            assert_eq!(fwd.parent_span, outer_id, "children parent to the span");
            {
                let inner = enter_id(intern("test.ctx.inner"), 0, 0).unwrap();
                inner_id = inner.span_id();
            }
            event_id(intern("test.ctx.event"), 0, 0);
        }
        assert!(current().is_none(), "guard drop restores the empty context");
        set_tracing(false);
        let ctx_events = drain();
        let outer_ev = ctx_events
            .iter()
            .find(|e| e.name == "test.ctx.outer")
            .unwrap();
        assert_eq!((outer_ev.trace_hi, outer_ev.trace_lo), (0xAAAA, 0xBBBB));
        assert_eq!((outer_ev.span, outer_ev.parent), (outer_id, 77));
        assert!(outer_ev
            .to_json()
            .contains("\"trace\":\"000000000000aaaa000000000000bbbb\""));
        let inner_ev = ctx_events
            .iter()
            .find(|e| e.name == "test.ctx.inner")
            .unwrap();
        assert_eq!((inner_ev.span, inner_ev.parent), (inner_id, outer_id));
        let tail_ev = ctx_events
            .iter()
            .find(|e| e.name == "test.ctx.event")
            .unwrap();
        assert_eq!(
            tail_ev.parent, outer_id,
            "event after inner pops back to outer"
        );

        // Wrap the ring: only the newest CAP survive.
        set_tracing(true);
        let wid = intern("test.wrap");
        for i in 0..(CAP as u64 + 50) {
            record(wid, i, 0, i, 0);
        }
        set_tracing(false);
        let wrapped: Vec<_> = drain()
            .into_iter()
            .filter(|e| e.name == "test.wrap")
            .collect();
        assert_eq!(wrapped.len(), CAP);
        assert_eq!(wrapped.last().unwrap().a, CAP as u64 + 49);
    }

    #[test]
    fn interning_is_idempotent() {
        let a = intern("test.intern.a");
        let b = intern("test.intern.b");
        assert_ne!(a, b);
        assert_eq!(intern("test.intern.a"), a);
        assert_eq!(name_of(a), "test.intern.a");
    }

    #[test]
    fn trace_hex_round_trips() {
        let ctx = TraceContext {
            trace_hi: 0x0123_4567_89AB_CDEF,
            trace_lo: 0xFEDC_BA98_7654_3210,
            parent_span: 5,
        };
        let hex = ctx.trace_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(
            TraceContext::parse_trace_hex(&hex),
            Some((ctx.trace_hi, ctx.trace_lo))
        );
        assert_eq!(TraceContext::parse_trace_hex("xyz"), None);
        assert_eq!(TraceContext::parse_trace_hex(""), None);
    }
}
