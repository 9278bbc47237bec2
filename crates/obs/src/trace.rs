//! Distributed tracing: wire-propagated trace context, deterministic
//! head-sampling, a bounded span collector with tail-based promotion, and
//! Chrome trace-event export.
//!
//! The unit of tracing is a **trace** — one client-visible operation (a
//! replayed event frame, a `GpsRun` batch) identified by a 128-bit
//! `trace_id` — made of **spans**: named, timed segments with a parent
//! link ([`SpanRecord`]). Context travels across process boundaries as a
//! small fixed struct ([`TraceContext`]) that both wire formats can carry
//! as an optional extension, so causality survives the conn-reader →
//! shard-channel → shard-worker → store-append → ack path (and, later,
//! real process splits).
//!
//! # Sampling
//!
//! Head sampling is **deterministic by trace id**: a trace is sampled iff
//! `splitmix64(id_lo ^ id_hi) % denom == 0` ([`head_sampled`]). Client
//! and server therefore agree on every sampling decision without
//! coordination — the client simply omits the wire extension for
//! unsampled traces, which keeps the non-sampled hot path byte-identical
//! to untagged frames. On top of head sampling sits tail-based
//! **"always keep" promotion**: traces whose root span exceeds a latency
//! threshold, or that touched a retry / dedup / recovery / forced path
//! (see the `FLAG_*` bits), are recorded regardless of the head decision
//! and survive ring wrap-around in the collector's kept list.
//!
//! # Collection
//!
//! [`TraceCollector`] is a bounded ring: writers claim a slot with a
//! single atomic fetch-add (lock-free claim; the slot write itself uses
//! an uncontended per-slot lock) and the oldest span is overwritten when
//! the ring wraps. Promoted spans additionally go to a bounded FIFO that
//! ring wrap cannot evict. Layers that cannot thread a context through
//! their API (the stream auditor, the store) use the **task buffer**: the
//! shard worker brackets each command with [`task_begin`] / [`task_end`],
//! and any code on that thread may attach spans and their flags to the
//! current task via [`task_mark`] / [`task_span`] without signature
//! changes.
//!
//! With the `noop` feature the context types and codec helpers remain
//! (the wire still parses traced frames) but every recording operation
//! compiles to nothing and [`enabled`] returns `false`.

use std::collections::VecDeque;
use std::sync::atomic::AtomicUsize;
#[cfg(not(feature = "noop"))]
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

// The workspace's one splitmix64 mixer: trace ids, head sampling, the
// shard hash and fault plans all draw from it, so they cannot drift apart.
use geosocial_fault::mix64;

/// Head-sampled at mint time (`splitmix64(trace_id) % denom == 0`).
pub const FLAG_SAMPLED: u8 = 0x01;
/// The frame is a retry redelivery (client sets on attempt > 0).
pub const FLAG_RETRY: u8 = 0x02;
/// The server's exactly-once gate rejected (part of) the frame as a
/// duplicate.
pub const FLAG_DEDUP: u8 = 0x04;
/// The command was replayed through snapshot + store-backed recovery
/// after a shard panic.
pub const FLAG_RECOVERY: u8 = 0x08;
/// Tail-promoted: the root span exceeded the slow threshold.
pub const FLAG_SLOW: u8 = 0x10;
/// The auditor force-finalized a checkin on this trace (pending budget).
pub const FLAG_FORCED: u8 = 0x20;

/// Any flag that tail-promotes a trace to "always keep" on its own.
pub const PROMOTE_MASK: u8 = FLAG_RETRY | FLAG_DEDUP | FLAG_RECOVERY | FLAG_SLOW | FLAG_FORCED;

/// Default head-sampling denominator (1 in 64 traces).
pub const DEFAULT_SAMPLE_DENOM: u64 = 64;
/// Default root-span latency above which a trace is tail-promoted (µs).
pub const DEFAULT_SLOW_US: u64 = 10_000;

/// Whether tracing is compiled in (`false` under the `noop` feature).
#[inline]
pub fn enabled() -> bool {
    cfg!(not(feature = "noop"))
}

/// Unix time in microseconds (0 if the clock is before the epoch).
pub fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// The per-trace context propagated on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id (never 0 for minted traces).
    pub trace_id: u128,
    /// Root span id of the operation this frame carries.
    pub span_id: u64,
    /// `FLAG_*` bits accumulated so far.
    pub flags: u8,
    /// Client clock at send time, unix µs (anchors the timeline).
    pub start_us: u64,
    /// Delivery attempt (0 = first send; > 0 sets [`FLAG_RETRY`]).
    pub attempt: u32,
}

/// Deterministic head-sampling decision for a trace id. `denom == 0`
/// disables sampling entirely; `denom == 1` samples everything.
#[inline]
pub fn head_sampled(trace_id: u128, denom: u64) -> bool {
    denom != 0 && mix64(trace_id as u64 ^ (trace_id >> 64) as u64).is_multiple_of(denom)
}

impl TraceContext {
    /// Mint a deterministic trace for frame `index` of lane `lane` under
    /// `seed`: the id is a splitmix64 expansion of the key, the sampled
    /// flag follows [`head_sampled`] with `denom`, and `start_us` is
    /// stamped from the wall clock.
    pub fn mint(seed: u64, lane: u64, index: u64, denom: u64) -> TraceContext {
        let lo = mix64(seed ^ mix64(lane.wrapping_mul(0x61c8_8646_80b5_83eb)) ^ index);
        let hi = mix64(lo ^ 0x74ac_e1d0_0000_0001);
        let trace_id = ((hi as u128) << 64) | lo as u128;
        let mut flags = 0;
        if head_sampled(trace_id, denom) {
            flags |= FLAG_SAMPLED;
        }
        TraceContext {
            trace_id,
            span_id: mix64(lo ^ hi).max(1),
            flags,
            start_us: now_us(),
            attempt: 0,
        }
    }

    /// Re-stamp this context for a retry redelivery: bumps `attempt`,
    /// sets [`FLAG_RETRY`] (which force-records the trace), refreshes
    /// `start_us`.
    pub fn for_attempt(mut self, attempt: u32) -> TraceContext {
        self.attempt = attempt;
        if attempt > 0 {
            self.flags |= FLAG_RETRY;
        }
        self.start_us = now_us();
        self
    }

    /// Head-sampled?
    #[inline]
    pub fn sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }

    /// Should spans for this trace be recorded at all (head-sampled or
    /// already promoted by a flag)?
    #[inline]
    pub fn recorded(&self) -> bool {
        self.flags & (FLAG_SAMPLED | PROMOTE_MASK) != 0
    }

    /// 32-hex-digit form of the trace id.
    pub fn trace_hex(&self) -> String {
        trace_hex(self.trace_id)
    }

    /// Derive a child span id, unique per `(parent span, salt)`.
    #[inline]
    pub fn child_span(&self, salt: u64) -> u64 {
        mix64(self.span_id ^ mix64(salt ^ 0x9d8f_3b54_c17e_2a60)).max(1)
    }
}

/// 32-hex-digit rendering of a 128-bit trace id.
pub fn trace_hex(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse a 32-hex-digit trace id (also accepts shorter hex).
pub fn parse_trace_id(hex: &str) -> Option<u128> {
    if hex.is_empty() || hex.len() > 32 {
        return None;
    }
    u128::from_str_radix(hex, 16).ok()
}

/// One completed (or instant) span of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Dotted-path name (`serve.apply`, `client.send`).
    pub name: String,
    /// Start, unix µs.
    pub start_us: u64,
    /// Duration, µs (0 = instant marker).
    pub dur_us: u64,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// Shard that recorded the span (-1 = client / conn handler).
    pub shard: i32,
}

/// Bounded span ring with a lock-free claim cursor and a separate kept
/// FIFO for tail-promoted spans that ring wrap cannot evict.
#[cfg_attr(feature = "noop", allow(dead_code))]
pub struct TraceCollector {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    head: AtomicUsize,
    kept: Mutex<VecDeque<SpanRecord>>,
    kept_cap: usize,
}

impl TraceCollector {
    /// A collector with `capacity` ring slots and room for `kept_cap`
    /// promoted spans.
    pub fn new(capacity: usize, kept_cap: usize) -> TraceCollector {
        let capacity = capacity.max(1);
        TraceCollector {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            kept: Mutex::new(VecDeque::new()),
            kept_cap: kept_cap.max(1),
        }
    }

    /// Record a span. Promoted spans (any [`PROMOTE_MASK`] bit) go to the
    /// kept FIFO; everything else claims the next ring slot, overwriting
    /// the oldest span once the ring is full. No-op under `noop`.
    pub fn record(&self, span: SpanRecord) {
        #[cfg(feature = "noop")]
        let _ = span;
        #[cfg(not(feature = "noop"))]
        {
            metrics::spans_recorded().inc();
            if span.flags & PROMOTE_MASK != 0 {
                metrics::spans_kept().inc();
                let mut kept = self.kept.lock().unwrap_or_else(|e| e.into_inner());
                if kept.len() >= self.kept_cap {
                    kept.pop_front();
                    metrics::spans_dropped().inc();
                }
                kept.push_back(span);
                return;
            }
            let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
            let mut cell = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
            if cell.replace(span).is_some() {
                metrics::spans_dropped().inc();
            }
        }
    }

    /// Snapshot every currently held span (ring ∪ kept), unordered.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            if let Some(span) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                out.push(span.clone());
            }
        }
        out.extend(self.kept.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
        out
    }

    /// Drop every held span (tests, run boundaries).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        }
        self.kept.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The process-global collector (4096-slot ring, 4096 kept spans).
pub fn collector() -> &'static TraceCollector {
    static C: OnceLock<TraceCollector> = OnceLock::new();
    C.get_or_init(|| TraceCollector::new(4096, 4096))
}

/// Tail-promotion: add [`FLAG_SLOW`] when a root span's duration crosses
/// `slow_us` (0 disables the latency rule).
#[inline]
pub fn promote_flags(flags: u8, root_dur_us: u64, slow_us: u64) -> u8 {
    if slow_us != 0 && root_dur_us >= slow_us {
        flags | FLAG_SLOW
    } else {
        flags
    }
}

// ---------------------------------------------------------------------------
// Per-task span buffer: lets layers without a context parameter (stream
// auditor, store) attach spans to the command currently being applied.

#[cfg_attr(feature = "noop", allow(dead_code))]
struct Task {
    ctx: TraceContext,
    spans: Vec<SpanRecord>,
    next_salt: u64,
    shard: i32,
}

#[cfg(not(feature = "noop"))]
thread_local! {
    static TASK: std::cell::RefCell<Option<Task>> = const { std::cell::RefCell::new(None) };
}

/// Start buffering spans for `ctx` on this thread (shard `shard`).
/// Replaces any task left behind by a previous panic.
pub fn task_begin(ctx: TraceContext, shard: i32) {
    #[cfg(feature = "noop")]
    let _ = (ctx, shard);
    #[cfg(not(feature = "noop"))]
    TASK.with(|t| {
        *t.borrow_mut() = Some(Task { ctx, spans: Vec::new(), next_salt: 1, shard });
    });
}

/// Finish the current task: returns its accumulated flags and spans
/// (empty when no task was active).
pub fn task_end() -> (u8, Vec<SpanRecord>) {
    #[cfg(feature = "noop")]
    {
        (0, Vec::new())
    }
    #[cfg(not(feature = "noop"))]
    TASK.with(|t| match t.borrow_mut().take() {
        Some(task) => (task.ctx.flags, task.spans),
        None => (0, Vec::new()),
    })
}

/// The context of the task active on this thread, if any.
pub fn task_ctx() -> Option<TraceContext> {
    #[cfg(feature = "noop")]
    {
        None
    }
    #[cfg(not(feature = "noop"))]
    TASK.with(|t| t.borrow().as_ref().map(|task| task.ctx))
}

/// Add an instant marker span (duration 0) to the current task, and fold
/// `flags` into the trace. No-op without an active task.
pub fn task_mark(name: &str, flags: u8) {
    task_span(name, now_us(), 0, flags);
}

/// Add a timed span to the current task. The span id derives from the
/// task's root span and a per-task salt, so repeated names stay distinct.
/// No-op without an active task.
pub fn task_span(name: &str, start_us: u64, dur_us: u64, flags: u8) {
    #[cfg(feature = "noop")]
    let _ = (name, start_us, dur_us, flags);
    #[cfg(not(feature = "noop"))]
    TASK.with(|t| {
        if let Some(task) = t.borrow_mut().as_mut() {
            task.ctx.flags |= flags;
            let salt = task.next_salt;
            task.next_salt += 1;
            task.spans.push(SpanRecord {
                trace_id: task.ctx.trace_id,
                span_id: task.ctx.child_span(salt),
                parent: task.ctx.span_id,
                name: name.to_string(),
                start_us,
                dur_us,
                flags,
                shard: task.shard,
            });
        }
    });
}

#[cfg(not(feature = "noop"))]
mod metrics {
    crate::cached!(spans_recorded, counter, Counter, "trace.spans_recorded");
    crate::cached!(spans_kept, counter, Counter, "trace.spans_kept");
    crate::cached!(spans_dropped, counter, Counter, "trace.spans_dropped");
}

// ---------------------------------------------------------------------------
// Export: Chrome trace-event JSON and a plain-text timeline.

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Letter code per flag bit, in bit order (`S`ampled, `R`etry, `D`edup,
/// re`C`overy, s`L`ow, `F`orced).
pub fn flag_letters(flags: u8) -> String {
    const LETTERS: [(u8, char); 6] = [
        (FLAG_SAMPLED, 'S'),
        (FLAG_RETRY, 'R'),
        (FLAG_DEDUP, 'D'),
        (FLAG_RECOVERY, 'C'),
        (FLAG_SLOW, 'L'),
        (FLAG_FORCED, 'F'),
    ];
    let mut out = String::new();
    for (bit, letter) in LETTERS {
        if flags & bit != 0 {
            out.push(letter);
        }
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Serialize spans as Chrome trace-event JSON (`chrome://tracing` /
/// Perfetto loadable): one complete (`ph:"X"`) event per span, `pid` 1,
/// `tid` = shard + 2 (client spans on tid 1).
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&s.name, &mut out);
        out.push_str("\",\"cat\":\"geosocial\",\"ph\":\"X\",\"ts\":");
        out.push_str(&s.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&s.dur_us.to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&(s.shard + 2).to_string());
        out.push_str(",\"args\":{\"trace\":\"");
        out.push_str(&trace_hex(s.trace_id));
        out.push_str(&format!(
            "\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"flags\":\"",
            s.span_id, s.parent
        ));
        out.push_str(&flag_letters(s.flags));
        out.push_str("\"}}");
    }
    out.push_str("]}");
    out
}

/// Render spans as a plain-text timeline grouped by trace: offsets are
/// relative to each trace's first span, children are indented under
/// their root.
pub fn render_timeline(spans: &[SpanRecord]) -> String {
    let mut by_trace: Vec<&SpanRecord> = spans.iter().collect();
    by_trace.sort_by_key(|s| (s.trace_id, s.start_us, s.span_id));
    let mut out = String::new();
    let mut current: Option<u128> = None;
    let mut t0 = 0u64;
    for s in by_trace {
        if current != Some(s.trace_id) {
            current = Some(s.trace_id);
            t0 = s.start_us;
            out.push_str(&format!("trace {}\n", trace_hex(s.trace_id)));
        }
        let indent = if s.parent == 0 { "  " } else { "    " };
        let who = if s.shard < 0 { "client".to_string() } else { format!("shard{}", s.shard) };
        out.push_str(&format!(
            "{indent}+{:>8}us {:<24} {:>8}us  [{}] {}\n",
            s.start_us.saturating_sub(t0),
            s.name,
            s.dur_us,
            flag_letters(s.flags),
            who,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minting_is_deterministic_and_sampling_agrees() {
        let a = TraceContext::mint(42, 3, 17, 64);
        let b = TraceContext::mint(42, 3, 17, 64);
        assert_eq!(a.trace_id, b.trace_id);
        assert_eq!(a.span_id, b.span_id);
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.sampled(), head_sampled(a.trace_id, 64));
        // Distinct keys give distinct traces.
        assert_ne!(a.trace_id, TraceContext::mint(42, 3, 18, 64).trace_id);
        assert_ne!(a.trace_id, TraceContext::mint(42, 4, 17, 64).trace_id);
    }

    #[test]
    fn sampling_rate_is_close_to_denominator() {
        let mut hits = 0;
        for i in 0..64_000u64 {
            let ctx = TraceContext::mint(7, 0, i, 64);
            if ctx.sampled() {
                hits += 1;
            }
        }
        // 1/64 of 64k = 1000 expected; allow generous slack.
        assert!((700..1300).contains(&hits), "hits={hits}");
        assert!(!head_sampled(12345, 0), "denom 0 disables sampling");
        assert!(head_sampled(12345, 1), "denom 1 samples everything");
    }

    #[test]
    fn trace_hex_roundtrips() {
        let id = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(parse_trace_id(&trace_hex(id)), Some(id));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("ff"), Some(0xff));
    }

    #[test]
    fn retry_promotes_and_recorded_follows_flags() {
        let mut ctx = TraceContext::mint(1, 0, 0, 0); // denom 0: never head-sampled
        assert!(!ctx.sampled());
        assert!(!ctx.recorded());
        ctx = ctx.for_attempt(2);
        assert!(ctx.flags & FLAG_RETRY != 0);
        assert!(ctx.recorded(), "retry force-records the trace");
    }

    #[test]
    fn promote_flags_marks_slow_roots() {
        assert_eq!(promote_flags(0, 5_000, 10_000), 0);
        assert_eq!(promote_flags(0, 10_000, 10_000), FLAG_SLOW);
        assert_eq!(promote_flags(0, u64::MAX, 0), 0, "slow_us 0 disables");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn collector_ring_bounds_and_keeps_promoted() {
        let c = TraceCollector::new(4, 100);
        let span = |i: u64, flags: u8| SpanRecord {
            trace_id: i as u128,
            span_id: i,
            parent: 0,
            name: "t".into(),
            start_us: i,
            dur_us: 1,
            flags,
            shard: 0,
        };
        for i in 0..10 {
            c.record(span(i, 0));
        }
        let got = c.spans();
        assert_eq!(got.len(), 4, "ring is bounded");
        // Promoted spans survive arbitrary ring churn.
        c.record(span(100, FLAG_RETRY));
        for i in 10..30 {
            c.record(span(i, 0));
        }
        assert!(c.spans().iter().any(|s| s.span_id == 100), "kept span evicted: {:?}", c.spans());
        c.clear();
        assert!(c.spans().is_empty());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn task_buffer_collects_spans_and_flags() {
        let ctx = TraceContext::mint(9, 1, 2, 1);
        task_begin(ctx, 3);
        assert_eq!(task_ctx().map(|c| c.trace_id), Some(ctx.trace_id));
        task_mark("serve.dedup", FLAG_DEDUP);
        task_span("store.append", 123, 45, FLAG_FORCED);
        let (flags, spans) = task_end();
        assert!(flags & FLAG_DEDUP != 0 && flags & FLAG_FORCED != 0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "serve.dedup");
        assert_eq!(spans[0].parent, ctx.span_id);
        assert_eq!(spans[0].shard, 3);
        assert_ne!(spans[0].span_id, spans[1].span_id);
        assert_eq!(spans[1].dur_us, 45);
        // Ended: further marks are dropped.
        task_mark("late", 0);
        let (_, spans) = task_end();
        assert!(spans.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let spans = vec![SpanRecord {
            trace_id: 0xabc,
            span_id: 1,
            parent: 0,
            name: "client.\"send\"".into(),
            start_us: 10,
            dur_us: 5,
            flags: FLAG_SAMPLED | FLAG_RETRY,
            shard: -1,
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\\\"send\\\""), "escapes name: {json}");
        assert!(json.contains("\"tid\":1"), "client tid: {json}");
        assert!(json.contains("\"flags\":\"SR\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn timeline_groups_by_trace() {
        let spans = vec![
            SpanRecord {
                trace_id: 2,
                span_id: 10,
                parent: 0,
                name: "client.request".into(),
                start_us: 50,
                dur_us: 20,
                flags: FLAG_SAMPLED,
                shard: -1,
            },
            SpanRecord {
                trace_id: 2,
                span_id: 11,
                parent: 10,
                name: "serve.apply".into(),
                start_us: 55,
                dur_us: 5,
                flags: 0,
                shard: 1,
            },
            SpanRecord {
                trace_id: 1,
                span_id: 12,
                parent: 0,
                name: "client.request".into(),
                start_us: 40,
                dur_us: 1,
                flags: 0,
                shard: -1,
            },
        ];
        let text = render_timeline(&spans);
        let t1 = text.find("trace 00000000000000000000000000000001").unwrap();
        let t2 = text.find("trace 00000000000000000000000000000002").unwrap();
        assert!(t1 < t2, "{text}");
        assert!(text.contains("serve.apply"), "{text}");
        assert!(text.contains("shard1"), "{text}");
    }
}
