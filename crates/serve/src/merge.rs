//! Merging shard answers to fanned-out queries.
//!
//! Two tiers fan one request out to every shard and fold the answers
//! into a single response: the in-process broadcast path in
//! [`crate::server`] (one process, N shard workers) and the cluster
//! router in [`crate::router`] (N shard *processes*). Both must merge
//! identically, or a cluster would be distinguishable from a single
//! process — these functions are that shared definition, and the cluster
//! equivalence experiment leans on it.

use std::collections::HashMap;

use geosocial_obs::trace::SpanRecord;

use crate::protocol::{Response, ServerStats, TraceDump, TraceSpan};

/// The answer when a shard cannot answer at all (worker hung up, process
/// unreachable).
pub(crate) fn shard_gone() -> Response {
    Response::Error { message: "shard worker unavailable".into() }
}

/// Merge the per-shard replies to one broadcast request into one
/// response. Any shard error wins; countable responses (`Stats`) sum;
/// concatenating responses (`Verdicts`, `Compositions`)
/// extend, with `Compositions` re-sorted by user so arrival order never
/// shows.
pub(crate) fn merge_responses(replies: impl IntoIterator<Item = Response>) -> Response {
    let mut merged: Option<Response> = None;
    let mut error: Option<Response> = None;
    for resp in replies {
        match resp {
            Response::Ok => {
                merged.get_or_insert(Response::Ok);
            }
            Response::Verdicts { verdicts } => {
                if let Response::Verdicts { verdicts: all } =
                    merged.get_or_insert_with(|| Response::Verdicts { verdicts: Vec::new() })
                {
                    all.extend(verdicts)
                }
            }
            Response::Stats { stats } => {
                if let Response::Stats { stats: total } =
                    merged.get_or_insert_with(|| Response::Stats { stats: ServerStats::default() })
                {
                    total.users += stats.users;
                    total.gps_events += stats.gps_events;
                    total.checkin_events += stats.checkin_events;
                    total.queries += stats.queries;
                    total.verdicts += stats.verdicts;
                    total.duplicates += stats.duplicates;
                    total.recoveries += stats.recoveries;
                    total.buffered_state += stats.buffered_state;
                    total.composition.merge(&stats.composition);
                    total.per_shard.extend(stats.per_shard);
                }
            }
            Response::Compositions { compositions } => {
                if let Response::Compositions { compositions: all } = merged
                    .get_or_insert_with(|| Response::Compositions { compositions: Vec::new() })
                {
                    all.extend(compositions)
                }
            }
            e @ Response::Error { .. } => error = Some(e),
            other => merged = Some(other),
        }
    }
    if let Some(e) = error {
        return e;
    }
    match merged {
        Some(Response::Stats { mut stats }) => {
            stats.per_shard.sort_by_key(|s| s.shard);
            stats.shards = stats.per_shard.len();
            Response::Stats { stats }
        }
        Some(Response::Compositions { mut compositions }) => {
            // Shards answer in arrival order; present the cohort sorted.
            compositions.sort_by_key(|c| c.user);
            Response::Compositions { compositions }
        }
        Some(r) => r,
        None => shard_gone(),
    }
}

/// Merge the per-shard answers to a `Traces` broadcast: spans of the same
/// trace are combined across shards (a trace normally lives on one shard,
/// but client-synthesized and cross-tier legs — e.g. the router's forward
/// span — need not), then the union is re-ranked by root duration and
/// truncated to the `slowest` ask.
pub(crate) fn merge_trace_responses(
    replies: impl IntoIterator<Item = Response>,
    slowest: usize,
) -> Response {
    let mut by_trace: HashMap<String, Vec<TraceSpan>> = HashMap::new();
    let mut error = None;
    for resp in replies {
        match resp {
            Response::Traces { traces } => {
                for dump in traces {
                    by_trace.entry(dump.trace_id).or_default().extend(dump.spans);
                }
            }
            e @ Response::Error { .. } => error = Some(e),
            other => {
                error = Some(Response::Error {
                    message: format!("unexpected shard answer to Traces: {other:?}"),
                })
            }
        }
    }
    if let Some(e) = error {
        return e;
    }
    Response::Traces { traces: rank_traces(by_trace, slowest) }
}

/// Fold grouped spans into ranked [`TraceDump`]s: spans sorted by start,
/// root duration spanning the earliest start to the latest end, slowest
/// trace first, ties broken by id for determinism.
pub(crate) fn rank_traces(
    by_trace: HashMap<String, Vec<TraceSpan>>,
    slowest: usize,
) -> Vec<TraceDump> {
    let mut traces: Vec<TraceDump> = by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.start_us, s.span_id));
            let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
            let t1 = spans.iter().map(|s| s.start_us.saturating_add(s.dur_us)).max().unwrap_or(0);
            TraceDump { trace_id, root_dur_us: t1.saturating_sub(t0), spans }
        })
        .collect();
    traces.sort_by(|a, b| b.root_dur_us.cmp(&a.root_dur_us).then(a.trace_id.cmp(&b.trace_id)));
    if slowest > 0 {
        traces.truncate(slowest);
    }
    traces
}

/// Group spans into traces — only trace `trace_id` when given, only the
/// traces with a span whose name contains `path` when given — and rank
/// them with [`rank_traces`]. A trace's `root_dur_us` is its extent among
/// these spans (earliest start to latest end), equal to the root span's
/// duration once merged, since the synthesized `client.send` leg starts
/// at the root's start stamp. A shard answers its part of a `Traces`
/// request this way, and the router its own forward spans.
pub(crate) fn rank_spans(
    spans: impl IntoIterator<Item = SpanRecord>,
    trace_id: Option<u128>,
    path: Option<&str>,
    slowest: usize,
) -> Vec<TraceDump> {
    let mut by_trace: HashMap<String, Vec<TraceSpan>> = HashMap::new();
    for span in spans {
        if trace_id.is_some_and(|id| id != span.trace_id) {
            continue;
        }
        let span = wire_span(span);
        by_trace.entry(span.trace_id.clone()).or_default().push(span);
    }
    if let Some(p) = path {
        by_trace.retain(|_, spans| spans.iter().any(|s| s.name.contains(p)));
    }
    rank_traces(by_trace, slowest)
}

/// One span in protocol form (trace id as 32-hex — the vendored serde has
/// no u128 support, and hex ids are what operators grep anyway).
fn wire_span(s: SpanRecord) -> TraceSpan {
    TraceSpan {
        trace_id: geosocial_obs::trace::trace_hex(s.trace_id),
        span_id: s.span_id,
        parent: s.parent,
        name: s.name,
        start_us: s.start_us,
        dur_us: s.dur_us,
        flags: s.flags,
        shard: s.shard,
    }
}
