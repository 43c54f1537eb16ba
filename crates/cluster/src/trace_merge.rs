//! Cluster-wide trace assembly: origin tagging, causal merge, and the
//! per-hop latency decomposition behind `plab trace --explain`.
//!
//! Each process in a cluster (router + backends) drains its own
//! `pl_obs` rings as JSONL. Those streams cannot simply be
//! concatenated and sorted: every process timestamps events against its
//! *own* trace epoch, so `start_ns` values are comparable within one
//! origin but not across origins. What *is* comparable across processes
//! are the propagated trace ids and span/parent links (span ids are
//! globally unique — each process seeds its id generator with
//! process-local entropy, and the parent link crosses the wire inside
//! `TRACE_CTX`).
//!
//! [`merge`] therefore tags every line with its origin, groups lines by
//! trace id, and orders each trace *causally*: parents before children
//! (breadth-first over the span tree), ties broken by origin then
//! start time. Untraced events lead, sorted per origin; traced groups
//! follow, so front-truncation at the wire's frame cap sacrifices
//! untraced noise before traced spans. The output is one JSONL stream —
//! what the router returns for a cluster-wide `TRACE_DUMP` and what
//! `plab trace --cluster` writes.
//!
//! [`explain`] renders one trace from such a stream as an indented span
//! tree plus a latency decomposition. Cross-process *timestamps* are
//! meaningless, but cross-process *durations* are not, so the
//! decomposition is all durations: router batch time, scatter time,
//! router queue (batch − scatter), per-leg round trip, backend batch
//! time, wire overhead (leg − backend batch), and backend store time.

use std::collections::{BTreeMap, HashMap};

/// One parsed (and origin-tagged) trace line.
#[derive(Debug, Clone)]
pub struct TraceLine {
    /// Which process drained it: `router`, `b0`, `b1`, … or `local`.
    pub origin: String,
    /// 32-hex-digit trace id; empty for untraced events.
    pub trace: String,
    /// The event's own span id (0 when the stream carries none).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Start time in the *origin's* epoch — only comparable within one
    /// origin.
    pub start_ns: u64,
    /// Duration (comparable across origins).
    pub dur_ns: u64,
    /// Span name.
    pub name: String,
    /// First payload word (`router.leg` stores the backend id here).
    pub a: u64,
    /// The tagged JSON line (no trailing newline).
    pub raw: String,
}

/// Extracts the raw text of `"key":…` from a single JSON line. Values
/// are either quoted strings (no escapes — `pl_obs` never emits any) or
/// bare numbers. Hand-rolled because the workspace is dependency-free.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|end| &stripped[..end])
    } else {
        rest.find([',', '}']).map(|end| rest[..end].trim())
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    field_raw(line, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Inserts `"origin":"…"` as the first key of a JSON object line.
/// Idempotent: a line that already carries an origin is returned as-is
/// (a router merging an already-tagged backend stream must not
/// double-tag).
#[must_use]
pub fn tag_origin(line: &str, origin: &str) -> String {
    let line = line.trim_end();
    if field_raw(line, "origin").is_some() {
        return line.to_string();
    }
    match line.strip_prefix('{') {
        Some("}") => format!("{{\"origin\":\"{origin}\"}}"),
        Some(rest) => format!("{{\"origin\":\"{origin}\",{rest}"),
        None => line.to_string(),
    }
}

/// Parses one JSONL stream, tagging every line with `origin` (unless it
/// already carries one, which wins).
#[must_use]
pub fn parse_stream(jsonl: &str, origin: &str) -> Vec<TraceLine> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let raw = tag_origin(line, origin);
            TraceLine {
                origin: field_raw(&raw, "origin").unwrap_or(origin).to_string(),
                trace: field_raw(&raw, "trace").unwrap_or("").to_string(),
                span: field_u64(&raw, "span"),
                parent: field_u64(&raw, "parent"),
                start_ns: field_u64(&raw, "start_ns"),
                dur_ns: field_u64(&raw, "dur_ns"),
                name: field_raw(&raw, "name").unwrap_or("?").to_string(),
                a: field_u64(&raw, "a"),
                raw,
            }
        })
        .collect()
}

/// Orders one trace's lines causally: breadth-first over the span tree
/// (every parent precedes all its children), roots first. Lines whose
/// parent is not in the trace (e.g. ring-wrapped away) count as roots.
/// Ties order by origin then start time — never across origins by
/// timestamp alone.
fn causal_order(mut lines: Vec<TraceLine>) -> Vec<TraceLine> {
    lines.sort_by(|x, y| {
        x.origin
            .cmp(&y.origin)
            .then(x.start_ns.cmp(&y.start_ns))
            .then(x.span.cmp(&y.span))
    });
    let present: HashMap<u64, usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.span != 0)
        .map(|(i, l)| (l.span, i))
        .collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.parent != 0 && present.contains_key(&l.parent) && present.get(&l.parent) != Some(&i) {
            children.entry(l.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(lines.len());
    let mut queue: std::collections::VecDeque<usize> = roots.into();
    while let Some(i) = queue.pop_front() {
        order.push(i);
        if let Some(kids) = children.remove(&lines[i].span) {
            queue.extend(kids);
        }
    }
    // Cycles (torn events) never reach the queue; append them so no
    // line is silently dropped.
    if order.len() < lines.len() {
        let mut seen = vec![false; lines.len()];
        for &i in &order {
            seen[i] = true;
        }
        order.extend((0..lines.len()).filter(|&i| !seen[i]));
    }
    let mut by_index: Vec<Option<TraceLine>> = lines.drain(..).map(Some).collect();
    order
        .into_iter()
        .map(|i| by_index[i].take().expect("each index emitted once")) // lint: panic-ok(order is a permutation of 0..lines.len() by construction — dedup plus the fill loop above)
        .collect()
}

/// Merges per-origin JSONL streams into one causally-ordered stream:
/// untraced events per origin in start order first, then traced events
/// grouped by trace id (parents before children). Traced groups come
/// *last* because the wire truncates oversized dumps from the front —
/// the traced spans are the lines that must survive. `streams` is
/// `(origin, jsonl)` — typically `("router", …)` plus one `("b{i}", …)`
/// per backend.
#[must_use]
pub fn merge(streams: &[(String, String)]) -> String {
    let mut traced: BTreeMap<String, Vec<TraceLine>> = BTreeMap::new();
    let mut untraced: Vec<TraceLine> = Vec::new();
    for (origin, jsonl) in streams {
        for line in parse_stream(jsonl, origin) {
            if line.trace.is_empty() {
                untraced.push(line);
            } else {
                traced.entry(line.trace.clone()).or_default().push(line);
            }
        }
    }
    let mut out = String::new();
    untraced.sort_by(|x, y| {
        x.origin
            .cmp(&y.origin)
            .then(x.start_ns.cmp(&y.start_ns))
            .then(x.span.cmp(&y.span))
    });
    for l in untraced {
        out.push_str(&l.raw);
        out.push('\n');
    }
    for (_, lines) in traced {
        for l in causal_order(lines) {
            out.push_str(&l.raw);
            out.push('\n');
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one trace from a merged JSONL stream: an indented causal
/// span tree plus the per-hop latency decomposition (all durations —
/// cross-process timestamps are not comparable, durations are).
/// Returns `None` when the stream has no line with that trace id.
#[must_use]
pub fn explain(merged_jsonl: &str, trace_hex: &str) -> Option<String> {
    let lines: Vec<TraceLine> = parse_stream(merged_jsonl, "local")
        .into_iter()
        .filter(|l| l.trace == trace_hex)
        .collect();
    if lines.is_empty() {
        return None;
    }
    let ordered = causal_order(lines);
    let mut depth: HashMap<u64, usize> = HashMap::new();
    let mut out = format!("trace {trace_hex}: {} spans\n", ordered.len());
    for l in &ordered {
        let d = l
            .parent
            .checked_sub(1)
            .and_then(|_| depth.get(&l.parent).copied())
            .map_or(0, |pd| pd + 1);
        if l.span != 0 {
            depth.insert(l.span, d);
        }
        let extra = if l.name == "router.leg" {
            format!(" backend={}", l.a)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:indent$}{} [{}] {}{}\n",
            "",
            l.name,
            l.origin,
            fmt_ns(l.dur_ns),
            extra,
            indent = 2 * d
        ));
    }

    // Decomposition. Router-side spans:
    let router_batch: u64 = ordered
        .iter()
        .filter(|l| l.origin == "router" && l.name == "serve.batch")
        .map(|l| l.dur_ns)
        .max()
        .unwrap_or(0);
    let scatter: u64 = ordered
        .iter()
        .filter(|l| l.name == "router.scatter")
        .map(|l| l.dur_ns)
        .max()
        .unwrap_or(0);
    out.push_str("\nper-hop decomposition (durations; clocks differ per process):\n");
    if router_batch > 0 {
        out.push_str(&format!(
            "  router batch total     {}\n",
            fmt_ns(router_batch)
        ));
        out.push_str(&format!(
            "  router queue/assemble  {}  (batch − scatter)\n",
            fmt_ns(router_batch.saturating_sub(scatter))
        ));
    }
    if scatter > 0 {
        out.push_str(&format!("  router scatter         {}\n", fmt_ns(scatter)));
    }
    // Per-leg: leg span (round trip) vs that backend's serve.batch.
    let legs: Vec<&TraceLine> = ordered.iter().filter(|l| l.name == "router.leg").collect();
    for leg in legs {
        let backend_origin = format!("b{}", leg.a);
        let backend_batch: u64 = ordered
            .iter()
            .filter(|l| l.origin == backend_origin && l.name == "serve.batch")
            .map(|l| l.dur_ns)
            .max()
            .unwrap_or(0);
        let store_ns: u64 = ordered
            .iter()
            .filter(|l| l.origin == backend_origin && l.name == "store.adjacent")
            .map(|l| l.dur_ns)
            .sum();
        out.push_str(&format!(
            "  leg → backend {}        rtt {}  backend batch {}  wire/queue {}  store {}\n",
            leg.a,
            fmt_ns(leg.dur_ns),
            fmt_ns(backend_batch),
            fmt_ns(leg.dur_ns.saturating_sub(backend_batch)),
            fmt_ns(store_ns),
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_origin_inserts_once() {
        let line = r#"{"name":"serve.batch","tid":0,"start_ns":5,"dur_ns":9,"a":1,"b":0,"span":3,"parent":2}"#;
        let tagged = tag_origin(line, "b0");
        assert!(tagged.starts_with(r#"{"origin":"b0","name""#));
        // Idempotent, and an existing origin wins.
        assert_eq!(tag_origin(&tagged, "router"), tagged);
    }

    #[test]
    fn field_extraction_handles_strings_and_numbers() {
        let line = r#"{"origin":"b1","name":"x","trace":"00ff","span":12,"parent":7,"start_ns":123,"dur_ns":4,"a":9,"b":0}"#;
        assert_eq!(field_raw(line, "origin"), Some("b1"));
        assert_eq!(field_raw(line, "trace"), Some("00ff"));
        assert_eq!(field_u64(line, "span"), 12);
        assert_eq!(field_u64(line, "parent"), 7);
        assert_eq!(field_u64(line, "b"), 0);
        assert_eq!(field_raw(line, "missing"), None);
    }

    #[test]
    fn merge_orders_parents_before_children_across_origins() {
        let t = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        // Backend events have *smaller* timestamps than the router's
        // (different epochs); a timestamp sort would invert causality.
        let router = format!(
            "{{\"name\":\"serve.batch\",\"tid\":0,\"start_ns\":900,\"dur_ns\":50,\"a\":1,\"b\":0,\"trace\":\"{t}\",\"span\":1,\"parent\":0}}\n\
             {{\"name\":\"router.scatter\",\"tid\":0,\"start_ns\":910,\"dur_ns\":40,\"a\":1,\"b\":0,\"trace\":\"{t}\",\"span\":2,\"parent\":1}}\n\
             {{\"name\":\"router.leg\",\"tid\":1,\"start_ns\":915,\"dur_ns\":30,\"a\":0,\"b\":1,\"trace\":\"{t}\",\"span\":3,\"parent\":2}}\n"
        );
        let backend = format!(
            "{{\"name\":\"serve.batch\",\"tid\":0,\"start_ns\":5,\"dur_ns\":20,\"a\":1,\"b\":0,\"trace\":\"{t}\",\"span\":4,\"parent\":3}}\n\
             {{\"name\":\"store.adjacent\",\"tid\":0,\"start_ns\":7,\"dur_ns\":10,\"a\":1,\"b\":2,\"trace\":\"{t}\",\"span\":5,\"parent\":4}}\n\
             {{\"name\":\"other.local\",\"tid\":0,\"start_ns\":1,\"dur_ns\":1,\"a\":0,\"b\":0,\"span\":6,\"parent\":0}}\n"
        );
        let merged = merge(&[("router".to_string(), router), ("b0".to_string(), backend)]);
        let names: Vec<&str> = merged
            .lines()
            .map(|l| field_raw(l, "name").unwrap())
            .collect();
        assert_eq!(
            names,
            vec![
                "other.local",
                "serve.batch",
                "router.scatter",
                "router.leg",
                "serve.batch",
                "store.adjacent"
            ]
        );
        // Origin tags present on every line; untraced events lead (the
        // wire front-truncates oversized dumps, so traced spans sit at
        // the surviving end).
        assert!(merged.lines().all(|l| field_raw(l, "origin").is_some()));
        let first = merged.lines().next().unwrap();
        assert_eq!(field_raw(first, "trace"), None);

        // The explain view resolves the same trace.
        let text = explain(&merged, t).expect("trace present");
        assert!(text.contains("router.leg"), "{text}");
        assert!(text.contains("leg → backend 0"), "{text}");
        assert!(explain(&merged, "ffffffffffffffffffffffffffffffff").is_none());
    }
}
