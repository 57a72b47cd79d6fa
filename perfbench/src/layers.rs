//! Per-layer measurements for the traced run: readers over the program's
//! existing telemetry snapshot, the harness's own span log, and probes
//! that time a layer's public functions from outside (the store's
//! `append`/`sync`, the wire codec).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use refstate_serve::{OwnerStats, Request, Response};
use refstate_store::{LogStore, StateStore};
use refstate_telemetry::{HistogramSnapshot, MetricsSnapshot};

use crate::stats::median;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One harness span: a timed call into the program, relative to the
/// start of the run's load phase.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// What was called.
    pub name: &'static str,
    /// Start, since the load phase began.
    pub start: Duration,
    /// How long the call took.
    pub dur: Duration,
}

/// Records a span for a call that started at `start` and ended now.
pub fn record(spans: &mut Vec<SpanRec>, origin: Instant, name: &'static str, start: Instant) {
    spans.push(SpanRec {
        name,
        start: start.saturating_duration_since(origin),
        dur: start.elapsed(),
    });
}

/// Observation count and sum of every histogram named `name`, across
/// scopes and indices.
pub fn totals(snapshot: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snapshot
        .histograms
        .iter()
        .filter(|(key, _)| key.name == name)
        .fold((0, 0), |(n, sum), (_, h)| (n + h.count, sum + h.sum))
}

/// The histogram named `name` with the most observations (quantiles
/// cannot be merged across scopes; a series recorded off any mechanism
/// scope has one key anyway).
pub fn histogram(snapshot: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    snapshot
        .histograms
        .iter()
        .filter(|(key, _)| key.name == name)
        .map(|(_, h)| h)
        .max_by_key(|h| h.count)
        .cloned()
        .unwrap_or_default()
}

/// Total of the histogram `name` (span durations are in ns), in µs.
pub fn total_us(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    totals(snapshot, name).1 as f64 / 1e3
}

/// Host-side journey time in µs: the `journey` span where an engine
/// opens one per mechanism run, otherwise the mechanisms' own
/// `<mechanism>.journey` stage spans (the served split path).
pub fn journey_total_us(snapshot: &MetricsSnapshot) -> f64 {
    let whole = total_us(snapshot, "journey");
    if whole > 0.0 {
        return whole;
    }
    snapshot
        .histograms
        .iter()
        .filter(|(key, _)| key.name.ends_with(".journey"))
        .map(|(_, h)| h.sum as f64 / 1e3)
        .sum()
}

/// The mechanism, VM, crypto and pipeline layers of a run, from its
/// telemetry delta, per verdict. A span the run never opened is left out
/// (the traced run then measures it on the workload that drives it).
pub fn engine_layers(layers: &mut Layers, delta: &MetricsSnapshot, verdicts: u64) {
    let per = |total: f64| total / verdicts.max(1) as f64;
    let journey = journey_total_us(delta);
    if journey > 0.0 {
        layers.insert("mechanisms.journey_us_per_verdict", per(journey));
    }
    for (metric, span) in [
        (
            "mechanisms.settle_batch_us_per_verdict",
            "mechanism.settle_batch",
        ),
        ("vm.session_us_per_verdict", "vm.session"),
        ("crypto.sign_us_per_verdict", "crypto.sign"),
        ("crypto.verify_us_per_verdict", "crypto.verify"),
        ("core.replay_us_per_verdict", "verify.replay"),
    ] {
        if totals(delta, span).0 > 0 {
            layers.insert(metric, per(total_us(delta, span)));
        }
    }
    layers.insert(
        "core.replay_cache.evictions",
        delta.counter_total("pipeline.cache_evict") as f64,
    );
}

/// The per-owner counters a served run moved, per verdict: final checks,
/// flushed signature verifications, and the replay-cache hit rate.
pub fn owner_layers(
    layers: &mut Layers,
    before: &[OwnerStats],
    after: &[OwnerStats],
    verdicts: u64,
) {
    let delta = |f: fn(&OwnerStats) -> u64| -> u64 {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    let per = |n: u64| n as f64 / verdicts.max(1) as f64;
    layers.insert(
        "mechanisms.final_checks_per_verdict",
        per(delta(|s| s.final_checks)),
    );
    layers.insert(
        "crypto.flush_verifications_per_verdict",
        per(delta(|s| s.flush_verifications)),
    );
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    layers.insert(
        "core.replay_cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// Bytes and CRC-framed records in a `LogStore` directory, walking the
/// segment files' `[len u32][crc u32][payload]` frames.
pub fn store_footprint(dir: &Path) -> (u64, u64) {
    let mut bytes = 0u64;
    let mut records = 0u64;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let Ok(data) = std::fs::read(entry.path()) else {
            continue;
        };
        bytes += data.len() as u64;
        let mut at = 0usize;
        while at + 8 <= data.len() {
            let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 8 + len;
            if at <= data.len() {
                records += 1;
            }
        }
    }
    (bytes, records)
}

/// Times `LogStore::append` per record and `LogStore::sync` on a scratch
/// store under `dir`, with the run's own verdict lines. Median of three
/// rounds, each on a fresh store: (µs per append, ms per sync).
pub fn store_probe(dir: &Path, lines: &[&str]) -> (f64, f64) {
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    for round in 0..3 {
        let path = dir.join(format!("append-probe-{round}"));
        let _ = std::fs::remove_dir_all(&path);
        let store = LogStore::open(&path).expect("scratch store");
        let started = Instant::now();
        for line in lines {
            store
                .append("stream/probe", line.as_bytes())
                .expect("scratch append");
        }
        appends.push(started.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64);
        let started = Instant::now();
        store.sync().expect("scratch sync");
        syncs.push(started.elapsed().as_secs_f64() * 1e3);
        drop(store);
        let _ = std::fs::remove_dir_all(&path);
    }
    (
        median(&appends).unwrap_or(0.0),
        median(&syncs).unwrap_or(0.0),
    )
}

/// Times the wire codec over a run's own requests and responses:
/// (ns to encode a message, ns to decode one), median of three passes.
pub fn wire_probe(requests: &[Request], responses: &[Response]) -> (f64, f64) {
    let frames = (requests.len() + responses.len()).max(1) as f64;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let encoded_requests: Vec<Vec<u8>> = requests.iter().map(refstate_wire::to_wire).collect();
        let encoded_responses: Vec<Vec<u8>> =
            responses.iter().map(refstate_wire::to_wire).collect();
        encode.push(started.elapsed().as_secs_f64() * 1e9 / frames);
        let started = Instant::now();
        for bytes in &encoded_requests {
            let request: Request = refstate_wire::from_wire(bytes).expect("own request decodes");
            std::hint::black_box(request);
        }
        for bytes in &encoded_responses {
            let response: Response = refstate_wire::from_wire(bytes).expect("own response decodes");
            std::hint::black_box(response);
        }
        decode.push(started.elapsed().as_secs_f64() * 1e9 / frames);
    }
    (
        median(&encode).unwrap_or(0.0),
        median(&decode).unwrap_or(0.0),
    )
}

/// Writes the run's harness spans (Chrome `trace_event` JSON, loadable in
/// Perfetto) followed by the telemetry histograms it read.
pub fn write_trace(path: &Path, spans: &[SpanRec], delta: &MetricsSnapshot) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 * spans.len() + 4096);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
            span.name,
            span.start.as_secs_f64() * 1e6,
            span.dur.as_secs_f64() * 1e6
        ));
    }
    out.push_str("],\"telemetry\":{");
    let mut names: Vec<&str> = delta.histograms.keys().map(|k| k.name).collect();
    names.sort_unstable();
    names.dedup();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (count, sum) = totals(delta, name);
        out.push_str(&format!("\"{name}\":{{\"count\":{count},\"sum\":{sum}}}"));
    }
    out.push_str("}}\n");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}
