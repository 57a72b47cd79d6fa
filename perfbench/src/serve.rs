//! The closed-loop serve workloads: `serve-closed` (an in-memory
//! [`Service`]) and `serve-durable` (the same load resumed on a state dir
//! holding a written history).
//!
//! The load is the lockstep soak shape: submissions round-robin over four
//! owners (submission `k` is owner `k % 4`'s journey `k / 4`), a `Tick`
//! after every 32, then a `Drain` of every owner — each a call to
//! [`Service::handle`] from one client thread. It runs until `--seconds`
//! have passed, then sends `Shutdown` and a final drain.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refstate_fleet::scenario::Preset;
use refstate_serve::{
    run_soak, OwnerStats, RegisterOwner, RejectReason, Request, Response, ServeConfig, Service,
    SoakConfig, StreamCheckpoint,
};
use refstate_store::LogStore;
use refstate_telemetry::{self as telemetry, TelemetryLevel};

use crate::gate::{self, OwnerSpec};
use crate::host;
use crate::layers::{self, record, Layers, SpanRec};
use crate::stats::{median_rate, ms, percentile, us, Window, Windows};
use crate::{Ctx, Outcome};

/// Tenants per run.
pub const OWNERS: usize = 4;
/// Submissions between client ticks.
pub const TICK_EVERY: usize = 32;
/// Scenario preset every owner registers.
pub const PRESET: &str = "mixed";
/// Mechanism every owner registers.
pub const MECHANISM: &str = "protocol";
/// Per-owner admission bound.
pub const QUEUE_CAPACITY: usize = 64;
/// Journeys a serve workload has behind it before the timed leg: enough
/// to fill the shared replay cache (about 4.3 memoized sessions per
/// journey against 65 536 entries), so the timed leg measures a resident
/// service in its steady state rather than a young cache. `serve-closed`
/// runs them untimed in process; `serve-durable` resumes from a history
/// of this many journeys, whose persisted cache the reopen restores.
pub const WARM_JOURNEYS: u64 = 16_000;
/// Length of one measurement window of the timed leg.
const WINDOW: Duration = Duration::from_secs(1);
/// Segments an untraced timed leg is cut into. `setup_s` probes run
/// before the first, between segments and after the last, so they sample
/// the machine across the whole run instead of one moment of it.
const SEGMENTS: usize = 4;
/// Set-up probes at each of those `SEGMENTS + 1` points: a `serve-closed`
/// set-up takes a few ms, so many are cheap and their median steadies the
/// figure; a `serve-durable` one reopens the history and takes a few
/// hundred.
const fn probes_per_point(durable: bool) -> usize {
    if durable {
        2
    } else {
        8
    }
}
/// The store's write and sync policy, as recorded with every result.
pub const FLUSH_POLICY: &str = "one write per record; sync on segment rotation and at shutdown";

/// The soak shape the owners are registered under (names and seeds).
pub fn soak_config(seed: u64, journeys: u64) -> SoakConfig {
    SoakConfig {
        owners: OWNERS,
        journeys,
        seed,
        preset: PRESET.into(),
        mechanism: MECHANISM.into(),
        tick_every: TICK_EVERY,
        ..SoakConfig::default()
    }
}

/// The registrations of a run's owners.
pub fn owner_specs(seed: u64) -> Vec<OwnerSpec> {
    let config = soak_config(seed, 0);
    (0..OWNERS)
        .map(|i| OwnerSpec {
            name: SoakConfig::owner_name(i),
            seed: config.owner_seed(i),
            preset: Preset::parse(PRESET).expect("known preset"),
            mechanism: MECHANISM.into(),
        })
        .collect()
}

/// The service configuration of every serve workload.
pub fn serve_config(seed: u64, settle_workers: usize, state_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        seed,
        key_pool: 32,
        queue_capacity: QUEUE_CAPACITY,
        check_workers: 1,
        settle_workers,
        replay_cache: true,
        state_dir: state_dir.map(Path::to_path_buf),
    }
}

/// Registers every owner through `call`. With `resume_from`, the owners
/// must already be restored from the state dir (`DuplicateOwner`), and
/// each owner's durable stream must stand exactly at its share of the
/// `resume_from` submissions already made.
pub fn register(
    call: &mut dyn FnMut(Request) -> Response,
    owners: &[OwnerSpec],
    resume_from: Option<u64>,
) -> Result<(), String> {
    for owner in owners {
        let reply = call(Request::Register(RegisterOwner {
            owner: owner.name.clone(),
            seed: owner.seed,
            preset: PRESET.into(),
            mechanism: owner.mechanism.clone(),
        }));
        // A resumed run finds its owners restored from the state dir.
        let ok = matches!(
            (&reply, resume_from),
            (Response::Registered { .. }, None)
                | (
                    Response::Rejected {
                        reason: RejectReason::DuplicateOwner,
                        ..
                    },
                    Some(_),
                )
        );
        if !ok {
            return Err(format!("registration of {} failed: {reply:?}", owner.name));
        }
    }
    if let Some(start) = resume_from {
        let Response::StreamState {
            generation,
            owners: checkpoints,
        } = call(Request::StreamState)
        else {
            return Err("stream-state query failed".into());
        };
        if generation < 2 {
            return Err(format!("resumed store reports generation {generation}"));
        }
        for (i, owner) in owners.iter().enumerate() {
            let expected = share(start, i);
            let offset = checkpoints
                .iter()
                .find(|c| c.owner == owner.name)
                .map(|c| c.offset);
            if offset != Some(expected) {
                return Err(format!(
                    "resume offset check: {} stream at {offset:?}, expected {expected}",
                    owner.name
                ));
            }
        }
    }
    Ok(())
}

/// How many of the first `n` round-robin submissions went to owner `i`.
pub fn share(n: u64, i: usize) -> u64 {
    n / OWNERS as u64 + u64::from((i as u64) < n % OWNERS as u64)
}

/// Builds the service and registers the owners: the set-up a workload
/// pays before its first submission can be accepted. Returns the service
/// and the time `Service::new` alone took.
pub fn setup(
    seed: u64,
    settle_workers: usize,
    state_dir: Option<&Path>,
    resume_from: Option<u64>,
) -> Result<(Arc<Service>, Duration), String> {
    let started = Instant::now();
    let service = Arc::new(Service::new(serve_config(seed, settle_workers, state_dir)));
    let restore = started.elapsed();
    register(&mut |r| service.handle(r), &owner_specs(seed), resume_from)?;
    Ok((service, restore))
}

/// Writes the `serve-durable` history: an untimed lockstep soak of
/// `WARM_JOURNEYS` into a fresh state dir, ended by a graceful shutdown.
pub fn prepare_history(seed: u64, settle_workers: usize, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut service = Service::new(serve_config(seed, settle_workers, Some(dir)));
    let outcome = run_soak(&mut service, &soak_config(seed, WARM_JOURNEYS));
    if outcome.dropped != 0 || outcome.verified != WARM_JOURNEYS {
        return Err(format!(
            "history leg verified {} of {WARM_JOURNEYS} journeys, dropped {}",
            outcome.verified, outcome.dropped
        ));
    }
    Ok(())
}

/// Per-journey timestamps of the lockstep loop.
#[derive(Clone, Copy)]
struct Stamp {
    submit_start: Instant,
    accepted: Instant,
}

/// The waits of one verdict between the calls of the loop, in µs:
/// ingress wait (accepted → `Tick` called) and outbox wait (`Tick`
/// returned → `Drain` of its owner called).
type Waits = [f64; 2];

/// What the lockstep load produced.
struct Lockstep {
    streams: Vec<String>,
    submitted: Vec<u64>,
    latencies_ms: Vec<f64>,
    waits: Vec<Waits>,
    attempted: u64,
    accepted: u64,
    verdicts: u64,
    dropped: u64,
    ticks: u64,
    tick_total: Duration,
    elapsed: Duration,
    windows: Vec<Window>,
    peak_rss_mb: f64,
}

impl Lockstep {
    /// Joins consecutive legs of one load phase into one.
    fn concat(legs: Vec<Lockstep>) -> Lockstep {
        let mut legs = legs.into_iter();
        let mut out = legs.next().expect("at least one leg");
        for leg in legs {
            let offset = out.latencies_ms.len();
            for (mine, theirs) in out.streams.iter_mut().zip(&leg.streams) {
                mine.push_str(theirs);
            }
            for (mine, theirs) in out.submitted.iter_mut().zip(&leg.submitted) {
                *mine += theirs;
            }
            out.latencies_ms.extend(&leg.latencies_ms);
            out.waits.extend(&leg.waits);
            out.attempted += leg.attempted;
            out.accepted += leg.accepted;
            out.verdicts += leg.verdicts;
            out.dropped += leg.dropped;
            out.ticks += leg.ticks;
            out.tick_total += leg.tick_total;
            out.elapsed += leg.elapsed;
            out.windows.extend(leg.windows.into_iter().map(|mut w| {
                w.samples = w.samples.start + offset..w.samples.end + offset;
                w
            }));
            out.peak_rss_mb = out.peak_rss_mb.max(leg.peak_rss_mb);
        }
        out
    }
}

fn drain_owner(
    service: &Service,
    name: &str,
    traced: bool,
    spans: &mut Vec<SpanRec>,
    origin: Instant,
) -> Result<(Vec<refstate_serve::VerdictReply>, Instant, Instant), String> {
    let start = Instant::now();
    let reply = service.handle(Request::Drain {
        owner: name.to_owned(),
    });
    let end = Instant::now();
    if traced {
        record(spans, origin, "drain", start);
    }
    match reply {
        Response::Verdicts(verdicts) => Ok((verdicts, start, end)),
        other => Err(format!("drain of {name} failed: {other:?}")),
    }
}

/// How long a lockstep leg runs.
#[derive(Clone, Copy)]
enum Until {
    /// Until this much wall time has passed (checked after each tick).
    Seconds(f64),
    /// For exactly this many submissions.
    Journeys(u64),
}

/// Runs one lockstep leg from global submission `start_k`; with
/// `shutdown`, it ends with `Shutdown` and a final drain.
fn run_lockstep(
    service: &Service,
    owners: &[OwnerSpec],
    start_k: u64,
    until: Until,
    shutdown: bool,
    traced: bool,
    spans: &mut Vec<SpanRec>,
) -> Result<Lockstep, String> {
    let mut windows = Windows::new(WINDOW);
    let origin = Instant::now();
    let index: HashMap<&str, usize> = owners
        .iter()
        .enumerate()
        .map(|(i, o)| (o.name.as_str(), i))
        .collect();
    let mut out = Lockstep {
        streams: vec![String::new(); owners.len()],
        submitted: vec![0; owners.len()],
        latencies_ms: Vec::new(),
        waits: Vec::new(),
        attempted: 0,
        accepted: 0,
        verdicts: 0,
        dropped: 0,
        ticks: 0,
        tick_total: Duration::ZERO,
        elapsed: Duration::ZERO,
        windows: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut in_flight: HashMap<(usize, u64), Stamp> = HashMap::new();
    let mut k = start_k;
    let settle = |out: &mut Lockstep,
                  in_flight: &mut HashMap<(usize, u64), Stamp>,
                  tick: Option<(Instant, Instant)>,
                  spans: &mut Vec<SpanRec>|
     -> Result<(), String> {
        for owner in owners {
            let (verdicts, drain_start, drain_end) =
                drain_owner(service, &owner.name, traced, spans, origin)?;
            for verdict in verdicts {
                let i = *index
                    .get(verdict.owner.as_str())
                    .ok_or_else(|| format!("verdict for unknown owner {}", verdict.owner))?;
                let stamp = in_flight.remove(&(i, verdict.journey)).ok_or_else(|| {
                    format!(
                        "verdict for {} journey {} never submitted",
                        verdict.owner, verdict.journey
                    )
                })?;
                let latency = drain_end - stamp.submit_start;
                out.latencies_ms.push(ms(latency));
                if let (true, Some((tick_start, tick_end))) = (traced, tick) {
                    out.waits.push([
                        us(tick_start.saturating_duration_since(stamp.accepted)),
                        us(drain_start - tick_end),
                    ]);
                }
                out.streams[i].push_str(&verdict.stream_line());
                out.streams[i].push('\n');
                out.verdicts += 1;
            }
        }
        Ok(())
    };
    loop {
        for _ in 0..TICK_EVERY {
            let i = (k % OWNERS as u64) as usize;
            let journey = k / OWNERS as u64;
            let submit_start = Instant::now();
            let reply = service.handle(Request::Submit {
                owner: owners[i].name.clone(),
                journey,
            });
            let accepted = Instant::now();
            if traced {
                record(spans, origin, "submit", submit_start);
            }
            out.attempted += 1;
            if !matches!(reply, Response::Accepted { .. }) {
                return Err(format!(
                    "submission of {}/{journey} refused: {reply:?}",
                    owners[i].name
                ));
            }
            out.accepted += 1;
            out.submitted[i] += 1;
            in_flight.insert(
                (i, journey),
                Stamp {
                    submit_start,
                    accepted,
                },
            );
            k += 1;
        }
        let tick_start = Instant::now();
        let reply = service.handle(Request::Tick);
        let tick_end = Instant::now();
        if traced {
            record(spans, origin, "tick", tick_start);
        }
        if !matches!(reply, Response::Ticked { .. }) {
            return Err(format!("tick failed: {reply:?}"));
        }
        out.ticks += 1;
        out.tick_total += tick_end - tick_start;
        settle(
            &mut out,
            &mut in_flight,
            Some((tick_start, tick_end)),
            spans,
        )?;
        windows.progress(out.verdicts, out.latencies_ms.len());
        let done = match until {
            Until::Seconds(seconds) => origin.elapsed().as_secs_f64() >= seconds,
            Until::Journeys(n) => k - start_k >= n,
        };
        if done {
            break;
        }
    }
    if shutdown {
        let start = Instant::now();
        let reply = service.handle(Request::Shutdown);
        if traced {
            record(spans, origin, "shutdown", start);
        }
        if !matches!(reply, Response::ShuttingDown { .. }) {
            return Err(format!("shutdown failed: {reply:?}"));
        }
        settle(&mut out, &mut in_flight, None, spans)?;
    }
    out.elapsed = origin.elapsed();
    out.windows = windows.finish(out.verdicts, out.latencies_ms.len());
    out.peak_rss_mb = host::peak_rss_mb();
    out.dropped = in_flight.len() as u64;
    Ok(out)
}

fn owner_stats(service: &Service, owners: &[OwnerSpec]) -> Result<Vec<OwnerStats>, String> {
    owners
        .iter()
        .map(|o| {
            match service.handle(Request::Stats {
                owner: o.name.clone(),
            }) {
                Response::Stats(stats) => Ok(stats),
                other => Err(format!("stats of {} failed: {other:?}", o.name)),
            }
        })
        .collect()
}

fn stream_state(service: &Service) -> Result<Vec<StreamCheckpoint>, String> {
    match service.handle(Request::StreamState) {
        Response::StreamState { owners, .. } => Ok(owners),
        other => Err(format!("stream-state query failed: {other:?}")),
    }
}

/// Median duration, in µs, of the harness spans called `name`.
fn span_p50_us(spans: &[SpanRec], name: &str) -> f64 {
    let mut durations: Vec<f64> = spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| us(span.dur))
        .collect();
    percentile(&mut durations, 0.5).unwrap_or(0.0)
}

/// The median verdict latency, in ms, that the loop's shape predicts
/// from the median call times alone. A verdict waits for its own submit
/// and the submits after it in its batch — `(TICK_EVERY + 1) / 2` on
/// average — then one tick, then the drains of the owners up to its
/// own, `(OWNERS + 1) / 2` on average. The harness's bookkeeping between
/// calls is not in the prediction, so a prediction far from the measured
/// median means the latency is not made of the calls the split names.
fn predicted_p50_ms(submit_us: f64, tick_us: f64, drain_us: f64) -> f64 {
    let submits = (TICK_EVERY + 1) as f64 / 2.0;
    let drains = (OWNERS + 1) as f64 / 2.0;
    (submit_us * submits + tick_us + drain_us * drains) / 1e3
}

/// Copies the flat directory `from` (a `LogStore`'s segment files) to
/// `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", from.display()))?
            .path();
        let target = to.join(path.file_name().expect("entry has a name"));
        std::fs::copy(&path, &target).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs `serve-closed` (`durable = false`) or `serve-durable`.
pub fn run(ctx: &Ctx, durable: bool) -> Result<Outcome, String> {
    let workload = if durable {
        "serve-durable"
    } else {
        "serve-closed"
    };
    let settle_workers = ctx.nproc;
    let owners = owner_specs(ctx.seed);
    let history: Option<PathBuf> = durable.then(|| ctx.work.join("history"));
    let start_k = WARM_JOURNEYS;
    if let Some(dir) = &history {
        ctx.child(&["--prep-history", "--dir", &dir.display().to_string()])?;
    }
    // Durable probes reopen a copy of the history as written, since the
    // timed leg extends the original while they run between its segments.
    let probe_history = match &history {
        Some(dir) if ctx.probes => {
            let copy = ctx.work.join("probe-history");
            copy_dir(dir, &copy)?;
            Some(copy)
        }
        _ => None,
    };
    let dir_arg: Vec<String> = probe_history
        .iter()
        .flat_map(|d| ["--dir".to_owned(), d.display().to_string()])
        .collect();
    let probes = probes_per_point(durable);
    let mut setup_s = Vec::new();

    let mut layers = Layers::new();
    if let (true, Some(dir)) = (ctx.traced, &history) {
        let started = Instant::now();
        drop(LogStore::open(dir).map_err(|e| format!("history open: {e}"))?);
        layers.insert("store.open_ms", ms(started.elapsed()));
    }
    let (service, restore) = setup(
        ctx.seed,
        settle_workers,
        history.as_deref(),
        durable.then_some(start_k),
    )?;
    if durable && ctx.traced {
        layers.insert("serve.restore_ms", ms(restore));
    }
    // `serve-closed` pays its warm-up in process, untimed.
    let warm = match durable {
        true => None,
        false => Some(run_lockstep(
            &service,
            &owners,
            0,
            Until::Journeys(WARM_JOURNEYS),
            false,
            false,
            &mut Vec::new(),
        )?),
    };
    // A traced run first measures an untraced third of its time on the
    // same warm service: the baseline of `trace.overhead_frac`.
    let base = match ctx.traced {
        true => Some(run_lockstep(
            &service,
            &owners,
            start_k,
            Until::Seconds(ctx.seconds / 3.0),
            false,
            false,
            &mut Vec::new(),
        )?),
        false => None,
    };
    let timed_k = start_k + base.as_ref().map_or(0, |b| b.accepted);
    let timed_seconds = match ctx.traced {
        true => ctx.seconds * 2.0 / 3.0,
        false => ctx.seconds,
    };
    let stats_before = owner_stats(&service, &owners)?;
    let footprint_before = history.as_deref().map(layers::store_footprint);
    let telemetry_before = ctx.traced.then(|| {
        telemetry::set_level(TelemetryLevel::Counters);
        telemetry::snapshot()
    });
    let mut spans = Vec::new();
    // A traced run is one segment: its spans share one origin.
    let segments = if ctx.probes { SEGMENTS } else { 1 };
    let mut parts = Vec::with_capacity(segments);
    let mut k = timed_k;
    for segment in 0..segments {
        setup_s.extend(ctx.setup_probes(workload, &dir_arg, probes)?);
        let part = run_lockstep(
            &service,
            &owners,
            k,
            Until::Seconds(timed_seconds / segments as f64),
            segment + 1 == segments,
            ctx.traced,
            &mut spans,
        )?;
        k += part.accepted;
        parts.push(part);
    }
    let load = Lockstep::concat(parts);
    let delta = telemetry_before.map(|before| {
        let delta = telemetry::snapshot().delta_since(&before);
        telemetry::set_level(TelemetryLevel::Off);
        delta
    });
    let stats_after = owner_stats(&service, &owners)?;
    let checkpoints = stream_state(&service)?;
    drop(service);

    // The correctness gate, over every leg this process drained (the
    // durable history is covered by the stream checkpoints below).
    let legs: Vec<&Lockstep> = warm.iter().chain(base.iter()).chain([&load]).collect();
    for leg in &legs {
        if leg.accepted != leg.verdicts || leg.dropped != 0 {
            return Err(format!(
                "accepted {} but verified {} ({} dropped)",
                leg.accepted, leg.verdicts, leg.dropped
            ));
        }
    }
    let history_share: Vec<u64> = (0..OWNERS)
        .map(|i| if durable { share(start_k, i) } else { 0 })
        .collect();
    let ranges: Vec<_> = (0..OWNERS)
        .map(|i| 0..history_share[i] + legs.iter().map(|l| l.submitted[i]).sum::<u64>())
        .collect();
    let full = gate::reference_streams(&owners, &ranges, ctx.nproc);
    let reference: Vec<String> = full
        .iter()
        .zip(&history_share)
        .map(|(stream, &skip)| stream.split_inclusive('\n').skip(skip as usize).collect())
        .collect();
    let mut served: Vec<String> = (0..OWNERS)
        .map(|i| legs.iter().map(|l| l.streams[i].as_str()).collect())
        .collect();
    if ctx.corrupt {
        gate::corrupt(&mut served[0]);
    }
    gate::compare_streams(&owners, &served, &reference)?;
    for (owner, stream) in owners.iter().zip(&full) {
        let checkpoint = checkpoints
            .iter()
            .find(|c| c.owner == owner.name)
            .ok_or_else(|| format!("no stream checkpoint for {}", owner.name))?;
        if checkpoint.offset != stream.lines().count() as u64
            || checkpoint.digest != gate::digest(stream)
        {
            return Err(format!(
                "{}: service stream checkpoint {}@{} != reference {}@{}",
                owner.name,
                checkpoint.digest,
                checkpoint.offset,
                gate::digest(stream),
                stream.lines().count()
            ));
        }
    }

    setup_s.extend(ctx.setup_probes(workload, &dir_arg, probes)?);

    if let Some(delta) = &delta {
        let verdicts = load.verdicts;
        let mut latencies = load.latencies_ms.clone();
        let p50 = percentile(&mut latencies, 0.5).unwrap_or(0.0);
        // The p50 split: each call kind timed on its own, and the waits
        // between the calls per verdict.
        let submit_us = span_p50_us(&spans, "submit");
        let tick_us = span_p50_us(&spans, "tick");
        let drain_us = span_p50_us(&spans, "drain");
        let wait_p50_us = |i: usize| {
            let mut waits: Vec<f64> = load.waits.iter().map(|w| w[i]).collect();
            percentile(&mut waits, 0.5).unwrap_or(0.0)
        };
        layers.insert("serve.submit_us", submit_us);
        layers.insert("serve.ingress_wait_ms", wait_p50_us(0) / 1e3);
        layers.insert("serve.tick_ms", tick_us / 1e3);
        layers.insert("serve.outbox_wait_us", wait_p50_us(1));
        layers.insert("serve.drain_us", drain_us);
        let predicted = predicted_p50_ms(submit_us, tick_us, drain_us);
        layers.insert(
            "trace.reconcile_err_frac",
            (predicted - p50).abs() / p50.max(1e-9),
        );
        layers.insert(
            "serve.tick_us_per_verdict",
            us(load.tick_total) / verdicts.max(1) as f64,
        );
        layers.insert(
            "serve.verdicts_per_tick",
            verdicts as f64 / load.ticks.max(1) as f64,
        );
        layers::engine_layers(&mut layers, delta, verdicts);
        layers::owner_layers(&mut layers, &stats_before, &stats_after, verdicts);
        if let Some(base) = &base {
            layers.insert(
                "trace.overhead_frac",
                1.0 - median_rate(&load.windows) / median_rate(&base.windows).max(1e-9),
            );
        }
        if let (Some(dir), Some((bytes0, records0))) = (&history, footprint_before) {
            let (bytes1, records1) = layers::store_footprint(dir);
            layers.insert(
                "store.bytes_per_verdict",
                bytes1.saturating_sub(bytes0) as f64 / verdicts.max(1) as f64,
            );
            layers.insert(
                "store.records_per_verdict",
                records1.saturating_sub(records0) as f64 / verdicts.max(1) as f64,
            );
            let lines: Vec<&str> = load
                .streams
                .iter()
                .flat_map(|s| s.lines())
                .take(4_000)
                .collect();
            let (append_us, sync_ms) = layers::store_probe(&ctx.work, &lines);
            layers.insert("store.append_us", append_us);
            layers.insert("store.sync_ms", sync_ms);
        }
    }

    let mut shape = vec![
        ("warm_journeys", WARM_JOURNEYS.to_string()),
        ("client_threads", "1".to_owned()),
        ("connections", "0 (in-process Service::handle)".to_owned()),
        ("owners", OWNERS.to_string()),
        ("tick_every", TICK_EVERY.to_string()),
        ("preset", PRESET.to_owned()),
        ("mechanism", MECHANISM.to_owned()),
        ("settle_workers", settle_workers.to_string()),
        ("check_workers", "1".to_owned()),
    ];
    if let Some(dir) = &history {
        shape.push(("state_dir_fs", host::filesystem_of(dir)));
        shape.push(("flush_policy", FLUSH_POLICY.to_owned()));
        shape.push(("history_journeys", WARM_JOURNEYS.to_string()));
    }
    Ok(Outcome {
        verdicts: load.verdicts,
        attempted: load.attempted,
        failed: load.attempted - load.accepted + load.dropped,
        elapsed: load.elapsed,
        latencies_ms: load.latencies_ms,
        latency_unit: "verdict",
        windows: load.windows,
        peak_rss_mb: load.peak_rss_mb,
        setup_s,
        layers,
        spans,
        telemetry: delta.unwrap_or_default(),
        shape,
    })
}
