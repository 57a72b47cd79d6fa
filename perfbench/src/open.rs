//! `serve-open`: an open loop over loopback TCP.
//!
//! A fixed arrival schedule (`RATE` journeys/s, round-robin over the
//! owners) feeds an in-process [`Server`] whose default tick driver does
//! the pacing. One client thread submits on schedule over one lockstep
//! connection; the main thread drains every owner about once a
//! millisecond over a second connection. Latency runs from each
//! journey's *due* time to the drain that returned its verdict, so a
//! late generator is charged to the journeys behind it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use refstate_serve::{
    Client, OwnerStats, RejectReason, Request, Response, Server, TickDriverConfig,
};
use refstate_telemetry::{self as telemetry, TelemetryLevel};

use crate::gate::{self, OwnerSpec};
use crate::host;
use crate::layers::{self, record, Layers};
use crate::serve::{owner_specs, register, serve_config, MECHANISM, OWNERS, PRESET};
use crate::stats::{percentile, us, OpenLoopStats, Schedule, Windows};
use crate::{Ctx, Outcome, PROBES_BEFORE};

/// Arrivals per second: far below closed-loop capacity, so the backlog
/// never grows even on a slow run.
pub const RATE: f64 = 300.0;
/// Client threads (and connections) the open loop uses.
pub const CLIENT_THREADS: usize = 2;
/// Settle workers of the listening server: one, the service default, so
/// a tick leaves the other core to the connection threads.
pub const SETTLE_WORKERS: usize = 1;
/// Length of one measurement window: at `RATE`, 1 200 verdicts, enough
/// for each window's own p99 to have ten samples beyond it, so the tail
/// percentiles are medians over windows and one stalled window moves one
/// value, not the run's tail.
const WINDOW: Duration = Duration::from_secs(4);
/// Pause between drain rounds.
const DRAIN_POLL: Duration = Duration::from_millis(1);

/// A running server plus the two client connections.
pub struct Rig {
    server: Server,
    submitter: Client,
    drainer: Client,
}

fn call(client: &mut Client, request: Request) -> Result<Response, String> {
    client
        .call(&request)
        .map_err(|e| format!("transport failure: {e}"))
}

/// Set-up: bind the server on an ephemeral loopback port, start its tick
/// driver, connect both clients and register the owners.
pub fn setup(seed: u64, settle_workers: usize) -> Result<Rig, String> {
    let service = refstate_serve::Service::new(serve_config(seed, settle_workers, None));
    let mut server =
        Server::bind(service, "127.0.0.1:0").map_err(|e| format!("bind failed: {e}"))?;
    server.start_tick_driver(TickDriverConfig::default());
    let connect = || Client::connect(server.addr()).map_err(|e| format!("connect failed: {e}"));
    let mut submitter = connect()?;
    let drainer = connect()?;
    let mut failure = None;
    register(
        &mut |r| match call(&mut submitter, r) {
            Ok(reply) => reply,
            Err(e) => {
                failure = Some(e);
                Response::Error {
                    message: "transport".into(),
                }
            }
        },
        &owner_specs(seed),
        None,
    )
    .map_err(|e| failure.take().unwrap_or(e))?;
    Ok(Rig {
        server,
        submitter,
        drainer,
    })
}

/// What the submitting thread did.
#[derive(Default)]
struct Submitted {
    attempted: u64,
    refused: u64,
    per_owner: Vec<u64>,
    requests: Vec<Request>,
    responses: Vec<Response>,
}

fn submit_on_schedule(
    client: &mut Client,
    owners: &[OwnerSpec],
    schedule: Schedule,
    end: Instant,
    traced: bool,
    stats: &Mutex<OpenLoopStats>,
) -> Result<Submitted, String> {
    let mut out = Submitted {
        per_owner: vec![0; owners.len()],
        ..Submitted::default()
    };
    for k in 0u64.. {
        let due = schedule.due(k);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let i = (k % OWNERS as u64) as usize;
        let request = Request::Submit {
            owner: owners[i].name.clone(),
            journey: k / OWNERS as u64,
        };
        stats
            .lock()
            .expect("stats lock")
            .sent(&schedule, k, Instant::now());
        loop {
            out.attempted += 1;
            let reply = call(client, request.clone())?;
            if traced {
                out.requests.push(request.clone());
                out.responses.push(reply.clone());
            }
            match reply {
                Response::Accepted { .. } => break,
                Response::Rejected {
                    reason: RejectReason::QueueFull,
                    ..
                } => {
                    out.refused += 1;
                    if out.refused > 10_000 {
                        return Err("admission refused 10 000 times; the service is stuck".into());
                    }
                    std::thread::sleep(DRAIN_POLL);
                }
                other => return Err(format!("submission {k} failed: {other:?}")),
            }
        }
        out.per_owner[i] += 1;
    }
    Ok(out)
}

fn owner_stats(client: &mut Client, owners: &[OwnerSpec]) -> Result<Vec<OwnerStats>, String> {
    owners
        .iter()
        .map(|o| {
            match call(
                client,
                Request::Stats {
                    owner: o.name.clone(),
                },
            )? {
                Response::Stats(stats) => Ok(stats),
                other => Err(format!("stats of {} failed: {other:?}", o.name)),
            }
        })
        .collect()
}

/// Runs `serve-open`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let settle_workers = SETTLE_WORKERS;
    let owners = owner_specs(ctx.seed);
    let mut setup_s = ctx.setup_probes("serve-open", &[], PROBES_BEFORE)?;
    let Rig {
        server,
        mut submitter,
        mut drainer,
    } = setup(ctx.seed, settle_workers)?;
    let stats_before = owner_stats(&mut drainer, &owners)?;
    let telemetry_before = ctx.traced.then(|| {
        telemetry::set_level(TelemetryLevel::Counters);
        telemetry::snapshot()
    });

    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        rate: RATE,
    };
    let mut windows = Windows::new(WINDOW);
    let end = schedule.start + Duration::from_secs_f64(ctx.seconds);
    let open_stats = Mutex::new(OpenLoopStats::default());
    let done = AtomicBool::new(false);
    let mut streams = vec![String::new(); owners.len()];
    let mut drained = vec![0u64; owners.len()];
    let mut spans = Vec::new();
    let mut rtt_us: Vec<f64> = Vec::new();
    let mut drain_requests: Vec<Request> = Vec::new();
    let mut drain_responses: Vec<Response> = Vec::new();

    // One drain round over every owner; returns how many verdicts came
    // back.
    let mut drain_round =
        |drainer: &mut Client, last_verdict: &mut Instant| -> Result<u64, String> {
            let mut got = 0;
            for (i, owner) in owners.iter().enumerate() {
                let request = Request::Drain {
                    owner: owner.name.clone(),
                };
                let start = Instant::now();
                let reply = call(drainer, request.clone())?;
                let now = Instant::now();
                if ctx.traced {
                    record(&mut spans, schedule.start, "drain", start);
                }
                let Response::Verdicts(verdicts) = &reply else {
                    return Err(format!("drain of {} failed: {reply:?}", owner.name));
                };
                let mut open_stats = open_stats.lock().expect("stats lock");
                for verdict in verdicts {
                    if verdict.owner != owner.name {
                        return Err(format!(
                            "{} drained a verdict of {}",
                            owner.name, verdict.owner
                        ));
                    }
                    open_stats.drained(&schedule, verdict.journey * OWNERS as u64 + i as u64, now);
                    streams[i].push_str(&verdict.stream_line());
                    streams[i].push('\n');
                    drained[i] += 1;
                    got += 1;
                    *last_verdict = now;
                }
                drop(open_stats);
                if ctx.traced {
                    drain_requests.push(request);
                    drain_responses.push(reply);
                }
            }
            Ok(got)
        };

    let mut last_verdict = schedule.start;
    let mut total_drained = 0u64;
    let submitted = std::thread::scope(|scope| -> Result<Submitted, String> {
        let generator = {
            let (owners, open_stats, done) = (&owners, &open_stats, &done);
            let submitter = &mut submitter;
            scope.spawn(move || {
                let result =
                    submit_on_schedule(submitter, owners, schedule, end, ctx.traced, open_stats);
                done.store(true, Ordering::SeqCst);
                result
            })
        };
        let mut last_rtt = Instant::now();
        while !done.load(Ordering::SeqCst) {
            total_drained += drain_round(&mut drainer, &mut last_verdict)?;
            windows.progress(
                total_drained,
                open_stats.lock().expect("stats lock").latency_ms.len(),
            );
            if ctx.traced && last_rtt.elapsed() >= Duration::from_millis(20) {
                let start = Instant::now();
                call(
                    &mut drainer,
                    Request::Stats {
                        owner: owners[0].name.clone(),
                    },
                )?;
                rtt_us.push(us(start.elapsed()));
                last_rtt = Instant::now();
            }
            std::thread::sleep(DRAIN_POLL);
        }
        generator
            .join()
            .map_err(|_| "submitter thread panicked".to_owned())?
    })?;
    // Drain what is still settling behind the schedule's end.
    let expected: u64 = submitted.per_owner.iter().sum();
    let mut idle_since = Instant::now();
    while total_drained < expected {
        let got = drain_round(&mut drainer, &mut last_verdict)?;
        total_drained += got;
        if got > 0 {
            idle_since = Instant::now();
        } else if idle_since.elapsed() > Duration::from_secs(30) {
            return Err("no verdict drained for 30 s".into());
        }
        std::thread::sleep(DRAIN_POLL);
    }
    let elapsed = last_verdict.saturating_duration_since(schedule.start);
    let windows = windows.finish(
        total_drained,
        open_stats.lock().expect("stats lock").latency_ms.len(),
    );
    let peak_rss_mb = host::peak_rss_mb();

    let reply = call(&mut submitter, Request::Shutdown)?;
    if !matches!(reply, Response::ShuttingDown { .. }) {
        return Err(format!("shutdown failed: {reply:?}"));
    }
    let stats_after = owner_stats(&mut drainer, &owners)?;
    let mut leftover = 0;
    for owner in &owners {
        if let Response::Verdicts(v) = call(
            &mut drainer,
            Request::Drain {
                owner: owner.name.clone(),
            },
        )? {
            leftover += v.len() as u64;
        }
    }
    drop(submitter);
    drop(drainer);
    server.join();
    // The server's connection and driver threads flush their telemetry
    // when they exit, so the delta is read after the join.
    let delta = telemetry_before.map(|before| {
        let delta = telemetry::snapshot().delta_since(&before);
        telemetry::set_level(TelemetryLevel::Off);
        delta
    });

    // The correctness gate.
    let accepted: u64 = submitted.per_owner.iter().sum();
    let verdicts: u64 = drained.iter().sum();
    let verified: u64 = stats_after.iter().map(|s| s.verified).sum::<u64>()
        - stats_before.iter().map(|s| s.verified).sum::<u64>();
    if accepted != verdicts || verified != verdicts || leftover != 0 {
        return Err(format!(
            "accepted {accepted}, service verified {verified}, drained {verdicts}, {leftover} left over"
        ));
    }
    let ranges: Vec<_> = submitted.per_owner.iter().map(|&n| 0..n).collect();
    let reference = gate::reference_streams(&owners, &ranges, ctx.nproc);
    if ctx.corrupt {
        gate::corrupt(&mut streams[0]);
    }
    gate::compare_streams(&owners, &streams, &reference)?;

    setup_s.extend(ctx.setup_probes("serve-open", &[], crate::PROBES - PROBES_BEFORE)?);

    let open_stats = open_stats.into_inner().expect("stats lock");
    let mut layers = Layers::new();
    if let Some(delta) = &delta {
        let age = layers::histogram(delta, "serve.tick_driver.queue_age_us");
        layers.insert("driver.queue_age_p50_ms", age.quantile(0.50) as f64 / 1e3);
        layers.insert("driver.queue_age_p99_ms", age.quantile(0.99) as f64 / 1e3);
        layers.insert(
            "driver.idle_skips_per_s",
            delta.counter_total("serve.tick_driver.idle_skips") as f64
                / elapsed.as_secs_f64().max(1e-9),
        );
        layers.insert(
            "net.rtt_p50_us",
            percentile(&mut rtt_us.clone(), 0.50).unwrap_or(0.0),
        );
        layers.insert(
            "net.rtt_p99_us",
            percentile(&mut rtt_us, 0.99).unwrap_or(0.0),
        );
        let mut requests = submitted.requests;
        let mut responses = submitted.responses;
        requests.extend(drain_requests);
        responses.extend(drain_responses);
        let (encode_ns, decode_ns) = layers::wire_probe(&requests, &responses);
        layers.insert("wire.encode_ns", encode_ns);
        layers.insert("wire.decode_ns", decode_ns);
        layers.insert("loadgen.late_p99_ms", open_stats.late_p99_ms());
        layers::engine_layers(&mut layers, delta, verdicts);
        layers::owner_layers(&mut layers, &stats_before, &stats_after, verdicts);
    }

    let shape = vec![
        ("client_threads", CLIENT_THREADS.to_string()),
        ("connections", "2 (loopback TCP: submit, drain)".to_owned()),
        ("owners", OWNERS.to_string()),
        ("arrival_rate_per_s", format!("{RATE}")),
        ("preset", PRESET.to_owned()),
        ("mechanism", MECHANISM.to_owned()),
        (
            "tick_driver",
            "interval 1 ms, batch_min 16, max_age 5 ms".to_owned(),
        ),
        ("settle_workers", settle_workers.to_string()),
        ("check_workers", "1".to_owned()),
    ];
    Ok(Outcome {
        verdicts,
        attempted: submitted.attempted,
        failed: submitted.refused,
        elapsed,
        latencies_ms: open_stats.latency_ms,
        latency_unit: "verdict",
        windows,
        peak_rss_mb,
        setup_s,
        layers,
        spans,
        telemetry: delta.unwrap_or_default(),
        shape,
    })
}
