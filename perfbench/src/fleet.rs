//! `fleet-mixed`: the batch fleet engine on the `mixed` preset with every
//! registered mechanism.
//!
//! The load is a sequence of [`run_fleet`] batches of `BATCH` scenarios,
//! each with its own seed derived from the run's, until `--seconds` have
//! passed. A fleet's verdict is the `FleetReport` a batch returns, so the
//! latency sample is a batch's wall time, timed around the call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use refstate_fleet::scenario::{scenario_seed, Preset};
use refstate_fleet::{run_fleet, FleetConfig, MechanismRegistry};
use refstate_telemetry::{self as telemetry, TelemetryLevel};

use crate::gate;
use crate::host;
use crate::layers::{self, record, Layers};
use crate::stats::{ms, nearest_rank, us, Windows};
use crate::{Ctx, Outcome, PROBES_BEFORE};

/// Scenarios per `run_fleet` batch.
pub const BATCH: u64 = 200;
/// Fleet workers. One: with two workers on a two-core machine the
/// engine's collector thread and the workers contend for the cores, and
/// run-to-run spread doubled.
pub const WORKERS: usize = 1;
/// The reference re-runs use every core (the report is invariant in the
/// worker count as well as in the replay cache).
fn reference_workers() -> usize {
    crate::host::nproc()
}
/// The mechanisms whose per-journey p50 the traced run reports: the ones
/// whose topology the `mixed` preset generates.
pub const MIXED_MECHANISMS: [&str; 7] = [
    "unprotected",
    "appraisal",
    "framework",
    "protocol",
    "traces",
    "chained",
    "encapsulated",
];

/// The fleet configuration of batch `batch` (seed derived from the run's
/// seed). `replay_cache = false` is the reference configuration.
pub fn config(
    seed: u64,
    batch: u64,
    workers: usize,
    replay_cache: bool,
    scenarios: u64,
) -> FleetConfig {
    FleetConfig {
        scenarios,
        workers,
        seed: scenario_seed(seed, 0xf1ee_7000 + batch),
        preset: Preset::Mixed,
        mechanisms: MechanismRegistry::builtin().all(),
        replay_cache,
        ..FleetConfig::default()
    }
}

/// The fleet's set-up: a batch of zero scenarios, which generates and
/// pre-warms the key pool and starts and joins the workers.
pub fn setup(seed: u64, workers: usize) {
    run_fleet(&config(seed, 0, workers, true, 0));
}

/// Runs `fleet-mixed`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let workers = WORKERS;
    let mut setup_s = ctx.setup_probes("fleet-mixed", &[], PROBES_BEFORE)?;
    let telemetry_before = ctx.traced.then(|| {
        telemetry::set_level(TelemetryLevel::Counters);
        telemetry::snapshot()
    });
    let mut spans = Vec::new();
    let mut digests = Vec::new();
    let mut batch_ms = Vec::new();
    let mut journeys = 0u64;
    let mut per_mechanism: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut windows = Windows::new(Duration::from_secs(1));
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    for batch in 0u64.. {
        let start = Instant::now();
        let run = run_fleet(&config(ctx.seed, batch, workers, true, BATCH));
        batch_ms.push(ms(start.elapsed()));
        if ctx.traced {
            record(&mut spans, origin, "run_fleet", start);
            for result in &run.results {
                for mechanism_run in &result.runs {
                    per_mechanism
                        .entry(mechanism_run.mechanism)
                        .or_default()
                        .push(mechanism_run.latency);
                }
            }
        }
        if run.results.len() as u64 != BATCH {
            return Err(format!(
                "batch {batch} returned {} of {BATCH} scenarios",
                run.results.len()
            ));
        }
        journeys += run.results.iter().map(|r| r.runs.len() as u64).sum::<u64>();
        windows.close(journeys, batch_ms.len());
        hits += run.timing.replay.hits;
        misses += run.timing.replay.misses;
        evictions += run.timing.replay.evictions;
        digests.push(gate::digest(&run.report.to_json()));
        if Instant::now() >= deadline {
            break;
        }
    }
    let elapsed = origin.elapsed();
    let windows = windows.finish(journeys, batch_ms.len());
    let peak_rss_mb = host::peak_rss_mb();
    let delta = telemetry_before.map(|before| {
        let delta = telemetry::snapshot().delta_since(&before);
        telemetry::set_level(TelemetryLevel::Off);
        delta
    });

    // The correctness gate: every batch's report must match the same
    // batch re-run with the replay cache off.
    if ctx.corrupt {
        digests[0] = gate::digest("corrupt");
    }
    for (batch, served) in digests.iter().enumerate() {
        let reference = run_fleet(&config(
            ctx.seed,
            batch as u64,
            reference_workers(),
            false,
            BATCH,
        ));
        let want = gate::digest(&reference.report.to_json());
        if *served != want {
            return Err(format!(
                "batch {batch}: FleetReport digest {served} != reference {want} (replay cache off)"
            ));
        }
    }

    setup_s.extend(ctx.setup_probes("fleet-mixed", &[], crate::PROBES - PROBES_BEFORE)?);

    let mut layers = Layers::new();
    if let Some(delta) = &delta {
        let batches = batch_ms.len().max(1) as f64;
        layers.insert(
            "fleet.keygen_ms",
            layers::total_us(delta, "fleet.keygen") / 1e3 / batches,
        );
        for name in MIXED_MECHANISMS {
            let mut latencies = per_mechanism.remove(name).unwrap_or_default();
            latencies.sort_unstable();
            if let Some(p50) = nearest_rank(&latencies, 0.5) {
                layers.insert(fleet_metric(name), us(p50));
            }
        }
        let busy_us = delta.counter_total("fleet.worker.busy_us") as f64;
        let wall_us = batch_ms.iter().sum::<f64>() * 1e3;
        layers.insert(
            "fleet.worker_busy_frac",
            busy_us / (wall_us * workers as f64).max(1e-9),
        );
        let (waits, wait_ns) = layers::totals(delta, "fleet.queue_wait");
        layers.insert(
            "fleet.queue_wait_us",
            wait_ns as f64 / 1e3 / waits.max(1) as f64,
        );
        layers::engine_layers(&mut layers, delta, journeys);
        layers.insert(
            "core.replay_cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.insert("core.replay_cache.evictions", evictions as f64);
    }

    let shape = vec![
        ("fleet_workers", workers.to_string()),
        ("batch_scenarios", BATCH.to_string()),
        ("preset", "mixed".to_owned()),
        ("mechanisms", "all registered (9)".to_owned()),
        ("key_pool", FleetConfig::default().key_pool.to_string()),
        ("replay_cache", "on (reference: off, every core)".to_owned()),
        ("check_workers", "1".to_owned()),
    ];
    Ok(Outcome {
        verdicts: journeys,
        attempted: journeys,
        failed: 0,
        elapsed,
        latencies_ms: batch_ms,
        latency_unit: "batch",
        windows,
        peak_rss_mb,
        setup_s,
        layers,
        spans,
        telemetry: delta.unwrap_or_default(),
        shape,
    })
}

/// The per-layer metric name of one mechanism's journey p50.
pub fn fleet_metric(mechanism: &str) -> &'static str {
    match mechanism {
        "unprotected" => "fleet.unprotected.journey_p50_us",
        "appraisal" => "fleet.appraisal.journey_p50_us",
        "framework" => "fleet.framework.journey_p50_us",
        "protocol" => "fleet.protocol.journey_p50_us",
        "traces" => "fleet.traces.journey_p50_us",
        "chained" => "fleet.chained.journey_p50_us",
        "encapsulated" => "fleet.encapsulated.journey_p50_us",
        _ => "fleet.other.journey_p50_us",
    }
}
