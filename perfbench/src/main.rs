//! `perfbench`: the end-to-end and per-layer benchmark of the refstate
//! owner service and fleet engine.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-closed --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Each run sets up its workload, measures it for `--seconds`, checks
//! every verdict against a reference (the correctness gate; a failed gate
//! exits 1 without printing a result), and prints the machine, the load
//! shape and the metrics with their units and sample counts. The last
//! stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod fleet;
mod gate;
mod host;
mod layers;
mod open;
mod serve;
mod stats;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use layers::{Layers, SpanRec};
use refstate_telemetry::MetricsSnapshot;
use stats::{latency_percentile, median, median_rate, Window};

/// The workloads, in the order the traced run falls back on them.
pub const WORKLOADS: [&str; 4] = ["serve-closed", "serve-durable", "serve-open", "fleet-mixed"];

/// Set-ups per untraced run; `setup_s` is their median.
pub const PROBES: usize = 7;

/// Of those, how many run before the load (the rest run after it, so the
/// median spans the run instead of one moment of it).
pub const PROBES_BEFORE: usize = 4;

/// Seconds each fallback slice of the traced run measures.
const SLICE_SECONDS: f64 = 1.5;

/// The end-to-end metrics of `--trace 0`, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("journeys_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_journey", "ms"),
];

/// The per-layer metrics of `--trace 1`, with units.
const PER_LAYER: [(&str, &str); 44] = [
    ("serve.submit_us", "us"),
    ("serve.ingress_wait_ms", "ms"),
    ("serve.tick_ms", "ms"),
    ("serve.tick_us_per_verdict", "us"),
    ("serve.outbox_wait_us", "us"),
    ("serve.drain_us", "us"),
    ("serve.verdicts_per_tick", "count"),
    ("driver.queue_age_p50_ms", "ms"),
    ("driver.queue_age_p99_ms", "ms"),
    ("driver.idle_skips_per_s", "1/s"),
    ("net.rtt_p50_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("mechanisms.journey_us_per_verdict", "us"),
    ("mechanisms.settle_batch_us_per_verdict", "us"),
    ("mechanisms.final_checks_per_verdict", "count"),
    ("vm.session_us_per_verdict", "us"),
    ("crypto.sign_us_per_verdict", "us"),
    ("crypto.verify_us_per_verdict", "us"),
    ("crypto.flush_verifications_per_verdict", "count"),
    ("core.replay_us_per_verdict", "us"),
    ("core.replay_cache.hit_rate", "1"),
    ("core.replay_cache.evictions", "count"),
    ("store.open_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("store.bytes_per_verdict", "B"),
    ("store.records_per_verdict", "count"),
    ("store.append_us", "us"),
    ("store.sync_ms", "ms"),
    ("fleet.keygen_ms", "ms"),
    ("fleet.unprotected.journey_p50_us", "us"),
    ("fleet.appraisal.journey_p50_us", "us"),
    ("fleet.framework.journey_p50_us", "us"),
    ("fleet.protocol.journey_p50_us", "us"),
    ("fleet.traces.journey_p50_us", "us"),
    ("fleet.chained.journey_p50_us", "us"),
    ("fleet.encapsulated.journey_p50_us", "us"),
    ("fleet.worker_busy_frac", "1"),
    ("fleet.queue_wait_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_frac", "1"),
    ("trace.reconcile_err_frac", "1"),
];

/// Largest tolerated gap between the p50 layer split and `verdict_p50`.
const RECONCILE_LIMIT: f64 = 0.10;

/// One run's settings, shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload's seed; all inputs derive from it.
    pub seed: u64,
    /// Length of the load phase.
    pub seconds: f64,
    /// Record per-layer spans and telemetry.
    pub traced: bool,
    /// Take `setup_s` samples in fresh processes.
    pub probes: bool,
    /// Corrupt the served output before the gate (proves the gate trips).
    pub corrupt: bool,
    /// Scratch directory for state dirs; removed after the run.
    pub work: PathBuf,
    /// Hardware parallelism.
    pub nproc: usize,
}

impl Ctx {
    /// Runs this binary with `args` (plus `--seed`) in a child process and
    /// returns its stdout; a non-zero exit is an error.
    pub fn child(&self, args: &[&str]) -> Result<String, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = Command::new(exe)
            .args(args)
            .args(["--seed", &self.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        if !output.status.success() {
            return Err(format!("child {args:?} exited with {}", output.status));
        }
        Ok(String::from_utf8_lossy(&output.stdout).into_owned())
    }

    /// Set-up times, in seconds, of `count` fresh processes that each
    /// set `workload` up (from process start until the first submission
    /// could be accepted) and exit. Empty when probes are off.
    pub fn setup_probes(
        &self,
        workload: &str,
        extra: &[String],
        count: usize,
    ) -> Result<Vec<f64>, String> {
        if !self.probes {
            return Ok(Vec::new());
        }
        (0..count)
            .map(|_| {
                let mut args = vec!["--probe", workload];
                args.extend(extra.iter().map(String::as_str));
                let out = self.child(&args)?;
                out.lines()
                    .filter_map(|l| l.strip_prefix("setup_s="))
                    .next_back()
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| format!("probe of {workload} printed no set-up time"))
            })
            .collect()
    }

    fn sub(&self, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seconds,
            traced,
            probes: false,
            ..self.clone()
        }
    }
}

/// What one workload run measured (after its correctness gate passed).
pub struct Outcome {
    /// Verdicts delivered (fleet: mechanism-journeys).
    pub verdicts: u64,
    /// Submissions attempted, refused attempts included.
    pub attempted: u64,
    /// Refused, dropped or errored submissions.
    pub failed: u64,
    /// Wall time of the load phase.
    pub elapsed: Duration,
    /// Latency samples, in ms.
    pub latencies_ms: Vec<f64>,
    /// What one latency sample is ("verdict" or "batch").
    pub latency_unit: &'static str,
    /// The load phase cut into windows.
    pub windows: Vec<Window>,
    /// Peak resident set at the end of the load phase, in MB.
    pub peak_rss_mb: f64,
    /// Set-up samples, in seconds.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Harness spans (traced runs).
    pub spans: Vec<SpanRec>,
    /// The program's telemetry delta over the load (traced runs).
    pub telemetry: MetricsSnapshot,
    /// The load shape, recorded with the result.
    pub shape: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Median over the load's windows of verdicts per wall second.
    fn journeys_per_s(&self) -> f64 {
        median_rate(&self.windows)
    }

    /// Median over the load's windows of process CPU ms per verdict.
    fn cpu_ms_per_journey(&self) -> f64 {
        let costs: Vec<f64> = self
            .windows
            .iter()
            .map(Window::cpu_ms_per_verdict)
            .collect();
        median(&costs).unwrap_or(0.0)
    }
}

/// Client threads (or fleet workers) a workload drives load with.
fn load_threads(workload: &str) -> usize {
    match workload {
        "serve-open" => open::CLIENT_THREADS,
        "fleet-mixed" => fleet::WORKERS,
        _ => 1,
    }
}

/// The workload a per-layer metric is measured on when the traced
/// workload does not drive that layer itself.
fn home(metric: &str) -> &'static str {
    if metric.starts_with("store.") || metric == "serve.restore_ms" {
        "serve-durable"
    } else if ["driver.", "net.", "wire.", "loadgen."]
        .iter()
        .any(|p| metric.starts_with(p))
    {
        "serve-open"
    } else if metric.starts_with("fleet.") {
        "fleet-mixed"
    } else {
        "serve-closed"
    }
}

fn run_workload(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "serve-closed" => serve::run(ctx, false),
        "serve-durable" => serve::run(ctx, true),
        "serve-open" => open::run(ctx),
        "fleet-mixed" => fleet::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the workload traced, an untraced baseline for
/// `trace.overhead_frac` (the serve closed loops measure theirs in
/// process, on the same warm service), and short traced slices of the
/// other workloads for the layers this one does not drive.
fn traced_run(
    workload: &'static str,
    ctx: &Ctx,
    out_dir: &Path,
) -> Result<(Outcome, Layers), String> {
    let traced = run_workload(workload, ctx)?;
    let mut layers = traced.layers.clone();
    let mut attempted = traced.attempted;
    let mut failed = traced.failed;
    // The serve closed loops measure their untraced baseline in process;
    // the others get a separate untraced run of a third of the time.
    if !layers.contains_key("trace.overhead_frac") {
        let base = run_workload(workload, &ctx.sub(ctx.seconds / 3.0, false))?;
        attempted += base.attempted;
        failed += base.failed;
        let overhead = if workload == "serve-open" {
            traced.cpu_ms_per_journey() / base.cpu_ms_per_journey().max(1e-12) - 1.0
        } else {
            1.0 - traced.journeys_per_s() / base.journeys_per_s().max(1e-12)
        };
        layers.insert("trace.overhead_frac", overhead);
    }
    let missing = |layers: &Layers| -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !layers.contains_key(name) && *name != "host.probe_ms")
            .collect()
    };
    let homes: BTreeSet<&'static str> = missing(&layers).into_iter().map(home).collect();
    for slice in WORKLOADS
        .iter()
        .filter(|w| homes.contains(*w) && **w != workload)
    {
        let outcome = run_workload(slice, &ctx.sub(SLICE_SECONDS, true))?;
        for name in missing(&layers) {
            if home(name) == *slice {
                if let Some(value) = outcome.layers.get(name) {
                    layers.insert(name, *value);
                }
            }
        }
    }
    if let Some(name) = missing(&layers).first() {
        return Err(format!("per-layer metric {name} was not measured"));
    }
    let reconcile = layers["trace.reconcile_err_frac"];
    if reconcile > RECONCILE_LIMIT {
        return Err(format!(
            "serve latency split does not reconcile with verdict_p50: off by {:.1}%",
            reconcile * 100.0
        ));
    }
    let path = out_dir.join(format!("{workload}-seed{}.trace.json", ctx.seed));
    layers::write_trace(&path, &traced.spans, &traced.telemetry)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    let combined = Outcome {
        attempted,
        failed,
        ..traced
    };
    Ok((combined, layers))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--corrupt]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Parses `--flag value` pairs (and the bare `--corrupt` / `--prep-history`
/// switches).
fn parse_args() -> Option<std::collections::HashMap<String, String>> {
    let mut args = std::env::args().skip(1);
    let mut map = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let key = flag.strip_prefix("--")?.to_owned();
        if key == "corrupt" || key == "prep-history" {
            map.insert(key, String::new());
        } else {
            map.insert(key, args.next()?);
        }
    }
    Some(map)
}

/// A child-process mode: one set-up probe, or writing a durable history.
fn child_mode(
    args: &std::collections::HashMap<String, String>,
    started: Instant,
    nproc: usize,
) -> ExitCode {
    let seed: u64 = match args.get("seed").and_then(|s| s.parse().ok()) {
        Some(seed) => seed,
        None => return usage(),
    };
    let dir = args.get("dir").map(PathBuf::from);
    let result = if args.contains_key("prep-history") {
        match &dir {
            Some(dir) => serve::prepare_history(seed, nproc, dir),
            None => Err("--prep-history needs --dir".into()),
        }
    } else {
        let ready = match args.get("probe").map(String::as_str) {
            Some("serve-closed") => serve::setup(seed, nproc, None, None).map(|_| ()),
            Some("serve-durable") => match &dir {
                Some(dir) => {
                    serve::setup(seed, nproc, Some(dir), Some(serve::WARM_JOURNEYS)).map(|_| ())
                }
                None => Err("durable probe needs --dir".into()),
            },
            Some("serve-open") => open::setup(seed, open::SETTLE_WORKERS).map(|_| ()),
            Some("fleet-mixed") => {
                fleet::setup(seed, fleet::WORKERS);
                Ok(())
            }
            _ => return usage(),
        };
        ready.map(|()| {
            println!("setup_s={:.9}", started.elapsed().as_secs_f64());
            // Exit without tearing the set-up down: the probe only times
            // how long it took to become ready.
            std::process::exit(0);
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let started = Instant::now();
    let nproc = host::nproc();
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.contains_key("probe") || args.contains_key("prep-history") {
        return child_mode(&args, started, nproc);
    }
    let workload = match args
        .get("workload")
        .and_then(|w| WORKLOADS.iter().find(|x| *x == w))
    {
        Some(workload) => *workload,
        None => return usage(),
    };
    let seed: Option<u64> = args.get("seed").and_then(|s| s.parse().ok());
    let seconds: Option<f64> = args.get("seconds").and_then(|s| s.parse().ok());
    let traced = match args.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let (Some(seed), Some(seconds)) = (seed, seconds.filter(|s| *s > 0.0)) else {
        return usage();
    };
    let threads = load_threads(workload);
    if threads > nproc {
        eprintln!(
            "perfbench: refusing {workload}: it drives load from {threads} threads but this machine has {nproc} cores"
        );
        return ExitCode::from(2);
    }
    // Pin the references to committed golden data before anything is
    // measured against them.
    if let Err(e) = gate::pin_oracle(nproc).and_then(|()| gate::pin_fleet_reference(nproc)) {
        eprintln!("perfbench: {workload} seed {seed}: correctness gate failed: {e}");
        return ExitCode::FAILURE;
    }
    let root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let work = root
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        probes: !traced,
        corrupt: args.contains_key("corrupt"),
        work: work.clone(),
        nproc,
    };
    println!(
        "perfbench: workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    );
    println!("pinned: the serve oracle and the fleet reference match their committed golden data");
    let probe_start = host::probe_ms();
    let result = if traced {
        traced_run(workload, &ctx, &root.join("out")).map(|(o, l)| (o, Some(l)))
    } else {
        run_workload(workload, &ctx).map(|o| (o, None))
    };
    let probe_end = host::probe_ms();
    let _ = std::fs::remove_dir_all(&work);
    // Removes the scratch root too once no other run is using it.
    let _ = std::fs::remove_dir(root.join(".work"));
    let (outcome, layers) = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {workload} seed {seed}: correctness gate failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The machine and the load shape.
    let mut context = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"nproc\":{nproc},\"load_threads\":{threads}",
        u8::from(traced)
    );
    for (key, value) in &outcome.shape {
        context.push_str(&format!(",\"{key}\":\"{}\"", json_escape(value)));
    }
    context.push_str(&format!(
        ",\"host_probe_ms\":[{probe_start:.3},{probe_end:.3}]}}"
    ));
    println!("context: {context}");
    let rates: Vec<String> = outcome
        .windows
        .iter()
        .map(|w| format!("{:.1}", w.rate()))
        .collect();
    let costs: Vec<String> = outcome
        .windows
        .iter()
        .map(|w| format!("{:.4}", w.cpu_ms_per_verdict()))
        .collect();
    println!(
        "windows: rate_per_s=[{}] cpu_ms_per_verdict=[{}]",
        rates.join(" "),
        costs.join(" ")
    );

    let n = outcome.verdicts;
    let samples = outcome.latencies_ms.len();
    let groups = stats::latency_groups(&outcome.windows).len();
    let latency_note = format!(
        "n={samples} {} latencies, nearest rank per group of >= {} samples, median of {groups} groups",
        outcome.latency_unit,
        stats::MIN_WINDOW_SAMPLES
    );
    let metrics: Vec<(&str, f64, &str, String)> = match &layers {
        None => vec![
            (
                "journeys_per_s",
                outcome.journeys_per_s(),
                "1/s",
                format!(
                    "n={n} verdicts over {:.3} s, median of {} windows",
                    outcome.elapsed.as_secs_f64(),
                    outcome.windows.len()
                ),
            ),
            (
                "verdict_p50_ms",
                latency_percentile(&outcome.latencies_ms, &outcome.windows, 0.50),
                "ms",
                latency_note.clone(),
            ),
            (
                "verdict_p99_ms",
                latency_percentile(&outcome.latencies_ms, &outcome.windows, 0.99),
                "ms",
                latency_note,
            ),
            (
                "setup_s",
                median(&outcome.setup_s).unwrap_or(0.0),
                "s",
                format!(
                    "n={} set-ups in fresh processes, median; in order: [{}]",
                    outcome.setup_s.len(),
                    outcome
                        .setup_s
                        .iter()
                        .map(|s| format!("{s:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            ),
            (
                "peak_rss_mb",
                outcome.peak_rss_mb,
                "MB",
                "n=1 process (VmHWM)".into(),
            ),
            (
                "cpu_ms_per_journey",
                outcome.cpu_ms_per_journey(),
                "ms",
                format!(
                    "n={n} verdicts, median of {} windows",
                    outcome.windows.len()
                ),
            ),
            (
                "failed_frac",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                "1",
                format!("n={} attempted", outcome.attempted),
            ),
        ],
        Some(layers) => {
            let mut layers = layers.clone();
            layers.insert("host.probe_ms", (probe_start + probe_end) / 2.0);
            PER_LAYER
                .iter()
                .map(|(name, unit)| (*name, layers[name], *unit, String::new()))
                .collect()
        }
    };
    for (name, value, unit, note) in &metrics {
        println!("  {name:<40} {value:>14.4} {unit:<6} {note}");
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a number");
            return ExitCode::FAILURE;
        }
    }
    println!("gate: pass — verdicts match the reference for seed {seed}");
    let listed: Vec<String> = metrics
        .iter()
        .filter(|(name, ..)| layers.is_some() || END_TO_END.iter().any(|(e, _)| e == name))
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        listed.join(", ")
    );
    ExitCode::SUCCESS
}
