//! The correctness gate: every run's verdicts are checked against a
//! reference before any number is printed.
//!
//! For the serve workloads the reference is an *oracle* stream: each
//! journey the run submitted is re-derived from its owner's registration
//! and judged alone through the plain, unbatched
//! [`ProtectionMechanism::run`] path — fresh hosts and key directory, an
//! uncached pipeline, no shared event log — then formatted as the
//! service's canonical stream line. None of the served path's machinery
//! (admission, ticks, the amortized owner batch, the replay cache, the
//! store) is involved, so a fault in any of it shows as a digest
//! mismatch. For the fleet workload the reference is the same batch
//! re-run with the replay cache off; both must produce a byte-identical
//! `FleetReport`.
//!
//! Both references run code the benchmark also measures (the mechanisms,
//! the VM, the crypto), so a change there could move served output and
//! reference alike. Every run therefore first pins its reference to data
//! the code under test did not produce: the oracle must reproduce the
//! service's committed golden stream, and the cache-off fleet the fleet
//! engine's committed golden report.

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::host_directory;
use refstate_crypto::{DsaKeyPair, DsaParams};
use refstate_fleet::scenario::{self, Preset};
use refstate_fleet::{run_fleet, FleetConfig};
use refstate_mechanisms::api::{
    JourneyCtx, JourneyVerdict, MechanismConfig, MechanismRegistry, ProtectionMechanism,
};
use refstate_platform::{EventLog, Host};
use refstate_serve::VerdictReply;

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest of a stream text, formatted like the service's stream
/// checkpoints (`{:016x}`).
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_BASIS, text.as_bytes()))
}

/// One tenant's registration, as the harness registered it.
#[derive(Debug, Clone)]
pub struct OwnerSpec {
    /// Tenant name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Scenario preset.
    pub preset: Preset,
    /// Mechanism name.
    pub mechanism: String,
}

/// The oracle verdict line of one journey.
fn oracle_line(
    owner: &OwnerSpec,
    mechanism: &dyn ProtectionMechanism,
    keys: &[DsaKeyPair],
    journey: u64,
) -> String {
    let generated = scenario::generate(owner.seed, journey, owner.preset);
    let has_spares = generated
        .specs
        .iter()
        .any(|spec| !generated.route.contains(&spec.id));
    let compatible = mechanism
        .profile()
        .compatible_with(generated.stages.is_some(), has_spares);
    let verdict = if compatible {
        // Every host gets a distinct key; verdicts do not depend on which
        // registered key a host signs with.
        let mut hosts: Vec<Host> = generated
            .specs
            .iter()
            .enumerate()
            .map(|(pos, spec)| {
                let session_seed =
                    scenario::scenario_seed(owner.seed, journey ^ ((pos as u64 + 1) << 48));
                Host::with_keys(spec.clone(), keys[pos % keys.len()].clone(), session_seed)
            })
            .collect();
        let directory = host_directory(&hosts);
        let config = MechanismConfig {
            check_workers: 1,
            ..MechanismConfig::default()
        };
        let log = EventLog::new();
        let ctx_seed = scenario::scenario_seed(owner.seed, journey ^ (1u64 << 63));
        let mut ctx = JourneyCtx::new(
            &mut hosts,
            generated.route.clone(),
            generated.agent.clone(),
            &directory,
            &config,
            &log,
            ctx_seed,
        );
        if let Some(stages) = &generated.stages {
            ctx = ctx.with_stages(stages.clone());
        }
        mechanism.run(&mut ctx)
    } else {
        JourneyVerdict::clean(false)
    };
    VerdictReply {
        owner: owner.name.clone(),
        journey,
        mechanism: mechanism.name().to_owned(),
        detected: verdict.detected,
        accused: verdict
            .accused
            .iter()
            .map(|h| h.as_str().to_owned())
            .collect(),
        completed: verdict.completed,
        infra_error: verdict.infra_error,
    }
    .stream_line()
}

/// The oracle stream of each owner over its journey range (one
/// `line\n` per journey, in journey order), computed on `threads`
/// threads.
///
/// # Panics
///
/// Panics on an unknown mechanism name.
pub fn reference_streams(
    owners: &[OwnerSpec],
    ranges: &[Range<u64>],
    threads: usize,
) -> Vec<String> {
    let registry = MechanismRegistry::builtin();
    let mechanisms: Vec<Arc<dyn ProtectionMechanism>> = owners
        .iter()
        .map(|o| registry.get(&o.mechanism).expect("known mechanism"))
        .collect();
    let params = DsaParams::test_group_256();
    let mut rng = StdRng::seed_from_u64(0x0_7ac1e);
    let keys: Vec<DsaKeyPair> = (0..48)
        .map(|_| DsaKeyPair::generate(&params, &mut rng))
        .collect();
    for key in &keys {
        key.public().precompute();
    }
    let jobs: Vec<(usize, u64)> = ranges
        .iter()
        .enumerate()
        .flat_map(|(owner, range)| range.clone().map(move |journey| (owner, journey)))
        .collect();
    let threads = threads.max(1);
    let mut lines: Vec<Option<String>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let chunks: Vec<_> = (0..threads)
            .map(|t| {
                let (jobs, mechanisms, keys) = (&jobs, &mechanisms, &keys);
                scope.spawn(move || {
                    (t..jobs.len())
                        .step_by(threads)
                        .map(|i| {
                            let (owner, journey) = jobs[i];
                            let line = oracle_line(
                                &owners[owner],
                                mechanisms[owner].as_ref(),
                                keys,
                                journey,
                            );
                            (i, line)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for chunk in chunks {
            for (i, line) in chunk.join().expect("reference worker") {
                lines[i] = Some(line);
            }
        }
    });
    let mut streams = vec![String::new(); owners.len()];
    for ((owner, _), line) in jobs.iter().zip(lines) {
        streams[*owner].push_str(&line.expect("every job ran"));
        streams[*owner].push('\n');
    }
    streams
}

/// The service's committed golden stream: the lockstep soak's 4 owners ×
/// 12 journeys at seed 42 on the `mixed` preset with `protocol`, grouped
/// by owner.
const GOLDEN_SOAK_STREAM: &str =
    include_str!("../../crates/serve/tests/golden/soak_mixed_seed42.stream");

/// The fleet engine's committed seed-42 `mixed` report.
const GOLDEN_FLEET_REPORT: &str =
    include_str!("../../crates/fleet/tests/fixtures/seed42_mixed_report.json");

/// The oracle streams of the service's golden soak shape (see
/// [`GOLDEN_SOAK_STREAM`]) for `preset` and `mechanism`, concatenated.
pub fn golden_soak_reference(preset: Preset, mechanism: &str, threads: usize) -> String {
    let config = refstate_serve::SoakConfig::default();
    let owners: Vec<OwnerSpec> = (0..config.owners)
        .map(|i| OwnerSpec {
            name: refstate_serve::SoakConfig::owner_name(i),
            seed: config.owner_seed(i),
            preset,
            mechanism: mechanism.into(),
        })
        .collect();
    reference_streams(&owners, &vec![0..12; config.owners], threads).concat()
}

/// Pins the serve oracle: it must reproduce the committed golden stream.
pub fn pin_oracle(threads: usize) -> Result<(), String> {
    let oracle = golden_soak_reference(Preset::Mixed, "protocol", threads);
    compare_pinned("serve oracle", &oracle, GOLDEN_SOAK_STREAM)
}

/// Pins the fleet reference: the seed-42 `mixed` fleet of the committed
/// golden report, run with the replay cache off as the reference re-runs
/// are, must reproduce that report.
pub fn pin_fleet_reference(workers: usize) -> Result<(), String> {
    let report = run_fleet(&FleetConfig {
        scenarios: 120,
        workers,
        seed: 42,
        preset: Preset::Mixed,
        key_pool: 16,
        replay_cache: false,
        ..FleetConfig::default()
    })
    .report
    .to_json();
    compare_pinned(
        "fleet reference",
        &format!("{report}\n"),
        GOLDEN_FLEET_REPORT,
    )
}

fn compare_pinned(what: &str, got: &str, golden: &str) -> Result<(), String> {
    if got == golden {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(golden.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
    Err(format!(
        "{what} digest {} != committed golden {} (first difference at line {line})",
        digest(got),
        digest(golden)
    ))
}

/// Compares served per-owner streams with reference streams. On a
/// mismatch, names the owner and the first differing line.
pub fn compare_streams(
    owners: &[OwnerSpec],
    served: &[String],
    reference: &[String],
) -> Result<(), String> {
    for (i, owner) in owners.iter().enumerate() {
        let (got, want) = (&served[i], &reference[i]);
        if digest(got) == digest(want) {
            continue;
        }
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        return Err(match mismatch {
            Some((n, (g, w))) => format!(
                "{}: verdict stream digest {} != reference {}; line {n}: served `{g}`, reference `{w}`",
                owner.name,
                digest(got),
                digest(want)
            ),
            None => format!(
                "{}: {} served verdict lines, reference has {}",
                owner.name,
                got.lines().count(),
                want.lines().count()
            ),
        });
    }
    Ok(())
}

/// Flips the `detected` flag of the first verdict in `stream` — the
/// deliberate corruption `--corrupt` applies to prove the gate trips.
pub fn corrupt(stream: &mut String) {
    let flipped = if let Some(at) = stream.find("detected=true") {
        stream.replace_range(at..at + "detected=true".len(), "detected=false");
        true
    } else if let Some(at) = stream.find("detected=false") {
        stream.replace_range(at..at + "detected=false".len(), "detected=true");
        true
    } else {
        false
    };
    if !flipped {
        stream.push_str("corrupt\n");
    }
}

#[cfg(test)]
// One owner's journey range is a one-element list of ranges.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    fn owner(name: &str, seed: u64) -> OwnerSpec {
        OwnerSpec {
            name: name.into(),
            seed,
            preset: Preset::Mixed,
            mechanism: "protocol".into(),
        }
    }

    #[test]
    fn digest_matches_the_service_checkpoint_format() {
        assert_eq!(digest(""), format!("{FNV_BASIS:016x}"));
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn reference_is_deterministic_and_thread_count_invariant() {
        let owners = vec![owner("owner-0", 5), owner("owner-1", 6)];
        let ranges = vec![0..6, 3..7];
        let one = reference_streams(&owners, &ranges, 1);
        let three = reference_streams(&owners, &ranges, 3);
        assert_eq!(one, three);
        assert_eq!(one[0].lines().count(), 6);
        assert!(one[1].starts_with("owner-1 3 protocol "));
        compare_streams(&owners, &one, &three).expect("identical streams pass");
    }

    #[test]
    fn a_corrupted_stream_trips_the_gate() {
        let owners = vec![owner("owner-0", 9)];
        let reference = reference_streams(&owners, &[0..4], 2);
        let mut served = reference.clone();
        corrupt(&mut served[0]);
        let error = compare_streams(&owners, &served, &reference).unwrap_err();
        assert!(error.contains("owner-0: verdict stream digest"), "{error}");
    }

    #[test]
    fn a_short_stream_trips_the_gate() {
        let owners = vec![owner("owner-0", 9)];
        let reference = reference_streams(&owners, &[0..3], 1);
        let served = vec![reference[0]
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect()];
        let error = compare_streams(&owners, &served, &reference).unwrap_err();
        assert!(
            error.contains("2 served verdict lines, reference has 3"),
            "{error}"
        );
    }

    #[test]
    fn oracle_matches_the_services_golden_streams() {
        pin_oracle(2).expect("mixed golden");
        assert_eq!(
            golden_soak_reference(Preset::Cooperating, "cooperating", 2),
            include_str!("../../crates/serve/tests/golden/soak_cooperating_seed42.stream")
        );
    }

    #[test]
    fn cache_off_fleet_matches_the_golden_report() {
        pin_fleet_reference(2).expect("mixed golden report");
    }

    #[test]
    fn a_pinned_reference_that_drifts_is_refused() {
        let mut drifted = GOLDEN_SOAK_STREAM.to_owned();
        corrupt(&mut drifted);
        let error = compare_pinned("serve oracle", &drifted, GOLDEN_SOAK_STREAM).unwrap_err();
        assert!(error.contains("first difference at line 0"), "{error}");
    }
}
