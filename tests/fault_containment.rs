//! The fault-containment acceptance tier: seeded faults through the
//! deterministic injection harness ([`refgen::mna::faults`]), contained
//! per variant, with the survivors proven **bit-identical** to a
//! fault-free run.
//!
//! The headline check: a 64-variant µA741 fleet with 4 seeded-singular
//! variants under [`FaultPolicy::Contain`] completes with exactly 60
//! [`VariantOutcome::Solved`] outcomes whose coefficients, recorded
//! diagnostics, and survivor-side accounting match a fault-free run of
//! just the 60 surviving circuits — across `threads ∈ {1, 4}` × lane
//! widths `∈ {1, 4, 8}` (inline and fanned variants, lane-chunked
//! sampling). A contained fleet's observer stream is the same at every
//! thread count and lane width. Under the default `FailFast` the same
//! fleet returns the first victim's error, exactly, and a fleet mixing
//! errors and panics fails the way its lowest-index failing variant
//! does, at any thread count.
//!
//! The victim sets are seeded, and every test runs each of its seeds in
//! turn. [`FaultPlan::seeded_variants`] never selects variant 0 — the
//! plan-cache warmer — so the cache is warmed identically with and
//! without faults.

mod support;

use refgen::exec::JobPanic;
use refgen::mna::faults::{self, FaultKind, FaultPlan};
use refgen::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

const FLEET: usize = 64;
const FAULTS: usize = 4;
const SEED: u64 = 20260808;

/// Seeds of the seeded-singular victim sets.
const VICTIM_SEEDS: [u64; 3] = [0xFA17, 9217, 424242];

/// Seeds of the scripted-panic victim sets.
const PANIC_SEEDS: [u64; 3] = [0x9A71C, 9217, 424242];

/// Fault plans are process-global; every test in this binary both
/// installs plans and runs fleets (which arm per-variant fault scopes),
/// so the bodies must not overlap in time.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

fn ua741_fleet() -> Vec<Circuit> {
    let base = library::ua741();
    VariantSet::new(Perturbation::all_relative(0.03), FLEET).seed(SEED).generate(&base).unwrap()
}

fn victims(seed: u64) -> Vec<usize> {
    FaultPlan::seeded_variants(seed, FLEET, FAULTS)
}

fn run_fleet(
    circuits: &[Circuit],
    threads: usize,
    lanes: usize,
    policy: FaultPolicy,
) -> Result<BatchRun, RefgenError> {
    Session::for_circuit(&circuits[0])
        .spec(spec())
        .config(
            RefgenConfig::builder()
                .verify(false)
                .threads(threads)
                .lane_width(lanes)
                .fault_policy(policy)
                .build(),
        )
        .variant_circuits(circuits)
        .solve_all()
}

/// The headline acceptance grid (see module docs), for every victim seed.
#[test]
fn contained_ua741_fleet_survivors_match_fault_free_run_bitwise() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let circuits = ua741_fleet();
    for seed in VICTIM_SEEDS {
        let victims = victims(seed);
        assert_eq!(victims.len(), FAULTS);
        assert!(!victims.contains(&0), "variant 0 warms the plan cache and must survive");

        // Fault-free reference: just the 60 surviving circuits, solved
        // with no plan installed. One configuration suffices — fault-free
        // bit-identity across configurations is `config_matrix.rs`'s tier.
        let survivors: Vec<Circuit> = circuits
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        let reference = run_fleet(&survivors, 1, 1, FaultPolicy::FailFast)
            .expect("fault-free survivor fleet solves");
        assert_eq!(reference.solutions().len(), FLEET - FAULTS);

        let _guard =
            faults::install(FaultPlan::new().fault_variants(&victims, FaultKind::Singular));
        for threads in [1, 4] {
            for lanes in [1, 4, 8] {
                let label = format!("seed {seed}: {threads}t/{lanes}l");
                let run = run_fleet(&circuits, threads, lanes, FaultPolicy::Contain)
                    .expect("contained fleet completes");
                assert_eq!(run.report.variants_attempted, FLEET, "{label}");
                assert_eq!(run.report.failed_variants, victims, "{label}");
                assert_eq!(run.outcomes.len(), FLEET, "{label}");
                for (i, outcome) in run.outcomes.iter().enumerate() {
                    assert_eq!(
                        outcome.is_solved(),
                        !victims.contains(&i),
                        "{label}: variant {i} on the wrong side of the fault line"
                    );
                }
                // Every victim died typed, not silently zero.
                for &v in &victims {
                    let error = run.outcomes[v].error().expect("victim has an error");
                    assert!(
                        !matches!(error, RefgenError::VariantPanicked { .. }),
                        "{label}: variant {v}: a seeded singularity must not panic, \
                         got {error:?}"
                    );
                }
                // Survivors: coefficients, recorded diagnostics and
                // survivor-side accounting are bit-identical to the
                // fault-free run, in fleet order. (The runtime-global
                // plan-cache counters are excluded: faulted variants
                // legitimately touch the shared cache before dying.)
                support::assert_same_fleet(&label, &reference, &run, false, false);
            }
        }
    }
}

/// A contained fleet streams the same observer events at any thread count
/// and lane width: each solved variant's diagnostics and then its
/// `VariantSolved`, in variant order, and nothing from a failed variant
/// (its `VariantOutcome::Failed` is the record). A 16-variant µA741 fleet
/// with 3 seeded-singular victims, compared as `Display` text.
#[test]
fn contained_fleet_streams_the_same_events_at_any_thread_count() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let circuits = &ua741_fleet()[..16];
    let victims = FaultPlan::seeded_variants(0xFA17, 16, 3);
    let _guard = faults::install(FaultPlan::new().fault_variants(&victims, FaultKind::Singular));
    let stream = |threads: usize, lanes: usize| {
        let mut observer = CollectObserver::new();
        let run = Session::for_circuit(&circuits[0])
            .spec(spec())
            .config(
                RefgenConfig::builder()
                    .verify(false)
                    .threads(threads)
                    .lane_width(lanes)
                    .fault_policy(FaultPolicy::Contain)
                    .build(),
            )
            .observer(&mut observer)
            .variant_circuits(circuits)
            .solve_all()
            .expect("contained fleet completes");
        assert_eq!(run.report.failed_variants, victims, "{threads}t/{lanes}l");
        // Each survivor's recorded diagnostics plus its `VariantSolved`.
        let survivors = run.solutions().iter().map(|s| s.diagnostics().count() + 1).sum::<usize>();
        (observer.events.iter().map(ToString::to_string).collect::<Vec<_>>(), survivors)
    };
    let (sequential, survivors) = stream(1, 1);
    for lanes in [1, 4, 8] {
        let (fanned, _) = stream(4, lanes);
        assert_eq!(fanned.len(), sequential.len(), "threads 4, lanes {lanes}: event counts");
        assert_eq!(fanned, sequential, "threads 4, lanes {lanes}");
    }
    assert_eq!(sequential.len(), survivors, "only survivors stream");
}

/// Under the default `FailFast`, the same seeded fleet aborts with the
/// first victim's error — byte-for-byte the error `Contain` records for
/// that variant — for every victim seed.
#[test]
fn failfast_returns_the_first_victims_error_exactly() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let circuits = ua741_fleet();
    for seed in VICTIM_SEEDS {
        let victims = victims(seed);
        let first = victims[0];
        let _guard =
            faults::install(FaultPlan::new().fault_variants(&victims, FaultKind::Singular));
        let contained =
            run_fleet(&circuits, 4, 4, FaultPolicy::Contain).expect("contained fleet completes");
        let expected = contained.outcomes[first].error().expect("first victim failed").clone();
        for (threads, lanes) in [(1, 1), (4, 4), (4, 8)] {
            let err = run_fleet(&circuits, threads, lanes, FaultPolicy::FailFast)
                .expect_err("fail-fast fleet aborts");
            assert_eq!(err, expected, "seed {seed}: {threads}t/{lanes}l");
        }
    }
}

/// How a fail-fast fleet ended: solved, its error, or its panic message.
fn fail_fast_ending(fleet: &[Circuit], threads: usize, lanes: usize) -> String {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_fleet(fleet, threads, lanes, FaultPolicy::FailFast)
    }));
    match run {
        Ok(Ok(_)) => "solved".to_string(),
        Ok(Err(error)) => format!("error: {error:?}"),
        Err(payload) => format!("panic: {}", JobPanic::from_payload(payload).message),
    }
}

/// Under `FailFast`, a fleet whose failures mix errors and panics ends the
/// way its lowest-index failing variant does, at any thread count and on
/// every run: an error on variant 3 wins over a panic on variant 20, and
/// of two panicking variants the lower index is the one re-raised, with
/// its own message.
#[test]
fn failfast_fails_the_same_way_at_any_thread_count() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let base = library::rc_ladder(6, 1e3, 1e-9);
    let fleet =
        VariantSet::new(Perturbation::all_relative(0.05), 24).seed(SEED).generate(&base).unwrap();
    let plans = [
        FaultPlan::new().fault_variant(3, FaultKind::Singular).fault_variant(20, FaultKind::Panic),
        FaultPlan::new().fault_variants(&[14, 17], FaultKind::Panic),
    ];
    let expected =
        ["error: Mna(Unrecoverable", "panic: injected fault: scripted panic for variant 14"];
    for (plan, expected) in plans.into_iter().zip(expected) {
        let _guard = faults::install(plan);
        let sequential = fail_fast_ending(&fleet, 1, 1);
        assert!(sequential.starts_with(expected), "threads 1 ended with {sequential}");
        for repetition in 0..4 {
            for lanes in [1, 4, 8] {
                assert_eq!(
                    fail_fast_ending(&fleet, 4, lanes),
                    sequential,
                    "threads 4, lanes {lanes}, repetition {repetition}"
                );
            }
        }
    }
}

/// Scripted job panics under `Contain`: quarantined into typed
/// [`RefgenError::VariantPanicked`] outcomes while every other variant's
/// solution stays bit-identical to a panic-free run — the pool's workers
/// keep draining.
#[test]
fn scripted_panics_are_quarantined_and_survivors_unperturbed() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let base = library::rc_ladder(6, 1e3, 1e-9);
    let fleet =
        VariantSet::new(Perturbation::all_relative(0.05), 24).seed(SEED).generate(&base).unwrap();
    for seed in PANIC_SEEDS {
        let panickers = FaultPlan::seeded_variants(seed, 24, 3);
        let survivors: Vec<Circuit> = fleet
            .iter()
            .enumerate()
            .filter(|(i, _)| !panickers.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        let reference =
            run_fleet(&survivors, 1, 1, FaultPolicy::FailFast).expect("panic-free fleet solves");

        let _guard = faults::install(FaultPlan::new().fault_variants(&panickers, FaultKind::Panic));
        for (threads, lanes) in [(1, 1), (4, 1), (4, 4)] {
            let label = format!("seed {seed}: {threads}t/{lanes}l");
            let run = run_fleet(&fleet, threads, lanes, FaultPolicy::Contain)
                .expect("contained fleet completes");
            assert_eq!(run.report.failed_variants, panickers, "{label}");
            for &v in &panickers {
                match run.outcomes[v].error() {
                    Some(RefgenError::VariantPanicked { message }) => assert!(
                        message.contains(&format!("scripted panic for variant {v}")),
                        "{label}: variant {v}: unexpected payload {message:?}"
                    ),
                    other => {
                        panic!("{label}: variant {v}: expected quarantined panic, got {other:?}")
                    }
                }
            }
            support::assert_same_fleet(&label, &reference, &run, false, false);
        }
    }
}

/// The recovery ladder end to end through a fleet: `ReplayZeroPivot`
/// victims lose their compiled replays but rungs 1–2 rescue every
/// point, so the whole fleet still solves — under either policy — and
/// the rescued variants emit [`Diagnostic::SolveRecovered`] while
/// keeping coefficients at interpolation accuracy.
#[test]
fn replay_faults_recover_in_ladder_and_emit_diagnostics() {
    let _exclusive = EXCLUSIVE.lock().unwrap();
    let base = library::rc_ladder(6, 1e3, 1e-9);
    let fleet =
        VariantSet::new(Perturbation::all_relative(0.05), 8).seed(SEED).generate(&base).unwrap();
    let clean = run_fleet(&fleet, 1, 1, FaultPolicy::FailFast).expect("clean fleet solves");

    let victim = 5usize;
    let _guard =
        faults::install(FaultPlan::new().fault_variant(victim, FaultKind::ReplayZeroPivot));
    // FailFast: recovery is not a failure, so the fleet still completes.
    let run = run_fleet(&fleet, 1, 1, FaultPolicy::FailFast).expect("recovered fleet completes");
    assert_eq!(run.report.variants, 8);
    let recovered: u64 = run.solutions()[victim]
        .diagnostics()
        .filter_map(|d| match d {
            Diagnostic::SolveRecovered { fresh, reordered } => Some(fresh + reordered),
            _ => None,
        })
        .sum();
    assert!(recovered > 0, "the victim's dead replays must surface as SolveRecovered events");
    for (i, (a, b)) in clean.solutions().iter().zip(run.solutions()).enumerate() {
        if i == victim {
            // Rung-1 rescues are fresh exact factorizations — same
            // answer to interpolation accuracy, not necessarily the
            // same bits (a fresh Markowitz order may differ from the
            // replayed one).
            for (x, y) in a.network.denominator.coeffs().iter().zip(b.network.denominator.coeffs())
            {
                let rel = ((*x - *y).norm() / y.norm()).to_f64();
                assert!(rel < 1e-9, "victim coefficient drifted: rel {rel:.2e}");
            }
        } else {
            support::assert_same_solution(&format!("non-victim {i}"), a, b, false);
        }
    }
}
