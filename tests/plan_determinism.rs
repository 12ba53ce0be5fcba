//! The plan-determinism tier: a wide-tolerance fleet gives the same bits
//! at every thread count, run after run.
//!
//! A ±60 % µA741 fleet (every resistor, capacitor and transconductance
//! perturbed) spreads its variants' window scales over many plan cells.
//! Each cell's pivot order must be a function of the cache's anchor and
//! the cell alone: if it depended on which variant planned the cell first,
//! pool workers racing for a cell would record different orders from run
//! to run, and round-off-sized differences would appear in a few
//! variants' coefficients. Seeds 26, 38 and 39 did so under the old
//! first-miss-records cache in every four-thread run tried. Each seed
//! runs once on one thread and four times on four, and every four-thread
//! run must reproduce the one-thread run through
//! [`support::assert_same_fleet`], plan-cache counters included. Every
//! surviving variant is also held to the independent AC simulator.

mod support;

use refgen::mna::log_space;
use refgen::prelude::*;

/// Fleet seeds whose four-thread runs differed under first-miss plan
/// recording.
const SEEDS: [u64; 3] = [26, 38, 39];

/// Four-thread runs per seed.
const REPETITIONS: usize = 4;

/// Largest Bode deviation from the AC simulator a survivor may show (the
/// solver targets 6 significant digits; the survivors sit near 3e-7 dB
/// and 2e-6°).
const BODE_MAG_DB: f64 = 1e-5;
const BODE_PHASE_DEG: f64 = 1e-4;

fn gain() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

fn wide_variants(seed: u64) -> VariantSet {
    VariantSet::new(Perturbation::all_relative(0.6), 32).seed(seed)
}

fn wide_fleet(seed: u64, threads: usize) -> BatchRun {
    let config = RefgenConfig::builder()
        .threads(threads)
        .lane_width(4)
        .fault_policy(FaultPolicy::Contain)
        .build();
    Session::for_circuit(&library::ua741())
        .spec(gain())
        .config(config)
        .variants(wide_variants(seed))
        .solve_all()
        .expect("contained fleet runs")
}

#[test]
fn wide_tolerance_fleet_is_bit_identical_across_threads() {
    for seed in SEEDS {
        let reference = wide_fleet(seed, 1);
        for run in 0..REPETITIONS {
            let ctx = format!("seed {seed}, four-thread run {run}");
            support::assert_same_fleet(&ctx, &reference, &wide_fleet(seed, 4), false, true);
        }
    }
}

#[test]
fn wide_tolerance_fleet_survivors_match_the_ac_simulator() {
    let freqs = log_space(1.0, 1e9, 19);
    for seed in SEEDS {
        let circuits = wide_variants(seed).generate(&library::ua741()).unwrap();
        let run = wide_fleet(seed, 4);
        assert_eq!(run.outcomes.len(), circuits.len());
        for (i, (circuit, outcome)) in circuits.iter().zip(&run.outcomes).enumerate() {
            let Some(solution) = outcome.solution() else { continue };
            let rep = validate_against_ac(&solution.network, circuit, &gain(), &freqs).unwrap();
            assert!(
                rep.matches_within(BODE_MAG_DB, BODE_PHASE_DEG),
                "seed {seed}, variant {i}: {:.2e} dB / {:.2e}° from the AC simulator",
                rep.max_mag_err_db,
                rep.max_phase_err_deg
            );
        }
        assert!(run.solutions().len() >= 30, "seed {seed}: the fleet mostly survives");
    }
}
