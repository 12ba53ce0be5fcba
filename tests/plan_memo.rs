//! The symbolic-memo tier: a warm memo changes no output bit.
//!
//! `refgen_mna` keeps the value-independent half of plan building — AMD
//! orders and compiled `FactorProgram`s — in one process-wide memo, so a
//! process that plans a topology again and again orders and compiles it
//! only twice: the memo keeps a program from the second request for its
//! key on. Each test here clears the memo, runs a workload cold, once more
//! (the run whose programs the memo keeps) and then warm, and holds both
//! later runs to the cold one bit for bit: a default µA741
//! session, a four-thread ±60 % µA741 fleet (plan-cache counters
//! included) and a lane-batched AC sweep of a grid mesh that
//! adopts AMD. The memo's retained bytes stay within its budget
//! throughout.

mod support;

use refgen::mna::{clear_symbolic_memo, symbolic_memo_stats, AcAnalysis, SYMBOLIC_MEMO_BYTES};
use refgen::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests clear and count one process-wide memo, so they run one at
/// a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn gain() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

/// Runs `work` on a cleared memo, a second time, and a third on the memo
/// the second left, and returns the three results; asserts the cold run
/// built analyses and kept none, the second kept what it built, the warm
/// run built none, and the retained bytes stayed within the budget.
fn cold_then_warm<T>(work: impl Fn() -> T) -> [T; 3] {
    clear_symbolic_memo();
    let start = symbolic_memo_stats();
    let cold = work();
    let after_cold = symbolic_memo_stats();
    assert!(after_cold.misses > start.misses, "the cold run builds: {after_cold:?}");
    assert_eq!((after_cold.entries, after_cold.bytes), (0, 0), "and keeps nothing");
    let second = work();
    let after_second = symbolic_memo_stats();
    assert!(after_second.entries > 0, "the second run keeps: {after_second:?}");
    let warm = work();
    let after_warm = symbolic_memo_stats();
    assert_eq!(after_warm.misses, after_second.misses, "the warm run builds nothing");
    assert!(after_warm.hits > after_second.hits, "the warm run hits: {after_warm:?}");
    for stats in [after_cold, after_second, after_warm] {
        assert!(stats.bytes <= SYMBOLIC_MEMO_BYTES, "{stats:?}");
    }
    [cold, second, warm]
}

#[test]
fn ua741_session_is_bit_identical_on_a_cold_and_a_warm_memo() {
    let _serial = serial();
    let [cold, second, warm] =
        cold_then_warm(|| Session::for_circuit(&library::ua741()).spec(gain()).solve().unwrap());
    support::assert_same_solution("µA741 session, cold vs second run", &cold, &second, false);
    support::assert_same_solution("µA741 session, cold vs warm memo", &cold, &warm, false);
}

#[test]
fn four_thread_fleet_is_bit_identical_on_a_cold_and_a_warm_memo() {
    let _serial = serial();
    let config =
        RefgenConfig::builder().threads(4).lane_width(4).fault_policy(FaultPolicy::Contain).build();
    let fleet = || {
        Session::for_circuit(&library::ua741())
            .spec(gain())
            .config(config)
            .variants(VariantSet::new(Perturbation::all_relative(0.6), 24).seed(26))
            .solve_all()
            .expect("contained fleet runs")
    };
    let [cold, second, warm] = cold_then_warm(fleet);
    support::assert_same_fleet(
        "four-thread fleet, cold vs second run",
        &cold,
        &second,
        false,
        true,
    );
    support::assert_same_fleet("four-thread fleet, cold vs warm memo", &cold, &warm, false, true);
}

#[test]
fn amd_mesh_sweep_is_bit_identical_on_a_cold_and_a_warm_memo() {
    let _serial = serial();
    let mesh = library::grid_rc_mesh(16, 16, 77);
    let freqs = refgen::mna::log_space(1e6, 3e7, 24);
    let sweep = || {
        let ac = AcAnalysis::new(&mesh, gain()).unwrap();
        let points = ac.sweep_fast(&freqs, 8).unwrap();
        points
            .iter()
            .map(|p| (p.response.re.to_bits(), p.response.im.to_bits()))
            .collect::<Vec<_>>()
    };
    let [cold, second, warm] = cold_then_warm(sweep);
    assert_eq!(cold, second);
    assert_eq!(cold, warm);
}
