//! The library reads no environment: with every variable it once read
//! into its defaults set to a non-default value, `RefgenConfig::default()`
//! is still the documented constants, `SweepPlan::new` still plans under
//! `OrderingMode::Auto`, and a default µA741 session still reproduces the
//! pinned coefficient fingerprint of `crates/core/tests/fingerprints.rs`.
//!
//! This is its own test binary so the variables are set in a process of
//! its own, before anything in it builds a configuration.

use refgen::mna::{MnaSystem, OrderingMode, PlanCache, SelectedOrdering};
use refgen::prelude::*;
use std::sync::Once;

/// The variables' suffixes, each with a value the old hooks honored.
const FORMER_HOOKS: [(&str, &str); 6] = [
    ("THREADS", "4"),
    ("EXECUTOR", "pool"),
    ("CONJ", "off"),
    ("LANES", "3"),
    ("ORDERING", "amd"),
    ("FAULTS", "9217"),
];

/// Sets every former hook variable once, before the first test body runs
/// (each test calls this first).
fn set_former_hooks() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        for (suffix, value) in FORMER_HOOKS {
            std::env::set_var(["REFGEN", "TEST", suffix].join("_"), value);
        }
    });
}

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

#[test]
fn default_config_is_the_documented_constants() {
    set_former_hooks();
    let c = RefgenConfig::default();
    assert_eq!(c.threads, 1);
    assert!(c.conjugate_mirror);
    assert_eq!(c.lane_width, 32);
    assert_eq!(c.ordering, OrderingMode::Auto);
    assert_eq!(c.fault_policy, FaultPolicy::FailFast);
    assert_eq!(c, RefgenConfig::builder().build());
}

#[test]
fn sweep_plans_select_auto() {
    set_former_hooks();
    let sys = MnaSystem::new(&library::ua741()).unwrap();
    let auto = SweepPlan::new_cached_with_ordering(
        &sys,
        Scale::unit(),
        &spec(),
        &PlanCache::new(),
        OrderingMode::Auto,
    )
    .unwrap()
    .ordering_choice();
    let plan = SweepPlan::new(&sys, Scale::unit(), &spec()).unwrap();
    assert_eq!(plan.ordering_choice(), auto);
    let choice = auto.expect("the µA741 probe factors");
    assert_eq!(choice.selected, SelectedOrdering::Markowitz);
    assert_eq!(choice.amd_fill, None, "Auto tries AMD only past the mesh fill threshold");
    let det = SweepPlan::for_determinant(&sys, Scale::unit());
    assert_eq!(det.ordering_choice(), auto);
}

/// FNV-1a over the coefficient bits, as `fingerprints.rs` hashes them.
fn coefficient_hash(nf: &NetworkFunction) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for poly in [&nf.denominator, &nf.numerator] {
        word(poly.coeffs().len() as u64);
        for c in poly.coeffs() {
            word(c.mantissa().re.to_bits());
            word(c.mantissa().im.to_bits());
            word(c.exponent() as u64);
        }
    }
    h
}

#[test]
fn default_ua741_session_reproduces_the_pinned_fingerprint() {
    set_former_hooks();
    let solution = Session::for_circuit(&library::ua741()).spec(spec()).solve().unwrap();
    assert_eq!(coefficient_hash(&solution.network), 0x6e1d_cde8_27b9_d60f);
    // The session sampled on one thread with mirroring on.
    let mut mirrored = 0;
    for d in solution.diagnostics() {
        if let Diagnostic::SamplingBatched { threads, mirrored: m, .. } = d {
            assert!(*threads <= 1, "sampled on {threads} threads");
            mirrored += m;
        }
    }
    assert!(mirrored > 0, "the default session mirrors");
}
