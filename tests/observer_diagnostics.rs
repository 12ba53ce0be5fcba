//! Observer acceptance: typed [`Diagnostic`] events fire live during a
//! µA741-class adaptive run and a value-cancellation run, and the streamed
//! events equal the trail recorded in the returned `Solution`.

use refgen::prelude::*;

mod support;

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

#[test]
fn diagnostics_stream_on_ua741_run() {
    let circuit = library::ua741();
    let mut obs = CollectObserver::new();
    let solution = Session::for_circuit(&circuit)
        .spec(spec())
        .config(RefgenConfig::builder().verify(false).build())
        .observer(&mut obs)
        .solve()
        .expect("µA741 recovers");

    // One WindowOpened per interpolation; the µA741 denominator alone needs
    // several windows to tile hundreds of decades of coefficient spread.
    let windows = obs.count_where(|d| matches!(d, Diagnostic::WindowOpened { .. }));
    assert!(windows >= 3, "got {windows} WindowOpened events");
    // The structural order bound holds the true degree, and on the µA741
    // it is tight: the ascent ends at the bound, with nothing left for
    // stall detection to declare zero.
    let report = &solution.network.report.denominator;
    assert!(report.order_bound >= solution.network.denominator.degree().expect("non-trivial"));
    assert_eq!(
        obs.count_where(|d| matches!(d, Diagnostic::CoefficientsDeclaredZero { .. })),
        0,
        "{:?}",
        obs.events
    );
    // The live stream and the Solution's recorded trail are the same, in
    // the same order (denominator recovery first, then numerator).
    let recorded: Vec<Diagnostic> = solution.diagnostics().cloned().collect();
    assert_eq!(obs.events, recorded);
}

/// A downstream `Observer` implementation (not one of the library-provided
/// ones) proving the trait is implementable outside the crate and receives
/// per-kind callbacks.
#[derive(Default)]
struct KindCounts {
    windows: usize,
    declared_zero: usize,
    gap_repaired: usize,
    cross_check: usize,
    all_zero: usize,
    other: usize,
}

impl Observer for KindCounts {
    fn on_diagnostic(&mut self, d: &Diagnostic) {
        match d {
            Diagnostic::WindowOpened { .. } => self.windows += 1,
            Diagnostic::CoefficientsDeclaredZero { .. } => self.declared_zero += 1,
            Diagnostic::GapRepaired { .. } => self.gap_repaired += 1,
            Diagnostic::CrossCheckMismatch { .. } => self.cross_check += 1,
            Diagnostic::AllSamplesZero { .. } => self.all_zero += 1,
            _ => self.other += 1,
        }
    }
}

#[test]
fn custom_observer_counts_event_kinds_on_ua741() {
    let circuit = library::ua741();
    let mut counts = KindCounts::default();
    let solution = Session::for_circuit(&circuit)
        .spec(spec())
        .config(RefgenConfig::builder().verify(false).build())
        .observer(&mut counts)
        .solve()
        .expect("µA741 recovers");
    assert!(counts.windows >= solution.network.report.denominator.windows.len());
    assert_eq!(counts.declared_zero, 0, "µA741's structural order bound is its true degree");
    assert_eq!(counts.all_zero, 0, "nothing degenerate in the library µA741");
}

/// Two first-order high-pass sections read differentially
/// ([`support::cancelling_highpass_pair`]): the numerator's structural
/// bound is 2, but its `s²` terms cancel by value. Stall detection stays the fallback: it declares the
/// top coefficient zero and says so in a typed warning.
#[test]
fn value_cancellation_declares_zero_as_a_warning() {
    let (c, spec) = support::cancelling_highpass_pair();
    let mut obs = CollectObserver::new();
    let solution = Session::for_circuit(&c)
        .spec(spec)
        .observer(&mut obs)
        .solve()
        .expect("the sections recover");
    let report = &solution.network.report.numerator;
    assert_eq!(report.order_bound, 2);
    assert_eq!(solution.network.numerator.degree(), Some(1));
    // The sections block DC, so `p₀` is zero as well: the descending
    // phase declares it, the ascent's stall declares `p₂`.
    assert_eq!(report.declared_zero, vec![0, 2]);
    let declared: Vec<&Diagnostic> = obs
        .events
        .iter()
        .filter(|d| matches!(d, Diagnostic::CoefficientsDeclaredZero { .. }))
        .collect();
    assert_eq!(
        declared,
        [
            &Diagnostic::CoefficientsDeclaredZero { kind: PolyKind::Numerator, lo: 0, hi: 0 },
            &Diagnostic::CoefficientsDeclaredZero { kind: PolyKind::Numerator, lo: 2, hi: 2 },
        ]
    );
    // Severity classification: declared zeros are warnings.
    assert!(obs.warnings().count() >= 1);
    let recorded: Vec<Diagnostic> = solution.diagnostics().cloned().collect();
    assert_eq!(obs.events, recorded);
}

#[test]
fn gap_repair_fires_with_overshooting_tuning() {
    // An aggressive eq. (14) tuning factor `r` overshoots the next window
    // past the accepted range; eq. (16) bisection closes the hole and the
    // repair surfaces as a typed GapRepaired event.
    let circuit = library::ua741();
    let mut obs = CollectObserver::new();
    let cfg = RefgenConfig::builder()
        .verify(false)
        .tuning_r(8.0)
        .max_step_decades_per_index(20.0)
        .gap_retries(6)
        .build();
    Session::for_circuit(&circuit)
        .spec(spec())
        .config(cfg)
        .observer(&mut obs)
        .solve()
        .expect("bisection recovers the overshoot");
    assert!(
        obs.count_where(|d| matches!(d, Diagnostic::GapRepaired { .. })) >= 1,
        "expected a GapRepaired event; got {:?}",
        obs.events
    );
}

#[test]
fn closure_observer_needs_no_named_type() {
    let circuit = library::rc_ladder(16, 1e3, 1e-9);
    let mut events = 0usize;
    let mut hook = |_d: &Diagnostic| events += 1;
    Session::for_circuit(&circuit)
        .spec(spec())
        .observer(&mut hook)
        .solve()
        .expect("ladder recovers");
    assert!(events > 0, "observer closure never fired");
}
