//! Pinned output of a mixed-topology µA741 fleet.
//!
//! A fleet shares its base circuit's stamp topology with every variant
//! whose raw stamps match it, and memoizes the structural degree bounds on
//! each topology. Neither may change a bit of output. This tier pins a
//! fleet that exercises every way a variant can relate to the base:
//!
//! * generated ±5 % variants (same stamps, new values: shared topology);
//! * one extra capacitor (more stamps: a topology of its own);
//! * the load resistor replaced by a capacitor on the same nodes (the
//!   same positions, but a reactive stamp where a resistive one was);
//! * an extra current source, which stamps nothing but excites two more
//!   rows (shared topology, a different numerator bound);
//! * `VIN` at zero amplitude (shared topology; the solve fails typed and
//!   is contained).
//!
//! Pinned per run: each variant's coefficient bits (or its error), the
//! diagnostic text (the observer stream and every solution's recorded
//! diagnostics), and the [`BatchReport`] counters, at one and at four
//! threads. The failure message prints the computed table.

use refgen::prelude::*;
use std::fmt::Write;

/// FNV-1a, streamed through `fmt::Write` so Debug text hashes without
/// materializing.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// `text` with the line of element `name` replaced by `line`.
fn replace_line(text: &str, name: &str, line: &str) -> String {
    let prefix = format!("{name} ");
    assert!(text.lines().any(|l| l.starts_with(&prefix)), "{name} is in the netlist");
    text.lines()
        .map(|l| if l.starts_with(&prefix) { line } else { l })
        .fold(String::new(), |acc, l| acc + l + "\n")
}

/// The µA741 with the element line `name` rewritten to `line`, element
/// order and node numbering kept.
fn rewritten(name: &str, line: &str) -> Circuit {
    parse_netlist(&replace_line(&to_spice(&library::ua741()), name, line))
        .expect("rewritten µA741 parses")
        .circuit
}

/// The mixed fleet, in fleet order.
fn fleet() -> Vec<Circuit> {
    let base = library::ua741();
    let mut circuits =
        VariantSet::new(Perturbation::all_relative(0.05), 6).seed(0x70b0).generate(&base).unwrap();
    let mut extra_cap = base.clone();
    extra_cap.add_capacitor("CX", "x1", "out", 1e-12).unwrap();
    circuits.push(extra_cap);
    circuits.push(rewritten("RL", "CRL out 0 100p"));
    let mut driven = base.clone();
    driven.add_isource("IAUX", "e10", "b1011", 1e-6).unwrap();
    circuits.push(driven);
    circuits.push(rewritten("VIN", "VIN in 0 DC 0 AC 0"));
    circuits
}

/// The mixed fleet on the µA741 base under containment, with the
/// observer stream it produced.
fn solve(threads: usize) -> (BatchRun, CollectObserver) {
    let config =
        RefgenConfig::builder().threads(threads).fault_policy(FaultPolicy::Contain).build();
    let mut observer = CollectObserver::new();
    let run = Session::for_circuit(&library::ua741())
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .config(config)
        .observer(&mut observer)
        .variant_circuits(&fleet())
        .solve_all()
        .expect("a contained fleet returns");
    (run, observer)
}

fn run(threads: usize) -> (Vec<u64>, u64, String) {
    let (run, observer) = solve(threads);
    let mut text = Fnv::new();
    for event in &observer.events {
        writeln!(text, "{event}").unwrap();
    }
    let outcomes = run
        .outcomes
        .iter()
        .map(|outcome| {
            let mut h = Fnv::new();
            match outcome {
                VariantOutcome::Solved(s) => {
                    for poly in [&s.network.denominator, &s.network.numerator] {
                        h.u64(poly.coeffs().len() as u64);
                        for c in poly.coeffs() {
                            h.u64(c.mantissa().re.to_bits());
                            h.u64(c.mantissa().im.to_bits());
                            h.u64(c.exponent() as u64);
                        }
                    }
                    for d in s.diagnostics() {
                        writeln!(text, "{d:?}").unwrap();
                    }
                }
                VariantOutcome::Failed { error, point, rung } => {
                    writeln!(h, "{error}|{point:?}|{rung}").unwrap();
                }
            }
            h.0
        })
        .collect();
    let r = &run.report;
    let counters = format!(
        "variants {} of {}, failed {:?}, points {:?}, refactor hits {:?} = {}, \
         pivot searches {}, shared plan hits {}, programs {}",
        r.variants,
        r.variants_attempted,
        r.failed_variants,
        r.variant_points,
        r.variant_refactor_hits,
        r.total_refactor_hits,
        r.pivot_searches,
        r.shared_plan_hits,
        r.programs_compiled,
    );
    (outcomes, text.0, counters)
}

const OUTCOMES: [u64; 10] = [
    0xd9d4415575b265ec,
    0x452f848846edef21,
    0xd18dd4f806fa4d52,
    0x8fe179a0c7d72754,
    0xe6865f5bcd6e01ab,
    0x81c0d72d1b727d28,
    0x497407b872d71175,
    0xc006031697e40c98,
    0xe0215efc9984c1a4,
    0xb3949ea63d66fae8,
];
const TEXT: u64 = 0x0218dfc1d8a33220;
const COUNTERS: &str =
    "variants 9 of 10, failed [9], points [366, 366, 366, 366, 366, 368, 378, 372, 366], \
    refactor hits [150, 150, 150, 150, 150, 152, 156, 152, 150] = 1360, pivot searches 2, \
    shared plan hits 106, programs 2";

#[test]
fn mixed_fleet_matches_pinned_output() {
    for threads in [1, 4] {
        let (outcomes, text, counters) = run(threads);
        if (outcomes.as_slice(), text, counters.as_str()) != (&OUTCOMES[..], TEXT, COUNTERS) {
            let mut table = String::new();
            writeln!(table, "const OUTCOMES: [u64; {}] = [", outcomes.len()).unwrap();
            for h in &outcomes {
                writeln!(table, "    {h:#018x},").unwrap();
            }
            writeln!(table, "];\nconst TEXT: u64 = {text:#018x};").unwrap();
            writeln!(table, "const COUNTERS: &str = \"{counters}\";").unwrap();
            panic!("mixed fleet moved at {threads} threads; computed:\n{table}");
        }
    }
}

/// One fleet builds each stamp topology once and computes each degree
/// bound once per topology, output and set of excited rows. The mixed
/// fleet builds three topologies: the base's, which the generated
/// variants, the driven variant and the zero-amplitude one share; the
/// extra capacitor's; and the capacitive load's. The base's topology
/// computes two bound pairs (`VIN` alone excited, and `VIN` with `IAUX`;
/// the zero-amplitude variant fails before it asks), the other two one
/// each. A generated fleet builds one topology and computes one pair.
#[test]
fn fleets_build_each_topology_and_bound_once() {
    for threads in [1, 4] {
        let (run, _) = solve(threads);
        let counts = (run.report.topologies, run.report.degree_bounds_computed);
        assert_eq!(counts, (3, 4), "{threads} threads");
    }
    let run = Session::for_circuit(&library::ua741())
        .spec(TransferSpec::voltage_gain("VIN", "out"))
        .variants(VariantSet::new(Perturbation::all_relative(0.05), 64).seed(0x70b0))
        .solve_all()
        .expect("µA741 fleet solves");
    assert_eq!((run.report.topologies, run.report.degree_bounds_computed), (1, 1));
}
