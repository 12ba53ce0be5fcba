//! Tolerance perturbation and variant-fleet generation.
//!
//! Monte-Carlo tolerance analysis and sensitivity ranking both consume the
//! same raw material: a fleet of circuits that share one **topology**
//! (identical node and element structure, hence identical MNA sparsity
//! pattern) and differ only in element *values*. That structural guarantee
//! is what lets the solver layers reuse one compiled
//! `SweepPlan`/pivot order across the whole fleet, so this module is
//! deliberately strict: a variant is one copy of the base (node table and
//! numbering, element order and names, source waveforms) whose values are
//! rewritten in place, in element order, each through the check its
//! builder applies. Nothing but values ever changes.
//!
//! * [`Perturbation`] — a set of per-[element-class](ElementClass)
//!   tolerance rules ([`Tolerance::Relative`] fraction or
//!   [`Tolerance::Absolute`] delta), applied with uniform deviates from
//!   the vendored `rand` shim.
//! * [`VariantSet`] — a seeded recipe for `count` independent variants;
//!   the batch-session layer consumes it directly.
//! * [`scaled_variant`] — one-element deterministic scaling, the building
//!   block of finite-difference sensitivity fleets.
//!
//! # Example
//!
//! ```
//! use refgen_circuit::library::rc_ladder;
//! use refgen_circuit::perturb::{ElementClass, Perturbation, VariantSet};
//!
//! # fn main() -> Result<(), refgen_circuit::CircuitError> {
//! let base = rc_ladder(4, 1e3, 1e-9);
//! let tolerances = Perturbation::new()
//!     .relative(ElementClass::Resistors, 0.05)
//!     .relative(ElementClass::Capacitors, 0.10);
//! let fleet = VariantSet::new(tolerances, 32).seed(7).generate(&base)?;
//! assert_eq!(fleet.len(), 32);
//! // Same topology, different values.
//! assert_eq!(fleet[0].elements().len(), base.elements().len());
//! assert_ne!(
//!     fleet[0].element("R1").unwrap().kind,
//!     base.element("R1").unwrap().kind,
//! );
//! # Ok(())
//! # }
//! ```

use crate::element::ElementKind;
use crate::netlist::{Circuit, CircuitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The value classes a [`Perturbation`] rule can target. Independent
/// sources and dimensionless controlled-source gains (VCVS, CCCS) plus
/// CCVS transresistances are never perturbed: they model drive and ideal
/// amplification, not toleranced components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElementClass {
    /// Resistors (ohms).
    Resistors,
    /// Explicit conductances (siemens).
    Conductances,
    /// Capacitors (farads).
    Capacitors,
    /// Inductors (henries).
    Inductors,
    /// VCCS transconductances (siemens; sign preserved).
    Transconductances,
}

impl ElementClass {
    /// All perturbable classes.
    pub const ALL: [ElementClass; 5] = [
        ElementClass::Resistors,
        ElementClass::Conductances,
        ElementClass::Capacitors,
        ElementClass::Inductors,
        ElementClass::Transconductances,
    ];

    /// The class of a perturbable element kind and its value: R, G, C, L
    /// values and VCCS transconductances; `None` for every other kind.
    fn of_mut(kind: &mut ElementKind) -> Option<(ElementClass, &mut f64)> {
        match kind {
            ElementKind::Resistor { ohms } => Some((ElementClass::Resistors, ohms)),
            ElementKind::Conductance { siemens } => Some((ElementClass::Conductances, siemens)),
            ElementKind::Capacitor { farads } => Some((ElementClass::Capacitors, farads)),
            ElementKind::Inductor { henries } => Some((ElementClass::Inductors, henries)),
            ElementKind::Vccs { gm, .. } => Some((ElementClass::Transconductances, gm)),
            _ => None,
        }
    }

    /// Writes `value` into element `name`'s `slot` after the check its
    /// builder applies: finite for a transconductance, positive otherwise.
    fn store(self, name: &str, slot: &mut f64, value: f64) -> Result<(), CircuitError> {
        if self == ElementClass::Transconductances {
            Circuit::check_finite(name, value)?;
        } else {
            Circuit::check_positive(name, value)?;
        }
        *slot = value;
        Ok(())
    }
}

/// How far one rule lets a value stray from its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Uniform multiplicative spread: the value becomes
    /// `base·(1 + frac·u)` with `u ~ U[−1, 1)`. `frac` must be in
    /// `(0, 1)`, so perturbed values keep their sign (and positivity where
    /// the [`Circuit`] builders require it).
    Relative(f64),
    /// Uniform additive spread: the value becomes `base + delta·u` with
    /// `u ~ U[−1, 1)`. A delta that can cross zero (or flip a
    /// must-be-positive value) surfaces as the builders'
    /// [`CircuitError::InvalidValue`] at generation time rather than as a
    /// silently clamped fleet.
    Absolute(f64),
}

impl Tolerance {
    fn apply(self, base: f64, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen_range(-1.0..1.0);
        match self {
            Tolerance::Relative(frac) => base * (1.0 + frac * u),
            Tolerance::Absolute(delta) => base + delta * u,
        }
    }
}

/// A set of per-class tolerance rules. Rules are matched in insertion
/// order with **the last matching rule winning**, so a broad
/// [`Perturbation::all_relative`] can be refined by a later class-specific
/// rule. Elements with no matching rule are copied verbatim.
#[derive(Clone, Debug, Default)]
pub struct Perturbation {
    rules: Vec<(ElementClass, Tolerance)>,
}

impl Perturbation {
    /// No rules: every variant is a verbatim copy.
    pub fn new() -> Perturbation {
        Perturbation::default()
    }

    /// Uniform relative tolerance on every perturbable class — the
    /// "everything has the same process spread" shorthand.
    ///
    /// # Panics
    ///
    /// Panics unless `frac` is in `(0, 1)`.
    pub fn all_relative(frac: f64) -> Perturbation {
        ElementClass::ALL.into_iter().fold(Perturbation::new(), |p, class| p.relative(class, frac))
    }

    /// Adds a relative-tolerance rule for `class`.
    ///
    /// # Panics
    ///
    /// Panics unless `frac` is in `(0, 1)` (values must keep their sign).
    #[must_use]
    pub fn relative(mut self, class: ElementClass, frac: f64) -> Perturbation {
        assert!(
            frac.is_finite() && frac > 0.0 && frac < 1.0,
            "relative tolerance must be in (0, 1), got {frac}"
        );
        self.rules.push((class, Tolerance::Relative(frac)));
        self
    }

    /// Adds an absolute-tolerance rule for `class`.
    ///
    /// # Panics
    ///
    /// Panics unless `delta` is finite and positive.
    #[must_use]
    pub fn absolute(mut self, class: ElementClass, delta: f64) -> Perturbation {
        assert!(
            delta.is_finite() && delta > 0.0,
            "absolute tolerance must be positive, got {delta}"
        );
        self.rules.push((class, Tolerance::Absolute(delta)));
        self
    }

    /// `true` when no rule is registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn rule_for(&self, class: ElementClass) -> Option<Tolerance> {
        self.rules.iter().rev().find(|&&(c, _)| c == class).map(|&(_, tol)| tol)
    }

    /// Builds one perturbed variant of `base`, drawing one deviate per
    /// matched element from `rng`. The variant has identical node and
    /// element ordering (hence an identical MNA pattern); only matched
    /// values change.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] when an absolute rule pushes a value
    /// out of its legal range (see [`Tolerance::Absolute`]).
    pub fn apply(&self, base: &Circuit, rng: &mut StdRng) -> Result<Circuit, CircuitError> {
        // One copy of the base; values are rewritten in place, in element
        // order, so node numbering, names and waveforms stay the base's.
        let mut out = base.clone();
        for el in out.elements_mut() {
            let Some((class, value)) = ElementClass::of_mut(&mut el.kind) else { continue };
            if let Some(tol) = self.rule_for(class) {
                class.store(&el.name, value, tol.apply(*value, rng))?;
            }
        }
        Ok(out)
    }
}

/// A seeded fleet recipe: `count` independent [`Perturbation::apply`]
/// draws from one deterministically seeded generator, so a fixed seed
/// yields a bit-identical fleet on every machine — the property the
/// Monte-Carlo oracle tests rely on.
#[derive(Clone, Debug)]
pub struct VariantSet {
    perturbation: Perturbation,
    count: usize,
    seed: u64,
}

impl VariantSet {
    /// A fleet of `count` variants under `perturbation`, seed 0.
    pub fn new(perturbation: Perturbation, count: usize) -> VariantSet {
        VariantSet { perturbation, count, seed: 0 }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> VariantSet {
        self.seed = seed;
        self
    }

    /// Number of variants this set generates.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The tolerance rules.
    pub fn perturbation(&self) -> &Perturbation {
        &self.perturbation
    }

    /// Generates the fleet, in order, from the seeded generator.
    ///
    /// # Errors
    ///
    /// See [`Perturbation::apply`].
    pub fn generate(&self, base: &Circuit) -> Result<Vec<Circuit>, CircuitError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count).map(|_| self.perturbation.apply(base, &mut rng)).collect()
    }
}

/// One-element deterministic variant: `base` with element `name`'s value
/// (name matched in any case) multiplied by `factor` — the up/down probe
/// of a finite-difference sensitivity fleet. Elements without a
/// perturbable value (sources, VCVS/CCCS/CCVS) are rejected.
///
/// # Errors
///
/// [`CircuitError::InvalidValue`] when `factor` pushes the value out of
/// range, or when `name` does not exist or is not perturbable (reported
/// with the offending factor).
pub fn scaled_variant(base: &Circuit, name: &str, factor: f64) -> Result<Circuit, CircuitError> {
    let invalid = || CircuitError::InvalidValue { element: name.to_string(), value: factor };
    let mut out = base.clone();
    let index = out.element_index(name).ok_or_else(invalid)?;
    let el = &mut out.elements_mut()[index];
    let (class, value) = ElementClass::of_mut(&mut el.kind).ok_or_else(invalid)?;
    class.store(&el.name, value, *value * factor)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{rc_ladder, ua741};
    use crate::NodeId;

    #[test]
    fn variants_preserve_topology_and_ordering() {
        let base = ua741();
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.05), 8).seed(42).generate(&base).unwrap();
        assert_eq!(fleet.len(), 8);
        for v in &fleet {
            assert_eq!(v.node_count(), base.node_count());
            assert_eq!(v.elements().len(), base.elements().len());
            for (a, b) in v.elements().iter().zip(base.elements()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.nodes, b.nodes, "{}", a.name);
            }
            v.validate().unwrap();
        }
    }

    #[test]
    fn fixed_seed_is_bit_reproducible_and_seeds_differ() {
        let base = rc_ladder(5, 1e3, 1e-9);
        let vs = VariantSet::new(Perturbation::all_relative(0.1), 4).seed(99);
        let a = vs.generate(&base).unwrap();
        let b = vs.generate(&base).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", x.elements()), format!("{:?}", y.elements()));
        }
        let c = VariantSet::new(Perturbation::all_relative(0.1), 4).seed(100).generate(&base);
        assert_ne!(format!("{:?}", a[0].elements()), format!("{:?}", c.unwrap()[0].elements()));
    }

    #[test]
    fn relative_rules_bound_the_spread_and_respect_class() {
        let base = rc_ladder(6, 1e3, 1e-9);
        let rules = Perturbation::new().relative(ElementClass::Capacitors, 0.2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let v = rules.apply(&base, &mut rng).unwrap();
            for (el, b) in v.elements().iter().zip(base.elements()) {
                match (&el.kind, &b.kind) {
                    (
                        ElementKind::Capacitor { farads },
                        ElementKind::Capacitor { farads: base_f },
                    ) => {
                        let ratio = farads / base_f;
                        assert!((0.8..1.2).contains(&ratio), "cap ratio {ratio}");
                    }
                    _ => assert_eq!(el.kind, b.kind, "untargeted {} must not move", el.name),
                }
            }
        }
    }

    #[test]
    fn later_rules_override_earlier_ones() {
        let rules = Perturbation::all_relative(0.5).relative(ElementClass::Resistors, 0.01);
        let base = rc_ladder(3, 1e3, 1e-9);
        let mut rng = StdRng::seed_from_u64(8);
        let v = rules.apply(&base, &mut rng).unwrap();
        for (el, b) in v.elements().iter().zip(base.elements()) {
            if let (ElementKind::Resistor { ohms }, ElementKind::Resistor { ohms: base_r }) =
                (&el.kind, &b.kind)
            {
                let ratio = ohms / base_r;
                assert!((0.99..1.01).contains(&ratio), "resistor ratio {ratio}");
            }
        }
    }

    #[test]
    fn absolute_rule_can_fail_loudly() {
        // A delta larger than the base value can cross zero; the builder's
        // positivity check must surface, not a clamped value.
        let mut base = Circuit::new();
        base.add_vsource("VIN", "in", "0", 1.0).unwrap();
        base.add_resistor("R1", "in", "out", 1.0).unwrap();
        base.add_capacitor("C1", "out", "0", 1e-9).unwrap();
        let rules = Perturbation::new().absolute(ElementClass::Resistors, 10.0);
        let mut failures = 0;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            if matches!(rules.apply(&base, &mut rng), Err(CircuitError::InvalidValue { .. })) {
                failures += 1;
            }
        }
        assert!(failures > 0, "±10 Ω on a 1 Ω resistor must sometimes go non-positive");
    }

    #[test]
    fn negative_transconductances_keep_their_sign() {
        let mut base = Circuit::new();
        base.add_vsource("VIN", "in", "0", 1.0).unwrap();
        base.add_resistor("R1", "in", "a", 1e3).unwrap();
        base.add_capacitor("C1", "a", "0", 1e-9).unwrap();
        base.add_vccs("G1", "a", "0", "in", "0", -2e-3).unwrap();
        let rules = Perturbation::new().relative(ElementClass::Transconductances, 0.3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..16 {
            let v = rules.apply(&base, &mut rng).unwrap();
            match v.element("G1").unwrap().kind {
                ElementKind::Vccs { gm, .. } => assert!(gm < 0.0, "gm flipped: {gm}"),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn scaled_variant_touches_exactly_one_element() {
        let base = rc_ladder(4, 1e3, 1e-9);
        let up = scaled_variant(&base, "C2", 1.02).unwrap();
        for (el, b) in up.elements().iter().zip(base.elements()) {
            if el.name == "C2" {
                assert_eq!(el.capacitance_value().unwrap(), 1e-9 * 1.02);
            } else {
                assert_eq!(el.kind, b.kind, "{} must not move", el.name);
            }
        }
        // Sources and unknown names are rejected.
        assert!(scaled_variant(&base, "VIN", 1.1).is_err());
        assert!(scaled_variant(&base, "R99", 1.1).is_err());
    }

    #[test]
    fn variants_keep_source_waveforms() {
        let base = crate::parse_spice(
            "VIN in 0 AC 1 PULSE(0 1 1n 2n 3n 40n 100n)\nR1 in out 1k\nC1 out 0 1n\n",
        )
        .unwrap();
        let wave = base.waveform("VIN").expect("parsed waveform").clone();
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.05), 4).seed(1).generate(&base).unwrap();
        for v in &fleet {
            assert_eq!(v.waveform("VIN"), Some(&wave));
            assert_eq!(v.waveforms().count(), 1);
        }
        let up = scaled_variant(&base, "R1", 1.01).unwrap();
        assert_eq!(up.waveform("VIN"), Some(&wave));
    }

    #[test]
    fn variants_keep_the_base_node_numbering() {
        // `out` is interned before any element uses it, so the base's node
        // table is not in element order.
        let mut base = Circuit::new();
        let out = base.node("out");
        base.add_vsource("VIN", "in", "0", 1.0).unwrap();
        base.add_resistor("R1", "in", "out", 1e3).unwrap();
        base.add_capacitor("C1", "out", "0", 1e-9).unwrap();
        assert_eq!(out.0, 1);
        let fleet =
            VariantSet::new(Perturbation::all_relative(0.1), 3).seed(2).generate(&base).unwrap();
        let probe = scaled_variant(&base, "c1", 1.5).unwrap();
        for v in fleet.iter().chain([&probe]) {
            assert_eq!(v.find_node("out"), Some(out));
            assert_eq!(v.node_count(), base.node_count());
            for i in 0..base.node_count() {
                assert_eq!(v.node_name(NodeId(i)), base.node_name(NodeId(i)));
            }
            for (a, b) in v.elements().iter().zip(base.elements()) {
                assert_eq!((&a.name, a.nodes), (&b.name, b.nodes));
            }
        }
        assert_eq!(probe.element("C1").unwrap().capacitance_value(), Some(1e-9 * 1.5));
    }

    #[test]
    fn variants_do_not_touch_the_base() {
        let base = rc_ladder(3, 1e3, 1e-9);
        let before = format!("{:?}", base.elements());
        let _ = VariantSet::new(Perturbation::all_relative(0.2), 2).generate(&base).unwrap();
        let _ = scaled_variant(&base, "R1", 2.0).unwrap();
        assert_eq!(format!("{:?}", base.elements()), before);
    }

    #[test]
    #[should_panic(expected = "relative tolerance must be in (0, 1)")]
    fn relative_rule_rejects_full_spread() {
        let _ = Perturbation::new().relative(ElementClass::Resistors, 1.0);
    }
}
