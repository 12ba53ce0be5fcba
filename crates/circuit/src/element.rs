//! Linear(ized) circuit elements.
//!
//! Small-signal analysis of analog integrated circuits reduces every device
//! to the elements here: conductances, capacitors and transconductances
//! (VCCS) from transistor models, plus independent sources and the
//! remaining controlled-source types for macromodels.
//!
//! Each element knows whether it is an *admittance-type* element — one whose
//! value enters the system matrix multiplied into node equations. The
//! interpolation engine's conductance/frequency scaling (paper eq. (11))
//! rescales exactly those values.

use crate::netlist::NodeId;
use std::fmt;

/// The kind and parameters of a circuit element.
///
/// Node pairs follow SPICE polarity conventions: current flows from the
/// first (`+`) node through the element to the second (`−`) node.
#[derive(Clone, Debug, PartialEq)]
pub enum ElementKind {
    /// Resistor (value in ohms); stamped as the conductance `1/R`.
    Resistor {
        /// Resistance in ohms (must be > 0).
        ohms: f64,
    },
    /// Explicit conductance (siemens). Transistor output conductances are
    /// expressed directly in this form.
    Conductance {
        /// Conductance in siemens (must be > 0).
        siemens: f64,
    },
    /// Capacitor (farads): admittance `s·C`.
    Capacitor {
        /// Capacitance in farads (must be > 0).
        farads: f64,
    },
    /// Inductor (henries). Supported by the AC simulator (branch equation
    /// `v = s·L·i`); the interpolation engine rejects it, per the paper's
    /// scope ("capacitors as the only frequency-dependent element";
    /// inductive circuits are handled by transformation methods).
    Inductor {
        /// Inductance in henries (must be > 0).
        henries: f64,
    },
    /// Voltage-controlled current source: `i = gm·(v(cp) − v(cn))` flowing
    /// from `nodes.0` to `nodes.1`. The transistor transconductance.
    Vccs {
        /// Transconductance in siemens (may be negative for inverting gain).
        gm: f64,
        /// Controlling node pair `(cp, cn)`.
        control: (NodeId, NodeId),
    },
    /// Voltage-controlled voltage source: `v = µ·(v(cp) − v(cn))`.
    Vcvs {
        /// Voltage gain (dimensionless).
        gain: f64,
        /// Controlling node pair.
        control: (NodeId, NodeId),
    },
    /// Current-controlled current source: `i = β·i(branch)`, where the
    /// controlling branch is a named independent voltage source.
    Cccs {
        /// Current gain (dimensionless).
        gain: f64,
        /// Name of the controlling voltage source.
        control_branch: String,
    },
    /// Current-controlled voltage source: `v = r·i(branch)`.
    ///
    /// Supported by the AC simulator; rejected by the interpolation engine —
    /// a transresistance scales as `1/g` and would break the uniform
    /// admittance-degree assumption behind eq. (11).
    Ccvs {
        /// Transresistance in ohms.
        ohms: f64,
        /// Name of the controlling voltage source.
        control_branch: String,
    },
    /// Independent voltage source with the given AC amplitude.
    VSource {
        /// Small-signal AC amplitude in volts.
        ac: f64,
    },
    /// Independent current source with the given AC amplitude, flowing from
    /// `nodes.0` through the source to `nodes.1`.
    ISource {
        /// Small-signal AC amplitude in amperes.
        ac: f64,
    },
}

impl ElementKind {
    /// Short SPICE-style type prefix (`R`, `C`, `G`, …).
    pub fn type_letter(&self) -> char {
        match self {
            ElementKind::Resistor { .. } => 'R',
            ElementKind::Conductance { .. } => 'G',
            ElementKind::Capacitor { .. } => 'C',
            ElementKind::Inductor { .. } => 'L',
            ElementKind::Vccs { .. } => 'G',
            ElementKind::Vcvs { .. } => 'E',
            ElementKind::Cccs { .. } => 'F',
            ElementKind::Ccvs { .. } => 'H',
            ElementKind::VSource { .. } => 'V',
            ElementKind::ISource { .. } => 'I',
        }
    }
}

/// One instance of an element in a circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// Instance name, unique up to ASCII case (e.g. `"R1"`, `"gm_M3"`).
    pub name: String,
    /// Terminal node pair `(+, −)`.
    pub nodes: (NodeId, NodeId),
    /// Kind and parameters.
    pub kind: ElementKind,
}

impl Element {
    /// The element's conductance-like value if it is a *resistive admittance*
    /// (conductance, resistor as `1/R`, or transconductance magnitude);
    /// `None` otherwise.
    ///
    /// These are the "conductances" whose mean drives the paper's initial
    /// conductance scale factor (§3.2) and which the `g` scale factor
    /// multiplies in eq. (11).
    pub fn conductance_value(&self) -> Option<f64> {
        match &self.kind {
            ElementKind::Resistor { ohms } => Some(1.0 / ohms),
            ElementKind::Conductance { siemens } => Some(*siemens),
            ElementKind::Vccs { gm, .. } => Some(gm.abs()),
            _ => None,
        }
    }

    /// The capacitance if this is a capacitor, `None` otherwise.
    pub fn capacitance_value(&self) -> Option<f64> {
        match &self.kind {
            ElementKind::Capacitor { farads } => Some(*farads),
            _ => None,
        }
    }

    /// `true` if this element contributes a frequency-dependent admittance.
    pub fn is_reactive(&self) -> bool {
        matches!(self.kind, ElementKind::Capacitor { .. } | ElementKind::Inductor { .. })
    }

    /// `true` for independent sources.
    pub fn is_source(&self) -> bool {
        matches!(self.kind, ElementKind::VSource { .. } | ElementKind::ISource { .. })
    }

    /// `true` if the element forces an extra MNA branch equation
    /// (voltage-defined elements).
    pub fn needs_branch(&self) -> bool {
        matches!(
            self.kind,
            ElementKind::VSource { .. }
                | ElementKind::Vcvs { .. }
                | ElementKind::Ccvs { .. }
                | ElementKind::Inductor { .. }
        )
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn conductance_values() {
        let r = Element {
            name: "R1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::Resistor { ohms: 1e3 },
        };
        assert_eq!(r.conductance_value(), Some(1e-3));
        let g = Element {
            name: "G1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::Vccs { gm: -2e-3, control: (n(2), n(0)) },
        };
        assert_eq!(g.conductance_value(), Some(2e-3));
        let c = Element {
            name: "C1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::Capacitor { farads: 1e-12 },
        };
        assert_eq!(c.conductance_value(), None);
        assert_eq!(c.capacitance_value(), Some(1e-12));
    }

    #[test]
    fn classification() {
        let v = Element {
            name: "V1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::VSource { ac: 1.0 },
        };
        assert!(v.is_source());
        assert!(v.needs_branch());
        let l = Element {
            name: "L1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::Inductor { henries: 1e-6 },
        };
        assert!(l.is_reactive());
        assert!(l.needs_branch());
        let e = Element {
            name: "E1".into(),
            nodes: (n(1), n(0)),
            kind: ElementKind::Vcvs { gain: 1e5, control: (n(2), n(3)) },
        };
        assert!(e.needs_branch());
        assert!(!e.is_source());
    }

    #[test]
    fn type_letters() {
        assert_eq!(ElementKind::Resistor { ohms: 1.0 }.type_letter(), 'R');
        assert_eq!(ElementKind::VSource { ac: 1.0 }.type_letter(), 'V');
        assert_eq!(ElementKind::Cccs { gain: 2.0, control_branch: "V1".into() }.type_letter(), 'F');
    }
}
