//! The [`Circuit`] container: named nodes, elements, structural queries.

use crate::element::{Element, ElementKind};
use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;

/// An index into a circuit's node table. `NodeId(0)` is always ground.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Errors from circuit construction or validation.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitError {
    /// An element value was zero, negative, or non-finite where a positive
    /// value is required.
    InvalidValue {
        /// Element name.
        element: String,
        /// The offending value.
        value: f64,
    },
    /// Two elements share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A controlled source references an unknown branch.
    UnknownControlBranch {
        /// Element that holds the dangling reference.
        element: String,
        /// The missing branch name.
        branch: String,
    },
    /// A controlled source's control branch is not an independent V source.
    ControlBranchNotVsource {
        /// Element that holds the reference.
        element: String,
        /// The referenced branch name.
        branch: String,
    },
    /// A node is connected to fewer than two element terminals, or the
    /// circuit has no elements at all.
    FloatingNode {
        /// Offending node name.
        node: String,
    },
    /// Both terminals of an element land on the same node.
    ShortedElement {
        /// Element name.
        element: String,
    },
    /// A waveform was attached to something that is not an independent
    /// V/I source (or does not exist).
    WaveformTarget {
        /// The offending element name.
        element: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidValue { element, value } => {
                write!(f, "element {element} has invalid value {value}")
            }
            CircuitError::DuplicateName { name } => {
                write!(f, "duplicate element name {name}")
            }
            CircuitError::UnknownControlBranch { element, branch } => {
                write!(f, "element {element} references unknown control branch {branch}")
            }
            CircuitError::ControlBranchNotVsource { element, branch } => {
                write!(
                    f,
                    "control branch {branch} of {element} is not an independent voltage source"
                )
            }
            CircuitError::FloatingNode { node } => write!(f, "node {node} is floating"),
            CircuitError::ShortedElement { element } => {
                write!(f, "element {element} has both terminals on the same node")
            }
            CircuitError::WaveformTarget { element } => {
                write!(f, "waveform target {element} is not an independent V/I source")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A linear small-signal circuit: a node table and a list of elements.
///
/// Nodes are created on demand by name; `"0"` and `"gnd"` (any case) map to
/// the ground node.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
    name_index: HashMap<String, usize>,
    waveforms: HashMap<String, Waveform>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
            name_index: HashMap::new(),
            waveforms: HashMap::new(),
        };
        c.node_index.insert("0".to_string(), NodeId::GROUND);
        c.node_index.insert("gnd".to_string(), NodeId::GROUND);
        c
    }

    /// Interns a node name, creating it if new. `"0"`/`"gnd"` are ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_index.insert(key, id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(&name.to_ascii_lowercase()).copied()
    }

    /// The printable name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Looks up an element by name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.name_index.get(name).map(|&i| &self.elements[i])
    }

    /// Removes an element by name, returning it. Used by the SBG simplifier.
    pub fn remove_element(&mut self, name: &str) -> Option<Element> {
        let idx = self.name_index.remove(name)?;
        self.waveforms.remove(name);
        let el = self.elements.remove(idx);
        // Reindex the tail.
        for (i, e) in self.elements.iter().enumerate().skip(idx) {
            self.name_index.insert(e.name.clone(), i);
        }
        Some(el)
    }

    /// Attaches a time-domain [`Waveform`] to an existing independent V/I
    /// source. The transient engine drives the source from it; the
    /// frequency-domain paths keep using the source's AC amplitude.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WaveformTarget`] when `name` is not an independent
    /// V/I source.
    pub fn set_waveform(&mut self, name: &str, wave: Waveform) -> Result<(), CircuitError> {
        match self.element(name) {
            Some(el)
                if matches!(el.kind, ElementKind::VSource { .. } | ElementKind::ISource { .. }) =>
            {
                self.waveforms.insert(name.to_string(), wave);
                Ok(())
            }
            _ => Err(CircuitError::WaveformTarget { element: name.to_string() }),
        }
    }

    /// The waveform attached to a source, if any. Sources without one are
    /// driven at their constant AC amplitude in transient analyses.
    pub fn waveform(&self, name: &str) -> Option<&Waveform> {
        self.waveforms.get(name)
    }

    /// `(source name, waveform)` pairs in element order — the transient
    /// engine's drive table.
    pub fn waveforms(&self) -> impl Iterator<Item = (&str, &Waveform)> {
        self.elements
            .iter()
            .filter_map(|e| self.waveforms.get(&e.name).map(|w| (e.name.as_str(), w)))
    }

    fn push_element(&mut self, el: Element) -> Result<(), CircuitError> {
        if self.name_index.contains_key(&el.name) {
            return Err(CircuitError::DuplicateName { name: el.name });
        }
        self.name_index.insert(el.name.clone(), self.elements.len());
        self.elements.push(el);
        Ok(())
    }

    fn check_positive(name: &str, value: f64) -> Result<(), CircuitError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(CircuitError::InvalidValue { element: name.to_string(), value });
        }
        Ok(())
    }

    fn check_finite(name: &str, value: f64) -> Result<(), CircuitError> {
        if !value.is_finite() {
            return Err(CircuitError::InvalidValue { element: name.to_string(), value });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] for non-positive values,
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_resistor(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        ohms: f64,
    ) -> Result<(), CircuitError> {
        Self::check_positive(name, ohms)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Resistor { ohms },
        })
    }

    /// Adds an explicit conductance.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_resistor`].
    pub fn add_conductance(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        siemens: f64,
    ) -> Result<(), CircuitError> {
        Self::check_positive(name, siemens)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Conductance { siemens },
        })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_resistor`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        farads: f64,
    ) -> Result<(), CircuitError> {
        Self::check_positive(name, farads)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Capacitor { farads },
        })
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_resistor`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        henries: f64,
    ) -> Result<(), CircuitError> {
        Self::check_positive(name, henries)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Inductor { henries },
        })
    }

    /// Adds a voltage-controlled current source
    /// (`i(p→m) = gm·(v(cp) − v(cm))`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] for non-finite `gm`,
    /// [`CircuitError::DuplicateName`] if the name is taken.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        cp: &str,
        cm: &str,
        gm: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, gm)?;
        let nodes = (self.node(p), self.node(m));
        let control = (self.node(cp), self.node(cm));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Vccs { gm, control },
        })
    }

    /// Adds a voltage-controlled voltage source.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_vccs`].
    pub fn add_vcvs(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        cp: &str,
        cm: &str,
        gain: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, gain)?;
        let nodes = (self.node(p), self.node(m));
        let control = (self.node(cp), self.node(cm));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Vcvs { gain, control },
        })
    }

    /// Adds a current-controlled current source; `branch` names an
    /// independent voltage source whose current is sensed.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_vccs`] (the branch reference is checked by
    /// [`Circuit::validate`]).
    pub fn add_cccs(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        branch: &str,
        gain: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, gain)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Cccs { gain, control_branch: branch.to_string() },
        })
    }

    /// Adds a current-controlled voltage source.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_cccs`].
    pub fn add_ccvs(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        branch: &str,
        ohms: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, ohms)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::Ccvs { ohms, control_branch: branch.to_string() },
        })
    }

    /// Adds an independent voltage source with AC amplitude `ac`.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_vccs`].
    pub fn add_vsource(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        ac: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, ac)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::VSource { ac },
        })
    }

    /// Adds an independent current source with AC amplitude `ac`.
    ///
    /// # Errors
    ///
    /// As for [`Circuit::add_vccs`].
    pub fn add_isource(
        &mut self,
        name: &str,
        p: &str,
        m: &str,
        ac: f64,
    ) -> Result<(), CircuitError> {
        Self::check_finite(name, ac)?;
        let nodes = (self.node(p), self.node(m));
        self.push_element(Element {
            name: name.to_string(),
            nodes,
            kind: ElementKind::ISource { ac },
        })
    }

    /// All capacitor values, in element order — the paper's first frequency
    /// scale factor is `1/mean(capacitors)`.
    pub fn capacitor_values(&self) -> Vec<f64> {
        self.elements.iter().filter_map(|e| e.capacitance_value()).collect()
    }

    /// All conductance-like values (1/R, G, |gm|) — the paper's first
    /// conductance scale factor is `1/mean(conductances)`.
    pub fn conductance_values(&self) -> Vec<f64> {
        self.elements.iter().filter_map(|e| e.conductance_value()).collect()
    }

    /// Number of reactive elements — an upper bound on the network-function
    /// polynomial order. Capacitor loops and inductor cutsets make it
    /// loose; the interpolation engine caps it by the structural bound of
    /// `refgen_mna::MnaSystem::degree_bounds`.
    pub fn reactive_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_reactive()).count()
    }

    /// All inductor values, in element order.
    pub fn inductor_values(&self) -> Vec<f64> {
        self.elements
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::Inductor { henries } => Some(henries),
                _ => None,
            })
            .collect()
    }

    /// `true` if any element is an inductor.
    pub fn has_inductors(&self) -> bool {
        self.elements.iter().any(|e| matches!(e.kind, ElementKind::Inductor { .. }))
    }

    /// Structural sanity checks: dangling control branches, floating nodes,
    /// shorted elements.
    ///
    /// # Errors
    ///
    /// The first problem found, as a [`CircuitError`].
    pub fn validate(&self) -> Result<(), CircuitError> {
        // Control branches must name independent V sources.
        for el in &self.elements {
            let branch = match &el.kind {
                ElementKind::Cccs { control_branch, .. }
                | ElementKind::Ccvs { control_branch, .. } => Some(control_branch),
                _ => None,
            };
            if let Some(b) = branch {
                match self.element(b) {
                    None => {
                        return Err(CircuitError::UnknownControlBranch {
                            element: el.name.clone(),
                            branch: b.clone(),
                        })
                    }
                    Some(ctrl) if !matches!(ctrl.kind, ElementKind::VSource { .. }) => {
                        return Err(CircuitError::ControlBranchNotVsource {
                            element: el.name.clone(),
                            branch: b.clone(),
                        })
                    }
                    _ => {}
                }
            }
        }
        // Shorted elements.
        for el in &self.elements {
            if el.nodes.0 == el.nodes.1 {
                return Err(CircuitError::ShortedElement { element: el.name.clone() });
            }
        }
        // Every non-ground node must touch at least two terminals (sources
        // count; control terminals do not inject current and so do not count
        // toward connectivity).
        let mut touch = vec![0usize; self.node_count()];
        for el in &self.elements {
            touch[el.nodes.0 .0] += 1;
            touch[el.nodes.1 .0] += 1;
        }
        for (i, &t) in touch.iter().enumerate().skip(1) {
            if t < 2 {
                return Err(CircuitError::FloatingNode { node: self.node_names[i].clone() });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} nodes, {} elements ({} reactive)",
            self.node_count(),
            self.elements.len(),
            self.reactive_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> Circuit {
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "out", 1e3).unwrap();
        c.add_capacitor("C1", "out", "0", 1e-9).unwrap();
        c
    }

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("A");
        assert_eq!(c.node("a"), a, "case-insensitive");
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("GND"), NodeId::GROUND);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "A");
    }

    #[test]
    fn build_and_query() {
        let c = rc();
        assert_eq!(c.capacitor_values(), vec![1e-9]);
        assert_eq!(c.conductance_values(), vec![1e-3]);
        assert_eq!(c.reactive_count(), 1);
        assert!(!c.has_inductors());
        assert!(c.element("R1").is_some());
        assert!(c.element("R9").is_none());
        c.validate().unwrap();
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut c = rc();
        let err = c.add_resistor("R1", "x", "y", 1.0).unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateName { .. }));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut c = Circuit::new();
        assert!(matches!(
            c.add_resistor("R1", "a", "b", 0.0),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            c.add_capacitor("C1", "a", "b", -1e-12),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            c.add_vccs("G1", "a", "b", "c", "d", f64::NAN),
            Err(CircuitError::InvalidValue { .. })
        ));
        // Negative gm is allowed (inverting transconductance).
        c.add_vccs("G2", "a", "b", "c", "d", -1e-3).unwrap();
    }

    #[test]
    fn validate_detects_floating_node() {
        let mut c = Circuit::new();
        c.add_resistor("R1", "a", "0", 1.0).unwrap();
        let err = c.validate().unwrap_err();
        assert!(matches!(err, CircuitError::FloatingNode { .. }));
    }

    #[test]
    fn validate_detects_short() {
        let mut c = rc();
        c.add_resistor("R2", "out", "out", 1.0).unwrap();
        assert!(matches!(c.validate(), Err(CircuitError::ShortedElement { .. })));
    }

    #[test]
    fn validate_control_branches() {
        let mut c = rc();
        c.add_cccs("F1", "out", "0", "VMISSING", 2.0).unwrap();
        assert!(matches!(c.validate(), Err(CircuitError::UnknownControlBranch { .. })));
        let mut c2 = rc();
        c2.add_cccs("F1", "out", "0", "R1", 2.0).unwrap();
        assert!(matches!(c2.validate(), Err(CircuitError::ControlBranchNotVsource { .. })));
        let mut c3 = rc();
        c3.add_cccs("F1", "out", "0", "VIN", 2.0).unwrap();
        c3.validate().unwrap();
    }

    #[test]
    fn remove_element_reindexes() {
        let mut c = rc();
        let el = c.remove_element("R1").unwrap();
        assert_eq!(el.name, "R1");
        assert!(c.element("R1").is_none());
        assert_eq!(c.element("C1").unwrap().name, "C1");
        assert!(c.remove_element("R1").is_none());
    }

    #[test]
    fn waveforms_attach_to_sources_only() {
        let mut c = rc();
        c.set_waveform("VIN", Waveform::Dc { value: 1.0 }).unwrap();
        assert_eq!(c.waveform("VIN"), Some(&Waveform::Dc { value: 1.0 }));
        assert_eq!(c.waveforms().count(), 1);
        assert!(matches!(
            c.set_waveform("R1", Waveform::Dc { value: 1.0 }),
            Err(CircuitError::WaveformTarget { .. })
        ));
        assert!(matches!(
            c.set_waveform("VMISSING", Waveform::Dc { value: 1.0 }),
            Err(CircuitError::WaveformTarget { .. })
        ));
        // Removing the source drops its waveform.
        c.remove_element("VIN").unwrap();
        assert!(c.waveform("VIN").is_none());
        assert_eq!(c.waveforms().count(), 0);
    }
}
