//! The [`Circuit`] container: named nodes, elements, structural queries.

use crate::element::{Element, ElementKind};
use crate::waveform::Waveform;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

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

/// `true` for the names of the ground node: `"0"` and `"gnd"` (any case).
fn is_ground_name(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// An open-addressing hash table of `u32` indices into a list of names
/// (the node names, or the element list), matched up to ASCII case. It
/// stores no names of its own: a lookup hashes the probe on the fly and
/// compares against the list, so it allocates nothing.
#[derive(Clone, Default)]
struct NameTable {
    /// The standard library's randomly keyed hasher: names come from
    /// netlists, and a fixed hash function would let crafted names
    /// collide.
    keys: RandomState,
    /// `(hash, index)` per slot, [`NameTable::VACANT`] index when free.
    /// The length is zero or a power of two, at most half occupied.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NameTable {
    const VACANT: u32 = u32::MAX;

    /// The hash of `name`'s ASCII-lowercased bytes, eight at a time,
    /// computed without building the lowercase string.
    fn hash(&self, name: &str) -> u32 {
        let mut h = self.keys.build_hasher();
        for chunk in name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            for (w, &b) in word.iter_mut().zip(chunk) {
                *w = b.to_ascii_lowercase();
            }
            h.write_u64(u64::from_le_bytes(word));
        }
        h.write_usize(name.len());
        h.finish() as u32
    }

    /// The index of the entry named `name` (up to ASCII case), reading
    /// entry names through `name_of`.
    fn find<'a>(&self, name: &str, hash: u32, name_of: impl Fn(usize) -> &'a str) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, index) = self.slots[i];
            if index == Self::VACANT {
                return None;
            }
            if h == hash && name_of(index as usize).eq_ignore_ascii_case(name) {
                return Some(index as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `index` under `hash`. The name must not be present yet.
    fn insert(&mut self, hash: u32, index: usize) {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i != Self::VACANT)
            .expect("name tables index fewer than 2^32 - 1 entries");
        if 2 * (self.len + 1) > self.slots.len() {
            let capacity = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, Self::VACANT); capacity]);
            for (h, i) in old.into_iter().filter(|&(_, i)| i != Self::VACANT) {
                self.place(h, i);
            }
        }
        self.place(hash, index);
        self.len += 1;
    }

    fn place(&mut self, hash: u32, index: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != Self::VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, index);
    }
}

/// A linear small-signal circuit: a node table and a list of elements.
///
/// Nodes are created on demand by name; `"0"` and `"gnd"` (any case) map to
/// the ground node. Node and element names are both case-insensitive
/// (ASCII): `Out` and `OUT` are one node, and `R1` and `r1` are one name,
/// so adding both is [`CircuitError::DuplicateName`]. Every name keeps the
/// case it was first written in, and lookups by name ([`Circuit::element`],
/// control branches, waveform targets) ignore case.
///
/// # Copy-on-write
///
/// The tables live behind one [`Arc`]: cloning a circuit bumps a reference
/// count, and the first mutation of a shared circuit copies it once
/// ([`Arc::make_mut`]). Clones are therefore cheap to hold (an MNA system
/// keeps one), and mutating a clone never affects the original.
#[derive(Clone, Default)]
pub struct Circuit {
    data: Arc<CircuitData>,
}

#[derive(Clone)]
struct CircuitData {
    /// Node names by id; `"0"` (ground) first.
    node_names: Vec<String>,
    /// Non-ground node names → id. Ground is recognised by name.
    nodes: NameTable,
    elements: Vec<Element>,
    /// Element names → element index.
    names: NameTable,
    /// Source waveforms by element index, ascending.
    waveforms: Vec<(usize, Waveform)>,
}

impl Default for CircuitData {
    fn default() -> Self {
        CircuitData {
            node_names: vec!["0".to_string()],
            nodes: NameTable::default(),
            elements: Vec::new(),
            names: NameTable::default(),
            waveforms: Vec::new(),
        }
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// The tables, copied first if another clone shares them.
    fn data_mut(&mut self) -> &mut CircuitData {
        Arc::make_mut(&mut self.data)
    }

    /// Interns a node name, creating it if new. `"0"`/`"gnd"` are ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if is_ground_name(name) {
            return NodeId::GROUND;
        }
        let d = &*self.data;
        let hash = d.nodes.hash(name);
        if let Some(id) = d.nodes.find(name, hash, |i| &d.node_names[i]) {
            return NodeId(id);
        }
        let d = self.data_mut();
        let id = d.node_names.len();
        d.node_names.push(name.to_string());
        d.nodes.insert(hash, id);
        NodeId(id)
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if is_ground_name(name) {
            return Some(NodeId::GROUND);
        }
        let d = &*self.data;
        d.nodes.find(name, d.nodes.hash(name), |i| &d.node_names[i]).map(NodeId)
    }

    /// The printable name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.data.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.data.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.data.elements
    }

    /// The elements for an in-place rewrite of their values. Names and
    /// nodes index the circuit's tables and must not change.
    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.data_mut().elements
    }

    /// The position of element `name` (any case) in [`Circuit::elements`].
    pub fn element_index(&self, name: &str) -> Option<usize> {
        let d = &*self.data;
        d.names.find(name, d.names.hash(name), |i| &d.elements[i].name)
    }

    /// Looks up an element by name (any case).
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.element_index(name).map(|i| &self.data.elements[i])
    }

    /// Removes an element by name, returning it. Used by the SBG simplifier.
    pub fn remove_element(&mut self, name: &str) -> Option<Element> {
        let idx = self.element_index(name)?;
        let d = self.data_mut();
        let el = d.elements.remove(idx);
        d.waveforms.retain(|&(i, _)| i != idx);
        for (i, _) in &mut d.waveforms {
            if *i > idx {
                *i -= 1;
            }
        }
        // Reindex the tail.
        d.names = NameTable::default();
        for (i, e) in d.elements.iter().enumerate() {
            d.names.insert(d.names.hash(&e.name), i);
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
        match self.element_index(name) {
            Some(idx) if self.data.elements[idx].is_source() => {
                let waves = &mut self.data_mut().waveforms;
                match waves.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(at) => waves[at].1 = wave,
                    Err(at) => waves.insert(at, (idx, wave)),
                }
                Ok(())
            }
            _ => Err(CircuitError::WaveformTarget { element: name.to_string() }),
        }
    }

    /// The waveform attached to a source, if any. Sources without one are
    /// driven at their constant AC amplitude in transient analyses.
    pub fn waveform(&self, name: &str) -> Option<&Waveform> {
        let idx = self.element_index(name)?;
        let waves = &self.data.waveforms;
        waves.binary_search_by_key(&idx, |&(i, _)| i).ok().map(|at| &waves[at].1)
    }

    /// `(source name, waveform)` pairs in element order — the transient
    /// engine's drive table.
    pub fn waveforms(&self) -> impl Iterator<Item = (&str, &Waveform)> {
        let d = &*self.data;
        d.waveforms.iter().map(move |(i, w)| (d.elements[*i].name.as_str(), w))
    }

    fn push_element(&mut self, el: Element) -> Result<(), CircuitError> {
        let d = &*self.data;
        let hash = d.names.hash(&el.name);
        if d.names.find(&el.name, hash, |i| &d.elements[i].name).is_some() {
            return Err(CircuitError::DuplicateName { name: el.name });
        }
        let d = self.data_mut();
        d.names.insert(hash, d.elements.len());
        d.elements.push(el);
        Ok(())
    }

    pub(crate) fn check_positive(name: &str, value: f64) -> Result<(), CircuitError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(CircuitError::InvalidValue { element: name.to_string(), value });
        }
        Ok(())
    }

    pub(crate) fn check_finite(name: &str, value: f64) -> Result<(), CircuitError> {
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
        self.elements().iter().filter_map(|e| e.capacitance_value()).collect()
    }

    /// All conductance-like values (1/R, G, |gm|) — the paper's first
    /// conductance scale factor is `1/mean(conductances)`.
    pub fn conductance_values(&self) -> Vec<f64> {
        self.elements().iter().filter_map(|e| e.conductance_value()).collect()
    }

    /// Number of reactive elements — an upper bound on the network-function
    /// polynomial order. Capacitor loops and inductor cutsets make it
    /// loose; the interpolation engine caps it by the structural bound of
    /// `refgen_mna::MnaSystem::degree_bounds`.
    pub fn reactive_count(&self) -> usize {
        self.elements().iter().filter(|e| e.is_reactive()).count()
    }

    /// All inductor values, in element order.
    pub fn inductor_values(&self) -> Vec<f64> {
        self.elements()
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::Inductor { henries } => Some(henries),
                _ => None,
            })
            .collect()
    }

    /// `true` if any element is an inductor.
    pub fn has_inductors(&self) -> bool {
        self.elements().iter().any(|e| matches!(e.kind, ElementKind::Inductor { .. }))
    }

    /// Structural sanity checks: dangling control branches, floating nodes,
    /// shorted elements.
    ///
    /// # Errors
    ///
    /// The first problem found, as a [`CircuitError`].
    pub fn validate(&self) -> Result<(), CircuitError> {
        // Control branches must name independent V sources.
        for el in self.elements() {
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
        for el in self.elements() {
            if el.nodes.0 == el.nodes.1 {
                return Err(CircuitError::ShortedElement { element: el.name.clone() });
            }
        }
        // Every non-ground node must touch at least two terminals (sources
        // count; control terminals do not inject current and so do not count
        // toward connectivity).
        let mut touch = vec![0usize; self.node_count()];
        for el in self.elements() {
            touch[el.nodes.0 .0] += 1;
            touch[el.nodes.1 .0] += 1;
        }
        for (i, &t) in touch.iter().enumerate().skip(1) {
            if t < 2 {
                return Err(CircuitError::FloatingNode { node: self.data.node_names[i].clone() });
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
            self.elements().len(),
            self.reactive_count()
        )
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &*self.data;
        f.debug_struct("Circuit")
            .field("node_names", &d.node_names)
            .field("elements", &d.elements)
            .field("waveforms", &d.waveforms)
            .finish()
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
    fn element_names_are_case_insensitive() {
        let mut c = rc();
        let err = c.add_resistor("r1", "in", "out", 2e3).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateName { name: "r1".to_string() });
        // Lookups ignore case; the stored name keeps its first spelling.
        assert_eq!(c.element("r1").unwrap().name, "R1");
        assert_eq!(c.element_index("c1"), Some(2));
        c.set_waveform("vin", Waveform::Dc { value: 2.0 }).unwrap();
        assert_eq!(c.waveform("VIN"), Some(&Waveform::Dc { value: 2.0 }));
        assert_eq!(c.waveforms().next().unwrap().0, "VIN");
        // Control branches resolve in any case too.
        c.add_cccs("F1", "out", "0", "vin", 2.0).unwrap();
        c.validate().unwrap();
        assert_eq!(c.remove_element("f1").unwrap().name, "F1");
    }

    #[test]
    fn clones_share_until_written() {
        let a = rc();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data), "a clone is a reference-count bump");
        b.add_capacitor("C2", "in", "0", 1e-12).unwrap();
        assert!(!Arc::ptr_eq(&a.data, &b.data), "the first write copies");
        assert_eq!(a.elements().len(), 3);
        assert_eq!(b.elements().len(), 4);
        assert!(a.element("C2").is_none());
        // Interning an existing node writes nothing, so it does not copy.
        let c = b.clone();
        assert_eq!(b.node("OUT"), c.find_node("out").unwrap());
        assert!(Arc::ptr_eq(&b.data, &c.data));
    }

    #[test]
    fn name_tables_grow_and_reindex() {
        let mut c = Circuit::new();
        for i in 0..300 {
            c.add_resistor(&format!("R{i}"), &format!("n{i}"), &format!("N{}", i + 1), 1.0)
                .unwrap();
        }
        assert_eq!(c.node_count(), 302);
        for i in (0..300).step_by(37) {
            assert_eq!(c.element_index(&format!("r{i}")), Some(i));
            assert_eq!(c.find_node(&format!("N{i}")), Some(NodeId(i + 1)));
            // Node i + 1 is first written `N{i}` (by the element before).
            let first = if i == 0 { "n0".to_string() } else { format!("N{i}") };
            assert_eq!(c.node_name(NodeId(i + 1)), first);
        }
        c.remove_element("R5").unwrap();
        assert_eq!(c.element_index("R6"), Some(5));
        assert_eq!(c.element_index("R299"), Some(298));
        assert!(c.element("R5").is_none());
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
