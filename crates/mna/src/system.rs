//! MNA system assembly with element scaling.

use crate::degree::BoundsMemo;
use crate::error::MnaError;
use refgen_circuit::{Circuit, Element, ElementKind, NodeId};
use refgen_numeric::{Complex, ExtComplex};
use refgen_sparse::{SparseLu, Triplets};
use std::sync::Arc;

/// Frequency and conductance scale factors applied during stamping.
///
/// Realizes the paper's eq. (11): capacitors stamp as `f·C`, resistive
/// admittances (conductances, resistors as `1/R`, transconductances) as
/// `g·G`. With samples taken on the unit circle, the interpolated
/// coefficients become `p'_i = p_i·f^i·g^{M-i}` where `M` is the system's
/// admittance degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Frequency (capacitance) scale factor `f`.
    pub f: f64,
    /// Conductance scale factor `g`.
    pub g: f64,
}

impl Scale {
    /// No scaling: `f = g = 1`.
    pub fn unit() -> Self {
        Scale { f: 1.0, g: 1.0 }
    }

    /// Creates a scale pair.
    ///
    /// # Panics
    ///
    /// Panics unless both factors are positive and finite.
    pub fn new(f: f64, g: f64) -> Self {
        assert!(f.is_finite() && f > 0.0, "frequency scale must be positive, got {f}");
        assert!(g.is_finite() && g > 0.0, "conductance scale must be positive, got {g}");
        Scale { f, g }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::unit()
    }
}

/// A compiled MNA view of a circuit: node/branch index maps, the stamp
/// table, and assembly and evaluation entry points.
///
/// Unknowns are ordered: non-ground node voltages first (`0..nodes−1`),
/// then one branch current per voltage-defined element (independent V
/// sources, VCVS, CCVS, inductors).
#[derive(Clone, Debug)]
pub struct MnaSystem {
    circuit: Circuit,
    /// Matrix row per circuit node id (`None` for ground).
    node_rows: Vec<Option<usize>>,
    /// Branch-current row per element (`None` for elements without a
    /// branch equation), in element order.
    branch_rows: Vec<Option<usize>>,
    node_count: usize,
    dim: usize,
    /// Shared by reference: a [`PlanCache`](crate::PlanCache) anchor
    /// holds it to stamp the nominal system at any scale.
    stamps: Arc<StampTable>,
}

/// How a stamp's value depends on the scale factors and on `s` — the
/// paper's eq. (11) per element kind.
#[derive(Clone, Copy, Debug)]
enum StampSource {
    /// `g/R`: a resistor, stamped as a scaled conductance.
    Resistance(f64),
    /// `g·G`: a conductance or a transconductance.
    Conductance(f64),
    /// `s·(f·X)`: a capacitor's admittance, or an inductor's branch
    /// impedance (stamped negated).
    Reactive(f64),
    /// A scale-free value: incidences, gains, transresistances.
    Constant(Complex),
}

/// How a stamp applies its source value `y`.
#[derive(Clone, Copy, Debug)]
enum StampSign {
    /// `y`.
    Plus,
    /// `−y`.
    Minus,
    /// `y·k`: the incidence sign product of a transadmittance.
    Times(f64),
}

/// One raw MNA stamp: the value of `source` under `sign` lands at
/// `(row, col)`.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    row: usize,
    col: usize,
    source: StampSource,
    sign: StampSign,
}

impl Stamp {
    fn value(&self, s: Complex, scale: Scale) -> Complex {
        let y = match self.source {
            StampSource::Resistance(ohms) => Complex::real(scale.g / ohms),
            StampSource::Conductance(siemens) => Complex::real(scale.g * siemens),
            StampSource::Reactive(x) => s * (scale.f * x),
            StampSource::Constant(c) => c,
        };
        match self.sign {
            StampSign::Plus => y,
            StampSign::Minus => -y,
            StampSign::Times(k) => y.scale(k),
        }
    }

    /// `(K₀, K₁)` of this stamp: its value at `s = 0`, and the difference
    /// of its values at `s = 1` and `s = 0`.
    fn affine(&self, scale: Scale) -> (Complex, Complex) {
        let k0 = self.value(Complex::ZERO, scale);
        (k0, self.value(Complex::ONE, scale) - k0)
    }

    /// `true` when both stamps land at one position with the same kind of
    /// source and sign, whatever their values.
    fn same_kind(&self, other: &Stamp) -> bool {
        use std::mem::discriminant;
        (self.row, self.col) == (other.row, other.col)
            && discriminant(&self.source) == discriminant(&other.source)
            && discriminant(&self.sign) == discriminant(&other.sign)
    }
}

/// Every raw stamp of a circuit, compiled once per [`MnaSystem`], plus the
/// merge of duplicate positions into the affine pattern `A(s) = K₀ + s·K₁`.
///
/// The merge lives in a [`Topology`], which depends on the raw stamps'
/// positions and kinds alone. Systems whose raw stamps agree in
/// `(row, col, source kind, sign kind)`, stamp for stamp, share one
/// topology by `Arc` ([`MnaSystem::with_topology_of`]): a fleet sorts and
/// merges its base circuit's stamps once and every same-topology variant
/// fills in only its values.
#[derive(Clone, Debug)]
pub(crate) struct StampTable {
    /// Raw stamps in element order, then stamp order within an element:
    /// the entry order of [`MnaSystem::assemble`].
    raw: Vec<Stamp>,
    topology: Arc<Topology>,
}

/// The value-independent part of a [`StampTable`]: how its raw stamps
/// merge into positions, which positions are reactive, and the degree
/// bounds computed on it so far.
#[derive(Debug)]
pub(crate) struct Topology {
    dim: usize,
    /// Raw indices grouped by position, each group in the order its
    /// duplicates are summed.
    merge_order: Vec<usize>,
    /// Deduplicated positions, sorted by `(row, col)`.
    positions: Vec<(usize, usize)>,
    /// One past the last `merge_order` index of each position's group.
    group_ends: Vec<usize>,
    /// Per position: whether any raw stamp there is reactive (`s·f·X`).
    reactive: Vec<bool>,
    /// FNV-1a hash of the dimension and every deduplicated position.
    fingerprint: u64,
    /// The degree bounds computed on this topology, by output columns and
    /// excited rows ([`MnaSystem::degree_bounds`]).
    pub(crate) bounds: BoundsMemo,
}

impl Topology {
    fn new(dim: usize, raw: &[Stamp]) -> Topology {
        // The merge order is the one an unstable sort of the raw
        // `(row, col, K₀, K₁)` entries by position gives. Sorting that same
        // element type, with the raw index and whether the stamp is
        // reactive carried in the value fields, moves equal keys exactly as
        // that sort does, so summing each group in this order reproduces
        // its round-off bit for bit.
        let mut keyed: Vec<(usize, usize, Complex, Complex)> = raw
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let reactive = matches!(st.source, StampSource::Reactive(_));
                (
                    st.row,
                    st.col,
                    Complex::real(i as f64),
                    Complex::real(f64::from(u8::from(reactive))),
                )
            })
            .collect();
        keyed.sort_unstable_by_key(|&(r, c, _, _)| (r, c));
        let merge_order: Vec<usize> = keyed.iter().map(|&(_, _, i, _)| i.re as usize).collect();
        let mut positions: Vec<(usize, usize)> = Vec::with_capacity(keyed.len());
        let mut group_ends = Vec::with_capacity(keyed.len());
        let mut reactive = Vec::with_capacity(keyed.len());
        for (k, &(r, c, _, flag)) in keyed.iter().enumerate() {
            let is_reactive = flag.re != 0.0;
            if positions.last() == Some(&(r, c)) {
                *group_ends.last_mut().expect("one end per position") = k + 1;
                *reactive.last_mut().expect("one flag per position") |= is_reactive;
            } else {
                positions.push((r, c));
                group_ends.push(k + 1);
                reactive.push(is_reactive);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(dim as u64);
        for &(r, c) in &positions {
            mix(r as u64);
            mix(c as u64);
        }
        Topology {
            dim,
            merge_order,
            positions,
            group_ends,
            reactive,
            fingerprint: h,
            bounds: BoundsMemo::default(),
        }
    }
}

impl StampTable {
    /// The table of `raw`, on `base`'s topology when `raw` matches `base`'s
    /// raw stamps kind for kind, on a topology of its own otherwise.
    fn new(dim: usize, raw: Vec<Stamp>, base: Option<&StampTable>) -> StampTable {
        let topology = match base {
            Some(base)
                if base.topology.dim == dim
                    && base.raw.len() == raw.len()
                    && base.raw.iter().zip(&raw).all(|(a, b)| a.same_kind(b)) =>
            {
                Arc::clone(&base.topology)
            }
            _ => Arc::new(Topology::new(dim, &raw)),
        };
        StampTable { raw, topology }
    }

    /// The deduplicated affine pattern at `scale`, sorted by position.
    pub(crate) fn affine(&self, scale: Scale) -> Vec<(usize, usize, Complex, Complex)> {
        let t = &*self.topology;
        let mut pattern = Vec::with_capacity(t.positions.len());
        let mut start = 0;
        for (&(r, c), &end) in t.positions.iter().zip(&t.group_ends) {
            let group = &t.merge_order[start..end];
            let (mut k0, mut k1) = self.raw[group[0]].affine(scale);
            for &i in &group[1..] {
                let (d0, d1) = self.raw[i].affine(scale);
                k0 += d0;
                k1 += d1;
            }
            pattern.push((r, c, k0, k1));
            start = end;
        }
        pattern
    }
}

impl MnaSystem {
    /// Compiles a circuit into an MNA system and its stamp table.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Circuit`] if the circuit fails validation.
    pub fn new(circuit: &Circuit) -> Result<Self, MnaError> {
        MnaSystem::compile(circuit, None)
    }

    /// Compiles `circuit` like [`MnaSystem::new`], on `base`'s stamp
    /// topology when their raw stamps agree in position, source kind and
    /// sign kind, stamp for stamp (a same-topology variant of `base`): the
    /// sort and merge of duplicate positions, the fingerprint and the
    /// memoized [`MnaSystem::degree_bounds`] are then shared, not rebuilt.
    /// Any other circuit gets a topology of its own. The system is the one
    /// [`MnaSystem::new`] builds either way: its merge order, and so every
    /// value it stamps, is the same bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Circuit`] if the circuit fails validation.
    pub fn with_topology_of(circuit: &Circuit, base: &MnaSystem) -> Result<Self, MnaError> {
        MnaSystem::compile(circuit, Some(&base.stamps))
    }

    fn compile(circuit: &Circuit, base: Option<&StampTable>) -> Result<Self, MnaError> {
        circuit.validate()?;
        let mut node_rows = Vec::with_capacity(circuit.node_count());
        let mut next = 0usize;
        for idx in 0..circuit.node_count() {
            if NodeId(idx).is_ground() {
                node_rows.push(None);
            } else {
                node_rows.push(Some(next));
                next += 1;
            }
        }
        let node_count = next;
        let mut dim = node_count;
        let branch_rows: Vec<Option<usize>> = circuit
            .elements()
            .iter()
            .map(|el| {
                el.needs_branch().then(|| {
                    dim += 1;
                    dim - 1
                })
            })
            .collect();
        let node_row = |id: NodeId| node_rows[id.0];
        // `validate` has checked that every control branch names a V source.
        let control_row = |name: &str| {
            circuit.element_index(name).and_then(|i| branch_rows[i]).expect("validated branch")
        };
        let mut raw = Vec::new();
        for (el, &branch) in circuit.elements().iter().zip(&branch_rows) {
            stamp(&mut raw, el, branch, &node_row, &control_row);
        }
        let stamps = Arc::new(StampTable::new(dim, raw, base));
        Ok(MnaSystem { circuit: circuit.clone(), node_rows, branch_rows, node_count, dim, stamps })
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Total unknown count (node voltages + branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.node_count
    }

    /// Number of branch-current unknowns.
    pub fn branch_unknowns(&self) -> usize {
        self.dim - self.node_count
    }

    /// Matrix row of a node's voltage unknown (`None` for ground).
    pub fn node_row(&self, id: NodeId) -> Option<usize> {
        self.node_rows.get(id.0).copied().flatten()
    }

    /// Matrix row of an element's branch current (name in any case).
    pub fn branch_row(&self, name: &str) -> Option<usize> {
        self.circuit.element_index(name).and_then(|i| self.branch_rows[i])
    }

    /// `true` if the circuit contains element kinds the *interpolation
    /// engine* cannot scale uniformly (inductors, CCVS). The AC simulator
    /// handles them fine.
    pub fn has_unscalable_elements(&self) -> bool {
        self.circuit
            .elements()
            .iter()
            .any(|e| matches!(e.kind, ElementKind::Inductor { .. } | ElementKind::Ccvs { .. }))
    }

    /// The structural admittance degree `M`: the number of admittance
    /// factors in every nonzero term of `det(Y_MNA)`.
    ///
    /// Every branch row is constant (±1 and dimensionless gains), and every
    /// branch column can only be covered by an incidence constant from a
    /// node row, so each of the `B` branches removes exactly two admittance
    /// factors: `M = dim − 2B = (#nodes − 1) − B`.
    ///
    /// Only meaningful when [`MnaSystem::has_unscalable_elements`] is false;
    /// CCVS branch rows carry a transresistance and break the argument.
    pub fn admittance_degree(&self) -> i64 {
        self.dim as i64 - 2 * (self.branch_unknowns() as i64)
    }

    /// Numerically measures `M` from `det(λ·Y)/det(Y) = λ^M` at a probe
    /// frequency, with `λ = 2` so the ratio is an exact power of two.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] if the probe determinant vanishes.
    pub fn measured_admittance_degree(&self) -> Result<i64, MnaError> {
        // Probe at a frequency where caps matter: ω ≈ geometric centre of
        // the circuit's time constants, or 1 rad/s if capless.
        let caps = self.circuit.capacitor_values();
        let gs = self.circuit.conductance_values();
        let omega = if caps.is_empty() || gs.is_empty() {
            1.0
        } else {
            let gc = refgen_numeric::stats::geometric_mean(&gs).unwrap_or(1.0);
            let cc = refgen_numeric::stats::geometric_mean(&caps).unwrap_or(1.0);
            gc / cc
        };
        let s = Complex::new(0.3 * omega, omega); // off-axis: avoids jω zeros
        let d1 = self.det(s, Scale::unit())?;
        let d2 = self.det(s, Scale::new(2.0, 2.0))?;
        if d1.is_zero() || d2.is_zero() {
            return Err(MnaError::Singular { at: format!("probe s = {s}") });
        }
        let ratio_log2 = (d2.norm() / d1.norm()).log2();
        Ok(ratio_log2.round() as i64)
    }

    /// Assembles the MNA matrix at complex frequency `s` with scaling.
    pub fn assemble(&self, s: Complex, scale: Scale) -> Triplets {
        let mut t = Triplets::new(self.dim);
        for st in &self.stamps.raw {
            t.add(st.row, st.col, st.value(s, scale));
        }
        t
    }

    /// The deduplicated affine pattern `A(s) = K₀ + s·K₁` at `scale`:
    /// `(row, col, K₀, K₁)` per stamped position, sorted by position. One
    /// pass over the stamp table; bit for bit the merge of
    /// [`MnaSystem::assemble`] at `s = 0` and `s = 1`.
    pub(crate) fn affine_pattern(&self, scale: Scale) -> Vec<(usize, usize, Complex, Complex)> {
        self.stamps.affine(scale)
    }

    /// The stamp table behind [`MnaSystem::affine_pattern`], by reference.
    pub(crate) fn stamp_table(&self) -> &Arc<StampTable> {
        &self.stamps
    }

    /// The value-independent half of the stamp table.
    pub(crate) fn topology(&self) -> &Topology {
        &self.stamps.topology
    }

    /// `true` when both systems stand on one stamp topology: `other` was
    /// compiled [`with_topology_of`](MnaSystem::with_topology_of) this
    /// system (or the other way round, or both of a third), and their raw
    /// stamps matched.
    pub fn shares_topology(&self, other: &MnaSystem) -> bool {
        Arc::ptr_eq(&self.stamps.topology, &other.stamps.topology)
    }

    /// FNV-1a fingerprint of the dimension and the stamped positions:
    /// value-independent, so same-topology variants share it.
    pub(crate) fn pattern_fingerprint(&self) -> u64 {
        self.topology().fingerprint
    }

    /// The stamped positions of [`MnaSystem::affine_pattern`], in order,
    /// each with whether any raw stamp there is reactive (`s·f·X`): the
    /// positions where `K₁` is structurally nonzero.
    pub(crate) fn reactive_pattern(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        let t = self.topology();
        t.positions.iter().zip(&t.reactive).map(|(&(r, c), &reactive)| (r, c, reactive))
    }

    /// Builds the excitation vector `E` from the independent sources.
    pub fn rhs(&self) -> Vec<Complex> {
        let mut e = vec![Complex::ZERO; self.dim];
        for (el, &branch) in self.circuit.elements().iter().zip(&self.branch_rows) {
            match &el.kind {
                ElementKind::VSource { ac } => {
                    let row = branch.expect("V sources have a branch row");
                    e[row] += Complex::real(*ac);
                }
                ElementKind::ISource { ac } => {
                    // Positive current flows p → m through the source.
                    let (p, m) = el.nodes;
                    if let Some(r) = self.node_row(p) {
                        e[r] -= Complex::real(*ac);
                    }
                    if let Some(r) = self.node_row(m) {
                        e[r] += Complex::real(*ac);
                    }
                }
                _ => {}
            }
        }
        e
    }

    /// Factors the system at `s` and returns the LU (for solves and the
    /// determinant).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] if factorization fails.
    pub fn factor(&self, s: Complex, scale: Scale) -> Result<SparseLu, MnaError> {
        let t = self.assemble(s, scale);
        SparseLu::factor(&t).map_err(|e| MnaError::from_factor(e, format!("s = {s}")))
    }

    /// Determinant `D(s)` of the (scaled) MNA matrix — the denominator
    /// polynomial sample of the paper's eq. (9).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] only on dimension-zero pathologies;
    /// a structurally singular matrix yields `ExtComplex::ZERO`.
    pub fn det(&self, s: Complex, scale: Scale) -> Result<ExtComplex, MnaError> {
        match self.factor(s, scale) {
            Ok(lu) => Ok(lu.det()),
            Err(_) => Ok(ExtComplex::ZERO),
        }
    }
}

/// Appends the raw stamps of one element, in assembly order. `branch` is
/// the element's own branch-current row; `control_row` maps a control
/// branch name to its row.
fn stamp(
    raw: &mut Vec<Stamp>,
    el: &Element,
    branch: Option<usize>,
    node_row: &impl Fn(NodeId) -> Option<usize>,
    control_row: &impl Fn(&str) -> usize,
) {
    use StampSign::{Minus, Plus};
    let (rp, rm) = (node_row(el.nodes.0), node_row(el.nodes.1));
    let mut add = |row, col, source, sign| raw.push(Stamp { row, col, source, sign });
    let own_row = || branch.expect("voltage-defined elements have a branch row");
    match &el.kind {
        ElementKind::Resistor { ohms } => {
            stamp_admittance(&mut add, rp, rm, StampSource::Resistance(*ohms));
        }
        ElementKind::Conductance { siemens } => {
            stamp_admittance(&mut add, rp, rm, StampSource::Conductance(*siemens));
        }
        ElementKind::Capacitor { farads } => {
            stamp_admittance(&mut add, rp, rm, StampSource::Reactive(*farads));
        }
        ElementKind::Vccs { gm, control } => {
            let (cp, cm) = (node_row(control.0), node_row(control.1));
            for (node, sign_n) in [(rp, 1.0), (rm, -1.0)] {
                let Some(r) = node else { continue };
                for (ctrl, sign_c) in [(cp, 1.0), (cm, -1.0)] {
                    let Some(c) = ctrl else { continue };
                    add(r, c, StampSource::Conductance(*gm), StampSign::Times(sign_n * sign_c));
                }
            }
        }
        ElementKind::VSource { .. } => {
            stamp_branch_voltage(&mut add, own_row(), rp, rm);
        }
        ElementKind::Vcvs { gain, control } => {
            let row = own_row();
            stamp_branch_voltage(&mut add, row, rp, rm);
            if let Some(c) = node_row(control.0) {
                add(row, c, StampSource::Constant(Complex::real(-gain)), Plus);
            }
            if let Some(c) = node_row(control.1) {
                add(row, c, StampSource::Constant(Complex::real(*gain)), Plus);
            }
        }
        ElementKind::Cccs { gain, control_branch } => {
            let col = control_row(control_branch);
            if let Some(r) = rp {
                add(r, col, StampSource::Constant(Complex::real(*gain)), Plus);
            }
            if let Some(r) = rm {
                add(r, col, StampSource::Constant(Complex::real(-gain)), Plus);
            }
        }
        ElementKind::Ccvs { ohms, control_branch } => {
            let row = own_row();
            stamp_branch_voltage(&mut add, row, rp, rm);
            let col = control_row(control_branch);
            add(row, col, StampSource::Constant(Complex::real(-ohms)), Plus);
        }
        ElementKind::Inductor { henries } => {
            let row = own_row();
            stamp_branch_voltage(&mut add, row, rp, rm);
            // The frequency scale applies to every reactive element:
            // s → f·σ substitutes exactly in the branch equation too.
            add(row, row, StampSource::Reactive(*henries), Minus);
        }
        ElementKind::ISource { .. } => {
            // Pure excitation: appears only in the RHS.
        }
    }
}

/// A two-terminal admittance `y` between rows `rp` and `rm`.
fn stamp_admittance(
    add: &mut impl FnMut(usize, usize, StampSource, StampSign),
    rp: Option<usize>,
    rm: Option<usize>,
    y: StampSource,
) {
    if let Some(i) = rp {
        add(i, i, y, StampSign::Plus);
        if let Some(j) = rm {
            add(i, j, y, StampSign::Minus);
        }
    }
    if let Some(j) = rm {
        add(j, j, y, StampSign::Plus);
        if let Some(i) = rp {
            add(j, i, y, StampSign::Minus);
        }
    }
}

/// Branch voltage definition row and its incidence column entries.
fn stamp_branch_voltage(
    add: &mut impl FnMut(usize, usize, StampSource, StampSign),
    row: usize,
    rp: Option<usize>,
    rm: Option<usize>,
) {
    let one = StampSource::Constant(Complex::ONE);
    if let Some(i) = rp {
        add(row, i, one, StampSign::Plus);
        add(i, row, one, StampSign::Plus);
    }
    if let Some(j) = rm {
        add(row, j, one, StampSign::Minus);
        add(j, row, one, StampSign::Minus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::{rc_ladder, tow_thomas_biquad, ua741};

    fn voltage_divider() -> Circuit {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 2.0).unwrap();
        c.add_resistor("R1", "a", "b", 1e3).unwrap();
        c.add_resistor("R2", "b", "0", 3e3).unwrap();
        c
    }

    #[test]
    fn dimensions() {
        let sys = MnaSystem::new(&voltage_divider()).unwrap();
        assert_eq!(sys.node_unknowns(), 2);
        assert_eq!(sys.branch_unknowns(), 1);
        assert_eq!(sys.dim(), 3);
        assert!(sys.branch_row("V1").is_some());
    }

    #[test]
    fn control_branches_resolve_in_any_case() {
        // The CCCS names its sensing source in lower case: a current
        // mirror of gain 2 into a 1 kΩ load, sensing the divider current.
        let mut c = voltage_divider();
        c.add_vsource("VSENSE", "b", "s", 0.0).unwrap();
        c.add_resistor("RS", "s", "0", 1e3).unwrap();
        c.add_cccs("F1", "0", "o", "vsense", 2.0).unwrap();
        c.add_resistor("RO", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert_eq!(sys.branch_row("vsense"), sys.branch_row("VSENSE"));
        let x = sys.factor(Complex::ZERO, Scale::unit()).unwrap().solve(&sys.rhs());
        let sense = x[sys.branch_row("VSENSE").unwrap()];
        let out = x[sys.node_row(c.find_node("o").unwrap()).unwrap()];
        assert!((out - sense.scale(2e3)).abs() < 1e-12, "{out} vs {sense}");
        assert!(sense.abs() > 1e-6, "the sensed branch carries current");
    }

    #[test]
    fn dc_divider_solution() {
        let c = voltage_divider();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let b_row = sys.node_row(c.find_node("b").unwrap()).unwrap();
        // v(b) = 2 V · 3k/4k = 1.5 V.
        assert!((x[b_row] - Complex::real(1.5)).abs() < 1e-12);
        let a_row = sys.node_row(c.find_node("a").unwrap()).unwrap();
        assert!((x[a_row] - Complex::real(2.0)).abs() < 1e-12);
        // Branch current: 2V/4k = 0.5 mA flowing out of the + terminal.
        let i_row = sys.branch_row("V1").unwrap();
        assert!((x[i_row] + Complex::real(0.5e-3)).abs() < 1e-9, "{}", x[i_row]);
    }

    #[test]
    fn isource_rc() {
        let mut c = Circuit::new();
        c.add_isource("I1", "0", "n", 1e-3).unwrap();
        c.add_resistor("R1", "n", "0", 2e3).unwrap();
        c.add_capacitor("C1", "n", "0", 1e-9).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let n_row = sys.node_row(c.find_node("n").unwrap()).unwrap();
        // 1 mA into 2 kΩ = 2 V.
        assert!((x[n_row] - Complex::real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn capacitor_frequency_dependence() {
        let c = rc_ladder(1, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let w0 = 1.0 / (1e3 * 1e-9);
        let lu = sys.factor(Complex::new(0.0, w0), Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let out = sys.node_row(c.find_node("out").unwrap()).unwrap();
        // At the pole frequency |H| = 1/√2.
        assert!((x[out].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn scale_equivalence_frequency_vs_element() {
        // Scaling all caps by f and evaluating at σ must equal evaluating
        // the unscaled system at s = f·σ.
        let c = rc_ladder(4, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let sigma = Complex::new(0.2, 0.9);
        let f = 1e9;
        let d_scaled = sys.det(sigma, Scale::new(f, 1.0)).unwrap();
        let d_subst = sys.det(sigma.scale(f), Scale::unit()).unwrap();
        let rel = ((d_scaled - d_subst).norm() / d_subst.norm()).to_f64();
        assert!(rel < 1e-12, "rel = {rel}");
    }

    #[test]
    fn admittance_degree_structural_vs_measured() {
        for (name, circuit) in [
            ("ladder", rc_ladder(5, 1e3, 1e-9)),
            ("ota", refgen_circuit::library::positive_feedback_ota()),
            ("biquad", tow_thomas_biquad(10e3, 2.0, 1e4)),
            ("ua741", ua741()),
        ] {
            let sys = MnaSystem::new(&circuit).unwrap();
            let structural = sys.admittance_degree();
            let measured = sys.measured_admittance_degree().unwrap();
            assert_eq!(structural, measured, "{name}");
        }
    }

    #[test]
    fn conductance_scaling_multiplies_det_uniformly() {
        // With f = g = λ, det scales by exactly λ^M.
        let c = rc_ladder(3, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let s = Complex::new(1e5, 3e5);
        let d1 = sys.det(s, Scale::unit()).unwrap();
        let d2 = sys.det(s, Scale::new(4.0, 4.0)).unwrap();
        let m = sys.admittance_degree();
        let expect = d1.scale_ext(refgen_numeric::ExtFloat::from_f64(4.0).powi(m));
        let rel = ((d2 - expect).norm() / expect.norm()).to_f64();
        assert!(rel < 1e-11, "rel = {rel}");
    }

    #[test]
    fn det_of_singular_circuit_is_zero() {
        // Two V sources in parallel on the same node pair: singular MNA.
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_vsource("V2", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.det(Complex::ONE, Scale::unit()).unwrap().is_zero());
    }

    #[test]
    fn unscalable_detection() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_inductor("L1", "a", "b", 1e-6).unwrap();
        c.add_resistor("R1", "b", "0", 50.0).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.has_unscalable_elements());
        let sys2 = MnaSystem::new(&rc_ladder(2, 1.0, 1.0)).unwrap();
        assert!(!sys2.has_unscalable_elements());
    }

    #[test]
    fn inductor_ac_behaviour() {
        // Series RL divider: at ω = R/L, |v(b)/v(a)| = 1/√2 across R.
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_inductor("L1", "a", "b", 1e-3).unwrap();
        c.add_resistor("R1", "b", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let w = 1e3 / 1e-3;
        let lu = sys.factor(Complex::new(0.0, w), Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let b_row = sys.node_row(c.find_node("b").unwrap()).unwrap();
        assert!((x[b_row].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn vcvs_ideal_amplifier() {
        let mut c = Circuit::new();
        c.add_vsource("V1", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_vcvs("E1", "o", "0", "a", "0", -5.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        assert!((x[o] - Complex::real(-5.0)).abs() < 1e-12);
    }

    #[test]
    fn cccs_current_mirror() {
        let mut c = Circuit::new();
        c.add_vsource("VS", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap(); // i(VS) = 1 mA
        c.add_cccs("F1", "0", "o", "VS", 2.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        // SPICE convention: i(VS) = −1 mA (sources driving loads read
        // negative), so F pushes 2·i = −2 mA from node 0 to node o,
        // giving v(o) = −2 V.
        assert!((x[o] - Complex::real(-2.0)).abs() < 1e-9, "{}", x[o]);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut c = Circuit::new();
        c.add_vsource("VS", "a", "0", 1.0).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_ccvs("H1", "o", "0", "VS", 500.0).unwrap();
        c.add_resistor("R2", "o", "0", 1e3).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        assert!(sys.has_unscalable_elements());
        let lu = sys.factor(Complex::ZERO, Scale::unit()).unwrap();
        let x = lu.solve(&sys.rhs());
        let o = sys.node_row(c.find_node("o").unwrap()).unwrap();
        // v(o) = 500 · i(VS) = 500 · (−1 mA) = −0.5 V.
        assert!((x[o] - Complex::real(-0.5)).abs() < 1e-9, "{}", x[o]);
    }
}
