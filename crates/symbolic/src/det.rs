//! Fully symbolic determinant expansion (the SAG baseline).
//!
//! Builds the MNA matrix with *symbolic* entries (every element value is a
//! named symbol) and expands the determinant by recursive Laplace expansion,
//! producing, per power of `s`, the complete list of symbolic product terms
//! with their numeric magnitudes at the design point. The numerator comes
//! from the same machinery via Cramer's rule ([`symbolic_numerator`]), so a
//! complete symbolic `H(s) = N(s)/D(s)` is available for small circuits.
//!
//! Complexity is factorial in the matrix dimension — the expansion is only
//! feasible for small circuits. That wall is precisely why the paper's
//! SDG/SBG techniques (and hence its reference-generation algorithm) exist;
//! here the expansion serves as (a) the SDG term source and (b) an exact
//! cross-check of the interpolation engine on small circuits.

use refgen_circuit::{Circuit, Element, ElementKind, NodeId};
use refgen_core::PolyKind;
use refgen_mna::MnaSystem;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Hard cap on the matrix dimension accepted by the expansion.
pub const MAX_DIM: usize = 14;

/// Hard cap on the distinct `(symbols, power)` keys the expansion's term
/// table may hold, cancelled terms included. The table grows with the
/// element count, not the dimension: the 14-unknown `rc_ladder(12)` fits
/// (75 025 nonzero terms), while the Table 1 OTA (dimension 11, 37
/// capacitors) would grow it until memory runs out and now stops here,
/// in well under a second optimized. At about 100 bytes a key the cap
/// bounds the table near 50 MB.
pub const MAX_TERMS: usize = 1 << 19;

/// Errors from symbolic expansion.
#[derive(Clone, Debug, PartialEq)]
pub enum SymbolicError {
    /// Matrix dimension exceeds [`MAX_DIM`].
    TooLarge {
        /// The offending dimension.
        dim: usize,
    },
    /// The expansion's term table passed [`MAX_TERMS`] distinct terms.
    TooManyTerms {
        /// The cap that was passed.
        cap: usize,
    },
    /// The circuit contains an element kind the symbolic stamps do not
    /// support (only R, G, C, VCCS and independent sources are).
    Unsupported {
        /// Name of the unsupported element.
        element: String,
    },
    /// Underlying MNA construction failed.
    Mna(String),
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::TooLarge { dim } => {
                write!(f, "matrix dimension {dim} exceeds symbolic expansion cap {MAX_DIM}")
            }
            SymbolicError::TooManyTerms { cap } => {
                write!(f, "symbolic expansion passed its cap of {cap} distinct terms")
            }
            SymbolicError::Unsupported { element } => {
                write!(f, "element {element} is not supported by symbolic expansion")
            }
            SymbolicError::Mna(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SymbolicError {}

/// One symbolic product term: `sign · ∏ symbols · s^power`, with the
/// product of the symbols' design-point values cached in `magnitude`.
#[derive(Clone, Debug, PartialEq)]
pub struct SymbolicTerm {
    /// Signed numeric value of the term at the design point.
    pub value: f64,
    /// Sorted element names whose values multiply into this term
    /// (constants from source/branch rows are omitted).
    pub symbols: Vec<String>,
}

impl SymbolicTerm {
    /// |value| — the magnitude used for decreasing-order generation.
    pub fn magnitude(&self) -> f64 {
        self.value.abs()
    }
}

impl fmt::Display for SymbolicTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.symbols.is_empty() {
            write!(f, "{:+.3e}", self.value)
        } else {
            write!(f, "{:+.3e}·{}", self.value, self.symbols.join("·"))
        }
    }
}

/// All terms of one network-function coefficient `h_k`, sorted by
/// decreasing magnitude — the generation order SDG techniques use.
#[derive(Clone, Debug)]
pub struct CoefficientTerms {
    /// Power of `s`.
    pub power: usize,
    /// Terms in decreasing |value| order.
    pub terms: Vec<SymbolicTerm>,
}

impl CoefficientTerms {
    /// Exact coefficient value: the sum of all terms.
    pub fn total(&self) -> f64 {
        self.terms.iter().map(|t| t.value).sum()
    }
}

/// A symbolic matrix entry: a sum of atoms `± value·symbol·s^{0|1}`.
#[derive(Clone, Debug, Default)]
struct EntrySum {
    atoms: Vec<Atom>,
}

#[derive(Clone, Debug)]
struct Atom {
    value: f64,
    s_power: u8,
    /// Symbol table index, or `None` for pure constants (±1 incidence).
    symbol: Option<u16>,
}

struct SymbolicMatrix {
    dim: usize,
    entries: Vec<EntrySum>, // row-major
    symbols: Vec<String>,
}

impl SymbolicMatrix {
    fn at(&self, r: usize, c: usize) -> &EntrySum {
        &self.entries[r * self.dim + c]
    }

    fn at_mut(&mut self, r: usize, c: usize) -> &mut EntrySum {
        &mut self.entries[r * self.dim + c]
    }

    fn add_atom(&mut self, r: usize, c: usize, value: f64, s_power: u8, symbol: Option<u16>) {
        self.at_mut(r, c).atoms.push(Atom { value, s_power, symbol });
    }
}

/// Expands the denominator `det(Y_MNA)` symbolically.
///
/// For the numerator (Cramer cofactor) see
/// [`symbolic_numerator`].
///
/// # Errors
///
/// [`SymbolicError::TooLarge`] beyond [`MAX_DIM`],
/// [`SymbolicError::TooManyTerms`] once the term table passes
/// [`MAX_TERMS`], [`SymbolicError::Unsupported`] for element kinds
/// without symbolic stamps, [`SymbolicError::Mna`] for invalid circuits.
pub fn symbolic_polynomial(
    circuit: &Circuit,
    kind: PolyKind,
) -> Result<Vec<CoefficientTerms>, SymbolicError> {
    assert!(kind == PolyKind::Denominator, "use symbolic_numerator for the numerator");
    expand_determinant(circuit, None)
}

/// Expands the numerator of `v(output)/source` symbolically, by Cramer's
/// rule: the output node's column of `Y_MNA` is replaced by the excitation
/// vector (a single constant in the source's branch row), and the
/// determinant of the modified matrix — normalized by the source amplitude
/// — is exactly `N(s) = H(s)·D(s)`.
///
/// `source` must name an independent *voltage* source and `output` a
/// non-ground node.
///
/// # Errors
///
/// As [`symbolic_polynomial`], plus [`SymbolicError::Mna`] when the source
/// or output cannot be resolved.
pub fn symbolic_numerator(
    circuit: &Circuit,
    source: &str,
    output: &str,
) -> Result<Vec<CoefficientTerms>, SymbolicError> {
    expand_determinant(circuit, Some((source, output)))
}

fn expand_determinant(
    circuit: &Circuit,
    numerator_of: Option<(&str, &str)>,
) -> Result<Vec<CoefficientTerms>, SymbolicError> {
    let sys = MnaSystem::new(circuit).map_err(|e| SymbolicError::Mna(e.to_string()))?;
    let dim = sys.dim();
    if dim > MAX_DIM {
        return Err(SymbolicError::TooLarge { dim });
    }
    let mut m =
        SymbolicMatrix { dim, entries: vec![EntrySum::default(); dim * dim], symbols: Vec::new() };
    let mut symbol_ids: HashMap<String, u16> = HashMap::new();
    let mut intern = |m: &mut SymbolicMatrix, name: &str| -> u16 {
        *symbol_ids.entry(name.to_string()).or_insert_with(|| {
            m.symbols.push(name.to_string());
            (m.symbols.len() - 1) as u16
        })
    };

    for el in circuit.elements() {
        stamp_symbolic(&sys, &mut m, el, &mut intern)?;
    }

    if let Some((source, output)) = numerator_of {
        // Cramer column replacement: col(v_out) ← E.
        let (src_name, _amp) =
            sys.resolve_source(source).map_err(|e| SymbolicError::Mna(e.to_string()))?;
        let branch = sys
            .branch_row(&src_name)
            .ok_or_else(|| SymbolicError::Mna(format!("`{src_name}` is not a V source")))?;
        let out_node = circuit
            .find_node(output)
            .and_then(|id| sys.node_row(id))
            .ok_or_else(|| SymbolicError::Mna(format!("no node `{output}`")))?;
        for r in 0..dim {
            m.at_mut(r, out_node).atoms.clear();
        }
        // E holds the amplitude in the source's branch row; `H = v_out/amp`
        // divides it back out, so the normalized numerator stamps a plain
        // constant 1 — N(s) is amplitude-independent.
        m.add_atom(branch, out_node, 1.0, 0, None);
    }

    // Laplace expansion, accumulating terms keyed by (sorted symbols, power).
    let mut expansion =
        Expansion { m: &m, viable: vec![None; 1 << dim], symbols: Vec::new(), acc: HashMap::new() };
    expansion.expand(0, 1.0, 1.0, 0)?;
    let acc = expansion.acc;

    // Group by power.
    let mut by_power: HashMap<usize, Vec<SymbolicTerm>> = HashMap::new();
    for ((symbols, power), value) in acc {
        if value == 0.0 {
            continue;
        }
        let names: Vec<String> = symbols.iter().map(|&id| m.symbols[id as usize].clone()).collect();
        by_power.entry(power).or_default().push(SymbolicTerm { value, symbols: names });
    }
    let mut out: Vec<CoefficientTerms> = by_power
        .into_iter()
        .map(|(power, mut terms)| {
            terms.sort_by(|a, b| {
                b.magnitude().partial_cmp(&a.magnitude()).expect("finite magnitudes")
            });
            CoefficientTerms { power, terms }
        })
        .collect();
    out.sort_by_key(|c| c.power);
    Ok(out)
}

/// The state of one Laplace expansion along the rows in order.
struct Expansion<'a> {
    m: &'a SymbolicMatrix,
    /// Whether the rows from `popcount(mask)` on can still be matched to
    /// the columns outside `mask`, indexed by `mask`; filled on demand.
    viable: Vec<Option<bool>>,
    /// Symbols of the partial product being expanded.
    symbols: Vec<u16>,
    /// The term table: product value summed by `(sorted symbols, power)`.
    acc: HashMap<(Vec<u16>, usize), f64>,
}

impl Expansion<'_> {
    /// `true` when the rows below `used`'s column count have a structural
    /// perfect matching into the columns outside `used`. Skipping the
    /// columns that leave none prunes every partial product that could
    /// never complete: without it, each atom of an entry re-explores the
    /// same dead subtree, which is what made the Table 1 OTA's expansion
    /// crawl.
    fn viable(&mut self, used: u32) -> bool {
        let row = used.count_ones() as usize;
        if row == self.m.dim {
            return true;
        }
        if let Some(known) = self.viable[used as usize] {
            return known;
        }
        let known = (0..self.m.dim).any(|c| {
            used & (1 << c) == 0
                && !self.m.at(row, c).atoms.is_empty()
                && self.viable(used | (1 << c))
        });
        self.viable[used as usize] = Some(known);
        known
    }

    /// Expands every completion of the partial product `sign · value ·
    /// s^s_power` over the columns outside `used` into the term table.
    fn expand(
        &mut self,
        used: u32,
        sign: f64,
        value: f64,
        s_power: usize,
    ) -> Result<(), SymbolicError> {
        let m = self.m;
        let row = used.count_ones() as usize;
        if row == m.dim {
            let mut key = self.symbols.clone();
            key.sort_unstable();
            let full = self.acc.len() >= MAX_TERMS;
            match self.acc.entry((key, s_power)) {
                Entry::Occupied(term) => *term.into_mut() += sign * value,
                Entry::Vacant(_) if full => {
                    return Err(SymbolicError::TooManyTerms { cap: MAX_TERMS })
                }
                Entry::Vacant(term) => {
                    term.insert(sign * value);
                }
            }
            return Ok(());
        }
        for c in 0..m.dim {
            let entry = m.at(row, c);
            if used & (1 << c) != 0 || entry.atoms.is_empty() || !self.viable(used | (1 << c)) {
                continue;
            }
            // Parity: number of used columns below c determines the
            // cofactor sign contribution for expanding along rows in order.
            let skipped = (used & ((1 << c) - 1)).count_ones() as usize;
            let local_sign = if (c - skipped).is_multiple_of(2) { 1.0 } else { -1.0 };
            for atom in &entry.atoms {
                if let Some(sym) = atom.symbol {
                    self.symbols.push(sym);
                }
                self.expand(
                    used | (1 << c),
                    sign * local_sign,
                    value * atom.value,
                    s_power + atom.s_power as usize,
                )?;
                if atom.symbol.is_some() {
                    self.symbols.pop();
                }
            }
        }
        Ok(())
    }
}

fn stamp_symbolic(
    sys: &MnaSystem,
    m: &mut SymbolicMatrix,
    el: &Element,
    intern: &mut impl FnMut(&mut SymbolicMatrix, &str) -> u16,
) -> Result<(), SymbolicError> {
    let row_of = |n: NodeId| sys.node_row(n);
    let (p, mi) = el.nodes;
    match &el.kind {
        ElementKind::Resistor { ohms } => {
            let sym = intern(m, &el.name);
            stamp_adm(m, row_of(p), row_of(mi), 1.0 / ohms, 0, Some(sym));
        }
        ElementKind::Conductance { siemens } => {
            let sym = intern(m, &el.name);
            stamp_adm(m, row_of(p), row_of(mi), *siemens, 0, Some(sym));
        }
        ElementKind::Capacitor { farads } => {
            let sym = intern(m, &el.name);
            stamp_adm(m, row_of(p), row_of(mi), *farads, 1, Some(sym));
        }
        ElementKind::Vccs { gm, control } => {
            let sym = Some(intern(m, &el.name));
            let (cp, cm) = (row_of(control.0), row_of(control.1));
            for (node, sn) in [(row_of(p), 1.0), (row_of(mi), -1.0)] {
                let Some(r) = node else { continue };
                for (ctrl, sc) in [(cp, 1.0), (cm, -1.0)] {
                    let Some(c) = ctrl else { continue };
                    m.add_atom(r, c, gm * sn * sc, 0, sym);
                }
            }
        }
        ElementKind::VSource { .. } => {
            let row = sys.branch_row(&el.name).expect("branch exists");
            for (node, sgn) in [(row_of(p), 1.0), (row_of(mi), -1.0)] {
                let Some(r) = node else { continue };
                m.add_atom(row, r, sgn, 0, None);
                m.add_atom(r, row, sgn, 0, None);
            }
        }
        ElementKind::ISource { .. } => {}
        _ => {
            return Err(SymbolicError::Unsupported { element: el.name.clone() });
        }
    }
    Ok(())
}

fn stamp_adm(
    m: &mut SymbolicMatrix,
    rp: Option<usize>,
    rm: Option<usize>,
    value: f64,
    s_power: u8,
    symbol: Option<u16>,
) {
    if let Some(i) = rp {
        m.add_atom(i, i, value, s_power, symbol);
        if let Some(j) = rm {
            m.add_atom(i, j, -value, s_power, symbol);
        }
    }
    if let Some(j) = rm {
        m.add_atom(j, j, value, s_power, symbol);
        if let Some(i) = rp {
            m.add_atom(j, i, -value, s_power, symbol);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::rc_ladder;
    use refgen_core::Session;
    use refgen_mna::TransferSpec;

    #[test]
    fn rc_one_section_terms() {
        // Ladder-1 MNA: nodes in,out + V branch → dim 3.
        // det = -(G + sC) up to sign: two terms, one per power.
        let c = rc_ladder(1, 1e3, 1e-9);
        let coeffs = symbolic_polynomial(&c, PolyKind::Denominator).unwrap();
        assert_eq!(coeffs.len(), 2);
        assert_eq!(coeffs[0].power, 0);
        assert_eq!(coeffs[0].terms.len(), 1);
        assert_eq!(coeffs[0].terms[0].symbols, vec!["R1".to_string()]);
        assert!((coeffs[0].total().abs() - 1e-3).abs() < 1e-18);
        assert_eq!(coeffs[1].power, 1);
        assert_eq!(coeffs[1].terms[0].symbols, vec!["C1".to_string()]);
        assert!((coeffs[1].total().abs() - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn symbolic_matches_interpolated_reference() {
        // The headline cross-check: full symbolic expansion and the
        // adaptive interpolation engine must produce the same coefficients.
        let c = rc_ladder(4, 2e3, 0.5e-9);
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let coeffs = symbolic_polynomial(&c, PolyKind::Denominator).unwrap();
        let nf = Session::for_circuit(&c).spec(spec.clone()).solve().unwrap().network;
        for ct in &coeffs {
            let sym = ct.total();
            let num = nf.denominator.coeffs()[ct.power].re().to_f64();
            let rel = (sym - num).abs() / sym.abs();
            assert!(rel < 1e-6, "power {}: symbolic {sym} vs interpolated {num}", ct.power);
        }
    }

    #[test]
    fn numerator_of_ladder_is_constant_term() {
        // N(s) of an RC ladder is the constant ∏G (no zeros): exactly one
        // symbolic term at power 0.
        let c = rc_ladder(3, 1e3, 1e-9);
        let n = symbolic_numerator(&c, "VIN", "out").unwrap();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].power, 0);
        assert_eq!(n[0].terms.len(), 1);
        assert_eq!(
            n[0].terms[0].symbols,
            vec!["R1".to_string(), "R2".to_string(), "R3".to_string()]
        );
    }

    #[test]
    fn symbolic_numerator_matches_interpolated() {
        // Band-pass RC: numerator has a zero at the origin and real terms.
        let mut c = refgen_circuit::Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_capacitor("C1", "in", "a", 1e-9).unwrap();
        c.add_resistor("R1", "a", "0", 1e3).unwrap();
        c.add_resistor("R2", "a", "out", 2e3).unwrap();
        c.add_capacitor("C2", "out", "0", 1e-10).unwrap();
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let n_terms = symbolic_numerator(&c, "VIN", "out").unwrap();
        let d_terms = symbolic_polynomial(&c, PolyKind::Denominator).unwrap();
        let nf = Session::for_circuit(&c).spec(spec.clone()).solve().unwrap().network;
        for (terms, poly) in [(&n_terms, &nf.numerator), (&d_terms, &nf.denominator)] {
            for ct in terms.iter() {
                let sym = ct.total();
                let num = poly.coeffs()[ct.power].re().to_f64();
                if sym == 0.0 {
                    assert!(num.abs() < 1e-30);
                    continue;
                }
                let rel = (sym - num).abs() / sym.abs();
                assert!(rel < 1e-6, "power {}: {sym} vs {num}", ct.power);
            }
        }
    }

    #[test]
    fn symbolic_transfer_ratio_matches_ac() {
        // Evaluate H = N/D from the symbolic term sums at a real frequency
        // and compare with the AC simulator — a full SAG analysis check.
        let c = rc_ladder(4, 1e3, 1e-9);
        let n_terms = symbolic_numerator(&c, "VIN", "out").unwrap();
        let d_terms = symbolic_polynomial(&c, PolyKind::Denominator).unwrap();
        let eval = |terms: &[CoefficientTerms], s: refgen_numeric::Complex| {
            terms.iter().fold(refgen_numeric::Complex::ZERO, |acc, ct| {
                acc + s.powi(ct.power as i32).scale(ct.total())
            })
        };
        let spec = TransferSpec::voltage_gain("VIN", "out");
        let ac = refgen_mna::AcAnalysis::new(&c, spec).unwrap();
        for f in [1e3, 2e5, 1e7] {
            let s = refgen_numeric::Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
            let h_sym = eval(&n_terms, s) / eval(&d_terms, s);
            let h_ac = ac.at(f).unwrap().response;
            let rel = (h_sym - h_ac).abs() / h_ac.abs();
            assert!(rel < 1e-10, "at {f} Hz: {h_sym} vs {h_ac}");
        }
    }

    #[test]
    fn term_counts_grow_combinatorially() {
        // The expression-length explosion that motivates simplification.
        let t3: usize = symbolic_polynomial(&rc_ladder(3, 1e3, 1e-9), PolyKind::Denominator)
            .unwrap()
            .iter()
            .map(|c| c.terms.len())
            .sum();
        let t5: usize = symbolic_polynomial(&rc_ladder(5, 1e3, 1e-9), PolyKind::Denominator)
            .unwrap()
            .iter()
            .map(|c| c.terms.len())
            .sum();
        assert!(t5 > 2 * t3, "t3={t3}, t5={t5}");
    }

    /// The term cap stops the Table 1 OTA's denominator with a typed
    /// error instead of exhausting memory, while its numerator and the
    /// 14-unknown `rc_ladder(12)` still expand in full.
    #[test]
    fn term_cap_stops_the_ota_and_spares_the_ladder() {
        let ota = refgen_circuit::library::positive_feedback_ota();
        assert_eq!(
            symbolic_polynomial(&ota, PolyKind::Denominator).unwrap_err(),
            SymbolicError::TooManyTerms { cap: MAX_TERMS }
        );
        assert!(symbolic_numerator(&ota, "VIN", "out").is_ok());
        let ladder = symbolic_polynomial(&rc_ladder(12, 1e3, 1e-9), PolyKind::Denominator).unwrap();
        assert_eq!(ladder.iter().map(|c| c.terms.len()).sum::<usize>(), 75_025);
        assert_eq!(ladder.last().map(|c| c.power), Some(12));
    }

    #[test]
    fn dimension_cap_enforced() {
        let c = rc_ladder(20, 1e3, 1e-9);
        assert!(matches!(
            symbolic_polynomial(&c, PolyKind::Denominator),
            Err(SymbolicError::TooLarge { .. })
        ));
    }

    #[test]
    fn unsupported_elements_rejected() {
        let mut c = refgen_circuit::Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_vcvs("E1", "out", "0", "in", "0", 2.0).unwrap();
        c.add_resistor("R1", "out", "0", 1e3).unwrap();
        c.add_capacitor("C1", "out", "0", 1e-9).unwrap();
        c.add_resistor("R2", "in", "out", 1e3).unwrap();
        assert!(matches!(
            symbolic_polynomial(&c, PolyKind::Denominator),
            Err(SymbolicError::Unsupported { .. })
        ));
    }

    #[test]
    fn terms_sorted_decreasing() {
        let c = rc_ladder(4, 1e3, 1e-9);
        let coeffs = symbolic_polynomial(&c, PolyKind::Denominator).unwrap();
        for ct in &coeffs {
            for w in ct.terms.windows(2) {
                assert!(w[0].magnitude() >= w[1].magnitude());
            }
        }
    }
}
