//! SPICE-like netlist parsing and writing.
//!
//! Statements are case-insensitive; `*` starts a comment line, `;` an
//! inline comment, `+` a continuation of the previous logical line, and
//! `.end` (optionally) terminates the file. Names are case-insensitive
//! too: nodes, elements (and so the sources a `F`/`H` line or a `.TF`
//! card names), `.SUBCKT` blocks, their ports and parameters, and
//! `.MODEL` cards. `R1` and `r1` on two lines are a
//! [`CircuitError::DuplicateName`]; every name keeps the case of its
//! first occurrence ([`Circuit`] holds the rule).
//!
//! ```text
//! R<name> n+ n- value               resistor
//! C<name> n+ n- value               capacitor
//! L<name> n+ n- value               inductor
//! G<name> n+ n- value               two-terminal conductance (siemens)
//! G<name> n+ n- nc+ nc- gm          VCCS
//! E<name> n+ n- nc+ nc- gain        VCVS
//! F<name> n+ n- vname gain          CCCS (controlled by V source current)
//! H<name> n+ n- vname ohms          CCVS
//! V<name> n+ n- [DC v] [AC] value [wave]   independent voltage source
//! I<name> n+ n- [DC v] [AC] value [wave]   independent current source
//! Q<name> c b e model               BJT, expanded via its small-signal model
//! M<name> d g s b model             MOSFET, expanded likewise
//! X<name> n1 … subckt [k=v …]       subcircuit instance
//! .subckt NAME p1 … [k=v …]         subcircuit definition, until .ends
//! .ends [NAME]                      closes the innermost .subckt
//! .param k=v …                      parameter assignment (lexically scoped)
//! .model NAME KIND(k=v …)           transistor model card (global)
//! .ac dec|oct|lin N fstart fstop    AC sweep card  → [`AnalysisSpec`]
//! .tf V(out[,ref]) SOURCE           transfer-function card → [`AnalysisSpec`]
//! .tran tstep tstop [tstart]        transient card → [`AnalysisSpec`]
//! .end                              optional end of netlist
//! ```
//!
//! A V/I source line may end with a time-domain waveform spec —
//! `PULSE(v1 v2 [delay [rise [fall [width [period]]]]])`,
//! `SIN(vo va freq [delay [theta]])`, or `PWL(t1 v1 t2 v2 …)` — whose
//! arguments may be separated by spaces or commas; a `DC v` field without
//! one becomes a constant [`Waveform::Dc`] drive. The transient engine
//! reads the waveform; the frequency-domain paths keep using the `AC`
//! amplitude. A second analysis card of a kind already seen (`.AC` twice,
//! `.TRAN` twice) is a typed [`ParseError::DuplicateAnalysis`], not a
//! silent last-wins.
//!
//! # Hierarchy
//!
//! `.SUBCKT` bodies are flattened at parse time. Instance `X1` of a block
//! containing `R3` and internal node `n5` produces element `X1.R3` on node
//! `X1.n5`; nesting composes (`X1.X2.n5`). Port nodes map to the instance's
//! connection nodes, `0`/`gnd` always mean ground, and recursive
//! instantiation is rejected with [`ParseError::SubcktRecursion`].
//! Definitions live in one global namespace (nested definitions are
//! hoisted) and must precede nothing — an `X` line may reference a block
//! defined later in the file.
//!
//! # Parameters
//!
//! `.SUBCKT` headers may declare `k=v` defaults; `X` lines may override
//! them after the block name. Element values can then reference a
//! parameter by bare name or in braces (`R1 a b {r}`); `.param` assigns or
//! reassigns parameters in the current scope. Defaults and overrides are
//! evaluated in the *caller's* scope, so a default may reference an outer
//! parameter.
//!
//! # Transistors
//!
//! Devices are linearized at parse time: this is a small-signal analysis
//! library, so the model card carries the *operating point* (`ic`/`id`)
//! alongside the process parameters, and the device line expands into the
//! hybrid-π / saturation model of [`crate::models`]. Unspecified
//! parameters take textbook defaults.
//!
//! # Values
//!
//! Values accept plain scientific notation (`1e-9`) or an engineering
//! scale factor `f p n u m k meg g t` followed by an optional unit word
//! (`30p`, `2.5MEG`, `30pF`, `1kOhm`). At most one scale factor is
//! consumed: `3.3kk` is an error, not 3300.
//!
//! # Cost
//!
//! The reader borrows: a logical line stays a slice of the input unless a
//! continuation joins it, tokens go into one reused buffer per block, and
//! top-level node and element names reach the [`Circuit`] as slices, so a
//! flat netlist allocates little beyond the circuit itself (one string per
//! element and node name). Value parsing is linear
//! in the token: a plain float goes straight to [`str::parse`], and a
//! suffixed one takes one scan of the float grammar.
//!
//! # Writing
//!
//! [`to_spice`] is an inverse of [`parse_spice`] over the supported
//! element set: `parse_spice(to_spice(c))` reproduces every element name,
//! kind, and node of `c`. Elements whose API name does not begin with
//! their SPICE type letter are written with a `<letter>@<name>` head
//! (`V@SRC1 in 0 AC 1`), which the parser strips back to `SRC1`.

use crate::analysis::{AcCard, AnalysisCard, AnalysisSpec, SweepGrid, TfCard, TfOutput, TranCard};
use crate::element::ElementKind;
use crate::models::{BjtSmallSignal, MosSmallSignal};
use crate::netlist::{Circuit, CircuitError};
use crate::waveform::Waveform;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Errors from netlist parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number in the input.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The parsed element was rejected by the circuit builder.
    Circuit {
        /// 1-based line number in the input.
        line: usize,
        /// Underlying builder error.
        source: CircuitError,
    },
    /// A device line references a model card that was never defined.
    UnknownModel {
        /// 1-based line number of the device.
        line: usize,
        /// The missing model name.
        model: String,
    },
    /// An `X` line references a subcircuit that was never defined.
    UnknownSubckt {
        /// 1-based line number of the instance.
        line: usize,
        /// The missing subcircuit name.
        name: String,
    },
    /// A subcircuit instantiates itself, directly or through other blocks.
    SubcktRecursion {
        /// 1-based line number of the instance that closes the cycle.
        line: usize,
        /// The subcircuit whose expansion is already in progress.
        name: String,
    },
    /// An `X` line connects the wrong number of nodes for its subcircuit.
    PortCountMismatch {
        /// 1-based line number of the instance.
        line: usize,
        /// The subcircuit name.
        subckt: String,
        /// Ports the definition declares.
        expected: usize,
        /// Nodes the instance supplied.
        found: usize,
    },
    /// A `.SUBCKT` definition is never closed by `.ENDS`.
    UnterminatedSubckt {
        /// 1-based line number of the `.SUBCKT` card.
        line: usize,
        /// The unterminated definition's name.
        name: String,
    },
    /// A second analysis card of a kind the netlist already carries
    /// (`.AC` twice, `.TRAN` twice, …) — rejected instead of silently
    /// letting the last card win.
    DuplicateAnalysis {
        /// 1-based line number of the second card.
        line: usize,
        /// The directive kind (`".AC"`, `".TF"`, `".TRAN"`).
        kind: &'static str,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Circuit { line, source } => write!(f, "line {line}: {source}"),
            ParseError::UnknownModel { line, model } => {
                write!(f, "line {line}: device references unknown model `{model}`")
            }
            ParseError::UnknownSubckt { line, name } => {
                write!(f, "line {line}: instance references unknown subcircuit `{name}`")
            }
            ParseError::SubcktRecursion { line, name } => {
                write!(f, "line {line}: recursive instantiation of subcircuit `{name}`")
            }
            ParseError::PortCountMismatch { line, subckt, expected, found } => {
                write!(
                    f,
                    "line {line}: subcircuit `{subckt}` declares {expected} ports, \
                     instance connects {found} nodes"
                )
            }
            ParseError::UnterminatedSubckt { line, name } => {
                write!(f, "line {line}: .subckt `{name}` is never closed by .ends")
            }
            ParseError::DuplicateAnalysis { line, kind } => {
                write!(f, "line {line}: duplicate {kind} card (only one per netlist)")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Circuit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Engineering scale factors, single letter each (`meg` is handled apart).
const SCALE_FACTORS: &[(char, f64)] = &[
    ('t', 1e12),
    ('g', 1e9),
    ('k', 1e3),
    ('m', 1e-3),
    ('u', 1e-6),
    ('n', 1e-9),
    ('p', 1e-12),
    ('f', 1e-15),
];

/// Unit words a value may carry after its (optional) scale factor. These
/// are ignored: `30pF` is 30 pF, `1kOhm` is 1 kΩ, `30q` is 30.
const UNIT_WORDS: &[&str] = &[
    "f", "h", "hz", "v", "a", "s", "q", "ohm", "ohms", "mho", "mhos", "farad", "farads", "henry",
    "henries", "henrys", "amp", "amps", "volt", "volts", "sec", "siemens",
];

/// Parses an engineering-notation value like `30p`, `1k`, `2.5MEG`, `1e-9`.
///
/// At most one scale factor is consumed, after which only a known unit
/// word may follow — `30pF` and `1kOhm` are values, `3.3kk` is not.
///
/// Returns `None` if the token is not a valid value.
pub fn parse_value(token: &str) -> Option<f64> {
    let (num, rest) = split_numeric_prefix(token.trim())?;
    if rest.is_empty() {
        return Some(num);
    }
    // Consume at most one scale factor, `meg` before `m`, in any case.
    let (mult, unit) = if starts_with_ignore_case(rest, "meg") {
        (1e6, &rest[3..])
    } else {
        let first = rest.as_bytes()[0].to_ascii_lowercase();
        match SCALE_FACTORS.iter().find(|&&(c, _)| c as u8 == first) {
            Some((_, mult)) => (*mult, &rest[1..]),
            None => (1.0, rest),
        }
    };
    if !unit.is_empty() && !UNIT_WORDS.iter().any(|w| w.eq_ignore_ascii_case(unit)) {
        return None;
    }
    let v = num * mult;
    v.is_finite().then_some(v)
}

/// `true` if `s` begins with the ASCII `prefix`, in any case.
fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
    s.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

/// Splits the longest prefix of `t` that parses as a finite float, in one
/// scan of the float grammar (`[sign] digits [. digits] [e [sign]
/// digits]`, at least one mantissa digit): linear in the token.
///
/// When that longest literal is not finite (`1e999k`), no split exists:
/// every shorter prefix that parses leaves a digit, `.` or `e` behind,
/// which neither a scale factor nor a unit word accepts, so the token is
/// not a value either way.
fn split_numeric_prefix(t: &str) -> Option<(f64, &str)> {
    let b = t.as_bytes();
    let digits_from = |mut i: usize| {
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let start = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let int = start..digits_from(start);
    let mut frac = int.end..int.end;
    if b.get(int.end) == Some(&b'.') {
        frac = int.end + 1..digits_from(int.end + 1);
    }
    if int.is_empty() && frac.is_empty() {
        return None;
    }
    let mut end = frac.end;
    let mut exp = 0i64;
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let exp_start = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        let exp_end = digits_from(exp_start);
        if exp_end > exp_start {
            // Saturates far beyond any digit count a token can carry.
            let magnitude = b[exp_start..exp_end]
                .iter()
                .fold(0i64, |e, d| (10 * e + i64::from(d - b'0')).min(1 << 53));
            exp = if b[end + 1] == b'-' { -magnitude } else { magnitude };
            end = exp_end;
        }
    }
    let v = if exp.abs() < LITERAL_EXPONENT_LIMIT {
        t[..end].parse().ok()?
    } else {
        folded_literal(&t[..start], &t[int], &t[frac], exp)
    };
    v.is_finite().then_some((v, &t[end..]))
}

/// Explicit exponents from this magnitude up are saturated by
/// `f64::from_str`, which then misreads a literal whose digit count
/// compensates them (`1` and 10⁶ zeros `e-999990` reads as infinity).
const LITERAL_EXPONENT_LIMIT: i64 = 0x10000;

/// The value of the literal `sign int.frac e exp`, computed with the
/// decimal point folded into an `i64` exponent: the digits read as
/// `0.d₁d₂…` (leading zeros stripped) times `10^e`, so the float parse
/// sees an exponent it does not saturate.
fn folded_literal(sign: &str, int: &str, frac: &str, exp: i64) -> f64 {
    let lead = int.bytes().chain(frac.bytes()).take_while(|&d| d == b'0').count();
    // The value lies in [10^(e−1), 10^e): beyond ±400 it overflows or
    // rounds to zero whatever the digits, so clamping `e` keeps the result.
    let e = exp.saturating_add(int.len() as i64 - lead as i64).clamp(-400, 400);
    let (int, frac) = match int.get(lead..) {
        Some(int) => (int, frac),
        None => ("", &frac[lead - int.len()..]),
    };
    format!("{sign}0.{int}{frac}e{e}").parse().expect("a well-formed float literal")
}

fn syntax(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax { line, message: message.into() }
}

/// A fully parsed netlist: the flattened circuit plus any analysis cards.
#[derive(Clone, Debug)]
pub struct Netlist {
    /// The flattened circuit.
    pub circuit: Circuit,
    /// `.AC` / `.TF` / `.TRAN` cards, in file order.
    pub analysis: AnalysisSpec,
}

/// Parses a SPICE-like netlist into a [`Circuit`], discarding analysis
/// cards. See [`parse_netlist`] for the full result.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for syntax errors,
/// circuit-builder rejections (duplicate names, bad values, …), and
/// subcircuit errors (unknown block, port-count mismatch, recursion,
/// unterminated definition).
pub fn parse_spice(input: &str) -> Result<Circuit, ParseError> {
    parse_netlist(input).map(|n| n.circuit)
}

/// Parses a SPICE-like netlist into a flattened [`Circuit`] plus the typed
/// [`AnalysisSpec`] of its `.AC`/`.TF` cards.
///
/// # Errors
///
/// As for [`parse_spice`].
pub fn parse_netlist(input: &str) -> Result<Netlist, ParseError> {
    let logical = logical_lines(input)?;
    let scan = scan_statements(logical)?;
    let mut expander = Expander {
        subckts: &scan.subckts,
        models: &scan.models,
        circuit: Circuit::new(),
        active: Vec::new(),
    };
    let mut root = Frame::root();
    expander.expand_block(&scan.main, &mut root)?;
    Ok(Netlist { circuit: expander.circuit, analysis: scan.analysis })
}

/// One logical line and the number of its first physical line.
type Statement<'t> = (usize, Cow<'t, str>);

/// Joins continuation lines and strips comments, remembering original
/// line numbers. A line stays a slice of `input` unless a continuation
/// joins onto it.
fn logical_lines(input: &str) -> Result<Vec<Statement<'_>>, ParseError> {
    let mut logical: Vec<Statement<'_>> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = match raw.find(';') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = without_comment.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    let prev = prev.to_mut();
                    prev.push(' ');
                    prev.push_str(cont.trim());
                }
                None => return Err(syntax(line_no, "continuation with no previous line")),
            }
            continue;
        }
        logical.push((line_no, Cow::Borrowed(trimmed)));
    }
    Ok(logical)
}

/// A `.SUBCKT` definition collected by the scan phase.
struct SubcktDef<'t> {
    /// Name as written (lookup is case-insensitive).
    name: String,
    /// Line of the `.SUBCKT` card.
    line: usize,
    /// Port names, lowercased.
    ports: Vec<String>,
    /// `k=v` defaults from the header, key lowercased, value unparsed.
    defaults: Vec<(String, String)>,
    /// Body statements with original line numbers.
    body: Vec<Statement<'t>>,
}

/// Result of the statement scan: main-body lines, definitions, models,
/// analysis cards.
struct Scan<'t> {
    main: Vec<Statement<'t>>,
    subckts: HashMap<String, SubcktDef<'t>>,
    models: HashMap<String, ModelCard>,
    analysis: AnalysisSpec,
}

fn scan_statements(logical: Vec<Statement<'_>>) -> Result<Scan<'_>, ParseError> {
    let mut scan = Scan {
        main: Vec::new(),
        subckts: HashMap::new(),
        models: HashMap::new(),
        analysis: AnalysisSpec::default(),
    };
    // Definitions currently open; nested definitions are hoisted into the
    // single global namespace when their `.ends` closes them.
    let mut stack: Vec<SubcktDef> = Vec::new();
    for (line_no, stmt) in logical {
        if !stmt.starts_with('.') {
            match stack.last_mut() {
                Some(def) => def.body.push((line_no, stmt)),
                None => scan.main.push((line_no, stmt)),
            }
            continue;
        }
        let tokens: Vec<&str> = stmt.split_whitespace().collect();
        let directive = tokens[0][1..].to_ascii_lowercase();
        match directive.as_str() {
            "subckt" => stack.push(parse_subckt_header(line_no, &tokens)?),
            "ends" => {
                let def = stack
                    .pop()
                    .ok_or_else(|| syntax(line_no, ".ends without a matching .subckt"))?;
                if let Some(tag) = tokens.get(1) {
                    if !tag.eq_ignore_ascii_case(&def.name) {
                        return Err(syntax(
                            line_no,
                            format!(".ends {tag} does not close .subckt {}", def.name),
                        ));
                    }
                }
                let (dline, dname) = (def.line, def.name.clone());
                if scan.subckts.insert(dname.to_ascii_lowercase(), def).is_some() {
                    return Err(syntax(dline, format!("duplicate .subckt definition `{dname}`")));
                }
            }
            "end" => {
                if let Some(def) = stack.last() {
                    return Err(ParseError::UnterminatedSubckt {
                        line: def.line,
                        name: def.name.clone(),
                    });
                }
                break;
            }
            "model" => {
                let (name, card) = parse_model_card(line_no, &stmt)?;
                scan.models.insert(name, card);
            }
            "ac" | "tf" | "tran" => {
                if let Some(def) = stack.last() {
                    return Err(syntax(
                        line_no,
                        format!(".{directive}: analysis card inside .subckt {}", def.name),
                    ));
                }
                let card = match directive.as_str() {
                    "ac" => AnalysisCard::Ac(parse_ac_card(line_no, &tokens)?),
                    "tf" => AnalysisCard::Tf(parse_tf_card(line_no, &tokens)?),
                    _ => AnalysisCard::Tran(parse_tran_card(line_no, &tokens)?),
                };
                if scan.analysis.cards.iter().any(|c| c.kind_name() == card.kind_name()) {
                    return Err(ParseError::DuplicateAnalysis {
                        line: line_no,
                        kind: card.kind_name(),
                    });
                }
                scan.analysis.cards.push(card);
            }
            // `.param` is scoped: defer it to the expansion phase.
            "param" => match stack.last_mut() {
                Some(def) => def.body.push((line_no, stmt.clone())),
                None => scan.main.push((line_no, stmt.clone())),
            },
            _ => {} // other directives are ignored
        }
    }
    if let Some(def) = stack.last() {
        return Err(ParseError::UnterminatedSubckt { line: def.line, name: def.name.clone() });
    }
    Ok(scan)
}

/// Parses `.subckt NAME port… [k=v …]`.
fn parse_subckt_header<'t>(line: usize, tokens: &[&str]) -> Result<SubcktDef<'t>, ParseError> {
    if tokens.len() < 3 || tokens[1].contains('=') {
        return Err(syntax(line, ".subckt: expected `.SUBCKT NAME port… [k=v …]`"));
    }
    let name = tokens[1].to_string();
    let mut ports: Vec<String> = Vec::new();
    let mut defaults: Vec<(String, String)> = Vec::new();
    for tok in &tokens[2..] {
        match tok.split_once('=') {
            Some((k, v)) => {
                if k.is_empty() || v.is_empty() {
                    return Err(syntax(line, format!(".subckt: bad parameter default `{tok}`")));
                }
                defaults.push((k.to_ascii_lowercase(), v.to_string()));
            }
            None => {
                if !defaults.is_empty() {
                    return Err(syntax(
                        line,
                        format!(".subckt: port `{tok}` after parameter defaults"),
                    ));
                }
                let lc = tok.to_ascii_lowercase();
                if lc == "0" || lc == "gnd" {
                    return Err(syntax(line, "ground cannot be a subcircuit port"));
                }
                if ports.contains(&lc) {
                    return Err(syntax(line, format!(".subckt: duplicate port `{tok}`")));
                }
                ports.push(lc);
            }
        }
    }
    if ports.is_empty() {
        return Err(syntax(line, ".subckt: expected at least one port"));
    }
    Ok(SubcktDef { name, line, ports, defaults, body: Vec::new() })
}

/// Parses `.ac dec|oct|lin N fstart fstop`.
fn parse_ac_card(line: usize, tokens: &[&str]) -> Result<AcCard, ParseError> {
    if tokens.len() < 5 {
        return Err(syntax(line, ".ac: expected `.AC dec|oct|lin N fstart fstop`"));
    }
    let grid = match tokens[1].to_ascii_lowercase().as_str() {
        "dec" => SweepGrid::Decade,
        "oct" => SweepGrid::Octave,
        "lin" => SweepGrid::Linear,
        other => {
            return Err(syntax(line, format!(".ac: unknown grid `{other}` (dec, oct, or lin)")));
        }
    };
    let points =
        parse_value(tokens[2]).filter(|p| (1.0..=1e6).contains(p) && p.fract() == 0.0).ok_or_else(
            || syntax(line, format!(".ac: point count `{}` is not a positive integer", tokens[2])),
        )?;
    let value = |tok: &str| {
        parse_value(tok).ok_or_else(|| syntax(line, format!(".ac: invalid frequency `{tok}`")))
    };
    let fstart = value(tokens[3])?;
    let fstop = value(tokens[4])?;
    if fstart < 0.0 || fstop < fstart {
        return Err(syntax(line, ".ac: need 0 <= fstart <= fstop"));
    }
    if grid != SweepGrid::Linear && fstart <= 0.0 {
        return Err(syntax(line, ".ac: logarithmic sweeps need fstart > 0"));
    }
    Ok(AcCard { grid, points: points as usize, fstart_hz: fstart, fstop_hz: fstop })
}

/// Parses `.tf V(out[,ref]) SOURCE` (whitespace inside `V(…)` allowed).
fn parse_tf_card(line: usize, tokens: &[&str]) -> Result<TfCard, ParseError> {
    if tokens.len() < 3 {
        return Err(syntax(line, ".tf: expected `.TF V(out[,ref]) SOURCE`"));
    }
    let source = tokens[tokens.len() - 1].to_string();
    let expr = tokens[1..tokens.len() - 1].concat();
    let well_formed = expr.get(..2).is_some_and(|p| p.eq_ignore_ascii_case("v("))
        && expr.ends_with(')')
        && expr.len() > 3;
    if !well_formed {
        return Err(syntax(line, format!(".tf: malformed output `{expr}` (expected V(node))")));
    }
    let body = &expr[2..expr.len() - 1];
    let parts: Vec<&str> = body.split(',').map(str::trim).collect();
    let output = match parts.as_slice() {
        [one] if !one.is_empty() => TfOutput::Node((*one).to_string()),
        [p, m] if !p.is_empty() && !m.is_empty() => {
            TfOutput::Differential((*p).to_string(), (*m).to_string())
        }
        _ => {
            return Err(syntax(line, format!(".tf: malformed output `{expr}`")));
        }
    };
    Ok(TfCard { output, source })
}

/// Parses `.tran tstep tstop [tstart]`.
fn parse_tran_card(line: usize, tokens: &[&str]) -> Result<TranCard, ParseError> {
    if !(3..=4).contains(&tokens.len()) {
        return Err(syntax(line, ".tran: expected `.TRAN tstep tstop [tstart]`"));
    }
    let value = |tok: &str| {
        parse_value(tok).ok_or_else(|| syntax(line, format!(".tran: invalid time `{tok}`")))
    };
    let tstep = value(tokens[1])?;
    let tstop = value(tokens[2])?;
    let tstart = tokens.get(3).map(|t| value(t)).transpose()?.unwrap_or(0.0);
    if tstep <= 0.0 {
        return Err(syntax(line, ".tran: need tstep > 0"));
    }
    if tstart < 0.0 || tstop <= tstart {
        return Err(syntax(line, ".tran: need 0 <= tstart < tstop"));
    }
    Ok(TranCard { tstep, tstop, tstart })
}

/// Parses a joined `PULSE(…)` / `SIN(…)` / `PWL(…)` argument list into a
/// [`Waveform`]. Arguments may be separated by spaces or commas and may be
/// parameter references (resolved through `frame`).
fn parse_waveform(
    line: usize,
    head: &str,
    spec: &str,
    frame: &Frame,
) -> Result<Waveform, ParseError> {
    let open = spec.find('(').unwrap_or(spec.len());
    let kind = spec[..open].to_ascii_lowercase();
    let body = spec[open..]
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| syntax(line, format!("{head}: malformed waveform `{spec}`")))?;
    let args = body
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|t| !t.is_empty())
        .map(|t| frame.resolve_value(line, t))
        .collect::<Result<Vec<f64>, ParseError>>()?;
    match kind.as_str() {
        "pulse" => {
            if !(2..=7).contains(&args.len()) {
                return Err(syntax(
                    line,
                    format!("{head}: PULSE needs v1 v2 [delay [rise [fall [width [period]]]]]"),
                ));
            }
            let opt = |i: usize, default: f64| args.get(i).copied().unwrap_or(default);
            let wave = Waveform::Pulse {
                v1: args[0],
                v2: args[1],
                delay: opt(2, 0.0),
                rise: opt(3, 0.0),
                fall: opt(4, 0.0),
                width: opt(5, f64::INFINITY),
                period: opt(6, f64::INFINITY),
            };
            if let Waveform::Pulse { delay, rise, fall, width, period, .. } = &wave {
                if *delay < 0.0 || *rise < 0.0 || *fall < 0.0 || *width < 0.0 || *period < 0.0 {
                    return Err(syntax(line, format!("{head}: PULSE times must be >= 0")));
                }
            }
            Ok(wave)
        }
        "sin" => {
            if !(3..=5).contains(&args.len()) {
                return Err(syntax(line, format!("{head}: SIN needs vo va freq [delay [theta]]")));
            }
            Ok(Waveform::Sin {
                vo: args[0],
                va: args[1],
                freq_hz: args[2],
                delay: args.get(3).copied().unwrap_or(0.0),
                theta: args.get(4).copied().unwrap_or(0.0),
            })
        }
        "pwl" => {
            if args.len() < 2 || args.len() % 2 != 0 {
                return Err(syntax(line, format!("{head}: PWL needs t1 v1 [t2 v2 …] pairs")));
            }
            let points: Vec<(f64, f64)> = args.chunks(2).map(|p| (p[0], p[1])).collect();
            if points.windows(2).any(|w| w[1].0 <= w[0].0) {
                return Err(syntax(line, format!("{head}: PWL times must be strictly increasing")));
            }
            Ok(Waveform::Pwl { points })
        }
        other => Err(syntax(line, format!("{head}: unknown waveform `{other}`"))),
    }
}

/// One level of subcircuit expansion: name prefix, port→node mapping, and
/// the parameters visible to element values.
struct Frame {
    /// `""` at top level, `"X1."` / `"X1.X2."` inside instances.
    prefix: String,
    /// Lowercased port name → already-resolved outer node name (empty at
    /// top level).
    ports: HashMap<String, String>,
    /// Lowercased parameter name → value.
    params: HashMap<String, f64>,
}

impl Frame {
    fn root() -> Self {
        Frame { prefix: String::new(), ports: HashMap::new(), params: HashMap::new() }
    }

    /// Maps a node token to its flattened name: ground stays ground, ports
    /// map to the caller's nodes, internal nodes gain the instance prefix.
    /// At top level every name is its own flattened name, borrowed.
    fn resolve_node<'s>(&'s self, name: &'s str) -> Cow<'s, str> {
        if self.prefix.is_empty() {
            return Cow::Borrowed(name);
        }
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Cow::Borrowed("0");
        }
        match self.ports.get(&name.to_ascii_lowercase()) {
            Some(mapped) => Cow::Borrowed(mapped),
            None => Cow::Owned(format!("{}{}", self.prefix, name)),
        }
    }

    /// Evaluates a value token: a literal, or a parameter reference (bare
    /// or in braces).
    fn resolve_value(&self, line: usize, tok: &str) -> Result<f64, ParseError> {
        let t = tok.strip_prefix('{').and_then(|r| r.strip_suffix('}')).unwrap_or(tok);
        if let Some(v) = parse_value(t) {
            return Ok(v);
        }
        if let Some(v) = self.params.get(&t.trim().to_ascii_lowercase()) {
            return Ok(*v);
        }
        Err(syntax(line, format!("invalid value or unknown parameter `{tok}`")))
    }

    /// Prefixes an element or control-branch name with the instance path.
    fn resolve_name<'s>(&self, name: &'s str) -> Cow<'s, str> {
        if self.prefix.is_empty() {
            Cow::Borrowed(name)
        } else {
            Cow::Owned(format!("{}{}", self.prefix, name))
        }
    }
}

/// The expansion phase: walks statement lists, flattening instances into
/// `circuit`.
struct Expander<'a> {
    subckts: &'a HashMap<String, SubcktDef<'a>>,
    models: &'a HashMap<String, ModelCard>,
    circuit: Circuit,
    /// Lowercased names of definitions currently being expanded (cycle
    /// detection).
    active: Vec<String>,
}

impl Expander<'_> {
    fn expand_block(
        &mut self,
        lines: &[Statement<'_>],
        frame: &mut Frame,
    ) -> Result<(), ParseError> {
        // One token buffer, reused by every statement of the block.
        let mut tokens: Vec<&str> = Vec::new();
        for (line_no, stmt) in lines {
            let line_no = *line_no;
            tokens.clear();
            tokens.extend(stmt.split_whitespace());
            let head = tokens[0];
            if head.starts_with('.') {
                apply_param(line_no, &tokens, frame)?;
            } else if head.starts_with('X') || head.starts_with('x') {
                self.expand_instance(line_no, &tokens, frame)?;
            } else {
                self.build_element(line_no, &tokens, frame)?;
            }
        }
        Ok(())
    }

    fn expand_instance(
        &mut self,
        line: usize,
        tokens: &[&str],
        frame: &Frame,
    ) -> Result<(), ParseError> {
        let inst = tokens[0];
        let mut positional: Vec<&str> = Vec::new();
        let mut overrides: Vec<(&str, &str)> = Vec::new();
        for tok in &tokens[1..] {
            match tok.split_once('=') {
                Some((k, v)) => {
                    if k.is_empty() || v.is_empty() {
                        return Err(syntax(
                            line,
                            format!("{inst}: bad parameter override `{tok}`"),
                        ));
                    }
                    overrides.push((k, v));
                }
                None if overrides.is_empty() => positional.push(tok),
                None => {
                    return Err(syntax(
                        line,
                        format!("{inst}: positional field `{tok}` after parameter overrides"),
                    ));
                }
            }
        }
        let Some((sub_name, nodes)) = positional.split_last() else {
            return Err(syntax(line, format!("{inst}: expected `X<name> nodes… subckt [k=v …]`")));
        };
        let key = sub_name.to_ascii_lowercase();
        let subckts = self.subckts;
        let Some(def) = subckts.get(&key) else {
            return Err(ParseError::UnknownSubckt { line, name: (*sub_name).to_string() });
        };
        if nodes.len() != def.ports.len() {
            return Err(ParseError::PortCountMismatch {
                line,
                subckt: def.name.clone(),
                expected: def.ports.len(),
                found: nodes.len(),
            });
        }
        if self.active.contains(&key) {
            return Err(ParseError::SubcktRecursion { line, name: def.name.clone() });
        }
        let mut child = Frame {
            prefix: format!("{}{inst}.", frame.prefix),
            ports: def
                .ports
                .iter()
                .zip(nodes)
                .map(|(port, arg)| (port.clone(), frame.resolve_node(arg).into_owned()))
                .collect(),
            params: frame.params.clone(),
        };
        // Defaults and overrides both evaluate in the caller's scope, so
        // they may reference outer parameters; overrides win.
        for (k, vtok) in &def.defaults {
            child.params.insert(k.clone(), frame.resolve_value(line, vtok)?);
        }
        for (k, vtok) in &overrides {
            child.params.insert(k.to_ascii_lowercase(), frame.resolve_value(line, vtok)?);
        }
        self.active.push(key);
        let result = self.expand_block(&def.body, &mut child);
        self.active.pop();
        result
    }

    fn build_element(
        &mut self,
        line_no: usize,
        tokens: &[&str],
        frame: &Frame,
    ) -> Result<(), ParseError> {
        let head = tokens[0];
        let (kind_letter, base_name) = parse_head(line_no, head)?;
        let name = frame.resolve_name(base_name);
        let need = |n: usize| -> Result<(), ParseError> {
            if tokens.len() < n {
                Err(syntax(line_no, format!("{head}: expected at least {} fields", n - 1)))
            } else {
                Ok(())
            }
        };
        let value = |tok: &str| frame.resolve_value(line_no, tok);
        let node = |tok| frame.resolve_node(tok);
        let models = self.models;
        let circuit = &mut self.circuit;
        let build: Result<(), CircuitError> = match kind_letter {
            'R' => {
                need(4)?;
                circuit.add_resistor(&name, &node(tokens[1]), &node(tokens[2]), value(tokens[3])?)
            }
            'C' => {
                need(4)?;
                circuit.add_capacitor(&name, &node(tokens[1]), &node(tokens[2]), value(tokens[3])?)
            }
            'L' => {
                need(4)?;
                circuit.add_inductor(&name, &node(tokens[1]), &node(tokens[2]), value(tokens[3])?)
            }
            'G' if tokens.len() == 4 => circuit.add_conductance(
                &name,
                &node(tokens[1]),
                &node(tokens[2]),
                value(tokens[3])?,
            ),
            'G' => {
                if tokens.len() < 6 {
                    return Err(syntax(
                        line_no,
                        format!("{head}: expected 3 fields (conductance) or 5 fields (VCCS)"),
                    ));
                }
                circuit.add_vccs(
                    &name,
                    &node(tokens[1]),
                    &node(tokens[2]),
                    &node(tokens[3]),
                    &node(tokens[4]),
                    value(tokens[5])?,
                )
            }
            'E' => {
                need(6)?;
                circuit.add_vcvs(
                    &name,
                    &node(tokens[1]),
                    &node(tokens[2]),
                    &node(tokens[3]),
                    &node(tokens[4]),
                    value(tokens[5])?,
                )
            }
            'F' => {
                need(5)?;
                circuit.add_cccs(
                    &name,
                    &node(tokens[1]),
                    &node(tokens[2]),
                    &frame.resolve_name(tokens[3]),
                    value(tokens[4])?,
                )
            }
            'H' => {
                need(5)?;
                circuit.add_ccvs(
                    &name,
                    &node(tokens[1]),
                    &node(tokens[2]),
                    &frame.resolve_name(tokens[3]),
                    value(tokens[4])?,
                )
            }
            'V' | 'I' => {
                need(4)?;
                // "V1 a b 1", "V1 a b AC 1", "V1 a b DC 0 AC 1", optionally
                // ending in a PULSE/SIN/PWL waveform spec; a second
                // amplitude (bare or AC), DC value, or waveform is an
                // error, not last-wins.
                let mut ac: Option<f64> = None;
                let mut dc: Option<f64> = None;
                let mut wave: Option<Waveform> = None;
                let mut duplicate = false;
                let mut rest = &tokens[3..];
                while !rest.is_empty() {
                    let lead = rest[0];
                    if lead.eq_ignore_ascii_case("ac") {
                        need_field(line_no, head, rest, 2)?;
                        duplicate |= ac.replace(value(rest[1])?).is_some();
                        rest = &rest[2..];
                    } else if lead.eq_ignore_ascii_case("dc") {
                        need_field(line_no, head, rest, 2)?;
                        duplicate |= dc.replace(value(rest[1])?).is_some();
                        rest = &rest[2..];
                    } else if ["pulse(", "sin(", "pwl("]
                        .iter()
                        .any(|kind| starts_with_ignore_case(lead, kind))
                    {
                        // The argument list may span several whitespace
                        // tokens; join through the closing parenthesis.
                        let end = rest.iter().position(|t| t.ends_with(')')).ok_or_else(|| {
                            syntax(line_no, format!("{head}: unterminated waveform `{}`", rest[0]))
                        })?;
                        let spec = rest[..=end].join(" ");
                        duplicate |=
                            wave.replace(parse_waveform(line_no, head, &spec, frame)?).is_some();
                        rest = &rest[end + 1..];
                    } else {
                        duplicate |= ac.replace(value(rest[0])?).is_some();
                        rest = &rest[1..];
                    }
                }
                if duplicate {
                    return Err(syntax(line_no, format!("{head}: duplicate amplitude")));
                }
                let ac = ac.unwrap_or(0.0);
                let add = if kind_letter == 'V' {
                    circuit.add_vsource(&name, &node(tokens[1]), &node(tokens[2]), ac)
                } else {
                    circuit.add_isource(&name, &node(tokens[1]), &node(tokens[2]), ac)
                };
                // A PULSE/SIN/PWL spec wins over a plain DC value (SPICE
                // transient semantics); a lone DC value becomes a constant
                // drive so the writer round-trip stays lossless.
                match (add, wave.or(dc.map(|value| Waveform::Dc { value }))) {
                    (Ok(()), Some(w)) => circuit.set_waveform(&name, w),
                    (r, _) => r,
                }
            }
            'Q' => {
                need(5)?;
                let card = models.get(&tokens[4].to_ascii_lowercase()).ok_or_else(|| {
                    ParseError::UnknownModel { line: line_no, model: tokens[4].to_string() }
                })?;
                let ModelCard::Bjt(bjt) = card else {
                    return Err(syntax(
                        line_no,
                        format!("{head}: Q device needs an NPN/PNP model"),
                    ));
                };
                bjt.expand(circuit, &name, &node(tokens[1]), &node(tokens[2]), &node(tokens[3]))
            }
            'M' => {
                need(6)?;
                let card = models.get(&tokens[5].to_ascii_lowercase()).ok_or_else(|| {
                    ParseError::UnknownModel { line: line_no, model: tokens[5].to_string() }
                })?;
                let ModelCard::Mos(mos) = card else {
                    return Err(syntax(
                        line_no,
                        format!("{head}: M device needs an NMOS/PMOS model"),
                    ));
                };
                mos.expand(
                    circuit,
                    &name,
                    &node(tokens[1]),
                    &node(tokens[2]),
                    &node(tokens[3]),
                    &node(tokens[4]),
                )
            }
            other => {
                return Err(syntax(line_no, format!("unknown element type `{other}`")));
            }
        };
        build.map_err(|source| ParseError::Circuit { line: line_no, source })
    }
}

/// Applies a `.param k=v …` card to the current frame. Non-`.param`
/// directives reaching the expansion phase are ignored.
fn apply_param(line: usize, tokens: &[&str], frame: &mut Frame) -> Result<(), ParseError> {
    if !tokens[0][1..].eq_ignore_ascii_case("param") {
        return Ok(());
    }
    if tokens.len() < 2 {
        return Err(syntax(line, ".param: expected `key=value` assignments"));
    }
    for tok in &tokens[1..] {
        let Some((k, v)) = tok.split_once('=') else {
            return Err(syntax(line, format!(".param: bad assignment `{tok}`")));
        };
        if k.is_empty() || v.is_empty() {
            return Err(syntax(line, format!(".param: bad assignment `{tok}`")));
        }
        let value = frame.resolve_value(line, v)?;
        frame.params.insert(k.to_ascii_lowercase(), value);
    }
    Ok(())
}

/// Splits an element head token into `(type letter, name)`, handling the
/// `<letter>@<name>` escape for names that do not begin with their type
/// letter.
fn parse_head(line: usize, head: &str) -> Result<(char, &str), ParseError> {
    let bytes = head.as_bytes();
    if bytes.len() >= 2 && bytes[1] == b'@' && bytes[0].is_ascii_alphabetic() {
        if bytes.len() == 2 {
            return Err(syntax(line, format!("`{head}`: missing element name after `@`")));
        }
        return Ok(((bytes[0] as char).to_ascii_uppercase(), &head[2..]));
    }
    Ok((head.chars().next().expect("nonempty token").to_ascii_uppercase(), head))
}

fn need_field(line: usize, name: &str, rest: &[&str], n: usize) -> Result<(), ParseError> {
    if rest.len() < n {
        Err(syntax(line, format!("{name}: incomplete source specification")))
    } else {
        Ok(())
    }
}

/// A parsed `.model` card.
#[derive(Clone, Debug)]
enum ModelCard {
    Bjt(BjtSmallSignal),
    Mos(MosSmallSignal),
}

/// Parses `.model NAME KIND(key=value …)`.
fn parse_model_card(line: usize, stmt: &str) -> Result<(String, ModelCard), ParseError> {
    // Everything after ".model": "NAME KIND ( key = value ... )".
    let body = stmt[".model".len()..].trim();
    let (name, rest) = body
        .split_once(char::is_whitespace)
        .ok_or_else(|| syntax(line, ".model: expected `.model NAME KIND(params)`"))?;
    let rest = rest.trim();
    let (kind, params_src) = match rest.find('(') {
        Some(pos) => {
            let close =
                rest.rfind(')').ok_or_else(|| syntax(line, ".model: unbalanced parentheses"))?;
            (rest[..pos].trim(), &rest[pos + 1..close])
        }
        None => (rest, ""),
    };
    let mut params: HashMap<String, f64> = HashMap::new();
    // Parameters separated by whitespace and/or commas, `key=value`.
    for tok in params_src.split(|c: char| c.is_whitespace() || c == ',') {
        if tok.is_empty() {
            continue;
        }
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| syntax(line, format!(".model: bad parameter `{tok}`")))?;
        let value =
            parse_value(v).ok_or_else(|| syntax(line, format!(".model: bad value `{v}`")))?;
        params.insert(k.trim().to_ascii_lowercase(), value);
    }
    let get = |key: &str, default: f64| params.get(key).copied().unwrap_or(default);
    let card = match kind.to_ascii_uppercase().as_str() {
        "NPN" => ModelCard::Bjt(
            BjtSmallSignal::from_bias(
                get("ic", 100e-6),
                get("beta", 200.0),
                get("va", 100.0),
                get("ft", 400e6),
                get("cmu", 0.5e-12),
            )
            .with_base_resistance(get("rb", 200.0)),
        ),
        "PNP" => ModelCard::Bjt(
            BjtSmallSignal::from_bias(
                get("ic", 100e-6),
                get("beta", 50.0),
                get("va", 50.0),
                get("ft", 5e6),
                get("cmu", 1e-12),
            )
            .with_base_resistance(get("rb", 300.0)),
        ),
        "NMOS" | "PMOS" => ModelCard::Mos(
            MosSmallSignal::from_operating_point(
                get("id", 100e-6),
                get("vov", 0.2),
                get("lambda", 0.05),
                get("cgg", 20e-15),
            )
            .with_gate_resistance(get("rg", 0.0)),
        ),
        other => {
            return Err(syntax(line, format!(".model: unknown device kind `{other}`")));
        }
    };
    Ok((name.to_ascii_lowercase(), card))
}

/// Writes the element head for `name`, prefixing `<letter>@` when the name
/// does not already begin with the SPICE type letter (or would be
/// misread as an escape itself).
fn spice_head(letter: char, name: &str) -> String {
    let starts_right =
        name.as_bytes().first().is_some_and(|b| b.eq_ignore_ascii_case(&(letter as u8)));
    let looks_escaped = name.as_bytes().get(1) == Some(&b'@');
    if starts_right && !looks_escaped {
        name.to_string()
    } else {
        format!("{letter}@{name}")
    }
}

/// Writes a circuit back to SPICE-like text — an inverse of
/// [`parse_spice`] over the supported element set: re-parsing reproduces
/// every element name, kind, and node, including conductances, arbitrarily
/// named sources, and source waveforms (`DC` / `PULSE` / `SIN` / `PWL`).
pub fn to_spice(circuit: &Circuit) -> String {
    let mut out = String::from("* netlist written by refgen\n");
    for el in circuit.elements() {
        let p = circuit.node_name(el.nodes.0);
        let m = circuit.node_name(el.nodes.1);
        let head = spice_head(el.kind.type_letter(), &el.name);
        let line = match &el.kind {
            ElementKind::Resistor { ohms } => format!("{head} {p} {m} {ohms:e}"),
            ElementKind::Conductance { siemens } => format!("{head} {p} {m} {siemens:e}"),
            ElementKind::Capacitor { farads } => format!("{head} {p} {m} {farads:e}"),
            ElementKind::Inductor { henries } => format!("{head} {p} {m} {henries:e}"),
            ElementKind::Vccs { gm, control } => format!(
                "{head} {p} {m} {} {} {gm:e}",
                circuit.node_name(control.0),
                circuit.node_name(control.1),
            ),
            ElementKind::Vcvs { gain, control } => format!(
                "{head} {p} {m} {} {} {gain:e}",
                circuit.node_name(control.0),
                circuit.node_name(control.1),
            ),
            ElementKind::Cccs { gain, control_branch } => {
                format!("{head} {p} {m} {control_branch} {gain:e}")
            }
            ElementKind::Ccvs { ohms, control_branch } => {
                format!("{head} {p} {m} {control_branch} {ohms:e}")
            }
            ElementKind::VSource { ac } | ElementKind::ISource { ac } => {
                let mut s = format!("{head} {p} {m} AC {ac:e}");
                match circuit.waveform(&el.name) {
                    Some(Waveform::Dc { value }) => {
                        write!(s, " DC {value:e}").expect("write to string");
                    }
                    Some(w) => {
                        let args = w.to_spice_args().expect("non-DC waveform has an arg list");
                        write!(s, " {args}").expect("write to string");
                    }
                    None => {}
                }
                s
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    mod value_roundtrip_props {
        use super::*;
        use proptest::prelude::*;

        /// Magnitudes the writer can legitimately emit: the full normal
        /// range out to ±1e±300, subnormal-adjacent dust, and ordinary
        /// engineering values, both signs.
        fn extreme_value() -> impl Strategy<Value = f64> {
            prop_oneof![
                // ±m·10^e across (almost) the whole normal range.
                (-300i32..=300, 0.1f64..10.0, any::<bool>()).prop_map(|(e, m, neg)| {
                    let v = m * 10f64.powi(e);
                    if neg {
                        -v
                    } else {
                        v
                    }
                }),
                // Subnormal-adjacent: multiples of the smallest normal.
                (-4.0f64..4.0).prop_map(|m| m * f64::MIN_POSITIVE),
                // The exact extremes the satellite calls out.
                Just(1e300),
                Just(-1e300),
                Just(1e-300),
                Just(-1e-300),
                Just(f64::MAX),
                Just(f64::MIN_POSITIVE),
                // Ordinary values.
                -1e4f64..1e4,
            ]
        }

        /// Folds a sampled magnitude into the builders' accepted domain
        /// (strictly positive, finite).
        fn positive(v: f64) -> f64 {
            let a = v.abs();
            if a > 0.0 {
                a
            } else {
                1.0
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// The writer's value syntax (`{:e}`) must re-parse through
            /// [`parse_value`] to the **identical bits** — never a
            /// non-finite token, never a different value. This is the
            /// token-level half of the `to_spice` ↔ `parse_spice`
            /// round-trip contract.
            #[test]
            fn written_value_reparses_bit_exact(v in extreme_value()) {
                let token = format!("{v:e}");
                let back = parse_value(&token);
                prop_assert_eq!(
                    back.map(f64::to_bits),
                    Some(v.to_bits()),
                    "token {} parsed to {:?}",
                    token,
                    back
                );
            }

            /// A whole element line survives the write → parse cycle at
            /// extreme magnitudes (positive values only: builders reject
            /// non-positive R/C).
            #[test]
            fn element_roundtrip_at_extremes(
                r in extreme_value().prop_map(positive),
                c in extreme_value().prop_map(positive),
                gain in extreme_value(),
            ) {
                let mut circuit = Circuit::new();
                circuit.add_vsource("VIN", "in", "0", 1.0).unwrap();
                circuit.add_resistor("R1", "in", "out", r).unwrap();
                circuit.add_capacitor("C1", "out", "0", c).unwrap();
                circuit.add_vcvs("E1", "aux", "0", "out", "0", gain).unwrap();
                let text = to_spice(&circuit);
                let back = parse_spice(&text).expect("writer output must re-parse");
                let mut seen = 0;
                for el in back.elements() {
                    let want = match &el.kind {
                        ElementKind::Resistor { ohms } => (*ohms, r),
                        ElementKind::Capacitor { farads } => (*farads, c),
                        ElementKind::Vcvs { gain: g, .. } => (*g, gain),
                        _ => continue,
                    };
                    prop_assert_eq!(want.0.to_bits(), want.1.to_bits(), "{:?}", el.name);
                    seen += 1;
                }
                prop_assert_eq!(seen, 3);
            }
        }
    }

    /// The value parser this module replaced, kept as a reference: it
    /// lowercases the token and tries every prefix, longest first, which
    /// is quadratic in the token.
    fn parse_value_reference(token: &str) -> Option<f64> {
        let t = token.trim().to_ascii_lowercase();
        if t.is_empty() {
            return None;
        }
        if let Ok(v) = t.parse::<f64>() {
            return v.is_finite().then_some(v);
        }
        let (num, rest) = split_numeric_prefix_reference(&t)?;
        let (mult, unit) = if let Some(unit) = rest.strip_prefix("meg") {
            (1e6, unit)
        } else {
            let first = rest.chars().next().expect("nonempty suffix");
            match SCALE_FACTORS.iter().find(|(c, _)| *c == first) {
                Some((_, mult)) => (*mult, &rest[1..]),
                None => (1.0, rest),
            }
        };
        if !unit.is_empty() && !UNIT_WORDS.contains(&unit) {
            return None;
        }
        let v = num * mult;
        v.is_finite().then_some(v)
    }

    fn split_numeric_prefix_reference(t: &str) -> Option<(f64, &str)> {
        for end in (1..=t.len()).rev() {
            if !t.is_char_boundary(end) {
                continue;
            }
            if let Ok(v) = t[..end].parse::<f64>() {
                if v.is_finite() {
                    return Some((v, &t[end..]));
                }
            }
        }
        None
    }

    #[test]
    fn linear_value_scan_matches_the_prefix_search() {
        // Every token of up to four pieces over an alphabet of float
        // syntax, scale factors, unit letters and non-ASCII text.
        let pieces = [
            "1", "0", "7", ".", "e", "E", "-", "+", "k", "MEG", "m", "f", "x", "inf", "NaN", "µ",
            "1e999", "Ohm", " ",
        ];
        let mut tokens = vec![String::new()];
        let mut layer = vec![String::new()];
        for _ in 0..4 {
            layer = layer
                .iter()
                .flat_map(|head| pieces.iter().map(move |p| format!("{head}{p}")))
                .collect();
            tokens.extend(layer.iter().cloned());
        }
        let mut parsed = 0;
        for t in &tokens {
            let fast = parse_value(t);
            assert_eq!(
                fast.map(f64::to_bits),
                parse_value_reference(t).map(f64::to_bits),
                "token {t:?}"
            );
            parsed += usize::from(fast.is_some());
            // Where the scan splits, it splits where the search does.
            let lower = t.to_ascii_lowercase();
            if let Some((v, rest)) = split_numeric_prefix(&lower) {
                assert_eq!(
                    split_numeric_prefix_reference(&lower).map(|(w, r)| (w.to_bits(), r)),
                    Some((v.to_bits(), rest)),
                    "token {t:?}"
                );
            }
        }
        assert!(parsed > 1_000, "the corpus exercises accepted values ({parsed})");
    }

    #[test]
    fn million_digit_values_parse_in_linear_time() {
        // The prefix search needed minutes on each of these; the scan
        // reads each token once.
        let zeros = "0".repeat(999_990);
        assert_eq!(parse_value(&format!("{zeros}1234567891k")), Some(1234567891e3));
        assert_eq!(parse_value(&format!("-{zeros}.5e-3MEG")), Some(-500.0));
        // The longest literal overflows: no value, whatever the suffix.
        let huge = format!("1{zeros}000000000");
        assert_eq!(parse_value(&format!("{huge}k")), None);
        assert_eq!(parse_value(&huge), None);
        // A long fraction underflows to zero, which is finite.
        assert_eq!(parse_value(&format!("0.{zeros}1pF")), Some(0.0));
        let netlist = format!("R1 a 0 {zeros}100\nR2 a 0 1k\n");
        match &parse_spice(&netlist).unwrap().element("R1").unwrap().kind {
            ElementKind::Resistor { ohms } => assert_eq!(*ohms, 100.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn long_literals_with_a_compensating_exponent_parse() {
        let zeros = "0".repeat(1_000_000);
        assert_eq!(parse_value(&format!("1{zeros}e-999990")), Some(1e10));
        assert_eq!(parse_value(&format!("0.{zeros}1e1000001")), Some(1.0));
        // With a scale factor and a sign, through the prefix split.
        assert_eq!(parse_value(&format!("-1{zeros}e-999991k")), Some(-1e12));
        // Out-of-range results stay rejected, and tiny ones round to zero.
        assert_eq!(parse_value(&format!("1{zeros}e-999000")), None);
        assert_eq!(parse_value(&format!("1{zeros}e-1001000")), Some(0.0));
        assert_eq!(parse_value("1e70000"), None);
        assert_eq!(parse_value("-1e-70000"), Some(-0.0));
        assert_eq!(parse_value("0e99999999999999999999"), Some(0.0));
    }

    #[test]
    fn element_names_are_case_insensitive() {
        let err = parse_spice("R1 a 0 1k\nC1 a 0 1n\nr1 a 0 2k\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Circuit {
                line: 3,
                source: CircuitError::DuplicateName { name: "r1".to_string() }
            }
        );
        assert_eq!(err.to_string(), "line 3: duplicate element name r1");
        // A control branch names its source in any case.
        let c = parse_spice("VSENSE b 0 0\nVIN a 0 AC 1\nR1 a b 1k\nF1 0 c vsense 2\nR2 c 0 1k\n")
            .unwrap();
        c.validate().unwrap();
        assert_eq!(c.element("vin").unwrap().name, "VIN");
    }

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("30p"), Some(30e-12));
        assert_eq!(parse_value("2.5MEG"), Some(2.5e6));
        assert_eq!(parse_value("1e-9"), Some(1e-9));
        let v = parse_value("100n").unwrap();
        assert!((v - 100e-9).abs() < 1e-22);
        assert_eq!(parse_value("3u"), Some(3e-6));
        assert_eq!(parse_value("2m"), Some(2e-3));
        assert_eq!(parse_value("1.5g"), Some(1.5e9));
        assert_eq!(parse_value("4t"), Some(4e12));
        let v = parse_value("5f").unwrap();
        assert!((v - 5e-15).abs() < 1e-28);
        let v = parse_value("30pF").unwrap();
        assert!((v - 30e-12).abs() < 1e-25);
        assert_eq!(parse_value("-3k"), Some(-3e3));
        assert_eq!(parse_value("1e3k"), Some(1e6));
        assert_eq!(parse_value("1a"), Some(1.0)); // amp unit, no scale
        assert_eq!(parse_value("junk"), None);
        assert_eq!(parse_value(""), None);
    }

    #[test]
    fn double_scale_suffix_rejected() {
        // Regression: the old trailing-letter strip re-entered the suffix
        // match and accepted a second scale factor.
        assert_eq!(parse_value("3.3kk"), None);
        assert_eq!(parse_value("1kM"), None);
        assert_eq!(parse_value("2megk"), None);
        assert_eq!(parse_value("10pn"), None);
        // ...while one scale factor plus a unit word still works.
        assert_eq!(parse_value("1kOhm"), Some(1e3));
        assert_eq!(parse_value("2kOhms"), Some(2e3));
        let v = parse_value("4.7uF").unwrap();
        assert!((v - 4.7e-6).abs() < 1e-18);
        assert_eq!(parse_value("30q"), Some(30.0)); // `q` is a unit, not a scale
        assert_eq!(parse_value("100Hz"), Some(100.0));
        // Non-finite prefixes and malformed mantissas stay rejected.
        assert_eq!(parse_value("infk"), None);
        assert_eq!(parse_value("nan"), None);
        assert_eq!(parse_value("--5n"), None);
        assert_eq!(parse_value("1.2.3n"), None);
        assert_eq!(parse_value("k"), None);
    }

    #[test]
    fn parse_basic_rc() {
        let c =
            parse_spice("* low-pass\nVIN in 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n.end\n").unwrap();
        assert_eq!(c.elements().len(), 3);
        assert_eq!(c.capacitor_values(), vec![1e-9]);
        c.validate().unwrap();
    }

    #[test]
    fn parse_controlled_sources() {
        let c = parse_spice(
            "V1 a 0 AC 1\n\
             R1 a b 1k\n\
             GM1 out 0 b 0 2m\n\
             RL out 0 10k\n\
             E1 x 0 out 0 -3\n\
             RX x 0 1k\n\
             F1 y 0 V1 2\n\
             RY y 0 1k\n\
             H1 z 0 V1 50\n\
             RZ z 0 1k\n",
        )
        .unwrap();
        assert_eq!(c.elements().len(), 10);
        match &c.element("GM1").unwrap().kind {
            ElementKind::Vccs { gm, .. } => assert_eq!(*gm, 2e-3),
            other => panic!("{other:?}"),
        }
        match &c.element("H1").unwrap().kind {
            ElementKind::Ccvs { ohms, control_branch } => {
                assert_eq!(*ohms, 50.0);
                assert_eq!(control_branch, "V1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conductance_element_grammar() {
        // Four fields: a two-terminal conductance.
        let c = parse_spice("G1 a 0 2m\nR1 a 0 1k\n").unwrap();
        match &c.element("G1").unwrap().kind {
            ElementKind::Conductance { siemens } => assert_eq!(*siemens, 2e-3),
            other => panic!("{other:?}"),
        }
        // Six fields: a VCCS.
        let c = parse_spice("V1 b 0 AC 1\nG1 a 0 b 0 2m\nR1 a 0 1k\n").unwrap();
        assert!(matches!(c.element("G1").unwrap().kind, ElementKind::Vccs { .. }));
        // Five fields: ambiguous, rejected.
        let err = parse_spice("G1 a 0 b 2m\n").unwrap_err();
        match err {
            ParseError::Syntax { line: 1, message } => {
                assert!(message.contains("conductance"), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuation_and_comments() {
        let c = parse_spice("R1 a b\n+ 2k ; the resistor\n* a comment line\nC1 b 0 1p\n").unwrap();
        match &c.element("R1").unwrap().kind {
            ElementKind::Resistor { ohms } => assert_eq!(*ohms, 2e3),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    fn source_variants() {
        let c =
            parse_spice("V1 a 0 1\nV2 b 0 AC 2\nV3 c 0 DC 5 AC 3\nR1 a b 1\nR2 b c 1\nR3 c 0 1\n")
                .unwrap();
        for (name, amp) in [("V1", 1.0), ("V2", 2.0), ("V3", 3.0)] {
            match &c.element(name).unwrap().kind {
                ElementKind::VSource { ac } => assert_eq!(*ac, amp, "{name}"),
                other => panic!("{other:?}"),
            }
        }
        // DC only: zero AC amplitude.
        let c = parse_spice("V4 d 0 DC 5\nR4 d 0 1\n").unwrap();
        assert!(matches!(c.element("V4").unwrap().kind, ElementKind::VSource { ac } if ac == 0.0));
    }

    #[test]
    fn duplicate_amplitude_is_syntax_error() {
        for bad in [
            "V1 a 0 1 2\nR1 a 0 1k\n",
            "V1 a 0 AC 1 2\n",
            "V1 a 0 AC 1 AC 2\n",
            "V1 a 0 1 AC 2\n",
            "I1 a 0 2 DC 1 AC 3\n",
        ] {
            match parse_spice(bad).unwrap_err() {
                ParseError::Syntax { line: 1, message } => {
                    assert!(message.contains("duplicate amplitude"), "{bad:?}: {message}")
                }
                other => panic!("{bad:?}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        // An instance of an undefined block is a typed UnknownSubckt error.
        let err = parse_spice("R1 a b 1k\nX1 c b e sub\n").unwrap_err();
        match err {
            ParseError::UnknownSubckt { line, name } => {
                assert_eq!(line, 2);
                assert_eq!(name, "sub");
            }
            other => panic!("{other:?}"),
        }
        let err = parse_spice("R1 a b notanumber\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 1, .. }));
        let err = parse_spice("R1 a b 1k\nR1 c d 2k\n").unwrap_err();
        assert!(matches!(err, ParseError::Circuit { line: 2, .. }));
    }

    #[test]
    fn model_card_bjt_expansion() {
        let c = parse_spice(
            "* common-emitter stage\n\
             .model qfast NPN(ic=1m beta=150 va=80 ft=600meg cmu=0.3p rb=120)\n\
             VIN in 0 AC 1\n\
             RB in b 10k\n\
             Q1 c b 0 QFAST\n\
             RC c 0 4.7k\n",
        )
        .unwrap();
        c.validate().unwrap();
        // Hybrid-π expansion present.
        assert!(c.element("gm_Q1").is_some());
        assert!(c.element("cpi_Q1").is_some());
        assert!(c.element("cmu_Q1").is_some());
        assert!(c.element("rb_Q1").is_some());
        assert!(c.find_node("Q1_b").is_some());
        // gm = ic/VT with ic = 1 mA.
        match &c.element("gm_Q1").unwrap().kind {
            ElementKind::Vccs { gm, .. } => {
                assert!((gm - 1e-3 / crate::models::VT).abs() / gm < 1e-12)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_card_mos_expansion_and_defaults() {
        let c = parse_spice(
            "M1 d g s 0 NCH\n\
             .model NCH NMOS(id=200u vov=0.25)\n\
             VIN g 0 AC 1\n\
             RD d 0 10k\n\
             RS s 0 1k\n",
        )
        .unwrap();
        // Model card after the device line works (two-pass).
        assert!(c.element("gm_M1").is_some());
        match &c.element("gm_M1").unwrap().kind {
            ElementKind::Vccs { gm, .. } => {
                assert!((gm - 2.0 * 200e-6 / 0.25).abs() / gm < 1e-12)
            }
            other => panic!("{other:?}"),
        }
        // Defaults applied: lambda default 0.05 → gds = 10 µS.
        match &c.element("gds_M1").unwrap().kind {
            ElementKind::Conductance { siemens } => {
                assert!((siemens - 0.05 * 200e-6).abs() < 1e-12)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_errors() {
        let err = parse_spice("Q1 c b e NOSUCH\nR1 c 0 1k\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownModel { line: 1, .. }));
        let err = parse_spice(".model X JFET(beta=1)\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
        let err = parse_spice(".model QQ NPN(ic=1m)\nM1 d g s 0 QQ\nR1 d 0 1k\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 2, .. }));
        let err = parse_spice(".model NN NPN(ic=oops)\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn end_stops_parsing() {
        let c = parse_spice("R1 a 0 1k\nR2 a 0 1k\n.end\nR3 zz 0 broken\n").unwrap();
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    fn subckt_flattens_with_prefixes() {
        let c = parse_spice(
            ".subckt lpf in out\n\
             R1 in n1 1k\n\
             C1 n1 0 1n\n\
             R2 n1 out 1k\n\
             .ends lpf\n\
             VIN a 0 AC 1\n\
             X1 a b lpf\n\
             X2 b c lpf\n\
             RL c 0 1meg\n\
             .end\n",
        )
        .unwrap();
        c.validate().unwrap();
        assert_eq!(c.elements().len(), 8);
        // Deterministic flattened naming and per-instance internal nodes.
        for name in ["X1.R1", "X1.C1", "X1.R2", "X2.R1", "X2.C1", "X2.R2"] {
            assert!(c.element(name).is_some(), "{name}");
        }
        assert!(c.find_node("X1.n1").is_some());
        assert!(c.find_node("X2.n1").is_some());
        // Ports map to the caller's nodes: X1's `out` is node `b`.
        let r2 = c.element("X1.R2").unwrap();
        assert_eq!(c.node_name(r2.nodes.1), "b");
    }

    #[test]
    fn nested_subckt_naming() {
        let c = parse_spice(
            ".subckt inner p q\n\
             R1 p q 1k\n\
             .ends\n\
             .subckt outer a b\n\
             X2 a m inner\n\
             X3 m b inner\n\
             .ends\n\
             VIN in 0 AC 1\n\
             X1 in out outer\n\
             RL out 0 1k\n",
        )
        .unwrap();
        c.validate().unwrap();
        assert!(c.element("X1.X2.R1").is_some());
        assert!(c.element("X1.X3.R1").is_some());
        // `m` is internal to `outer`, so it flattens to X1.m.
        assert!(c.find_node("X1.m").is_some());
    }

    #[test]
    fn subckt_params_defaults_overrides() {
        let c = parse_spice(
            ".subckt sec in out r=1k c=1n\n\
             R1 in out {r}\n\
             C1 out 0 c\n\
             .ends\n\
             .param cbig=4n\n\
             VIN in 0 AC 1\n\
             X1 in mid sec\n\
             X2 mid out sec r=2k c={cbig}\n\
             RL out 0 1meg\n",
        )
        .unwrap();
        c.validate().unwrap();
        let ohms = |name: &str| match c.element(name).unwrap().kind {
            ElementKind::Resistor { ohms } => ohms,
            ref other => panic!("{other:?}"),
        };
        let farads = |name: &str| match c.element(name).unwrap().kind {
            ElementKind::Capacitor { farads } => farads,
            ref other => panic!("{other:?}"),
        };
        assert_eq!(ohms("X1.R1"), 1e3);
        assert_eq!(farads("X1.C1"), 1e-9);
        assert_eq!(ohms("X2.R1"), 2e3);
        assert_eq!(farads("X2.C1"), 4e-9);
    }

    #[test]
    fn subckt_default_references_outer_param() {
        let c = parse_spice(
            ".subckt g a b r={base}\n\
             R1 a b {r}\n\
             .ends\n\
             .param base=5k\n\
             VIN x 0 AC 1\n\
             X1 x 0 g\n",
        )
        .unwrap();
        match c.element("X1.R1").unwrap().kind {
            ElementKind::Resistor { ohms } => assert_eq!(ohms, 5e3),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subckt_sources_and_controls_are_prefixed() {
        let c = parse_spice(
            ".subckt probe a b\n\
             VS a m AC 0\n\
             F1 m b VS 2\n\
             .ends\n\
             VIN in 0 AC 1\n\
             X1 in out probe\n\
             RL out 0 1k\n",
        )
        .unwrap();
        assert!(c.element("X1.VS").is_some());
        match &c.element("X1.F1").unwrap().kind {
            ElementKind::Cccs { control_branch, .. } => assert_eq!(control_branch, "X1.VS"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analysis_cards_parsed() {
        let n = parse_netlist(
            "VIN in 0 AC 1\n\
             R1 in out 1k\n\
             C1 out 0 1n\n\
             .ac dec 10 1 100k\n\
             .tf V(out) VIN\n\
             .end\n",
        )
        .unwrap();
        let ac = n.analysis.ac().unwrap();
        assert_eq!(ac.grid, SweepGrid::Decade);
        assert_eq!(ac.points, 10);
        assert_eq!(ac.fstart_hz, 1.0);
        assert_eq!(ac.fstop_hz, 1e5);
        let tf = n.analysis.tf().unwrap();
        assert_eq!(tf.output, TfOutput::Node("out".to_string()));
        assert_eq!(tf.source, "VIN");
        // Differential output with whitespace inside V(…).
        let n = parse_netlist("VIN in 0 AC 1\nR1 in p 1k\nR2 p 0 1k\n.tf V(p, in) VIN\n").unwrap();
        assert_eq!(
            n.analysis.tf().unwrap().output,
            TfOutput::Differential("p".to_string(), "in".to_string())
        );
        // No cards → empty spec, and `parse_spice` still works.
        let n = parse_netlist("R1 a 0 1k\nR2 a 0 1k\n").unwrap();
        assert!(n.analysis.is_empty());
    }

    #[test]
    fn analysis_card_errors() {
        for (bad, needle) in [
            (".ac dec 10 1\n", "expected"),
            (".ac log 10 1 1k\n", "unknown grid"),
            (".ac dec 2.5 1 1k\n", "point count"),
            (".ac dec 0 1 1k\n", "point count"),
            (".ac dec 10 1k 1\n", "fstart"),
            (".ac dec 10 0 1k\n", "fstart > 0"),
            (".tf V(out)\n", "expected"),
            (".tf out VIN\n", "malformed output"),
            (".tf V() VIN\n", "malformed output"),
            (".tf V(a,b,c) VIN\n", "malformed output"),
        ] {
            match parse_netlist(bad).unwrap_err() {
                ParseError::Syntax { line: 1, message } => {
                    assert!(message.contains(needle), "{bad:?}: {message}")
                }
                other => panic!("{bad:?}: expected Syntax, got {other:?}"),
            }
        }
        // Analysis cards are top-level only.
        let err = parse_netlist(".subckt s a b\n.ac dec 10 1 1k\n.ends\n").unwrap_err();
        match err {
            ParseError::Syntax { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("inside .subckt"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tran_card_parsed() {
        let n = parse_netlist(
            "VIN in 0 AC 1 PULSE(0 1)\nR1 in out 1k\nC1 out 0 1n\n.tran 1u 10u\n.end\n",
        )
        .unwrap();
        let tran = n.analysis.tran().unwrap();
        assert_eq!(tran.tstep, 1e-6);
        // Engineering suffixes multiply (1 part in 2⁵² noise allowed).
        assert!((tran.tstop - 1e-5).abs() < 1e-19);
        assert_eq!(tran.tstart, 0.0);
        // Optional tstart, with binary-exact times.
        let n = parse_netlist("R1 a 0 1k\nR2 a 0 1k\n.tran 0.25 2 1\n").unwrap();
        let tran = n.analysis.tran().unwrap();
        assert_eq!((tran.tstep, tran.tstop, tran.tstart), (0.25, 2.0, 1.0));
        assert_eq!(tran.times(), vec![1.0, 1.25, 1.5, 1.75, 2.0]);
    }

    #[test]
    fn tran_card_errors() {
        for (bad, needle) in [
            (".tran 1u\n", "expected"),
            (".tran 1u 10u 0 extra\n", "expected"),
            (".tran abc 10u\n", "invalid time"),
            (".tran 0 10u\n", "tstep > 0"),
            (".tran -1u 10u\n", "tstep > 0"),
            (".tran 1u 10u 10u\n", "tstart < tstop"),
            (".tran 1u 10u -1u\n", "0 <= tstart"),
        ] {
            match parse_netlist(bad).unwrap_err() {
                ParseError::Syntax { line: 1, message } => {
                    assert!(message.contains(needle), "{bad:?}: {message}")
                }
                other => panic!("{bad:?}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn ac_card_degenerate_grid_corpus() {
        // Every degenerate `.AC` form either parses to a card whose grid
        // is a sane single point, or is rejected as a typed Syntax error —
        // never NaN, duplicate, or zero-step frequencies (and never a
        // hang materializing the grid).
        let parse_ac = |card: &str| {
            parse_netlist(&format!("R1 a 0 1k\n{card}\n"))
                .map(|n| n.analysis.ac().cloned().expect("card present"))
        };
        // Accepted single-point forms.
        for card in [".ac lin 1 1k 1k", ".ac lin 1 1k 2k", ".ac dec 10 1k 1k", ".ac oct 5 5 5"] {
            let f = parse_ac(card).unwrap_or_else(|e| panic!("{card}: {e}")).frequencies();
            assert_eq!(f.len(), 1, "{card}: {f:?}");
            assert!(f[0].is_finite() && f[0] > 0.0, "{card}: {f:?}");
        }
        // Sub-decade / sub-octave spans: in-span, strictly ascending.
        for card in [".ac dec 10 100 150", ".ac oct 3 100 110", ".ac dec 1 100 101"] {
            let c = parse_ac(card).unwrap_or_else(|e| panic!("{card}: {e}"));
            let f = c.frequencies();
            assert!(!f.is_empty(), "{card}");
            assert!(f.windows(2).all(|w| w[1] > w[0]), "{card}: {f:?}");
            assert!(
                f.iter().all(|&x| x >= c.fstart_hz && x <= c.fstop_hz * (1.0 + 1e-9)),
                "{card}: {f:?}"
            );
        }
        // Rejected forms, each a typed error naming the problem.
        for (card, needle) in [
            (".ac dec 10 0 1k", "fstart > 0"),
            (".ac oct 10 0 1k", "fstart > 0"),
            (".ac dec 10 -1 1k", "0 <= fstart"),
            (".ac lin 10 5k 1k", "fstart <= fstop"),
            (".ac lin 0 1 1k", "positive integer"),
            (".ac dec 2.5 1 1k", "positive integer"),
            (".ac lin 10 nan 1k", "invalid frequency"),
            (".ac lin 10 1 1e400", "invalid frequency"),
        ] {
            match parse_ac(card) {
                Err(ParseError::Syntax { line: 2, message }) => {
                    assert!(message.contains(needle), "{card:?}: {message}")
                }
                other => panic!("{card:?}: expected Syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_analysis_card_is_typed_error() {
        // Second card of the same kind is rejected with its line number —
        // not silently last-wins.
        let err = parse_netlist("R1 a 0 1k\nR2 a 0 1k\n.ac dec 10 1 1k\n.ac dec 20 1 1meg\n")
            .unwrap_err();
        assert_eq!(err, ParseError::DuplicateAnalysis { line: 4, kind: ".AC" });
        assert!(err.to_string().contains("duplicate .AC card"), "{err}");
        let err = parse_netlist("R1 a 0 1k\n.tran 1u 10u\n.tran 2u 20u\n").unwrap_err();
        assert_eq!(err, ParseError::DuplicateAnalysis { line: 3, kind: ".TRAN" });
        let err =
            parse_netlist("VIN a 0 AC 1\nR1 a 0 1k\n.tf V(a) VIN\n.tf V(a) VIN\n").unwrap_err();
        assert_eq!(err, ParseError::DuplicateAnalysis { line: 4, kind: ".TF" });
        // One card of each kind coexists.
        let n = parse_netlist(
            "VIN in 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n\
             .ac dec 10 1 1k\n.tf V(out) VIN\n.tran 1u 10u\n",
        )
        .unwrap();
        assert_eq!(n.analysis.cards.len(), 3);
    }

    #[test]
    fn waveform_sources_parse() {
        let c = parse_spice(
            "VIN in 0 AC 1 PULSE(0 1 2e-6 3e-9 4e-9 5e-6 1e-5)\n\
             VS s 0 SIN(0 5 1e3 1e-6 100)\n\
             IP p 0 PWL(0,0 1e-6,1 2e-6,-1)\n\
             VD d 0 DC 5\n\
             R1 in s 1k\nR2 s p 1k\nR3 p d 1k\nR4 d 0 1k\n",
        )
        .unwrap();
        assert_eq!(
            c.waveform("VIN"),
            Some(&Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 2e-6,
                rise: 3e-9,
                fall: 4e-9,
                width: 5e-6,
                period: 1e-5,
            })
        );
        assert_eq!(
            c.waveform("VS"),
            Some(&Waveform::Sin { vo: 0.0, va: 5.0, freq_hz: 1e3, delay: 1e-6, theta: 100.0 })
        );
        assert_eq!(
            c.waveform("IP"),
            Some(&Waveform::Pwl { points: vec![(0.0, 0.0), (1e-6, 1.0), (2e-6, -1.0)] })
        );
        assert_eq!(c.waveform("VD"), Some(&Waveform::Dc { value: 5.0 }));
        // Trailing PULSE arguments default: an ideal never-falling step.
        let c = parse_spice("V1 a 0 PULSE(0 1)\nR1 a 0 1k\n").unwrap();
        assert_eq!(
            c.waveform("V1"),
            Some(&Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 0.0,
                fall: 0.0,
                width: f64::INFINITY,
                period: f64::INFINITY,
            })
        );
        // The AC amplitude still parses alongside the waveform.
        assert!(matches!(c.element("V1").unwrap().kind, ElementKind::VSource { ac } if ac == 0.0));
        // Waveform arguments resolve subcircuit parameters.
        let c = parse_spice(
            ".subckt drv a\nVS a 0 PULSE(0 {amp})\n.ends\n\
             .param amp=2.5\nX1 n drv\nR1 n 0 1k\n",
        )
        .unwrap();
        assert!(matches!(
            c.waveform("X1.VS"),
            Some(&Waveform::Pulse { v2, .. }) if v2 == 2.5
        ));
    }

    #[test]
    fn waveform_errors() {
        for (bad, needle) in [
            ("V1 a 0 PULSE(0 1\nR1 a 0 1k\n", "unterminated waveform"),
            ("V1 a 0 PULSE(0)\n", "PULSE needs"),
            ("V1 a 0 PULSE(0 1 -1u)\n", "PULSE times"),
            ("V1 a 0 SIN(0 1)\n", "SIN needs"),
            ("V1 a 0 PWL(0 0 1u)\n", "PWL needs"),
            ("V1 a 0 PWL(1u 0 0 1)\n", "strictly increasing"),
            ("V1 a 0 PULSE(0 1) SIN(0 1 1k)\n", "duplicate amplitude"),
            ("V1 a 0 RAMP(0 1)\n", "invalid value"),
        ] {
            match parse_spice(bad).unwrap_err() {
                ParseError::Syntax { line: 1, message } => {
                    assert!(message.contains(needle), "{bad:?}: {message}")
                }
                other => panic!("{bad:?}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trip_preserves_waveforms() {
        let src = "VIN in 0 AC 1 PULSE(0 1 0 1n 1n 5u 10u)\n\
                   VS s 0 SIN(0 5 1k)\n\
                   IP 0 p PWL(0 0 1u 1)\n\
                   VD d 0 DC 5 AC 2\n\
                   R1 in s 1k\nR2 s p 1k\nR3 p d 1k\nR4 d 0 1k\n";
        let c1 = parse_spice(src).unwrap();
        let c2 = parse_spice(&to_spice(&c1)).unwrap();
        for name in ["VIN", "VS", "IP", "VD"] {
            assert_eq!(c1.waveform(name), c2.waveform(name), "{name}");
            assert!(c2.waveform(name).is_some(), "{name}");
        }
        assert!(matches!(c2.element("VD").unwrap().kind, ElementKind::VSource { ac } if ac == 2.0));
    }

    #[test]
    fn subckt_error_corpus() {
        // Unterminated definition, at end of input and at `.end`.
        let err = parse_spice("VIN in 0 AC 1\n.subckt s a b\nR1 a b 1k\n").unwrap_err();
        assert_eq!(err, ParseError::UnterminatedSubckt { line: 2, name: "s".to_string() });
        let err = parse_spice(".subckt s a b\nR1 a b 1k\n.end\n").unwrap_err();
        assert_eq!(err, ParseError::UnterminatedSubckt { line: 1, name: "s".to_string() });
        // Port-count mismatch.
        let err = parse_spice(".subckt s a b\nR1 a b 1k\n.ends\nX1 x s\nR2 x 0 1k\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::PortCountMismatch {
                line: 4,
                subckt: "s".to_string(),
                expected: 2,
                found: 1
            }
        );
        // Unknown subcircuit.
        let err = parse_spice("X1 a b nosuch\n").unwrap_err();
        assert_eq!(err, ParseError::UnknownSubckt { line: 1, name: "nosuch".to_string() });
        // Direct recursion: the error points at the body line closing the
        // cycle.
        let err = parse_spice(".subckt s a b\nX1 a b s\n.ends\nX9 x y s\n").unwrap_err();
        assert_eq!(err, ParseError::SubcktRecursion { line: 2, name: "s".to_string() });
        // Mutual recursion.
        let err = parse_spice(
            ".subckt a p q\nX1 p q b\n.ends\n.subckt b p q\nX1 p q a\n.ends\nXT x y a\n",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::SubcktRecursion { line: 5, name: "a".to_string() });
        // Structural errors are plain syntax errors with line numbers.
        assert!(matches!(
            parse_spice("R1 a 0 1k\n.ends\n"),
            Err(ParseError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            parse_spice(".subckt s a b\nR1 a b 1k\n.ends t\n"),
            Err(ParseError::Syntax { line: 3, .. })
        ));
        assert!(matches!(
            parse_spice(".subckt s a b\nR1 a b 1k\n.ends\n.subckt s c d\nR2 c d 1k\n.ends\n"),
            Err(ParseError::Syntax { line: 4, .. })
        ));
        assert!(matches!(
            parse_spice(".subckt s a 0\nR1 a 0 1k\n.ends\n"),
            Err(ParseError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            parse_spice(".subckt s a a\nR1 a 0 1k\n.ends\n"),
            Err(ParseError::Syntax { line: 1, .. })
        ));
        // Positional field after a parameter override.
        let err = parse_spice(".subckt s a b r=1\nR1 a b {r}\n.ends\nX1 a r=2 b s\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 4, .. }), "{err:?}");
        // Errors display with their line numbers.
        let err = parse_spice("X1 a b nosuch\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn escape_prefix_names_elements() {
        let c = parse_spice("V@SRC1 in 0 AC 1\nR1 in 0 1k\n").unwrap();
        let el = c.element("SRC1").unwrap();
        assert!(matches!(el.kind, ElementKind::VSource { ac } if ac == 1.0));
        // Escapes with no name are rejected, not panicked on.
        assert!(matches!(parse_spice("V@ in 0 AC 1\n"), Err(ParseError::Syntax { line: 1, .. })));
    }

    #[test]
    fn round_trip_through_writer() {
        let src = "VIN in 0 AC 1\nR1 in out 1k\nC1 out 0 1n\nGM out 0 in 0 5m\n";
        let c1 = parse_spice(src).unwrap();
        let written = to_spice(&c1);
        let c2 = parse_spice(&written).unwrap();
        assert_eq!(c1.elements().len(), c2.elements().len());
        for (a, b) in c1.elements().iter().zip(c2.elements()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn round_trip_preserves_conductances_and_names() {
        // Conductances (e.g. every MOS expansion's gds_*) and elements
        // whose names do not start with their type letter must survive
        // parse → write → parse with name and kind intact.
        let mut c1 = Circuit::new();
        c1.add_vsource("SRC1", "in", "0", 1.0).unwrap();
        c1.add_conductance("gds_M1", "in", "out", 1e-5).unwrap();
        c1.add_resistor("load", "out", "0", 1e3).unwrap();
        c1.add_capacitor("C1", "out", "0", 1e-12).unwrap();
        c1.add_vccs("GM", "out", "0", "in", "0", 5e-3).unwrap();
        c1.add_isource("pump", "0", "out", 2e-3).unwrap();
        c1.add_cccs("F1", "out", "0", "SRC1", 2.0).unwrap();
        let written = to_spice(&c1);
        let c2 = parse_spice(&written).unwrap();
        assert_eq!(c1.elements().len(), c2.elements().len());
        for (a, b) in c1.elements().iter().zip(c2.elements()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(c1.node_name(a.nodes.0), c2.node_name(b.nodes.0), "{}: + node", a.name);
            assert_eq!(c1.node_name(a.nodes.1), c2.node_name(b.nodes.1), "{}: - node", a.name);
        }
        // A second round trip is a fixed point.
        assert_eq!(written, to_spice(&c2));
    }

    #[test]
    fn round_trip_of_flattened_hierarchy() {
        // Flattened names contain dots and start with `X`, so the writer
        // must escape them.
        let c1 = parse_spice(
            ".subckt lpf in out\nR1 in out 1k\nC1 out 0 1n\n.ends\n\
             VIN a 0 AC 1\nX1 a b lpf\nRL b 0 1meg\n",
        )
        .unwrap();
        let c2 = parse_spice(&to_spice(&c1)).unwrap();
        for (a, b) in c1.elements().iter().zip(c2.elements()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn missing_node_is_typed_syntax_error() {
        // Two-terminal element with a node token missing.
        let err = parse_spice("R1 in 1k\n").unwrap_err();
        match err {
            ParseError::Syntax { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("expected at least 3 fields"), "{message}");
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
        // VCVS missing one control node.
        let err = parse_spice("R1 a 0 1k\nE1 out 0 b -3\n").unwrap_err();
        match err {
            ParseError::Syntax { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("expected at least 5 fields"), "{message}");
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
        // Independent source with a dangling AC keyword and no amplitude.
        let err = parse_spice("V1 a 0 AC\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 1, .. }), "expected Syntax, got {err:?}");
    }

    #[test]
    fn bad_value_suffix_is_typed_syntax_error() {
        // SPICE convention: trailing unit letters after a number or scale
        // factor are ignored, so these are values, not errors.
        assert_eq!(parse_value("1kOhm"), Some(1e3));
        assert_eq!(parse_value("30q"), Some(30.0)); // `q` is a unit, not a scale
        for netlist in [
            "R1 a b 1.2.3n\n",  // malformed mantissa under a real suffix
            "C1 out 0 .\n",     // bare decimal point
            "R1 a b k\n",       // suffix with no mantissa
            "R1 a b 3.3kk\n",   // double scale factor
            "L1 a b --5n\n",    // doubled sign
            "V1 a 0 AC oops\n", // source amplitude
        ] {
            let err = parse_spice(netlist).unwrap_err();
            match err {
                ParseError::Syntax { line: 1, message } => {
                    assert!(
                        message.contains("invalid value") || message.contains("incomplete"),
                        "{netlist:?}: {message}"
                    );
                }
                other => panic!("{netlist:?}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_element_is_typed_circuit_error() {
        let err = parse_spice("C1 a 0 1n\nR1 a 0 1k\nC1 b 0 2n\n").unwrap_err();
        match err {
            ParseError::Circuit { line, source: CircuitError::DuplicateName { name } } => {
                assert_eq!(line, 3);
                assert_eq!(name, "C1");
            }
            other => panic!("expected DuplicateName, got {other:?}"),
        }
        // Duplicates across element kinds collide too, and the error chains
        // through std::error::Error::source.
        let err = parse_spice("R1 a 0 1k\nV1 a 0 AC 1\nV1 b 0 AC 2\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Circuit { line: 3, source: CircuitError::DuplicateName { .. } }
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn malformed_netlists_never_panic() {
        // A grab-bag of malformed inputs: every one must produce a typed
        // error (or an empty circuit), never a panic.
        for netlist in [
            "",
            "\n\n",
            "* only a comment\n",
            ".end\n",
            ".model\n",
            ".model X\n",
            ".model X NPN(ic=1m\n",
            ".model X NPN ic=1m)\n",
            "R1\n",
            "R1 a\n",
            "Q1 c b\n",
            "M1 d g s\n",
            "?wat a b 1\n",
            "R1 a b 1k extra tokens here\n",
            "V1 a 0 DC\n",
            ".subckt\n",
            ".subckt s\n",
            ".subckt s =\n",
            ".subckt s a r=\n",
            ".ends\n",
            ".ends s\n",
            "X1\n",
            "X1 sub\n",
            "X1 a b sub r=\n",
            ".ac\n",
            ".ac dec\n",
            ".ac dec ten 1 1k\n",
            ".tf\n",
            ".tf V(out) VIN extra\n",
            ".tran\n",
            ".tran 1u\n",
            ".tran 0 0\n",
            ".tran 1u 10u\n.tran 1u 10u\n",
            "V1 a 0 PULSE\n",
            "V1 a 0 PULSE(\n",
            "V1 a 0 PULSE()\n",
            "V1 a 0 PULSE(0 1))\n",
            "V1 a 0 SIN(,,)\n",
            "V1 a 0 PWL(0)\n",
            "V1 a 0 PWL(0 0 0 1)\n",
            ".param\n",
            ".param x\n",
            ".param =1\n",
            "V@\n",
            "R@ a b 1k\n",
            ".\n",
        ] {
            let _ = parse_netlist(netlist);
        }
    }

    #[test]
    fn stray_continuation_is_error() {
        assert!(matches!(parse_spice("+ 2k\n"), Err(ParseError::Syntax { line: 1, .. })));
    }
}
