//! Parse-identity tier: what the front end builds is pinned structurally.
//!
//! Each parsed [`Circuit`] is reduced to a digest of its node table (ids
//! and names), its element order, names, node ids, kinds and value bits,
//! and every source waveform's bits. The digests, the analysis cards and
//! the exact text and line of every error-corpus message are pinned, as
//! is the digest of a 64-variant µA741 fleet. A change to the parser, the
//! circuit representation or variant generation that alters any of them
//! fails here before it can move a coefficient.

use refgen::circuit::library::{
    graded_rc_ladder, grid_rc_mesh, lc_ladder_lowpass, miller_two_stage_opamp,
    netlist_with_library, positive_feedback_ota, random_rc_mesh, rc_ladder, sallen_key_lowpass,
    tow_thomas_biquad, ua741,
};
use refgen::circuit::{
    parse_netlist, to_spice, Circuit, ElementKind, NodeId, Perturbation, VariantSet, Waveform,
};

/// FNV-1a over a canonical byte stream.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn values(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// Digest of a circuit's node table, elements and waveforms.
fn circuit_digest(c: &Circuit, d: &mut Digest) {
    d.word(c.node_count() as u64);
    for i in 0..c.node_count() {
        d.text(c.node_name(NodeId(i)));
    }
    d.word(c.elements().len() as u64);
    for el in c.elements() {
        d.text(&el.name);
        d.word(el.nodes.0 .0 as u64);
        d.word(el.nodes.1 .0 as u64);
        let (tag, values, control): (u64, Vec<f64>, Option<(NodeId, NodeId)>) = match &el.kind {
            ElementKind::Resistor { ohms } => (0, vec![*ohms], None),
            ElementKind::Conductance { siemens } => (1, vec![*siemens], None),
            ElementKind::Capacitor { farads } => (2, vec![*farads], None),
            ElementKind::Inductor { henries } => (3, vec![*henries], None),
            ElementKind::Vccs { gm, control } => (4, vec![*gm], Some(*control)),
            ElementKind::Vcvs { gain, control } => (5, vec![*gain], Some(*control)),
            ElementKind::Cccs { gain, control_branch } => {
                d.text(control_branch);
                (6, vec![*gain], None)
            }
            ElementKind::Ccvs { ohms, control_branch } => {
                d.text(control_branch);
                (7, vec![*ohms], None)
            }
            ElementKind::VSource { ac } => (8, vec![*ac], None),
            ElementKind::ISource { ac } => (9, vec![*ac], None),
        };
        d.word(tag);
        d.values(&values);
        if let Some((cp, cm)) = control {
            d.word(cp.0 as u64);
            d.word(cm.0 as u64);
        }
        match c.waveform(&el.name) {
            None => d.word(0),
            Some(Waveform::Dc { value }) => {
                d.word(1);
                d.values(&[*value]);
            }
            Some(Waveform::Pulse { v1, v2, delay, rise, fall, width, period }) => {
                d.word(2);
                d.values(&[*v1, *v2, *delay, *rise, *fall, *width, *period]);
            }
            Some(Waveform::Sin { vo, va, freq_hz, delay, theta }) => {
                d.word(3);
                d.values(&[*vo, *va, *freq_hz, *delay, *theta]);
            }
            Some(Waveform::Pwl { points }) => {
                d.word(4);
                let flat: Vec<f64> = points.iter().flat_map(|&(t, v)| [t, v]).collect();
                d.values(&flat);
            }
        }
    }
    // The drive table in element order, as the transient engine reads it.
    for (name, _) in c.waveforms() {
        d.text(name);
    }
}

/// Digest of a parsed netlist: circuit plus analysis cards (whose `Debug`
/// form prints every `f64` round-trip exactly).
fn netlist_digest(text: &str) -> u64 {
    let netlist = parse_netlist(text).unwrap_or_else(|e| panic!("corpus netlist fails: {e}"));
    let mut d = Digest::new();
    circuit_digest(&netlist.circuit, &mut d);
    d.text(&format!("{:?}", netlist.analysis));
    d.0
}

fn fleet_digest(circuits: &[Circuit]) -> u64 {
    let mut d = Digest::new();
    for c in circuits {
        circuit_digest(c, &mut d);
    }
    d.0
}

fn read_dir_sp(dir: &str) -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sp"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable netlist"))
        })
        .collect()
}

/// Netlist text of `circuit` with `cards` before its `.end`.
fn with_cards(circuit: &Circuit, cards: &str) -> String {
    let spice = to_spice(circuit);
    let body = spice.strip_suffix(".end\n").expect("writer ends with .end");
    format!("{body}{cards}.end\n")
}

/// Hierarchy and parameter corpus: nesting, defaults and overrides,
/// waveforms and controlled sources inside blocks, mixed case, escapes,
/// continuations, comments and models.
const HIERARCHY: &[&str] = &[
    "* two-level hierarchy with parameters\n\
     .param rbase=2k cbase=1n\n\
     .subckt stage in out r={rbase} c=cbase\n\
     R1 in mid {r}\n\
     C1 mid 0 {c}\n\
     G1 out 0 mid 0 1m\n\
     ROUT out 0 10k\n\
     .ends stage\n\
     .subckt chain a b\n\
     X1 a m stage\n\
     X2 m b stage r=4.7K c=220p\n\
     .ends\n\
     VIN in 0 AC 1\n\
     XC in out chain\n\
     RL out 0 1MEG\n\
     .ac dec 10 1 1g\n\
     .tf V(out) VIN\n\
     .end\n",
    "* sources, controls and waveforms inside blocks\n\
     .subckt probe a b\n\
     VS a m AC 0\n\
     F1 m b VS 2\n\
     H1 h 0 vs 50\n\
     RH h 0 1k\n\
     .ends\n\
     .subckt drv n amp=1\n\
     VD n 0 AC 1 PULSE(0 {amp} 1n 2n 3n 40n 100n)\n\
     .ends\n\
     .param amp=2.5\n\
     X1 in out probe\n\
     XD in drv amp={amp}\n\
     RL out 0 1k\n\
     .tran 1n 200n\n",
    "* mixed case, escapes, continuations, units\n\
     Vin IN 0 ac 1 sin(0 1 1k)\n\
     r1 IN Mid\n\
     + 1kOhm ; trailing comment\n\
     C@LOAD mid GND 30pF\n\
     E1 X 0 MID 0 -2.5\n\
     RX x 0 4.7k\n\
     IB 0 mid PWL(0,0 1u,1m 2u,0)\n\
     L1 mid y 10uH\n\
     RY y 0 50\n\
     G@gm_x y 0 x 0 2m\n",
    "* transistor models, model cards after use\n\
     Q1 c b 0 QN\n\
     M1 d c s 0 NCH\n\
     .model qn NPN(ic=1m beta=150 va=80 ft=600meg cmu=0.3p rb=120)\n\
     .model nch NMOS(id=200u vov=0.25 lambda=0.1 cgg=30f rg=10)\n\
     VIN in 0 AC 1\n\
     RB in b 10k\n\
     RC c 0 4.7k\n\
     RD d 0 10k\n\
     RS s 0 1k\n",
    "* a node created only by a waveform-free DC source\n\
     V1 a 0 DC 5\n\
     V2 b 0 dc 1 ac 2\n\
     I1 0 c 1m\n\
     R1 a b 1k\n\
     R2 b c 1k\n\
     R3 c 0 1k\n",
];

fn corpus() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for dir in ["tests/golden", "examples/netlists"] {
        for (name, text) in read_dir_sp(dir) {
            out.push((format!("{dir}/{name}"), netlist_digest(&text)));
        }
    }
    let library: Vec<(&str, Circuit)> = vec![
        ("rc_ladder", rc_ladder(6, 1e3, 1e-9)),
        ("graded_rc_ladder", graded_rc_ladder(5, 1e3, 1e-9, 1.5, 0.7)),
        ("positive_feedback_ota", positive_feedback_ota()),
        ("ua741", ua741()),
        ("tow_thomas_biquad", tow_thomas_biquad(1e4, 0.8, 2.0)),
        ("sallen_key_lowpass", sallen_key_lowpass(1e4, 1.3)),
        ("miller_two_stage_opamp", miller_two_stage_opamp(2e-12, 1e-11)),
        ("lc_ladder_lowpass", lc_ladder_lowpass(5, 50.0, 1e5)),
        ("random_rc_mesh", random_rc_mesh(24, 12, 5)),
        ("grid_rc_mesh", grid_rc_mesh(8, 8, 9064)),
    ];
    for (name, circuit) in &library {
        out.push((format!("library/{name}"), netlist_digest(&to_spice(circuit))));
    }
    let tops = [
        "VIN in 0 AC 1\nX1 in out sallen_key\nRL out 0 1meg\n",
        "VIN in 0 AC 1\nX1 in mid rc_lowpass\nX2 mid out rc_lowpass r=2k c=500p\n",
        "VIN in 0 AC 1\nX1 in out rlc_lowpass\n",
        "VIN in 0 AC 1\nRG in inn 10k\nRF out inn 10k\nXA 0 inn out opamp\n",
    ];
    for (i, top) in tops.iter().enumerate() {
        out.push((format!("netlist_with_library/{i}"), netlist_digest(&netlist_with_library(top))));
    }
    for (i, text) in HIERARCHY.iter().enumerate() {
        out.push((format!("hierarchy/{i}"), netlist_digest(text)));
    }
    // The seeded µA741 session texts: ±5 % variants written back out with
    // a `.TF` card, as a session stream parses them.
    for seed in [7u64, 5151] {
        let fleet = VariantSet::new(Perturbation::all_relative(0.05), 16)
            .seed(seed)
            .generate(&ua741())
            .expect("µA741 variants");
        let mut d = Digest::new();
        for c in &fleet {
            d.word(netlist_digest(&with_cards(c, ".tf V(out) VIN\n")));
        }
        out.push((format!("ua741_session_texts/{seed}"), d.0));
    }
    // The 64-variant fleet, from the library circuit and from its parsed
    // text.
    let fleet = VariantSet::new(Perturbation::all_relative(0.05), 64).seed(0xf1ee7);
    out.push((
        "fleet/ua741x64".to_string(),
        fleet_digest(&fleet.generate(&ua741()).expect("fleet")),
    ));
    let parsed = parse_netlist(&with_cards(&ua741(), ".tf V(out) VIN\n")).expect("µA741 parses");
    out.push((
        "fleet/parsed_ua741x64".to_string(),
        fleet_digest(&fleet.generate(&parsed.circuit).expect("fleet")),
    ));
    out
}

/// Malformed netlists whose error text (line included) is pinned.
const ERROR_CORPUS: &[&str] = &[
    "R1 a b 1k\nX1 c b e sub\n",
    "R1 a b notanumber\n",
    "R1 a b 1k\nR1 c d 2k\n",
    "Q1 c b e NOSUCH\nR1 c 0 1k\n",
    ".model X JFET(beta=1)\n",
    ".model QQ NPN(ic=1m)\nM1 d g s 0 QQ\nR1 d 0 1k\n",
    ".model NN NPN(ic=oops)\n",
    "G1 a 0 b 2m\n",
    "V1 a 0 1 2\nR1 a 0 1k\n",
    "V1 a 0 AC 1 2\n",
    "V1 a 0 AC 1 AC 2\n",
    "V1 a 0 1 AC 2\n",
    "I1 a 0 2 DC 1 AC 3\n",
    ".ac dec 10 1\n",
    ".ac log 10 1 1k\n",
    ".ac dec 2.5 1 1k\n",
    ".ac dec 0 1 1k\n",
    ".ac dec 10 1k 1\n",
    ".ac dec 10 0 1k\n",
    ".ac oct 10 0 1k\n",
    ".ac dec 10 -1 1k\n",
    ".ac lin 10 5k 1k\n",
    ".ac lin 0 1 1k\n",
    ".ac lin 10 nan 1k\n",
    ".ac lin 10 1 1e400\n",
    ".tf V(out)\n",
    ".tf out VIN\n",
    ".tf V() VIN\n",
    ".tf V(a,b,c) VIN\n",
    ".subckt s a b\n.ac dec 10 1 1k\n.ends\n",
    ".tran 1u\n",
    ".tran 1u 10u 0 extra\n",
    ".tran abc 10u\n",
    ".tran 0 10u\n",
    ".tran -1u 10u\n",
    ".tran 1u 10u 10u\n",
    ".tran 1u 10u -1u\n",
    "R1 a 0 1k\nR2 a 0 1k\n.ac dec 10 1 1k\n.ac dec 20 1 1meg\n",
    "R1 a 0 1k\n.tran 1u 10u\n.tran 2u 20u\n",
    "VIN a 0 AC 1\nR1 a 0 1k\n.tf V(a) VIN\n.tf V(a) VIN\n",
    "V1 a 0 PULSE(0 1\nR1 a 0 1k\n",
    "V1 a 0 PULSE(0)\n",
    "V1 a 0 PULSE(0 1 -1u)\n",
    "V1 a 0 SIN(0 1)\n",
    "V1 a 0 PWL(0 0 1u)\n",
    "V1 a 0 PWL(1u 0 0 1)\n",
    "V1 a 0 PULSE(0 1) SIN(0 1 1k)\n",
    "V1 a 0 RAMP(0 1)\n",
    "VIN in 0 AC 1\n.subckt s a b\nR1 a b 1k\n",
    ".subckt s a b\nR1 a b 1k\n.end\n",
    ".subckt s a b\nR1 a b 1k\n.ends\nX1 x s\nR2 x 0 1k\n",
    "X1 a b nosuch\n",
    ".subckt s a b\nX1 a b s\n.ends\nX9 x y s\n",
    ".subckt a p q\nX1 p q b\n.ends\n.subckt b p q\nX1 p q a\n.ends\nXT x y a\n",
    "R1 a 0 1k\n.ends\n",
    ".subckt s a b\nR1 a b 1k\n.ends t\n",
    ".subckt s a b\nR1 a b 1k\n.ends\n.subckt s c d\nR2 c d 1k\n.ends\n",
    ".subckt s a 0\nR1 a 0 1k\n.ends\n",
    ".subckt s a a\nR1 a 0 1k\n.ends\n",
    ".subckt s a b r=1\nR1 a b {r}\n.ends\nX1 a r=2 b s\n",
    "V@ in 0 AC 1\n",
    "R1 in 1k\n",
    "R1 a 0 1k\nE1 out 0 b -3\n",
    "V1 a 0 AC\n",
    "R1 a b 1.2.3n\n",
    "C1 out 0 .\n",
    "R1 a b k\n",
    "R1 a b 3.3kk\n",
    "L1 a b --5n\n",
    "V1 a 0 AC oops\n",
    "C1 a 0 1n\nR1 a 0 1k\nC1 b 0 2n\n",
    "R1 a 0 1k\nV1 a 0 AC 1\nV1 b 0 AC 2\n",
    ".model\n",
    ".model X\n",
    ".model X NPN(ic=1m\n",
    ".model X NPN ic=1m)\n",
    "R1\n",
    "R1 a\n",
    "Q1 c b\n",
    "M1 d g s\n",
    "?wat a b 1\n",
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
    ".tran\n",
    ".tran 0 0\n",
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
    "+ 2k\n",
    "R1 a 0 1e999\n",
    "C1 a 0 -1p\nR1 a 0 1k\n",
    "V1 a 0 PULSE(0 1 {nope})\n",
    "X1 a b s\n.subckt s p\nR1 p 0 1k\n.ends\n",
];

/// `(label, digest)` pinned from the parser and variant generator this
/// tier was introduced against.
const PINNED_DIGESTS: &[(&str, u64)] = &[
    ("tests/golden/rc_cascade.sp", 0xfa0ad520bd4ade63),
    ("tests/golden/rc_prototype.sp", 0xc969a57ba7af666b),
    ("tests/golden/rc_step_tran.sp", 0xddd820cf7ee3a995),
    ("tests/golden/rlc_butterworth.sp", 0xdeff87db4d480bf0),
    ("tests/golden/sallen_key.sp", 0x99f9b283e739b11a),
    ("examples/netlists/active_biquad.sp", 0xe336db2f6da2286b),
    ("examples/netlists/param_ladder.sp", 0x489a5ece27c414fa),
    ("examples/netlists/pulse_step.sp", 0x5768f6b48dee078e),
    ("examples/netlists/rc_ladder.sp", 0xf8f48a58f72d571c),
    ("library/rc_ladder", 0xd512c1018d534586),
    ("library/graded_rc_ladder", 0x949a39bbeab1f02a),
    ("library/positive_feedback_ota", 0xa8e1eeb6b32dd061),
    ("library/ua741", 0x889fdbf8ea4cfaf9),
    ("library/tow_thomas_biquad", 0x3bfd4df659164ffc),
    ("library/sallen_key_lowpass", 0xc65cfe1651467edd),
    ("library/miller_two_stage_opamp", 0x66ac330ca03ab704),
    ("library/lc_ladder_lowpass", 0x908721b0b5f754f3),
    ("library/random_rc_mesh", 0xbf27ff36f866eed6),
    ("library/grid_rc_mesh", 0x63d03d5d1138dc39),
    ("netlist_with_library/0", 0xf0a7835abb4434d5),
    ("netlist_with_library/1", 0x7afcfae786212a30),
    ("netlist_with_library/2", 0x5908d79da20dc7e5),
    ("netlist_with_library/3", 0xa12d3ae8e6c55d87),
    ("hierarchy/0", 0x5f638e954c877a28),
    ("hierarchy/1", 0xd09b38f68d997a31),
    ("hierarchy/2", 0x0b7def40a2916dfa),
    ("hierarchy/3", 0x932cec282bdb580a),
    ("hierarchy/4", 0x04bfd3cde4773033),
    ("ua741_session_texts/7", 0xc8b78648c3b5556f),
    ("ua741_session_texts/5151", 0xf23a4a74f3584d89),
    ("fleet/ua741x64", 0x1b7ad167fe7c1251),
    ("fleet/parsed_ua741x64", 0x1b7ad167fe7c1251),
];

/// Error text per [`ERROR_CORPUS`] entry (`ok` where the input parses).
const PINNED_ERRORS: &[&str] = &[
    "line 2: instance references unknown subcircuit `sub`",
    "line 1: invalid value or unknown parameter `notanumber`",
    "line 2: duplicate element name R1",
    "line 1: device references unknown model `NOSUCH`",
    "line 1: .model: unknown device kind `JFET`",
    "line 2: M1: M device needs an NMOS/PMOS model",
    "line 1: .model: bad value `oops`",
    "line 1: G1: expected 3 fields (conductance) or 5 fields (VCCS)",
    "line 1: V1: duplicate amplitude",
    "line 1: V1: duplicate amplitude",
    "line 1: V1: duplicate amplitude",
    "line 1: V1: duplicate amplitude",
    "line 1: I1: duplicate amplitude",
    "line 1: .ac: expected `.AC dec|oct|lin N fstart fstop`",
    "line 1: .ac: unknown grid `log` (dec, oct, or lin)",
    "line 1: .ac: point count `2.5` is not a positive integer",
    "line 1: .ac: point count `0` is not a positive integer",
    "line 1: .ac: need 0 <= fstart <= fstop",
    "line 1: .ac: logarithmic sweeps need fstart > 0",
    "line 1: .ac: logarithmic sweeps need fstart > 0",
    "line 1: .ac: need 0 <= fstart <= fstop",
    "line 1: .ac: need 0 <= fstart <= fstop",
    "line 1: .ac: point count `0` is not a positive integer",
    "line 1: .ac: invalid frequency `nan`",
    "line 1: .ac: invalid frequency `1e400`",
    "line 1: .tf: expected `.TF V(out[,ref]) SOURCE`",
    "line 1: .tf: malformed output `out` (expected V(node))",
    "line 1: .tf: malformed output `V()` (expected V(node))",
    "line 1: .tf: malformed output `V(a,b,c)`",
    "line 2: .ac: analysis card inside .subckt s",
    "line 1: .tran: expected `.TRAN tstep tstop [tstart]`",
    "line 1: .tran: expected `.TRAN tstep tstop [tstart]`",
    "line 1: .tran: invalid time `abc`",
    "line 1: .tran: need tstep > 0",
    "line 1: .tran: need tstep > 0",
    "line 1: .tran: need 0 <= tstart < tstop",
    "line 1: .tran: need 0 <= tstart < tstop",
    "line 4: duplicate .AC card (only one per netlist)",
    "line 3: duplicate .TRAN card (only one per netlist)",
    "line 4: duplicate .TF card (only one per netlist)",
    "line 1: V1: unterminated waveform `PULSE(0`",
    "line 1: V1: PULSE needs v1 v2 [delay [rise [fall [width [period]]]]]",
    "line 1: V1: PULSE times must be >= 0",
    "line 1: V1: SIN needs vo va freq [delay [theta]]",
    "line 1: V1: PWL needs t1 v1 [t2 v2 …] pairs",
    "line 1: V1: PWL times must be strictly increasing",
    "line 1: V1: duplicate amplitude",
    "line 1: invalid value or unknown parameter `RAMP(0`",
    "line 2: .subckt `s` is never closed by .ends",
    "line 1: .subckt `s` is never closed by .ends",
    "line 4: subcircuit `s` declares 2 ports, instance connects 1 nodes",
    "line 1: instance references unknown subcircuit `nosuch`",
    "line 2: recursive instantiation of subcircuit `s`",
    "line 5: recursive instantiation of subcircuit `a`",
    "line 2: .ends without a matching .subckt",
    "line 3: .ends t does not close .subckt s",
    "line 4: duplicate .subckt definition `s`",
    "line 1: ground cannot be a subcircuit port",
    "line 1: .subckt: duplicate port `a`",
    "line 4: X1: positional field `b` after parameter overrides",
    "line 1: `V@`: missing element name after `@`",
    "line 1: R1: expected at least 3 fields",
    "line 2: E1: expected at least 5 fields",
    "line 1: V1: incomplete source specification",
    "line 1: invalid value or unknown parameter `1.2.3n`",
    "line 1: invalid value or unknown parameter `.`",
    "line 1: invalid value or unknown parameter `k`",
    "line 1: invalid value or unknown parameter `3.3kk`",
    "line 1: invalid value or unknown parameter `--5n`",
    "line 1: invalid value or unknown parameter `oops`",
    "line 3: duplicate element name C1",
    "line 3: duplicate element name V1",
    "line 1: .model: expected `.model NAME KIND(params)`",
    "line 1: .model: expected `.model NAME KIND(params)`",
    "line 1: .model: unbalanced parentheses",
    "line 1: .model: unknown device kind `NPN IC=1M)`",
    "line 1: R1: expected at least 3 fields",
    "line 1: R1: expected at least 3 fields",
    "line 1: Q1: expected at least 4 fields",
    "line 1: M1: expected at least 5 fields",
    "line 1: unknown element type `?`",
    "line 1: V1: incomplete source specification",
    "line 1: .subckt: expected `.SUBCKT NAME port… [k=v …]`",
    "line 1: .subckt: expected `.SUBCKT NAME port… [k=v …]`",
    "line 1: .subckt: bad parameter default `=`",
    "line 1: .subckt: bad parameter default `r=`",
    "line 1: .ends without a matching .subckt",
    "line 1: .ends without a matching .subckt",
    "line 1: X1: expected `X<name> nodes… subckt [k=v …]`",
    "line 1: instance references unknown subcircuit `sub`",
    "line 1: X1: bad parameter override `r=`",
    "line 1: .ac: expected `.AC dec|oct|lin N fstart fstop`",
    "line 1: .ac: expected `.AC dec|oct|lin N fstart fstop`",
    "line 1: .ac: point count `ten` is not a positive integer",
    "line 1: .tf: expected `.TF V(out[,ref]) SOURCE`",
    "line 1: .tran: expected `.TRAN tstep tstop [tstart]`",
    "line 1: .tran: need tstep > 0",
    "line 1: invalid value or unknown parameter `PULSE`",
    "line 1: V1: unterminated waveform `PULSE(`",
    "line 1: V1: PULSE needs v1 v2 [delay [rise [fall [width [period]]]]]",
    "line 1: invalid value or unknown parameter `1)`",
    "line 1: V1: SIN needs vo va freq [delay [theta]]",
    "line 1: V1: PWL needs t1 v1 [t2 v2 …] pairs",
    "line 1: V1: PWL times must be strictly increasing",
    "line 1: .param: expected `key=value` assignments",
    "line 1: .param: bad assignment `x`",
    "line 1: .param: bad assignment `=1`",
    "line 1: `V@`: missing element name after `@`",
    "line 1: `R@`: missing element name after `@`",
    "line 1: continuation with no previous line",
    "line 1: invalid value or unknown parameter `1e999`",
    "line 1: element C1 has invalid value -0.000000000001",
    "line 1: invalid value or unknown parameter `{nope}`",
    "line 1: subcircuit `s` declares 1 ports, instance connects 2 nodes",
];

#[test]
fn parsed_structures_are_pinned() {
    let actual = corpus();
    let listing: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    assert_eq!(actual.len(), PINNED_DIGESTS.len(), "corpus size changed; actual:\n{listing}");
    for ((label, d), (pin_label, pin)) in actual.iter().zip(PINNED_DIGESTS) {
        assert_eq!(label, pin_label, "corpus order changed; actual:\n{listing}");
        assert_eq!(d, pin, "{label}: structural digest changed; actual:\n{listing}");
    }
}

#[test]
fn error_messages_are_pinned() {
    let actual: Vec<String> = ERROR_CORPUS
        .iter()
        .map(|text| match parse_netlist(text) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        })
        .collect();
    let listing: String = actual.iter().map(|m| format!("    {m:?},\n")).collect();
    assert_eq!(actual.len(), PINNED_ERRORS.len(), "corpus size changed; actual:\n{listing}");
    for ((text, got), want) in ERROR_CORPUS.iter().zip(&actual).zip(PINNED_ERRORS) {
        assert_eq!(got, want, "{text:?}: error text changed; actual:\n{listing}");
    }
}
