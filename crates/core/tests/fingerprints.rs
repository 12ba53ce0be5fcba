//! Pinned end-to-end output fingerprints.
//!
//! Every coefficient bit and every `Diagnostic` of a default-configuration
//! µA741 solve is a contract: a rewrite of the window math (exponent
//! alignment, the inverse DFT of eq. (5), the validity test of eq. (12)) or
//! of the sampling engine must reproduce these hashes exactly. The
//! configuration is spelled out field by field, so the `REFGEN_TEST_*`
//! environment hooks of the CI passes cannot change what is hashed.

use refgen_circuit::library::ua741;
use refgen_circuit::{Perturbation, VariantSet};
use refgen_core::{
    ExecutorKind, FaultPolicy, NetworkFunction, OrderingMode, RefgenConfig, Session, Solution,
};
use refgen_mna::TransferSpec;
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

/// The library defaults, each set explicitly.
fn config(executor: ExecutorKind) -> RefgenConfig {
    RefgenConfig::builder()
        .threads(1)
        .executor(executor)
        .conjugate_mirror(true)
        .lane_width(32)
        .ordering(OrderingMode::Auto)
        .fault_policy(FaultPolicy::FailFast)
        .build()
}

fn hash_network(h: &mut Fnv, nf: &NetworkFunction) {
    for poly in [&nf.denominator, &nf.numerator] {
        h.u64(poly.coeffs().len() as u64);
        for c in poly.coeffs() {
            h.u64(c.mantissa().re.to_bits());
            h.u64(c.mantissa().im.to_bits());
            h.u64(c.exponent() as u64);
        }
    }
}

fn hash_solution(h: &mut Fnv, solution: &Solution) {
    hash_network(h, &solution.network);
    for d in solution.diagnostics() {
        writeln!(h, "{d:?}").unwrap();
    }
}

fn variants(count: usize, seed: u64) -> VariantSet {
    VariantSet::new(Perturbation::all_relative(0.05), count).seed(seed)
}

fn spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

#[test]
fn ua741_sessions_match_pinned_fingerprints() {
    let base = ua741();
    let mut circuits = vec![base.clone()];
    circuits.extend(variants(3, 0x5eed).generate(&base).unwrap());
    let got: Vec<u64> = circuits
        .iter()
        .map(|c| {
            let solution =
                Session::for_circuit(c).spec(spec()).config(config(ExecutorKind::Scoped)).solve();
            let mut h = Fnv::new();
            hash_solution(&mut h, &solution.unwrap());
            h.0
        })
        .collect();
    let want: [u64; 4] = [
        0x59d6_fb00_7e56_6f2f,
        0xbfce_787d_3e48_5045,
        0x27b8_3471_e7da_97ec,
        0x7364_e0de_c0e0_dde0,
    ];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn ua741_fleet_matches_pinned_fingerprint() {
    let run = Session::for_circuit(&ua741())
        .spec(spec())
        .config(config(ExecutorKind::Pool))
        .variants(variants(64, 0xf1ee7))
        .solve_all()
        .unwrap();
    let solutions = run.solutions();
    assert_eq!(solutions.len(), 64);
    let mut h = Fnv::new();
    for solution in solutions {
        hash_solution(&mut h, solution);
    }
    let want: u64 = 0x8707_479a_a190_d314;
    assert_eq!(h.0, want, "{:#x}", h.0);
}
