//! Pinned end-to-end output fingerprints.
//!
//! Every coefficient bit and every `Diagnostic` of a default-configuration
//! µA741 solve is a contract: a rewrite of the window math (exponent
//! alignment, the inverse DFT of eq. (5), the validity test of eq. (12)) or
//! of the sampling engine must reproduce these hashes exactly. Each solve
//! is pinned twice: by its coefficient bits alone, which a change that
//! only removes or shares redundant sampling work must keep, and by its
//! coefficient bits plus the `Diagnostic` stream, which records that work.
//! The configuration is spelled out field by field, so a change of the
//! library defaults cannot change what is hashed.

use refgen_circuit::library::ua741;
use refgen_circuit::{Perturbation, VariantSet};
use refgen_core::{FaultPolicy, NetworkFunction, OrderingMode, RefgenConfig, Session, Solution};
use refgen_mna::TransferSpec;
use std::fmt::Write;
use std::sync::OnceLock;

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
fn config() -> RefgenConfig {
    RefgenConfig::builder()
        .threads(1)
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

/// Both fingerprints of one solve: coefficient bits alone, and coefficient
/// bits plus the `Diagnostic` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Hashes {
    coefficients: u64,
    full: u64,
}

fn hash_solutions<'a>(solutions: impl IntoIterator<Item = &'a Solution>) -> Hashes {
    let (mut coefficients, mut full) = (Fnv::new(), Fnv::new());
    for solution in solutions {
        hash_network(&mut coefficients, &solution.network);
        hash_solution(&mut full, solution);
    }
    Hashes { coefficients: coefficients.0, full: full.0 }
}

/// The default µA741 session and three ±5 % variants, one solve each.
fn sessions() -> &'static [Hashes] {
    static HASHES: OnceLock<Vec<Hashes>> = OnceLock::new();
    HASHES.get_or_init(|| {
        let base = ua741();
        let mut circuits = vec![base.clone()];
        circuits.extend(variants(3, 0x5eed).generate(&base).unwrap());
        circuits
            .iter()
            .map(|c| {
                let solution =
                    Session::for_circuit(c).spec(spec()).config(config()).solve().unwrap();
                hash_solutions([&solution])
            })
            .collect()
    })
}

/// A 64-variant ±5 % fleet on the worker pool, hashed in fleet order.
fn fleet() -> Hashes {
    static HASHES: OnceLock<Hashes> = OnceLock::new();
    *HASHES.get_or_init(|| {
        let run = Session::for_circuit(&ua741())
            .spec(spec())
            .config(config())
            .variants(variants(64, 0xf1ee7))
            .solve_all()
            .unwrap();
        let solutions = run.solutions();
        assert_eq!(solutions.len(), 64);
        hash_solutions(solutions)
    })
}

/// Coefficient bits only: any change to the sampling engine that keeps
/// every window's samples must keep these, whatever it does to the
/// diagnostic stream.
#[test]
fn ua741_session_coefficients_match_pinned_fingerprints() {
    let got: Vec<u64> = sessions().iter().map(|h| h.coefficients).collect();
    let want: [u64; 4] = [
        0x6e1d_cde8_27b9_d60f,
        0xc0aa_f721_1f5e_49e7,
        0xbfc9_d955_bf8a_aa92,
        0x7716_1294_43e1_32fc,
    ];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn ua741_fleet_coefficients_match_pinned_fingerprint() {
    let got = fleet().coefficients;
    let want: u64 = 0x61de_aada_93bb_10fc;
    assert_eq!(got, want, "{got:#x}");
}

#[test]
fn ua741_sessions_match_pinned_fingerprints() {
    let got: Vec<u64> = sessions().iter().map(|h| h.full).collect();
    let want: [u64; 4] = [
        0xe5e5_e507_d319_d766,
        0x40ab_c586_6945_ed17,
        0xaa4d_4ad0_5ea9_486e,
        0xebac_344d_14a6_9412,
    ];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn ua741_fleet_matches_pinned_fingerprint() {
    let got = fleet().full;
    let want: u64 = 0xbfa6_d381_1577_805a;
    assert_eq!(got, want, "{got:#x}");
}
