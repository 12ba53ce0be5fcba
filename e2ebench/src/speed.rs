//! Machine-speed calibration.
//!
//! The benchmark runs on machines shared with other tenants. Their load
//! slows the library by 1.5–1.7× for periods of seconds to minutes. To keep
//! run-to-run spread below the regression bounds, every time the benchmark
//! reports is rescaled to one fixed machine speed: a small
//! library-independent kernel ([`calibrate`]) is timed next to the measured
//! work, and a time `t` measured while the kernel took `cal` ms is reported
//! as `t · REFERENCE_MS / cal`. A change to the library moves the reported
//! times exactly as it moves raw ones, since the kernel does not call the
//! library.
//!
//! Contention does not slow all code alike: in the slow periods measured,
//! floating-point code slowed more than integer, branch-heavy code. The
//! library's operations lie between the two — transient replay is almost
//! pure complex arithmetic, while planning (pivot search, pattern and
//! program building) is index and branch work — so the kernel does some of
//! each: a sort of pseudo-random integers and a dense complex LU
//! factorization, about equal in time. Measured across slow and fast
//! periods on a 2-vCPU x86-64 VM, the rescaled times of all four workloads
//! moved by at most ~9 %; with the sort alone, by up to 20 %.

use std::hint::black_box;
use std::time::Instant;

/// What [`calibrate`] takes on a quiet core of a 2-vCPU x86-64 VM (about
/// the fastest of 4 000 runs); the speed every reported time is rescaled
/// to.
pub const REFERENCE_MS: f64 = 1.5;

/// Order of the dense complex matrix [`lu_kernel`] factors.
const LU_N: usize = 48;
/// Factorizations per [`lu_kernel`] call.
const LU_REPS: usize = 12;

/// Times one run of the calibration kernel, in milliseconds.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    sort_kernel();
    lu_kernel();
    t0.elapsed().as_secs_f64() * 1e3
}

/// The integer stream both kernels draw from (a 64-bit LCG).
fn lcg(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    }
}

fn sort_kernel() {
    let mut next = lcg(0x2545_F491_4F6C_DD1D);
    let mut v: Vec<u64> = (0..50_000).map(|_| next()).collect();
    v.sort_unstable();
    black_box(&v);
}

/// Gaussian elimination with partial pivoting, in place, on a fixed
/// pseudo-random complex matrix of order [`LU_N`] stored as `(re, im)`.
fn lu_kernel() {
    let mut next = lcg(0x9E37_79B9_7F4A_7C15);
    let mut unit = || next() as f64 / (1u64 << 53) as f64 - 0.5;
    let n = LU_N;
    let base: Vec<(f64, f64)> = (0..n * n).map(|_| (unit(), unit())).collect();
    for _ in 0..LU_REPS {
        let mut a = black_box(base.clone());
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| {
                    let m = |(re, im): (f64, f64)| re * re + im * im;
                    m(a[i * n + k]).total_cmp(&m(a[j * n + k]))
                })
                .unwrap_or(k);
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            let (pr, pi) = a[k * n + k];
            let d = pr * pr + pi * pi;
            let (ir, ii) = (pr / d, -pi / d);
            for i in k + 1..n {
                let (r, m) = a[i * n + k];
                let (lr, li) = (r * ir - m * ii, r * ii + m * ir);
                a[i * n + k] = (lr, li);
                for j in k + 1..n {
                    let (ur, ui) = a[k * n + j];
                    let e = &mut a[i * n + j];
                    e.0 -= lr * ur - li * ui;
                    e.1 -= lr * ui + li * ur;
                }
            }
        }
        black_box(&a);
    }
}

/// The factor that rescales a time measured while [`calibrate`] took
/// `cal_ms` to the reference speed.
pub fn factor(cal_ms: f64) -> f64 {
    REFERENCE_MS / cal_ms
}
