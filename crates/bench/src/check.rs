//! `perf_snapshot --check`: a rerun of the trajectory held to a committed
//! one.
//!
//! Consecutive runs on a shared host drift by up to 1.7× for minutes at a
//! time, so raw times of two runs do not compare. Every snapshot records
//! the time of a small calibration kernel that does not call the library
//! ([`calibration_ns`]), and a check rescales the committed times by the
//! ratio of the two runs' kernel times before comparing: a change to the
//! library moves rescaled times as it moves raw ones.
//!
//! A row is flagged when its rerun median passes its rescaled committed
//! median by more than a floor ([`TIME_FLOOR`]) plus both runs' relative
//! spreads (median absolute deviation over median). The derived ratios
//! (lane batching's and mirroring's speedups, the 4 096-node mesh's AMD
//! speedup) are held the same way, on their own floor ([`RATIO_FLOOR`])
//! plus the relative spreads of their two rows in both runs. Only the
//! ratios gate: a check fails when a ratio regressed, and reports flagged
//! time rows without failing, since the kernel absorbs most drift but not
//! all of it.
//!
//! The ratios gate only when both runs dispatched the batched kernels to
//! the same tier: lane batching's speedup depends on the vector width
//! (on mesh sweeps the AVX tier takes about 1.37× the AVX-512F tier's
//! time), and the calibration kernel is scalar code. When the
//! committed trajectory's AVX, AVX-512F or lane width differ from the
//! rerun's, the check reports every row and ratio and gates none.

use crate::{PerfEnv, PerfRow, PerfSnapshot};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// A time row's tolerance before spreads: the part of host drift the
/// calibration kernel does not absorb.
pub const TIME_FLOOR: f64 = 0.25;

/// A derived ratio's tolerance before spreads. Host contention does not
/// move a ratio's two rows quite alike: lane batching's speedup read 3.05
/// on a quiet host and 3.46 on a contended one in two back-to-back quick
/// runs, 13 % apart.
pub const RATIO_FLOOR: f64 = 0.15;

/// Times one run of the calibration kernel, in nanoseconds: a sort of
/// 50 000 pseudo-random integers (index and branch work, like planning)
/// and a dense complex LU factorization of order 48, twelve times over
/// (floating-point work, like replay), about equal in time.
pub fn calibration_ns() -> f64 {
    let t0 = Instant::now();
    sort_kernel();
    lu_kernel();
    t0.elapsed().as_nanos() as f64
}

/// The median of `runs` calibration-kernel timings, in nanoseconds.
pub fn calibrate(runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1)).map(|_| calibration_ns()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A 64-bit linear congruential stream.
fn stream(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    }
}

fn sort_kernel() {
    let mut next = stream(0x5851_F42D_4C95_7F2D);
    let mut keys: Vec<u64> = (0..50_000).map(|_| next()).collect();
    keys.sort_unstable();
    black_box(&keys);
}

/// Gaussian elimination with partial pivoting on a fixed pseudo-random
/// complex matrix, stored as separate real and imaginary planes.
fn lu_kernel() {
    const N: usize = 48;
    let mut next = stream(0x1405_7B7E_F767_814F);
    let mut unit = || next() as f64 / (1u64 << 53) as f64 - 0.5;
    let re0: Vec<f64> = (0..N * N).map(|_| unit()).collect();
    let im0: Vec<f64> = (0..N * N).map(|_| unit()).collect();
    for _ in 0..12 {
        let (mut re, mut im) = (black_box(re0.clone()), black_box(im0.clone()));
        for k in 0..N {
            let norm = |i: usize| re[i * N + k] * re[i * N + k] + im[i * N + k] * im[i * N + k];
            let p = (k..N).max_by(|&a, &b| norm(a).total_cmp(&norm(b))).unwrap_or(k);
            for j in 0..N {
                re.swap(k * N + j, p * N + j);
                im.swap(k * N + j, p * N + j);
            }
            let (pr, pi) = (re[k * N + k], im[k * N + k]);
            let d = pr * pr + pi * pi;
            let (ir, ii) = (pr / d, -pi / d);
            for i in k + 1..N {
                let (ar, ai) = (re[i * N + k], im[i * N + k]);
                let (lr, li) = (ar * ir - ai * ii, ar * ii + ai * ir);
                re[i * N + k] = lr;
                im[i * N + k] = li;
                for j in k + 1..N {
                    let (ur, ui) = (re[k * N + j], im[k * N + j]);
                    re[i * N + j] -= lr * ur - li * ui;
                    im[i * N + j] -= lr * ui + li * ur;
                }
            }
        }
        black_box((&re, &im));
    }
}

/// Reads a trajectory back from the JSON [`PerfSnapshot::to_json`]
/// writes: the environment line, one row per line, and the derived ratios
/// as `"name": value` lines. A file written before snapshots recorded a
/// calibration time reads as `calibration_ns` 0, which a check treats as
/// uncalibrated.
///
/// # Errors
///
/// A message naming an environment line or the first row line that does
/// not parse.
pub fn parse_snapshot(json: &str) -> Result<PerfSnapshot, String> {
    fn value<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
        let needle = format!("\"{key}\": ");
        let rest = &line[line.find(&needle)? + needle.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }
    let number = value::<f64>;
    let env_line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"env\": "))
        .ok_or("trajectory has no \"env\" line")?;
    let env = (|| {
        Some(crate::PerfEnv {
            avx: value(env_line, "avx")?,
            avx2: value(env_line, "avx2")?,
            fma: value(env_line, "fma")?,
            avx512f: value(env_line, "avx512f")?,
            lane_width: value(env_line, "lane_width")?,
        })
    })()
    .ok_or_else(|| format!("unreadable trajectory environment: {env_line}"))?;
    let mut rows = Vec::new();
    for line in json.lines().filter(|l| l.trim_start().starts_with("{\"name\": ")) {
        let row = (|| {
            let name = line.split('"').nth(3)?.to_string();
            Some(PerfRow {
                name,
                median_ns_per_point: number(line, "median_ns_per_point")?,
                min_ns_per_point: number(line, "min_ns_per_point")?,
                mad_ns_per_point: number(line, "mad_ns_per_point")?,
                points: number(line, "points")? as usize,
                reps: number(line, "reps")? as usize,
            })
        })();
        rows.push(row.ok_or_else(|| format!("unreadable trajectory row: {line}"))?);
    }
    Ok(PerfSnapshot {
        env,
        calibration_ns: number(json, "calibration_ns").unwrap_or(0.0),
        rows,
        mesh4096_amd_speedup: number(json, "mesh4096_amd_speedup_vs_markowitz"),
    })
}

/// Where a rerun stands against the committed value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Same,
    /// Better than the committed value beyond tolerance.
    Better,
    /// Worse than the committed value beyond tolerance.
    Worse,
}

/// One compared row or ratio.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Row or ratio name.
    pub name: String,
    /// The committed value: for a time row rescaled to the rerun's
    /// machine speed, in ns per point.
    pub expected: f64,
    /// The rerun's value.
    pub now: f64,
    /// The relative move the two spreads allow.
    pub tolerance: f64,
    /// Where the rerun stands.
    pub verdict: Verdict,
}

/// A check of a rerun against a committed trajectory.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Why the ratios do not gate, when the two runs' batched kernels
    /// ran on different tiers (see the [module docs](self)).
    pub ungated: Option<String>,
    /// The factor committed times were multiplied by: the rerun's
    /// calibration time over the committed one (1 when either is
    /// missing).
    pub scale: f64,
    /// Time rows present in both runs (lower is better).
    pub times: Vec<Comparison>,
    /// Derived ratios present in both runs (higher is better); the gate.
    pub ratios: Vec<Comparison>,
}

impl CheckReport {
    /// `true` when no derived ratio regressed, or the ratios do not gate.
    pub fn passed(&self) -> bool {
        self.ungated.is_some() || self.ratios.iter().all(|r| r.verdict != Verdict::Worse)
    }
}

/// The relative spread of a row: its median absolute deviation over its
/// median.
fn relative_spread(row: &PerfRow) -> f64 {
    row.mad_ns_per_point / row.median_ns_per_point
}

/// The verdict on a move from `expected` to `now` under `tolerance`,
/// `higher` saying which way is better.
fn verdict(expected: f64, now: f64, tolerance: f64, higher: bool) -> Verdict {
    let ratio = if higher { expected / now } else { now / expected };
    if ratio > 1.0 + tolerance {
        Verdict::Worse
    } else if ratio < 1.0 / (1.0 + tolerance) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Why the batched kernels of runs on `was` and `now` are not comparable,
/// or `None` when both dispatch to the same tier at the same lane width.
fn tier_difference(was: &PerfEnv, now: &PerfEnv) -> Option<String> {
    let tier =
        |e: &PerfEnv| format!("avx {}, avx512f {}, lane width {}", e.avx, e.avx512f, e.lane_width);
    let same = (was.avx, was.avx512f, was.lane_width) == (now.avx, now.avx512f, now.lane_width);
    (!same).then(|| {
        format!(
            "committed on {}, rerun on {}: the batched kernels run another tier",
            tier(was),
            tier(now)
        )
    })
}

/// Holds `current` to `committed`: every time row and derived ratio the
/// two share (see the [module docs](self)).
pub fn check(committed: &PerfSnapshot, current: &PerfSnapshot) -> CheckReport {
    let calibrated = committed.calibration_ns > 0.0 && current.calibration_ns > 0.0;
    let scale = if calibrated { current.calibration_ns / committed.calibration_ns } else { 1.0 };
    let times = current
        .rows
        .iter()
        .filter_map(|now| {
            let was = committed.rows.iter().find(|r| r.name == now.name)?;
            let tolerance = TIME_FLOOR + relative_spread(was) + relative_spread(now);
            let expected = was.median_ns_per_point * scale;
            let now_ns = now.median_ns_per_point;
            Some(Comparison {
                name: now.name.clone(),
                expected,
                now: now_ns,
                tolerance,
                verdict: verdict(expected, now_ns, tolerance, false),
            })
        })
        .collect();
    let was_ratios = committed.derived();
    let ratios = current
        .derived()
        .into_iter()
        .filter_map(|now| {
            let was = was_ratios.iter().find(|r| r.name == now.name)?;
            let tolerance = RATIO_FLOOR + was.spread + now.spread;
            Some(Comparison {
                name: now.name.to_string(),
                expected: was.value,
                now: now.value,
                tolerance,
                verdict: verdict(was.value, now.value, tolerance, true),
            })
        })
        .collect();
    CheckReport { ungated: tier_difference(&committed.env, &current.env), scale, times, ratios }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = |v: Verdict| match v {
            Verdict::Same => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
        };
        writeln!(f, "committed times rescaled by {:.3} (calibration kernel)", self.scale)?;
        writeln!(
            f,
            "{:<38} {:>14} {:>14} {:>8} {:>6}  verdict",
            "time row (ns/point)", "expected", "now", "now/exp", "tol"
        )?;
        for c in &self.times {
            writeln!(
                f,
                "{:<38} {:>14.1} {:>14.1} {:>8.3} {:>5.0}%  {}",
                c.name,
                c.expected,
                c.now,
                c.now / c.expected,
                100.0 * c.tolerance,
                mark(c.verdict)
            )?;
        }
        let gate = if self.ungated.is_some() { "not gated" } else { "gated" };
        writeln!(
            f,
            "{:<38} {:>14} {:>14} {:>8} {:>6}  verdict ({gate})",
            "ratio", "committed", "now", "now/was", "tol"
        )?;
        for c in &self.ratios {
            writeln!(
                f,
                "{:<38} {:>14.3} {:>14.3} {:>8.3} {:>5.0}%  {}",
                c.name,
                c.expected,
                c.now,
                c.now / c.expected,
                100.0 * c.tolerance,
                mark(c.verdict)
            )?;
        }
        if let Some(why) = &self.ungated {
            writeln!(f, "ratios not gated: {why}")?;
        }
        let worse = |cs: &[Comparison]| cs.iter().filter(|c| c.verdict == Verdict::Worse).count();
        write!(
            f,
            "check {}: {} of {} ratios regressed ({gate}); {} of {} time rows worse (reported only)",
            if self.passed() { "passed" } else { "FAILED" },
            worse(&self.ratios),
            self.ratios.len(),
            worse(&self.times),
            self.times.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, median: f64, mad: f64) -> PerfRow {
        PerfRow {
            name: name.to_string(),
            median_ns_per_point: median,
            min_ns_per_point: median - mad,
            mad_ns_per_point: mad,
            points: 40,
            reps: 5,
        }
    }

    fn snapshot(calibration_ns: f64, batched: f64, session_on: f64) -> PerfSnapshot {
        PerfSnapshot {
            env: PerfEnv::detect(),
            calibration_ns,
            rows: vec![
                row("fleet_ua741x64_scalar", 3000.0, 30.0),
                row("fleet_ua741x64_batched", batched, 10.0),
                row("session_ua741_mirror_on", session_on, 20.0),
                row("session_ua741_mirror_off", 2400.0, 20.0),
            ],
            mesh4096_amd_speedup: None,
        }
    }

    /// A snapshot reads back from its own JSON, row for row.
    #[test]
    fn written_snapshot_parses_back() {
        let mut written = snapshot(1.5e6, 850.0, 2000.0);
        written.rows.push(row("mesh4096_markowitz_direct", 1.1e7, 6e5));
        written.rows.push(row("mesh4096_amd_direct", 1.0e7, 1.5e6));
        written.mesh4096_amd_speedup = Some(1.1);
        let read = parse_snapshot(&written.to_json()).unwrap();
        assert_eq!(format!("{:?}", read.env), format!("{:?}", written.env));
        assert_eq!(read.calibration_ns, 1.5e6);
        assert_eq!(read.mesh4096_amd_speedup, Some(1.1));
        assert_eq!(format!("{:?}", read.rows), format!("{:?}", written.rows));
        let legacy = written.to_json().replace("  \"calibration_ns\": 1500000.0,\n", "");
        assert_eq!(parse_snapshot(&legacy).unwrap().calibration_ns, 0.0);
        let other = PerfEnv { avx512f: !written.env.avx512f, lane_width: 8, ..written.env };
        written.env = other;
        assert_eq!(
            format!("{:?}", parse_snapshot(&written.to_json()).unwrap().env),
            format!("{other:?}")
        );
        let envless: String =
            written.to_json().lines().filter(|l| !l.contains("\"env\"")).collect();
        assert!(parse_snapshot(&envless).is_err());
    }

    /// A trajectory committed on another kernel tier — AVX, AVX-512F or
    /// lane width differ — is reported in full but gates nothing: a
    /// regressed ratio leaves the check passed, and the report says why.
    /// On the same tier the same rerun fails.
    #[test]
    fn another_kernel_tier_reports_without_gating() {
        let committed = snapshot(1.5e6, 850.0, 2000.0);
        let rerun = snapshot(1.5e6, 850.0 * 1.4, 2000.0);
        let same_tier = check(&committed, &rerun);
        assert!(same_tier.ungated.is_none() && !same_tier.passed(), "{same_tier}");
        let env = committed.env;
        for other in [
            PerfEnv { avx512f: !env.avx512f, ..env },
            PerfEnv { avx: !env.avx, ..env },
            PerfEnv { lane_width: env.lane_width + 1, ..env },
        ] {
            let report = check(&PerfSnapshot { env: other, ..committed.clone() }, &rerun);
            assert!(report.ungated.is_some(), "{report}");
            assert!(report.passed(), "{report}");
            let fleet = report.ratios.iter().find(|c| c.name == "fleet_batched_speedup");
            assert_eq!(fleet.unwrap().verdict, Verdict::Worse, "still reported");
            let text = report.to_string();
            assert!(text.contains("ratios not gated: committed on"), "{text}");
            assert!(text.contains("check passed"), "{text}");
        }
        let fma_only = PerfEnv { fma: !env.fma, avx2: !env.avx2, ..env };
        let report = check(&PerfSnapshot { env: fma_only, ..committed.clone() }, &rerun);
        assert!(report.ungated.is_none(), "FMA and AVX2 pick no tier: {report}");
    }

    /// A uniformly slower host passes once rescaled; a slower batched
    /// kernel fails the gate through the lane-batching ratio; a slower
    /// time row alone is reported, not gated.
    #[test]
    fn check_rescales_times_and_gates_on_ratios() {
        let committed = snapshot(1.5e6, 850.0, 2000.0);
        let mut drifted = snapshot(2.4e6, 850.0 * 1.6, 2000.0 * 1.6);
        for r in &mut drifted.rows[..] {
            if r.name.ends_with("scalar") || r.name.ends_with("off") {
                r.median_ns_per_point *= 1.6;
            }
        }
        let report = check(&committed, &drifted);
        assert!((report.scale - 1.6).abs() < 1e-12);
        assert!(report.passed(), "{report}");
        assert!(report.times.iter().all(|c| c.verdict == Verdict::Same), "{report}");

        let slower_kernel = check(&committed, &snapshot(1.5e6, 850.0 * 1.3, 2000.0));
        assert!(!slower_kernel.passed(), "{slower_kernel}");
        let fleet = slower_kernel.ratios.iter().find(|c| c.name == "fleet_batched_speedup");
        assert_eq!(fleet.unwrap().verdict, Verdict::Worse);

        let slower_session = check(&committed, &snapshot(1.5e6, 850.0, 2000.0 * 1.3));
        assert!(slower_session.times.iter().any(|c| c.verdict == Verdict::Worse));
        let mirror = slower_session.ratios.iter().find(|c| c.name.contains("mirror")).unwrap();
        assert_eq!(mirror.verdict, Verdict::Worse, "mirroring's speedup shrank by 30 %");

        let mut slower_everywhere = snapshot(1.5e6, 850.0 * 1.3, 2000.0 * 1.3);
        for r in &mut slower_everywhere.rows[..] {
            if r.name.ends_with("scalar") || r.name.ends_with("off") {
                r.median_ns_per_point *= 1.3;
            }
        }
        let report = check(&committed, &slower_everywhere);
        assert!(report.times.iter().all(|c| c.verdict == Verdict::Worse), "{report}");
        assert!(report.passed(), "time rows alone do not gate: {report}");
    }
}
