//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function produces the data behind one artifact; the `tables` binary
//! prints them in paper format and the Criterion benches measure their
//! cost. Everything runs through the [`Solver`]/[`Session`] API of
//! `refgen_core`: the adaptive algorithm and the three conventional
//! baselines are interchangeable `&dyn Solver`s, and [`compare_solvers`]
//! is the one loop that runs any roster of methods over a circuit — the
//! experiment-specific runners below are thin wrappers around it plus the
//! window-level data the paper tables print.

pub mod check;

use refgen_circuit::library::{positive_feedback_ota, rc_ladder, ua741};
use refgen_circuit::Circuit;
use refgen_core::baseline::{
    multi_scale_grid, MultiScaleGridSolver, StaticInterpolation, StaticScalingSolver,
    UnitCircleSolver,
};
use refgen_core::{
    NetworkFunction, PolyKind, RefgenConfig, RefgenError, Session, Solution, Solver,
};
use refgen_mna::{log_space, unwrap_phase, AcAnalysis, Scale, TransferSpec};
use refgen_numeric::ExtComplex;

/// The standard transfer spec used by every library circuit.
pub fn standard_spec() -> TransferSpec {
    TransferSpec::voltage_gain("VIN", "out")
}

/// The paper's iteration-structure configuration: `verify = false` mirrors
/// the paper exactly (it does not re-verify windows), keeping interpolation
/// counts comparable with Tables 2–3.
pub fn paper_config() -> RefgenConfig {
    RefgenConfig::builder().verify(false).build()
}

/// Every method this workspace implements, over one configuration — the
/// roster [`compare_solvers`] and the benches iterate.
///
/// The grid solver's span (1e3..1e15, 16 points) matches the ablation
/// experiments' historical choice.
pub fn solver_roster(config: RefgenConfig) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(refgen_core::AdaptiveInterpolator::new(config)),
        Box::new(UnitCircleSolver::new(config)),
        Box::new(StaticScalingSolver::heuristic(config)),
        Box::new(MultiScaleGridSolver::new(1e3, 1e15, 16, config)),
    ]
}

/// One row of a solver comparison.
pub struct SolverOutcome {
    /// [`Solver::name`] of the method.
    pub method: &'static str,
    /// The solution, or the typed failure (baselines legitimately fail on
    /// circuits whose coefficient spread exceeds their reach).
    pub result: Result<Solution, RefgenError>,
}

impl SolverOutcome {
    /// Interpolation points spent, when the method succeeded.
    pub fn total_points(&self) -> Option<usize> {
        self.result.as_ref().ok().map(|s| s.total_points())
    }

    /// Sampling points that reused a recorded pivot order, when the method
    /// succeeded — the plan/execute engine's cheap-path share.
    pub fn refactor_hits(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|s| s.refactor_hits())
    }
}

/// Runs every solver of `roster` on one circuit/spec — the single loop
/// that replaced the per-method copy-pasted runners.
pub fn compare_solvers(
    circuit: &Circuit,
    spec: &TransferSpec,
    roster: &[Box<dyn Solver>],
) -> Vec<SolverOutcome> {
    roster
        .iter()
        .map(|solver| SolverOutcome {
            method: solver.name(),
            result: Session::for_circuit(circuit).spec(spec.clone()).solver(solver).solve(),
        })
        .collect()
}

/// Table 1 data: the OTA's coefficients under (a) plain unit-circle
/// interpolation and (b) a fixed 1e9 frequency scaling.
pub struct Table1 {
    /// The circuit (Fig. 1 equivalent).
    pub circuit: Circuit,
    /// (a): unscaled interpolation of numerator and denominator.
    pub unscaled: StaticInterpolation,
    /// (b): frequency scale factor 1e9, conductance scale 1.
    pub scaled: StaticInterpolation,
}

/// Runs the Table 1 experiment through the two baseline solver types.
///
/// # Panics
///
/// Panics if the library OTA fails to interpolate (a bug, covered by tests).
pub fn table1() -> Table1 {
    let circuit = positive_feedback_ota();
    let spec = standard_spec();
    let cfg = RefgenConfig::default();
    let unscaled =
        UnitCircleSolver::new(cfg).interpolation(&circuit, &spec).expect("OTA interpolates");
    let scaled = StaticScalingSolver::with_scale(Scale::new(1e9, 1.0), cfg)
        .interpolation(&circuit, &spec)
        .expect("OTA interpolates");
    Table1 { circuit, unscaled, scaled }
}

/// One adaptive iteration of the Tables 2–3 experiment: the scale factors
/// chosen, the points spent, and the valid region's normalized and
/// denormalized coefficients.
pub struct Ua741Iteration {
    /// Scale factors of this interpolation.
    pub scale: Scale,
    /// Interpolation points spent (shrinks under eq. (17) reduction).
    pub points: usize,
    /// Whether reduction was applied.
    pub reduced: bool,
    /// Valid region (global indices).
    pub region: Option<(usize, usize)>,
    /// `(index, normalized, denormalized)` for the valid region.
    pub coefficients: Vec<(usize, ExtComplex, ExtComplex)>,
}

/// Tables 2–3 data: the µA741 denominator across adaptive iterations.
pub struct Ua741Experiment {
    /// The circuit.
    pub circuit: Circuit,
    /// Iterations in execution order.
    pub iterations: Vec<Ua741Iteration>,
    /// The final denominator.
    pub network: NetworkFunction,
    /// Total interpolation points with reduction on.
    pub points_with_reduction: usize,
    /// Total points with reduction off (the §3.3 comparison).
    pub points_without_reduction: usize,
}

/// Runs the Tables 2–3 experiment on the µA741-class opamp.
///
/// Uses [`paper_config`] so the interpolation count matches the paper's
/// structure.
///
/// # Panics
///
/// Panics if reference generation fails on the library µA741.
pub fn tables_2_3() -> Ua741Experiment {
    let circuit = ua741();
    let spec = standard_spec();
    let cfg = paper_config();
    let network = Session::for_circuit(&circuit)
        .spec(spec.clone())
        .config(cfg)
        .solve()
        .expect("µA741 interpolates")
        .network;

    // Re-run a full static interpolation at each recorded scale to obtain
    // the per-window coefficient values in paper-table form.
    let mut iterations = Vec::new();
    for w in &network.report.denominator.windows {
        let si = StaticScalingSolver::with_scale(w.scale, cfg)
            .interpolation(&circuit, &spec)
            .expect("window scale re-interpolates");
        let mut coefficients = Vec::new();
        if let Some((lo, hi)) = w.region {
            for i in lo..=hi {
                let norm = si.denominator.normalized_at(i).expect("in range");
                let den = si.denormalized(PolyKind::Denominator, i).expect("in range");
                coefficients.push((i, norm, den));
            }
        }
        iterations.push(Ua741Iteration {
            scale: w.scale,
            points: w.points,
            reduced: w.reduced,
            region: w.region,
            coefficients,
        });
    }

    let no_reduce = Session::for_circuit(&circuit)
        .spec(spec)
        .config(RefgenConfig::builder().verify(false).reduce(false).build())
        .solve_polynomial(PolyKind::Denominator)
        .expect("µA741 interpolates unreduced")
        .1;

    Ua741Experiment {
        circuit,
        points_with_reduction: network.report.denominator.total_points,
        points_without_reduction: no_reduce.total_points,
        iterations,
        network,
    }
}

/// One Bode series of the Fig. 2 experiment.
pub struct BodeSeries {
    /// Frequencies, hertz.
    pub freqs_hz: Vec<f64>,
    /// Magnitude, dB.
    pub mag_db: Vec<f64>,
    /// Unwrapped phase, degrees.
    pub phase_deg: Vec<f64>,
}

/// Fig. 2 data: µA741 voltage-gain Bode from interpolated coefficients and
/// from the independent AC simulator, 1 Hz – 100 MHz.
pub struct Fig2 {
    /// From the recovered `N(s)/D(s)`.
    pub interpolated: BodeSeries,
    /// From the AC simulator (the "commercial electrical simulator" stand-in).
    pub simulator: BodeSeries,
    /// Worst magnitude discrepancy, dB.
    pub max_mag_err_db: f64,
    /// Worst phase discrepancy, degrees.
    pub max_phase_err_deg: f64,
}

/// Runs the Fig. 2 experiment with `n` log-spaced points.
///
/// # Panics
///
/// Panics if either evaluation path fails on the library µA741.
pub fn fig2(n: usize) -> Fig2 {
    let circuit = ua741();
    let spec = standard_spec();
    let nf = Session::for_circuit(&circuit)
        .spec(spec.clone())
        .solve()
        .expect("µA741 interpolates")
        .network;
    let freqs = log_space(1.0, 1e8, n);
    let interp_raw = nf.bode(&freqs);
    let ac = AcAnalysis::new(&circuit, spec).expect("valid circuit");
    let sim_pts = ac.sweep(&freqs).expect("AC sweep succeeds");

    let interp_mag: Vec<f64> = interp_raw.iter().map(|&(_, m, _)| m).collect();
    let interp_phase = unwrap_phase(&interp_raw.iter().map(|&(_, _, p)| p).collect::<Vec<_>>());
    let sim_mag: Vec<f64> = sim_pts.iter().map(|p| p.mag_db()).collect();
    let sim_phase = unwrap_phase(&sim_pts.iter().map(|p| p.phase_deg()).collect::<Vec<_>>());

    let max_mag_err_db =
        interp_mag.iter().zip(&sim_mag).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    let max_phase_err_deg =
        interp_phase.iter().zip(&sim_phase).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);

    Fig2 {
        interpolated: BodeSeries {
            freqs_hz: freqs.clone(),
            mag_db: interp_mag,
            phase_deg: interp_phase,
        },
        simulator: BodeSeries { freqs_hz: freqs, mag_db: sim_mag, phase_deg: sim_phase },
        max_mag_err_db,
        max_phase_err_deg,
    }
}

/// Ablation data point: adaptive vs. the §3.1 multi-scale grid on a ladder.
pub struct AblationPoint {
    /// Ladder order.
    pub order: usize,
    /// Adaptive: total interpolation points.
    pub adaptive_points: usize,
    /// Adaptive: number of interpolations.
    pub adaptive_windows: usize,
    /// Grid: points needed by the smallest complete grid (or `None` if no
    /// tried grid covered everything).
    pub grid_points: Option<usize>,
    /// Grid size that first achieved completeness.
    pub grid_count: Option<usize>,
}

/// Runs the grid-vs-adaptive ablation across ladder orders.
///
/// # Panics
///
/// Panics if the adaptive algorithm fails on a uniform ladder (covered by
/// tests).
pub fn ablation_grid_vs_adaptive(orders: &[usize]) -> Vec<AblationPoint> {
    let spec = standard_spec();
    let cfg = paper_config();
    orders
        .iter()
        .map(|&n| {
            let c = rc_ladder(n, 1e3, 1e-9);
            let rep = Session::for_circuit(&c)
                .spec(spec.clone())
                .config(cfg)
                .solve_polynomial(PolyKind::Denominator)
                .expect("ladder interpolates")
                .1;
            // Grow the grid until complete (or give up at 64).
            let mut grid_points = None;
            let mut grid_count = None;
            for count in 2..=64usize {
                let g = multi_scale_grid(&c, &spec, 1e3, 1e15, count, &cfg).expect("grid runs");
                if g.complete() {
                    grid_points = Some(g.total_points);
                    grid_count = Some(count);
                    break;
                }
            }
            AblationPoint {
                order: n,
                adaptive_points: rep.total_points,
                adaptive_windows: rep.windows.len(),
                grid_points,
                grid_count,
            }
        })
        .collect()
}

/// The dominant per-iteration cost of the Tables 2–3 experiment: `points`
/// sparse LU factorizations (one determinant per unit-circle sample) of the
/// µA741 MNA matrix at the given scale. Benchmarked at the actual point
/// counts of the three adaptive iterations (41 → ~24 → ~6 under eq. (17))
/// this reproduces the paper's decreasing per-iteration CPU times
/// (3.9 s / 2.3 s / 0.9 s on their SPARCstation-10).
///
/// This is the *unplanned* cost (a full Markowitz factorization per point,
/// what the engine paid before the plan/execute refactor); compare
/// [`ua741_sampling_cost_planned`].
///
/// Returns a checksum so the optimizer cannot elide the work.
///
/// # Panics
///
/// Panics if the system cannot be compiled (covered by tests).
pub fn ua741_sampling_cost(system: &refgen_mna::MnaSystem, scale: Scale, points: usize) -> f64 {
    let sigmas = refgen_numeric::dft::unit_circle_points(points);
    let mut acc = 0.0;
    for sigma in sigmas {
        let d = system.det(sigma, scale).expect("determinant evaluates");
        acc += d.norm().log2();
    }
    acc
}

/// Plan/execute variant of [`ua741_sampling_cost`]: the same determinant
/// samples through one compiled [`refgen_mna::SweepPlan`] (one pivot
/// search at plan build, numeric refactorization per point) executed on
/// `pool`'s workers with one [`refgen_mna::SweepScratch`] each — exactly
/// what the engine's window sampling does. Returns the same checksum as
/// the unplanned variant.
pub fn ua741_sampling_cost_planned(
    system: &refgen_mna::MnaSystem,
    scale: Scale,
    points: usize,
    pool: &refgen_exec::WorkerPool,
) -> f64 {
    let plan = refgen_mna::SweepPlan::for_determinant(system, scale);
    let sigmas = refgen_numeric::dft::unit_circle_points(points);
    let parts =
        pool.par_map_indexed(&sigmas, refgen_mna::SweepScratch::new, |_, &sigma, scratch| {
            plan.eval_det(sigma, scratch).norm().log2()
        });
    parts.iter().sum()
}

/// One measurement of the thread-scaling ablation: a full µA741
/// denominator recovery at a fixed sampling thread count.
pub struct ThreadScalingPoint {
    /// The `RefgenConfig::threads` knob (`0` = auto).
    pub threads: usize,
    /// Wall-clock time of the recovery.
    pub wall: std::time::Duration,
    /// Total interpolation points spent (identical across thread counts).
    pub total_points: usize,
    /// Sampling points that reused a recorded pivot order (identical
    /// across thread counts — the counter is deterministic).
    pub refactor_hits: u64,
    /// Recovered degree (identical across thread counts).
    pub degree: Option<usize>,
}

/// Runs the thread-scaling ablation: the µA741 denominator recovery once
/// per requested thread count. Output polynomials are bit-identical across
/// counts (CI asserts this separately); only wall-clock time may differ.
///
/// # Panics
///
/// Panics if reference generation fails on the library µA741.
pub fn ablation_threads(thread_counts: &[usize]) -> Vec<ThreadScalingPoint> {
    let circuit = ua741();
    let spec = standard_spec();
    thread_counts
        .iter()
        .map(|&threads| {
            let cfg = RefgenConfig::builder().verify(false).threads(threads).build();
            let start = std::time::Instant::now();
            let (poly, report) = Session::for_circuit(&circuit)
                .spec(spec.clone())
                .config(cfg)
                .solve_polynomial(PolyKind::Denominator)
                .expect("µA741 interpolates");
            ThreadScalingPoint {
                threads,
                wall: start.elapsed(),
                total_points: report.total_points,
                refactor_hits: report.refactor_hits,
                degree: poly.degree(),
            }
        })
        .collect()
}

/// Compiles the µA741 MNA system once (bench setup helper).
///
/// # Panics
///
/// Panics if the library circuit is invalid (covered by tests).
pub fn ua741_system() -> refgen_mna::MnaSystem {
    refgen_mna::MnaSystem::new(&ua741()).expect("library circuit is valid")
}

/// A seeded same-topology fleet of `count` ±5 % variants of `base` (the
/// Monte-Carlo workload shape of the fleet bench).
///
/// # Panics
///
/// Panics if variant generation fails (impossible for relative
/// tolerances below 100 %).
pub fn fleet_variants(base: &Circuit, count: usize, seed: u64) -> Vec<Circuit> {
    refgen_circuit::perturb::VariantSet::new(
        refgen_circuit::perturb::Perturbation::all_relative(0.05),
        count,
    )
    .seed(seed)
    .generate(base)
    .expect("relative tolerances keep values legal")
}

/// Solves a fleet **naively**: one independent `Session` per variant, so
/// every variant pays its own thread spawns and pivot searches — the
/// pre-batch-session baseline the fleet bench compares against.
///
/// # Panics
///
/// Panics if any variant fails to solve (covered by tests).
pub fn fleet_naive(
    variants: &[Circuit],
    spec: &TransferSpec,
    config: RefgenConfig,
) -> Vec<Solution> {
    variants
        .iter()
        .map(|c| {
            Session::for_circuit(c)
                .spec(spec.clone())
                .config(config)
                .solve()
                .expect("fleet variant solves")
        })
        .collect()
}

/// Solves a fleet as one **batch session** under `config`: a shared
/// runtime across all variants means threads spawn once and pivot
/// searches stay at the single-solve count.
///
/// # Panics
///
/// Panics if the fleet fails to solve (covered by tests).
pub fn fleet_batched(
    base: &Circuit,
    variants: &[Circuit],
    spec: &TransferSpec,
    config: RefgenConfig,
) -> refgen_core::BatchRun {
    Session::for_circuit(base)
        .spec(spec.clone())
        .config(config)
        .variant_circuits(variants)
        .solve_all()
        .expect("fleet batch solves")
}

/// One row of the [`perf_snapshot`] trajectory: a named hot-path
/// measurement in nanoseconds per evaluated point, with its spread over
/// the timed repetitions.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Stable row identifier (`refactor_ua741_compiled`, …).
    pub name: String,
    /// Median over reps of (elapsed / points).
    pub median_ns_per_point: f64,
    /// Fastest rep's (elapsed / points).
    pub min_ns_per_point: f64,
    /// Median absolute deviation of the reps' (elapsed / points) from
    /// their median.
    pub mad_ns_per_point: f64,
    /// Points evaluated per rep.
    pub points: usize,
    /// Timed repetitions the statistics are taken over.
    pub reps: usize,
}

impl PerfRow {
    /// The row `name` of `points` points per rep, from its per-rep
    /// samples (ns per point).
    fn new(name: impl Into<String>, mut samples: Vec<f64>, points: usize) -> PerfRow {
        let median = |v: &mut [f64]| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let median_ns_per_point = median(&mut samples);
        let min_ns_per_point = samples[0];
        let mut deviations: Vec<f64> =
            samples.iter().map(|s| (s - median_ns_per_point).abs()).collect();
        PerfRow {
            name: name.into(),
            median_ns_per_point,
            min_ns_per_point,
            mad_ns_per_point: median(&mut deviations),
            points,
            reps: samples.len(),
        }
    }
}

/// The execution environment a snapshot was measured in: the CPU features
/// the batched kernel's runtime dispatch saw, and the lane width the
/// batched rows ran at. Recorded in `BENCH_sampling.json` so a trajectory
/// row is never compared across machines that vectorize differently.
#[derive(Clone, Copy, Debug)]
pub struct PerfEnv {
    /// AVX available (the batched kernels' AVX tier; without AVX or
    /// AVX-512F they run the scalar tier).
    pub avx: bool,
    /// AVX2 available.
    pub avx2: bool,
    /// FMA available (detected for the record only — the kernel never
    /// contracts, preserving bit-identity with scalar execution).
    pub fma: bool,
    /// AVX-512F available.
    pub avx512f: bool,
    /// Lane width the batched fleet rows ran at
    /// (`RefgenConfig::default().lane_width`).
    pub lane_width: usize,
}

impl PerfEnv {
    /// Detects the current machine's relevant CPU features and the
    /// configured lane width.
    pub fn detect() -> PerfEnv {
        #[cfg(target_arch = "x86_64")]
        let (avx, avx2, fma, avx512f) = (
            std::arch::is_x86_feature_detected!("avx"),
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx, avx2, fma, avx512f) = (false, false, false, false);
        PerfEnv { avx, avx2, fma, avx512f, lane_width: RefgenConfig::default().lane_width }
    }
}

/// The perf trajectory this repository records against (see
/// [`perf_snapshot`] and the `perf_snapshot` binary).
#[derive(Clone, Debug)]
pub struct PerfSnapshot {
    /// The machine/configuration the rows were measured on.
    pub env: PerfEnv,
    /// The median time of the calibration kernel
    /// ([`check::calibration_ns`]) over the run, in nanoseconds: the
    /// machine speed the rows were measured at, which `--check` rescales
    /// by (0 when unknown).
    pub calibration_ns: f64,
    /// Every measured row.
    pub rows: Vec<PerfRow>,
    /// `mesh4096_amd_speedup_vs_markowitz`: the median, over interleaved
    /// pairs of reps, of the Markowitz rep's time over the AMD rep's on
    /// the 4 096-node mesh (`None` on quick snapshots, which skip it).
    pub mesh4096_amd_speedup: Option<f64>,
}

impl PerfSnapshot {
    /// Median ns/point of a named row.
    ///
    /// # Panics
    ///
    /// Panics if the row was not measured.
    pub fn ns(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.name == name).expect("row measured").median_ns_per_point
    }

    /// Median ns/point of a named row, or `None` when it was not measured
    /// (quick snapshots skip the larger mesh sizes).
    pub fn ns_opt(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.median_ns_per_point)
    }

    /// The derived ratios: lane batching's and conjugate mirroring's
    /// speedups, and on full snapshots the 4 096-node mesh's AMD speedup,
    /// each with the relative spread of the two rows it is taken from (the
    /// sum of their relative median absolute deviations). Ratios whose
    /// rows were not measured are left out.
    pub fn derived(&self) -> Vec<Derived> {
        let row = |name: &str| self.rows.iter().find(|r| r.name == name);
        let spread = |r: &PerfRow| r.mad_ns_per_point / r.median_ns_per_point;
        let speedup = |name: &'static str, slow: &str, fast: &str| {
            let (slow, fast) = (row(slow)?, row(fast)?);
            let value = slow.median_ns_per_point / fast.median_ns_per_point;
            Some(Derived { name, value, spread: spread(slow) + spread(fast) })
        };
        let mesh = self.mesh4096_amd_speedup.and_then(|value| {
            let markowitz = row("mesh4096_markowitz_direct")?;
            let amd = row("mesh4096_amd_direct")?;
            let spread = spread(markowitz) + spread(amd);
            Some(Derived { name: "mesh4096_amd_speedup_vs_markowitz", value, spread })
        });
        [
            speedup(
                "ua741_session_speedup_mirror_on_vs_off",
                "session_ua741_mirror_off",
                "session_ua741_mirror_on",
            ),
            speedup("fleet_batched_speedup", "fleet_ua741x64_scalar", "fleet_ua741x64_batched"),
            mesh,
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Serializes as the `BENCH_sampling.json` trajectory format: a
    /// versioned schema, the calibration time, the raw rows, and derived
    /// speedups future PRs regress against.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"refgen-bench-sampling/v1\",\n");
        s.push_str(&format!(
            "  \"env\": {{\"avx\": {}, \"avx2\": {}, \"fma\": {}, \"avx512f\": {}, \
             \"lane_width\": {}}},\n",
            self.env.avx, self.env.avx2, self.env.fma, self.env.avx512f, self.env.lane_width,
        ));
        s.push_str(&format!("  \"calibration_ns\": {:.1},\n", self.calibration_ns));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns_per_point\": {:.1}, \
                 \"min_ns_per_point\": {:.1}, \"mad_ns_per_point\": {:.1}, \
                 \"points\": {}, \"reps\": {}}}{}\n",
                r.name,
                r.median_ns_per_point,
                r.min_ns_per_point,
                r.mad_ns_per_point,
                r.points,
                r.reps,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n  \"derived\": {\n");
        let derived = self.derived();
        for (i, d) in derived.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {:.2}{}\n",
                d.name,
                d.value,
                if i + 1 == derived.len() { "" } else { "," }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// One derived ratio of a [`PerfSnapshot`] (higher is better).
#[derive(Clone, Copy, Debug)]
pub struct Derived {
    /// Ratio identifier (`fleet_batched_speedup`, …).
    pub name: &'static str,
    /// The ratio of the two rows' medians.
    pub value: f64,
    /// The relative spread of the two rows it is taken from.
    pub spread: f64,
}

/// Each rep's ns per transient time step of `circuit` at fixed `dt`,
/// measured on the steady-state compiled path: the first step (which pays
/// the run's one numeric factorization, plus the trapezoidal primer)
/// executes before timing starts, so the figure is the marginal
/// stamp-history → replay → back-substitute cost the `TransientPlan`
/// contract promises.
///
/// # Panics
///
/// Panics if the circuit cannot be assembled or the companion matrix is
/// singular (covered by the workspace tests for the library circuits).
pub fn transient_ns_per_step(
    circuit: &Circuit,
    dt: f64,
    steps: usize,
    method: refgen_mna::IntegrationMethod,
    reps: usize,
) -> Vec<f64> {
    let sys = refgen_mna::MnaSystem::new(circuit).expect("library circuit compiles");
    let plan = refgen_mna::TransientPlan::new(&sys, dt, method).expect("plan compiles");
    let mut state = plan.initial_state(0.0);
    let mut scratch = refgen_mna::TransientScratch::new();
    let mut k = 0u64;
    k += 1;
    plan.step(dt * k as f64, &mut state, &mut scratch).expect("first step factors");
    let ns = ns_per_point(reps, steps, || {
        for _ in 0..steps {
            k += 1;
            plan.step(dt * k as f64, &mut state, &mut scratch).expect("steady-state step");
        }
        state.solution()[0]
    });
    assert_eq!(scratch.stats().refactor_hits, 1, "steady-state steps must not refactor");
    assert_eq!(scratch.stats().fresh_factorizations, 0);
    ns
}

/// The rows of a snapshot being measured, with a calibration-kernel time
/// taken after each.
#[derive(Default)]
struct Recorder {
    rows: Vec<PerfRow>,
    calibration: Vec<f64>,
}

impl Recorder {
    fn push(&mut self, row: PerfRow) {
        self.rows.push(row);
        self.calibration.push(check::calibration_ns());
    }
}

/// (Elapsed ns / points) of each of `reps` runs of `work` (one warmup run
/// first).
fn ns_per_point(reps: usize, points: usize, mut work: impl FnMut() -> f64) -> Vec<f64> {
    let mut sink = work();
    let samples = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            sink += work();
            t0.elapsed().as_nanos() as f64 / points as f64
        })
        .collect();
    std::hint::black_box(sink);
    samples
}

/// [`ns_per_point`] of `work` on an input the symbolic memo holds: two
/// untimed runs first, the first for the memo to see every key the work
/// plans and the second for it to keep them.
///
/// # Panics
///
/// Panics if the warmup or a timed rep ordered or compiled anything.
fn warm_ns_per_point(reps: usize, points: usize, mut work: impl FnMut() -> f64) -> Vec<f64> {
    std::hint::black_box(work() + work());
    let misses = refgen_mna::symbolic_memo_stats().misses;
    let samples = ns_per_point(reps, points, work);
    let now = refgen_mna::symbolic_memo_stats().misses;
    assert_eq!(now, misses, "a warm rep planned something new");
    samples
}

/// [`ns_per_point`] of two workloads, their reps interleaved (one warmup
/// run of each first): rep `i` of both runs before rep `i + 1` of either,
/// so drift on the host shifts them alike and their per-rep ratios hold
/// where a ratio of separately measured medians does not.
fn paired_ns_per_point(
    reps: usize,
    points: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut sink = a() + b();
    let mut time = |work: &mut dyn FnMut() -> f64| {
        let t0 = std::time::Instant::now();
        sink += work();
        t0.elapsed().as_nanos() as f64 / points as f64
    };
    let samples = (0..reps).map(|_| (time(&mut a), time(&mut b))).unzip();
    std::hint::black_box(sink);
    samples
}

/// [`ns_per_point`] of `work` on a cleared symbolic memo: the memo is
/// cleared, untimed, before each rep, so every rep orders and compiles in
/// full, as every rep of the same row did before the memo existed (the
/// row's input is the same every rep, its data in cache). Each rep must
/// miss the memo at least once.
///
/// # Panics
///
/// Panics if a timed rep planned nothing new.
fn cold_ns_per_point(reps: usize, points: usize, mut work: impl FnMut() -> f64) -> Vec<f64> {
    let mut sink = work();
    let samples = (0..reps)
        .map(|rep| {
            refgen_mna::clear_symbolic_memo();
            let misses = refgen_mna::symbolic_memo_stats().misses;
            let t0 = std::time::Instant::now();
            sink += work();
            let ns = t0.elapsed().as_nanos() as f64 / points as f64;
            let missed = refgen_mna::symbolic_memo_stats().misses > misses;
            assert!(missed, "cold rep {rep} planned nothing new");
            ns
        })
        .collect();
    std::hint::black_box(sink);
    samples
}

/// The affine stamp pattern `A(s) = K₀ + s·K₁` of `(sys, scale)` — the
/// two-sample extraction from two full assemblies: raw entries with
/// duplicates unmerged, so the `refactor_*`/`window_*` rows stay
/// comparable with earlier snapshots.
fn bench_affine_pattern(
    sys: &refgen_mna::MnaSystem,
    scale: Scale,
) -> Vec<(usize, usize, refgen_numeric::Complex, refgen_numeric::Complex)> {
    use refgen_numeric::Complex;
    let t0 = sys.assemble(Complex::ZERO, scale);
    let t1 = sys.assemble(Complex::ONE, scale);
    t0.entries()
        .iter()
        .zip(t1.entries())
        .map(|(&(r, c, v0), &(_, _, v1))| (r, c, v0, v1 - v0))
        .collect()
}

/// Measures the perf trajectory of the sampling hot path and returns the
/// snapshot the `perf_snapshot` binary writes to `BENCH_sampling.json`:
///
/// * `refactor_{circuit}_compiled` — median ns per determinant-only
///   refactorization point (the denominator-sampling cost) on the
///   compiled symbolic kernel (`FactorProgram::refactor_values`), no RHS
///   solve;
/// * `window_{circuit}_compiled_mirrored` — median ns per *window point*
///   of a full conjugate-paired unit-circle window of refactor+solve work
///   (the numerator-sampling cost): the closed upper half is solved on
///   the compiled kernel and each remaining point is the conjugate of its
///   actual partner;
/// * `fleet_ua741x64_{scalar,batched}` — a 64-variant same-topology
///   µA741 fleet sampled over one 40-point window, ns per
///   (variant, point) solve: per-point sequential evaluation versus each
///   variant's points through [`refgen_mna::SweepPlan::eval_batch`] in
///   lane groups of the default `lane_width`, the path batch sessions
///   run (the batched responses are checked bit for bit against the
///   scalar ones; the two rows' reps interleave);
/// * `session_ua741_mirror_{on,off}` — full adaptive `Session` solves of
///   the µA741, ns per interpolation point, mirroring on versus forced
///   off;
/// * `session_{ota_table1,miller}` — full default-configuration `Session`
///   solves of the Table 1 OTA and the Miller opamp, ns per solve;
/// * `order_bound_ua741` — both structural degree bounds of the µA741's
///   voltage gain ([`refgen_mna::MnaSystem::degree_bounds`]), ns per pair,
///   each on a topology that has not memoized it;
/// * `parse_ua741`, `variants_ua741x64`, `mna_ua741` — the circuit layer
///   in front of the engine: ns per parse of the µA741 `.TF` netlist, per
///   64-variant `VariantSet::generate`, and per `MnaSystem::new`;
/// * `mna_ua741_variant` — ns per variant system of a 64-variant ±5 %
///   µA741 fleet compiled on the base circuit's stamp topology
///   ([`refgen_mna::MnaSystem::with_topology_of`]), as `solve_all` builds
///   them;
/// * `plan_ua741_miss` — ns per plan built through a fresh `PlanCache` at
///   the scales where the default µA741 session's plans miss its cache
///   (probe factorization, ordering selection and program compile), each
///   rep with the symbolic memo cleared (cold, see `cold_ns_per_point`);
///   `plan_ua741_miss_warm` the same with the programs the memo holds (it
///   keeps a key from its second request on, so warm rows run twice
///   untimed first);
/// * `plan_ua741_gate` — ns per plan built at the scales where the
///   default µA741 session's plans certify a new plan cell (the growth
///   gate: a replay of the root program at the cell centre), through a
///   fresh `PlanCache` that already holds the session's misses;
/// * `mesh{nodes}_{markowitz,amd}_direct` — square grid RC meshes swept
///   over a dense log-frequency grid, ns per compiled-replay point under
///   each pivot ordering;
/// * `mesh{nodes}_auto_sweep` — the same meshes and grid through the
///   direct AC sweep ([`refgen_mna::AcAnalysis::sweep_fast`]) at the
///   default lane width, plan build included, ns per point, cold;
///   `mesh{nodes}_auto_sweep_warm` warm;
/// * `plan_mesh1024_auto` — the plan build alone
///   ([`refgen_mna::SweepPlan::new`], default ordering) on the 1 024-node
///   grid mesh, ns per plan, cold as above, with its `_warm` twin;
///   measured in quick mode too.
///
/// The snapshot also records the [`PerfEnv`] (CPU feature flags seen by
/// the batched kernel's runtime dispatch, configured lane width) and the
/// calibration kernel's time ([`PerfSnapshot::calibration_ns`]).
/// `quick` shrinks repetition counts for compile-smoke runs.
///
/// # Panics
///
/// Panics if a library circuit fails to compile or probe (covered by the
/// workspace tests).
pub fn perf_snapshot(quick: bool) -> PerfSnapshot {
    use refgen_numeric::Complex;
    use refgen_sparse::{FactorProgram, ProgramScratch, SparseLu, Triplets};

    let reps = if quick { 5 } else { 60 };
    // The machine speed: the calibration kernel's median over runs at the
    // start, after every row and at the end, since contention on a shared
    // host comes and goes within a run.
    let mut rows = Recorder::default();
    rows.calibration.extend((0..5).map(|_| check::calibration_ns()));

    let circuits: [(&str, Circuit); 2] =
        [("ladder16", rc_ladder(16, 1e3, 1e-9)), ("ua741", ua741())];
    for (name, circuit) in &circuits {
        let sys = refgen_mna::MnaSystem::new(circuit).expect("library circuit compiles");
        let scale = Scale::new(1e9, 1e3);
        let pattern = bench_affine_pattern(&sys, scale);
        let dim = sys.dim();
        let rhs = sys.rhs();
        let points = 40usize;
        let sigmas = refgen_numeric::dft::unit_circle_points(points);

        // One probe pivot search, compiled once.
        let probe = Complex::new(1f64.cos(), 1f64.sin());
        let mut t = Triplets::new(dim);
        for &(r, c, k0, k1) in &pattern {
            t.add(r, c, k0 + probe * k1);
        }
        let order = SparseLu::factor(&t).expect("probe factors").order().clone();
        let positions: Vec<(usize, usize)> = pattern.iter().map(|&(r, c, _, _)| (r, c)).collect();
        let program = FactorProgram::compile(dim, &positions, &order).expect("pattern compiles");

        // Determinant-only refactorization, compiled kernel: stamp straight
        // into slots + flat instruction-stream replay.
        let mut prog_scratch = ProgramScratch::new();
        let ns = ns_per_point(reps, points, || {
            let mut acc = 0.0;
            for &sigma in &sigmas {
                program
                    .refactor_values(
                        pattern.iter().map(|&(_, _, k0, k1)| k0 + sigma * k1),
                        &mut prog_scratch,
                    )
                    .expect("replay succeeds");
                acc += prog_scratch.det().norm().log2();
            }
            acc
        });
        rows.push(PerfRow::new(format!("refactor_{name}_compiled"), ns, points));

        // Window-level refactor+solve over one conjugate-paired window:
        // the engine solves only the closed upper half on the compiled
        // kernel and conjugates each remaining point from its actual
        // partner σ_{K−i} = conj(σ_i).
        let mut x = Vec::new();
        let mut solved: Vec<Complex> = vec![Complex::ZERO; points];
        let ns = ns_per_point(reps, points, || {
            let mut acc = 0.0;
            for (i, &sigma) in sigmas.iter().enumerate() {
                if sigma.im >= 0.0 {
                    program
                        .refactor_values(
                            pattern.iter().map(|&(_, _, k0, k1)| k0 + sigma * k1),
                            &mut prog_scratch,
                        )
                        .expect("replay succeeds");
                    program.solve_into(&mut prog_scratch, &rhs, &mut x);
                    solved[i] = x[0];
                } else {
                    // Mirror: one conjugation instead of a solve.
                    solved[i] = solved[points - i].conj();
                }
                acc += solved[i].re;
            }
            acc
        });
        rows.push(PerfRow::new(format!("window_{name}_compiled_mirrored"), ns, points));
    }

    // Companion-model transient stepping: ns per step on the compiled
    // steady-state path (stamp history → replay → back-substitute), for
    // both integration methods. The ladder drives a real PULSE step so
    // the waveform evaluation cost is part of the row.
    {
        use refgen_circuit::Waveform;
        use refgen_mna::IntegrationMethod;
        let mut ladder = rc_ladder(16, 1e3, 1e-9);
        ladder
            .set_waveform(
                "VIN",
                Waveform::Pulse {
                    v1: 0.0,
                    v2: 1.0,
                    delay: 0.0,
                    rise: 0.0,
                    fall: 0.0,
                    width: f64::INFINITY,
                    period: f64::INFINITY,
                },
            )
            .expect("VIN is a source");
        let steps = 256usize;
        for (name, circuit) in [("ladder16", &ladder), ("ua741", &circuits[1].1)] {
            for method in [IntegrationMethod::BackwardEuler, IntegrationMethod::Trapezoidal] {
                let ns = transient_ns_per_step(circuit, 1e-9, steps, method, reps);
                rows.push(PerfRow::new(
                    format!("transient_{name}_{}", method.label().to_ascii_lowercase()),
                    ns,
                    steps,
                ));
            }
        }
    }

    // Fleet sampling: one conjugate-grid window's σ points evaluated for
    // 64 same-topology µA741 variants planned through one `PlanCache`
    // anchored on the base circuit, as `solve_all` plans them, so they
    // share one compiled kernel. The scalar row solves per (point,
    // variant) through the sequential path; the batched row drives each
    // variant's points through `eval_batch` in lane groups of the default
    // width, as batch sessions sample. Identical work and bit-identical
    // results, so the ratio is the speedup of lane batching on a fleet.
    {
        use refgen_mna::{PlanCache, SweepBatchScratch, SweepPlan, SweepScratch, TransferResponse};
        let base = &circuits[1].1;
        let spec = standard_spec();
        let scale = Scale::new(1e9, 1e3);
        let ordering = RefgenConfig::default().ordering;
        let cache = PlanCache::new();
        cache.register_anchor(&refgen_mna::MnaSystem::new(base).expect("µA741 compiles"), scale);
        let plans: Vec<SweepPlan> = fleet_variants(base, 64, 20260808)
            .iter()
            .map(|c| {
                let sys = refgen_mna::MnaSystem::new(c).expect("variant compiles");
                SweepPlan::new_cached_with_ordering(&sys, scale, &spec, &cache, ordering)
                    .expect("variant plans")
            })
            .collect();
        // Lane groups of the configured width: the batched kernels run
        // each block of eight lanes as one pass, and the working set grows
        // with the padded lane count (slots × lanes complex values), so
        // the engine's default width is the measured shape.
        let lane_width = RefgenConfig::default().lane_width.max(1);
        let sigmas = refgen_numeric::dft::unit_circle_points(40);
        let evals = sigmas.len() * plans.len();
        // The derived ratios' rows run as many reps in quick mode as in a
        // full run, so a quick check compares like with like.
        let fleet_reps = 25;
        let repr = |r: &TransferResponse| format!("{r:?}");

        let mut seq = SweepScratch::new();
        let scalar: Vec<String> = plans
            .iter()
            .flat_map(|plan| sigmas.iter().map(|&s| plan.eval_at(s, &mut seq)).collect::<Vec<_>>())
            .map(|r| repr(&r.expect("variant solves")))
            .collect();
        let mut batch = SweepBatchScratch::new();
        let batched: Vec<String> = plans
            .iter()
            .flat_map(|plan| {
                sigmas
                    .chunks(lane_width)
                    .flat_map(|c| plan.eval_batch(c, &mut batch))
                    .collect::<Vec<_>>()
            })
            .map(|r| repr(&r.expect("variant solves")))
            .collect();
        assert_eq!(batched, scalar, "lane-batched fleet responses must match the scalar row");
        // The two rows' reps interleave, so host drift moves their ratio
        // less than it moves either row.
        let (scalar_ns, batched_ns) = paired_ns_per_point(
            fleet_reps,
            evals,
            || {
                let mut acc = 0.0;
                for &sigma in &sigmas {
                    for plan in &plans {
                        acc += plan.eval_at(sigma, &mut seq).expect("variant solves").response.re;
                    }
                }
                acc
            },
            || {
                let mut acc = 0.0;
                for plan in &plans {
                    for chunk in sigmas.chunks(lane_width) {
                        for response in plan.eval_batch(chunk, &mut batch) {
                            acc += response.expect("variant solves").response.re;
                        }
                    }
                }
                acc
            },
        );
        rows.push(PerfRow::new("fleet_ua741x64_scalar", scalar_ns, evals));
        rows.push(PerfRow::new("fleet_ua741x64_batched", batched_ns, evals));
    }

    // Full adaptive Session solves of the µA741, mirroring on vs off,
    // their reps interleaved.
    let session_reps = 9;
    let ua741_circuit = ua741();
    {
        let circuit = &ua741_circuit;
        let session = |mirror: bool| {
            let cfg = RefgenConfig::builder().conjugate_mirror(mirror).build();
            move || {
                let solution = Session::for_circuit(circuit)
                    .spec(standard_spec())
                    .config(cfg)
                    .solve()
                    .expect("µA741 solves");
                solution.total_points() as f64
            }
        };
        let points = session(true)() as usize;
        let (on, off) = paired_ns_per_point(session_reps, points, session(true), session(false));
        rows.push(PerfRow::new("session_ua741_mirror_on", on, points));
        rows.push(PerfRow::new("session_ua741_mirror_off", off, points));
    }

    // Full adaptive sessions of the paper's Table 1 OTA and of the Miller
    // opamp at the default configuration: ns per solve. Their reactive
    // counts (37, 21) far exceed their degrees (9/7, 4/4), so these rows
    // follow the structural order bound's window sizing.
    let miller = refgen_circuit::library::miller_two_stage_opamp(2e-12, 5e-12);
    for (name, circuit) in [("ota_table1", positive_feedback_ota()), ("miller", miller)] {
        let ns = ns_per_point(reps, 1, || {
            let solution = Session::for_circuit(&circuit)
                .spec(standard_spec())
                .solve()
                .expect("library circuit solves");
            solution.total_points() as f64
        });
        rows.push(PerfRow::new(format!("session_{name}"), ns, 1));
    }

    // Both structural degree bounds of the µA741's voltage gain — what each
    // network function computes before it samples: ns per pair. The bounds
    // are memoized on the stamp topology, so every pair is asked of a
    // system compiled (untimed) on a topology of its own.
    {
        let output = standard_spec().output;
        let pairs = 100;
        let samples: Vec<f64> = (0..=reps)
            .map(|_| {
                let systems: Vec<refgen_mna::MnaSystem> = (0..pairs)
                    .map(|_| refgen_mna::MnaSystem::new(&ua741_circuit).expect("µA741 compiles"))
                    .collect();
                let t0 = std::time::Instant::now();
                for sys in &systems {
                    std::hint::black_box(sys.degree_bounds(&output));
                }
                t0.elapsed().as_nanos() as f64 / pairs as f64
            })
            .skip(1)
            .collect();
        rows.push(PerfRow::new("order_bound_ua741", samples, pairs));
    }

    // The circuit layer in front of the engine: a parse of the µA741 `.TF`
    // netlist a session reads (ns per parse), a 64-variant ±5 % fleet of
    // it (ns per `VariantSet::generate`), its MNA system (ns per
    // `MnaSystem::new`), and that fleet's variant systems on the base's
    // stamp topology (ns per system). Each result is dropped inside the
    // timed loop.
    {
        use refgen_circuit::{parse_netlist, to_spice, Perturbation, VariantSet};
        let spice = to_spice(&ua741_circuit);
        let body = spice.strip_suffix(".end\n").expect("the writer ends with .end");
        let text = format!("{body}.tf V(out) VIN\n.end\n");
        let parses = 20;
        let ns = ns_per_point(reps, parses, || {
            (0..parses)
                .map(|_| {
                    parse_netlist(&text).expect("µA741 parses").circuit.elements().len() as f64
                })
                .sum()
        });
        rows.push(PerfRow::new("parse_ua741", ns, parses));
        let fleet = VariantSet::new(Perturbation::all_relative(0.05), 64).seed(0xf1ee7);
        let ns = ns_per_point(reps, 1, || {
            fleet.generate(&ua741_circuit).expect("µA741 variants").len() as f64
        });
        rows.push(PerfRow::new("variants_ua741x64", ns, 1));
        let systems = 20;
        let ns = ns_per_point(reps, systems, || {
            (0..systems)
                .map(|_| {
                    refgen_mna::MnaSystem::new(&ua741_circuit).expect("µA741 compiles").dim() as f64
                })
                .sum()
        });
        rows.push(PerfRow::new("mna_ua741", ns, systems));
        let base = refgen_mna::MnaSystem::new(&ua741_circuit).expect("µA741 compiles");
        let variants = fleet.generate(&ua741_circuit).expect("µA741 variants");
        let ns = ns_per_point(reps, variants.len(), || {
            variants
                .iter()
                .map(|v| {
                    let sys = refgen_mna::MnaSystem::with_topology_of(v, &base);
                    sys.expect("variant compiles").dim() as f64
                })
                .sum()
        });
        rows.push(PerfRow::new("mna_ua741_variant", ns, variants.len()));
    }

    // Plan misses and gates: the plans of the default µA741 session that
    // probe, and those that certify a new cell, found by replaying its
    // windows (engine order, denominator first) through one cache. The
    // misses are rebuilt through a fresh cache per rep so every one misses
    // again — probe, ordering selection and compile, ns per plan; the
    // gates are rebuilt through a fresh cache holding only the misses, so
    // every one certifies its cell again, ns per plan.
    {
        use refgen_mna::{MnaSystem, PlanCache, SweepPlan};
        let spec = standard_spec();
        let ordering = RefgenConfig::default().ordering;
        let sys = MnaSystem::new(&ua741_circuit).expect("µA741 compiles");
        let build = |kind: PolyKind, scale: Scale, cache: &PlanCache| match kind {
            PolyKind::Denominator => {
                SweepPlan::for_determinant_cached_with_ordering(&sys, scale, cache, ordering)
            }
            PolyKind::Numerator => {
                SweepPlan::new_cached_with_ordering(&sys, scale, &spec, cache, ordering)
                    .expect("µA741 plans")
            }
        };
        let solution =
            Session::for_circuit(&ua741_circuit).spec(spec.clone()).solve().expect("µA741 solves");
        let report = &solution.network.report;
        let replay = PlanCache::new();
        let (mut misses, mut gates) = (Vec::new(), Vec::new());
        for (kind, windows) in [
            (PolyKind::Denominator, &report.denominator.windows),
            (PolyKind::Numerator, &report.numerator.windows),
        ] {
            for w in windows {
                let (searches, cells) = (replay.pivot_searches(), replay.len());
                build(kind, w.scale, &replay);
                if replay.pivot_searches() > searches {
                    misses.push((kind, w.scale));
                } else if replay.len() > cells {
                    gates.push((kind, w.scale));
                }
            }
        }
        // Cold: each rep on a cleared memo, so it orders and compiles.
        // Warm: the programs memoized.
        let plan_misses = || {
            let cache = PlanCache::new();
            misses.iter().map(|&(kind, scale)| build(kind, scale, &cache).dim() as f64).sum()
        };
        let ns = cold_ns_per_point(reps, misses.len(), plan_misses);
        rows.push(PerfRow::new("plan_ua741_miss", ns, misses.len()));
        let ns = warm_ns_per_point(reps, misses.len(), plan_misses);
        rows.push(PerfRow::new("plan_ua741_miss_warm", ns, misses.len()));
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let cache = PlanCache::new();
                for &(kind, scale) in &misses {
                    build(kind, scale, &cache);
                }
                let t0 = std::time::Instant::now();
                for &(kind, scale) in &gates {
                    std::hint::black_box(build(kind, scale, &cache));
                }
                t0.elapsed().as_nanos() as f64 / gates.len().max(1) as f64
            })
            .collect();
        rows.push(PerfRow::new("plan_ua741_gate", samples, gates.len()));
    }

    // Mesh-scaling rows: square grid RC meshes at 256 / 1024 / 4096 nodes,
    // swept over a dense log-frequency grid under both pivot orderings
    // (the probe-recorded Markowitz order vs. approximate minimum degree,
    // their reps interleaved), one compiled replay per point; then the
    // whole direct AC sweep (Auto plan build plus lane-batched replay).
    // Quick mode measures mesh256 only.
    let mut mesh4096_amd_speedup = None;
    {
        use refgen_circuit::library::grid_rc_mesh;
        use refgen_mna::{AcAnalysis, OrderingMode, PlanCache, SweepPlan, SweepScratch};
        let sides: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
        let spec = standard_spec();
        for &side in sides {
            let nodes = side * side;
            let circuit = grid_rc_mesh(side, side, 9000 + nodes as u64);
            let sys = refgen_mna::MnaSystem::new(&circuit).expect("mesh compiles");
            let points = 96usize;
            // 1.5 decades over 96 points: ~2.7 % relative spacing.
            let freqs = log_space(1e6, 3e7, points);
            let mesh_reps = if quick {
                2
            } else {
                match side {
                    16 => 11,
                    _ => 5,
                }
            };
            let freqs = &freqs;
            let direct_sweep = |mode| {
                let plan = SweepPlan::new_cached_with_ordering(
                    &sys,
                    Scale::unit(),
                    &spec,
                    &PlanCache::new(),
                    mode,
                )
                .expect("mesh plans");
                let mut direct = SweepScratch::new();
                move || {
                    let mut acc = 0.0;
                    for &f in freqs {
                        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                        acc += plan.eval_at(s, &mut direct).expect("mesh point solves").response.re;
                    }
                    acc
                }
            };
            let (markowitz, amd) = paired_ns_per_point(
                mesh_reps,
                points,
                direct_sweep(OrderingMode::Markowitz),
                direct_sweep(OrderingMode::Amd),
            );
            if side == 64 {
                let mut ratios: Vec<f64> = markowitz.iter().zip(&amd).map(|(m, a)| m / a).collect();
                ratios.sort_by(|a, b| a.total_cmp(b));
                mesh4096_amd_speedup = Some(ratios[ratios.len() / 2]);
            }
            rows.push(PerfRow::new(format!("mesh{nodes}_markowitz_direct"), markowitz, points));
            rows.push(PerfRow::new(format!("mesh{nodes}_amd_direct"), amd, points));
            // The whole sweep, plan build included, cold and warm.
            let lanes = RefgenConfig::default().lane_width;
            let sweep = |ac: &AcAnalysis| {
                let sweep = ac.sweep_fast(freqs, lanes).expect("mesh sweeps");
                sweep.iter().map(|p| p.response.re).sum()
            };
            let ac = AcAnalysis::new(&circuit, spec.clone()).expect("mesh compiles");
            let ns = cold_ns_per_point(mesh_reps, points, || sweep(&ac));
            rows.push(PerfRow::new(format!("mesh{nodes}_auto_sweep"), ns, points));
            let ns = warm_ns_per_point(mesh_reps, points, || sweep(&ac));
            rows.push(PerfRow::new(format!("mesh{nodes}_auto_sweep_warm"), ns, points));
        }
        // The default plan build alone, cold and warm as above.
        let mesh = grid_rc_mesh(32, 32, 9000 + 1024);
        let plan_reps = if quick { 5 } else { 15 };
        let plan = |sys: &refgen_mna::MnaSystem| {
            SweepPlan::new(sys, Scale::unit(), &spec).expect("mesh plans").dim() as f64
        };
        let sys = refgen_mna::MnaSystem::new(&mesh).expect("mesh compiles");
        let ns = cold_ns_per_point(plan_reps, 1, || plan(&sys));
        rows.push(PerfRow::new("plan_mesh1024_auto", ns, 1));
        let ns = warm_ns_per_point(plan_reps, 1, || plan(&sys));
        rows.push(PerfRow::new("plan_mesh1024_auto_warm", ns, 1));
    }

    let Recorder { rows, mut calibration } = rows;
    calibration.extend((0..5).map(|_| check::calibration_ns()));
    calibration.sort_by(f64::total_cmp);
    let calibration_ns = calibration[calibration.len() / 2];
    PerfSnapshot { env: PerfEnv::detect(), calibration_ns, rows, mesh4096_amd_speedup }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trajectory format is stable: every row name `to_json`'s derived
    /// ratios reference exists, and the output is structurally JSON.
    #[test]
    fn perf_snapshot_json_format() {
        let names = [
            "refactor_ladder16_compiled",
            "window_ladder16_compiled_mirrored",
            "refactor_ua741_compiled",
            "window_ua741_compiled_mirrored",
            "transient_ladder16_be",
            "transient_ladder16_tr",
            "transient_ua741_be",
            "transient_ua741_tr",
            "fleet_ua741x64_scalar",
            "fleet_ua741x64_batched",
            "session_ua741_mirror_on",
            "session_ua741_mirror_off",
            "plan_ua741_miss",
            "plan_ua741_gate",
            "mesh256_markowitz_direct",
            "mesh256_amd_direct",
            "mesh256_auto_sweep",
            "mesh1024_markowitz_direct",
            "mesh1024_amd_direct",
            "mesh1024_auto_sweep",
            "plan_mesh1024_auto",
            "mesh4096_markowitz_direct",
            "mesh4096_amd_direct",
            "mesh4096_auto_sweep",
        ];
        let snapshot = PerfSnapshot {
            env: PerfEnv::detect(),
            calibration_ns: 1.5e6,
            rows: names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let m = 100.0 * (i as f64 + 1.0);
                    PerfRow::new(*n, vec![m + 30.0, m - 10.0, m], 40)
                })
                .collect(),
            mesh4096_amd_speedup: Some(1.1),
        };
        let json = snapshot.to_json();
        assert!(json.contains("\"schema\": \"refgen-bench-sampling/v1\""));
        assert!(json.contains("\"ua741_session_speedup_mirror_on_vs_off\""));
        assert!(json.contains("\"fleet_batched_speedup\""));
        assert!(json.contains("\"mesh4096_amd_speedup_vs_markowitz\""));
        assert!(json.contains("\"env\": {\"avx\": "));
        assert!(json.contains("\"lane_width\": "));
        assert_eq!(json.matches("{\"name\"").count(), names.len());
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Median, min and median absolute deviation of 330, 290 and 300.
        assert!(json.contains(
            "{\"name\": \"refactor_ua741_compiled\", \"median_ns_per_point\": 300.0, \
             \"min_ns_per_point\": 290.0, \"mad_ns_per_point\": 10.0, \
             \"points\": 40, \"reps\": 3}"
        ));
        assert_eq!(snapshot.ns("refactor_ua741_compiled"), 300.0);
        assert_eq!(snapshot.ns_opt("refactor_ua741_compiled"), Some(300.0));
        assert_eq!(snapshot.ns_opt("mesh8_missing_row"), None);
    }

    /// Quick snapshots carry only the mesh256 rows: the mesh ratio must be
    /// omitted from `derived` without breaking the JSON structure
    /// or leaving a trailing comma.
    #[test]
    fn quick_snapshot_json_omits_large_mesh_ratios() {
        let names = [
            "refactor_ladder16_compiled",
            "window_ladder16_compiled_mirrored",
            "refactor_ua741_compiled",
            "window_ua741_compiled_mirrored",
            "fleet_ua741x64_scalar",
            "fleet_ua741x64_batched",
            "session_ua741_mirror_on",
            "session_ua741_mirror_off",
            "plan_ua741_miss",
            "plan_ua741_gate",
            "mesh256_markowitz_direct",
            "mesh256_amd_direct",
            "mesh256_auto_sweep",
        ];
        let snapshot = PerfSnapshot {
            env: PerfEnv::detect(),
            calibration_ns: 1.5e6,
            rows: names
                .iter()
                .enumerate()
                .map(|(i, n)| PerfRow::new(*n, vec![10.0 * (i as f64 + 1.0); 2], 48))
                .collect(),
            mesh4096_amd_speedup: None,
        };
        let json = snapshot.to_json();
        assert!(json.contains("\"fleet_batched_speedup\""));
        assert!(!json.contains("mesh4096_amd_speedup_vs_markowitz"));
        // The last derived entry must not carry a trailing comma.
        assert!(!json.contains(",\n  }"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn table1_shapes() {
        let t = table1();
        let (ulo, uhi) = t.unscaled.denominator.region.expect("some window");
        let (slo, shi) = t.scaled.denominator.region.expect("some window");
        assert!(uhi - ulo < shi - slo, "scaling widens the window");
        assert_eq!(ulo, 0);
    }

    #[test]
    fn ua741_iteration_structure() {
        let e = tables_2_3();
        // Several iterations whose regions tile 0..=degree.
        assert!(e.iterations.len() >= 3);
        assert_eq!(e.network.denominator.degree(), Some(39));
        assert!(e.points_with_reduction < e.points_without_reduction);
        // Reduced iterations use strictly fewer points than the first.
        let first = e.iterations[0].points;
        for it in e.iterations.iter().filter(|i| i.reduced) {
            assert!(it.points <= first);
        }
        // Complete coverage: every coefficient of the effective degree is
        // inside some iteration's valid region.
        let degree = e.network.denominator.degree().expect("non-trivial");
        for i in 0..=degree {
            assert!(
                e.iterations
                    .iter()
                    .filter_map(|it| it.region)
                    .any(|(lo, hi)| (lo..=hi).contains(&i)),
                "coefficient {i} uncovered"
            );
        }
        // Denormalized coefficient magnitudes decrease monotonically —
        // the Tables 2–3 staircase.
        let coeffs = e.network.denominator.coeffs();
        for w in coeffs.windows(2) {
            assert!(w[0].norm() > w[1].norm());
        }
    }

    #[test]
    fn fig2_matches() {
        let f = fig2(80);
        assert!(f.max_mag_err_db < 1e-3, "mag err {}", f.max_mag_err_db);
        assert!(f.max_phase_err_deg < 0.1, "phase err {}", f.max_phase_err_deg);
        // The curve has the right shape: high DC gain, rolled off at 100 MHz.
        assert!(f.simulator.mag_db[0] > 80.0);
        assert!(*f.simulator.mag_db.last().expect("nonempty") < 0.0);
    }

    #[test]
    fn ablation_adaptive_beats_grid() {
        let pts = ablation_grid_vs_adaptive(&[12, 20]);
        for p in pts {
            if let Some(gp) = p.grid_points {
                assert!(
                    p.adaptive_points < gp,
                    "order {}: adaptive {} vs grid {}",
                    p.order,
                    p.adaptive_points,
                    gp
                );
            }
        }
    }

    #[test]
    fn thread_ablation_is_deterministic_and_reuses_pivots() {
        let pts = ablation_threads(&[1, 4]);
        assert_eq!(pts.len(), 2);
        let (one, four) = (&pts[0], &pts[1]);
        // Identical recovery structure at both thread counts…
        assert_eq!(one.degree, four.degree);
        assert_eq!(one.total_points, four.total_points);
        assert_eq!(one.refactor_hits, four.refactor_hits);
        // …with the pivot-reuse path active in both (the sequential path
        // must not fall back to per-point Markowitz searches).
        assert!(one.refactor_hits > 0, "pivot-order reuse inactive at threads = 1");
        // The vast majority of points ride the cheap path: only windows
        // whose plan probe hits a degenerate point ever fall back.
        assert!(
            one.refactor_hits as usize >= one.total_points / 2,
            "hits {} of {} points",
            one.refactor_hits,
            one.total_points
        );
    }

    #[test]
    fn planned_sampling_matches_unplanned_checksum() {
        let sys = ua741_system();
        let scale = Scale::new(1e9, 1e3);
        let plain = ua741_sampling_cost(&sys, scale, 17);
        for threads in [1, 4] {
            let pool = refgen_exec::WorkerPool::new(threads);
            let planned = ua741_sampling_cost_planned(&sys, scale, 17, &pool);
            assert!(
                (planned - plain).abs() < 1e-6 * plain.abs(),
                "threads {threads}: {planned} vs {plain}"
            );
        }
    }

    #[test]
    fn batched_fleet_matches_naive_and_amortizes_searches() {
        let base = rc_ladder(10, 1e3, 1e-9);
        let spec = standard_spec();
        let cfg = paper_config();
        let variants = fleet_variants(&base, 8, 77);
        let naive = fleet_naive(&variants, &spec, cfg);
        let pool_cfg = RefgenConfig::builder().verify(false).build();
        let batched = fleet_batched(&base, &variants, &spec, pool_cfg);
        assert_eq!(naive.len(), batched.solutions().len());
        for (i, (a, b)) in naive.iter().zip(batched.solutions()).enumerate() {
            assert_eq!(
                a.network.denominator.degree(),
                b.network.denominator.degree(),
                "variant {i}"
            );
            // Shared pivot orders are an amortization, not a semantic
            // change: coefficients agree to interpolation accuracy (the
            // two paths may replay different—equally valid—orders, so
            // bit-identity is not required *across* modes, only within).
            for (x, y) in a.network.denominator.coeffs().iter().zip(b.network.denominator.coeffs())
            {
                let rel = ((*x - *y).norm() / y.norm()).to_f64();
                assert!(rel < 1e-9, "variant {i}: rel {rel:.2e}");
            }
        }
        // The whole 8-variant fleet paid the pivot searches of one solve.
        let single = fleet_batched(
            &base,
            &fleet_variants(&base, 1, 77),
            &spec,
            RefgenConfig::builder().verify(false).build(),
        );
        assert_eq!(batched.report.pivot_searches, single.report.pivot_searches);
        assert!(batched.report.shared_plan_hits > single.report.shared_plan_hits);
    }

    #[test]
    fn roster_runs_every_method_on_a_small_ladder() {
        // A small, well-scaled ladder: every method that can see the whole
        // coefficient range must agree with the adaptive truth.
        let c = rc_ladder(6, 1e3, 1e-9);
        let spec = standard_spec();
        let outcomes = compare_solvers(&c, &spec, &solver_roster(RefgenConfig::default()));
        assert_eq!(outcomes.len(), 4);
        let adaptive = outcomes[0].result.as_ref().expect("adaptive always recovers");
        assert_eq!(outcomes[0].method, "adaptive");
        for o in &outcomes[1..] {
            if let Ok(s) = &o.result {
                if s.network.denominator.degree() == adaptive.network.denominator.degree() {
                    for (x, y) in s
                        .network
                        .denominator
                        .coeffs()
                        .iter()
                        .zip(adaptive.network.denominator.coeffs())
                    {
                        let rel = ((*x - *y).norm() / y.norm()).to_f64();
                        assert!(rel < 1e-5, "{}: rel {rel:.2e}", o.method);
                    }
                }
            }
        }
        // The unit-circle baseline must NOT see the whole range on
        // IC-valued elements (Table 1a's point): either a typed failure or
        // a truncated degree.
        let unit = outcomes.iter().find(|o| o.method == "unit-circle").expect("in roster");
        let truncated = match &unit.result {
            Ok(s) => s.network.denominator.degree() < adaptive.network.denominator.degree(),
            Err(_) => true,
        };
        assert!(truncated, "unit-circle interpolation cannot cover 6 decades per step");
    }
}
