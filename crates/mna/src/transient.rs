//! Companion-model time stepping on the compiled plan/execute seam.
//!
//! The classical transient recipe discretizes each reactive element into a
//! *companion model* — a conductance in the matrix plus a history current
//! on the right-hand side — and solves one resistive network per time
//! step. The load-bearing observation here is that for a **fixed step**
//! `h` the companion conductances are exactly the existing affine pattern
//! of [`SweepPlan`](crate::SweepPlan) evaluated at one *real* point:
//!
//! ```text
//!   A_companion  =  K₀ + γ·K₁        γ = 1/h   (backward Euler)
//!                                    γ = 2/h   (trapezoidal)
//! ```
//!
//! because every capacitor stamps `s·C` and every inductor branch stamps
//! `−s·L` — substituting `s = γ` turns them into the `C/h` (resp. `2C/h`)
//! conductances and `−L/h` (resp. `−2L/h`) branch impedances of the
//! textbook companion models. The whole frequency-domain plan machinery
//! therefore transfers unchanged, and a run compiles into three phases,
//! mirroring `refgen_sparse::symbolic`:
//!
//! ```text
//!   phase 1 (per (system, Δt, method)): pattern + probe + compile
//!       affine pattern K₀ + s·K₁  ──s=γ──▶  companion matrix values
//!       one probe factorization at γ       ──▶  recorded pivot order
//!       one symbolic compilation           ──▶  FactorProgram
//!
//!   phase 2 (once per run): numeric factorization, in f64
//!       stamp values into program slots, replay the instruction stream
//!       (the matrix is step-invariant: this happens exactly once)
//!
//!   phase 3 (per step): history stamping + back-substitution, in f64
//!       waveform sources + companion history currents ──▶ RHS
//!       one real triangular solve through the compiled kernel
//!       state update (capacitor currents, previous solution)
//! ```
//!
//! Phases 2 and 3 run in `f64`. Every stamp of the affine pattern is real
//! (resistances, conductances, reactive values, controlled-source gains)
//! and `γ` is real, so `K₀ + γ·K₁` is a real matrix; the source drives and
//! history currents are real too, so a complex solve would only carry
//! imaginary parts that stay exactly zero. The replay and the solve are
//! [`FactorProgram`]'s own, generic over the element type, on the program
//! the probe compiled. On zero imaginary parts the real part of each
//! complex operation is the `f64` operation, so the real run reproduces
//! the real parts of a complex one. The DC operating point
//! ([`TransientPlan::initial_state`]) and the fresh-factorization fallback
//! stay on the complex [`SparseLu`] and convert their solutions once.
//!
//! Phase 3 performs **zero allocation** and **zero pivot searches** — the
//! same contract [`SweepPlan`](crate::SweepPlan) gives the unit-circle
//! samplers, witnessed by [`TransientStats`]: a healthy N-step run shows
//! `refactor_hits = 1` and `compiled_hits = N`.
//!
//! Companion formulas (node pair `p,m`, step `n → n+1`):
//!
//! * capacitor, BE: `i = (C/h)·v_{n+1} − (C/h)·v_n`; history current
//!   `(C/h)·v_n` enters node `p`, leaves node `m`.
//! * capacitor, TR: `i_{n+1} = (2C/h)(v_{n+1} − v_n) − i_n`; history
//!   current `(2C/h)·v_n + i_n`.
//! * inductor, BE: branch row `v_{n+1} − (L/h)·i_{n+1} = −(L/h)·i_n`.
//! * inductor, TR: branch row
//!   `v_{n+1} − (2L/h)·i_{n+1} = −v_n − (2L/h)·i_n`.
//! * V source: branch RHS is the waveform value at `t_{n+1}`; I source:
//!   the waveform value leaves `p` and enters `m` (matching
//!   [`MnaSystem::rhs`]).
//!
//! Because the step is uniform and the arithmetic is a fixed sequence of
//! f64 operations on one thread, a run's samples are a pure function of
//! `(plan, initial state)` — bit-identical across thread counts and
//! executors by construction.

use crate::error::MnaError;
use crate::sweep::{affine_pattern, compile_program, probe_order_at};
use crate::system::{MnaSystem, Scale};
use refgen_circuit::{ElementKind, Waveform};
use refgen_numeric::Complex;
use refgen_sparse::{FactorProgram, PivotOrder, ProgramScratch, SparseLu, Triplets};
use std::sync::Arc;

/// The implicit integration rule a [`TransientPlan`] discretizes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrationMethod {
    /// Backward Euler: L-stable, first order, damps everything.
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order, energy-preserving.
    Trapezoidal,
}

impl IntegrationMethod {
    /// The companion-point multiplier `γ` such that the companion matrix
    /// is `K₀ + γ·K₁` (see the [module docs](self)).
    pub fn gamma(self, dt: f64) -> f64 {
        match self {
            IntegrationMethod::BackwardEuler => 1.0 / dt,
            IntegrationMethod::Trapezoidal => 2.0 / dt,
        }
    }

    /// Asymptotic convergence order: the global error of a stable run
    /// shrinks as `O(h^order)` under step halving.
    pub fn order(self) -> u32 {
        match self {
            IntegrationMethod::BackwardEuler => 1,
            IntegrationMethod::Trapezoidal => 2,
        }
    }

    /// Short display label (`"BE"` / `"TR"`).
    pub fn label(self) -> &'static str {
        match self {
            IntegrationMethod::BackwardEuler => "BE",
            IntegrationMethod::Trapezoidal => "TR",
        }
    }
}

/// Counters a [`TransientScratch`] accumulates across steps — the proof
/// obligation that stepping stays on the compiled path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Time steps solved.
    pub steps: u64,
    /// Numeric factorizations that replayed a recorded pivot order. The
    /// companion matrix is step-invariant, so a healthy run pays exactly
    /// **one**, at the first step.
    pub refactor_hits: u64,
    /// Full Markowitz factorizations (no usable order, or the recorded
    /// order hit an exact zero pivot).
    pub fresh_factorizations: u64,
    /// Steps whose solve ran through the compiled
    /// [`FactorProgram`] — flat back-substitution, no allocation.
    pub compiled_hits: u64,
}

/// Integration state between steps: the solution vector at `t_n`, the
/// per-capacitor companion currents the trapezoidal rule carries, and the
/// priming flag (see [`TransientPlan::step`]).
#[derive(Clone, Debug)]
pub struct TransientState {
    x: Vec<f64>,
    cap_currents: Vec<f64>,
    primed: bool,
}

impl TransientState {
    /// The MNA solution vector at the state's time point (node voltages
    /// first, then branch currents — [`MnaSystem`]'s unknown order). It is
    /// real: the companion matrix, the source drives and the history
    /// currents all are (see the [module docs](self)).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Where the run's one numeric factorization lives.
#[derive(Debug, Default)]
enum StepFactor {
    /// Not factored yet (before the first step).
    #[default]
    Pending,
    /// In the program scratch (compiled replay — the expected path).
    Program,
    /// A fresh Markowitz factorization (fallback path).
    Fresh(SparseLu),
}

/// Per-run mutable state: reused solve buffers, the cached numeric
/// factorization, and [`TransientStats`] counters. Use a fresh scratch per
/// `(plan, run)` — the cached factorization belongs to the first plan
/// stepped with it (call [`TransientScratch::reset`] to re-arm).
#[derive(Debug, Default)]
pub struct TransientScratch {
    prog: ProgramScratch<f64>,
    triplets: Triplets,
    rhs: Vec<f64>,
    x_next: Vec<f64>,
    factored: StepFactor,
    stats: TransientStats,
}

impl TransientScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        TransientScratch::default()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> TransientStats {
        self.stats
    }

    /// Drops the cached factorization and counters (buffers are kept), so
    /// the scratch can serve a different plan.
    pub fn reset(&mut self) {
        self.factored = StepFactor::Pending;
        self.stats = TransientStats::default();
    }
}

/// A capacitor's companion stamp: its node rows and value.
#[derive(Clone, Copy, Debug)]
struct CompanionCap {
    rp: Option<usize>,
    rm: Option<usize>,
    farads: f64,
}

/// An inductor's companion stamp: its branch row, node rows, and value.
#[derive(Clone, Copy, Debug)]
struct CompanionInd {
    row: usize,
    rp: Option<usize>,
    rm: Option<usize>,
    henries: f64,
}

/// A compiled time-stepping plan for one `(MnaSystem, Δt, method)` — see
/// the [module docs](self) for the three-phase architecture.
#[derive(Clone, Debug)]
pub struct TransientPlan {
    dim: usize,
    dt: f64,
    method: IntegrationMethod,
    gamma: f64,
    pattern: Vec<(usize, usize, Complex, Complex)>,
    /// Precomputed companion matrix values `K₀ + γ·K₁`, aligned with
    /// `pattern` (real: every stamp of the pattern is).
    values: Vec<f64>,
    /// The pivot order recorded at `γ` and the kernel compiled from it
    /// (`None` when the companion matrix is singular).
    compiled: Option<(PivotOrder, Arc<FactorProgram>)>,
    caps: Vec<CompanionCap>,
    inds: Vec<CompanionInd>,
    /// Independent V sources: branch row + time-domain drive.
    vsrcs: Vec<(usize, Waveform)>,
    /// Independent I sources: node rows + time-domain drive.
    isrcs: Vec<(Option<usize>, Option<usize>, Waveform)>,
}

impl TransientPlan {
    /// Builds a plan: affine pattern at [`Scale::unit`], one probe
    /// factorization at the real companion point `γ`, and the program
    /// compiled from its order — by the process-wide symbolic memo
    /// ([`SYMBOLIC_MEMO_BYTES`](crate::SYMBOLIC_MEMO_BYTES)), so a pattern
    /// and order this process has planned twice before are not compiled
    /// again.
    /// Sources without an attached [`Waveform`] drive their AC amplitude as
    /// a constant.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidTimeStep`] unless `dt` is positive and finite.
    pub fn new(
        sys: &MnaSystem,
        dt: f64,
        method: IntegrationMethod,
    ) -> Result<TransientPlan, MnaError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(MnaError::InvalidTimeStep { dt });
        }
        let (dim, pattern) = affine_pattern(sys, Scale::unit());
        let gamma = method.gamma(dt);
        let values = companion_values(&pattern, gamma);
        let compiled = probe_order_at(dim, &pattern, Complex::real(gamma)).and_then(|order| {
            let program = compile_program(dim, &pattern, &order)?;
            Some((order, program))
        });

        let mut caps = Vec::new();
        let mut inds = Vec::new();
        let mut vsrcs = Vec::new();
        let mut isrcs = Vec::new();
        let circuit = sys.circuit();
        for el in circuit.elements() {
            let (p, m) = el.nodes;
            let (rp, rm) = (sys.node_row(p), sys.node_row(m));
            match &el.kind {
                ElementKind::Capacitor { farads } => {
                    caps.push(CompanionCap { rp, rm, farads: *farads });
                }
                ElementKind::Inductor { henries } => {
                    let row = sys
                        .branch_row(&el.name)
                        .ok_or_else(|| MnaError::NoSuchBranch { name: el.name.clone() })?;
                    inds.push(CompanionInd { row, rp, rm, henries: *henries });
                }
                ElementKind::VSource { ac } => {
                    let row = sys
                        .branch_row(&el.name)
                        .ok_or_else(|| MnaError::NoSuchBranch { name: el.name.clone() })?;
                    let wave =
                        circuit.waveform(&el.name).cloned().unwrap_or(Waveform::Dc { value: *ac });
                    vsrcs.push((row, wave));
                }
                ElementKind::ISource { ac } => {
                    let wave =
                        circuit.waveform(&el.name).cloned().unwrap_or(Waveform::Dc { value: *ac });
                    isrcs.push((rp, rm, wave));
                }
                _ => {}
            }
        }
        Ok(TransientPlan {
            dim,
            dt,
            method,
            gamma,
            pattern,
            values,
            compiled,
            caps,
            inds,
            vsrcs,
            isrcs,
        })
    }

    /// Re-plans the same system at a different step size, **sharing** the
    /// recorded pivot order and compiled program (symbolic analysis is
    /// value-independent; only the numeric `γ` changes). This is what
    /// makes a step-halving cross-check cost zero extra pivot searches and
    /// zero extra compilations.
    ///
    /// # Errors
    ///
    /// [`MnaError::InvalidTimeStep`] unless `dt` is positive and finite.
    pub fn with_dt(&self, dt: f64) -> Result<TransientPlan, MnaError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(MnaError::InvalidTimeStep { dt });
        }
        let gamma = self.method.gamma(dt);
        Ok(TransientPlan {
            dim: self.dim,
            dt,
            method: self.method,
            gamma,
            pattern: self.pattern.clone(),
            values: companion_values(&self.pattern, gamma),
            compiled: self.compiled.clone(),
            caps: self.caps.clone(),
            inds: self.inds.clone(),
            vsrcs: self.vsrcs.clone(),
            isrcs: self.isrcs.clone(),
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The fixed step size, seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The integration rule.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }

    /// The pivot order recorded by the probe at `γ` (`None` when the
    /// companion matrix is singular).
    pub fn order(&self) -> Option<&PivotOrder> {
        self.compiled.as_ref().map(|(order, _)| order)
    }

    /// The compiled symbolic kernel ([`with_dt`](Self::with_dt) shares one
    /// by reference — compare with [`std::ptr::eq`]).
    pub fn program(&self) -> Option<&FactorProgram> {
        self.compiled.as_ref().map(|(_, program)| &**program)
    }

    /// The initial condition at `t0`: a DC operating-point solve (`s = 0`)
    /// with every source at its waveform value at `t0`, zero capacitor
    /// currents. Falls back to the zero state when the DC matrix is
    /// singular (e.g. a node with no DC path).
    pub fn initial_state(&self, t0: f64) -> TransientState {
        let mut t = Triplets::new(self.dim);
        for &(r, c, k0, _) in &self.pattern {
            t.add(r, c, k0);
        }
        let mut rhs = vec![0.0; self.dim];
        self.stamp_sources(t0, &mut rhs);
        let x = match SparseLu::factor(&t) {
            Ok(lu) => real_solve(&lu, &rhs),
            Err(_) => vec![0.0; self.dim],
        };
        TransientState {
            x,
            cap_currents: vec![0.0; self.caps.len()],
            // Backward Euler carries no companion current, so it needs no
            // priming; the trapezoidal rule primes on its first step.
            primed: self.method == IntegrationMethod::BackwardEuler,
        }
    }

    /// Source drives at time `t`, accumulated into `rhs` with
    /// [`MnaSystem::rhs`]'s sign convention.
    fn stamp_sources(&self, t: f64, rhs: &mut [f64]) {
        for (row, wave) in &self.vsrcs {
            rhs[*row] += wave.eval(t);
        }
        for (rp, rm, wave) in &self.isrcs {
            let v = wave.eval(t);
            if let Some(r) = rp {
                rhs[*r] -= v;
            }
            if let Some(r) = rm {
                rhs[*r] += v;
            }
        }
    }

    /// Advances `state` from `t_next − dt` to `t_next`: stamp history and
    /// source RHS, solve through the cached factorization, update
    /// companion currents. The first step pays the run's one numeric
    /// factorization.
    ///
    /// A trapezoidal run **primes** its first step with two backward-Euler
    /// half-steps. The TR companion current `i₀` is inconsistent when a
    /// source jumps at `t₀` (an ideal pulse edge), which would pollute the
    /// whole run with an `O(h)` error; the classical fix costs nothing
    /// here because BE at `h/2` and TR at `h` share the companion point
    /// `γ = 2/h` — the primer replays the **same** factorization. The two
    /// half-steps have `O(h²)` local error, so second-order convergence is
    /// preserved (and [`TransientStats::compiled_hits`] reads `steps + 1`
    /// for a healthy TR run, `steps` for BE).
    ///
    /// # Errors
    ///
    /// [`MnaError::Singular`] when the companion matrix cannot be factored
    /// even by a fresh Markowitz pass.
    pub fn step(
        &self,
        t_next: f64,
        state: &mut TransientState,
        scratch: &mut TransientScratch,
    ) -> Result<(), MnaError> {
        if matches!(scratch.factored, StepFactor::Pending) {
            self.factor_into(scratch)?;
        }
        let trapezoidal = self.method == IntegrationMethod::Trapezoidal;
        if trapezoidal && !state.primed {
            // Two BE half-steps through the shared γ = 2/h factorization.
            self.solve_one(t_next - 0.5 * self.dt, false, state, scratch);
            self.solve_one(t_next, false, state, scratch);
            // Seed the TR companion currents from the last half-step:
            // i₁ = (2C/h)·(v₁ − v_½) is the BE capacitor current at t₁.
            for (k, cap) in self.caps.iter().enumerate() {
                let geq = self.gamma * cap.farads;
                let dv = vpm(&state.x, cap.rp, cap.rm) - vpm(&scratch.x_next, cap.rp, cap.rm);
                state.cap_currents[k] = geq * dv;
            }
            state.primed = true;
        } else {
            self.solve_one(t_next, trapezoidal, state, scratch);
            // After the swap, `scratch.x_next` holds the previous solution.
            for (k, cap) in self.caps.iter().enumerate() {
                let geq = self.gamma * cap.farads;
                let dv = vpm(&state.x, cap.rp, cap.rm) - vpm(&scratch.x_next, cap.rp, cap.rm);
                let prev = if trapezoidal { state.cap_currents[k] } else { 0.0 };
                state.cap_currents[k] = geq * dv - prev;
            }
        }
        scratch.stats.steps += 1;
        Ok(())
    }

    /// One linear solve: stamp sources at `t_eval` plus BE or TR history
    /// from `state`, solve through the cached factorization, and swap the
    /// new solution into `state.x` (the previous one lands in
    /// `scratch.x_next`).
    fn solve_one(
        &self,
        t_eval: f64,
        trapezoidal_hist: bool,
        state: &mut TransientState,
        scratch: &mut TransientScratch,
    ) {
        let gamma = self.gamma;
        scratch.rhs.clear();
        scratch.rhs.resize(self.dim, 0.0);
        self.stamp_sources(t_eval, &mut scratch.rhs);
        for (k, cap) in self.caps.iter().enumerate() {
            let geq = gamma * cap.farads;
            let mut hist = vpm(&state.x, cap.rp, cap.rm) * geq;
            if trapezoidal_hist {
                hist += state.cap_currents[k];
            }
            if let Some(r) = cap.rp {
                scratch.rhs[r] += hist;
            }
            if let Some(r) = cap.rm {
                scratch.rhs[r] -= hist;
            }
        }
        for ind in &self.inds {
            let i_n = state.x[ind.row];
            let mut hist = -(i_n * (gamma * ind.henries));
            if trapezoidal_hist {
                hist -= vpm(&state.x, ind.rp, ind.rm);
            }
            scratch.rhs[ind.row] += hist;
        }

        let TransientScratch { prog, rhs, x_next, factored, stats, .. } = scratch;
        match factored {
            StepFactor::Program => {
                let program = self.program().expect("program path implies a program");
                program.solve_into(prog, rhs, x_next);
                stats.compiled_hits += 1;
            }
            StepFactor::Fresh(lu) => {
                *x_next = real_solve(lu, rhs);
            }
            StepFactor::Pending => unreachable!("step() factors before solving"),
        }
        std::mem::swap(&mut state.x, &mut scratch.x_next);
    }

    /// The run's one numeric factorization: compiled replay, then fresh
    /// Markowitz.
    fn factor_into(&self, scratch: &mut TransientScratch) -> Result<(), MnaError> {
        if let Some(program) = self.program() {
            if program.refactor_values(self.values.iter().copied(), &mut scratch.prog).is_ok() {
                scratch.stats.refactor_hits += 1;
                scratch.factored = StepFactor::Program;
                return Ok(());
            }
        }
        scratch.triplets.reset(self.dim);
        for (&(r, c, _, _), &v) in self.pattern.iter().zip(&self.values) {
            scratch.triplets.add(r, c, Complex::real(v));
        }
        scratch.stats.fresh_factorizations += 1;
        let lu = SparseLu::factor(&scratch.triplets).map_err(|e| {
            MnaError::from_factor(
                e,
                format!("companion point γ = {:e} ({})", self.gamma, self.method.label()),
            )
        })?;
        scratch.factored = StepFactor::Fresh(lu);
        Ok(())
    }
}

/// `K₀ + γ·K₁` for every pattern entry, in real arithmetic: every stamp
/// source is real (see the [module docs](self)).
fn companion_values(pattern: &[(usize, usize, Complex, Complex)], gamma: f64) -> Vec<f64> {
    pattern
        .iter()
        .map(|&(_, _, k0, k1)| {
            debug_assert!(k0.im == 0.0 && k1.im == 0.0, "transient stamps are real");
            k0.re + k1.re * gamma
        })
        .collect()
}

/// Solves a real system through a complex factorization (the DC operating
/// point and the fresh-factorization fallback), converting once each way.
fn real_solve(lu: &SparseLu, rhs: &[f64]) -> Vec<f64> {
    let b: Vec<Complex> = rhs.iter().map(|&v| Complex::real(v)).collect();
    lu.solve(&b).into_iter().map(|z| z.re).collect()
}

/// Branch voltage `v(rp) − v(rm)` with grounded terminals reading zero.
fn vpm(x: &[f64], rp: Option<usize>, rm: Option<usize>) -> f64 {
    let v = |r: Option<usize>| r.map_or(0.0, |i| x[i]);
    v(rp) - v(rm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refgen_circuit::library::rc_ladder;
    use refgen_circuit::Circuit;

    fn step_source() -> Waveform {
        Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: f64::INFINITY,
            period: f64::INFINITY,
        }
    }

    fn rc_with_step() -> (Circuit, f64) {
        let mut c = rc_ladder(1, 1e3, 1e-9);
        c.set_waveform("VIN", step_source()).unwrap();
        (c, 1e3 * 1e-9)
    }

    fn run(
        plan: &TransientPlan,
        sys: &MnaSystem,
        node: &str,
        steps: usize,
    ) -> (Vec<f64>, TransientStats) {
        let row = sys.node_row(sys.circuit().find_node(node).unwrap()).unwrap();
        let mut state = plan.initial_state(0.0);
        let mut scratch = TransientScratch::new();
        let mut out = vec![state.solution()[row]];
        for k in 1..=steps {
            plan.step(plan.dt() * k as f64, &mut state, &mut scratch).unwrap();
            out.push(state.solution()[row]);
        }
        (out, scratch.stats())
    }

    #[test]
    fn rc_step_response_tracks_analytic_curve() {
        let (c, tau) = rc_with_step();
        let sys = MnaSystem::new(&c).unwrap();
        for (method, tol) in
            [(IntegrationMethod::BackwardEuler, 2e-2), (IntegrationMethod::Trapezoidal, 1e-4)]
        {
            let dt = tau / 50.0;
            let plan = TransientPlan::new(&sys, dt, method).unwrap();
            let (v, _) = run(&plan, &sys, "out", 150);
            for (k, &vk) in v.iter().enumerate() {
                let t = dt * k as f64;
                let exact = 1.0 - (-t / tau).exp();
                assert!(
                    (vk - exact).abs() < tol,
                    "{} at step {k}: {vk} vs {exact}",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn rl_branch_companion_tracks_analytic_current() {
        // Series V–R–L: i(t) = (V/R)(1 − e^{−tR/L}) after a unit step.
        let mut c = Circuit::new();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "mid", 1e3).unwrap();
        c.add_inductor("L1", "mid", "0", 1e-3).unwrap();
        c.set_waveform("VIN", step_source()).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let tau = 1e-3 / 1e3;
        let dt = tau / 100.0;
        let plan = TransientPlan::new(&sys, dt, IntegrationMethod::Trapezoidal).unwrap();
        let row = sys.branch_row("L1").unwrap();
        let mut state = plan.initial_state(0.0);
        let mut scratch = TransientScratch::new();
        for k in 1..=300 {
            plan.step(dt * k as f64, &mut state, &mut scratch).unwrap();
            let t = dt * k as f64;
            let exact = 1e-3 * (1.0 - (-t / tau).exp());
            assert!(
                (state.solution()[row] - exact).abs() < 1e-6,
                "step {k}: {} vs {exact}",
                state.solution()[row]
            );
        }
    }

    /// A recorded pivot that is exactly zero at the plan's `γ` sends the run
    /// to a fresh Markowitz factorization, which then serves every step.
    /// Node `n` stamps `γ·C − gm` on its diagonal (a capacitor and a
    /// self-controlled VCCS), and the probe pivots on it right after the
    /// source rows, before any update reaches it. At `h = 0.5` (BE,
    /// `γ = 2`) that pivot is `2·4 − 16 = −8`; [`TransientPlan::with_dt`]
    /// at `h = 0.25` keeps the order and meets `4·4 − 16 = 0`. The
    /// fallback's waveforms equal those of a plan probed at `h = 0.25`
    /// directly, bit for bit.
    #[test]
    fn zero_recorded_pivot_falls_back_to_a_fresh_factorization() {
        let mut c = Circuit::new();
        c.add_capacitor("C1", "n", "0", 4.0).unwrap();
        c.add_vccs("GS", "n", "0", "n", "0", -16.0).unwrap();
        c.add_vsource("VIN", "in", "0", 1.0).unwrap();
        c.add_resistor("R1", "in", "m", 1.0).unwrap();
        c.add_capacitor("C2", "m", "0", 1.0).unwrap();
        c.add_resistor("R2", "m", "k", 1.0).unwrap();
        c.add_capacitor("C3", "k", "0", 1.0).unwrap();
        c.add_vccs("GA", "n", "0", "m", "0", 1.0).unwrap();
        c.add_vccs("GB", "m", "0", "n", "0", 1.0).unwrap();
        c.set_waveform("VIN", step_source()).unwrap();
        let sys = MnaSystem::new(&c).unwrap();
        let waves = |plan: &TransientPlan| {
            let mut state = plan.initial_state(0.0);
            let mut scratch = TransientScratch::new();
            let mut bits = Vec::new();
            for k in 1..=12 {
                plan.step(plan.dt() * k as f64, &mut state, &mut scratch).unwrap();
                bits.extend(state.solution().iter().map(|v| v.to_bits()));
            }
            (bits, scratch.stats())
        };
        let coarse = TransientPlan::new(&sys, 0.5, IntegrationMethod::BackwardEuler).unwrap();
        assert_eq!(waves(&coarse).1.fresh_factorizations, 0, "γ = 2 replays the recorded order");
        let (fallback, stats) = waves(&coarse.with_dt(0.25).unwrap());
        assert_eq!(stats.fresh_factorizations, 1);
        assert_eq!((stats.refactor_hits, stats.compiled_hits, stats.steps), (0, 0, 12));
        let (direct, stats) =
            waves(&TransientPlan::new(&sys, 0.25, IntegrationMethod::BackwardEuler).unwrap());
        assert_eq!((stats.fresh_factorizations, stats.compiled_hits), (0, 12));
        assert_eq!(fallback, direct);
    }

    #[test]
    fn stepping_is_one_refactor_then_compiled_solves() {
        let (c, tau) = rc_with_step();
        let sys = MnaSystem::new(&c).unwrap();
        let plan = TransientPlan::new(&sys, tau / 10.0, IntegrationMethod::Trapezoidal).unwrap();
        assert!(plan.order().is_some(), "probe at γ records an order");
        assert!(plan.program().is_some(), "order compiles");
        let (_, stats) = run(&plan, &sys, "out", 64);
        assert_eq!(stats.steps, 64);
        assert_eq!(stats.refactor_hits, 1, "the companion matrix factors once per run");
        // 64 steps + 1 extra solve from the BE half-step primer, all through
        // the compiled kernel.
        assert_eq!(stats.compiled_hits, 65, "every solve replays the compiled kernel");
        assert_eq!(stats.fresh_factorizations, 0);

        let be = TransientPlan::new(&sys, tau / 10.0, IntegrationMethod::BackwardEuler).unwrap();
        let (_, stats) = run(&be, &sys, "out", 64);
        assert_eq!(stats.steps, 64);
        assert_eq!(stats.refactor_hits, 1);
        assert_eq!(stats.compiled_hits, 64, "BE needs no primer: one solve per step");
    }

    #[test]
    fn with_dt_shares_order_and_program() {
        let (c, tau) = rc_with_step();
        let sys = MnaSystem::new(&c).unwrap();
        let plan = TransientPlan::new(&sys, tau / 10.0, IntegrationMethod::BackwardEuler).unwrap();
        let halved = plan.with_dt(tau / 20.0).unwrap();
        assert_eq!(halved.dt(), tau / 20.0);
        assert_eq!(halved.order(), plan.order());
        assert!(
            std::ptr::eq(halved.program().unwrap(), plan.program().unwrap()),
            "step halving shares the compiled program by reference"
        );
        // The halved plan still steps correctly through the shared kernel.
        let (v, stats) = run(&halved, &sys, "out", 40);
        assert_eq!(stats.refactor_hits, 1);
        assert!(v.last().unwrap() > &0.8);
    }

    #[test]
    fn constant_drive_starts_at_dc_steady_state() {
        // No waveform attached: the AC amplitude drives as a constant, so
        // the initial DC solve already is the steady state and stepping
        // holds it.
        let c = rc_ladder(3, 1e3, 1e-9);
        let sys = MnaSystem::new(&c).unwrap();
        let plan = TransientPlan::new(&sys, 1e-7, IntegrationMethod::Trapezoidal).unwrap();
        let (v, _) = run(&plan, &sys, "out", 20);
        for (k, &vk) in v.iter().enumerate() {
            assert!((vk - 1.0).abs() < 1e-9, "step {k}: {vk}");
        }
    }

    #[test]
    fn invalid_dt_is_typed_error() {
        let sys = MnaSystem::new(&rc_ladder(1, 1e3, 1e-9)).unwrap();
        for dt in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            let err = TransientPlan::new(&sys, dt, IntegrationMethod::BackwardEuler).unwrap_err();
            assert!(matches!(err, MnaError::InvalidTimeStep { .. }), "dt = {dt}: {err:?}");
        }
        let plan = TransientPlan::new(&sys, 1e-6, IntegrationMethod::BackwardEuler).unwrap();
        assert!(matches!(plan.with_dt(0.0), Err(MnaError::InvalidTimeStep { .. })));
    }

    #[test]
    fn convergence_order_under_step_halving() {
        // Observed order from errors at h, h/2 against the analytic RC
        // step response: BE ≈ 1, TR ≈ 2.
        let (c, tau) = rc_with_step();
        let sys = MnaSystem::new(&c).unwrap();
        let err_at = |method: IntegrationMethod, dt: f64| -> f64 {
            let plan = TransientPlan::new(&sys, dt, method).unwrap();
            let steps = (3.0 * tau / dt).round() as usize;
            let (v, _) = run(&plan, &sys, "out", steps);
            v.iter()
                .enumerate()
                .map(|(k, &vk)| (vk - (1.0 - (-(dt * k as f64) / tau).exp())).abs())
                .fold(0.0f64, f64::max)
        };
        for (method, expect) in
            [(IntegrationMethod::BackwardEuler, 1.0), (IntegrationMethod::Trapezoidal, 2.0)]
        {
            let h = tau / 20.0;
            let e1 = err_at(method, h);
            let e2 = err_at(method, h / 2.0);
            let observed = (e1 / e2).log2();
            assert!(
                observed > expect - 0.15,
                "{}: observed order {observed:.3}, expected ≈ {expect}",
                method.label()
            );
        }
    }
}
