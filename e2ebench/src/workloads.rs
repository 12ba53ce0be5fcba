//! The four workloads and their correctness oracles.
//!
//! Every input is SPICE netlist text made from the seed, so each operation
//! starts where a user starts: at the parser. Each operation's output is
//! compared bit for bit with the output the same input gave during set-up
//! (the library promises bit-identical results for a fixed input); after
//! the timed loop `verify` holds those reference outputs against oracles
//! that share no code with the path under test.
//!
//! | workload    | operation                                   | stresses                                   |
//! |-------------|---------------------------------------------|--------------------------------------------|
//! | `session`   | one µA741 `Session::solve` (≈3 ms)          | per-window planning, interpolation control |
//! | `fleet`     | one 64-variant µA741 `solve_all` (≈75 ms)   | plan sharing, variant lanes, worker pool   |
//! | `mesh`      | one 1024-node mesh AC sweep (≈300 ms)       | pivot ordering of a large pattern, replay  |
//! | `transient` | one 1 000-step µA741 step response (≈1.4 ms)| compiled replay per time step              |

use crate::trace::{replay_session, OpTrace};
use refgen::circuit::library::{grid_rc_mesh, ua741};
use refgen::circuit::{
    parse_netlist, to_spice, Circuit, Netlist, Perturbation, VariantSet, Waveform,
};
use refgen::core::{
    ac_sweep_with_config, validate_against_ac, AdaptiveInterpolator, BatchRun, ExecutorKind,
    NetworkFunction, NullObserver, RefgenConfig, SamplingRuntime, Session, Solution, Solver,
    TransientAnalysis, TransientResult,
};
use refgen::mna::{
    log_space, AcAnalysis, AcPoint, MnaSystem, PlanCache, Scale, SweepPlan, SweepScratch,
    TransferSpec, TransientPlan, TransientScratch,
};
use refgen::numeric::{Complex, ExtPoly};
use std::hint::black_box;

/// One benchmark workload, built from a seed by [`build`].
pub trait Workload {
    /// Runs operation number `op` on input `op % inputs`; `Err` when it
    /// fails or its output differs from the reference output.
    fn op(&self, op: usize) -> Result<(), String>;
    /// As [`Workload::op`], through the outside-in layer trace.
    fn traced_op(&self, op: usize, t: &mut OpTrace) -> Result<(), String>;
    /// Checks the reference outputs against independent oracles.
    fn verify(&self) -> Result<(), String>;
}

/// Makes the inputs of workload `name` from `seed` and computes the
/// reference output of each (which also warms every cache and lazy
/// initialisation the timed loop would otherwise pay for).
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "session" => Box::new(SessionStream::new(seed)?),
        "fleet" => Box::new(Fleet::new(seed)?),
        "mesh" => Box::new(MeshSweep::new(seed)?),
        "transient" => Box::new(StepResponse::new(seed)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

/// Relative tolerance on every element value of the seeded µA741 variants.
const TOLERANCE: f64 = 0.05;

/// Largest Bode deviation from the AC simulator a recovered network
/// function may show (the solver targets 6 significant digits).
const BODE_MAG_DB: f64 = 1e-4;
const BODE_PHASE_DEG: f64 = 1e-3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// SplitMix64 of `seed` and `stream`: independent sub-seeds from one seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn variant_set(count: usize, seed: u64) -> VariantSet {
    VariantSet::new(Perturbation::all_relative(TOLERANCE), count).seed(seed)
}

/// Netlist text of `circuit` with the analysis `cards` before its `.end`.
fn netlist_text(circuit: &Circuit, cards: &str) -> String {
    let spice = to_spice(circuit);
    let body = spice.strip_suffix(".end\n").unwrap_or(&spice);
    format!("{body}{cards}.end\n")
}

fn parse(text: &str) -> Result<Netlist, String> {
    parse_netlist(text).map_err(err)
}

fn tf_spec(netlist: &Netlist) -> Result<TransferSpec, String> {
    netlist.analysis.tf().map(TransferSpec::from).ok_or_else(|| "no .TF card".to_string())
}

fn push_poly_bits(p: &ExtPoly, out: &mut Vec<u64>) {
    for c in p.coeffs() {
        let m = c.mantissa();
        out.extend([m.re.to_bits(), m.im.to_bits(), c.exponent() as u64]);
    }
}

/// The exact bit pattern of a network function's coefficients.
fn nf_bits(nf: &NetworkFunction) -> Vec<u64> {
    let mut out = Vec::new();
    push_poly_bits(&nf.numerator, &mut out);
    out.push(u64::MAX);
    push_poly_bits(&nf.denominator, &mut out);
    out
}

fn same(bits: &[u64], reference: &[u64]) -> Result<(), String> {
    if bits == reference {
        Ok(())
    } else {
        Err("output differs from the reference output of the same input".to_string())
    }
}

fn check_bode(nf: &NetworkFunction, circuit: &Circuit, spec: &TransferSpec) -> Result<(), String> {
    let rep = validate_against_ac(nf, circuit, spec, &log_space(1.0, 1e9, 19)).map_err(err)?;
    if rep.matches_within(BODE_MAG_DB, BODE_PHASE_DEG) {
        Ok(())
    } else {
        Err(format!(
            "Bode deviation {:.2e} dB / {:.2e} deg from the AC simulator",
            rep.max_mag_err_db, rep.max_phase_err_deg
        ))
    }
}

/// µA741 session stream: one operation is one user session — parse a
/// netlist with a `.TF` card and recover the full network function under
/// the default configuration. The stream cycles through
/// [`SESSION_INPUTS`] seeded variants: one topology, different values.
struct SessionStream {
    texts: Vec<String>,
    refs: Vec<NetworkFunction>,
    bits: Vec<Vec<u64>>,
    config: RefgenConfig,
}

const SESSION_INPUTS: usize = 16;

fn solve_session(text: &str, config: RefgenConfig) -> Result<Solution, String> {
    let netlist = parse(text)?;
    Session::for_circuit(&netlist.circuit)
        .analysis(&netlist.analysis)
        .config(config)
        .solve()
        .map_err(err)
}

impl SessionStream {
    fn new(seed: u64) -> Result<Self, String> {
        let config = RefgenConfig::default();
        let circuits =
            variant_set(SESSION_INPUTS, sub_seed(seed, 1)).generate(&ua741()).map_err(err)?;
        let texts: Vec<String> =
            circuits.iter().map(|c| netlist_text(c, ".tf V(out) VIN\n")).collect();
        let refs = texts
            .iter()
            .map(|t| solve_session(t, config).map(|s| s.network))
            .collect::<Result<Vec<_>, _>>()?;
        let bits = refs.iter().map(nf_bits).collect();
        Ok(SessionStream { texts, refs, bits, config })
    }
}

impl Workload for SessionStream {
    fn op(&self, op: usize) -> Result<(), String> {
        let k = op % self.texts.len();
        same(&nf_bits(&solve_session(&self.texts[k], self.config)?.network), &self.bits[k])
    }

    fn traced_op(&self, op: usize, t: &mut OpTrace) -> Result<(), String> {
        let k = op % self.texts.len();
        let netlist = t.span(|t| &mut t.front_end, || parse(&self.texts[k]))?;
        let spec = tf_spec(&netlist)?;
        // What `Session::solve` runs, with the runtime held here so its
        // plan-cache counters can be read.
        let runtime = SamplingRuntime::new(&self.config);
        let solution = t
            .span(
                |t| &mut t.engine,
                || {
                    AdaptiveInterpolator::new(self.config).solve_with_runtime(
                        &netlist.circuit,
                        &spec,
                        &mut NullObserver,
                        &runtime,
                    )
                },
            )
            .map_err(err)?;
        t.count_runtime(&runtime);
        t.count_solution(&solution);
        replay_session(&netlist.circuit, &spec, &self.config, &solution, &PlanCache::new(), t)?;
        same(&nf_bits(&solution.network), &self.bits[k])
    }

    fn verify(&self) -> Result<(), String> {
        for (k, (text, nf)) in self.texts.iter().zip(&self.refs).enumerate() {
            let netlist = parse(text)?;
            check_bode(nf, &netlist.circuit, &tf_spec(&netlist)?)
                .map_err(|e| format!("session input {k}: {e}"))?;
        }
        Ok(())
    }
}

/// µA741 Monte-Carlo fleet: one operation is one batch session over
/// [`FLEET_VARIANTS`] seeded variants of a parsed base netlist on the
/// persistent worker pool (one worker: on a shared two-vCPU machine a
/// second thread measures the neighbours more than the library).
/// Operations alternate between [`FLEETS`] seeds.
#[derive(Clone)]
struct Fleet {
    text: String,
    seeds: Vec<u64>,
    bits: Vec<Vec<u64>>,
    config: RefgenConfig,
}

const FLEET_VARIANTS: usize = 64;
const FLEETS: usize = 2;

fn fleet_bits(run: &BatchRun) -> Result<Vec<u64>, String> {
    let solutions = run.solutions();
    if solutions.len() != FLEET_VARIANTS || !run.report.failed_variants.is_empty() {
        return Err(format!("{} of {FLEET_VARIANTS} variants solved", solutions.len()));
    }
    Ok(solutions.iter().flat_map(|s| nf_bits(&s.network)).collect())
}

impl Fleet {
    fn new(seed: u64) -> Result<Self, String> {
        let config = RefgenConfig::builder().executor(ExecutorKind::Pool).build();
        let text = netlist_text(&ua741(), ".tf V(out) VIN\n");
        let seeds: Vec<u64> = (0..FLEETS as u64).map(|i| sub_seed(seed, 10 + i)).collect();
        let mut fleet = Fleet { text, seeds, bits: Vec::new(), config };
        fleet.bits = (0..FLEETS)
            .map(|k| fleet.solve(k).and_then(|run| fleet_bits(&run)))
            .collect::<Result<_, _>>()?;
        Ok(fleet)
    }

    fn solve(&self, k: usize) -> Result<BatchRun, String> {
        let netlist = parse(&self.text)?;
        Session::for_circuit(&netlist.circuit)
            .analysis(&netlist.analysis)
            .config(self.config)
            .variants(variant_set(FLEET_VARIANTS, self.seeds[k]))
            .solve_all()
            .map_err(err)
    }
}

impl Workload for Fleet {
    fn op(&self, op: usize) -> Result<(), String> {
        let k = op % FLEETS;
        same(&fleet_bits(&self.solve(k)?)?, &self.bits[k])
    }

    fn traced_op(&self, op: usize, t: &mut OpTrace) -> Result<(), String> {
        let k = op % FLEETS;
        let (netlist, circuits) = t.span(
            |t| &mut t.front_end,
            || -> Result<_, String> {
                let netlist = parse(&self.text)?;
                let circuits = variant_set(FLEET_VARIANTS, self.seeds[k])
                    .generate(&netlist.circuit)
                    .map_err(err)?;
                Ok((netlist, circuits))
            },
        )?;
        let spec = tf_spec(&netlist)?;
        let run = t
            .span(
                |t| &mut t.engine,
                || {
                    Session::for_circuit(&netlist.circuit)
                        .spec(spec.clone())
                        .config(self.config)
                        .variant_circuits(&circuits)
                        .solve_all()
                },
            )
            .map_err(err)?;
        t.pivot_searches += run.report.pivot_searches as u64;
        t.cache_hits += run.report.shared_plan_hits as u64;
        t.programs_compiled += run.report.programs_compiled as u64;
        let cache = PlanCache::new();
        for (circuit, solution) in circuits.iter().zip(run.solutions()) {
            t.count_solution(solution);
            replay_session(circuit, &spec, &self.config, solution, &cache, t)?;
        }
        same(&fleet_bits(&run)?, &self.bits[k])
    }

    fn verify(&self) -> Result<(), String> {
        // Output is independent of threads, executor and lane width, so a
        // two-thread scoped fleet with one lane must reproduce the
        // reference exactly.
        let other = Fleet {
            config: RefgenConfig::builder()
                .executor(ExecutorKind::Scoped)
                .threads(2)
                .lane_width(1)
                .build(),
            ..self.clone()
        };
        let run = other.solve(0)?;
        same(&fleet_bits(&run)?, &self.bits[0])
            .map_err(|e| format!("scoped two-thread fleet: {e}"))?;
        let base = parse(&self.text)?;
        let spec = tf_spec(&base)?;
        let circuits =
            variant_set(FLEET_VARIANTS, self.seeds[0]).generate(&base.circuit).map_err(err)?;
        for (v, (circuit, solution)) in circuits.iter().zip(run.solutions()).enumerate() {
            if run.report.variant_points[v] != solution.total_points() {
                return Err(format!("fleet variant {v}: point accounting mismatch"));
            }
            check_bode(&solution.network, circuit, &spec)
                .map_err(|e| format!("fleet variant {v}: {e}"))?;
        }
        Ok(())
    }
}

/// 1024-node RC mesh AC sweep: one operation parses a 32×32 grid netlist
/// with `.AC` and `.TF` cards and sweeps its 95 frequencies on the default
/// sweep path. Operations alternate between [`MESHES`] seeded meshes: one
/// grid, different values.
struct MeshSweep {
    texts: Vec<String>,
    refs: Vec<Vec<AcPoint>>,
    bits: Vec<Vec<u64>>,
    config: RefgenConfig,
}

const MESH_SIDE: usize = 32;
const MESHES: usize = 2;
/// Largest relative deviation of a swept point from a fresh
/// per-frequency LU solve.
const MESH_REL_TOL: f64 = 1e-9;

fn sweep_bits(points: &[AcPoint]) -> Vec<u64> {
    points
        .iter()
        .flat_map(|p| [p.freq_hz.to_bits(), p.response.re.to_bits(), p.response.im.to_bits()])
        .collect()
}

fn ac_freqs(netlist: &Netlist) -> Result<Vec<f64>, String> {
    Ok(netlist.analysis.ac().ok_or("no .AC card")?.frequencies())
}

impl MeshSweep {
    fn new(seed: u64) -> Result<Self, String> {
        let config = RefgenConfig::default();
        let texts: Vec<String> = (0..MESHES as u64)
            .map(|i| {
                let mesh = grid_rc_mesh(MESH_SIDE, MESH_SIDE, sub_seed(seed, 20 + i));
                netlist_text(&mesh, ".ac dec 64 1meg 30meg\n.tf V(out) VIN\n")
            })
            .collect();
        let refs =
            texts.iter().map(|text| Self::sweep(text, &config)).collect::<Result<Vec<_>, _>>()?;
        let bits = refs.iter().map(|r| sweep_bits(r)).collect();
        Ok(MeshSweep { texts, refs, bits, config })
    }

    fn sweep(text: &str, config: &RefgenConfig) -> Result<Vec<AcPoint>, String> {
        let netlist = parse(text)?;
        ac_sweep_with_config(&netlist.circuit, &tf_spec(&netlist)?, &ac_freqs(&netlist)?, config)
            .map_err(err)
    }
}

impl Workload for MeshSweep {
    fn op(&self, op: usize) -> Result<(), String> {
        let k = op % MESHES;
        same(&sweep_bits(&Self::sweep(&self.texts[k], &self.config)?), &self.bits[k])
    }

    fn traced_op(&self, op: usize, t: &mut OpTrace) -> Result<(), String> {
        let k = op % MESHES;
        let netlist = t.span(|t| &mut t.front_end, || parse(&self.texts[k]))?;
        let spec = tf_spec(&netlist)?;
        let freqs = ac_freqs(&netlist)?;
        let points = t
            .span(
                |t| &mut t.engine,
                || ac_sweep_with_config(&netlist.circuit, &spec, &freqs, &self.config),
            )
            .map_err(err)?;
        // The sweep reports no counters, so they come from the replay of
        // its layers: one plan, then one compiled replay per frequency.
        let sys = t.span(|t| &mut t.mna, || MnaSystem::new(&netlist.circuit)).map_err(err)?;
        let cache = PlanCache::new();
        let plan = t
            .span(
                |t| &mut t.plan,
                || {
                    SweepPlan::new_cached_with_ordering(
                        &sys,
                        Scale::unit(),
                        &spec,
                        &cache,
                        self.config.ordering,
                    )
                },
            )
            .map_err(err)?;
        let mut scratch = SweepScratch::adopting();
        t.span(
            |t| &mut t.replay,
            || -> Result<(), String> {
                for &f in &freqs {
                    let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                    black_box(plan.eval_at(s, &mut scratch).map_err(err)?);
                }
                Ok(())
            },
        )?;
        let stats = scratch.stats();
        let solved = freqs.len() as u64;
        t.plans_built += 1;
        t.pivot_searches += cache.pivot_searches() as u64;
        t.cache_hits += cache.shared_hits() as u64;
        t.programs_compiled += cache.programs_compiled() as u64;
        t.solves += solved;
        t.compiled_hits += stats.compiled_hits;
        t.kernel_ops += plan.program().map_or(0, |p| p.op_count() as u64) * solved;
        t.kernel_solves += solved;
        same(&sweep_bits(&points), &self.bits[k])
    }

    fn verify(&self) -> Result<(), String> {
        // A fresh Markowitz LU per frequency (no plan, no recorded order,
        // no compiled program) at four points of the first mesh.
        let netlist = parse(&self.texts[0])?;
        let ac = AcAnalysis::new(&netlist.circuit, tf_spec(&netlist)?).map_err(err)?;
        let points = &self.refs[0];
        let n = points.len();
        for i in [0, n / 3, 2 * n / 3, n - 1] {
            let exact = ac.at(points[i].freq_hz).map_err(err)?.response;
            let rel = (points[i].response - exact).abs() / exact.abs();
            if rel.is_nan() || rel > MESH_REL_TOL {
                return Err(format!(
                    "mesh sweep at {:e} Hz deviates {rel:.2e} from a fresh LU solve",
                    points[i].freq_hz
                ));
            }
        }
        Ok(())
    }
}

/// µA741 step response: one operation parses a netlist whose `VIN` carries
/// a [`STEP_V`] step and whose `.TRAN` card asks for 1 000 trapezoidal
/// steps of 300 µs — 0.3 s, about 13 time constants of the dominant pole —
/// and runs the transient analysis. Operations cycle through
/// [`TRAN_INPUTS`] seeded variants.
struct StepResponse {
    texts: Vec<String>,
    bits: Vec<Vec<u64>>,
}

const TRAN_INPUTS: usize = 4;
const STEP_V: f64 = 1e-3;
/// Settled output against `H(0)·STEP_V`, relative.
const TRAN_FINAL_TOL: f64 = 1e-4;
/// Step-halving deviation against the settled output, relative.
const TRAN_RICHARDSON_TOL: f64 = 1e-4;

fn run_transient(netlist: &Netlist, cross_check: bool) -> Result<TransientResult, String> {
    let card = netlist.analysis.tran().ok_or("no .TRAN card")?.clone();
    Session::for_circuit(&netlist.circuit)
        .transient(TransientAnalysis::new(card).cross_check(cross_check))
        .map_err(err)
}

fn wave_bits(result: &TransientResult) -> Result<Vec<u64>, String> {
    Ok(result.node("out").ok_or("no node `out`")?.iter().map(|v| v.to_bits()).collect())
}

impl StepResponse {
    fn new(seed: u64) -> Result<Self, String> {
        let mut texts = Vec::with_capacity(TRAN_INPUTS);
        for mut circuit in
            variant_set(TRAN_INPUTS, sub_seed(seed, 30)).generate(&ua741()).map_err(err)?
        {
            let step = Waveform::Pulse {
                v1: 0.0,
                v2: STEP_V,
                delay: 0.0,
                rise: 0.0,
                fall: 0.0,
                width: f64::INFINITY,
                period: f64::INFINITY,
            };
            circuit.set_waveform("VIN", step).map_err(err)?;
            texts.push(netlist_text(&circuit, ".tran 300u 300m\n"));
        }
        let bits = texts
            .iter()
            .map(|text| wave_bits(&run_transient(&parse(text)?, false)?))
            .collect::<Result<_, _>>()?;
        Ok(StepResponse { texts, bits })
    }
}

impl Workload for StepResponse {
    fn op(&self, op: usize) -> Result<(), String> {
        let k = op % self.texts.len();
        same(&wave_bits(&run_transient(&parse(&self.texts[k])?, false)?)?, &self.bits[k])
    }

    fn traced_op(&self, op: usize, t: &mut OpTrace) -> Result<(), String> {
        let k = op % self.texts.len();
        let netlist = t.span(|t| &mut t.front_end, || parse(&self.texts[k]))?;
        let result = t.span(|t| &mut t.engine, || run_transient(&netlist, false))?;
        let card = netlist.analysis.tran().ok_or("no .TRAN card")?;
        let sys = t.span(|t| &mut t.mna, || MnaSystem::new(&netlist.circuit)).map_err(err)?;
        let plan = t
            .span(|t| &mut t.plan, || TransientPlan::new(&sys, card.tstep, result.method))
            .map_err(err)?;
        let times = card.times();
        let mut state = plan.initial_state(times[0]);
        let mut scratch = TransientScratch::new();
        t.span(
            |t| &mut t.replay,
            || -> Result<(), String> {
                for &time in &times[1..] {
                    plan.step(time, &mut state, &mut scratch).map_err(err)?;
                }
                black_box(state.solution());
                Ok(())
            },
        )?;
        // One plan per run; `TransientPlan::new` performs one probe
        // factorization and compiles one program.
        let stats = result.stats;
        let steps = (times.len() - 1) as u64;
        t.plans_built += 1;
        t.pivot_searches += 1;
        t.programs_compiled += u64::from(plan.program().is_some());
        t.solves += stats.compiled_hits + stats.fresh_factorizations;
        t.compiled_hits += stats.compiled_hits;
        t.kernel_ops += plan.program().map_or(0, |p| p.op_count() as u64) * steps;
        t.kernel_solves += steps;
        same(&wave_bits(&result)?, &self.bits[k])
    }

    fn verify(&self) -> Result<(), String> {
        for (k, text) in self.texts.iter().enumerate() {
            let netlist = parse(text)?;
            // The settled output must equal the DC gain (from the AC
            // simulator, far below the dominant pole) times the step.
            let ac = AcAnalysis::new(&netlist.circuit, TransferSpec::voltage_gain("VIN", "out"))
                .map_err(err)?;
            let expected = ac.at(1e-4).map_err(err)?.response.re * STEP_V;
            let result = run_transient(&netlist, true)?;
            let wave = result.node("out").ok_or("no node `out`")?;
            let settled = wave[wave.len() - 1];
            let off = (settled - expected).abs();
            if off.is_nan() || off > TRAN_FINAL_TOL * expected.abs() {
                return Err(format!(
                    "transient input {k}: settled at {settled:e} V, expected {expected:e} V"
                ));
            }
            // Halving the step through the same program must agree.
            let check = result.cross_check.ok_or("no cross-check")?;
            if check.max_abs_dev.is_nan()
                || check.max_abs_dev > TRAN_RICHARDSON_TOL * expected.abs()
            {
                return Err(format!(
                    "transient input {k}: step-halving deviation {:.2e} V",
                    check.max_abs_dev
                ));
            }
            same(&wave_bits(&result)?, &self.bits[k])?;
        }
        Ok(())
    }
}
