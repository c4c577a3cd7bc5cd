//! DC operating-point analysis: damped Newton–Raphson with supply
//! ramping as a homotopy fallback.

use crate::mna::{assemble, assemble_dense_into, assemble_into, unknown_count, JacobianSink};
use crate::netlist::{Circuit, Element};
use crate::pattern::{self, CircuitPattern};
use crate::{observe, stats, SpiceError};
use pnc_linalg::decomp::Lu;
use pnc_linalg::sparse::SparseLu;
use pnc_linalg::Matrix;
use pnc_telemetry::{Event, Level, Stopwatch, Telemetry};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Smallest MNA dimension for which [`SolverBackend::Auto`] picks the
/// sparse backend. The paper's activation circuits assemble 4–8 unknown
/// systems where dense LU wins outright; sparse pattern reuse pays off
/// once fill and O(n³) dense cost dominate the stamp cost.
pub const SPARSE_MIN_DIM: usize = 32;

/// Linear-system backend used inside the Newton loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Decide per circuit: the process-wide override from
    /// [`set_default_backend`] when one is set, otherwise sparse for
    /// systems of at least [`SPARSE_MIN_DIM`] unknowns and dense below.
    #[default]
    Auto,
    /// Dense LU with partial pivoting — the original path and the
    /// property-test oracle.
    Dense,
    /// Pattern-reusing sparse LU (one symbolic analysis per circuit
    /// topology, numeric refactorization per iteration).
    Sparse,
}

impl SolverBackend {
    /// Canonical lower-case name (CLI flag value, trace field).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Auto => "auto",
            SolverBackend::Dense => "dense",
            SolverBackend::Sparse => "sparse",
        }
    }

    /// Parses a backend name as accepted by `--solver-backend`.
    pub fn parse(s: &str) -> Option<SolverBackend> {
        match s {
            "auto" => Some(SolverBackend::Auto),
            "dense" => Some(SolverBackend::Dense),
            "sparse" => Some(SolverBackend::Sparse),
            _ => None,
        }
    }
}

// lint: allow(L003, reason = "process-wide backend override set once at CLI startup before any solves; per-solve state stays in SolverConfig")
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide backend used when a [`SolverConfig`] leaves
/// `backend` at [`SolverBackend::Auto`] (the `--solver-backend` CLI
/// flag). Passing [`SolverBackend::Auto`] restores the size-based rule.
pub fn set_default_backend(backend: SolverBackend) {
    let code = match backend {
        SolverBackend::Auto => 0,
        SolverBackend::Dense => 1,
        SolverBackend::Sparse => 2,
    };
    DEFAULT_BACKEND.store(code, Ordering::Relaxed);
}

fn default_backend() -> SolverBackend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        1 => SolverBackend::Dense,
        2 => SolverBackend::Sparse,
        _ => SolverBackend::Auto,
    }
}

/// Resolves `Auto` to a concrete backend for a system of `dim` unknowns.
fn resolve_backend(requested: SolverBackend, dim: usize) -> SolverBackend {
    match requested {
        SolverBackend::Auto => match default_backend() {
            SolverBackend::Auto => {
                if dim >= SPARSE_MIN_DIM {
                    SolverBackend::Sparse
                } else {
                    SolverBackend::Dense
                }
            }
            explicit => explicit,
        },
        explicit => explicit,
    }
}

/// Newton iteration limits and tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Maximum Newton iterations per attempt.
    pub max_iterations: usize,
    /// Convergence threshold on the KCL residual (amperes).
    pub residual_tol_amps: f64,
    /// Convergence threshold on the voltage update (volts).
    pub step_tol_volts: f64,
    /// Maximum voltage change per Newton step (damping).
    pub max_step_volts: f64,
    /// Number of supply-ramp stages used when the cold start fails.
    pub ramp_stages: usize,
    /// Linear-system backend; solve traces record the *resolved*
    /// choice, never `Auto`, so replays re-run the backend that
    /// actually produced the trajectory.
    pub backend: SolverBackend,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iterations: 200,
            residual_tol_amps: 1e-12,
            step_tol_volts: 1e-10,
            max_step_volts: 0.4,
            ramp_stages: 8,
            backend: SolverBackend::Auto,
        }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    source_currents: Vec<f64>,
    iterations: usize,
    residual: f64,
}

impl OperatingPoint {
    /// Voltage of `node` (ground reports 0).
    pub fn voltage(&self, node: usize) -> f64 {
        if node == Circuit::GROUND {
            0.0
        } else {
            self.voltages[node - 1]
        }
    }

    /// Branch current of the `k`-th voltage source (in element order);
    /// positive current flows out of the `+` terminal through the
    /// external circuit... measured *into* the + terminal inside MNA, so
    /// a source *delivering* power reports a negative value here.
    pub fn source_current(&self, k: usize) -> f64 {
        self.source_currents[k]
    }

    /// Newton iterations spent (including ramp stages).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// KCL residual norm (amperes) at the accepted solution — the
    /// value that passed the convergence test.
    pub fn final_residual(&self) -> f64 {
        self.residual
    }

    /// The solved unknown vector `voltages ++ source currents` — the
    /// layout every warm start takes.
    pub fn state(&self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.voltages.len() + self.source_currents.len());
        x.extend_from_slice(&self.voltages);
        x.extend_from_slice(&self.source_currents);
        x
    }

    /// Splits an unknown vector into node voltages and source currents.
    fn from_state(x: &[f64], n_nodes: usize, iterations: usize, residual: f64) -> OperatingPoint {
        OperatingPoint {
            voltages: x[..n_nodes].to_vec(),
            source_currents: x[n_nodes..].to_vec(),
            iterations,
            residual,
        }
    }

    /// All node voltages including ground, indexed by `NodeId`.
    pub fn all_voltages(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.voltages.len() + 1);
        v.push(0.0);
        v.extend_from_slice(&self.voltages);
        v
    }
}

/// The linear-algebra half of a Newton iteration, kept from one
/// iteration to the next, across the plain attempt and every ramp
/// stage, and — inside a [`DcSession`] — across solves.
#[derive(Debug)]
enum Linear {
    /// Dense LU with partial pivoting, refactored from scratch every
    /// iteration.
    Dense { jacobian: Matrix },
    /// Pattern-backed sparse LU. The first factorization searches
    /// pivots and freezes the pivot order and fill; every later one —
    /// in this solve or a later solve of the same session —
    /// refactorizes in place on that order, falling back to a fresh
    /// pivot search only when the drift guard trips.
    Sparse {
        pat: Arc<CircuitPattern>,
        values: Vec<f64>,
        lu: Option<Box<SparseLu>>,
    },
}

/// Everything a solve needs that depends only on the circuit's
/// topology and the config: the structural fingerprint, the
/// linear-algebra state of the resolved backend and the Newton
/// buffers.
/// Built once per solve by the one-shot entry points and once per
/// session by [`DcSession`].
#[derive(Debug)]
struct SolveState {
    /// Whether this state's work feeds the process-wide
    /// [`crate::stats`] counters (pattern lookups, factorizations,
    /// ramp fallbacks). Off only for [`solve_dc_captured`].
    counted: bool,
    fingerprint: u64,
    linear: Linear,
    /// Residual `f(x)` of the latest stamp.
    f: Vec<f64>,
    /// `−f`, the Newton right-hand side.
    neg_f: Vec<f64>,
    /// Undamped Newton step.
    dx: Vec<f64>,
}

/// Largest magnitude in `v` (0 for an empty slice).
fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, r| m.max(r.abs()))
}

impl SolveState {
    /// Resolves the backend (and, for sparse, the cached pattern) and
    /// the fingerprint of `circuit` once.
    fn new(circuit: &Circuit, cfg: &SolverConfig, counted: bool) -> SolveState {
        let n = unknown_count(circuit);
        let fingerprint = observe::pattern_fingerprint(circuit);
        let linear = match resolve_backend(cfg.backend, n) {
            SolverBackend::Sparse => {
                let (pat, hit) = pattern::cached_pattern(circuit, fingerprint);
                if counted {
                    if hit {
                        stats::record_pattern_hit();
                    } else {
                        stats::record_pattern_miss();
                    }
                }
                Linear::Sparse {
                    values: pat.new_values(),
                    pat,
                    lu: None,
                }
            }
            _ => Linear::Dense {
                jacobian: Matrix::zeros(n, n),
            },
        };
        SolveState {
            counted,
            fingerprint,
            linear,
            f: vec![0.0; n],
            neg_f: vec![0.0; n],
            dx: vec![0.0; n],
        }
    }

    /// Stamps the Jacobian and the residual of `circuit` at `x`.
    fn stamp(&mut self, circuit: &Circuit, x: &[f64]) {
        match &mut self.linear {
            Linear::Dense { jacobian } => assemble_dense_into(circuit, x, jacobian, &mut self.f),
            Linear::Sparse { pat, values, .. } => pat.stamp(circuit, x, values, &mut self.f),
        }
    }

    /// Factors the stamped Jacobian and solves `J·dx = −f` into `dx`.
    /// Returns the dense factors (for the conditioning estimate of a
    /// traced iteration; they are dropped with the iteration, as the
    /// next one refactors anyway). A failed sparse factorization drops
    /// the factor, so the next solve starts with a fresh pivot search.
    fn factor_and_solve(&mut self) -> Result<Option<Lu>, SpiceError> {
        for (nf, r) in self.neg_f.iter_mut().zip(&self.f) {
            *nf = -r;
        }
        let counted = self.counted;
        match &mut self.linear {
            Linear::Dense { jacobian } => {
                let lu = Lu::new(jacobian).map_err(|_| SpiceError::SingularMatrix)?;
                let dx = lu
                    .solve(&self.neg_f)
                    .map_err(|_| SpiceError::SingularMatrix)?;
                self.dx.copy_from_slice(&dx);
                return Ok(Some(lu));
            }
            Linear::Sparse { pat, values, lu } => {
                let factored = match lu {
                    Some(l) => l.refactorize(values).map(|reused| match (counted, reused) {
                        (false, _) => {}
                        (true, true) => stats::record_refactorization(),
                        (true, false) => stats::record_factorization(),
                    }),
                    None => SparseLu::factorize(pat.symbolic(), values).map(|fresh| {
                        if counted {
                            stats::record_factorization();
                        }
                        *lu = Some(Box::new(fresh));
                    }),
                };
                let solved = factored.and_then(|()| match lu {
                    Some(l) => l.solve_into(&self.neg_f, &mut self.dx),
                    None => Ok(()),
                });
                if solved.is_err() {
                    *lu = None;
                    return Err(SpiceError::SingularMatrix);
                }
            }
        }
        Ok(None)
    }

    /// Records the iteration just factored on the capture
    /// (`dense_lu`: the factors [`SolveState::factor_and_solve`]
    /// returned).
    fn record_iteration(
        &self,
        cap: &mut observe::AttemptCapture,
        dense_lu: Option<&Lu>,
        max_resid: f64,
        step: f64,
        damped: bool,
    ) {
        match (&self.linear, dense_lu) {
            (Linear::Dense { jacobian }, Some(lu)) => {
                cap.record_iteration(jacobian, lu, max_resid, step, damped);
            }
            (Linear::Dense { .. }, None) => {}
            (Linear::Sparse { pat, .. }, _) => {
                cap.record_iteration_sparse(pat.dim(), pat.nnz(), max_resid, step, damped);
            }
        }
    }

    /// One damped Newton descent from `x`. Returns `(iterations,
    /// residual)` on convergence; the residual is the KCL norm that
    /// passed the test.
    fn newton_attempt(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        cfg: &SolverConfig,
        mut cap: Option<&mut observe::AttemptCapture>,
    ) -> Result<(usize, f64), SpiceError> {
        let n_nodes = circuit.node_count() - 1;
        for iter in 0..cfg.max_iterations {
            self.stamp(circuit, x);
            let max_resid = inf_norm(&self.f[..n_nodes]);
            // Converged on arrival: every equation — including the
            // linear source rows, which a warm start from a different
            // operating point leaves violated — is satisfied at `x`, so
            // the step would be ~0 and the factorization pure
            // confirmation. Well-predicted warm starts land here one
            // iteration early.
            if inf_norm(&self.f) < cfg.residual_tol_amps {
                return Ok((iter, max_resid));
            }
            let dense_lu = self.factor_and_solve()?;

            // Damping: limit voltage updates; currents move freely.
            let max_dv = inf_norm(&self.dx[..n_nodes]);
            let scale = if max_dv > cfg.max_step_volts {
                cfg.max_step_volts / max_dv
            } else {
                1.0
            };
            if let Some(c) = cap.as_deref_mut() {
                self.record_iteration(c, dense_lu.as_ref(), max_resid, max_dv * scale, scale < 1.0);
            }
            for (xi, di) in x.iter_mut().zip(&self.dx) {
                *xi += scale * di;
            }

            if max_resid < cfg.residual_tol_amps && max_dv * scale < cfg.step_tol_volts {
                return Ok((iter + 1, max_resid));
            }
        }
        self.stamp(circuit, x);
        Err(SpiceError::NonConvergence {
            iterations: cfg.max_iterations,
            residual: inf_norm(&self.f[..n_nodes]),
        })
    }

    /// Core solve: the plain Newton attempt, then the supply ramp.
    /// Returns the operating point and whether the ramp fallback was
    /// engaged.
    fn solve(
        &mut self,
        circuit: &Circuit,
        cfg: &SolverConfig,
        warm_start: Option<&[f64]>,
        mut cap: Option<&mut observe::AttemptCapture>,
    ) -> Result<(OperatingPoint, bool), SpiceError> {
        let n = unknown_count(circuit);
        if n == 0 {
            return Err(SpiceError::EmptyCircuit);
        }
        let n_nodes = circuit.node_count() - 1;
        // The capture records the resolved backend, so replays re-run
        // the path that produced the trace.
        if let Some(c) = cap.as_deref_mut() {
            c.set_backend(match &self.linear {
                Linear::Dense { .. } => SolverBackend::Dense,
                Linear::Sparse { .. } => SolverBackend::Sparse,
            });
        }

        let mut x = match warm_start {
            Some(ws) if ws.len() == n => ws.to_vec(),
            _ => vec![0.0; n],
        };

        // Attempt 1: plain Newton from the guess.
        let mut total_iters = 0usize;
        match self.newton_attempt(circuit, &mut x, cfg, cap.as_deref_mut()) {
            Ok((iters, residual)) => {
                return Ok((
                    OperatingPoint::from_state(&x, n_nodes, iters, residual),
                    false,
                ));
            }
            Err(SpiceError::NonConvergence { iterations, .. }) => total_iters += iterations,
            Err(e) => return Err(e),
        }

        // Attempt 2: supply ramping — scale all sources from 0 to full.
        if self.counted {
            stats::record_ramp_fallback();
        }
        let full_volts: Vec<Option<f64>> = circuit
            .elements()
            .iter()
            .map(|e| match e {
                Element::VSource { volts, .. } => Some(*volts),
                _ => None,
            })
            .collect();

        let mut ramped = circuit.clone();
        x = vec![0.0; n];
        let mut final_residual = f64::INFINITY;
        for stage in 1..=cfg.ramp_stages {
            let frac = stage as f64 / cfg.ramp_stages as f64;
            for (idx, fv) in full_volts.iter().enumerate() {
                if let Some(v) = fv {
                    ramped
                        .set_vsource(idx, v * frac)
                        // lint: allow(L001, reason = "idx enumerates the circuit's own source list")
                        .expect("index points at a source");
                }
            }
            if let Some(c) = cap.as_deref_mut() {
                c.mark_ramp_stage();
            }
            // The ramped clone only rescales source values, so it shares
            // the original topology — and therefore this state.
            match self.newton_attempt(&ramped, &mut x, cfg, cap.as_deref_mut()) {
                Ok((iters, residual)) => {
                    total_iters += iters;
                    final_residual = residual;
                }
                Err(SpiceError::NonConvergence {
                    iterations,
                    residual,
                }) => {
                    total_iters += iterations;
                    if stage == cfg.ramp_stages {
                        // Report the whole budget spent, not just the last
                        // attempt, so the failure's cost is attributable.
                        return Err(SpiceError::NonConvergence {
                            iterations: total_iters,
                            residual,
                        });
                    }
                    // Intermediate stage struggled; carry the partial
                    // solution forward and keep ramping.
                }
                Err(e) => return Err(e),
            }
        }

        Ok((
            OperatingPoint::from_state(&x, n_nodes, total_iters, final_residual),
            true,
        ))
    }
}

/// The one accounting path of every recorded solve: the process-wide
/// [`crate::stats`] counters, the observatory's point window and
/// trace (when enabled), and — through `tel` — the `dc_solve` span and
/// the `dc_solve` / `dc_solve_failed` events. A disabled `tel` costs
/// nothing beyond the counters.
fn solve_recorded(
    state: &mut SolveState,
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    let mut scope = tel.profiler().scope("dc_solve");
    stats::record_solve();
    if warm_start.is_some() {
        stats::record_warm_start();
    }
    let mut cap = observe::capture_if_enabled();
    let sw = Stopwatch::start();
    let result = state.solve(circuit, cfg, warm_start, cap.as_mut());
    stats::record_solve_time_ms(sw.elapsed_ms());
    match &result {
        Ok((op, ramped)) => {
            stats::record_iterations(op.iterations());
            stats::record_success();
            let (iters, resid, ramped) = (op.iterations(), op.final_residual(), *ramped);
            scope.set_u64("iterations", iters as u64);
            scope.set_bool("ramped", ramped);
            tel.emit(|| {
                Event::new("dc_solve", Level::Debug)
                    .with_u64("iterations", iters as u64)
                    .with_f64("residual", resid)
                    .with_bool("ramped", ramped)
            });
        }
        Err(e) => {
            scope.set_bool("failed", true);
            if let SpiceError::NonConvergence {
                iterations,
                residual,
            } = e
            {
                stats::record_iterations(*iterations);
                scope.set_u64("iterations", *iterations as u64);
                let (iters, resid) = (*iterations, *residual);
                tel.emit(|| {
                    Event::new("dc_solve_failed", Level::Warn)
                        .with_str("error", "non_convergence")
                        .with_u64("iterations", iters as u64)
                        .with_f64("residual", resid)
                });
            } else {
                tel.emit(|| {
                    Event::new("dc_solve_failed", Level::Warn).with_str("error", e.to_string())
                });
            }
            stats::record_failure();
        }
    }
    let (iters, ramped, failed) = match &result {
        Ok((op, ramped)) => (op.iterations() as u64, *ramped, false),
        Err(SpiceError::NonConvergence { iterations, .. }) => (*iterations as u64, true, true),
        Err(_) => (0, false, true),
    };
    observe::record_point_solve(state.fingerprint, iters, ramped, failed);
    if let Some(cap) = cap {
        observe::record_trace(cap.into_trace(circuit, state.fingerprint, cfg, warm_start, &result));
    }
    result.map(|(op, _ramped)| op)
}

/// A DC solve session over one owned circuit. Callers may change only
/// source values ([`DcSession::set_vsource`]), so the topology — and
/// with it the cached sparsity pattern, the fingerprint and the Newton
/// buffers resolved at construction — cannot change under the
/// session. The numeric sparse LU is kept from one solve to the next:
/// the first solve searches pivots, every later solve refactorizes on
/// that pivot order, and the 1e-6 pivot-drift guard still re-pivots
/// when the values move too far. A sequence of nearby operating points
/// (the rows of a dataset, one print's samples) thus pays one pivot
/// search instead of one per solve. Dense-backend sessions keep the
/// buffers only; their numerics equal the one-shot solves'.
///
/// Every solve is accounted exactly like [`solve_dc_with`], which is a
/// one-shot session over the same Newton loop. Results depend on the
/// sequence of solves the session has run, not on any thread or global
/// state beyond the shared, purely symbolic pattern cache. A traced
/// solve that inherited its factor replays (through
/// [`solve_dc_captured`], which searches pivots afresh) within the
/// replay noise floor rather than bit-for-bit.
#[derive(Debug)]
pub struct DcSession {
    circuit: Circuit,
    cfg: SolverConfig,
    state: SolveState,
}

impl DcSession {
    /// Opens a session over `circuit`, resolving its backend, pattern
    /// and fingerprint once.
    pub fn new(circuit: Circuit, cfg: SolverConfig) -> DcSession {
        let state = SolveState::new(&circuit, &cfg, true);
        DcSession {
            circuit,
            cfg,
            state,
        }
    }

    /// The session's circuit at its current source values.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Sets the EMF of the voltage source at element index `index`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if `index` does not
    /// refer to a voltage source.
    pub fn set_vsource(&mut self, index: usize, volts: f64) -> Result<(), SpiceError> {
        self.circuit.set_vsource(index, volts)
    }

    /// Solves the circuit at its current source values from the
    /// optional warm start (`voltages ++ source currents`, see
    /// [`OperatingPoint::state`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve_dc_with`].
    pub fn solve(&mut self, warm_start: Option<&[f64]>) -> Result<OperatingPoint, SpiceError> {
        solve_recorded(
            &mut self.state,
            &self.circuit,
            &self.cfg,
            warm_start,
            &Telemetry::disabled(),
        )
    }
}

/// Solves for the DC operating point with default solver settings.
///
/// # Errors
///
/// Returns [`SpiceError::EmptyCircuit`] for circuits without unknowns,
/// [`SpiceError::SingularMatrix`] for structurally defective circuits,
/// and [`SpiceError::NonConvergence`] when Newton and the supply-ramp
/// homotopy both fail.
pub fn solve_dc(circuit: &Circuit) -> Result<OperatingPoint, SpiceError> {
    solve_dc_with(circuit, &SolverConfig::default(), None)
}

/// Solves for the DC operating point with explicit settings and an
/// optional warm-start guess (`voltages ++ source currents`) — a
/// one-shot [`DcSession`].
///
/// Every call updates the process-wide aggregate counters in
/// [`crate::stats`].
///
/// # Errors
///
/// Same conditions as [`solve_dc`]. A
/// [`SpiceError::NonConvergence`] carries the *total* Newton
/// iterations spent across the plain attempt and every ramp stage, so
/// failure cost is attributable from the error alone.
pub fn solve_dc_with(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
) -> Result<OperatingPoint, SpiceError> {
    solve_dc_traced(circuit, cfg, warm_start, &Telemetry::disabled())
}

/// Runs a DC solve with trace capture *forced on*, independent of the
/// observatory's global switch, and returns the captured
/// [`observe::SolveTrace`] alongside the outcome. Unlike
/// [`solve_dc_with`] this records nothing into the process-wide
/// aggregates — no solve, timing, factorization, pattern-cache,
/// ramp or observatory counts — so it is the offline re-execution
/// primitive behind `pnc-cli solver replay`.
///
/// # Errors
///
/// The result slot carries the same conditions as [`solve_dc_with`];
/// the trace is returned either way (a failed solve still has a
/// trajectory worth diffing).
pub fn solve_dc_captured(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
) -> (Result<OperatingPoint, SpiceError>, observe::SolveTrace) {
    let mut state = SolveState::new(circuit, cfg, false);
    let mut cap = observe::AttemptCapture::new();
    let result = state.solve(circuit, cfg, warm_start, Some(&mut cap));
    let trace = cap.into_trace(circuit, state.fingerprint, cfg, warm_start, &result);
    (result.map(|(op, _ramped)| op), trace)
}

/// [`solve_dc_with`] plus per-solve telemetry: emits a `dc_solve`
/// debug event (iterations, final residual, whether the supply-ramp
/// fallback was engaged) on success and a `dc_solve_failed` warning on
/// error. When the handle carries an enabled
/// [`pnc_telemetry::Profiler`], each solve also records a `dc_solve`
/// span with the Newton iteration count and outcome as attributes.
/// With a disabled handle this is exactly [`solve_dc_with`].
///
/// # Errors
///
/// Same conditions as [`solve_dc_with`].
pub fn solve_dc_traced(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    solve_recorded(
        &mut SolveState::new(circuit, cfg, true),
        circuit,
        cfg,
        warm_start,
        tel,
    )
}

/// Result of a DC sweep: one operating point per sweep value.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Swept source values (volts).
    pub inputs: Vec<f64>,
    /// Operating point per input.
    pub points: Vec<OperatingPoint>,
}

impl SweepResult {
    /// Extracts the voltage of `node` across the sweep.
    pub fn node_curve(&self, node: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.voltage(node)).collect()
    }
}

/// Sweeps the EMF of the voltage source at element index `source_index`
/// over `values`, warm-starting each solve with the previous solution.
///
/// # Errors
///
/// Propagates element and convergence errors.
pub fn dc_sweep(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
) -> Result<SweepResult, SpiceError> {
    dc_sweep_traced(circuit, source_index, values, &Telemetry::disabled())
}

/// Residual inf-norm of a candidate state at the circuit's current
/// element values: one assembly with the Jacobian entries discarded,
/// no factorization. Cheap enough to rank several warm-start
/// candidates per solve.
pub(crate) fn residual_inf(circuit: &Circuit, x: &[f64]) -> f64 {
    struct NullSink;
    impl JacobianSink for NullSink {
        fn add(&mut self, _row: usize, _col: usize, _v: f64) {}
    }
    let mut f = vec![0.0; x.len()];
    assemble_into(circuit, x, &mut NullSink, &mut f);
    f.iter().fold(0.0f64, |m, r| m.max(r.abs()))
}

/// Index of the warm-start candidate with the smallest assembled
/// residual at the target point (ties go to the earliest candidate,
/// so the choice is deterministic). `None` when `cands` is empty.
pub(crate) fn best_warm_candidate(circuit: &Circuit, cands: &[Vec<f64>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in cands.iter().enumerate() {
        let r = residual_inf(circuit, c);
        if best.is_none_or(|(_, b)| r < b) {
            best = Some((i, r));
        }
    }
    best.map(|(i, _)| i)
}

/// [`dc_sweep`] with instrumentation: when `tel` carries an *enabled*
/// [`pnc_telemetry::Profiler`], every per-point solve goes through
/// [`solve_dc_traced`] and records a `dc_solve` span (Newton iteration
/// count as an attribute). With a disabled profiler this is exactly
/// [`dc_sweep`] — the per-point `dc_solve` event stream stays quiet so
/// unprofiled structured-log output keeps its volume.
///
/// # Errors
///
/// Propagates element and convergence errors.
pub fn dc_sweep_traced(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    tel: &Telemetry,
) -> Result<SweepResult, SpiceError> {
    let trace = tel.profiler().is_enabled();
    let cfg = SolverConfig::default();

    // Batched fast path: a linear circuit's Newton step is exact, so
    // the whole sweep collapses to one factorization plus one blocked
    // multi-RHS solve. Skipped while per-solve instrumentation is on
    // (profiler spans or the solver observatory) — those consumers
    // want one trace per point.
    let linear = circuit
        .elements()
        .iter()
        .all(|e| !matches!(e, Element::Egt { .. }));
    if linear && !trace && !observe::is_enabled() {
        if let Some(res) = dc_sweep_linear(circuit, source_index, values, &cfg)? {
            return Ok(res);
        }
    }

    let mut swept = circuit.clone();
    let mut points = Vec::with_capacity(values.len());
    // Continuation warm starts: chain each point from its predecessor
    // and, once two points have solved, also offer the secant
    // extrapolation of their states — whichever assembles the smaller
    // residual seeds Newton. Purely a function of the sweep inputs, so
    // trajectories stay deterministic.
    let mut prev: Option<Vec<f64>> = None;
    let mut prev2: Option<Vec<f64>> = None;
    let mut prev3: Option<Vec<f64>> = None;

    for &v in values {
        swept.set_vsource(source_index, v)?;
        let mut cands: Vec<Vec<f64>> = Vec::with_capacity(3);
        if let Some(p) = &prev {
            cands.push(p.clone());
            if let Some(p2) = &prev2 {
                cands.push(p.iter().zip(p2).map(|(a, b)| 2.0 * a - b).collect());
                if let Some(p3) = &prev3 {
                    cands.push(
                        p.iter()
                            .zip(p2.iter().zip(p3))
                            .map(|(a, (b, c))| 3.0 * a - 3.0 * b + c)
                            .collect(),
                    );
                }
            }
        }
        let warm = best_warm_candidate(&swept, &cands).map(|i| cands[i].as_slice());
        let op = if trace {
            solve_dc_traced(&swept, &cfg, warm, tel)?
        } else {
            solve_dc_with(&swept, &cfg, warm)?
        };
        prev3 = prev2.take();
        prev2 = prev.take();
        prev = Some(op.state());
        points.push(op);
    }
    Ok(SweepResult {
        inputs: values.to_vec(),
        points,
    })
}

/// The batched Newton step behind the linear-sweep fast path: for a
/// linear circuit `f(x) = A·x − b`, assembling at `x = 0` yields the
/// constant Jacobian `A` and residual `−b`, so one factorization plus
/// one blocked multi-RHS solve ([`Lu::solve_matrix`]) lands every sweep
/// point exactly. Each accepted column is verified against the Newton
/// residual tolerance; returns `Ok(None)` (fall back to the iterative
/// path) when the factorization fails or any column misses tolerance.
fn dc_sweep_linear(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    cfg: &SolverConfig,
) -> Result<Option<SweepResult>, SpiceError> {
    let n = unknown_count(circuit);
    if n == 0 || values.is_empty() {
        return Ok(None);
    }
    let n_nodes = circuit.node_count() - 1;
    let sw = Stopwatch::start();
    let x0 = vec![0.0; n];
    let mut swept = circuit.clone();

    // The Jacobian of a linear circuit is independent of the swept
    // source value (EMFs enter only the residual), so the factors from
    // the first sweep point serve all of them.
    swept.set_vsource(source_index, values[0])?;
    let first = assemble(&swept, &x0);
    let Ok(lu) = Lu::new(&first.jacobian) else {
        return Ok(None);
    };

    let mut rhs = Matrix::zeros(n, values.len());
    for (col, &v) in values.iter().enumerate() {
        swept.set_vsource(source_index, v)?;
        let sys = assemble(&swept, &x0);
        for row in 0..n {
            rhs[(row, col)] = -sys.residual[row];
        }
    }
    let Ok(solutions) = lu.solve_matrix(&rhs) else {
        return Ok(None);
    };

    let mut points = Vec::with_capacity(values.len());
    for (col, &v) in values.iter().enumerate() {
        let x: Vec<f64> = (0..n).map(|row| solutions[(row, col)]).collect();
        swept.set_vsource(source_index, v)?;
        let sys = assemble(&swept, &x);
        let resid = sys
            .residual
            .iter()
            .take(n_nodes)
            .fold(0.0f64, |m, r| m.max(r.abs()));
        if resid >= cfg.residual_tol_amps {
            return Ok(None);
        }
        points.push(OperatingPoint::from_state(&x, n_nodes, 1, resid));
    }

    // Aggregate accounting keeps the iterative path's per-point shape:
    // one solve and one (batched) Newton iteration per sweep value.
    let per_point_ms = sw.elapsed_ms() / values.len() as f64;
    let fingerprint = observe::pattern_fingerprint(circuit);
    for _ in values {
        stats::record_solve();
        stats::record_iterations(1);
        stats::record_success();
        stats::record_solve_time_ms(per_point_ms);
        observe::record_point_solve(fingerprint, 1, false, false);
    }
    Ok(Some(SweepResult {
        inputs: values.to_vec(),
        points,
    }))
}

/// Convenience: evaluates the KCL residual norm at a solution (used in
/// tests to confirm physical consistency).
pub fn residual_norm(circuit: &Circuit, op: &OperatingPoint) -> f64 {
    let n_nodes = circuit.node_count() - 1;
    inf_norm(&assemble(circuit, &op.state()).residual[..n_nodes])
}

/// Linearly spaced values, inclusive of both endpoints.
// lint: dimensionless
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divider_solves_exactly() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(out) - 1.0 / 3.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 1.0).abs() < 1e-9);
        // Source current = −V/R_total = −1/3000.
        assert!((op.source_current(0) + 1.0 / 3000.0).abs() < 1e-9);
    }

    #[test]
    fn bridge_of_resistors() {
        // Wheatstone bridge, balanced: no current through the bridge R.
        let mut c = Circuit::new();
        let top = c.node("top");
        let l = c.node("l");
        let r = c.node("r");
        c.vsource(top, Circuit::GROUND, 1.0);
        c.resistor(top, l, 1000.0);
        c.resistor(top, r, 1000.0);
        c.resistor(l, Circuit::GROUND, 2000.0);
        c.resistor(r, Circuit::GROUND, 2000.0);
        c.resistor(l, r, 500.0); // bridge
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(l) - op.voltage(r)).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_swings() {
        // Common-source EGT with resistive pull-up: V_out high when the
        // gate is low, low when the gate is high.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);

        let mut low = c.clone();
        low.set_vsource(src, 0.0).unwrap();
        let op_low = solve_dc(&low).unwrap();
        assert!(op_low.voltage(out) > 0.9, "out = {}", op_low.voltage(out));

        let mut high = c.clone();
        high.set_vsource(src, 1.0).unwrap();
        let op_high = solve_dc(&high).unwrap();
        assert!(op_high.voltage(out) < 0.2, "out = {}", op_high.voltage(out));
    }

    #[test]
    fn source_follower_tracks_input() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        c.vsource(vin, Circuit::GROUND, 0.9);
        c.egt(vdd, vin, out, 4e-4, 1e-5);
        c.resistor(out, Circuit::GROUND, 200_000.0);
        let op = solve_dc(&c).unwrap();
        let vout = op.voltage(out);
        // Output follows the gate minus roughly a threshold.
        assert!(vout > 0.2 && vout < 0.9, "vout = {vout}");
    }

    #[test]
    fn residual_is_tiny_at_solution() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let op = solve_dc(&c).unwrap();
        assert!(residual_norm(&c, &op) < 1e-9);
    }

    #[test]
    fn sweep_is_monotone_for_follower() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.egt(vdd, vin, out, 4e-4, 1e-5);
        c.resistor(out, Circuit::GROUND, 200_000.0);
        let sweep = dc_sweep(&c, src, &linspace(-1.0, 1.0, 41)).unwrap();
        let curve = sweep.node_curve(out);
        // Margin: accepted points satisfy |f(x)| < 1e-12 A, which over
        // this circuit's ~5 µS output-node conductance allows ~2e-7 V
        // of slack per point in the flat region.
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "follower output must be monotone");
        }
        // ReLU-like: flat near zero for low inputs, rising after threshold.
        assert!(curve[0].abs() < 0.05);
        assert!(*curve.last().unwrap() > 0.3);
    }

    #[test]
    fn sweep_rejects_non_source_index() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 1.0);
        let r_idx = c.resistor(a, Circuit::GROUND, 100.0);
        assert!(dc_sweep(&c, r_idx, &[0.0, 1.0]).is_err());
    }

    #[test]
    fn vcvs_buffers_a_loaded_divider() {
        // Divider into a unity-gain buffer into a heavy load: the
        // divider must stay at 0.5 V because the buffer draws nothing
        // from it, while the load sees the buffered copy.
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        let buf = c.node("buf");
        c.vsource(top, Circuit::GROUND, 1.0);
        c.resistor(top, mid, 10_000.0);
        c.resistor(mid, Circuit::GROUND, 10_000.0);
        c.vcvs(buf, Circuit::GROUND, mid, Circuit::GROUND, 1.0);
        c.resistor(buf, Circuit::GROUND, 100.0); // heavy load
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(mid) - 0.5).abs() < 1e-6, "divider loaded!");
        // The buffer copies its control node exactly (within Newton
        // tolerance); the 1e-9-scale offset on `mid` itself is GMIN.
        assert!((op.voltage(buf) - op.voltage(mid)).abs() < 1e-9);
    }

    #[test]
    fn vcvs_applies_gain() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, 0.3);
        c.vcvs(b, Circuit::GROUND, a, Circuit::GROUND, -2.5);
        c.resistor(b, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(b) + 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_errors() {
        let c = Circuit::new();
        assert!(matches!(solve_dc(&c), Err(SpiceError::EmptyCircuit)));
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-1.0, 1.0, 5);
        assert_eq!(v, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn final_residual_passes_tolerance() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig::default();
        let op = solve_dc_with(&c, &cfg, None).unwrap();
        assert!(op.final_residual() <= cfg.residual_tol_amps);
    }

    #[test]
    fn non_convergence_reports_total_iterations() {
        // A nonlinear circuit with a 1-iteration budget cannot
        // converge; the error must account for the plain attempt plus
        // every ramp stage, not just the final attempt.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vdd, Circuit::GROUND, 2e-4, 2e-5);
        let cfg = SolverConfig {
            max_iterations: 1,
            ramp_stages: 3,
            ..SolverConfig::default()
        };
        match solve_dc_with(&c, &cfg, None) {
            Err(SpiceError::NonConvergence { iterations, .. }) => {
                // 1 (plain) + 3 ramp stages × 1 = 4.
                assert_eq!(iterations, 4);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn traced_solve_emits_events_and_matches_plain() {
        use pnc_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;

        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);

        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let cfg = SolverConfig::default();
        let traced = solve_dc_traced(&c, &cfg, None, &tel).unwrap();
        let plain = solve_dc_with(&c, &cfg, None).unwrap();
        assert_eq!(traced.voltage(out), plain.voltage(out));

        let events = sink.events_named("dc_solve");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get_u64("iterations"), Some(traced.iterations() as u64));
        assert_eq!(e.get_f64("residual"), Some(traced.final_residual()));
        assert_eq!(e.get_bool("ramped"), Some(false));

        // Failure path emits a warning with the iteration total.
        let mut hard = Circuit::new();
        let vdd = hard.node("vdd");
        let o = hard.node("o");
        hard.vsource(vdd, Circuit::GROUND, 1.0);
        hard.resistor(vdd, o, 100_000.0);
        hard.egt(o, vdd, Circuit::GROUND, 2e-4, 2e-5);
        let tight = SolverConfig {
            max_iterations: 1,
            ramp_stages: 2,
            ..SolverConfig::default()
        };
        assert!(solve_dc_traced(&hard, &tight, None, &tel).is_err());
        let fails = sink.events_named("dc_solve_failed");
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].get_u64("iterations"), Some(3));
    }

    #[test]
    fn sparse_backend_matches_dense() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.6);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);

        let dense_cfg = SolverConfig {
            backend: SolverBackend::Dense,
            ..SolverConfig::default()
        };
        let sparse_cfg = SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let d = solve_dc_with(&c, &dense_cfg, None).unwrap();
        let s = solve_dc_with(&c, &sparse_cfg, None).unwrap();
        assert!((d.voltage(out) - s.voltage(out)).abs() < 1e-9);
        assert!((d.source_current(0) - s.source_current(0)).abs() < 1e-12);
        assert!(residual_norm(&c, &s) < 1e-9);
    }

    #[test]
    fn sparse_capture_records_resolved_backend() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let (res, trace) = solve_dc_captured(&c, &cfg, None);
        assert!(res.is_ok());
        assert_eq!(trace.config.backend, SolverBackend::Sparse);
        assert!(trace.dim > 0 && trace.nnz > 0);

        // Replaying the trace (its config carries the resolved
        // backend) reproduces the trajectory exactly.
        let rebuilt = trace.rebuild_circuit();
        let (rr, rt) = solve_dc_captured(&rebuilt, &trace.config, trace.warm_start.as_deref());
        assert!(rr.is_ok());
        assert_eq!(rt.residuals_amps, trace.residuals_amps);
        assert_eq!(rt.steps_volts, trace.steps_volts);
    }

    #[test]
    fn auto_backend_resolves_by_dimension() {
        // A long resistor ladder crosses SPARSE_MIN_DIM; the trace must
        // show the resolved choice, never `Auto`.
        let mut c = Circuit::new();
        let top = c.node("n0");
        c.vsource(top, Circuit::GROUND, 1.0);
        let mut prev = top;
        for i in 1..=40 {
            let nxt = c.node(&format!("n{i}"));
            c.resistor(prev, nxt, 1_000.0);
            prev = nxt;
        }
        c.resistor(prev, Circuit::GROUND, 1_000.0);
        let cfg = SolverConfig::default();
        let (res, trace) = solve_dc_captured(&c, &cfg, None);
        assert!(res.is_ok());
        assert!(trace.dim >= SPARSE_MIN_DIM);
        assert_eq!(trace.config.backend, SolverBackend::Sparse);

        // A small circuit stays dense under Auto.
        let mut small = Circuit::new();
        let a = small.node("a");
        small.vsource(a, Circuit::GROUND, 1.0);
        small.resistor(a, Circuit::GROUND, 100.0);
        let (_, small_trace) = solve_dc_captured(&small, &cfg, None);
        assert_eq!(small_trace.config.backend, SolverBackend::Dense);
    }

    #[test]
    fn linear_sweep_fast_path_matches_per_point_solves() {
        // Divider: out = v/2 for every sweep value; the batched path
        // must agree with one-at-a-time solves to solver tolerance and
        // report the single batched Newton step per point.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vin, out, 10_000.0);
        c.resistor(out, Circuit::GROUND, 10_000.0);
        let values = linspace(-1.0, 1.0, 9);
        let sweep = dc_sweep(&c, src, &values).unwrap();
        for (p, &v) in sweep.points.iter().zip(&values) {
            // GMIN loads the divider by a few parts in 1e9.
            assert!((p.voltage(out) - v / 2.0).abs() < 1e-7, "at v = {v}");
            assert_eq!(p.iterations(), 1);
            let mut one = c.clone();
            one.set_vsource(src, v).unwrap();
            let op = solve_dc(&one).unwrap();
            assert!((p.voltage(out) - op.voltage(out)).abs() < 1e-9);
        }
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [
            SolverBackend::Auto,
            SolverBackend::Dense,
            SolverBackend::Sparse,
        ] {
            assert_eq!(SolverBackend::parse(b.name()), Some(b));
        }
        assert_eq!(SolverBackend::parse("blas"), None);
    }

    /// A chain of resistor-loaded EGT inverters driven from `in` —
    /// nonlinear, and as large as the caller asks.
    fn inverter_chain(stages: usize) -> (Circuit, usize, usize) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        let mut gate = vin;
        for k in 0..stages {
            let out = c.node(&format!("out{k}"));
            c.resistor(vdd, out, 100_000.0);
            c.resistor(gate, out, 2_000_000.0);
            c.egt(out, gate, Circuit::GROUND, 2e-4, 2e-5);
            gate = out;
        }
        (c, src, gate)
    }

    fn sparse_cfg() -> SolverConfig {
        SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn session_matches_cold_one_shot_solves() {
        // Warm-started session solves that inherit the pivot order land
        // on the same operating points as cold, fresh-factor solves.
        let (c, src, last) = inverter_chain(12);
        let cfg = sparse_cfg();
        let mut session = DcSession::new(c.clone(), cfg);
        let mut prev: Option<Vec<f64>> = None;
        for &v in &linspace(-0.4, 0.9, 14) {
            session.set_vsource(src, v).unwrap();
            let op = session.solve(prev.as_deref()).unwrap();
            let mut one = c.clone();
            one.set_vsource(src, v).unwrap();
            let cold = solve_dc_with(&one, &cfg, None).unwrap();
            for node in 1..c.node_count() {
                let gap = (op.voltage(node) - cold.voltage(node)).abs();
                assert!(gap < 1e-9, "v = {v}, node {node}: gap {gap}");
            }
            assert!(residual_norm(session.circuit(), &op) <= cfg.residual_tol_amps);
            prev = Some(op.state());
        }
        assert!(session.circuit().vsource_volts(src).unwrap() > 0.8);
        assert!(session.solve(None).unwrap().voltage(last).is_finite());
    }

    #[test]
    fn dense_session_equals_one_shot_solves_bit_for_bit() {
        let (c, src, last) = inverter_chain(3);
        let cfg = SolverConfig {
            backend: SolverBackend::Dense,
            ..SolverConfig::default()
        };
        let mut session = DcSession::new(c.clone(), cfg);
        for &v in &[0.1, 0.6] {
            session.set_vsource(src, v).unwrap();
            let op = session.solve(None).unwrap();
            let mut one = c.clone();
            one.set_vsource(src, v).unwrap();
            let cold = solve_dc_with(&one, &cfg, None).unwrap();
            assert_eq!(op.voltage(last).to_bits(), cold.voltage(last).to_bits());
            assert_eq!(op.iterations(), cold.iterations());
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.5);
        c.resistor(vdd, out, 50_000.0);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig::default();
        let cold = solve_dc_with(&c, &cfg, None).unwrap();
        let mut state = cold.all_voltages()[1..].to_vec();
        state.push(cold.source_current(0));
        state.push(cold.source_current(1));
        let warm = solve_dc_with(&c, &cfg, Some(&state)).unwrap();
        assert!(warm.iterations() <= cold.iterations());
    }
}
