//! `pnc-cli solver …` — the solver observatory's offline surfaces.
//!
//! * `solver atlas <run-id>` — render the characterization hardness
//!   atlas recorded under `--solver-traces`: total Newton work, the
//!   per-point iteration tail, sparsity-fingerprint cardinality, the
//!   distance↔iterations correlation, and the top-k hardest points.
//!   The render is a pure function of the persisted JSON, so it is
//!   byte-identical for any `--threads` the run was characterized
//!   with — CI diffs it across thread counts.
//! * `solver report <run-id>` — the atlas render plus a rollup of the
//!   run's sampled `solver_traces.jsonl` (convergence, ramp engagement,
//!   residual reduction rates, conditioning).
//! * `solver replay <trace.jsonl>` — re-execute every recorded solve
//!   from its captured inputs and diff the residual trajectories under
//!   a relative noise floor; exits nonzero on any divergence. The
//!   solver is deterministic, so on the same build a solve that
//!   searched its own pivots replays bit-for-bit. The noise floor
//!   covers what a fresh pivot search changes in a `DcSession` solve
//!   that inherited its factor (rounding only), and traces recorded on
//!   one machine and verified on another (different FMA contraction,
//!   different libm).

use crate::args::Args;
use pnc_spice::observe::SolveTrace;
use pnc_spice::solve_dc_captured;
use pnc_surrogate::SolverAtlas;
use pnc_telemetry::json;
use pnc_telemetry::registry::{RunRegistry, DEFAULT_NOISE_FLOOR};
use std::path::Path;

/// Default number of hardest points listed by `solver atlas`.
const DEFAULT_TOP_K: usize = 5;

/// Dispatches the `solver` subcommands. The registry root comes from
/// `--run-dir` (default `runs`).
pub fn cmd_solver(args: &Args) -> Result<(), String> {
    let expect_operands = |n: usize| match args.positionals().len() - 1 {
        got if got == n => Ok(()),
        got => Err(format!("expected {n} operand(s), got {got}")),
    };
    let registry = RunRegistry::new(args.get("run-dir").unwrap_or("runs"));
    match args.positional(
        0,
        "solver subcommand (atlas <run-id> | report <run-id> | replay <trace.jsonl>)",
    )? {
        "atlas" => {
            expect_operands(1)?;
            let atlas = load_atlas(&registry, args.positional(1, "run id")?)?;
            print!("{}", atlas.render(args.get_or("top", DEFAULT_TOP_K)?));
            Ok(())
        }
        "report" => {
            expect_operands(1)?;
            cmd_report(
                &registry,
                args.positional(1, "run id")?,
                args.get_or("top", DEFAULT_TOP_K)?,
            )
        }
        "replay" => {
            expect_operands(1)?;
            cmd_replay(
                args.positional(1, "trace file")?,
                args.get_or("noise-floor", DEFAULT_NOISE_FLOOR)?,
            )
        }
        other => Err(format!(
            "unknown solver subcommand '{other}' (expected atlas, report or replay)"
        )),
    }
}

/// Loads a run's persisted hardness atlas (`solver_atlas.json`).
pub(crate) fn load_atlas(registry: &RunRegistry, run_id: &str) -> Result<SolverAtlas, String> {
    let path = registry.run_dir(run_id).join("solver_atlas.json");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "run {run_id}: no solver atlas ({}: {e}); re-run with --solver-traces",
            path.display()
        )
    })?;
    let doc = json::parse(&text).ok_or_else(|| format!("{}: not valid JSON", path.display()))?;
    SolverAtlas::from_json(&doc)
        .ok_or_else(|| format!("{}: not a solver_atlas document", path.display()))
}

/// Parses every `solve_trace` line of a JSONL file. Non-trace lines
/// (other events sharing the stream) are skipped; a line that *claims*
/// to be a trace but fails to parse is an error, not a skip.
fn load_traces(path: &Path) -> Result<Vec<SolveTrace>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut traces = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line)
            .ok_or_else(|| format!("{}:{}: not valid JSON", path.display(), lineno + 1))?;
        if doc.get("event").and_then(json::Json::as_str) != Some("solve_trace") {
            continue;
        }
        let trace = SolveTrace::from_json(&doc).ok_or_else(|| {
            format!(
                "{}:{}: malformed solve_trace line",
                path.display(),
                lineno + 1
            )
        })?;
        traces.push(trace);
    }
    Ok(traces)
}

fn cmd_report(registry: &RunRegistry, run_id: &str, top_k: usize) -> Result<(), String> {
    let atlas = load_atlas(registry, run_id)?;
    print!("{}", atlas.render(top_k));
    let traces_path = registry.run_dir(run_id).join("solver_traces.jsonl");
    if !traces_path.is_file() {
        println!("\nno solver_traces.jsonl recorded for this run");
        return Ok(());
    }
    let traces = load_traces(&traces_path)?;
    print!("{}", render_trace_rollup(&traces));
    Ok(())
}

/// Summarizes a set of sampled traces: convergence, ramp engagement,
/// residual reduction rate and conditioning.
fn render_trace_rollup(traces: &[SolveTrace]) -> String {
    let mut out = format!("\nsampled traces · {} recorded\n", traces.len());
    if traces.is_empty() {
        return out;
    }
    let converged = traces.iter().filter(|t| t.converged).count();
    let ramped = traces.iter().filter(|t| t.ramped).count();
    let damped: u64 = traces.iter().map(|t| t.damped_steps).sum();
    let mut rates: Vec<f64> = traces
        .iter()
        .map(SolveTrace::reduction_rate)
        .filter(|r| *r > 0.0)
        .collect();
    rates.sort_by(f64::total_cmp);
    let median_rate = rates.get(rates.len() / 2).copied().unwrap_or(0.0);
    let max_cond1 = traces.iter().map(|t| t.cond1_estimate).fold(0.0, f64::max);
    out.push_str(&format!(
        "  convergence : {converged} converged · {ramped} ramped · {damped} damped steps\n"
    ));
    out.push_str(&format!(
        "  reduction   : median {median_rate:.2} decades/iter over {} measurable trace(s)\n",
        rates.len()
    ));
    out.push_str(&format!("  conditioning: max cond1 {max_cond1:.3e}\n"));
    out
}

/// The outcome of replaying one recorded trace.
struct ReplayOutcome {
    solve_index: u64,
    iterations_recorded: usize,
    iterations_replayed: usize,
    /// Largest relative residual deviation across compared iterations.
    max_rel_dev: f64,
    /// Human reason when the replay diverged, `None` when clean.
    diverged: Option<String>,
}

/// Re-executes one recorded solve and diffs the residual trajectories
/// under `noise_floor` (relative, per iteration).
fn replay_one(trace: &SolveTrace, noise_floor: f64) -> ReplayOutcome {
    let circuit = trace.rebuild_circuit();
    let (_, replayed) = solve_dc_captured(&circuit, &trace.config, trace.warm_start.as_deref());
    let mut outcome = ReplayOutcome {
        solve_index: trace.solve_index,
        iterations_recorded: trace.residuals_amps.len(),
        iterations_replayed: replayed.residuals_amps.len(),
        max_rel_dev: 0.0,
        diverged: None,
    };
    if replayed.converged != trace.converged {
        outcome.diverged = Some(format!(
            "recorded converged={} but replay converged={}",
            trace.converged, replayed.converged
        ));
        return outcome;
    }
    if outcome.iterations_replayed != outcome.iterations_recorded {
        outcome.diverged = Some(format!(
            "trajectory length changed: {} recorded vs {} replayed iterations",
            outcome.iterations_recorded, outcome.iterations_replayed
        ));
        return outcome;
    }
    for (i, (old, new)) in trace
        .residuals_amps
        .iter()
        .zip(&replayed.residuals_amps)
        .enumerate()
    {
        // Relative to the recorded magnitude, with an absolute floor so
        // residuals already at numerical zero cannot divide by ~0.
        let scale = old.abs().max(f64::MIN_POSITIVE.sqrt());
        let rel = (new - old).abs() / scale;
        outcome.max_rel_dev = outcome.max_rel_dev.max(rel);
        if rel > noise_floor && outcome.diverged.is_none() {
            outcome.diverged = Some(format!(
                "iteration {i}: residual {old:.6e} → {new:.6e} (rel dev {rel:.3e} > {noise_floor:.1e})"
            ));
        }
    }
    outcome
}

fn cmd_replay(path: &str, noise_floor: f64) -> Result<(), String> {
    let traces = load_traces(Path::new(path))?;
    if traces.is_empty() {
        return Err(format!("{path}: no solve_trace lines to replay"));
    }
    let mut failures = 0usize;
    for trace in &traces {
        let outcome = replay_one(trace, noise_floor);
        match &outcome.diverged {
            None => println!(
                "solve {:>6}: OK    {} iterations, max rel dev {:.3e}",
                outcome.solve_index, outcome.iterations_recorded, outcome.max_rel_dev
            ),
            Some(reason) => {
                failures += 1;
                println!("solve {:>6}: DIVERGED — {reason}", outcome.solve_index);
            }
        }
    }
    println!(
        "\nreplayed {} trace(s), {} diverged (noise floor {noise_floor:.1e})",
        traces.len(),
        failures
    );
    match failures {
        0 => Ok(()),
        n => Err(format!(
            "{n} replay{} diverged from the recorded trajectory",
            if n == 1 { "" } else { "s" }
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
    use pnc_core::export::export_network;
    use pnc_core::network::{NetworkConfig, PrintedNetwork};
    use pnc_linalg::rng::{seeded, uniform_matrix};
    use pnc_spice::netlist::Circuit;
    use pnc_spice::{observe, AfKind, VariationModel};

    /// A small EGT circuit: nonlinear enough that the Newton trajectory
    /// has several iterations to diff.
    fn egt_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("gate");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 0.8);
        c.vsource(gate, Circuit::GROUND, 0.5);
        c.resistor(vdd, out, 50_000.0);
        c.egt(out, gate, Circuit::GROUND, 200e-6, 40e-6);
        c
    }

    fn recorded_trace() -> SolveTrace {
        let circuit = egt_circuit();
        let cfg = pnc_spice::dc::SolverConfig::default();
        let (result, trace) = solve_dc_captured(&circuit, &cfg, None);
        result.expect("test circuit solves");
        trace
    }

    #[test]
    fn replay_round_trips_through_jsonl_and_passes_clean() {
        let trace = recorded_trace();
        let line = trace.to_jsonl();
        let parsed = SolveTrace::from_json(&json::parse(&line).expect("valid JSONL"))
            .expect("line parses back");
        let outcome = replay_one(&parsed, 1e-6);
        assert!(outcome.diverged.is_none(), "{:?}", outcome.diverged);
        // Same build, same inputs: the solver is deterministic, so the
        // replay reproduces the trajectory exactly, not just within
        // the noise floor.
        assert_eq!(outcome.max_rel_dev, 0.0);
        assert!(outcome.iterations_recorded >= 2, "nonlinear solve");
    }

    #[test]
    fn inherited_factor_session_solves_replay_clean() {
        // Monte-Carlo prints of an exported 4-3-3 network solve each
        // print's rows in one DC session: every row after the first is
        // warm-started from the previous row and refactorizes on the
        // pivot order an earlier solve chose. Replay factorizes afresh,
        // so those solves must come back clean under the replay rule's
        // unchanged noise floor.
        let activation =
            LearnableActivation::fit(AfKind::PTanh, &SurrogateFidelity::smoke()).unwrap();
        let negation = fit_negation_model(9).unwrap();
        let mut rng = seeded(61);
        let net = PrintedNetwork::new(
            4,
            3,
            NetworkConfig::default(),
            activation,
            negation,
            &mut rng,
        )
        .unwrap();
        let exported = export_network(&net).unwrap();
        let (rows, prints) = (16, 3);
        let x = uniform_matrix(&mut rng, rows, 4, -0.7, 0.7);
        let labels = vec![0; rows];
        observe::reset();
        observe::enable(7, 4 * rows * prints);
        let report = exported.monte_carlo(&x, &labels, &VariationModel::default(), prints, 7);
        observe::disable();
        assert!(report.accuracies.iter().all(|a| a.is_finite()));
        // Only this test traces in this binary; the fingerprint filter
        // keeps the count exact even so.
        let fp = observe::pattern_fingerprint(exported.circuit());
        let inherited: Vec<SolveTrace> = observe::take_traces()
            .into_iter()
            .filter(|t| t.fingerprint == fp && t.warm_start.is_some())
            .collect();
        assert_eq!(inherited.len(), prints * (rows - 1));
        for trace in &inherited {
            let parsed = SolveTrace::from_json(&json::parse(&trace.to_jsonl()).unwrap()).unwrap();
            assert_eq!(&parsed, trace);
            let outcome = replay_one(&parsed, DEFAULT_NOISE_FLOOR);
            assert!(outcome.diverged.is_none(), "{:?}", outcome.diverged);
        }
        assert!(inherited.iter().any(|t| t.residuals_amps.len() >= 2));
    }

    #[test]
    fn replay_flags_a_tampered_trajectory() {
        let mut trace = recorded_trace();
        let mid = trace.residuals_amps.len() / 2;
        trace.residuals_amps[mid] *= 1.5;
        let outcome = replay_one(&trace, 1e-6);
        let reason = outcome.diverged.expect("tampered residual must diverge");
        assert!(reason.contains("rel dev"), "{reason}");
    }

    #[test]
    fn replay_flags_a_truncated_trajectory() {
        let mut trace = recorded_trace();
        trace.residuals_amps.pop();
        trace.steps_volts.pop();
        trace.iterations -= 1;
        let outcome = replay_one(&trace, 1e-6);
        let reason = outcome.diverged.expect("truncated trace must diverge");
        assert!(reason.contains("trajectory length"), "{reason}");
    }

    #[test]
    fn trace_loader_skips_foreign_events_but_rejects_bad_traces() {
        let dir = std::env::temp_dir().join(format!("pnc-solver-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        let trace = recorded_trace();
        let mixed = format!(
            "{}\n{{\"event\":\"run_start\",\"level\":\"info\"}}\n",
            trace.to_jsonl()
        );
        std::fs::write(&path, &mixed).unwrap();
        let traces = load_traces(&path).expect("mixed stream loads");
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0], trace);

        std::fs::write(&path, "{\"event\":\"solve_trace\"}\n").unwrap();
        let err = load_traces(&path).unwrap_err();
        assert!(err.contains("malformed solve_trace"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_rollup_renders_convergence_and_conditioning() {
        let trace = recorded_trace();
        let text = render_trace_rollup(std::slice::from_ref(&trace));
        assert!(text.contains("sampled traces · 1 recorded"), "{text}");
        assert!(text.contains("1 converged"), "{text}");
        assert!(text.contains("decades/iter"), "{text}");
    }
}
