//! Solve-path benchmark: characterization cost and solver hardness per
//! activation-function kind (`BENCH_9.json`; `BENCH_7.json` is the
//! same workload from before warm starting existed).
//!
//! Fits each kind's surrogate bundle three times with the solve-trace
//! recorder and hardness atlas on and keeps the median-wall-clock run
//! with its solver rollup. Two gates, both skipped by `--no-gate`:
//!
//! * every kind's median wall clock must stay within 3× p-ReLU's. The
//!   ratio does not depend on the machine but does catch costs that
//!   grow with the design dimension (3-D p-ReLU vs the 6-D kinds): a
//!   bucket-grid neighbor search once made it 19× (`BENCH_8.json`);
//! * the aggregate Newton-iteration reduction against a baseline of
//!   the same scale must be ≥25% (skipped when there is none).
//!
//! ```text
//! cargo run --release -p pnc-bench --bin solver_perf -- \
//!     --scale smoke --out BENCH_9.json --baseline BENCH_7.json
//! ```
//!
//! `--backend dense|sparse|auto` forces the linear-solver backend;
//! `--no-warm-start` turns off the cross-point donors (the in-sweep
//! predictors still run).

use pnc_bench::harness::{configure_threads_from_args, fit_bundle_traced, isolate_solver_stats};
use pnc_bench::snapshot::{DatasetPerf, PerfSnapshot, SolverRollup};
use pnc_bench::Scale;
use pnc_spice::AfKind;
use pnc_surrogate::{atlas, SolverAtlas};
use pnc_telemetry::{Profiler, Stopwatch, Telemetry};
use pnc_train::experiment::ExperimentFidelity;
use std::error::Error;
use std::process::ExitCode;

/// Ring seed for the trace recorder: fixed so repeated runs sample the
/// same solves and the snapshot stays reproducible.
const TRACE_SEED: u64 = 7;

/// Required aggregate Newton-iteration reduction against the baseline.
const GATE: f64 = 0.25;

/// Characterization runs per AF kind; the snapshot keeps the median.
const REPS: usize = 3;

/// Largest allowed ratio of a kind's median wall clock to p-ReLU's.
const WALL_RATIO_GATE: f64 = 3.0;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let threads = configure_threads_from_args();
    let scale = Scale::from_args();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_9.json".to_string());
    let baseline = arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_7.json".to_string());
    if let Some(name) = arg_value(&args, "--backend") {
        match pnc_spice::SolverBackend::parse(&name) {
            Some(b) => pnc_spice::dc::set_default_backend(b),
            None => {
                eprintln!("error: --backend: '{name}' is not one of auto, dense, sparse");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.iter().any(|a| a == "--no-warm-start") {
        pnc_surrogate::sampling::set_warm_start(false);
    }
    let gate = !args.iter().any(|a| a == "--no-gate");
    match run(scale, &out, &baseline, gate, threads) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    scale: Scale,
    out: &str,
    baseline: &str,
    gate: bool,
    threads: usize,
) -> Result<(), Box<dyn Error>> {
    let fidelity = scale.fidelity();
    println!(
        "Solver benchmark — scale {}, {} AF kind(s) × {REPS} runs, {} \
         thread(s), warm start {}",
        scale.name(),
        AfKind::ALL.len(),
        threads,
        if pnc_surrogate::sampling::warm_start_enabled() {
            "on"
        } else {
            "off"
        },
    );

    // Sequential on purpose: the trace recorder, the atlas, and the
    // SPICE solver stats are process-global, so a parallel map over AF
    // kinds would bleed one kind's aggregates into another's rollup.
    let mut perfs = Vec::with_capacity(AfKind::ALL.len());
    pnc_parallel::stats::reset();
    for kind in AfKind::ALL {
        eprintln!("[solver_perf] {} …", kind.name());
        let mut runs = (0..REPS)
            .map(|_| characterize_once(kind, &fidelity))
            .collect::<Result<Vec<_>, _>>()?;
        let iters = runs[0].solver.newton_iterations;
        if runs.iter().any(|r| r.solver.newton_iterations != iters) {
            return Err(format!("{}: Newton iterations differ between runs", kind.name()).into());
        }
        runs.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
        perfs.push(runs.swap_remove(REPS / 2));
    }

    let executor = pnc_parallel::stats::take().into();
    let snap = PerfSnapshot {
        scale: scale.name().to_string(),
        run_id: None,
        threads: Some(threads),
        rel_tol: None,
        noise_floor_ms: None,
        executor: Some(executor),
        datasets: perfs,
    };
    snap.write(out)?;
    println!("Wrote {out} (median of {REPS} runs per kind)");
    for d in &snap.datasets {
        let s = &d.solver;
        println!(
            "  {:<14} {:>7.1} ms  {:>5} solves  {:>6} iters  {:>4} warm ({:>4} donor)  \
             {}+{} fact  max cond1 {:.2e}  {} pattern(s)  dist↔iters {:+.3}",
            d.dataset,
            d.wall_ms,
            s.solves,
            s.newton_iterations,
            s.warm_started_solves,
            s.donor_warm_starts,
            s.factorizations,
            s.refactorizations,
            s.max_cond1_estimate,
            s.fingerprint_cardinality,
            s.distance_iters_correlation,
        );
    }

    let wall = check_wall_ratio(&snap, gate);
    let iters = compare_against_baseline(&snap, baseline, gate);
    wall.and(iters)
}

/// Characterizes and fits one AF kind with the solver observatory on;
/// returns its wall clock, phase breakdown and solver rollup.
fn characterize_once(
    kind: AfKind,
    fidelity: &ExperimentFidelity,
) -> Result<DatasetPerf, Box<dyn Error>> {
    pnc_spice::observe::reset();
    pnc_spice::observe::enable(TRACE_SEED, pnc_spice::observe::DEFAULT_RING_CAPACITY);
    atlas::enable();
    let tel = Telemetry::disabled().with_profiler(Profiler::enabled());
    let started = Stopwatch::start();
    let (bundle, stats, iters) = isolate_solver_stats(|| {
        let _scope = tel.profiler().scope("fit_bundle");
        fit_bundle_traced(kind, fidelity, &tel)
    });
    let wall_ms = started.elapsed_ms();
    pnc_spice::observe::disable();
    atlas::disable();
    let atlas = SolverAtlas::new(atlas::take());
    pnc_spice::observe::reset();
    bundle?;
    let rollup = atlas.rollup();
    Ok(DatasetPerf::from_report(
        kind.name(),
        wall_ms,
        &tel.profiler().report(),
        SolverRollup::from_stats(stats, &iters).with_observatory(
            rollup.max_cond1_estimate,
            rollup.fingerprint_cardinality,
            rollup.distance_iters_correlation,
        ),
    ))
}

/// Prints each kind's median wall clock relative to p-ReLU's and fails
/// when one exceeds [`WALL_RATIO_GATE`].
fn check_wall_ratio(snap: &PerfSnapshot, gate: bool) -> Result<(), Box<dyn Error>> {
    let reference = AfKind::PRelu.name();
    let Some(base) = snap.datasets.iter().find(|d| d.dataset == reference) else {
        return Ok(());
    };
    println!("Median wall clock vs {reference}:");
    let mut over = Vec::new();
    for d in &snap.datasets {
        let ratio = d.wall_ms / base.wall_ms;
        println!("  {:<14} {:>9.1} ms   {ratio:>5.2}×", d.dataset, d.wall_ms);
        if ratio > WALL_RATIO_GATE {
            over.push(format!("{} ({ratio:.1}×)", d.dataset));
        }
    }
    println!("  gate ≤{WALL_RATIO_GATE:.0}×");
    if gate && !over.is_empty() {
        return Err(format!(
            "median wall clock above {WALL_RATIO_GATE:.0}× {reference}: {}",
            over.join(", ")
        )
        .into());
    }
    Ok(())
}

/// Prints the per-kind Newton-iteration reduction against a baseline
/// snapshot and enforces the aggregate gate. Missing or differently
/// scaled baselines skip the comparison (with a note) rather than fail:
/// the reduction is only meaningful against the same workload.
fn compare_against_baseline(
    snap: &PerfSnapshot,
    baseline: &str,
    gate: bool,
) -> Result<(), Box<dyn Error>> {
    let Ok(text) = std::fs::read_to_string(baseline) else {
        println!("No baseline at {baseline}; skipping the reduction gate.");
        return Ok(());
    };
    let Some(base) = PerfSnapshot::from_json(&text) else {
        return Err(format!("{baseline}: not a perf snapshot").into());
    };
    if base.scale != snap.scale {
        println!(
            "Baseline {baseline} was recorded at scale {}, this run at {}; skipping the \
             reduction gate.",
            base.scale, snap.scale
        );
        return Ok(());
    }
    let mut now_total = 0u64;
    let mut base_total = 0u64;
    println!("Newton-iteration reduction vs {baseline}:");
    for d in &snap.datasets {
        let Some(b) = base.datasets.iter().find(|b| b.dataset == d.dataset) else {
            continue;
        };
        now_total += d.solver.newton_iterations;
        base_total += b.solver.newton_iterations;
        let red = reduction(b.solver.newton_iterations, d.solver.newton_iterations);
        println!(
            "  {:<14} {:>7} → {:>7} iters   ({:+.1}%)",
            d.dataset,
            b.solver.newton_iterations,
            d.solver.newton_iterations,
            -100.0 * red
        );
    }
    if base_total == 0 {
        println!("Baseline has no matching datasets; skipping the reduction gate.");
        return Ok(());
    }
    let total = reduction(base_total, now_total);
    println!(
        "  {:<14} {:>7} → {:>7} iters   ({:+.1}%)   gate ≥{:.0}%",
        "total",
        base_total,
        now_total,
        -100.0 * total,
        100.0 * GATE
    );
    if gate && total < GATE {
        return Err(format!(
            "aggregate Newton-iteration reduction {:.1}% is below the {:.0}% gate",
            100.0 * total,
            100.0 * GATE
        )
        .into());
    }
    Ok(())
}

/// Fractional reduction from `base` to `now` (positive = fewer).
fn reduction(base: u64, now: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    1.0 - now as f64 / base as f64
}
