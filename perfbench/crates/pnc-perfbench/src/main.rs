//! `pnc-perfbench` — whole-user-path benchmark.
//!
//! ```text
//! pnc-perfbench --workload characterize|train|verify|all [--seed N]
//!               [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! Each workload runs characterize → fit surrogates → train under a
//! power budget → export and SPICE-verify in-process, on one executor
//! thread. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for what each workload and metric means.

mod host;
mod report;
mod stats;
mod workload;

use pnc_parallel::ExecutorHandle;
use pnc_telemetry::{Profiler, SpanRecord, Stopwatch};
use report::{valid_name, Metric, RunReport};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{design_dim_name, Outcome, Workload};

const USAGE: &str = "\
usage: pnc-perfbench --workload characterize|train|verify|all [--seed N] [--seconds S]
                     [--trace 0|1] [--trace-out FILE]";

/// Set-up is timed in blocks of at least this many seconds, each
/// scored by its mean repetition; `setup_s` is the median block. On a
/// shared host the core's speed flips between states every few
/// seconds, so a block must be long enough to average over them.
const SETUP_BLOCK_S: f64 = 0.8;

/// Set-up blocks timed before the first pass and after the last one.
const SETUP_BLOCKS: (usize, usize) = (3, 2);

/// Upper bound on timed passes, whatever `--seconds` asks for.
const MAX_PASSES: usize = 16;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_out: None,
    };
    let mut all = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v == "all" {
                    all = true;
                } else {
                    args.workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                v => return Err(format!("bad --trace `{v}` (0 or 1)")),
            },
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pnc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&argv);
    };
    // Results are bit-identical for any thread count; one thread keeps
    // the load to one core and makes on-CPU time equal wall time on an
    // idle core.
    ExecutorHandle::configure(1);
    match run_workload(workload, &args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pnc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: runs each workload in its own process (so memory
/// high-water marks and solver caches stay per workload), one after the
/// other, and fails if any of them fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pnc-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut ok = true;
    let mut table = String::from("workload      metric                        value  unit\n");
    for w in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w.name())
            .args(&rest)
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("pnc-perfbench: cannot run {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let parsed = stdout.lines().last().and_then(report::parse_report);
        match parsed {
            Some((correct, _, _, metrics)) if correct && output.status.success() => {
                for (name, value, unit) in metrics {
                    table.push_str(&format!("{:<13} {name:<29} {value:<14} {unit}\n", w.name()));
                }
            }
            _ => ok = false,
        }
    }
    eprint!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One timed pass: the outcome, its on-CPU seconds, and host readings.
struct Pass {
    outcome: Outcome,
    cpu_s: f64,
    wall_s: f64,
    runqueue_s: f64,
}

fn timed_pass(inputs: &workload::Inputs, prof: &Profiler) -> Result<Pass, String> {
    let before = host::process_sched_time()?;
    let sw = Stopwatch::start();
    let outcome = workload::run(inputs, prof);
    let wall_s = sw.elapsed().as_secs_f64();
    let spent = host::process_sched_time()?.since(before);
    Ok(Pass {
        outcome,
        cpu_s: spent.on_cpu_seconds(),
        wall_s,
        runqueue_s: spent.runqueue_seconds(),
    })
}

fn run_workload(workload: Workload, args: &Args) -> Result<RunReport, String> {
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_BLOCKS.0 {
        // Free the previous block's inputs before generating new ones.
        inputs.take();
        let (generated, secs) = setup_block(workload, args.seed);
        setup_times.push(secs);
        inputs = Some(generated);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let prof = if args.trace {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    let probe_before = time_probe();
    let _ = pnc_parallel::stats::take();
    let first = timed_pass(&inputs, &prof)?;
    let executor_items = pnc_parallel::stats::take().items;
    let mut cpu = vec![first.cpu_s];
    // Untraced runs repeat the pass until `--seconds` of on-CPU time is
    // measured; the counts and quality metrics come from the first pass.
    while !args.trace
        && first.outcome.errors.is_empty()
        && cpu.iter().sum::<f64>() < args.seconds
        && cpu.len() < MAX_PASSES
    {
        let pass = timed_pass(&inputs, &prof)?;
        if let Some(e) = pass.outcome.errors.first() {
            return Err(format!("repeated pass failed: {e}"));
        }
        cpu.push(pass.cpu_s);
    }
    // Read before the trailing set-up blocks, whose extra copies of the
    // inputs are not part of the user path.
    let peak_rss_mb = host::peak_rss_mb()?;
    let probe_s = 0.5 * (probe_before + time_probe());
    for _ in 0..SETUP_BLOCKS.1 {
        setup_times.push(setup_block(workload, args.seed).1);
    }
    let setup_s = stats::median(&setup_times).ok_or("no set-up time")?;
    let pipeline_s = stats::median(&cpu).ok_or("no pass timed")?;

    let o = &first.outcome;
    let mut errors = o.errors.clone();
    errors.extend(check_outcome(o));
    let digest = o.digest_text();
    println!(
        "digest fnv64={:016x} af_newton_iters={} net_newton_iters={} epochs={} \
         test_accuracy={:?} spice_accuracy={:?} power_r2={:?}",
        workload::fnv1a64(&digest),
        o.spice_af.newton_iters,
        o.spice_net.newton_iters,
        o.nets.iter().map(|n| n.epochs).sum::<u64>(),
        mean(o.nets.iter().map(|n| n.test_accuracy)),
        spice_accuracy(o),
        mean(o.bundles.iter().map(|b| b.power_r2)),
    );
    eprintln!(
        "[{}] seed {} setup {:.4} s, pipeline {:.3} s on-CPU over {} pass(es); first pass \
         wall {:.3} s, run-queue wait {:.3} s; probe {:.4} s",
        workload.name(),
        args.seed,
        setup_s,
        pipeline_s,
        cpu.len(),
        first.wall_s,
        first.runqueue_s,
        probe_s
    );

    let metrics = if args.trace {
        let spans = prof.spans();
        eprint!("{}", phase_tree(&spans));
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("perfbench/out/trace-{}.json", workload.name()));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        pnc_telemetry::trace::write_chrome_trace(&path, &spans)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "[{}] wrote {} spans to {path}",
            workload.name(),
            spans.len()
        );
        let host = HostReadings {
            wall_s: first.wall_s,
            runqueue_s: first.runqueue_s,
            probe_s,
            setup_s,
            executor_items,
            trace_overhead_frac: spans.len() as f64 * span_cost_s() / first.wall_s,
        };
        per_layer_metrics(o, &spans, &host)
    } else {
        end_to_end_metrics(o, setup_s, pipeline_s, peak_rss_mb)
    };
    for m in &metrics {
        if !valid_name(&m.name) {
            errors.push(format!("invalid metric name `{}`", m.name));
        }
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    for e in &errors {
        eprintln!("[{}] CHECK FAILED: {e}", workload.name());
    }
    Ok(RunReport {
        correct: errors.is_empty(),
        attempted: o.sobol_points() + o.training_runs + o.verified_rows() + o.mc_prints(),
        failed: o.bundles.iter().map(|b| b.sobol_failed).sum::<u64>() + o.mc_failed(),
        metrics,
    })
}

/// The checks every run must pass, beyond finite metrics.
fn check_outcome(o: &Outcome) -> Vec<String> {
    let mut errors = Vec::new();
    for n in &o.nets {
        if let Err(e) = &n.attribution {
            errors.push(format!("{} power attribution: {e}", n.id.name()));
        }
        if n.reported_feasible && n.hard_power_watts > n.budget_watts {
            errors.push(format!(
                "{} at {} of P_max reported feasible but hard power {} W > budget {} W",
                n.id.name(),
                n.budget_frac,
                n.hard_power_watts,
                n.budget_watts
            ));
        }
    }
    if o.nets.is_empty() || o.verified.is_empty() {
        errors.push("no network was trained and verified".to_string());
    }
    errors
}

/// One set-up block: generates the inputs repeatedly for at least
/// [`SETUP_BLOCK_S`] and returns the last inputs and the mean seconds
/// per generation.
fn setup_block(workload: Workload, seed: u64) -> (workload::Inputs, f64) {
    let sw = Stopwatch::start();
    let mut reps = 0u32;
    loop {
        let inputs = workload::generate_inputs(workload, seed);
        reps += 1;
        let spent = sw.elapsed().as_secs_f64();
        if spent >= SETUP_BLOCK_S {
            return (inputs, spent / f64::from(reps));
        }
    }
}

fn time_probe() -> f64 {
    let sw = Stopwatch::start();
    std::hint::black_box(host::probe_kernel());
    sw.elapsed().as_secs_f64()
}

/// Wall-clock cost of one recorded profiler span, measured on a
/// separate profiler.
fn span_cost_s() -> f64 {
    const N: u32 = 20_000;
    let prof = Profiler::enabled();
    let sw = Stopwatch::start();
    for i in 0..N {
        let mut s = prof.scope("calibration");
        s.set_u64("i", u64::from(i));
    }
    sw.elapsed().as_secs_f64() / f64::from(N)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn spice_accuracy(o: &Outcome) -> f64 {
    mean(
        o.verified
            .iter()
            .map(|v| ratio(v.spice_correct as f64, v.rows as f64)),
    )
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The gated end-to-end metrics: the headline on-CPU time, set-up
/// time, memory, and the quality metrics that do not vary with the
/// seed (characterization takes no random input).
fn end_to_end_metrics(o: &Outcome, setup_s: f64, pipeline_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let feasible = o
        .nets
        .iter()
        .filter(|n| n.hard_power_watts <= n.budget_watts)
        .count();
    vec![
        metric("setup_s", "s", setup_s),
        metric("pipeline_s", "s", pipeline_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric(
            "surrogate_power_r2",
            "ratio",
            mean(o.bundles.iter().map(|b| b.power_r2)),
        ),
        metric(
            "surrogate_transfer_rmse_v",
            "V",
            mean(o.bundles.iter().map(|b| b.transfer_rmse_v)),
        ),
        metric(
            "budget_feasible_frac",
            "ratio",
            ratio(feasible as f64, o.nets.len() as f64),
        ),
    ]
}

/// Quality metrics of the trained and verified networks. They are
/// deterministic for a seed but move with it (a 30-row Iris test set,
/// smoke-trained Pendigits), by more than any bound could absorb, so
/// the traced run reports them ungated.
fn network_quality_metrics(o: &Outcome) -> Vec<Metric> {
    let rows = o.verified_rows();
    vec![
        metric(
            "test_accuracy",
            "ratio",
            mean(o.nets.iter().map(|n| n.test_accuracy)),
        ),
        metric("spice_accuracy", "ratio", spice_accuracy(o)),
        metric(
            "spice_agreement",
            "ratio",
            ratio(
                o.verified.iter().map(|v| v.agree).sum::<u64>() as f64,
                rows as f64,
            ),
        ),
        metric(
            "power_fidelity_rel_err",
            "ratio",
            mean(o.nets.iter().map(|n| n.fidelity_rel_err)),
        ),
    ]
}

/// Host and run-level readings of a traced run.
struct HostReadings {
    wall_s: f64,
    runqueue_s: f64,
    probe_s: f64,
    setup_s: f64,
    executor_items: u64,
    trace_overhead_frac: f64,
}

/// Total seconds of the program's spans named `name`.
fn span_seconds(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 * 1e-6)
        .sum()
}

fn per_layer_metrics(o: &Outcome, spans: &[SpanRecord], host: &HostReadings) -> Vec<Metric> {
    let mut m = network_quality_metrics(o);
    for dim in ["3d", "6d"] {
        let b = o.bundles.iter().find(|b| design_dim_name(b.kind) == dim);
        let get = |f: fn(&workload::BundleOutcome) -> f64| b.map_or(0.0, f);
        m.push(metric(
            &format!("surrogate.{dim}.power_sample_s"),
            "s",
            get(|b| b.power_sample_s),
        ));
        m.push(metric(
            &format!("surrogate.{dim}.sample_overhead_s"),
            "s",
            get(|b| b.power_sample_s - b.power_solve_s),
        ));
        m.push(metric(
            &format!("surrogate.{dim}.mlp_fit_s"),
            "s",
            get(|b| b.mlp_fit_s),
        ));
    }
    let gflop: f64 = o.bundles.iter().map(|b| b.mlp_flop).sum::<f64>() * 1e-9;
    let fit_s: f64 = o.bundles.iter().map(|b| b.mlp_fit_s).sum();
    m.push(metric(
        "surrogate.transfer_sample_s",
        "s",
        o.phase("bench.transfer_sample"),
    ));
    m.push(metric(
        "surrogate.transfer_fit_s",
        "s",
        o.phase("bench.transfer_fit"),
    ));
    m.push(metric("surrogate.mlp_gflop", "GFLOP", gflop));
    m.push(metric(
        "surrogate.mlp_gflop_per_s",
        "GFLOP/s",
        ratio(gflop, fit_s),
    ));

    let af = &o.spice_af;
    m.push(metric("spice.af.solves", "count", af.solves as f64));
    m.push(metric(
        "spice.af.newton_iters",
        "count",
        af.newton_iters as f64,
    ));
    m.push(metric(
        "spice.af.warm_started_frac",
        "ratio",
        ratio(af.warm_started as f64, af.solves as f64),
    ));
    m.push(metric("spice.af.solve_s", "s", af.solve_s));
    m.push(metric("spice.af.failed", "count", af.failed as f64));

    let net = &o.spice_net;
    let solve_ms = |q: f64| o.net_solve_ms.percentile(q).unwrap_or(0.0);
    let p99_ok = stats::admissible_top_percentile(o.net_solve_ms.count() as usize)
        .is_some_and(|p| p >= 99.0);
    m.push(metric("spice.net.solves", "count", net.solves as f64));
    m.push(metric(
        "spice.net.newton_iters_per_solve",
        "count",
        ratio(net.newton_iters as f64, net.solves as f64),
    ));
    m.push(metric(
        "spice.net.factorizations",
        "count",
        net.factorizations as f64,
    ));
    m.push(metric(
        "spice.net.refactorizations",
        "count",
        net.refactorizations as f64,
    ));
    m.push(metric("spice.net.solve_s", "s", net.solve_s));
    m.push(metric("spice.net.solve_ms_p50", "ms", solve_ms(0.5)));
    m.push(metric(
        "spice.net.solve_ms_p99",
        "ms",
        if p99_ok { solve_ms(0.99) } else { 0.0 },
    ));
    m.push(metric("spice.net.failed", "count", net.failed as f64));
    m.push(metric(
        "spice.net.nodes_max",
        "count",
        o.verified
            .iter()
            .map(|v| v.nodes)
            .chain(o.monte_carlo.iter().map(|m| m.nodes))
            .max()
            .unwrap_or(0) as f64,
    ));

    let classify_s = o.phase("bench.classify");
    let mc_s = o.phase("bench.monte_carlo");
    m.push(metric("core.export_s", "s", o.phase("bench.export")));
    m.push(metric(
        "core.classify_rows_per_s",
        "1/s",
        ratio(o.verified_rows() as f64, classify_s),
    ));
    m.push(metric(
        "core.mc_prints_per_s",
        "1/s",
        ratio(o.mc_prints() as f64, mc_s),
    ));
    m.push(metric("core.mc_s", "s", mc_s));

    let epochs: u64 = o.nets.iter().map(|n| n.epochs).sum();
    let auglag_s = o.phase("bench.auglag");
    m.push(metric("train.reference_s", "s", o.phase("bench.reference")));
    m.push(metric("train.auglag_s", "s", auglag_s));
    m.push(metric("train.finetune_s", "s", o.phase("bench.finetune")));
    m.push(metric("train.epochs", "count", epochs as f64));
    m.push(metric(
        "train.epochs_per_s",
        "1/s",
        ratio(epochs as f64, auglag_s),
    ));
    m.push(metric(
        "train.validate_s",
        "s",
        span_seconds(spans, "validate"),
    ));
    m.push(metric(
        "train.measure_s",
        "s",
        span_seconds(spans, "measure"),
    ));
    m.push(metric("train.fidelity_s", "s", o.phase("bench.fidelity")));

    m.push(metric(
        "autodiff.tape_forward_s",
        "s",
        span_seconds(spans, "tape_forward"),
    ));
    m.push(metric(
        "autodiff.tape_backward_s",
        "s",
        span_seconds(spans, "tape_backward"),
    ));
    m.push(metric(
        "autodiff.optimizer_step_s",
        "s",
        span_seconds(spans, "optimizer_step"),
    ));

    m.push(metric(
        "parallel.executor_items",
        "count",
        host.executor_items as f64,
    ));
    m.push(metric("datasets.generate_s", "s", host.setup_s));
    m.push(metric(
        "telemetry.trace_overhead_frac",
        "ratio",
        host.trace_overhead_frac,
    ));
    m.push(metric("host.wall_s", "s", host.wall_s));
    m.push(metric("host.runqueue_wait_s", "s", host.runqueue_s));
    m.push(metric("host.probe_s", "s", host.probe_s));
    m
}

/// Renders the benchmark's span tree: each `bench.` span with its
/// duration and the self-time its children leave unattributed; the
/// program's spans directly under it are summed by name.
fn phase_tree(spans: &[SpanRecord]) -> String {
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = String::from("phase tree (ms; self = not covered by child spans)\n");
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("bench."));
    for root in roots {
        // Phases of the same name (one per dataset or kind) are summed.
        let kids = children.get(&root.id).map_or(&[][..], Vec::as_slice);
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for k in kids {
            let grandkids: u64 = children
                .get(&k.id)
                .map_or(0, |g| g.iter().map(|g| g.dur_us).sum());
            let e = by_name.entry(k.name).or_default();
            e.0 += 1;
            e.1 += k.dur_us;
            e.2 += k.dur_us.saturating_sub(grandkids);
        }
        let covered: u64 = kids.iter().map(|k| k.dur_us).sum();
        out.push_str(&format!(
            "{:<28} {:>10.1}   self {:>9.1} ({:.1} %)\n",
            root.name,
            root.dur_us as f64 * 1e-3,
            root.dur_us.saturating_sub(covered) as f64 * 1e-3,
            ratio(
                root.dur_us.saturating_sub(covered) as f64,
                root.dur_us as f64
            ) * 100.0
        ));
        for (name, (calls, total, own)) in by_name {
            out.push_str(&format!(
                "  {:<26} {:>10.1}   self {:>9.1}   calls {calls}\n",
                name,
                total as f64 * 1e-3,
                own as f64 * 1e-3
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse_args(&argv("--workload train --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::Train));
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        let d = parse_args(&argv("--workload verify")).unwrap();
        assert_eq!(d.seed, 1);
        assert!(!d.trace);
        assert!(parse_args(&argv("--workload all"))
            .unwrap()
            .workload
            .is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload train --trace 2",
            "--workload train --seed -1",
            "--workload train --seconds",
            "--workload train --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn phase_tree_shows_unattributed_self_time() {
        let span = |id, parent, name, dur_us| SpanRecord {
            id,
            parent,
            name,
            tid: 0,
            start_us: 0,
            dur_us,
            attrs: Vec::new(),
        };
        let spans = vec![
            span(1, None, "bench.pipeline", 10_000),
            span(2, Some(1), "bench.auglag", 6_000),
            span(3, Some(2), "outer_iter", 5_000),
            span(4, Some(1), "bench.auglag", 3_000),
        ];
        let tree = phase_tree(&spans);
        // 10 ms − (6 + 3) ms of children = 1 ms unattributed.
        assert!(tree.contains("bench.pipeline"), "{tree}");
        assert!(tree.contains("self       1.0 (10.0 %)"), "{tree}");
        // Two auglag phases, 9 ms, of which 4 ms not covered by outer_iter.
        assert!(tree.contains("9.0   self       4.0   calls 2"), "{tree}");
    }
}
