//! The three workloads and the user path they share: characterize the
//! activation circuits, fit the surrogates, train under a power budget,
//! then export the networks and verify them under SPICE.
//!
//! Every step calls the crates' public functions; the benchmark's own
//! spans (names starting with `bench.`) wrap each call, and the
//! program's own spans nest under them when the profiler is enabled.

use pnc_bench::harness::CappedData;
use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::export::export_network;
use pnc_core::PrintedNetwork;
use pnc_datasets::{Dataset, DatasetId};
use pnc_linalg::Matrix;
use pnc_parallel::derive_seed;
use pnc_spice::stats::{self as spice_stats, SolverStatsSnapshot};
use pnc_spice::{AfKind, VariationModel};
use pnc_surrogate::{AfPowerDataset, AfTransferDataset, MlpConfig, PowerSurrogate};
use pnc_telemetry::{Profiler, Stopwatch, StreamHistogram, Telemetry};
use pnc_train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc_train::experiment::{
    build_network, unconstrained_reference, ExperimentFidelity, PreparedData,
};
use pnc_train::fidelity::{fidelity_sample, FidelityConfig};
use pnc_train::finetune::finetune;
use pnc_train::observer::TelemetryObserver;
use pnc_train::trainer::TrainConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A benchmark workload: a fixed amount of work on the whole user path,
/// sized so that one layer does most of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default-fidelity characterization of a 3-D and a 6-D activation
    /// kind, then a short Iris train and verify.
    Characterize,
    /// Smoke characterization, then reference + two budgets + finetune
    /// on four datasets.
    Train,
    /// Smoke characterization and training, then SPICE classification
    /// and Monte-Carlo prints of full-network circuits.
    Verify,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Characterize, Workload::Train, Workload::Verify];

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::Train => "train",
            Workload::Verify => "verify",
        }
    }

    fn plan(self) -> Plan {
        let smoke = ExperimentFidelity::smoke();
        // 340 epochs per inner solve: the learning-rate schedule cannot
        // reach its stopping rate before that (7 halvings × 50 stale
        // epochs), so every run trains a fixed number of epochs.
        let longer = ExperimentFidelity {
            train: TrainConfig {
                max_epochs: 340,
                patience: 50,
                ..TrainConfig::default()
            },
            ..smoke.clone()
        };
        let dataset = |id, cap, budgets, mc_prints| DatasetPlan {
            id,
            replica: 0,
            cap,
            val_cap: usize::MAX,
            budgets,
            mc_prints,
        };
        match self {
            Workload::Characterize => Plan {
                bundles: vec![
                    (AfKind::PRelu, SurrogateFidelity::default()),
                    (AfKind::PTanh, SurrogateFidelity::default()),
                ],
                train_kind: AfKind::PRelu,
                negation_grid: SurrogateFidelity::default().transfer_grid,
                fidelity: longer,
                datasets: vec![dataset(DatasetId::Iris, usize::MAX, &[0.6], 0)],
            },
            Workload::Train => Plan {
                bundles: vec![(AfKind::PTanh, SurrogateFidelity::smoke())],
                train_kind: AfKind::PTanh,
                negation_grid: SurrogateFidelity::smoke().transfer_grid,
                fidelity: longer,
                datasets: [
                    DatasetId::Seeds,
                    DatasetId::VertebralColumn,
                    DatasetId::BreastCancer,
                    DatasetId::BalanceScale,
                ]
                .into_iter()
                .map(|id| dataset(id, 200, &[0.3, 0.6], 0))
                .collect(),
            },
            Workload::Verify => {
                // The exported circuit's size and sparsity follow the
                // trained weights, and one Pendigits design's SPICE cost
                // varies by ±25 % from seed to seed. So the Monte-Carlo
                // prints are spread over twelve designs: replica 0 is
                // also trained under the budget and SPICE-classified,
                // replicas 1..12 train only their reference design.
                // Pendigits validation is capped so that twelve designs
                // train in about two seconds.
                let pendigits = |replica, budgets| DatasetPlan {
                    replica,
                    val_cap: 400,
                    ..dataset(DatasetId::Pendigits, 300, budgets, PENDIGITS_PRINTS)
                };
                let mut datasets = vec![
                    dataset(DatasetId::Iris, usize::MAX, &[0.6], 40),
                    pendigits(0, &[0.6]),
                ];
                datasets.extend((1..PENDIGITS_DESIGNS).map(|r| pendigits(r, &[])));
                Plan {
                    bundles: vec![(AfKind::PRelu, SurrogateFidelity::smoke())],
                    train_kind: AfKind::PRelu,
                    negation_grid: SurrogateFidelity::smoke().transfer_grid,
                    fidelity: smoke,
                    datasets,
                }
            }
        }
    }
}

/// Pendigits designs whose reference circuits get Monte-Carlo prints on
/// the `verify` workload.
const PENDIGITS_DESIGNS: u64 = 12;

/// Monte-Carlo prints per Pendigits design on the `verify` workload.
const PENDIGITS_PRINTS: usize = 6;

/// One dataset of a workload.
#[derive(Debug, Clone)]
struct DatasetPlan {
    id: DatasetId,
    /// Distinguishes repeated entries of one dataset (own seed streams).
    replica: u64,
    /// Training-row cap.
    cap: usize,
    /// Validation-row cap (the test set is never capped).
    val_cap: usize,
    /// Budgets as fractions of the unconstrained reference power.
    budgets: &'static [f64],
    /// Monte-Carlo prints of the reference design on the test set.
    mc_prints: usize,
}

/// What a workload runs.
#[derive(Debug, Clone)]
struct Plan {
    /// Activation kinds to characterize, each at its fidelity.
    bundles: Vec<(AfKind, SurrogateFidelity)>,
    /// Kind whose surrogates the trained networks use.
    train_kind: AfKind,
    /// Grid points of the negation-cell characterization.
    negation_grid: usize,
    /// Training settings (inner loop, outer iterations, μ).
    fidelity: ExperimentFidelity,
    datasets: Vec<DatasetPlan>,
}

/// The generated inputs of one dataset: the program receives only
/// these.
#[derive(Debug, Clone)]
pub struct DatasetInputs {
    plan: DatasetPlan,
    data: CappedData,
    init_seed: u64,
    mc_seed: u64,
}

/// A workload's generated inputs, all derived from the workload seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    plan: Plan,
    datasets: Vec<DatasetInputs>,
}

/// Generates and splits every dataset of `workload` from `seed`, and
/// derives the initialization and Monte-Carlo seeds. Characterization
/// takes no random input: its Sobol points are fixed by the activation
/// kind and the surrogate fits use the program's default MLP seed.
/// This is the set-up the benchmark times as `setup_s`.
pub fn generate_inputs(workload: Workload, seed: u64) -> Inputs {
    let plan = workload.plan();
    // Each dataset is generated once; its replicas differ in split and
    // initialization.
    let mut generated: BTreeMap<u64, Dataset> = BTreeMap::new();
    let datasets = plan
        .datasets
        .iter()
        .map(|p| {
            let id = p.id as u64;
            let dataset = generated
                .entry(id)
                .or_insert_with(|| Dataset::generate(p.id, derive_seed(seed, 1 << 16 | id)))
                .clone();
            let stream = |salt: u64| derive_seed(seed, salt << 16 | p.replica << 8 | id);
            let split = dataset.split(stream(2));
            let prep = PreparedData { dataset, split };
            let mut data = CappedData::new(&prep, p.cap);
            if data.y_val.len() > p.val_cap {
                let rows: Vec<usize> = (0..p.val_cap).collect();
                data.x_val = data.x_val.select_rows(&rows);
                data.y_val.truncate(p.val_cap);
            }
            DatasetInputs {
                plan: p.clone(),
                data,
                init_seed: stream(3),
                mc_seed: stream(4),
            }
        })
        .collect();
    Inputs { plan, datasets }
}

/// Solver work inside one or more measurement windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpiceWork {
    /// Solves attempted.
    pub solves: u64,
    /// Newton iterations across those solves.
    pub newton_iters: u64,
    /// Solves that started from a warm state.
    pub warm_started: u64,
    /// Solves that returned an error.
    pub failed: u64,
    /// Full sparse factorizations.
    pub factorizations: u64,
    /// Sparse refactorizations reusing a frozen structure.
    pub refactorizations: u64,
    /// Seconds spent inside the solver.
    pub solve_s: f64,
}

impl SpiceWork {
    fn add(&mut self, s: &SolverStatsSnapshot, solve_s: f64) {
        self.solves += s.solves;
        self.newton_iters += s.newton_iterations;
        self.warm_started += s.warm_started_solves;
        self.failed += s.failures;
        self.factorizations += s.factorizations;
        self.refactorizations += s.refactorizations;
        self.solve_s += solve_s;
    }
}

/// Surrogate quality and cost of one characterized kind.
#[derive(Debug, Clone, Copy)]
pub struct BundleOutcome {
    /// Kind characterized.
    pub kind: AfKind,
    /// Validation R² of the power surrogate.
    pub power_r2: f64,
    /// Fit RMSE of the transfer surrogate, volts.
    pub transfer_rmse_v: f64,
    /// Seconds of power-characterization sampling.
    pub power_sample_s: f64,
    /// Solver seconds inside that sampling.
    pub power_solve_s: f64,
    /// Seconds of the power-surrogate MLP fit.
    pub mlp_fit_s: f64,
    /// Floating-point operations of that fit, forward plus backward.
    pub mlp_flop: f64,
    /// Sobol points requested (power plus transfer).
    pub sobol_points: u64,
    /// Sobol points whose simulation failed.
    pub sobol_failed: u64,
}

/// One trained network.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Dataset trained on.
    pub id: DatasetId,
    /// Budget fraction of the reference power.
    pub budget_frac: f64,
    /// Budget, watts.
    pub budget_watts: f64,
    /// Hard power on the training rows, watts.
    pub hard_power_watts: f64,
    /// Whether the training and fine-tuning reports call it feasible.
    pub reported_feasible: bool,
    /// Augmented-Lagrangian epochs.
    pub epochs: u64,
    /// Surrogate-model test accuracy.
    pub test_accuracy: f64,
    /// Result of the power attribution tree's children-sum check.
    pub attribution: Result<(), String>,
    /// Surrogate-vs-SPICE circuit-power relative error.
    pub fidelity_rel_err: f64,
}

/// SPICE verification of one exported network.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Dataset verified.
    pub id: DatasetId,
    /// Test rows classified.
    pub rows: u64,
    /// Rows SPICE classifies correctly.
    pub spice_correct: u64,
    /// Rows where SPICE and the surrogate model agree.
    pub agree: u64,
    /// Nodes of the exported circuit.
    pub nodes: u64,
}

/// Monte-Carlo prints of one exported reference design.
#[derive(Debug, Clone)]
pub struct McOutcome {
    /// Dataset the design was trained on.
    pub id: DatasetId,
    /// Nodes of the exported circuit.
    pub nodes: u64,
    /// Per-print test accuracies (`NaN` = the print failed to simulate).
    pub accuracies: Vec<f64>,
}

/// Everything one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Per-kind surrogate results.
    pub bundles: Vec<BundleOutcome>,
    /// Trained networks.
    pub nets: Vec<NetOutcome>,
    /// Verified networks.
    pub verified: Vec<VerifyOutcome>,
    /// Monte-Carlo analyses.
    pub monte_carlo: Vec<McOutcome>,
    /// Training runs (references plus constrained runs).
    pub training_runs: u64,
    /// Solver work on activation cells (characterization and fidelity).
    pub spice_af: SpiceWork,
    /// Solver work on full-network circuits (classify and Monte Carlo).
    pub spice_net: SpiceWork,
    /// Per-solve times of full-network solves, milliseconds.
    pub net_solve_ms: StreamHistogram,
    /// Wall seconds per benchmark phase, keyed by span name.
    pub phase_s: BTreeMap<&'static str, f64>,
    /// Failures that make the run incorrect.
    pub errors: Vec<String>,
}

/// Times each phase with a [`Stopwatch`] and opens a span of the same
/// name on the profiler (inert when the profiler is disabled).
struct Phases {
    prof: Profiler,
    secs: BTreeMap<&'static str, f64>,
}

impl Phases {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Like [`Phases::time`], also returning this call's seconds.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.prof.scope(name);
        let sw = Stopwatch::start();
        let out = f();
        let secs = sw.elapsed().as_secs_f64();
        *self.secs.entry(name).or_default() += secs;
        (out, secs)
    }
}

/// Runs `f` with the process-wide solver counters isolated to it and
/// returns its value, the counters, and the solver seconds inside it.
fn spice_window<T>(f: impl FnOnce() -> T) -> (T, SolverStatsSnapshot, StreamHistogram) {
    let _ = spice_stats::take();
    let value = f();
    let times = StreamHistogram::new();
    times.merge_from(&spice_stats::solve_time_histogram());
    (value, spice_stats::take(), times)
}

fn solve_seconds(times: &StreamHistogram) -> f64 {
    let s = times.summary();
    s.mean * s.count as f64 * 1e-3
}

/// Floating-point operations of full-batch MLP training: per row and
/// epoch, 2·in·out for the forward product and 4·in·out for the two
/// backward products, summed over layers.
pub fn mlp_training_flop(inputs: usize, cfg: &MlpConfig, rows: usize) -> f64 {
    let mut widths = vec![inputs];
    widths.extend(&cfg.hidden);
    widths.push(1);
    let per_row: usize = widths.windows(2).map(|w| 6 * w[0] * w[1]).sum();
    per_row as f64 * rows as f64 * cfg.epochs as f64
}

/// `3d` or `6d`: the design-space dimension in per-layer metric names.
pub fn design_dim_name(kind: AfKind) -> &'static str {
    if kind.dim() <= 3 {
        "3d"
    } else {
        "6d"
    }
}

/// Runs one pass of the user path on `inputs`. `prof` receives the
/// benchmark's spans and, through the `_with`/`_traced`/`_observed`
/// entry points, the program's own spans.
pub fn run(inputs: &Inputs, prof: &Profiler) -> Outcome {
    let mut phases = Phases {
        prof: prof.clone(),
        secs: BTreeMap::new(),
    };
    let mut out = Outcome {
        net_solve_ms: StreamHistogram::new(),
        ..Outcome::default()
    };
    let _root = prof.scope("bench.pipeline");
    if let Err(e) = run_path(inputs, prof, &mut phases, &mut out) {
        out.errors.push(e);
    }
    out.phase_s = phases.secs;
    out
}

fn run_path(
    inputs: &Inputs,
    prof: &Profiler,
    phases: &mut Phases,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = &inputs.plan;
    // Per-point `dc_solve` spans slow characterization by about a third,
    // so the sweeps get a telemetry handle without the profiler: the
    // solver's own always-on timing splits them instead
    // (`sample_overhead_s`).
    let sweep_tel = Telemetry::disabled();
    let tel = Telemetry::disabled().with_profiler(prof.clone());

    let mut train_activation = None;
    for (kind, fid) in &plan.bundles {
        let kind = *kind;
        let ((ds, stats, times), power_sample_s) = phases.timed("bench.power_sample", || {
            spice_window(|| {
                AfPowerDataset::generate_traced(
                    kind,
                    fid.power.samples,
                    fid.power.grid_points,
                    &sweep_tel,
                )
            })
        });
        let power_solve_s = solve_seconds(&times);
        out.spice_af.add(&stats, power_solve_s);
        let ds = ds.map_err(|e| format!("{} power characterization: {e}", kind.name()))?;
        let power_kept = ds.len();

        let mlp = &fid.power.mlp;
        let (power, mlp_fit_s) = phases.timed("bench.mlp_fit", || {
            PowerSurrogate::fit_from_dataset_with(&ds, mlp, &tel)
        });
        let power = power.map_err(|e| format!("{} power fit: {e}", kind.name()))?;
        let train_rows = ds.len() - ds.len().div_ceil(5);

        let (tds, stats, times) = phases.time("bench.transfer_sample", || {
            spice_window(|| {
                AfTransferDataset::generate_traced(
                    kind,
                    fid.transfer_samples,
                    fid.transfer_grid,
                    &sweep_tel,
                )
            })
        });
        out.spice_af.add(&stats, solve_seconds(&times));
        let tds = tds.map_err(|e| format!("{} transfer characterization: {e}", kind.name()))?;
        let transfer = phases
            .time("bench.transfer_fit", || {
                pnc_surrogate::transfer::fit_transfer_from_dataset(&tds)
            })
            .map_err(|e| format!("{} transfer fit: {e}", kind.name()))?;

        let requested = (fid.power.samples + fid.transfer_samples) as u64;
        out.bundles.push(BundleOutcome {
            kind,
            power_r2: power.validation_r2(),
            transfer_rmse_v: transfer.fit_rmse(),
            power_sample_s,
            power_solve_s,
            mlp_fit_s,
            mlp_flop: mlp_training_flop(kind.dim(), mlp, train_rows),
            sobol_points: requested,
            sobol_failed: requested - (power_kept + tds.len()) as u64,
        });
        if kind == plan.train_kind {
            train_activation = Some(LearnableActivation::from_parts(kind, transfer, power));
        }
    }
    let activation =
        train_activation.ok_or_else(|| "training kind was not characterized".to_string())?;
    let (negation, stats, times) = phases.time("bench.negation_fit", || {
        spice_window(|| fit_negation_model(plan.negation_grid))
    });
    out.spice_af.add(&stats, solve_seconds(&times));
    let negation = negation.map_err(|e| format!("negation fit: {e}"))?;

    // Train every dataset at every budget.
    let fidelity = &plan.fidelity;
    let mut trained: Vec<(usize, PrintedNetwork)> = Vec::new();
    let mut references: Vec<PrintedNetwork> = Vec::new();
    for (k, d) in inputs.datasets.iter().enumerate() {
        let refs = d.data.refs();
        let (reference, p_max) = phases
            .time("bench.reference", || {
                unconstrained_reference(
                    d.plan.id,
                    &activation,
                    &negation,
                    &refs,
                    &fidelity.train,
                    d.init_seed,
                )
            })
            .map_err(|e| format!("{} reference: {e}", d.plan.id.name()))?;
        references.push(reference);
        out.training_runs += 1;
        for &frac in d.plan.budgets {
            let budget_watts = frac * p_max;
            let mut net = build_network(d.plan.id, &activation, &negation, d.init_seed);
            let cfg = AugLagConfig {
                budget_watts,
                mu: fidelity.mu,
                outer_iters: fidelity.auglag_outer,
                inner: fidelity.train.with_seed(d.init_seed),
                warm_start: true,
                rescue: true,
            };
            let report = phases
                .time("bench.auglag", || {
                    let mut observer = TelemetryObserver::new(tel.clone());
                    let r = train_auglag_observed(&mut net, &refs, &cfg, &mut observer);
                    observer.finish();
                    r
                })
                .map_err(|e| format!("{} auglag: {e}", d.plan.id.name()))?;
            let ft = phases
                .time("bench.finetune", || {
                    finetune(&mut net, &refs, budget_watts, &fidelity.train)
                })
                .map_err(|e| format!("{} finetune: {e}", d.plan.id.name()))?;
            out.training_runs += 1;
            let hard = hard_power(&net, refs.x_train).map_err(|e| e.to_string())?;
            let attribution = net
                .power_report(refs.x_train)
                .map_err(|e| e.to_string())?
                .attribution()
                .check_sum();
            let test_accuracy = net
                .accuracy(&d.data.x_test, &d.data.y_test)
                .map_err(|e| e.to_string())?;
            out.nets.push(NetOutcome {
                id: d.plan.id,
                budget_frac: frac,
                budget_watts,
                hard_power_watts: hard,
                reported_feasible: report.feasible && ft.feasible,
                epochs: report.outer.iter().map(|o| o.fit.epochs as u64).sum(),
                test_accuracy,
                attribution,
                fidelity_rel_err: f64::NAN,
            });
            trained.push((k, net));
        }
    }

    // Surrogate-vs-SPICE power of every trained network.
    let grid = FidelityConfig::default().grid_points;
    let (samples, stats, times) = phases.time("bench.fidelity", || {
        spice_window(|| {
            trained
                .iter()
                .map(|(_, net)| fidelity_sample(net, grid))
                .collect::<Vec<_>>()
        })
    });
    out.spice_af.add(&stats, solve_seconds(&times));
    for (n, s) in out.nets.iter_mut().zip(samples) {
        n.fidelity_rel_err = s
            .map_err(|e| format!("{} fidelity: {e}", n.id.name()))?
            .rel_err();
    }

    // Export the last-trained network of each dataset and classify
    // every test row under SPICE.
    let mut last_of: BTreeMap<usize, &PrintedNetwork> = BTreeMap::new();
    for (k, net) in &trained {
        last_of.insert(*k, net);
    }
    for (k, net) in last_of {
        let d = &inputs.datasets[k];
        let exported = phases
            .time("bench.export", || export_network(net))
            .map_err(|e| format!("{} export: {e}", d.plan.id.name()))?;
        let x_test: &Matrix = &d.data.x_test;
        let (classes, stats, times) = phases.time("bench.classify", || {
            spice_window(|| exported.classify(x_test))
        });
        out.spice_net.add(&stats, solve_seconds(&times));
        out.net_solve_ms.merge_from(&times);
        let classes = classes.map_err(|e| format!("{} SPICE classify: {e}", d.plan.id.name()))?;
        let logits = net.predict(x_test).map_err(|e| e.to_string())?;
        let mut v = VerifyOutcome {
            id: d.plan.id,
            rows: classes.len() as u64,
            spice_correct: 0,
            agree: 0,
            nodes: exported.circuit().node_count() as u64,
        };
        for (i, (&c, &label)) in classes.iter().zip(&d.data.y_test).enumerate() {
            let row = logits.row_slice(i);
            let mut best = 0usize;
            for (j, &z) in row.iter().enumerate() {
                if z > row[best] {
                    best = j;
                }
            }
            v.spice_correct += u64::from(c == label);
            v.agree += u64::from(c == best);
        }
        out.verified.push(v);
    }

    // Monte-Carlo prints run on the unconstrained reference designs:
    // they keep every device the weights call for, so the circuits are
    // the largest the topology allows.
    for (d, reference) in inputs.datasets.iter().zip(&references) {
        if d.plan.mc_prints == 0 {
            continue;
        }
        let exported = phases
            .time("bench.export", || export_network(reference))
            .map_err(|e| format!("{} reference export: {e}", d.plan.id.name()))?;
        let (mc, stats, times) = phases.time("bench.monte_carlo", || {
            spice_window(|| {
                exported.monte_carlo(
                    &d.data.x_test,
                    &d.data.y_test,
                    &VariationModel::default(),
                    d.plan.mc_prints,
                    d.mc_seed,
                )
            })
        });
        out.spice_net.add(&stats, solve_seconds(&times));
        out.net_solve_ms.merge_from(&times);
        out.monte_carlo.push(McOutcome {
            id: d.plan.id,
            nodes: exported.circuit().node_count() as u64,
            accuracies: mc.accuracies,
        });
    }
    Ok(())
}

impl Outcome {
    /// Sobol points requested across all characterized kinds.
    pub fn sobol_points(&self) -> u64 {
        self.bundles.iter().map(|b| b.sobol_points).sum()
    }

    /// Rows SPICE classified.
    pub fn verified_rows(&self) -> u64 {
        self.verified.iter().map(|v| v.rows).sum()
    }

    /// Monte-Carlo prints simulated.
    pub fn mc_prints(&self) -> u64 {
        self.monte_carlo
            .iter()
            .map(|m| m.accuracies.len() as u64)
            .sum()
    }

    /// Monte-Carlo prints that failed to simulate.
    pub fn mc_failed(&self) -> u64 {
        let failed = |m: &McOutcome| m.accuracies.iter().filter(|a| a.is_nan()).count();
        self.monte_carlo.iter().map(|m| failed(m) as u64).sum()
    }

    /// Seconds of the named benchmark phase (0 when it did not run).
    pub fn phase(&self, name: &str) -> f64 {
        self.phase_s.get(name).copied().unwrap_or(0.0)
    }

    /// A canonical rendering of every deterministic output; two runs of
    /// the same code and seed must produce identical text.
    pub fn digest_text(&self) -> String {
        let mut s = String::new();
        for b in &self.bundles {
            let _ = write!(
                s,
                "bundle {} r2={:016x} rmse={:016x} failed={};",
                b.kind.name(),
                b.power_r2.to_bits(),
                b.transfer_rmse_v.to_bits(),
                b.sobol_failed
            );
        }
        for n in &self.nets {
            let _ = write!(
                s,
                "net {} {} epochs={} acc={:016x} power={:016x} fid={:016x};",
                n.id.name(),
                n.budget_frac,
                n.epochs,
                n.test_accuracy.to_bits(),
                n.hard_power_watts.to_bits(),
                n.fidelity_rel_err.to_bits()
            );
        }
        for v in &self.verified {
            let _ = write!(
                s,
                "verify {} correct={} agree={} nodes={};",
                v.id.name(),
                v.spice_correct,
                v.agree,
                v.nodes
            );
        }
        for m in &self.monte_carlo {
            let _ = write!(s, "mc {} nodes={} acc=[", m.id.name(), m.nodes);
            for a in &m.accuracies {
                let _ = write!(s, "{:016x},", a.to_bits());
            }
            s.push_str("];");
        }
        for (name, w) in [("af", &self.spice_af), ("net", &self.spice_net)] {
            let _ = write!(
                s,
                "spice {name} solves={} iters={} warm={} failed={} fact={} refact={};",
                w.solves,
                w.newton_iters,
                w.warm_started,
                w.failed,
                w.factorizations,
                w.refactorizations
            );
        }
        s
    }
}

/// FNV-1a 64-bit hash (the digest printed for bit-for-bit comparison).
pub fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn inputs_derive_from_the_seed() {
        let a = generate_inputs(Workload::Verify, 1);
        let b = generate_inputs(Workload::Verify, 1);
        let c = generate_inputs(Workload::Verify, 2);
        assert_eq!(a.datasets[0].data.x_train, b.datasets[0].data.x_train);
        assert_ne!(a.datasets[0].data.x_train, c.datasets[0].data.x_train);
        assert_ne!(a.datasets[0].init_seed, a.datasets[1].init_seed);
        // Replicas of one dataset get their own split and streams.
        assert_ne!(a.datasets[1].init_seed, a.datasets[2].init_seed);
        assert_ne!(a.datasets[1].data.x_train, a.datasets[2].data.x_train);
        assert_eq!(a.datasets[1].data.y_val.len(), 400);
        assert_eq!(a.datasets[0].data.y_val.len(), 30);
    }

    #[test]
    fn mlp_flop_counts_every_layer() {
        let cfg = MlpConfig {
            hidden: vec![4, 3],
            epochs: 10,
            ..MlpConfig::default()
        };
        // Layers 2→4, 4→3, 3→1: 6·(8 + 12 + 3) flops per row and epoch.
        assert_eq!(mlp_training_flop(2, &cfg, 5), 6.0 * 23.0 * 5.0 * 10.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
