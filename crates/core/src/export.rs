//! Transistor-level netlist export of trained printed networks.
//!
//! This is the "compiler backend" a downstream user needs: a trained
//! [`PrintedNetwork`] is lowered to the complete analog circuit that
//! would be inkjet-printed — crossbar resistors (one per surviving
//! conductance, `R = 1/(|θ|·G_MAX)`), one shared negation inverter per
//! input line that feeds any negative weight, and one activation
//! circuit per active output, all between the ±1 V rails.
//!
//! Two consumers:
//!
//! * [`ExportedNetwork::to_spice_string`] — a SPICE-flavoured text
//!   netlist for external tools and for the lab notebook.
//! * [`ExportedNetwork::simulate`] / [`ExportedNetwork::classify`] —
//!   full-circuit DC inference with the in-repo solver (one DC session
//!   per call), used to **cross-validate the differentiable
//!   abstraction against the transistor-level circuit** (see the
//!   `model_fidelity` integration test and experiment). The abstract
//!   model ignores inter-stage loading (activation outputs are assumed
//!   ideal voltage sources); the exported circuit does not, so the
//!   agreement between the two quantifies that abstraction gap.

use crate::count::CountConfig;
use crate::crossbar::G_MAX;
use crate::network::PrintedNetwork;
use crate::CoreError;
use pnc_linalg::Matrix;
use pnc_spice::af::{attach_negation, VDD, VSS};
use pnc_spice::dc::{DcSession, OperatingPoint, SolverConfig};
use pnc_spice::netlist::{Circuit, Element};
use pnc_spice::power::total_power;
use pnc_spice::variation::VariationModel;
use pnc_spice::{NodeId, SpiceError};

/// Lowering options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportConfig {
    /// Insert ideal unity-gain buffers between stages (after every
    /// activation output that feeds another crossbar, and after every
    /// negation output). The differentiable training abstraction treats
    /// stage outputs as ideal voltage sources; buffering makes the
    /// lowered circuit match that assumption. Disable to study the
    /// unbuffered inter-stage loading gap.
    pub buffered_stages: bool,
}

impl Default for ExportConfig {
    fn default() -> Self {
        ExportConfig {
            buffered_stages: true,
        }
    }
}

/// A lowered, printable circuit with handles for simulation.
///
/// Full-circuit inference runs in [`DcSession`]s:
/// [`ExportedNetwork::simulate`], [`ExportedNetwork::simulate_rows`] and
/// [`ExportedNetwork::classify`] open one session per call over a copy
/// of the circuit, [`ExportedNetwork::monte_carlo`] one per print over
/// that print's perturbed copy. Between rows a session changes only the
/// input sources, so it keeps the sparse LU's pivot order (the
/// pivot-drift guard still re-pivots) and warm-starts each row from the
/// previous row's solution. Results depend only on the circuit (for a
/// print, its index) and the row order, never on the thread count.
#[derive(Debug, Clone)]
pub struct ExportedNetwork {
    circuit: Circuit,
    input_sources: Vec<usize>,
    output_nodes: Vec<NodeId>,
    stats: ExportStats,
}

/// Device statistics of an exported circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Crossbar resistors printed.
    pub crossbar_resistors: usize,
    /// Negation inverters printed.
    pub negation_circuits: usize,
    /// Activation circuits printed.
    pub activation_circuits: usize,
    /// Total transistors in the netlist.
    pub transistors: usize,
    /// Total resistors in the netlist.
    pub resistors: usize,
}

impl ExportedNetwork {
    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Export statistics.
    pub fn stats(&self) -> ExportStats {
        self.stats
    }

    /// Output node per class.
    pub fn output_nodes(&self) -> &[NodeId] {
        &self.output_nodes
    }

    /// Opens a DC session over `circuit` (the exported circuit or a
    /// perturbed copy of it) with the inference solver settings.
    fn session(circuit: Circuit) -> DcSession {
        DcSession::new(
            circuit,
            SolverConfig {
                max_iterations: 300,
                ..SolverConfig::default()
            },
        )
    }

    /// Solves the rows of `x` in order inside one session, each row
    /// warm-started from the previous row's solution, and hands every
    /// row index and operating point to `visit` with the session's
    /// circuit. The result depends only on the circuit and the row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols()` differs from the network input count.
    fn solve_rows(
        &self,
        session: &mut DcSession,
        x: &Matrix,
        mut visit: impl FnMut(usize, &Circuit, &OperatingPoint),
    ) -> Result<(), SpiceError> {
        assert_eq!(
            x.cols(),
            self.input_sources.len(),
            "simulate: expected {} features",
            self.input_sources.len()
        );
        let mut prev: Option<Vec<f64>> = None;
        for i in 0..x.rows() {
            for (&src, &v) in self.input_sources.iter().zip(x.row_slice(i)) {
                session.set_vsource(src, v)?;
            }
            let op = session.solve(prev.as_deref())?;
            visit(i, session.circuit(), &op);
            prev = Some(op.state());
        }
        Ok(())
    }

    /// Output-node voltages of a solved operating point.
    fn outputs(&self, op: &OperatingPoint) -> Vec<f64> {
        self.output_nodes.iter().map(|&n| op.voltage(n)).collect()
    }

    /// Runs full-circuit DC inference for one feature vector, returning
    /// the output-node voltages (hardware argmax = predicted class).
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    ///
    /// # Panics
    ///
    /// Panics when `features.len()` differs from the network input
    /// count.
    pub fn simulate(&self, features: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let row = Matrix::from_rows(&[features]);
        Ok(self.simulate_rows(&row)?.remove(0))
    }

    /// Full-circuit DC inference for every row of `x`: one DC session
    /// over the exported circuit, each row warm-started from the
    /// previous row's solution. Returns the output-node voltages per
    /// row.
    ///
    /// # Errors
    ///
    /// Propagates the first DC failure.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols()` differs from the network input count.
    pub fn simulate_rows(&self, x: &Matrix) -> Result<Vec<Vec<f64>>, SpiceError> {
        let mut session = Self::session(self.circuit.clone());
        let mut out = Vec::with_capacity(x.rows());
        self.solve_rows(&mut session, x, |_, _, op| out.push(self.outputs(op)))?;
        Ok(out)
    }

    /// Batch inference: argmax class per row of `x` (see
    /// [`ExportedNetwork::simulate_rows`]).
    ///
    /// # Errors
    ///
    /// Propagates the first DC failure.
    pub fn classify(&self, x: &Matrix) -> Result<Vec<usize>, SpiceError> {
        Ok(self.simulate_rows(x)?.iter().map(|v| argmax(v)).collect())
    }

    /// Monte Carlo robustness under printing variation: fabricates
    /// `prints` perturbed copies of the circuit and evaluates each on
    /// `(x, labels)`. Returns per-print accuracies and mean powers.
    ///
    /// Print `p` perturbs from its own RNG seeded with
    /// `derive_seed(seed, p)` rather than one shared stream advanced in
    /// loop order, and solves its rows in order inside its own DC
    /// session (each row warm-started from the previous one). A print's
    /// result therefore depends only on its index, and the report is
    /// bit-identical for any executor thread count (trials fan out
    /// over [`pnc_parallel::ExecutorHandle`]).
    ///
    /// Prints whose DC analysis fails to converge on any sample are
    /// reported with `NaN` accuracy (rare; counted by the caller as
    /// yield loss).
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != x.rows()`.
    pub fn monte_carlo(
        &self,
        x: &Matrix,
        labels: &[usize],
        variation: &VariationModel,
        prints: usize,
        seed: u64,
    ) -> MonteCarloReport {
        assert_eq!(x.rows(), labels.len(), "monte_carlo: label count");
        let trials: Vec<usize> = (0..prints).collect();
        let per_print: Vec<(f64, f64)> =
            pnc_parallel::ExecutorHandle::get().par_map(&trials, |_, &p| {
                let mut rng = pnc_linalg::rng::seeded(pnc_parallel::derive_seed(seed, p as u64));
                let mut session = Self::session(variation.sample(&self.circuit, &mut rng));
                let mut correct = 0usize;
                let mut power_acc = 0.0;
                let solved = self.solve_rows(&mut session, x, |i, circuit, op| {
                    correct += usize::from(argmax(&self.outputs(op)) == labels[i]);
                    power_acc += total_power(circuit, op);
                });
                match solved {
                    Ok(()) => (
                        correct as f64 / x.rows() as f64,
                        power_acc / x.rows() as f64,
                    ),
                    Err(_) => (f64::NAN, f64::NAN),
                }
            });
        MonteCarloReport {
            accuracies: per_print.iter().map(|&(a, _)| a).collect(),
            powers_watts: per_print.iter().map(|&(_, p)| p).collect(),
        }
    }

    /// Renders a SPICE-flavoured text netlist. nEGTs are emitted as
    /// `M<idx> drain gate source egt_n W=<w> L=<l>` cards referencing
    /// an `egt_n` model the header documents.
    pub fn to_spice_string(&self) -> String {
        let mut s = String::new();
        s.push_str("* pNC netlist exported by the pnc workspace\n");
        s.push_str("* supplies: VDD=+1V, VSS=-1V; model egt_n: EKV-style printed nEGT\n");
        s.push_str(&format!(
            "* devices: {} R, {} EGT ({} crossbar R, {} negation cells, {} activation circuits)\n",
            self.stats.resistors,
            self.stats.transistors,
            self.stats.crossbar_resistors,
            self.stats.negation_circuits,
            self.stats.activation_circuits,
        ));
        let name = |n: NodeId| -> String {
            if n == Circuit::GROUND {
                "0".to_string()
            } else {
                format!("n{n}_{}", self.circuit.node_name(n))
            }
        };
        let mut r_idx = 0usize;
        let mut v_idx = 0usize;
        let mut m_idx = 0usize;
        for e in self.circuit.elements() {
            match *e {
                Element::Resistor { a, b, ohms } => {
                    r_idx += 1;
                    s.push_str(&format!("R{r_idx} {} {} {ohms:.1}\n", name(a), name(b)));
                }
                Element::VSource { plus, minus, volts } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "V{v_idx} {} {} DC {volts:.6}\n",
                        name(plus),
                        name(minus)
                    ));
                }
                Element::Capacitor { a, b, farads } => {
                    r_idx += 1;
                    s.push_str(&format!("C{r_idx} {} {} {farads:.3e}\n", name(a), name(b)));
                }
                Element::ISource { plus, minus, amps } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "I{v_idx} {} {} DC {amps:.6e}\n",
                        name(plus),
                        name(minus)
                    ));
                }
                Element::Vcvs {
                    plus,
                    minus,
                    ctrl_p,
                    ctrl_n,
                    gain,
                } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "E{v_idx} {} {} {} {} {gain:.6}\n",
                        name(plus),
                        name(minus),
                        name(ctrl_p),
                        name(ctrl_n)
                    ));
                }
                Element::Egt {
                    drain,
                    gate,
                    source,
                    w,
                    l,
                    ..
                } => {
                    m_idx += 1;
                    s.push_str(&format!(
                        "M{m_idx} {} {} {} egt_n W={w:.3e} L={l:.3e}\n",
                        name(drain),
                        name(gate),
                        name(source)
                    ));
                }
            }
        }
        s.push_str(".end\n");
        s
    }
}

/// Index of the largest value (the first one on ties).
fn argmax(v: &[f64]) -> usize {
    let mut best = 0usize;
    for (k, &val) in v.iter().enumerate() {
        if val > v[best] {
            best = k;
        }
    }
    best
}

/// Monte Carlo variation-analysis results.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Classification accuracy of each simulated print (`NaN` = the
    /// print failed to simulate).
    pub accuracies: Vec<f64>,
    /// Mean power of each print over the evaluation inputs, watts.
    pub powers_watts: Vec<f64>,
}

impl MonteCarloReport {
    /// Mean accuracy over successfully simulated prints.
    pub fn mean_accuracy(&self) -> f64 {
        let ok: Vec<f64> = self
            .accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }

    /// Standard deviation of accuracy over successful prints.
    pub fn std_accuracy(&self) -> f64 {
        let ok: Vec<f64> = self
            .accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .collect();
        let m = ok.iter().sum::<f64>() / ok.len().max(1) as f64;
        (ok.iter().map(|a| (a - m) * (a - m)).sum::<f64>() / ok.len().max(1) as f64).sqrt()
    }

    /// Worst-print accuracy.
    pub fn min_accuracy(&self) -> f64 {
        self.accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Fraction of prints that simulated successfully.
    pub fn yield_rate(&self) -> f64 {
        let ok = self.accuracies.iter().filter(|a| a.is_finite()).count();
        ok as f64 / self.accuracies.len().max(1) as f64
    }

    /// Mean power across successful prints, watts.
    pub fn mean_power(&self) -> f64 {
        let ok: Vec<f64> = self
            .powers_watts
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }
}

/// Lowers a trained network to its printable circuit.
///
/// Conductances with `|θ| ≤ cfg.count.threshold` (or masked entries)
/// are not printed; input lines whose weights are all positive get no
/// negation inverter; output columns with no surviving conductance get
/// no activation circuit (their node floats at 0 via a ground tie).
///
/// # Errors
///
/// Returns [`CoreError::InvalidTopology`] if the network has no layers
/// (cannot happen through the public constructor).
pub fn export_network(net: &PrintedNetwork) -> Result<ExportedNetwork, CoreError> {
    export_network_with(net, &ExportConfig::default())
}

/// Lowers a trained network with explicit options (see
/// [`ExportConfig`]).
///
/// # Errors
///
/// Same conditions as [`export_network`].
pub fn export_network_with(
    net: &PrintedNetwork,
    options: &ExportConfig,
) -> Result<ExportedNetwork, CoreError> {
    if net.layer_count() == 0 {
        return Err(CoreError::InvalidTopology {
            message: "network has no layers".to_string(),
        });
    }
    let cfg: CountConfig = net.config().count;
    let tau = cfg.threshold;
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    c.vsource(vdd, Circuit::GROUND, VDD);
    c.vsource(vss, Circuit::GROUND, VSS);

    let mut stats = ExportStats::default();

    // Input lines driven by ideal sensor sources.
    let mut lines: Vec<NodeId> = Vec::with_capacity(net.inputs());
    let mut input_sources = Vec::with_capacity(net.inputs());
    for j in 0..net.inputs() {
        let n = c.node(&format!("in{j}"));
        input_sources.push(c.vsource(n, Circuit::GROUND, 0.0));
        lines.push(n);
    }

    for layer in 0..net.layer_count() {
        let theta = net.theta_effective(layer);
        let inputs = theta.rows() - 2;
        let outputs = theta.cols();
        debug_assert_eq!(inputs, lines.len(), "layer width chain");

        // Shared negation inverter per input line that needs one.
        let mut neg_lines: Vec<Option<NodeId>> = vec![None; inputs];
        for (j, slot) in neg_lines.iter_mut().enumerate() {
            let needs = (0..outputs).any(|n| theta[(j, n)] < -tau);
            if needs {
                let raw = attach_negation(&mut c, vdd, vss, lines[j]);
                let out = if options.buffered_stages {
                    let b = c.node("neg_buf");
                    c.vcvs(b, Circuit::GROUND, raw, Circuit::GROUND, 1.0);
                    b
                } else {
                    raw
                };
                *slot = Some(out);
                stats.negation_circuits += 1;
            }
        }

        let mut next_lines = Vec::with_capacity(outputs);
        for n in 0..outputs {
            let z = c.node(&format!("l{layer}z{n}"));
            let mut any = false;
            for j in 0..inputs + 2 {
                let th = theta[(j, n)];
                if th.abs() <= tau {
                    continue;
                }
                any = true;
                stats.crossbar_resistors += 1;
                let ohms = 1.0 / (th.abs() * G_MAX);
                let from = if j < inputs {
                    if th >= 0.0 {
                        lines[j]
                    } else {
                        // lint: allow(L001, reason = "lowering allocates a negation line for every input that has a negative weight")
                        neg_lines[j].expect("negation cell exists for negative weight")
                    }
                } else if j == inputs {
                    // Bias row: V_DD when positive, V_SS when negative
                    // (no inverter needed for a rail).
                    if th >= 0.0 {
                        vdd
                    } else {
                        vss
                    }
                } else {
                    // Ground row: 0 V either way.
                    Circuit::GROUND
                };
                c.resistor(from, z, ohms);
            }
            if !any {
                // Fully pruned column: tie to ground so the node is
                // well-defined (nothing downstream reads a signal).
                c.resistor(z, Circuit::GROUND, 1.0e9);
            } else {
                stats.activation_circuits += 1;
            }
            let q = net.layer_design(layer);
            let mut out = if any {
                net.activation().kind().attach(&mut c, &q, vdd, vss, z)
            } else {
                z
            };
            // Buffer activation outputs that drive another crossbar
            // (the final layer's outputs are read by an ideal sense
            // stage and need no buffer).
            if options.buffered_stages && layer + 1 < net.layer_count() && any {
                let b = c.node("af_buf");
                c.vcvs(b, Circuit::GROUND, out, Circuit::GROUND, 1.0);
                out = b;
            }
            next_lines.push(out);
        }
        lines = next_lines;
    }

    for e in c.elements() {
        match e {
            Element::Resistor { .. } => stats.resistors += 1,
            Element::Egt { .. } => stats.transistors += 1,
            Element::VSource { .. }
            | Element::Vcvs { .. }
            | Element::Capacitor { .. }
            | Element::ISource { .. } => {}
        }
    }

    Ok(ExportedNetwork {
        circuit: c,
        input_sources,
        output_nodes: lines,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{LearnableActivation, SurrogateFidelity};
    use crate::network::NetworkConfig;
    use pnc_linalg::rng as lrng;
    use pnc_spice::dc::solve_dc_with;
    use pnc_spice::{AfKind, SolverBackend};
    use pnc_surrogate::NegationModel;
    use std::sync::OnceLock;

    fn parts() -> &'static (LearnableActivation, NegationModel) {
        static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
        CELL.get_or_init(|| {
            let act = LearnableActivation::fit(AfKind::PTanh, &SurrogateFidelity::smoke()).unwrap();
            let neg = crate::activation::fit_negation_model(9).unwrap();
            (act, neg)
        })
    }

    fn net(seed: u64) -> PrintedNetwork {
        let (act, negm) = parts().clone();
        let mut rng = lrng::seeded(seed);
        PrintedNetwork::new(4, 3, NetworkConfig::default(), act, negm, &mut rng).unwrap()
    }

    #[test]
    fn export_produces_consistent_stats() {
        let network = net(41);
        let exported = export_network(&network).unwrap();
        let stats = exported.stats();
        assert!(stats.crossbar_resistors > 0);
        assert!(stats.activation_circuits > 0);
        assert!(stats.transistors > 0);
        // Device-count consistency against the abstract model.
        let report = network.power_report(&Matrix::zeros(1, 4)).unwrap();
        assert_eq!(stats.activation_circuits, report.af_circuits);
        assert_eq!(stats.negation_circuits, report.neg_circuits);
        assert_eq!(stats.crossbar_resistors, report.resistors);
    }

    #[test]
    fn spice_string_has_cards_for_every_element() {
        let exported = export_network(&net(43)).unwrap();
        let text = exported.to_spice_string();
        assert!(text.starts_with("* pNC netlist"));
        assert!(text.trim_end().ends_with(".end"));
        let r_cards = text.lines().filter(|l| l.starts_with('R')).count();
        let m_cards = text.lines().filter(|l| l.starts_with('M')).count();
        assert_eq!(r_cards, exported.stats().resistors);
        assert_eq!(m_cards, exported.stats().transistors);
    }

    #[test]
    fn full_circuit_inference_converges_and_is_bounded() {
        let exported = export_network(&net(47)).unwrap();
        let v = exported.simulate(&[0.3, -0.2, 0.5, -0.6]).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite() && x.abs() <= 1.2), "{v:?}");
    }

    #[test]
    fn abstract_and_circuit_outputs_correlate() {
        // The differentiable abstraction ignores inter-stage loading, so
        // outputs differ in value — but they should vary together.
        let network = net(53);
        let exported = export_network(&network).unwrap();
        let mut rng = lrng::seeded(3);
        let x = lrng::uniform_matrix(&mut rng, 12, 4, -0.7, 0.7);
        let abstract_logits = network.predict(&x).unwrap();

        let mut pairs_abs = Vec::new();
        let mut pairs_cir = Vec::new();
        for i in 0..x.rows() {
            let sim = exported.simulate(x.row_slice(i)).unwrap();
            for k in 0..3 {
                // predict() scales by logit_scale; undo for comparison.
                pairs_abs.push(abstract_logits[(i, k)] / network.config().logit_scale);
                pairs_cir.push(sim[k]);
            }
        }
        let corr = pnc_linalg::stats::pearson(&pairs_abs, &pairs_cir);
        assert!(
            corr > 0.6,
            "abstract vs circuit outputs should correlate strongly: r = {corr}"
        );
    }

    #[test]
    fn buffered_export_matches_abstraction_better() {
        let network = net(71);
        let buffered = export_network_with(
            &network,
            &ExportConfig {
                buffered_stages: true,
            },
        )
        .unwrap();
        let unbuffered = export_network_with(
            &network,
            &ExportConfig {
                buffered_stages: false,
            },
        )
        .unwrap();
        let mut rng = lrng::seeded(5);
        let x = lrng::uniform_matrix(&mut rng, 10, 4, -0.6, 0.6);
        let scale = network.config().logit_scale;
        let rmse_of = |exported: &ExportedNetwork| -> f64 {
            let mut sse = 0.0;
            let mut n = 0usize;
            let logits = network.predict(&x).unwrap();
            for i in 0..x.rows() {
                let sim = exported.simulate(x.row_slice(i)).unwrap();
                for k in 0..sim.len() {
                    let a = logits[(i, k)] / scale;
                    sse += (a - sim[k]).powi(2);
                    n += 1;
                }
            }
            (sse / n as f64).sqrt()
        };
        let rb = rmse_of(&buffered);
        let ru = rmse_of(&unbuffered);
        // At smoke fidelity the residual is dominated by surrogate fit
        // error, which buffering cannot reduce — allow a small relative
        // margin so the comparison tests loading, not fit noise.
        assert!(
            rb <= ru * 1.15 + 1e-12,
            "buffering should not hurt agreement: buffered {rb} vs unbuffered {ru}"
        );
        // Residual error is the stacked surrogate error (transfer +
        // negation fits) of the smoke fidelity, not loading.
        assert!(
            rb < 0.35,
            "buffered export should track the abstraction: {rb}"
        );
    }

    #[test]
    fn monte_carlo_reports_spread_and_yield() {
        let network = net(61);
        let exported = export_network(&network).unwrap();
        let mut rng = lrng::seeded(9);
        let x = lrng::uniform_matrix(&mut rng, 8, 4, -0.6, 0.6);
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let report = exported.monte_carlo(&x, &labels, &VariationModel::default(), 10, 7);
        assert_eq!(report.accuracies.len(), 10);
        assert!(report.yield_rate() > 0.8, "yield {}", report.yield_rate());
        assert!(report.mean_accuracy() >= 0.0 && report.mean_accuracy() <= 1.0);
        assert!(report.mean_power() > 0.0);
        // Looser process → at least as much accuracy spread.
        let loose = exported.monte_carlo(&x, &labels, &VariationModel::loose(), 10, 7);
        assert!(loose.std_accuracy() + 1e-9 >= report.std_accuracy() * 0.2);
    }

    /// Largest output-voltage gap the session and sparse paths may
    /// show against cold dense solves on the exported 4-3-3 network
    /// of `session_inference_matches_cold_dense_solves`. Measured when
    /// the bound was set: 4.4e-9 V for session rows, 9.2e-9 V for
    /// session Monte-Carlo prints, 1.1e-16 V for one-shot sparse
    /// solves. The bound is about 10× the session-row gap and well
    /// under 1e-6 V.
    const OUTPUT_GAP_BOUND_VOLTS: f64 = 4e-8;

    /// The reference path: every row solved cold, on a fresh clone of
    /// `circuit`, with the dense backend and a fresh factorization.
    fn cold_dense_outputs(
        exported: &ExportedNetwork,
        circuit: &Circuit,
        x: &Matrix,
    ) -> Vec<Vec<f64>> {
        let cfg = SolverConfig {
            max_iterations: 300,
            backend: SolverBackend::Dense,
            ..SolverConfig::default()
        };
        (0..x.rows())
            .map(|i| {
                let mut c = circuit.clone();
                for (&src, &v) in exported.input_sources.iter().zip(x.row_slice(i)) {
                    c.set_vsource(src, v).unwrap();
                }
                exported.outputs(&solve_dc_with(&c, &cfg, None).unwrap())
            })
            .collect()
    }

    /// Largest element-wise gap between two per-row output sets, after
    /// checking that every row picks the same class.
    fn max_gap_same_argmax(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        assert_eq!(a.len(), b.len());
        let mut worst = 0.0f64;
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(argmax(ra), argmax(rb), "row {i}: {ra:?} vs {rb:?}");
            for (va, vb) in ra.iter().zip(rb) {
                worst = worst.max((va - vb).abs());
            }
        }
        worst
    }

    #[test]
    fn session_inference_matches_cold_dense_solves() {
        // The production path (one session per call, inherited pivot
        // order, previous-row warm starts) and a one-shot sparse solve
        // per row, against cold per-row dense solves on fresh clones.
        let network = net(61);
        let exported = export_network(&network).unwrap();
        assert_eq!(network.layer_count(), 2, "a 4-3-3 network");
        let mut rng = lrng::seeded(17);
        let x = lrng::uniform_matrix(&mut rng, 24, 4, -0.7, 0.7);
        let cold = cold_dense_outputs(&exported, exported.circuit(), &x);

        let session = exported.simulate_rows(&x).unwrap();
        let sparse_cfg = SolverConfig {
            max_iterations: 300,
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let sparse: Vec<Vec<f64>> = (0..x.rows())
            .map(|i| {
                let mut c = exported.circuit().clone();
                for (&src, &v) in exported.input_sources.iter().zip(x.row_slice(i)) {
                    c.set_vsource(src, v).unwrap();
                }
                exported.outputs(&solve_dc_with(&c, &sparse_cfg, None).unwrap())
            })
            .collect();
        let session_gap = max_gap_same_argmax(&session, &cold);
        let sparse_gap = max_gap_same_argmax(&sparse, &cold);
        assert!(
            session_gap <= OUTPUT_GAP_BOUND_VOLTS,
            "session vs cold dense: {session_gap:e} V"
        );
        assert!(
            sparse_gap <= OUTPUT_GAP_BOUND_VOLTS,
            "sparse vs cold dense: {sparse_gap:e} V"
        );
        let cold_classes: Vec<usize> = cold.iter().map(|v| argmax(v)).collect();
        assert_eq!(exported.classify(&x).unwrap(), cold_classes);

        // Monte Carlo: each print's accuracy equals the cold dense
        // classification of the same perturbed circuit.
        let labels: Vec<usize> = (0..x.rows()).map(|i| i % 3).collect();
        let variation = VariationModel::default();
        let report = exported.monte_carlo(&x, &labels, &variation, 6, 7);
        let mut mc_gap = 0.0f64;
        for (p, &acc) in report.accuracies.iter().enumerate() {
            let mut prng = lrng::seeded(pnc_parallel::derive_seed(7, p as u64));
            let varied = variation.sample(exported.circuit(), &mut prng);
            let cold_p = cold_dense_outputs(&exported, &varied, &x);
            let mut session_p = Vec::new();
            let mut one = ExportedNetwork::session(varied);
            exported
                .solve_rows(&mut one, &x, |_, _, op| {
                    session_p.push(exported.outputs(op))
                })
                .unwrap();
            mc_gap = mc_gap.max(max_gap_same_argmax(&session_p, &cold_p));
            let correct = cold_p
                .iter()
                .zip(&labels)
                .filter(|(v, &l)| argmax(v) == l)
                .count();
            assert_eq!(acc, correct as f64 / x.rows() as f64, "print {p}");
        }
        assert!(
            mc_gap <= OUTPUT_GAP_BOUND_VOLTS,
            "Monte-Carlo session vs cold dense: {mc_gap:e} V"
        );
    }

    #[test]
    fn monte_carlo_print_depends_only_on_its_index() {
        let exported = export_network(&net(61)).unwrap();
        let mut rng = lrng::seeded(9);
        let x = lrng::uniform_matrix(&mut rng, 8, 4, -0.6, 0.6);
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let variation = VariationModel::default();
        let four = exported.monte_carlo(&x, &labels, &variation, 4, 11);
        let eight = exported.monte_carlo(&x, &labels, &variation, 8, 11);
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&four.accuracies), bits(&eight.accuracies[..4]));
        assert_eq!(bits(&four.powers_watts), bits(&eight.powers_watts[..4]));
    }

    #[test]
    fn pruned_network_exports_fewer_devices() {
        let mut network = net(59);
        let full = export_network(&network).unwrap().stats();
        let mut values = network.param_values();
        for v in values[0].as_mut_slice().iter_mut().take(8) {
            *v *= 1e-4;
        }
        network.set_param_values(&values);
        network.build_masks();
        let pruned = export_network(&network).unwrap().stats();
        assert!(
            pruned.crossbar_resistors < full.crossbar_resistors,
            "{pruned:?} vs {full:?}"
        );
    }
}
