//! `solve_dc_captured` is the offline re-execution primitive behind
//! `pnc-cli solver replay`: it must leave every process-wide solver
//! aggregate untouched. This file holds a single test so no other
//! solve in the same process can move the counters between reads.

use pnc_spice::dc::{solve_dc_with, SolverBackend, SolverConfig};
use pnc_spice::netlist::Circuit;
use pnc_spice::{solve_dc_captured, stats};

/// A chain of resistively loaded EGT inverters: nonlinear and large
/// enough for the sparse backend.
fn inverter_chain(stages: usize) -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    c.vsource(vdd, Circuit::GROUND, 1.0);
    c.vsource(vin, Circuit::GROUND, 0.3);
    let mut gate = vin;
    for k in 0..stages {
        let out = c.node(&format!("out{k}"));
        c.resistor(vdd, out, 100_000.0);
        c.resistor(gate, out, 2_000_000.0);
        c.egt(out, gate, Circuit::GROUND, 2e-4, 2e-5);
        gate = out;
    }
    c
}

#[test]
fn captured_solves_record_no_aggregates() {
    let c = inverter_chain(12);
    let sparse = SolverConfig {
        backend: SolverBackend::Sparse,
        ..SolverConfig::default()
    };
    // Too few iterations for plain Newton: the supply ramp engages.
    let ramped = SolverConfig {
        max_iterations: 2,
        ..sparse
    };
    let before = stats::snapshot();
    let solve_times = stats::solve_time_summary().count;
    let (converged, trace) = solve_dc_captured(&c, &sparse, None);
    assert!(converged.is_ok());
    assert!(trace.residuals_amps.len() >= 2);
    let (_, ramp_trace) = solve_dc_captured(&c, &ramped, None);
    assert!(ramp_trace.ramped);
    assert_eq!(stats::snapshot(), before);
    assert_eq!(stats::solve_time_summary().count, solve_times);

    // The same solves through the recorded path do count.
    solve_dc_with(&c, &sparse, None).unwrap();
    let _ = solve_dc_with(&c, &ramped, None);
    let after = stats::snapshot();
    assert_eq!(after.solves, before.solves + 2);
    assert!(after.factorizations > before.factorizations);
    assert!(after.refactorizations > before.refactorizations);
    assert_eq!(
        after.pattern_hits + after.pattern_misses,
        before.pattern_hits + before.pattern_misses + 2
    );
    assert_eq!(after.ramp_fallbacks, before.ramp_fallbacks + 1);
    assert_eq!(stats::solve_time_summary().count, solve_times + 2);
}
