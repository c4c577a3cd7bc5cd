//! Per-element and total power accounting at a DC operating point.
//!
//! Power dissipated by each element follows the electronic power
//! formula the paper uses for the crossbar (`P = ΔV²/R` for resistors)
//! and `P = I_D · V_DS` for transistors. Total dissipation equals the
//! power delivered by the sources (energy conservation — asserted in
//! tests).

use crate::dc::OperatingPoint;
use crate::netlist::{Circuit, Element};

/// Power report for one circuit at one operating point.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Dissipated power per element, in element order (watts). Voltage
    /// sources report the power they *deliver* (positive when sourcing).
    pub per_element: Vec<f64>,
    /// Total dissipated power across resistors and transistors (watts).
    pub dissipated_watts: f64,
    /// Total power delivered by all sources (watts).
    pub delivered_watts: f64,
}

/// Computes the power report for `circuit` at `op`.
pub fn power_report(circuit: &Circuit, op: &OperatingPoint) -> PowerReport {
    let mut per_element = Vec::with_capacity(circuit.elements().len());
    let mut dissipated_watts = 0.0;
    let mut delivered_watts = 0.0;
    let mut src_idx = 0usize;

    for element in circuit.elements() {
        let p = match *element {
            Element::Resistor { a, b, ohms } => {
                let dv = op.voltage(a) - op.voltage(b);
                let p = dv * dv / ohms;
                dissipated_watts += p;
                p
            }
            Element::VSource { plus, minus, .. } => {
                // MNA current flows into the + terminal; delivering
                // sources therefore have negative branch current.
                let i = op.source_current(src_idx);
                src_idx += 1;
                let v = op.voltage(plus) - op.voltage(minus);
                let p = -v * i;
                delivered_watts += p;
                p
            }
            Element::Capacitor { .. } => 0.0,
            Element::ISource { plus, minus, amps } => {
                // Delivers when pushing current from low to high
                // potential externally.
                let v = op.voltage(plus) - op.voltage(minus);
                let p = -v * amps;
                delivered_watts += p;
                p
            }
            Element::Vcvs { plus, minus, .. } => {
                // Ideal buffer: counted as delivered (active circuitry),
                // never as printed-network dissipation.
                let i = op.source_current(src_idx);
                src_idx += 1;
                let v = op.voltage(plus) - op.voltage(minus);
                let p = -v * i;
                delivered_watts += p;
                p
            }
            Element::Egt {
                drain,
                source,
                gate,
                w,
                l,
                model,
            } => {
                let vg = op.voltage(gate);
                let vd = op.voltage(drain);
                let vs = op.voltage(source);
                let id = model.eval(vg, vd, vs, w, l).id_amps;
                let p = id * (vd - vs);
                dissipated_watts += p;
                p
            }
        };
        per_element.push(p);
    }

    PowerReport {
        per_element,
        dissipated_watts,
        delivered_watts,
    }
}

/// Total power dissipated by the circuit at its DC operating point, in
/// watts.
pub fn total_power(circuit: &Circuit, op: &OperatingPoint) -> f64 {
    power_report(circuit, op).dissipated_watts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;

    #[test]
    fn divider_power_matches_closed_form() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 1_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        let rep = power_report(&c, &op);
        // Total: V²/R_series = 1/2000 = 0.5 mW, split evenly.
        assert!((rep.dissipated_watts - 0.5e-3).abs() < 1e-9);
        assert!((rep.per_element[1] - 0.25e-3).abs() < 1e-9);
        assert!((rep.per_element[2] - 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn energy_conservation_with_transistor() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.7);
        c.resistor(vdd, out, 20_000.0);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);
        let op = solve_dc(&c).unwrap();
        let rep = power_report(&c, &op);
        // GMIN leak conductances dissipate a sliver of delivered power
        // that per-element accounting doesn't see; allow for it.
        assert!(
            (rep.dissipated_watts - rep.delivered_watts).abs()
                < 1e-6 * rep.delivered_watts.max(1e-12),
            "dissipated {} W vs delivered {} W",
            rep.dissipated_watts,
            rep.delivered_watts
        );
        assert!(rep.dissipated_watts > 0.0);
    }

    #[test]
    fn off_transistor_burns_almost_nothing() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, -1.0); // deep off
        c.resistor(vdd, out, 1e6);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);
        let op = solve_dc(&c).unwrap();
        let rep = power_report(&c, &op);
        assert!(
            rep.dissipated_watts < 1e-7,
            "leakage power {}",
            rep.dissipated_watts
        );
    }

    #[test]
    fn source_delivery_sign() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 2.0);
        c.resistor(a, Circuit::GROUND, 100.0);
        let op = solve_dc(&c).unwrap();
        let rep = power_report(&c, &op);
        // 2 V across 100 Ω: delivers 40 mW.
        assert!((rep.delivered_watts - 0.04).abs() < 1e-9);
        assert!(rep.per_element[0] > 0.0, "source delivers positive power");
    }
}
