//! The result line: metric-name validation, rendering, and parsing it
//! back (the round trip is what the tests pin).

use pnc_telemetry::json::{self, Json};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, such as `s`, `MB`, `ratio` or `count`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A metric name starts with a letter or digit and is at most 64 of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Renders the one-line JSON object
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    /// Values print with every digit of their shortest round-trip form;
    /// a non-finite value prints as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_escaped(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            if m.value.is_finite() {
                out.push_str(&format!("{:?}", m.value));
            } else {
                out.push_str("null");
            }
            out.push_str(", \"unit\": ");
            json::write_escaped(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A parsed result line: `(correct, attempted, failed, [(name, value, unit)])`
/// with metrics sorted by name.
pub type ParsedReport = (bool, u64, u64, Vec<(String, f64, String)>);

/// Parses a line printed by [`RunReport::to_json`]. Returns `None` when
/// the line is not such an object, has extra or missing keys, or a
/// metric value is not a number.
pub fn parse_report(line: &str) -> Option<ParsedReport> {
    let Json::Obj(top) = json::parse(line)? else {
        return None;
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return None;
    }
    let count = |key: &str| {
        let v = top.get(key)?.as_f64()?;
        (v >= 0.0 && v.fract().abs() < f64::EPSILON).then_some(v as u64)
    };
    let Json::Obj(metrics) = top.get("metrics")? else {
        return None;
    };
    let mut parsed = Vec::with_capacity(metrics.len());
    for (name, m) in metrics {
        let Json::Obj(fields) = m else {
            return None;
        };
        if fields.len() != 2 {
            return None;
        }
        parsed.push((
            name.clone(),
            m.get("value")?.as_f64()?,
            m.get("unit")?.as_str()?.to_string(),
        ));
    }
    Some((
        top.get("correct")?.as_bool()?,
        count("attempted")?,
        count("failed")?,
        parsed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "pipeline_s",
            "spice.net.solve_ms_p99",
            "surrogate.6d.power_sample_s",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "unit%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_round_trips() {
        let report = RunReport {
            correct: true,
            attempted: 4_321,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "pipeline_s".into(),
                    unit: "s",
                    value: 12.345_678_901_234_5,
                },
                Metric {
                    name: "spice_accuracy".into(),
                    unit: "ratio",
                    value: 1.0 / 3.0,
                },
                Metric {
                    name: "spice.net.solves".into(),
                    unit: "count",
                    value: 22_000.0,
                },
            ],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let (correct, attempted, failed, metrics) = parse_report(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (4_321, 0));
        let mut expected: Vec<(String, f64, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit.to_string()))
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        // Bit-identical values: every digit survives the round trip.
        for (got, want) in metrics.iter().zip(&expected) {
            assert_eq!(got.0, want.0);
            assert_eq!(got.1.to_bits(), want.1.to_bits());
            assert_eq!(got.2, want.2);
        }
        assert_eq!(metrics.len(), expected.len());
    }

    #[test]
    fn non_finite_values_render_as_null_and_fail_to_parse() {
        let report = RunReport {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric {
                name: "pipeline_s".into(),
                unit: "s",
                value: f64::NAN,
            }],
        };
        let line = report.to_json();
        assert!(line.contains("\"value\": null"));
        assert!(parse_report(&line).is_none());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_report("not json").is_none());
        assert!(parse_report("{\"correct\": true}").is_none());
        assert!(parse_report(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_none());
        assert!(parse_report(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}"
        )
        .is_none());
    }
}
