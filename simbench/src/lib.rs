//! Whole-run benchmark of the SENN/SNNN simulator.
//!
//! * [`endtoend`] times whole `Simulator` runs of a workload (set-up, run
//!   wall time, CPU time, peak memory, server load) with tracing off.
//! * [`replay`] drives the same world through the layers' public
//!   functions, in the simulator's interval order, with a span around each
//!   layer call — the per-layer numbers.
//! * [`checks`] compares the program's outputs with computations the
//!   benchmark makes itself (linear scans, brute-force kNN and reverse
//!   kNN, its own Dijkstra) and with properties the method must have.

pub mod checks;
pub mod endtoend;
pub mod replay;
pub mod sys;
pub mod workload;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One named metric value with its unit, as printed in the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The result line the benchmark prints last: one JSON object with the
/// correctness verdict, the operation counts and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("run_s", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
