//! Order statistics and the one-line JSON result.

/// `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between closest
/// ranks; sorts `values` in place. Empty input yields 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    values[low] + (values[high] - values[low]) * (rank - low as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean. Empty input yields 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean of the values between the first and third quartiles (inclusive
/// by rank); sorts `values` in place. Empty input yields 0.
///
/// Used for simulated latency, where the plain median is a whole number
/// of identical cycles and so repeats exactly across seeds.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let middle = &values[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
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
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(mean(&[]), 0.0);
        let mut w = vec![100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0];
        assert_eq!(interquartile_mean(&mut w), 3.5);
        assert_eq!(interquartile_mean(&mut [7.0]), 7.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("a_ms", 1.5, "ms"), metric("b", 2.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
