//! Metrics, percentiles and the JSON the benchmark prints.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How it was measured, e.g. the sample count behind a percentile.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// The `q`-quantile of `sorted` by nearest rank, with the sample count
/// and the number of samples beyond it. `None` when fewer than ten
/// samples lie beyond it: such a percentile is not reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.checked_sub(rank)?;
    (beyond >= 10).then(|| (sorted[rank - 1], beyond))
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2] as f64,
        n => (values[n / 2 - 1] as f64 + values[n / 2] as f64) / 2.0,
    }
}

/// `<name>` from latency samples in ns, in us, with its sample count in
/// the note; 0 with a note saying why when fewer than ten samples lie
/// beyond it.
pub fn percentile_metric(name: &str, samples: &[u64], q: f64) -> Metric {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    match percentile(&sorted, q) {
        Some((v, beyond)) => Metric::new(
            name,
            v as f64 / 1e3,
            "us",
            format!("n={n}, {beyond} beyond it"),
        ),
        None => Metric::new(
            name,
            0.0,
            "us",
            format!("not reported: n={n} leaves fewer than 10 samples beyond it"),
        ),
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
