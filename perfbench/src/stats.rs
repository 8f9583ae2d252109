//! Order statistics and the metric list the benchmark prints.

use std::time::Duration;

use crate::host::{Scale, Speed};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Largest value (0 for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Named metrics in insertion order, printed as one JSON object.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    /// The per-round samples behind each metric put with [`Self::rounds`].
    series: Vec<(String, Vec<(f64, Speed)>)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    /// Reports the median of a metric's per-round values brought to the
    /// reference host speed by `scale`, and keeps the raw values and
    /// probe times for the run metadata. A compute-scaled round is
    /// scaled by the probes taken around it, which follow the host from
    /// round to round. The wake probe reads in two modes that do not
    /// follow the light p50 from round to round, while its median over
    /// the run does follow the host's slow and fast states, so a
    /// wake-scaled metric is the median raw value scaled at the median
    /// probe time.
    pub fn rounds(
        &mut self,
        name: &str,
        samples: &[(f64, Speed)],
        unit: &'static str,
        scale: Scale,
    ) {
        let value = match scale {
            Scale::WakeTime => {
                let speed = Speed {
                    compute_ns: median_of(samples, |s| s.1.compute_ns),
                    serial_ns: median_of(samples, |s| s.1.serial_ns),
                    wake_us: median_of(samples, |s| s.1.wake_us),
                };
                scale.apply(median_of(samples, |s| s.0), speed)
            }
            _ => median_of(samples, |&(raw, s)| scale.apply(raw, s)),
        };
        self.put(name, value, unit);
        self.series.push((name.to_string(), samples.to_vec()));
    }

    /// The raw per-round values and probe times of every metric put with
    /// [`Self::rounds`], as a JSON fragment.
    pub fn series_json(&self) -> String {
        let list = |v: Vec<f64>| v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ");
        let rows: Vec<String> = self
            .series
            .iter()
            .map(|(name, samples)| {
                format!(
                    "\"{name}\": {{\"raw\": [{}], \"compute_ns\": [{}], \"serial_ns\": [{}], \"wake_us\": [{}]}}",
                    list(samples.iter().map(|s| s.0).collect()),
                    list(samples.iter().map(|s| s.1.compute_ns).collect()),
                    list(samples.iter().map(|s| s.1.serial_ns).collect()),
                    list(samples.iter().map(|s| s.1.wake_us).collect()),
                )
            })
            .collect();
        format!("\"rounds\": {{{}}}", rows.join(", "))
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; non-finite values (a broken measurement) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
