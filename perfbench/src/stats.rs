//! Order statistics and the metric record the report is built from.
//!
//! Percentiles are nearest-rank and are refused, never extrapolated, when
//! fewer than [`MIN_TAIL`] samples lie beyond them.

use std::fmt;

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

/// Tail percentiles tried, highest first, by [`highest_tail`].
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Why a statistic could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Too few samples beyond the requested percentile.
    ThinTail {
        /// The requested percentile.
        pct: f64,
        /// Samples available.
        n: usize,
        /// Samples beyond the percentile's rank.
        beyond: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::ThinTail { pct, n, beyond } => write!(
                f,
                "p{pct} of {n} samples has only {beyond} beyond it (need {MIN_TAIL})"
            ),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `pct`, refused unless at least
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let n = samples.len();
    let r = rank(pct, n);
    let beyond = n - r;
    if beyond < MIN_TAIL {
        return Err(StatsError::ThinTail { pct, n, beyond });
    }
    Ok(sorted(samples)[r - 1])
}

/// The highest of p99.9, p99, p95, p90 and p75 that has at least
/// [`MIN_TAIL`] samples beyond it, as `(percentile, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find_map(|&p| percentile(samples, p).ok().map(|v| (p, v)))
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word used in the report.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric: value, unit, direction and the sample count the
/// value was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (checked by [`valid_name`] when reported).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// Builds a metric record.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            better,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert!(matches!(
            percentile(&hundred, 95.0),
            Err(StatsError::ThinTail { beyond: 5, .. })
        ));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 90.0).is_err());
    }

    #[test]
    fn highest_tail_picks_the_largest_supported_percentile() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_tail(&two_hundred), Some((95.0, 190.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_tail(&forty), Some((75.0, 30.0)));
        assert_eq!(highest_tail(&[1.0; 20]), None);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("farm.rpc.session.run.p50_ms"));
        assert!(valid_name("op_p90_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("farm rpc"));
        assert!(!valid_name("p50(ms)"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
