//! The benchmark's own arithmetic: percentile selection over latency
//! samples and the residual derivations that attribute end-to-end time to
//! the layers the traced run could not time from outside.

/// Latency samples of one kind, in milliseconds, with the count kept
/// alongside every percentile read from them.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples, in the order pushed unless a percentile was read.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the samples at or below it (`p` in `(0, 100]`). `None`
    /// without samples.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(self.values[nearest_rank(p, self.values.len()) - 1])
    }

    pub fn p50(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    pub fn p90(&mut self) -> Option<f64> {
        self.percentile(90.0)
    }
}

impl std::fmt::Display for Samples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shown: Vec<String> = self.values.iter().map(|v| format!("{v:.1}")).collect();
        write!(f, "[{}]", shown.join(", "))
    }
}

/// 1-based rank of the nearest-rank `p`-th percentile among `n` samples:
/// `ceil(p / 100 · n)`, clamped to `1..=n`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Round away float noise first so e.g. 0.9 · 10 ranks 9, not 10.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// `cli.residual_s`: the part of a `depkit discover` run that the
/// in-process replay of the public layers does not cover — spec parse,
/// cross-check and render, plus process start and exit.
pub fn cli_residual_s(discover_s: f64, intern_s: f64, mine_s: f64, minimize_s: f64) -> f64 {
    discover_s - (intern_s + mine_s + minimize_s)
}

/// `discover.mine_s`: `discover_store` wall time minus the
/// `minimize_cover` call it ends with.
pub fn mine_s(discover_store_s: f64, minimize_s: f64) -> f64 {
    discover_store_s - minimize_s
}

/// `server.io_residual_ms`: median request latency seen over TCP minus
/// the median in-process cost (protocol parse + layer call) of the same
/// requests — socket, framing, scheduling and reply writes.
pub fn io_residual_ms(tcp_request_p50_ms: f64, in_process_p50_ms: f64) -> f64 {
    tcp_request_p50_ms - in_process_p50_ms
}

/// A ratio that reads 0 rather than NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(vals: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in vals {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(90.0, 10), 9);
        assert_eq!(nearest_rank(90.0, 100), 90);
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(90.0, 1), 1);
        assert_eq!(nearest_rank(50.0, 3), 2);
        assert_eq!(nearest_rank(90.0, 3), 3);
        assert_eq!(nearest_rank(100.0, 7), 7);
        // 0.9 · 38 = 34.2 → rank 35.
        assert_eq!(nearest_rank(90.0, 38), 35);
    }

    #[test]
    fn percentiles_are_read_from_sorted_samples_with_their_count() {
        let mut s = samples(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0]);
        assert_eq!(s.len(), 10);
        assert_eq!(s.p50(), Some(5.0));
        assert_eq!(s.p90(), Some(9.0));
        // Pushing after a read re-sorts lazily.
        s.push(0.5);
        assert_eq!(s.len(), 11);
        assert_eq!(s.p50(), Some(5.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
        assert_eq!(Samples::new().p50(), None);
        assert_eq!(samples(&[4.0, 1.0]).to_string(), "[4.0, 1.0]");
    }

    #[test]
    fn residuals_subtract_the_timed_layers() {
        assert!((cli_residual_s(1.5, 0.3, 0.1, 0.05) - 1.05).abs() < 1e-12);
        assert!((mine_s(0.4, 0.25) - 0.15).abs() < 1e-12);
        assert!((io_residual_ms(44.0, 0.02) - 43.98).abs() < 1e-12);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
