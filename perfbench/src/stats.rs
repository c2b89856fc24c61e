//! The statistics the benchmark reports, and the rules behind them.

/// A percentile is reported only when at least this many samples lie
/// above it.
pub const MIN_SAMPLES_ABOVE: usize = 10;

/// The job-latency limit on p90 that a tested arrival rate must meet.
pub const P90_LIMIT_MS: f64 = 1000.0;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; `None` when
/// empty. Non-finite samples (missed jobs) sort last.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The median of each class of samples, weighted by the class's share
/// of the samples. A mix of job classes with far-apart latencies has no
/// stable overall median (it falls between classes and jumps from one
/// to the other); the weighted class medians move only when some class
/// gets faster or slower. With one class it is the plain median.
pub fn class_weighted_median(samples: &[(usize, f64)]) -> Option<f64> {
    let mut classes: Vec<usize> = samples.iter().map(|s| s.0).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut total = 0.0;
    for class in classes {
        let of_class: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 == class)
            .map(|s| s.1)
            .collect();
        total += median(&of_class)? * of_class.len() as f64;
    }
    (!samples.is_empty()).then(|| total / samples.len() as f64)
}

/// Samples strictly above the `q`-quantile's rank.
pub fn samples_above(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The `q`-quantile, only when at least [`MIN_SAMPLES_ABOVE`] samples
/// lie above it.
pub fn reportable_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples_above(samples.len(), q) < MIN_SAMPLES_ABOVE {
        return None;
    }
    quantile(samples, q)
}

/// Whether the backlog grew over a phase: `depths` are the outstanding
/// job counts sampled at even intervals while the phase was sending.
/// The backlog grows when the mean of the last third exceeds the mean
/// of the first third by more than four jobs (two per runner: a job
/// running and one waiting) and by more than half.
pub fn backlog_growing(depths: &[f64]) -> bool {
    let third = depths.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let first = mean(&depths[..third]);
    let last = mean(&depths[depths.len() - third..]);
    last > first + 4.0_f64.max(first * 0.5)
}

/// What one arrival-rate phase of the open loop observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Offered arrival rate, jobs per second.
    pub rate: f64,
    /// Per-submission latency from due time to fetched report, ms;
    /// `f64::INFINITY` for a refused, failed or unfinished job.
    pub latencies_ms: Vec<f64>,
    /// Outstanding jobs sampled while the phase was sending.
    pub depths: Vec<f64>,
    /// Jobs whose report was fetched.
    pub completed: usize,
    /// From the phase's first due time to its last fetched report, s.
    pub span_s: f64,
}

impl Phase {
    /// Whether the phase meets the limit: p90 within
    /// [`P90_LIMIT_MS`] (misses count as over it) and no growing
    /// backlog.
    pub fn passes(&self) -> bool {
        quantile(&self.latencies_ms, 0.9).is_some_and(|p90| p90 <= P90_LIMIT_MS)
            && !backlog_growing(&self.depths)
    }

    /// Completed jobs per second over the phase.
    pub fn throughput(&self) -> f64 {
        if self.span_s > 0.0 {
            self.completed as f64 / self.span_s
        } else {
            0.0
        }
    }
}

/// `max_jobs_per_s`: the throughput achieved at the highest tested rate
/// that meets the limit without a growing backlog; 0 when none does.
pub fn max_jobs_per_s(phases: &[Phase]) -> f64 {
    phases
        .iter()
        .filter(|p| p.passes())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(0.0, Phase::throughput)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_above_it() {
        assert_eq!(samples_above(100, 0.9), 10);
        assert_eq!(samples_above(99, 0.9), 9);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable_quantile(&hundred, 0.9), Some(90.0));
        assert_eq!(reportable_quantile(&hundred[..99], 0.9), None);
        // The median needs 20 samples.
        assert_eq!(reportable_quantile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(reportable_quantile(&hundred[..19], 0.5), None);
        assert_eq!(reportable_quantile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.01), Some(1.0));
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), Some(f64::INFINITY));
    }

    #[test]
    fn class_weighted_median_weights_each_class_median_by_its_share() {
        let one: Vec<(usize, f64)> = [3.0, 1.0, 2.0].iter().map(|v| (0, *v)).collect();
        assert_eq!(class_weighted_median(&one), Some(2.0));
        // Three fast jobs and one slow: 3/4 * 10 + 1/4 * 100.
        let mix = [(0, 9.0), (0, 10.0), (0, 11.0), (1, 100.0)];
        assert_eq!(class_weighted_median(&mix), Some(32.5));
        assert_eq!(class_weighted_median(&[]), None);
    }

    #[test]
    fn backlog_growth_rule() {
        assert!(!backlog_growing(&[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]));
        assert!(
            !backlog_growing(&[2.0, 2.0, 3.0, 3.0, 6.0, 6.0]),
            "within four jobs"
        );
        assert!(backlog_growing(&[1.0, 2.0, 4.0, 6.0, 8.0, 10.0]));
        assert!(
            !backlog_growing(&[10.0, 10.0, 12.0, 13.0, 15.0, 15.0]),
            "within half"
        );
        assert!(!backlog_growing(&[50.0, 60.0]), "too few samples to tell");
    }

    fn phase(rate: f64, latency_ms: f64, misses: usize, depths: &[f64]) -> Phase {
        let mut latencies_ms = vec![latency_ms; 100 - misses];
        latencies_ms.extend(std::iter::repeat_n(f64::INFINITY, misses));
        Phase {
            rate,
            latencies_ms,
            depths: depths.to_vec(),
            completed: 100 - misses,
            span_s: 100.0 / rate,
        }
    }

    #[test]
    fn max_rate_meets_the_limit_and_keeps_the_backlog_flat() {
        let flat = [1.0; 9];
        let growing = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0];
        let phases = [
            phase(4.0, 300.0, 0, &flat),
            phase(6.0, 600.0, 0, &flat),
            phase(8.0, 900.0, 0, &growing), // fast enough but backlog grows
            phase(10.0, 1500.0, 0, &flat),  // p90 over the limit
        ];
        assert!((max_jobs_per_s(&phases) - 6.0).abs() < 1e-9);
        // Refused jobs are misses: 11 of 100 push p90 past the limit.
        assert!(!phase(5.0, 100.0, 11, &flat).passes());
        assert!(phase(5.0, 100.0, 10, &flat).passes());
        assert_eq!(max_jobs_per_s(&phases[3..]), 0.0);
    }
}
