//! The benchmark's own arithmetic: percentile selection, failure
//! counting, and the efficiency and wire-time subtractions. Kept apart
//! from the workloads so it can be tested without running any.

/// The fewest samples a reported percentile must have beyond it; a
/// percentile resting on fewer is noise, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples ranked strictly above the selected one.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or an error
/// when fewer than [`MIN_BEYOND`] samples would rank above it.
pub fn percentile(values: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = values.len();
    if n == 0 {
        return Err(format!("p{} of no samples", q * 100.0));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Operations attempted and failed. Every check the benchmark makes is
/// one operation; a refusal, an error or a mismatch against the
/// reference is one failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Busy time over capacity: `busy` seconds of work done by `threads`
/// workers in `wall` seconds. 1.0 means no worker ever idled.
pub fn efficiency(busy: f64, wall: f64, threads: usize) -> f64 {
    assert!(
        wall > 0.0 && threads > 0,
        "efficiency needs wall > 0 and threads > 0"
    );
    busy / (wall * threads as f64)
}

/// Per-request transport time: client latency minus the in-process
/// service time of the same request, paired by index. The median of
/// these differences is the wire cost a request pays.
pub fn wire_times(client_ms: &[f64], service_ms: &[f64]) -> Vec<f64> {
    assert_eq!(client_ms.len(), service_ms.len(), "unpaired wire samples");
    client_ms
        .iter()
        .zip(service_ms)
        .map(|(client, service)| client - service)
        .collect()
}

/// Percentage by which `traced` exceeds `untraced` (both durations).
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    assert!(untraced > 0.0, "overhead against a zero baseline");
    (traced / untraced - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so selection must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples suffice");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
        let short = percentile(&ramp(999), 0.99).unwrap_err();
        assert!(short.contains("only 9 beyond"), "{short}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let p = percentile(&ramp(20), 0.5).expect("20 samples suffice");
        assert_eq!((p.value, p.beyond), (10.0, 10));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mean_weighs_two_levels_by_their_share() {
        // Three set-ups at 6 ms and one at 9 ms: the median would say 6.
        assert_eq!(mean(&[6.0, 9.0, 6.0, 6.0]), 6.75);
        assert_eq!(median(&[6.0, 9.0, 6.0, 6.0]), 6.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            tally.check(ok);
        }
        let mut other = Tally::default();
        other.check(false);
        tally.absorb(other);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(tally.error_rate(), 0.4);
    }

    #[test]
    fn efficiency_divides_busy_time_by_capacity() {
        // 50 s of cell time on 2 workers over a 38 s wall.
        let e = efficiency(50.0, 38.0, 2);
        assert!((e - 50.0 / 76.0).abs() < 1e-12);
        assert_eq!(efficiency(20.0, 10.0, 2), 1.0);
    }

    #[test]
    fn wire_time_is_client_minus_service_per_request() {
        let wire = wire_times(&[44.0, 45.5, 400.0], &[0.25, 0.5, 250.0]);
        assert_eq!(wire, vec![43.75, 45.0, 150.0]);
        assert_eq!(median(&wire), 45.0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_run() {
        assert!((overhead_pct(10.5, 10.0) - 5.0).abs() < 1e-9);
        assert!(overhead_pct(9.0, 10.0) < 0.0);
    }
}
