//! The arithmetic the benchmark's numbers rest on: how many windows a
//! stream yields, when an open-loop generator is due to send, and the
//! percentile rule that refuses a tail percentile from too few samples.

use std::time::Duration;

/// Fewest samples a p95 may be reported from: with 200 samples, ten lie
/// beyond it.
pub const MIN_P95_SAMPLES: usize = 200;

/// Windows a count-based window of `win` tuples sliding by `slide`
/// completes over `n` tuples (also: windows emitted once the first `n`
/// tuples have arrived). Window `k` spans `[k·slide, k·slide + win)`
/// and is emitted only when the tuple at `k·slide + win` arrives, so the
/// last window needs the first tuple of the following slide: counting one
/// more than this waits for a window that never comes.
pub fn window_count(n: u64, win: u64, slide: u64) -> u64 {
    assert!(slide > 0, "slide must be positive");
    if n <= win {
        0
    } else {
        (n - 1 - win) / slide + 1
    }
}

/// Index of the tuple whose arrival emits window `k`.
pub fn closing_tuple(k: u64, win: u64, slide: u64) -> u64 {
    k * slide + win
}

/// Offset from the start of an open-loop run at which chunk `i` is due:
/// chunk `i` of `chunk` tuples leaves at `i · chunk / rate` seconds,
/// independent of when earlier chunks actually left, so a stall delays
/// the generator without moving the schedule.
pub fn due_offset(i: u64, chunk: u64, rate_per_s: u64) -> Duration {
    assert!(rate_per_s > 0, "rate must be positive");
    let tuples = i as u128 * chunk as u128;
    Duration::from_nanos((tuples * 1_000_000_000 / rate_per_s as u128) as u64)
}

/// A set of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Samples {
        Samples { values }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`): the smallest sample at
    /// or above which a share `q` of the samples lie.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        if self.values.is_empty() {
            return Err("percentile of no samples".into());
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Ok(sorted[rank - 1])
    }

    pub fn p50(&self) -> Result<f64, String> {
        self.percentile(0.50)
    }

    /// The 95th percentile, refused below [`MIN_P95_SAMPLES`] samples.
    pub fn p95(&self) -> Result<f64, String> {
        check_p95_count(self.values.len() as u64)?;
        self.percentile(0.95)
    }
}

/// Whether `count` samples are enough to report a p95.
pub fn check_p95_count(count: u64) -> Result<(), String> {
    if (count as usize) < MIN_P95_SAMPLES {
        Err(format!(
            "a p95 needs at least {MIN_P95_SAMPLES} samples, got {count}"
        ))
    } else {
        Ok(())
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_matches_the_engine_rule() {
        // (n − win) / slide when the stream ends on a slide boundary.
        assert_eq!(window_count(400_000, 10_000, 1_000), 390);
        assert_eq!(window_count(210_000, 10_000, 1_000), 200);
        // Too short for even one window, and exactly one closing tuple.
        assert_eq!(window_count(10_000, 10_000, 1_000), 0);
        assert_eq!(window_count(10_001, 10_000, 1_000), 1);
        // Mid-slide ends: the partial slide still closes one more window.
        assert_eq!(window_count(11_500, 10_000, 1_000), 2);
        assert_eq!(window_count(11_000, 10_000, 1_000), 1);
        // Every counted window's closing tuple lies inside the stream,
        // and the next one's does not.
        for n in [10_001u64, 10_999, 11_000, 11_001, 57_321] {
            let k = window_count(n, 10_000, 1_000);
            assert!(closing_tuple(k - 1, 10_000, 1_000) < n);
            assert!(closing_tuple(k, 10_000, 1_000) >= n);
        }
    }

    #[test]
    fn open_loop_schedule_is_fixed_by_index() {
        // 500-tuple chunks at 40k tuples/s leave every 12.5 ms.
        assert_eq!(due_offset(0, 500, 40_000), Duration::ZERO);
        assert_eq!(due_offset(1, 500, 40_000), Duration::from_micros(12_500));
        assert_eq!(due_offset(800, 500, 40_000), Duration::from_secs(10));
        // No drift from accumulated rounding: 3 tuples/s is not a whole
        // number of nanoseconds per tuple.
        assert_eq!(due_offset(3, 1, 3), Duration::from_secs(1));
        assert_eq!(due_offset(3_000_000, 1, 3), Duration::from_secs(1_000_000));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = Samples::from_vec((1..=200).map(f64::from).collect());
        assert_eq!(s.p50().unwrap(), 100.0);
        assert_eq!(s.p95().unwrap(), 190.0);
        assert_eq!(s.percentile(1.0).unwrap(), 200.0);
        let shuffled = Samples::from_vec(vec![3.0, 1.0, 2.0]);
        assert_eq!(shuffled.p50().unwrap(), 2.0);
        assert!(Samples::new().p50().is_err());
    }

    #[test]
    fn p95_is_refused_below_two_hundred_samples() {
        let short = Samples::from_vec(vec![1.0; MIN_P95_SAMPLES - 1]);
        assert!(short.p95().is_err());
        assert!(short.p50().is_ok());
        let enough = Samples::from_vec(vec![1.0; MIN_P95_SAMPLES]);
        assert_eq!(enough.p95().unwrap(), 1.0);
        assert!(check_p95_count(199).is_err());
        assert!(check_p95_count(200).is_ok());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
