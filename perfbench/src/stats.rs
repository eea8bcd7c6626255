//! Sample bookkeeping for the harness: latency samples with the
//! percentile rule the benchmark reports by, open-loop lateness
//! accounting, and the submission tally behind `submit_ok_ratio`.

use std::time::Duration;

/// Percentiles tried, highest first, when a tail percentile is asked
/// for: the reported tail is the highest one with at least
/// [`MIN_BEYOND`] samples beyond it.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // the epsilon keeps 99.9% of 10000 at rank 9990, not 9991
    let k = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p` among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - (rank(n, p) + 1)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// The samples in the order they were taken (until a percentile is
    /// read, which sorts them).
    pub fn raw(&self) -> &[u64] {
        &self.ns
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn count_over(&self, d: Duration) -> f64 {
        self.ns.iter().filter(|&&v| u128::from(v) > d.as_nanos()).count() as f64
    }

    pub fn total_ns(&self) -> u128 {
        self.ns.iter().map(|&v| v as u128).sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in microseconds (0 when empty).
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        self.ns[rank(self.ns.len(), p)] as f64 / 1e3
    }

    pub fn p50_us(&mut self) -> f64 {
        self.percentile_us(50.0)
    }

    /// The p99 when at least [`MIN_BEYOND`] samples lie beyond it,
    /// otherwise the highest percentile that has them; returns the
    /// percentile used alongside the value.
    pub fn p99_us(&mut self) -> (f64, f64) {
        let p = tail_percentile(self.len()).map_or(50.0, |t| t.min(99.0));
        (p, self.percentile_us(p))
    }
}

/// One open-loop request's timing: the latency counts from when the
/// request was due, so a stall also charges the requests queued behind
/// it; the lateness says how far behind schedule the generator sent it.
pub fn open_loop_timing(due_ns: u64, sent_ns: u64, done_ns: u64) -> (u64, u64) {
    (done_ns.saturating_sub(due_ns), sent_ns.saturating_sub(due_ns))
}

/// How every attempted submission ended. The denominator of the
/// ratios is `attempted`, never the submissions that completed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// `sbatch` calls made.
    pub attempted: u64,
    /// `sbatch` calls that returned an error (a plugin timeout included).
    pub errors: u64,
    /// Jobs whose descriptor contradicts the served model: rewritten to
    /// a configuration the store never served for the key, touched
    /// without opting in, or left unrewritten without a plugin error.
    pub mismatches: u64,
    /// Opted-in jobs the plugin left unrewritten because the
    /// prediction failed (its documented fail-open path).
    pub unrewritten: u64,
}

impl Tally {
    /// Operations that failed outright: errors plus wrong outputs.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Share of attempted submissions that came out right.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - (self.failed() + self.unrewritten) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0), "p99 of 999 leaves only 9 beyond");
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(15), None);
        for n in [20usize, 100, 999, 1000, 5000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn p99_falls_back_when_samples_are_short() {
        let mut s = Samples::default();
        for i in 1..=500u64 {
            s.push_ns(i * 1000);
        }
        let (p, v) = s.p99_us();
        assert_eq!(p, 95.0);
        assert_eq!(v, 475.0);
        for i in 501..=1000u64 {
            s.push_ns(i * 1000);
        }
        assert_eq!(s.p99_us(), (99.0, 990.0));
        assert_eq!(s.p50_us(), 500.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // requests due every 100 ns; the generator stalls 1000 ns on the
        // second one, so the third is sent 950 ns late
        let (lat, late) = open_loop_timing(0, 0, 50);
        assert_eq!((lat, late), (50, 0));
        let (lat, late) = open_loop_timing(100, 100, 1150);
        assert_eq!((lat, late), (1050, 0));
        let (lat, late) = open_loop_timing(200, 1150, 1200);
        assert_eq!(late, 950, "sent 950 ns behind schedule");
        assert_eq!(lat, 1000, "the wait behind the stall is charged");
    }

    #[test]
    fn ratios_count_against_attempted_not_completed() {
        let t = Tally { attempted: 10, errors: 2, mismatches: 1, unrewritten: 2 };
        assert_eq!(t.failed(), 3);
        // 5 of 10 attempts were wrong; the 8 that completed are not the base
        assert!((t.ok_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(Tally::default().ok_ratio(), 0.0, "nothing attempted is nothing right");
    }
}
