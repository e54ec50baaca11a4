//! Small numeric helpers: percentiles, the seeded generator the
//! workloads draw from, and the process's peak resident memory.

/// Value at quantile `q` of an ascending slice (nearest rank, linear
/// position `q·(n−1)` rounded). `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// The tail quantile a sample of `n` timings can support: p99 when at
/// least ten samples lie beyond it, otherwise the highest quantile that
/// still leaves ten samples beyond it (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// splitmix64: the seeded stream every generated input comes from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential inter-arrival time in seconds at `rate_per_s`.
    pub fn exp_interval(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_per_s
    }
}

/// Low-discrepancy walk over `0..n`: a seeded start stepping by the
/// golden ratio, so a few hundred draws cover the range evenly and the
/// mean cost of the drawn items barely moves from seed to seed.
#[derive(Debug, Clone)]
pub struct Weyl {
    pos: f64,
}

impl Weyl {
    /// A walk whose start is drawn from `rng`.
    pub fn new(rng: &mut Rng) -> Weyl {
        Weyl { pos: rng.unit() }
    }

    /// Next index in `0..n` (`n > 0`).
    pub fn next_index(&mut self, n: usize) -> usize {
        self.pos = (self.pos + 0.618_033_988_749_894_9).fract();
        ((self.pos * n as f64) as usize).min(n - 1)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(51.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_q(5000), 0.99);
        assert!((tail_q(250) - 0.96).abs() < 1e-12);
        assert_eq!(tail_q(4), 0.5);
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn weyl_covers_the_range_evenly() {
        let mut w = Weyl::new(&mut Rng::new(3, 0));
        let mut counts = [0usize; 10];
        for _ in 0..1000 {
            counts[w.next_index(10)] += 1;
        }
        assert!(counts.iter().all(|&c| (90..=110).contains(&c)), "{counts:?}");
    }
}
