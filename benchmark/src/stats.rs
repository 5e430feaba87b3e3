//! Measurement helpers: the seeded generator that orders requests, floors
//! and quantiles over samples, and the process's own memory and CPU
//! readings from `/proc`.

use std::time::Instant;

/// splitmix64: all the randomness the harness needs (request order, lookup
/// constants), a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates over `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The minimum of each of `n` repeated pieces, kept across repeats. The
/// gated timings are sums of these: on a shared box noise only ever adds,
/// and a short piece regularly lands in a quiet window (README.md, "Why
/// floors").
#[derive(Debug, Clone)]
pub struct Floors(Vec<f64>);

impl Floors {
    pub fn new(n: usize) -> Self {
        Self(vec![f64::INFINITY; n])
    }

    pub fn observe(&mut self, index: usize, seconds: f64) {
        if seconds < self.0[index] {
            self.0[index] = seconds;
        }
    }

    /// Pieces never observed count as 0, so a skipped phase cannot poison a
    /// sum with infinity.
    pub fn get(&self, index: usize) -> f64 {
        if self.0[index].is_finite() {
            self.0[index]
        } else {
            0.0
        }
    }

    pub fn sum(&self) -> f64 {
        (0..self.0.len()).map(|i| self.get(i)).sum()
    }

    pub fn max(&self) -> f64 {
        (0..self.0.len()).map(|i| self.get(i)).fold(0.0, f64::max)
    }

    pub fn geomean(&self) -> f64 {
        let positive: Vec<f64> = (0..self.0.len())
            .map(|i| self.get(i))
            .filter(|v| *v > 0.0)
            .collect();
        if positive.is_empty() {
            return 0.0;
        }
        (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
    }
}

/// Times `f` once, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Runs `round` at least `min_rounds` times, then until `budget_s` is
/// spent; returns the number of rounds.
pub fn rounds(min_rounds: usize, budget_s: f64, mut round: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut done = 0;
    while done < min_rounds || started.elapsed().as_secs_f64() < budget_s {
        round(done);
        done += 1;
    }
    done
}

/// The minimum wall of `f` over [`rounds`] repeats.
pub fn floor_of<T>(min_repeats: usize, budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    rounds(min_repeats, budget_s, |_| {
        let (value, seconds) = timed(&mut f);
        std::hint::black_box(value);
        best = best.min(seconds);
    });
    best
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// default exclusive method) — the driver's definition of spread.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let mid = median(values);
    (mid > 0.0).then(|| (q[2] - q[0]) / mid)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`.
pub fn supported_tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let percentile = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (percentile, percentile_of(sorted, percentile))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_of(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz clock ticks).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may contain spaces; fields are
            // counted from the closing parenthesis.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn floors_keep_minima_and_ignore_unobserved_pieces() {
        let mut floors = Floors::new(3);
        floors.observe(0, 2.0);
        floors.observe(0, 1.0);
        floors.observe(1, 4.0);
        assert_eq!(floors.sum(), 5.0);
        assert_eq!(floors.max(), 4.0);
        assert_eq!(floors.geomean(), 2.0);
    }

    #[test]
    fn the_tail_percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=350).map(f64::from).collect();
        assert_eq!(supported_tail(&sorted).0, 95.0);
        let few: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(supported_tail(&few).0, 50.0);
    }

    #[test]
    fn shuffles_are_a_function_of_the_seed() {
        let order = |seed| {
            let mut items: Vec<usize> = (0..20).collect();
            Rng::new(seed).shuffle(&mut items);
            items
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }
}
