//! Small numeric helpers: order statistics, the failure-rate bound, a seeded
//! RNG, a content digest, and the peak-RSS probe.

/// Median of `v` (mean of the two middle values for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method). Needs at
/// least two values; a single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One-sided 95 % Wilson upper bound on the failure probability after
/// `failed` failures in `attempted` operations.
///
/// This is what the benchmark reports as `error_rate`: unlike the raw ratio
/// it is never 0 (with no failures it is about 2.7 / `attempted`), so it can
/// be compared run against run as a share of its median, and a single
/// failure moves it by far more than the metric's bound.
pub fn wilson_upper(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    let z = 1.645_f64;
    let n = attempted as f64;
    let p = failed as f64 / n;
    let z2 = z * z;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + margin) / (1.0 + z2 / n)).min(1.0)
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark makes
/// is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_f37c_4a11_0b0d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over `bytes`: the digest the golden output files store.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `VmHWM` (peak resident set) of process `pid` in kB, from
/// `/proc/<pid>/status`; `"self"` reads this process.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_and_median() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(median(&v), 100.5);
    }

    #[test]
    fn wilson_bound_is_positive_and_moves_with_failures() {
        let clean = wilson_upper(0, 1000);
        assert!(clean > 0.002 && clean < 0.003, "{clean}");
        assert!(wilson_upper(1, 1000) > 1.5 * clean);
    }
}
