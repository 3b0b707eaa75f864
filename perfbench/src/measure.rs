//! Small measurement helpers shared by every workload: percentiles, the
//! op log, the output digest, a seeded generator and peak memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile (0.0–1.0) of `values`, linearly interpolated between
/// the two closest ranks. `values` need not be sorted; empty gives 0.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The `q`-quantile of `values` by the Harrell–Davis estimator: the mean
/// of every order statistic, weighted by how much of a
/// Beta((n+1)q, (n+1)(1−q)) distribution falls on its rank. Op latencies
/// cluster by model, with wide gaps between the clusters; where a gap sits
/// at the quantile, one swapped rank moves the interpolated `quantile` by
/// the gap, while this estimate moves smoothly. Falls back to `quantile`
/// when too few values make the weights unbounded (`(n+1)q < 1` or
/// `(n+1)(1−q) < 1`).
#[must_use]
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    const STEPS: usize = 16;
    let n = values.len();
    let a = (n + 1) as f64 * q;
    let b = (n + 1) as f64 * (1.0 - q);
    if a < 1.0 || b < 1.0 {
        return quantile(values, q);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The Beta density up to its constant factor, which the normalization
    // below cancels; taken relative to its mode so no term underflows.
    let log_density = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln();
    let mode = if a + b > 2.0 { (a - 1.0) / (a + b - 2.0) } else { 0.5 };
    let peak = log_density(mode.clamp(1e-12, 1.0 - 1e-12));
    // Midpoint rule over each rank's interval [i/n, (i+1)/n].
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|s| {
                    let t = (i as f64 + (s as f64 + 0.5) / STEPS as f64) / n as f64;
                    (log_density(t) - peak).exp()
                })
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&sorted).map(|(w, v)| w * v).sum::<f64>() / total
}

/// The median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
#[must_use]
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Latencies, attempts and failures of the ops of one measured phase.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Per-op latency in milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Whole units of work: (lane, ops, seconds). A lane is one closed-loop
    /// client; lanes run concurrently, units within a lane one after another.
    pub units: Vec<(usize, usize, f64)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned a wrong output.
    pub failed: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

impl OpLog {
    /// Records one op: its latency and whether its output was right.
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.latencies_ms.push(ms(latency));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an op that failed before it produced an output.
    pub fn record_failure(&mut self, latency: Duration) {
        self.record(latency, false);
    }

    /// Folds another log of the same phase (another lane's) into this one.
    pub fn absorb(&mut self, other: OpLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.units.extend(other.units);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Ops completed per second. With at least three units in every lane it
    /// is the sum over lanes of each lane's median unit rate, so a slow
    /// stretch of a shared host that hits one unit does not move it;
    /// otherwise ops over phase wall time.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let mut lanes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(lane, ops, seconds) in &self.units {
            lanes.entry(lane).or_default().push(ops as f64 / seconds.max(1e-9));
        }
        if !lanes.is_empty() && lanes.values().all(|rates| rates.len() >= 3) {
            return lanes.values().map(|rates| median(rates)).sum();
        }
        self.latencies_ms.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs whole units of ops (a block, a pass) until at least `budget` has
/// passed, so every run measures the same mix of work. Each unit is told
/// the phase deadline. Returns the combined log with the phase wall time.
pub fn run_units(budget: Duration, mut unit: impl FnMut(&mut OpLog, Instant)) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    let deadline = start + budget;
    loop {
        let (ops, unit_start) = (log.latencies_ms.len(), Instant::now());
        let lanes = log.units.len();
        unit(&mut log, deadline);
        // Units that time their own lanes (the served mix) recorded them.
        if log.units.len() == lanes {
            let seconds = unit_start.elapsed().as_secs_f64();
            log.units.push((0, log.latencies_ms.len() - ops, seconds));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    log.elapsed = start.elapsed();
    log
}

extern "C" {
    /// glibc: returns free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Starts a fresh peak-RSS measurement: hands the heap pages set-up freed
/// back to the kernel, then resets the kernel's peak mark. Memory set-up
/// leaves live still counts; its transient peaks, and whatever the
/// allocator kept from repeated set-ups in per-thread arenas, do not.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointers and only releases pages of
    // free chunks; glibc serializes it against concurrent allocation.
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the peak-RSS mark: {e}");
    }
}

/// 64-bit FNV-1a, folded over successive byte strings. Stable across
/// toolchains, unlike `DefaultHasher`, so digests can be recorded.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest of one serialized value.
    #[must_use]
    pub fn of<T: serde::Serialize>(value: &T) -> u64 {
        let mut digest = Self::default();
        digest.update(json(value).as_bytes());
        digest.0
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The JSON encoding of `value` (the vendored serializer cannot fail on the
/// pipeline's types; a failure is a bug worth a loud message).
#[must_use]
pub fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("pipeline results serialize")
}

/// Checks that every output of a repeated op equals the first output seen
/// for the same key. Outputs are compared with `==` while ops run; only
/// [`Self::digest`], called once after measuring, serializes them, so the
/// check costs the measured ops next to nothing.
#[derive(Debug)]
pub struct OutputCheck<T> {
    first: BTreeMap<String, T>,
    /// Outputs that differed from the first output for their key.
    pub mismatches: u64,
}

impl<T> Default for OutputCheck<T> {
    fn default() -> Self {
        Self { first: BTreeMap::new(), mismatches: 0 }
    }
}

impl<T: PartialEq + serde::Serialize> OutputCheck<T> {
    /// Records the output of one op; `false` when it differs from an
    /// earlier output for the same key.
    pub fn observe(&mut self, key: String, output: T) -> bool {
        let same = match self.first.get(&key) {
            Some(first) => *first == output,
            None => {
                self.first.insert(key, output);
                true
            }
        };
        if !same {
            self.mismatches += 1;
        }
        same
    }

    /// The digest of every first output, in key order.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut digest = Digest::default();
        for (key, output) in &self.first {
            digest.update(key.as_bytes());
            digest.update(&Digest::of(output).to_le_bytes());
        }
        digest
    }

    /// Keys observed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// The first output recorded for `key`.
    #[must_use]
    pub fn first(&self, key: &str) -> Option<&T> {
        self.first.get(key)
    }
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a named stream (so streams of one seed
    /// are independent).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`). The daemons
/// and clients run in-process, so this covers the whole workload.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find(|line| line.starts_with("VmHWM:")).and_then(|line| {
                line.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_smooths_across_ranks() {
        assert!((hd_quantile(&[4.0, 1.0, 3.0, 2.0], 0.5) - 2.5).abs() < 1e-9, "symmetric");
        let ramp: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!((hd_quantile(&ramp, 0.5) - 500.0).abs() < 1e-6);
        assert!((hd_quantile(&ramp, 0.9) - 900.0).abs() < 1.0);
        // Two clusters with the median in the gap: the interpolated
        // quantile jumps by the whole gap when one value changes sides,
        // the Harrell–Davis estimate by a fraction of it.
        let low: Vec<f64> = [vec![100.0; 31], vec![400.0; 30]].concat();
        let high: Vec<f64> = [vec![100.0; 30], vec![400.0; 31]].concat();
        assert_eq!(quantile(&high, 0.5) - quantile(&low, 0.5), 300.0);
        assert!(hd_quantile(&high, 0.5) - hd_quantile(&low, 0.5) < 60.0);
        assert_eq!(hd_quantile(&[1.0, 2.0, 3.0], 0.9), quantile(&[1.0, 2.0, 3.0], 0.9));
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn ops_per_s_sums_each_lanes_median_unit_rate() {
        let mut log = OpLog::default();
        for _ in 0..6 {
            log.record(Duration::from_millis(10), true);
        }
        log.units =
            vec![(0, 10, 1.0), (0, 10, 2.0), (0, 10, 1.0), (1, 4, 1.0), (1, 4, 1.0), (1, 8, 1.0)];
        assert!((log.ops_per_s() - 14.0).abs() < 1e-9);
        log.units.pop();
        log.units.pop();
        log.elapsed = Duration::from_secs(2);
        assert!((log.ops_per_s() - 3.0).abs() < 1e-9, "too few units: ops over wall time");
    }

    #[test]
    fn output_check_flags_changed_outputs() {
        let mut check = OutputCheck::default();
        assert!(check.observe("a".into(), 1u32));
        assert!(check.observe("a".into(), 1));
        assert!(!check.observe("a".into(), 2));
        assert_eq!(check.mismatches, 1);
        assert_eq!(check.first("a"), Some(&1));
        let before = check.digest().hex();
        check.observe("b".into(), 3);
        assert_ne!(before, check.digest().hex());
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(7, 2).next_u64());
        let mut perm = SplitMix::new(3, 0).permutation(20);
        perm.sort_unstable();
        assert_eq!(perm, (0..20).collect::<Vec<_>>());
    }
}
