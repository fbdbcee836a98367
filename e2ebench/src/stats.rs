//! Small statistics the benchmark reports: percentiles that carry their
//! sample count, ratios that carry their base, medians, and the
//! quiescence detector the lockstep loop closes its rounds with.

use std::fmt;

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1]`.
    pub q: f64,
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: u64,
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} = {} (n = {})",
            (self.q * 100.0).round(),
            self.value,
            self.samples
        )
    }
}

/// Nearest-rank percentile of `values` (which it sorts): the smallest
/// value with at least `q` of the samples at or below it. `None` when
/// there are no samples.
pub fn percentile(values: &mut [f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = nearest_rank(values.len() as u64, q);
    Some(Percentile {
        q,
        value: values[(rank - 1) as usize],
        samples: values.len() as u64,
    })
}

fn nearest_rank(samples: u64, q: f64) -> u64 {
    ((q * samples as f64).ceil() as u64).clamp(1, samples)
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Counts of small non-negative integers (delivery latencies in rounds,
/// hop counts), from which exact percentiles are read without keeping
/// every sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Records one sample.
    pub fn add(&mut self, value: u64) {
        let i = value as usize;
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Samples recorded.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentile of the samples read as continuous values: a sample `v`
    /// stands for the class `[v, v + 1)` (a delivery seen `v` rounds
    /// after its publish happened between `v` and `v + 1` rounds later),
    /// and the quantile is interpolated linearly inside the class it
    /// falls in. Unlike the nearest rank it moves smoothly with the
    /// distribution instead of jumping a whole round.
    pub fn percentile_interpolated(&self, q: f64) -> Option<Percentile> {
        let samples = self.samples();
        if samples == 0 {
            return None;
        }
        let target = q * samples as f64;
        let mut below = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= target {
                let into = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(Percentile {
                    q,
                    value: v as f64 + into,
                    samples,
                });
            }
            below += c;
        }
        unreachable!("quantile {q} within {samples} samples")
    }

    /// Nearest-rank percentile, as [`percentile`] computes it.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        let samples = self.samples();
        if samples == 0 {
            return None;
        }
        let rank = nearest_rank(samples, q);
        let mut seen = 0;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Percentile {
                    q,
                    value: v as f64,
                    samples,
                });
            }
        }
        unreachable!("rank {rank} within {samples} samples")
    }
}

/// A ratio that remembers its base, so every reported ratio can say what
/// it was divided by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The counted quantity.
    pub num: f64,
    /// The base it is taken per.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Ratio {
        Ratio {
            num: num.into(),
            den: den.into(),
        }
    }

    /// The quotient; 0 when the base is 0 (nothing to divide over).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {}", self.num, self.den)
    }
}

/// Detects that a lockstep round's traffic has stopped moving: fed the
/// cluster's counter signature after every drain pass, it reports
/// quiescence once a pass left the signature unchanged.
#[derive(Debug, Default)]
pub struct Quiescence {
    prev: Option<[u64; 4]>,
    passes: u32,
}

impl Quiescence {
    /// Starts watching a new round.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the signature after one more drain pass; true when it
    /// equals the previous pass's.
    pub fn settled(&mut self, signature: [u64; 4]) -> bool {
        self.passes += 1;
        let same = self.prev == Some(signature);
        self.prev = Some(signature);
        same
    }

    /// Drain passes observed this round.
    pub fn passes(&self) -> u32 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p50 = percentile(&mut v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples), (100.0, 200));
        let p99 = percentile(&mut v, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples), (198.0, 200));
        assert_eq!(p99.to_string(), "p99 = 198 (n = 200)");
        assert!(percentile(&mut [], 0.5).is_none());
        // A single sample is every percentile.
        assert_eq!(percentile(&mut [7.0], 0.99).unwrap().value, 7.0);
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_samples() {
        let samples = [4u64, 4, 5, 3, 7, 4, 6, 4, 5, 12];
        let mut h = Histogram::default();
        for &s in &samples {
            h.add(s);
        }
        let mut floats: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), percentile(&mut floats, q), "q = {q}");
        }
        assert_eq!(h.samples(), 10);
        assert!(Histogram::default().percentile(0.5).is_none());
    }

    #[test]
    fn interpolated_percentile_moves_within_the_class() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.add(4);
        }
        for _ in 0..10 {
            h.add(7);
        }
        // 90 of 100 samples sit in [4, 5): the median is halfway through
        // that class ...
        let p50 = h.percentile_interpolated(0.5).unwrap();
        assert!((p50.value - (4.0 + 50.0 / 90.0)).abs() < 1e-12);
        assert_eq!(p50.samples, 100);
        // ... and p99 is 9/10 of the way through [7, 8).
        let p99 = h.percentile_interpolated(0.99).unwrap();
        assert!((p99.value - 7.9).abs() < 1e-12);
        // The value always lies in the nearest-rank sample's class.
        for q in [0.01, 0.3, 0.9, 0.95, 1.0] {
            let near = h.percentile(q).unwrap().value;
            let v = h.percentile_interpolated(q).unwrap().value;
            assert!(near <= v && v <= near + 1.0, "q = {q}: {v} vs {near}");
        }
        assert!(Histogram::default().percentile_interpolated(0.5).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(30u32, 4u32);
        assert_eq!(r.value(), 7.5);
        assert_eq!(r.to_string(), "30 / 4");
        assert_eq!(Ratio::new(5u32, 0u32).value(), 0.0);
    }

    #[test]
    fn quiescence_needs_one_unchanged_pass() {
        let mut q = Quiescence::new();
        assert!(
            !q.settled([1, 2, 0, 0]),
            "first pass has nothing to compare"
        );
        assert!(!q.settled([3, 5, 0, 0]), "traffic still moving");
        assert!(q.settled([3, 5, 0, 0]));
        assert_eq!(q.passes(), 3);
        // Any counter moving resets the watch.
        let mut q = Quiescence::new();
        q.settled([1, 1, 1, 1]);
        assert!(!q.settled([1, 1, 1, 2]));
    }
}
