//! Order statistics of timing samples.

/// Percentiles the tail metric may report, highest first. The metric is
/// named after the first one; the others are used only when a run has too
/// few samples for it.
const TAIL_LADDER: [u32; 6] = [990, 980, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`], in per mille, that has at
/// least [`MIN_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn tail_per_mille(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| n - (n * pm as usize).div_ceil(1000) >= MIN_BEYOND)
        .unwrap_or(500)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks; 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The Harrell–Davis median of `values`: every sample weighted by the
/// probability that the median of `n + 1` draws has its rank. An explain
/// pass is 16 queries of different costs, so the sample median falls between
/// the eighth and ninth cheapest query and jumps from one to the other as a
/// part's mix shifts by one op; this estimate moves smoothly between them.
pub fn smooth_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let a = (n + 1) as f64 / 2.0;
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = incomplete_beta((i + 1) as f64 / n as f64, a, a);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// `ln Γ(x)` for `x ≥ 1/2` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..].iter().enumerate().fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * std::f64::consts::TAU.ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`, by its continued
/// fraction (modified Lentz).
fn incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - incomplete_beta(1.0 - x, b, a);
    }
    const TINY: f64 = 1e-300;
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let (mut c, mut d) = (1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0)));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    front * h
}

/// Samples per part of a robust tail: a p99 needs 1000 for ten beyond it.
pub const TAIL_PART: usize = 1000;
/// Samples per part of a robust median or throughput, at least.
pub const MIN_PART: usize = 20;
/// The most parts a robust median or throughput is taken over: half-second
/// parts of a 30-second run.
pub const PARTS: usize = 60;

/// A statistic of a time-ordered series that a burst of machine noise in
/// one stretch of the run cannot move: the series is cut into `parts`
/// contiguous parts of equal count, `stat` is taken on each, and the median
/// of the parts is returned.
pub fn median_of_parts(series: &[f64], parts: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let n = series.len();
    let parts = parts.clamp(1, n.max(1));
    let values: Vec<f64> =
        (0..parts).map(|i| stat(&series[i * n / parts..(i + 1) * n / parts])).collect();
    median(&values)
}

/// Parts of a robust median or throughput of `n` samples: as many as
/// [`PARTS`], of at least [`MIN_PART`] samples each.
pub fn parts_of(n: usize) -> usize {
    (n / MIN_PART).clamp(1, PARTS)
}

/// Median and tail of a time-ordered latency series, each the median over
/// contiguous parts of the run: [`smooth_median`] of parts of at least
/// [`MIN_PART`] samples for the median, the sample percentile of parts of
/// at least [`TAIL_PART`] for the tail, so every part's tail has ten samples
/// beyond it once the run has 1000.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Robust {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile each part's tail reports, in per mille.
    pub tail_per_mille: u32,
    pub tail_parts: usize,
}

impl Robust {
    pub fn of(series: &[f64]) -> Robust {
        let n = series.len();
        let tail_parts = (n / TAIL_PART).max(1);
        let tail_per_mille = tail_per_mille(n / tail_parts);
        let tail = |part: &[f64]| {
            let mut sorted = part.to_vec();
            sorted.sort_by(f64::total_cmp);
            quantile(&sorted, f64::from(tail_per_mille) / 1000.0)
        };
        Robust {
            n,
            p50: median_of_parts(series, parts_of(n), smooth_median),
            tail: median_of_parts(series, tail_parts, tail),
            tail_per_mille,
            tail_parts,
        }
    }

    /// `"smooth p50 of 1234, median of 60 parts"`.
    pub fn p50_label(&self) -> String {
        format!("smooth p50 of {}, median of {} parts", self.n, parts_of(self.n))
    }

    /// `"p99 of 1234, median of 2 parts"`.
    pub fn tail_label(&self) -> String {
        let pm = self.tail_per_mille;
        let p = if pm % 10 == 0 {
            format!("p{}", pm / 10)
        } else {
            format!("p{}.{}", pm / 10, pm % 10)
        };
        format!("{p} of {}, median of {} parts", self.n, self.tail_parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_per_mille(100_000), 990);
        assert_eq!(tail_per_mille(1000), 990);
        // 999 samples leave only 9 beyond p99.
        assert_eq!(tail_per_mille(999), 980);
        assert_eq!(tail_per_mille(500), 980);
        assert_eq!(tail_per_mille(499), 950);
        assert_eq!(tail_per_mille(200), 950);
        assert_eq!(tail_per_mille(100), 900);
        assert_eq!(tail_per_mille(40), 750);
        assert_eq!(tail_per_mille(20), 500);
        assert_eq!(tail_per_mille(3), 500);
        assert_eq!(tail_per_mille(0), 500);
    }

    #[test]
    fn every_chosen_tail_leaves_ten_samples_beyond_it() {
        // Up to one tail part, the tail is a percentile of the whole series.
        for n in 20..=2 * TAIL_PART - 1 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = Robust::of(&samples);
            assert_eq!(s.tail_parts, 1);
            let beyond = samples.iter().filter(|&&x| x > s.tail).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond {}", s.tail_label());
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_one_part_tail_sorts_its_input_and_is_labelled() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Robust::of(&samples);
        assert_eq!(s.n, 1000);
        assert!((s.tail - 989.01).abs() < 1e-9);
        assert_eq!(s.tail_label(), "p99 of 1000, median of 1 parts");
        assert_eq!(Robust::of(&samples[..999]).tail_label(), "p98 of 999, median of 1 parts");
        // 50 parts of 20 samples; their medians rise from 9.5 by 20.
        assert!((s.p50 - 499.5).abs() < 1e-6);
        assert_eq!(s.p50_label(), "smooth p50 of 1000, median of 50 parts");
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        for x in [0.1, 0.3, 0.5, 0.9] {
            assert!((incomplete_beta(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((incomplete_beta(x, 3.0, 1.0) - x * x * x).abs() < 1e-12);
            assert!((incomplete_beta(x, 1.0, 2.0) - (1.0 - (1.0 - x) * (1.0 - x))).abs() < 1e-12);
        }
        for a in [1.5, 10.5, 600.5] {
            assert!((incomplete_beta(0.5, a, a) - 0.5).abs() < 1e-10, "{a}");
        }
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn smooth_median_does_not_jump_between_clusters() {
        assert_eq!(smooth_median(&[]), 0.0);
        assert_eq!(smooth_median(&[4.0]), 4.0);
        assert!((smooth_median(&[3.0; 7]) - 3.0).abs() < 1e-12);
        let symmetric: Vec<f64> = (0..101).map(f64::from).collect();
        assert!((smooth_median(&symmetric) - 50.0).abs() < 1e-9);
        // One op more of the cheap query: the sample median jumps the whole
        // gap between the two costs, the smooth median a small step.
        let mix = |cheap: usize, dear: usize| {
            let mut v = vec![1.0; cheap];
            v.extend(vec![2.0; dear]);
            v
        };
        let (before, after) = (mix(100, 101), mix(101, 100));
        assert_eq!(median(&before) - median(&after), 1.0);
        let step = smooth_median(&before) - smooth_median(&after);
        assert!(step > 0.0 && step < 0.1, "{step}");
    }

    #[test]
    fn median_of_parts_takes_the_middle_part() {
        let series = [1.0, 1.0, 5.0, 5.0, 9.0, 9.0];
        let mean = |p: &[f64]| p.iter().sum::<f64>() / p.len() as f64;
        assert_eq!(median_of_parts(&series, 3, mean), 5.0);
        assert_eq!(median_of_parts(&series, 1, mean), 5.0);
        assert_eq!(median_of_parts(&series, 100, mean), 5.0);
        assert_eq!(median_of_parts(&[], 3, |p| p.len() as f64), 0.0);
        assert_eq!((parts_of(0), parts_of(119), parts_of(120), parts_of(5000)), (1, 5, 6, 60));
    }

    #[test]
    fn a_burst_in_one_part_does_not_move_the_robust_tail() {
        // 3000 samples in three tail parts (and 60 median parts) of the same
        // mix; a burst lands in the second tail part.
        let calm: Vec<f64> = (0..3000).map(|i| f64::from(i % 10)).collect();
        let mut burst = calm.clone();
        for x in &mut burst[1000..1050] {
            *x = 1e6;
        }
        let (calm, burst) = (Robust::of(&calm), Robust::of(&burst));
        assert_eq!((burst.tail_parts, burst.tail_per_mille), (3, 990));
        assert_eq!(burst.tail, calm.tail);
        assert_eq!(burst.p50, calm.p50);
        assert_eq!(burst.tail_label(), "p99 of 3000, median of 3 parts");
        // Below 1000 samples the tail is the ladder's, over one part.
        let short = Robust::of(&(0..500).map(f64::from).collect::<Vec<_>>());
        assert_eq!((short.tail_parts, short.tail_per_mille), (1, 980));
    }
}
