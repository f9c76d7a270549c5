//! The machine's speed while a loop runs, read from a fixed piece of work
//! that calls none of the code under test, so that end-to-end times can be
//! reported at one reference speed.
//!
//! Other processes on the machine slow whole stretches of a run: on the
//! two-vCPU virtual machine the benchmark was tuned on, with no steal time,
//! the same build ran 340 to 750 explains/s from one run to the next and
//! moved by half within seconds. The reference work slowed with it (0.37 to
//! 0.63 ms within one run), so an op's time divided by the reference work's
//! time of the same second is steady where the raw time is not. The code
//! under test never runs inside the reference work, so a change to it moves
//! the scaled times as much as the raw ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often a loop times the reference work: about 2% of the loop.
const EVERY: Duration = Duration::from_millis(25);

/// The reference work's time, in ms, on the machine the benchmark was tuned
/// on in its quietest stretches. Scaled times are times on a machine that
/// does the reference work in this long.
pub const REFERENCE_MS: f64 = 0.4;

/// A fixed piece of work of the kind the attribution stack does: fill a
/// vector from a generator, sort it, and build and probe a hash map.
pub fn reference_work() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut values: Vec<u64> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let map: std::collections::HashMap<u64, usize> =
        values.iter().enumerate().step_by(2).map(|(i, &v)| (v, i)).collect();
    values.iter().filter_map(|v| map.get(v)).map(|&i| i as u64).sum()
}

/// The reference work's time now, in ms: the median of three timings.
pub fn reference_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(reference_work());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Timings of the reference work over a loop.
pub struct Pace {
    start: Instant,
    next: Instant,
    /// `(seconds since start, ms)` of each timing.
    samples: Vec<(f64, f64)>,
}

impl Pace {
    pub fn start(start: Instant) -> Self {
        Pace { start, next: start, samples: Vec::new() }
    }

    /// Seconds from the loop's start to `at`.
    pub fn offset(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Times the reference work once if it is due.
    pub fn tick(&mut self) {
        let t = Instant::now();
        if t < self.next {
            return;
        }
        black_box(reference_work());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push((self.offset(t), ms));
        self.next = Instant::now() + EVERY;
    }

    /// The scale of each whole second of the loop.
    pub fn finish(self) -> Scale {
        Scale::of(&self.samples)
    }
}

/// Per second of a loop, the factor that brings a time measured in it to
/// reference speed.
#[derive(Debug)]
pub struct Scale {
    per_second: Vec<Option<f64>>,
    overall: f64,
    /// Median reference time over the loop, in ms.
    pub reference_ms: f64,
}

impl Scale {
    /// From `(seconds since start, ms)` timings: [`REFERENCE_MS`] over the
    /// median timing of each second, or of the whole loop for a second
    /// without one.
    pub fn of(samples: &[(f64, f64)]) -> Scale {
        let seconds = samples.iter().map(|&(t, _)| t as usize + 1).max().unwrap_or(0);
        let mut bins: Vec<Vec<f64>> = vec![Vec::new(); seconds];
        for &(t, ms) in samples {
            bins[t as usize].push(ms);
        }
        let factor = |ms: f64| if ms > 0.0 { REFERENCE_MS / ms } else { 1.0 };
        let all: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
        let reference_ms = median(&all);
        Scale {
            per_second: bins.iter().map(|b| (!b.is_empty()).then(|| factor(median(b)))).collect(),
            overall: factor(reference_ms),
            reference_ms,
        }
    }

    /// `value` measured `at` seconds into the loop, at reference speed.
    pub fn apply(&self, at: f64, value: f64) -> f64 {
        let factor = self.per_second.get(at as usize).copied().flatten();
        value * factor.unwrap_or(self.overall)
    }

    /// [`Scale::apply`] over a series of `(seconds, value)`.
    pub fn series(&self, timed: &[(f64, f64)]) -> Vec<f64> {
        timed.iter().map(|&(at, v)| self.apply(at, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_reference_time_of_their_second() {
        // Second 0 runs at reference speed, second 1 at half of it, second 2
        // has no timing, second 3 runs at double speed.
        let samples = [(0.1, 0.4), (0.6, 0.4), (1.2, 0.8), (1.9, 0.8), (3.5, 0.2)];
        let scale = Scale::of(&samples);
        assert_eq!(scale.reference_ms, 0.4);
        assert_eq!(scale.apply(0.3, 10.0), 10.0);
        assert_eq!(scale.apply(1.5, 10.0), 5.0);
        assert_eq!(scale.apply(2.5, 10.0), 10.0);
        assert_eq!(scale.apply(3.0, 10.0), 20.0);
        // Past the last timing: the whole loop's median.
        assert_eq!(scale.apply(9.0, 10.0), 10.0);
        assert_eq!(scale.series(&[(0.0, 1.0), (1.0, 1.0)]), vec![1.0, 0.5]);
        // No timings at all leaves values as they are.
        assert_eq!(Scale::of(&[]).apply(0.0, 3.0), 3.0);
    }

    #[test]
    fn the_reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
        assert!(reference_ms() > 0.0);
    }
}
