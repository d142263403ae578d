//! Timing helpers. Calls shorter than ~10 µs are only ever timed in
//! batches: timed one by one, a ~1 µs call gives a bimodal median.

use std::hint::black_box;
use std::time::Instant;

use crate::shapes::{Cols, Hand};

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Seconds per call of `f`, timing `reps` calls together.
pub fn per_call<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    secs(t) / reps as f64
}

/// Seconds per call of a hand loop. A call shorter than ~20 µs is timed
/// again in a batch of at least that long.
pub fn time_hand(hand: &Hand, cols: &Cols) -> f64 {
    let t = Instant::now();
    black_box(hand(black_box(cols)));
    let one = secs(t);
    if one >= 20e-6 {
        return one;
    }
    let reps = ((20e-6 / one.max(1e-9)).ceil() as usize).clamp(1, 256);
    per_call(reps, || hand(black_box(cols)))
}

/// Set-up times of one run. The host's load changes the speed of the
/// whole core for seconds at a time, so set-ups taken back to back all
/// see one state of the machine. These are taken every `every` seconds
/// through the measured window instead, and `setup_s` is their median.
pub struct Setups {
    every: f64,
    next: f64,
    times: Vec<f64>,
}

impl Setups {
    /// With `every` infinite, only the run's first set-up is timed.
    pub fn new(every: f64) -> Setups {
        Setups {
            every,
            next: every,
            times: Vec::new(),
        }
    }

    /// Times `f` as one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.times.push(secs(t));
        value
    }

    /// Whether another set-up is due, `elapsed` seconds into the window.
    pub fn due(&mut self, elapsed: f64) -> bool {
        if elapsed < self.next {
            return false;
        }
        self.next = elapsed + self.every;
        true
    }

    pub fn count(&self) -> usize {
        self.times.len()
    }

    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}
