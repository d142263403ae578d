//! Order statistics over timing samples.

/// The `q`-quantile (`0..=1`) by linear interpolation; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// A log-bucketed histogram of positive samples: constant memory however
/// many samples a run takes (so the benchmark's own storage does not move
/// `peak_rss_mb` with throughput), and quantiles within 0.3%.
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

/// Buckets per octave, and the octave range `2^-MIN_EXP ..= 2^MAX_EXP`.
const SUB: f64 = 128.0;
const MIN_EXP: i32 = 34;
const MAX_EXP: i32 = 20;

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; ((MIN_EXP + MAX_EXP) as f64 * SUB) as usize],
            n: 0,
        }
    }

    pub fn add(&mut self, x: f64) {
        let b = ((x.log2() + f64::from(MIN_EXP)) * SUB).floor();
        let b = (b.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile, interpolated by rank within its bucket; `NaN`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = q * (self.n - 1) as f64;
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + u64::from(c)) as f64 > rank {
                let f = ((rank - before as f64 + 0.5) / f64::from(c)).clamp(0.0, 1.0);
                return ((b as f64 + f) / SUB - f64::from(MIN_EXP)).exp2();
            }
            before += u64::from(c);
        }
        f64::NAN
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Throughput as the median over fixed-size windows of `ops / time`.
/// A whole-core slowdown lasting a few windows moves the median far less
/// than it moves a whole-run average.
pub struct Windows {
    size: usize,
    ops: usize,
    secs: f64,
    rates: Vec<f64>,
}

impl Windows {
    pub fn new(size: usize) -> Windows {
        Windows {
            size,
            ops: 0,
            secs: 0.0,
            rates: Vec::new(),
        }
    }

    /// Adds `ops` completed in `secs` of measured time.
    pub fn add(&mut self, ops: usize, secs: f64) {
        self.ops += ops;
        self.secs += secs;
        if self.ops >= self.size {
            self.rates.push(self.ops as f64 / self.secs);
            self.ops = 0;
            self.secs = 0.0;
        }
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    pub fn median_rate(&self) -> f64 {
        median(&self.rates)
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
