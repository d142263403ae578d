//! Seeded input generation. The benchmark owns its generator so that the
//! system under test only ever sees the generated inputs.

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose, so adding a draw to one
    /// generator does not shift the inputs of another.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A float literal with two decimals in `[lo, hi)`, as query text.
    pub fn decimal(&mut self, lo: i64, hi: i64) -> String {
        let cents = self.range(lo * 100, hi * 100);
        let sign = if cents < 0 { "-" } else { "" };
        let c = cents.unsigned_abs();
        format!("{sign}{}.{:02}", c / 100, c % 100)
    }
}

/// Zipf(s) over ranks `0..n`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, for remembering which query texts were already drawn without
/// keeping the texts (memory must not grow with throughput).
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
