//! `compile_churn`: a closed loop on one thread in which every op is the
//! first execution of a query text never seen before. The compile
//! pipeline does nearly all the work; the VM runs on ~2k elements; the
//! bounded plan cache is only written (every op inserts, and once full,
//! evicts).

use std::time::Instant;

use steno::Steno;
use steno_expr::{DataContext, UdfRegistry};

use crate::check::same;
use crate::report::Report;
use crate::rng::{fnv, Rng};
use crate::shapes::{churn_op, Cols, Op, CHURN_SHAPES};
use crate::span::Spans;
use crate::stats::{geomean, Hist, Windows};
use crate::timing::{secs, time_hand, Setups};

/// Source length of `xs` and `ns`: small enough that compiling dominates.
pub const ELEMS: usize = 2000;
/// Plan-cache capacity of both engines.
pub const CACHE: usize = 64;

pub fn cols(seed: u64) -> Cols {
    // Ramps, like the corpus the shapes come from, so that take_while,
    // skip_while and the range filters cut at seed-dependent points.
    let mut r = Rng::derive(seed, 1);
    let x0 = r.range(-40_000, -20_000) as f64 / 100.0;
    let n0 = r.range(1, 100);
    Cols {
        xs: (0..ELEMS).map(|i| x0 + 0.25 * i as f64).collect(),
        ns: (0..ELEMS as i64).map(|i| n0 + i).collect(),
    }
}

/// The default engine (release defaults: no verification) and the
/// verifying engine, both with a bounded plan cache.
pub fn engines() -> (Steno, Steno) {
    (
        Steno::new().with_cache_capacity(CACHE),
        Steno::new().with_verify(true).with_cache_capacity(CACHE),
    )
}

/// Hashes of the texts drawn so far, as a fixed-size bit set (2 MiB), so
/// that the benchmark's own memory does not grow with the number of ops
/// and `peak_rss_mb` does not move with throughput. Two texts that share a
/// bit only make [`Churn::fresh`] draw once more.
struct Seen(Vec<u64>);

impl Seen {
    /// Bits of the set, as a power of two: a 30 s run draws at most a
    /// few hundred thousand texts, which mark a few percent of its bits.
    const BITS: u32 = 24;

    fn new() -> Seen {
        Seen(vec![0; (1 << Self::BITS) / 64])
    }

    /// Marks `hash`; false when its bit was already marked.
    fn insert(&mut self, hash: u64) -> bool {
        let bit = (hash >> (64 - Self::BITS)) as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let new = self.0[word] & mask == 0;
        self.0[word] |= mask;
        new
    }
}

pub struct Churn {
    pub cols: Cols,
    pub ctx: DataContext,
    pub udfs: UdfRegistry,
    pub engine: Steno,
    pub verifier: Steno,
    rng: Rng,
    seen: Seen,
}

impl Churn {
    /// Generates the inputs, then sets up, timing it into `setups`.
    pub fn new(seed: u64, setups: &mut Setups) -> Churn {
        let mut churn = Churn {
            cols: cols(seed),
            ctx: DataContext::new(),
            udfs: UdfRegistry::new(),
            engine: Steno::new(),
            verifier: Steno::new(),
            rng: Rng::derive(seed, 2),
            seen: Seen::new(),
        };
        churn.set_up(setups);
        churn
    }

    /// Set-up: the context, both engines, and a cold start — the first
    /// execution of one new text per shape on each engine. It replaces
    /// the previous context and engines, which are dropped first, so
    /// that a run can set up again as often as it likes without its
    /// memory growing.
    pub fn set_up(&mut self, setups: &mut Setups) {
        self.engine = Steno::new();
        self.verifier = Steno::new();
        setups.time(|| {
            self.ctx = self.cols.context();
            (self.engine, self.verifier) = engines();
            for shape in 0..CHURN_SHAPES {
                let op = self.fresh(shape);
                let _ = self.engine.execute_text(&op.text, &self.ctx, &self.udfs);
                let _ = self.verifier.execute_text(&op.text, &self.ctx, &self.udfs);
            }
        });
    }

    /// Draws a text of `shape` that no earlier op used.
    fn fresh(&mut self, shape: usize) -> Op {
        loop {
            let op = churn_op(shape, &mut self.rng);
            if self.seen.insert(fnv(&op.text)) {
                return op;
            }
        }
    }

    /// The next op of the stream: a uniformly drawn shape, new constants.
    pub fn next_op(&mut self) -> Op {
        let shape = self.rng.range(0, CHURN_SHAPES as i64) as usize;
        self.fresh(shape)
    }
}

/// Timings of one op.
pub struct Sample {
    pub shape: usize,
    pub default_s: f64,
    pub verified_s: f64,
    pub hand_s: f64,
    /// Whether the default and the verifying engine's answers matched.
    pub ok: bool,
    pub verified_ok: bool,
}

/// Runs one op: reference (untimed), default engine, verifying engine,
/// hand loop; checks both answers. Returns `None` when the benchmark's
/// own hand loop disagrees with the reference.
pub fn step(c: &mut Churn, report: &mut Report, spans: &mut Spans) -> Option<Sample> {
    spans.open("churn.op");
    let op = c.next_op();
    let text = op.text.clone();
    let want = spans.run("linq.reference", || {
        steno_linq::interp::execute(&op.query, &c.ctx, &c.udfs)
    });
    let want = match want {
        Ok(v) => v,
        Err(e) => {
            report
                .broken
                .push(format!("reference failed on `{text}`: {e}"));
            spans.close();
            return None;
        }
    };
    let hand_value = (op.hand)(&c.cols);
    if !same(&hand_value, &want) {
        report.broken.push(format!(
            "hand loop disagrees with the reference on `{text}`"
        ));
        spans.close();
        return None;
    }

    let t = Instant::now();
    let got = spans.run("steno.execute_text", || {
        c.engine.execute_text(&text, &c.ctx, &c.udfs)
    });
    let default_s = secs(t);
    let t = Instant::now();
    let got_verified = spans.run("steno.execute_text.verified", || {
        c.verifier.execute_text(&text, &c.ctx, &c.udfs)
    });
    let verified_s = secs(t);
    let hand_s = spans.run("hand", || time_hand(&op.hand, &c.cols));
    spans.close();

    let ok = report.tally.record(&got, &want);
    let verified_ok = report.tally.record(&got_verified, &want);
    Some(Sample {
        shape: op.shape,
        default_s,
        verified_s,
        hand_s,
        ok,
        verified_ok,
    })
}

/// Per shape: default-engine latency, and the default and verifying
/// engines' latencies as ratios to the hand loop.
#[derive(Default)]
struct ShapeHists {
    latency: Hist,
    vs_hand: Hist,
    verified_vs_hand: Hist,
}

/// Collected samples of a measured window.
struct Samples {
    latency: Hist,
    verified: Hist,
    by_shape: Vec<ShapeHists>,
    windows: Windows,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            latency: Hist::new(),
            verified: Hist::new(),
            by_shape: (0..CHURN_SHAPES).map(|_| ShapeHists::default()).collect(),
            windows: Windows::new(256),
        }
    }

    /// Only a correct op gives latency samples: a failed one may have
    /// stopped early, and its time is not that of the query.
    fn add(&mut self, s: &Sample) {
        let h = &mut self.by_shape[s.shape];
        if s.ok {
            self.latency.add(s.default_s);
            h.latency.add(s.default_s);
            h.vs_hand.add(s.default_s / s.hand_s);
        }
        if s.verified_ok {
            self.verified.add(s.verified_s);
            h.verified_vs_hand.add(s.verified_s / s.hand_s);
        }
        self.windows.add(usize::from(s.ok), s.default_s);
    }
}

pub fn run(seed: u64, seconds: f64, setup_every: f64) -> Report {
    let mut report = Report::new();
    let mut setups = Setups::new(setup_every);
    let mut c = Churn::new(seed, &mut setups);
    let mut spans = Spans::new(false);
    let mut samples = Samples::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        if setups.due(start.elapsed().as_secs_f64()) {
            c.set_up(&mut setups);
        }
        match step(&mut c, &mut report, &mut spans) {
            Some(s) => samples.add(&s),
            None => break,
        }
    }
    finish(&mut report, &samples, &setups);
    report
}

fn finish(report: &mut Report, samples: &Samples, setups: &Setups) {
    let shapes: Vec<&ShapeHists> = samples
        .by_shape
        .iter()
        .filter(|h| h.latency.count() > 0)
        .collect();
    let geo =
        |f: &dyn Fn(&ShapeHists) -> f64| geomean(&shapes.iter().map(|h| f(h)).collect::<Vec<_>>());
    report.note(format!(
        "compile_churn: {} ops ({} windows of 256), {} shapes, {} elements per source, {} set-ups",
        samples.latency.count(),
        samples.windows.count(),
        shapes.len(),
        ELEMS,
        setups.count()
    ));
    report.metric("setup_s", setups.median(), "s");
    report.metric("ops_per_s", samples.windows.median_rate(), "1/s");
    report.metric("latency_us.p50", samples.latency.median() * 1e6, "us");
    report.metric("verified_us.p50", samples.verified.median() * 1e6, "us");
    report.metric(
        "ns_per_elem.geomean",
        geo(&|h| h.latency.median() * 1e9 / ELEMS as f64),
        "ns",
    );
    report.metric("vs_hand.geomean", geo(&|h| h.vs_hand.median()), "x");
    report.metric(
        "verified_vs_hand.geomean",
        geo(&|h| h.verified_vs_hand.median()),
        "x",
    );
}

/// One seeded text per shape: the query set of the per-layer ledger.
pub fn base_ops(seed: u64) -> Vec<Op> {
    let mut r = Rng::derive(seed, 3);
    (0..CHURN_SHAPES).map(|s| churn_op(s, &mut r)).collect()
}
