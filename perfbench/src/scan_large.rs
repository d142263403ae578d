//! `scan_large`: a closed loop on one thread over a warm plan cache. A
//! fixed set of ten queries runs over 10⁶-element f64 and i64 sources,
//! far larger than L2, so VM execution does nearly all the work; each
//! query is timed interleaved, sample by sample, with its hand loop.

use std::time::Instant;

use steno::Steno;
use steno_expr::{DataContext, Ty, UdfRegistry, Value};

use crate::check::same;
use crate::report::Report;
use crate::rng::Rng;
use crate::shapes::{scan_ops, scan_udf, Cols, Op, SCAN_NAMES};
use crate::span::Spans;
use crate::stats::{geomean, median, Windows};
use crate::timing::{secs, time_hand, Setups};

pub const ELEMS: usize = 1_000_000;

pub fn cols(seed: u64) -> Cols {
    let mut r = Rng::derive(seed, 10);
    Cols {
        xs: (0..ELEMS).map(|_| r.unit()).collect(),
        ns: (0..ELEMS).map(|_| r.range(0, 1_000_000)).collect(),
    }
}

pub fn udfs() -> UdfRegistry {
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("f", vec![Ty::F64], Ty::F64, |a: &[Value]| {
        Value::F64(scan_udf(a[0].as_f64().unwrap_or(f64::NAN)))
    });
    udfs
}

/// Reference answers from the iterator interpreter, each checked against
/// its hand loop. They are computed once per run, outside set-up time.
fn references(cols: &Cols, ops: &[Op], udfs: &UdfRegistry, report: &mut Report) -> Vec<Value> {
    let ctx = cols.context();
    let mut want = Vec::new();
    for op in ops {
        match steno_linq::interp::execute(&op.query, &ctx, udfs) {
            Ok(v) => {
                if !same(&(op.hand)(cols), &v) {
                    report.broken.push(format!(
                        "hand loop disagrees with the reference on `{}`",
                        op.text
                    ));
                }
                want.push(v);
            }
            Err(e) => {
                report
                    .broken
                    .push(format!("reference failed on `{}`: {e}", op.text));
                want.push(Value::Bool(false));
            }
        }
    }
    want
}

/// Set-up: the context and the engine, and the first (compiling)
/// execution of every query.
fn set_up(cols: &Cols, ops: &[Op], udfs: &UdfRegistry) -> (DataContext, Steno) {
    let ctx = cols.context();
    let engine = Steno::new();
    for op in ops {
        let _ = engine.execute(&op.query, &ctx, udfs);
    }
    (ctx, engine)
}

pub struct Scan {
    pub cols: Cols,
    pub ctx: DataContext,
    pub udfs: UdfRegistry,
    pub ops: Vec<Op>,
    pub want: Vec<Value>,
    pub engine: Steno,
}

impl Scan {
    /// Generates the inputs and the reference answers, then sets up,
    /// timing the set-up into `setups`.
    pub fn new(seed: u64, report: &mut Report, setups: &mut Setups) -> Scan {
        let cols = cols(seed);
        let udfs = udfs();
        let ops = scan_ops();
        let want = references(&cols, &ops, &udfs, report);
        let (ctx, engine) = setups.time(|| set_up(&cols, &ops, &udfs));
        Scan {
            cols,
            ctx,
            udfs,
            ops,
            want,
            engine,
        }
    }

    /// Sets up again from the same inputs, timing it into `setups`. The
    /// old context and engine are dropped first, so that two 16 MB
    /// contexts are never alive at once and `peak_rss_mb` does not depend
    /// on when the allocator hands memory back.
    fn set_up_again(&mut self, setups: &mut Setups) {
        self.ctx = DataContext::new();
        self.engine = Steno::new();
        (self.ctx, self.engine) = setups.time(|| set_up(&self.cols, &self.ops, &self.udfs));
    }
}

/// One query execution of a round.
pub struct Sample {
    pub query: usize,
    pub latency: f64,
    pub hand: f64,
    pub ok: bool,
}

/// One round: every query once, each followed by its hand loop.
pub fn round(s: &Scan, report: &mut Report, spans: &mut Spans) -> Vec<Sample> {
    let mut out = Vec::new();
    for (i, op) in s.ops.iter().enumerate() {
        spans.open("scan.op");
        let t = Instant::now();
        let got = spans.run("steno.execute", || {
            s.engine.execute(&op.query, &s.ctx, &s.udfs)
        });
        let latency = secs(t);
        let hand = spans.run("hand", || time_hand(&op.hand, &s.cols));
        spans.close();
        let ok = report.tally.record(&got, &s.want[i]);
        out.push(Sample {
            query: i,
            latency,
            hand,
            ok,
        });
    }
    out
}

pub fn run(seed: u64, seconds: f64, setup_every: f64) -> Report {
    let mut report = Report::new();
    let mut setups = Setups::new(setup_every);
    let mut s = Scan::new(seed, &mut report, &mut setups);
    let n = s.ops.len();
    let mut spans = Spans::new(false);
    let mut per_query: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut windows = Windows::new(n);
    let start = Instant::now();
    while report.broken.is_empty() && start.elapsed().as_secs_f64() < seconds {
        if setups.due(start.elapsed().as_secs_f64()) {
            s.set_up_again(&mut setups);
        }
        for x in round(&s, &mut report, &mut spans) {
            // A failed query may have stopped early; only correct ones
            // give latency samples.
            if x.ok {
                per_query[x.query].push((x.latency, x.hand));
            }
            windows.add(usize::from(x.ok), x.latency);
        }
    }
    // With ten queries of very different cost, the median of all op
    // latencies sits on the edge between two queries and jumps from run to
    // run; the median of the per-query medians does not.
    let latency: Vec<f64> = per_query
        .iter()
        .map(|v| median(&v.iter().map(|p| p.0).collect::<Vec<_>>()))
        .collect();
    let ns_per_elem: Vec<f64> = latency.iter().map(|l| l * 1e9 / ELEMS as f64).collect();
    let vs_hand: Vec<f64> = per_query
        .iter()
        .map(|v| median(&v.iter().map(|p| p.0 / p.1).collect::<Vec<_>>()))
        .collect();
    report.note(format!(
        "scan_large: {} rounds of {n} queries over {ELEMS} elements, {} set-ups",
        windows.count(),
        setups.count()
    ));
    for (i, name) in SCAN_NAMES.iter().enumerate() {
        report.note(format!(
            "{name:<16} vm {:>8.3} ns/elem  vs hand {:>7.3}x",
            ns_per_elem[i], vs_hand[i]
        ));
    }
    report.metric("setup_s", setups.median(), "s");
    report.metric("ops_per_s", windows.median_rate(), "1/s");
    report.metric("latency_us.p50", median(&latency) * 1e6, "us");
    report.metric("ns_per_elem.geomean", geomean(&ns_per_elem), "ns");
    report.metric("vs_hand.geomean", geomean(&vs_hand), "x");
    report
}
