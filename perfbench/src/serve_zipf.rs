//! `serve_zipf`: a `QueryService` with one worker, driven by one client
//! thread that keeps a fixed number of requests outstanding (a pipelined
//! closed loop), so the worker never waits for the client. Tenants draw
//! zipfian over a pool of texts larger than the plan cache: mostly hits,
//! with a steady tail of misses and evictions. Inputs (10⁴ elements) fit
//! in L2, so per-request overhead is a large share of each request.
//!
//! The run's ops are a fixed stream of `PASS` requests, replayed pass
//! after pass, each pass from a fresh set-up. The requests of a window
//! all come from one tenant, so the service's round-robin dispatch runs
//! them in the order they were sent, and every pass runs the same
//! requests in the same order from the same state. So each request has
//! one outcome, and the requests the plan-cache schema defect fails are
//! the same in every pass and every run.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use steno::Steno;
use steno_expr::{DataContext, UdfRegistry, Value};
use steno_obs::MemoryCollector;
use steno_serve::{QueryRequest, QueryService, QueryTicket, ServeConfig, ServeError};

use crate::check::{same, Tally};
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::shapes::{serve_pool, Cols, Hand, PoolText};
use crate::span::Spans;
use crate::stats::{geomean, Hist, Windows};
use crate::timing::{secs, time_hand, Setups};

pub const ELEMS: usize = 10_000;
/// Tenants; the last binds `xs` as i64, the others as f64.
pub const TENANTS: usize = 4;
const I64_TENANT: usize = TENANTS - 1;
/// Pool size; a third of the texts are valid under both schemas.
const POOL: usize = 48;
/// Plan-cache capacity: below the pool size of 48.
pub const CACHE: usize = 32;
/// Requests the client keeps outstanding.
pub const OUTSTANDING: usize = 4;
/// Requests per measured window.
const WINDOW: usize = 512;
/// Windows per pass.
const PASS_WINDOWS: usize = 32;
/// Requests per pass: the run's ops.
pub const PASS: usize = PASS_WINDOWS * WINDOW;
/// Seed of the request order, the same for every `--seed`, as the shape
/// at each pool rank is: the seed draws the constants and the data. So
/// every seed runs the same mix, and fails the same requests.
const ORDER_SEED: u64 = 0;
const ZIPF_S: f64 = 1.0;
const DEADLINE: Duration = Duration::from_secs(2);

/// One request of the stream: which tenant asks for which pool text.
#[derive(Clone, Copy)]
pub struct Req {
    pub tenant: usize,
    pub text: usize,
}

/// The request stream. Each window of `WINDOW` requests is one tenant's
/// burst, and the tenants take turns.
pub struct Stream {
    rng: Rng,
    all: Zipf,
    dual: Zipf,
    /// Pool indices of the dual texts, in zipf-rank order.
    dual_ids: Vec<usize>,
    sent: usize,
}

impl Stream {
    pub fn next(&mut self) -> Req {
        let tenant = (self.sent / WINDOW) % TENANTS;
        self.sent += 1;
        let text = if tenant == I64_TENANT {
            self.dual_ids[self.dual.sample(&mut self.rng)]
        } else {
            self.all.sample(&mut self.rng)
        };
        Req { tenant, text }
    }
}

pub struct Tenant {
    pub name: String,
    pub cols: Cols,
    pub ctx: DataContext,
}

pub struct Serve {
    pub tenants: Vec<Tenant>,
    pub pool: Vec<PoolText>,
    pub udfs: UdfRegistry,
    /// `want[tenant][text]`: reference answers (`None` where the text is
    /// not valid for the tenant's schema).
    pub want: Vec<Vec<Option<Value>>>,
    pub engine: Steno,
    pub collector: Arc<MemoryCollector>,
}

/// Tenant columns: `xs` uniform in `[0, 1)` for the f64 tenants; for the
/// i64 tenant, `xs` is drawn from `0..10⁶` (kept in `Cols::ns`).
pub fn tenant_cols(seed: u64) -> Vec<Cols> {
    (0..TENANTS)
        .map(|t| {
            let mut r = Rng::derive(seed, 20 + t as u64);
            if t == I64_TENANT {
                Cols {
                    xs: Vec::new(),
                    ns: (0..ELEMS).map(|_| r.range(0, 1_000_000)).collect(),
                }
            } else {
                Cols {
                    xs: (0..ELEMS).map(|_| r.unit()).collect(),
                    ns: Vec::new(),
                }
            }
        })
        .collect()
}

/// The pool, in zipf-rank order, and the stream over it.
pub fn pool_and_stream(seed: u64) -> (Vec<PoolText>, Stream) {
    let pool = serve_pool(&mut Rng::derive(seed, 30), POOL);
    let dual_ids: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].hand_i64.is_some())
        .collect();
    let stream = Stream {
        rng: Rng::derive(ORDER_SEED, 31),
        all: Zipf::new(pool.len(), ZIPF_S),
        dual: Zipf::new(dual_ids.len(), ZIPF_S),
        dual_ids,
        sent: 0,
    };
    (pool, stream)
}

pub fn hand_for(pool: &[PoolText], req: Req) -> &Hand {
    let p = &pool[req.text];
    if req.tenant == I64_TENANT {
        p.hand_i64
            .as_ref()
            .expect("the i64 tenant draws dual texts only")
    } else {
        &p.op.hand
    }
}

/// The context of tenant `t`.
fn context(t: usize, cols: &Cols) -> DataContext {
    if t == I64_TENANT {
        cols.context_i64_xs()
    } else {
        cols.context()
    }
}

/// Set-up: the tenants' contexts, the engine with its collector and
/// bounded cache, and a warm cache (every pool text run once for the
/// first tenant).
fn set_up(
    cols: &[&Cols],
    pool: &[PoolText],
    udfs: &UdfRegistry,
) -> (Vec<DataContext>, Steno, Arc<MemoryCollector>) {
    let ctxs: Vec<DataContext> = cols
        .iter()
        .enumerate()
        .map(|(t, c)| context(t, c))
        .collect();
    let collector = Arc::new(MemoryCollector::new());
    let engine = Steno::new()
        .with_collector(collector.clone())
        .with_cache_capacity(CACHE);
    for p in pool.iter().rev() {
        let _ = engine.execute(&p.op.query, &ctxs[0], udfs);
    }
    (ctxs, engine, collector)
}

/// Reference answers from the iterator interpreter, each checked against
/// its hand loop. They are computed once per run, outside set-up time.
fn references(
    tenants: &[Tenant],
    pool: &[PoolText],
    udfs: &UdfRegistry,
    report: &mut Report,
) -> Vec<Vec<Option<Value>>> {
    let mut want = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let mut row = Vec::new();
        for (i, p) in pool.iter().enumerate() {
            if t == I64_TENANT && p.hand_i64.is_none() {
                row.push(None);
                continue;
            }
            match steno_linq::interp::execute(&p.op.query, &tenant.ctx, udfs) {
                Ok(v) => {
                    let hand = hand_for(pool, Req { tenant: t, text: i });
                    if !same(&hand(&tenant.cols), &v) {
                        report.broken.push(format!(
                            "hand loop disagrees with the reference on `{}` for {}",
                            p.op.text, tenant.name
                        ));
                    }
                    row.push(Some(v));
                }
                Err(e) => {
                    report
                        .broken
                        .push(format!("reference failed on `{}`: {e}", p.op.text));
                    row.push(None);
                }
            }
        }
        want.push(row);
    }
    want
}

impl Serve {
    /// Generates the inputs, sets up (timing it into `setups`), and
    /// computes the reference answers. Starting the service's worker
    /// thread is not part of set-up.
    pub fn new(seed: u64, report: &mut Report, setups: &mut Setups) -> (Serve, Stream) {
        let cols = tenant_cols(seed);
        let (pool, stream) = pool_and_stream(seed);
        let udfs = UdfRegistry::new();
        let (ctxs, engine, collector) =
            setups.time(|| set_up(&cols.iter().collect::<Vec<_>>(), &pool, &udfs));
        let tenants: Vec<Tenant> = cols
            .into_iter()
            .zip(ctxs)
            .enumerate()
            .map(|(t, (cols, ctx))| Tenant {
                name: format!("tenant{t}"),
                cols,
                ctx,
            })
            .collect();
        let want = references(&tenants, &pool, &udfs, report);
        let serve = Serve {
            tenants,
            pool,
            udfs,
            want,
            engine,
            collector,
        };
        (serve, stream)
    }

    /// Times one more set-up, from the same inputs, and drops it.
    fn time_setup(&self, setups: &mut Setups) {
        let cols: Vec<&Cols> = self.tenants.iter().map(|t| &t.cols).collect();
        drop(setups.time(|| set_up(&cols, &self.pool, &self.udfs)));
    }

    /// Sets up afresh, timing it into `setups`: a new engine in the state
    /// `new` left its first one in.
    fn reset(&mut self, setups: &mut Setups) {
        let cols: Vec<&Cols> = self.tenants.iter().map(|t| &t.cols).collect();
        let (_, engine, collector) = setups.time(|| set_up(&cols, &self.pool, &self.udfs));
        self.engine = engine;
        self.collector = collector;
    }

    pub fn request(&self, req: Req) -> QueryRequest {
        let tenant = &self.tenants[req.tenant];
        QueryRequest::new(
            tenant.name.clone(),
            self.pool[req.text].op.query.clone(),
            tenant.ctx.clone(),
            self.udfs.clone(),
        )
        .with_deadline(DEADLINE)
    }

    pub fn want(&self, req: Req) -> &Value {
        self.want[req.tenant][req.text]
            .as_ref()
            .expect("requests only draw texts valid for their tenant")
    }
}

/// The service configuration: one worker, everything else at its
/// defaults, as a deployment's would be.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// A request's latency in seconds and its result.
type Timed = (f64, Result<Value, ServeError>);

/// Runs `reqs` through the service with `OUTSTANDING` requests in
/// flight. Returns per-request `(latency_s, result)` in request order
/// and the window's wall time.
fn pipelined(
    service: &QueryService,
    serve: &Serve,
    reqs: &[Req],
    spans: &mut Spans,
) -> (Vec<Timed>, f64) {
    let mut out: Vec<Option<Timed>> = (0..reqs.len()).map(|_| None).collect();
    let mut inflight: VecDeque<(usize, Instant, QueryTicket)> = VecDeque::new();
    let start = Instant::now();
    let mut next = 0;
    while next < reqs.len() || !inflight.is_empty() {
        while next < reqs.len() && inflight.len() < OUTSTANDING {
            let request = serve.request(reqs[next]);
            let t = Instant::now();
            match spans.run("serve.submit", || service.submit(request)) {
                Ok(ticket) => inflight.push_back((next, t, ticket)),
                Err(e) => out[next] = Some((secs(t), Err(e))),
            }
            next += 1;
        }
        if let Some((i, t, ticket)) = inflight.pop_front() {
            let result = spans.run("serve.wait", || ticket.wait());
            out[i] = Some((secs(t), result));
        }
    }
    let wall = secs(start);
    (
        out.into_iter()
            .map(|o| o.expect("every request completes"))
            .collect(),
        wall,
    )
}

/// Moves the engine into a started service.
pub fn start(serve: &mut Serve) -> QueryService {
    let engine = std::mem::replace(&mut serve.engine, Steno::new());
    QueryService::start(engine, config())
}

/// Key of a request's per-text statistics: the pool text and the
/// tenant's schema, since a dual text runs different code, and has a
/// different hand loop, under each.
fn key(req: Req) -> usize {
    2 * req.text + usize::from(req.tenant == I64_TENANT)
}

/// A request's outcome. The defect's failures are `Err`.
#[derive(Clone, PartialEq)]
enum Outcome {
    Ok,
    Wrong,
    Err(String),
}

/// One measured window: `WINDOW` requests of one tenant pipelined through
/// the service, then the hand loops of every fourth correct request.
pub struct Window {
    pub reqs: Vec<Req>,
    pub latency: Vec<f64>,
    /// Whether each request's answer matched its reference.
    pub ok: Vec<bool>,
    outcomes: Vec<Outcome>,
    pub wall: f64,
    pub hand: Vec<(usize, f64)>,
    /// The first window of a pass, run by a new worker thread: a warm-up
    /// whose outcomes count but whose times do not.
    pub first: bool,
}

fn window(service: &QueryService, serve: &Serve, reqs: &[Req], spans: &mut Spans) -> Window {
    let (results, wall) = pipelined(service, serve, reqs, spans);
    let outcomes: Vec<Outcome> = reqs
        .iter()
        .zip(&results)
        .map(|(req, (_, result))| match result {
            Ok(v) if same(v, serve.want(*req)) => Outcome::Ok,
            Ok(_) => Outcome::Wrong,
            Err(e) => Outcome::Err(e.to_string()),
        })
        .collect();
    let ok: Vec<bool> = outcomes.iter().map(|o| *o == Outcome::Ok).collect();
    let latency = results.iter().map(|(lat, _)| *lat).collect();
    let mut hand = Vec::new();
    for (req, _) in reqs.iter().zip(&ok).step_by(4).filter(|(_, ok)| **ok) {
        let h = hand_for(&serve.pool, *req);
        hand.push((
            key(*req),
            spans.run("hand", || time_hand(h, &serve.tenants[req.tenant].cols)),
        ));
    }
    Window {
        reqs: reqs.to_vec(),
        latency,
        ok,
        outcomes,
        wall,
        hand,
        first: false,
    }
}

/// The run's ops: the first `PASS` requests of the stream, replayed
/// window by window, pass after pass. Each pass after the first sets up
/// afresh and starts a new service, so it runs from the state the first
/// one ran from.
pub struct Replay {
    reqs: Vec<Req>,
    /// Per request: its outcome over the passes so far.
    outcomes: Vec<Option<Outcome>>,
    service: Option<QueryService>,
    /// The next window of the pass.
    next: usize,
    passes: usize,
    windows: usize,
}

impl Replay {
    pub fn new(stream: &mut Stream) -> Replay {
        Replay {
            reqs: (0..PASS).map(|_| stream.next()).collect(),
            outcomes: vec![None; PASS],
            service: None,
            next: 0,
            passes: 0,
            windows: 0,
        }
    }

    /// Runs the next window. A set-up at the start of a pass is timed
    /// into `setups`; starting the worker thread is not.
    pub fn window(&mut self, serve: &mut Serve, setups: &mut Setups, spans: &mut Spans) -> Window {
        if self.next == PASS_WINDOWS {
            // Dropping the service joins its worker.
            self.service = None;
            self.next = 0;
        }
        if self.service.is_none() {
            if self.passes > 0 {
                serve.reset(setups);
            }
            self.service = Some(start(serve));
            self.passes += 1;
        }
        let lo = self.next * WINDOW;
        let service = self.service.as_ref().expect("started above");
        let mut w = window(service, serve, &self.reqs[lo..lo + WINDOW], spans);
        w.first = self.next == 0;
        for (i, o) in w.outcomes.iter().enumerate() {
            let seen = &mut self.outcomes[lo + i];
            *seen = Some(match seen.take() {
                None => o.clone(),
                Some(s) if s == *o => s,
                // An answer that was wrong in any pass stays wrong.
                Some(Outcome::Wrong) => Outcome::Wrong,
                Some(_) if *o == Outcome::Wrong => Outcome::Wrong,
                // The passes are deterministic; if one is not, say so.
                Some(_) => Outcome::Err("outcome differs between passes".into()),
            });
        }
        self.next += 1;
        self.windows += 1;
        w
    }

    /// Whether every request has run at least once.
    pub fn full(&self) -> bool {
        self.passes > 1 || self.next == PASS_WINDOWS
    }

    /// One op per request of the pass, with its outcome over all passes.
    pub fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for o in self.outcomes.iter().flatten() {
            match o {
                Outcome::Ok => tally.ok += 1,
                Outcome::Wrong => tally.wrong += 1,
                Outcome::Err(msg) => *tally.errors.entry(msg.clone()).or_default() += 1,
            }
        }
        tally
    }

    /// Requests run over all passes.
    pub fn executed(&self) -> usize {
        self.windows * WINDOW
    }
}

/// Per pool text and schema: serve latency and hand loop.
#[derive(Default)]
struct TextHists {
    latency: Hist,
    hand: Hist,
}

pub fn run(seed: u64, seconds: f64, setup_every: f64) -> Report {
    let mut report = Report::new();
    let mut setups = Setups::new(setup_every);
    let (mut serve, mut stream) = Serve::new(seed, &mut report, &mut setups);
    let mut replay = Replay::new(&mut stream);
    let mut spans = Spans::new(false);

    // Only correct requests give latency samples: a failed one may have
    // stopped early, and its time is not that of the query.
    let mut latency = Hist::new();
    let mut per_key: Vec<TextHists> = (0..2 * serve.pool.len())
        .map(|_| TextHists::default())
        .collect();
    let mut windows = Windows::new(WINDOW);
    let mut ok_total = 0;
    let start = Instant::now();
    // Every request of the pass runs at least once, however short the run.
    while report.broken.is_empty() && (start.elapsed().as_secs_f64() < seconds || !replay.full()) {
        if setups.due(start.elapsed().as_secs_f64()) {
            serve.time_setup(&mut setups);
        }
        let w = replay.window(&mut serve, &mut setups, &mut spans);
        if w.first {
            continue;
        }
        let mut ok = 0;
        for i in (0..w.reqs.len()).filter(|&i| w.ok[i]) {
            per_key[key(w.reqs[i])].latency.add(w.latency[i]);
            latency.add(w.latency[i]);
            ok += 1;
        }
        for (k, h) in &w.hand {
            per_key[*k].hand.add(*h);
        }
        windows.add(ok, w.wall);
        ok_total += ok;
    }
    report.tally = replay.tally();
    let executed = replay.executed();
    drop(replay);

    let measured: Vec<&TextHists> = per_key
        .iter()
        .filter(|h| h.latency.count() > 0 && h.hand.count() > 0)
        .collect();
    let geo =
        |f: &dyn Fn(&TextHists) -> f64| geomean(&measured.iter().map(|h| f(h)).collect::<Vec<_>>());
    report.note(format!(
        "serve_zipf: {} ops, each a request of a {PASS}-request pass; {executed} requests \
         run ({ok_total} correct in {} timed windows of {WINDOW}), {OUTSTANDING} outstanding, \
         {} (text, schema) pairs measured, cache capacity {CACHE}, {} set-ups",
        report.tally.attempted(),
        windows.count(),
        measured.len(),
        setups.count()
    ));
    report.metric("setup_s", setups.median(), "s");
    report.metric("ops_per_s", windows.median_rate(), "1/s");
    report.metric("latency_us.p50", latency.median() * 1e6, "us");
    report.metric(
        "ns_per_elem.geomean",
        geo(&|h| h.latency.median() * 1e9 / ELEMS as f64),
        "ns",
    );
    report.metric(
        "vs_hand.geomean",
        geo(&|h| h.latency.median() / h.hand.median()),
        "x",
    );
    report
}
