//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions, with spans recorded around
//! each call. Every traced run reports every per-layer metric; the
//! workload picks the query set and op stream they are measured on.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use steno::Steno;
use steno_expr::typecheck::TyEnv;
use steno_expr::{DataContext, UdfRegistry};
use steno_obs::{Collector, MemoryCollector};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_vm::{LoopTier, StenoOptions, VectorizationPolicy};

use crate::check::Tally;
use crate::compile_churn::{self, Churn};
use crate::report::Report;
use crate::scan_large::{self, Scan};
use crate::serve_zipf::{self, Replay, Req, Serve};
use crate::shapes::{Op, SCAN_NAMES};
use crate::span::Spans;
use crate::stats::{median, quantile};
use crate::timing::{per_call, secs, time_hand, Setups};

/// Layers whose self time is reported as `self_ms.<layer>`: a span's
/// layer is its name up to the first dot.
const LAYERS: [&str; 12] = [
    "syntax", "quil", "opt", "codegen", "vm", "analysis", "linq", "steno", "serve", "obs", "hand",
    "bench",
];

/// Exact counts: two traced runs with the same seed must agree on each.
const COUNTS: [&str; 12] = [
    "vm.tape_instrs",
    "vm.loops.vectorized",
    "vm.loops.scalar",
    "vm.loops.fused_kernels",
    "opt.rewrites_applied",
    "vm.tapecheck_obligations",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "serve.shed",
    "serve.retries",
    "errors.failed",
];

/// Metrics an untraced run measures but leaves off its result line (see
/// `END_TO_END` in `main.rs`); the traced run measures them the same way,
/// with spans off, and reports them.
const DEMOTED: [&str; 3] = ["ops_per_s", "latency_us.p50", "ns_per_elem.geomean"];

pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let untraced = match workload {
        "compile_churn" => compile_churn::run(seed, seconds / 2.0, f64::INFINITY),
        "scan_large" => scan_large::run(seed, seconds / 2.0, f64::INFINITY),
        _ => serve_zipf::run(seed, seconds / 2.0, f64::INFINITY),
    };
    for (name, value, unit) in untraced.metrics {
        if DEMOTED.contains(&name.as_str()) {
            report.metric(name, value, unit);
        }
    }
    report.notes.extend(untraced.notes);
    report.broken.extend(untraced.broken);
    report.tally = untraced.tally;
    let mut spans = Spans::new(true);

    // The workload's query set and the context it compiles against.
    let (ops, ctx, udfs) = query_set(workload, seed);

    // Whether the counts repeat is checked across processes, by
    // `check_counts.py`.
    let mut counts = counts(workload, seed, &ops, &ctx, &udfs);
    counts.extend(serve_counts(workload, seed));
    for name in COUNTS {
        match counts.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => report.metric(name, *v as f64, "count"),
            None => report.broken.push(format!("count {name} was not measured")),
        }
    }

    phases(&ops, &ctx, &udfs, &mut spans, &mut report);
    cache_hit(&mut spans, &mut report);
    scan_layers(seed, &mut spans, &mut report);
    serve_layers(seed, &mut spans, &mut report);
    // Self time per layer over the ledger above, which does a fixed
    // amount of work; the time-bounded loop below is left out.
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in spans.self_ns() {
        let layer = name.split('.').next().unwrap_or(name);
        let layer = if LAYERS.contains(&layer) {
            layer
        } else {
            "bench"
        };
        *by_layer.entry(layer).or_default() += ns;
    }
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        report.metric(format!("self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
    workload_loop(workload, seed, seconds / 2.0, &mut spans, &mut report);

    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.jsonl"));
    match spans.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
    report
}

fn query_set(workload: &str, seed: u64) -> (Vec<Op>, DataContext, UdfRegistry) {
    match workload {
        "compile_churn" => (
            compile_churn::base_ops(seed),
            compile_churn::cols(seed).context(),
            UdfRegistry::new(),
        ),
        "scan_large" => {
            // The compile ledger needs only the schema: a short source.
            let mut cols = scan_large::cols(seed);
            cols.xs.truncate(1024);
            cols.ns.truncate(1024);
            (
                crate::shapes::scan_ops(),
                cols.context(),
                scan_large::udfs(),
            )
        }
        _ => {
            let (pool, _) = serve_zipf::pool_and_stream(seed);
            let ctx = serve_zipf::tenant_cols(seed).remove(0).context();
            (
                pool.into_iter().map(|p| p.op).collect(),
                ctx,
                UdfRegistry::new(),
            )
        }
    }
}

/// The workload's exact counts: what its query set compiles to, and the
/// plan-cache traffic of a fixed prefix of its op stream replayed on one
/// thread. Serve counts come from [`serve_counts`].
fn counts(
    workload: &str,
    seed: u64,
    ops: &[Op],
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> Vec<(&'static str, u64)> {
    let engine = Steno::new().with_verify(true);
    let (mut instrs, mut vect, mut scalar, mut fused, mut rewrites, mut obligations) =
        (0, 0, 0, 0, 0, 0);
    for op in ops {
        let Ok(c) = engine.compile(&op.query, SourceTypes::from(ctx), udfs) else {
            continue;
        };
        instrs += c.instr_count() as u64;
        for plan in c.loop_plans() {
            match plan.tier {
                LoopTier::Vectorized => vect += 1,
                LoopTier::Scalar => scalar += 1,
                LoopTier::Fused => {}
            }
        }
        fused += c.fused_kernels().len() as u64;
        rewrites += c.rewrite_log().iter().filter(|e| e.applied).count() as u64;
        if let Ok(r) = steno_vm::check_program(c.program()) {
            obligations += u64::from(r.total());
        }
    }
    let mut tally = Tally::default();
    let stats = match workload {
        "compile_churn" => {
            let mut c = Churn::new(seed, &mut Setups::new(f64::INFINITY));
            let engine = compile_churn::engines().0;
            for _ in 0..500 {
                let op = c.next_op();
                let want = steno_linq::interp::execute(&op.query, &c.ctx, &c.udfs);
                let got = engine.execute(&op.query, &c.ctx, &c.udfs);
                if let Ok(want) = want {
                    tally.record(&got, &want);
                }
            }
            engine.detailed_cache_stats()
        }
        "scan_large" => {
            let mut cols = scan_large::cols(seed);
            cols.xs.truncate(10_000);
            cols.ns.truncate(10_000);
            let ctx = cols.context();
            let udfs = scan_large::udfs();
            let engine = Steno::new();
            for _ in 0..3 {
                for op in crate::shapes::scan_ops() {
                    let want = steno_linq::interp::execute(&op.query, &ctx, &udfs);
                    let got = engine.execute(&op.query, &ctx, &udfs);
                    if let Ok(want) = want {
                        tally.record(&got, &want);
                    }
                }
            }
            engine.detailed_cache_stats()
        }
        _ => steno_vm::CacheStats::default(),
    };
    let mut out = vec![
        ("vm.tape_instrs", instrs),
        ("vm.loops.vectorized", vect),
        ("vm.loops.scalar", scalar),
        ("vm.loops.fused_kernels", fused),
        ("opt.rewrites_applied", rewrites),
        ("vm.tapecheck_obligations", obligations),
    ];
    if workload != "serve_zipf" {
        out.push(("cache.hits", stats.hits));
        out.push(("cache.misses", stats.misses));
        out.push(("cache.evictions", stats.evictions));
        out.push(("errors.failed", tally.wrong + tally.failed()));
    }
    out
}

/// Calls per phase in one timed batch, and batches per phase.
const PHASE_REPS: usize = 20;
const PHASE_ROUNDS: usize = 5;

/// The phases of `CompiledQuery::compile_tuned_feedback` under default
/// options, called one by one on each query of the set; each phase's
/// figure is the mean over queries of its per-call time, the median of
/// `PHASE_ROUNDS` batches of `PHASE_REPS` calls.
fn phases(
    ops: &[Op],
    ctx: &DataContext,
    udfs: &UdfRegistry,
    spans: &mut Spans,
    report: &mut Report,
) {
    let opts = StenoOptions::default();
    let sources = SourceTypes::from(ctx);
    let engine = Steno::new();
    let names = [
        "syntax.parse_us",
        "quil.lower_us",
        "quil.passes_us",
        "opt.rewrite_us",
        "codegen.generate_us",
        "codegen.render_us",
        "vm.assemble_us",
        "analysis.verify_us",
        "vm.tapecheck_us",
    ];
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut compiled = 0;
    for round in 0..PHASE_ROUNDS {
        let mut sums = vec![0.0; names.len()];
        for op in ops {
            spans.open("bench.compile");
            let q: &QueryExpr = &op.query;
            sums[0] += spans.run("syntax.parse", || {
                per_call(PHASE_REPS, || {
                    steno_syntax::parse_query(black_box(&op.text))
                })
            });
            let lower = || steno_quil::lower_with(q, &sources, &TyEnv::new(), udfs, opts.lower);
            let Ok(chain0) = lower() else {
                // An unsupported shape: the engine runs it on the
                // iterator interpreter, and it has no compile phases.
                spans.close();
                continue;
            };
            sums[1] += spans.run("quil.lower", || per_call(PHASE_REPS, lower));
            let specialize = || steno_quil::passes::specialize_group_aggregate(&chain0).0;
            let chain1 = specialize();
            let mut passes_s = spans.run("quil.passes", || per_call(PHASE_REPS, specialize));
            let rewrite = || steno_opt::rewrite(&chain1, udfs, None);
            let rewritten = rewrite();
            sums[3] += spans.run("opt.rewrite", || per_call(PHASE_REPS, rewrite));
            let fuse = || {
                steno_quil::passes::fold_constants(
                    &steno_quil::passes::fuse_elementwise(&rewritten.chain).0,
                )
            };
            let chain = fuse();
            passes_s += spans.run("quil.passes", || per_call(PHASE_REPS, fuse));
            sums[2] += passes_s;
            let generate = || steno_codegen::generate(&chain);
            let Ok(imp) = generate() else {
                spans.close();
                continue;
            };
            sums[4] += spans.run("codegen.generate", || per_call(PHASE_REPS, generate));
            sums[5] += spans.run("codegen.render", || {
                per_call(PHASE_REPS, || steno_codegen::render_rust(&imp))
            });
            let vectorize = opts.vectorize == VectorizationPolicy::Auto;
            let assemble =
                || steno_vm::compile::assemble_hinted(&imp, udfs, opts.fusion, vectorize, None);
            let Ok(program) = assemble() else {
                spans.close();
                continue;
            };
            sums[6] += spans.run("vm.assemble", || per_call(PHASE_REPS, assemble));
            sums[7] += spans.run("analysis.verify", || {
                per_call(PHASE_REPS, || steno_analysis::verify(&chain, udfs))
            });
            sums[8] += spans.run("vm.tapecheck", || {
                per_call(PHASE_REPS, || steno_vm::check_program(&program))
            });
            spans.close();
            if round == 0 {
                compiled += 1;
                // The phases, called one by one, must build the tape the
                // engine builds.
                match engine.compile(q, sources.clone(), udfs) {
                    Ok(c) if format!("{:?}", c.program()) == format!("{program:?}") => {}
                    _ => report.broken.push(format!(
                        "phase-by-phase tape differs from the engine's for `{}`",
                        op.text
                    )),
                }
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let n = if i == 0 { ops.len() } else { compiled };
            rounds[i].push(s / n.max(1) as f64 * 1e6);
        }
    }
    report.note(format!(
        "compile ledger: {compiled} of {} queries compiled, {PHASE_ROUNDS} batches of {PHASE_REPS} calls per phase",
        ops.len()
    ));
    for (name, samples) in names.iter().zip(&rounds) {
        report.metric(*name, median(samples), "us");
    }
}

/// `Steno::execute` minus `CompiledQuery::run` on a 16-element input:
/// the cost of the plan-cache hit path. Timed in interleaved batches of
/// 2000 calls; the median difference over 15 pairs.
fn cache_hit(spans: &mut Spans, report: &mut Report) {
    let ctx = DataContext::new().with_source("xs", (0..16).map(f64::from).collect::<Vec<_>>());
    let udfs = UdfRegistry::new();
    let (q, _) =
        steno_syntax::parse_query("xs.select(|x| x * x).sum()").expect("probe query parses");
    let engine = Steno::new();
    let Ok(compiled) = engine.compile(&q, SourceTypes::from(&ctx), &udfs) else {
        report
            .broken
            .push("the cache-hit probe query does not compile".into());
        return;
    };
    let mut diffs = Vec::new();
    for _ in 0..15 {
        let hit = spans.run("steno.execute", || {
            per_call(2000, || engine.execute(&q, &ctx, &udfs))
        });
        let run = spans.run("vm.run", || per_call(2000, || compiled.run(&ctx, &udfs)));
        diffs.push((hit - run) * 1e9);
    }
    report.metric("cache.hit_ns", median(&diffs), "ns");
}

/// Per-query ns/elem of the scan queries over 10⁶ elements: the VM
/// (`CompiledQuery::run`), the hand loop, and the iterator interpreter
/// (`steno_linq`, the paper's baseline).
fn scan_layers(seed: u64, spans: &mut Spans, report: &mut Report) {
    let cols = scan_large::cols(seed);
    let ctx = cols.context();
    let udfs = scan_large::udfs();
    let engine = Steno::new();
    let ops = crate::shapes::scan_ops();
    let per_elem = 1e9 / scan_large::ELEMS as f64;
    for (op, name) in ops.iter().zip(SCAN_NAMES) {
        let compiled = engine
            .compile(&op.query, SourceTypes::from(&ctx), &udfs)
            .ok();
        if let Some(c) = &compiled {
            let tiers: Vec<String> = c.loop_plans().iter().map(|p| p.tier.to_string()).collect();
            report.note(format!(
                "{name}: loops [{}], fused kernels {:?}",
                tiers.join(", "),
                c.fused_kernels()
            ));
        }
        let mut vm = Vec::new();
        let mut hand = Vec::new();
        for _ in 0..5 {
            if let Some(c) = &compiled {
                let t = Instant::now();
                let _ = spans.run("vm.run", || black_box(c.run(&ctx, &udfs)));
                vm.push(secs(t));
            }
            hand.push(spans.run("hand", || time_hand(&op.hand, &cols)));
        }
        let t = Instant::now();
        let _ = spans.run("linq.execute", || {
            black_box(steno_linq::interp::execute(&op.query, &ctx, &udfs))
        });
        let linq = secs(t);
        report.metric(
            format!("vm.ns_per_elem.{name}"),
            median(&vm) * per_elem,
            "ns",
        );
        report.metric(
            format!("hand.ns_per_elem.{name}"),
            median(&hand) * per_elem,
            "ns",
        );
        report.metric(format!("linq.ns_per_elem.{name}"), linq * per_elem, "ns");
    }
}

/// Serve overhead: the `serve_zipf` stream with one request outstanding
/// through a one-worker service, against the same stream replayed
/// directly through `Steno::execute` on an engine configured the same
/// way. One outstanding request keeps the order, and so every count,
/// deterministic. Also the costs of the collector (`steno-obs`).
fn serve_layers(seed: u64, spans: &mut Spans, report: &mut Report) {
    let mut scratch = Report::new();
    let (mut serve, mut stream) = Serve::new(seed, &mut scratch, &mut Setups::new(f64::INFINITY));
    report.broken.append(&mut scratch.broken);
    let reqs: Vec<Req> = (0..SERVE_N).map(|_| stream.next()).collect();
    let collector = serve.collector.clone();
    let service = serve_zipf::start(&mut serve);
    let mut submit = Vec::new();
    let mut latency = Vec::new();
    for req in &reqs {
        let request = serve.request(*req);
        let t = Instant::now();
        let ticket = spans.run("serve.submit", || service.submit(request));
        submit.push(secs(t));
        let result = match ticket {
            Ok(ticket) => spans.run("serve.wait", || ticket.wait()),
            Err(e) => Err(e),
        };
        latency.push(secs(t));
        let _ = black_box(result);
    }
    drop(service);
    let direct_engine = Steno::new()
        .with_collector(Arc::new(MemoryCollector::new()))
        .with_cache_capacity(serve_zipf::CACHE);
    let mut direct = Vec::new();
    for req in &reqs {
        let tenant = &serve.tenants[req.tenant];
        let q = &serve.pool[req.text].op.query;
        let t = Instant::now();
        let _ = spans.run("steno.execute", || {
            direct_engine.execute(q, &tenant.ctx, &serve.udfs)
        });
        direct.push(secs(t));
    }
    let us = |v: &[f64]| median(&v.iter().map(|x| x * 1e6).collect::<Vec<_>>());
    report.metric("serve.submit_us.p50", us(&submit), "us");
    report.metric("serve.overhead_us.p50", us(&latency) - us(&direct), "us");
    report.metric("engine.execute_us.p50", us(&direct), "us");

    let probe = MemoryCollector::new();
    let observe = spans.run("obs.observe", || {
        per_call(100_000, || {
            probe.observe_ns("serve.latency_ns", black_box(12_345))
        })
    });
    report.metric("obs.observe_ns", observe * 1e9, "ns");
    let snapshot = spans.run("obs.snapshot", || {
        per_call(200, || collector.snapshot().to_json())
    });
    report.metric("obs.snapshot_us", snapshot * 1e6, "us");
}

/// The `serve_zipf` stream's first `SERVE_N` requests, one outstanding,
/// through a fresh one-worker service.
const SERVE_N: usize = 2000;

/// The counts of the serve ledger's stream: shed and retried requests
/// and, for `serve_zipf`, its plan-cache traffic and failures.
fn serve_counts(workload: &str, seed: u64) -> Vec<(&'static str, u64)> {
    let mut scratch = Report::new();
    let (mut serve, mut stream) = Serve::new(seed, &mut scratch, &mut Setups::new(f64::INFINITY));
    let collector = serve.collector.clone();
    let service = serve_zipf::start(&mut serve);
    let mut tally = Tally::default();
    for _ in 0..SERVE_N {
        let req = stream.next();
        let result = service.execute_blocking(serve.request(req));
        tally.record(&result, serve.want(req));
    }
    let stats = service.engine().detailed_cache_stats();
    drop(service);
    let mut out = vec![
        ("serve.shed", collector.counter_value("serve.shed")),
        ("serve.retries", collector.counter_value("serve.retries")),
    ];
    if workload == "serve_zipf" {
        out.extend([
            ("cache.hits", stats.hits),
            ("cache.misses", stats.misses),
            ("cache.evictions", stats.evictions),
            ("errors.failed", tally.wrong + tally.failed()),
        ]);
    }
    out
}

/// Blocks of each kind (traced, untraced) the loop runs at least.
const MIN_BLOCKS: usize = 4;

/// The workload's own op loop after its set-up, alternating blocks with
/// spans on and off for at least `seconds`: the difference in time per op
/// is the tracing overhead, and the untraced blocks' latencies give
/// `latency_us.p99`.
fn workload_loop(workload: &str, seed: u64, seconds: f64, spans: &mut Spans, report: &mut Report) {
    let mut scratch = Report::new();
    let mut times = [(0.0f64, 0usize); 2];
    let mut untraced_latency = Vec::new();
    let mut blocks = 0;
    let mut more = |start: &Instant| {
        blocks += 1;
        blocks <= 2 * MIN_BLOCKS || start.elapsed().as_secs_f64() < seconds
    };
    let mut traced = false;
    match workload {
        "compile_churn" => {
            let mut c = Churn::new(seed, &mut Setups::new(f64::INFINITY));
            let start = Instant::now();
            while more(&start) {
                traced = !traced;
                spans.set_on(traced);
                for _ in 0..32 {
                    let Some(s) = compile_churn::step(&mut c, &mut scratch, spans) else {
                        break;
                    };
                    times[usize::from(traced)].0 += s.default_s + s.verified_s;
                    times[usize::from(traced)].1 += 1;
                    if !traced {
                        untraced_latency.push(s.default_s);
                    }
                }
            }
        }
        "scan_large" => {
            let s = Scan::new(seed, &mut scratch, &mut Setups::new(f64::INFINITY));
            let start = Instant::now();
            while more(&start) {
                traced = !traced;
                spans.set_on(traced);
                for x in scan_large::round(&s, &mut scratch, spans) {
                    times[usize::from(traced)].0 += x.latency;
                    times[usize::from(traced)].1 += 1;
                    if !traced {
                        untraced_latency.push(x.latency);
                    }
                }
            }
        }
        _ => {
            let mut setups = Setups::new(f64::INFINITY);
            let (mut serve, mut stream) = Serve::new(seed, &mut scratch, &mut setups);
            let mut replay = Replay::new(&mut stream);
            let start = Instant::now();
            // Every request of the pass runs at least once, as in an
            // untraced run, so the traced run's op count is fixed too.
            while more(&start) || !replay.full() {
                traced = !traced;
                spans.set_on(traced);
                let mut w = replay.window(&mut serve, &mut setups, spans);
                if w.first {
                    // A pass's warm-up window is not timed.
                    w = replay.window(&mut serve, &mut setups, spans);
                }
                times[usize::from(traced)].0 += w.wall;
                times[usize::from(traced)].1 += w.reqs.len();
                if !traced {
                    let correct = w.latency.iter().zip(&w.ok).filter(|(_, ok)| **ok);
                    untraced_latency.extend(correct.map(|(lat, _)| lat));
                }
            }
            scratch.tally = replay.tally();
        }
    }
    spans.set_on(true);
    // The traced run's ops are this loop's: its answers are checked and
    // its failures counted like an untraced run's.
    report.broken.append(&mut scratch.broken);
    report.tally.merge(scratch.tally);
    let per_op = |(s, n): (f64, usize)| s / n.max(1) as f64;
    let overhead = 100.0 * (per_op(times[1]) / per_op(times[0]) - 1.0);
    let lat: Vec<f64> = untraced_latency.iter().map(|s| s * 1e6).collect();
    report.note(format!(
        "{workload} traced loop: {} traced and {} untraced ops; latency p99 over {} samples",
        times[1].1,
        times[0].1,
        lat.len()
    ));
    report.metric("trace.overhead_pct", overhead, "%");
    report.metric("latency_us.p99", quantile(&lat, 0.99), "us");
}
