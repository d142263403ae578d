//! Mixed-workload load generator for the `steno-serve` front end.
//!
//! Drives a multi-tenant [`QueryService`] to saturation with a zipfian
//! query mix (hot queries hit the plan cache, the cold tail compiles)
//! and per-tenant submission bursts that overflow the bounded queues —
//! then reports queries/sec, p50/p99 latency, and the overload
//! counters, and writes `BENCH_serve.json`.
//!
//! Run with `--smoke` for the CI mode: a short run that must finish
//! well under 30 s, shed at least once, and neither fail a query nor
//! contain a panic. Smoke runs write `target/BENCH_serve.smoke.json`
//! instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use steno::Steno;
use steno_expr::UdfRegistry;
use steno_obs::{openmetrics, FlightRecorder, MemoryCollector, TraceConfig};
use steno_serve::loadgen::{query_pool, tenant_context};
use steno_serve::{
    QueryRequest, QueryService, SaturationReport, ServeConfig, ServeError, SplitMix64, Zipf,
};

struct LoadSpec {
    tenants: usize,
    rounds: usize,
    burst: usize,
    pool_size: usize,
    elements: usize,
    deadline: Duration,
    seed: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke {
        LoadSpec {
            tenants: 3,
            rounds: 6,
            burst: 12,
            pool_size: 12,
            elements: 100_000,
            deadline: Duration::from_millis(500),
            seed: 0xC0FFEE,
        }
    } else {
        LoadSpec {
            tenants: 4,
            // At least 30 s of serving on a 2-core machine, so the
            // percentiles come from a soak, not from a cold start.
            rounds: 2000,
            burst: 16,
            pool_size: 24,
            elements: 200_000,
            deadline: Duration::from_millis(500),
            seed: 0xC0FFEE,
        }
    };

    let metrics = Arc::new(MemoryCollector::new());
    // Flight recorder with an aggressive slow-query threshold: under
    // burst load some queries will cross 1ms end-to-end (queue wait
    // counts), so the run always leaves dumps to inspect. The ring is
    // bounded, so tracing every query is safe.
    let recorder = Arc::new(FlightRecorder::new(TraceConfig {
        slow_query: Some(Duration::from_millis(1)),
        ..TraceConfig::default()
    }));
    let engine = Steno::new()
        .with_collector(metrics.clone())
        .with_flight_recorder(recorder.clone())
        .with_cache_capacity(64);
    let cfg = ServeConfig {
        workers: 4,
        queue_depth: 4,
        max_in_flight: 2,
        default_deadline: spec.deadline,
        ..ServeConfig::default()
    };
    println!(
        "load: {} tenants x {} rounds x burst {}, pool {} queries (zipf 1.1), {} elems/tenant",
        spec.tenants, spec.rounds, spec.burst, spec.pool_size, spec.elements
    );

    let service = Arc::new(QueryService::start(engine, cfg));
    let pool = Arc::new(query_pool(spec.pool_size));
    let zipf = Arc::new(Zipf::new(spec.pool_size, 1.1));

    let start = Instant::now();
    let handles: Vec<_> = (0..spec.tenants)
        .map(|t| {
            let service = Arc::clone(&service);
            let pool = Arc::clone(&pool);
            let zipf = Arc::clone(&zipf);
            let ctx = tenant_context(spec.elements, spec.seed ^ t as u64);
            let deadline = spec.deadline;
            let rounds = spec.rounds;
            let burst = spec.burst;
            let mut rng = SplitMix64::new(spec.seed.wrapping_mul(t as u64 + 1));
            std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let udfs = UdfRegistry::new();
                let mut shed_backoffs = 0u64;
                for _ in 0..rounds {
                    // Open-loop burst past the queue bound, then drain:
                    // this is what overload actually looks like.
                    let mut tickets = Vec::with_capacity(burst);
                    for _ in 0..burst {
                        let q = pool[zipf.sample(&mut rng)].clone();
                        let req = QueryRequest::new(&tenant, q, ctx.clone(), udfs.clone())
                            .with_deadline(deadline);
                        match service.submit(req) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(ServeError::Rejected { retry_after }) => {
                                shed_backoffs += 1;
                                std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                            }
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    for ticket in tickets {
                        // Every terminal state is acceptable under
                        // overload except an escaped panic, which would
                        // abort this thread and fail the run.
                        let _ = ticket.wait();
                    }
                }
                shed_backoffs
            })
        })
        .collect();

    let mut total_sheds_observed = 0u64;
    for h in handles {
        total_sheds_observed += h.join().expect("load thread must not panic");
    }
    let wall = start.elapsed();

    let report = SaturationReport::from_collector(&metrics, wall);
    print!("{}", report.render());
    let cache = service.engine().detailed_cache_stats();
    println!(
        "  plan cache: {} hits, {} misses, {} evictions (capacity {:?})",
        cache.hits, cache.misses, cache.evictions, cache.capacity
    );
    println!(
        "  flight recorder: {} traces, {} anomalous",
        recorder.recorded(),
        recorder.anomaly_count()
    );
    if let Some(dump) = recorder.last_dump() {
        println!("--- flight-recorder dump (most recent anomaly) ---");
        print!("{dump}");
        println!("--- end dump ---");
    }

    // Two OpenMetrics scrapes with traffic in between: both must lint
    // clean and no counter series may go backwards.
    let scrape1 = metrics.snapshot().to_openmetrics();
    openmetrics::lint(&scrape1).expect("first scrape must lint clean");
    let udfs = UdfRegistry::new();
    let tail_ctx = tenant_context(1_000, spec.seed);
    for i in 0..8 {
        let req = QueryRequest::new("tenant-0", pool[i % pool.len()].clone(), tail_ctx.clone(), udfs.clone());
        let _ = service.execute_blocking(req);
    }
    let scrape2 = metrics.snapshot().to_openmetrics();
    openmetrics::lint(&scrape2).expect("second scrape must lint clean");
    openmetrics::counters_monotone(&scrape1, &scrape2)
        .expect("counters must be monotone across scrapes");
    println!(
        "openmetrics: 2 scrapes linted clean, counters monotone ({} exposition lines)",
        scrape2.lines().count()
    );

    // Smoke records go under `target/`: only a full run may replace the
    // checked-in `BENCH_serve.json`.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = if smoke {
        let dir = root.join("target");
        std::fs::create_dir_all(&dir).expect("create target/");
        dir.join("BENCH_serve.smoke.json")
    } else {
        root.join("BENCH_serve.json")
    };
    std::fs::write(&out, report.to_json()).expect("write the serve record");
    println!("wrote {}", out.display());

    // The contract this example doubles as a smoke test for: overload
    // must shed explicitly, queries must complete, and nothing panics.
    // Nothing is injected, so a failed query or a contained panic is an
    // engine defect.
    assert!(report.shed > 0, "burst load must shed at admission");
    assert_eq!(report.shed, total_sheds_observed, "every shed was observed by a caller");
    assert!(report.completed > 0, "admitted queries must complete");
    assert_eq!(
        report.submitted,
        report.admitted + report.shed,
        "admission accounting must balance"
    );
    assert!(
        recorder.anomaly_count() > 0,
        "the 1ms slow-query threshold must flag at least one query under burst load"
    );
    if smoke {
        assert_eq!(report.failed, 0, "no admitted query may fail");
        assert_eq!(report.panics_contained, 0, "no query may panic");
        assert!(
            wall < Duration::from_secs(30),
            "smoke run must stay under 30s, took {wall:?}"
        );
        println!(
            "smoke: OK ({wall:?}, {} shed, 0 failed, 0 panics)",
            report.shed
        );
    }
}
