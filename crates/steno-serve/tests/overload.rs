//! The overload acceptance test: a seeded zipfian burst past queue
//! capacity must shed explicitly, never panic or deadlock, and answer
//! every admitted in-deadline query bit-for-bit identically to a direct
//! `Steno::execute`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use steno::Steno;
use steno_expr::{UdfRegistry, Value};
use steno_obs::MemoryCollector;
use steno_query::QueryExpr;
use steno_serve::loadgen::{query_pool, tenant_context};
use steno_serve::{
    QueryRequest, QueryService, SaturationReport, ServeConfig, ServeError, SplitMix64, Zipf,
};

const SEED: u64 = 0x5EED_10AD;

#[test]
fn seeded_overload_sheds_explicitly_and_answers_correctly() {
    let metrics = Arc::new(MemoryCollector::new());
    let engine = Steno::new()
        .with_collector(metrics.clone())
        .with_cache_capacity(32);
    let service = QueryService::start(
        engine,
        ServeConfig {
            workers: 2,
            queue_depth: 3,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );

    let pool = query_pool(8);
    let zipf = Zipf::new(pool.len(), 1.1);
    let mut rng = SplitMix64::new(SEED);
    let tenants: Vec<String> = (0..3).map(|t| format!("tenant-{t}")).collect();
    let ctxs: Vec<_> = (0..3)
        .map(|t| tenant_context(150_000, SEED ^ t as u64))
        .collect();
    let udfs = UdfRegistry::new();

    // Open-loop burst: 40 submissions per tenant, far past queue depth
    // 3, all before draining anything.
    let mut admitted: Vec<(usize, QueryExpr, steno_serve::QueryTicket)> = Vec::new();
    let mut shed = 0u64;
    for round in 0..40 {
        for (t, tenant) in tenants.iter().enumerate() {
            let q = pool[zipf.sample(&mut rng)].clone();
            let req = QueryRequest::new(tenant, q.clone(), ctxs[t].clone(), udfs.clone());
            match service.submit(req) {
                Ok(ticket) => admitted.push((t, q, ticket)),
                Err(ServeError::Rejected { retry_after }) => {
                    assert!(retry_after > Duration::ZERO);
                    shed += 1;
                }
                Err(e) => panic!("round {round}: unexpected admission error: {e}"),
            }
        }
    }
    assert!(shed > 0, "burst past queue capacity must shed");
    assert!(!admitted.is_empty(), "some queries must be admitted");

    // Every admitted query completes with exactly the value a direct,
    // unserved execution produces — fairness rotation and cache
    // eviction must not perturb a single bit.
    let reference = Steno::new();
    for (t, q, ticket) in admitted {
        let got = ticket.wait().unwrap_or_else(|e| panic!("query failed: {e}"));
        let want = reference.execute(&q, &ctxs[t], &udfs).unwrap();
        assert_eq!(got, want, "served answer must match direct execution");
        if let Value::F64(f) = got {
            assert!(f.is_finite());
        }
    }

    // The books balance.
    let report = SaturationReport::from_collector(&metrics, Duration::from_secs(1));
    assert_eq!(report.submitted, report.admitted + report.shed);
    assert_eq!(report.shed, shed);
    assert_eq!(report.failed, 0, "no admitted query may fail");
    assert!(report.p99_latency_us.is_some());
}

#[test]
fn past_deadline_query_fails_in_bounded_time_under_load() {
    let service = QueryService::start(
        Steno::new(),
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            max_in_flight: 1,
            default_deadline: Duration::from_secs(10),
            wait_grace: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    );
    let ctx = tenant_context(400_000, 7);
    let udfs = UdfRegistry::new();
    let pool = query_pool(4);

    // Fill the single worker with slow work, then submit a query whose
    // deadline will expire while it sits in the queue.
    let busy: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit(QueryRequest::new(
                    "busy",
                    pool[i % pool.len()].clone(),
                    ctx.clone(),
                    udfs.clone(),
                ))
                .unwrap()
        })
        .collect();
    let doomed = service
        .submit(
            QueryRequest::new("busy", pool[0].clone(), ctx.clone(), udfs.clone())
                .with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    let start = Instant::now();
    assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline failure must be reported in bounded time, took {:?}",
        start.elapsed()
    );
    for t in busy {
        t.wait().unwrap();
    }
}
