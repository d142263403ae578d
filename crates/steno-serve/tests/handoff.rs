//! The submit → worker → reply hand-off under contention: many
//! submitters, more threads than cores, cancels and 1 ms deadlines.
//! Every ticket must come back within its deadline plus the wait grace,
//! every answer must be right, and the service's `serve.*` counters must
//! account for every request.

use std::sync::Arc;
use std::time::{Duration, Instant};

use steno::Steno;
use steno_expr::{DataContext, Expr, UdfRegistry, Value};
use steno_obs::MemoryCollector;
use steno_query::{Query, QueryExpr};
use steno_serve::{QueryRequest, QueryService, ServeConfig, ServeError};

const SUBMITTERS: usize = 8;
const REQUESTS: usize = 2000;
/// Requests each submitter keeps outstanding.
const OUTSTANDING: usize = 4;
/// Scheduling allowance past deadline + grace for a thread that is
/// runnable but not running on a busy host.
const SLACK: Duration = Duration::from_millis(250);

fn query(threshold: f64) -> QueryExpr {
    Query::source("xs")
        .where_(Expr::var("x").gt(Expr::litf(threshold)), "x")
        .select(Expr::var("x") * Expr::var("x"), "x")
        .sum()
        .build()
}

/// What one submitter saw.
#[derive(Default)]
struct Seen {
    shed: u64,
    ok: u64,
    cancelled: u64,
    deadline: u64,
}

#[test]
fn contended_hand_off_answers_every_ticket_in_bound_and_balances() {
    let metrics = Arc::new(MemoryCollector::new());
    let cfg = ServeConfig {
        workers: 4,
        queue_depth: 6,
        max_in_flight: 2,
        default_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let grace = cfg.wait_grace;
    let service = QueryService::start(Steno::new().with_collector(metrics.clone()), cfg);
    let ctx = DataContext::new().with_source("xs", (0..32_768).map(f64::from).collect::<Vec<_>>());
    let queries: Vec<QueryExpr> = (0..4).map(|i| query(f64::from(i) * 50.0)).collect();
    let want: Vec<Value> = queries
        .iter()
        .map(|q| Steno::new().execute(q, &ctx, &UdfRegistry::new()).unwrap())
        .collect();

    let seen: Vec<Seen> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (service, ctx, queries, want) = (&service, &ctx, &queries, &want);
                s.spawn(move || {
                    // Two submitters share each tenant's queue.
                    let tenant = format!("tenant-{}", t % (SUBMITTERS / 2));
                    let mut seen = Seen::default();
                    let mut inflight = std::collections::VecDeque::new();
                    let mut settle = |(k, ticket): (usize, steno_serve::QueryTicket)| {
                        let bound = ticket.deadline() + grace + SLACK;
                        let result = ticket.wait();
                        assert!(Instant::now() <= bound, "a ticket outlived its bound");
                        match result {
                            Ok(v) => {
                                assert_eq!(v, want[k], "query {k}");
                                seen.ok += 1;
                            }
                            Err(ServeError::Cancelled) => seen.cancelled += 1,
                            Err(ServeError::DeadlineExceeded) => seen.deadline += 1,
                            Err(e) => panic!("unexpected outcome: {e}"),
                        }
                    };
                    for i in 0..REQUESTS {
                        let k = (i + t) % queries.len();
                        let mut req = QueryRequest::new(
                            &tenant,
                            queries[k].clone(),
                            ctx.clone(),
                            UdfRegistry::new(),
                        );
                        if i % 5 == 1 {
                            req = req.with_deadline(Duration::from_millis(1));
                        }
                        match service.submit(req) {
                            Ok(ticket) => {
                                if i % 7 == 3 {
                                    ticket.cancel();
                                }
                                inflight.push_back((k, ticket));
                            }
                            Err(ServeError::Rejected { retry_after }) => {
                                seen.shed += 1;
                                std::thread::sleep(retry_after.min(Duration::from_millis(1)));
                            }
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                        if inflight.len() >= OUTSTANDING {
                            settle(inflight.pop_front().unwrap());
                        }
                    }
                    inflight.into_iter().for_each(&mut settle);
                    seen
                })
            })
            .collect();
        submitters.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total = |f: fn(&Seen) -> u64| seen.iter().map(f).sum::<u64>();
    let count = |name: &str| metrics.counter_value(name);
    // The accounting `serve_loadgen --smoke` checks.
    assert_eq!(count("serve.submitted"), (SUBMITTERS * REQUESTS) as u64);
    assert_eq!(
        count("serve.submitted"),
        count("serve.admitted") + count("serve.shed")
    );
    assert_eq!(
        count("serve.shed"),
        total(|s| s.shed),
        "every shed was observed"
    );
    assert_eq!(count("serve.failed"), 0);
    assert_eq!(count("serve.panics_contained"), 0);
    // Each admitted job reached exactly one outcome, the one its ticket
    // reported: no reply was lost and none came from anywhere else.
    assert_eq!(count("serve.completed"), total(|s| s.ok));
    assert_eq!(count("serve.cancelled"), total(|s| s.cancelled));
    assert_eq!(count("serve.deadline_exceeded"), total(|s| s.deadline));
    assert_eq!(
        count("serve.admitted"),
        count("serve.completed") + count("serve.cancelled") + count("serve.deadline_exceeded"),
    );
    assert!(total(|s| s.ok) > 0, "most requests are answered");
}
