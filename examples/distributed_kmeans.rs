//! The distributed k-means of §7.2, run to convergence on the simulated
//! cluster, comparing Steno-optimized and unoptimized vertices. Every
//! iteration checks that both engines assign the same number of points
//! to each cluster.
//!
//! Run with `cargo run --release --example distributed_kmeans`.

use steno::cluster::{execute_distributed, ClusterSpec, DistributedCollection, VertexEngine};
use steno::prelude::*;

// The workload builders live in the bench crate's public API; this
// example re-creates them inline to stay self-contained.

fn clustered_points(n: usize, dim: usize, centers: &[Vec<f64>], seed: u64) -> Vec<f64> {
    use steno_repro::prng::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = &centers[rng.index(centers.len())];
        for coord in c.iter().take(dim) {
            data.push(coord + rng.range_f64(-0.5, 0.5));
        }
    }
    data
}

fn udfs(dim: usize) -> UdfRegistry {
    let mut u = UdfRegistry::new();
    u.register("dist2", vec![Ty::Row, Ty::Row], Ty::F64, |args| {
        let a = args[0].as_row().unwrap();
        let b = args[1].as_row().unwrap();
        Value::F64(a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum())
    });
    u.register("vadd", vec![Ty::Row, Ty::Row], Ty::Row, |args| {
        let a = args[0].as_row().unwrap();
        let b = args[1].as_row().unwrap();
        Value::row(a.iter().zip(b.iter()).map(|(x, y)| x + y).collect())
    });
    u.register("vzero", vec![], Ty::Row, move |_| Value::row(vec![0.0; dim]));
    u
}

/// Step 1 of each iteration (§7.2) as a declarative query: assign each
/// point to its nearest centroid and compute per-cluster partial sums.
fn assignment_query() -> QueryExpr {
    let p = || Expr::var("p");
    let nearest = Query::source("centroids")
        .select(
            Expr::mk_pair(
                Expr::var("c").field(0),
                Expr::call("dist2", vec![p(), Expr::var("c").field(1)]),
            ),
            "c",
        )
        .aggregate(
            Expr::mk_pair(Expr::mk_pair(Expr::liti(-1), p()), Expr::litf(f64::INFINITY)),
            "best",
            "cur",
            Expr::if_(
                Expr::var("cur").field(1).lt(Expr::var("best").field(1)),
                Expr::mk_pair(
                    Expr::mk_pair(Expr::var("cur").field(0), p()),
                    Expr::var("cur").field(1),
                ),
                Expr::var("best"),
            ),
        );
    let partial_sum = Query::over(Expr::var("g")).aggregate_assoc(
        Expr::mk_pair(Expr::call("vzero", vec![]), Expr::liti(0)),
        "acc",
        "pt",
        Expr::mk_pair(
            Expr::call("vadd", vec![Expr::var("acc").field(0), Expr::var("pt")]),
            Expr::var("acc").field(1) + Expr::liti(1),
        ),
        steno::query::QFn2::new(
            "a",
            "b",
            Expr::mk_pair(
                Expr::call("vadd", vec![Expr::var("a").field(0), Expr::var("b").field(0)]),
                Expr::var("a").field(1) + Expr::var("b").field(1),
            ),
        ),
    );
    Query::source("points")
        .select_query(nearest, "p")
        .select(Expr::var("kv").field(0), "kv")
        .group_by_elem_result(
            Expr::var("x").field(0),
            Expr::var("x").field(1),
            "x",
            GroupResult::keyed("k", "g", partial_sum.build()),
        )
        .build()
}

fn centroid_column(centroids: &[Vec<f64>]) -> Column {
    Column::from_values(
        centroids
            .iter()
            .enumerate()
            .map(|(i, c)| Value::pair(Value::I64(i as i64), Value::row(c.clone())))
            .collect(),
    )
}

/// `(cluster id, points assigned)` per cluster, in result order.
fn cluster_counts(result: &Value) -> Vec<(i64, i64)> {
    result
        .as_seq()
        .unwrap()
        .iter()
        .map(|row| {
            let (kid, agg) = row.as_pair().unwrap();
            (kid.as_i64().unwrap(), agg.as_pair().unwrap().1.as_i64().unwrap())
        })
        .collect()
}

fn main() {
    let dim = 8;
    let k = 4;
    let n = 40_000;
    let partitions = 8;
    let true_centers: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..dim).map(|d| ((i * 7 + d) % 11) as f64).collect())
        .collect();
    let data = clustered_points(n, dim, &true_centers, 13);
    let input = DistributedCollection::from_rows("points", data.clone(), dim, partitions);
    let registry = udfs(dim);
    let q = assignment_query();
    let spec = ClusterSpec { workers: 4 };

    // Deliberately bad initial centroids.
    let mut centroids: Vec<Vec<f64>> = (0..k)
        .map(|i| data[i * dim..(i + 1) * dim].to_vec())
        .collect();

    println!("distributed k-means: {n} points, dim {dim}, k={k}, {partitions} partitions\n");
    for iter in 0..8 {
        let broadcast = DataContext::new().with_source("centroids", centroid_column(&centroids));
        let (result, report) = execute_distributed(
            &q,
            &input,
            &broadcast,
            &registry,
            &spec,
            VertexEngine::Steno,
        )
        .expect("iteration failed");
        // Also run the unoptimized vertices for comparison (same plan).
        let (linq_result, linq_report) = execute_distributed(
            &q,
            &input,
            &broadcast,
            &registry,
            &spec,
            VertexEngine::Linq,
        )
        .expect("iteration failed");
        assert_eq!(
            cluster_counts(&result),
            cluster_counts(&linq_result),
            "iteration {iter}: the engines assigned points differently"
        );

        // Step 2: recompute centroids on the driver.
        let mut movement = 0.0;
        let mut next = centroids.clone();
        for row in result.as_seq().unwrap() {
            let (kid, agg) = row.as_pair().unwrap();
            let id = kid.as_i64().unwrap() as usize;
            let (sum, count) = agg.as_pair().unwrap();
            let cnt = count.as_i64().unwrap();
            if cnt > 0 {
                let s = sum.as_row().unwrap();
                let fresh: Vec<f64> = s.iter().map(|x| x / cnt as f64).collect();
                movement += fresh
                    .iter()
                    .zip(&centroids[id])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                next[id] = fresh;
            }
        }
        centroids = next;
        let steno_t = report.map_wall + report.reduce_wall;
        let linq_t = linq_report.map_wall + linq_report.reduce_wall;
        println!(
            "iter {iter}: moved {movement:>9.4}   steno {steno_t:>9.2?}  unoptimized {linq_t:>9.2?}  ({:.2}x)  exchanged {} partials",
            linq_t.as_secs_f64() / steno_t.as_secs_f64(),
            report.exchanged_elements,
        );
        if movement < 1e-9 {
            println!("\nconverged after {} iterations", iter + 1);
            break;
        }
    }
    println!("\nfinal centroids:");
    for (i, c) in centroids.iter().enumerate() {
        let rounded: Vec<f64> = c.iter().map(|x| (x * 100.0).round() / 100.0).collect();
        println!("  cluster {i}: {rounded:?}");
    }
}
