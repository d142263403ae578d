//! The cluster executor: map vertices on a worker pool, then reduce.
//!
//! [`execute_distributed`] lowers the query, splits the chain at its
//! first non-homomorphic operator (§6), compiles the map subchain once,
//! and runs it over every partition through [`homomorphic_apply`]. Each
//! map vertex runs exactly once:
//!
//! * **Panic isolation** — vertex bodies run under `catch_unwind`; a
//!   panicking UDF becomes [`DistError::VertexPanic`] instead of
//!   unwinding through the pool, and the next job runs normally.
//! * **Deterministic errors** — a data-dependent engine error
//!   (`VmError::DivisionByZero` and friends) becomes
//!   [`DistError::VertexFailed`] with a message byte-identical to the
//!   single-node engine's, reported for the lowest-numbered failing
//!   vertex whatever the thread timing.
//!
//! Re-running failed or slow vertices is the job manager's business
//! (Dryad's), not the query compiler's; this executor does not retry.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use steno_expr::eval::{eval, Env};
use steno_expr::{Column, DataContext, Ty, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_quil::ir::{QuilChain, SrcDesc};
use steno_quil::parallel::{self, ParallelPlan, Reduce};
use steno_quil::{lower, passes, LowerError};
use steno_vm::CompiledQuery;

use crate::chain_interp;
use crate::job::JobGraph;
use crate::partition::DistributedCollection;

/// Which executor runs inside each map vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexEngine {
    /// Steno-optimized: the subchain compiled once and applied per
    /// partition (the `HomomorphicApply` of §6).
    Steno,
    /// Unoptimized: the same subchain through boxed iterator state
    /// machines.
    Linq,
}

/// The simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Number of worker threads executing vertices.
    pub workers: usize,
}

impl Default for ClusterSpec {
    fn default() -> ClusterSpec {
        ClusterSpec { workers: 4 }
    }
}

/// What a distributed run did, for experiments and tests.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Number of input partitions (map vertices).
    pub partitions: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Which engine ran the map vertices.
    pub engine: VertexEngine,
    /// One-off optimization cost (zero for [`VertexEngine::Linq`]).
    pub compile_time: Duration,
    /// Wall time of the map phase.
    pub map_wall: Duration,
    /// Wall time of the reduce phase.
    pub reduce_wall: Duration,
    /// Elements crossing the map → reduce boundary (the coordination
    /// volume that partial aggregation shrinks, §6).
    pub exchanged_elements: usize,
    /// Total input elements across all partitions (map-phase volume).
    pub input_elements: usize,
    /// Input elements per map vertex (for per-vertex throughput).
    pub vertex_elements: Vec<usize>,
    /// Which VM tier the Steno-compiled map vertices ran on
    /// (`None` for [`VertexEngine::Linq`]).
    pub map_vm_engine: Option<steno_vm::EngineKind>,
    /// Whether the plan used `Agg_i`/partial-sink decomposition.
    pub partial_aggregation: bool,
    /// The job graph that ran.
    pub graph: JobGraph,
    /// Wall time per map vertex.
    pub vertex_wall: Vec<Duration>,
}

/// `elems / wall`, `None` when the wall clock rounded to zero (sub-tick
/// phases on coarse clocks must not divide by zero).
fn throughput(elems: usize, wall: Duration) -> Option<f64> {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        Some(elems as f64 / secs)
    } else {
        None
    }
}

impl JobReport {
    /// Map-phase throughput in input elements per second, `None` when
    /// the phase was too fast to measure.
    pub fn map_elements_per_sec(&self) -> Option<f64> {
        throughput(self.input_elements, self.map_wall)
    }

    /// Reduce-phase throughput in exchanged elements per second, `None`
    /// when the phase was too fast to measure.
    pub fn reduce_elements_per_sec(&self) -> Option<f64> {
        throughput(self.exchanged_elements, self.reduce_wall)
    }

    /// Per-vertex throughput (input elements per second); `None`
    /// entries are vertices too fast to measure.
    pub fn vertex_elements_per_sec(&self) -> Vec<Option<f64>> {
        self.vertex_elements
            .iter()
            .zip(&self.vertex_wall)
            .map(|(&n, &wall)| throughput(n, wall))
            .collect()
    }

    /// Folds the report into a metrics [`steno_obs::Collector`]: volume
    /// counters plus phase and per-vertex wall-time histograms. Cheap no-op on a disabled collector, so
    /// callers can record unconditionally.
    pub fn record_to(&self, c: &dyn steno_obs::Collector) {
        fn ns(d: Duration) -> u64 {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
        }
        if !c.enabled() {
            return;
        }
        c.add("cluster.jobs", 1);
        c.add("cluster.input_elements", self.input_elements as u64);
        c.add("cluster.exchanged_elements", self.exchanged_elements as u64);
        c.observe_ns("cluster.compile_ns", ns(self.compile_time));
        c.observe_ns("cluster.map_wall_ns", ns(self.map_wall));
        c.observe_ns("cluster.reduce_wall_ns", ns(self.reduce_wall));
        for w in &self.vertex_wall {
            c.observe_ns("cluster.vertex_wall_ns", ns(*w));
        }
    }

    /// Records the job's phase timings as retroactive spans under
    /// `parent`: `cluster.job` wrapping `cluster.compile` →
    /// `cluster.map` (one `cluster.vertex` child per map vertex,
    /// anchored at the map phase start — vertices ran concurrently) →
    /// `cluster.reduce`. The job report only keeps phase durations, so
    /// the spans are laid out sequentially backwards from
    /// `tracer.now_ns()`; that preserves every duration and the parent
    /// structure, which is what the flight-recorder dump needs. No-op
    /// on a disabled tracer.
    pub fn record_spans(&self, tracer: &steno_obs::Tracer, parent: Option<steno_obs::SpanId>) {
        use steno_obs::Note;

        if !tracer.enabled() {
            return;
        }
        fn ns(d: Duration) -> u64 {
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
        }
        let (compile, map, reduce) = (
            ns(self.compile_time),
            ns(self.map_wall),
            ns(self.reduce_wall),
        );
        let end = tracer.now_ns();
        let start = end.saturating_sub(compile + map + reduce);
        let job = tracer.record(
            "cluster.job",
            parent,
            start,
            end,
            vec![
                ("partitions", Note::from(self.partitions as u64)),
                ("workers", Note::from(self.workers as u64)),
                ("input_elements", Note::from(self.input_elements as u64)),
                (
                    "exchanged_elements",
                    Note::from(self.exchanged_elements as u64),
                ),
            ],
        );
        let compile_end = start + compile;
        tracer.record("cluster.compile", job, start, compile_end, Vec::new());
        let map_end = compile_end + map;
        let map_id = tracer.record("cluster.map", job, compile_end, map_end, Vec::new());
        for (i, wall) in self.vertex_wall.iter().enumerate() {
            let elements = self.vertex_elements.get(i).copied().unwrap_or(0);
            tracer.record(
                "cluster.vertex",
                map_id,
                compile_end,
                compile_end + ns(*wall),
                vec![
                    ("vertex", Note::from(i as u64)),
                    ("elements", Note::from(elements as u64)),
                ],
            );
        }
        tracer.record("cluster.reduce", job, map_end, map_end + reduce, Vec::new());
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let engine = match (self.engine, self.map_vm_engine) {
            (VertexEngine::Steno, Some(vm)) => format!("steno/{vm}"),
            (VertexEngine::Steno, None) => "steno".to_string(),
            (VertexEngine::Linq, _) => "linq".to_string(),
        };
        write!(
            f,
            "job: {} partitions on {} workers, engine {engine}; \
             map {:?} ({}), reduce {:?} ({}); {} in → {} exchanged",
            self.partitions,
            self.workers,
            self.map_wall,
            match self.map_elements_per_sec() {
                Some(eps) => format!("{eps:.0} elem/s"),
                None => "too fast to measure".to_string(),
            },
            self.reduce_wall,
            match self.reduce_elements_per_sec() {
                Some(eps) => format!("{eps:.0} elem/s"),
                None => "too fast to measure".to_string(),
            },
            self.input_elements,
            self.exchanged_elements,
        )
    }
}

/// A distributed execution error.
#[derive(Debug)]
pub enum DistError {
    /// The query could not be lowered to QUIL.
    Lower(LowerError),
    /// The query's root source is not the partitioned collection.
    BadRoot(String),
    /// A driver-side stage failed (compilation, reduce, merge).
    Vertex(String),
    /// A map vertex returned an error. Vertices are deterministic, so
    /// `message` is byte-identical to the single-node engine's error for
    /// the same data, and `vertex` is the lowest-numbered failing one.
    VertexFailed {
        /// The failing vertex (partition index).
        vertex: usize,
        /// The single-node-identical error message.
        message: String,
    },
    /// A map vertex panicked. The panic was caught at the vertex
    /// boundary; the worker pool survived.
    VertexPanic {
        /// The panicking vertex (partition index).
        vertex: usize,
        /// The panic payload (stringified).
        payload: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Lower(e) => write!(f, "{e}"),
            DistError::BadRoot(msg) => write!(f, "bad root source: {msg}"),
            DistError::Vertex(msg) => write!(f, "vertex failed: {msg}"),
            DistError::VertexFailed { vertex, message } => {
                write!(f, "vertex {vertex} failed: {message}")
            }
            DistError::VertexPanic { vertex, payload } => {
                write!(f, "vertex {vertex} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// The `HomomorphicApply` operator added to PLINQ in §6: "maps a
/// function across partitions in parallel, as opposed to each element".
///
/// Runs `f` once per partition on `workers.clamp(1, n)` threads — the
/// calling thread and one scoped thread fewer than that, so a
/// single-worker or single-partition job starts no thread — which claim
/// partition indices in increasing order from one shared counter. Each
/// vertex runs under `catch_unwind`, so a panicking `f`
/// becomes a [`DistError::VertexPanic`] and the pool survives. Returns
/// the values in partition order, plus each vertex's wall time.
///
/// After any vertex fails, no further vertex is claimed. Claims are
/// monotonic, so every lower-numbered vertex has already been claimed and
/// runs to completion: the error reported is always that of the
/// lowest-numbered failing vertex, as the single-node engine reports the
/// first failing element.
///
/// # Errors
///
/// [`DistError::VertexFailed`] carrying `f`'s message, or
/// [`DistError::VertexPanic`] carrying the panic payload.
pub fn homomorphic_apply<F>(
    partitions: &[Column],
    workers: usize,
    f: F,
) -> Result<(Vec<Value>, Vec<Duration>), DistError>
where
    F: Fn(usize, &Column) -> Result<Value, String> + Sync,
{
    let n = partitions.len();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let run_vertex = |i: usize| {
        let start = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(i, &partitions[i]))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(message)) => Err(DistError::VertexFailed { vertex: i, message }),
            Err(p) => Err(DistError::VertexPanic {
                vertex: i,
                payload: panic_payload(p.as_ref()),
            }),
        };
        if outcome.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        (i, outcome, start.elapsed())
    };
    let mut slots: Vec<Option<(Result<Value, DistError>, Duration)>> =
        (0..n).map(|_| None).collect();
    let claim_loop = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push(run_vertex(i));
        }
        done
    };
    std::thread::scope(|s| {
        // The calling thread is one of the workers.
        let pool: Vec<_> = (1..workers.clamp(1, n.max(1)))
            .map(|_| s.spawn(claim_loop))
            .collect();
        for (i, outcome, wall) in claim_loop() {
            slots[i] = Some((outcome, wall));
        }
        // Vertex bodies are caught, so `join` fails only if the worker's
        // own bookkeeping panicked; its vertices then read as missing.
        for (i, outcome, wall) in pool.into_iter().flat_map(|w| w.join().unwrap_or_default()) {
            slots[i] = Some((outcome, wall));
        }
    });
    let mut values = Vec::with_capacity(n);
    let mut walls = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let (outcome, wall) =
            slot.ok_or_else(|| DistError::Vertex(format!("vertex {i} did not run")))?;
        values.push(outcome?);
        walls.push(wall);
    }
    Ok((values, walls))
}

/// Extracts a printable payload from a caught panic.
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn count_exchanged(values: &[Value]) -> usize {
    values
        .iter()
        .map(|v| match v {
            Value::Seq(s) => s.len(),
            _ => 1,
        })
        .sum()
}

fn run_chain_serial(
    chain: &QuilChain,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    engine: VertexEngine,
) -> Result<Value, DistError> {
    match engine {
        VertexEngine::Steno => {
            let compiled = CompiledQuery::from_chain(chain, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))?;
            compiled
                .run(ctx, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))
        }
        VertexEngine::Linq => chain_interp::execute_chain(chain, ctx, udfs)
            .map_err(|e| DistError::Vertex(e.to_string())),
    }
}

/// Executes a query over a partitioned collection on the simulated
/// cluster (§6), running each map vertex once.
///
/// The query's root source must be `input`; any other named source it
/// references is *broadcast* — available in full at every vertex (the
/// k-means centroids, §7.2).
///
/// # Errors
///
/// Returns [`DistError`] for unloweable queries, mismatched roots, or
/// vertex failures.
pub fn execute_distributed(
    q: &QueryExpr,
    input: &DistributedCollection,
    broadcast: &DataContext,
    udfs: &UdfRegistry,
    spec: &ClusterSpec,
    engine: VertexEngine,
) -> Result<(Value, JobReport), DistError> {
    // Types: the partitioned source plus broadcast sources.
    let mut sources = SourceTypes::from(broadcast);
    let elem_ty = input
        .partitions
        .first()
        .map(Column::elem_ty)
        .unwrap_or(Ty::F64);
    sources.insert(input.name.clone(), elem_ty);

    let t0 = Instant::now();
    let chain = lower(q, &sources, udfs).map_err(DistError::Lower)?;
    let chain = passes::optimize(&chain);
    match &chain.src {
        SrcDesc::Collection { name, .. } if *name == input.name => {}
        other => {
            return Err(DistError::BadRoot(format!(
                "query iterates {other:?}, expected the partitioned collection `{}`",
                input.name
            )))
        }
    }
    let plan = parallel::plan(&chain);
    let compiled_map = match engine {
        VertexEngine::Steno => Some(
            CompiledQuery::from_chain(&plan.map_chain, udfs)
                .map_err(|e| DistError::Vertex(e.to_string()))?,
        ),
        VertexEngine::Linq => None,
    };
    let compile_time = t0.elapsed();

    // ---- map phase ----
    let t_map = Instant::now();
    let map_chain = &plan.map_chain;
    let (partials, vertex_wall) = homomorphic_apply(&input.partitions, spec.workers, |_, part| {
        let mut ctx = broadcast.clone();
        ctx.insert(input.name.clone(), part.clone());
        // Engine errors keep their single-node text.
        match &compiled_map {
            Some(c) => c.run(&ctx, udfs).map_err(|e| e.to_string()),
            None => chain_interp::execute_chain(map_chain, &ctx, udfs).map_err(|e| e.to_string()),
        }
    })?;
    let map_wall = t_map.elapsed();
    let exchanged_elements = count_exchanged(&partials);
    let vertex_elements: Vec<usize> = input.partitions.iter().map(Column::len).collect();
    let input_elements: usize = vertex_elements.iter().sum();

    // ---- reduce phase ----
    let t_reduce = Instant::now();
    let result = reduce(&plan, partials, broadcast, udfs, engine)?;
    let reduce_wall = t_reduce.elapsed();

    let report = JobReport {
        partitions: input.partition_count(),
        workers: spec.workers,
        engine,
        compile_time,
        map_wall,
        reduce_wall,
        exchanged_elements,
        input_elements,
        vertex_elements,
        map_vm_engine: compiled_map.as_ref().map(CompiledQuery::engine),
        partial_aggregation: plan.uses_partial_aggregation(),
        graph: JobGraph::from_plan(&plan, input.partition_count()),
        vertex_wall,
    };
    Ok((result, report))
}

/// Rebuilds a type-specialized column from boxed values, so downstream
/// Steno-compiled chains get the indexed access they were generated for.
/// Falls back to a boxed column when any element has an unexpected shape.
fn typed_column(values: Vec<Value>, elem_ty: &Ty) -> Column {
    fn collect<T>(values: &[Value], get: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
        values.iter().map(get).collect()
    }
    match elem_ty {
        Ty::F64 => match collect(&values, Value::as_f64) {
            Some(xs) => Column::from_f64(xs),
            None => Column::from_values(values),
        },
        Ty::I64 => match collect(&values, Value::as_i64) {
            Some(xs) => Column::from_i64(xs),
            None => Column::from_values(values),
        },
        Ty::Bool => match collect(&values, Value::as_bool) {
            Some(xs) => Column::from_bool(xs),
            None => Column::from_values(values),
        },
        _ => Column::from_values(values),
    }
}

fn reduce(
    plan: &ParallelPlan,
    partials: Vec<Value>,
    broadcast: &DataContext,
    udfs: &UdfRegistry,
    engine: VertexEngine,
) -> Result<Value, DistError> {
    let vertex = |e: steno_expr::EvalError| DistError::Vertex(e.to_string());
    match &plan.reduce {
        Reduce::Concat => {
            let mut out = Vec::new();
            for p in partials {
                match p {
                    Value::Seq(s) => out.extend(s.iter().cloned()),
                    other => out.push(other),
                }
            }
            Ok(Value::seq(out))
        }
        Reduce::CombinePartials(agg) => {
            // The Agg* vertex of Fig. 12.
            let mut iter = partials.into_iter();
            let mut acc = iter
                .next()
                .ok_or_else(|| DistError::Vertex("no partitions".into()))?;
            for p in iter {
                acc = chain_interp::combine_agg(agg, acc, p, udfs).map_err(vertex)?;
            }
            chain_interp::finish_agg(agg, acc, udfs).map_err(vertex)
        }
        Reduce::MergeGroupedPartials {
            agg,
            key_param,
            agg_param,
            result,
        } => {
            // Merge per-key partials in partition order, then finish and
            // apply the result selector.
            let mut index = std::collections::HashMap::new();
            let mut entries: Vec<(Value, Value)> = Vec::new();
            for p in partials {
                let Value::Seq(pairs) = p else {
                    return Err(DistError::Vertex(
                        "grouped map vertex did not yield pairs".into(),
                    ));
                };
                for kv in pairs.iter() {
                    let (k, partial) = kv
                        .as_pair()
                        .ok_or_else(|| DistError::Vertex("expected (key, acc) pairs".into()))?;
                    match index.get(&k.key()) {
                        None => {
                            index.insert(k.key(), entries.len());
                            entries.push((k.clone(), partial.clone()));
                        }
                        Some(&slot) => {
                            let merged = chain_interp::combine_agg(
                                agg,
                                entries[slot].1.clone(),
                                partial.clone(),
                                udfs,
                            )
                            .map_err(vertex)?;
                            entries[slot].1 = merged;
                        }
                    }
                }
            }
            let mut out = Vec::with_capacity(entries.len());
            for (k, acc) in entries {
                let fin = chain_interp::finish_agg(agg, acc, udfs).map_err(vertex)?;
                let env = Env::new()
                    .with(key_param.clone(), k)
                    .with(agg_param.clone(), fin);
                out.push(eval(result, &env, udfs).map_err(vertex)?);
            }
            Ok(Value::seq(out))
        }
        Reduce::MergeSorted {
            param,
            key,
            descending,
        } => {
            // Partition outputs are sorted runs; merge by key.
            let mut decorated: Vec<(Value, Value)> = Vec::new();
            for p in partials {
                let Value::Seq(items) = p else {
                    return Err(DistError::Vertex(
                        "sorted vertex did not yield a run".into(),
                    ));
                };
                for v in items.iter() {
                    let env = Env::new().with(param.clone(), v.clone());
                    let k = eval(key, &env, udfs).map_err(vertex)?;
                    decorated.push((k, v.clone()));
                }
            }
            decorated.sort_by(|(a, _), (b, _)| {
                let ord = a.cmp_total(b);
                if *descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
            Ok(Value::seq(decorated.into_iter().map(|(_, v)| v).collect()))
        }
        Reduce::SerialRest { ops, agg } => {
            // Concatenate and run the remainder serially.
            let mut merged = Vec::new();
            for p in partials {
                match p {
                    Value::Seq(s) => merged.extend(s.iter().cloned()),
                    other => merged.push(other),
                }
            }
            let elem_ty = plan.map_chain.elem_ty();
            let rest_chain = QuilChain {
                src: SrcDesc::Collection {
                    name: "__cluster_merged".into(),
                    elem_ty: elem_ty.clone(),
                },
                ops: ops.clone(),
                agg: agg.clone(),
            };
            let mut ctx = broadcast.clone();
            ctx.insert("__cluster_merged", typed_column(merged, &elem_ty));
            run_chain_serial(&rest_chain, &ctx, udfs, engine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::Expr;
    use steno_linq::interp;
    use steno_query::{GroupResult, Query};

    fn x() -> Expr {
        Expr::var("x")
    }

    /// Structural equality with a relative tolerance on floats:
    /// partitioned partial aggregation reassociates floating-point sums,
    /// so distributed results may differ from serial ones in the last
    /// ulps (as on the real system).
    fn assert_close(a: &Value, b: &Value, what: &str) {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => {
                let close = (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
                    || (x.is_nan() && y.is_nan());
                assert!(close, "{what}: {x} vs {y}");
            }
            (Value::Seq(xs), Value::Seq(ys)) => {
                assert_eq!(xs.len(), ys.len(), "{what}: length");
                for (x, y) in xs.iter().zip(ys.iter()) {
                    assert_close(x, y, what);
                }
            }
            (Value::Pair(x), Value::Pair(y)) => {
                assert_close(&x.0, &y.0, what);
                assert_close(&x.1, &y.1, what);
            }
            (x, y) => assert_eq!(x.key(), y.key(), "{what}"),
        }
    }

    /// Distributed result == serial interpreter result, on both engines.
    #[track_caller]
    fn check_equivalence(q: QueryExpr, data: Vec<f64>, partitions: usize) {
        let udfs = UdfRegistry::new();
        let serial_ctx = DataContext::new().with_source("xs", data.clone());
        let expected = interp::execute(&q, &serial_ctx, &udfs).unwrap();
        let input = DistributedCollection::from_f64("xs", data, partitions);
        let spec = ClusterSpec { workers: 3 };
        for engine in [VertexEngine::Steno, VertexEngine::Linq] {
            let (got, _) =
                execute_distributed(&q, &input, &DataContext::new(), &udfs, &spec, engine).unwrap();
            assert_close(&got, &expected, &format!("engine {engine:?}, query {q}"));
        }
    }

    #[test]
    fn partial_sums_match_serial() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.01 - 3.0).collect();
        let q = Query::source("xs").select(x() * x(), "x").sum().build();
        check_equivalence(q, data, 7);
    }

    #[test]
    fn elementwise_chains_concatenate_in_order() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs")
            .where_((x() % Expr::litf(3.0)).eq(Expr::litf(0.0)), "x")
            .select(x() * Expr::litf(2.0), "x")
            .build();
        check_equivalence(q, data, 4);
    }

    #[test]
    fn grouped_aggregation_merges_across_partitions() {
        let data: Vec<f64> = (0..500).map(|i| (i % 13) as f64).collect();
        let q = Query::source("xs")
            .group_by_result(
                x().floor(),
                "x",
                GroupResult::keyed("k", "g", Query::over(Expr::var("g")).count().build()),
            )
            .build();
        check_equivalence(q, data, 5);
    }

    #[test]
    fn average_finishes_after_combining() {
        let data: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let q = Query::source("xs").average().build();
        check_equivalence(q, data, 8);
    }

    #[test]
    fn order_by_merges_sorted_runs() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 7919) % 451) as f64).collect();
        let q = Query::source("xs").order_by(x(), "x").build();
        check_equivalence(q, data, 6);
    }

    #[test]
    fn take_runs_serial_remainder() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs")
            .select(x() + Expr::litf(1.0), "x")
            .take(10)
            .sum()
            .build();
        check_equivalence(q, data, 4);
    }

    #[test]
    fn partial_aggregation_reduces_exchange_volume() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 10);
        let udfs = UdfRegistry::new();
        let (_, report) = execute_distributed(
            &q,
            &input,
            &DataContext::new(),
            &udfs,
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
        )
        .unwrap();
        assert!(report.partial_aggregation);
        // One partial accumulator per partition, not 10k elements.
        assert_eq!(report.exchanged_elements, 10);
        assert_eq!(report.partitions, 10);
        assert!(report.graph.to_string().contains("Agg*"));
        assert_eq!(report.vertex_wall.len(), 10);
        // Vectorized map vertices and coherent throughput accounting.
        assert_eq!(report.map_vm_engine, Some(steno_vm::EngineKind::Vectorized));
        assert_eq!(report.input_elements, 10_000);
        assert_eq!(report.vertex_elements, vec![1_000; 10]);
        // Throughput is either measurable and positive, or None on a
        // sub-tick phase — never a division by zero.
        if let Some(eps) = report.map_elements_per_sec() {
            assert!(eps > 0.0);
        }
        assert_eq!(report.vertex_elements_per_sec().len(), 10);
        let shown = report.to_string();
        assert!(shown.contains("steno/vectorized"), "display: {shown}");
        assert!(shown.contains("10000 in"), "display: {shown}");
    }

    #[test]
    fn job_reports_fold_into_a_collector() {
        use steno_obs::{Collector, MemoryCollector};

        let data: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 4);
        let (_, report) = execute_distributed(
            &q,
            &input,
            &DataContext::new(),
            &UdfRegistry::new(),
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
        )
        .unwrap();
        let metrics = MemoryCollector::new();
        report.record_to(&metrics);
        assert_eq!(metrics.counter_value("cluster.jobs"), 1);
        assert_eq!(metrics.counter_value("cluster.input_elements"), 1_000);
        assert_eq!(metrics.counter_value("cluster.exchanged_elements"), 4);
        let snap = metrics.snapshot();
        let vertex_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "cluster.vertex_wall_ns")
            .unwrap();
        assert_eq!(vertex_hist.count, 4);
        // Recording twice accumulates; a disabled collector is a no-op.
        report.record_to(&metrics);
        assert_eq!(metrics.counter_value("cluster.jobs"), 2);
        let noop = steno_obs::NoopCollector;
        assert!(!noop.enabled());
        report.record_to(&noop);
    }

    #[test]
    fn linq_vertices_report_no_vm_engine() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let q = Query::source("xs").sum().build();
        let input = DistributedCollection::from_f64("xs", data, 4);
        let (_, report) = execute_distributed(
            &q,
            &input,
            &DataContext::new(),
            &UdfRegistry::new(),
            &ClusterSpec { workers: 2 },
            VertexEngine::Linq,
        )
        .unwrap();
        assert_eq!(report.map_vm_engine, None);
        assert!(report.to_string().contains("engine linq"));
    }

    #[test]
    fn broadcast_sources_reach_every_vertex() {
        // xs.Select(x => x * scale.First()) with `scale` broadcast.
        let q = Query::source("xs")
            .select_query(Query::source("scale").first(), "x")
            .sum()
            .build();
        let data: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
        let input = DistributedCollection::from_f64("xs", data, 2);
        let broadcast = DataContext::new().with_source("scale", vec![2.5f64]);
        let udfs = UdfRegistry::new();
        let (v, _) = execute_distributed(
            &q,
            &input,
            &broadcast,
            &udfs,
            &ClusterSpec { workers: 2 },
            VertexEngine::Steno,
        )
        .unwrap();
        assert_eq!(v, Value::F64(10.0));
    }

    #[test]
    fn root_must_be_the_partitioned_collection() {
        let q = Query::source("ys").sum().build();
        let input = DistributedCollection::from_f64("xs", vec![1.0], 1);
        let broadcast = DataContext::new().with_source("ys", vec![1.0f64]);
        let err = execute_distributed(
            &q,
            &input,
            &broadcast,
            &UdfRegistry::new(),
            &ClusterSpec::default(),
            VertexEngine::Steno,
        );
        assert!(matches!(err, Err(DistError::BadRoot(_))));
    }

    #[test]
    fn homomorphic_apply_collects_in_partition_order() {
        let parts: Vec<Column> = (0..6).map(|i| Column::from_f64(vec![i as f64])).collect();
        let (got, walls) = homomorphic_apply(&parts, 3, |i, c| {
            Ok(Value::F64(c.to_values()[0].as_f64().unwrap() + i as f64))
        })
        .unwrap();
        let want: Vec<Value> = (0..6).map(|i| Value::F64(2.0 * i as f64)).collect();
        assert_eq!(got, want);
        assert_eq!(walls.len(), 6);
    }

    #[test]
    fn a_single_worker_runs_its_vertices_on_the_calling_thread() {
        let parts: Vec<Column> = (0..3).map(|_| Column::from_f64(vec![1.0])).collect();
        let caller = std::thread::current().id();
        let (got, _) = homomorphic_apply(&parts, 1, |_, _| {
            Ok(Value::Bool(std::thread::current().id() == caller))
        })
        .unwrap();
        assert_eq!(got, vec![Value::Bool(true); 3]);
        // One partition needs no second thread, whatever `workers` says.
        let (got, _) = homomorphic_apply(&parts[..1], 4, |_, _| {
            Ok(Value::Bool(std::thread::current().id() == caller))
        })
        .unwrap();
        assert_eq!(got, vec![Value::Bool(true)]);
    }

    #[test]
    fn homomorphic_apply_surfaces_string_errors_without_retry() {
        let parts: Vec<Column> = (0..3).map(|_| Column::from_f64(vec![1.0])).collect();
        let err = homomorphic_apply(&parts, 2, |i, _| {
            if i == 1 {
                Err("bad partition".to_string())
            } else {
                Ok(Value::F64(0.0))
            }
        })
        .unwrap_err();
        match err {
            DistError::VertexFailed { vertex, message } => {
                assert_eq!(vertex, 1);
                assert_eq!(message, "bad partition");
            }
            other => panic!("expected VertexFailed, got {other:?}"),
        }
    }

    #[test]
    fn panicking_closure_is_isolated_and_reported() {
        let parts: Vec<Column> = (0..2).map(|_| Column::from_f64(vec![1.0])).collect();
        let err = homomorphic_apply(&parts, 2, |i, _| {
            if i == 0 {
                panic!("udf exploded");
            }
            Ok(Value::F64(1.0))
        })
        .unwrap_err();
        match err {
            DistError::VertexPanic { vertex, payload } => {
                assert_eq!(vertex, 0);
                assert!(payload.contains("udf exploded"), "payload: {payload}");
            }
            other => panic!("expected VertexPanic, got {other:?}"),
        }
    }
}
