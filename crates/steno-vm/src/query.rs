//! The public optimization entry point: compiled queries and the cache.
//!
//! `CompiledQuery::compile` runs the full Steno pipeline of §3 —
//! canonical chain extraction, QUIL lowering, specialization passes, the
//! pushdown-automaton code generator, and bytecode assembly — and records
//! how long it took. That duration is the reproduction's analogue of the
//! paper's one-off ~69 ms cost of invoking `csc` and loading the DLL
//! (§7.1), and it amortizes the same way: via the [`QueryCache`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::{Mutex, MutexGuard, PoisonError};

use steno_codegen::{generate, render_rust};
use steno_expr::typecheck::TyEnv;
use steno_expr::{DataContext, Ty, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_quil::ir::QuilChain;
use steno_quil::lower::{lower_with, LowerOptions};
use steno_quil::passes;

use steno_opt::{rewrite as rewrite_chain, RewriteEvent};

use crate::compile::assemble_hinted;
use crate::exec::{run_program, VmError};
use crate::instr::Program;
use crate::interrupt::Interrupt;
use crate::plan_key::{probe, PlanKey};
use crate::prepared::Bindings;

/// An error from the optimization pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimizeError {
    /// The query cannot be lowered to QUIL (type error or unsupported
    /// shape) — callers should fall back to the unoptimized executor.
    Lower(steno_quil::LowerError),
    /// Code generation failed (internal invariant).
    Gen(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Lower(e) => write!(f, "{e}"),
            OptimizeError::Gen(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Whether the compiler may emit batch-vectorized loops.
///
/// `Auto` (the default) vectorizes every eligible loop and falls back
/// to the scalar tier otherwise; `Off` disables the tier entirely
/// (ablation baselines, debugging).
/// Under `Off` every loop runs on the scalar tier, which the tape
/// verifier checks in full and which polls interrupts at every
/// back-edge. Per-loop fallback reasons are reported by
/// [`CompiledQuery::batch_fallbacks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VectorizationPolicy {
    /// Vectorize when the operator chain and element types allow it.
    Auto,
    /// Never vectorize; every loop runs on the scalar tier.
    Off,
}

/// Which execution tier a compiled query's hot loops landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// All loops run element-at-a-time as scalar bytecode.
    Scalar,
    /// At least one loop runs on the typed column-batch engine.
    Vectorized,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Scalar => write!(f, "scalar"),
            EngineKind::Vectorized => write!(f, "vectorized"),
        }
    }
}

/// Tuning knobs for the optimization pipeline, used by the ablation
/// benchmarks. The defaults are the full Steno configuration. Part of
/// every plan-cache key: plans compiled under different options never
/// share an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StenoOptions {
    /// QUIL-level options (GroupByAggregate specialization, §4.3).
    pub lower: LowerOptions,
    /// Read by nothing: the VM's loop-fusion tier it switched was
    /// removed. Still set by `Default`, so plan keys are unchanged.
    #[deprecated(note = "the loop-fusion tier was removed; this option has no effect")]
    pub fusion: bool,
    /// Whether the VM's batch-vectorization tier runs.
    pub vectorize: VectorizationPolicy,
    /// Whether the verified algebraic rewrite pass (`steno-opt`:
    /// `merge-limits` and `hoist-limit`) runs on the lowered chain.
    pub rewrites: bool,
}

#[allow(deprecated)]
impl Default for StenoOptions {
    fn default() -> StenoOptions {
        StenoOptions {
            lower: LowerOptions::default(),
            fusion: true,
            vectorize: VectorizationPolicy::Auto,
            rewrites: true,
        }
    }
}

/// A Steno-optimized query, ready to run against any compatible context.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    program: Program,
    compile_time: Duration,
    chain: QuilChain,
    rewrites: Vec<RewriteEvent>,
}

impl CompiledQuery {
    /// Runs the full optimization pipeline on a canonicalized query.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Lower`] for queries Steno does not
    /// optimize; execute those with `steno_linq::interp` instead.
    pub fn compile(
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
    ) -> Result<CompiledQuery, OptimizeError> {
        let opts = StenoOptions::default();
        Self::compile_with(q, sources, udfs, opts)
    }

    /// As [`CompiledQuery::compile`] under explicit [`StenoOptions`]
    /// (ablation benchmarks).
    ///
    /// # Errors
    ///
    /// As [`CompiledQuery::compile`].
    pub fn compile_with(
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
        opts: StenoOptions,
    ) -> Result<CompiledQuery, OptimizeError> {
        let start = Instant::now();
        let chain = lower_with(q, &sources, &TyEnv::new(), udfs, opts.lower)
            .map_err(OptimizeError::Lower)?;
        let chain = if opts.lower.specialize_group_aggregate {
            passes::specialize_group_aggregate(&chain).0
        } else {
            chain
        };
        // The algebraic rewrite pass runs *before* element-wise fusion:
        // hoisting a limit has to see the individual maps, not the one
        // map the fuser composes them into.
        let (chain, rewrites) = if opts.rewrites {
            let out = rewrite_chain(&chain, udfs, None);
            (out.chain, out.log)
        } else {
            (chain, Vec::new())
        };
        let chain = if opts.lower.specialize_group_aggregate {
            passes::fuse_elementwise(&chain).0
        } else {
            chain
        };
        let chain = passes::fold_constants(&chain);
        Self::finish(chain, udfs, start, opts, rewrites)
    }

    /// Compiles a pre-lowered QUIL chain (used by the distributed planner,
    /// which optimizes per-vertex subchains separately, §6).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Gen`] for internal failures.
    pub fn from_chain(chain: &QuilChain, udfs: &UdfRegistry) -> Result<CompiledQuery, OptimizeError> {
        let opts = StenoOptions::default();
        Self::finish(chain.clone(), udfs, Instant::now(), opts, Vec::new())
    }

    fn finish(
        chain: QuilChain,
        udfs: &UdfRegistry,
        start: Instant,
        opts: StenoOptions,
        rewrites: Vec<RewriteEvent>,
    ) -> Result<CompiledQuery, OptimizeError> {
        let imp = generate(&chain).map_err(|e| OptimizeError::Gen(e.to_string()))?;
        let vectorize = opts.vectorize == VectorizationPolicy::Auto;
        let program = assemble_hinted(&imp, udfs, false, vectorize, None)
            .map_err(|e| OptimizeError::Gen(e.to_string()))?;
        Ok(CompiledQuery {
            program,
            compile_time: start.elapsed(),
            chain,
            rewrites,
        })
    }

    /// The optimized QUIL chain this query compiled from — the input to
    /// the plan verifier (`steno-analysis`) and the lint framework.
    pub fn chain(&self) -> &QuilChain {
        &self.chain
    }

    /// The compiled register program — the input to the tape verifier
    /// ([`crate::check::check_program`]).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Executes the compiled query against a context.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] for missing sources/UDFs or data-dependent
    /// failures.
    pub fn run(&self, ctx: &DataContext, udfs: &UdfRegistry) -> Result<Value, VmError> {
        self.run_with(ctx, udfs, &Interrupt::none())
    }

    /// As [`CompiledQuery::run`], polling `interrupt` at loop back-edges
    /// and batch boundaries so a cancelled or past-deadline execution
    /// aborts in bounded time with [`VmError::Cancelled`] /
    /// [`VmError::DeadlineExceeded`]. This is the entry point the
    /// `steno-serve` worker pool uses to enforce per-query deadlines.
    ///
    /// # Errors
    ///
    /// As [`CompiledQuery::run`], plus the two interruption errors.
    pub fn run_with(
        &self,
        ctx: &DataContext,
        udfs: &UdfRegistry,
        interrupt: &Interrupt,
    ) -> Result<Value, VmError> {
        let bindings = Bindings::resolve(&self.program, ctx, udfs)?;
        run_program(&self.program, &bindings, interrupt)
    }

    /// As [`CompiledQuery::run_with`], additionally returning a
    /// [`crate::profile::QueryProfile`] of where elements and time went
    /// and recording `vm.run`/`vm.loop` spans into `tracer` (see
    /// [`crate::exec::run_program_traced`]). Runs the profiled
    /// monomorphization of the interpreter; with a disabled tracer this
    /// is a plain profiled run.
    ///
    /// # Errors
    ///
    /// As [`CompiledQuery::run_with`].
    pub fn run_traced(
        &self,
        ctx: &DataContext,
        udfs: &UdfRegistry,
        interrupt: &Interrupt,
        tracer: &steno_obs::Tracer,
        parent: Option<steno_obs::SpanId>,
    ) -> Result<(Value, crate::profile::QueryProfile), VmError> {
        let bindings = Bindings::resolve(&self.program, ctx, udfs)?;
        crate::exec::run_program_traced(&self.program, &bindings, interrupt, tracer, parent)
    }

    /// The algebraic rewrite log: every rewrite the optimizer attempted
    /// on this plan, in application order, including rewrites the plan
    /// verifier rejected (`applied: false`). Empty when
    /// [`StenoOptions::rewrites`] was off or nothing matched.
    pub fn rewrite_log(&self) -> &[RewriteEvent] {
        &self.rewrites
    }

    /// The generated Rust source (the paper's generated C#, Fig. 5–8),
    /// rendered from the stored chain on each call: compilation itself
    /// never pays for the text.
    pub fn rust_source(&self) -> String {
        // `finish` already generated code from this chain, so this
        // cannot fail; the error arm only keeps the accessor total.
        generate(&self.chain).map_or_else(|e| format!("// {e}"), |imp| render_rust(&imp))
    }

    /// The QUIL sentence this query lowered to, rendered on each call.
    pub fn quil(&self) -> String {
        self.chain.to_string()
    }

    /// How long optimization + code generation took (the one-off cost of
    /// §7.1).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// The result type.
    pub fn result_ty(&self) -> &Ty {
        &self.program.result_ty
    }

    /// The number of bytecode instructions.
    pub fn instr_count(&self) -> usize {
        self.program.len()
    }

    /// How many loops the vectorization tier compiled to column-batch
    /// programs (§9's MonetDB/X100-style execution).
    pub fn vectorized_loops(&self) -> u32 {
        self.program.n_batch
    }

    /// Which engine the query's hot loops run on.
    pub fn engine(&self) -> EngineKind {
        if self.program.n_batch > 0 {
            EngineKind::Vectorized
        } else {
            EngineKind::Scalar
        }
    }

    /// The batch size used by the vectorized engine.
    pub fn batch_size(&self) -> usize {
        crate::batch::BATCH
    }

    /// Why loops fell back from the vectorized tier (deduplicated, in
    /// first-occurrence order; empty when everything vectorized or
    /// vectorization was off).
    pub fn batch_fallbacks(&self) -> &[crate::instr::FallbackReason] {
        &self.program.batch_fallbacks
    }

    /// How many per-lane integer-division trap guards the compiler
    /// dropped because range analysis proved the divisor non-zero.
    pub fn guards_dropped(&self) -> u32 {
        self.program.n_guards_dropped
    }

    /// The compiler's tier decision per loop, in compilation order
    /// (outer loops before the loops nested inside them). This is what
    /// `Steno::explain` renders.
    pub fn loop_plans(&self) -> &[crate::instr::LoopPlan] {
        &self.program.loop_plans
    }

    /// Names of the fused batch kernels the backend selected, in
    /// compilation order: whole-tape shapes (e.g.
    /// `"filter(x%3==0)·sum(x*x):i64"`) followed by any pairwise kernel
    /// fusions (`"muladd:f64"`, `"mulred:i64"`). Empty when every loop
    /// runs the plain kernel sequence.
    pub fn fused_kernels(&self) -> &[String] {
        &self.program.fused_kernels
    }

    /// How many batch columns the lifetime packer recycled instead of
    /// allocating fresh (each saved column is 1024 lanes of traffic the
    /// kernel sequence no longer touches).
    pub fn slots_reused(&self) -> u32 {
        self.program.n_slots_reused
    }

    /// How many loop-invariant constants the backend hoisted out of
    /// scalar loop bodies to the program entry.
    pub fn hoisted(&self) -> u32 {
        self.program.n_hoisted
    }

    /// How many adjacent scalar instruction pairs the backend threaded
    /// into superinstructions (compare→branch, increment→jump,
    /// multiply→add).
    pub fn superinstrs(&self) -> u32 {
        self.program.n_superinstrs
    }
}

/// Aggregate counters for a [`QueryCache`]: the admission-control view
/// of the plan cache a multi-tenant service watches (hit rate, pressure
/// via evictions, occupancy vs the cap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Entries evicted to enforce the capacity cap.
    pub evictions: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// The capacity cap, `None` for an unbounded cache.
    pub capacity: Option<usize>,
}

/// One cached plan plus its LRU stamp.
struct CacheEntry {
    compiled: Arc<CompiledQuery>,
    last_used: u64,
}

/// Map, LRU clock, and counters behind one lock, so a hit's
/// `last_used` bump and counter increment are atomic together. The
/// hasher is a parameter only so a test can force every key into one
/// bucket.
#[derive(Default)]
struct CacheInner<B = RandomState> {
    entries: HashMap<PlanKey<StenoOptions>, CacheEntry, B>,
    tick: u64,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<B: BuildHasher> CacheInner<B> {
    /// Looks `q` up, stamping the entry most-recently-used on a hit.
    fn get(&mut self, q: &QueryExpr, opts: StenoOptions) -> Option<Arc<CompiledQuery>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(probe(&(opts, q))) {
            Some(e) => {
                e.last_used = tick;
                let hit = Arc::clone(&e.compiled);
                self.hits += 1;
                Some(hit)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key`, evicting least-recently-used entries while the
    /// cache is at capacity. The LRU scan is linear, which is fine at
    /// plan-cache sizes (hundreds of distinct query texts, not
    /// millions of rows); stamps are unique, so the oldest is one entry.
    fn insert(&mut self, key: PlanKey<StenoOptions>, compiled: Arc<CompiledQuery>) {
        if let Some(cap) = self.capacity {
            while self.entries.len() >= cap && !self.entries.contains_key(&key) {
                let Some(oldest) = self.entries.values().map(|e| e.last_used).min() else {
                    break;
                };
                self.entries.retain(|_, e| e.last_used != oldest);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(
            key,
            CacheEntry {
                compiled,
                last_used: tick,
            },
        );
    }
}

/// A cache of compiled queries, keyed by the query's structure and the
/// [`StenoOptions`] it compiled under (a [`PlanKey`]) — "the query
/// object may be cached between invocations" (§3.3; the paper points at
/// Nectar \[18\] for a full design). A hit hashes and compares the AST
/// in place and clones nothing; a miss clones the query into its key.
/// Optionally bounded ([`QueryCache::with_capacity`]) with
/// least-recently-used eviction, so a multi-tenant plan cache cannot
/// grow without limit under a churn of distinct query texts.
#[derive(Default)]
pub struct QueryCache {
    inner: Mutex<CacheInner>,
}

/// Locks a mutex, recovering from poisoning: cache state is always
/// internally consistent (plain inserts and counter bumps), so a panic
/// elsewhere must not wedge the cache.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl QueryCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Creates an empty cache holding at most `capacity` plans
    /// (clamped to at least 1); inserting past the cap evicts the
    /// least-recently-used plan and bumps [`CacheStats::evictions`].
    pub fn with_capacity(capacity: usize) -> QueryCache {
        let cache = QueryCache::new();
        lock(&cache.inner).capacity = Some(capacity.max(1));
        cache
    }

    /// The capacity cap, `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        lock(&self.inner).capacity
    }

    /// Returns the compiled form of `q` under `opts`, compiling at most
    /// once per distinct (options, query) pair, and whether the lookup
    /// hit (`true`) or compiled fresh (`false`). `sources` (a
    /// [`SourceTypes`], or the `&DataContext` to derive it from) is
    /// converted only on a miss: only compilation reads it.
    ///
    /// The cache is the one place plans are admitted: a miss runs
    /// compile → `admit` → insert, so a plan `admit` rejects is never
    /// inserted or returned, and the next lookup of the same key
    /// misses, recompiles and is checked again. Hits return plans that
    /// were admitted when they were inserted.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors and `admit`'s rejection; neither
    /// is cached.
    pub fn get_or_compile<E: From<OptimizeError>>(
        &self,
        q: &QueryExpr,
        sources: impl Into<SourceTypes>,
        udfs: &UdfRegistry,
        opts: StenoOptions,
        admit: impl FnOnce(&CompiledQuery) -> Result<(), E>,
    ) -> Result<(Arc<CompiledQuery>, bool), E> {
        if let Some(hit) = lock(&self.inner).get(q, opts) {
            return Ok((hit, true));
        }
        let compiled = CompiledQuery::compile_with(q, sources.into(), udfs, opts)?;
        admit(&compiled)?;
        let compiled = Arc::new(compiled);
        lock(&self.inner).insert(PlanKey::new(opts, q), Arc::clone(&compiled));
        Ok((compiled, false))
    }

    /// The full counter set: hits, misses, evictions, occupancy, cap.
    pub fn detailed_stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.entries.len(),
            capacity: inner.capacity,
        }
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::Expr;
    use steno_query::Query;

    fn ctx() -> DataContext {
        DataContext::new()
            .with_source("xs", vec![1.0, 2.0, 3.0, 4.0])
            .with_source("ns", vec![1i64, 2, 3, 4, 5, 6])
    }

    fn run(q: &QueryExpr) -> Value {
        let c = ctx();
        let udfs = UdfRegistry::new();
        let compiled = CompiledQuery::compile(q, (&c).into(), &udfs).unwrap();
        compiled.run(&c, &udfs).unwrap()
    }

    /// A blind compile under explicit options.
    fn compile_opts(
        q: &QueryExpr,
        c: &DataContext,
        udfs: &UdfRegistry,
        opts: StenoOptions,
    ) -> CompiledQuery {
        CompiledQuery::compile_with(q, c.into(), udfs, opts).unwrap()
    }

    /// A cache lookup over `ctx()` with no UDFs.
    fn lookup(cache: &QueryCache, q: &QueryExpr, opts: StenoOptions) -> Arc<CompiledQuery> {
        let c = ctx();
        let udfs = UdfRegistry::new();
        cache
            .get_or_compile(q, &c, &udfs, opts, |_| Ok::<_, OptimizeError>(()))
            .unwrap()
            .0
    }

    /// `(hits, misses)` of a cache.
    fn hits_misses(cache: &QueryCache) -> (u64, u64) {
        let stats = cache.detailed_stats();
        (stats.hits, stats.misses)
    }

    /// A profiled run with an inert interrupt and no tracer.
    fn profiled(
        compiled: &CompiledQuery,
        c: &DataContext,
        udfs: &UdfRegistry,
    ) -> (Value, crate::profile::QueryProfile) {
        let tracer = steno_obs::Tracer::disabled();
        compiled
            .run_traced(c, udfs, &Interrupt::none(), &tracer, None)
            .unwrap()
    }

    #[test]
    fn sum_of_squares_runs() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        assert_eq!(run(&q), Value::F64(30.0));
    }

    #[test]
    fn even_squares_runs() {
        let q = Query::source("ns")
            .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .build();
        assert_eq!(
            run(&q),
            Value::seq(vec![Value::I64(4), Value::I64(16), Value::I64(36)])
        );
    }

    #[test]
    fn cache_compiles_once() {
        let cache = QueryCache::new();
        let q = Query::source("xs").sum().build();
        let a = lookup(&cache, &q, StenoOptions::default());
        let b = lookup(&cache, &q, StenoOptions::default());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(hits_misses(&cache), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn rejected_plans_are_never_cached() {
        // The admission check runs between compile and insert: a plan it
        // rejects is neither returned nor inserted, so the next lookup
        // misses and is checked again.
        let cache = QueryCache::new();
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let mut checked = 0;
        for round in 1..=2 {
            let got = cache.get_or_compile(&q, &c, &udfs, StenoOptions::default(), |_| {
                checked += 1;
                Err(OptimizeError::Gen("rejected".into()))
            });
            assert!(matches!(got, Err(OptimizeError::Gen(_))));
            assert_eq!(checked, round);
            assert_eq!(cache.len(), 0);
            assert_eq!(hits_misses(&cache), (0, round as u64));
        }
        // An accepting check admits the plan; the next lookup hits it
        // without checking again.
        let admitted = lookup(&cache, &q, StenoOptions::default());
        let hit = cache
            .get_or_compile(&q, &c, &udfs, StenoOptions::default(), |_| {
                Err(OptimizeError::Gen("a hit is never re-checked".into()))
            })
            .unwrap();
        assert!(hit.1 && Arc::ptr_eq(&admitted, &hit.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unsupported_queries_report_lower_errors() {
        let q = Query::source("xs").concat(Query::source("xs")).build();
        let c = ctx();
        let err = CompiledQuery::compile(&q, (&c).into(), &UdfRegistry::new());
        assert!(matches!(err, Err(OptimizeError::Lower(_))));
    }

    #[test]
    fn compiled_query_exposes_artifacts() {
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &UdfRegistry::new()).unwrap();
        assert!(compiled.rust_source().contains("agg_0"));
        assert_eq!(compiled.quil(), "Src Agg[Sum] Ret");
        assert!(compiled.instr_count() > 0);
        assert_eq!(compiled.result_ty(), &Ty::F64);
    }

    #[test]
    fn loop_plans_record_vectorized_tier() {
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &UdfRegistry::new()).unwrap();
        assert_eq!(compiled.vectorized_loops(), 1);
        let plans = compiled.loop_plans();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].tier, crate::instr::LoopTier::Vectorized);
        assert_eq!(plans[0].vectorize_fallback, None);
    }

    #[test]
    fn loop_plans_record_fallback_reason_when_refused() {
        // A UDF call is not batch-eligible, so the vectorizer must
        // refuse and the plan must carry its exact reason string, which
        // also appears in batch_fallbacks.
        let mut udfs = UdfRegistry::new();
        udfs.register("twice", vec![Ty::F64], Ty::F64, |args: &[Value]| {
            Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
        });
        let q = Query::source("xs")
            .select(Expr::call("twice", vec![Expr::var("x")]), "x")
            .sum()
            .build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &udfs).unwrap();
        assert_eq!(compiled.vectorized_loops(), 0);
        let plans = compiled.loop_plans();
        assert_eq!(plans.len(), 1);
        assert_ne!(plans[0].tier, crate::instr::LoopTier::Vectorized);
        let reason = plans[0].vectorize_fallback.clone().unwrap();
        assert_eq!(compiled.batch_fallbacks(), std::slice::from_ref(&reason));
        assert!(!reason.to_string().is_empty());
    }

    #[test]
    fn nonzero_divisor_proof_unlocks_conditional_division() {
        // `if x % 2 == 0 { x / 2 } else { 3x + 1 }`: the division sits
        // under a conditional, which used to refuse the whole loop
        // ("trapping op under a conditional branch"). Range analysis
        // proves the divisor 2 excludes zero, so the division is no
        // longer counted as trapping, the loop vectorizes, and the
        // per-lane zero-divisor guard is dropped.
        let x = || Expr::var("x");
        let collatz = Expr::if_(
            (x() % Expr::liti(2)).eq(Expr::liti(0)),
            x() / Expr::liti(2),
            Expr::liti(3) * x() + Expr::liti(1),
        );
        let q = Query::source("ns")
            .select(collatz, "x")
            .sum_by(Expr::var("y"), "y")
            .build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &UdfRegistry::new()).unwrap();
        assert_eq!(compiled.vectorized_loops(), 1, "{:?}", compiled.batch_fallbacks());
        assert!(compiled.guards_dropped() >= 1);
        // ns = [1..6]: collatz steps 4, 1, 10, 2, 16, 3 → 36.
        assert_eq!(compiled.run(&c, &UdfRegistry::new()).unwrap(), Value::I64(36));
    }

    #[test]
    fn unprovable_divisor_keeps_the_guard_and_the_refusal() {
        // Dividing by the element itself cannot be proven non-zero, so
        // the conditional-branch refusal still applies.
        let x = || Expr::var("x");
        let q = Query::source("ns")
            .select(
                Expr::if_(
                    x().gt(Expr::liti(0)),
                    Expr::liti(100) / x(),
                    Expr::liti(0),
                ),
                "x",
            )
            .sum_by(Expr::var("y"), "y")
            .build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &UdfRegistry::new()).unwrap();
        assert_eq!(compiled.vectorized_loops(), 0);
        assert_eq!(compiled.guards_dropped(), 0);
        assert_eq!(
            compiled.batch_fallbacks(),
            [crate::instr::FallbackReason::TrapUnderConditional]
        );
    }

    #[test]
    fn loop_plans_skip_fallbacks_when_tier_disabled() {
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let opts = StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..StenoOptions::default()
        };
        let compiled = compile_opts(&q, &c, &UdfRegistry::new(), opts);
        assert_eq!(compiled.vectorized_loops(), 0);
        assert!(compiled.batch_fallbacks().is_empty());
        for plan in compiled.loop_plans() {
            assert_ne!(plan.tier, crate::instr::LoopTier::Vectorized);
            assert_eq!(plan.vectorize_fallback, None);
        }
    }

    #[test]
    fn tuned_cache_keys_on_options() {
        let cache = QueryCache::new();
        let q = Query::source("xs").sum().build();
        let auto = StenoOptions::default();
        let off = StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..StenoOptions::default()
        };
        // Distinct options must not collide.
        let a = lookup(&cache, &q, auto);
        let b = lookup(&cache, &q, off);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.engine(), EngineKind::Vectorized);
        assert_eq!(b.engine(), EngineKind::Scalar);
        assert_eq!(cache.len(), 2);
        assert_eq!(hits_misses(&cache), (0, 2));
        // Identical options must hit.
        let a2 = lookup(&cache, &q, auto);
        assert!(Arc::ptr_eq(&a, &a2));
        let b2 = lookup(&cache, &q, off);
        assert!(Arc::ptr_eq(&b, &b2));
        // Counters must agree: every miss is a cached entry, every
        // lookup is either a hit or a miss.
        let (hits, misses) = hits_misses(&cache);
        assert_eq!((hits, misses), (2, 2));
        assert_eq!(misses as usize, cache.len());
    }

    #[test]
    fn every_option_field_is_part_of_the_key() {
        let cache = QueryCache::new();
        let q = Query::source("xs").sum().build();
        let base = StenoOptions::default();
        let variants = [
            base,
            StenoOptions {
                rewrites: false,
                ..base
            },
            StenoOptions {
                lower: LowerOptions {
                    specialize_group_aggregate: false,
                },
                ..base
            },
        ];
        for opts in variants {
            lookup(&cache, &q, opts);
        }
        assert_eq!((cache.len(), hits_misses(&cache)), (3, (0, 3)));
        for opts in variants {
            lookup(&cache, &q, opts);
        }
        assert_eq!(hits_misses(&cache), (3, 3));
    }

    /// `xs.select(|x| x * c)` over `ctx()`.
    fn scaled(c: f64) -> QueryExpr {
        Query::source("xs")
            .select(Expr::var("x") * Expr::litf(c), "x")
            .build()
    }

    /// The first element of a sequence result.
    fn first(v: &Value) -> f64 {
        match v {
            Value::Seq(s) => s[0].as_f64().unwrap(),
            other => panic!("want a sequence, got {other:?}"),
        }
    }

    #[test]
    fn signed_zero_literals_get_separate_plans() {
        let cache = QueryCache::new();
        let (c, udfs) = (ctx(), UdfRegistry::new());
        let pos = lookup(&cache, &scaled(0.0), StenoOptions::default());
        let neg = lookup(&cache, &scaled(-0.0), StenoOptions::default());
        assert!(!Arc::ptr_eq(&pos, &neg));
        assert_eq!(hits_misses(&cache), (0, 2));
        let (p, n) = (pos.run(&c, &udfs).unwrap(), neg.run(&c, &udfs).unwrap());
        assert!(first(&p).is_sign_positive(), "1.0 * 0.0 is +0.0");
        assert!(first(&n).is_sign_negative(), "1.0 * -0.0 is -0.0");
        // Each hits its own entry afterwards.
        let again = lookup(&cache, &scaled(-0.0), StenoOptions::default());
        assert!(Arc::ptr_eq(&neg, &again));
        assert_eq!(hits_misses(&cache), (1, 2));
    }

    #[test]
    fn a_nan_literal_hits_its_own_entry() {
        let cache = QueryCache::new();
        let first_run = lookup(&cache, &scaled(f64::NAN), StenoOptions::default());
        let second = lookup(&cache, &scaled(f64::NAN), StenoOptions::default());
        assert!(Arc::ptr_eq(&first_run, &second));
        assert_eq!((cache.len(), hits_misses(&cache)), (1, (1, 1)));
        let v = second.run(&ctx(), &UdfRegistry::new()).unwrap();
        assert!(first(&v).is_nan());
    }

    /// A hasher that sends every key to the same bucket.
    #[derive(Default)]
    struct Collide;

    impl std::hash::Hasher for Collide {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn colliding_queries_never_share_a_plan() {
        let mut inner = CacheInner::<std::hash::BuildHasherDefault<Collide>>::default();
        let (c, udfs) = (ctx(), UdfRegistry::new());
        let opts = StenoOptions::default();
        let queries = [scaled(2.0), scaled(3.0), scaled(-0.0), scaled(0.0)];
        for q in &queries {
            assert!(inner.get(q, opts).is_none());
            let compiled = Arc::new(compile_opts(q, &c, &udfs, opts));
            inner.insert(PlanKey::new(opts, q), compiled);
        }
        assert_eq!(inner.entries.len(), 4);
        for (q, want) in queries.iter().zip([2.0f64, 3.0, -0.0, 0.0]) {
            let plan = inner.get(q, opts).unwrap();
            let got = first(&plan.run(&c, &udfs).unwrap());
            assert_eq!(got.to_bits(), want.to_bits(), "{q}");
        }
        assert_eq!((inner.hits, inner.misses), (4, 4));
    }

    #[test]
    fn scripted_lookups_count_hits_misses_and_evictions() {
        // Capacity 3 under LRU: the counts a printed-AST key gave for
        // the same script.
        let cache = QueryCache::with_capacity(3);
        let queries = [
            Query::source("xs").sum().build(),
            Query::source("xs").count().build(),
            Query::source("ns").sum().build(),
            scaled(2.0),
            scaled(-2.0),
        ];
        for i in [0, 1, 2, 0, 3, 1, 4, 0, 2, 2, 3, 0, 1, 4, 4] {
            lookup(&cache, &queries[i], StenoOptions::default());
        }
        let stats = cache.detailed_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.len),
            (4, 11, 8, 3)
        );
    }

    #[test]
    fn profiled_run_counts_batches_and_selection_density() {
        // Where keeps half the elements: density must land at 3/6.
        let q = Query::source("ns")
            .where_((Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &udfs).unwrap();
        assert_eq!(compiled.engine(), EngineKind::Vectorized);
        let (value, prof) = profiled(&compiled, &c, &udfs);
        assert_eq!(compiled.run(&c, &udfs).unwrap(), value);
        assert_eq!(prof.batch_loops, 1);
        assert_eq!(prof.batches, 1);
        assert_eq!(prof.batch_elements_in, 6);
        assert_eq!(prof.batch_elements_selected, 3);
        assert_eq!(prof.selection_density(), Some(0.5));
        assert_eq!(prof.out_elements, 3);
        assert!(prof.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn profiled_run_counts_scalar_work_and_udf_calls() {
        let mut udfs = UdfRegistry::new();
        udfs.register("twice", vec![Ty::F64], Ty::F64, |args: &[Value]| {
            Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
        });
        let q = Query::source("xs")
            .select(Expr::call("twice", vec![Expr::var("x")]), "x")
            .sum()
            .build();
        let c = ctx();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &udfs).unwrap();
        let (value, prof) = profiled(&compiled, &c, &udfs);
        assert_eq!(value, Value::F64(20.0));
        assert_eq!(prof.udf_calls, 4);
        assert_eq!(prof.src_reads, 4);
        assert!(prof.scalar_instrs > 0);
        assert_eq!(prof.batch_loops, 0);
    }

    #[test]
    fn lru_eviction_caps_the_cache_and_counts() {
        let cache = QueryCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let q1 = Query::source("xs").sum().build();
        let q2 = Query::source("xs").count().build();
        let q3 = Query::source("ns").sum().build();
        lookup(&cache, &q1, StenoOptions::default());
        lookup(&cache, &q2, StenoOptions::default());
        // Touch q1 so q2 is the least recently used.
        lookup(&cache, &q1, StenoOptions::default());
        lookup(&cache, &q3, StenoOptions::default());
        let stats = cache.detailed_stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));
        // q1 survived (recently used); q2 was evicted and recompiles.
        let (hits_before, misses_before) = hits_misses(&cache);
        lookup(&cache, &q1, StenoOptions::default());
        lookup(&cache, &q2, StenoOptions::default());
        let (hits, misses) = hits_misses(&cache);
        assert_eq!(hits, hits_before + 1, "q1 must still be cached");
        assert_eq!(misses, misses_before + 1, "q2 must have been evicted");
        assert_eq!(cache.detailed_stats().evictions, 2);
    }

    #[test]
    fn reinserting_a_cached_key_does_not_evict() {
        // Hitting an existing key at capacity must not push anything out.
        let cache = QueryCache::with_capacity(1);
        let q = Query::source("xs").sum().build();
        for _ in 0..5 {
            lookup(&cache, &q, StenoOptions::default());
        }
        let stats = cache.detailed_stats();
        assert_eq!((stats.len, stats.evictions), (1, 0));
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn cache_lock_recovers_from_panicking_holder() {
        // A thread panicking while holding the cache's internal lock
        // must not wedge it: the poison-recovering `lock` helper hands
        // the guard to the next caller and the cache state stays
        // intact (the satellite contract for the VM cache lock).
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let cache = std::sync::Arc::new(QueryCache::new());
        let q = Query::source("xs").sum().build();
        lookup(&cache, &q, StenoOptions::default());

        let poisoner = std::sync::Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _guard = lock(&poisoner.inner);
                panic!("poison the cache lock");
            }));
        });
        handle.join().ok();

        // The cache still serves hits and accepts inserts.
        let before = cache.detailed_stats();
        assert_eq!(before.len, 1);
        lookup(&cache, &q, StenoOptions::default());
        let q2 = Query::source("ns").sum().build();
        lookup(&cache, &q2, StenoOptions::default());
        let after = cache.detailed_stats();
        assert_eq!(after.len, 2);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn run_with_honors_deadline_and_cancellation() {
        use crate::interrupt::{CancelProbe, Interrupt};

        // A large enough input that execution spans many batches.
        let big: Vec<i64> = (1..200_000).collect();
        let c = DataContext::new().with_source("ns", big);
        let udfs = UdfRegistry::new();
        let q = Query::source("ns")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum_by(Expr::var("y"), "y")
            .build();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &udfs).unwrap();

        // Inert interrupt: identical result to plain run.
        let plain = compiled.run(&c, &udfs).unwrap();
        let inert = compiled.run_with(&c, &udfs, &Interrupt::none()).unwrap();
        assert_eq!(plain, inert);

        // Expired deadline: aborts instead of completing.
        let expired = Interrupt::none()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(
            compiled.run_with(&c, &udfs, &expired),
            Err(VmError::DeadlineExceeded)
        );

        // Pre-fired cancellation probe: aborts with Cancelled.
        let probe = std::sync::Arc::new(|| true) as CancelProbe;
        let cancelled = Interrupt::none().with_cancel_probe(probe);
        assert_eq!(
            compiled.run_with(&c, &udfs, &cancelled),
            Err(VmError::Cancelled)
        );
    }

    #[test]
    fn scalar_tier_polls_interrupts_at_back_edges() {
        use crate::interrupt::{CancelProbe, Interrupt};

        // A UDF call forces the scalar tier; cancellation must still
        // land via the dispatch loop's back-edge polling.
        let mut udfs = UdfRegistry::new();
        udfs.register("twice", vec![Ty::F64], Ty::F64, |args: &[Value]| {
            Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
        });
        let big: Vec<f64> = (0..50_000).map(f64::from).collect();
        let c = DataContext::new().with_source("xs", big);
        let q = Query::source("xs")
            .select(Expr::call("twice", vec![Expr::var("x")]), "x")
            .sum()
            .build();
        let compiled = CompiledQuery::compile(&q, (&c).into(), &udfs).unwrap();
        assert_eq!(compiled.engine(), EngineKind::Scalar);
        let probe = std::sync::Arc::new(|| true) as CancelProbe;
        let cancelled = Interrupt::none().with_cancel_probe(probe);
        assert_eq!(
            compiled.run_with(&c, &udfs, &cancelled),
            Err(VmError::Cancelled)
        );
    }

    #[test]
    fn unvectorized_f64_loops_take_the_interruptible_scalar_tier() {
        use crate::interrupt::{CancelProbe, Interrupt};
        use crate::instr::LoopTier;
        use std::sync::atomic::{AtomicU32, Ordering};

        // With the vectorizer off, a plain f64 loop runs on the scalar
        // tier, so a cancel that arrives after loop entry still lands at
        // a back-edge instead of being missed until the loop ends.
        let udfs = UdfRegistry::new();
        let big: Vec<f64> = (0..50_000).map(f64::from).collect();
        let c = DataContext::new().with_source("xs", big);
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let opts = StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..StenoOptions::default()
        };
        let compiled = compile_opts(&q, &c, &udfs, opts);
        assert!(!compiled.loop_plans().is_empty());
        for plan in compiled.loop_plans() {
            assert_eq!(plan.tier, LoopTier::Scalar, "{plan:?}");
        }
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let probe = Arc::new(move || seen.fetch_add(1, Ordering::Relaxed) > 0) as CancelProbe;
        let cancelled = Interrupt::none().with_cancel_probe(probe);
        assert_eq!(
            compiled.run_with(&c, &udfs, &cancelled),
            Err(VmError::Cancelled)
        );
        assert!(calls.load(Ordering::Relaxed) >= 2);
    }
}
