//! The public optimization entry point: compiled queries and the cache.
//!
//! `CompiledQuery::compile` runs the full Steno pipeline of §3 —
//! canonical chain extraction, QUIL lowering, specialization passes, the
//! pushdown-automaton code generator, and bytecode assembly — and records
//! how long it took. That duration is the reproduction's analogue of the
//! paper's one-off ~69 ms cost of invoking `csc` and loading the DLL
//! (§7.1), and it amortizes the same way: via the [`QueryCache`].

use std::collections::HashMap;
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

use steno_opt::{
    choose_tier, observe_selectivities, rewrite as rewrite_chain, DriftConfig, LoopStats,
    ObservedRun, PlanStats, RewriteEvent,
};

use crate::compile::assemble_hinted;
use crate::exec::{run_program, VmError};
use crate::instr::Program;
use crate::interrupt::Interrupt;
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
/// `Auto` (the default) vectorizes every eligible fused loop and falls
/// back to the scalar tiers otherwise; `Off` disables the tier entirely
/// (ablation baselines, debugging). Per-loop fallback reasons are
/// reported by [`CompiledQuery::batch_fallbacks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorizationPolicy {
    /// Vectorize when the operator chain and element types allow it.
    Auto,
    /// Never vectorize; use the scalar/fused tiers only.
    Off,
}

/// Which execution tier a compiled query's hot loops landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// All loops run element-at-a-time (scalar or fused-scalar).
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
/// benchmarks. The defaults are the full Steno configuration.
#[derive(Clone, Copy, Debug)]
pub struct StenoOptions {
    /// QUIL-level options (GroupByAggregate specialization, §4.3).
    pub lower: LowerOptions,
    /// Whether the VM's loop-fusion tier runs.
    pub fusion: bool,
    /// Whether the VM's batch-vectorization tier runs.
    pub vectorize: VectorizationPolicy,
    /// Whether the verified algebraic rewrite pass (`steno-opt`) runs
    /// on the lowered chain. The statically sound rules always apply;
    /// the feedback-directed rules (filter reordering, predicate
    /// pushdown) additionally need observed selectivities via
    /// [`CompileFeedback::sample_ctx`].
    pub rewrites: bool,
}

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

/// Run-time facts fed back into a (re)compilation — the input half of
/// the profile→plan loop. [`CompileFeedback::default`] (no facts)
/// reproduces a blind first compile.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileFeedback<'a> {
    /// Source data to sample per-predicate selectivities from, enabling
    /// the feedback-directed rewrite rules (filter reordering,
    /// predicate pushdown). Sampling reads at most a few hundred
    /// elements through the reference evaluator.
    pub sample_ctx: Option<&'a DataContext>,
    /// Observed per-loop element counts and selection density, driving
    /// the §7.1 cost-based tier choice.
    pub loop_stats: Option<LoopStats>,
}

/// Elements sampled per source when measuring predicate selectivities.
const SELECTIVITY_SAMPLE: usize = 512;

/// A Steno-optimized query, ready to run against any compatible context.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    program: Program,
    compile_time: Duration,
    chain: QuilChain,
    rewrites: Vec<RewriteEvent>,
    measured: Option<LoopStats>,
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
        Self::compile_with(q, sources, udfs, opts, CompileFeedback::default())
    }

    /// The fully-tunable, feedback-directed entry point: as
    /// [`CompiledQuery::compile`] under explicit [`StenoOptions`]
    /// (ablation benchmarks, degraded serving tiers), additionally
    /// consuming measured run facts. With a
    /// [`CompileFeedback::sample_ctx`] the rewrite pass measures
    /// per-predicate selectivities and may reorder or push down filters;
    /// with [`CompileFeedback::loop_stats`] the backend applies the §7.1
    /// break-even to pick loop tiers instead of the static order.
    /// [`CompileFeedback::default`] is a blind first compile.
    ///
    /// # Errors
    ///
    /// As [`CompiledQuery::compile`].
    pub fn compile_with(
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
        opts: StenoOptions,
        feedback: CompileFeedback<'_>,
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
        // reordering has to see individual filters, not the conjunction
        // the fuser folds them into (which then preserves the chosen
        // order inside its short-circuit `&&`).
        let (chain, rewrites) = if opts.rewrites {
            let sampled = feedback
                .sample_ctx
                .map(|ctx| observe_selectivities(&chain, ctx, udfs, SELECTIVITY_SAMPLE));
            let out = rewrite_chain(&chain, udfs, sampled.as_ref());
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
        Self::finish(chain, udfs, start, opts, rewrites, feedback.loop_stats)
    }

    /// Compiles a pre-lowered QUIL chain (used by the distributed planner,
    /// which optimizes per-vertex subchains separately, §6).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Gen`] for internal failures.
    pub fn from_chain(chain: &QuilChain, udfs: &UdfRegistry) -> Result<CompiledQuery, OptimizeError> {
        let opts = StenoOptions::default();
        Self::finish(chain.clone(), udfs, Instant::now(), opts, Vec::new(), None)
    }

    fn finish(
        chain: QuilChain,
        udfs: &UdfRegistry,
        start: Instant,
        opts: StenoOptions,
        rewrites: Vec<RewriteEvent>,
        loop_stats: Option<LoopStats>,
    ) -> Result<CompiledQuery, OptimizeError> {
        let imp = generate(&chain).map_err(|e| OptimizeError::Gen(e.to_string()))?;
        let tier_hint = loop_stats.map(|ls| choose_tier(&ls, crate::batch::BATCH));
        let vectorize = opts.vectorize == VectorizationPolicy::Auto;
        let program = assemble_hinted(&imp, udfs, opts.fusion, vectorize, tier_hint)
            .map_err(|e| OptimizeError::Gen(e.to_string()))?;
        Ok(CompiledQuery {
            program,
            compile_time: start.elapsed(),
            chain,
            rewrites,
            measured: loop_stats,
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

    /// The measured per-loop observations this plan was compiled
    /// against ([`CompileFeedback::loop_stats`]); `None` for a blind
    /// first compile. EXPLAIN surfaces this as the `measured:` line.
    pub fn measured_stats(&self) -> Option<LoopStats> {
        self.measured
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

    /// How many loops the fusion tier compiled to whole-loop kernels.
    pub fn fused_loops(&self) -> u32 {
        self.program.n_fused
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

/// One cached plan plus its LRU stamp and decayed run statistics (the
/// drift-detection state behind [`QueryCache::note_run`]).
struct CacheEntry {
    compiled: Arc<CompiledQuery>,
    last_used: u64,
    stats: PlanStats,
    reopt_events: Vec<String>,
    /// Total executions of this plan (every run, not just the profiled
    /// ones folded into `stats`) — the adaptive sampling cadence.
    execs: u64,
}

/// Map, LRU clock, and counters behind one lock, so a hit's
/// `last_used` bump and counter increment are atomic together.
#[derive(Default)]
struct CacheInner {
    entries: HashMap<String, CacheEntry>,
    tick: u64,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheInner {
    /// Looks `key` up, stamping the entry most-recently-used on a hit.
    fn get(&mut self, key: &str) -> Option<Arc<CompiledQuery>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&e.compiled))
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
    /// millions of rows).
    fn insert(&mut self, key: String, compiled: Arc<CompiledQuery>) {
        if let Some(cap) = self.capacity {
            while self.entries.len() >= cap && !self.entries.contains_key(&key) {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        self.entries.remove(&k);
                        self.evictions += 1;
                    }
                    None => break,
                }
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(
            key,
            CacheEntry {
                compiled,
                last_used: tick,
                stats: PlanStats::new(),
                reopt_events: Vec::new(),
                execs: 0,
            },
        );
    }
}

/// A cache of compiled queries, keyed by their printed AST — "the query
/// object may be cached between invocations" (§3.3; the paper points at
/// Nectar \[18\] for a full design). Optionally bounded
/// ([`QueryCache::with_capacity`]) with least-recently-used eviction,
/// so a multi-tenant plan cache cannot grow without limit under a churn
/// of distinct query texts.
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

/// The cache key of `q` compiled under `opts`: every lookup and every
/// per-plan statistic goes through this one key.
fn plan_key(q: &QueryExpr, opts: StenoOptions) -> String {
    format!("{opts:?}|{q}")
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
    /// once per distinct (options, query text) pair, and whether the
    /// lookup hit (`true`) or compiled fresh (`false`).
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
        sources: SourceTypes,
        udfs: &UdfRegistry,
        opts: StenoOptions,
        admit: impl FnOnce(&CompiledQuery) -> Result<(), E>,
    ) -> Result<(Arc<CompiledQuery>, bool), E> {
        let key = plan_key(q, opts);
        if let Some(hit) = lock(&self.inner).get(&key) {
            return Ok((hit, true));
        }
        let compiled =
            CompiledQuery::compile_with(q, sources, udfs, opts, CompileFeedback::default())?;
        admit(&compiled)?;
        let compiled = Arc::new(compiled);
        lock(&self.inner).insert(key, Arc::clone(&compiled));
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

    /// Folds one observed run into the cached plan's decayed statistics
    /// and checks for drift, returning a human-readable reason when the
    /// observed workload has departed the plan's assumptions far enough
    /// (and for long enough — see [`DriftConfig`]'s hysteresis gates)
    /// to justify re-optimizing. The caller recompiles with
    /// [`CompiledQuery::compile_with`] and installs the
    /// result via [`QueryCache::install_reoptimized`]; this method
    /// never blocks on compilation itself. Returns `None` for uncached
    /// queries and plans that still fit.
    pub fn note_run(
        &self,
        q: &QueryExpr,
        opts: StenoOptions,
        run: ObservedRun,
        cfg: &DriftConfig,
    ) -> Option<String> {
        let key = plan_key(q, opts);
        let mut inner = lock(&self.inner);
        let entry = inner.entries.get_mut(&key)?;
        entry.stats.observe(run, cfg);
        let compile_ns = entry.compiled.compile_time().as_nanos() as f64;
        entry.stats.drift(cfg, compile_ns)
    }

    /// Replaces the cached plan for `q` with a re-optimized compilation,
    /// rebasing the drift assumptions onto current observations (the
    /// hysteresis that stops the same drift re-triggering) and recording
    /// `reason` for `EXPLAIN`'s `reopt:` lines. A no-op when `q` is not
    /// cached (e.g. evicted between drift detection and recompilation).
    pub fn install_reoptimized(
        &self,
        q: &QueryExpr,
        opts: StenoOptions,
        compiled: Arc<CompiledQuery>,
        reason: &str,
    ) {
        let key = plan_key(q, opts);
        let mut inner = lock(&self.inner);
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.compiled = compiled;
            entry.stats.rebase();
            entry.reopt_events.push(reason.to_string());
        }
    }

    /// The re-optimization events recorded for `q`, oldest first; empty
    /// when the plan never drifted (or is not cached).
    pub fn reopt_events(&self, q: &QueryExpr, opts: StenoOptions) -> Vec<String> {
        let key = plan_key(q, opts);
        lock(&self.inner)
            .entries
            .get(&key)
            .map(|e| e.reopt_events.clone())
            .unwrap_or_default()
    }

    /// How many observed runs have been folded into `q`'s cached plan
    /// statistics ([`QueryCache::note_run`] calls).
    pub fn plan_runs(&self, q: &QueryExpr, opts: StenoOptions) -> u64 {
        let key = plan_key(q, opts);
        lock(&self.inner)
            .entries
            .get(&key)
            .map(|e| e.stats.runs)
            .unwrap_or(0)
    }

    /// Counts one execution of `q`'s cached plan, returning the
    /// 0-based index of this execution (0 for uncached queries). The
    /// adaptive engine uses this as its sampling clock: *every* run
    /// ticks it, profiled or not, unlike [`QueryCache::note_run`] which
    /// only the profiled runs reach.
    pub fn begin_run(&self, q: &QueryExpr, opts: StenoOptions) -> u64 {
        let key = plan_key(q, opts);
        let mut inner = lock(&self.inner);
        match inner.entries.get_mut(&key) {
            Some(e) => {
                let n = e.execs;
                e.execs += 1;
                n
            }
            None => 0,
        }
    }

    /// The decayed per-loop observations for `q`'s cached plan, in the
    /// shape [`CompiledQuery::compile_with`] consumes; `None`
    /// before the first observed run (or for uncached queries).
    pub fn plan_loop_stats(&self, q: &QueryExpr, opts: StenoOptions) -> Option<LoopStats> {
        let key = plan_key(q, opts);
        let inner = lock(&self.inner);
        let entry = inner.entries.get(&key)?;
        if entry.stats.runs == 0 {
            return None;
        }
        Some(LoopStats {
            elements: entry.stats.ewma_elements,
            density: entry.stats.ewma_density,
            ns_per_elem: entry.stats.ewma_ns_per_elem,
        })
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
        CompiledQuery::compile_with(q, c.into(), udfs, opts, CompileFeedback::default()).unwrap()
    }

    /// A cache lookup over `ctx()` with no UDFs.
    fn lookup(cache: &QueryCache, q: &QueryExpr, opts: StenoOptions) -> Arc<CompiledQuery> {
        let c = ctx();
        let udfs = UdfRegistry::new();
        cache
            .get_or_compile(q, (&c).into(), &udfs, opts, |_| Ok::<_, OptimizeError>(()))
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
            let got = cache.get_or_compile(&q, (&c).into(), &udfs, StenoOptions::default(), |_| {
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
            .get_or_compile(&q, (&c).into(), &udfs, StenoOptions::default(), |_| {
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
    fn drift_lifecycle_is_deterministic_and_does_not_flap() {
        // The full re-optimization state machine, driven with synthetic
        // observations so every gate (min_runs, break-even, hysteresis,
        // cooldown) fires deterministically: no wall clocks involved.
        let c = ctx();
        let udfs = UdfRegistry::new();
        let cache = QueryCache::new();
        let opts = StenoOptions::default();
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(0.0)), "x")
            .sum()
            .build();

        // Uncached queries report run index 0 and no stats.
        assert_eq!(cache.begin_run(&q, opts), 0);
        assert_eq!(cache.plan_runs(&q, opts), 0);
        assert!(cache.plan_loop_stats(&q, opts).is_none());

        let compiled = lookup(&cache, &q, opts);
        // The exec clock ticks on every begin_run, independent of
        // profiled-run bookkeeping.
        assert_eq!(cache.begin_run(&q, opts), 0);
        assert_eq!(cache.begin_run(&q, opts), 1);
        assert_eq!(cache.plan_runs(&q, opts), 0);

        let cfg = DriftConfig::default();
        // exec_ns is synthetic and enormous so the break-even gate
        // (total execution must exceed compile cost) passes on run one.
        let steady = ObservedRun {
            elements: 1_000.0,
            density: Some(0.9),
            exec_ns: 1e12,
            loop_ns: 0.0,
        };
        // Warmup: below min_runs nothing can trigger; at and beyond it,
        // a steady workload must not either.
        for i in 0..cfg.min_runs + 2 {
            assert_eq!(cache.note_run(&q, opts, steady, &cfg), None, "run {i}");
        }
        assert_eq!(cache.plan_runs(&q, opts), cfg.min_runs + 2);
        let ls = cache.plan_loop_stats(&q, opts).unwrap();
        assert!((ls.elements - 1_000.0).abs() < 1e-6);
        assert_eq!(ls.density, Some(0.9));

        // Selectivity collapses: the decayed density must depart the
        // plan's assumed density by more than the hysteresis band.
        let shifted = ObservedRun {
            density: Some(0.05),
            ..steady
        };
        let mut reason = None;
        for _ in 0..4 {
            if let Some(r) = cache.note_run(&q, opts, shifted, &cfg) {
                reason = Some(r);
                break;
            }
        }
        let reason = reason.expect("density collapse must trigger drift");
        assert!(reason.contains("selectivity drift"), "got: {reason}");

        // Install the re-optimized plan: entry swaps, event recorded,
        // and rebasing resets the drift baseline.
        let recompiled = Arc::new(compile_opts(&q, &c, &udfs, opts));
        cache.install_reoptimized(&q, opts, Arc::clone(&recompiled), &reason);
        let current = lookup(&cache, &q, opts);
        assert!(Arc::ptr_eq(&current, &recompiled));
        assert!(!Arc::ptr_eq(&current, &compiled));
        let events = cache.reopt_events(&q, opts);
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("selectivity drift"));

        // Hysteresis: the same shifted workload, continued well past the
        // cooldown window, must never re-trigger — the baseline now IS
        // the shifted workload. This is the no-flapping guarantee.
        for i in 0..cfg.cooldown_runs + cfg.min_runs + 8 {
            assert_eq!(
                cache.note_run(&q, opts, shifted, &cfg),
                None,
                "flap at post-reopt run {i}"
            );
        }
        assert_eq!(cache.reopt_events(&q, opts).len(), 1);
    }

    #[test]
    fn feedback_tier_choice_prefers_scalar_below_break_even() {
        // With observed element counts far below the batch break-even,
        // the cost model must veto the batch tier and stamp the loop
        // with its rationale; results stay identical to the default.
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::litf(2.0), "x")
            .sum()
            .build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let opts = StenoOptions::default();
        let baseline = compile_opts(&q, &c, &udfs, opts);
        assert_eq!(baseline.engine(), EngineKind::Vectorized);

        let fb = CompileFeedback {
            sample_ctx: None,
            loop_stats: Some(steno_opt::LoopStats {
                elements: 10.0,
                density: None,
                ns_per_elem: None,
            }),
        };
        let tuned = CompiledQuery::compile_with(&q, (&c).into(), &udfs, opts, fb).unwrap();
        let plans = tuned.loop_plans();
        assert!(!plans.is_empty());
        let why = plans[0].chosen_by.as_deref().expect("rationale recorded");
        assert!(why.contains("break-even"), "got: {why}");
        assert_ne!(plans[0].tier, crate::instr::LoopTier::Vectorized);
        assert_eq!(
            tuned.run(&c, &udfs).unwrap(),
            baseline.run(&c, &udfs).unwrap()
        );

        // Counts comfortably above break-even keep the batch tier and
        // still record why.
        let fb = CompileFeedback {
            sample_ctx: None,
            loop_stats: Some(steno_opt::LoopStats {
                elements: 1e6,
                density: Some(0.5),
                ns_per_elem: None,
            }),
        };
        let tuned = CompiledQuery::compile_with(&q, (&c).into(), &udfs, opts, fb).unwrap();
        let plans = tuned.loop_plans();
        assert_eq!(plans[0].tier, crate::instr::LoopTier::Vectorized);
        let why = plans[0].chosen_by.as_deref().expect("rationale recorded");
        assert!(why.contains("break-even"), "got: {why}");
    }

    #[test]
    fn feedback_sampling_records_rewrites_and_preserves_results() {
        // A selective filter sitting after a cheap one: with a sample
        // context the rewrite pass measures selectivities and reorders,
        // logging the rewrite; the result is bit-identical either way.
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let c = DataContext::new().with_source("xs", xs);
        let udfs = UdfRegistry::new();
        let opts = StenoOptions::default();
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(-1.0)), "x") // keeps all
            .where_(Expr::var("x").lt(Expr::litf(5.0)), "x") // keeps 5%
            .sum()
            .build();
        let baseline = compile_opts(&q, &c, &udfs, opts);
        let fb = CompileFeedback {
            sample_ctx: Some(&c),
            loop_stats: None,
        };
        let tuned = CompiledQuery::compile_with(&q, (&c).into(), &udfs, opts, fb).unwrap();
        let applied: Vec<_> = tuned
            .rewrite_log()
            .iter()
            .filter(|ev| ev.applied && ev.rule == "reorder-filters")
            .collect();
        assert!(
            !applied.is_empty(),
            "expected a reorder-filters rewrite, log: {:?}",
            tuned.rewrite_log()
        );
        assert_eq!(
            tuned.run(&c, &udfs).unwrap(),
            baseline.run(&c, &udfs).unwrap()
        );

        // Disabling rewrites suppresses the pass entirely.
        let no_rw = StenoOptions {
            rewrites: false,
            ..opts
        };
        let fb = CompileFeedback {
            sample_ctx: Some(&c),
            loop_stats: None,
        };
        let plain = CompiledQuery::compile_with(&q, (&c).into(), &udfs, no_rw, fb).unwrap();
        assert!(plain.rewrite_log().is_empty());
        assert_eq!(
            plain.run(&c, &udfs).unwrap(),
            baseline.run(&c, &udfs).unwrap()
        );
    }
}
