//! The high-level engine: `WithSteno()` as an API.
//!
//! The paper applies Steno by marking a query with the `WithSteno()`
//! extension method (§3). The [`Steno`] engine is that entry point here:
//! it runs the full optimization pipeline, caches compiled queries
//! (§3.3), and — like the real system, which "can only optimize the
//! standard LINQ queries" — transparently falls back to the unoptimized
//! iterator-based executor for shapes it does not handle.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use steno_cluster::exec::{DistError, RuntimeConfig};
use steno_cluster::{ClusterSpec, DistributedCollection, JobReport, VertexEngine};
use steno_expr::{DataContext, EvalError, UdfRegistry, Value};
use steno_linq::interp;
use steno_obs::{Collector, FlightRecorder, NoopCollector, SpanId, Tracer};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_syntax::ParseError;
use steno_opt::{DriftConfig, ObservedRun};
use steno_vm::query::{CompileFeedback, OptimizeError};
use steno_vm::{
    CompiledQuery, Interrupt, QueryCache, QueryProfile, StenoOptions, VectorizationPolicy, VmError,
};

use crate::explain::{Explain, ExplainPlan};

/// Which executor ran a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionPath {
    /// The Steno pipeline: QUIL → generated loops → bytecode.
    Optimized,
    /// The unoptimized boxed-iterator interpreter (fallback).
    Fallback,
}

/// An error from the engine.
#[derive(Debug)]
pub enum StenoError {
    /// Query text failed to parse.
    Parse(ParseError),
    /// Both the optimizer and the fallback rejected the query.
    Eval(EvalError),
    /// The compiled query failed at run time.
    Vm(VmError),
    /// Optimization failed for a reason other than an unsupported shape.
    Optimize(OptimizeError),
    /// A distributed execution failed (vertex failure, exhausted retry
    /// budget, caught vertex panic, bad root source).
    Dist(DistError),
    /// The independent plan verifier rejected the optimized QUIL chain
    /// — an optimizer bug was caught before it could produce a wrong
    /// answer (only when verification is enabled, see
    /// [`Steno::with_verify`]).
    Verify(steno_analysis::VerifyError),
    /// The tape verifier rejected a compiled bytecode program — a
    /// backend (register-allocation, fusion, peephole, packing) bug was
    /// caught before the tape could run (only when verification is
    /// enabled, see [`Steno::with_verify`]; re-optimizations are always
    /// checked).
    TapeCheck(steno_vm::CheckError),
}

impl From<DistError> for StenoError {
    fn from(e: DistError) -> StenoError {
        StenoError::Dist(e)
    }
}

impl From<OptimizeError> for StenoError {
    fn from(e: OptimizeError) -> StenoError {
        StenoError::Optimize(e)
    }
}

impl fmt::Display for StenoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StenoError::Parse(e) => write!(f, "{e}"),
            StenoError::Eval(e) => write!(f, "{e}"),
            StenoError::Vm(e) => write!(f, "{e}"),
            StenoError::Optimize(e) => write!(f, "{e}"),
            StenoError::Dist(e) => write!(f, "{e}"),
            StenoError::Verify(e) => write!(f, "plan verification failed: {e}"),
            StenoError::TapeCheck(e) => write!(f, "tape verification failed: {e}"),
        }
    }
}

impl std::error::Error for StenoError {}

impl StenoError {
    /// `true` when optimization failed only because the query's shape is
    /// outside what Steno optimizes — the iterator fallback runs it.
    pub fn is_unsupported(&self) -> bool {
        matches!(
            self,
            StenoError::Optimize(OptimizeError::Lower(steno_quil::LowerError::Unsupported(_)))
        )
    }
}

/// The query optimizer and executor.
///
/// Owns a [`QueryCache`], so repeated executions of the same query pay
/// the one-off optimization cost once (§7.1: "the compiled query object
/// can then be cached by the application").
pub struct Steno {
    cache: QueryCache,
    runtime: RuntimeConfig,
    options: StenoOptions,
    collector: Arc<dyn Collector>,
    recorder: Option<Arc<FlightRecorder>>,
    verify: bool,
    adaptive: bool,
    drift: DriftConfig,
}

impl Default for Steno {
    fn default() -> Steno {
        Steno {
            cache: QueryCache::new(),
            runtime: RuntimeConfig::default(),
            options: StenoOptions::default(),
            collector: Arc::new(NoopCollector),
            recorder: None,
            // Debug builds (and CI, which sets the flag explicitly)
            // cross-check every optimized plan; release builds skip the
            // re-typecheck by default.
            verify: cfg!(debug_assertions),
            adaptive: false,
            drift: DriftConfig::default(),
        }
    }
}

static INERT: Interrupt = Interrupt::none();
static UNTRACED: Tracer = Tracer::disabled();

/// The per-call context of [`Steno::execute_with`],
/// [`Steno::run_compiled`] and [`Steno::compile_with`]. The default is
/// the plain path of [`Steno::execute`]: no deadline, no tracing, the
/// engine's options, no profile, re-optimization allowed.
///
/// A run is profiled iff `profile` is set, the tracer is enabled, or an
/// adaptive sample is due (the first `ADAPTIVE_WARMUP` runs of a plan
/// and every `ADAPTIVE_PERIOD`-th run after). A profiled run feeds the
/// cached plan's statistics iff the engine is adaptive and `reopt` is
/// set.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    /// Deadline/cancellation, polled by the VM at loop back-edges and
    /// batch boundaries and by the iterator fallback per stride of
    /// elements.
    pub interrupt: &'a Interrupt,
    /// Receives the engine's spans; a live tracer forces a profiled run,
    /// since the `vm.loop` spans are the measurement.
    pub tracer: &'a Tracer,
    /// The span the engine's spans hang under.
    pub parent: Option<SpanId>,
    /// Compile options overriding the engine's for this call.
    pub options: Option<StenoOptions>,
    /// Run the profiled interpreter and return its [`QueryProfile`].
    pub profile: bool,
    /// Whether a profiled run may feed an adaptive engine's plan
    /// statistics and trigger drift re-optimization.
    pub reopt: bool,
}

impl Default for Exec<'_> {
    fn default() -> Self {
        Exec {
            interrupt: &INERT,
            tracer: &UNTRACED,
            parent: None,
            options: None,
            profile: false,
            reopt: true,
        }
    }
}

/// Adaptive sampling cadence: the first `ADAPTIVE_WARMUP` executions of
/// a plan run the profiled interpreter (establishing the plan's
/// assumptions quickly), then every `ADAPTIVE_PERIOD`-th run keeps the
/// decayed statistics fresh without paying profiling overhead on the
/// steady state.
const ADAPTIVE_WARMUP: u64 = 16;
const ADAPTIVE_PERIOD: u64 = 16;

impl Steno {
    /// Creates an engine with an empty query cache and the default
    /// fault-tolerance runtime (retries and straggler speculation on, no
    /// injected faults).
    pub fn new() -> Steno {
        Steno::default()
    }

    /// Attaches a metrics [`Collector`]: every execution reports cache
    /// hit/miss counters, optimized/fallback path counters, and
    /// compile/execution latency histograms, and
    /// [`Steno::execute_distributed`] folds the [`JobReport`] in too.
    /// The default is [`NoopCollector`], which costs nothing.
    #[must_use = "with_collector returns the configured engine"]
    pub fn with_collector(mut self, collector: Arc<dyn Collector>) -> Steno {
        self.collector = collector;
        self
    }

    /// The engine's metrics collector.
    pub fn collector(&self) -> &Arc<dyn Collector> {
        &self.collector
    }

    /// Attaches a [`FlightRecorder`]: serving layers (see `steno-serve`)
    /// open a per-query [`Tracer`] through it, thread span recording
    /// through compile/verify/execution, and dump full annotated traces
    /// when a query trips an anomaly. The engine itself stays passive —
    /// without a recorder (the default) every traced entry point runs
    /// with a disabled tracer and records nothing.
    #[must_use = "with_flight_recorder returns the configured engine"]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Steno {
        self.recorder = Some(recorder);
        self
    }

    /// The engine's flight recorder, when one is attached.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Sets the fault-tolerance runtime (retry policy, straggler
    /// speculation, fault injection) used by
    /// [`Steno::execute_distributed`].
    #[must_use = "with_runtime returns the configured engine"]
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Steno {
        self.runtime = runtime;
        self
    }

    /// The engine's fault-tolerance runtime configuration.
    pub fn runtime(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// Sets the vectorization policy for every query this engine
    /// compiles. [`VectorizationPolicy::Auto`] (the default) batch-
    /// compiles eligible loops; [`VectorizationPolicy::Off`] pins the
    /// scalar tiers (ablation baselines, debugging).
    #[must_use = "with_vectorization returns the configured engine"]
    pub fn with_vectorization(mut self, policy: VectorizationPolicy) -> Steno {
        self.options.vectorize = policy;
        self
    }

    /// The engine's compilation options.
    pub fn options(&self) -> &StenoOptions {
        &self.options
    }

    /// Bounds the query cache to at most `capacity` compiled plans,
    /// evicted least-recently-used. Hit/miss/eviction counts stay
    /// visible through [`Steno::detailed_cache_stats`]. The default
    /// cache is unbounded, which is fine for a single application but
    /// not for a multi-tenant service where the key space is open-ended.
    #[must_use = "with_cache_capacity returns the configured engine"]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Steno {
        self.cache = QueryCache::with_capacity(capacity);
        self
    }

    /// Turns the independent verifiers on or off. When on, every fresh
    /// compilation's plan and tape are checked before the plan is
    /// cached or returned; a rejection surfaces as [`StenoError::Verify`]
    /// or [`StenoError::TapeCheck`] instead of a silently wrong plan,
    /// and is never cached, so later calls are rejected too. The
    /// default is on in debug builds and off in release builds (cache
    /// hits never re-verify, so the steady-state cost is zero either
    /// way).
    #[must_use = "with_verify returns the configured engine"]
    pub fn with_verify(mut self, on: bool) -> Steno {
        self.verify = on;
        self
    }

    /// Whether this engine verifies freshly compiled plans.
    pub fn verify_enabled(&self) -> bool {
        self.verify
    }

    /// Turns feedback-directed re-optimization on or off (default off).
    /// When on, [`Steno::execute`] samples a profiled run periodically,
    /// folds the observed element counts / selection density / wall
    /// time into the cached plan's decayed statistics, and — when the
    /// workload drifts past the plan's assumptions (see [`DriftConfig`])
    /// — recompiles with the measured facts and swaps the cached plan in
    /// place. Re-optimized plans go through the same verifier gate as
    /// fresh compilations; `EXPLAIN` surfaces every event as a `reopt:`
    /// line.
    #[must_use = "with_adaptive returns the configured engine"]
    pub fn with_adaptive(mut self, on: bool) -> Steno {
        self.adaptive = on;
        self
    }

    /// Whether this engine re-optimizes drifted plans.
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive
    }

    /// Overrides the drift-detection tuning (sampling decay, hysteresis
    /// gates, re-opt budget) used when [`Steno::with_adaptive`] is on.
    #[must_use = "with_drift_config returns the configured engine"]
    pub fn with_drift_config(mut self, cfg: DriftConfig) -> Steno {
        self.drift = cfg;
        self
    }

    /// Executes a query AST, optimizing when possible.
    ///
    /// # Errors
    ///
    /// Returns [`StenoError`] for ill-typed queries or runtime failures.
    pub fn execute(
        &self,
        q: &QueryExpr,
        ctx: &DataContext,
        udfs: &UdfRegistry,
    ) -> Result<Value, StenoError> {
        self.execute_with(q, ctx, udfs, &Exec::default())
            .map(|(v, _, _)| v)
    }

    /// As [`Steno::execute`] under a per-call [`Exec`] context, also
    /// reporting which path ran and, when the run was profiled, a
    /// [`QueryProfile`] of where elements and time went (`cache_hit` set
    /// on the optimized path; only `wall` on the iterator fallback).
    ///
    /// # Errors
    ///
    /// As [`Steno::execute`]; once `exec.interrupt` fires, both paths
    /// report [`StenoError::Vm`] with [`VmError::DeadlineExceeded`] or
    /// [`VmError::Cancelled`].
    pub fn execute_with(
        &self,
        q: &QueryExpr,
        ctx: &DataContext,
        udfs: &UdfRegistry,
        exec: &Exec<'_>,
    ) -> Result<(Value, ExecutionPath, Option<QueryProfile>), StenoError> {
        let plan = match self.compile_metered(q, ctx, udfs, exec) {
            Ok(plan) => Some(plan),
            Err(e) if e.is_unsupported() => None,
            Err(e) => return Err(e),
        };
        let compiled = plan.as_ref().map(|(c, _)| c.as_ref());
        let (value, path, mut prof) = self.run_compiled(q, ctx, udfs, compiled, exec)?;
        if let (Some(prof), Some((_, hit))) = (&mut prof, &plan) {
            prof.cache_hit = Some(*hit);
        }
        Ok((value, path, prof))
    }

    /// Compiles through the cache under `exec.options` (the engine's
    /// options by default; source types are derived from `sources` only
    /// on a miss), reporting hit/miss into the engine's
    /// collector (compile latency is recorded on misses) and an
    /// `engine.compile` span (annotated with cache hit and compile time)
    /// into `exec.tracer`. When [`Steno::with_verify`] is on, the cache
    /// runs compile → [`Steno::admit`] → insert, so a plan either
    /// verifier rejects is never cached or returned; cache hits were
    /// admitted when they were inserted and are not re-checked.
    fn compile_metered(
        &self,
        q: &QueryExpr,
        sources: impl Into<SourceTypes>,
        udfs: &UdfRegistry,
        exec: &Exec<'_>,
    ) -> Result<(Arc<CompiledQuery>, bool), StenoError> {
        let (tracer, parent) = (exec.tracer, exec.parent);
        let mut cspan = tracer.span("engine.compile", parent);
        let compile_id = cspan.id().or(parent);
        let options = exec.options.unwrap_or(self.options);
        let result = self.cache.get_or_compile(q, sources, udfs, options, |compiled| {
            if self.verify {
                self.admit(compiled, udfs, tracer, compile_id)
            } else {
                Ok(())
            }
        });
        match &result {
            Ok((_, true)) => {
                cspan.note("cache_hit", 1u64);
                self.collector.add("steno.cache.hit", 1);
            }
            Ok((compiled, false)) => {
                let ns = u64::try_from(compiled.compile_time().as_nanos()).unwrap_or(u64::MAX);
                cspan.note("cache_hit", 0u64);
                cspan.note("compile_ns", ns);
                self.collector.add("steno.cache.miss", 1);
                self.collector.observe_ns("steno.compile_ns", ns);
            }
            Err(_) => self.collector.add("steno.compile.error", 1),
        }
        result
    }

    /// The one plan-admission check, for fresh compilations and
    /// re-optimizations alike: the plan verifier over the QUIL chain,
    /// then the tape verifier over the bytecode, which catches a
    /// backend miscompile of a sound plan.
    fn admit(
        &self,
        compiled: &CompiledQuery,
        udfs: &UdfRegistry,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<(), StenoError> {
        {
            let _vspan = tracer.span("engine.verify", parent);
            steno_analysis::verify(compiled.chain(), udfs).map_err(StenoError::Verify)?;
            self.collector.add("steno.verify.passed", 1);
        }
        let mut tspan = tracer.span("engine.tapecheck", parent);
        match steno_vm::check_program(compiled.program()) {
            Ok(report) => {
                tspan.note("obligations", u64::from(report.total()));
                self.collector.add("steno.tapecheck.passed", 1);
                Ok(())
            }
            Err(e) => {
                tspan.note("outcome", "rejected");
                self.collector.add("steno.tapecheck.rejected", 1);
                Err(StenoError::TapeCheck(e))
            }
        }
    }

    /// Runs an already-compiled plan under a per-call [`Exec`] context,
    /// or — with `plan: None` — the iterator fallback, the paper's
    /// behaviour for shapes Steno does not optimize. This is the entry a
    /// serving layer uses to run plans it compiled itself (e.g. under a
    /// degraded policy) while still feeding the profile→plan loop.
    /// `exec.options` must be the options the plan was compiled under:
    /// the cache keys its statistics on them. When fed statistics
    /// drift, the plan is recompiled with the measured feedback and
    /// swapped in the cache after the value is computed; a failed or
    /// verifier-rejected recompile only counts a metric.
    ///
    /// # Errors
    ///
    /// As [`Steno::execute_with`].
    pub fn run_compiled(
        &self,
        q: &QueryExpr,
        ctx: &DataContext,
        udfs: &UdfRegistry,
        plan: Option<&CompiledQuery>,
        exec: &Exec<'_>,
    ) -> Result<(Value, ExecutionPath, Option<QueryProfile>), StenoError> {
        let _span = steno_obs::Span::start(self.collector.as_ref(), "steno.exec_ns");
        let Some(compiled) = plan else {
            self.collector.add("steno.query.fallback", 1);
            return run_fallback(q, ctx, udfs, exec);
        };
        self.collector.add("steno.query.executed", 1);
        let opts = exec.options.unwrap_or(self.options);
        let feed = self.adaptive && exec.reopt;
        let sample = feed && {
            let runs = self.cache.begin_run(q, opts);
            runs < ADAPTIVE_WARMUP || runs.is_multiple_of(ADAPTIVE_PERIOD)
        };
        if !(exec.profile || exec.tracer.enabled() || sample) {
            let value = compiled
                .run_with(ctx, udfs, exec.interrupt)
                .map_err(StenoError::Vm)?;
            return Ok((value, ExecutionPath::Optimized, None));
        }
        let (value, prof) = compiled
            .run_traced(ctx, udfs, exec.interrupt, exec.tracer, exec.parent)
            .map_err(StenoError::Vm)?;
        if feed {
            // Exactly one tier runs each loop, so summing the per-tier
            // element counters yields the elements that flowed through.
            let observed = ObservedRun {
                elements: (prof.src_reads + prof.batch_elements_in) as f64,
                density: prof.selection_density(),
                exec_ns: prof.wall.as_nanos() as f64,
                loop_ns: prof.loop_ns as f64,
            };
            if let Some(reason) = self.cache.note_run(q, opts, observed, &self.drift) {
                self.reoptimize(q, ctx, udfs, &reason, exec);
            }
        }
        Ok((value, ExecutionPath::Optimized, Some(prof)))
    }

    /// Recompiles `q` with measured feedback (sampled selectivities from
    /// the live data, decayed loop stats from the cache) and installs
    /// the result — but only after [`Steno::admit`] accepts it,
    /// regardless of [`Steno::with_verify`]: a re-optimization replaces
    /// a known-good plan, so it is never trusted blind.
    fn reoptimize(
        &self,
        q: &QueryExpr,
        ctx: &DataContext,
        udfs: &UdfRegistry,
        reason: &str,
        exec: &Exec<'_>,
    ) {
        let opts = exec.options.unwrap_or(self.options);
        let mut rspan = exec.tracer.span("engine.reopt", exec.parent);
        let feedback = CompileFeedback {
            sample_ctx: Some(ctx),
            loop_stats: self.cache.plan_loop_stats(q, opts),
        };
        let sources = SourceTypes::from(ctx);
        let Ok(recompiled) = CompiledQuery::compile_with(q, sources, udfs, opts, feedback) else {
            rspan.note("outcome", "error");
            self.collector.add("steno.reopt.error", 1);
            return;
        };
        if self
            .admit(&recompiled, udfs, exec.tracer, rspan.id().or(exec.parent))
            .is_err()
        {
            rspan.note("outcome", "rejected");
            self.collector.add("steno.reopt.rejected", 1);
            return;
        }
        self.cache
            .install_reoptimized(q, opts, Arc::new(recompiled), reason);
        rspan.note("outcome", "installed");
        rspan.note("reason", reason.to_string());
        self.collector.add("steno.reopt", 1);
    }

    /// Explains how this engine would execute `q` against sources of
    /// the given types: the canonical QUIL form, the engine the hot
    /// loops land on, and the tier decision per loop — including the
    /// vectorizer's exact refusal reason for loops that fell back.
    /// Unsupported shapes explain as the iterator-interpreter fallback
    /// with the lowering error. Compilation goes through the query
    /// cache, so explaining then executing compiles once.
    ///
    /// # Errors
    ///
    /// Returns [`StenoError::Optimize`] only for internal compilation
    /// failures; unsupported shapes are a successful `Fallback` plan.
    pub fn explain(
        &self,
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
    ) -> Result<Explain, StenoError> {
        self.explain_with_options(q, sources, udfs, self.options)
    }

    /// As [`Steno::explain`], explaining the plan compiled under
    /// explicit per-call options (the serving layer attaches the
    /// EXPLAIN of the policy a query *actually* ran under — which may
    /// be a degraded one — to flight-recorder dumps).
    ///
    /// # Errors
    ///
    /// As [`Steno::explain`].
    pub fn explain_with_options(
        &self,
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
        options: StenoOptions,
    ) -> Result<Explain, StenoError> {
        let query = q.to_string();
        let exec = Exec {
            options: Some(options),
            ..Exec::default()
        };
        match self.compile_metered(q, sources, udfs, &exec) {
            Ok((compiled, _hit)) => {
                let lints = steno_analysis::run_default_lints(compiled.chain(), udfs)
                    .iter()
                    .map(|d| d.to_string())
                    .collect();
                // EXPLAIN runs the tape verifier unconditionally (even
                // with `with_verify` off): the obligation counts are
                // plan facts, and a rejection here is exactly what an
                // operator inspecting a suspect plan wants surfaced.
                let tape_check = match steno_vm::check_program(compiled.program()) {
                    Ok(report) => report.summary(),
                    Err(e) => format!("rejected: {e}"),
                };
                Ok(Explain {
                    query,
                    plan: ExplainPlan::Optimized {
                        quil: compiled.quil(),
                        engine: compiled.engine(),
                        instr_count: compiled.instr_count(),
                        loops: compiled.loop_plans().to_vec(),
                        vectorized_loops: compiled.vectorized_loops(),
                        batch_size: compiled.batch_size(),
                        result_ty: compiled.result_ty().to_string(),
                        guards_dropped: compiled.guards_dropped(),
                        fused_kernels: compiled.fused_kernels().to_vec(),
                        slots_reused: compiled.slots_reused(),
                        hoisted: compiled.hoisted(),
                        superinstrs: compiled.superinstrs(),
                        sinks: steno_vm::instr::sink_plans(compiled.program()),
                        lints,
                        rewrites: compiled.rewrite_log().to_vec(),
                        reopt: self.cache.reopt_events(q, options),
                        measured: compiled.measured_stats().map(render_measured),
                        tape_check,
                    },
                })
            }
            Err(e) if e.is_unsupported() => Ok(Explain {
                query,
                plan: ExplainPlan::Fallback {
                    reason: e.to_string(),
                },
            }),
            Err(e) => Err(e),
        }
    }

    /// Parses and executes query text.
    ///
    /// # Errors
    ///
    /// As [`Steno::execute`], plus parse errors.
    pub fn execute_text(
        &self,
        text: &str,
        ctx: &DataContext,
        udfs: &UdfRegistry,
    ) -> Result<Value, StenoError> {
        let (q, _) = steno_syntax::parse_query(text).map_err(StenoError::Parse)?;
        self.execute(&q, ctx, udfs)
    }

    /// Compiles a query without running it (inspect
    /// [`CompiledQuery::rust_source`] to see the generated loops).
    ///
    /// # Errors
    ///
    /// Returns [`StenoError::Optimize`] when the query cannot be
    /// optimized, and [`StenoError::Verify`] when the plan verifier is
    /// on and rejects the optimized chain.
    pub fn compile(
        &self,
        q: &QueryExpr,
        sources: SourceTypes,
        udfs: &UdfRegistry,
    ) -> Result<Arc<CompiledQuery>, StenoError> {
        self.compile_with(q, sources, udfs, &Exec::default())
    }

    /// As [`Steno::compile`] under a per-call [`Exec`] context:
    /// `sources` may be the [`DataContext`] itself, whose source types
    /// are then derived only when the cache misses; `exec.options`
    /// overrides the engine default, and `engine.compile`
    /// (plus, on fresh compilations, `engine.verify`/`engine.tapecheck`)
    /// spans go into `exec.tracer`. The cache keys on the options, so a
    /// service layer can degrade individual compilations (e.g. pin
    /// [`VectorizationPolicy::Off`] while a breaker is open) without
    /// poisoning plans cached under the healthy policy.
    ///
    /// # Errors
    ///
    /// As [`Steno::compile`].
    pub fn compile_with(
        &self,
        q: &QueryExpr,
        sources: impl Into<SourceTypes>,
        udfs: &UdfRegistry,
        exec: &Exec<'_>,
    ) -> Result<Arc<CompiledQuery>, StenoError> {
        self.compile_metered(q, sources, udfs, exec)
            .map(|(compiled, _hit)| compiled)
    }

    /// Full query-cache counters: hits, misses, evictions, live
    /// entries, and the configured capacity (if bounded).
    pub fn detailed_cache_stats(&self) -> steno_vm::CacheStats {
        self.cache.detailed_stats()
    }

    /// Executes a query over a partitioned collection on the simulated
    /// cluster (§6), under the engine's fault-tolerance runtime: vertex
    /// panics are isolated, transient failures retried with backoff,
    /// stragglers speculatively duplicated, and deterministic errors
    /// surfaced byte-identical to the single-node engines.
    ///
    /// The returned [`JobReport`] records retry counts, the retry log,
    /// speculation wins, and per-vertex attempt/wall-time data alongside
    /// the usual phase timings.
    ///
    /// # Errors
    ///
    /// Returns [`StenoError::Dist`] for unloweable queries, mismatched
    /// roots, and vertex failures that survive the retry budget.
    pub fn execute_distributed(
        &self,
        q: &QueryExpr,
        input: &DistributedCollection,
        broadcast: &DataContext,
        udfs: &UdfRegistry,
        spec: &ClusterSpec,
        engine: VertexEngine,
    ) -> Result<(Value, JobReport), StenoError> {
        self.execute_distributed_traced(
            q,
            input,
            broadcast,
            udfs,
            spec,
            engine,
            &Tracer::disabled(),
            None,
        )
    }

    /// As [`Steno::execute_distributed`], additionally recording the
    /// job's phase timings (`cluster.job` → compile/map/reduce, one
    /// `cluster.vertex` span per map vertex) into `tracer` via
    /// [`JobReport::record_spans`]. With a disabled tracer this is
    /// exactly [`Steno::execute_distributed`].
    ///
    /// # Errors
    ///
    /// As [`Steno::execute_distributed`].
    #[allow(clippy::too_many_arguments)]
    pub fn execute_distributed_traced(
        &self,
        q: &QueryExpr,
        input: &DistributedCollection,
        broadcast: &DataContext,
        udfs: &UdfRegistry,
        spec: &ClusterSpec,
        engine: VertexEngine,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<(Value, JobReport), StenoError> {
        let result = steno_cluster::execute_distributed_with(
            q,
            input,
            broadcast,
            udfs,
            spec,
            engine,
            &self.runtime,
        )
        .map_err(StenoError::Dist);
        if let Ok((_, report)) = &result {
            // Unified telemetry: cluster jobs land in the same
            // collector as single-node executions.
            report.record_to(self.collector.as_ref());
            report.record_spans(tracer, parent);
        }
        result
    }
}

/// The iterator fallback of [`Steno::run_compiled`], under an
/// `engine.fallback_exec` span. An inert interrupt takes the plain
/// interpreter; otherwise the interpreter polls it per stride of
/// elements. A profiled fallback reports only its wall time.
fn run_fallback(
    q: &QueryExpr,
    ctx: &DataContext,
    udfs: &UdfRegistry,
    exec: &Exec<'_>,
) -> Result<(Value, ExecutionPath, Option<QueryProfile>), StenoError> {
    let _fspan = exec.tracer.span("engine.fallback_exec", exec.parent);
    let start = (exec.profile || exec.tracer.enabled()).then(Instant::now);
    let value = if exec.interrupt.is_inert() {
        interp::execute(q, ctx, udfs)
    } else {
        let interrupt = exec.interrupt.clone();
        let probe: interp::StopProbe = Arc::new(move || match interrupt.check() {
            Ok(()) => None,
            Err(VmError::DeadlineExceeded) => Some(interp::Stop::Deadline),
            Err(_) => Some(interp::Stop::Cancelled),
        });
        interp::execute_interruptible(q, ctx, udfs, probe)
    };
    // Interruptions surface as VM errors, matching the optimized path,
    // so callers handle one shape.
    let value = value.map_err(|e| match e {
        EvalError::Interrupted { deadline: true } => StenoError::Vm(VmError::DeadlineExceeded),
        EvalError::Interrupted { deadline: false } => StenoError::Vm(VmError::Cancelled),
        other => StenoError::Eval(other),
    })?;
    let prof = start.map(|t| QueryProfile {
        wall: t.elapsed(),
        ..QueryProfile::default()
    });
    Ok((value, ExecutionPath::Fallback, prof))
}

/// Renders the measured loop facts a plan was compiled against for the
/// EXPLAIN `measured:` line.
fn render_measured(ls: steno_opt::LoopStats) -> String {
    let mut out = format!("~{:.0} elements", ls.elements);
    if let Some(d) = ls.density {
        out.push_str(&format!(", density {d:.2}"));
    }
    if let Some(npe) = ls.ns_per_elem {
        out.push_str(&format!(", ~{npe:.1} ns/elem"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::{Expr, Ty};
    use steno_query::{QFn2, Query};

    fn ctx() -> DataContext {
        DataContext::new().with_source("xs", vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn optimized_path_runs_supported_queries() {
        let engine = Steno::new();
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let (v, path, prof) = engine
            .execute_with(&q, &ctx(), &UdfRegistry::new(), &Exec::default())
            .unwrap();
        assert!(prof.is_none(), "the plain path does not profile");
        assert_eq!(v, Value::F64(30.0));
        assert_eq!(path, ExecutionPath::Optimized);
    }

    #[test]
    fn unsupported_queries_fall_back_to_iterators() {
        let engine = Steno::new();
        // Concat is outside the QUIL operator classes.
        let q = Query::source("xs").concat(Query::source("xs")).count().build();
        let (v, path, prof) = engine
            .execute_with(&q, &ctx(), &UdfRegistry::new(), &Exec::default())
            .unwrap();
        assert!(prof.is_none(), "the plain path does not profile");
        assert_eq!(v, Value::I64(8));
        assert_eq!(path, ExecutionPath::Fallback);
    }

    #[test]
    fn text_queries_execute() {
        let engine = Steno::new();
        let v = engine
            .execute_text(
                "(from x in xs where x > 1.5 select x * x).sum()",
                &ctx(),
                &UdfRegistry::new(),
            )
            .unwrap();
        assert_eq!(v, Value::F64(29.0));
    }

    #[test]
    fn vectorization_knob_selects_the_engine() {
        use steno_vm::EngineKind;

        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let c = ctx();
        let udfs = UdfRegistry::new();

        let auto = Steno::new();
        let compiled = auto.compile(&q, SourceTypes::from(&c), &udfs).unwrap();
        assert_eq!(compiled.engine(), EngineKind::Vectorized);
        assert!(compiled.vectorized_loops() > 0);

        let scalar = Steno::new().with_vectorization(VectorizationPolicy::Off);
        let compiled_off = scalar.compile(&q, SourceTypes::from(&c), &udfs).unwrap();
        assert_eq!(compiled_off.engine(), EngineKind::Scalar);
        assert_eq!(compiled_off.vectorized_loops(), 0);

        // Both engines agree on the answer.
        assert_eq!(
            auto.execute(&q, &c, &udfs).unwrap(),
            scalar.execute(&q, &c, &udfs).unwrap()
        );
    }

    #[test]
    fn cache_amortizes_compilation() {
        let engine = Steno::new();
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        for _ in 0..5 {
            engine.execute(&q, &c, &udfs).unwrap();
        }
        let stats = engine.detailed_cache_stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
    }

    #[test]
    fn distributed_execution_through_the_facade() {
        use steno_cluster::FaultPlan;

        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let input = DistributedCollection::from_f64(
            "xs",
            (0..100).map(f64::from).collect(),
            4,
        );
        // Inject one transient failure per map vertex: the answer must
        // match the fault-free run and the report must show the retries.
        let engine = Steno::new()
            .with_runtime(RuntimeConfig::with_faults(FaultPlan::fail_each_once(4)));
        let (v, report) = engine
            .execute_distributed(
                &q,
                &input,
                &DataContext::new(),
                &UdfRegistry::new(),
                &ClusterSpec { workers: 2 },
                VertexEngine::Steno,
            )
            .unwrap();
        let clean = Steno::new()
            .execute_distributed(
                &q,
                &input,
                &DataContext::new(),
                &UdfRegistry::new(),
                &ClusterSpec { workers: 2 },
                VertexEngine::Steno,
            )
            .unwrap()
            .0;
        assert_eq!(v, clean);
        assert!(report.retries >= 4, "one retry per vertex: {}", report.retries);
    }

    #[test]
    fn explain_names_the_tier_for_where_select_sum() {
        let engine = Steno::new();
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(1.5)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let c = ctx();
        let explain = engine
            .explain(&q, SourceTypes::from(&c), &UdfRegistry::new())
            .unwrap();
        assert!(explain.is_optimized());
        let text = explain.render();
        assert!(text.contains("QUIL:"), "{text}");
        assert!(text.contains("loop 0: tier=vectorized"), "{text}");
        let v = steno_obs::json::parse(&explain.to_json()).unwrap();
        assert_eq!(v.get("optimized").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("engine").unwrap().as_str(), Some("vectorized"));
        let loops = v.get("loops").and_then(|l| l.as_array()).unwrap();
        assert_eq!(loops[0].get("tier").unwrap().as_str(), Some("vectorized"));
    }

    #[test]
    fn explain_reports_the_exact_vectorize_fallback_reason() {
        // A UDF call refuses vectorization; EXPLAIN must carry the
        // compiler's exact reason string.
        let mut udfs = UdfRegistry::new();
        udfs.register("twice", vec![Ty::F64], Ty::F64, |args: &[Value]| {
            Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
        });
        let engine = Steno::new();
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(1.5)), "x")
            .select(Expr::call("twice", vec![Expr::var("x")]), "x")
            .sum()
            .build();
        let c = ctx();
        let compiled = engine.compile(&q, SourceTypes::from(&c), &udfs).unwrap();
        let expected_reason = compiled.batch_fallbacks()[0].clone();
        let explain = engine.explain(&q, SourceTypes::from(&c), &udfs).unwrap();
        let text = explain.render();
        assert!(
            text.contains(&format!("vectorize-fallback: \"{expected_reason}\"")),
            "explain must quote the exact reason {expected_reason:?}: {text}"
        );
        let v = steno_obs::json::parse(&explain.to_json()).unwrap();
        let loops = v.get("loops").and_then(|l| l.as_array()).unwrap();
        assert_eq!(
            loops[0].get("vectorize_fallback").unwrap().as_str(),
            Some(expected_reason.to_string().as_str())
        );
        assert_eq!(
            loops[0].get("fallback_code").unwrap().as_str(),
            Some(expected_reason.code())
        );
    }

    #[test]
    fn verifier_accepts_fresh_compilations_when_enabled() {
        use steno_obs::MemoryCollector;

        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new().with_verify(true).with_collector(metrics.clone());
        assert!(engine.verify_enabled());
        let c = ctx();
        let udfs = UdfRegistry::new();
        let queries = [
            Query::source("xs").sum().build(),
            Query::source("xs")
                .where_(Expr::var("x").gt(Expr::litf(1.5)), "x")
                .select(Expr::var("x") * Expr::var("x"), "x")
                .sum()
                .build(),
            Query::source("xs").order_by(Expr::var("x"), "x").take(2).build(),
        ];
        for q in &queries {
            engine.execute(q, &c, &udfs).unwrap();
            // Re-execution hits the cache: no second verification.
            engine.execute(q, &c, &udfs).unwrap();
        }
        assert_eq!(
            metrics.counter_value("steno.verify.passed"),
            queries.len() as u64
        );
        // The tape verifier runs alongside the plan verifier on every
        // cache-miss compile — and never on hits.
        assert_eq!(
            metrics.counter_value("steno.tapecheck.passed"),
            queries.len() as u64
        );
        assert_eq!(metrics.counter_value("steno.tapecheck.rejected"), 0);
    }

    #[test]
    fn rejected_plans_are_never_cached_or_run() {
        // A combiner that is not associative: the plan verifier rejects
        // the compiled plan. Every call must be rejected, not only the
        // first, and the cache must never hold the plan.
        let engine = Steno::new().with_verify(true);
        let q = Query::source("ns")
            .aggregate_assoc(
                Expr::liti(0),
                "a",
                "x",
                Expr::var("a") + Expr::var("x"),
                QFn2::new("p", "q", Expr::var("p") - Expr::var("q")),
            )
            .build();
        let c = DataContext::new().with_source("ns", (0..100).collect::<Vec<i64>>());
        let udfs = UdfRegistry::new();
        for call in 0..3 {
            let got = engine.execute(&q, &c, &udfs);
            assert!(
                matches!(got, Err(StenoError::Verify(_))),
                "call {call}: {got:?}"
            );
        }
        let stats = engine.detailed_cache_stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (0, 0, 3));
    }

    #[test]
    fn explain_surfaces_tape_check_verdict() {
        let engine = Steno::new();
        let c = ctx();
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let explain = engine
            .explain(&q, SourceTypes::from(&c), &UdfRegistry::new())
            .unwrap();
        let text = explain.render();
        assert!(text.contains("tape-check: passed (cfg "), "{text}");
        let v = steno_obs::json::parse(&explain.to_json()).unwrap();
        let verdict = v.get("tape_check").unwrap().as_str().unwrap();
        assert!(verdict.starts_with("passed (cfg "), "{verdict}");
    }

    #[test]
    fn explain_surfaces_lints_and_dropped_guards() {
        // `where 1 > 2` is always false: the dead-filter lint must fire,
        // and the proven-non-zero division must report its dropped guard.
        let engine = Steno::new();
        let c = DataContext::new().with_source("ns", vec![1i64, 2, 3, 4]);
        let q = Query::source("ns")
            .where_(Expr::liti(1).gt(Expr::liti(2)), "x")
            .select(
                Expr::if_(
                    (Expr::var("x") % Expr::liti(2)).eq(Expr::liti(0)),
                    Expr::var("x") / Expr::liti(2),
                    Expr::var("x"),
                ),
                "x",
            )
            .sum_by(Expr::var("y"), "y")
            .build();
        let explain = engine
            .explain(&q, SourceTypes::from(&c), &UdfRegistry::new())
            .unwrap();
        let text = explain.render();
        // Two guards: `x % 2` and `x / 2` both divide by the literal 2.
        assert!(text.contains("guards-dropped: 2"), "{text}");
        assert!(text.contains("lint: warning[dead-filter]"), "{text}");
        let v = steno_obs::json::parse(&explain.to_json()).unwrap();
        assert_eq!(v.get("guards_dropped").unwrap().as_u64(), Some(2));
        let lints = v.get("lints").and_then(|l| l.as_array()).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| l.as_str().is_some_and(|s| s.contains("dead-filter"))),
            "{lints:?}"
        );
    }

    #[test]
    fn explain_renders_the_fallback_path_for_unsupported_shapes() {
        let engine = Steno::new();
        let q = Query::source("xs").concat(Query::source("xs")).count().build();
        let c = ctx();
        let explain = engine
            .explain(&q, SourceTypes::from(&c), &UdfRegistry::new())
            .unwrap();
        assert!(!explain.is_optimized());
        assert!(explain.render().contains("fallback"), "{}", explain.render());
    }

    #[test]
    fn profiled_execution_reports_cache_and_density() {
        let engine = Steno::new();
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(1.5)), "x")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let profiled = Exec {
            profile: true,
            ..Exec::default()
        };
        let (v, path, prof) = engine.execute_with(&q, &c, &udfs, &profiled).unwrap();
        let prof = prof.unwrap();
        assert_eq!(v, Value::F64(29.0));
        assert_eq!(path, ExecutionPath::Optimized);
        assert_eq!(prof.cache_hit, Some(false));
        assert_eq!(prof.batch_elements_in, 4);
        assert_eq!(prof.batch_elements_selected, 3);
        // Second run: same counters, but served from the cache.
        let (_, _, prof2) = engine.execute_with(&q, &c, &udfs, &profiled).unwrap();
        let prof2 = prof2.unwrap();
        assert_eq!(prof2.cache_hit, Some(true));
        assert_eq!(prof2.selection_density(), Some(0.75));
    }

    #[test]
    fn collector_sees_cache_and_execution_metrics() {
        use steno_obs::MemoryCollector;

        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new().with_collector(metrics.clone());
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        for _ in 0..3 {
            engine.execute(&q, &c, &udfs).unwrap();
        }
        assert_eq!(metrics.counter_value("steno.cache.miss"), 1);
        assert_eq!(metrics.counter_value("steno.cache.hit"), 2);
        assert_eq!(metrics.counter_value("steno.query.executed"), 3);
        assert_eq!(metrics.counter_value("steno.query.fallback"), 0);
        let snap = metrics.snapshot();
        let exec = snap
            .histograms
            .iter()
            .find(|h| h.name == "steno.exec_ns")
            .unwrap();
        assert_eq!(exec.count, 3);
        assert!(snap.histograms.iter().any(|h| h.name == "steno.compile_ns"));
        // The snapshot JSON parses back.
        assert!(steno_obs::json::parse(&snap.to_json()).is_ok());
    }

    #[test]
    fn distributed_jobs_report_into_the_collector() {
        use steno_obs::MemoryCollector;

        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new().with_collector(metrics.clone());
        let q = Query::source("xs").sum().build();
        let input =
            DistributedCollection::from_f64("xs", (0..100).map(f64::from).collect(), 4);
        engine
            .execute_distributed(
                &q,
                &input,
                &DataContext::new(),
                &UdfRegistry::new(),
                &ClusterSpec { workers: 2 },
                VertexEngine::Steno,
            )
            .unwrap();
        assert_eq!(metrics.counter_value("cluster.jobs"), 1);
        assert_eq!(metrics.counter_value("cluster.input_elements"), 100);
        assert_eq!(metrics.counter_value("cluster.vertex_attempts"), 4);
    }

    #[test]
    fn distributed_jobs_record_phase_spans() {
        use steno_obs::{FlightRecorder, TraceConfig, TraceMeta};

        let recorder = FlightRecorder::new(TraceConfig::default());
        let engine = Steno::new();
        let q = Query::source("xs").sum().build();
        let input =
            DistributedCollection::from_f64("xs", (0..100).map(f64::from).collect(), 4);
        let tracer = recorder.begin();
        let root = tracer.span("serve.request", None);
        let root_id = root.id();
        engine
            .execute_distributed_traced(
                &q,
                &input,
                &DataContext::new(),
                &UdfRegistry::new(),
                &ClusterSpec { workers: 2 },
                VertexEngine::Steno,
                &tracer,
                root_id,
            )
            .unwrap();
        drop(root);
        recorder.finish(
            &tracer,
            TraceMeta {
                query: q.to_string(),
                ..TraceMeta::default()
            },
        );
        let traces = recorder.recent();
        let trace = traces.last().unwrap();
        let job = trace.span("cluster.job").unwrap();
        assert_eq!(job.parent, root_id);
        for phase in ["cluster.compile", "cluster.map", "cluster.reduce"] {
            let s = trace.span(phase).unwrap();
            assert_eq!(s.parent, Some(job.id), "{phase} parents the job span");
        }
        let map_id = trace.span("cluster.map").unwrap().id;
        let vertices: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "cluster.vertex")
            .collect();
        assert_eq!(vertices.len(), 4, "one span per map vertex");
        assert!(vertices.iter().all(|v| v.parent == Some(map_id)));
        assert!(vertices
            .iter()
            .any(|v| v.note("elements").is_some_and(|n| n.to_string() == "25")));
    }

    #[test]
    fn per_call_options_compile_distinct_cached_plans() {
        use steno_vm::EngineKind;

        let engine = Steno::new();
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let c = ctx();
        let udfs = UdfRegistry::new();

        let auto = engine.compile(&q, SourceTypes::from(&c), &udfs).unwrap();
        assert_eq!(auto.engine(), EngineKind::Vectorized);

        let degraded = StenoOptions {
            vectorize: VectorizationPolicy::Off,
            ..*engine.options()
        };
        let degraded = Exec {
            options: Some(degraded),
            ..Exec::default()
        };
        let scalar = engine
            .compile_with(&q, SourceTypes::from(&c), &udfs, &degraded)
            .unwrap();
        assert_eq!(scalar.engine(), EngineKind::Scalar);

        // Both plans live in the cache under distinct keys: recompiling
        // under either policy is a hit, and the stored plans agree.
        let stats = engine.detailed_cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
        let again = engine
            .compile_with(&q, SourceTypes::from(&c), &udfs, &degraded)
            .unwrap();
        assert!(Arc::ptr_eq(&scalar, &again));
        assert_eq!(engine.detailed_cache_stats().hits, 1);
    }

    #[test]
    fn bounded_cache_evicts_through_the_facade() {
        let engine = Steno::new().with_cache_capacity(1);
        let c = ctx();
        let udfs = UdfRegistry::new();
        engine
            .execute(&Query::source("xs").sum().build(), &c, &udfs)
            .unwrap();
        engine
            .execute(&Query::source("xs").count().build(), &c, &udfs)
            .unwrap();
        let stats = engine.detailed_cache_stats();
        assert_eq!(stats.capacity, Some(1));
        assert_eq!(stats.len, 1);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn ill_typed_queries_error() {
        let engine = Steno::new();
        let q = Query::source("missing").sum().build();
        assert!(engine.execute(&q, &ctx(), &UdfRegistry::new()).is_err());
        assert!(engine
            .execute_text("xs.sum() nonsense", &ctx(), &UdfRegistry::new())
            .is_err());
    }

    #[test]
    fn interrupts_reach_the_iterator_fallback() {
        use std::time::{Duration, Instant};

        let engine = Steno::new();
        // Concat is outside QUIL: this query always takes the iterator
        // fallback, which previously ran to completion regardless of
        // deadlines.
        let big: Vec<f64> = (0..200_000).map(f64::from).collect();
        let c = DataContext::new().with_source("xs", big);
        let q = Query::source("xs")
            .concat(Query::source("xs"))
            .sum()
            .build();
        let udfs = UdfRegistry::new();

        // Inert interrupt: identical to the plain entry, still fallback.
        let inert = Interrupt::none();
        let with = |interrupt| Exec {
            interrupt,
            ..Exec::default()
        };
        let (v, path, _) = engine.execute_with(&q, &c, &udfs, &with(&inert)).unwrap();
        assert_eq!(path, ExecutionPath::Fallback);
        assert_eq!(v, engine.execute(&q, &c, &udfs).unwrap());

        // Expired deadline: the fallback aborts mid-run with the same
        // error shape the VM path reports.
        let expired =
            Interrupt::none().with_deadline(Instant::now() - Duration::from_millis(1));
        match engine.execute_with(&q, &c, &udfs, &with(&expired)) {
            Err(StenoError::Vm(VmError::DeadlineExceeded)) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }

        // Cancel probe: same, with the cancellation error.
        let probe = Arc::new(|| true) as steno_vm::CancelProbe;
        let cancelled = Interrupt::none().with_cancel_probe(probe);
        match engine.execute_with(&q, &c, &udfs, &with(&cancelled)) {
            Err(StenoError::Vm(VmError::Cancelled)) => {}
            other => panic!("expected cancelled error, got {other:?}"),
        }

        // The optimized path threads the same interrupt.
        let supported = Query::source("xs").sum().build();
        let expired =
            Interrupt::none().with_deadline(Instant::now() - Duration::from_millis(1));
        match engine.execute_with(&supported, &c, &udfs, &with(&expired)) {
            Err(StenoError::Vm(VmError::DeadlineExceeded)) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_engine_recompiles_on_selectivity_drift_without_flapping() {
        // End-to-end drift: the same query runs against a workload
        // whose filter keeps ~95% of elements, then the workload shifts
        // so it keeps ~2%. The adaptive engine must notice, recompile
        // once, surface the event in EXPLAIN, and then settle — the
        // sustained new regime must not keep re-triggering.
        use steno_obs::MemoryCollector;

        let metrics = Arc::new(MemoryCollector::new());
        let engine = Steno::new()
            .with_adaptive(true)
            .with_collector(metrics.clone());
        assert!(engine.adaptive_enabled());
        let q = Query::source("xs")
            .where_(Expr::var("x").lt(Expr::litf(1.0)), "x")
            .sum()
            .build();
        let udfs = UdfRegistry::new();
        let n = 200_000;
        // Dense regime: 95% of values sit below the threshold. Large
        // enough that accumulated execution dwarfs the one-off compile
        // (the break-even gate uses real measured times).
        let dense: Vec<f64> = (0..n).map(|i| if i % 20 == 0 { 2.0 } else { 0.5 }).collect();
        let dense_ctx = DataContext::new().with_source("xs", dense);
        // Sparse regime: only 2% below the threshold.
        let sparse: Vec<f64> = (0..n).map(|i| if i % 50 == 0 { 0.5 } else { 2.0 }).collect();
        let sparse_ctx = DataContext::new().with_source("xs", sparse);
        let expect_dense = Value::F64(0.5 * f64::from(n / 20 * 19));
        let expect_sparse = Value::F64(0.5 * f64::from(n / 50));

        for _ in 0..12 {
            assert_eq!(engine.execute(&q, &dense_ctx, &udfs).unwrap(), expect_dense);
        }
        let sources = SourceTypes::from(&dense_ctx);
        let before = engine.explain(&q, sources.clone(), &udfs).unwrap();
        let ExplainPlan::Optimized { reopt, .. } = &before.plan else {
            panic!("expected optimized plan");
        };
        assert!(reopt.is_empty(), "no drift yet: {reopt:?}");

        // Shift the workload and keep running until the engine reacts.
        // Sampling happens on a cadence, so give it plenty of runs.
        let mut events = Vec::new();
        for _ in 0..128 {
            assert_eq!(
                engine.execute(&q, &sparse_ctx, &udfs).unwrap(),
                expect_sparse
            );
            let explained = engine.explain(&q, sources.clone(), &udfs).unwrap();
            let ExplainPlan::Optimized { reopt, .. } = &explained.plan else {
                panic!("expected optimized plan");
            };
            if !reopt.is_empty() {
                events = reopt.clone();
                break;
            }
        }
        assert_eq!(events.len(), 1, "exactly one re-opt: {events:?}");
        assert!(
            events[0].contains("selectivity drift"),
            "got: {}",
            events[0]
        );

        // Settle: the sustained sparse regime must never flap the plan.
        for _ in 0..96 {
            assert_eq!(
                engine.execute(&q, &sparse_ctx, &udfs).unwrap(),
                expect_sparse
            );
        }
        let after = engine.explain(&q, sources, &udfs).unwrap();
        let ExplainPlan::Optimized { reopt, .. } = &after.plan else {
            panic!("expected optimized plan");
        };
        assert_eq!(reopt.len(), 1, "plan flapped: {reopt:?}");
        // The counter agrees with the surfaced events.
        assert_eq!(metrics.counter_value("steno.reopt"), 1);
        assert_eq!(metrics.counter_value("steno.reopt.rejected"), 0);
        assert_eq!(metrics.counter_value("steno.reopt.error"), 0);

        // The re-optimized plan was compiled against measured run facts:
        // EXPLAIN surfaces them as the `measured:` line, and the tier
        // choice consumed the span-measured per-element time (the
        // rationale switches from the element-count heuristic to the
        // measured-cost rule).
        let explained = engine
            .explain(&q, SourceTypes::from(&sparse_ctx), &udfs)
            .unwrap();
        let text = explained.render();
        assert!(text.contains("\n  measured: "), "{text}");
        assert!(text.contains("ns/elem"), "{text}");
        assert!(text.contains("chosen-by: \"measured-cost:"), "{text}");
    }

    #[test]
    fn profiled_runs_feed_adaptive_plan_statistics() {
        // One rule: a run is profiled when asked, traced, or due for an
        // adaptive sample, and an adaptive engine folds every profiled
        // run into the cached plan's statistics.
        let engine = Steno::new().with_adaptive(true);
        let opts = *engine.options();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let n = 2 * ADAPTIVE_WARMUP + 8;

        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(1.5)), "x")
            .sum()
            .build();
        let profiled = Exec {
            profile: true,
            ..Exec::default()
        };
        for _ in 0..n {
            let (_, _, prof) = engine.execute_with(&q, &c, &udfs, &profiled).unwrap();
            assert!(prof.is_some());
        }
        assert_eq!(engine.cache.plan_runs(&q, opts), n);

        // With reopt off a profiled run feeds nothing.
        let no_reopt = Exec {
            reopt: false,
            ..profiled
        };
        engine.execute_with(&q, &c, &udfs, &no_reopt).unwrap();
        assert_eq!(engine.cache.plan_runs(&q, opts), n);

        // Unasked, only the adaptive samples are profiled, and exactly
        // those are fed.
        let plain = Query::source("xs").sum().build();
        let mut sampled = 0;
        for _ in 0..n {
            let (_, _, prof) = engine
                .execute_with(&plain, &c, &udfs, &Exec::default())
                .unwrap();
            sampled += u64::from(prof.is_some());
        }
        assert!(sampled < n, "the steady state is not profiled");
        assert_eq!(engine.cache.plan_runs(&plain, opts), sampled);
    }

    #[test]
    fn one_cache_key_serves_lookups_and_plan_statistics() {
        let engine = Steno::new();
        let opts = StenoOptions::default();
        let q = Query::source("xs").sum().build();
        let c = ctx();
        let udfs = UdfRegistry::new();
        let (plan, hit) = engine
            .cache
            .get_or_compile(&q, SourceTypes::from(&c), &udfs, opts, |_| {
                Ok::<_, OptimizeError>(())
            })
            .unwrap();
        assert!(!hit);
        // The per-plan statistics find the plan the lookup inserted...
        assert_eq!(engine.cache.begin_run(&q, opts), 0);
        assert_eq!(engine.cache.begin_run(&q, opts), 1);
        // ...and a default-options compile through the engine hits it.
        let again = engine.compile(&q, SourceTypes::from(&c), &udfs).unwrap();
        assert!(Arc::ptr_eq(&plan, &again));
        let stats = engine.detailed_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }
}
