//! Compile-time Steno: the paper's §9 "extend the compiler" variant.
//!
//! "The compiler already desugars LINQ queries that are written in query
//! comprehension syntax, and it would be conceptually straightforward to
//! extend this compiler pass to use Steno." Rust's procedural macros make
//! that extension possible without forking the compiler: [`steno!`] runs
//! the complete optimization pipeline — comprehension parsing, QUIL
//! lowering, operator specialization, the pushdown-automaton code
//! generator — at *macro expansion time*, and splices the generated
//! imperative loops directly into the caller's crate, where `rustc`
//! compiles them like hand-written code. This path has no one-off runtime
//! cost (§7.1's 69 ms disappears into the build) and no interpretation
//! overhead at all.
//!
//! Source element types cannot be inferred without a data context, so
//! binders of named sources must be annotated, mirroring the typed range
//! variables of C#:
//!
//! ```ignore
//! let total: f64 = steno!((from x: f64 in xs select x * x).sum());
//! ```
//!
//! The sources (`xs` above) are ordinary in-scope slices or `Vec`s.
//!
//! # Limitations
//!
//! User-defined function calls, `row` sources, and the `OrderBy` /
//! `Distinct` sinks are only available through the runtime pipeline;
//! using them here is a compile error directing you there.

use proc_macro::TokenStream;

use steno_codegen::{generate, render_rust};
use steno_expr::typecheck::TyEnv;
use steno_expr::UdfRegistry;
use steno_query::typing::SourceTypes;
use steno_quil::lower::{lower_with, LowerOptions};
use steno_quil::passes;
use steno_syntax::parse_query;

fn compile_error(message: &str) -> TokenStream {
    let escaped = message.replace('\\', "\\\\").replace('"', "\\\"");
    format!("compile_error!(\"{escaped}\")").parse().unwrap()
}

/// Optimizes a declarative query at compile time into fused imperative
/// loops.
///
/// See the [crate documentation](crate) for syntax and limitations.
#[proc_macro]
pub fn steno(input: TokenStream) -> TokenStream {
    let text = input.to_string();
    expand(&text)
}

fn expand(text: &str) -> TokenStream {
    let (query, binders) = match parse_query(text) {
        Ok(parsed) => parsed,
        Err(e) => return compile_error(&format!("steno!: {e}")),
    };
    // Build source types from binder annotations.
    let mut sources = SourceTypes::new();
    for (name, ty) in &binders.source_types {
        sources.insert(name.clone(), ty.clone());
    }
    // Every named source must be annotated.
    let mut missing = Vec::new();
    collect_unannotated(&query, &sources, &mut missing);
    if !missing.is_empty() {
        return compile_error(&format!(
            "steno!: annotate the element type of source(s) {} \
             (e.g. `from x: f64 in {}`)",
            missing.join(", "),
            missing[0]
        ));
    }
    let udfs = UdfRegistry::new();
    let chain = match lower_with(
        &query,
        &sources,
        &TyEnv::new(),
        &udfs,
        LowerOptions::default(),
    ) {
        Ok(chain) => chain,
        Err(e) => return compile_error(&format!("steno!: {e}")),
    };
    let chain = passes::optimize(&chain);
    let imp = match generate(&chain) {
        Ok(imp) => imp,
        Err(e) => return compile_error(&format!("steno!: {e}")),
    };
    // Reject programs whose rendering would not be valid Rust.
    for stmts in &imp.blocks {
        for s in stmts {
            if let steno_codegen::Stmt::DeclSink {
                decl:
                    steno_codegen::SinkDecl::SortedVec { .. } | steno_codegen::SinkDecl::DistinctVec,
                ..
            } = s
            {
                return compile_error(
                    "steno!: OrderBy/Distinct are only supported by the \
                     runtime pipeline (steno::Steno)",
                );
            }
        }
    }
    let body = render_rust(&imp);
    if body.contains("seq<") || body.contains(": row") {
        return compile_error(
            "steno!: this query materializes sequence-typed intermediates, \
             which the compile-time backend does not support; use the \
             runtime pipeline (steno::Steno)",
        );
    }
    // Generated code is machine-shaped (indexed loops, explicit
    // accumulator assignments): exempt it from style lints, as the C#
    // compiler does for its own generated iterators.
    let wrapped = format!(
        "{{ #[allow(unused_imports, clippy::all)] let __steno_result = (|| {{\n\
         use ::steno::rt::{{Lookup, GroupAggTable, min_total, max_total}};\n{body}}})(); __steno_result }}"
    );
    match wrapped.parse() {
        Ok(ts) => ts,
        Err(e) => compile_error(&format!(
            "steno!: generated code failed to re-parse ({e}); generated:\n{body}"
        )),
    }
}

/// Collects named sources lacking a type annotation.
fn collect_unannotated(
    q: &steno_query::QueryExpr,
    sources: &SourceTypes,
    out: &mut Vec<String>,
) {
    use steno_query::{QBody, QueryExpr, SourceRef};
    if let QueryExpr::Source(SourceRef::Named(name)) = q {
        if sources.get(name).is_none() && !out.contains(name) {
            out.push(name.clone());
        }
    }
    if let Some(input) = q.input() {
        collect_unannotated(input, sources, out);
    }
    // Nested queries inside operator functions.
    match q {
        QueryExpr::Select { f, .. } | QueryExpr::Where { p: f, .. } | QueryExpr::SelectMany { f, .. } => {
            if let QBody::Query(sub) = &f.body {
                collect_unannotated(sub, sources, out);
            }
        }
        QueryExpr::GroupBy {
            result: Some(r), ..
        } => collect_unannotated(&r.agg_query, sources, out),
        QueryExpr::Join { inner, .. } => collect_unannotated(inner, sources, out),
        _ => {}
    }
}
