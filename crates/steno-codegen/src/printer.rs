//! Rendering generated programs as Rust source.
//!
//! The paper builds a C# AST with CodeDOM and hands it to `csc`; this
//! printer is the equivalent emitter. Its output is valid, readable Rust
//! (modulo the small `Lookup`/`GroupAggTable` runtime helpers, and the
//! `min_total`/`max_total` functions that give `min`/`max` the engine's
//! `total_cmp` order), and it is
//! exactly what the `steno!` proc macro splices into the caller's crate —
//! so the printed text is not documentation, it is the compile-time
//! backend.

use std::collections::HashSet;

use steno_expr::{Expr, Value};

use crate::imp::{BlockId, ImpProgram, LoopHeader, SinkDecl, Stmt, Terminal, Window};

/// A growing indented text buffer.
struct Writer {
    out: String,
    indent: usize,
}

impl Writer {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }
}

fn lit_f64(x: f64) -> String {
    if x == f64::INFINITY {
        "f64::INFINITY".into()
    } else if x == f64::NEG_INFINITY {
        "f64::NEG_INFINITY".into()
    } else if x.is_nan() {
        "f64::NAN".into()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

fn value_literal(v: &Value) -> String {
    match v {
        Value::F64(x) => lit_f64(*x),
        Value::I64(x) => format!("{x}i64"),
        Value::Bool(b) => format!("{b}"),
        other => format!("/* const */ {other}"),
    }
}

/// Renders an expression as Rust source.
pub fn render_expr(e: &Expr) -> String {
    use steno_expr::expr::{BinOp, UnOp};
    match e {
        Expr::Var(v) => v.clone(),
        Expr::LitF64(x) => lit_f64(*x),
        Expr::LitI64(x) => format!("{x}"),
        Expr::LitBool(b) => format!("{b}"),
        Expr::Bin(BinOp::Min, a, b) => format!("min_total({}, {})", render_expr(a), render_expr(b)),
        Expr::Bin(BinOp::Max, a, b) => format!("max_total({}, {})", render_expr(a), render_expr(b)),
        Expr::Bin(op, a, b) => format!("({} {} {})", render_expr(a), op.symbol(), render_expr(b)),
        Expr::Un(UnOp::Neg, a) => format!("(-{})", render_expr(a)),
        Expr::Un(UnOp::Not, a) => format!("(!{})", render_expr(a)),
        Expr::Un(op, a) => format!("{}.{}()", render_expr(a), op.symbol()),
        Expr::Call(f, args) => {
            let args: Vec<String> = args.iter().map(render_expr).collect();
            format!("{f}({})", args.join(", "))
        }
        Expr::Field(a, i) => format!("{}.{i}", render_expr(a)),
        Expr::RowIndex(a, i) => format!("{}[{} as usize]", render_expr(a), render_expr(i)),
        Expr::RowLen(a) => format!("({}.len() as i64)", render_expr(a)),
        Expr::MkPair(a, b) => format!("({}, {})", render_expr(a), render_expr(b)),
        Expr::If(c, t, els) => format!(
            "if {} {{ {} }} else {{ {} }}",
            render_expr(c),
            render_expr(t),
            render_expr(els)
        ),
        Expr::Cast(ty, a) => format!("({} as {ty})", render_expr(a)),
    }
}

/// The index range of a windowed loop over `len` elements:
/// `lo..len`, or `lo..hi.min(len)` when the window has an end.
fn index_range(w: Window, len: &str) -> String {
    match w.end() {
        None => format!("{}..{len}", w.skip),
        Some(hi) => format!("{}..{hi}usize.min({len})", w.skip),
    }
}

/// The window of a loop over a statically known `count` of elements,
/// clipped to it.
fn static_range(w: Window, count: usize) -> (usize, usize) {
    let hi = w.end().map_or(count, |hi| hi.min(count));
    (w.skip.min(hi), hi)
}

fn collect_assigned(p: &ImpProgram, id: BlockId, out: &mut HashSet<String>) {
    for stmt in p.block(id) {
        match stmt {
            Stmt::Assign { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::BlockRef(b) => collect_assigned(p, *b, out),
            Stmt::For { body, .. } => collect_assigned(p, *body, out),
            Stmt::If { then, els, .. } => {
                for s in then.iter().chain(els) {
                    if let Stmt::Assign { name, .. } = s {
                        out.insert(name.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

fn render_inline(w: &mut Writer, stmts: &[Stmt], assigned: &HashSet<String>, p: &ImpProgram) {
    for s in stmts {
        render_stmt(w, s, assigned, p);
    }
}

fn render_stmt(w: &mut Writer, stmt: &Stmt, assigned: &HashSet<String>, p: &ImpProgram) {
    match stmt {
        Stmt::Decl { name, ty, init } => {
            let mutability = if assigned.contains(name) { "mut " } else { "" };
            w.line(&format!(
                "let {mutability}{name}: {ty} = {};",
                render_expr(init)
            ));
        }
        Stmt::Assign { name, expr } => w.line(&format!("{name} = {};", render_expr(expr))),
        Stmt::For {
            header,
            elem_var,
            body,
            window,
        } => {
            match header {
                LoopHeader::Source { name, .. } => {
                    // Indexed access "enables the compiler to hoist the
                    // array bounds check" (§4.2).
                    let range = index_range(*window, &format!("{name}.len()"));
                    w.line(&format!("for __i in {range} {{"));
                    w.indent += 1;
                    w.line(&format!("let {elem_var} = {name}[__i];"));
                }
                LoopHeader::Range { start, count } => {
                    let (lo, hi) = static_range(*window, *count);
                    w.line(&format!("for __i in {lo}..{hi}usize {{"));
                    w.indent += 1;
                    w.line(&format!("let {elem_var} = {start}i64 + __i as i64;"));
                }
                LoopHeader::Repeat { value, count } => {
                    let (lo, hi) = static_range(*window, *count);
                    w.line(&format!("for __i in {lo}..{hi}usize {{"));
                    w.indent += 1;
                    w.line(&format!("let {elem_var} = {};", value_literal(value)));
                }
                LoopHeader::SeqExpr { expr, .. } => {
                    w.line(&format!("let __seq = {};", render_expr(expr)));
                    let range = index_range(*window, "__seq.len()");
                    w.line(&format!("for __i in {range} {{"));
                    w.indent += 1;
                    w.line(&format!("let {elem_var} = __seq[__i];"));
                }
                LoopHeader::Sink { name, .. } => {
                    let mut iter = format!("{name}.iter()");
                    if window.skip > 0 {
                        iter.push_str(&format!(".skip({})", window.skip));
                    }
                    if let Some(t) = window.take {
                        iter.push_str(&format!(".take({t})"));
                    }
                    w.line(&format!("for {elem_var} in {iter} {{"));
                    w.indent += 1;
                }
            }
            render_inline(w, &p.flatten(*body), assigned, p);
            w.indent -= 1;
            w.line("}");
        }
        Stmt::IfNotContinue { cond } => {
            w.line(&format!("if !{} {{ continue; }}", render_expr(cond)));
        }
        Stmt::IfBreak { cond } => match cond {
            Expr::Un(steno_expr::expr::UnOp::Not, c) => {
                w.line(&format!("if !{} {{ break; }}", render_expr(c)));
            }
            _ => w.line(&format!("if {} {{ break; }}", render_expr(cond))),
        },
        Stmt::If { cond, then, els } => {
            w.line(&format!("if {} {{", render_expr(cond)));
            w.indent += 1;
            render_inline(w, then, assigned, p);
            w.indent -= 1;
            if els.is_empty() {
                w.line("}");
            } else {
                w.line("} else {");
                w.indent += 1;
                render_inline(w, els, assigned, p);
                w.indent -= 1;
                w.line("}");
            }
        }
        Stmt::Continue => w.line("continue;"),
        Stmt::DeclSink { name, decl } => match decl {
            SinkDecl::Group => w.line(&format!("let mut {name} = Lookup::new();")),
            SinkDecl::GroupAgg { init, .. } => w.line(&format!(
                "let mut {name} = GroupAggTable::new({});",
                render_expr(init)
            )),
            SinkDecl::SortedVec { .. } => {
                w.line(&format!("let mut {name} = Vec::new(); // sorted at seal"))
            }
            SinkDecl::DistinctVec => w.line(&format!(
                "let mut {name} = Vec::new(); let mut {name}_seen = HashSet::new();"
            )),
            SinkDecl::Vec => w.line(&format!("let mut {name} = Vec::new();")),
        },
        Stmt::GroupPut { sink, key, value } => {
            // Fig. 7(b): sink = sink.put(key, elem).
            w.line(&format!(
                "{sink} = {sink}.put({}, {});",
                render_expr(key),
                render_expr(value)
            ));
        }
        Stmt::GroupAggUpdate {
            sink,
            key,
            acc_param,
            elem_param,
            value,
            update,
        } => {
            w.line(&format!(
                "{sink}.update({}, |{acc_param}| {{ let {elem_param} = {}; {} }});",
                render_expr(key),
                render_expr(value),
                render_expr(update)
            ));
        }
        Stmt::SinkPush { sink, value, key } => match key {
            Some(k) => w.line(&format!(
                "{sink}.push(({}, {}));",
                render_expr(k),
                render_expr(value)
            )),
            None => w.line(&format!("{sink}.push({});", render_expr(value))),
        },
        Stmt::SinkSeal { sink } => {
            w.line(&format!("{sink}.sort_by(|a, b| a.0.total_cmp(&b.0));"));
        }
        Stmt::Yield { value } => w.line(&format!("__out.push({});", render_expr(value))),
        Stmt::Return { value } => w.line(&format!("return {};", render_expr(value))),
        Stmt::ReturnSink { sink } => w.line(&format!("return {sink};")),
        Stmt::BlockRef(b) => render_inline(w, &p.flatten(*b), assigned, p),
    }
}

/// Renders the whole program as a Rust function body.
///
/// The `steno!` macro emits this text verbatim inside a block expression;
/// it is also useful for inspecting what Steno generated (the `Steno
/// .Sum()` column of Fig. 1 is running exactly this code).
pub fn render_rust(p: &ImpProgram) -> String {
    let mut assigned = HashSet::new();
    collect_assigned(p, p.root, &mut assigned);
    let mut w = Writer {
        out: String::new(),
        indent: 0,
    };
    match &p.terminal {
        Terminal::Scalar(ty) => w.line(&format!("// -> {ty}")),
        Terminal::Sequence(ty) => {
            w.line(&format!("// -> Vec<{ty}>"));
            w.line("let mut __out = Vec::new();");
        }
    }
    render_inline(&mut w, &p.flatten(p.root), &assigned, p);
    if matches!(p.terminal, Terminal::Sequence(_)) {
        w.line("return __out;");
    }
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use steno_expr::{Ty, UdfRegistry};
    use steno_query::typing::SourceTypes;
    use steno_query::Query;
    use steno_quil::lower;

    fn render(q: steno_query::QueryExpr) -> String {
        let srcs = SourceTypes::new().with("xs", Ty::F64).with("ys", Ty::F64);
        let chain = lower(&q, &srcs, &UdfRegistry::new()).unwrap();
        render_rust(&generate(&chain).unwrap())
    }

    #[test]
    fn sum_of_squares_prints_a_simple_loop() {
        let text = render(
            Query::source("xs")
                .select(Expr::var("x") * Expr::var("x"), "x")
                .sum()
                .build(),
        );
        assert!(text.contains("let mut agg_0: f64 = 0.0;"), "{text}");
        assert!(text.contains("for __i in 0..xs.len() {"), "{text}");
        assert!(text.contains("let elem_1: f64 = (elem_0 * elem_0);"), "{text}");
        assert!(text.contains("agg_0 = (agg_0 + elem_1);"), "{text}");
        assert!(text.contains("return agg_0;"), "{text}");
    }

    #[test]
    fn average_prints_scalar_replaced_accumulator() {
        let text = render(Query::source("xs").average().build());
        assert_eq!(
            text,
            "\
// -> f64
let mut agg_1: f64 = 0.0;
let mut agg_2: i64 = 0;
for __i in 0..xs.len() {
    let elem_0 = xs[__i];
    agg_1 = (agg_1 + elem_0);
    agg_2 = (agg_2 + 1);
}
return (agg_1 / (agg_2 as f64));
"
        );
    }

    #[test]
    fn filter_prints_continue_guard() {
        let text = render(
            Query::source("xs")
                .where_(Expr::var("x").gt(Expr::litf(0.0)), "x")
                .build(),
        );
        assert!(text.contains("if !(elem_0 > 0.0) { continue; }"), "{text}");
        assert!(text.contains("__out.push(elem_0);"), "{text}");
        assert!(text.contains("return __out;"), "{text}");
    }

    #[test]
    fn nested_query_prints_nested_loops() {
        let text = render(
            Query::source("xs")
                .select_many(
                    Query::source("ys").select(Expr::var("x") * Expr::var("y"), "y"),
                    "x",
                )
                .sum()
                .build(),
        );
        // Two loops, multiply innermost, single aggregate.
        assert_eq!(text.matches("for __i in").count(), 2, "{text}");
        assert!(text.contains("(elem_0 * elem_1)"), "{text}");
        let agg_pos = text.find("agg_0 = ").unwrap();
        let inner_loop_pos = text.find("0..ys.len()").unwrap();
        assert!(agg_pos > inner_loop_pos, "aggregate inside inner loop");
    }

    #[test]
    fn windowed_loop_prints_an_index_range() {
        let text = render(Query::source("xs").skip(2).take(3).sum().build());
        assert_eq!(
            text,
            "\
// -> f64
let mut agg_0: f64 = 0.0;
for __i in 2..5usize.min(xs.len()) {
    let elem_0 = xs[__i];
    agg_0 = (agg_0 + elem_0);
}
return agg_0;
"
        );
    }

    #[test]
    fn take_while_prints_a_break() {
        let text = render(
            Query::source("xs")
                .take_while(Expr::var("x").lt(Expr::litf(2.0)), "x")
                .build(),
        );
        assert_eq!(
            text,
            "\
// -> Vec<f64>
let mut __out = Vec::new();
for __i in 0..xs.len() {
    let elem_0 = xs[__i];
    if !(elem_0 < 2.0) { break; }
    __out.push(elem_0);
}
return __out;
"
        );
    }

    #[test]
    fn infinities_print_as_constants() {
        let text = render(Query::source("xs").min().build());
        assert!(text.contains("f64::INFINITY"), "{text}");
    }

    #[test]
    fn min_and_max_print_in_total_order() {
        assert_eq!(
            render(Query::source("xs").min().build()),
            "\
// -> f64
let mut agg_0: f64 = f64::INFINITY;
for __i in 0..xs.len() {
    let elem_0 = xs[__i];
    agg_0 = min_total(agg_0, elem_0);
}
return agg_0;
"
        );
        let e = Expr::var("x").max(Expr::LitF64(0.0)).min(Expr::var("y"));
        assert_eq!(render_expr(&e), "min_total(max_total(x, 0.0), y)");
    }
}
