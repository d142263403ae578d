//! Recursive-descent parsing of comprehensions, method chains and
//! expressions.

use std::fmt;

use steno_expr::{BinOp, Expr, Ty, UnOp};
use steno_query::{QBody, QFn, QFn2, Query, QueryExpr, SourceRef};

use crate::lexer::{lex, LexError, Token};

/// A parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Token position of the failure.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            position: 0,
            message: e.to_string(),
        }
    }
}

/// Element types discovered from `from x: f64 in xs` annotations: one
/// entry per *named* source. Used by the `steno!` macro, where no data
/// context exists to infer from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Binders {
    /// `(source name, element type)` in first-appearance order.
    pub source_types: Vec<(String, Ty)>,
}

impl Binders {
    fn record(&mut self, name: &str, ty: Option<Ty>) {
        if let Some(ty) = ty {
            if !self.source_types.iter().any(|(n, _)| n == name) {
                self.source_types.push((name.to_string(), ty));
            }
        }
    }
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Names bound by enclosing binders (comprehension or lambda).
    bound: Vec<String>,
    binders: Binders,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.toks.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == *tok => Ok(()),
            Some(t) => Err(ParseError {
                position: self.pos - 1,
                message: format!("expected `{tok}`, found `{t}`"),
            }),
            None => Err(self.error(format!("expected `{tok}`, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(ParseError {
                position: self.pos - 1,
                message: format!("expected identifier, found `{t}`"),
            }),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    fn parse_query(&mut self) -> Result<QueryExpr, ParseError> {
        let q = self.parse_primary_query()?;
        self.parse_method_suffixes(q)
    }

    fn parse_method_suffixes(&mut self, mut q: QueryExpr) -> Result<QueryExpr, ParseError> {
        while matches!(self.peek(), Some(Token::Dot))
            && matches!(self.peek2(), Some(Token::Ident(_)))
        {
            let save = self.pos;
            self.pos += 1; // dot
            let method = self.expect_ident()?;
            if !matches!(self.peek(), Some(Token::LParen)) {
                // Not a call — probably field access on an expression;
                // let the caller deal with it.
                self.pos = save;
                break;
            }
            q = self.parse_method(q, &method)?;
        }
        Ok(q)
    }

    /// `true` when the upcoming tokens are `.method(` for a query method
    /// (for `min`/`max`, only the zero-argument or lambda-argument forms,
    /// since those names double as scalar expression methods).
    fn at_query_method_dot(&self) -> bool {
        let (Some(Token::Dot), Some(Token::Ident(m)), Some(Token::LParen)) = (
            self.peek(),
            self.peek2(),
            self.toks.get(self.pos + 2),
        ) else {
            return false;
        };
        if !is_query_method(m) {
            return false;
        }
        if matches!(normalize_method(m).as_str(), "min" | "max") {
            // xs.min() / xs.min(|x| ...) are query aggregates;
            // e.min(other) is the scalar expression method.
            matches!(
                self.toks.get(self.pos + 3),
                Some(Token::RParen) | Some(Token::Pipe)
            ) || matches!(
                (self.toks.get(self.pos + 3), self.toks.get(self.pos + 4)),
                (Some(Token::Ident(_)), Some(Token::FatArrow))
            )
        } else {
            true
        }
    }

    fn parse_primary_query(&mut self) -> Result<QueryExpr, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == "from" => self.parse_comprehension(),
            Some(Token::Ident(s)) if s == "range" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let start = self.parse_int()?;
                self.expect(&Token::Comma)?;
                let count = self.parse_int()?;
                self.expect(&Token::RParen)?;
                if count < 0 {
                    return Err(self.error("range count must be non-negative"));
                }
                Ok(QueryExpr::Source(SourceRef::Range {
                    start,
                    count: count as usize,
                }))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let q = self.parse_query()?;
                self.expect(&Token::RParen)?;
                Ok(q)
            }
            Some(Token::Ident(_)) => {
                // A source reference: a bound variable is a sequence
                // expression; anything else names a context source.
                let save = self.pos;
                let e = self.parse_expr()?;
                match &e {
                    Expr::Var(name) if !self.bound.contains(name) => {
                        Ok(QueryExpr::Source(SourceRef::Named(name.clone())))
                    }
                    _ => {
                        let _ = save;
                        Ok(QueryExpr::Source(SourceRef::Expr(e)))
                    }
                }
            }
            other => Err(self.error(format!("expected a query, found {other:?}"))),
        }
    }

    fn parse_binder(&mut self) -> Result<(String, Option<Ty>), ParseError> {
        let name = self.expect_ident()?;
        let ty = if matches!(self.peek(), Some(Token::Colon)) {
            self.pos += 1;
            Some(self.parse_ty()?)
        } else {
            None
        };
        Ok((name, ty))
    }

    fn parse_ty(&mut self) -> Result<Ty, ParseError> {
        let name = self.expect_ident()?;
        match name.as_str() {
            "f64" => Ok(Ty::F64),
            "i64" => Ok(Ty::I64),
            "bool" => Ok(Ty::Bool),
            "row" => Ok(Ty::Row),
            other => Err(self.error(format!("unknown element type `{other}`"))),
        }
    }

    /// `from x[: ty] in src <clauses> (select e | group e by k)`.
    fn parse_comprehension(&mut self) -> Result<QueryExpr, ParseError> {
        self.expect(&Token::Ident("from".into()))?;
        let (binder, ty) = self.parse_binder()?;
        self.expect(&Token::Ident("in".into()))?;
        let src = self.parse_primary_query()?;
        if let QueryExpr::Source(SourceRef::Named(name)) = &src {
            self.binders.record(name, ty);
        }
        self.bound.push(binder.clone());
        let result = self.parse_comprehension_rest(src, &binder);
        self.bound.pop();
        result
    }

    /// Clauses after a binder is in scope, applied to `chain`.
    fn parse_comprehension_rest(
        &mut self,
        mut chain: QueryExpr,
        binder: &str,
    ) -> Result<QueryExpr, ParseError> {
        loop {
            if self.eat_keyword("where") {
                let p = self.parse_expr()?;
                chain = QueryExpr::Where {
                    input: Box::new(chain),
                    p: QFn::expr(binder, p),
                };
            } else if self.at_keyword("from") {
                // A second generator: the rest of the comprehension
                // becomes a nested query under SelectMany (the C#
                // desugaring of multiple `from` clauses).
                self.pos += 1;
                let (inner_binder, ty) = self.parse_binder()?;
                self.expect(&Token::Ident("in".into()))?;
                let src = self.parse_primary_query()?;
                if let QueryExpr::Source(SourceRef::Named(name)) = &src {
                    self.binders.record(name, ty);
                }
                self.bound.push(inner_binder.clone());
                let nested = self.parse_comprehension_rest(src, &inner_binder);
                self.bound.pop();
                return Ok(QueryExpr::SelectMany {
                    input: Box::new(chain),
                    f: QFn {
                        param: binder.to_string(),
                        body: QBody::Query(Box::new(nested?)),
                    },
                });
            } else if self.eat_keyword("orderby") {
                let key = self.parse_expr()?;
                let descending = self.eat_keyword("descending");
                let _ = self.eat_keyword("ascending");
                chain = QueryExpr::OrderBy {
                    input: Box::new(chain),
                    key: QFn::expr(binder, key),
                    descending,
                };
            } else if self.eat_keyword("select") {
                let e = self.parse_lambda_body_with(binder)?;
                // `select x` over the binder itself is the identity.
                if let QBody::Expr(Expr::Var(v)) = &e {
                    if v == binder {
                        return Ok(chain);
                    }
                }
                return Ok(QueryExpr::Select {
                    input: Box::new(chain),
                    f: QFn {
                        param: binder.to_string(),
                        body: e,
                    },
                });
            } else if self.eat_keyword("group") {
                let elem = self.parse_expr()?;
                self.expect(&Token::Ident("by".into()))?;
                let key = self.parse_expr()?;
                let elem = if elem == Expr::var(binder) {
                    None
                } else {
                    Some(QFn::expr(binder, elem))
                };
                return Ok(QueryExpr::GroupBy {
                    input: Box::new(chain),
                    key: QFn::expr(binder, key),
                    elem,
                    result: None,
                });
            } else {
                return Err(self.error(format!(
                    "expected a query clause, found {:?}",
                    self.peek()
                )));
            }
        }
    }

    /// A lambda body that may itself be a query (nested queries, §5).
    fn parse_lambda_body_with(&mut self, _binder: &str) -> Result<QBody, ParseError> {
        self.parse_qbody()
    }

    fn looks_like_query(&self) -> bool {
        match self.peek() {
            Some(Token::Ident(s)) if s == "from" || s == "range" => true,
            Some(Token::LParen) => {
                matches!(self.peek2(), Some(Token::Ident(s)) if s == "from")
            }
            Some(Token::Ident(_)) => {
                // ident.method( ... where method is a query operator.
                if let (Some(Token::Dot), Some(Token::Ident(m))) =
                    (self.peek2(), self.toks.get(self.pos + 2))
                {
                    matches!(self.toks.get(self.pos + 3), Some(Token::LParen))
                        && is_query_method(m)
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn parse_qbody(&mut self) -> Result<QBody, ParseError> {
        if self.looks_like_query() {
            let save = self.pos;
            match self.parse_query() {
                // An expression source with no operators is just an
                // expression (e.g. `x.min(3.0) * 2.0` probed as a query):
                // fall through to the expression parse.
                Ok(QueryExpr::Source(SourceRef::Expr(_))) => self.pos = save,
                Ok(q) => return Ok(QBody::Query(Box::new(q))),
                Err(_) => self.pos = save,
            }
        }
        let e = self.parse_expr()?;
        // `kv.1.sum()`: an expression source followed by query methods.
        if self.at_query_method_dot() {
            let src = match &e {
                Expr::Var(name) if !self.bound.contains(name) => {
                    QueryExpr::Source(SourceRef::Named(name.clone()))
                }
                _ => QueryExpr::Source(SourceRef::Expr(e)),
            };
            let q = self.parse_method_suffixes(src)?;
            return Ok(QBody::Query(Box::new(q)));
        }
        Ok(QBody::Expr(e))
    }

    fn parse_int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Token::Int(x)) => Ok(x),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(x)) => Ok(-x),
                other => Err(self.error(format!("expected integer, found {other:?}"))),
            },
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    /// `|x| body` or `x => body`. Returns the parameter, an optional
    /// type annotation (`|x: f64| ...`), and the body.
    fn parse_lambda(&mut self) -> Result<(String, Option<Ty>, QBody), ParseError> {
        match self.peek() {
            Some(Token::Pipe) => {
                self.pos += 1;
                let (param, ty) = self.parse_binder()?;
                self.expect(&Token::Pipe)?;
                self.bound.push(param.clone());
                let body = self.parse_qbody();
                self.bound.pop();
                Ok((param, ty, body?))
            }
            Some(Token::Ident(_)) if matches!(self.peek2(), Some(Token::FatArrow)) => {
                let param = self.expect_ident()?;
                self.expect(&Token::FatArrow)?;
                self.bound.push(param.clone());
                let body = self.parse_qbody();
                self.bound.pop();
                Ok((param, None, body?))
            }
            other => Err(self.error(format!("expected a lambda, found {other:?}"))),
        }
    }

    /// The named source of a chain of element-type-preserving operators,
    /// if any: a lambda annotation on such a chain also types the source.
    fn preserving_source(q: &QueryExpr) -> Option<&String> {
        match q {
            QueryExpr::Source(SourceRef::Named(n)) => Some(n),
            QueryExpr::Where { input, .. }
            | QueryExpr::Take { input, .. }
            | QueryExpr::Skip { input, .. }
            | QueryExpr::TakeWhile { input, .. }
            | QueryExpr::SkipWhile { input, .. }
            | QueryExpr::OrderBy { input, .. }
            | QueryExpr::Distinct { input }
            | QueryExpr::ToVec { input } => Self::preserving_source(input),
            _ => None,
        }
    }

    fn parse_lambda2(&mut self) -> Result<QFn2, ParseError> {
        self.expect(&Token::Pipe)?;
        let (a, _) = self.parse_binder()?;
        self.expect(&Token::Comma)?;
        let (b, _) = self.parse_binder()?;
        self.expect(&Token::Pipe)?;
        self.bound.push(a.clone());
        self.bound.push(b.clone());
        let body = self.parse_expr();
        self.bound.pop();
        self.bound.pop();
        Ok(QFn2::new(a, b, body?))
    }

    fn lambda_expr(&mut self, method: &str) -> Result<(String, Option<Ty>, Expr), ParseError> {
        let (param, ty, body) = self.parse_lambda()?;
        match body {
            QBody::Expr(e) => Ok((param, ty, e)),
            QBody::Query(_) => Err(self.error(format!(
                "`{method}` does not accept a query-bodied lambda"
            ))),
        }
    }

    fn record_annotation(&mut self, input: &QueryExpr, ty: &Option<Ty>) {
        if let (Some(name), Some(ty)) = (Self::preserving_source(input), ty) {
            let name = name.clone();
            self.binders.record(&name, Some(ty.clone()));
        }
    }

    fn parse_method(&mut self, input: QueryExpr, method: &str) -> Result<QueryExpr, ParseError> {
        self.expect(&Token::LParen)?;
        let q = Query::from_expr(input);
        let input_snapshot = q.as_raw().clone();
        let out = match normalize_method(method).as_str() {
            "select" => {
                if let Some(grouped) = self.try_group_result_select(&input_snapshot)? {
                    self.expect(&Token::RParen)?;
                    return Ok(grouped);
                }
                let (param, ty, body) = self.parse_lambda()?;
                self.record_annotation(&input_snapshot, &ty);
                match body {
                    QBody::Expr(e) => q.select(e, param),
                    QBody::Query(sub) => q.select_query(Query::from_expr(*sub), param),
                }
            }
            "where" => {
                let (param, ty, body) = self.parse_lambda()?;
                self.record_annotation(&input_snapshot, &ty);
                match body {
                    QBody::Expr(e) => q.where_(e, param),
                    QBody::Query(sub) => Query::from_expr(QueryExpr::Where {
                        input: Box::new(q.build_raw()),
                        p: QFn {
                            param,
                            body: QBody::Query(sub),
                        },
                    }),
                }
            }
            "selectmany" => {
                let (param, ty, body) = self.parse_lambda()?;
                self.record_annotation(&input_snapshot, &ty);
                match body {
                    QBody::Query(sub) => q.select_many(Query::from_expr(*sub), param),
                    QBody::Expr(e) => q.select_many_expr(e, param),
                }
            }
            "take" => {
                let n = self.parse_int()?;
                q.take(n.max(0) as usize)
            }
            "skip" => {
                let n = self.parse_int()?;
                q.skip(n.max(0) as usize)
            }
            "takewhile" => {
                let (param, ty, e) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                q.take_while(e, param)
            }
            "skipwhile" => {
                let (param, ty, e) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                q.skip_while(e, param)
            }
            "orderby" => {
                let (param, ty, e) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                q.order_by(e, param)
            }
            "orderbydescending" => {
                let (param, ty, e) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                q.order_by_desc(e, param)
            }
            "distinct" => q.distinct(),
            "toarray" | "tovec" | "tolist" => q.to_vec(),
            "groupby" => {
                let (param, ty, key) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    let (p2, _, elem) = self.lambda_expr(method)?;
                    let elem = steno_expr::subst::rename(&elem, &p2, &param);
                    q.group_by_elem(key, elem, param)
                } else {
                    q.group_by(key, param)
                }
            }
            "sum" => self.opt_selector(q, method)?.sum(),
            "min" => self.opt_selector(q, method)?.min(),
            "max" => self.opt_selector(q, method)?.max(),
            "average" => self.opt_selector(q, method)?.average(),
            "count" => {
                if matches!(self.peek(), Some(Token::RParen)) {
                    q.count()
                } else {
                    let (param, ty, e) = self.lambda_expr(method)?;
                    self.record_annotation(&input_snapshot, &ty);
                    q.count_by(e, param)
                }
            }
            "any" => {
                if matches!(self.peek(), Some(Token::RParen)) {
                    q.any()
                } else {
                    let (param, ty, e) = self.lambda_expr(method)?;
                    self.record_annotation(&input_snapshot, &ty);
                    q.any_by(e, param)
                }
            }
            "all" => {
                let (param, ty, e) = self.lambda_expr(method)?;
                self.record_annotation(&input_snapshot, &ty);
                q.all_by(e, param)
            }
            "first" | "firstordefault" => q.first(),
            "join" => {
                let inner = self.parse_primary_query()?;
                self.expect(&Token::Comma)?;
                let (op, _, ok) = self.lambda_expr(method)?;
                self.expect(&Token::Comma)?;
                let (ip, _, ik) = self.lambda_expr(method)?;
                self.expect(&Token::Comma)?;
                let r = self.parse_lambda2()?;
                Query::from_expr(QueryExpr::Join {
                    input: Box::new(q.build_raw()),
                    inner: Box::new(inner),
                    outer_key: QFn::expr(op, ok),
                    inner_key: QFn::expr(ip, ik),
                    result: r,
                })
            }
            "aggregate" => {
                let seed = self.parse_expr()?;
                self.expect(&Token::Comma)?;
                let f = self.parse_lambda2()?;
                Query::from_expr(QueryExpr::Aggregate {
                    input: Box::new(q.build_raw()),
                    seed,
                    func: f,
                    combine: None,
                })
            }
            other => return Err(self.error(format!("unknown query method `{other}`"))),
        };
        self.expect(&Token::RParen)?;
        Ok(out.build_raw())
    }

    fn opt_selector(&mut self, q: Query, method: &str) -> Result<Query, ParseError> {
        if matches!(self.peek(), Some(Token::RParen)) {
            Ok(q)
        } else {
            let input_snapshot = q.as_raw().clone();
            let (param, ty, e) = self.lambda_expr(method)?;
            self.record_annotation(&input_snapshot, &ty);
            Ok(q.select(e, param))
        }
    }

    /// Recognizes `groupBy(key).select(|kv| (<key expr>, <agg over kv.1>))`
    /// — the aggregating result-selector overload of §4.3 — and rewrites
    /// it into `GroupBy` with a [`GroupResult`]. Returns `Ok(None)` (with
    /// the position unchanged) when the lambda is not of that shape.
    fn try_group_result_select(
        &mut self,
        input: &QueryExpr,
    ) -> Result<Option<QueryExpr>, ParseError> {
        if !matches!(input, QueryExpr::GroupBy { result: None, .. }) {
            return Ok(None);
        }
        let save = self.pos;
        let attempt = (|| -> Result<Option<QueryExpr>, ParseError> {
            // |kv| ( key_expr , agg_query )
            let param = match self.peek() {
                Some(Token::Pipe) => {
                    self.pos += 1;
                    let (param, _) = self.parse_binder()?;
                    self.expect(&Token::Pipe)?;
                    param
                }
                Some(Token::Ident(_)) if matches!(self.peek2(), Some(Token::FatArrow)) => {
                    let param = self.expect_ident()?;
                    self.expect(&Token::FatArrow)?;
                    param
                }
                _ => return Ok(None),
            };
            if !matches!(self.peek(), Some(Token::LParen)) {
                return Ok(None);
            }
            self.pos += 1;
            self.bound.push(param.clone());
            let first = self.parse_expr()?;
            if !matches!(self.peek(), Some(Token::Comma)) {
                self.bound.pop();
                return Ok(None);
            }
            self.pos += 1;
            let second = self.parse_qbody()?;
            self.bound.pop();
            self.expect(&Token::RParen)?;
            let QBody::Query(agg_query) = second else {
                return Ok(None);
            };
            // Rewrite: kv.0 → __k in the result; source kv.1 → __g.
            let Some(result_key) = rewrite_key_projection(&first, &param, "__k") else {
                return Ok(None);
            };
            let Some(rebased) = rebase_group_source(&agg_query, &param, "__g") else {
                return Ok(None);
            };
            let QueryExpr::GroupBy {
                input: gi,
                key,
                elem,
                result: None,
            } = input.clone()
            else {
                unreachable!("checked above");
            };
            Ok(Some(QueryExpr::GroupBy {
                input: gi,
                key,
                elem,
                result: Some(steno_query::GroupResult {
                    key_param: "__k".into(),
                    group_param: "__g".into(),
                    agg_query: Box::new(rebased),
                    agg_param: "__a".into(),
                    result: Expr::mk_pair(result_key, Expr::var("__a")),
                }),
            }))
        })();
        match attempt {
            Ok(Some(q)) => Ok(Some(q)),
            Ok(None) => {
                self.pos = save;
                Ok(None)
            }
            Err(_) => {
                self.pos = save;
                Ok(None)
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing).
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Token::OrOr)) {
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while matches!(self.peek(), Some(Token::AndAnd)) {
            self.pos += 1;
            let rhs = self.parse_cmp()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::NotEq) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.parse_add()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(-self.parse_unary()?)
            }
            Some(Token::Bang) => {
                self.pos += 1;
                Ok(self.parse_unary()?.not())
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Some(Token::Dot) => {
                    // Query operators are handled one level up: stop the
                    // expression here so `xs.where(...)` and `kv.1.sum()`
                    // hand the method chain back to the query parser.
                    if self.at_query_method_dot() {
                        return Ok(e);
                    }
                    self.pos += 1;
                    match self.next() {
                        Some(Token::Int(i)) => {
                            if i != 0 && i != 1 {
                                return Err(self.error("pair projection must be .0 or .1"));
                            }
                            e = e.field(i as usize);
                        }
                        Some(Token::Ident(m)) => {
                            self.expect(&Token::LParen)?;
                            e = match m.as_str() {
                                "sqrt" => {
                                    self.expect(&Token::RParen)?;
                                    e.sqrt()
                                }
                                "floor" => {
                                    self.expect(&Token::RParen)?;
                                    e.floor()
                                }
                                "abs" => {
                                    self.expect(&Token::RParen)?;
                                    e.abs()
                                }
                                "len" => {
                                    self.expect(&Token::RParen)?;
                                    e.row_len()
                                }
                                "min" => {
                                    let rhs = self.parse_expr()?;
                                    self.expect(&Token::RParen)?;
                                    e.min(rhs)
                                }
                                "max" => {
                                    let rhs = self.parse_expr()?;
                                    self.expect(&Token::RParen)?;
                                    e.max(rhs)
                                }
                                other => {
                                    return Err(self.error(format!(
                                        "unknown expression method `{other}`"
                                    )))
                                }
                            };
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected projection or method after `.`, found {other:?}"
                            )))
                        }
                    }
                }
                Some(Token::LBracket) => {
                    self.pos += 1;
                    let idx = self.parse_expr()?;
                    self.expect(&Token::RBracket)?;
                    e = e.row_index(idx);
                }
                Some(Token::Ident(s)) if s == "as" => {
                    self.pos += 1;
                    let ty = self.parse_ty()?;
                    e = e.cast(ty);
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(x)) => Ok(Expr::liti(x)),
            Some(Token::Float(x)) => Ok(Expr::litf(x)),
            Some(Token::Ident(s)) if s == "true" => Ok(Expr::litb(true)),
            Some(Token::Ident(s)) if s == "false" => Ok(Expr::litb(false)),
            Some(Token::Ident(s)) if s == "if" => {
                // if c { t } else { e } is not in the surface grammar;
                // use select-style conditionals via udf or min/max.
                Err(self.error("conditional expressions are not supported in query text"))
            }
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    // A user-defined function call.
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.parse_expr()?);
                            if matches!(self.peek(), Some(Token::Comma)) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::call(name, args))
                } else {
                    Ok(Expr::var(name))
                }
            }
            Some(Token::LParen) => {
                let first = self.parse_expr()?;
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    let second = self.parse_expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::mk_pair(first, second))
                } else {
                    self.expect(&Token::RParen)?;
                    Ok(first)
                }
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Rewrites every `param.0` to `key_var`, failing when `param` is used
/// any other way.
fn rewrite_key_projection(e: &Expr, param: &str, key_var: &str) -> Option<Expr> {
    match e {
        Expr::Field(inner, 0) if **inner == Expr::Var(param.to_string()) => {
            Some(Expr::var(key_var))
        }
        Expr::Var(v) if v == param => None,
        Expr::Var(_) | Expr::LitF64(_) | Expr::LitI64(_) | Expr::LitBool(_) => Some(e.clone()),
        Expr::Bin(op, a, b) => Some(Expr::bin(
            *op,
            rewrite_key_projection(a, param, key_var)?,
            rewrite_key_projection(b, param, key_var)?,
        )),
        Expr::Un(op, a) => Some(Expr::un(*op, rewrite_key_projection(a, param, key_var)?)),
        Expr::MkPair(a, b) => Some(Expr::mk_pair(
            rewrite_key_projection(a, param, key_var)?,
            rewrite_key_projection(b, param, key_var)?,
        )),
        Expr::Cast(ty, a) => Some(Expr::Cast(
            ty.clone(),
            Box::new(rewrite_key_projection(a, param, key_var)?),
        )),
        _ => None,
    }
}

/// Rewrites the root source `param.1` of a group-aggregation query to the
/// variable `group_var`, failing when the query references `param` in any
/// other position.
fn rebase_group_source(q: &QueryExpr, param: &str, group_var: &str) -> Option<QueryExpr> {
    match q {
        QueryExpr::Source(SourceRef::Expr(e)) => {
            if *e == Expr::var(param).field(1) {
                Some(QueryExpr::Source(SourceRef::Expr(Expr::var(group_var))))
            } else {
                None
            }
        }
        QueryExpr::Source(_) => None,
        other => {
            // Rebuild with the input rewritten; operator bodies must not
            // reference the pair parameter.
            let input = other.input()?;
            let rebased = rebase_group_source(input, param, group_var)?;
            let mut clone = other.clone();
            set_input(&mut clone, rebased);
            if format!("{clone}").contains(&format!("{param}.")) {
                return None;
            }
            Some(clone)
        }
    }
}

fn set_input(q: &mut QueryExpr, new_input: QueryExpr) {
    match q {
        QueryExpr::Source(_) => unreachable!("sources have no input"),
        QueryExpr::Select { input, .. }
        | QueryExpr::Where { input, .. }
        | QueryExpr::SelectMany { input, .. }
        | QueryExpr::Take { input, .. }
        | QueryExpr::Skip { input, .. }
        | QueryExpr::TakeWhile { input, .. }
        | QueryExpr::SkipWhile { input, .. }
        | QueryExpr::GroupBy { input, .. }
        | QueryExpr::OrderBy { input, .. }
        | QueryExpr::Distinct { input }
        | QueryExpr::ToVec { input }
        | QueryExpr::Concat { input, .. }
        | QueryExpr::Join { input, .. }
        | QueryExpr::Aggregate { input, .. }
        | QueryExpr::Agg { input, .. } => **input = new_input,
    }
}

fn normalize_method(m: &str) -> String {
    m.to_ascii_lowercase().replace('_', "")
}

fn is_query_method(m: &str) -> bool {
    matches!(
        normalize_method(m).as_str(),
        "select"
            | "where"
            | "selectmany"
            | "take"
            | "skip"
            | "takewhile"
            | "skipwhile"
            | "orderby"
            | "orderbydescending"
            | "distinct"
            | "toarray"
            | "tovec"
            | "tolist"
            | "groupby"
            | "sum"
            | "min"
            | "max"
            | "count"
            | "average"
            | "any"
            | "all"
            | "first"
            | "firstordefault"
            | "aggregate"
            | "join"
    )
}

/// Extension used internally: `Query::build` canonicalizes, but the
/// parser composes raw ASTs and canonicalizes once at the end.
trait BuildRaw {
    fn build_raw(self) -> QueryExpr;
}

impl BuildRaw for Query {
    fn build_raw(self) -> QueryExpr {
        self.as_raw().clone()
    }
}

/// Parses a complete query (comprehension or method chain), returning the
/// canonicalized AST and any binder-declared source element types.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed input or trailing tokens.
///
/// # Example
///
/// ```
/// let (q, _) = steno_syntax::parse_query(
///     "(from x in xs where x % 2 == 0 select x * x).sum()",
/// ).unwrap();
/// assert_eq!(
///     q.to_string(),
///     "xs.Where(|x| ((x % 2) == 0)).Select(|x| (x * x)).Sum()"
/// );
/// ```
pub fn parse_query(text: &str) -> Result<(QueryExpr, Binders), ParseError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        bound: Vec::new(),
        binders: Binders::default(),
    };
    let q = p.parse_query()?;
    if p.pos != p.toks.len() {
        return Err(p.error(format!("unexpected trailing tokens: {:?}", p.peek())));
    }
    Ok((q.canonicalize(), p.binders))
}

/// Parses a standalone expression.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed input or trailing tokens.
pub fn parse_expr(text: &str) -> Result<Expr, ParseError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        bound: Vec::new(),
        binders: Binders::default(),
    };
    let e = p.parse_expr()?;
    if p.pos != p.toks.len() {
        return Err(p.error(format!("unexpected trailing tokens: {:?}", p.peek())));
    }
    Ok(e)
}

// Silence an unused-import warning for UnOp, used only through methods.
const _: Option<UnOp> = None;

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> String {
        parse_query(text).unwrap().0.to_string()
    }

    #[test]
    fn running_example_desugars_like_figure_3() {
        assert_eq!(
            q("from x in xs where x % 2 == 0 select x * x"),
            "xs.Where(|x| ((x % 2) == 0)).Select(|x| (x * x))"
        );
    }

    #[test]
    fn identity_select_is_dropped() {
        assert_eq!(q("from x in xs select x"), "xs");
        assert_eq!(q("(from x in xs select x).sum()"), "xs.Sum()");
    }

    #[test]
    fn method_chain_syntax() {
        assert_eq!(
            q("xs.where(|x| x > 0.0).select(|x| x * 2.0).sum()"),
            "xs.Where(|x| (x > 0.0)).Select(|x| (x * 2.0)).Sum()"
        );
        assert_eq!(
            q("xs.select(x => x + 1.0).take(5)"),
            "xs.Select(|x| (x + 1.0)).Take(5)"
        );
    }

    #[test]
    fn aggregate_suffix_on_parenthesized_comprehension() {
        assert_eq!(
            q("(from x in xs select x * x).sum()"),
            "xs.Select(|x| (x * x)).Sum()"
        );
        assert_eq!(q("(from x in xs select x).count()"), "xs.Count()");
    }

    #[test]
    fn multiple_generators_become_select_many() {
        // The triple Cartesian product of §5.
        assert_eq!(
            q("(from x in xs from y in ys from z in zs select f(x, y, z)).sum()"),
            "xs.SelectMany(|x| ys.SelectMany(|y| zs.Select(|z| f(x, y, z)))).Sum()"
        );
    }

    #[test]
    fn bound_variables_are_sequence_sources() {
        // `g` is bound by the outer lambda: it is an expression source,
        // not a named collection.
        let (ast, _) = parse_query("xs.groupBy(|x| x % 3).select(|kv| kv.1.sum())").unwrap();
        assert_eq!(
            ast.to_string(),
            "xs.GroupBy(|x| (x % 3)).Select(|kv| kv.1.Sum())"
        );
    }

    #[test]
    fn group_clause() {
        assert_eq!(
            q("from x in xs group x by x % 3"),
            "xs.GroupBy(|x| (x % 3))"
        );
        assert_eq!(
            q("from x in xs group x * x by x % 3"),
            "xs.GroupBy(|x| (x % 3), |x| (x * x))"
        );
    }

    #[test]
    fn orderby_clause() {
        assert_eq!(
            q("from x in xs orderby x descending select x + 1.0"),
            "xs.OrderByDescending(|x| x).Select(|x| (x + 1.0))"
        );
    }

    #[test]
    fn binder_annotations_are_recorded() {
        let (_, binders) =
            parse_query("(from x: f64 in xs from y: f64 in ys select x * y).sum()").unwrap();
        assert_eq!(
            binders.source_types,
            vec![("xs".to_string(), Ty::F64), ("ys".to_string(), Ty::F64)]
        );
    }

    #[test]
    fn shorthand_aggregates_canonicalize() {
        assert_eq!(
            q("xs.sum(|x| x * x)"),
            "xs.Select(|x| (x * x)).Sum()"
        );
        assert_eq!(
            q("xs.any(|x| x > 3.0)"),
            "xs.Where(|x| (x > 3.0)).Any()"
        );
    }

    #[test]
    fn range_source_and_aggregate_method() {
        assert_eq!(
            q("range(1, 10).aggregate(1, |a, x| a * x)"),
            "Range(1, 10).Aggregate(1, |a, x| (a * x))"
        );
    }

    #[test]
    fn nested_projections_parse() {
        assert_eq!(parse_expr("acc.0.1").unwrap(), Expr::var("acc").field(0).field(1));
        assert_eq!(
            q("xs.aggregate(((0.0, 0.0), 0), |acc, x| ((acc.0.0 + x, acc.0.1 + x * x), acc.1 + 1))"),
            "xs.Aggregate(((0.0, 0.0), 0), |acc, x| (((acc.0.0 + x), (acc.0.1 + (x * x))), (acc.1 + 1)))"
        );
    }

    #[test]
    fn expressions_parse_with_precedence() {
        assert_eq!(parse_expr("1 + 2 * 3").unwrap().to_string(), "(1 + (2 * 3))");
        assert_eq!(
            parse_expr("-x * y").unwrap().to_string(),
            "((-x) * y)"
        );
        assert_eq!(
            parse_expr("a < b && c != d || !e").unwrap().to_string(),
            "(((a < b) && (c != d)) || (!e))"
        );
        assert_eq!(
            parse_expr("p[0] * p.len() as f64").unwrap().to_string(),
            "(p[0] * (p.len() as f64))"
        );
        assert_eq!(parse_expr("(a, b + 1)").unwrap().to_string(), "(a, (b + 1))");
        assert_eq!(
            parse_expr("x.min(3.0).sqrt()").unwrap().to_string(),
            "x.min(3.0).sqrt()"
        );
        assert_eq!(parse_expr("kv.0").unwrap().to_string(), "kv.0");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_query("from x xs select x").is_err());
        assert!(parse_query("xs.frobnicate()").is_err());
        assert!(parse_query("from x in xs").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_query("xs.sum() extra").is_err());
        assert!(parse_expr("kv.2").is_err());
    }

    #[test]
    fn nested_query_in_select_lambda() {
        let (ast, _) =
            parse_query("xs.select(|x| ys.where(|y| y > x).count())").unwrap();
        assert_eq!(
            ast.to_string(),
            "xs.Select(|x| ys.Where(|y| (y > x)).Count())"
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    fn min_in_selector_body() {
        let r = parse_query("from x in xs select x.min(3.0) * 2.0");
        match r {
            Ok((q, _)) => println!("parsed: {q}"),
            Err(e) => panic!("parse error: {e}"),
        }
    }
}
