//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (paper §2):
//!
//! ```text
//! statement   := create_table | create_index | insert | full_query
//! create_index:= CREATE [UNIQUE] INDEX name ON table '(' column (',' column)* ')'
//!                [USING (HASH | BTREE)]
//! full_query  := (query | agg_spec) [ORDER BY order_item (',' order_item)*]
//!                [LIMIT k]
//! agg_spec    := SELECT agg_item (',' agg_item)* FROM table_ref (',' table_ref)*
//!                [WHERE condition] [GROUP BY col_ref (',' col_ref)*]
//! agg_item    := (col_ref | agg_call) [AS alias]
//! agg_call    := COUNT '(' '*' ')' | COUNT '(' [DISTINCT] col_ref ')'
//!              | (SUM|MIN|MAX|AVG) '(' col_ref ')'
//! order_item  := col_ref [ASC | DESC]
//! query       := spec (set_op [ALL] spec)*        -- left associative
//! spec        := SELECT [ALL|DISTINCT] projection FROM table_ref (',' table_ref)*
//!                [WHERE condition]
//!              | '(' query_spec ')'
//! condition   := or_term
//! or_term     := and_term (OR and_term)*
//! and_term    := not_term (AND not_term)*
//! not_term    := NOT not_term | predicate
//! predicate   := EXISTS '(' spec ')'
//!              | '(' condition ')'
//!              | scalar (comparison | between | in | is_null)
//! ```
//!
//! Set-operator note: the SQL2 standard gives `INTERSECT` higher precedence
//! than `UNION`/`EXCEPT`; since the paper's query expressions combine
//! exactly two specifications we parse all set operators at one level,
//! left-associatively, and parenthesized queries can express any nesting.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use uniq_types::{ColRef, DataType, Error, Result, Value};

/// The deepest statement the parser accepts. Each parenthesis, `NOT`,
/// `AND`/`OR` link, set-operation link and subquery adds one level to
/// the depth of what it encloses; a deeper statement is a parse error.
/// Every later pass over the tree (printing, binding, rewriting,
/// execution, even dropping it) recurses along its depth, and this
/// bound keeps all of them inside the 2 MiB stack of a server
/// connection thread — with margin even in an unoptimized build, whose
/// parser alone overflows that stack at about 130 nested parentheses.
pub const MAX_DEPTH: usize = 100;

/// Parse a single statement (DDL, DML or query).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input)?;
    let s = p.statement()?;
    p.expect_end()?;
    Ok(s)
}

/// Parse a semicolon-separated script of statements.
pub fn parse_statements(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at(&TokenKind::Eof) {
            return Ok(out);
        }
        out.push(p.statement()?);
        if !p.at(&TokenKind::Semicolon) && !p.at(&TokenKind::Eof) {
            return Err(p.unexpected("';' or end of input"));
        }
    }
}

/// Parse a query (specification or set-operator expression).
///
/// This is the paper's §2 subset entry point: aggregates, `GROUP BY`,
/// `ORDER BY` and `LIMIT` are rejected here — callers that accept the full
/// surface use [`parse_full_query`].
pub fn parse_query(input: &str) -> Result<QueryExpr> {
    let mut p = Parser::new(input)?;
    let q = p.full_query()?;
    p.expect_end()?;
    match q {
        Query {
            body: QueryBody::Plain(e),
            order_by,
            limit,
        } if order_by.is_empty() && limit.is_none() => Ok(e),
        _ => Err(Error::Parse {
            pos: 0,
            message: "aggregates, GROUP BY, ORDER BY and LIMIT are not allowed here \
                      (use the full-query entry point)"
                .into(),
        }),
    }
}

/// Parse a full query: plain or aggregate body plus optional `ORDER BY` /
/// `LIMIT` clauses.
pub fn parse_full_query(input: &str) -> Result<Query> {
    let mut p = Parser::new(input)?;
    let q = p.full_query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a bare search condition (used by tests and by `CHECK` handling).
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.condition()?;
    p.expect_end()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    /// Nesting constructs currently open around the cursor; bounds the
    /// parser's own recursion before the depth of what it builds is
    /// known.
    open: usize,
    /// Depth of the condition or query most recently parsed.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(input)?,
            i: 0,
            open: 0,
            depth: 0,
        })
    }

    fn too_deep(&self) -> Error {
        Error::Parse {
            pos: self.pos(),
            message: format!("statement nests deeper than {MAX_DEPTH} levels"),
        }
    }

    /// Record `depth` as the depth of what was just parsed.
    fn set_depth(&mut self, depth: usize) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth = depth;
        Ok(())
    }

    /// Parse `f` one nesting level down: whatever it builds ends up one
    /// level deeper than its own depth.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.open >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let out = f(self)?;
        self.open -= 1;
        self.set_depth(self.depth + 1)?;
        Ok(out)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.i].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.i + 1).min(self.tokens.len() - 1)].kind
    }

    fn pos(&self) -> usize {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.i].kind.clone();
        if self.i < self.tokens.len() - 1 {
            self.i += 1;
        }
        k
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: &TokenKind, what: &str) -> Result<()> {
        if self.eat(k) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw))
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        while self.eat(&TokenKind::Semicolon) {}
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, expected: &str) -> Error {
        Error::Parse {
            pos: self.pos(),
            message: format!("expected {expected}, found {:?}", self.peek()),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            // Allow keywords like KEY to be used as identifiers only where
            // harmless? Keep it strict: identifiers must not be keywords.
            _ => Err(self.unexpected(what)),
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("CREATE") {
            match self.peek2() {
                TokenKind::Keyword("UNIQUE") | TokenKind::Keyword("INDEX") => {
                    Ok(Statement::CreateIndex(self.create_index()?))
                }
                _ => Ok(Statement::CreateTable(self.create_table()?)),
            }
        } else if self.at_kw("INSERT") {
            Ok(Statement::Insert(self.insert()?))
        } else {
            Ok(Statement::Query(self.full_query()?))
        }
    }

    fn create_index(&mut self) -> Result<CreateIndex> {
        self.expect_kw("CREATE")?;
        let unique = self.eat_kw("UNIQUE");
        self.expect_kw("INDEX")?;
        let name = self.ident("index name")?;
        self.expect_kw("ON")?;
        let table = self.ident("table name")?.into();
        let columns = self.column_name_list()?;
        let kind = if self.eat_kw("USING") {
            if self.eat_kw("HASH") {
                IndexKindAst::Hash
            } else if self.eat_kw("BTREE") {
                IndexKindAst::BTree
            } else {
                return Err(self.unexpected("HASH or BTREE"));
            }
        } else {
            IndexKindAst::BTree
        };
        Ok(CreateIndex {
            name,
            table,
            columns,
            unique,
            kind,
        })
    }

    fn create_table(&mut self) -> Result<CreateTable> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident("table name")?.into();
        self.expect(&TokenKind::LParen, "'('")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.at_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                constraints.push(TableConstraintAst::PrimaryKey(self.column_name_list()?));
            } else if self.at_kw("UNIQUE") {
                self.bump();
                constraints.push(TableConstraintAst::Unique(self.column_name_list()?));
            } else if self.at_kw("CHECK") {
                self.bump();
                self.expect(&TokenKind::LParen, "'('")?;
                let cond = self.condition()?;
                self.expect(&TokenKind::RParen, "')'")?;
                constraints.push(TableConstraintAst::Check(cond));
            } else if self.at_kw("FOREIGN") {
                self.bump();
                self.expect_kw("KEY")?;
                let columns = self.column_name_list()?;
                self.expect_kw("REFERENCES")?;
                let parent = self.ident("referenced table")?.into();
                let parent_columns = self.column_name_list()?;
                constraints.push(TableConstraintAst::ForeignKey {
                    columns,
                    parent,
                    parent_columns,
                });
            } else if self.at_kw("CONSTRAINT") {
                // `CONSTRAINT name <constraint>` — name accepted and ignored.
                self.bump();
                self.ident("constraint name")?;
                continue;
            } else {
                // A column definition.
                let col_name = self.ident("column name")?;
                let data_type = self.data_type()?;
                let mut not_null = false;
                let mut col_constraints: Vec<TableConstraintAst> = Vec::new();
                loop {
                    if self.at_kw("NOT") && matches!(self.peek2(), TokenKind::Keyword("NULL")) {
                        self.bump();
                        self.bump();
                        not_null = true;
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        col_constraints.push(TableConstraintAst::PrimaryKey(vec![col_name
                            .clone()
                            .into()]));
                    } else if self.eat_kw("UNIQUE") {
                        col_constraints
                            .push(TableConstraintAst::Unique(vec![col_name.clone().into()]));
                    } else if self.at_kw("CHECK") {
                        self.bump();
                        self.expect(&TokenKind::LParen, "'('")?;
                        let cond = self.condition()?;
                        self.expect(&TokenKind::RParen, "')'")?;
                        col_constraints.push(TableConstraintAst::Check(cond));
                    } else if self.eat_kw("REFERENCES") {
                        let parent = self.ident("referenced table")?.into();
                        let parent_columns = self.column_name_list()?;
                        col_constraints.push(TableConstraintAst::ForeignKey {
                            columns: vec![col_name.clone().into()],
                            parent,
                            parent_columns,
                        });
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDefAst {
                    name: col_name.into(),
                    data_type,
                    not_null,
                });
                constraints.extend(col_constraints);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        if self.eat_kw("INTEGER") || self.eat_kw("INT") {
            Ok(DataType::Int)
        } else if self.eat_kw("VARCHAR") || self.eat_kw("CHAR") {
            // Optional length, accepted and ignored (all strings are
            // variable length in this engine).
            if self.eat(&TokenKind::LParen) {
                match self.bump() {
                    TokenKind::Int(_) => {}
                    _ => return Err(self.unexpected("length")),
                }
                self.expect(&TokenKind::RParen, "')'")?;
            }
            Ok(DataType::Str)
        } else {
            Err(self.unexpected("data type (INTEGER or VARCHAR)"))
        }
    }

    fn column_name_list(&mut self) -> Result<Vec<uniq_types::ColumnName>> {
        self.expect(&TokenKind::LParen, "'('")?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident("column name")?.into());
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(cols)
    }

    fn insert(&mut self) -> Result<Insert> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident("table name")?.into();
        let columns = if self.at(&TokenKind::LParen) {
            Some(self.column_name_list()?)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.bump() {
            TokenKind::Int(v) => Ok(Value::Int(v)),
            TokenKind::Str(s) => Ok(Value::Str(s)),
            TokenKind::Keyword("NULL") => Ok(Value::Null),
            TokenKind::Keyword("TRUE") => Ok(Value::Bool(true)),
            TokenKind::Keyword("FALSE") => Ok(Value::Bool(false)),
            _ => {
                self.i = self.i.saturating_sub(1);
                Err(self.unexpected("literal value"))
            }
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Full query: a plain or aggregate body plus ORDER BY / LIMIT tail.
    fn full_query(&mut self) -> Result<Query> {
        let body = self.query_body()?;
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let mut items = vec![self.order_item()?];
            while self.eat(&TokenKind::Comma) {
                items.push(self.order_item()?);
            }
            items
        } else {
            Vec::new()
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                TokenKind::Int(v) if v >= 0 => Some(v as u64),
                _ => {
                    self.i = self.i.saturating_sub(1);
                    return Err(self.unexpected("non-negative LIMIT count"));
                }
            }
        } else {
            None
        };
        Ok(Query {
            body,
            order_by,
            limit,
        })
    }

    fn order_item(&mut self) -> Result<OrderItem> {
        let col = self.col_ref()?;
        let desc = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };
        Ok(OrderItem { col, desc })
    }

    fn query_body(&mut self) -> Result<QueryBody> {
        // A parenthesized head can only start a plain set-op expression.
        if self.at(&TokenKind::LParen) {
            return Ok(QueryBody::Plain(self.query()?));
        }
        if self.select_list_has_aggregate() {
            return Ok(QueryBody::Agg(Box::new(self.agg_spec()?)));
        }
        let save = self.i;
        let first = self.query_spec()?;
        if self.at_kw("GROUP") {
            // `SELECT g FROM t ... GROUP BY g` with no aggregate calls:
            // re-parse the block through the aggregate grammar.
            self.i = save;
            return Ok(QueryBody::Agg(Box::new(self.agg_spec()?)));
        }
        Ok(QueryBody::Plain(self.query_rest(QueryExpr::spec(first))?))
    }

    /// Token-level lookahead: does the SELECT list ahead of FROM contain an
    /// aggregate function call? (Select lists contain no other parentheses,
    /// so scanning to FROM is exact.)
    fn select_list_has_aggregate(&self) -> bool {
        let mut j = self.i;
        loop {
            match &self.tokens[j].kind {
                TokenKind::Keyword("FROM") | TokenKind::Eof => return false,
                TokenKind::Keyword("COUNT" | "SUM" | "MIN" | "MAX" | "AVG") => return true,
                _ => j += 1,
            }
        }
    }

    fn agg_spec(&mut self) -> Result<AggSpec> {
        self.expect_kw("SELECT")?;
        if self.at_kw("DISTINCT") {
            return Err(Error::Parse {
                pos: self.pos(),
                message: "SELECT DISTINCT cannot be combined with aggregates or GROUP BY".into(),
            });
        }
        self.eat_kw("ALL");
        if self.at(&TokenKind::Star) {
            return Err(Error::Parse {
                pos: self.pos(),
                message: "SELECT * cannot be combined with aggregates or GROUP BY".into(),
            });
        }
        let mut items = Vec::new();
        loop {
            let kind = if let Some(func) = self.agg_func_at() {
                AggItemKind::Agg(self.agg_call(func)?)
            } else {
                AggItemKind::Group(self.col_ref()?)
            };
            let alias = if self.eat_kw("AS") {
                Some(self.ident("alias")?.into())
            } else {
                None
            };
            items.push(AggItem { kind, alias });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_refs()?;
        let where_clause = self.where_clause()?;
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            let mut cols = vec![self.col_ref()?];
            while self.eat(&TokenKind::Comma) {
                cols.push(self.col_ref()?);
            }
            cols
        } else {
            Vec::new()
        };
        Ok(AggSpec {
            items,
            from,
            where_clause,
            group_by,
        })
    }

    fn agg_func_at(&self) -> Option<AggFunc> {
        let func = match self.peek() {
            TokenKind::Keyword("COUNT") => AggFunc::Count,
            TokenKind::Keyword("SUM") => AggFunc::Sum,
            TokenKind::Keyword("MIN") => AggFunc::Min,
            TokenKind::Keyword("MAX") => AggFunc::Max,
            TokenKind::Keyword("AVG") => AggFunc::Avg,
            _ => return None,
        };
        matches!(self.peek2(), TokenKind::LParen).then_some(func)
    }

    fn agg_call(&mut self, func: AggFunc) -> Result<AggCall> {
        self.bump(); // the function keyword
        self.expect(&TokenKind::LParen, "'('")?;
        if self.eat(&TokenKind::Star) {
            if func != AggFunc::Count {
                return Err(Error::Parse {
                    pos: self.pos(),
                    message: format!("{}(*) is not supported; only COUNT(*)", func.name()),
                });
            }
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(AggCall {
                func,
                distinct: false,
                arg: None,
            });
        }
        let distinct = self.eat_kw("DISTINCT");
        if distinct && func != AggFunc::Count {
            return Err(Error::Parse {
                pos: self.pos(),
                message: format!("DISTINCT inside {} is not supported", func.name()),
            });
        }
        let arg = self.col_ref()?;
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(AggCall {
            func,
            distinct,
            arg: Some(arg),
        })
    }

    fn query(&mut self) -> Result<QueryExpr> {
        let left = self.query_primary()?;
        self.query_rest(left)
    }

    /// Continue a set-operation chain whose head was just parsed.
    fn query_rest(&mut self, mut left: QueryExpr) -> Result<QueryExpr> {
        let mut depth = self.depth;
        loop {
            let op = if self.at_kw("INTERSECT") {
                SetOp::Intersect
            } else if self.at_kw("EXCEPT") {
                SetOp::Except
            } else if self.at_kw("UNION") {
                SetOp::Union
            } else {
                break;
            };
            self.bump();
            let all = self.eat_kw("ALL");
            let right = self.query_primary()?;
            depth = depth.max(self.depth) + 1;
            self.set_depth(depth)?;
            left = QueryExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn query_primary(&mut self) -> Result<QueryExpr> {
        if self.at(&TokenKind::LParen) {
            self.bump();
            let q = self.nested(Self::query)?;
            self.expect(&TokenKind::RParen, "')'")?;
            Ok(q)
        } else {
            Ok(QueryExpr::spec(self.query_spec()?))
        }
    }

    fn query_spec(&mut self) -> Result<QuerySpec> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            Distinct::Distinct
        } else {
            self.eat_kw("ALL");
            Distinct::All
        };
        let projection = if self.eat(&TokenKind::Star) {
            Projection::Star
        } else {
            let mut items = Vec::new();
            loop {
                let col = self.col_ref()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident("alias")?.into())
                } else {
                    None
                };
                items.push(SelectItem { col, alias });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            Projection::Columns(items)
        };
        self.expect_kw("FROM")?;
        let from = self.table_refs()?;
        let where_clause = self.where_clause()?;
        Ok(QuerySpec {
            distinct,
            projection,
            from,
            where_clause,
        })
    }

    /// An optional `WHERE` condition; the block is one level deeper.
    fn where_clause(&mut self) -> Result<Option<Expr>> {
        self.depth = 0;
        let cond = if self.eat_kw("WHERE") {
            Some(self.condition()?)
        } else {
            None
        };
        self.set_depth(self.depth + 1)?;
        Ok(cond)
    }

    fn table_refs(&mut self) -> Result<Vec<TableRef>> {
        let mut from = Vec::new();
        loop {
            let table = self.ident("table name")?.into();
            let alias = match self.peek() {
                TokenKind::Ident(_) => Some(self.ident("alias")?.into()),
                _ => {
                    if self.eat_kw("AS") {
                        Some(self.ident("alias")?.into())
                    } else {
                        None
                    }
                }
            };
            from.push(TableRef { table, alias });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(from)
    }

    fn col_ref(&mut self) -> Result<ColRef> {
        let first = self.ident("column reference")?;
        if self.eat(&TokenKind::Dot) {
            if self.eat(&TokenKind::Star) {
                // `T.*` is not in the subset's projection grammar.
                return Err(self.unexpected("column name (T.* is not supported)"));
            }
            let col = self.ident("column name")?;
            Ok(ColRef::qualified(first, col))
        } else {
            Ok(ColRef::bare(first))
        }
    }

    // ---- conditions -------------------------------------------------------

    pub(crate) fn condition(&mut self) -> Result<Expr> {
        self.or_term()
    }

    fn or_term(&mut self) -> Result<Expr> {
        let mut left = self.and_term()?;
        let mut depth = self.depth;
        while self.eat_kw("OR") {
            let right = self.and_term()?;
            depth = depth.max(self.depth) + 1;
            self.set_depth(depth)?;
            left = Expr::or(left, right);
        }
        self.depth = depth;
        Ok(left)
    }

    fn and_term(&mut self) -> Result<Expr> {
        let mut left = self.not_term()?;
        let mut depth = self.depth;
        while self.eat_kw("AND") {
            let right = self.not_term()?;
            depth = depth.max(self.depth) + 1;
            self.set_depth(depth)?;
            left = Expr::and(left, right);
        }
        self.depth = depth;
        Ok(left)
    }

    fn not_term(&mut self) -> Result<Expr> {
        if self.at_kw("NOT") && !matches!(self.peek2(), TokenKind::Keyword("EXISTS")) {
            self.bump();
            return Ok(Expr::not(self.nested(Self::not_term)?));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        // [NOT] EXISTS (subquery)
        if self.at_kw("EXISTS")
            || (self.at_kw("NOT") && matches!(self.peek2(), TokenKind::Keyword("EXISTS")))
        {
            let negated = self.eat_kw("NOT");
            self.expect_kw("EXISTS")?;
            self.expect(&TokenKind::LParen, "'('")?;
            let sub = self.nested(Self::query_spec)?;
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(Expr::Exists {
                negated,
                subquery: Box::new(sub),
            });
        }
        // Parenthesized condition — but '(' could also start nothing else
        // here since scalars never start with '(' in this subset.
        if self.at(&TokenKind::LParen) {
            self.bump();
            let inner = self.nested(Self::condition)?;
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(inner);
        }
        // Every other predicate is a leaf, one level deep.
        self.depth = 1;
        let scalar = self.scalar()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { scalar, negated });
        }
        // [NOT] BETWEEN / [NOT] IN
        let negated = self.eat_kw("NOT");
        if self.eat_kw("BETWEEN") {
            let low = self.scalar()?;
            self.expect_kw("AND")?;
            let high = self.scalar()?;
            return Ok(Expr::Between {
                scalar,
                low,
                high,
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen, "'('")?;
            if self.at_kw("SELECT") {
                let sub = self.nested(Self::query_spec)?;
                self.expect(&TokenKind::RParen, "')'")?;
                return Ok(Expr::InSubquery {
                    scalar,
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.scalar()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(Expr::InList {
                scalar,
                list,
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("BETWEEN or IN after NOT"));
        }
        // Comparison.
        let op = match self.bump() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => {
                self.i = self.i.saturating_sub(1);
                return Err(self.unexpected("comparison operator"));
            }
        };
        let right = self.scalar()?;
        Ok(Expr::Cmp {
            op,
            left: scalar,
            right,
        })
    }

    fn scalar(&mut self) -> Result<Scalar> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Scalar::Literal(Value::Int(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Scalar::Literal(Value::Str(s)))
            }
            TokenKind::Keyword("NULL") => {
                self.bump();
                Ok(Scalar::Literal(Value::Null))
            }
            TokenKind::Keyword("TRUE") => {
                self.bump();
                Ok(Scalar::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword("FALSE") => {
                self.bump();
                Ok(Scalar::Literal(Value::Bool(false)))
            }
            TokenKind::HostVar(h) => {
                self.bump();
                Ok(Scalar::HostVar(h.into()))
            }
            TokenKind::Ident(_) => Ok(Scalar::Column(self.col_ref()?)),
            _ => Err(self.unexpected("scalar (column, literal or :hostvar)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example_1() {
        // Paper Example 1.
        let q = parse_query(
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME \
             FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        )
        .unwrap();
        let spec = q.as_spec().unwrap();
        assert_eq!(spec.distinct, Distinct::Distinct);
        assert_eq!(spec.from.len(), 2);
        match &spec.projection {
            Projection::Columns(items) => assert_eq!(items.len(), 3),
            Projection::Star => panic!("expected explicit projection"),
        }
        assert!(spec.where_clause.is_some());
    }

    #[test]
    fn parses_create_index() {
        let s = parse_statement("create unique index IDX_OEM on PARTS (OEM-PNO)").unwrap();
        match s {
            Statement::CreateIndex(ci) => {
                assert_eq!(ci.name, "IDX_OEM");
                assert_eq!(ci.table, "PARTS".into());
                assert_eq!(ci.columns, vec!["OEM-PNO".into()]);
                assert!(ci.unique);
                assert_eq!(ci.kind, IndexKindAst::BTree);
            }
            other => panic!("expected CREATE INDEX, got {other:?}"),
        }
        let s = parse_statement("CREATE INDEX I ON T (A, B) USING HASH").unwrap();
        match s {
            Statement::CreateIndex(ci) => {
                assert!(!ci.unique);
                assert_eq!(ci.columns.len(), 2);
                assert_eq!(ci.kind, IndexKindAst::Hash);
            }
            other => panic!("expected CREATE INDEX, got {other:?}"),
        }
        // CREATE TABLE still dispatches through the same keyword.
        assert!(matches!(
            parse_statement("CREATE TABLE T (A INTEGER)").unwrap(),
            Statement::CreateTable(_)
        ));
        // Malformed shapes fail cleanly.
        assert!(parse_statement("CREATE INDEX I ON T (A) USING ROPE").is_err());
        assert!(parse_statement("CREATE UNIQUE INDEX I T (A)").is_err());
    }

    #[test]
    fn parses_host_variables() {
        // Paper Example 3.
        let q = parse_query(
            "SELECT ALL S.SNO, SNAME, P.PNO, PNAME \
             FROM SUPPLIER S, PARTS P \
             WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO",
        )
        .unwrap();
        let spec = q.as_spec().unwrap();
        let w = spec.where_clause.as_ref().unwrap();
        let mut saw_hostvar = false;
        fn walk(e: &Expr, saw: &mut bool) {
            match e {
                Expr::Cmp { right, .. } => {
                    if matches!(right, Scalar::HostVar(_)) {
                        *saw = true;
                    }
                }
                Expr::And(a, b) | Expr::Or(a, b) => {
                    walk(a, saw);
                    walk(b, saw);
                }
                _ => {}
            }
        }
        walk(w, &mut saw_hostvar);
        assert!(saw_hostvar);
    }

    #[test]
    fn parses_exists_subquery() {
        // Paper Example 7.
        let q = parse_query(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
             WHERE S.SNAME = :SUPPLIER-NAME AND EXISTS \
             (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)",
        )
        .unwrap();
        let spec = q.as_spec().unwrap();
        let mut n = 0;
        spec.where_clause
            .as_ref()
            .unwrap()
            .visit_subqueries(&mut |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn parses_intersect() {
        // Paper Example 9.
        let q = parse_query(
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT \
             SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
        )
        .unwrap();
        match q {
            QueryExpr::SetOp { op, all, .. } => {
                assert_eq!(op, SetOp::Intersect);
                assert!(!all);
            }
            _ => panic!("expected set operation"),
        }
    }

    #[test]
    fn parses_intersect_all_and_except_all() {
        for (text, op) in [
            ("INTERSECT ALL", SetOp::Intersect),
            ("EXCEPT ALL", SetOp::Except),
            ("UNION ALL", SetOp::Union),
        ] {
            let q = parse_query(&format!(
                "SELECT ALL SNO FROM SUPPLIER {text} SELECT ALL SNO FROM AGENTS"
            ))
            .unwrap();
            match q {
                QueryExpr::SetOp { op: got, all, .. } => {
                    assert_eq!(got, op);
                    assert!(all);
                }
                _ => panic!("expected set operation"),
            }
        }
    }

    #[test]
    fn parses_create_table_with_constraints() {
        // Figure 1 / §2.1 SUPPLIER definition.
        let s = parse_statement(
            "CREATE TABLE SUPPLIER ( \
               SNO INTEGER NOT NULL, SNAME VARCHAR(20), SCITY VARCHAR(20), \
               BUDGET INTEGER, STATUS VARCHAR(10), \
               PRIMARY KEY (SNO), \
               CHECK (SNO BETWEEN 1 AND 499), \
               CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')), \
               CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.name.as_str(), "SUPPLIER");
                assert_eq!(ct.columns.len(), 5);
                assert_eq!(ct.constraints.len(), 4);
            }
            _ => panic!("expected CREATE TABLE"),
        }
    }

    #[test]
    fn parses_column_level_constraints() {
        let s = parse_statement(
            "CREATE TABLE T (A INTEGER PRIMARY KEY, B VARCHAR UNIQUE, \
             C INTEGER CHECK (C > 0))",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.constraints.len(), 3);
                assert!(matches!(
                    ct.constraints[0],
                    TableConstraintAst::PrimaryKey(_)
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_insert() {
        let s = parse_statement("INSERT INTO SUPPLIER (SNO, SNAME) VALUES (1, 'Acme'), (2, NULL)")
            .unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.rows[1][1], Value::Null);
            }
            _ => panic!("expected INSERT"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse_expr("A = 1 OR B = 2 AND C = 3").unwrap();
        match e {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            _ => panic!("expected OR at top"),
        }
    }

    #[test]
    fn not_exists_parses() {
        let e = parse_expr("NOT EXISTS (SELECT * FROM PARTS P WHERE P.SNO = 1)").unwrap();
        assert!(matches!(e, Expr::Exists { negated: true, .. }));
    }

    #[test]
    fn in_subquery_parses() {
        let e = parse_expr("SNO IN (SELECT SNO FROM PARTS)").unwrap();
        assert!(matches!(e, Expr::InSubquery { negated: false, .. }));
    }

    #[test]
    fn is_not_null_parses() {
        assert!(matches!(
            parse_expr("X IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("X IS NULL").unwrap(),
            Expr::IsNull { negated: false, .. }
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT * FROM T extra garbage ,").is_err());
    }

    #[test]
    fn multi_statement_script() {
        let ss = parse_statements(
            "CREATE TABLE T (A INTEGER); INSERT INTO T VALUES (1); SELECT * FROM T;",
        )
        .unwrap();
        assert_eq!(ss.len(), 3);
    }

    #[test]
    fn parses_group_by_aggregates() {
        let q = parse_full_query(
            "SELECT S.SCITY, COUNT(*), SUM(S.BUDGET) AS TOTAL \
             FROM SUPPLIER S WHERE S.STATUS = 'Active' GROUP BY S.SCITY",
        )
        .unwrap();
        let QueryBody::Agg(agg) = &q.body else {
            panic!("expected aggregate body");
        };
        assert_eq!(agg.items.len(), 3);
        assert!(matches!(agg.items[0].kind, AggItemKind::Group(_)));
        match &agg.items[1].kind {
            AggItemKind::Agg(c) => {
                assert_eq!(c.func, AggFunc::Count);
                assert!(c.arg.is_none());
            }
            other => panic!("expected COUNT(*), got {other:?}"),
        }
        match &agg.items[2].kind {
            AggItemKind::Agg(c) => {
                assert_eq!(c.func, AggFunc::Sum);
                assert!(c.arg.is_some());
            }
            other => panic!("expected SUM, got {other:?}"),
        }
        assert_eq!(agg.items[2].alias, Some("TOTAL".into()));
        assert_eq!(agg.group_by.len(), 1);
        assert!(agg.where_clause.is_some());
        assert!(q.order_by.is_empty());
        assert_eq!(q.limit, None);
    }

    #[test]
    fn parses_count_distinct() {
        let q = parse_full_query("SELECT COUNT(DISTINCT P.SNO) FROM PARTS P").unwrap();
        let QueryBody::Agg(agg) = &q.body else {
            panic!("expected aggregate body");
        };
        match &agg.items[0].kind {
            AggItemKind::Agg(c) => {
                assert_eq!(c.func, AggFunc::Count);
                assert!(c.distinct);
            }
            other => panic!("expected COUNT(DISTINCT ..), got {other:?}"),
        }
        // Global aggregate: empty group set.
        assert!(agg.group_by.is_empty());
    }

    #[test]
    fn group_by_without_aggregate_calls_is_an_aggregate_body() {
        let q = parse_full_query("SELECT S.SCITY FROM SUPPLIER S GROUP BY S.SCITY").unwrap();
        let QueryBody::Agg(agg) = &q.body else {
            panic!("expected aggregate body");
        };
        assert!(matches!(agg.items[0].kind, AggItemKind::Group(_)));
        assert_eq!(agg.group_by, vec![ColRef::qualified("S", "SCITY")]);
    }

    #[test]
    fn parses_order_by_limit() {
        let q = parse_full_query(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S ORDER BY S.SNO, S.SNAME DESC LIMIT 10",
        )
        .unwrap();
        assert!(matches!(q.body, QueryBody::Plain(_)));
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].desc);
        assert!(q.order_by[1].desc);
        assert_eq!(q.limit, Some(10));
        // ASC is accepted and is the default.
        let q = parse_full_query("SELECT A FROM T ORDER BY A ASC LIMIT 0").unwrap();
        assert!(!q.order_by[0].desc);
        assert_eq!(q.limit, Some(0));
    }

    #[test]
    fn order_by_limit_apply_to_set_operations() {
        let q =
            parse_full_query("SELECT A FROM T UNION SELECT A FROM U ORDER BY A LIMIT 3").unwrap();
        match &q.body {
            QueryBody::Plain(QueryExpr::SetOp { op, .. }) => assert_eq!(*op, SetOp::Union),
            other => panic!("expected set operation, got {other:?}"),
        }
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit, Some(3));
    }

    #[test]
    fn plain_entry_point_rejects_aggregate_syntax() {
        assert!(parse_query("SELECT COUNT(*) FROM T").is_err());
        assert!(parse_query("SELECT A FROM T GROUP BY A").is_err());
        assert!(parse_query("SELECT A FROM T ORDER BY A").is_err());
        assert!(parse_query("SELECT A FROM T LIMIT 5").is_err());
        // The same texts parse through the full entry point.
        assert!(parse_full_query("SELECT COUNT(*) FROM T").is_ok());
        assert!(parse_full_query("SELECT A FROM T LIMIT 5").is_ok());
    }

    #[test]
    fn rejects_malformed_aggregates() {
        // SUM(*) and DISTINCT inside non-COUNT aggregates.
        assert!(parse_full_query("SELECT SUM(*) FROM T").is_err());
        assert!(parse_full_query("SELECT SUM(DISTINCT A) FROM T").is_err());
        // DISTINCT / * select lists cannot be combined with aggregation.
        assert!(parse_full_query("SELECT DISTINCT COUNT(A) FROM T").is_err());
        assert!(parse_full_query("SELECT DISTINCT A FROM T GROUP BY A").is_err());
        assert!(parse_full_query("SELECT * FROM T GROUP BY A").is_err());
        // LIMIT needs a non-negative integer.
        assert!(parse_full_query("SELECT A FROM T LIMIT -1").is_err());
        assert!(parse_full_query("SELECT A FROM T LIMIT B").is_err());
        // GROUP without BY.
        assert!(parse_full_query("SELECT A FROM T GROUP A").is_err());
    }

    #[test]
    fn statement_entry_accepts_full_queries() {
        let s =
            parse_statement("SELECT S.SCITY, COUNT(*) FROM SUPPLIER S GROUP BY S.SCITY").unwrap();
        match s {
            Statement::Query(q) => assert!(matches!(q.body, QueryBody::Agg(_))),
            other => panic!("expected query, got {other:?}"),
        }
        let s = parse_statement("SELECT * FROM T").unwrap();
        match s {
            Statement::Query(q) => assert!(q.as_plain().is_some()),
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn statements_deeper_than_the_limit_are_errors() {
        let parens = |n: usize| {
            format!(
                "SELECT S.SNO FROM S WHERE {}S.SNO = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let chain = |op: &str, n: usize| {
            format!(
                "SELECT S.SNO FROM S WHERE {}S.SNO = 1",
                format!("S.SNO = 1 {op} ").repeat(n - 1)
            )
        };
        let nots = |n: usize| format!("SELECT S.SNO FROM S WHERE {}S.SNO = 1", "NOT ".repeat(n));
        let unions = |n: usize| vec!["SELECT S.SNO FROM S"; n].join(" UNION ");
        // Leaf and block each add a level; so does every link.
        for (deepest, too_deep) in [
            (parens(MAX_DEPTH - 2), parens(MAX_DEPTH - 1)),
            (chain("AND", MAX_DEPTH - 1), chain("AND", MAX_DEPTH)),
            (chain("OR", MAX_DEPTH - 1), chain("OR", MAX_DEPTH)),
            (nots(MAX_DEPTH - 2), nots(MAX_DEPTH - 1)),
            (unions(MAX_DEPTH), unions(MAX_DEPTH + 1)),
        ] {
            assert!(parse_statement(&deepest).is_ok(), "{deepest}");
            let err = parse_statement(&too_deep).unwrap_err();
            assert!(err.to_string().contains("nests deeper than"), "{err}");
        }
        // Far past the limit the parser stops before its own recursion
        // can exhaust the stack.
        assert!(parse_statement(&parens(100_000)).is_err());
        assert!(parse_statement(&nots(100_000)).is_err());
    }

    #[test]
    fn set_ops_are_left_associative() {
        let q = parse_query("SELECT A FROM T INTERSECT SELECT A FROM U EXCEPT SELECT A FROM V")
            .unwrap();
        match q {
            QueryExpr::SetOp { op, left, .. } => {
                assert_eq!(op, SetOp::Except);
                assert!(matches!(
                    *left,
                    QueryExpr::SetOp {
                        op: SetOp::Intersect,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }
}
