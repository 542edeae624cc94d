//! Hand-written SQL front end for the paper's SQL2 subset.
//!
//! The class of queries considered by the paper (its §2) is small:
//! query *specifications* of the `SELECT [ALL|DISTINCT] … FROM … WHERE …`
//! form — selection, projection and extended Cartesian product only, no
//! `GROUP BY`/`HAVING`, no aggregation, no arithmetic — plus query
//! *expressions* combining two specifications with `INTERSECT [ALL]` or
//! `EXCEPT [ALL]`. Predicates may contain `EXISTS`/`IN` subqueries and host
//! variables (`:SUPPLIER-NO`). DDL covers `CREATE TABLE` with
//! `PRIMARY KEY`, `UNIQUE` and `CHECK` constraints, and `INSERT` supplies
//! test data.
//!
//! The surface syntax is parsed by a hand-written lexer
//! ([`lexer`]) and recursive-descent parser ([`parser`]) into the AST of
//! [`ast`]; [`printer`] renders any AST node back to SQL so every rewrite
//! produced by the optimizer can be shown as a concrete query. `UNION
//! [ALL]` is also parsed and executed (the engine supports it) although the
//! paper's analysis does not use it.
//!
//! Identifier note: the paper's schema uses `-` inside names (`OEM-PNO`,
//! `:SUPPLIER-NO`). Since the considered subset has **no arithmetic**
//! (paper §2), the lexer treats `-` as an identifier character when it
//! continues an identifier, and as a numeric sign when it starts a literal.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;

pub use ast::*;
pub use parser::{
    parse_expr, parse_full_query, parse_query, parse_statement, parse_statements, MAX_DEPTH,
};
