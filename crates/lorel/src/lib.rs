//! # Lorel — the query language for semistructured data, with the Chorel
//! extensions
//!
//! This crate implements the query machinery of *"Representing and
//! Querying Changes in Semistructured Data"* (ICDE 1998): the Lorel
//! select-from-where language over OEM (Section 4.1) extended with Chorel's
//! annotation expressions (Section 4.2). The full surface syntax is parsed
//! here; a *plain Lorel* query is simply one with no annotation
//! expressions.
//!
//! The engine evaluates against the [`DataSource`] trait. A plain
//! [`oem::OemDatabase`] implements it with empty annotation functions, so
//! annotated steps match nothing there; the `chorel` crate implements it
//! for DOEM databases (direct strategy) and also provides the Section 5
//! Chorel→Lorel translation that runs entirely through this crate's plain
//! engine.
//!
//! Pipeline: [`parse_query`] → [`plan`] (the Section 4.2.1 rewriting:
//! prefix-shared range variables, existential where-variables) →
//! [`execute`] → [`package`] (OEM-packaged results, QSS-style).
//!
//! ```
//! use lorel::run_query;
//! use oem::guide::guide_figure3;
//!
//! // Example 4.1 of the paper.
//! let db = guide_figure3();
//! let result = run_query(&db, "select guide.restaurant \
//!                              where guide.restaurant.price < 20.5").unwrap();
//! assert_eq!(result.len(), 1); // Bangkok Cuisine only
//! ```

#![warn(missing_docs)]

pub mod ast;
mod coerce;
mod defs;
pub mod delta;
mod engine;
mod error;
mod lexer;
mod parser;
mod plan;
mod result;
mod source;
mod token;
mod update;

pub use coerce::{coerce_compare, compare, like};
pub use defs::QueryRegistry;
pub use delta::{
    anchored_execute, delta_execute, delta_fresh, delta_supported, delta_touches, find_anchor,
    Anchor, DeltaSpec, DeltaUnsupported,
};
pub use engine::{execute, Binding, Row, Rows};
pub use error::{LorelError, Result};
pub use lexer::lex;
pub use parser::{parse_program, parse_query, DefineKind, Statement};
pub use plan::{plan, CompanionRole, Operand, Plan, Pred, SelectCol, VarDef, VarSource};
pub use result::{package, QueryResult, RESULT_ROOT_RAW};
pub use source::DataSource;
pub use token::{Keyword, Spanned, Token};
pub use update::{compile_update, parse_update, run_update, CompiledUpdate, NewObject, UpdateStmt};

/// The canonical text of a query: parse it and print it back. Two query
/// strings that differ only in whitespace, comments, or redundant
/// parentheses share one canonical text, which is what makes it usable as
/// a cache key (the serve crate keys its result cache on it).
pub fn canonical_text(text: &str) -> Result<String> {
    Ok(parse_query(text)?.to_string())
}

/// Parse, plan, execute and package a query in one call.
pub fn run_query(source: &dyn DataSource, text: &str) -> Result<QueryResult> {
    let query = parse_query(text)?;
    run_parsed(source, &query)
}

/// Plan, execute and package an already parsed query.
pub fn run_parsed(source: &dyn DataSource, query: &ast::Query) -> Result<QueryResult> {
    let plan = plan::plan(query, source.name())?;
    let rows = engine::execute(source, &plan)?;
    Ok(result::package(source, &rows, &format!("{}-result", source.name())))
}
