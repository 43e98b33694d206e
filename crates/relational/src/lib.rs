//! `quark-relational`: the relational substrate of the `quark-xtrig`
//! reproduction of *"Triggers over XML Views of Relational Data"*
//! (ICDE 2005).
//!
//! The paper runs on IBM DB2; its algorithms only rely on a narrow RDBMS
//! interface, which this crate implements from scratch:
//!
//! * typed tables with **primary keys** (required for trigger-specifiable
//!   views, Theorem 1) and secondary hash indices,
//! * data-change **statements** (INSERT/UPDATE/DELETE) that each produce Δ
//!   and ∇ **transition tables** (§2.3),
//! * statement-level **AFTER triggers** whose bodies are declarative query
//!   plans executed against the post-statement state plus transition
//!   tables,
//! * a physical **plan executor** with hash/index joins, anti joins for
//!   the INSERT/DELETE event semantics, grouped aggregation (including
//!   `aggXMLFrag`), unions, sorting, and reconstruction of the
//!   pre-statement table state `B_old = (B ∖ ΔB) ∪ ∇B` (§4.2),
//! * a textual **statement surface** ([`sql`]) — DML/DDL/`SELECT` parsed
//!   from text with spanned errors, the relational half of the
//!   `Session::execute` front door one layer up.
//!
//! Everything XML-trigger-specific (XQGM, affected-key computation,
//! grouping, tagging) lives in the crates layered above.

#![warn(missing_docs)]

mod database;
mod error;
pub mod exec;
pub mod expr;
pub mod plan;
mod schema;
pub mod sql;
mod table;
mod value;
pub mod wire;

pub use database::{
    Database, Event, FootprintScope, FootprintTolerance, NativeTriggerFn, RowsHandler, SqlTrigger,
    Stats, TransitionTables, TriggerBody,
};
pub use error::{Error, Result};
pub use schema::{ColumnDef, RowSet, TableSchema};
pub use table::{Covering, Key, Table};
pub use value::{row, ColumnType, Row, Value};
pub use wire::RedoOp;

#[cfg(test)]
mod access_tests;
#[cfg(test)]
mod exec_tests;
