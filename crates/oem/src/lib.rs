//! # OEM — the Object Exchange Model
//!
//! A from-scratch implementation of the Object Exchange Model of
//! Papakonstantinou, Garcia-Molina and Widom (ICDE 1995), as used by
//! *"Representing and Querying Changes in Semistructured Data"* (Chawathe,
//! Abiteboul, Widom; ICDE 1998), Section 2.
//!
//! An OEM database ([`OemDatabase`]) is a rooted, labeled directed graph:
//! nodes are objects (atomic values or the complex marker `C`), arcs are
//! labeled object–subobject relationships, and persistence is by
//! reachability from the distinguished root.
//!
//! This crate provides:
//!
//! * the graph itself with invariant checking ([`OemDatabase`]);
//! * the paper's four basic change operations ([`ChangeOp`]), unordered
//!   conflict-checked change sets ([`ChangeSet`]) and timestamped histories
//!   ([`History`]) — Definition 2.2;
//! * the discrete, totally ordered time domain ([`Timestamp`]) with the
//!   paper's coercing date parser (`"8Jan97"`, `"1997-01-08"`, …);
//! * traversal, structural-equality, and graph-isomorphism utilities;
//! * a textual OEM reader/writer handling shared subobjects and cycles;
//! * DOT output for regenerating the paper's figures; and
//! * the paper's running Guide example as ready-made fixtures
//!   ([`guide::guide_figure2`], [`guide::history_example_2_3`]).
//!
//! ```
//! use oem::{guide, Value};
//!
//! // Figure 2 of the paper, with the paper's node numbering.
//! let mut db = guide::guide_figure2();
//! assert_eq!(db.value(guide::ids::N1).unwrap(), &Value::Int(10));
//!
//! // Example 2.3: the three timestamped change sets, applied in order.
//! guide::history_example_2_3().apply_to(&mut db).unwrap();
//! assert_eq!(db.value(guide::ids::N1).unwrap(), &Value::Int(20));
//! ```

#![warn(missing_docs)]

mod arc;
mod builder;
mod changeset;
mod database;
mod dot;
mod eq;
mod error;
pub mod guide;
mod history;
mod html;
mod ids;
mod label;
mod ops;
mod parse_ops;
mod pmap;
mod shared;
mod text;
mod versioned;
mod timestamp;
mod traverse;
mod value;

pub use arc::ArcTriple;
pub use builder::GraphBuilder;
pub use changeset::ChangeSet;
pub use database::OemDatabase;
pub use dot::to_dot;
pub use eq::{isomorphic, same_database};
pub use error::{OemError, Result};
pub use history::{History, HistoryEntry};
pub use html::parse_html;
pub use ids::NodeId;
pub use label::Label;
pub use ops::{ChangeOp, CurrentView};
pub use parse_ops::{parse_change_set, parse_history, parse_op};
pub use pmap::{PMap, PSet};
pub use shared::SharedOem;
pub use versioned::{VersionEntry, VersionRing};
pub use text::{parse_text, write_text, TextOptions};
pub use timestamp::{ParseTimestampError, Timestamp};
pub use traverse::{follow_path, max_depth, preorder, reachable_from};
pub use value::Value;
