//! # doem-suite — a reproduction of *"Representing and Querying Changes in
//! Semistructured Data"* (Chawathe, Abiteboul, Widom; ICDE 1998)
//!
//! This facade crate re-exports the whole stack; see the individual crates
//! for depth:
//!
//! | crate | paper section | contents |
//! |-------|---------------|----------|
//! | [`oem`] | §2 | the Object Exchange Model: graph, change operations, change sets, histories, timestamps, text format |
//! | [`doem`] | §3, §5.1 | Delta-OEM: annotations, `D(O,H)`, snapshots, history extraction, feasibility, the OEM encoding, annotation indexes |
//! | [`lorel`] | §4 | the Lorel/Chorel language: lexer, parser, planner (the §4.2.1 rewriting), engine, result packaging |
//! | [`chorel`] | §4.2, §5.2 | DOEM-backed execution: the direct strategy, the Chorel→Lorel translation, `t[i]` preprocessing |
//! | [`oemdiff`] | §1.1, §6 | snapshot differencing (`U(R_old) = R_new`) and htmldiff-style markup |
//! | [`lore`] | §5, §6.1 | the storage substrate: binary codec and crash-conscious image store |
//! | [`qss`] | §6 | the Query Subscription Service: frequency specs, sources, subscriptions, server |
//!
//! ## Quickstart
//!
//! ```
//! use doem_suite::prelude::*;
//!
//! // Build a database, record a history, query the changes.
//! let mut b = GraphBuilder::new("guide");
//! let root = b.root();
//! let r = b.complex_child(root, "restaurant");
//! b.atom_child(r, "name", "Bangkok Cuisine");
//! let price = b.atom_child(r, "price", 10);
//! let db = b.finish();
//!
//! let history = History::from_entries([(
//!     "1Jan97".parse().unwrap(),
//!     ChangeSet::from_ops([ChangeOp::UpdNode(price, Value::Int(20))]).unwrap(),
//! )]).unwrap();
//!
//! let d = doem_from_history(&db, &history).unwrap();
//! let result = run_chorel(
//!     &d,
//!     "select NV from guide.restaurant.price<upd at T to NV> where T >= 1Jan97",
//!     Strategy::Direct,
//! ).unwrap();
//! assert_eq!(result.len(), 1);
//! ```

#![warn(missing_docs)]

pub use chorel;
pub use doem;
pub use lore;
pub use lorel;
pub use oem;
pub use oemdiff;
pub use qss;

/// Everything you usually want in scope.
pub mod prelude {
    pub use chorel::{run_both_checked, run_chorel, translate, Strategy};
    pub use doem::{
        current_snapshot, doem_from_history, encode_doem, extract_history, is_feasible,
        original_snapshot, snapshot_at, DoemDatabase,
    };
    pub use lorel::{parse_query, run_query, QueryRegistry};
    pub use oem::{
        ArcTriple, ChangeOp, ChangeSet, GraphBuilder, History, Label, NodeId, OemDatabase,
        Timestamp, Value,
    };
    pub use oemdiff::{diff, markup, MatchMode};
    pub use qss::{QssServer, ScriptedSource, Source, Subscription};
}
