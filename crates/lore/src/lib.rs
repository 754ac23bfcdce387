//! # Lore — the storage substrate
//!
//! The paper implements DOEM and Chorel *on top of* the Lore DBMS
//! (Section 5): DOEM databases are stored as their Section 5.1 OEM
//! encodings, and the QSS DOEM Manager persists one database per
//! subscription. This crate is the minimal-but-real storage engine playing
//! Lore's role:
//!
//! * [`LoreStore`] — a crash-conscious directory store of named database
//!   images (binary codec in [`codec`]); DOEM databases go through the
//!   Section 5.1 encoding, exactly as the paper describes;
//! * [`Lindex`] / [`Vindex`] — Lore's label and value indexes;
//! * [`DataGuide`] — Lore's structural summary (subset construction over
//!   the graph, cycle-safe).

#![warn(missing_docs)]

pub mod codec;
mod dataguide;
mod error;
mod lindex;
mod store;
mod vindex;

pub use dataguide::{DataGuide, GuideNode};
pub use error::{LoreError, Result};
pub use lindex::Lindex;
pub use store::LoreStore;
pub use vindex::Vindex;
