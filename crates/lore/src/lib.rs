//! # Lore — the storage substrate
//!
//! The paper implements DOEM and Chorel *on top of* the Lore DBMS
//! (Section 5): DOEM databases are stored as their Section 5.1 OEM
//! encodings, and the QSS DOEM Manager persists one database per
//! subscription. This crate is the minimal-but-real storage engine playing
//! Lore's role: [`LoreStore`], a crash-conscious directory store of named
//! database images, over the binary codec in [`codec`]. DOEM databases go
//! through the Section 5.1 encoding, exactly as the paper describes.

#![warn(missing_docs)]

pub mod codec;
mod error;
mod store;

pub use error::{LoreError, Result};
pub use store::LoreStore;
