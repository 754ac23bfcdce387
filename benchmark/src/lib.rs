//! `doem-load` — the repo's wire-level benchmark. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod check;
pub mod client;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod rng;
pub mod run;
pub mod script;
pub mod server;
pub mod stats;
pub mod trace;
pub mod wire;
