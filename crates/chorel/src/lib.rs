//! # Chorel — querying changes in semistructured data
//!
//! The Chorel-specific machinery of *"Representing and Querying Changes in
//! Semistructured Data"* (ICDE 1998), built on the `lorel` engine and the
//! `doem` representation:
//!
//! * [`DirectSource`] — evaluate annotation expressions natively over a
//!   DOEM database (the "extend the kernel" strategy);
//! * [`AtSource`] / [`run_chorel_at`] — the same engine over `O_t(D)`, the
//!   state at a past time, read lazily from the annotations;
//! * [`translate`] + [`EncodedSource`] — the paper's implemented strategy
//!   (Section 5): encode DOEM in OEM, rewrite the Chorel query through
//!   `creFun`/`updFun`/`addFun`/`remFun` into pure Lorel, run unchanged
//!   Lorel;
//! * [`run_chorel`] / [`run_both_checked`] — one-call execution with
//!   either strategy, plus the cross-checking harness that asserts both
//!   strategies agree (property-tested in the integration suite);
//! * [`resolve_poll_times`] — the QSS preprocessor for `t[0]`, `t[-1]`, ….
//!
//! ```
//! use chorel::{run_chorel, Strategy};
//! use doem::doem_figure4;
//!
//! // Example 4.2 of the paper: newly added restaurant entries only.
//! let d = doem_figure4();
//! let r = run_chorel(&d, "select guide.<add>restaurant", Strategy::Direct).unwrap();
//! assert_eq!(r.len(), 1); // Hakata
//! ```

#![warn(missing_docs)]

mod at;
pub mod delta;
mod direct;
mod encoded;
mod engines;
mod timevar;
mod translate;

pub use at::AtSource;
pub use direct::DirectSource;
pub use encoded::EncodedSource;
pub use engines::{
    canonical_row_strings, canonical_rows, run_both_checked, run_chorel, run_chorel_at,
    run_chorel_parsed, run_direct_rows, CanonBinding, Strategy,
};
pub use timevar::resolve_poll_times;
pub use translate::translate;
