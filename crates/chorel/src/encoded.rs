//! A [`DataSource`] over the Section 5.1 OEM encoding of a DOEM database.
//!
//! A passthrough to the encoded [`oem::OemDatabase`], except that
//! [`DataSource::hides_from_wildcards`] hides the `&`-reserved arcs: the
//! wildcard steps (`#`, `%`) range over the modeled graph rather than the
//! encoding's bookkeeping structure (`&val`, `&upd`, `&l-history`, …).

use lorel::{DataSource, LabelSet, When};
use oem::{Label, NodeId, OemDatabase, Value};
use std::borrow::Cow;

/// The encoded-database view used by the translation strategy.
#[derive(Clone, Debug)]
pub struct EncodedSource {
    oem: OemDatabase,
}

impl EncodedSource {
    /// Wrap an encoded database (as produced by [`doem::encode_doem`]).
    pub fn new(oem: OemDatabase) -> EncodedSource {
        EncodedSource { oem }
    }

    /// The underlying encoded database.
    pub fn oem(&self) -> &OemDatabase {
        &self.oem
    }
}

impl DataSource for EncodedSource {
    fn name(&self) -> &str {
        self.oem.name()
    }

    fn root(&self) -> NodeId {
        self.oem.root()
    }

    fn value(&self, n: NodeId, when: When) -> Option<Cow<'_, Value>> {
        DataSource::value(&self.oem, n, when)
    }

    fn arcs(&self, n: NodeId, labels: &LabelSet, when: When, visit: &mut dyn FnMut(Label, NodeId)) {
        DataSource::arcs(&self.oem, n, labels, when, visit)
    }

    fn hides_from_wildcards(&self, l: Label) -> bool {
        l.is_reserved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doem::{doem_figure4, encode_doem};
    use oem::guide::ids;

    #[test]
    fn wildcards_skip_reserved_arcs() {
        let enc = encode_doem(&doem_figure4());
        let src = EncodedSource::new(enc.oem);
        let mut all = Vec::new();
        src.arcs(ids::N4, &LabelSet::Any, When::Now, &mut |l, _| all.push(l));
        let wild: Vec<Label> = all
            .iter()
            .copied()
            .filter(|&l| !src.hides_from_wildcards(l))
            .collect();
        assert!(all.len() > wild.len());
        assert!(wild.iter().all(|l| !l.is_reserved()));
        // The three current restaurants remain visible to wildcards.
        assert_eq!(wild.len(), 3);
    }
}
