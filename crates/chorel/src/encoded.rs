//! A [`DataSource`] over the Section 5.1 OEM encoding of a DOEM database.
//!
//! Mostly a passthrough to the encoded [`oem::OemDatabase`]; the one
//! refinement is that wildcard steps (`#`, `%`) skip `&`-reserved arcs, so
//! wildcards range over the modeled graph rather than the encoding's
//! bookkeeping structure (`&val`, `&upd`, `&l-history`, …).

use lorel::DataSource;
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

    fn value(&self, n: NodeId) -> Option<Cow<'_, Value>> {
        self.oem.value(n).ok().map(Cow::Borrowed)
    }

    fn children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        self.oem.children(n).to_vec()
    }

    fn wildcard_children(&self, n: NodeId) -> Vec<(Label, NodeId)> {
        self.oem
            .children(n)
            .iter()
            .copied()
            .filter(|(l, _)| !l.is_reserved())
            .collect()
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
        let all = src.children(ids::N4);
        let wild = src.wildcard_children(ids::N4);
        assert!(all.len() > wild.len());
        assert!(wild.iter().all(|(l, _)| !l.is_reserved()));
        // The three current restaurants remain visible to wildcards.
        assert_eq!(wild.len(), 3);
    }
}
