//! Encoding DOEM databases in plain OEM (Section 5.1) and decoding back.
//!
//! Every DOEM object `o` becomes a *complex* encoding object `o'` (even
//! atomic ones, so their history can hang off them) with special
//! `&`-prefixed subobjects:
//!
//! * `&val` — the current value (a self-arc for complex objects);
//! * `&cre` — the creation timestamp, if any;
//! * `&upd` — one complex subobject per `upd` annotation, with `&time`,
//!   `&ov` and (redundantly, for ease of translation) `&nv`;
//! * `l` — a direct arc for every arc present in the *current* snapshot;
//! * `&l-history` — one history object per arc `(o, l, p)`, with `&target`
//!   and the `&add` / `&rem` timestamps.
//!
//! Encoding objects keep their DOEM node's id (the paper leaves ids
//! abstract; preserving them makes `decode(encode(D)) = D` exact).
//! Auxiliary objects (values, timestamps, history objects) get fresh ids.

use crate::{ArcAnnotation, DoemDatabase, DoemError, NodeAnnotation, Result};
use oem::{ArcTriple, Label, NodeId, OemDatabase, Timestamp, Value};
use std::collections::HashMap;

/// The result of encoding: the OEM database plus the mapping from DOEM
/// nodes to their encoding objects (the identity mapping, kept explicit so
/// callers need not rely on that).
#[derive(Clone, Debug)]
pub struct EncodedDoem {
    /// The OEM encoding.
    pub oem: OemDatabase,
    /// DOEM node → encoding object.
    pub node_map: HashMap<NodeId, NodeId>,
}


/// `&l-history` label for a plain label `l`.
pub fn history_label(l: Label) -> Label {
    Label::new(&format!("&{}-history", l.as_str()))
}

/// Inverse of [`history_label`]: `Some(l)` if the label is `&l-history`.
pub fn plain_label(history: Label) -> Option<Label> {
    let s = history.as_str();
    let inner = s.strip_prefix('&')?.strip_suffix("-history")?;
    Some(Label::new(inner))
}

/// Encode `d` as a plain OEM database.
pub fn encode_doem(d: &DoemDatabase) -> EncodedDoem {
    let mut out = OemDatabase::with_root_id(d.name(), d.root());
    let mut node_map = HashMap::new();

    // Pass 1: materialize every encoding object with its DOEM id. All are
    // complex in the encoding.
    node_map.insert(d.root(), d.root());
    for n in d.graph().node_ids() {
        if n != d.root() {
            out.create_node_with_id(n, Value::Complex)
                .expect("DOEM ids are unique");
            node_map.insert(n, n);
        }
    }

    // Pass 2: per-object structure.
    for n in d.graph().node_ids() {
        let enc = node_map[&n];
        let value = d.graph().value(n).expect("iterating own ids");

        // &val
        if value.is_complex() {
            out.insert_arc(ArcTriple::new(enc, "&val", enc))
                .expect("self arc is fresh");
        } else {
            let v = out.create_node(value.clone());
            out.insert_arc(ArcTriple::new(enc, "&val", v))
                .expect("fresh value node");
        }

        // &cre / &upd (a `cre` is always the node's first annotation)
        if let Some(t) = d.created_at(n) {
            let tn = out.create_node(Value::Time(t));
            out.insert_arc(ArcTriple::new(enc, "&cre", tn))
                .expect("fresh cre node");
        }
        for (at, old, new) in d.update_triples(n) {
            let u = out.create_node(Value::Complex);
            out.insert_arc(ArcTriple::new(enc, "&upd", u))
                .expect("fresh upd node");
            for (label, value) in [
                ("&time", Value::Time(at)),
                ("&ov", old.clone()),
                ("&nv", new.clone()),
            ] {
                let atom = out.create_node(value);
                out.insert_arc(ArcTriple::new(u, label, atom))
                    .expect("fresh upd part");
            }
        }

        // Arcs: a direct `l` arc when current, and always an `&l-history`.
        for (label, child, anns) in d.arcs_from(n) {
            if ArcAnnotation::current(anns) {
                out.insert_arc(ArcTriple::new(enc, label, node_map[&child]))
                    .expect("current arc is fresh in the encoding");
            }
            let h = out.create_node(Value::Complex);
            out.insert_arc(ArcTriple::new(enc, history_label(label), h))
                .expect("fresh history object");
            out.insert_arc(ArcTriple::new(h, "&target", node_map[&child]))
                .expect("fresh target arc");
            for ann in anns {
                let (l, t) = match ann {
                    ArcAnnotation::Add(t) => ("&add", *t),
                    ArcAnnotation::Rem(t) => ("&rem", *t),
                };
                let tn = out.create_node(Value::Time(t));
                out.insert_arc(ArcTriple::new(h, l, tn))
                    .expect("fresh annotation timestamp");
            }
        }
    }

    debug_assert!(out.check_invariants().is_ok());
    EncodedDoem { oem: out, node_map }
}

fn single_child(
    oem: &OemDatabase,
    n: NodeId,
    label: &str,
) -> std::result::Result<Option<NodeId>, DoemError> {
    let mut it = oem.children_labeled(n, Label::new(label));
    let first = it.next();
    if it.next().is_some() {
        return Err(DoemError::MalformedEncoding(format!(
            "object {n} has multiple {label} subobjects"
        )));
    }
    Ok(first)
}

fn required_child(oem: &OemDatabase, n: NodeId, label: &str) -> Result<NodeId> {
    single_child(oem, n, label)?.ok_or_else(|| {
        DoemError::MalformedEncoding(format!("object {n} is missing its {label} subobject"))
    })
}

fn time_value(oem: &OemDatabase, n: NodeId) -> Result<Timestamp> {
    match oem.value(n) {
        Ok(Value::Time(t)) => Ok(*t),
        other => Err(DoemError::MalformedEncoding(format!(
            "expected a timestamp value, found {other:?}"
        ))),
    }
}

/// Decode a Section 5.1 encoding back into a DOEM database. Exact inverse
/// of [`encode_doem`]: ids, values, annotations and arc order are restored.
pub fn decode_doem(encoded: &OemDatabase) -> Result<DoemDatabase> {
    // Encoding objects are exactly the nodes carrying a &val subobject.
    let val_label = Label::new("&val");
    let enc_nodes: Vec<NodeId> = encoded
        .node_ids()
        .filter(|&n| encoded.children_labeled(n, val_label).next().is_some())
        .collect();
    if !enc_nodes.contains(&encoded.root()) {
        return Err(DoemError::MalformedEncoding(
            "root has no &val subobject".to_string(),
        ));
    }

    let mut graph = OemDatabase::with_root_id(encoded.name(), encoded.root());
    // Materialize nodes with their decoded values.
    for &n in &enc_nodes {
        let val_node = required_child(encoded, n, "&val")?;
        let value = if val_node == n {
            Value::Complex
        } else {
            encoded
                .value(val_node)
                .map_err(DoemError::Oem)?
                .clone()
        };
        if n == encoded.root() {
            graph.set_value(n, value).expect("root exists");
        } else {
            graph
                .create_node_with_id(n, value)
                .map_err(DoemError::Oem)?;
        }
    }

    let mut d = DoemDatabase::from_snapshot(&graph);
    // `from_snapshot` clones; rebuild on the wrapped graph via records.
    // Simpler: fill annotations directly through the record API where
    // possible; but records enforce *current* semantics (e.g. updates
    // change values), so we instead reconstruct annotations structurally.
    for &n in &enc_nodes {
        if let Some(cre) = single_child(encoded, n, "&cre")? {
            d.attach_node_annotation(n, NodeAnnotation::Cre(time_value(encoded, cre)?))?;
        }
        let mut upds: Vec<(Timestamp, Value)> = Vec::new();
        for u in encoded.children_labeled(n, Label::new("&upd")) {
            let t = time_value(encoded, required_child(encoded, u, "&time")?)?;
            let ov_node = required_child(encoded, u, "&ov")?;
            let ov = encoded.value(ov_node).map_err(DoemError::Oem)?.clone();
            upds.push((t, ov));
        }
        upds.sort_by_key(|(t, _)| *t);
        for (at, old) in upds {
            d.attach_node_annotation(n, NodeAnnotation::Upd { at, old })?;
        }

        // Arcs come from the history objects (every arc has one).
        for &(hlabel, h) in encoded.children(n) {
            let Some(label) = plain_label(hlabel) else {
                continue;
            };
            let target = required_child(encoded, h, "&target")?;
            let arc = ArcTriple::new(n, label, target);
            d.attach_arc(arc)?;
            let mut anns: Vec<ArcAnnotation> = Vec::new();
            for a in encoded.children_labeled(h, Label::new("&add")) {
                anns.push(ArcAnnotation::Add(time_value(encoded, a)?));
            }
            for r in encoded.children_labeled(h, Label::new("&rem")) {
                anns.push(ArcAnnotation::Rem(time_value(encoded, r)?));
            }
            anns.sort_by_key(|a| a.at());
            for ann in anns {
                d.attach_arc_annotation(arc, ann)?;
            }
        }
    }

    d.check_invariants()?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{doem_figure4, same_doem, DoemDatabase};
    use oem::guide::{guide_figure2, ids};

    #[test]
    fn figure5_shape_an_updated_atom() {
        // Figure 5's left object: o1 with value 5, cre(t1), upd(t2, ov 2).
        let mut b = oem::GraphBuilder::new("d");
        let root = b.root();
        let o1 = b.atom_child(root, "item", 2);
        let snapshot = b.finish();
        let h = oem::History::from_entries([
            (
                "2Jan97".parse().unwrap(),
                oem::ChangeSet::from_ops([oem::ChangeOp::UpdNode(o1, Value::Int(5))]).unwrap(),
            ),
        ])
        .unwrap();
        let d = crate::doem_from_history(&snapshot, &h).unwrap();
        let enc = encode_doem(&d);
        let oem_db = &enc.oem;
        let o1e = enc.node_map[&o1];

        // &val holds the *current* value 5.
        let val = oem_db
            .children_labeled(o1e, Label::new("&val"))
            .next()
            .unwrap();
        assert_eq!(oem_db.value(val).unwrap(), &Value::Int(5));

        // One &upd with &time/&ov/&nv = (t, 2, 5).
        let upd = oem_db
            .children_labeled(o1e, Label::new("&upd"))
            .next()
            .unwrap();
        let ov = oem_db
            .children_labeled(upd, Label::new("&ov"))
            .next()
            .unwrap();
        let nv = oem_db
            .children_labeled(upd, Label::new("&nv"))
            .next()
            .unwrap();
        assert_eq!(oem_db.value(ov).unwrap(), &Value::Int(2));
        assert_eq!(oem_db.value(nv).unwrap(), &Value::Int(5));
    }

    #[test]
    fn complex_objects_get_val_self_arcs() {
        let d = DoemDatabase::from_snapshot(&guide_figure2());
        let enc = encode_doem(&d);
        let root = enc.node_map[&d.root()];
        let val = enc
            .oem
            .children_labeled(root, Label::new("&val"))
            .next()
            .unwrap();
        assert_eq!(val, root, "&val of a complex object is a self arc");
    }

    #[test]
    fn removed_arcs_appear_only_in_history_objects() {
        let d = doem_figure4();
        let enc = encode_doem(&d);
        let janta = enc.node_map[&ids::N6];
        // No direct `parking` arc from Janta (it was removed) ...
        assert_eq!(
            enc.oem
                .children_labeled(janta, Label::new("parking"))
                .count(),
            0
        );
        // ... but a &parking-history object with a &rem timestamp exists.
        let h = enc
            .oem
            .children_labeled(janta, Label::new("&parking-history"))
            .next()
            .expect("history object");
        let rem = enc
            .oem
            .children_labeled(h, Label::new("&rem"))
            .next()
            .expect("&rem timestamp");
        assert_eq!(
            enc.oem.value(rem).unwrap(),
            &Value::Time("8Jan97".parse().unwrap())
        );
        // And its &target is the encoding of n7.
        let target = enc
            .oem
            .children_labeled(h, Label::new("&target"))
            .next()
            .unwrap();
        assert_eq!(target, enc.node_map[&ids::N7]);
    }

    #[test]
    fn current_arcs_appear_both_directly_and_in_history() {
        let d = doem_figure4();
        let enc = encode_doem(&d);
        let guide_root = enc.node_map[&ids::N4];
        // Three current restaurant arcs.
        assert_eq!(
            enc.oem
                .children_labeled(guide_root, Label::new("restaurant"))
                .count(),
            3
        );
        // And three history objects for them.
        assert_eq!(
            enc.oem
                .children_labeled(guide_root, Label::new("&restaurant-history"))
                .count(),
            3
        );
    }

    #[test]
    fn encoding_is_a_valid_oem_database() {
        let enc = encode_doem(&doem_figure4());
        enc.oem.check_invariants().unwrap();
    }

    #[test]
    fn decode_inverts_encode_exactly() {
        let d = doem_figure4();
        let enc = encode_doem(&d);
        let back = decode_doem(&enc.oem).unwrap();
        assert!(same_doem(&d, &back));
    }

    #[test]
    fn decode_inverts_encode_on_unannotated_databases() {
        let d = DoemDatabase::from_snapshot(&guide_figure2());
        let back = decode_doem(&encode_doem(&d).oem).unwrap();
        assert!(same_doem(&d, &back));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_doem(&guide_figure2()).is_err());
    }

    #[test]
    fn history_label_round_trip() {
        let l = Label::new("price");
        assert_eq!(history_label(l).as_str(), "&price-history");
        assert_eq!(plain_label(history_label(l)), Some(l));
        assert_eq!(plain_label(Label::new("price")), None);
        assert_eq!(plain_label(Label::new("&val")), None);
    }
}
