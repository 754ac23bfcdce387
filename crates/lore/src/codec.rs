//! Binary serialization of OEM databases.
//!
//! A compact, versioned, deterministic format built on [`bytes`]:
//!
//! ```text
//! image   := magic "LORE1" | name | root | node* END | label-table | arc*
//! node    := id value
//! value   := tag(u8) payload
//! arc     := parent label-index child
//! ```
//!
//! Labels are table-encoded (they repeat massively). All integers are
//! little-endian fixed width — simplicity over byte-shaving; the store is
//! not the bottleneck of any benchmark.

use crate::{LoreError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use oem::{ArcTriple, Label, NodeId, OemDatabase, Timestamp, Value};

const MAGIC: &[u8; 5] = b"LORE1";
const END_NODES: u64 = u64::MAX;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(LoreError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(LoreError::Corrupt("truncated string body".into()));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| LoreError::Corrupt("non-utf8 string".into()))
}

/// Encode a [`Value`].
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Complex => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        Value::Real(r) => {
            buf.put_u8(2);
            buf.put_u64_le(r.to_bits());
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
        Value::Time(t) => {
            buf.put_u8(5);
            buf.put_i64_le(t.raw_minutes());
        }
    }
}

/// Decode a [`Value`].
pub fn get_value(buf: &mut Bytes) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(LoreError::Corrupt("truncated value tag".into()));
    }
    Ok(match buf.get_u8() {
        0 => Value::Complex,
        1 => need(buf, 8).map(|_| Value::Int(buf.get_i64_le()))?,
        2 => need(buf, 8).map(|_| Value::Real(f64::from_bits(buf.get_u64_le())))?,
        3 => Value::Str(get_str(buf)?.into()),
        4 => need(buf, 1).map(|_| Value::Bool(buf.get_u8() != 0))?,
        5 => need(buf, 8).map(|_| Value::Time(Timestamp::from_raw_minutes(buf.get_i64_le())))?,
        tag => return Err(LoreError::Corrupt(format!("unknown value tag {tag}"))),
    })
}

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(LoreError::Corrupt("truncated value payload".into()))
    } else {
        Ok(())
    }
}

/// Serialize a whole database image.
pub fn encode_database(db: &OemDatabase) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + db.node_count() * 16 + db.arc_count() * 20);
    buf.put_slice(MAGIC);
    put_str(&mut buf, db.name());
    buf.put_u64_le(db.root().raw());

    for n in db.node_ids() {
        buf.put_u64_le(n.raw());
        put_value(&mut buf, db.value(n).expect("own id"));
    }
    buf.put_u64_le(END_NODES);

    // Label table.
    let mut labels: Vec<Label> = Vec::new();
    for arc in db.arcs() {
        if !labels.contains(&arc.label) {
            labels.push(arc.label);
        }
    }
    buf.put_u32_le(labels.len() as u32);
    for l in &labels {
        put_str(&mut buf, l.as_str());
    }

    buf.put_u64_le(db.arc_count() as u64);
    for arc in db.arcs() {
        let li = labels.iter().position(|l| *l == arc.label).expect("in table") as u32;
        buf.put_u64_le(arc.parent.raw());
        buf.put_u32_le(li);
        buf.put_u64_le(arc.child.raw());
    }
    buf.freeze()
}

/// Deserialize a database image.
pub fn decode_database(mut buf: Bytes) -> Result<OemDatabase> {
    if buf.remaining() < MAGIC.len() || &buf.copy_to_bytes(MAGIC.len())[..] != MAGIC {
        return Err(LoreError::Corrupt("bad magic".into()));
    }
    let name = get_str(&mut buf)?;
    if buf.remaining() < 8 {
        return Err(LoreError::Corrupt("truncated root".into()));
    }
    let root = NodeId::from_raw(buf.get_u64_le());
    let mut db = OemDatabase::with_root_id(name, root);

    loop {
        if buf.remaining() < 8 {
            return Err(LoreError::Corrupt("truncated node list".into()));
        }
        let raw = buf.get_u64_le();
        if raw == END_NODES {
            break;
        }
        let id = NodeId::from_raw(raw);
        let value = get_value(&mut buf)?;
        if id == root {
            db.set_value(id, value)
                .map_err(|e| LoreError::Corrupt(e.to_string()))?;
        } else {
            db.create_node_with_id(id, value)
                .map_err(|e| LoreError::Corrupt(e.to_string()))?;
        }
    }

    if buf.remaining() < 4 {
        return Err(LoreError::Corrupt("truncated label table".into()));
    }
    let label_count = buf.get_u32_le() as usize;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(Label::new(&get_str(&mut buf)?));
    }

    if buf.remaining() < 8 {
        return Err(LoreError::Corrupt("truncated arc count".into()));
    }
    let arc_count = buf.get_u64_le();
    for _ in 0..arc_count {
        if buf.remaining() < 20 {
            return Err(LoreError::Corrupt("truncated arc".into()));
        }
        let parent = NodeId::from_raw(buf.get_u64_le());
        let li = buf.get_u32_le() as usize;
        let child = NodeId::from_raw(buf.get_u64_le());
        let label = *labels
            .get(li)
            .ok_or_else(|| LoreError::Corrupt(format!("label index {li} out of range")))?;
        db.insert_arc(ArcTriple::new(parent, label, child))
            .map_err(|e| LoreError::Corrupt(e.to_string()))?;
    }
    if buf.has_remaining() {
        return Err(LoreError::Corrupt("trailing bytes".into()));
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::{guide_figure2, guide_figure3};
    use oem::same_database;

    #[test]
    fn database_round_trips_exactly() {
        for db in [guide_figure2(), guide_figure3()] {
            let bytes = encode_database(&db);
            let back = decode_database(bytes).unwrap();
            assert!(same_database(&db, &back));
            assert_eq!(db.name(), back.name());
        }
    }

    #[test]
    fn all_value_types_round_trip() {
        let mut b = oem::GraphBuilder::new("vals");
        let root = b.root();
        b.atom_child(root, "i", -42);
        b.atom_child(root, "r", 2.5);
        b.atom_child(root, "nan", f64::NAN);
        b.atom_child(root, "s", "héllo\nworld");
        b.atom_child(root, "b", true);
        b.atom_child(root, "t", "8Jan97 11:30pm".parse::<Timestamp>().unwrap());
        b.complex_child(root, "c");
        let db = b.finish();
        let back = decode_database(encode_database(&db)).unwrap();
        assert!(same_database(&db, &back));
    }

    #[test]
    fn corrupt_images_are_rejected_not_panicked() {
        let bytes = encode_database(&guide_figure2());
        // Truncations at every prefix length must error cleanly.
        for cut in [0, 3, 5, 9, 17, bytes.len() / 2, bytes.len() - 1] {
            let img = bytes.slice(0..cut);
            assert!(decode_database(img).is_err(), "cut at {cut} not rejected");
        }
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(decode_database(Bytes::from(bad)).is_err());
        // Trailing garbage.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(decode_database(Bytes::from(long)).is_err());
    }
}
