//! Wire framing for replication batches.
//!
//! A `REPLICATE <db> FROM <lsn>` request is answered with an ordinary
//! row block, so the stream rides the existing line protocol — tagged
//! pipelining, escaping, and client framing all apply unchanged. The
//! block is one header row followed by either snapshot chunks or log
//! records:
//!
//! ```text
//! REPL <db> FROM <from> AT <primary-lsn> SNAP <chunks> RECS <n> EPOCH <e>
//! SNAP <hex>            × chunks   (checkpoint image, lore-codec bytes)
//! REC <lsn> {op, op, …} × n        (history entries strictly after FROM)
//! ```
//!
//! The `EPOCH` token carries the serving shard's promotion epoch and is
//! mandatory: a header without it is rejected. Followers adopt a newer
//! epoch and reject batches from an older one with the typed `FENCED`
//! error — a deposed primary cannot feed a follower that has already
//! seen the promoted lineage.
//!
//! LSNs travel as raw minute counts (`-` for negative infinity — see
//! [`lsn_to_wire`]), immune to timestamp display quirks. Records reuse
//! the paper's change-operation notation — the same text the WAL frames,
//! so a shipped batch is exactly a slice of the primary's history `H`.
//! Snapshot images are the Section 5.1 OEM encoding of the primary's
//! DOEM graph (the checkpoint format), hex-armored into row-safe chunks.

use crate::protocol::{lsn_from_wire, lsn_to_wire};
use doem::{decode_doem, encode_doem, DoemDatabase};
use oem::{parse_change_set, ChangeSet, Timestamp};

/// Snapshot bytes per `SNAP` row (each byte is two hex characters on the
/// wire). Small enough that a row stays comfortably line-sized, large
/// enough that even big images ship in few rows.
const SNAP_CHUNK: usize = 4096;

/// One replication batch, as cut by the primary and decoded by the
/// follower: either a full checkpoint image (the follower is behind the
/// retained log tail and must resync) or a run of history entries
/// strictly after the follower's applied LSN.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplBatch {
    /// The database being replicated.
    pub db: String,
    /// The LSN the follower asked to resume from.
    pub from: Timestamp,
    /// The primary's applied LSN when the batch was cut; the follower is
    /// caught up once its own applied LSN reaches it.
    pub primary_lsn: Timestamp,
    /// Full checkpoint image (lore-codec bytes of the encoded DOEM) when
    /// the tail no longer reaches back to `from`; `None` for tail
    /// batches.
    pub snapshot: Option<Vec<u8>>,
    /// History entries strictly after `from`, in LSN order. Empty for
    /// snapshot batches and for an already-caught-up follower.
    pub records: Vec<(Timestamp, ChangeSet)>,
    /// The serving shard's promotion epoch when the batch was cut (0 for
    /// a never-promoted lineage).
    pub epoch: u64,
}

impl ReplBatch {
    /// Render the batch as response rows (the primary half).
    pub fn to_rows(&self) -> Vec<String> {
        let chunks: Vec<String> = match &self.snapshot {
            Some(bytes) => bytes.chunks(SNAP_CHUNK).map(hex_encode).collect(),
            None => Vec::new(),
        };
        let mut rows = Vec::with_capacity(1 + chunks.len() + self.records.len());
        rows.push(format!(
            "REPL {} FROM {} AT {} SNAP {} RECS {} EPOCH {}",
            self.db,
            lsn_to_wire(self.from),
            lsn_to_wire(self.primary_lsn),
            chunks.len(),
            self.records.len(),
            self.epoch
        ));
        for chunk in chunks {
            rows.push(format!("SNAP {chunk}"));
        }
        for (at, changes) in &self.records {
            rows.push(format!("REC {} {changes}", lsn_to_wire(*at)));
        }
        rows
    }

    /// Decode a batch from response rows (the follower half). Total over
    /// arbitrary rows: every defect is an `Err`, never a panic
    /// (fuzz-enforced below).
    pub fn from_rows(rows: &[String]) -> Result<ReplBatch, String> {
        let header = rows.first().ok_or("empty replication batch")?;
        let mut words = header.split_whitespace();
        if words.next() != Some("REPL") {
            return Err(format!("bad replication header {header:?}"));
        }
        let db = words.next().ok_or("header missing database")?.to_string();
        expect_kw(&mut words, "FROM")?;
        let from = lsn_from_wire(words.next().ok_or("header missing FROM lsn")?)
            .map_err(|e| e.message)?;
        expect_kw(&mut words, "AT")?;
        let primary_lsn = lsn_from_wire(words.next().ok_or("header missing AT lsn")?)
            .map_err(|e| e.message)?;
        expect_kw(&mut words, "SNAP")?;
        let chunks: usize = parse_count(words.next(), "SNAP")?;
        expect_kw(&mut words, "RECS")?;
        let n: usize = parse_count(words.next(), "RECS")?;
        expect_kw(&mut words, "EPOCH")?;
        let w = words.next().ok_or("header missing EPOCH value")?;
        let epoch = w
            .parse::<u64>()
            .map_err(|_| format!("bad EPOCH value {w:?}"))?;
        if words.next().is_some() {
            return Err(format!("trailing words in replication header {header:?}"));
        }
        if rows.len() != 1 + chunks + n {
            return Err(format!(
                "replication batch has {} rows, header promised {}",
                rows.len(),
                1 + chunks + n
            ));
        }
        let snapshot = if chunks > 0 {
            let mut bytes = Vec::new();
            for row in &rows[1..1 + chunks] {
                let hex = row
                    .strip_prefix("SNAP ")
                    .ok_or_else(|| format!("expected SNAP row, found {row:?}"))?;
                bytes.extend(hex_decode(hex)?);
            }
            Some(bytes)
        } else {
            None
        };
        let mut records = Vec::with_capacity(n);
        for row in &rows[1 + chunks..] {
            let rest = row
                .strip_prefix("REC ")
                .ok_or_else(|| format!("expected REC row, found {row:?}"))?;
            let (lsn, ops) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("REC row missing change set: {row:?}"))?;
            let at = lsn_from_wire(lsn).map_err(|e| e.message)?;
            let changes = parse_change_set(ops.trim()).map_err(|e| e.to_string())?;
            records.push((at, changes));
        }
        Ok(ReplBatch {
            db,
            from,
            primary_lsn,
            snapshot,
            records,
            epoch,
        })
    }
}

fn expect_kw(words: &mut std::str::SplitWhitespace<'_>, kw: &str) -> Result<(), String> {
    match words.next() {
        Some(w) if w == kw => Ok(()),
        other => Err(format!("expected {kw} in replication header, found {other:?}")),
    }
}

fn parse_count(word: Option<&str>, what: &str) -> Result<usize, String> {
    let w = word.ok_or_else(|| format!("header missing {what} count"))?;
    // Cap far above any real batch so a hostile header cannot demand an
    // absurd allocation.
    let n: usize = w
        .parse()
        .map_err(|_| format!("bad {what} count {w:?}"))?;
    if n > 1 << 24 {
        return Err(format!("{what} count {n} is implausibly large"));
    }
    Ok(n)
}

/// Encode a DOEM database as snapshot bytes: the Section 5.1 OEM
/// encoding serialized through the lore codec — byte-identical to what a
/// checkpoint file holds.
pub fn snapshot_bytes(d: &DoemDatabase) -> Vec<u8> {
    lore::codec::encode_database(&encode_doem(d).oem).to_vec()
}

/// Inverse of [`snapshot_bytes`].
pub fn snapshot_from_bytes(image: &[u8]) -> Result<DoemDatabase, String> {
    let oem = lore::codec::decode_database(bytes::Bytes::copy_from_slice(image))
        .map_err(|e| e.to_string())?;
    decode_doem(&oem).map_err(|e| e.to_string())
}

fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

fn hex_decode(hex: &str) -> Result<Vec<u8>, String> {
    let digit = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    };
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex chunk".into());
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::{guide_figure2, history_example_2_3};

    fn sample_records() -> Vec<(Timestamp, ChangeSet)> {
        history_example_2_3()
            .entries()
            .iter()
            .map(|e| (e.at, e.changes.clone()))
            .collect()
    }

    #[test]
    fn tail_batches_round_trip() {
        let records = sample_records();
        let batch = ReplBatch {
            db: "guide".into(),
            from: Timestamp::NEG_INFINITY,
            primary_lsn: records.last().unwrap().0,
            snapshot: None,
            records,
            epoch: 3,
        };
        let rows = batch.to_rows();
        assert!(rows[0].starts_with("REPL guide FROM - AT "));
        assert!(rows[0].ends_with(" EPOCH 3"));
        assert_eq!(ReplBatch::from_rows(&rows).unwrap(), batch);
    }

    #[test]
    fn snapshot_batches_round_trip_through_the_image_codec() {
        let doem = doem::DoemDatabase::from_snapshot(&guide_figure2());
        let batch = ReplBatch {
            db: "guide".into(),
            from: Timestamp::NEG_INFINITY,
            primary_lsn: Timestamp::from_ymd(1997, 1, 1),
            snapshot: Some(snapshot_bytes(&doem)),
            records: Vec::new(),
            epoch: 0,
        };
        let rows = batch.to_rows();
        let back = ReplBatch::from_rows(&rows).unwrap();
        assert_eq!(back, batch);
        let decoded = snapshot_from_bytes(back.snapshot.as_ref().unwrap()).unwrap();
        assert!(oem::same_database(
            &doem::current_snapshot(&decoded),
            &guide_figure2()
        ));
    }

    #[test]
    fn big_snapshots_chunk_and_reassemble() {
        let image: Vec<u8> = (0..3 * SNAP_CHUNK + 17).map(|i| (i % 251) as u8).collect();
        let batch = ReplBatch {
            db: "big".into(),
            from: Timestamp::from_raw_minutes(5),
            primary_lsn: Timestamp::from_raw_minutes(9),
            snapshot: Some(image.clone()),
            records: Vec::new(),
            epoch: 0,
        };
        let rows = batch.to_rows();
        assert_eq!(rows.len(), 1 + 4);
        assert_eq!(
            ReplBatch::from_rows(&rows).unwrap().snapshot.unwrap(),
            image
        );
    }

    #[test]
    fn defective_batches_error_without_panicking() {
        let records = sample_records();
        let good = ReplBatch {
            db: "guide".into(),
            from: Timestamp::NEG_INFINITY,
            primary_lsn: records.last().unwrap().0,
            snapshot: None,
            records,
            epoch: 0,
        }
        .to_rows();
        // Truncated block, corrupted header, corrupted record.
        assert!(ReplBatch::from_rows(&good[..good.len() - 1]).is_err());
        assert!(ReplBatch::from_rows(&[]).is_err());
        let mut bad = good.clone();
        bad[0] = "REPL guide FROM x AT y SNAP 0 RECS 1".into();
        assert!(ReplBatch::from_rows(&bad).is_err());
        let mut bad = good.clone();
        bad[1] = "REC 12 {not ops}".into();
        assert!(ReplBatch::from_rows(&bad).is_err());
        // A hostile count cannot demand an absurd allocation.
        assert!(ReplBatch::from_rows(&["REPL g FROM - AT - SNAP 0 RECS 99999999999".into()])
            .is_err());
        // Epoch defects: missing value, non-numeric value, trailing junk.
        assert!(ReplBatch::from_rows(&["REPL g FROM - AT - SNAP 0 RECS 0 EPOCH".into()])
            .is_err());
        assert!(ReplBatch::from_rows(&["REPL g FROM - AT - SNAP 0 RECS 0 EPOCH x".into()])
            .is_err());
        assert!(
            ReplBatch::from_rows(&["REPL g FROM - AT - SNAP 0 RECS 0 EPOCH 1 junk".into()])
                .is_err()
        );
    }

    #[test]
    fn headers_without_epoch_are_rejected() {
        // Every header this binary writes carries `EPOCH`; one without it
        // is not a batch.
        let rows = vec!["REPL guide FROM - AT - SNAP 0 RECS 0".to_string()];
        assert!(ReplBatch::from_rows(&rows).is_err());
        let rows = vec!["REPL guide FROM - AT - SNAP 0 RECS 0 EPOCH 0".to_string()];
        assert_eq!(ReplBatch::from_rows(&rows).unwrap().epoch, 0);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The batch decoder must reject garbage with an error, never
        /// panic — the contract every hand-rolled parser in this
        /// workspace carries.
        #[test]
        fn from_rows_never_panics_on_arbitrary_rows(
            rows in proptest::collection::vec("\\PC{0,80}", 0..8),
        ) {
            let _ = ReplBatch::from_rows(&rows);
            for row in &rows {
                let _ = hex_decode(row);
            }
        }

        /// Batch-shaped fragments assembled from protocol atoms.
        #[test]
        fn from_rows_never_panics_on_protocol_fragments(
            rows in proptest::collection::vec(
                proptest::sample::select(vec![
                    "REPL guide FROM - AT 100 SNAP 0 RECS 1",
                    "REPL guide FROM 5 AT 9 SNAP 1 RECS 0",
                    "REPL guide FROM - AT 100 SNAP 0 RECS 1 EPOCH 3",
                    "EPOCH 3",
                    "REPL x FROM - AT - SNAP 0 RECS 0",
                    "SNAP deadbeef",
                    "SNAP zz",
                    "REC 12 {updNode(n1, 20)}",
                    "REC - {creNode(n9, C)}",
                    "REC 12",
                    "REPL",
                    "",
                ]),
                0..6,
            ),
        ) {
            let owned: Vec<String> = rows.iter().map(|s| s.to_string()).collect();
            let _ = ReplBatch::from_rows(&owned);
        }

        /// Hex armor round-trips arbitrary bytes.
        #[test]
        fn hex_round_trips(bytes in proptest::collection::vec(0u8..=255u8, 0..256)) {
            prop_assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        }
    }
}
