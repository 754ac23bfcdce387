//! The per-database change-operation write-ahead log.
//!
//! The paper's central observation (§3) — a base snapshot `O` plus a
//! history `H` of timestamped change sets fully determines the database
//! through the `D(O, H)` construction — is, read operationally, the
//! recipe for a write-ahead log. Each committed mutation appends one
//! record to `<db>.wal`; recovery loads the latest checkpoint (a DOEM
//! image saved through [`lore::LoreStore`], exactly the Section 5.1
//! encoding `SAVE` uses) and replays the log tail through
//! [`doem::DoemDatabase::apply`] — the *same* code path that executed the
//! writes the first time.
//!
//! # Record format
//!
//! Records use the paper's own textual change-operation notation (the
//! `Display`/[`oem::parse_history`] round trip, which quotes every label
//! that is not a bare word), one history entry per record, framed for
//! crash safety:
//!
//! ```text
//! u32 LE payload length | u32 LE CRC-32 of payload | payload
//! payload := "(<timestamp>, {op, op, …})\n"      e.g. (1Mar97 9:00am, {updNode(n1, 20)})
//! ```
//!
//! The text is the source of truth — a WAL is inspectable with `cat` and
//! editable with a text editor plus a reframing pass — while the length
//! and checksum let recovery distinguish "log ends here" from "log was
//! torn mid-append". The torn-tail rule: replay stops at the first frame
//! that is incomplete, fails its checksum, or is empty; everything before
//! it is the **durable prefix**, everything from it on is discarded (and
//! truncated away on reopen, so later appends never chase garbage
//! bytes). A whole frame whose payload does not parse cannot be a torn
//! append, so it is no tail: [`replay`] fails, naming the file and byte
//! offset, and the service refuses to start rather than truncate it and
//! the acknowledged records after it.
//!
//! # Segments and checkpoints
//!
//! A database's log is at most two files: the **active** segment
//! `<db>.wal`, which the group committer appends to, and a **sealed**
//! segment `<db>.wal.sealed`. Once `checkpoint_every` records are in the
//! active segment, the committer seals it ([`DbWal::rotate`]: rename,
//! fresh active segment, directory fsync) at a batch boundary, snapshots
//! the published graph, and a checkpoint thread saves that snapshot as
//! the new image (atomic tmp-file + rename + directory fsync, via the
//! lore store). Only then is the sealed segment deleted; the committer
//! kept appending to the active one meanwhile. Recovery replays the
//! sealed segment, then the active one, over whichever image a crash
//! left — older than the sealed segment's records or newer. A timestamp
//! high-water mark makes both safe: the sequence stage enforces the
//! paper's Definition 2.2 (change timestamps strictly increase), so the
//! timestamp doubles as a log sequence number, and recovery skips log
//! entries at or before the image's newest annotation timestamp instead
//! of double-applying them.

use crate::faults::{FaultMode, FaultPoint, Faults};
use crate::metrics::Metrics;
use oem::{parse_history, ChangeSet, Timestamp};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — hand-rolled, bitwise;
/// the WAL's frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Render one history entry as a framed WAL record. Exposed so tests can
/// compute exact record boundaries for crash-point enumeration. Epoch-0
/// shorthand for [`encode_record_epoch`].
pub fn encode_record(at: Timestamp, changes: &ChangeSet) -> Vec<u8> {
    encode_record_epoch(at, changes, 0)
}

/// Render one history entry committed under promotion `epoch` as a framed
/// WAL record. Epoch 0 (the original, pre-failover lineage) emits exactly
/// the legacy payload — every WAL written before epochs existed replays
/// unchanged — while promoted lineages append an ` @e<epoch>` suffix so
/// recovery can restore the shard's fencing epoch from the log alone.
pub fn encode_record_epoch(at: Timestamp, changes: &ChangeSet, epoch: u64) -> Vec<u8> {
    let payload = if epoch == 0 {
        format!("({at}, {changes})\n").into_bytes()
    } else {
        format!("({at}, {changes}) @e{epoch}\n").into_bytes()
    };
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Split a record payload's optional ` @e<epoch>` suffix off, returning
/// the history text and the epoch (0 when absent — the legacy format).
fn split_epoch(text: &str) -> (&str, u64) {
    let body = text.strip_suffix('\n').unwrap_or(text);
    if let Some((head, tail)) = body.rsplit_once(" @e") {
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(epoch) = tail.parse() {
                return (head, epoch);
            }
        }
    }
    (body, 0)
}

/// The sealed segment beside the active log `active`: `<db>.wal` →
/// `<db>.wal.sealed`.
pub fn sealed_path(active: &Path) -> PathBuf {
    let mut path = active.as_os_str().to_owned();
    path.push(".sealed");
    PathBuf::from(path)
}

/// Fsync the directory holding `path`, so its creation, rename or
/// deletion is durable.
fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    lore::sync_dir(dir.unwrap_or(Path::new(".")))
}

/// Delete the log segment at `path` (gone already is fine) and fsync its
/// directory, so the deletion is durable.
pub fn remove_segment(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => sync_parent(path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// What [`replay`] recovered from a log file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The whole-record prefix, in append order.
    pub entries: Vec<(Timestamp, ChangeSet)>,
    /// The promotion epoch each entry was committed under, parallel to
    /// `entries` (0 for records from before any failover).
    pub epochs: Vec<u64>,
    /// The byte offset each entry's frame ends at, parallel to `entries`:
    /// the log length that keeps exactly the records up to that one.
    pub ends: Vec<u64>,
    /// Byte length of that prefix — the offset reopening truncates to.
    pub good_len: u64,
    /// Whether bytes past `good_len` existed (a torn or corrupt tail).
    pub torn: bool,
}

/// Decode the longest whole-record prefix of a WAL file. A missing file
/// is an empty log. A frame that is incomplete, fails its checksum, or is
/// empty (a zero-filled tail reads as one) ends the prefix and marks the
/// replay torn. A whole frame whose payload is not one record is no torn
/// append: replay fails with [`std::io::ErrorKind::InvalidData`], naming
/// the file and the frame's byte offset, and the caller must leave the
/// file as it is rather than truncate it and the records after it.
pub fn replay(path: &Path) -> std::io::Result<WalReplay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e),
    }
    let mut out = WalReplay::default();
    let mut offset = 0usize;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        let end = offset + 8 + len;
        if end > bytes.len() {
            break; // incomplete frame: torn mid-append
        }
        let want = u32::from_le_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
        ]);
        let payload = &bytes[offset + 8..end];
        if crc32(payload) != want {
            break; // checksum mismatch: torn or corrupt
        }
        if payload.is_empty() {
            break;
        }
        let record = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                let (body, epoch) = split_epoch(text);
                let history = parse_history(body).map_err(|e| e.to_string())?;
                match history.entries() {
                    [entry] => Ok((entry.at, entry.changes.clone(), epoch)),
                    _ => Err("not one history entry".to_string()),
                }
            });
        let (at, changes, epoch) = record.map_err(|why| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: the whole record at byte {offset} does not parse ({why}); \
                     refusing to truncate it and the records after it",
                    path.display()
                ),
            )
        })?;
        out.entries.push((at, changes));
        out.epochs.push(epoch);
        offset = end;
        out.good_len = offset as u64;
        out.ends.push(out.good_len);
    }
    out.torn = (out.good_len as usize) < bytes.len();
    Ok(out)
}

/// The append half of one database's log: its active segment. Owned
/// outright by the shard's group committer (`service::pipeline`), so
/// appends and rotation are serialized without any lock held across the
/// I/O.
#[derive(Debug)]
pub struct DbWal {
    path: PathBuf,
    file: File,
    /// Records appended since the last checkpoint began; drives the
    /// service's checkpoint-every-N policy.
    pub since_checkpoint: u64,
    /// Current byte length.
    len: u64,
}

/// Open `path` for appending, creating it (and fsyncing its directory,
/// so the new entry is durable) if it does not exist.
fn open_append(path: &Path) -> std::io::Result<File> {
    let existed = path.exists();
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    if !existed {
        sync_parent(path)?;
    }
    Ok(file)
}

impl DbWal {
    /// Open (creating if needed) the log at `path` for appending, first
    /// truncating it to `keep_len` bytes — the durable prefix a prior
    /// [`replay`] validated — so appends never follow a torn tail.
    pub fn open(path: impl AsRef<Path>, keep_len: u64) -> std::io::Result<DbWal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = open_append(&path)?;
        if file.metadata()?.len() != keep_len {
            file.set_len(keep_len)?;
            file.sync_data()?;
        }
        Ok(DbWal {
            path,
            file,
            since_checkpoint: 0,
            len: keep_len,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current byte length of the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` iff no records are in the log.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one record and fsync it. On success the record is durable
    /// before the caller applies the change in memory — the write-ahead
    /// contract. A batch of one through [`DbWal::append_batch`].
    pub fn append(
        &mut self,
        at: Timestamp,
        changes: &ChangeSet,
        faults: &Faults,
        metrics: &Metrics,
    ) -> std::io::Result<u64> {
        let frame = encode_record(at, changes);
        self.append_batch(&[frame.as_slice()], faults, metrics)
    }

    /// Append a whole staged batch of pre-encoded frames as **one**
    /// `write` followed by **one** `fsync` — the persist stage of the
    /// group-commit pipeline. The batch commits or fails atomically from
    /// the caller's point of view: an error means *no* frame in the batch
    /// may be acknowledged (whatever prefix physically reached the disk is
    /// governed by the torn-tail rule, exactly as for a crash mid-write).
    ///
    /// Fault-injection sites fire **once per batch**, not once per frame:
    /// one [`FaultPoint::WalAppend`] check guards the coalesced write
    /// (short writes cut the concatenated buffer, so a batch can tear
    /// mid-frame like any crashed `write(2)`), and one
    /// [`FaultPoint::WalFsync`] check guards the single fsync. The
    /// `faults_injected` metric therefore grows by one per failpoint hit
    /// regardless of how many records were riding the batch.
    pub fn append_batch(
        &mut self,
        frames: &[&[u8]],
        faults: &Faults,
        metrics: &Metrics,
    ) -> std::io::Result<u64> {
        if frames.is_empty() {
            return Ok(0);
        }
        let mut buf = Vec::with_capacity(frames.iter().map(|f| f.len()).sum());
        for frame in frames {
            buf.extend_from_slice(frame);
        }
        match faults.check(FaultPoint::WalAppend) {
            Some(FaultMode::Error) => {
                Metrics::bump(&metrics.faults_injected);
                return Err(Faults::injected_error(FaultPoint::WalAppend));
            }
            Some(FaultMode::ShortWrite(n)) => {
                Metrics::bump(&metrics.faults_injected);
                let n = n.min(buf.len());
                self.file.write_all(&buf[..n])?;
                let _ = self.file.sync_data();
                self.len += n as u64;
                return Err(Faults::injected_error(FaultPoint::WalAppend));
            }
            Some(FaultMode::Stall(ms)) => {
                // A slow disk, not a dead one: delay, then write normally.
                Metrics::bump(&metrics.faults_injected);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            None => {}
        }
        self.file.write_all(&buf)?;
        self.len += buf.len() as u64;
        match faults.check(FaultPoint::WalFsync) {
            Some(FaultMode::Stall(ms)) => {
                Metrics::bump(&metrics.faults_injected);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Some(_) => {
                Metrics::bump(&metrics.faults_injected);
                return Err(Faults::injected_error(FaultPoint::WalFsync));
            }
            None => {}
        }
        self.file.sync_data()?;
        self.since_checkpoint += frames.len() as u64;
        metrics
            .wal_appends
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        metrics
            .wal_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        if frames.len() > 1 {
            Metrics::bump(&metrics.group_commits);
        }
        Ok(buf.len() as u64)
    }

    /// Seal the active segment: rename it to [`sealed_path`], open a fresh
    /// empty active segment at the same path, and fsync the directory so
    /// both entries are durable before the next append is acknowledged.
    /// The caller makes sure no sealed segment exists yet. Every record
    /// appended so far was fsynced by [`DbWal::append_batch`], so the
    /// sealed segment is complete. On error the handle may still point at
    /// the sealed file: the caller must append nothing more.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        std::fs::rename(&self.path, sealed_path(&self.path))?;
        // Creating the fresh segment fsyncs the directory, which makes
        // the rename durable too.
        self.file = open_append(&self.path)?;
        self.len = 0;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Empty the log in place: a single-file checkpoint's step *after* its
    /// image save. The service rotates instead ([`DbWal::rotate`]).
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.len = 0;
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oem::guide::history_example_2_3;
    use oem::parse_change_set;

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "serve-wal-{tag}-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("rt");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let m = Metrics::new();
        let f = Faults::disabled();
        for e in history_example_2_3().entries() {
            wal.append(e.at, &e.changes, &f, &m).unwrap();
        }
        let r = replay(&path).unwrap();
        assert_eq!(r.entries.len(), 3);
        assert!(!r.torn);
        assert_eq!(r.good_len, wal.len());
        for (got, want) in r.entries.iter().zip(history_example_2_3().entries()) {
            assert_eq!(got.0, want.at);
            assert_eq!(format!("{}", got.1), format!("{}", want.changes));
        }
        assert_eq!(m.wal_appends.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn every_truncation_point_yields_the_longest_whole_prefix() {
        let path = tmp("cut");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let (m, f) = (Metrics::new(), Faults::disabled());
        let mut boundaries = vec![0u64];
        for e in history_example_2_3().entries() {
            wal.append(e.at, &e.changes, &f, &m).unwrap();
            boundaries.push(wal.len());
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = replay(&path).unwrap();
            let want = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(r.entries.len(), want, "cut at byte {cut}");
            assert_eq!(r.good_len, boundaries[want], "cut at byte {cut}");
            assert_eq!(r.torn, (cut as u64) != boundaries[want], "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupt_byte_ends_the_prefix() {
        let path = tmp("corrupt");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let (m, f) = (Metrics::new(), Faults::disabled());
        for e in history_example_2_3().entries() {
            wal.append(e.at, &e.changes, &f, &m).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the second record.
        let first = replay(&path).unwrap().entries.len();
        assert_eq!(first, 3);
        let second_start = encode_record(
            history_example_2_3().entries()[0].at,
            &history_example_2_3().entries()[0].changes,
        )
        .len();
        bytes[second_start + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.entries.len(), 1);
        assert!(r.torn);
    }

    #[test]
    fn a_whole_frame_that_does_not_parse_fails_replay_but_zeros_are_a_torn_tail() {
        let path = tmp("unparseable");
        let good = encode_record(ts("1Jan97"), &parse_change_set("{updNode(n1, 20)}").unwrap());
        let payload = b"(2Jan97, {addArc(n1, my label, n2)})\n";
        let mut bytes = good.clone();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&good);
        std::fs::write(&path, &bytes).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("at byte {}", good.len())), "{err}");
        // A zero-filled tail reads as empty frames: torn, not corrupt.
        let mut bytes = good.clone();
        bytes.extend_from_slice(&[0; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!((r.entries.len(), r.good_len, r.torn), (1, good.len() as u64, true));
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = tmp("reopen");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let (m, f) = (Metrics::new(), Faults::disabled());
        let h = history_example_2_3();
        wal.append(h.entries()[0].at, &h.entries()[0].changes, &f, &m).unwrap();
        let good = wal.len();
        wal.append(h.entries()[1].at, &h.entries()[1].changes, &f, &m).unwrap();
        drop(wal);
        // Tear the second record, reopen keeping only the durable prefix,
        // then append a fresh record: replay must see records 1 and 3.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.torn);
        assert_eq!(r.good_len, good);
        let mut wal = DbWal::open(&path, r.good_len).unwrap();
        wal.append(h.entries()[2].at, &h.entries()[2].changes, &f, &m).unwrap();
        let r = replay(&path).unwrap();
        assert!(!r.torn);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[1].0, h.entries()[2].at);
    }

    #[test]
    fn epoch_records_round_trip_and_epoch_zero_is_the_legacy_format() {
        let path = tmp("epoch");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let (m, f) = (Metrics::new(), Faults::disabled());
        let ch = parse_change_set("{updNode(n1, 20)}").unwrap();
        // Epoch 0 must be byte-identical to the pre-epoch encoder output.
        assert_eq!(
            encode_record_epoch(ts("1Jan97"), &ch, 0),
            encode_record(ts("1Jan97"), &ch)
        );
        let frames = [
            encode_record_epoch(ts("1Jan97"), &ch, 0),
            encode_record_epoch(ts("2Jan97"), &ch, 3),
            encode_record_epoch(ts("3Jan97"), &ch, 3),
        ];
        let refs: Vec<&[u8]> = frames.iter().map(|fr| fr.as_slice()).collect();
        wal.append_batch(&refs, &f, &m).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.epochs, vec![0, 3, 3]);
        assert!(!r.torn);
        // The epoch suffix stays out of the parsed history text.
        assert_eq!(r.entries[1].0, ts("2Jan97"));
        assert_eq!(format!("{}", r.entries[1].1), format!("{ch}"));
        // Each record's end offset is where its re-encoded frame ends.
        let mut total = 0u64;
        for (((at, c), e), end) in r.entries.iter().zip(&r.epochs).zip(&r.ends) {
            total += encode_record_epoch(*at, c, *e).len() as u64;
            assert_eq!(*end, total);
        }
        assert_eq!(r.good_len, total);
    }

    #[test]
    fn rotate_seals_the_segment_and_appends_continue_in_a_fresh_one() {
        let path = tmp("rotate");
        let sealed = sealed_path(&path);
        let _ = std::fs::remove_file(&sealed);
        let mut wal = DbWal::open(&path, 0).unwrap();
        let (m, f) = (Metrics::new(), Faults::disabled());
        let h = history_example_2_3();
        for e in &h.entries()[..2] {
            wal.append(e.at, &e.changes, &f, &m).unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        wal.rotate().unwrap();
        assert_eq!((wal.len(), wal.since_checkpoint), (0, 0));
        wal.append(h.entries()[2].at, &h.entries()[2].changes, &f, &m).unwrap();
        assert_eq!(std::fs::read(&sealed).unwrap(), before);
        let (old, new) = (replay(&sealed).unwrap(), replay(&path).unwrap());
        assert_eq!(old.entries.len(), 2);
        assert_eq!(new.entries.len(), 1);
        assert_eq!(new.entries[0].0, h.entries()[2].at);
        assert_eq!(new.good_len, wal.len());
        let _ = std::fs::remove_file(&sealed);
    }

    #[test]
    fn injected_short_write_leaves_a_torn_tail() {
        let path = tmp("fault");
        let mut wal = DbWal::open(&path, 0).unwrap();
        let m = Metrics::new();
        let h = history_example_2_3();
        let f = Faults::fail_nth(FaultPoint::WalAppend, 1, FaultMode::ShortWrite(5), false);
        wal.append(h.entries()[0].at, &h.entries()[0].changes, &f, &m).unwrap();
        let err = wal
            .append(h.entries()[1].at, &h.entries()[1].changes, &f, &m)
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(m.faults_injected.load(Ordering::Relaxed), 1);
        let r = replay(&path).unwrap();
        assert_eq!(r.entries.len(), 1);
        assert!(r.torn, "the 5 stray bytes must read as a torn tail");
    }
}
