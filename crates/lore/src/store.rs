//! The persistent store: named database images in a directory.
//!
//! Plays the role Lore plays for the paper's implementation: the DOEM
//! Manager "uses the Lore system to store OEM encodings of DOEM databases,
//! using the scheme described in Section 5.1". Accordingly
//! [`LoreStore::save_doem`]/[`LoreStore::load_doem`] go through
//! [`doem::encode_doem`]/[`doem::decode_doem`]; plain OEM databases are
//! stored directly.
//!
//! Writes are crash-conscious: image → temp file → fsync → atomic rename
//! → fsync of the directory, so a saved image survives a power loss.

use crate::codec::{decode_database, encode_database};
use crate::{LoreError, Result};
use doem::{decode_doem, encode_doem, DoemDatabase};
use oem::OemDatabase;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A directory-backed store of named database images.
///
/// ```
/// use lore::LoreStore;
///
/// let dir = std::env::temp_dir().join("lore-doc-example");
/// let store = LoreStore::open(&dir).unwrap();
/// store.save_doem("figure4", &doem::doem_figure4()).unwrap();
/// let back = store.load_doem("figure4").unwrap();
/// assert!(doem::same_doem(&back, &doem::doem_figure4()));
/// ```
#[derive(Debug)]
pub struct LoreStore {
    dir: PathBuf,
}

/// The file stem of database `name`: ASCII letters, digits, `-` and `_`
/// stand for themselves, every other byte is escaped as `%XX`. No two
/// names share a file (`a.b` is `a%2Eb`, `a_b` stays `a_b`).
fn escape(name: &str) -> String {
    name.bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => char::from(b).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The name [`escape`] turned into `stem`; `None` if it cannot be one.
fn unescape(stem: &str) -> Option<String> {
    let mut bytes = Vec::new();
    let mut rest = stem;
    while let Some(i) = rest.find('%') {
        bytes.extend_from_slice(&rest.as_bytes()[..i]);
        bytes.push(u8::from_str_radix(rest.get(i + 1..i + 3)?, 16).ok()?);
        rest = &rest[i + 3..];
    }
    bytes.extend_from_slice(rest.as_bytes());
    String::from_utf8(bytes).ok()
}

/// Fsync the directory `dir`, making the renames, creations and deletions
/// of its entries durable.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

impl LoreStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<LoreStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(LoreStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a database named `name` is (or would be) stored at —
    /// exposed so sibling files (e.g. a write-ahead log) can live next to
    /// the image with the same escaped stem.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.oem", escape(name)))
    }

    /// Persist an OEM database under `name`.
    ///
    /// The image is written and fsynced into a uniquely named temp file,
    /// then renamed over the old one. The rename is atomic, so concurrent
    /// saves need no lock: a reader sees one whole image or the other,
    /// and a failed write leaves at most a stray `.tmp-N` file, never a
    /// clobbered image.
    pub fn save(&self, name: &str, db: &OemDatabase) -> Result<()> {
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let bytes = encode_database(db);
        let final_path = self.path_of(name);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Unique per write, and an extension `names()` won't count.
        let tmp_path = final_path.with_extension(format!("tmp-{seq}"));
        {
            let mut f = fs::File::create(&tmp_path)?;
            if let Err(e) = f.write_all(&bytes).and_then(|()| f.sync_all()) {
                drop(f);
                let _ = fs::remove_file(&tmp_path);
                return Err(e.into());
            }
        }
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        // The rename is durable only once the directory is: without this
        // a power loss could keep a later step (a log truncated or a
        // segment deleted because the image "is saved") and lose the image.
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Load the OEM database stored under `name`.
    pub fn load(&self, name: &str) -> Result<OemDatabase> {
        let path = self.path_of(name);
        let bytes = fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                LoreError::NotFound(name.to_string())
            } else {
                LoreError::Io(e)
            }
        })?;
        decode_database(bytes.into())
    }

    /// Persist a DOEM database under `name` via its Section 5.1 encoding.
    pub fn save_doem(&self, name: &str, d: &DoemDatabase) -> Result<()> {
        self.save(name, &encode_doem(d).oem)
    }

    /// Load a DOEM database stored under `name`.
    pub fn load_doem(&self, name: &str) -> Result<DoemDatabase> {
        let oem = self.load(name)?;
        decode_doem(&oem).map_err(|e| LoreError::Invalid(e.to_string()))
    }

    /// `true` iff a database named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    /// Delete the database named `name` (idempotent).
    pub fn remove(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Names of all stored databases, sorted.
    pub fn names(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("oem") {
                if let Some(name) = path.file_stem().and_then(|s| s.to_str()).and_then(unescape) {
                    out.push(name);
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doem::{doem_figure4, same_doem};
    use oem::guide::guide_figure2;
    use oem::same_database;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lore-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let store = LoreStore::open(tmpdir("rt")).unwrap();
        let db = guide_figure2();
        store.save("guide", &db).unwrap();
        let back = store.load("guide").unwrap();
        assert!(same_database(&db, &back));
        assert!(store.contains("guide"));
        assert_eq!(store.names().unwrap(), vec!["guide"]);
    }

    #[test]
    fn doem_round_trips_through_the_encoding() {
        let store = LoreStore::open(tmpdir("doem")).unwrap();
        let d = doem_figure4();
        store.save_doem("LyttonRestaurants", &d).unwrap();
        let back = store.load_doem("LyttonRestaurants").unwrap();
        assert!(same_doem(&d, &back));
    }

    #[test]
    fn missing_databases_are_not_found() {
        let store = LoreStore::open(tmpdir("missing")).unwrap();
        assert!(matches!(
            store.load("ghost"),
            Err(LoreError::NotFound(_))
        ));
        assert!(!store.contains("ghost"));
        store.remove("ghost").unwrap(); // idempotent
    }

    #[test]
    fn save_overwrites_atomically() {
        let store = LoreStore::open(tmpdir("over")).unwrap();
        let a = guide_figure2();
        store.save("g", &a).unwrap();
        let b = oem::guide::guide_figure3();
        store.save("g", &b).unwrap();
        assert!(same_database(&store.load("g").unwrap(), &b));
        // No temp files left behind.
        assert_eq!(store.names().unwrap().len(), 1);
    }

    #[test]
    fn odd_names_are_sanitized() {
        let store = LoreStore::open(tmpdir("names")).unwrap();
        store.save("week/1 report", &guide_figure2()).unwrap();
        assert!(store.contains("week/1 report"));
    }

    #[test]
    fn distinct_names_get_distinct_files() {
        let store = LoreStore::open(tmpdir("distinct")).unwrap();
        for name in ["a.b", "a_b", "a%2Eb", "é"] {
            store.save(name, &OemDatabase::new(name.to_string())).unwrap();
        }
        assert_eq!(store.names().unwrap(), ["a%2Eb", "a.b", "a_b", "é"]);
    }

    #[test]
    fn concurrent_saves_serialize_safely() {
        let store = std::sync::Arc::new(LoreStore::open(tmpdir("concurrent")).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    let db = guide_figure2();
                    for _ in 0..5 {
                        store.save(&format!("db-{i}"), &db).unwrap();
                        store.save("shared", &db).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Everything readable and intact afterwards.
        assert!(same_database(&store.load("shared").unwrap(), &guide_figure2()));
        assert_eq!(store.names().unwrap().len(), 9);
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let dir = tmpdir("corrupt");
        let store = LoreStore::open(&dir).unwrap();
        fs::write(dir.join("bad.oem"), b"not a database").unwrap();
        assert!(matches!(store.load("bad"), Err(LoreError::Corrupt(_))));
    }
}
