//! The query-result cache.
//!
//! Keys are `(scope, canonical query text, generation)` — scope is the
//! database the query ran against, the canonical text
//! comes from the parser's printer (so formatting differences share an
//! entry), and the generation is the service's write counter. A write
//! bumps the generation, which makes every older entry unreachable.
//!
//! Before the bump, the writer carries entries across the write with
//! [`ResultCache::carry_generation`] — the serve face of the semi-naive
//! maintenance in [`chorel::delta`] (DESIGN.md §11). An entry that can be
//! maintained keeps its raw engine rows alongside the wire strings (a
//! [`CacheEntry`] with `maintain` populated); the publish stage asks the
//! delta variants what the write adds. Nothing: the same `Arc` is re-keyed
//! to the new generation ([`Carry::Unchanged`]). Some rows: the entry is
//! replaced by prior ∪ fresh, re-canonicalized, so it stays byte-identical
//! to a fresh evaluation ([`Carry::Replaced`]). Entries that cannot be
//! maintained (non-monotonic query × delta, or an entry that carries no
//! engine rows) are dropped ([`Carry::Drop`]).

use crate::lock_order::Leaf;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A cache key. Equal keys ⇒ identical result rows.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which database the query ran against.
    pub scope: String,
    /// Canonical query text (parse → print).
    pub canonical: String,
    /// Database generation the result was computed at.
    pub generation: u64,
}

/// A cached result: the canonical wire rows, plus — when the entry is
/// eligible for semi-naive maintenance — the parsed query and the raw
/// engine rows the strings were packaged from.
#[derive(Debug)]
pub struct CacheEntry {
    /// Canonical wire rows (the `ROWS` payload sent to clients).
    pub strings: Vec<String>,
    /// Maintenance state: `None` means the entry can only be dropped at
    /// the next write.
    pub maintain: Option<(lorel::ast::Query, lorel::Rows)>,
}

/// What becomes of one cache entry when its generation is superseded.
#[derive(Debug)]
pub enum Carry {
    /// The write did not change the result: the same entry answers at the
    /// new generation.
    Unchanged,
    /// The write changed the result to this.
    Replaced(CacheEntry),
    /// The result at the new generation is unknown: forget the entry.
    Drop,
}

/// How many entries a [`ResultCache::carry_generation`] call carried
/// untouched, replaced, and dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Carried {
    /// Entries re-keyed as they were.
    pub unchanged: u64,
    /// Entries replaced by a maintained result.
    pub replaced: u64,
    /// Entries dropped.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Arc<CacheEntry>>,
    order: VecDeque<CacheKey>,
}

/// A bounded FIFO result cache, shared across workers.
#[derive(Debug)]
pub struct ResultCache {
    /// A leaf: held only inside these methods, which take no other lock
    /// and block on nothing.
    inner: Leaf<Inner>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Leaf::new(Inner::default()),
            capacity,
        }
    }

    /// Look up a result.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        self.inner.lock().map.get(key).cloned()
    }

    /// Store a result, evicting the oldest entry when full.
    pub fn insert(&self, key: CacheKey, entry: Arc<CacheEntry>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.insert(key.clone(), entry).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                inner.map.remove(&oldest);
            }
        }
    }

    /// Carry the entries at generation `from` over to generation `to` —
    /// called at publish time, before the generation bump. `f` sees each
    /// such entry and says what the write made of it ([`Carry`]). Entries
    /// keep their place in the eviction order; one pass over the cache.
    pub fn carry_generation<F>(&self, from: u64, to: u64, mut f: F) -> Carried
    where
        F: FnMut(&Arc<CacheEntry>) -> Carry,
    {
        let mut inner = self.inner.lock();
        let Inner { map, order } = &mut *inner;
        let mut counts = Carried::default();
        let mut carried = VecDeque::with_capacity(order.len());
        for key in order.drain(..) {
            if key.generation != from {
                carried.push_back(key);
                continue;
            }
            // `order` holds exactly the map's keys, so the remove cannot
            // miss — but stay structurally panic-free.
            let Some(entry) = map.remove(&key) else {
                continue;
            };
            let entry = match f(&entry) {
                Carry::Unchanged => {
                    counts.unchanged += 1;
                    entry
                }
                Carry::Replaced(e) => {
                    counts.replaced += 1;
                    Arc::new(e)
                }
                Carry::Drop => {
                    counts.dropped += 1;
                    continue;
                }
            };
            let key = CacheKey {
                generation: to,
                ..key
            };
            if map.insert(key.clone(), entry).is_none() {
                carried.push_back(key);
            }
        }
        *order = carried;
        counts
    }

    /// [`ResultCache::carry_generation`] for callers that rebuild every
    /// entry: `f` receives a maintainable entry's parsed query and prior
    /// raw rows and returns the maintained entry, or `None` when the
    /// query × delta is outside the monotonic fragment; `None` (and any
    /// entry with no maintenance state) drops the entry. Returns
    /// `(maintained, dropped)`.
    pub fn advance_generation<F>(&self, from: u64, to: u64, mut f: F) -> (u64, u64)
    where
        F: FnMut(&lorel::ast::Query, &lorel::Rows) -> Option<CacheEntry>,
    {
        let counts = self.carry_generation(from, to, |entry| {
            let maintained = entry
                .maintain
                .as_ref()
                .and_then(|(query, prior)| f(query, prior));
            maintained.map_or(Carry::Drop, Carry::Replaced)
        });
        (counts.replaced, counts.dropped)
    }

    /// Drop every entry computed before `generation` (they can never be
    /// hit again — the generation counter only moves forward).
    pub fn retain_generation(&self, generation: u64) {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|k, _| k.generation >= generation);
        if inner.map.len() != before {
            inner.order.retain(|k| k.generation >= generation);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(scope: &str, q: &str, g: u64) -> CacheKey {
        CacheKey {
            scope: scope.into(),
            canonical: q.into(),
            generation: g,
        }
    }

    fn plain(rows: &[&str]) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            strings: rows.iter().map(|s| s.to_string()).collect(),
            maintain: None,
        })
    }

    fn maintainable(rows: &[&str]) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            strings: rows.iter().map(|s| s.to_string()).collect(),
            maintain: Some((
                lorel::parse_query("select guide.restaurant").unwrap(),
                lorel::Rows { rows: Vec::new() },
            )),
        })
    }

    #[test]
    fn hit_miss_and_generation_isolation() {
        let cache = ResultCache::new(8);
        let entry = plain(&["r"]);
        cache.insert(key("db", "q", 1), entry.clone());
        assert_eq!(
            cache.get(&key("db", "q", 1)).unwrap().strings,
            entry.strings
        );
        // Same text at a newer generation is a different key.
        assert!(cache.get(&key("db", "q", 2)).is_none());
        assert!(cache.get(&key("other", "q", 1)).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = ResultCache::new(2);
        for i in 0..3u64 {
            cache.insert(key("db", &format!("q{i}"), 1), plain(&[]));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("db", "q0", 1)).is_none());
        assert!(cache.get(&key("db", "q2", 1)).is_some());
    }

    #[test]
    fn retain_generation_purges_stale() {
        let cache = ResultCache::new(8);
        cache.insert(key("db", "old", 1), plain(&[]));
        cache.insert(key("db", "new", 2), plain(&[]));
        cache.retain_generation(2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("db", "new", 2)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.insert(key("db", "q", 1), plain(&[]));
        assert!(cache.is_empty());
    }

    #[test]
    fn advance_generation_maintains_or_drops() {
        let cache = ResultCache::new(8);
        cache.insert(key("db", "kept", 3), maintainable(&["old"]));
        cache.insert(key("db", "unsupported", 3), maintainable(&["x"]));
        cache.insert(key("db", "no-state", 3), plain(&["y"]));
        let (kept, dropped) = cache.advance_generation(3, 4, |_, _| {
            // Pretend only the first query survives the fragment gate.
            None
        });
        assert_eq!((kept, dropped), (0, 3));
        assert!(cache.is_empty());

        cache.insert(key("db", "kept", 3), maintainable(&["old"]));
        let (kept, dropped) = cache.advance_generation(3, 4, |_, _| {
            Some(CacheEntry {
                strings: vec!["old".into(), "new".into()],
                maintain: None,
            })
        });
        assert_eq!((kept, dropped), (1, 0));
        // The maintained entry answers at the *new* generation only.
        assert!(cache.get(&key("db", "kept", 3)).is_none());
        let e = cache.get(&key("db", "kept", 4)).expect("maintained");
        assert_eq!(e.strings, vec!["old".to_string(), "new".to_string()]);
        cache.retain_generation(4);
        assert_eq!(cache.len(), 1, "maintained entries survive the bump");
    }

    #[test]
    fn carry_generation_rekeys_replaces_or_drops_in_eviction_order() {
        let cache = ResultCache::new(3);
        let same = plain(&["same"]);
        cache.insert(key("db", "gone", 3), plain(&["x"]));
        cache.insert(key("db", "same", 3), same.clone());
        cache.insert(key("db", "grown", 3), plain(&["old"]));
        let counts = cache.carry_generation(3, 4, |entry| match entry.strings[0].as_str() {
            "same" => Carry::Unchanged,
            "old" => Carry::Replaced(CacheEntry {
                strings: vec!["old".into(), "new".into()],
                maintain: None,
            }),
            _ => Carry::Drop,
        });
        let want = Carried {
            unchanged: 1,
            replaced: 1,
            dropped: 1,
        };
        assert_eq!(counts, want);
        // Unchanged is the same allocation under the new key.
        assert!(Arc::ptr_eq(&cache.get(&key("db", "same", 4)).unwrap(), &same));
        assert_eq!(cache.get(&key("db", "grown", 4)).unwrap().strings.len(), 2);
        assert!(cache.get(&key("db", "same", 3)).is_none());
        // Nothing is stale: the bump's purge leaves the cache as it is.
        cache.retain_generation(4);
        assert_eq!(cache.len(), 2);
        // Carried entries kept their age: "same" is evicted before "grown".
        cache.insert(key("db", "a", 4), plain(&[]));
        cache.insert(key("db", "b", 4), plain(&[]));
        assert!(cache.get(&key("db", "same", 4)).is_none());
        assert!(cache.get(&key("db", "grown", 4)).is_some());
    }
}
