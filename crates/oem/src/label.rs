//! Interned arc labels.
//!
//! Every arc in an OEM database carries a string label (Definition 2.1).
//! Labels are heavily repeated (`restaurant`, `name`, …) and are compared
//! constantly during query evaluation, so they are interned process-wide:
//! a [`Label`] is a `Copy` handle whose equality is a single integer compare.
//!
//! Interning is global rather than per-database because labels routinely
//! cross database boundaries — change operations, DOEM annotations, query
//! ASTs, and diffs all mention labels independently of any one database.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned arc label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

struct Interner {
    by_name: HashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Label {
    /// Intern `name` and return its handle. Idempotent.
    pub fn new(name: &str) -> Label {
        {
            let guard = interner().read().unwrap();
            if let Some(&id) = guard.by_name.get(name) {
                return Label(id);
            }
        }
        let mut guard = interner().write().unwrap();
        if let Some(&id) = guard.by_name.get(name) {
            return Label(id);
        }
        let id = u32::try_from(guard.names.len()).expect("label interner overflow");
        guard.names.push(name.into());
        guard.by_name.insert(name.into(), id);
        Label(id)
    }

    /// The handle of `name` if some earlier [`Label::new`] interned it,
    /// without interning it. Query plans resolve their step labels
    /// through this, so a query never grows the interner: a name that was
    /// never interned labels no arc, and a step naming it matches nothing.
    pub fn lookup(name: &str) -> Option<Label> {
        let guard = interner().read().unwrap();
        guard.by_name.get(name).map(|&id| Label(id))
    }

    /// The label's string form.
    pub fn as_str(self) -> &'static str {
        let guard = interner().read().unwrap();
        // Interned strings are never freed, so extending the lifetime of the
        // boxed str to 'static is sound: the box is owned by a process-wide
        // interner that only ever grows.
        let s: &str = &guard.names[self.0 as usize];
        unsafe { std::mem::transmute::<&str, &'static str>(s) }
    }

    /// Whether this is one of the reserved `&`-prefixed labels used by the
    /// DOEM-in-OEM encoding (Section 5.1 of the paper).
    pub fn is_reserved(self) -> bool {
        self.as_str().starts_with('&')
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Label {
    fn from(name: &str) -> Label {
        Label::new(name)
    }
}

impl From<String> for Label {
    fn from(name: String) -> Label {
        Label::new(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Label::new("restaurant");
        let b = Label::new("restaurant");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "restaurant");
    }

    #[test]
    fn lookup_finds_only_interned_names() {
        let l = Label::new("looked-up-label");
        assert_eq!(Label::lookup("looked-up-label"), Some(l));
        assert_eq!(Label::lookup("never-interned-label-7f3a"), None);
        // Looking a name up does not intern it.
        assert_eq!(Label::lookup("never-interned-label-7f3a"), None);
    }

    #[test]
    fn distinct_names_get_distinct_labels() {
        assert_ne!(Label::new("price"), Label::new("name"));
    }

    #[test]
    fn reserved_labels_are_detected() {
        assert!(Label::new("&val").is_reserved());
        assert!(Label::new("&price-history").is_reserved());
        assert!(!Label::new("price").is_reserved());
    }

    #[test]
    fn display_is_bare_and_debug_is_quoted() {
        let l = Label::new("nearby-eats");
        assert_eq!(l.to_string(), "nearby-eats");
        assert_eq!(format!("{l:?}"), "\"nearby-eats\"");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Label::new("concurrent-label")))
            .collect();
        let labels: Vec<Label> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(labels.windows(2).all(|w| w[0] == w[1]));
    }
}
