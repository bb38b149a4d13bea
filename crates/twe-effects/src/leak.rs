//! Shared leaked-copy interner.
//!
//! Both the region-name interner ([`crate::intern`](mod@crate::intern))
//! and the RPL wildcard-suffix table ([`crate::rpl`]) follow the same
//! discipline: map a borrowed unsized key to a small `u32` id, leaking
//! exactly one `'static` copy of each distinct key so resolution never
//! clones, with double-checked read-then-write locking so lookups of
//! already-interned keys take only the read lock. This type implements that
//! discipline once.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;

struct Inner<T: ?Sized + 'static> {
    map: HashMap<&'static T, u32>,
    list: Vec<&'static T>,
}

/// An append-only interner of unsized keys (`str`, slices) into `u32` ids.
///
/// One copy of each distinct key is leaked; ids are allocated in interning
/// order and resolution returns the shared `'static` reference.
pub(crate) struct LeakInterner<T: ?Sized + 'static> {
    inner: RwLock<Inner<T>>,
}

impl<T: ?Sized + Hash + Eq + 'static> LeakInterner<T> {
    /// An empty interner.
    pub(crate) fn new() -> Self {
        LeakInterner {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                list: Vec::new(),
            }),
        }
    }

    /// An interner whose id 0 is pre-assigned to `seed`.
    pub(crate) fn with_seed(seed: &'static T) -> Self {
        let this = Self::new();
        {
            let mut guard = this.inner.write();
            guard.map.insert(seed, 0);
            guard.list.push(seed);
        }
        this
    }

    /// Interns `key`, returning its id. Idempotent; `leak` is called once
    /// per distinct key to produce the `'static` copy.
    pub(crate) fn intern(&self, key: &T, leak: impl FnOnce(&T) -> &'static T) -> u32 {
        {
            let guard = self.inner.read();
            if let Some(&id) = guard.map.get(key) {
                return id;
            }
        }
        let mut guard = self.inner.write();
        if let Some(&id) = guard.map.get(key) {
            return id;
        }
        let id = u32::try_from(guard.list.len()).expect("interner overflow (u32 ids)");
        let leaked = leak(key);
        guard.list.push(leaked);
        guard.map.insert(leaked, id);
        id
    }

    /// The key an id was interned from (shared `'static` copy; no clone).
    pub(crate) fn resolve(&self, id: u32) -> &'static T {
        self.inner.read().list[id as usize]
    }
}
