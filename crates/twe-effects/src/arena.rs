//! Process-global interned arena of wildcard-free RPL prefixes.
//!
//! Every wildcard-free RPL prefix is interned into a small [`RplId`]: a node
//! of a prefix tree whose entry carries its parent id, its depth, its last
//! element, and two leaked (`&'static`) views of the whole path — the element
//! path below `Root` and the id path `Root..=self`. Ids are canonical (two
//! prefixes are element-wise equal iff their ids are equal), so:
//!
//! * RPL equality and hashing are O(1) integer operations;
//! * the hot concrete-vs-concrete disjointness test is a single id
//!   comparison that touches no lock at all;
//! * ancestor/prefix tests are O(1) lookups into the id path
//!   ([`is_ancestor_or_self`]);
//! * resolving a path ([`path`], [`id_path`]) returns a shared static slice
//!   and never allocates.
//!
//! # Wait-free reads: the chunked entry store
//!
//! Entries live in an append-only **chunked store**: a fixed table of
//! exponentially-sized buckets, each a lazily-allocated slice of
//! `OnceLock<Entry>` slots. Existing entries are never moved or reallocated,
//! so every read-side query ([`parent`], [`depth`], [`last_elem`], [`path`],
//! [`id_path`], [`is_ancestor_or_self`]) is a pair of plain atomic loads —
//! bucket pointer, then slot — with **no lock of any kind**. Only the write
//! path (the *first* intern of a given child) takes the child index's write
//! lock, and no conflict-plane read ever touches it.
//!
//! **Publication invariant:** an entry is fully initialized — parent, depth,
//! element, and both leaked path slices written and released via its slot's
//! `OnceLock` — *before* its id is handed out (returned from
//! [`intern_child`] or inserted into the child index). An `RplId` a thread
//! can legitimately hold therefore always resolves without blocking, and the
//! accessors treat an unpublished slot as a logic error (panic), not a state
//! to wait on.
//!
//! # Write-path concurrency: one child-index lock
//!
//! The child index `(parent, elem) → id` is one `RwLock`ed map. A repeat
//! intern takes its read lock (shared, uncontended in steady state); a first
//! intern takes its write lock. Consequences:
//!
//! * **One winner per `(parent, elem)` race.** Two threads first-interning
//!   the same child serialize on the write lock; the loser's double-check
//!   under the lock finds the winner's entry and returns the winner's id.
//!   Ids are allocated *after* the double-check fails, under the lock, so a
//!   lost race never burns an id and ids stay canonical.
//! * **Parent-before-child id ordering.** A child's id is allocated while
//!   the interning thread already *holds* the parent's id, which was handed
//!   out only after the parent's own (earlier) allocation — so every child's
//!   index is strictly greater than its parent's.
//! * **Reads are untouched.** Conflict-plane queries resolve ids through the
//!   chunked store only and never touch the index lock.
//!
//! The per-slot `OnceLock` publication protocol is what keeps reads safe
//! during a racing first-intern: the winner fully writes the entry and
//! releases it through the slot's `OnceLock` *before* the id escapes the
//! lock, so no thread can ever observe a half-initialized entry — any thread
//! holding the id acquired it via a release/acquire edge (the `OnceLock`
//! slot, or the index lock's own ordering) that happens after the slot was
//! fully published.
//!
//! # Invariants
//!
//! * [`RplId::ROOT`] (id 0) is the implicit `Root` region and is its own
//!   parent.
//! * Ids are allocated in interning order, so a parent id is always
//!   numerically smaller than every descendant id; id order is therefore a
//!   topological order of the region tree (but **not** a lexicographic order
//!   of paths — it depends on interning order).
//! * Entries are immutable once published. Path slices are leaked, so the
//!   arena only ever grows; its size is bounded by the number of distinct
//!   wildcard-free prefixes the process touches (the same order of growth as
//!   the tree scheduler's node map).
//! * Only wildcard-free elements may be interned; [`intern_child`] panics on
//!   `*` / `[?]` (wildcard suffixes are interned separately by
//!   [`crate::rpl::Rpl`]).
//! * [`dyn_region_root`] reserves the root-level region name `__DynRegion`
//!   for the dynamic reference regions of chapter 7 (`DynCell` in
//!   `twe-runtime`); statically-declared regions must not use that name.

use crate::idhash::IdHashMap;
use crate::rpl::RplElement;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Interned id of a wildcard-free RPL prefix.
///
/// Two `RplId`s are equal iff the element paths they were interned from are
/// equal. The derived order is the interning order (stable within a process,
/// not lexicographic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RplId(u32);

impl RplId {
    /// The implicit root region `Root` (the empty prefix).
    pub const ROOT: RplId = RplId(0);

    /// The raw arena index of this id (diagnostics only).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for RplId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RplId({})", self.0)
    }
}

/// One immutable arena entry. `elem` is meaningless for the root.
#[derive(Clone, Copy)]
struct Entry {
    parent: RplId,
    depth: u32,
    elem: RplElement,
    /// The element path below `Root` (`path.len() == depth`).
    path: &'static [RplElement],
    /// Ancestor ids `Root..=self` (`id_path[d]` is the ancestor at depth `d`;
    /// `id_path.len() == depth + 1`).
    id_path: &'static [RplId],
}

/// The chunked store's bucket layout: bucket `b` holds
/// `FIRST_BUCKET_LEN << b` slots, so 27 buckets cover the whole `u32` id
/// space while an id resolves to its slot with a handful of ALU ops.
const BUCKET_COUNT: usize = 27;
/// log2 of the first bucket's slot count.
const FIRST_BUCKET_BITS: u32 = 6;
/// Slot count of the first bucket.
const FIRST_BUCKET_LEN: usize = 1 << FIRST_BUCKET_BITS;

/// Bucket index and offset of an entry index.
fn locate(index: usize) -> (usize, usize) {
    let v = (index >> FIRST_BUCKET_BITS) + 1;
    let bucket = (usize::BITS - 1 - v.leading_zeros()) as usize;
    let bucket_start = ((1usize << bucket) - 1) << FIRST_BUCKET_BITS;
    (bucket, index - bucket_start)
}

struct Arena {
    /// The chunked entry store. Bucket slices are allocated by the write
    /// path and published through the `OnceLock`; slots are published
    /// individually. Neither is ever moved afterwards, so reads are plain
    /// loads.
    buckets: [OnceLock<Box<[OnceLock<Entry>]>>; BUCKET_COUNT],
    /// The id allocator: next unallocated entry index (and the source of the
    /// `len` diagnostic). Only advanced under `index`'s write lock.
    next: AtomicUsize,
    /// The child index `(parent, elem) → id`. Repeat interns take the read
    /// lock; the write lock is the first-intern mutex. Conflict-plane
    /// queries never touch it. Keyed with the multiply-rotate id hasher
    /// (`crate::idhash`): SipHash on a 12-byte id key costs more than the
    /// probe it guards.
    index: RwLock<IdHashMap<(RplId, RplElement), RplId>>,
}

static ARENA: OnceLock<Arena> = OnceLock::new();

fn arena() -> &'static Arena {
    ARENA.get_or_init(|| {
        let a = Arena {
            buckets: [const { OnceLock::new() }; BUCKET_COUNT],
            next: AtomicUsize::new(1),
            index: RwLock::new(IdHashMap::default()),
        };
        let bucket0 = a.buckets[0].get_or_init(|| new_bucket(0));
        let root = Entry {
            parent: RplId::ROOT,
            depth: 0,
            elem: RplElement::Star, // placeholder; never read for the root
            path: &[],
            id_path: Box::leak(vec![RplId::ROOT].into_boxed_slice()),
        };
        if bucket0[0].set(root).is_err() {
            unreachable!("root slot initialized twice");
        }
        a
    })
}

fn new_bucket(bucket: usize) -> Box<[OnceLock<Entry>]> {
    (0..FIRST_BUCKET_LEN << bucket)
        .map(|_| OnceLock::new())
        .collect()
}

/// Resolves an id to its published entry: two plain loads, no lock.
fn entry(id: RplId) -> &'static Entry {
    let (bucket, offset) = locate(id.0 as usize);
    arena().buckets[bucket]
        .get()
        .and_then(|slots| slots[offset].get())
        .expect("RplId used before publication (arena invariant violated)")
}

/// Interns the child region `parent : elem`, returning its id. Idempotent.
///
/// Repeat lookups take only the child index's read lock; its write lock is
/// taken the first time a given child is seen. The new entry is fully
/// published into the chunked store *before* its id is inserted into the
/// index or returned (see the module docs for the publication invariant and
/// the one-winner race resolution).
///
/// # Panics
///
/// Panics if `elem` is a wildcard (`*` / `[?]`): only wildcard-free prefixes
/// live in the arena.
pub fn intern_child(parent: RplId, elem: RplElement) -> RplId {
    assert!(
        !elem.is_wildcard(),
        "only wildcard-free elements may be interned in the RPL arena"
    );
    let a = arena();
    if let Some(&id) = a.index.read().get(&(parent, elem)) {
        return id;
    }
    let mut index_map = a.index.write();
    if let Some(&id) = index_map.get(&(parent, elem)) {
        // Lost the first-intern race: the winner (a previous holder of the
        // write lock) already published the entry and inserted its id.
        return id;
    }
    // This thread holds the write lock, so it is the unique winner for this
    // child: it alone allocates the id. Parent-before-child ordering holds
    // because this fetch_add happens strictly after the one that produced
    // `parent` (whose id this thread already holds).
    let index = a.next.fetch_add(1, Ordering::Relaxed);
    let id = RplId(u32::try_from(index).expect("RPL arena overflow (u32 ids)"));
    let parent_entry = entry(parent);
    let mut path = parent_entry.path.to_vec();
    path.push(elem);
    let mut id_path = parent_entry.id_path.to_vec();
    id_path.push(id);
    let (bucket, offset) = locate(index);
    let slots = a.buckets[bucket].get_or_init(|| new_bucket(bucket));
    let published = slots[offset]
        .set(Entry {
            parent,
            depth: parent_entry.depth + 1,
            elem,
            path: Box::leak(path.into_boxed_slice()),
            id_path: Box::leak(id_path.into_boxed_slice()),
        })
        .is_ok();
    assert!(published, "arena slot {index} published twice");
    index_map.insert((parent, elem), id);
    id
}

/// Interns a whole wildcard-free path below `Root`.
pub fn intern_path(elements: &[RplElement]) -> RplId {
    elements
        .iter()
        .fold(RplId::ROOT, |id, &e| intern_child(id, e))
}

/// The parent of `id` (the root is its own parent).
pub fn parent(id: RplId) -> RplId {
    entry(id).parent
}

/// The depth of `id`: the number of elements below the implicit `Root`.
pub fn depth(id: RplId) -> usize {
    entry(id).depth as usize
}

/// The last element of `id`'s path, or `None` for the root.
pub fn last_elem(id: RplId) -> Option<RplElement> {
    let e = entry(id);
    (e.depth > 0).then_some(e.elem)
}

/// The element path of `id` below `Root` (shared static slice; no
/// allocation).
pub fn path(id: RplId) -> &'static [RplElement] {
    entry(id).path
}

/// The ancestor ids of `id` from the root down: `id_path(id)[d]` is the
/// ancestor at depth `d`, and the last entry is `id` itself.
pub fn id_path(id: RplId) -> &'static [RplId] {
    entry(id).id_path
}

/// Is `anc` an ancestor of `desc` (or equal to it)? O(1): one lookup into
/// the descendant's id path; no lock.
pub fn is_ancestor_or_self(anc: RplId, desc: RplId) -> bool {
    let a = entry(anc).depth as usize;
    let d = entry(desc);
    a <= d.depth as usize && d.id_path[a] == anc
}

/// The reserved root of **dynamic reference regions** (chapter 7): every
/// `DynCell` in `twe-runtime` interns its region as an index child of
/// `Root:__DynRegion:[id]`, so dynamic claims carry ordinary [`RplId`]s,
/// use the same disjointness fast paths as static effects, and can appear
/// in the scheduler tree.
///
/// An RPL written under `__DynRegion` *names cell regions* — that aliasing
/// is the point of the unification (e.g. `writes __DynRegion:[?]` declares
/// a static effect over every cell), not a collision to be rejected.
/// Consequently, do not declare unrelated application regions under this
/// name: the double-underscore prefix is the reservation convention, and
/// `__DynRegion:[n]` coincides with cell `n` by construction.
pub fn dyn_region_root() -> RplId {
    static DYN_ROOT: OnceLock<RplId> = OnceLock::new();
    *DYN_ROOT.get_or_init(|| intern_child(RplId::ROOT, RplElement::name("__DynRegion")))
}

/// Number of *allocated* interned-prefix ids, including the root
/// (diagnostic only). With first-interns in flight on other threads this
/// can transiently exceed the number of fully published entries by the
/// in-flight count; every id the caller can actually *hold* is always
/// published (the publication invariant), so the discrepancy is never
/// observable through an accessor.
pub fn len() -> usize {
    arena().next.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> RplElement {
        RplElement::name(s)
    }

    #[test]
    fn bucket_layout_is_dense_and_covers_u32() {
        let mut expect = 0usize;
        for index in 0..10_000usize {
            let (b, off) = locate(index);
            assert!(b < BUCKET_COUNT);
            assert!(off < FIRST_BUCKET_LEN << b);
            if off == 0 && index > 0 {
                expect += 1;
                assert_eq!(b, expect, "bucket boundaries must be contiguous");
            }
        }
        let (b, off) = locate(u32::MAX as usize);
        assert!(b < BUCKET_COUNT, "u32::MAX must fit the bucket table");
        assert!(off < FIRST_BUCKET_LEN << b);
    }

    #[test]
    fn interning_is_canonical() {
        let a = intern_path(&[name("Arena"), name("X"), RplElement::Index(3)]);
        let b = intern_path(&[name("Arena"), name("X"), RplElement::Index(3)]);
        assert_eq!(a, b);
        let c = intern_path(&[name("Arena"), name("X"), RplElement::Index(4)]);
        assert_ne!(a, c);
    }

    #[test]
    fn parent_depth_and_paths_are_consistent() {
        let p = intern_path(&[name("Arena"), name("P")]);
        let c = intern_child(p, RplElement::Index(7));
        assert_eq!(parent(c), p);
        assert_eq!(depth(c), 3);
        assert_eq!(last_elem(c), Some(RplElement::Index(7)));
        assert_eq!(path(c), &[name("Arena"), name("P"), RplElement::Index(7)]);
        assert_eq!(id_path(c).len(), 4);
        assert_eq!(id_path(c)[0], RplId::ROOT);
        assert_eq!(id_path(c)[2], p);
        assert_eq!(id_path(c)[3], c);
    }

    #[test]
    fn root_is_its_own_parent() {
        assert_eq!(parent(RplId::ROOT), RplId::ROOT);
        assert_eq!(depth(RplId::ROOT), 0);
        assert!(path(RplId::ROOT).is_empty());
        assert_eq!(last_elem(RplId::ROOT), None);
    }

    #[test]
    fn parent_ids_precede_child_ids() {
        let c = intern_path(&[name("Arena"), name("Ord"), name("Deep"), name("Deeper")]);
        for w in id_path(c).windows(2) {
            assert!(w[0] < w[1], "parent id must precede child id");
        }
    }

    #[test]
    fn ancestor_test_is_correct() {
        let a = intern_path(&[name("Arena"), name("Anc")]);
        let d = intern_child(intern_child(a, name("M")), RplElement::Index(0));
        let other = intern_path(&[name("Arena"), name("Other")]);
        assert!(is_ancestor_or_self(RplId::ROOT, d));
        assert!(is_ancestor_or_self(a, d));
        assert!(is_ancestor_or_self(d, d));
        assert!(!is_ancestor_or_self(d, a));
        assert!(!is_ancestor_or_self(other, d));
    }

    #[test]
    fn dyn_region_root_is_stable_and_below_root() {
        let r = dyn_region_root();
        assert_eq!(r, dyn_region_root());
        assert_eq!(parent(r), RplId::ROOT);
        assert_eq!(depth(r), 1);
        assert_eq!(last_elem(r), Some(RplElement::name("__DynRegion")));
    }

    #[test]
    fn grows_past_many_buckets_without_moving_entries() {
        // Intern enough distinct children to cross several bucket
        // boundaries, capturing the static path slices as we go: they must
        // remain valid and identical afterwards (entries never move).
        let base = intern_path(&[name("Arena"), name("Buckets")]);
        let mut snapshot = Vec::new();
        for i in 0..300 {
            let id = intern_child(base, RplElement::Index(i));
            snapshot.push((id, path(id), id_path(id)));
        }
        for (id, p, ip) in snapshot {
            assert!(std::ptr::eq(p, path(id)));
            assert!(std::ptr::eq(ip, id_path(id)));
            assert_eq!(ip.len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "wildcard-free")]
    fn interning_a_wildcard_panics() {
        intern_child(RplId::ROOT, RplElement::Star);
    }

    #[test]
    fn racing_first_interns_of_the_same_child_elect_one_winner() {
        // All threads hammer the *same* fresh (parent, elem) pairs, so every
        // intern is a genuine first-intern race; each pair must still resolve
        // to exactly one id everywhere, and ids must stay parent-ordered.
        let parent = intern_path(&[name("Arena"), name("Race")]);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..128)
                        .map(|i| intern_child(parent, RplElement::Index(i)))
                        .collect::<Vec<RplId>>()
                })
            })
            .collect();
        let results: Vec<Vec<RplId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "same (parent, elem) must yield one id");
        }
        for &id in &results[0] {
            assert!(parent < id, "child id must exceed its parent's");
            assert_eq!(super::parent(id), parent);
        }
    }

    #[test]
    fn cross_parent_first_interns_stay_canonical_and_ordered() {
        // Writers fan out over distinct parents while all racing the shared
        // id allocator; every published id must resolve, be unique, and stay
        // strictly greater than its parent's.
        let base = intern_path(&[name("Arena"), name("XParent")]);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let parent = intern_child(base, RplElement::Index(t));
                    (0..128)
                        .map(|j| {
                            let id = intern_child(parent, RplElement::Index(j));
                            assert!(parent < id);
                            assert_eq!(depth(id), 4);
                            id
                        })
                        .collect::<Vec<RplId>>()
                })
            })
            .collect();
        let mut all: Vec<RplId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "ids across parents must be unique");
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_path() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| {
                            intern_path(&[name("Arena"), name("Conc"), RplElement::Index(i % 16)])
                        })
                        .collect::<Vec<RplId>>()
                })
            })
            .collect();
        let results: Vec<Vec<RplId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
