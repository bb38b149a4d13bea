//! Recycling for the `__DynRegion` subtree.
//!
//! The arena ([`crate::arena`]) is append-only — that is what makes its
//! reads wait-free — so every distinct region path ever interned occupies
//! one arena slot for the life of the process. For *static* regions that is
//! the right trade: their names come from program text. Dynamic reference
//! regions (chapter 7's `DynCell`s) are different: a long-running service
//! churns through unboundedly many short-lived cells, and minting a fresh
//! `__DynRegion:[n]` per cell would leak one arena entry per cell forever.
//!
//! An arena entry carries no cell state — `__DynRegion:[7]` is only a name —
//! so bounding the footprint needs no freeing, only a way to hand the same
//! id to the next cell once the previous one is gone. A [`DynRegion`] is
//! that id plus the generation (era) it was handed out under, and it is
//! neither `Copy` nor `Clone`: its owner holds the only handle to the era.
//! Dropping it pushes the id onto one process-global free list with the
//! generation bumped, so each era ends exactly once, by construction. The
//! next [`DynRegion::allocate`] pops the most recently freed id, or mints a
//! fresh one when the list is empty, so the ids ever minted never outnumber
//! the peak of regions alive at once.
//!
//! There is no grace period beyond ownership: the owner's drop *is* the
//! proof that nothing holding the owner still names the era. State that
//! outlives the owner either belongs to that owner alone — a dynamic claim
//! holds its cell's claim state, which no later cell shares — or may meet
//! the id's next era — a scheduler record, which for the runtime only ever
//! makes a task wait (ARCHITECTURE.md, "Reclamation").
//!
//! ```
//! use twe_effects::reclaim::DynRegion;
//!
//! let first = DynRegion::allocate();
//! let (id, generation) = (first.id(), first.generation());
//! drop(first);
//! // With no other thread allocating, the freed id is the next one out.
//! let second = DynRegion::allocate();
//! assert_eq!((second.id(), second.generation()), (id, generation + 1));
//! ```
//!
//! A region cannot be cloned, copied or retired twice:
//!
//! ```compile_fail,E0599
//! let region = twe_effects::reclaim::DynRegion::allocate();
//! let alias = region.clone();
//! ```
//!
//! ```compile_fail,E0382
//! let region = twe_effects::reclaim::DynRegion::allocate();
//! let alias = region;
//! let _ = region.id();
//! ```
//!
//! ```compile_fail,E0382
//! let region = twe_effects::reclaim::DynRegion::allocate();
//! drop(region);
//! drop(region);
//! ```

use crate::arena::{self, RplId};
use crate::rpl::{Rpl, RplElement};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};

/// Ids whose era has ended, each with the generation its next era opens
/// under. A stack: the id freed last, likeliest still in cache, goes out
/// first.
static FREE: Mutex<Vec<(RplId, u32)>> = Mutex::new(Vec::new());

/// The index of the next fresh `__DynRegion:[n]`.
static NEXT_FRESH: AtomicI64 = AtomicI64::new(1);

/// One era of a dynamic reference region: an interned `__DynRegion:[n]` id
/// and the generation it was allocated under. Dropping it ends the era and
/// frees the id for the next one (see the module docs).
#[derive(Debug)]
pub struct DynRegion {
    id: RplId,
    generation: u32,
}

impl DynRegion {
    /// A region for a new owner: a freed id under its next generation if
    /// one is free, otherwise a fresh id under [`arena::dyn_region_root`].
    #[must_use]
    pub fn allocate() -> Self {
        let freed = FREE.lock().pop();
        let (id, generation) = freed.unwrap_or_else(|| {
            let n = NEXT_FRESH.fetch_add(1, Ordering::Relaxed);
            let id = arena::intern_child(arena::dyn_region_root(), RplElement::Index(n));
            (id, 0)
        });
        DynRegion { id, generation }
    }

    /// The interned `__DynRegion:[n]` arena id. Resolvable forever (arena
    /// entries are never freed); names *this* region only while it lives.
    #[must_use]
    pub fn id(&self) -> RplId {
        self.id
    }

    /// The era this region was allocated under: `(id, generation)` is unique
    /// over the whole process lifetime even though `id` alone is not.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The region as a fully-specified [`Rpl`] prefix.
    #[must_use]
    pub fn rpl(&self) -> Rpl {
        Rpl::from_prefix_id(self.id)
    }
}

impl Drop for DynRegion {
    fn drop(&mut self) {
        FREE.lock().push((self.id, self.generation.wrapping_add(1)));
    }
}

/// Serializes the tests of this crate that need the free list to
/// themselves: one that frees an id and expects it back must not race
/// another test's allocations.
#[cfg(test)]
pub(crate) static TEST_SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_id_comes_back_with_a_bumped_generation() {
        let _serial = TEST_SERIAL.lock();
        let a = DynRegion::allocate();
        let (id, generation) = (a.id(), a.generation());
        drop(a);
        let b = DynRegion::allocate();
        assert_eq!(b.id(), id, "the freed id is the next one out");
        assert_eq!(b.generation(), generation + 1);
        let c = DynRegion::allocate();
        assert_ne!(c.id(), b.id(), "a live id is never handed out again");
    }

    #[test]
    fn sequential_churn_mints_at_most_one_id() {
        let _serial = TEST_SERIAL.lock();
        let before = NEXT_FRESH.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            drop(DynRegion::allocate());
        }
        let minted = NEXT_FRESH.load(Ordering::Relaxed) - before;
        assert!(
            minted <= 1,
            "sequential churn must recycle, minted {minted}"
        );
    }
}
