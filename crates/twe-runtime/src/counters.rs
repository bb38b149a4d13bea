//! Per-thread statistics and task ids: what every task counts but no
//! decision reads. Each thread counts on a cache line of its own and takes
//! task ids from a block of its own, so counting a task writes no line
//! another thread writes; [`PerThread::sum`] adds the lines up.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// [`crate::RuntimeStats::tasks_executed`].
pub(crate) const EXECUTED: usize = 0;
/// [`crate::RuntimeStats::task_retries`].
pub(crate) const RETRIES: usize = 1;
/// [`crate::RuntimeStats::admitted`].
pub(crate) const ADMITTED: usize = 2;
/// [`crate::DynamicStats::acquires`].
pub(crate) const ACQUIRES: usize = 3;
/// [`crate::DynamicStats::conflicts`].
pub(crate) const CONFLICTS: usize = 4;

/// Task ids a thread takes from the shared counter at a time.
const ID_BLOCK: u64 = 64;

/// Tells the tables apart for the thread-local cache.
static NEXT_TABLE: AtomicU64 = AtomicU64::new(1);

/// A thread's place in the table it last counted in.
#[derive(Clone, Copy)]
struct Place {
    /// That table's id, 0 for none.
    table: u64,
    slot: usize,
    /// The thread's block of task ids, `next_id..end_id`.
    next_id: u64,
    end_id: u64,
}

thread_local! {
    static PLACE: Cell<Place> = const {
        Cell::new(Place { table: 0, slot: 0, next_id: 0, end_id: 0 })
    };
}

#[derive(Default)]
#[repr(align(64))]
struct Slot([AtomicU64; 5]);

/// One runtime's counters, a cache-line slot per thread. A thread takes the
/// next slot the first time it counts here (again after it has counted in
/// another table); past the last slot, threads share slots, which costs
/// only the sharing.
pub(crate) struct PerThread {
    /// Unique in the process: it tells one runtime's task ids from another's.
    pub(crate) table: u64,
    joined: AtomicUsize,
    slots: Box<[Slot]>,
    /// The next task id no thread has taken a block of; ids start at 1.
    next_task_id: AtomicU64,
}

impl PerThread {
    /// A table with `slots` slots (at least one).
    pub(crate) fn new(slots: usize) -> Self {
        PerThread {
            table: NEXT_TABLE.fetch_add(1, Ordering::Relaxed),
            joined: AtomicUsize::new(0),
            slots: (0..slots.max(1)).map(|_| Slot::default()).collect(),
            next_task_id: AtomicU64::new(1),
        }
    }

    fn place(&self) -> Place {
        let place = PLACE.get();
        if place.table == self.table {
            return place;
        }
        let slot = self.joined.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let place = Place {
            table: self.table,
            slot,
            next_id: 0,
            end_id: 0,
        };
        PLACE.set(place);
        place
    }

    /// Adds `n` to `counter` ([`EXECUTED`], [`RETRIES`], [`ADMITTED`],
    /// [`ACQUIRES`], [`CONFLICTS`]).
    pub(crate) fn add(&self, counter: usize, n: u64) {
        let slot = &self.slots[self.place().slot];
        slot.0[counter].fetch_add(n, Ordering::Relaxed);
    }

    /// `counter` summed over every slot: exact for all counting that
    /// happens-before the call.
    pub(crate) fn sum(&self, counter: usize) -> u64 {
        let slots = self.slots.iter();
        slots.map(|s| s.0[counter].load(Ordering::Relaxed)).sum()
    }

    /// A task id no other call returns: unique per table, from 1, in blocks
    /// of [`ID_BLOCK`] per thread. Ids say nothing about submission order.
    pub(crate) fn next_task_id(&self) -> u64 {
        let mut place = self.place();
        if place.next_id == place.end_id {
            place.next_id = self.next_task_id.fetch_add(ID_BLOCK, Ordering::Relaxed);
            place.end_id = place.next_id + ID_BLOCK;
        }
        place.next_id += 1;
        PLACE.set(place);
        place.next_id - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn ids_are_unique_across_threads_and_tables_and_start_at_one() {
        let (a, b) = (Arc::new(PerThread::new(2)), Arc::new(PerThread::new(2)));
        assert_eq!(a.next_task_id(), 1);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (a, b) = (a.clone(), b.clone());
                // Alternating tables: each switch takes a new slot and block.
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..500 {
                        let (t, n) = if i % 3 == 0 { (&b, 1) } else { (&a, 0) };
                        ids.push((n, t.next_task_id()));
                        t.add(EXECUTED, 1);
                    }
                    ids
                })
            })
            .collect();
        let mut seen = HashSet::from([(0, 1)]);
        for t in threads {
            for id in t.join().expect("counting thread") {
                assert!(seen.insert(id), "{id:?} twice");
            }
        }
        assert_eq!(a.sum(EXECUTED) + b.sum(EXECUTED), 2000);
        assert!(!seen.iter().any(|&(_, id)| id == 0));
    }
}
