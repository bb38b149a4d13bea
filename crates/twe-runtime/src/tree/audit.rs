//! Checks of the property the wake path rests on (ARCHITECTURE.md, "Wake
//! path") and of the one the prune bound rests on ("Pruning"), for tests to
//! call between steps.

use super::*;
use std::collections::{HashMap, HashSet};

impl TreeScheduler {
    /// Panics unless, right now, every parked record — disabled, of a task
    /// that is not enabled yet — is registered on a linked record that
    /// conflicts with it and is enabled, or is itself parked the same way
    /// (the record that took an effect from it, Figure 5.10). Exact only
    /// while no other thread is inside the scheduler. (That a hand-on only
    /// ever names a record of an `Enabled` task is a `debug_assert` where
    /// it pushes.)
    #[doc(hidden)]
    pub fn assert_wake_invariant(&self) {
        let mut linked = Vec::new();
        let mut link = |node: &NodeInner| linked.extend(node.live_records().cloned());
        Self::visit(&self.root, &mut link);
        // Waiter → the linked records it is registered on.
        let mut registered: HashMap<*const EffectRecord, Vec<&Arc<EffectRecord>>> = HashMap::new();
        for on in &linked {
            for waiter in on.waiters.lock().iter() {
                registered.entry(waiter.as_ptr()).or_default().push(on);
            }
        }
        // Records somebody will recheck: behind an enabled record, or behind
        // one that is (to a fixpoint: a cycle of parked records is not).
        let mut sound: HashSet<*const EffectRecord> = (linked.iter())
            .filter(|r| r.is_enabled())
            .map(Arc::as_ptr)
            .collect();
        let parked: Vec<&Arc<EffectRecord>> = (linked.iter())
            .filter(|r| !r.enabled.load(Ordering::Acquire))
            .filter(|r| (r.task.upgrade()).is_some_and(|t| t.status() < TaskStatus::Enabled))
            .collect();
        loop {
            let before = sound.len();
            for &record in &parked {
                let on = registered.get(&Arc::as_ptr(record)).into_iter().flatten();
                if on
                    .filter(|on| sound.contains(&Arc::as_ptr(on)))
                    .any(|on| self.conflicts(on, record))
                {
                    sound.insert(Arc::as_ptr(record));
                }
            }
            if sound.len() == before {
                break;
            }
        }
        let stranded: Vec<String> = (parked.iter())
            .filter(|r| !sound.contains(&Arc::as_ptr(r)))
            .map(|r| {
                let on = registered.get(&Arc::as_ptr(r)).into_iter().flatten();
                let on: Vec<String> = on.map(|on| format!("{on:?}")).collect();
                format!("{r:?} of task {}, registered on {on:?}", r.uid >> 16)
            })
            .collect();
        assert!(
            stranded.is_empty(),
            "parked records nobody will recheck: {stranded:#?}"
        );
    }

    /// Panics unless every vacant node below the root carries its
    /// `prune_pending` flag and its path is on the vacated list: the next
    /// drain prunes it, and a completion vacating it again lists it no
    /// second time. Exact only while no other thread is inside the
    /// scheduler.
    #[doc(hidden)]
    pub fn assert_vacant_nodes_listed(&self) {
        // Copied out first: the list is never held with a node lock.
        let listed: HashSet<&[RplId]> = (self.vacated.lock().iter())
            .map(|path| &path[1..])
            .collect();
        let mut unlisted = Vec::new();
        find_unlisted(&self.root, &mut Vec::new(), &listed, &mut unlisted);
        assert!(
            unlisted.is_empty(),
            "vacant nodes no drain will prune: {unlisted:#?}"
        );
    }
}

/// Adds to `unlisted` every vacant node at or below `node` (at `path`, the
/// root's own excluded) that is not flagged and listed.
fn find_unlisted(
    node: &NodeRef,
    path: &mut Vec<RplId>,
    listed: &HashSet<&[RplId]>,
    unlisted: &mut Vec<String>,
) {
    let guard = node.lock();
    let (flagged, on_list) = (guard.prune_pending, listed.contains(&path[..]));
    if !path.is_empty() && guard.is_vacant() && !(flagged && on_list) {
        unlisted.push(format!("{path:?}: flagged {flagged}, listed {on_list}"));
    }
    let children: Vec<(RplId, NodeRef)> = (guard.children.iter())
        .map(|(&key, c)| (key, c.clone()))
        .collect();
    drop(guard);
    for (key, child) in children {
        path.push(key);
        find_unlisted(&child, path, listed, unlisted);
        path.pop();
    }
}
