//! Check of the property the wake path rests on (ARCHITECTURE.md, "Wake
//! path"), for tests to call between steps.

use super::*;
use std::collections::{HashMap, HashSet};

fn collect(node: &NodeRef, linked: &mut Vec<Arc<EffectRecord>>) {
    let guard = node.lock();
    linked.extend(guard.live_records().cloned());
    let children: Vec<NodeRef> = guard.children.values().map(|c| c.node.clone()).collect();
    drop(guard);
    children.iter().for_each(|c| collect(c, linked));
}

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
        collect(&self.root, &mut linked);
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
}
