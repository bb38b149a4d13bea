//! Differential tests: the id-based RPL relations must agree with the
//! retained element-wise implementation (`rpl::oracle`) on arbitrary RPL
//! pairs, including wildcard suffixes, and the arena must intern
//! consistently under concurrency.

use proptest::prelude::*;
use twe_effects::rpl::oracle;
use twe_effects::{arena, Effect, EffectSet, Rpl, RplElement, RplId};

fn arb_element() -> impl Strategy<Value = RplElement> {
    prop_oneof![
        (0..5u8).prop_map(|i| RplElement::name(["DA", "DB", "DC", "DD", "DE"][i as usize])),
        (0..5i64).prop_map(RplElement::Index),
        Just(RplElement::Star),
        Just(RplElement::AnyIndex),
    ]
}

fn arb_elements() -> impl Strategy<Value = Vec<RplElement>> {
    proptest::collection::vec(arb_element(), 0..8)
}

/// Element lists with a wildcard *before* the last element, so the RPL never
/// takes the O(1) trailing-star fast path and every relation on it reaches
/// the element-wise fallback.
fn arb_interior_wildcard_elements() -> impl Strategy<Value = Vec<RplElement>> {
    (
        proptest::collection::vec(arb_element(), 0..4),
        prop_oneof![Just(RplElement::Star), Just(RplElement::AnyIndex)],
        proptest::collection::vec(arb_element(), 1..4),
    )
        .prop_map(|(mut head, wildcard, tail)| {
            head.push(wildcard);
            head.extend(tail);
            head
        })
}

fn arb_concrete_elements() -> impl Strategy<Value = Vec<RplElement>> {
    proptest::collection::vec(
        prop_oneof![
            (0..5u8).prop_map(|i| RplElement::name(["DA", "DB", "DC", "DD", "DE"][i as usize])),
            (0..5i64).prop_map(RplElement::Index),
        ],
        0..8,
    )
}

/// Two element lists that share one concrete prefix of up to seven
/// elements and then go their own way for up to two more: the deep
/// ancestor / descendant pairs that independent draws almost never produce.
fn arb_shared_prefix_pair() -> impl Strategy<Value = (Vec<RplElement>, Vec<RplElement>)> {
    (
        arb_concrete_elements(),
        proptest::collection::vec(arb_element(), 0..3),
        proptest::collection::vec(arb_element(), 0..3),
    )
        .prop_map(|(prefix, x, y)| ([&prefix[..], &x].concat(), [&prefix[..], &y].concat()))
}

proptest! {
    /// Id-based disjointness agrees with the element-wise oracle on
    /// arbitrary pairs, wildcard suffixes included; `w` reaches the
    /// element-wise fallback on every case, `s` pairs share a deep prefix.
    #[test]
    fn disjoint_matches_oracle(
        a in arb_elements(), b in arb_elements(), w in arb_interior_wildcard_elements(),
        s in arb_shared_prefix_pair()
    ) {
        for (x, y) in [(&a, &b), (&w, &b), (&b, &w), (&s.0, &s.1), (&s.1, &s.0)] {
            let (rx, ry) = (Rpl::new(x.clone()), Rpl::new(y.clone()));
            prop_assert_eq!(
                rx.disjoint(&ry),
                !oracle::overlaps(x, y),
                "disjoint mismatch for {:?} vs {:?}", rx, ry
            );
        }
    }

    /// Id-based inclusion agrees with the element-wise oracle in both
    /// directions; `w` reaches the element-wise fallback on every case, `s`
    /// pairs share a deep prefix.
    #[test]
    fn includes_matches_oracle(
        a in arb_elements(), b in arb_elements(), w in arb_interior_wildcard_elements(),
        s in arb_shared_prefix_pair()
    ) {
        for (x, y) in [(&a, &b), (&w, &b), (&s.0, &s.1)] {
            let (rx, ry) = (Rpl::new(x.clone()), Rpl::new(y.clone()));
            prop_assert_eq!(
                rx.includes(&ry),
                oracle::includes(x, y),
                "includes mismatch for {:?} ⊇ {:?}", rx, ry
            );
            prop_assert_eq!(ry.includes(&rx), oracle::includes(y, x));
            prop_assert_eq!(rx.included_in(&ry), oracle::includes(y, x));
        }
    }

    /// The concrete-concrete fast path (id inequality) agrees with the
    /// oracle's full scan.
    #[test]
    fn concrete_fast_path_matches_oracle(
        a in arb_concrete_elements(), b in arb_concrete_elements()
    ) {
        let (ra, rb) = (Rpl::new(a.clone()), Rpl::new(b.clone()));
        prop_assert_eq!(ra.disjoint(&rb), !oracle::overlaps(&a, &b));
        prop_assert_eq!(ra.includes(&rb), oracle::includes(&a, &b));
        prop_assert_eq!(ra == rb, a == b, "interned equality must be element equality");
    }

    /// `starts_with` (element slice) agrees with a direct slice compare, and
    /// the O(1) id-based prefix test agrees with it for wildcard-free
    /// prefixes.
    #[test]
    fn starts_with_matches_oracle(
        a in arb_elements(), p in arb_concrete_elements()
    ) {
        let ra = Rpl::new(a.clone());
        let expected = a.len() >= p.len() && a[..p.len().min(a.len())] == p[..];
        prop_assert_eq!(ra.starts_with(&p), expected);
        let pid = arena::intern_path(&p);
        prop_assert_eq!(
            ra.starts_with_id(pid),
            ra.max_wildcard_free_prefix().len() >= p.len()
                && ra.max_wildcard_free_prefix()[..p.len()] == p[..],
            "starts_with_id mismatch for {:?} / {:?}", ra, p
        );
    }

    /// Interning round-trips the element list exactly.
    #[test]
    fn elements_roundtrip(a in arb_elements()) {
        let r = Rpl::new(a.clone());
        prop_assert_eq!(r.elements(), &a[..]);
        let reparsed = Rpl::parse(&format!("{r}"));
        prop_assert_eq!(reparsed, r);
    }
}

// ---------------------------------------------------------------------------
// Set-level differential tests: the summary-filtered EffectSet relations
// must agree with the plain all-pairs procedure (itself grounded in the
// element-wise oracle) on arbitrary sets, wildcard suffixes included.
// ---------------------------------------------------------------------------

fn arb_effect() -> impl Strategy<Value = (bool, Vec<RplElement>)> {
    (
        any::<bool>(),
        proptest::collection::vec(arb_element(), 0..5),
    )
}

fn arb_effect_vec() -> impl Strategy<Value = Vec<(bool, Vec<RplElement>)>> {
    proptest::collection::vec(arb_effect(), 0..6)
}

fn to_effect((write, elements): &(bool, Vec<RplElement>)) -> Effect {
    let rpl = Rpl::new(elements.clone());
    if *write {
        Effect::write(rpl)
    } else {
        Effect::read(rpl)
    }
}

fn build_set(effects: &[(bool, Vec<RplElement>)]) -> EffectSet {
    EffectSet::from_effects(effects.iter().map(to_effect))
}

/// All-pairs non-interference over the raw element lists: the oracle the
/// summary-filtered `EffectSet::non_interfering` must agree with.
fn pairwise_non_interfering(a: &[(bool, Vec<RplElement>)], b: &[(bool, Vec<RplElement>)]) -> bool {
    a.iter().all(|(wa, ea)| {
        b.iter()
            .all(|(wb, eb)| (!wa && !wb) || !oracle::overlaps(ea, eb))
    })
}

/// All-pairs set inclusion over the raw element lists. A write is only
/// coverable by a write; a read by either kind.
fn pairwise_included_in(a: &[(bool, Vec<RplElement>)], b: &[(bool, Vec<RplElement>)]) -> bool {
    a.iter().all(|(wa, ea)| {
        b.iter()
            .any(|(wb, eb)| (!*wa || *wb) && oracle::includes(eb, ea))
    })
}

proptest! {
    /// Summary-filtered set non-interference agrees with the all-pairs
    /// oracle on arbitrary sets (including wildcard suffixes), and the
    /// summary-only rejection is sound (never claims certainty wrongly).
    #[test]
    fn set_non_interfering_matches_pairwise_oracle(
        a in arb_effect_vec(), b in arb_effect_vec()
    ) {
        let (sa, sb) = (build_set(&a), build_set(&b));
        let expected = pairwise_non_interfering(&a, &b);
        prop_assert_eq!(
            sa.non_interfering(&sb), expected,
            "set non-interference mismatch: {} vs {}", sa, sb
        );
        prop_assert_eq!(sb.non_interfering(&sa), expected, "must be symmetric");
        if sa.certainly_non_interfering(&sb) {
            prop_assert!(expected, "summary rejection must be sound: {} vs {}", sa, sb);
        }
    }

    /// Summary-filtered set inclusion agrees with the all-pairs oracle in
    /// both directions.
    #[test]
    fn set_included_in_matches_pairwise_oracle(
        a in arb_effect_vec(), b in arb_effect_vec()
    ) {
        let (sa, sb) = (build_set(&a), build_set(&b));
        prop_assert_eq!(
            sa.included_in(&sb), pairwise_included_in(&a, &b),
            "set inclusion mismatch: {} ⊆ {}", sa, sb
        );
        prop_assert_eq!(sb.included_in(&sa), pairwise_included_in(&b, &a));
    }

    /// `Display` and `parse` round-trip every set, the empty one (`pure`)
    /// included.
    #[test]
    fn set_parse_display_roundtrip(a in arb_effect_vec()) {
        let set = build_set(&a);
        prop_assert_eq!(EffectSet::parse(&set.to_string()), set);
    }

    /// Union is deduplicating but semantically a union: it interferes with
    /// exactly what either operand interferes with, and covers both.
    #[test]
    fn union_preserves_interference_semantics(
        a in arb_effect_vec(), b in arb_effect_vec(), c in arb_effect_vec()
    ) {
        let (sa, sb, sc) = (build_set(&a), build_set(&b), build_set(&c));
        let u = sa.union(&sb);
        prop_assert!(u.len() <= sa.len() + sb.len());
        prop_assert_eq!(
            u.interferes(&sc),
            sa.interferes(&sc) || sb.interferes(&sc),
            "union interference must be the OR of its parts"
        );
        prop_assert!(sa.included_in(&u));
        prop_assert!(sb.included_in(&u));
    }
}

// ---------------------------------------------------------------------------
// Representation independence: a set keeps up to two effects (and anchor
// pairs) inline and spills to the heap from the third. However a set was
// built, and on whichever side of the spill it sits, its equality, hash,
// anchors and relations must be those of its effect list.
// ---------------------------------------------------------------------------

/// Short RPLs, so a handful of draws repeat effects and share anchors.
fn arb_small_effect() -> impl Strategy<Value = (bool, Vec<RplElement>)> {
    (
        any::<bool>(),
        proptest::collection::vec(arb_element(), 0..3),
    )
}

fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

type Pairs = Vec<(RplId, RplId)>;

/// The sorted, deduplicated anchor pairs of all effects and of the writes,
/// collected from one-effect sets into plain `Vec`s.
fn anchor_oracle(effects: &[Effect]) -> (Pairs, Pairs) {
    let (mut all, mut writes) = (Vec::new(), Vec::new());
    for &e in effects {
        let single = EffectSet::from_effects([e]);
        all.extend_from_slice(single.anchors());
        if e.is_write() {
            writes.extend_from_slice(single.anchors());
        }
    }
    for pairs in [&mut all, &mut writes] {
        pairs.sort();
        pairs.dedup();
    }
    (all, writes)
}

/// One set of 0–5 effects built three ways: `from_effects` in draw order;
/// `push` in another order with repeats (the picks, then every effect in
/// reverse); `union_all` of one-effect sets.
fn three_ways(effects: &[Effect], picks: &[usize]) -> [EffectSet; 3] {
    let mut pushed = EffectSet::pure();
    if !effects.is_empty() {
        for &i in picks {
            pushed.push(effects[i % effects.len()]);
        }
    }
    for &e in effects.iter().rev() {
        pushed.push(e);
    }
    let singletons: Vec<EffectSet> = effects
        .iter()
        .map(|&e| EffectSet::from_effects([e]))
        .collect();
    [
        EffectSet::from_effects(effects.iter().copied()),
        pushed,
        EffectSet::union_all(&singletons),
    ]
}

proptest! {
    /// However a set is built, `==` and `Hash` are those of its effect
    /// list, `anchors()` / `write_anchors()` are the sorted deduplicated
    /// pairs, and the relations match the all-pairs oracle — below, at and
    /// past the two-item inline capacity.
    #[test]
    fn set_representation_never_shows(
        a in proptest::collection::vec(arb_small_effect(), 0..6),
        b in proptest::collection::vec(arb_small_effect(), 0..6),
        picks in proptest::collection::vec(0..8usize, 0..8),
    ) {
        let effects: Vec<Effect> = a.iter().map(to_effect).collect();
        let built = three_ways(&effects, &picks);
        let others = three_ways(&b.iter().map(to_effect).collect::<Vec<_>>(), &picks);
        let (all, writes) = anchor_oracle(&effects);
        let mut sorted: Vec<Effect> = built[0].effects().to_vec();
        sorted.sort();
        for x in &built {
            prop_assert_eq!(hash_of(x), hash_of(x.effects()), "{} hashes as its list", x);
            // The same set whatever the order it was built in.
            let mut mine = x.effects().to_vec();
            mine.sort();
            prop_assert_eq!(&mine, &sorted);
            prop_assert_eq!(x.anchors(), &all[..], "anchors of {}", x);
            prop_assert_eq!(x.write_anchors(), &writes[..], "write anchors of {}", x);
            // Rebuilt from its own list: equal, and equal hashes.
            let rebuilt = EffectSet::from_effects(x.effects().iter().copied());
            prop_assert!(rebuilt == *x);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(x));
            for y in built.iter().chain(&others) {
                prop_assert_eq!(x == y, x.effects() == y.effects(), "{} vs {}", x, y);
            }
            for y in &others {
                prop_assert_eq!(x.non_interfering(y), pairwise_non_interfering(&a, &b));
                prop_assert_eq!(x.included_in(y), pairwise_included_in(&a, &b));
                prop_assert_eq!(y.included_in(x), pairwise_included_in(&b, &a));
            }
        }
    }
}

/// Canonical-interning differential proptest: every thread interning the
/// same randomized element paths — whose wildcard-free prefixes spread over
/// many parents — must observe identical ids for identical paths (one winner
/// per `(parent, element)` race), and the ids must resolve to the interned
/// elements.
#[test]
fn concurrent_interning_across_parents_is_canonical() {
    use proptest::test_runner::TestRng;

    let mut rng = TestRng::deterministic("concurrent_interning_across_parents_is_canonical");
    // A modest number of cases: each case spawns a fresh thread pack.
    for case in 0..16 {
        let paths: Vec<Vec<RplElement>> = (0..48)
            .map(|_| arb_elements().sample(&mut rng))
            .map(|mut els| {
                // A distinct top-level region per case keeps every case a
                // cold start (all first-interns), like a fresh partition.
                els.insert(0, RplElement::name(&format!("XParentCase{case}")));
                els
            })
            .collect();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let paths = paths.clone();
                std::thread::spawn(move || {
                    paths
                        .iter()
                        .map(|els| {
                            let r = Rpl::new(els.clone());
                            (r.prefix_id(), r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<(arena::RplId, Rpl)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "same element path must give one id");
        }
        for ((id, r), els) in results[0].iter().zip(&paths) {
            assert_eq!(r.elements(), &els[..], "id must resolve to its path");
            assert_eq!(arena::path(*id), r.max_wildcard_free_prefix());
        }
    }
}

/// Wait-free read stress: reader threads hammer the lock-free arena
/// accessors (`depth`/`id_path`/`path`/ancestor tests, `P:[?]` relations) on
/// already-published ids while writer threads race to intern fresh paths.
/// Every id a reader holds must keep resolving to exactly the same static
/// slices, and the O(1) relations must stay correct throughout.
#[test]
fn wait_free_reads_race_first_interns() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let family = |i: i64| -> Vec<RplElement> {
        vec![
            RplElement::name("WaitFree"),
            RplElement::name(["L", "R"][(i % 2) as usize]),
            RplElement::Index(i % 64),
        ]
    };
    // Publish a seed family, captured with its expected resolutions.
    let seed: Vec<(arena::RplId, &'static [RplElement], &'static [arena::RplId])> = (0..64)
        .map(|i| {
            let id = arena::intern_path(&family(i));
            (id, arena::path(id), arena::id_path(id))
        })
        .collect();
    let anchor = arena::intern_path(&[RplElement::name("WaitFree")]);
    let qm = Rpl::new(vec![
        RplElement::name("WaitFree"),
        RplElement::name("L"),
        RplElement::AnyIndex,
    ]);
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: keep forcing first-interns of brand-new paths (fresh index
    // tails under per-writer parents), growing the store across bucket
    // boundaries while readers run. Each round also re-interns an
    // already-published seed path — the read-lock repeat path — which must
    // keep returning the seed's canonical id while the write lock churns.
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let stop = stop.clone();
            let seed = seed.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let fresh = vec![
                        RplElement::name("WaitFreeFresh"),
                        RplElement::Index(t),
                        RplElement::Index(i),
                    ];
                    let id = arena::intern_path(&fresh);
                    assert_eq!(arena::depth(id), 3);
                    let k = (i as usize + t as usize) % seed.len();
                    assert_eq!(
                        arena::intern_path(&family(k as i64)),
                        seed[k].0,
                        "repeat intern must return the canonical id"
                    );
                    i += 1;
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let seed = seed.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    for &(id, p, ip) in &seed {
                        // Published entries never move: identical slices.
                        assert!(std::ptr::eq(arena::path(id), p));
                        assert!(std::ptr::eq(arena::id_path(id), ip));
                        assert_eq!(arena::depth(id), 3);
                        assert!(arena::is_ancestor_or_self(anchor, id));
                        assert!(!arena::is_ancestor_or_self(id, anchor));
                        // A `P:[?]` relation over racing interns.
                        let concrete = Rpl::from_prefix_id(id);
                        let is_left = p[1] == RplElement::name("L");
                        assert_eq!(qm.disjoint(&concrete), !is_left);
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

/// Concurrent interning stress: many threads race to intern overlapping
/// families of RPLs; every thread must observe identical ids, and the
/// relations must stay consistent with the oracle throughout.
#[test]
fn concurrent_arena_interning_stress() {
    let make = |t: usize, i: i64| -> Vec<RplElement> {
        let mut v = vec![
            RplElement::name("Stress"),
            RplElement::name(["P", "Q", "R"][t % 3]),
            RplElement::Index(i % 32),
        ];
        if i % 5 == 0 {
            v.push(RplElement::Star);
        }
        v
    };
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                (0..256)
                    .map(|i| {
                        let elems = make(t, i);
                        let r = Rpl::new(elems.clone());
                        // Exercise the relations under concurrency too.
                        let probe = Rpl::new(make((t + 1) % 8, i + 1));
                        assert_eq!(
                            r.disjoint(&probe),
                            !oracle::overlaps(&elems, probe.elements())
                        );
                        (r.prefix_id(), r)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<Vec<(arena::RplId, Rpl)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Threads t and t+3 intern identical element lists (same t mod 3), so
    // they must observe identical ids.
    for t in 0..5 {
        assert_eq!(
            results[t],
            results[t + 3],
            "threads {t} and {} disagree",
            t + 3
        );
    }
    // Every id resolves back to the elements it was interned from.
    for row in &results {
        for (id, r) in row {
            assert_eq!(arena::path(*id), r.max_wildcard_free_prefix());
            assert_eq!(arena::depth(*id), r.max_wildcard_free_prefix().len());
        }
    }
}
