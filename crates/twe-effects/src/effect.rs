//! Read/write effects on regions and sets thereof.
//!
//! An [`Effect`] is a read or a write of an RPL. The interference and
//! inclusion relations follow §2.2 of the paper:
//!
//! * two effects are **non-interfering** (`A # B`) if both are reads or their
//!   RPLs are disjoint;
//! * `reads R ⊆ reads S`, `reads R ⊆ writes S` and `writes R ⊆ writes S`
//!   whenever `R ⊆ S`; a write is never included in a read.
//!
//! An [`EffectSet`] is a list of effects. Set inclusion is conservative: every
//! individual effect of the smaller set must be covered by *some* individual
//! effect of the larger set (the paper notes this excludes coverage by a
//! combination of effects but is sufficient in practice).
//!
//! Both set relations are the plain pairwise loops of §2.2 over the effect
//! list; each pair costs one [`Rpl`] relation on interned ids. Building a
//! set never interns: all interning happened when its `Rpl`s were built.

use crate::inline::InlineList;
use crate::rpl::Rpl;
use std::fmt;

/// Whether an effect reads or writes its region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum EffectKind {
    /// A read of every location in the region.
    Read,
    /// A write (and implicitly a read) of every location in the region.
    Write,
}

/// A single read or write effect on a region named by an RPL.
///
/// With the interned [`Rpl`] representation an `Effect` is a small `Copy`
/// value; copying it never allocates, and its equality/hash are O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Effect {
    /// Read or write.
    pub kind: EffectKind,
    /// The region path list this effect is on.
    pub rpl: Rpl,
}

impl Effect {
    /// A read effect on `rpl`.
    pub fn read(rpl: Rpl) -> Self {
        Effect {
            kind: EffectKind::Read,
            rpl,
        }
    }

    /// A write effect on `rpl`.
    pub fn write(rpl: Rpl) -> Self {
        Effect {
            kind: EffectKind::Write,
            rpl,
        }
    }

    /// Parses `"reads A:B"` / `"writes A:*"` (used by tests and the IR).
    pub fn parse(text: &str) -> Option<Self> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix("reads ") {
            Some(Effect::read(Rpl::parse(rest)))
        } else {
            text.strip_prefix("writes ")
                .map(|rest| Effect::write(Rpl::parse(rest)))
        }
    }

    /// Is this a write effect?
    pub fn is_write(&self) -> bool {
        self.kind == EffectKind::Write
    }

    /// Is this a read effect?
    pub fn is_read(&self) -> bool {
        self.kind == EffectKind::Read
    }

    /// Non-interference (`self # other`): both reads, or disjoint RPLs.
    pub fn non_interfering(&self, other: &Effect) -> bool {
        (self.is_read() && other.is_read()) || self.rpl.disjoint(&other.rpl)
    }

    /// Interference: `!self.non_interfering(other)`.
    pub fn interferes(&self, other: &Effect) -> bool {
        !self.non_interfering(other)
    }

    /// Effect inclusion `self ⊆ other`.
    ///
    /// A read on `R` is covered by a read or a write on `S ⊇ R`; a write on
    /// `R` is covered only by a write on `S ⊇ R`.
    pub fn included_in(&self, other: &Effect) -> bool {
        if self.is_write() && other.is_read() {
            return false;
        }
        self.rpl.included_in(&other.rpl)
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EffectKind::Read => write!(f, "reads {}", self.rpl),
            EffectKind::Write => write!(f, "writes {}", self.rpl),
        }
    }
}

impl fmt::Debug for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A set of read/write effects — the effect summary attached to a task or
/// method. The empty set is the `pure` effect.
///
/// Building a set deduplicates exactly-equal effects (an `Effect` is a
/// small `Copy` value, so duplicates carry no information and would only
/// lengthen the pairwise loops). Equality and hashing consider the effect
/// list only, as a slice: a set hashes exactly as [`EffectSet::effects`]
/// does.
///
/// The effect list holds up to two effects inline and spills to the heap
/// from the third, so building or cloning a one- or two-effect set
/// allocates nothing.
#[derive(Clone, Default)]
pub struct EffectSet {
    effects: InlineList<Effect>,
}

impl PartialEq for EffectSet {
    fn eq(&self, other: &Self) -> bool {
        self.effects() == other.effects()
    }
}

impl Eq for EffectSet {}

impl std::hash::Hash for EffectSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.effects().hash(state);
    }
}

impl EffectSet {
    /// The `pure` effect: no reads or writes.
    pub fn pure() -> Self {
        EffectSet::default()
    }

    /// The top effect `writes Root:*`, which covers every possible effect.
    pub fn top() -> Self {
        EffectSet::from_effects([Effect::write(Rpl::root().under_star())])
    }

    /// Builds a set from individual effects (deduplicating exact repeats).
    pub fn from_effects(effects: impl IntoIterator<Item = Effect>) -> Self {
        let mut set = EffectSet::default();
        for e in effects {
            set.push(e);
        }
        set
    }

    /// Parses a comma-separated effect list, e.g. `"writes Top, reads Root"`.
    /// Blank items and the literal `pure` (what `Display` prints for the
    /// empty set) contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics on any other item [`Effect::parse`] cannot read: silently
    /// dropping it would admit the task without that effect's isolation.
    pub fn parse(text: &str) -> Self {
        EffectSet::from_effects(
            text.split(',')
                .map(str::trim)
                .filter(|item| !item.is_empty() && *item != "pure")
                .map(|item| {
                    Effect::parse(item).unwrap_or_else(|| {
                        panic!("unreadable effect {item:?} in effect list {text:?}")
                    })
                }),
        )
    }

    /// One read effect.
    pub fn read(rpl: Rpl) -> Self {
        EffectSet::from_effects([Effect::read(rpl)])
    }

    /// One write effect.
    pub fn write(rpl: Rpl) -> Self {
        EffectSet::from_effects([Effect::write(rpl)])
    }

    /// The individual effects.
    pub fn effects(&self) -> &[Effect] {
        &self.effects
    }

    /// Is this the `pure` effect?
    pub fn is_pure(&self) -> bool {
        self.effects.is_empty()
    }

    /// Number of individual effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Is the set empty (i.e. `pure`)?
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Adds an effect to the set. An effect already present (exact `Copy`
    /// equality) is skipped, so building a set deduplicates and the pairwise
    /// loops never scan repeats.
    pub fn push(&mut self, effect: Effect) {
        if !self.effects.contains(&effect) {
            self.effects.push(effect);
        }
    }

    /// Returns the union of two effect sets, deduplicating effects present
    /// in both.
    pub fn union(&self, other: &EffectSet) -> EffectSet {
        let mut union = self.clone();
        for &e in other.iter() {
            union.push(e);
        }
        union
    }

    /// [`EffectSet::non_interfering`] under its old name. Kept only for the
    /// benchmark's replay, which reads it for `effects.summary_decided_frac`,
    /// until ROADMAP's yardstick item drops that row and this with it.
    pub fn certainly_non_interfering(&self, other: &EffectSet) -> bool {
        self.non_interfering(other)
    }

    /// Set-level non-interference: every pair of effects drawn from the two
    /// sets is non-interfering.
    pub fn non_interfering(&self, other: &EffectSet) -> bool {
        self.effects
            .iter()
            .all(|a| other.effects.iter().all(|b| a.non_interfering(b)))
    }

    /// Set-level interference: some pair of effects interferes.
    pub fn interferes(&self, other: &EffectSet) -> bool {
        !self.non_interfering(other)
    }

    /// Set-level inclusion: every effect of `self` is included in some single
    /// effect of `other` (conservative, per §2.2).
    pub fn included_in(&self, other: &EffectSet) -> bool {
        self.effects
            .iter()
            .all(|a| other.effects.iter().any(|b| a.included_in(b)))
    }

    /// Does this set cover the single effect `e`?
    pub fn covers_effect(&self, e: &Effect) -> bool {
        self.effects.iter().any(|b| e.included_in(b))
    }

    /// Does any effect in this set interfere with `e`?
    pub fn interferes_effect(&self, e: &Effect) -> bool {
        self.effects.iter().any(|b| b.interferes(e))
    }

    /// Iterator over the effects.
    pub fn iter(&self) -> impl Iterator<Item = &Effect> {
        self.effects.iter()
    }
}

impl FromIterator<Effect> for EffectSet {
    fn from_iter<T: IntoIterator<Item = Effect>>(iter: T) -> Self {
        EffectSet::from_effects(iter)
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.effects.is_empty() {
            return write!(f, "pure");
        }
        for (i, e) in self.effects.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Rpl {
        Rpl::parse(s)
    }

    #[test]
    fn reads_never_interfere_with_reads() {
        let a = Effect::read(r("A"));
        let b = Effect::read(r("A"));
        assert!(a.non_interfering(&b));
    }

    #[test]
    fn writes_to_same_region_interfere() {
        let a = Effect::write(r("A"));
        let b = Effect::write(r("A"));
        assert!(a.interferes(&b));
        let c = Effect::read(r("A"));
        assert!(a.interferes(&c));
        assert!(c.interferes(&a));
    }

    #[test]
    fn disjoint_regions_never_interfere() {
        let a = Effect::write(r("A"));
        let b = Effect::write(r("B"));
        assert!(a.non_interfering(&b));
        let c = Effect::write(r("A:B"));
        assert!(a.non_interfering(&c)); // parent/child regions are distinct location sets
    }

    #[test]
    fn wildcard_write_interferes_with_descendants() {
        let star = Effect::write(r("A:*"));
        let child = Effect::write(r("A:B"));
        let other = Effect::write(r("C"));
        assert!(star.interferes(&child));
        assert!(star.non_interfering(&other));
    }

    #[test]
    fn effect_inclusion_rules() {
        assert!(Effect::read(r("A")).included_in(&Effect::read(r("A"))));
        assert!(Effect::read(r("A")).included_in(&Effect::write(r("A"))));
        assert!(!Effect::write(r("A")).included_in(&Effect::read(r("A"))));
        assert!(Effect::write(r("A:B")).included_in(&Effect::write(r("A:*"))));
        assert!(!Effect::write(r("A:*")).included_in(&Effect::write(r("A:B"))));
    }

    #[test]
    #[should_panic(expected = "unreadable effect \"wrties Clusters:[3]\" in effect list")]
    fn parse_rejects_a_misspelt_item() {
        EffectSet::parse("reads Root, wrties Clusters:[3]");
    }

    #[test]
    #[should_panic(expected = "unreadable effect \"write A\"")]
    fn parse_rejects_a_lone_unreadable_item() {
        EffectSet::parse("write A");
    }

    #[test]
    fn parse_reads_blank_items_and_pure_as_nothing() {
        assert!(EffectSet::parse("").is_empty());
        assert!(EffectSet::parse("pure").is_empty());
        assert_eq!(EffectSet::parse("reads A, "), EffectSet::parse("reads A"));
        assert_eq!(EffectSet::parse("reads A, ").len(), 1);
    }

    #[test]
    fn parse_effects() {
        assert_eq!(Effect::parse("reads A:B"), Some(Effect::read(r("A:B"))));
        assert_eq!(Effect::parse("writes A:*"), Some(Effect::write(r("A:*"))));
        assert_eq!(Effect::parse("nonsense"), None);
        let set = EffectSet::parse("writes Top, writes Bottom");
        assert_eq!(set.len(), 2);
        assert_eq!(format!("{set}"), "writes Root:Top, writes Root:Bottom");
    }

    #[test]
    fn effect_set_interference() {
        let image = EffectSet::parse("writes Top, writes Bottom");
        let gui = EffectSet::parse("writes GUIData");
        let top_only = EffectSet::parse("writes Top");
        assert!(image.non_interfering(&gui));
        assert!(image.interferes(&top_only));
        assert!(EffectSet::pure().non_interfering(&image));
    }

    #[test]
    fn effect_set_inclusion() {
        let both = EffectSet::parse("writes Top, writes Bottom");
        let top = EffectSet::parse("writes Top");
        let read_top = EffectSet::parse("reads Top");
        assert!(top.included_in(&both));
        assert!(read_top.included_in(&both));
        assert!(!both.included_in(&top));
        assert!(EffectSet::pure().included_in(&top));
        assert!(EffectSet::pure().included_in(&EffectSet::pure()));
        assert!(!top.included_in(&EffectSet::pure()));
    }

    #[test]
    fn union_and_push_dedup_identical_effects() {
        let a = EffectSet::parse("writes Top, reads Side");
        let b = EffectSet::parse("writes Top, writes Other");
        let u = a.union(&b);
        assert_eq!(u.len(), 3, "identical Copy effects must not repeat: {u}");
        let mut s = EffectSet::pure();
        s.push(Effect::write(r("X")));
        s.push(Effect::write(r("X")));
        s.push(Effect::read(r("X"))); // different kind: kept
        assert_eq!(s.len(), 2);
        // Dedup keeps the set semantics intact.
        assert!(u.interferes(&EffectSet::parse("writes Top")));
        assert!(EffectSet::parse("writes Top").included_in(&u));
    }

    #[test]
    fn sets_on_disjoint_regions_do_not_interfere() {
        let a = EffectSet::parse("writes A:[1], reads A:[2], writes B:X");
        let b = EffectSet::parse("writes C:[1], reads D");
        assert!(a.non_interfering(&b));
        // A shared top-level region read on both sides.
        let ra = EffectSet::parse("reads A:[1]");
        let rb = EffectSet::parse("reads A:[2]");
        assert!(ra.non_interfering(&rb));
        // A shared region with a write.
        let wa = EffectSet::parse("writes A:[1]");
        assert!(wa.interferes(&a));
    }

    #[test]
    fn siblings_under_a_shared_region_do_not_interfere() {
        // Everything lives under one top-level region.
        let x = EffectSet::parse("writes Data:X:*, writes Data:X:[1]");
        let y = EffectSet::parse("writes Data:Y:*, reads Data:Y");
        assert!(x.non_interfering(&y));
        // Tenant scans on distinct tenants — the service-scenario shape.
        let t1 = EffectSet::parse("writes Tenant:[1]:*");
        let t2 = EffectSet::parse("writes Tenant:[2]:*");
        assert!(t1.non_interfering(&t2));
        assert!(t1.interferes(&t1.clone()));
        // The depth-1 region itself relates to no deeper region…
        let data = EffectSet::parse("writes Data");
        assert!(data.non_interfering(&x));
        // …while a wildcard below it relates to both.
        let scan = EffectSet::parse("writes Data:*");
        assert!(scan.interferes(&x));
        assert!(scan.interferes(&data));
        // A concrete region is covered by a wildcard over it, not the
        // other way round.
        assert!(x.included_in(&EffectSet::parse("writes Data:X:*, writes Data:*")));
        assert!(!EffectSet::parse("writes Data:*").included_in(&x));
        assert!(!x.included_in(&y));
    }

    #[test]
    fn root_level_wildcards_and_the_root_region() {
        let star = EffectSet::parse("writes *");
        let reads_star = EffectSet::parse("reads *");
        let reads_only = EffectSet::parse("reads A, reads B");
        let writes_c = EffectSet::parse("writes C");
        let root = EffectSet::parse("writes Root");
        assert!(star.interferes(&reads_only));
        assert!(reads_star.non_interfering(&reads_only));
        assert!(reads_star.interferes(&writes_c));
        // The concrete Root region only meets itself and wildcards.
        assert!(root.non_interfering(&writes_c));
        assert!(root.interferes(&root));
        assert!(star.interferes(&root));
    }

    #[test]
    fn set_inclusion_respects_wildcards_and_kinds() {
        let small = EffectSet::parse("writes A:[1]");
        let big = EffectSet::parse("writes A:[?], writes B");
        let elsewhere = EffectSet::parse("writes C:*, writes D");
        assert!(small.included_in(&big));
        assert!(!small.included_in(&elsewhere));
        // Root-level wildcard containment needs a root-level wildcard cover.
        let star = EffectSet::parse("writes *");
        assert!(!star.included_in(&EffectSet::parse("writes A, writes B")));
        assert!(EffectSet::parse("reads *").included_in(&star));
        assert!(!EffectSet::parse("writes *").included_in(&EffectSet::parse("reads *")));
        // A write needs a write cover even on a region that covers it.
        assert!(!small.included_in(&EffectSet::parse("reads A:*")));
        assert!(small.included_in(&EffectSet::parse("writes A:*")));
    }

    #[test]
    fn top_covers_everything() {
        let top = EffectSet::top();
        for text in ["writes A:B:C", "reads Root", "writes X:*", "reads A:[7]"] {
            let e = EffectSet::parse(text);
            assert!(e.included_in(&top), "{text} should be covered by ⊤");
        }
        assert!(!top.included_in(&EffectSet::parse("writes A")));
    }

    #[test]
    fn inclusion_soundness_wrt_interference() {
        // If A ⊆ B and B # C then A # C (the defining property of inclusion),
        // spot-checked over a handful of triples.
        let effects: Vec<Effect> = [
            "reads A",
            "writes A",
            "reads A:B",
            "writes A:B",
            "writes A:*",
            "reads A:*",
            "writes B",
            "reads Root",
            "writes Root:*",
        ]
        .iter()
        .map(|t| Effect::parse(t).unwrap())
        .collect();
        for a in &effects {
            for b in &effects {
                if !a.included_in(b) {
                    continue;
                }
                for c in &effects {
                    if b.non_interfering(c) {
                        assert!(
                            a.non_interfering(c),
                            "inclusion unsound: {a} ⊆ {b}, {b} # {c}, but {a} interferes {c}"
                        );
                    }
                }
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_rpl() -> impl Strategy<Value = Rpl> {
            proptest::collection::vec(
                prop_oneof![
                    (0..3u8)
                        .prop_map(|i| crate::rpl::RplElement::name(["A", "B", "C"][i as usize])),
                    (0..3i64).prop_map(crate::rpl::RplElement::Index),
                    Just(crate::rpl::RplElement::Star),
                    Just(crate::rpl::RplElement::AnyIndex),
                ],
                0..4,
            )
            .prop_map(Rpl::new)
        }

        fn arb_effect() -> impl Strategy<Value = Effect> {
            (any::<bool>(), arb_rpl()).prop_map(|(w, rpl)| {
                if w {
                    Effect::write(rpl)
                } else {
                    Effect::read(rpl)
                }
            })
        }

        proptest! {
            /// Non-interference is symmetric.
            #[test]
            fn non_interference_symmetric(a in arb_effect(), b in arb_effect()) {
                prop_assert_eq!(a.non_interfering(&b), b.non_interfering(&a));
            }

            /// Inclusion soundness: A ⊆ B and B # C implies A # C.
            #[test]
            fn inclusion_sound(a in arb_effect(), b in arb_effect(), c in arb_effect()) {
                if a.included_in(&b) && b.non_interfering(&c) {
                    prop_assert!(a.non_interfering(&c));
                }
            }

            /// reads R ⊆ writes R always.
            #[test]
            fn read_included_in_write_same_region(rpl in arb_rpl()) {
                prop_assert!(Effect::read(rpl).included_in(&Effect::write(rpl)));
            }

            /// A write effect always interferes with itself.
            #[test]
            fn write_self_interferes(rpl in arb_rpl()) {
                let w = Effect::write(rpl);
                prop_assert!(w.interferes(&w));
            }

            /// Set inclusion soundness lifted to sets.
            #[test]
            fn set_inclusion_sound(
                a in proptest::collection::vec(arb_effect(), 0..3),
                b in proptest::collection::vec(arb_effect(), 0..3),
                c in proptest::collection::vec(arb_effect(), 0..3),
            ) {
                let (a, b, c) = (
                    EffectSet::from_effects(a),
                    EffectSet::from_effects(b),
                    EffectSet::from_effects(c),
                );
                if a.included_in(&b) && b.non_interfering(&c) {
                    prop_assert!(a.non_interfering(&c));
                }
            }
        }
    }
}
