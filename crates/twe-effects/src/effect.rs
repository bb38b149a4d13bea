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
//! # Set summaries
//!
//! Every `EffectSet` carries a precomputed **summary** maintained on
//! `push`/`union`: the sorted, deduplicated array of each effect's *anchor
//! pair* — the (depth-1, depth-2) ancestor ids of its RPL's wildcard-free
//! prefix — a 64-bit Bloom filter over the depth-1 halves, and flags for
//! *root-level wildcard* effects (`*…`/`[?]…`, which relate to every
//! anchor). The depth-2 half uses two reserved encodings: the RPL's own
//! depth-1 id again for a fully specified depth-≤1 region (`Data`,
//! `Root:[5]` — the region *is* its anchor, covering nothing below), and
//! [`RplId::ROOT`] as a *below-anchor wildcard* sentinel for RPLs whose
//! wildcard starts at depth 2 (`Data:*`, `Tenant:[i]:[?]` — they may relate
//! to anything under their depth-1 anchor). Two effects can only interfere
//! when one is a write and their RPLs overlap, and overlap forces matching
//! anchor pairs (equal pairs, or a sentinel on either side, or a root-level
//! wildcard); likewise inclusion forces the covering effect onto a pair
//! covering the covered effect's. [`EffectSet::non_interfering`] and
//! [`EffectSet::included_in`] therefore reject pair-disjoint sets in
//! O(set) — one Bloom AND plus at most one sorted merge — before falling
//! back to the pairwise loop. Anchoring at the *pair* rather than depth 1
//! alone is what lets workloads living under one shared top-level region
//! (`Data:X:*` vs `Data:Y:*`, tenant scans `Tenant:[i]:*`) still get
//! summary rejection instead of degrading to the pairwise loop.
//!
//! Summary construction sits on the conflict plane's *read* side: anchors
//! come from already-interned prefix id paths ([`Rpl::prefix_id_path`] is a
//! wait-free arena load), so `push`/`union`/`union_all` never intern, never
//! take the arena's child-index lock, and can run concurrently with any number of
//! cold-start first-interns on other threads. All interning happened when
//! the `Rpl`s themselves were built (parse/`child`/`from_elements`).

use crate::arena::RplId;
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

/// The precomputed conflict summary of an [`EffectSet`] (see the module
/// docs). Derived entirely from the effect list, so it is excluded from
/// equality and hashing.
#[derive(Clone, Debug, Default)]
struct SetSummary {
    /// Sorted, deduped (depth-1, depth-2) anchor pairs of all effects (see
    /// [`anchor_pair`] for the encoding of the depth-2 half).
    anchors_all: InlineList<(RplId, RplId)>,
    /// Sorted, deduped anchor pairs of the write effects.
    anchors_write: InlineList<(RplId, RplId)>,
    /// 64-bit Bloom filter over the depth-1 halves of `anchors_all` (one
    /// hashed bit per anchor; pairs only match on equal depth-1 ids, so the
    /// depth-1 filter is a sound superset of pair intersection).
    bloom_all: u64,
    /// 64-bit Bloom filter over the depth-1 halves of `anchors_write`.
    bloom_write: u64,
    /// Set if some read effect's RPL starts with a wildcard (`*…`/`[?]…`):
    /// such an effect has no anchor and may relate to any region.
    universal_read: bool,
    /// Set if some write effect's RPL starts with a wildcard.
    universal_write: bool,
}

/// The (depth-1, depth-2) anchor pair of an RPL, or `None` for root-level
/// wildcards (see the module docs).
///
/// The first half is the depth-1 ancestor id of the RPL's wildcard-free
/// prefix ([`RplId::ROOT`] only for the concrete `Root` region itself). The
/// second half is:
///
/// * the prefix's depth-2 ancestor id when the prefix reaches depth 2 —
///   a child id is always distinct from its parent's and from `ROOT`, so
///   neither reserved encoding below can collide with it;
/// * the depth-1 id again (`a2 == a1`) for a fully specified depth-≤1 RPL:
///   the region *is* its own anchor and relates to no deeper region;
/// * [`RplId::ROOT`] as the **below-anchor wildcard sentinel** when the
///   wildcard starts at depth 2 (`A:*`, `A:[?]`): the effect may relate to
///   anything sharing its depth-1 anchor. `ROOT` has the smallest index, so
///   sentinel pairs sort first within their depth-1 group, which the merge
///   walks below exploit. The one pair whose second half is legitimately
///   `ROOT` — the concrete `Root` region's `(ROOT, ROOT)` — is unambiguous:
///   no anchored RPL with depth-1 half `ROOT` reaches depth 2 (those are
///   root-level wildcards and carry no pair), so within the `ROOT` group
///   the sentinel reading and the exact-match reading coincide.
fn anchor_pair(rpl: &Rpl) -> Option<(RplId, RplId)> {
    let depth = rpl.prefix_depth();
    if depth == 0 {
        return if rpl.is_fully_specified() {
            Some((RplId::ROOT, RplId::ROOT)) // the concrete `Root` region itself
        } else {
            None // root-level wildcard: relates to every anchor
        };
    }
    let path = rpl.prefix_id_path();
    let a1 = path[1];
    let a2 = if depth >= 2 {
        path[2]
    } else if rpl.is_fully_specified() {
        a1 // the depth-1 region itself
    } else {
        RplId::ROOT // wildcard from depth 2 down: anything under `a1`
    };
    Some((a1, a2))
}

/// The hashed Bloom bit for an arena id (Fibonacci multiplicative hash on
/// the raw index; top 6 bits select the bit).
fn bloom_bit(id: RplId) -> u64 {
    1u64 << (id.index().wrapping_mul(0x9E37_79B9) >> 26)
}

/// Inserts a pair into a small sorted deduped list.
fn insort(v: &mut InlineList<(RplId, RplId)>, pair: (RplId, RplId)) {
    if let Err(pos) = v.binary_search(&pair) {
        v.insert(pos, pair);
    }
}

/// One past the end of the run of pairs sharing `v[start]`'s depth-1 id.
fn pair_group_end(v: &[(RplId, RplId)], start: usize) -> usize {
    let a1 = v[start].0;
    let mut end = start + 1;
    while end < v.len() && v[end].0 == a1 {
        end += 1;
    }
    end
}

/// Could a pair of `a` *match* a pair of `b` — equal pairs, or a
/// below-anchor wildcard sentinel on either side of a shared depth-1 group?
/// O(n + m) merge walk over the sorted pair arrays.
fn pairs_intersect(a: &[(RplId, RplId)], b: &[(RplId, RplId)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i = pair_group_end(a, i),
            std::cmp::Ordering::Greater => j = pair_group_end(b, j),
            std::cmp::Ordering::Equal => {
                // Sentinels sort first in a group; either one matches the
                // whole (non-empty) opposing group. Within the `ROOT` group
                // both sides can only hold `(ROOT, ROOT)`, so the sentinel
                // reading is exact there too.
                if a[i].1 == RplId::ROOT || b[j].1 == RplId::ROOT {
                    return true;
                }
                let (ae, be) = (pair_group_end(a, i), pair_group_end(b, j));
                let (mut x, mut y) = (i, j);
                while x < ae && y < be {
                    match a[x].1.cmp(&b[y].1) {
                        std::cmp::Ordering::Less => x += 1,
                        std::cmp::Ordering::Greater => y += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                i = ae;
                j = be;
            }
        }
    }
    false
}

/// Is every pair of `a` *covered* by some pair of `b` — the same pair, or
/// `b` holding the below-anchor wildcard sentinel for that depth-1 group?
/// (A sentinel in `a` needs a sentinel cover.) O(n + m) merge walk.
fn pairs_subset(a: &[(RplId, RplId)], b: &[(RplId, RplId)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        let a1 = a[i].0;
        while j < b.len() && b[j].0 < a1 {
            j = pair_group_end(b, j);
        }
        if j >= b.len() || b[j].0 != a1 {
            return false;
        }
        let (ae, be) = (pair_group_end(a, i), pair_group_end(b, j));
        if b[j].1 != RplId::ROOT {
            if a[i].1 == RplId::ROOT {
                return false; // `a`'s sentinel has no sentinel cover in `b`
            }
            // Column-wise subset over the depth-2 halves of the two groups.
            let mut y = j;
            'outer: for &(_, a2) in &a[i..ae] {
                while y < be {
                    match b[y].1.cmp(&a2) {
                        std::cmp::Ordering::Less => y += 1,
                        std::cmp::Ordering::Equal => {
                            y += 1;
                            continue 'outer;
                        }
                        std::cmp::Ordering::Greater => return false,
                    }
                }
                return false;
            }
        }
        i = ae;
        j = be;
    }
    true
}

impl SetSummary {
    fn add(&mut self, e: &Effect) {
        match anchor_pair(&e.rpl) {
            Some(pair) => {
                let bit = bloom_bit(pair.0);
                self.bloom_all |= bit;
                insort(&mut self.anchors_all, pair);
                if e.is_write() {
                    self.bloom_write |= bit;
                    insort(&mut self.anchors_write, pair);
                }
            }
            None => {
                if e.is_write() {
                    self.universal_write = true;
                } else {
                    self.universal_read = true;
                }
            }
        }
    }

    fn has_writes(&self) -> bool {
        self.universal_write || !self.anchors_write.is_empty()
    }

    /// Could any pair drawn from the two summarised sets interfere?
    /// `false` is definitive (the sets cannot interfere); `true` means the
    /// pairwise loop must decide.
    fn may_interfere(&self, other: &SetSummary) -> bool {
        // A root-level wildcard write overlaps every region of a non-empty
        // set; a root-level wildcard read interferes iff the other side
        // writes anywhere.
        if self.universal_write || other.universal_write {
            return true;
        }
        if (self.universal_read && other.has_writes())
            || (other.universal_read && self.has_writes())
        {
            return true;
        }
        // Otherwise interference needs a write and a matching-anchor partner.
        (self.bloom_write & other.bloom_all != 0
            && pairs_intersect(&self.anchors_write, &other.anchors_all))
            || (other.bloom_write & self.bloom_all != 0
                && pairs_intersect(&other.anchors_write, &self.anchors_all))
    }
}

/// A set of read/write effects — the effect summary attached to a task or
/// method. The empty set is the `pure` effect.
///
/// The set carries a precomputed conflict summary (see the module docs)
/// maintained on `push`/`union`; building a set deduplicates exactly-equal
/// effects (an
/// `Effect` is a small `Copy` value, so duplicates carry no information and
/// would only lengthen the pairwise loops). Equality and hashing consider
/// the effect list only, as a slice: a set hashes exactly as
/// [`EffectSet::effects`] does.
///
/// The effect list and both anchor-pair arrays hold up to two items inline
/// and spill to the heap from the third, so building or cloning a one- or
/// two-effect set allocates nothing.
#[derive(Clone, Default)]
pub struct EffectSet {
    effects: InlineList<Effect>,
    summary: SetSummary,
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

    /// Adds an effect to the set and folds it into the summary. An effect
    /// already present (exact `Copy` equality) is skipped, so building a set
    /// deduplicates and the pairwise loops never scan repeats.
    pub fn push(&mut self, effect: Effect) {
        if self.effects.contains(&effect) {
            return;
        }
        self.summary.add(&effect);
        self.effects.push(effect);
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

    /// The union of any number of effect sets in one pass — the combined
    /// *footprint* of a batch of tasks.
    ///
    /// `Runtime::submit_all` unions the batch's declared sets with this
    /// before admission: the combined summary is built once (anchors and
    /// Bloom folded per effect, duplicates deduplicated) instead of once per
    /// intermediate pair, and the schedulers use it to prefilter which
    /// already-queued tasks the batch could possibly interact with.
    pub fn union_all<'a>(sets: impl IntoIterator<Item = &'a EffectSet>) -> EffectSet {
        let mut union = EffectSet::default();
        for set in sets {
            for &e in set.iter() {
                union.push(e);
            }
        }
        union
    }

    /// The sorted, deduplicated (depth-1, depth-2) anchor pairs of all
    /// effects in the set (see the module docs for the depth-2 encoding;
    /// root-level wildcard effects carry no pair and are reported by
    /// [`EffectSet::has_root_wildcard`] instead).
    pub fn anchors(&self) -> &[(RplId, RplId)] {
        &self.summary.anchors_all
    }

    /// The sorted, deduplicated anchor pairs of the *write* effects only.
    pub fn write_anchors(&self) -> &[(RplId, RplId)] {
        &self.summary.anchors_write
    }

    /// True if some effect's RPL starts with a wildcard (`*…`/`[?]…`). Such
    /// an effect has no anchor and may relate to any region, so every
    /// anchor-based prefilter must treat the set as universal.
    pub fn has_root_wildcard(&self) -> bool {
        self.summary.universal_read || self.summary.universal_write
    }

    /// Summary-only non-interference test: `true` *guarantees* the two sets
    /// cannot interfere (O(set): one Bloom AND plus at most one sorted
    /// anchor merge, no per-pair work); `false` means a pair might
    /// interfere and the pairwise test must decide. Schedulers use this as
    /// their rescan filter.
    pub fn certainly_non_interfering(&self, other: &EffectSet) -> bool {
        self.effects.is_empty()
            || other.effects.is_empty()
            || !self.summary.may_interfere(&other.summary)
    }

    /// Set-level non-interference: every pair of effects drawn from the two
    /// sets is non-interfering.
    ///
    /// Anchor-disjoint sets are rejected by the summary in O(set) without
    /// touching any pair; only sets sharing a top-level region (or
    /// containing root-level wildcards) pay for the pairwise loop.
    pub fn non_interfering(&self, other: &EffectSet) -> bool {
        self.certainly_non_interfering(other)
            || self
                .effects
                .iter()
                .all(|a| other.effects.iter().all(|b| a.non_interfering(b)))
    }

    /// Set-level interference: some pair of effects interferes.
    pub fn interferes(&self, other: &EffectSet) -> bool {
        !self.non_interfering(other)
    }

    /// Set-level inclusion: every effect of `self` is included in some single
    /// effect of `other` (conservative, per §2.2).
    ///
    /// The summary rejects in O(set) when some anchor of `self` has no
    /// possible cover in `other` (a cover must share the covered effect's
    /// anchor or be a root-level wildcard of suitable kind); only then does
    /// the pairwise loop run.
    pub fn included_in(&self, other: &EffectSet) -> bool {
        if self.effects.is_empty() {
            return true;
        }
        let (s, o) = (&self.summary, &other.summary);
        // A root-level wildcard is only coverable by a root-level wildcard
        // (a write one only by a write one).
        if s.universal_write && !o.universal_write {
            return false;
        }
        if s.universal_read && !(o.universal_read || o.universal_write) {
            return false;
        }
        // Each write needs a write cover on its own anchor pair…
        if !o.universal_write && !pairs_subset(&s.anchors_write, &o.anchors_write) {
            return false;
        }
        // …and each effect needs some cover on its own anchor pair.
        if !(o.universal_write || o.universal_read || pairs_subset(&s.anchors_all, &o.anchors_all))
        {
            return false;
        }
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
    fn union_all_builds_the_combined_footprint() {
        let sets = [
            EffectSet::parse("writes A:[1], reads B"),
            EffectSet::parse("writes A:[1], writes C:[2]"),
            EffectSet::pure(),
            EffectSet::parse("reads B, writes D:*"),
        ];
        let combined = EffectSet::union_all(sets.iter());
        // Pairwise unions agree with the one-pass union.
        let expected = sets.iter().fold(EffectSet::pure(), |acc, s| acc.union(s));
        assert_eq!(combined, expected);
        assert_eq!(combined.len(), 4, "duplicates must collapse: {combined}");
        // The exported summary covers every member set's anchor pairs…
        for set in &sets {
            for pair in set.anchors() {
                assert!(combined.anchors().contains(pair));
                assert_ne!(combined.summary.bloom_all & bloom_bit(pair.0), 0);
            }
            assert!(set.included_in(&combined));
        }
        // …and writes show up in the write anchors.
        assert!(!combined.write_anchors().is_empty());
        assert!(!combined.has_root_wildcard());
        assert!(EffectSet::parse("writes *").has_root_wildcard());
        assert!(EffectSet::union_all([]).is_pure());
    }

    #[test]
    fn summary_rejects_anchor_disjoint_sets() {
        let a = EffectSet::parse("writes A:[1], reads A:[2], writes B:X");
        let b = EffectSet::parse("writes C:[1], reads D");
        assert!(a.certainly_non_interfering(&b));
        assert!(a.non_interfering(&b));
        // Shared anchor but read-only on both sides: summary may pass it to
        // the pairwise loop, which must still answer "non-interfering".
        let ra = EffectSet::parse("reads A:[1]");
        let rb = EffectSet::parse("reads A:[2]");
        assert!(ra.non_interfering(&rb));
        // Shared anchor with a write: interference found by the pairwise loop.
        let wa = EffectSet::parse("writes A:[1]");
        assert!(!wa.certainly_non_interfering(&a));
        assert!(wa.interferes(&a));
    }

    #[test]
    fn pair_anchors_reject_siblings_under_a_shared_root() {
        // Everything lives under one top-level region: depth-1 anchoring
        // alone cannot separate these, the depth-2 half must.
        let x = EffectSet::parse("writes Data:X:*, writes Data:X:[1]");
        let y = EffectSet::parse("writes Data:Y:*, reads Data:Y");
        assert!(x.certainly_non_interfering(&y));
        // Tenant scans on distinct tenants — the service-scenario shape.
        let t1 = EffectSet::parse("writes Tenant:[1]:*");
        let t2 = EffectSet::parse("writes Tenant:[2]:*");
        assert!(t1.certainly_non_interfering(&t2));
        assert!(!t1.certainly_non_interfering(&t1.clone()));
        // The depth-1 region itself is its own anchor and relates to no
        // deeper sibling region…
        let data = EffectSet::parse("writes Data");
        assert!(data.certainly_non_interfering(&x));
        // …while a depth-2 wildcard under the same anchor is a sentinel that
        // must fall through to the pairwise loop against both.
        let scan = EffectSet::parse("writes Data:*");
        assert!(!scan.certainly_non_interfering(&x));
        assert!(scan.interferes(&x));
        assert!(!scan.certainly_non_interfering(&data));
        // Subset side: a concrete pair is covered by its sentinel, a
        // sentinel is not covered by a concrete pair.
        assert!(x.included_in(&EffectSet::parse("writes Data:X:*, writes Data:*")));
        assert!(!EffectSet::parse("writes Data:*").included_in(&x));
        assert!(!x.included_in(&y));
    }

    #[test]
    fn summary_handles_root_level_wildcards_and_root() {
        let star = EffectSet::parse("writes *");
        let reads_star = EffectSet::parse("reads *");
        let reads_only = EffectSet::parse("reads A, reads B");
        let writes_c = EffectSet::parse("writes C");
        let root = EffectSet::parse("writes Root");
        assert!(!star.certainly_non_interfering(&reads_only));
        assert!(star.interferes(&reads_only));
        assert!(reads_star.non_interfering(&reads_only));
        assert!(reads_star.interferes(&writes_c));
        // The concrete Root region anchors at ROOT and only meets itself.
        assert!(root.non_interfering(&writes_c));
        assert!(root.interferes(&root));
        assert!(!star.certainly_non_interfering(&root));
    }

    #[test]
    fn summary_inclusion_rejections_are_consistent() {
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
        // A write needs a write cover even on a matching anchor.
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

            /// The summary is only ever a sound rejector: set-level
            /// `non_interfering` and `included_in` must agree exactly with
            /// the pairwise loops (the pair-anchor prechecks may never
            /// reject a real cover or hide a real conflict).
            #[test]
            fn summary_agrees_with_pairwise(
                a in proptest::collection::vec(arb_effect(), 0..4),
                b in proptest::collection::vec(arb_effect(), 0..4),
            ) {
                let (a, b) = (EffectSet::from_effects(a), EffectSet::from_effects(b));
                let pairwise_ni = a
                    .effects()
                    .iter()
                    .all(|x| b.effects().iter().all(|y| x.non_interfering(y)));
                prop_assert_eq!(a.non_interfering(&b), pairwise_ni);
                let pairwise_inc = a
                    .effects()
                    .iter()
                    .all(|x| b.effects().iter().any(|y| x.included_in(y)));
                prop_assert_eq!(a.included_in(&b), pairwise_inc);
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
