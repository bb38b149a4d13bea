//! Region Path Lists (RPLs).
//!
//! An RPL names a (not necessarily contiguous) set of memory locations. It is
//! a list of [`RplElement`]s rooted at the implicit region `Root`. Elements
//! are simple names, run-time array indices, or the wildcards `*` (any
//! sequence of zero or more elements) and `[?]` (any single index).
//!
//! The two relations used throughout TWE are *disjointness* (two RPLs denote
//! non-overlapping sets of regions) and *inclusion* (every region denoted by
//! one RPL is also denoted by the other). Both follow the definitions in
//! §2.3.1 of the paper; where wildcards make an exact answer expensive the
//! implementation is conservative in the safe direction (it may report
//! "overlapping" for RPLs that are in fact disjoint, never the reverse).
//!
//! # Representation
//!
//! An [`Rpl`] is two small interned ids (8 bytes, `Copy`): the
//! [`arena::RplId`] of its maximal wildcard-free prefix and the id of its
//! (usually empty) wildcard suffix — the elements from the first wildcard
//! onwards, interned in a separate process-global table. The split is
//! canonical, so `==`/`hash` are O(1) integer operations, and the hot
//! conflict-test case — two fully-specified RPLs — is a single id comparison
//! with no locking ([`Rpl::disjoint`]). Wildcard cases fall back to the
//! O(1) ancestor test for a single trailing `*`, and otherwise to the
//! element-wise procedure of §2.3.1 (kept verbatim in [`oracle`], which also
//! serves as the differential-testing baseline). The relations are pure
//! functions of the two RPLs' elements — no state is keyed by id — so a
//! recycled `__DynRegion` id ([`crate::reclaim`]) can never be served another
//! era's answer.

use crate::arena::{self, RplId};
use crate::idhash::IdHashMap;
use crate::intern::{intern, Symbol};
use crate::leak::LeakInterner;
use parking_lot::RwLock;
use std::fmt;
use std::sync::OnceLock;

/// One element of a Region Path List.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RplElement {
    /// A declared region name (e.g. `Top`), interned.
    Name(Symbol),
    /// A concrete run-time array index, e.g. `[3]`.
    Index(i64),
    /// The `*` wildcard: any sequence of zero or more elements.
    Star,
    /// The `[?]` wildcard: any single index element.
    AnyIndex,
}

impl RplElement {
    /// Convenience constructor for a named element.
    pub fn name(s: &str) -> Self {
        RplElement::Name(intern(s))
    }

    /// Convenience constructor for an index element.
    pub fn index(i: i64) -> Self {
        RplElement::Index(i)
    }

    /// Is this element a wildcard (`*` or `[?]`)?
    pub fn is_wildcard(&self) -> bool {
        matches!(self, RplElement::Star | RplElement::AnyIndex)
    }

    /// Could this element and `other` denote the same concrete element?
    ///
    /// `Star` is handled by the callers (it matches *sequences*, not single
    /// elements), so it is not expected here; if it appears we answer
    /// conservatively (`true`).
    fn may_equal(&self, other: &RplElement) -> bool {
        use RplElement::*;
        match (self, other) {
            (Star, _) | (_, Star) => true,
            (Name(a), Name(b)) => a == b,
            (Index(a), Index(b)) => a == b,
            (AnyIndex, Index(_)) | (Index(_), AnyIndex) | (AnyIndex, AnyIndex) => true,
            (Name(_), Index(_)) | (Index(_), Name(_)) => false,
            (Name(_), AnyIndex) | (AnyIndex, Name(_)) => false,
        }
    }
}

impl fmt::Debug for RplElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RplElement::Name(s) => write!(f, "{s}"),
            RplElement::Index(i) => write!(f, "[{i}]"),
            RplElement::Star => write!(f, "*"),
            RplElement::AnyIndex => write!(f, "[?]"),
        }
    }
}

impl fmt::Display for RplElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

// ---------------------------------------------------------------------------
// Wildcard-suffix interning.
// ---------------------------------------------------------------------------

/// Interned id of a wildcard suffix (the elements of an RPL from its first
/// wildcard onwards). Id 0 is the empty suffix, so an RPL is fully specified
/// iff its suffix id is 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
struct SuffixId(u32);

const EMPTY_SUFFIX: SuffixId = SuffixId(0);
/// Pre-seeded id of the suffix `[*]` (see [`star_suffix`]).
const STAR_SUFFIX: SuffixId = SuffixId(1);

static SUFFIXES: OnceLock<LeakInterner<[RplElement]>> = OnceLock::new();

fn suffixes() -> &'static LeakInterner<[RplElement]> {
    SUFFIXES.get_or_init(|| {
        let interner: LeakInterner<[RplElement]> = LeakInterner::with_seed(&[]);
        // Pre-intern the dominant wildcard shape at a fixed id so its shape
        // test compares against a compile-time constant (no lazy-init load
        // on the conflict hot path).
        let star = interner.intern([RplElement::Star].as_slice(), |els| {
            Box::leak(els.to_vec().into_boxed_slice())
        });
        assert_eq!(star, STAR_SUFFIX.0, "suffix seeding order changed");
        interner
    })
}

fn intern_suffix(elements: &[RplElement]) -> SuffixId {
    if elements.is_empty() {
        return EMPTY_SUFFIX;
    }
    SuffixId(suffixes().intern(elements, |els| Box::leak(els.to_vec().into_boxed_slice())))
}

fn suffix_slice(id: SuffixId) -> &'static [RplElement] {
    suffixes().resolve(id.0)
}

/// The interned id of the suffix `[*]` — the trailing-star shape (`P:*`)
/// that dominates wildcard use in scheduler workloads. Pre-seeded at a fixed
/// id so shape tests are compares against a constant.
fn star_suffix() -> SuffixId {
    STAR_SUFFIX
}

// ---------------------------------------------------------------------------
// Full-path materialisation.
// ---------------------------------------------------------------------------

type FullPathTable = OnceLock<RwLock<IdHashMap<(RplId, u32), &'static [RplElement]>>>;

/// The leaked full element path of every wildcard-bearing RPL resolved so
/// far, keyed by (prefix id, suffix id). See [`Rpl::elements`].
static FULL_PATHS: FullPathTable = OnceLock::new();

/// A Region Path List: `Root : e1 : e2 : ... : en`.
///
/// The leading `Root` is implicit and not stored. The empty list therefore
/// denotes the region `Root` itself.
///
/// `Rpl` is a `Copy` pair of interned ids (maximal wildcard-free prefix +
/// wildcard suffix); see the module docs for the invariants. Equality and
/// hashing compare the ids and are O(1); the derived `Ord` is a stable
/// process-local order over the ids (interning order), **not** a
/// lexicographic order over element paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rpl {
    prefix: RplId,
    suffix: SuffixId,
}

impl Default for Rpl {
    fn default() -> Self {
        Rpl::root()
    }
}

impl Rpl {
    /// The root region `Root`.
    pub fn root() -> Self {
        Rpl {
            prefix: RplId::ROOT,
            suffix: EMPTY_SUFFIX,
        }
    }

    /// Builds an RPL from a list of elements (excluding the implicit `Root`).
    pub fn new(elements: impl Into<Vec<RplElement>>) -> Self {
        Self::from_elements(&elements.into())
    }

    /// Builds the fully-specified RPL naming the region already interned as
    /// `prefix` (O(1), no interning work). This is how dynamic reference
    /// regions ([`crate::arena::dyn_region_root`]) become ordinary RPLs.
    pub fn from_prefix_id(prefix: RplId) -> Self {
        Rpl {
            prefix,
            suffix: EMPTY_SUFFIX,
        }
    }

    /// Builds an RPL from an element slice, splitting it canonically into
    /// its maximal wildcard-free prefix and its wildcard suffix.
    pub fn from_elements(elements: &[RplElement]) -> Self {
        let split = elements
            .iter()
            .position(RplElement::is_wildcard)
            .unwrap_or(elements.len());
        Rpl {
            prefix: arena::intern_path(&elements[..split]),
            suffix: intern_suffix(&elements[split..]),
        }
    }

    /// Builds an RPL from simple region names: `from_names(["A", "B"])` is `Root:A:B`.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Rpl {
            prefix: names.into_iter().fold(RplId::ROOT, |id, n| {
                arena::intern_child(id, RplElement::name(n.as_ref()))
            }),
            suffix: EMPTY_SUFFIX,
        }
    }

    /// Parses an RPL from its textual form, e.g. `"Root:A:[3]:*"`.
    ///
    /// A leading `Root` element is accepted and dropped. `*` parses as the
    /// star wildcard, `[?]` as the any-index wildcard, `[n]` as a concrete
    /// index, and anything else as a region name.
    pub fn parse(text: &str) -> Self {
        let mut elements = Vec::new();
        for (i, part) in text.split(':').enumerate() {
            let part = part.trim();
            if part.is_empty() || (i == 0 && part == "Root") {
                continue;
            }
            let elem = if part == "*" {
                RplElement::Star
            } else if part == "[?]" {
                RplElement::AnyIndex
            } else if let Some(inner) = part.strip_prefix('[').and_then(|p| p.strip_suffix(']')) {
                match inner.parse::<i64>() {
                    Ok(i) => RplElement::Index(i),
                    Err(_) => RplElement::name(part),
                }
            } else {
                RplElement::name(part)
            };
            elements.push(elem);
        }
        Self::from_elements(&elements)
    }

    /// The elements of this RPL (excluding the implicit `Root`).
    ///
    /// The returned slice is interned and shared; resolving it allocates at
    /// most once per distinct wildcard-bearing RPL for the process lifetime.
    pub fn elements(&self) -> &'static [RplElement] {
        if self.suffix == EMPTY_SUFFIX {
            return arena::path(self.prefix);
        }
        let full = FULL_PATHS.get_or_init(|| RwLock::new(IdHashMap::default()));
        let key = (self.prefix, self.suffix.0);
        if let Some(&slice) = full.read().get(&key) {
            return slice;
        }
        // Built and leaked under the write lock, and only while the entry is
        // still absent: the loser of a first-resolve race leaks nothing.
        full.write().entry(key).or_insert_with(|| {
            let mut v = arena::path(self.prefix).to_vec();
            v.extend_from_slice(suffix_slice(self.suffix));
            Box::leak(v.into_boxed_slice())
        })
    }

    /// Number of elements (excluding `Root`).
    pub fn len(&self) -> usize {
        arena::depth(self.prefix) + suffix_slice(self.suffix).len()
    }

    /// Is this the root region?
    pub fn is_empty(&self) -> bool {
        self.prefix == RplId::ROOT && self.suffix == EMPTY_SUFFIX
    }

    /// Returns a new RPL with `elem` appended (a child region).
    pub fn child(&self, elem: RplElement) -> Rpl {
        if self.suffix == EMPTY_SUFFIX && !elem.is_wildcard() {
            return Rpl {
                prefix: arena::intern_child(self.prefix, elem),
                suffix: EMPTY_SUFFIX,
            };
        }
        let mut v = suffix_slice(self.suffix).to_vec();
        v.push(elem);
        Rpl {
            prefix: self.prefix,
            suffix: intern_suffix(&v),
        }
    }

    /// Returns a new RPL with a named child appended.
    pub fn child_name(&self, name: &str) -> Rpl {
        self.child(RplElement::name(name))
    }

    /// Returns a new RPL with an index child appended.
    pub fn child_index(&self, index: i64) -> Rpl {
        self.child(RplElement::Index(index))
    }

    /// Returns a new RPL with the star wildcard appended (`self:*`).
    pub fn under_star(&self) -> Rpl {
        self.child(RplElement::Star)
    }

    /// True if the RPL contains no wildcard elements.
    pub fn is_fully_specified(&self) -> bool {
        self.suffix == EMPTY_SUFFIX
    }

    /// True if the RPL contains at least one wildcard element.
    pub fn has_wildcard(&self) -> bool {
        !self.is_fully_specified()
    }

    /// The maximal wildcard-free prefix of this RPL.
    pub fn max_wildcard_free_prefix(&self) -> &'static [RplElement] {
        arena::path(self.prefix)
    }

    /// The arena id of the maximal wildcard-free prefix.
    pub fn prefix_id(&self) -> RplId {
        self.prefix
    }

    /// Depth of the maximal wildcard-free prefix (its element count).
    pub fn prefix_depth(&self) -> usize {
        arena::depth(self.prefix)
    }

    /// The ancestor ids of the maximal wildcard-free prefix, root first:
    /// `prefix_id_path()[d]` is the prefix truncated to depth `d`, and the
    /// last entry is [`Rpl::prefix_id`]. Shared static slice; O(1).
    pub fn prefix_id_path(&self) -> &'static [RplId] {
        arena::id_path(self.prefix)
    }

    /// The wildcard suffix: the elements from the first wildcard onwards
    /// (empty for fully-specified RPLs). `wildcard_suffix()[0]`, when
    /// present, is always a wildcard.
    pub fn wildcard_suffix(&self) -> &'static [RplElement] {
        suffix_slice(self.suffix)
    }

    /// Set-wise inclusion: does `self` (the more general RPL) include every
    /// fully-specified RPL denoted by `other`?
    ///
    /// Examples: `A:*` includes `A`, `A:B`, and `A:*:C`; `A:[?]` includes
    /// `A:[3]` but not `A:B`.
    ///
    /// Fully-specified `self` reduces to an O(1) id equality, a single
    /// trailing `*` to an O(1) ancestor test; any other wildcard shape
    /// (`P:[?]` included) is answered by [`oracle::includes`].
    pub fn includes(&self, other: &Rpl) -> bool {
        if self.is_fully_specified() {
            // A fully-specified RPL denotes exactly one region, and no
            // wildcard-bearing RPL denotes a single region, so inclusion
            // degenerates to equality.
            return self == other;
        }
        if self.suffix == star_suffix() {
            // `P:*` denotes P and everything below it, and covers exactly
            // the RPLs whose elements start with P literally — i.e. whose
            // wildcard-free prefix descends from (or is) P. O(1).
            return arena::is_ancestor_or_self(self.prefix, other.prefix);
        }
        if self == other {
            return true;
        }
        oracle::includes(self.elements(), other.elements())
    }

    /// Set-wise inclusion in the other direction: `self ⊆ other`.
    pub fn included_in(&self, other: &Rpl) -> bool {
        other.includes(self)
    }

    /// Are the two RPLs disjoint (no fully-specified RPL denoted by both)?
    ///
    /// This follows the practical procedure of §2.3.1 (see
    /// [`oracle::overlaps`]). The result is conservative: `false` ("maybe
    /// overlapping") may be returned for RPLs that are in fact disjoint, but
    /// `true` is only returned when they truly cannot overlap.
    ///
    /// The hot case — both RPLs fully specified, which is what fine-grained
    /// task workloads produce — is a single id comparison with no locking;
    /// a trailing `*` against a fully-specified or trailing-`*` RPL is an
    /// O(1) arena lookup, and every other wildcard shape (`P:[?]` included)
    /// reaches the element-wise scan.
    pub fn disjoint(&self, other: &Rpl) -> bool {
        !self.overlaps(other)
    }

    /// Convenience: `!self.disjoint(other)`.
    pub fn overlaps(&self, other: &Rpl) -> bool {
        if self.suffix == EMPTY_SUFFIX && other.suffix == EMPTY_SUFFIX {
            // Two fully-specified RPLs overlap iff they are the same region.
            return self.prefix == other.prefix;
        }
        // Trailing-star fast paths: `P:*` overlaps a fully-specified RPL iff
        // that RPL lies at or below P, and overlaps `Q:*` iff the prefixes
        // are ancestor-related. Both are O(1) id-path lookups and cover the
        // dominant wildcard shape of scheduler workloads.
        let star = star_suffix();
        if self.suffix == star && other.suffix == EMPTY_SUFFIX {
            return arena::is_ancestor_or_self(self.prefix, other.prefix);
        }
        if other.suffix == star && self.suffix == EMPTY_SUFFIX {
            return arena::is_ancestor_or_self(other.prefix, self.prefix);
        }
        if self.suffix == star && other.suffix == star {
            return arena::is_ancestor_or_self(self.prefix, other.prefix)
                || arena::is_ancestor_or_self(other.prefix, self.prefix);
        }
        oracle::overlaps(self.elements(), other.elements())
    }

    /// Does `prefix` (a wildcard-free element sequence) prefix this RPL?
    pub fn starts_with(&self, prefix: &[RplElement]) -> bool {
        let elements = self.elements();
        elements.len() >= prefix.len() && &elements[..prefix.len()] == prefix
    }

    /// Id-based prefix test: is the region named by `prefix` an ancestor of
    /// (or equal to) this RPL's maximal wildcard-free prefix? O(1).
    ///
    /// For wildcard-free `prefix` paths not longer than the wildcard-free
    /// part of `self` this agrees with [`Rpl::starts_with`]; a `prefix`
    /// reaching into the wildcard suffix can never literally match (the
    /// suffix starts with a wildcard), so `false` is returned there too.
    pub fn starts_with_id(&self, prefix: RplId) -> bool {
        arena::is_ancestor_or_self(prefix, self.prefix)
    }
}

impl fmt::Display for Rpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Root")?;
        for e in self.elements() {
            write!(f, ":{e}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The element-wise reference implementation of the RPL relations.
///
/// This is the direct transcription of §2.3.1 that the interned
/// representation replaced on the hot path. It is kept (a) as the fallback
/// the id-based operations use for wildcard cases, and (b) as the oracle the
/// differential proptests compare the id-based fast paths against.
pub mod oracle {
    use super::RplElement;

    /// Does the set denoted by `general` contain every RPL denoted by
    /// `specific`?
    pub fn includes(general: &[RplElement], specific: &[RplElement]) -> bool {
        use RplElement::*;
        match (general.first(), specific.first()) {
            (None, None) => true,
            // `specific` is longer: the only way `general` (now the single
            // empty suffix) can cover it is if the rest of `specific` is
            // all-star and… even then a star denotes non-empty sequences too,
            // so it cannot be covered by the empty suffix. Not included.
            (None, Some(_)) => false,
            (Some(Star), _) => {
                // The star covers zero elements of the remaining `specific`…
                includes(&general[1..], specific)
                    // …or it covers the first remaining element (whatever it is).
                    || (!specific.is_empty() && includes(general, &specific[1..]))
            }
            (Some(_), None) => false,
            (Some(_), Some(Star)) => {
                // `specific`'s star denotes arbitrarily long sequences; a
                // non-star head in `general` cannot cover all of them.
                false
            }
            (Some(AnyIndex), Some(Index(_))) | (Some(AnyIndex), Some(AnyIndex)) => {
                includes(&general[1..], &specific[1..])
            }
            (Some(AnyIndex), Some(Name(_))) => false,
            (Some(a), Some(b)) => a == b && includes(&general[1..], &specific[1..]),
        }
    }

    /// Could `a` and `b` denote a common fully-specified RPL?
    pub fn overlaps(a: &[RplElement], b: &[RplElement]) -> bool {
        use RplElement::*;
        // Left scan up to the first star in either RPL.
        let mut i = 0;
        loop {
            match (a.get(i), b.get(i)) {
                (None, None) => return true, // identical fully-specified RPLs
                (None, Some(_)) | (Some(_), None) => {
                    // One RPL ended. The shorter one denotes exactly the
                    // consumed prefix; the longer one denotes strictly longer
                    // RPLs unless all its remaining elements are stars (which
                    // can denote the empty sequence).
                    let rest = if a.get(i).is_none() { &b[i..] } else { &a[i..] };
                    return rest.iter().all(|e| matches!(e, Star));
                }
                (Some(Star), _) | (_, Some(Star)) => break,
                (Some(x), Some(y)) => {
                    if !x.may_equal(y) {
                        return false;
                    }
                    i += 1;
                }
            }
        }
        // Right scan, stopping at the left-scan boundary or at a star.
        let (mut ai, mut bi) = (a.len(), b.len());
        while ai > i && bi > i {
            let (x, y) = (&a[ai - 1], &b[bi - 1]);
            if matches!(x, Star) || matches!(y, Star) {
                return true; // cannot conclude disjointness; be conservative
            }
            if !x.may_equal(y) {
                return false;
            }
            ai -= 1;
            bi -= 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpl(s: &str) -> Rpl {
        Rpl::parse(s)
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let r = rpl("Root:A:[3]:*");
        assert_eq!(format!("{r}"), "Root:A:[3]:*");
        let r2 = rpl("A:[3]:*");
        assert_eq!(r, r2);
        assert_eq!(format!("{}", Rpl::root()), "Root");
        assert_eq!(rpl("Root"), Rpl::root());
    }

    #[test]
    fn parse_any_index() {
        let r = rpl("A:[?]");
        assert_eq!(r.elements()[1], RplElement::AnyIndex);
        assert!(r.has_wildcard());
    }

    #[test]
    fn builders_match_parse() {
        let built = Rpl::root().child_name("A").child_index(7).under_star();
        assert_eq!(built, rpl("A:[7]:*"));
        assert_eq!(Rpl::from_names(["A", "B"]), rpl("A:B"));
    }

    #[test]
    fn default_is_root() {
        assert_eq!(Rpl::default(), Rpl::root());
        assert!(Rpl::default().is_empty());
    }

    #[test]
    fn interned_representation_is_canonical() {
        let a = rpl("A:B:*:C");
        let b = Rpl::root()
            .child_name("A")
            .child_name("B")
            .under_star()
            .child_name("C");
        assert_eq!(a, b);
        assert_eq!(a.prefix_id(), b.prefix_id());
        assert_eq!(a.wildcard_suffix(), b.wildcard_suffix());
        assert_eq!(a.prefix_id(), rpl("A:B").prefix_id());
        assert_eq!(a.prefix_depth(), 2);
        assert!(a.wildcard_suffix()[0].is_wildcard());
    }

    #[test]
    fn prefix_id_path_truncations() {
        let r = rpl("A:B:C:*");
        let ids = r.prefix_id_path();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], RplId::ROOT);
        assert_eq!(ids[2], rpl("A:B").prefix_id());
        assert_eq!(ids[3], r.prefix_id());
        assert!(r.starts_with_id(rpl("A:B").prefix_id()));
        assert!(!r.starts_with_id(rpl("A:X").prefix_id()));
        assert!(!rpl("A").starts_with_id(rpl("A:B").prefix_id()));
    }

    #[test]
    fn fully_specified_and_prefix() {
        assert!(rpl("A:B:[3]").is_fully_specified());
        assert!(!rpl("A:*").is_fully_specified());
        assert_eq!(
            rpl("A:B:*:C").max_wildcard_free_prefix(),
            rpl("A:B").elements()
        );
        assert_eq!(rpl("A:[?]").max_wildcard_free_prefix(), rpl("A").elements());
        assert_eq!(rpl("A:B").max_wildcard_free_prefix(), rpl("A:B").elements());
    }

    // Disjointness examples straight from §2.3.1 of the paper.
    #[test]
    fn paper_disjointness_examples() {
        // Disjoint pairs
        assert!(rpl("A").disjoint(&rpl("A:B")));
        assert!(rpl("A:[1]").disjoint(&rpl("A:B")));
        assert!(rpl("A:*:X").disjoint(&rpl("A:B")));
        // Non-disjoint pairs
        assert!(!rpl("A:*").disjoint(&rpl("A")));
        assert!(!rpl("A:*").disjoint(&rpl("A:B:C")));
        assert!(!rpl("A:*").disjoint(&rpl("A:[1]")));
    }

    #[test]
    fn fully_specified_rpls_disjoint_unless_identical() {
        assert!(!rpl("A:B").disjoint(&rpl("A:B")));
        assert!(rpl("A:B").disjoint(&rpl("A:C")));
        assert!(rpl("A:[1]").disjoint(&rpl("A:[2]")));
        assert!(!rpl("A:[1]").disjoint(&rpl("A:[1]")));
        assert!(rpl("A").disjoint(&rpl("B")));
        assert!(!Rpl::root().disjoint(&Rpl::root()));
        assert!(Rpl::root().disjoint(&rpl("A")));
    }

    #[test]
    fn any_index_overlaps_indices_but_not_names() {
        assert!(!rpl("A:[?]").disjoint(&rpl("A:[5]")));
        assert!(rpl("A:[?]").disjoint(&rpl("A:B")));
        assert!(!rpl("A:[?]").disjoint(&rpl("A:[?]")));
    }

    #[test]
    fn any_index_relations() {
        // vs fully-specified RPLs: only index children of P overlap.
        assert!(!rpl("A:[?]").disjoint(&rpl("A:[0]")));
        assert!(rpl("A:[?]").disjoint(&rpl("A")));
        assert!(rpl("A:[?]").disjoint(&rpl("A:[0]:[1]")));
        assert!(rpl("[?]").disjoint(&Rpl::root()));
        assert!(!rpl("[?]").disjoint(&rpl("[9]")));
        // vs `Q:[?]`: overlap iff same parent.
        assert!(rpl("A:[?]").disjoint(&rpl("B:[?]")));
        assert!(rpl("A:[?]").disjoint(&rpl("A:[1]:[?]")));
        // vs `Q:*`: Q at/above P, or Q itself an index child of P.
        assert!(!rpl("A:[?]").disjoint(&rpl("A:*")));
        assert!(!rpl("A:[?]").disjoint(&rpl("*")));
        assert!(!rpl("A:[?]").disjoint(&rpl("A:[3]:*")));
        assert!(rpl("A:[?]").disjoint(&rpl("A:B:*")));
        assert!(rpl("A:B:*").disjoint(&rpl("A:[?]")));
        // `P:[?]` inclusion: index children of P, and itself.
        assert!(rpl("A:[7]").included_in(&rpl("A:[?]")));
        assert!(rpl("A:[?]").included_in(&rpl("A:[?]")));
        assert!(!rpl("A").included_in(&rpl("A:[?]")));
        assert!(!rpl("A:[1]:[2]").included_in(&rpl("A:[?]")));
        assert!(!rpl("A:*").included_in(&rpl("A:[?]")));
        assert!(!rpl("A:B").included_in(&rpl("A:[?]")));
    }

    #[test]
    fn from_prefix_id_roundtrips() {
        let r = rpl("Pfx:X:[3]");
        assert_eq!(Rpl::from_prefix_id(r.prefix_id()), r);
        assert_eq!(Rpl::from_prefix_id(RplId::ROOT), Rpl::root());
        assert!(Rpl::from_prefix_id(r.prefix_id()).is_fully_specified());
    }

    #[test]
    fn star_overlaps_descendants_only() {
        assert!(!rpl("A:*").disjoint(&rpl("A:B:C:D")));
        assert!(rpl("A:*").disjoint(&rpl("B")));
        assert!(rpl("A:*").disjoint(&rpl("B:A")));
        // Root:* overlaps everything.
        assert!(!rpl("*").disjoint(&rpl("A:B")));
        assert!(!rpl("*").disjoint(&Rpl::root()));
    }

    #[test]
    fn right_scan_distinguishes_suffixes() {
        assert!(rpl("A:*:X").disjoint(&rpl("A:Y")));
        assert!(!rpl("A:*:X").disjoint(&rpl("A:B:X")));
        assert!(!rpl("A:*:X").disjoint(&rpl("A:X")));
        assert!(rpl("A:*:[1]").disjoint(&rpl("A:B:[2]")));
        assert!(!rpl("A:*:[1]").disjoint(&rpl("A:B:[1]")));
    }

    #[test]
    fn repeated_wildcard_relations_match_oracle() {
        // Interior-wildcard shapes reach the element-wise fallback; repeat
        // queries, in either argument order, must keep giving its answer.
        let pairs = [
            ("Rep:*:X", "Rep:Y"),
            ("Rep:*:X", "Rep:Y:X"),
            ("Rep:Y", "Rep:*"),
            ("Rep:[?]:X", "Rep:[1]:X"),
            ("Rep:*:X", "Rep:[?]:X"),
        ];
        for _ in 0..3 {
            for (a, b) in pairs {
                let (a, b) = (rpl(a), rpl(b));
                let overlap = oracle::overlaps(a.elements(), b.elements());
                assert_eq!(a.overlaps(&b), overlap, "{a} vs {b}");
                assert_eq!(b.overlaps(&a), overlap, "{b} vs {a}");
                assert_eq!(
                    a.includes(&b),
                    oracle::includes(a.elements(), b.elements()),
                    "{a} ⊇ {b}"
                );
                assert_eq!(
                    b.includes(&a),
                    oracle::includes(b.elements(), a.elements()),
                    "{b} ⊇ {a}"
                );
            }
        }
    }

    #[test]
    fn racing_first_resolves_share_one_full_path() {
        // Eight threads first-resolve the same fresh wildcard RPLs at once:
        // each RPL must resolve to one canonical slice everywhere (and the
        // losers of the race build — and leak — nothing of their own).
        let rpls: Vec<Rpl> = (0..64)
            .map(|i| rpl(&format!("ElementsRace:*:[{i}]")))
            .collect();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (rpls, barrier) = (rpls.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    rpls.iter().map(Rpl::elements).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<&'static [RplElement]>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            for (mine, first) in r.iter().zip(&results[0]) {
                assert!(std::ptr::eq(*mine, *first), "one slice per RPL");
            }
        }
        for (r, slice) in rpls.iter().zip(&results[0]) {
            assert_eq!(slice.len(), 3);
            assert_eq!(r.elements(), *slice);
        }
    }

    #[test]
    fn inclusion_basics() {
        assert!(rpl("A:B").included_in(&rpl("A:*")));
        assert!(rpl("A").included_in(&rpl("A:*")));
        assert!(rpl("A:B:C").included_in(&rpl("A:*")));
        assert!(!rpl("B").included_in(&rpl("A:*")));
        assert!(rpl("A:[3]").included_in(&rpl("A:[?]")));
        assert!(!rpl("A:B").included_in(&rpl("A:[?]")));
        assert!(rpl("A:B").included_in(&rpl("A:B")));
        assert!(!rpl("A:*").included_in(&rpl("A:B")));
        // * under a prefix is included in the bare * under Root
        assert!(rpl("A:*").included_in(&rpl("*")));
        assert!(rpl("A:*:C").included_in(&rpl("A:*")));
    }

    #[test]
    fn inclusion_is_reflexive_on_wildcards() {
        assert!(rpl("A:*").included_in(&rpl("A:*")));
        assert!(rpl("A:[?]").included_in(&rpl("A:[?]")));
        assert!(rpl("A:[?]").included_in(&rpl("A:*")));
    }

    #[test]
    fn inclusion_implies_overlap() {
        let cases = [
            ("A:B", "A:*"),
            ("A", "A"),
            ("A:[1]", "A:[?]"),
            ("A:*:C", "A:*"),
        ];
        for (small, big) in cases {
            assert!(rpl(small).included_in(&rpl(big)), "{small} ⊆ {big}");
            assert!(!rpl(small).disjoint(&rpl(big)), "{small} overlaps {big}");
        }
    }

    #[test]
    fn starts_with_prefix() {
        assert!(rpl("A:B:C").starts_with(rpl("A:B").elements()));
        assert!(rpl("A:B").starts_with(rpl("A:B").elements()));
        assert!(!rpl("A:B").starts_with(rpl("A:B:C").elements()));
        assert!(rpl("A:B").starts_with(&[]));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_element() -> impl Strategy<Value = RplElement> {
            prop_oneof![
                (0..4u8).prop_map(|i| RplElement::name(["A", "B", "C", "D"][i as usize])),
                (0..4i64).prop_map(RplElement::Index),
                Just(RplElement::Star),
                Just(RplElement::AnyIndex),
            ]
        }

        fn arb_rpl() -> impl Strategy<Value = Rpl> {
            proptest::collection::vec(arb_element(), 0..5).prop_map(Rpl::new)
        }

        fn arb_concrete_rpl() -> impl Strategy<Value = Rpl> {
            proptest::collection::vec(
                prop_oneof![
                    (0..4u8).prop_map(|i| RplElement::name(["A", "B", "C", "D"][i as usize])),
                    (0..4i64).prop_map(RplElement::Index),
                ],
                0..5,
            )
            .prop_map(Rpl::new)
        }

        proptest! {
            /// Disjointness is symmetric.
            #[test]
            fn disjoint_symmetric(a in arb_rpl(), b in arb_rpl()) {
                prop_assert_eq!(a.disjoint(&b), b.disjoint(&a));
            }

            /// An RPL always overlaps itself.
            #[test]
            fn overlaps_itself(a in arb_rpl()) {
                prop_assert!(!a.disjoint(&a));
            }

            /// Inclusion is reflexive.
            #[test]
            fn inclusion_reflexive(a in arb_rpl()) {
                prop_assert!(a.included_in(&a));
            }

            /// If a ⊆ b then a and b overlap (for non-degenerate a).
            #[test]
            fn inclusion_implies_overlap(a in arb_rpl(), b in arb_rpl()) {
                if a.included_in(&b) {
                    prop_assert!(!a.disjoint(&b));
                }
            }

            /// Fully-specified RPLs are disjoint iff they differ.
            #[test]
            fn concrete_disjoint_iff_unequal(a in arb_concrete_rpl(), b in arb_concrete_rpl()) {
                prop_assert_eq!(a.disjoint(&b), a != b);
            }

            /// A concrete RPL included in `g` must overlap anything `g` overlaps…
            /// (soundness of inclusion w.r.t. interference, spot-checked on concretes).
            #[test]
            fn inclusion_monotone_wrt_overlap(
                a in arb_concrete_rpl(), g in arb_rpl(), c in arb_concrete_rpl()
            ) {
                if a.included_in(&g) && !a.disjoint(&c) {
                    prop_assert!(!g.disjoint(&c));
                }
            }

            /// Every RPL is included in Root:* (⊤).
            #[test]
            fn star_is_top(a in arb_rpl()) {
                prop_assert!(a.included_in(&Rpl::root().under_star()));
            }

            /// Transitivity of inclusion on sampled triples.
            #[test]
            fn inclusion_transitive(a in arb_concrete_rpl(), b in arb_rpl(), c in arb_rpl()) {
                if a.included_in(&b) && b.included_in(&c) {
                    prop_assert!(a.included_in(&c));
                }
            }

            /// Parse/display round-trip.
            #[test]
            fn parse_display_roundtrip(a in arb_rpl()) {
                let text = format!("{a}");
                prop_assert_eq!(Rpl::parse(&text), a);
            }

            /// Exactness under recycle: relations touching dynamic-region
            /// RPLs always agree with the element-wise oracle, across
            /// drop/re-allocate cycles of the *same* arena id and across
            /// repeated queries.
            #[test]
            fn dyn_region_relations_match_oracle_across_recycles(
                partners in proptest::collection::vec(arb_rpl(), 1..5),
                suffix in proptest::collection::vec(arb_element(), 0..3),
                cycles in 1..4usize,
            ) {
                let _serial = crate::reclaim::TEST_SERIAL.lock();
                let mut region = crate::reclaim::DynRegion::allocate();
                for _ in 0..cycles {
                    let mut elems = region.rpl().elements().to_vec();
                    elems.extend(suffix.iter().cloned());
                    let d = Rpl::new(elems);
                    for p in &partners {
                        for (a, b) in [(d, *p), (*p, d)] {
                            // Twice each: an answer remembered per id
                            // would be the recycle aliasing bug this guards
                            // against.
                            for _ in 0..2 {
                                prop_assert_eq!(
                                    a.overlaps(&b),
                                    oracle::overlaps(a.elements(), b.elements())
                                );
                                prop_assert_eq!(
                                    a.includes(&b),
                                    oracle::includes(a.elements(), b.elements())
                                );
                            }
                        }
                    }
                    let (prev, generation) = (region.id(), region.generation());
                    drop(region);
                    region = crate::reclaim::DynRegion::allocate();
                    // The cycle genuinely reuses the id (nothing else
                    // allocates meanwhile), so era 2 queries the same ids
                    // era 1 did — the aliasing-prone case.
                    prop_assert_eq!(region.id(), prev);
                    prop_assert_eq!(region.generation(), generation + 1);
                }
            }

            /// Interning round-trip: the elements the RPL was built from are
            /// the elements it resolves back to.
            #[test]
            fn elements_roundtrip(elems in proptest::collection::vec(arb_element(), 0..6)) {
                let r = Rpl::new(elems.clone());
                prop_assert_eq!(r.elements(), &elems[..]);
                prop_assert_eq!(r.len(), elems.len());
            }
        }
    }
}
