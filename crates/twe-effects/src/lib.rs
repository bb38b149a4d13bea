//! # twe-effects
//!
//! The hierarchical, region-based effect system used by the Tasks With Effects
//! (TWE) model, adapted from Deterministic Parallel Java (DPJ).
//!
//! Memory is partitioned into *regions* named by **Region Path Lists** (RPLs):
//! colon-separated lists of elements rooted at the implicit region `Root`.
//! An RPL element may be a simple name (`Top`), a run-time array index
//! (`[3]`), or one of the wildcards `*` (any sequence of elements) and `[?]`
//! (any single index). An RPL containing a wildcard denotes the *set* of
//! fully-specified RPLs obtained by replacing the wildcard.
//!
//! An [`Effect`] is a read or a write on an RPL; an [`EffectSet`] is a set of
//! such effects and is the unit attached to tasks and methods. The two
//! relations that drive both the static covering-effect analysis and the
//! run-time scheduler are:
//!
//! * **non-interference** (`#`): two effects are non-interfering if both are
//!   reads or their RPLs are disjoint ([`Effect::non_interfering`]);
//! * **inclusion** (`⊆`): effect `A` is included in `B` if every effect that
//!   interferes with `A` also interferes with `B`
//!   ([`Effect::included_in`]).
//!
//! [`EffectSet`] lifts both pairwise over its effects, as §2.2 defines them.
//!
//! [`compound::CompoundEffect`] implements the *compound effects* of
//! chapter 4 of the paper (`E`, `E + E`, `E − E`, `E ∩ E`), which represent
//! the covering effect at each program point during the static analysis.
//!
//! # The interned RPL arena
//!
//! RPLs are not stored as element vectors: every wildcard-free prefix is
//! interned into a process-global prefix-tree [`arena`] as a small
//! [`arena::RplId`] carrying its parent pointer and depth, and the (rare,
//! short) wildcard suffix is interned separately. An [`Rpl`] is therefore an
//! 8-byte `Copy` value whose equality and hash are O(1), whose hot
//! concrete-vs-concrete disjointness test is a single id comparison, and
//! whose trailing-star (`P:*`) relations are O(1) ancestor tests. The
//! element-wise procedure of §2.3.1 is retained verbatim in [`rpl::oracle`]
//! as the fallback for every other wildcard shape (`P:[?]` included) and as
//! the differential-testing baseline.
//!
//! Arena entries live in an append-only **chunked store** with wait-free
//! reads: every read-side query (`depth`/`id_path`/element resolution/
//! ancestor tests) is a pair of plain atomic loads with no lock of any
//! kind. The write side is one child-index lock: a first
//! intern takes its write lock, a repeat intern its read lock. The
//! **publication invariant** — an entry is fully initialized before its id
//! is handed out — is what makes the lock-free reads safe even while
//! first-interns race; see the [`arena`] module docs for it, for the
//! one-winner-per-`(parent, element)` race resolution, and for the
//! id-ordering and parent/depth invariants. The arena also reserves the
//! root-level region `__DynRegion` ([`arena::dyn_region_root`]) for the
//! dynamic reference regions of chapter 7, so dynamic claims share the same
//! id space and fast paths as static effects.
//!
//! # Example
//!
//! ```
//! use twe_effects::{Rpl, Effect, EffectSet};
//!
//! let top = Rpl::from_names(["Top"]);
//! let bottom = Rpl::from_names(["Bottom"]);
//! let w_top = Effect::write(top);
//! let w_bottom = Effect::write(bottom);
//! // Disjoint sibling regions never interfere.
//! assert!(w_top.non_interfering(&w_bottom));
//!
//! // `writes Top, Bottom` covers `writes Top`.
//! let both = EffectSet::from_effects([w_top.clone(), w_bottom.clone()]);
//! assert!(EffectSet::from_effects([w_top]).included_in(&both));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod compound;
pub mod effect;
pub mod idhash;
mod inline;
pub mod intern;
mod leak;
pub mod reclaim;
pub mod rpl;

pub use arena::RplId;
pub use compound::{BitCompound, CompoundEffect, CompoundOp, EffectDomain};
pub use effect::{Effect, EffectKind, EffectSet};
pub use intern::{intern, resolve, Symbol};
pub use reclaim::{DynRegion, Reclaimer};
pub use rpl::{Rpl, RplElement};
