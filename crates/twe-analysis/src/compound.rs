//! Compound effects (chapter 4 of the paper).
//!
//! A *compound effect* represents the covering effect at a program point
//! during the static covering-effect analysis. Conceptually it is a set of
//! effects drawn from some domain `D`; syntactically it is built by the
//! grammar
//!
//! ```text
//! E ::= E | E + E | E − E | E ∩ E
//! ```
//!
//! where `E` (a base effect set) denotes `{E' ∈ D : E' ⊆ E}`, `+E` adds every
//! effect covered by `E`, `−E` removes every effect that interferes with `E`,
//! and `∩` is plain set intersection (the meet of the analysis semilattice).
//!
//! Two representations are provided:
//!
//! * [`CompoundEffect`] — the **symbolic/abstract form** used by the
//!   structure-based analysis (§4.4): the base plus an additive–subtractive
//!   op sequence, possibly nested under meets. Membership of an individual
//!   effect is decided with the sequential procedure of Figure 4.1 without
//!   ever materialising the set.
//! * [`EffectDomain`] + [`BitCompound`] — the **finite-domain bit-vector
//!   form** used by the iterative dataflow algorithm (Figure 4.2), where `D`
//!   is restricted to the effects of the operations appearing in the flow
//!   graph under analysis.

use std::fmt;
use twe_effects::{Effect, EffectSet};

/// One additive or subtractive step applied to a compound effect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompoundOp {
    /// `+E`: effects covered by `E` become covered (a `join` transferred
    /// effects back to the current task).
    Add(EffectSet),
    /// `−E`: effects interfering with `E` stop being covered (a `spawn`
    /// transferred effects away to a child task).
    Sub(EffectSet),
}

/// The base of a compound effect before any `+`/`−` operations are applied.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Base {
    /// The compound effect `E` for a declared effect set `E`.
    Declared(EffectSet),
    /// The meet (`∩`) of several compound effects (control-flow merges).
    Meet(Vec<CompoundEffect>),
}

/// Symbolic compound effect: a base plus an additive–subtractive sequence.
///
/// The covering-effect question "is the effect of this operation covered
/// here?" is answered by [`CompoundEffect::covers`], which implements the
/// right-to-left procedure of Figure 4.1 and recurses into meets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompoundEffect {
    base: Base,
    ops: Vec<CompoundOp>,
}

impl CompoundEffect {
    /// The compound effect of a task/method entry: its declared effect set.
    pub fn declared(effects: EffectSet) -> Self {
        CompoundEffect {
            base: Base::Declared(effects),
            ops: Vec::new(),
        }
    }

    /// The top element ⊤ (`writes Root:*`): covers every effect.
    pub fn top() -> Self {
        CompoundEffect::declared(EffectSet::top())
    }

    /// The bottom element ⊥ (`pure`): covers no read or write.
    pub fn bottom() -> Self {
        CompoundEffect::declared(EffectSet::pure())
    }

    /// Applies `+E` (effects transferred back by a `join`).
    pub fn add(&self, effects: EffectSet) -> Self {
        let mut ops = self.ops.clone();
        ops.push(CompoundOp::Add(effects));
        CompoundEffect {
            base: self.base.clone(),
            ops,
        }
    }

    /// Applies `−E` (effects transferred away by a `spawn`).
    pub fn sub(&self, effects: EffectSet) -> Self {
        let mut ops = self.ops.clone();
        ops.push(CompoundOp::Sub(effects));
        CompoundEffect {
            base: self.base.clone(),
            ops,
        }
    }

    /// Applies an arbitrary [`CompoundOp`].
    pub fn apply(&self, op: CompoundOp) -> Self {
        match op {
            CompoundOp::Add(e) => self.add(e),
            CompoundOp::Sub(e) => self.sub(e),
        }
    }

    /// The meet (`∩`) of two compound effects, used at control-flow merges.
    ///
    /// If the two operands are structurally identical the meet is trivially
    /// one of them (the heuristic equality check of §4.4); otherwise a
    /// `Meet` node is produced.
    pub fn meet(&self, other: &CompoundEffect) -> Self {
        if self == other {
            return self.clone();
        }
        CompoundEffect {
            base: Base::Meet(vec![self.clone(), other.clone()]),
            ops: Vec::new(),
        }
    }

    /// The meet of many compound effects.
    pub fn meet_all<'a>(mut iter: impl Iterator<Item = &'a CompoundEffect>) -> CompoundEffect {
        let first = match iter.next() {
            Some(c) => c.clone(),
            None => CompoundEffect::top(),
        };
        iter.fold(first, |acc, c| acc.meet(c))
    }

    /// Membership test (Figure 4.1): is the effect `e` covered by this
    /// compound effect?
    ///
    /// The op sequence is scanned right-to-left; `+E'` answers `true` when
    /// `e ⊆ E'`, `−E'` answers `false` when `e` interferes with `E'`, and if
    /// neither fires the question falls through to the base.
    pub fn covers(&self, e: &Effect) -> bool {
        for op in self.ops.iter().rev() {
            match op {
                CompoundOp::Add(set) => {
                    if set.covers_effect(e) {
                        return true;
                    }
                }
                CompoundOp::Sub(set) => {
                    if set.interferes_effect(e) {
                        return false;
                    }
                }
            }
        }
        match &self.base {
            Base::Declared(set) => set.covers_effect(e),
            Base::Meet(parts) => parts.iter().all(|p| p.covers(e)),
        }
    }

    /// Set-level coverage: every effect of `set` is covered.
    pub fn covers_set(&self, set: &EffectSet) -> bool {
        set.iter().all(|e| self.covers(e))
    }

    /// Depth of nested meets (diagnostic; used by tests to check the
    /// structural analysis does not blow up).
    pub fn meet_depth(&self) -> usize {
        match &self.base {
            Base::Declared(_) => 0,
            Base::Meet(parts) => 1 + parts.iter().map(|p| p.meet_depth()).max().unwrap_or(0),
        }
    }

    /// Number of `+`/`−` operations applied on top of the base.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }
}

impl fmt::Display for CompoundEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            Base::Declared(set) => write!(f, "{{{set}}}")?,
            Base::Meet(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∩ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")?;
            }
        }
        for op in &self.ops {
            match op {
                CompoundOp::Add(e) => write!(f, " + [{e}]")?,
                CompoundOp::Sub(e) => write!(f, " - [{e}]")?,
            }
        }
        Ok(())
    }
}

/// The finite effect domain `D` used by the iterative dataflow analysis:
/// the effects of the individual operations appearing in one flow graph.
///
/// Since [`Effect`] equality/hash are O(1) over interned RPL ids, the domain
/// keeps a hash index and `add`/`index_of` are O(1) rather than linear scans.
#[derive(Clone, Debug, Default)]
pub struct EffectDomain {
    effects: Vec<Effect>,
    index: std::collections::HashMap<Effect, usize>,
}

impl EffectDomain {
    /// An empty domain.
    pub fn new() -> Self {
        EffectDomain::default()
    }

    /// Builds a domain from the given effects, deduplicating.
    pub fn from_effects(effects: impl IntoIterator<Item = Effect>) -> Self {
        let mut d = EffectDomain::new();
        for e in effects {
            d.add(e);
        }
        d
    }

    /// Adds an effect to the domain (dedup by equality), returning its index.
    pub fn add(&mut self, e: Effect) -> usize {
        if let Some(&i) = self.index.get(&e) {
            return i;
        }
        self.effects.push(e);
        self.index.insert(e, self.effects.len() - 1);
        self.effects.len() - 1
    }

    /// The index of `e`, if present.
    pub fn index_of(&self, e: &Effect) -> Option<usize> {
        self.index.get(e).copied()
    }

    /// Number of effects in the domain.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Is the domain empty?
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The effects of the domain, in index order.
    pub fn effects(&self) -> &[Effect] {
        &self.effects
    }

    /// The ⊤ value over this domain (all effects covered; `writes Root:*`).
    pub fn top(&self) -> BitCompound {
        BitCompound {
            bits: vec![true; self.effects.len()],
        }
    }

    /// The ⊥ value over this domain (no effects covered; `pure`).
    pub fn bottom(&self) -> BitCompound {
        BitCompound {
            bits: vec![false; self.effects.len()],
        }
    }

    /// The value for a declared effect set: every domain effect covered by it.
    pub fn from_declared(&self, declared: &EffectSet) -> BitCompound {
        BitCompound {
            bits: self
                .effects
                .iter()
                .map(|e| declared.covers_effect(e))
                .collect(),
        }
    }

    /// Applies an additive–subtractive op sequence to a compound value,
    /// element by element using the Figure 4.1 procedure.
    pub fn apply_ops(&self, input: &BitCompound, ops: &[CompoundOp]) -> BitCompound {
        let bits = self
            .effects
            .iter()
            .enumerate()
            .map(|(i, e)| {
                for op in ops.iter().rev() {
                    match op {
                        CompoundOp::Add(set) => {
                            if set.covers_effect(e) {
                                return true;
                            }
                        }
                        CompoundOp::Sub(set) => {
                            if set.interferes_effect(e) {
                                return false;
                            }
                        }
                    }
                }
                input.bits[i]
            })
            .collect();
        BitCompound { bits }
    }
}

/// A compound-effect value over a finite [`EffectDomain`], represented as a
/// membership bit per domain effect. The meet of the analysis lattice is
/// bitwise AND.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitCompound {
    bits: Vec<bool>,
}

impl BitCompound {
    /// Is the domain effect with index `i` covered?
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Bitwise meet (`∩`).
    pub fn meet(&self, other: &BitCompound) -> BitCompound {
        BitCompound {
            bits: self
                .bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| *a && *b)
                .collect(),
        }
    }

    /// Partial order of the lattice: `self ⊑ other` iff `self ⊆ other`.
    pub fn subset_of(&self, other: &BitCompound) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| !*a || *b)
    }

    /// Number of covered effects.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twe_effects::Rpl;

    fn es(s: &str) -> EffectSet {
        EffectSet::parse(s)
    }
    fn eff(s: &str) -> Effect {
        Effect::parse(s).unwrap()
    }

    #[test]
    fn declared_covers_its_own_effects() {
        let c = CompoundEffect::declared(es("writes Top, writes Bottom"));
        assert!(c.covers(&eff("writes Top")));
        assert!(c.covers(&eff("reads Bottom")));
        assert!(!c.covers(&eff("writes Other")));
    }

    #[test]
    fn subtract_then_add_models_spawn_join() {
        // increaseContrast example from §3.1.5: effect writes Top, Bottom;
        // spawn child with writes Top; join it back.
        let decl = CompoundEffect::declared(es("writes Top, writes Bottom"));
        let after_spawn = decl.sub(es("writes Top"));
        assert!(!after_spawn.covers(&eff("writes Top")));
        assert!(!after_spawn.covers(&eff("reads Top")));
        assert!(after_spawn.covers(&eff("writes Bottom")));
        let after_join = after_spawn.add(es("writes Top"));
        assert!(after_join.covers(&eff("writes Top")));
        assert!(after_join.covers(&eff("writes Bottom")));
    }

    #[test]
    fn rightmost_op_wins() {
        let decl = CompoundEffect::declared(es("writes A"));
        // -A then +A: the + is scanned first (right-to-left) so A is covered.
        let c = decl.sub(es("writes A")).add(es("writes A"));
        assert!(c.covers(&eff("writes A")));
        // +A then -A: the - is scanned first so A is not covered.
        let c2 = decl.add(es("writes A")).sub(es("writes A"));
        assert!(!c2.covers(&eff("writes A")));
    }

    #[test]
    fn subtracting_wildcard_blocks_interfering_effects_only() {
        let decl = CompoundEffect::declared(EffectSet::top());
        let c = decl.sub(es("writes A:*"));
        assert!(!c.covers(&eff("writes A:B")));
        assert!(!c.covers(&eff("reads A")));
        assert!(c.covers(&eff("writes B")));
        // Reads of unrelated regions survive; reads under A do not (write-*
        // interferes with them).
        assert!(c.covers(&eff("reads B:C")));
    }

    #[test]
    fn subtracting_read_keeps_other_reads() {
        // Subtracting a read effect only removes writes that interfere with it.
        let decl = CompoundEffect::declared(es("writes A, writes B"));
        let c = decl.sub(es("reads A"));
        assert!(!c.covers(&eff("writes A")));
        assert!(c.covers(&eff("reads A"))); // reads don't interfere with reads
        assert!(c.covers(&eff("writes B")));
    }

    #[test]
    fn top_and_bottom() {
        assert!(CompoundEffect::top().covers(&eff("writes Anything:At:All")));
        assert!(!CompoundEffect::bottom().covers(&eff("reads A")));
        assert!(CompoundEffect::bottom().covers_set(&EffectSet::pure()));
    }

    #[test]
    fn meet_covers_iff_both_cover() {
        let a = CompoundEffect::declared(es("writes A, writes B"));
        let b = CompoundEffect::declared(es("writes B, writes C"));
        let m = a.meet(&b);
        assert!(m.covers(&eff("writes B")));
        assert!(!m.covers(&eff("writes A")));
        assert!(!m.covers(&eff("writes C")));
    }

    #[test]
    fn meet_of_identical_is_identity() {
        let a = CompoundEffect::declared(es("writes A")).sub(es("writes A"));
        let m = a.meet(&a.clone());
        assert_eq!(m, a);
        assert_eq!(m.meet_depth(), 0);
    }

    #[test]
    fn ops_on_meets() {
        let a = CompoundEffect::declared(es("writes A, writes B"));
        let b = CompoundEffect::declared(es("writes B, writes C"));
        let m = a.meet(&b).add(es("writes D"));
        assert!(m.covers(&eff("writes D")));
        assert!(m.covers(&eff("writes B")));
        assert!(!m.covers(&eff("writes A")));
    }

    #[test]
    fn display_is_readable() {
        let c = CompoundEffect::declared(es("writes Top, writes Bottom")).sub(es("writes Top"));
        let s = format!("{c}");
        assert!(s.contains("writes Root:Top"));
        assert!(s.contains("-"));
    }

    #[test]
    fn bit_domain_matches_symbolic_on_sequences() {
        // Domain: the individual effects we will query.
        let queries = ["writes A", "reads A", "writes B", "writes A:B", "reads C"];
        let mut domain = EffectDomain::new();
        for q in queries {
            domain.add(eff(q));
        }
        let declared = es("writes A, writes B, writes C");
        let ops = vec![
            CompoundOp::Sub(es("writes A")),
            CompoundOp::Add(es("writes A:B")),
        ];

        // Symbolic.
        let mut sym = CompoundEffect::declared(declared.clone());
        for op in &ops {
            sym = sym.apply(op.clone());
        }
        // Bit-vector.
        let entry = domain.from_declared(&declared);
        let bits = domain.apply_ops(&entry, &ops);

        for (i, q) in queries.iter().enumerate() {
            assert_eq!(bits.contains(i), sym.covers(&eff(q)), "mismatch on {q}");
        }
    }

    #[test]
    fn bit_meet_and_order() {
        let mut domain = EffectDomain::new();
        domain.add(eff("writes A"));
        domain.add(eff("writes B"));
        let a = domain.from_declared(&es("writes A"));
        let b = domain.from_declared(&es("writes B"));
        let both = domain.from_declared(&es("writes A, writes B"));
        assert_eq!(a.meet(&b), domain.bottom());
        assert_eq!(both.meet(&a), a);
        assert!(a.subset_of(&both));
        assert!(!both.subset_of(&a));
        assert!(domain.bottom().subset_of(&a));
        assert!(a.subset_of(&domain.top()));
        assert_eq!(domain.top().count(), 2);
    }

    #[test]
    fn domain_dedup() {
        let mut domain = EffectDomain::new();
        let i = domain.add(eff("writes A"));
        let j = domain.add(eff("writes A"));
        assert_eq!(i, j);
        assert_eq!(domain.len(), 1);
        assert_eq!(domain.index_of(&eff("writes A")), Some(0));
        assert_eq!(domain.index_of(&eff("writes B")), None);
    }

    /// Rapidity (Theorem 2): f(E) ⊇ E ∩ f(⊤), checked on the bit domain for a
    /// sampling of op sequences.
    #[test]
    fn transfer_functions_are_rapid() {
        let mut domain = EffectDomain::new();
        for q in [
            "writes A",
            "reads A",
            "writes B",
            "writes A:B",
            "reads C",
            "writes C",
        ] {
            domain.add(eff(q));
        }
        let op_choices = [
            vec![],
            vec![CompoundOp::Sub(es("writes A"))],
            vec![CompoundOp::Add(es("writes B"))],
            vec![
                CompoundOp::Sub(es("writes A:*")),
                CompoundOp::Add(es("writes A:B")),
            ],
            vec![
                CompoundOp::Add(es("writes C")),
                CompoundOp::Sub(es("reads A")),
            ],
        ];
        let inputs = [
            domain.bottom(),
            domain.top(),
            domain.from_declared(&es("writes A, reads C")),
            domain.from_declared(&es("writes B, writes C")),
        ];
        for ops in &op_choices {
            let f_top = domain.apply_ops(&domain.top(), ops);
            for input in &inputs {
                let f_e = domain.apply_ops(input, ops);
                let rhs = input.meet(&f_top);
                assert!(rhs.subset_of(&f_e), "rapidity violated for ops {ops:?}");
            }
        }
    }

    /// Distributivity (Theorem 1): f(E1 ∩ E2) = f(E1) ∩ f(E2) on the bit domain.
    #[test]
    fn transfer_functions_are_distributive() {
        let mut domain = EffectDomain::new();
        for q in [
            "writes A",
            "reads A",
            "writes B",
            "writes A:B",
            "reads C",
            "writes C",
        ] {
            domain.add(eff(q));
        }
        let ops = vec![
            CompoundOp::Sub(es("writes A:*")),
            CompoundOp::Add(es("writes A:B")),
            CompoundOp::Sub(es("writes C")),
        ];
        let values = [
            domain.bottom(),
            domain.top(),
            domain.from_declared(&es("writes A, reads C")),
            domain.from_declared(&es("writes B, writes C")),
            domain.from_declared(&es("writes A:B")),
        ];
        for e1 in &values {
            for e2 in &values {
                let lhs = domain.apply_ops(&e1.meet(e2), &ops);
                let rhs = domain.apply_ops(e1, &ops).meet(&domain.apply_ops(e2, &ops));
                assert_eq!(lhs, rhs);
            }
        }
    }

    #[test]
    fn rpl_root_star_is_top_for_domain() {
        let mut domain = EffectDomain::new();
        domain.add(Effect::write(Rpl::parse("A:B:C")));
        domain.add(Effect::read(Rpl::root()));
        let top_decl = domain.from_declared(&EffectSet::top());
        assert_eq!(top_decl, domain.top());
    }
}
