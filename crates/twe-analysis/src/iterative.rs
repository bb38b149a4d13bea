//! The iterative covering-effect dataflow analysis (Figure 4.2).
//!
//! The body under analysis is lowered to a CFG ([`crate::cfg`]); the effect
//! domain `D` is restricted to the effects of the individual operations
//! appearing in the flow graph (plus the declared effects of spawned tasks,
//! so spawn sites can be classified); compound effects are represented as
//! bit vectors over `D`. `OUT[ENTRY]` is initialised to the declared effect
//! of the task or method, every other `OUT` to ⊤ (`writes Root:*`), and the
//! equations `IN[B] = ⋂ OUT[pred]`, `OUT[B] = f_B(IN[B])` are iterated in
//! reverse postorder until a fixed point is reached. Because the framework
//! is monotone, distributive and rapid, the fixed point is the
//! meet-over-paths solution and is reached in at most `d + 2` passes where
//! `d` is the loop depth of the graph.

use crate::cfg::{build_cfg, Cfg, FlatOp};
use crate::checker::{CheckError, CheckErrorKind, SpawnCoverage, SpawnSite};
use crate::compound::{BitCompound, CompoundOp, EffectDomain};
use crate::ir::{Block, Program};
use twe_effects::EffectSet;

/// Result of the iterative analysis over one task or method body.
#[derive(Clone, Debug)]
pub struct IterativeResult {
    /// Covering-effect errors found.
    pub errors: Vec<CheckError>,
    /// Spawn sites and their static coverage classification.
    pub spawn_sites: Vec<SpawnSite>,
    /// Number of passes over the CFG until the fixed point (including the
    /// final confirming pass).
    pub iterations: usize,
}

/// Runs the iterative analysis on one body with the given declared effects.
pub fn analyze_body(
    program: &Program,
    context: &str,
    declared: &EffectSet,
    body: &Block,
) -> IterativeResult {
    let cfg = build_cfg(program, body);
    let domain = build_domain(&cfg);

    let n = cfg.blocks.len();
    let mut out: Vec<BitCompound> = (0..n).map(|_| domain.top()).collect();
    out[cfg.entry] = domain.from_declared(declared);

    let rpo = cfg.reverse_postorder();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in &rpo {
            if b == cfg.entry {
                continue;
            }
            let in_b = block_in(&cfg, &domain, &out, b);
            let out_b = apply_block(&domain, &cfg.blocks[b].ops, &in_b);
            if out_b != out[b] {
                out[b] = out_b;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Defensive bound: a monotone framework over a finite lattice always
        // terminates, but cap the iteration count so a bug cannot hang the
        // compiler.
        if iterations > n + domain.len() + 4 {
            break;
        }
    }

    // Checking pass: recompute IN for each block and walk its ops.
    let mut errors = Vec::new();
    let mut spawn_sites = Vec::new();
    for &b in &rpo {
        if b == cfg.entry {
            continue;
        }
        let mut cur = block_in(&cfg, &domain, &out, b);
        for op in &cfg.blocks[b].ops {
            match op {
                FlatOp::Access { effect, site, .. } => {
                    let idx = domain
                        .index_of(effect)
                        .expect("access effect must be in the domain");
                    if !cur.contains(idx) {
                        errors.push(CheckError {
                            context: context.to_string(),
                            site: site.clone(),
                            kind: CheckErrorKind::UncoveredEffect(*effect),
                        });
                    }
                }
                FlatOp::SpawnCheck {
                    task,
                    effects,
                    site,
                } => {
                    let covered = effects
                        .iter()
                        .all(|e| domain.index_of(e).map(|i| cur.contains(i)).unwrap_or(false));
                    spawn_sites.push(SpawnSite {
                        context: context.to_string(),
                        site: site.clone(),
                        task: program.tasks[*task].name.clone(),
                        coverage: if covered {
                            SpawnCoverage::Covered
                        } else {
                            SpawnCoverage::NeedsRuntimeCheck
                        },
                    });
                }
                FlatOp::Transfer(t) => {
                    cur = domain.apply_ops(&cur, std::slice::from_ref(t));
                }
            }
        }
    }
    // Report in site order so the iterative and structural algorithms produce
    // identical orderings regardless of CFG block numbering. Sort by the
    // rendered message, not the derived Ord: `Rpl`'s Ord is arena-interning
    // order, which can differ run-to-run when other threads intern
    // concurrently, and diagnostics must be deterministic.
    errors.sort_by_cached_key(|e| e.to_string());
    spawn_sites.sort_by(|a, b| a.site.cmp(&b.site));

    IterativeResult {
        errors,
        spawn_sites,
        iterations,
    }
}

/// The effect domain: access effects plus the individual effects of spawned
/// tasks (so spawn coverage can be classified in the bit representation).
fn build_domain(cfg: &Cfg) -> EffectDomain {
    let mut domain = EffectDomain::new();
    for block in &cfg.blocks {
        for op in &block.ops {
            match op {
                FlatOp::Access { effect, .. } => {
                    domain.add(*effect);
                }
                FlatOp::SpawnCheck { effects, .. } => {
                    for e in effects.iter() {
                        domain.add(*e);
                    }
                }
                FlatOp::Transfer(_) => {}
            }
        }
    }
    domain
}

fn block_in(cfg: &Cfg, domain: &EffectDomain, out: &[BitCompound], b: usize) -> BitCompound {
    let preds = &cfg.preds[b];
    let mut iter = preds.iter();
    let first = match iter.next() {
        Some(&p) => out[p].clone(),
        None => domain.top(), // unreachable block; value is irrelevant
    };
    iter.fold(first, |acc, &p| acc.meet(&out[p]))
}

fn apply_block(domain: &EffectDomain, ops: &[FlatOp], input: &BitCompound) -> BitCompound {
    let transfer_ops: Vec<CompoundOp> = ops
        .iter()
        .filter_map(|op| match op {
            FlatOp::Transfer(t) => Some(t.clone()),
            _ => None,
        })
        .collect();
    domain.apply_ops(input, &transfer_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Stmt, TaskDecl};

    fn es(s: &str) -> EffectSet {
        EffectSet::parse(s)
    }

    #[test]
    fn straight_line_covered_program_has_no_errors() {
        let p = Program::new();
        let body = Block::of([Stmt::write("A"), Stmt::read("B")]);
        let r = analyze_body(&p, "t", &es("writes A, reads B"), &body);
        assert!(r.errors.is_empty());
    }

    #[test]
    fn uncovered_write_is_reported() {
        let p = Program::new();
        let body = Block::of([Stmt::write("A")]);
        let r = analyze_body(&p, "t", &es("reads A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "0");
    }

    #[test]
    fn spawn_subtracts_and_join_restores() {
        let mut p = Program::new();
        let child = p.add_task(TaskDecl::new("child", es("writes Top"), Block::new()));
        // Parent: spawn child (writes Top), write Bottom (ok), write Top
        // (error: transferred away), join child, write Top (ok again).
        let body = Block::of([
            Stmt::spawn(child, "f"),
            Stmt::write("Bottom"),
            Stmt::write("Top"),
            Stmt::join("f"),
            Stmt::write("Top"),
        ]);
        let r = analyze_body(&p, "parent", &es("writes Top, writes Bottom"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "2");
        assert_eq!(r.spawn_sites.len(), 1);
        assert_eq!(r.spawn_sites[0].coverage, SpawnCoverage::Covered);
    }

    #[test]
    fn branch_meet_is_conservative() {
        let mut p = Program::new();
        let child = p.add_task(TaskDecl::new("child", es("writes A"), Block::new()));
        // If one branch spawns (subtracting writes A) and the other does not,
        // a write of A after the merge must be rejected.
        let body = Block::of([
            Stmt::if_else(Block::of([Stmt::spawn(child, "f")]), Block::new()),
            Stmt::write("A"),
        ]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "1");
    }

    #[test]
    fn loop_body_spawn_blocks_later_access() {
        let mut p = Program::new();
        let child = p.add_task(TaskDecl::new("child", es("writes A"), Block::new()));
        // The loop may spawn without joining (the join happens after the
        // loop, conceptually), so a write of A after the loop is not covered
        // on the path that went through the loop body.
        let body = Block::of([
            Stmt::while_loop(Block::of([Stmt::Spawn {
                task: child,
                var: None,
            }])),
            Stmt::write("A"),
        ]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "1");
    }

    #[test]
    fn iteration_count_is_bounded_by_loop_depth_plus_two() {
        let p = Program::new();
        // Loop nest of depth 3 with only reads: d+2 = 5 passes at most.
        let body = Block::of([Stmt::while_loop(Block::of([Stmt::while_loop(Block::of(
            [Stmt::while_loop(Block::of([Stmt::read("A")]))],
        ))]))]);
        let r = analyze_body(&p, "t", &es("reads A"), &body);
        assert!(r.errors.is_empty());
        assert!(r.iterations <= 5, "iterations = {}", r.iterations);
    }

    #[test]
    fn spawn_of_uncovered_task_needs_runtime_check() {
        let mut p = Program::new();
        let child = p.add_task(TaskDecl::new("child", es("writes Other"), Block::new()));
        let body = Block::of([Stmt::spawn(child, "f"), Stmt::join("f")]);
        let r = analyze_body(&p, "parent", &es("writes Mine"), &body);
        assert_eq!(r.spawn_sites.len(), 1);
        assert_eq!(r.spawn_sites[0].coverage, SpawnCoverage::NeedsRuntimeCheck);
        // Per §3.1.5 the spawn itself is not a static error.
        assert!(r.errors.is_empty());
    }

    #[test]
    fn wildcard_declared_effect_covers_indexed_accesses() {
        let p = Program::new();
        let body = Block::of([
            Stmt::write("Root:[1]"),
            Stmt::write("Root:[2]"),
            Stmt::read("Root:Other"),
        ]);
        let r = analyze_body(&p, "t", &es("writes Root:[?], reads Root:Other"), &body);
        assert!(r.errors.is_empty());
    }
}
