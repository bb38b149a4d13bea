//! The structure-based covering-effect analysis (§4.4).
//!
//! This is the algorithm the TWEJava compiler implements: a traversal of the
//! (structured) AST in program order, carrying the covering effect as a
//! *symbolic* compound effect ([`CompoundEffect`]) rather than a
//! materialised set. Branches are analysed separately and met (`∩`) at the
//! merge point; loops are analysed once and, if the covering effect at the
//! end of the body differs from the one at the start, re-analysed with the
//! meet of the two as the entry value (the rapidity of the framework makes a
//! single re-pass sufficient).

use crate::cfg::{join_transfer_effects, spawn_bindings};
use crate::checker::{CheckError, CheckErrorKind, SpawnCoverage, SpawnSite};
use crate::compound::CompoundEffect;
use crate::ir::{Block, Program, Stmt, TaskId};
use std::collections::HashMap;
use twe_effects::{Effect, EffectSet};

/// Result of the structure-based analysis over one task or method body.
#[derive(Clone, Debug)]
pub struct StructuralResult {
    /// Covering-effect errors found.
    pub errors: Vec<CheckError>,
    /// Spawn sites and their static coverage classification.
    pub spawn_sites: Vec<SpawnSite>,
    /// Maximum number of passes performed over any single loop body
    /// (diagnostic; 2^depth in the worst case per §4.4).
    pub max_loop_passes: usize,
}

/// Runs the structure-based analysis on one body with the given declared
/// effects.
pub fn analyze_body(
    program: &Program,
    context: &str,
    declared: &EffectSet,
    body: &Block,
) -> StructuralResult {
    let mut analyzer = Analyzer {
        program,
        context: context.to_string(),
        bindings: spawn_bindings(body),
        errors: Vec::new(),
        spawn_sites: Vec::new(),
        max_loop_passes: 1,
    };
    let entry = CompoundEffect::declared(declared.clone());
    analyzer.analyze_block(body, entry, "", true);
    // Rendered-message key: same deterministic ordering as the iterative
    // algorithm (see iterative.rs), independent of RPL interning order.
    analyzer.errors.sort_by_cached_key(|e| e.to_string());
    analyzer.spawn_sites.sort_by(|a, b| a.site.cmp(&b.site));
    StructuralResult {
        errors: analyzer.errors,
        spawn_sites: analyzer.spawn_sites,
        max_loop_passes: analyzer.max_loop_passes,
    }
}

struct Analyzer<'p> {
    program: &'p Program,
    context: String,
    bindings: HashMap<String, Option<TaskId>>,
    errors: Vec<CheckError>,
    spawn_sites: Vec<SpawnSite>,
    max_loop_passes: usize,
}

impl<'p> Analyzer<'p> {
    fn analyze_block(
        &mut self,
        block: &Block,
        mut covering: CompoundEffect,
        prefix: &str,
        record: bool,
    ) -> CompoundEffect {
        for (i, stmt) in block.stmts().iter().enumerate() {
            let site = if prefix.is_empty() {
                format!("{i}")
            } else {
                format!("{prefix}.{i}")
            };
            covering = self.analyze_stmt(stmt, covering, &site, record);
        }
        covering
    }

    fn check(&mut self, covering: &CompoundEffect, effect: Effect, site: &str, record: bool) {
        if record && !covering.covers(&effect) {
            self.errors.push(CheckError {
                context: self.context.clone(),
                site: site.to_string(),
                kind: CheckErrorKind::UncoveredEffect(effect),
            });
        }
    }

    fn analyze_stmt(
        &mut self,
        stmt: &Stmt,
        covering: CompoundEffect,
        site: &str,
        record: bool,
    ) -> CompoundEffect {
        match stmt {
            Stmt::Read(rpl) => {
                self.check(&covering, Effect::read(*rpl), site, record);
                covering
            }
            Stmt::Write(rpl) => {
                self.check(&covering, Effect::write(*rpl), site, record);
                covering
            }
            Stmt::Call(m) => {
                for e in self.program.methods[*m].effect.iter() {
                    self.check(&covering, *e, site, record);
                }
                covering
            }
            Stmt::Spawn { task, .. } => {
                let effects = self.program.tasks[*task].effect.clone();
                if record {
                    let coverage = if covering.covers_set(&effects) {
                        SpawnCoverage::Covered
                    } else {
                        // Not a static error (§3.1.5): the runtime tracks the
                        // parent's covering effect and checks at the spawn.
                        SpawnCoverage::NeedsRuntimeCheck
                    };
                    self.spawn_sites.push(SpawnSite {
                        context: self.context.clone(),
                        site: site.to_string(),
                        task: self.program.tasks[*task].name.clone(),
                        coverage,
                    });
                }
                covering.sub(effects)
            }
            Stmt::Join { var } => match self.bindings.get(var) {
                Some(Some(task)) => {
                    let transferred = join_transfer_effects(self.program, *task);
                    if transferred.is_empty() {
                        covering
                    } else {
                        covering.add(transferred)
                    }
                }
                Some(None) => covering,
                None => {
                    if record {
                        self.errors.push(CheckError {
                            context: self.context.clone(),
                            site: site.to_string(),
                            kind: CheckErrorKind::UnknownJoinHandle(var.clone()),
                        });
                    }
                    covering
                }
            },
            Stmt::ExecuteLater { .. } | Stmt::GetValue { .. } => covering,
            Stmt::If {
                then_branch,
                else_branch,
            } => {
                let then_out = self.analyze_block(
                    then_branch,
                    covering.clone(),
                    &format!("{site}.then"),
                    record,
                );
                let else_out =
                    self.analyze_block(else_branch, covering, &format!("{site}.else"), record);
                then_out.meet(&else_out)
            }
            Stmt::While { body } => {
                // First pass: summarise the loop body's contributions without
                // recording diagnostics.
                let body_site = format!("{site}.body");
                let first_end = self.analyze_block(body, covering.clone(), &body_site, false);
                let (entry, passes) = if first_end == covering {
                    (covering.clone(), 2)
                } else {
                    (covering.meet(&first_end), 3)
                };
                self.max_loop_passes = self.max_loop_passes.max(passes);
                // Final pass with the (possibly reduced) entry value,
                // recording diagnostics.
                let final_end = self.analyze_block(body, entry, &body_site, record);
                // After the loop: zero or more iterations may have executed.
                covering.meet(&final_end)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::TaskDecl;

    fn es(s: &str) -> EffectSet {
        EffectSet::parse(s)
    }

    #[test]
    fn running_example_increase_contrast_checks() {
        // The §3.1.5 example: spawn(writes Top) / work on Bottom / join.
        let mut p = Program::new();
        let top_task = p.add_task(TaskDecl::new(
            "increasePixelContrast(top)",
            es("writes Top"),
            Block::of([Stmt::write("Top")]),
        ));
        let body = Block::of([
            Stmt::spawn(top_task, "f"),
            Stmt::write("Bottom"),
            Stmt::join("f"),
            Stmt::read("Top"),
        ]);
        let r = analyze_body(
            &p,
            "increaseContrast",
            &es("writes Top, writes Bottom"),
            &body,
        );
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.spawn_sites[0].coverage, SpawnCoverage::Covered);
    }

    #[test]
    fn access_between_spawn_and_join_is_rejected() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("child", es("writes Top"), Block::new()));
        let body = Block::of([Stmt::spawn(t, "f"), Stmt::write("Top"), Stmt::join("f")]);
        let r = analyze_body(&p, "parent", &es("writes Top"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "1");
    }

    #[test]
    fn join_of_unknown_handle_is_an_error() {
        let p = Program::new();
        let body = Block::of([Stmt::join("ghost")]);
        let r = analyze_body(&p, "t", &es("writes A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert!(matches!(
            r.errors[0].kind,
            CheckErrorKind::UnknownJoinHandle(_)
        ));
    }

    #[test]
    fn join_of_wildcard_effect_task_does_not_restore_coverage() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("scribble", es("writes Root:*"), Block::new()));
        let body = Block::of([Stmt::spawn(t, "f"), Stmt::join("f"), Stmt::write("A")]);
        let r = analyze_body(&p, "parent", &es("writes Root:*"), &body);
        // The spawn transfers away writes Root:*, and the join does not
        // transfer it back (non-fully-specified effect parameter), so the
        // final write is uncovered.
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "2");
    }

    #[test]
    fn loop_reanalysis_catches_first_iteration_only_coverage() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("child", es("writes A"), Block::new()));
        // The loop body writes A and then spawns a task taking writes A away.
        // On the second and later iterations the write is no longer covered,
        // which only the re-pass with the met entry value can detect.
        let body = Block::of([Stmt::while_loop(Block::of([
            Stmt::write("A"),
            Stmt::Spawn { task: t, var: None },
        ]))]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "0.body.0");
        assert!(r.max_loop_passes >= 3);
    }

    #[test]
    fn loop_without_transfer_needs_no_reanalysis() {
        let p = Program::new();
        let body = Block::of([Stmt::while_loop(Block::of([Stmt::read("A")]))]);
        let r = analyze_body(&p, "t", &es("reads A"), &body);
        assert!(r.errors.is_empty());
        assert_eq!(r.max_loop_passes, 2);
    }

    #[test]
    fn spawn_inside_branch_blocks_post_merge_access() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("child", es("writes A"), Block::new()));
        let body = Block::of([
            Stmt::if_else(Block::of([Stmt::spawn(t, "f")]), Block::new()),
            Stmt::write("A"),
        ]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].site, "1");
    }

    #[test]
    fn spawn_then_join_in_both_branches_allows_post_merge_access() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("child", es("writes A"), Block::new()));
        let branch = || Block::of([Stmt::spawn(t, "f"), Stmt::join("f")]);
        let body = Block::of([Stmt::if_else(branch(), branch()), Stmt::write("A")]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
    }

    #[test]
    fn execute_later_and_get_value_do_not_change_coverage() {
        let mut p = Program::new();
        let t = p.add_task(TaskDecl::new("other", es("writes B"), Block::new()));
        let body = Block::of([
            Stmt::execute_later(t, "f"),
            Stmt::write("A"),
            Stmt::get_value("f"),
            Stmt::write("A"),
        ]);
        let r = analyze_body(&p, "parent", &es("writes A"), &body);
        assert!(r.errors.is_empty());
    }
}
