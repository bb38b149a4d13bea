//! Lowering of task-IR bodies into control-flow graphs.
//!
//! The iterative covering-effect analysis (Figure 4.2) operates on a CFG of
//! basic blocks whose contents are *flat operations*: effect accesses that
//! must be covered, additive/subtractive transfer operations produced by
//! `join`/`spawn`, and spawn-coverage check sites. The structure-based
//! analysis walks the AST directly, so both analyses identify operations by
//! the same *site path* (the position of the statement in the nested block
//! structure, e.g. `"2.then.0"`), which lets tests cross-validate their
//! results.

use crate::compound::CompoundOp;
use crate::ir::{Block, MethodId, Program, Stmt, TaskId};
use std::collections::HashMap;
use twe_effects::{Effect, EffectSet};

/// One flattened operation inside a basic block.
#[derive(Clone, Debug)]
pub enum FlatOp {
    /// A memory access or method call whose effect must be covered by the
    /// covering effect at this point.
    Access {
        /// The effect to be covered.
        effect: Effect,
        /// Site path of the originating statement.
        site: String,
        /// What kind of statement produced this access (for diagnostics).
        kind: AccessKind,
    },
    /// A spawn site: the spawned task's declared effects are classified as
    /// statically covered or needing a run-time check.
    SpawnCheck {
        /// The spawned task.
        task: TaskId,
        /// The spawned task's declared effects.
        effects: EffectSet,
        /// Site path of the spawn statement.
        site: String,
    },
    /// An effect-transfer step (`−E` for spawn, `+E` for join).
    Transfer(CompoundOp),
}

/// The statement kind behind an [`FlatOp::Access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A `Read` statement.
    Read,
    /// A `Write` statement.
    Write,
    /// A `Call` statement (one access per declared callee effect).
    Call,
}

/// A basic block: a straight-line sequence of flat operations.
#[derive(Clone, Debug, Default)]
pub struct BasicBlock {
    /// Operations in program order.
    pub ops: Vec<FlatOp>,
}

/// A control-flow graph for one task or method body.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The basic blocks; index 0 is the empty ENTRY block.
    pub blocks: Vec<BasicBlock>,
    /// Predecessor lists, indexed by block.
    pub preds: Vec<Vec<usize>>,
    /// Successor lists, indexed by block.
    pub succs: Vec<Vec<usize>>,
    /// The entry block (always 0, kept explicit for clarity).
    pub entry: usize,
    /// The exit block.
    pub exit: usize,
}

impl Cfg {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.blocks.len() - 1
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        self.succs[from].push(to);
        self.preds[to].push(from);
    }

    /// Blocks in reverse postorder from the entry (the iteration order that
    /// achieves the `d + 2` bound for rapid frameworks).
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS producing postorder.
        let mut stack: Vec<(usize, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < self.succs[node].len() {
                let next = self.succs[node][*idx];
                *idx += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// All effects appearing in `Access` operations — the finite domain `D`
    /// of the iterative analysis.
    pub fn access_effects(&self) -> Vec<Effect> {
        let mut out = Vec::new();
        for b in &self.blocks {
            for op in &b.ops {
                if let FlatOp::Access { effect, .. } = op {
                    out.push(*effect);
                }
            }
        }
        out
    }
}

/// Resolves, for each handle variable, the task it is bound to by `spawn`
/// statements within `body`. A variable spawned with two different tasks is
/// mapped to `None` (a join of it then transfers nothing, conservatively).
pub fn spawn_bindings(body: &Block) -> HashMap<String, Option<TaskId>> {
    let mut map: HashMap<String, Option<TaskId>> = HashMap::new();
    fn walk(block: &Block, map: &mut HashMap<String, Option<TaskId>>) {
        for stmt in block.stmts() {
            match stmt {
                Stmt::Spawn { task, var: Some(v) } => {
                    map.entry(v.clone())
                        .and_modify(|existing| {
                            if *existing != Some(*task) {
                                *existing = None;
                            }
                        })
                        .or_insert(Some(*task));
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                } => {
                    walk(then_branch, map);
                    walk(else_branch, map);
                }
                Stmt::While { body } => walk(body, map),
                _ => {}
            }
        }
    }
    walk(body, &mut map);
    map
}

/// The effect set transferred back to the parent when joining `task`, per
/// §3.1.5: the declared effect if it is fully specified, otherwise nothing.
pub fn join_transfer_effects(program: &Program, task: TaskId) -> EffectSet {
    let effect = &program.tasks[task].effect;
    let fully = effect.iter().all(|e| e.rpl.is_fully_specified());
    if fully {
        effect.clone()
    } else {
        EffectSet::pure()
    }
}

/// The declared effects of a call target as flat access operations.
fn call_effects(program: &Program, method: MethodId) -> &EffectSet {
    &program.methods[method].effect
}

struct Lowering<'p> {
    program: &'p Program,
    cfg: Cfg,
    bindings: HashMap<String, Option<TaskId>>,
}

/// Builds the control-flow graph for a task or method body.
pub fn build_cfg(program: &Program, body: &Block) -> Cfg {
    let mut cfg = Cfg {
        blocks: Vec::new(),
        preds: Vec::new(),
        succs: Vec::new(),
        entry: 0,
        exit: 0,
    };
    // ENTRY is an empty block, per the algorithm in Figure 4.2.
    let entry = cfg.new_block();
    cfg.entry = entry;
    let mut lowering = Lowering {
        program,
        cfg,
        bindings: spawn_bindings(body),
    };
    let first = lowering.cfg.new_block();
    lowering.cfg.add_edge(entry, first);
    let last = lowering.lower_block(body, first, "");
    lowering.cfg.exit = last;
    lowering.cfg
}

impl<'p> Lowering<'p> {
    /// Lowers `block` starting in basic block `current`; returns the basic
    /// block that control falls out of.
    fn lower_block(&mut self, block: &Block, mut current: usize, prefix: &str) -> usize {
        for (i, stmt) in block.stmts().iter().enumerate() {
            let site = if prefix.is_empty() {
                format!("{i}")
            } else {
                format!("{prefix}.{i}")
            };
            current = self.lower_stmt(stmt, current, &site);
        }
        current
    }

    fn push(&mut self, block: usize, op: FlatOp) {
        self.cfg.blocks[block].ops.push(op);
    }

    fn lower_stmt(&mut self, stmt: &Stmt, current: usize, site: &str) -> usize {
        match stmt {
            Stmt::Read(rpl) => {
                self.push(
                    current,
                    FlatOp::Access {
                        effect: Effect::read(*rpl),
                        site: site.to_string(),
                        kind: AccessKind::Read,
                    },
                );
                current
            }
            Stmt::Write(rpl) => {
                self.push(
                    current,
                    FlatOp::Access {
                        effect: Effect::write(*rpl),
                        site: site.to_string(),
                        kind: AccessKind::Write,
                    },
                );
                current
            }
            Stmt::Call(m) => {
                for effect in call_effects(self.program, *m).iter() {
                    self.push(
                        current,
                        FlatOp::Access {
                            effect: *effect,
                            site: site.to_string(),
                            kind: AccessKind::Call,
                        },
                    );
                }
                current
            }
            Stmt::Spawn { task, .. } => {
                let effects = self.program.tasks[*task].effect.clone();
                self.push(
                    current,
                    FlatOp::SpawnCheck {
                        task: *task,
                        effects: effects.clone(),
                        site: site.to_string(),
                    },
                );
                self.push(current, FlatOp::Transfer(CompoundOp::Sub(effects)));
                current
            }
            Stmt::Join { var } => {
                let transferred = match self.bindings.get(var).copied().flatten() {
                    Some(task) => join_transfer_effects(self.program, task),
                    None => EffectSet::pure(),
                };
                if !transferred.is_empty() {
                    self.push(current, FlatOp::Transfer(CompoundOp::Add(transferred)));
                }
                current
            }
            // executeLater and getValue do not change the covering effect.
            Stmt::ExecuteLater { .. } | Stmt::GetValue { .. } => current,
            Stmt::If {
                then_branch,
                else_branch,
            } => {
                let then_entry = self.cfg.new_block();
                let else_entry = self.cfg.new_block();
                self.cfg.add_edge(current, then_entry);
                self.cfg.add_edge(current, else_entry);
                let then_exit = self.lower_block(then_branch, then_entry, &format!("{site}.then"));
                let else_exit = self.lower_block(else_branch, else_entry, &format!("{site}.else"));
                let merge = self.cfg.new_block();
                self.cfg.add_edge(then_exit, merge);
                self.cfg.add_edge(else_exit, merge);
                merge
            }
            Stmt::While { body } => {
                // header <-> body, header -> exit
                let header = self.cfg.new_block();
                self.cfg.add_edge(current, header);
                let body_entry = self.cfg.new_block();
                self.cfg.add_edge(header, body_entry);
                let body_exit = self.lower_block(body, body_entry, &format!("{site}.body"));
                self.cfg.add_edge(body_exit, header);
                let exit = self.cfg.new_block();
                self.cfg.add_edge(header, exit);
                exit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::TaskDecl;

    fn simple_program() -> Program {
        let mut p = Program::new();
        p.add_task(TaskDecl::new(
            "child",
            EffectSet::parse("writes Top"),
            Block::of([Stmt::write("Top")]),
        ));
        p
    }

    #[test]
    fn straight_line_body_is_one_block_after_entry() {
        let p = simple_program();
        let body = Block::of([Stmt::write("A"), Stmt::read("B")]);
        let cfg = build_cfg(&p, &body);
        // ENTRY (empty) + one real block.
        assert_eq!(cfg.blocks.len(), 2);
        assert!(cfg.blocks[cfg.entry].ops.is_empty());
        assert_eq!(cfg.blocks[1].ops.len(), 2);
        assert_eq!(cfg.access_effects().len(), 2);
    }

    #[test]
    fn if_produces_diamond() {
        let p = simple_program();
        let body = Block::of([Stmt::if_else(
            Block::of([Stmt::write("A")]),
            Block::of([Stmt::write("B")]),
        )]);
        let cfg = build_cfg(&p, &body);
        // entry, first, then, else, merge
        assert_eq!(cfg.blocks.len(), 5);
        let merge = cfg.exit;
        assert_eq!(cfg.preds[merge].len(), 2);
    }

    #[test]
    fn while_produces_back_edge() {
        let p = simple_program();
        let body = Block::of([Stmt::while_loop(Block::of([Stmt::write("A")]))]);
        let cfg = build_cfg(&p, &body);
        // Some block must have the loop header as successor twice-reachable:
        // the header has 2 preds (pre-loop block and body exit).
        let header_like = cfg
            .preds
            .iter()
            .enumerate()
            .filter(|(_, p)| p.len() == 2)
            .count();
        assert_eq!(header_like, 1);
    }

    #[test]
    fn spawn_emits_check_then_sub_and_join_adds() {
        let p = simple_program();
        let body = Block::of([Stmt::spawn(0, "f"), Stmt::join("f")]);
        let cfg = build_cfg(&p, &body);
        let ops = &cfg.blocks[1].ops;
        assert!(matches!(ops[0], FlatOp::SpawnCheck { .. }));
        assert!(matches!(ops[1], FlatOp::Transfer(CompoundOp::Sub(_))));
        assert!(matches!(ops[2], FlatOp::Transfer(CompoundOp::Add(_))));
    }

    #[test]
    fn join_of_wildcard_task_transfers_nothing() {
        let mut p = Program::new();
        p.add_task(TaskDecl::new(
            "scribble",
            EffectSet::parse("writes Root:*"),
            Block::new(),
        ));
        let body = Block::of([Stmt::spawn(0, "f"), Stmt::join("f")]);
        let cfg = build_cfg(&p, &body);
        let adds = cfg.blocks[1]
            .ops
            .iter()
            .filter(|op| matches!(op, FlatOp::Transfer(CompoundOp::Add(_))))
            .count();
        assert_eq!(adds, 0);
    }

    #[test]
    fn conflicting_bindings_resolve_to_none() {
        let mut p = Program::new();
        let a = p.add_task(TaskDecl::new(
            "a",
            EffectSet::parse("writes A"),
            Block::new(),
        ));
        let b = p.add_task(TaskDecl::new(
            "b",
            EffectSet::parse("writes B"),
            Block::new(),
        ));
        let body = Block::of([
            Stmt::if_else(
                Block::of([Stmt::spawn(a, "f")]),
                Block::of([Stmt::spawn(b, "f")]),
            ),
            Stmt::join("f"),
        ]);
        let bindings = spawn_bindings(&body);
        assert_eq!(bindings.get("f"), Some(&None));
        // And the lowered join adds nothing.
        let cfg = build_cfg(&p, &body);
        let adds: usize = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| matches!(op, FlatOp::Transfer(CompoundOp::Add(_))))
            .count();
        assert_eq!(adds, 0);
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_reachable_blocks() {
        let p = simple_program();
        let body = Block::of([
            Stmt::while_loop(Block::of([Stmt::write("A")])),
            Stmt::if_else(Block::of([Stmt::read("B")]), Block::new()),
        ]);
        let cfg = build_cfg(&p, &body);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry);
        assert_eq!(rpo.len(), cfg.blocks.len());
    }

    #[test]
    fn site_paths_are_hierarchical() {
        let p = simple_program();
        let body = Block::of([Stmt::if_else(
            Block::of([Stmt::write("A")]),
            Block::of([Stmt::while_loop(Block::of([Stmt::read("B")]))]),
        )]);
        let cfg = build_cfg(&p, &body);
        let sites: Vec<String> = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                FlatOp::Access { site, .. } => Some(site.clone()),
                _ => None,
            })
            .collect();
        assert!(sites.contains(&"0.then.0".to_string()));
        assert!(sites.contains(&"0.else.0.body.0".to_string()));
    }
}
