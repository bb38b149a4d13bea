//! # twe-analysis
//!
//! The static side of the Tasks With Effects model: a small **task IR** and
//! the **covering-effect analysis** of chapter 4 of the paper.
//!
//! The TWEJava compiler statically verifies that the effect of every
//! operation in a task or method is included in the *covering effect* at that
//! point — the declared effect summary, adjusted by the effects transferred
//! away by `spawn` and transferred back by `join`. Rust has no
//! user-extensible effect system, so this crate reproduces the analysis over
//! an explicit intermediate representation ([`ir`]) whose programs mirror the
//! task structure of the benchmarks. Two interchangeable algorithms are
//! provided:
//!
//! * [`iterative`] — the classic iterative dataflow algorithm of Figure 4.2
//!   over a control-flow graph and a finite effect domain (bit-vector
//!   compound effects, [`BitCompound`]);
//! * [`structural`] — the structure-based traversal of §4.4 that the TWEJava
//!   compiler actually uses, operating on the AST with symbolic compound
//!   effects ([`CompoundEffect`]).
//!
//! Both represent the covering effect at a program point as a *compound
//! effect* (`E`, `E + E`, `E − E`, `E ∩ E`; [`compound`]), built on
//! `twe-effects`' effect sets and relations.
//!
//! Both compute the meet-over-paths solution (the framework is distributive
//! and rapid; see the property tests), and [`checker`] packages them behind a
//! single entry point that also performs the determinism check for
//! `@Deterministic` tasks and reports which `spawn` sites need the run-time
//! covering check of §3.1.5.

#![warn(missing_docs)]

pub mod cfg;
pub mod checker;
pub mod compound;
pub mod examples;
pub mod ir;
pub mod iterative;
pub mod structural;

pub use checker::{check_program, Algorithm, CheckError, CheckReport, SpawnCoverage};
pub use compound::{BitCompound, CompoundEffect, CompoundOp, EffectDomain};
pub use ir::{Block, MethodDecl, MethodId, Program, Stmt, TaskDecl, TaskId};
