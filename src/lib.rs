//! # twe
//!
//! Umbrella crate for the Rust reproduction of **"The Tasks with Effects
//! Model for Safe Concurrency"** (Heumann & Adve, PPoPP 2013).
//!
//! It re-exports the public API of the workspace crates:
//!
//! * [`effects`] — the hierarchical region/effect system (RPLs, effects,
//!   effect sets and their relations);
//! * [`analysis`] — the task IR, compound effects and the static
//!   covering-effect analysis;
//! * [`pool`] — the work-stealing execution substrate;
//! * [`runtime`] — the effect-aware task runtime (naive and tree schedulers,
//!   effect transfer, dynamic effects);
//! * [`apps`] — the benchmark applications of the paper's evaluation.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use twe_analysis as analysis;
pub use twe_apps as apps;
pub use twe_effects as effects;
pub use twe_pool as pool;
pub use twe_runtime as runtime;

pub use twe_effects::{Effect, EffectKind, EffectSet, Rpl, RplElement};
pub use twe_runtime::{Runtime, RuntimeBuilder, SchedulerKind, TaskCtx, TaskFuture};
