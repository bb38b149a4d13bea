//! # twe-apps
//!
//! The benchmark applications of the Tasks With Effects evaluation
//! (chapters 6 and 7 of the paper), each in (at least) three variants:
//!
//! | module | paper benchmark | TWE version | baselines |
//! |---|---|---|---|
//! | [`kmeans`] | K-Means clustering (STAMP) — Figs 6.1, 6.3 | per-point WorkTasks + per-cluster `accumulate` tasks | per-cluster mutexes ("sync"), fork-join, sequential |
//! | [`barneshut`] | Barnes-Hut force computation — Figs 6.1, 6.4 | spawn/join chunk tasks | fork-join threads, sequential |
//! | [`montecarlo`] | Monte Carlo financial simulation (Java Grande) — Figs 6.1, 6.4 | chunk tasks + reduction task | fork-join threads, sequential |
//! | [`fourwins`] | FourWins (Connect-4) AI — Figs 6.2, 6.4 | recursive spawn of move-exploration tasks | fork-join threads, sequential |
//! | [`imageedit`] | ImageEdit filters (edge detection, sharpen, …) — Fig 6.2 | per-block filter tasks | fork-join threads, sequential |
//! | [`ssca2`] | SSCA2 graph construction (STAMP) — Fig 6.4 | per-edge insertion tasks | per-node mutexes ("sync"), sequential |
//! | [`tsp`] | TSP branch-and-bound — Fig 6.4 | recursive spawn with cut-off + atomic best | fork-join threads, sequential |
//! | [`refine`] | Delaunay-style mesh refinement — §7.6 | retryable tasks with dynamic effects | coarse-grained lock, sequential |
//! | [`coloring`] | greedy graph colouring — §7.6 | retryable tasks with dynamic effects | per-node mutexes, sequential |
//!
//! [`util`] provides the shared PRNG and `RegionCell`.
//!
//! Every module exposes a workload generator, the TWE implementation, the
//! baselines the paper compares against, and a validation function used by
//! the test suite to confirm all variants compute the same result.
//! [`service`] is not a paper benchmark: it is the multi-tenant keyed store
//! (per-key / per-tenant-wildcard effects, tenant churn through `DynCell`
//! reclamation) and its sequential oracle, which the service differential
//! and lifecycle tests drive.

#![warn(missing_docs)]

pub mod barneshut;
pub mod coloring;
pub mod fourwins;
pub mod imageedit;
pub mod kmeans;
pub mod montecarlo;
pub mod refine;
pub mod service;
pub mod ssca2;
pub mod tsp;
pub mod util;
