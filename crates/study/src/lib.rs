//! One composable query surface for every sweep and design-space
//! exploration in the workspace.
//!
//! The paper's evaluation is a family of independent sweep-and-score
//! grids: the Table I trunk DSE, the Fig. 9–11 chiplet-count / failure /
//! NoP-bandwidth sweeps and the scenario workbench. Each used to be a
//! bespoke free function with its own point struct and its own
//! parallel-fold boilerplate. This crate factors the shared shape into
//! one typed pipeline:
//!
//! * [`Axis`] — a named, ordered list of levels (package geometries,
//!   chiplet counts, NoP bandwidths, trunk variants, failure counts,
//!   scenario families — any `Clone` type);
//! * [`Grid`] — the cartesian product of axes, expanded eagerly in a
//!   deterministic first-axis-major order;
//! * [`Study`] — a grid bound to a cost model; [`Study::run`] fans the
//!   points out on the `npu-par` worker pool, handing every point that
//!   model to call directly, and returns input-ordered, jobs-invariant
//!   results;
//! * [`Objective`] / [`Constraint`] — pluggable scoring and feasibility
//!   predicates over the per-point metrics (latency targets, energy,
//!   EDP, DES-vs-analytic agreement), including serving-style
//!   percentile targets ([`Constraint::tail_at_most`],
//!   [`Objective::minimize_tail`]) over any [`TailLatency`] metrics;
//! * [`StudyRun`] — the executed grid: iterate, filter by constraints,
//!   select the first-best point under an objective;
//! * [`StudyReport`] / [`Render`] — one computed result rendering both
//!   an aligned [`TextTable`] and serde JSON, so CLI front-ends never
//!   recompute an experiment to switch output formats.
//!
//! The legacy entrypoints (`npu_sched::sweep::*`,
//! `npu_sched::dse::explore_trunks`, `npu_scenario::scenario_sweep`)
//! are thin wrappers over this surface, and new queries — like the
//! scenario-aware package DSE — compose it directly.
//!
//! # Examples
//!
//! ```
//! use npu_maestro::{CostModel, FittedMaestro};
//! use npu_study::{Axis, Constraint, Grid, Objective, Study};
//!
//! // A toy two-axis study: PEs x batch, scored by a mock "latency".
//! let grid = Grid::of(Axis::new("pes", vec![64u64, 256]))
//!     .cross(Axis::new("batch", vec![1u64, 4, 8]));
//! assert_eq!(grid.len(), 6);
//!
//! let model = FittedMaestro::new();
//! let run = Study::new("toy", grid, &model)
//!     .run(|&(pes, batch), _model| (batch * 1000 / pes) as f64);
//!
//! // First-best feasible point under a minimizing objective.
//! let fast = Constraint::new("fast enough", |&lat: &f64| lat < 100.0);
//! let best = run
//!     .select(&Objective::minimize("latency", |&lat: &f64| lat), &[fast])
//!     .expect("a feasible point");
//! assert_eq!(run.points()[best], (256, 1));
//! ```

pub mod axis;
pub mod grid;
pub mod objective;
pub mod report;
pub mod study;
pub mod tail;

pub use axis::Axis;
pub use grid::Grid;
pub use objective::{Constraint, Objective};
pub use report::{Render, StudyReport, TextTable};
pub use study::{Study, StudyRun};
pub use tail::{Percentile, TailLatency};
