//! Regeneration of every table and figure in the paper's evaluation.
//!
//! One module per experiment; each exposes a `run()` returning a typed
//! result that renders itself as an aligned text table with the paper's
//! reference values alongside our measured ones. The `repro` binary
//! lists every `run()` in its artifact table; the criterion benches call
//! them directly.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 3 — per-component OS/WS breakdown | [`fig3`] |
//! | Fig. 4 — per-layer OS/WS affinities | [`fig4`] |
//! | Figs. 5–8 — stage mappings on the 6×6 MCM | [`fig5to8`] |
//! | Fig. 9 — NoP data-movement costs | [`fig9`] |
//! | Fig. 10 — scaling to two NPUs (72 chiplets) | [`fig10`] |
//! | Fig. 11 — context-aware lane computing | [`fig11`] |
//! | Table I — heterogeneous trunk integration | [`table1`] |
//! | Table II — chiplet arrangements vs baselines | [`table2`] |
//! | Table III — occupancy upsampling ablation | [`table3`] |
//! | Ablations (scheduler / dataflow / cost model) | [`ablations`] |
//! | Extension sweeps (scaling, failure injection) | [`ext_sweeps`] |
//! | Scenario workbench (driving workload envelope) | [`scenarios`] |
//! | Scenario-aware package DSE (cheapest feasible package) | [`scenario_dse`] |
//! | Drive timelines (online mode switching, re-match + drops) | [`drive`] |
//! | Long drive timeline (minute-scale legs, tail resolution) | [`drive_long`] |
//! | Tail-latency DSE (p99 SLO vs mean package choice) | [`tails`] |
//! | Fleet serving DSE (multi-tenant package mix, preemption) | [`fleet`] |
//! | Static analysis (determinism & panic-safety lint report) | [`lint`] |
//!
//! # Examples
//!
//! ```
//! let fig3 = npu_experiments::fig3::run();
//! // OS is ~6.85x faster across the perception workloads (paper §III-A).
//! assert!(fig3.os_speedup > 5.0);
//! ```

pub mod ablations;
pub mod drive;
pub mod drive_long;
pub mod ext_sweeps;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5to8;
pub mod fig9;
pub mod fleet;
pub mod lint;
pub mod scenario_dse;
pub mod scenarios;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tails;
mod text;
