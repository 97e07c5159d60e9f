//! Anchor crate for the workspace-level test suite and examples.
//!
//! Cargo only discovers `tests/` and `examples/` inside a package, so
//! this otherwise-empty crate wires the workspace-root directories in
//! through explicit `[[test]]` and `[[example]]` path entries in its
//! manifest:
//!
//! - `tests/end_to_end.rs` — full schedule/evaluate/serialize round trips;
//! - `tests/paper_claims.rs` — the paper's headline numbers, pinned;
//! - `tests/des_vs_analytic.rs` — discrete-event vs analytical drift,
//!   including every built-in scenario family of `npu-scenario`;
//! - `tests/cross_crate_properties.rs` — property-based invariants
//!   spanning the component crates;
//! - `tests/par_determinism.rs` — DSE, sweeps and the scenario grid
//!   bit-identical at any `npu-par` worker count;
//! - `examples/*.rs` — the seven runnable walkthroughs listed in the
//!   top-level README (`cargo run --release --example quickstart`, ...).
//!
//! The crate body is intentionally empty: everything interesting lives
//! in those root directories and in the crates they exercise.
