//! Multi-tenant co-scheduling and fleet-scale package-mix DSE.
//!
//! The rest of the workspace answers "how fast does *one* perception
//! pipeline run on *one* package?". This crate asks the serving-side
//! questions on top of that stack:
//!
//! * **Co-scheduling** ([`colocation`]) — partition one package's
//!   chiplet mesh into per-tenant column bands (priority-weighted
//!   D'Hondt apportionment), match each [`Tenant`]'s workload onto its
//!   band with `npu-sched`'s throughput matcher, and verify each tenant
//!   by a DES run of its placement alone (`npu_pipesim::simulate` on one
//!   stream). The bands are disjoint, and `simulate` runs streams that
//!   share no chiplet in engine passes of their own, bit for bit as one
//!   shared calendar would, so this equals one call over all tenants
//!   together and each (band, scenario) placement is simulated only
//!   once.
//! * **Admission control** ([`CoScheduler::admit`]) — deterministic,
//!   two-staged (an analytic screen of each tenant as its band is
//!   matched, stopping at the first failure, then DES verification of
//!   every tenant's mean and p99 SLO), with typed [`RejectReason`]s and an
//!   outcome invariant under permutation of the candidate list.
//! * **Priority preemption** ([`preempt`]) — a high-priority arrival
//!   re-partitions the mesh, shrinking best-effort regions first; every
//!   migrating tenant is charged `npu_sched::rematch_cost` transition
//!   latency and drops the frames that arrive during its spin-up.
//! * **Fleet DSE** ([`fleet`]) — pack a seeded fleet of hundreds of
//!   vehicles onto package instances by one deterministic first-fit
//!   loop, sweep package geometries with a `npu_study::Study` (minimize
//!   fleet silicon subject to a worst-tenant tail constraint), and
//!   compare against a mixed-configuration pool. [`pack_fleet`] is the
//!   loop's one-configuration case and [`pack_fleet_mixed`] its
//!   cost-ordered pool; both memoize failed trial shapes per
//!   configuration.
//!
//! # Examples
//!
//! ```
//! use npu_fleet::{os256_package, CoScheduler, Priority, Tenant};
//! use npu_maestro::FittedMaestro;
//! use npu_scenario::{CameraRig, OperatingMode, Scenario};
//!
//! let model = FittedMaestro::new();
//! let mut sched = CoScheduler::new(os256_package(6, 6), &model).with_verify_frames(24);
//! // Two keyframe-rate quad-rig services sharing one 36-chiplet package.
//! let out = sched.admit(&[
//!     Tenant::new(
//!         "patrol",
//!         Scenario::new(
//!             "patrol",
//!             CameraRig::new(4, (288, 512), 8.0),
//!             OperatingMode::HighwayCruise,
//!         ),
//!         Priority::Standard,
//!     ),
//!     Tenant::new(
//!         "mapper",
//!         Scenario::new(
//!             "mapper",
//!             CameraRig::new(4, (288, 512), 8.0),
//!             OperatingMode::HighwayCruise,
//!         ),
//!         Priority::Standard,
//!     ),
//! ]);
//! // Both admit, splitting the mesh into two three-column bands, and
//! // both SLOs were verified by the DES.
//! assert_eq!(out.admitted(), 2);
//! assert!(out.rejected.is_empty());
//! assert_eq!(out.colocation.placement("patrol").unwrap().region.width(), 3);
//! assert_eq!(out.colocation.placement("mapper").unwrap().region.width(), 3);
//! ```

pub mod colocation;
pub mod fleet;
pub mod preempt;
pub mod tenant;

pub use colocation::{
    apportion_columns, slo_violation, AdmissionOutcome, CoScheduler, Colocation, PlacedSchedule,
    Region, TenantPlacement, VERIFY_FRAMES,
};
pub use fleet::{
    os256_package, pack_fleet, pack_fleet_mixed, FleetSpec, InstanceSummary, MixedPackOutcome,
    PackingOutcome, RejectedVehicle, TenantVerdict, VehicleProfile,
};
pub use preempt::{preemption_event, PreemptionReport, TenantPhases, TenantPhasesSummary};
pub use tenant::{canonical_order, Priority, RejectReason, Tenant, TenantSlo};
