//! Fleet-scale package-mix DSE: which package configurations serve a
//! whole vehicle fleet cheapest.
//!
//! A fleet is hundreds of vehicles, each a [`Tenant`] sampled
//! deterministically from a seeded profile distribution (mixed rigs,
//! mixed drive modes, mixed priority classes). Vehicles are packed onto
//! package *instances* by one deterministic first-fit loop in canonical
//! admission order, over configurations in ascending cost:
//! [`pack_fleet`] is its one-configuration case, [`pack_fleet_mixed`]
//! its cost-ordered pool. Each trial runs the full admission pipeline
//! ([`CoScheduler::try_colocate`]): analytic screen, then a DES check
//! of every co-tenant's mean and p99 SLO. The co-tenants sit on
//! disjoint bands, so each is simulated alone, exactly as in a shared
//! run, and a (band, scenario) placement verified by an earlier trial
//! is not simulated again; a trial shape that failed on a configuration
//! is not tried there again.
//! A [`npu_study::Study`] then sweeps package geometries under
//! `Objective::minimize` fleet chiplet count subject to
//! `Constraint::tail_at_most` on the worst admitted-tenant p99, and a
//! mixed-pool pass checks whether combining configurations beats the
//! best uniform fleet.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use npu_maestro::{Accelerator, CostModel};
use npu_mcm::McmPackage;
use npu_noc::Mesh2d;
use npu_pipesim::PhaseReport;
use npu_scenario::{CameraRig, OperatingMode, Scenario};
use npu_study::{Percentile, TailLatency};

use crate::colocation::{CoScheduler, Colocation};
use crate::tenant::{canonical_order, scenario_key, Priority, RejectReason, Tenant};

/// One vehicle archetype in the fleet distribution: a rig × operating
/// mode (one leg of a drive timeline) with a priority class and a
/// sampling weight.
pub struct VehicleProfile {
    /// Profile name (prefix of sampled vehicle names).
    pub name: &'static str,
    /// Priority class of vehicles drawn from this profile.
    pub priority: Priority,
    /// Relative sampling weight.
    pub weight: f64,
    scenario: fn() -> Scenario,
}

impl VehicleProfile {
    /// The built-in fleet distribution: safety-critical driving stacks
    /// (cruise and degraded legs), standard service streams (urban
    /// ride-hail, highway shuttle) and best-effort data miners.
    ///
    /// Rates are keyframe-perception rates (5-10 FPS), not raw camera
    /// rates: the tails artifact shows full 30 FPS rigs are not
    /// tail-serveable on any single package under the fitted cost
    /// model, so fleet serving runs each vehicle's perception at the
    /// throttled rate its SLO actually needs.
    pub fn catalog() -> Vec<VehicleProfile> {
        vec![
            VehicleProfile {
                name: "av-cruise",
                priority: Priority::Safety,
                weight: 0.28,
                scenario: || {
                    Scenario::new(
                        "av-cruise",
                        CameraRig::new(8, (360, 640), 6.0),
                        OperatingMode::HighwayCruise,
                    )
                },
            },
            VehicleProfile {
                name: "av-degraded",
                priority: Priority::Safety,
                weight: 0.08,
                scenario: || {
                    Scenario::new(
                        "av-degraded",
                        CameraRig::new(8, (360, 640), 6.0),
                        OperatingMode::DegradedDropout { lost_cameras: 3 },
                    )
                },
            },
            VehicleProfile {
                name: "ride-hail",
                priority: Priority::Standard,
                weight: 0.22,
                scenario: || {
                    Scenario::new(
                        "ride-hail",
                        CameraRig::new(8, (360, 640), 5.0),
                        OperatingMode::UrbanDense {
                            jitter_frac: 0.25,
                            seed: 11,
                        },
                    )
                },
            },
            VehicleProfile {
                name: "shuttle",
                priority: Priority::Standard,
                weight: 0.14,
                scenario: || {
                    Scenario::new(
                        "shuttle",
                        CameraRig::new(6, (360, 640), 8.0),
                        OperatingMode::HighwayCruise,
                    )
                },
            },
            VehicleProfile {
                name: "delivery",
                priority: Priority::BestEffort,
                weight: 0.18,
                scenario: || {
                    Scenario::new(
                        "delivery",
                        CameraRig::new(4, (288, 512), 10.0),
                        OperatingMode::HighwayCruise,
                    )
                },
            },
            VehicleProfile {
                name: "mining",
                priority: Priority::BestEffort,
                weight: 0.10,
                scenario: || {
                    Scenario::new(
                        "mining",
                        CameraRig::new(4, (288, 512), 8.0),
                        OperatingMode::UrbanDense {
                            jitter_frac: 0.20,
                            seed: 29,
                        },
                    )
                },
            },
        ]
    }

    /// Instantiates a vehicle of this profile.
    pub fn vehicle(&self, index: usize) -> Tenant {
        Tenant::new(
            format!("{}-{index:03}", self.name),
            (self.scenario)(),
            self.priority,
        )
    }
}

/// A deterministic fleet: `n` vehicles sampled from the profile catalog
/// with a seeded generator, so the same `(n, seed)` always yields the
/// same fleet on any machine at any `--jobs` level.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The sampled vehicles, in sampling order.
    pub vehicles: Vec<Tenant>,
    /// The sampling seed.
    pub seed: u64,
}

impl FleetSpec {
    /// Samples an `n`-vehicle fleet from [`VehicleProfile::catalog`].
    pub fn sample(n: usize, seed: u64) -> FleetSpec {
        let catalog = VehicleProfile::catalog();
        let total: f64 = catalog.iter().map(|p| p.weight).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let vehicles = (0..n)
            .map(|i| {
                let mut r = rng.gen_range(0.0..total);
                let profile = catalog
                    .iter()
                    .find(|p| {
                        r -= p.weight;
                        r < 0.0
                    })
                    .unwrap_or_else(|| catalog.last().expect("catalog non-empty"));
                profile.vehicle(i)
            })
            .collect();
        FleetSpec { vehicles, seed }
    }

    /// Vehicles per priority class, in [`Priority::ALL`] order.
    pub fn class_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for v in &self.vehicles {
            let i = Priority::ALL
                .iter()
                .position(|p| *p == v.priority)
                .expect("class");
            counts[i] += 1;
        }
        counts
    }
}

/// The uniform-pool package for a mesh geometry: OS-dataflow 256-PE
/// chiplets (the workhorse accelerator of the scenario DSE artifacts).
pub fn os256_package(w: u32, h: u32) -> McmPackage {
    McmPackage::from_fn(format!("os256-{w}x{h}"), Mesh2d::new(w, h), |_| {
        Accelerator::shidiannao_like(256)
    })
}

/// One admitted vehicle's verdict on its instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantVerdict {
    /// Vehicle name.
    pub name: String,
    /// Priority label.
    pub priority: String,
    /// Mesh columns of the vehicle's region.
    pub columns: u32,
    /// DES-measured steady interval (ms).
    pub interval_ms: f64,
    /// DES-measured p99 frame latency (ms).
    pub p99_ms: f64,
    /// The vehicle's p99 bound (ms).
    pub p99_bound_ms: f64,
    /// Frames offered in the verification window.
    pub offered: usize,
    /// Frames served.
    pub served: usize,
    /// Frames dropped.
    pub dropped: usize,
}

/// One package instance's final colocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InstanceSummary {
    /// Admitted vehicles, in canonical order.
    pub tenants: Vec<TenantVerdict>,
}

impl InstanceSummary {
    fn from_colocation(colo: &Colocation, reports: &[PhaseReport]) -> InstanceSummary {
        let tenants = colo
            .placements
            .iter()
            .zip(reports)
            .map(|(p, rep)| TenantVerdict {
                name: p.tenant.name.clone(),
                priority: p.tenant.priority.label().to_string(),
                columns: p.region.width(),
                interval_ms: rep.report.steady_interval.as_millis(),
                p99_ms: rep.report.tails.p99.as_millis(),
                p99_bound_ms: p.tenant.slo.p99_bound.as_millis(),
                offered: rep.offered,
                served: rep.served(),
                dropped: rep.dropped,
            })
            .collect();
        InstanceSummary { tenants }
    }
}

/// A rejected vehicle and the typed reason no instance (or a fresh
/// instance) would take it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedVehicle {
    /// Vehicle name.
    pub name: String,
    /// Priority label.
    pub priority: String,
    /// Why solo admission of its shape failed: the reason memoized for
    /// the first vehicle of that (priority, scenario) shape, so a later
    /// clone's reason names the first clone, not itself (all 42 rejected
    /// `av-cruise` vehicles of `repro fleet`'s 4x4 pool cite
    /// `av-cruise-000`).
    pub reason: RejectReason,
}

/// The result of first-fit packing one fleet onto instances of a single
/// package configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingOutcome {
    /// Package configuration name.
    pub config: String,
    /// Chiplets per instance.
    pub chiplets_per_instance: u64,
    /// The packed instances, in creation order.
    pub instances: Vec<InstanceSummary>,
    /// Vehicles no instance could serve.
    pub rejected: Vec<RejectedVehicle>,
}

impl PackingOutcome {
    /// Instances opened.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total fleet silicon: instances × chiplets per instance.
    pub fn total_chiplets(&self) -> u64 {
        self.instances.len() as u64 * self.chiplets_per_instance
    }

    /// Vehicles admitted.
    pub fn admitted(&self) -> usize {
        self.instances.iter().map(|i| i.tenants.len()).sum()
    }

    /// Admitted / offered vehicles.
    pub fn admission_rate(&self) -> f64 {
        let offered = self.admitted() + self.rejected.len();
        if offered == 0 {
            return 1.0;
        }
        self.admitted() as f64 / offered as f64
    }

    /// Worst measured p99 per priority class (ms), in
    /// [`Priority::ALL`] order; `None` where the class has no admitted
    /// vehicle.
    pub fn worst_p99_ms_by_class(&self) -> [Option<f64>; 3] {
        let mut worst = [None; 3];
        for inst in &self.instances {
            for t in &inst.tenants {
                let i = Priority::ALL
                    .iter()
                    .position(|p| p.label() == t.priority)
                    .expect("priority label");
                let slot: &mut Option<f64> = &mut worst[i];
                *slot = Some(slot.map_or(t.p99_ms, |w: f64| w.max(t.p99_ms)));
            }
        }
        worst
    }
}

impl TailLatency for PackingOutcome {
    /// The fleet's worst admitted-tenant tail latency, in seconds —
    /// `Constraint::tail_at_most` on a packing bounds every admitted
    /// vehicle's tail at once.
    fn tail_latency(&self, p: Percentile) -> f64 {
        let pick = |t: &TenantVerdict| match p {
            Percentile::P99 => t.p99_ms / 1e3,
            // Only p99 is carried per vehicle; the finer tails are not
            // part of the fleet SLO surface.
            _ => t.p99_ms / 1e3,
        };
        self.instances
            .iter()
            .flat_map(|i| &i.tenants)
            .map(pick)
            .fold(0.0, f64::max)
    }
}

/// A trial's shape: the (priority, scenario fingerprint) multiset in
/// canonical order. Vehicles are profile clones, so admission verdicts
/// are a function of shape alone; shapes key [`first_fit`]'s failure
/// memo.
fn trial_shape(tenants: &[Tenant]) -> String {
    let parts: Vec<String> = tenants
        .iter()
        .map(|t| format!("{:?}#{}", t.priority, scenario_key(t)))
        .collect();
    parts.join("|")
}

/// One open package instance during first-fit packing.
struct Instance {
    /// Index of the instance's configuration in the packer's schedulers.
    config: usize,
    /// Admitted vehicles, in canonical order.
    tenants: Vec<Tenant>,
    colo: Colocation,
    reports: Vec<PhaseReport>,
}

/// Deterministic first-fit over the configurations in `scheds`, given
/// cheapest first: vehicles in canonical (priority, name) order each
/// probe the open instances by (configuration, creation) order, and a
/// vehicle no open instance admits opens an instance of the first
/// configuration that serves it alone. A vehicle no configuration
/// serves alone is rejected with the last configuration's reason.
///
/// Trial outcomes depend only on the trial's shape (see
/// [`trial_shape`]), not on vehicle names: a fleet is many clones of
/// few profiles, so memoizing failed shapes per configuration collapses
/// the probe cost from one DES per (vehicle, instance) pair to one per
/// distinct shape. A memo hit returns the reason memoized for the first
/// trial of that shape, which names that trial's vehicles.
fn first_fit(
    fleet: &[Tenant],
    scheds: &mut [CoScheduler<'_>],
) -> (Vec<Instance>, Vec<(Tenant, RejectReason)>) {
    let configs = scheds.len();
    let mut failed: Vec<BTreeMap<String, RejectReason>> = vec![BTreeMap::new(); configs];
    let mut trial = |config: usize, tenants: &[Tenant]| {
        let key = trial_shape(tenants);
        if let Some(reason) = failed[config].get(&key) {
            return Err(reason.clone());
        }
        scheds[config].try_colocate(tenants).inspect_err(|reason| {
            failed[config].insert(key, reason.clone());
        })
    };
    let mut ordered = fleet.to_vec();
    canonical_order(&mut ordered);
    let mut instances: Vec<Instance> = Vec::new();
    let mut rejected = Vec::new();
    for vehicle in ordered {
        let mut probe: Vec<usize> = (0..instances.len()).collect();
        probe.sort_by_key(|&i| (instances[i].config, i));
        let placed = probe.into_iter().find_map(|i| {
            let mut tenants = instances[i].tenants.clone();
            tenants.push(vehicle.clone());
            canonical_order(&mut tenants);
            let (colo, reports) = trial(instances[i].config, &tenants).ok()?;
            Some((i, tenants, colo, reports))
        });
        if let Some((i, tenants, colo, reports)) = placed {
            let grown = &mut instances[i];
            (grown.tenants, grown.colo, grown.reports) = (tenants, colo, reports);
            continue;
        }
        // An empty pool has no column to offer.
        let mut verdict = Err(RejectReason::NoCapacity {
            tenants: 1,
            columns: 0,
        });
        for config in 0..configs {
            verdict = trial(config, std::slice::from_ref(&vehicle)).map(|ok| (config, ok));
            if verdict.is_ok() {
                break;
            }
        }
        match verdict {
            Ok((config, (colo, reports))) => instances.push(Instance {
                config,
                tenants: vec![vehicle],
                colo,
                reports,
            }),
            Err(reason) => rejected.push((vehicle, reason)),
        }
    }
    (instances, rejected)
}

/// Packs a fleet onto instances of one package configuration: the
/// one-configuration case of the first-fit loop [`pack_fleet_mixed`]
/// also runs. Vehicles in canonical (priority, name) order each probe
/// the existing instances in creation order, and a vehicle none admits
/// opens a new instance. A vehicle whose **solo** admission on a fresh
/// instance fails is rejected with the reason memoized for its shape,
/// which names the first clone of that shape (see
/// [`RejectedVehicle::reason`]).
pub fn pack_fleet(
    fleet: &[Tenant],
    pkg: &McmPackage,
    model: &dyn CostModel,
    verify_frames: usize,
) -> PackingOutcome {
    let mut scheds = [CoScheduler::new(pkg.clone(), model).with_verify_frames(verify_frames)];
    let (instances, rejected) = first_fit(fleet, &mut scheds);
    PackingOutcome {
        config: pkg.name().to_string(),
        chiplets_per_instance: pkg.len() as u64,
        instances: instances
            .iter()
            .map(|i| InstanceSummary::from_colocation(&i.colo, &i.reports))
            .collect(),
        rejected: rejected
            .into_iter()
            .map(|(vehicle, reason)| RejectedVehicle {
                priority: vehicle.priority.label().to_string(),
                name: vehicle.name,
                reason,
            })
            .collect(),
    }
}

/// The result of mixed-pool packing: instances drawn from several
/// configurations, cheapest-first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedPackOutcome {
    /// Instances per configuration name, in ascending-cost config
    /// order (only configs with at least one instance).
    pub mix: Vec<(String, usize)>,
    /// Total fleet silicon across the pool.
    pub total_chiplets: u64,
    /// Vehicles admitted.
    pub admitted: usize,
    /// Vehicles rejected everywhere.
    pub rejected: usize,
}

/// Packs a fleet onto a mixed pool by the first-fit loop of
/// [`pack_fleet`], over the geometries' [`os256_package`]s in ascending
/// chiplet count (ties in input order): vehicles probe every open
/// instance cheapest-config first, then in creation order, and a vehicle
/// no open instance admits opens a fresh instance of the **cheapest**
/// configuration that can serve it alone.
pub fn pack_fleet_mixed(
    fleet: &[Tenant],
    geometries: &[(u32, u32)],
    model: &dyn CostModel,
    verify_frames: usize,
) -> MixedPackOutcome {
    let mut geometries = geometries.to_vec();
    geometries.sort_by_key(|&(w, h)| w * h);
    let mut scheds: Vec<CoScheduler<'_>> = geometries
        .iter()
        .map(|&(w, h)| {
            CoScheduler::new(os256_package(w, h), model).with_verify_frames(verify_frames)
        })
        .collect();
    let (instances, rejected) = first_fit(fleet, &mut scheds);

    let mut mix = Vec::new();
    let mut total_chiplets = 0u64;
    for (config, sched) in scheds.iter().enumerate() {
        let count = instances.iter().filter(|i| i.config == config).count();
        total_chiplets += count as u64 * sched.package().len() as u64;
        if count > 0 {
            mix.push((sched.package().name().to_string(), count));
        }
    }
    MixedPackOutcome {
        mix,
        total_chiplets,
        admitted: instances.iter().map(|i| i.tenants.len()).sum(),
        rejected: rejected.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_maestro::FittedMaestro;

    #[test]
    fn fleet_sampling_is_deterministic_and_mixed() {
        let a = FleetSpec::sample(100, 2025);
        let b = FleetSpec::sample(100, 2025);
        assert_eq!(a, b);
        assert_eq!(a.vehicles.len(), 100);
        let counts = a.class_counts();
        assert!(
            counts.iter().all(|&c| c > 0),
            "all classes present: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // A different seed yields a different fleet.
        let c = FleetSpec::sample(100, 7);
        assert_ne!(a, c);
        // Names are unique and profile-prefixed.
        let mut names: Vec<&str> = a.vehicles.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 100);
    }

    #[test]
    fn packing_accounts_for_every_vehicle() {
        let model = FittedMaestro::new();
        let fleet = FleetSpec::sample(12, 2025);
        let out = pack_fleet(&fleet.vehicles, &os256_package(6, 6), &model, 24);
        assert_eq!(out.admitted() + out.rejected.len(), 12);
        assert!(
            out.instance_count() > 1,
            "12 vehicles need several packages"
        );
        assert_eq!(out.total_chiplets(), out.instance_count() as u64 * 36);
        let mut worst = 0.0f64;
        for inst in &out.instances {
            for t in &inst.tenants {
                // Frame balance and the per-tenant tail bound both hold
                // for every admitted vehicle.
                assert_eq!(t.offered, t.served + t.dropped);
                assert_eq!(t.offered, 24);
                assert!(
                    t.p99_ms <= t.p99_bound_ms,
                    "{}: {} > {}",
                    t.name,
                    t.p99_ms,
                    t.p99_bound_ms
                );
                worst = worst.max(t.p99_ms);
            }
        }
        assert!((out.tail_latency(Percentile::P99) - worst / 1e3).abs() < 1e-12);
    }

    #[test]
    fn packing_is_deterministic_and_input_order_invariant() {
        let model = FittedMaestro::new();
        let fleet = FleetSpec::sample(10, 2025);
        let mut shuffled = fleet.vehicles.clone();
        shuffled.reverse();
        shuffled.swap(1, 7);
        let a = pack_fleet(&fleet.vehicles, &os256_package(6, 6), &model, 16);
        let b = pack_fleet(&shuffled, &os256_package(6, 6), &model, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_pool_never_costs_more_than_its_uniform_parts() {
        let model = FittedMaestro::new();
        let fleet = FleetSpec::sample(10, 2025);
        let geoms = [(6, 6), (5, 5)];
        let mixed = pack_fleet_mixed(&fleet.vehicles, &geoms, &model, 16);
        assert_eq!(mixed.admitted + mixed.rejected, 10);
        assert!(!mixed.mix.is_empty());
        // The pool admits at least as many vehicles as the best uniform
        // config alone.
        let uniform_best = geoms
            .iter()
            .map(|&(w, h)| pack_fleet(&fleet.vehicles, &os256_package(w, h), &model, 16).admitted())
            .max()
            .unwrap();
        assert!(mixed.admitted >= uniform_best);
    }

    #[test]
    fn a_one_geometry_pool_packs_like_pack_fleet() {
        let model = FittedMaestro::new();
        let fleet = FleetSpec::sample(10, 2025);
        for (w, h) in [(6, 6), (4, 4)] {
            let uniform = pack_fleet(&fleet.vehicles, &os256_package(w, h), &model, 16);
            let mixed = pack_fleet_mixed(&fleet.vehicles, &[(w, h)], &model, 16);
            assert_eq!(mixed.admitted, uniform.admitted(), "{w}x{h}");
            assert_eq!(mixed.rejected, uniform.rejected.len(), "{w}x{h}");
            assert_eq!(mixed.total_chiplets, uniform.total_chiplets(), "{w}x{h}");
            assert_eq!(
                mixed.mix,
                [(uniform.config.clone(), uniform.instance_count())],
                "{w}x{h}"
            );
        }
    }
}
