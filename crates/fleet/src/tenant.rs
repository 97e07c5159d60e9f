//! Tenants: a perception stream with a service-level objective and a
//! priority class.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_scenario::{PerceptionPipeline, Scenario};
use npu_tensor::Seconds;

/// Priority class of a tenant. The derived order is admission order:
/// safety-critical tenants admit (and keep their regions) first,
/// best-effort tenants shrink first under preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Safety-critical perception (e.g. the driving stack itself).
    Safety,
    /// Standard service (e.g. a premium teleoperation stream).
    Standard,
    /// Best-effort (e.g. fleet-learning data mining): first to shrink,
    /// first to be rejected.
    BestEffort,
}

impl Priority {
    /// All classes in admission order.
    pub const ALL: [Priority; 3] = [Priority::Safety, Priority::Standard, Priority::BestEffort];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Safety => "safety",
            Priority::Standard => "standard",
            Priority::BestEffort => "best-effort",
        }
    }

    /// Demand multiplier used when apportioning chiplet columns: higher
    /// classes get proportionally more silicon for the same workload, so
    /// an arriving high-priority tenant shrinks best-effort regions
    /// first.
    pub fn weight_boost(self) -> f64 {
        match self {
            Priority::Safety => 4.0,
            Priority::Standard => 2.0,
            Priority::BestEffort => 1.0,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A tenant's service-level objective, verified by the DES during
/// admission: the mean steady-state frame interval must stay at or
/// below `latency_target`, and the p99 frame latency (from the streamed
/// `Quantiles` tails) at or below `p99_bound`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// Steady-interval target (mean side of the SLO).
    pub latency_target: Seconds,
    /// p99 frame-latency bound (tail side of the SLO).
    pub p99_bound: Seconds,
}

impl TenantSlo {
    /// The tail SLO's default headroom over the mean target, matching
    /// the `repro tails` artifact's `TAIL_SLO_MULTIPLIER`.
    pub const TAIL_MULTIPLIER: f64 = 4.0;

    /// Derives the SLO from a scenario: mean target from
    /// [`Scenario::latency_target`], p99 bound at
    /// [`TenantSlo::TAIL_MULTIPLIER`]× that target.
    pub fn from_scenario(scenario: &Scenario) -> TenantSlo {
        let target = scenario.latency_target();
        TenantSlo {
            latency_target: target,
            p99_bound: Seconds::new(target.as_secs() * TenantSlo::TAIL_MULTIPLIER),
        }
    }
}

/// One co-scheduled tenant: a perception stream (camera rig × operating
/// mode) with an SLO and a priority class. In the fleet model a tenant
/// is one vehicle's perception service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tenant {
    /// Unique tenant name (the admission tie-break after priority).
    pub name: String,
    /// The tenant's workload and arrival process.
    pub scenario: Scenario,
    /// The tenant's SLO.
    pub slo: TenantSlo,
    /// The tenant's priority class.
    pub priority: Priority,
}

impl Tenant {
    /// Creates a tenant with the scenario-derived SLO.
    pub fn new(name: impl Into<String>, scenario: Scenario, priority: Priority) -> Tenant {
        let slo = TenantSlo::from_scenario(&scenario);
        Tenant {
            name: name.into(),
            scenario,
            slo,
            priority,
        }
    }

    /// Compute demand in MAC/s: workload MACs per frame × frame rate.
    /// This is the apportionment weight for region partitioning. It
    /// builds the scenario's whole perception pipeline to count its
    /// MACs; the co-scheduler builds each scenario's pipeline once and
    /// applies the same formula to it.
    pub fn demand(&self) -> f64 {
        scenario_demand(&self.scenario, &self.scenario.workload())
    }

    /// Demand boosted by the priority class — the actual apportionment
    /// weight (see [`Priority::weight_boost`]).
    pub fn weighted_demand(&self) -> f64 {
        self.demand() * self.priority.weight_boost()
    }
}

/// A scenario's compute demand in MAC/s, given its built `workload`:
/// MACs per frame × frame rate.
pub(crate) fn scenario_demand(scenario: &Scenario, workload: &PerceptionPipeline) -> f64 {
    let macs = workload.total_macs().as_f64();
    let interval = scenario
        .arrivals()
        .mean_interval()
        .map(|s| s.as_secs())
        .unwrap_or_else(|| scenario.rig.frame_interval_secs());
    macs / interval.max(1e-9)
}

/// The scenario fingerprint: two tenants with equal scenarios match,
/// flatten and simulate identically, and scenarios are equal exactly
/// when their `{:?}` renderings are. Every memo in this crate keys on it.
pub(crate) fn scenario_key(tenant: &Tenant) -> String {
    format!("{:?}", tenant.scenario)
}

/// Why admission control turned a tenant away, carrying the numbers the
/// decision was made on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The package has fewer chiplet columns than co-tenants: no region
    /// partition exists at all.
    NoCapacity {
        /// Co-tenants the partition would need to host.
        tenants: usize,
        /// Columns the package mesh has.
        columns: u32,
    },
    /// The analytic feasibility screen failed: some trial tenant's
    /// matcher-predicted steady interval already misses its mean target,
    /// so the DES never runs.
    AnalyticInfeasible {
        /// The tenant whose screen failed (the candidate, or an
        /// incumbent whose region the candidate would shrink).
        tenant: String,
        /// Matcher-predicted steady interval on the trial region.
        predicted: Seconds,
        /// That tenant's mean target.
        target: Seconds,
    },
    /// DES verification measured a mean-SLO violation in the trial
    /// colocation.
    MeanSloViolated {
        /// The violated tenant (candidate or incumbent).
        tenant: String,
        /// DES-measured steady interval.
        measured: Seconds,
        /// That tenant's mean target.
        target: Seconds,
    },
    /// DES verification measured a tail-SLO violation in the trial
    /// colocation.
    TailSloViolated {
        /// The violated tenant (candidate or incumbent).
        tenant: String,
        /// DES-measured p99 frame latency.
        p99: Seconds,
        /// That tenant's p99 bound.
        bound: Seconds,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NoCapacity { tenants, columns } => {
                write!(f, "no capacity: {tenants} tenants > {columns} columns")
            }
            RejectReason::AnalyticInfeasible {
                tenant,
                predicted,
                target,
            } => write!(
                f,
                "analytic screen: {tenant} predicted {predicted} > target {target}"
            ),
            RejectReason::MeanSloViolated {
                tenant,
                measured,
                target,
            } => write!(
                f,
                "mean SLO: {tenant} measured {measured} > target {target}"
            ),
            RejectReason::TailSloViolated { tenant, p99, bound } => {
                write!(f, "tail SLO: {tenant} p99 {p99} > bound {bound}")
            }
        }
    }
}

/// Sorts tenants into canonical admission order: priority class first
/// (safety before standard before best-effort), then name — so the
/// outcome is invariant under permutation of the input list.
pub fn canonical_order(tenants: &mut [Tenant]) {
    tenants.sort_by(|a, b| {
        a.priority
            .cmp(&b.priority)
            .then_with(|| a.name.cmp(&b.name))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_scenario::{CameraRig, OperatingMode};

    fn tenant(name: &str, priority: Priority) -> Tenant {
        Tenant::new(
            name,
            Scenario::new(name, CameraRig::octa_ring(), OperatingMode::HighwayCruise),
            priority,
        )
    }

    #[test]
    fn priority_orders_safety_first() {
        assert!(Priority::Safety < Priority::Standard);
        assert!(Priority::Standard < Priority::BestEffort);
        assert!(Priority::Safety.weight_boost() > Priority::BestEffort.weight_boost());
    }

    #[test]
    fn canonical_order_is_permutation_invariant() {
        let a = tenant("alpha", Priority::BestEffort);
        let b = tenant("beta", Priority::Safety);
        let c = tenant("gamma", Priority::Safety);
        let mut x = vec![a.clone(), b.clone(), c.clone()];
        let mut y = vec![c, a, b];
        canonical_order(&mut x);
        canonical_order(&mut y);
        assert_eq!(x, y);
        let names: Vec<&str> = x.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["beta", "gamma", "alpha"]);
    }

    #[test]
    fn slo_derives_from_scenario() {
        let t = tenant("t", Priority::Standard);
        assert_eq!(t.slo.latency_target, t.scenario.latency_target());
        assert!(
            (t.slo.p99_bound.as_secs()
                - t.slo.latency_target.as_secs() * TenantSlo::TAIL_MULTIPLIER)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn demand_scales_with_workload_and_rate() {
        let octa = tenant("octa", Priority::Standard);
        let hexa = Tenant::new(
            "hexa",
            Scenario::new(
                "hexa",
                CameraRig::hexa_highway(),
                OperatingMode::HighwayCruise,
            ),
            Priority::Standard,
        );
        assert!(octa.demand() > hexa.demand());
        assert!(
            (octa.weighted_demand() - octa.demand() * 2.0).abs() < 1e-9,
            "standard boost is 2x"
        );
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::TailSloViolated {
            tenant: "t".into(),
            p99: Seconds::from_millis(400.0),
            bound: Seconds::from_millis(100.0),
        };
        let s = format!("{r}");
        assert!(s.contains("tail SLO") && s.contains('t'));
        let json = serde_json::to_string(&r).unwrap();
        let back: RejectReason = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
