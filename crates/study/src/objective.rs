//! Pluggable scoring and feasibility for study results.

/// A named scoring function over per-point metrics. Selection minimizes
/// the score, so lower is always better.
pub struct Objective<M> {
    name: String,
    score: Box<dyn Fn(&M) -> f64 + Send + Sync>,
}

impl<M> Objective<M> {
    /// An objective preferring smaller `f` values.
    pub fn minimize(
        name: impl Into<String>,
        f: impl Fn(&M) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Objective {
            name: name.into(),
            score: Box::new(f),
        }
    }

    /// The objective's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The score of `metrics`: lower is better.
    pub fn score(&self, metrics: &M) -> f64 {
        (self.score)(metrics)
    }
}

impl<M> std::fmt::Debug for Objective<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Objective")
            .field("name", &self.name)
            .finish()
    }
}

/// A named feasibility predicate over per-point metrics: a latency
/// target, an energy budget, a DES-vs-analytic agreement bound.
pub struct Constraint<M> {
    name: String,
    check: Box<dyn Fn(&M) -> bool + Send + Sync>,
}

impl<M> Constraint<M> {
    /// A constraint from an arbitrary predicate.
    pub fn new(name: impl Into<String>, f: impl Fn(&M) -> bool + Send + Sync + 'static) -> Self {
        Constraint {
            name: name.into(),
            check: Box::new(f),
        }
    }

    /// A constraint holding while `f(metrics) <= limit` — the common
    /// latency-target / energy-budget / drift-bound shape.
    pub fn at_most(
        name: impl Into<String>,
        limit: f64,
        f: impl Fn(&M) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Constraint::new(name, move |m| f(m) <= limit)
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `metrics` satisfies the constraint.
    pub fn holds(&self, metrics: &M) -> bool {
        (self.check)(metrics)
    }
}

impl<M> std::fmt::Debug for Constraint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_is_inclusive() {
        let c = Constraint::at_most("latency", 0.085, |&x: &f64| x);
        assert!(c.holds(&0.085));
        assert!(!c.holds(&0.086));
        assert_eq!(c.name(), "latency");
    }

    #[test]
    fn debug_formats_names() {
        let c = Constraint::new("feasible", |_: &u8| true);
        let o = Objective::minimize("edp", |_: &u8| 0.0);
        assert!(format!("{c:?}").contains("feasible"));
        assert!(format!("{o:?}").contains("edp"));
    }
}
