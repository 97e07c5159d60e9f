//! The query runner: a grid bound to a cost model, executed on the
//! worker pool with every point consulting that one model.

use npu_maestro::CostModel;

use crate::grid::Grid;
use crate::objective::{Constraint, Objective};

/// A declarative sweep/DSE query: a [`Grid`] of points plus the cost
/// model every point consults. [`run`] executes the query.
///
/// [`run`]: Study::run
///
/// # Determinism
///
/// Points fan out on the `npu-par` worker pool and come back in input
/// order, and every point asks the same deterministic cost model.
/// Results are therefore bit-identical to a serial run at any jobs
/// count (pin with `npu_par::with_jobs`).
pub struct Study<'m, P> {
    name: String,
    grid: Grid<P>,
    model: &'m dyn CostModel,
}

impl<P: std::fmt::Debug> std::fmt::Debug for Study<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .field("model", &self.model.name())
            .finish()
    }
}

impl<'m, P> Study<'m, P> {
    /// Binds a grid to a cost model under a report-friendly name.
    pub fn new(name: impl Into<String>, grid: Grid<P>, model: &'m dyn CostModel) -> Self {
        Study {
            name: name.into(),
            grid,
            model,
        }
    }

    /// The study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid awaiting execution.
    pub fn grid(&self) -> &Grid<P> {
        &self.grid
    }

    /// Executes the query: `runner` maps every grid point to its metrics
    /// on the `npu-par` worker pool, handing each point the study's own
    /// cost model. The model is called directly, not through a shared
    /// cache: a closed-form layer cost (~44 ns) is cheaper than a hashed,
    /// locked lookup (~400 ns), and worker threads share nothing to
    /// contend on.
    pub fn run<M, F>(self, runner: F) -> StudyRun<P, M>
    where
        P: Sync,
        M: Send,
        F: Fn(&P, &dyn CostModel) -> M + Sync,
    {
        let metrics = npu_par::par_map(self.grid.points(), |point| runner(point, self.model));
        let (axes, points) = self.grid.into_parts();
        StudyRun {
            name: self.name,
            axes,
            points,
            metrics,
        }
    }
}

/// An executed [`Study`]: the expanded points paired with their metrics,
/// in grid order. Selection helpers implement the folds the legacy
/// sweeps hand-rolled: first-minimum argmin with strict `<` tie-breaks,
/// so the winner is independent of the worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRun<P, M> {
    name: String,
    axes: Vec<String>,
    points: Vec<P>,
    metrics: Vec<M>,
}

impl<P, M> StudyRun<P, M> {
    /// The study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Axis names, outermost first.
    pub fn axes(&self) -> &[String] {
        &self.axes
    }

    /// The grid points, in expansion order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Per-point metrics, aligned with [`points`].
    ///
    /// [`points`]: StudyRun::points
    pub fn metrics(&self) -> &[M] {
        &self.metrics
    }

    /// Consumes the run into just the metrics — the shape the legacy
    /// `Vec<SweepPoint>`-returning wrappers expose.
    pub fn into_metrics(self) -> Vec<M> {
        self.metrics
    }

    /// Number of executed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid expanded to nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `(point, metrics)` pairs in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&P, &M)> {
        self.points.iter().zip(&self.metrics)
    }

    /// Which points satisfy **all** constraints, in grid order.
    pub fn feasible(&self, constraints: &[Constraint<M>]) -> Vec<bool> {
        self.metrics
            .iter()
            .map(|m| constraints.iter().all(|c| c.holds(m)))
            .collect()
    }

    /// The first point minimizing the objective score among those
    /// satisfying every constraint; `None` if nothing is feasible.
    /// Ties keep the earliest point (strict `<`), so the selection is
    /// reproducible at any jobs count.
    pub fn select(&self, objective: &Objective<M>, constraints: &[Constraint<M>]) -> Option<usize> {
        self.argmin_by(|_, m| {
            constraints
                .iter()
                .all(|c| c.holds(m))
                .then(|| objective.score(m))
        })
    }

    /// The first point with the strictly smallest `score`; points scored
    /// `None` are skipped (infeasible / unevaluated). This is the exact
    /// fold of the legacy serial DSE loops.
    pub fn argmin_by(&self, score: impl Fn(&P, &M) -> Option<f64>) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (p, m)) in self.iter().enumerate() {
            let Some(s) = score(p, m) else { continue };
            if best.map(|(_, b)| s < b).unwrap_or(true) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use npu_dnn::{Layer, OpKind};
    use npu_maestro::{Accelerator, FittedMaestro};

    fn layer(tokens: u64) -> Layer {
        Layer::intrinsic(
            "probe",
            OpKind::Dense {
                tokens,
                in_features: 64,
                out_features: 64,
            },
        )
    }

    #[test]
    fn run_maps_points_in_order() {
        let model = FittedMaestro::new();
        let grid = Grid::of(Axis::new("x", vec![1u64, 2, 3]));
        let run = Study::new("triple", grid, &model).run(|&x, _| x * 10);
        assert_eq!(run.metrics(), &[10, 20, 30]);
        assert_eq!(run.points(), &[1, 2, 3]);
        assert_eq!(run.axes(), ["x"]);
        assert_eq!(run.name(), "triple");
        assert_eq!(run.len(), 3);
        assert!(!run.is_empty());
    }

    #[test]
    fn every_point_queries_the_studys_model() {
        // The runner is handed the study's model itself: every point's
        // answer is bit-identical to a direct call, at any jobs count.
        let model = FittedMaestro::new();
        let acc = Accelerator::shidiannao_like(256);
        let l = layer(4096);
        let direct = model.layer_cost(&l, &acc).latency.as_secs().to_bits();
        for jobs in [1, 4] {
            let grid = Grid::of(Axis::new("rep", vec![0u8; 8]));
            let run = npu_par::with_jobs(jobs, || {
                Study::new("direct", grid, &model).run(|_, m| {
                    assert_eq!(m.name(), "fitted-maestro");
                    m.layer_cost(&l, &acc).latency.as_secs().to_bits()
                })
            });
            assert!(run.metrics().iter().all(|&b| b == direct));
        }
    }

    #[test]
    fn select_respects_constraints_and_tie_breaks_first() {
        let model = FittedMaestro::new();
        let grid = Grid::of(Axis::new("x", vec![5.0f64, 1.0, 1.0, 3.0]));
        let run = Study::new("sel", grid, &model).run(|&x, _| x);
        let obj = Objective::minimize("x", |&x: &f64| x);
        // Unconstrained: the FIRST of the tied minima wins.
        assert_eq!(run.select(&obj, &[]), Some(1));
        // A constraint can exclude the minimum.
        let not_one = Constraint::new("x != 1", |&x: &f64| x != 1.0);
        assert_eq!(run.select(&obj, &[not_one]), Some(3));
        // Unsatisfiable constraints yield None.
        let never = Constraint::new("never", |_: &f64| false);
        assert_eq!(run.select(&obj, &[never]), None);
    }

    #[test]
    fn argmin_by_skips_none_scores() {
        let model = FittedMaestro::new();
        let grid = Grid::of(Axis::new("x", vec![1u64, 2, 3, 4]));
        let run = Study::new("skip", grid, &model).run(|&x, _| x);
        let idx = run.argmin_by(|_, &m| (m % 2 == 0).then_some(m as f64));
        assert_eq!(idx, Some(1), "smallest even value");
        assert_eq!(run.argmin_by(|_, _| None), None);
    }

    #[test]
    fn feasible_is_per_point() {
        let model = FittedMaestro::new();
        let grid = Grid::of(Axis::new("x", vec![1.0f64, 10.0]));
        let run = Study::new("feas", grid, &model).run(|&x, _| x);
        let c = Constraint::at_most("small", 5.0, |&x: &f64| x);
        assert_eq!(run.feasible(&[c]), vec![true, false]);
    }
}
