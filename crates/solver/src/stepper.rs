//! Time integration over an entire adaptive block grid.
//!
//! A [`Stepper`] is the *serial executor* over the shared
//! [`SweepEngine`], which owns the cached
//! ghost-exchange plan and the RHS/stage scratch; the grid itself stays a
//! plain data structure. Construction takes a
//! [`SolverConfig`] — the same bundle the
//! shared-memory and distributed executors in `ablock-par` and the AMR
//! driver consume — so physics, scheme, time integrator, CFL, refluxing,
//! and the metrics sink are chosen once:
//!
//! ```
//! use ablock_solver::{Euler, Scheme, SolverConfig, Stepper};
//!
//! let cfg = SolverConfig::new(Euler::<1>::new(1.4), Scheme::muscl_rusanov());
//! let mut st: Stepper<1, _> = Stepper::new(cfg);
//! # let _ = &mut st;
//! ```
//!
//! The plan cache is keyed on the grid's
//! [topology epoch](BlockGrid::epoch): adapting the grid bumps the epoch
//! and the next step rebuilds automatically — no manual invalidation on
//! the hot path. That is the paper's amortization argument (adaptation is
//! infrequent, stepping is hot) made safe by construction. For
//! out-of-band changes the epoch cannot see, the engine's
//! [`invalidate`](crate::engine::SweepEngine::invalidate) (via
//! [`Stepper::engine_mut`]) is the single escape hatch.
//!
//! Integrators: forward Euler and Heun's 2-stage SSP-RK2 (matching the
//! second-order MUSCL spatial scheme). When the config carries a
//! recording [`Metrics`] sink, each step reports
//! `ghost_fill`/`flux`/`reflux`/`update` phase spans; with the default
//! null sink the instrumentation is a branch per phase and results are
//! bitwise identical (asserted by `tests/metrics_obs.rs`).

use ablock_core::arena::BlockId;
use ablock_core::ghost::{GhostConfig, GhostExchange};
use ablock_core::grid::BlockGrid;
use ablock_obs::{phase, Metrics};

use crate::config::{SolverConfig, TimeStepMode};
use crate::engine::{fe_update_block, rk2_stage1_block, rk2_stage2_block, SweepEngine};
use crate::kernel::{compute_rhs_block_fluxes, max_rate_block, Scheme};
use crate::physics::Physics;
use crate::reflux::reflux_rhs;
use crate::subcycle::SubcycleState;

pub use crate::engine::BcFn;

/// Time integrator choice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeScheme {
    /// Forward Euler (first order in time).
    ForwardEuler,
    /// Heun / SSP-RK2 (second order in time).
    SspRk2,
}

/// Serial executor: drives steps of `∂u/∂t = L(u)` on a block grid over a
/// [`SweepEngine`] (which owns plan cache and scratch). It is the bitwise
/// reference the parallel executors, which overlap their ghost exchange
/// with the sweep, are differentially tested against.
pub struct Stepper<const D: usize, P: Physics> {
    cfg: SolverConfig<P>,
    engine: SweepEngine<D>,
    sub: SubcycleState<D>,
    /// Cells clamped by positivity floors since construction.
    pub floored_cells: usize,
    /// Interface flux evaluations since construction.
    pub flux_evals: usize,
}

impl<const D: usize, P: Physics> Stepper<D, P> {
    /// New stepper from a [`SolverConfig`] (time scheme, CFL, refluxing,
    /// ghost config, and metrics sink all come from it).
    pub fn new(cfg: SolverConfig<P>) -> Self {
        let engine = cfg.engine();
        Stepper { cfg, engine, sub: SubcycleState::new(), floored_cells: 0, flux_evals: 0 }
    }

    /// Split-borrow the config and engine for the subcycled driver
    /// (`crate::subcycle`), which needs both at once.
    pub(crate) fn cfg_engine_mut(&mut self) -> (&SolverConfig<P>, &mut SweepEngine<D>) {
        (&self.cfg, &mut self.engine)
    }

    /// The subcycling scratch, taken out with `mem::take` for the
    /// duration of driver calls (the driver borrows the stepper as the
    /// backend, so the state cannot stay behind `self`).
    pub(crate) fn sub_state(&mut self) -> &mut SubcycleState<D> {
        &mut self.sub
    }

    /// The configuration this stepper was built from.
    pub fn config(&self) -> &SolverConfig<P> {
        &self.cfg
    }

    /// The physics being integrated.
    pub fn physics(&self) -> &P {
        &self.cfg.physics
    }

    /// The spatial scheme.
    pub fn scheme(&self) -> Scheme {
        self.cfg.scheme
    }

    /// The ghost config in effect (from the [`SolverConfig`]).
    pub fn ghost_config(&self) -> GhostConfig {
        self.cfg.ghost.clone()
    }

    /// The metrics sink in effect (null unless the config installed one).
    pub fn metrics(&self) -> &Metrics {
        &self.cfg.metrics
    }

    /// The underlying sweep engine (plan cache stats, scratch).
    pub fn engine(&self) -> &SweepEngine<D> {
        &self.engine
    }

    /// Mutable engine access — the single escape hatch for out-of-band
    /// invalidation ([`SweepEngine::invalidate`]); never needed after
    /// grid adaptation (the topology epoch covers that).
    pub fn engine_mut(&mut self) -> &mut SweepEngine<D> {
        &mut self.engine
    }

    /// Access the cached exchange plan (revalidating it first).
    pub fn exchange<'a>(&'a mut self, grid: &BlockGrid<D>) -> &'a GhostExchange<D> {
        self.engine.revalidate(grid);
        self.engine.plan()
    }

    /// Fill ghosts with the cached plan.
    pub fn fill_ghosts(&mut self, grid: &mut BlockGrid<D>, bc: Option<&BcFn<D>>) {
        self.engine.fill_ghosts(grid, bc);
    }

    /// Largest stable `dt` (global CFL reduction over all blocks, using
    /// the config's CFL number).
    pub fn max_dt(&self, grid: &BlockGrid<D>) -> f64 {
        let mut rate: f64 = 0.0;
        for (_, node) in grid.blocks() {
            let h = grid.layout().cell_size(node.key().level, grid.params().block_dims);
            rate = rate.max(max_rate_block(&self.cfg.physics, node.field(), h));
        }
        if rate > 0.0 {
            self.cfg.cfl / rate
        } else {
            f64::INFINITY
        }
    }

    /// Evaluate `L(u)` into the engine's rhs scratch for every block.
    /// Ghosts are filled first. Returns ids processed.
    fn eval_rhs(&mut self, grid: &mut BlockGrid<D>, bc: Option<&BcFn<D>>) -> Vec<BlockId> {
        grid.ensure_geometry(&self.cfg.geometry);
        self.engine.fill_ghosts(grid, bc);
        let ids = grid.block_ids();
        {
            let _span = self.cfg.metrics.span(phase::FLUX);
            let sw = self.engine.sweep();
            for &id in &ids {
                let node = grid.block(id);
                let h = grid.layout().cell_size(node.key().level, grid.params().block_dims);
                let store = if self.cfg.refluxing {
                    Some(&mut sw.flux_stores[id.index()])
                } else {
                    None
                };
                self.flux_evals += compute_rhs_block_fluxes(
                    &self.cfg.physics,
                    self.cfg.scheme,
                    node.field(),
                    h,
                    &mut sw.rhs[id.index()],
                    sw.prim_scratch,
                    store,
                );
            }
        }
        if self.cfg.refluxing {
            let _span = self.cfg.metrics.span(phase::REFLUX);
            let sw = self.engine.sweep();
            reflux_rhs(grid, sw.flux_stores, sw.rhs);
        }
        ids
    }

    /// Advance the grid by `dt` with the configured integrator. Under
    /// [`TimeStepMode::Subcycled`], `dt` is the coarsest-level `dt₀` and
    /// finer levels take halved substeps (see [`crate::subcycle`]).
    pub fn step(&mut self, grid: &mut BlockGrid<D>, dt: f64, bc: Option<&BcFn<D>>) {
        grid.ensure_geometry(&self.cfg.geometry);
        if self.cfg.time_step_mode == TimeStepMode::Subcycled {
            return self.step_subcycled(grid, dt, bc);
        }
        match self.cfg.time_scheme {
            TimeScheme::ForwardEuler => self.step_fe(grid, dt, bc),
            TimeScheme::SspRk2 => self.step_rk2(grid, dt, bc),
        }
    }

    /// One forward-Euler step.
    pub fn step_fe(&mut self, grid: &mut BlockGrid<D>, dt: f64, bc: Option<&BcFn<D>>) {
        let ids = self.eval_rhs(grid, bc);
        let _span = self.cfg.metrics.span(phase::UPDATE);
        let sw = self.engine.sweep();
        for id in ids {
            let node = grid.block_mut(id);
            self.floored_cells +=
                fe_update_block(&self.cfg.physics, node.field_mut(), &sw.rhs[id.index()], dt);
        }
    }

    /// One Heun (SSP-RK2) step: `u* = u + dt L(u)`,
    /// `u^{n+1} = ½u + ½(u* + dt L(u*))`.
    pub fn step_rk2(&mut self, grid: &mut BlockGrid<D>, dt: f64, bc: Option<&BcFn<D>>) {
        // stage 1: save u^n, then overwrite grid with u*
        let ids = self.eval_rhs(grid, bc);
        {
            let _span = self.cfg.metrics.span(phase::UPDATE);
            let sw = self.engine.sweep();
            for &id in &ids {
                let node = grid.block_mut(id);
                self.floored_cells += rk2_stage1_block(
                    &self.cfg.physics,
                    node.field_mut(),
                    &sw.rhs[id.index()],
                    &mut sw.stage[id.index()],
                    dt,
                );
            }
        }
        // stage 2 (ghosts refilled for u*)
        let ids = self.eval_rhs(grid, bc);
        let _span = self.cfg.metrics.span(phase::UPDATE);
        let sw = self.engine.sweep();
        for id in ids {
            let node = grid.block_mut(id);
            self.floored_cells += rk2_stage2_block(
                &self.cfg.physics,
                node.field_mut(),
                &sw.rhs[id.index()],
                &sw.stage[id.index()],
                dt,
            );
        }
    }

    /// Advance to `t_end` with CFL-limited steps; returns steps taken.
    pub fn run_until(
        &mut self,
        grid: &mut BlockGrid<D>,
        t0: f64,
        t_end: f64,
        bc: Option<&BcFn<D>>,
    ) -> usize {
        // Install the config's geometry before the first CFL scan so solid
        // cells never constrain dt.
        grid.ensure_geometry(&self.cfg.geometry);
        let mut t = t0;
        let mut steps = 0;
        while t < t_end - 1e-14 {
            let dt = self.stable_dt(grid).min(t_end - t);
            assert!(dt.is_finite() && dt > 0.0, "non-positive dt at t = {t}");
            self.step(grid, dt, bc);
            t += dt;
            steps += 1;
            assert!(steps < 1_000_000, "step explosion before t_end");
        }
        steps
    }
}

/// Volume-weighted total of one conserved variable over the grid
/// (conservation diagnostics in tests and EXPERIMENTS.md).
pub fn total_conserved<const D: usize>(grid: &BlockGrid<D>, v: usize) -> f64 {
    let m = grid.params().block_dims;
    grid.blocks()
        .map(|(_, n)| {
            let h = grid.layout().cell_size(n.key().level, m);
            let vol: f64 = h.iter().product();
            n.field().interior_sum(v) * vol
        })
        .sum()
}

/// Volume-weighted total of one conserved variable over the *fluid* cells
/// only — the conserved quantity on grids with an immersed solid geometry
/// (solid faces are reflective walls, so nothing crosses them; see
/// DESIGN.md §18). Identical to [`total_conserved`] on maskless grids,
/// including the summation order.
pub fn total_conserved_fluid<const D: usize>(grid: &BlockGrid<D>, v: usize) -> f64 {
    let m = grid.params().block_dims;
    grid.blocks()
        .map(|(_, n)| {
            let h = grid.layout().cell_size(n.key().level, m);
            let vol: f64 = h.iter().product();
            let f = n.field();
            match f.mask() {
                None => f.interior_sum(v) * vol,
                Some(mask) => {
                    let shape = *f.shape();
                    let ps = shape.plane_stride();
                    let data = f.as_slice();
                    let mut s = 0.0;
                    for c in shape.interior_box().iter() {
                        let i = shape.lin(c);
                        if mask[i] != 0.0 {
                            continue;
                        }
                        s += data[v * ps + i];
                    }
                    s * vol
                }
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_core::ops::ProlongOrder;

    fn periodic_grid_1d(nblocks: i64, m: i64) -> BlockGrid<1> {
        BlockGrid::new(
            RootLayout::unit([nblocks], Boundary::Periodic),
            GridParams::new([m], 2, 3, 3),
        )
    }

    fn set_sine_density(grid: &mut BlockGrid<1>, e: &Euler<1>, v0: f64) {
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        for id in grid.block_ids() {
            let key = grid.block(id).key();
            let e = e.clone();
            grid.block_mut(id).field_mut().for_each_interior(|c, u| {
                let x = layout.cell_center(key, m, c)[0];
                let w = [1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin(), v0, 1.0];
                e.prim_to_cons(&w, u);
            });
        }
    }

    #[test]
    fn uniform_flow_is_steady() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        for id in g.block_ids() {
            let e = e.clone();
            g.block_mut(id).field_mut().for_each_interior(|_, u| {
                e.prim_to_cons(&[1.0, 0.5, 1.0], u);
            });
        }
        let mut st =
            Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()).with_cfl(0.5));
        let before = total_conserved(&g, 0);
        for _ in 0..10 {
            let dt = st.max_dt(&g);
            st.step(&mut g, dt, None);
        }
        for (_, n) in g.blocks() {
            for c in n.field().shape().interior_box().iter() {
                assert!((n.field().at(c, 0) - 1.0).abs() < 1e-12);
            }
        }
        assert!((total_conserved(&g, 0) - before).abs() < 1e-13);
    }

    #[test]
    fn conservation_on_periodic_domain() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        set_sine_density(&mut g, &e, 0.7);
        let m0 = total_conserved(&g, 0);
        let e0 = total_conserved(&g, 2);
        let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        st.run_until(&mut g, 0.0, 0.2, None);
        assert!((total_conserved(&g, 0) - m0).abs() < 1e-12 * m0.abs());
        assert!((total_conserved(&g, 2) - e0).abs() < 1e-12 * e0.abs());
    }

    #[test]
    fn advected_sine_returns_after_period() {
        // At uniform velocity and uniform pressure, a small density wave is
        // advected; after one domain crossing it must be close to the
        // initial state (2nd order => small error at this resolution).
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(8, 8); // 64 cells
        set_sine_density(&mut g, &e, 1.0);
        let snapshot: Vec<f64> = g
            .block_ids()
            .iter()
            .flat_map(|&id| {
                let f = g.block(id).field();
                f.shape()
                    .interior_box()
                    .iter()
                    .map(|c| f.at(c, 0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        st.run_until(&mut g, 0.0, 1.0, None);
        let after: Vec<f64> = g
            .block_ids()
            .iter()
            .flat_map(|&id| {
                let f = g.block(id).field();
                f.shape()
                    .interior_box()
                    .iter()
                    .map(|c| f.at(c, 0))
                    .collect::<Vec<_>>()
            })
            .collect();
        let err: f64 = snapshot
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / snapshot.len() as f64;
        assert!(err < 0.01, "L1 error after one period: {err}");
    }

    #[test]
    fn refined_grid_conserves() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        set_sine_density(&mut g, &e, 0.5);
        // refine one block (conservatively)
        let id = g.find(BlockKey::new(0, [1])).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        let m0 = total_conserved(&g, 0);
        let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        st.run_until(&mut g, 0.0, 0.1, None);
        let m1 = total_conserved(&g, 0);
        // flux mismatch at coarse-fine faces is the known first-order AMR
        // conservation defect; bound it tightly
        assert!(
            (m1 - m0).abs() < 5e-4 * m0.abs(),
            "mass drift too large: {m0} -> {m1}"
        );
    }

    #[test]
    fn rk2_beats_fe_on_smooth_advection() {
        // L1 error against the exact translated profile after one domain
        // crossing: SSP-RK2 must not lose to forward Euler.
        let l1_err = |ts: TimeScheme| {
            let e = Euler::<1>::new(1.4);
            let mut g = periodic_grid_1d(8, 8);
            set_sine_density(&mut g, &e, 1.0);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_time_scheme(ts)
                .with_cfl(0.3);
            let mut st = Stepper::new(cfg);
            st.run_until(&mut g, 0.0, 1.0, None);
            let m = g.params().block_dims;
            let layout = g.layout().clone();
            let mut err = 0.0;
            let mut n_cells = 0usize;
            for (_, node) in g.blocks() {
                for c in node.field().shape().interior_box().iter() {
                    let x = layout.cell_center(node.key(), m, c)[0];
                    let exact = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin();
                    err += (node.field().at(c, 0) - exact).abs();
                    n_cells += 1;
                }
            }
            err / n_cells as f64
        };
        let fe = l1_err(TimeScheme::ForwardEuler);
        let rk = l1_err(TimeScheme::SspRk2);
        assert!(rk <= fe * 1.02, "rk err {rk} vs fe err {fe}");
        assert!(rk < 0.02, "rk err too large: {rk}");
    }

    #[test]
    fn refluxing_makes_refined_runs_exactly_conservative() {
        // Same refined-grid advection as `refined_grid_conserves`, but with
        // flux correction on: the drift collapses from ~1e-4 to roundoff.
        let run = |reflux: bool| -> f64 {
            let e = Euler::<1>::new(1.4);
            let mut g = periodic_grid_1d(4, 8);
            set_sine_density(&mut g, &e, 0.5);
            let id = g.find(BlockKey::new(0, [1])).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
            let m0 = total_conserved(&g, 0);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov()).with_refluxing(reflux);
            let mut st = Stepper::new(cfg);
            st.run_until(&mut g, 0.0, 0.1, None);
            (total_conserved(&g, 0) - m0).abs() / m0.abs()
        };
        let with = run(true);
        let without = run(false);
        assert!(with < 1e-13, "refluxed drift {with}");
        assert!(without > 1e-8, "control must show the defect: {without}");
        assert!(with < without / 1e3);
    }

    #[test]
    fn refluxing_conserves_in_2d_with_wrapped_faces() {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([8, 8], 2, 4, 2),
        );
        crate::problems::advected_gaussian(&mut g, &e, [0.6, -0.3], [0.5, 0.5], 0.15);
        let id = g.find(BlockKey::new(0, [1, 1])).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        let m0 = total_conserved(&g, 0);
        let e0 = total_conserved(&g, 3);
        let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_cfl(0.35);
        let mut st = Stepper::new(cfg);
        st.run_until(&mut g, 0.0, 0.05, None);
        assert!((total_conserved(&g, 0) - m0).abs() < 1e-12 * m0.abs());
        assert!((total_conserved(&g, 3) - e0).abs() < 1e-12 * e0.abs());
    }

    #[test]
    fn immersed_solid_conserves_fluid_mass_and_energy_exactly() {
        // A sphere in a periodic 2D flow: solid faces are reflective
        // walls whose mass/energy flux components are exactly ±0.0, so
        // fluid-cell totals of rho and E must hold to the last ulp, the
        // solid interior must stay bitwise frozen, and the mask
        // invariants must survive the run.
        use ablock_core::geom::Geometry;
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([8, 8], 2, 4, 2),
        );
        crate::problems::advected_gaussian(&mut g, &e, [0.6, -0.4], [0.25, 0.25], 0.1);
        let geom = Geometry::sphere([0.65, 0.6, 0.0], 0.18);
        let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_geometry(geom)
            .with_cfl(0.3);
        let mut st = Stepper::new(cfg);
        // install the geometry (first step does it), then baseline totals
        st.step(&mut g, 1e-4, None);
        ablock_core::verify::check_grid(&g).unwrap();
        let frozen: Vec<(ablock_core::arena::BlockId, Vec<u64>)> = g
            .blocks()
            .map(|(id, n)| {
                let f = n.field();
                let bits = f
                    .shape()
                    .interior_box()
                    .iter()
                    .filter(|&c| f.is_solid(c))
                    .flat_map(|c| (0..4).map(move |v| (c, v)))
                    .map(|(c, v)| f.at(c, v).to_bits())
                    .collect();
                (id, bits)
            })
            .collect();
        assert!(frozen.iter().any(|(_, b)| !b.is_empty()), "sphere must cover cells");
        let m0 = total_conserved_fluid(&g, 0);
        let e0 = total_conserved_fluid(&g, 3);
        st.run_until(&mut g, 0.0, 0.02, None);
        let m1 = total_conserved_fluid(&g, 0);
        let e1 = total_conserved_fluid(&g, 3);
        assert!((m1 - m0).abs() < 1e-13 * m0.abs(), "mass drift {m0} -> {m1}");
        assert!((e1 - e0).abs() < 1e-13 * e0.abs(), "energy drift {e0} -> {e1}");
        for (id, bits) in frozen {
            let f = g.block(id).field();
            let now: Vec<u64> = f
                .shape()
                .interior_box()
                .iter()
                .filter(|&c| f.is_solid(c))
                .flat_map(|c| (0..4).map(move |v| (c, v)))
                .map(|(c, v)| f.at(c, v).to_bits())
                .collect();
            assert_eq!(bits, now, "solid cells must stay bitwise frozen");
        }
        ablock_core::verify::check_grid(&g).unwrap();
    }

    #[test]
    fn immersed_solid_conserves_on_refined_subcycled_grid() {
        // Same sphere, but with a refined block overlapping the body and
        // subcycled time stepping: the wall treatment must stay exactly
        // conservative through prolongation, restriction, and
        // state-space refluxing.
        use ablock_core::geom::Geometry;
        let e = Euler::<2>::new(1.4);
        let run = |mode: TimeStepMode| -> (f64, f64) {
            let mut g = BlockGrid::<2>::new(
                RootLayout::unit([2, 2], Boundary::Periodic),
                GridParams::new([8, 8], 2, 4, 2),
            );
            crate::problems::advected_gaussian(&mut g, &e, [0.6, -0.4], [0.25, 0.25], 0.1);
            let cfg = SolverConfig::new(e.clone(), Scheme::muscl_rusanov())
                .with_refluxing(true)
                .with_geometry(Geometry::sphere([0.65, 0.6, 0.0], 0.18))
                .with_time_step_mode(mode)
                .with_cfl(0.3);
            let mut st = Stepper::new(cfg);
            st.step(&mut g, 1e-4, None); // installs geometry
            let id = g.find(BlockKey::new(0, [1, 1])).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
            ablock_core::verify::check_grid(&g).unwrap();
            let m0 = total_conserved_fluid(&g, 0);
            let e0 = total_conserved_fluid(&g, 3);
            st.run_until(&mut g, 0.0, 0.02, None);
            ablock_core::verify::check_grid(&g).unwrap();
            (
                (total_conserved_fluid(&g, 0) - m0).abs() / m0.abs(),
                (total_conserved_fluid(&g, 3) - e0).abs() / e0.abs(),
            )
        };
        for mode in [TimeStepMode::Global, TimeStepMode::Subcycled] {
            let (dm, de) = run(mode);
            assert!(dm < 1e-12, "{mode:?} mass drift {dm}");
            assert!(de < 1e-12, "{mode:?} energy drift {de}");
        }
    }

    #[test]
    fn stepper_survives_adapt_without_invalidate() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        set_sine_density(&mut g, &e, 0.5);
        let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        st.step(&mut g, 1e-4, None);
        let id = g.block_ids()[0];
        g.refine(id, Transfer::Conservative(ProlongOrder::Constant)).unwrap();
        // no invalidate: the epoch bump makes the engine rebuild on its own
        st.step(&mut g, 1e-4, None);
        assert!(st.flux_evals > 0);
        assert_eq!(st.engine().stats().rebuilds, 2);
    }

    #[test]
    fn recording_steps_report_phase_spans() {
        let e = Euler::<1>::new(1.4);
        let mut g = periodic_grid_1d(4, 8);
        set_sine_density(&mut g, &e, 0.5);
        let metrics = ablock_obs::Metrics::recording();
        let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_metrics(metrics.clone());
        let mut st = Stepper::new(cfg);
        st.step(&mut g, 1e-4, None);
        let s = metrics.snapshot();
        // RK2: two rhs evals (ghost_fill + flux + reflux each) and two
        // stage updates per step
        assert_eq!(s.spans[phase::GHOST_FILL].count, 2);
        assert_eq!(s.spans[phase::FLUX].count, 2);
        assert_eq!(s.spans[phase::REFLUX].count, 2);
        assert_eq!(s.spans[phase::UPDATE].count, 2);
        assert_eq!(s.counter("engine.plan_rebuilds"), 1);
        assert_eq!(s.counter("engine.plan_reuses"), 1);
    }
}
