//! One construction surface for every executor in the workspace.
//!
//! A [`SolverConfig`] bundles what used to be scattered across positional
//! constructor arguments and per-type builder methods: the physics
//! system, the spatial [`Scheme`], the time integrator and
//! [`TimeStepMode`], the CFL number, refluxing, the derived
//! [`GhostConfig`], the [`Metrics`] sink, the [`Partitioner`], and an
//! optional immersed [`Geometry`]. The serial
//! [`Stepper`](crate::stepper::Stepper), the shared-memory and
//! distributed executors in `ablock-par`, and the AMR driver in
//! `ablock-amr` all consume it unchanged, so a simulation is configured
//! once and handed to whichever executor fits the machine:
//!
//! ```
//! use ablock_solver::{Euler, Scheme, SolverConfig, Stepper};
//! use ablock_obs::Metrics;
//!
//! let cfg = SolverConfig::new(Euler::<2>::new(1.4), Scheme::muscl_rusanov())
//!     .with_cfl(0.35)
//!     .with_metrics(Metrics::recording());
//! let stepper: Stepper<2, _> = Stepper::new(cfg);
//! # let _ = stepper;
//! ```
//!
//! Defaults are derived, not guessed twice: the time integrator matches
//! the reconstruction order (RK2 for MUSCL, forward Euler for first
//! order) and the ghost configuration matches the physics and scheme via
//! [`ghost_config_for`]. Every field stays public and overridable. None
//! of them selects an execution path: each parallel executor has exactly
//! one ghost exchange, overlapped with its sweep (DESIGN.md §13).

use ablock_core::geom::Geometry;
use ablock_core::ghost::GhostConfig;
use ablock_core::partition::Partitioner;
use ablock_obs::Metrics;

use crate::engine::{ghost_config_for, SweepEngine};
use crate::kernel::Scheme;
use crate::physics::Physics;
use crate::recon::Recon;
use crate::stepper::TimeScheme;

/// How a CFL-limited advance distributes the time step over refinement
/// levels (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TimeStepMode {
    /// Every block advances with the same globally CFL-limited `dt` —
    /// the reference oracle; always correct, wasteful on deep
    /// hierarchies where the finest level dictates `dt` everywhere.
    #[default]
    Global,
    /// Berger–Oliger local time stepping: level ℓ advances with
    /// `dt₀ / 2^(ℓ-ℓ₀)` (two fine steps per coarse step at unit level
    /// jumps), with time-interpolated ghost fills at coarse-fine faces
    /// and per-level flux accumulation feeding the reflux correction.
    Subcycled,
}

/// Complete configuration for one solver instance. See the
/// [module docs](self) for the construction story.
#[derive(Clone, Debug)]
pub struct SolverConfig<P: Physics> {
    /// The physics system being integrated.
    pub physics: P,
    /// The spatial scheme (reconstruction + Riemann solver).
    pub scheme: Scheme,
    /// Time integrator; defaults to match the reconstruction order.
    pub time_scheme: TimeScheme,
    /// Global versus per-level (subcycled) time stepping. Defaults to
    /// [`TimeStepMode::Global`]; the global path is preserved untouched
    /// as the reference oracle for the subcycled one.
    pub time_step_mode: TimeStepMode,
    /// CFL number used by `max_dt`/`run_until` on every executor.
    pub cfl: f64,
    /// Berger–Colella flux correction at coarse/fine faces.
    pub refluxing: bool,
    /// Ghost-exchange configuration; defaults via [`ghost_config_for`].
    pub ghost: GhostConfig,
    /// Observability sink shared by the engine and the executor (null by
    /// default: instrumentation compiles to one branch).
    pub metrics: Metrics,
    /// Block-to-rank partitioner used by the distributed executors (and
    /// by the shared-memory stepper for its sweep order). Defaults to
    /// Hilbert SFC cut points — the paper's re-balancing strategy.
    pub partitioner: Partitioner,
    /// Immersed solid geometry (DESIGN.md §18). When set, every executor
    /// installs it on the grid before its first sweep
    /// ([`BlockGrid::ensure_geometry`](ablock_core::grid::BlockGrid::ensure_geometry)):
    /// blocks carry a solid-cell mask plane, solid faces act as reflective
    /// walls, and solid cells stay bitwise frozen. `None` leaves whatever
    /// the grid already has (including a geometry installed directly via
    /// `BlockGrid::set_geometry`) untouched.
    pub geometry: Option<Geometry>,
}

impl<P: Physics> SolverConfig<P> {
    /// Config with derived defaults: RK2 for MUSCL (else forward Euler),
    /// CFL 0.4, no refluxing, ghost config from physics + scheme, null
    /// metrics.
    pub fn new(physics: P, scheme: Scheme) -> Self {
        let time_scheme = match scheme.recon {
            Recon::FirstOrder => TimeScheme::ForwardEuler,
            Recon::Muscl(_) => TimeScheme::SspRk2,
        };
        let ghost = ghost_config_for(&physics, scheme);
        SolverConfig {
            physics,
            scheme,
            time_scheme,
            time_step_mode: TimeStepMode::Global,
            cfl: 0.4,
            refluxing: false,
            ghost,
            metrics: Metrics::null(),
            partitioner: Partitioner::default(),
            geometry: None,
        }
    }

    /// Override the CFL number.
    pub fn with_cfl(mut self, cfl: f64) -> Self {
        self.cfl = cfl;
        self
    }

    /// Override the time integrator.
    pub fn with_time_scheme(mut self, ts: TimeScheme) -> Self {
        self.time_scheme = ts;
        self
    }

    /// Choose global or per-level (subcycled) time stepping. Subcycling
    /// advances level ℓ with `dt₀/2^ℓ` and usually wants refluxing on as
    /// well so coarse-fine face fluxes stay conservative (see
    /// [`crate::subcycle`]).
    pub fn with_time_step_mode(mut self, mode: TimeStepMode) -> Self {
        self.time_step_mode = mode;
        self
    }

    /// Enable flux correction at coarse/fine faces: the scheme becomes
    /// exactly conservative on adaptive grids at the cost of recording
    /// block-face fluxes each stage.
    pub fn with_refluxing(mut self, on: bool) -> Self {
        self.refluxing = on;
        self
    }

    /// Override the derived ghost configuration.
    pub fn with_ghost(mut self, ghost: GhostConfig) -> Self {
        self.ghost = ghost;
        self
    }

    /// Install a metrics sink (spans, counters, histograms flow into it
    /// from every layer this config reaches).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Install an immersed solid geometry: the grid gets per-block solid
    /// masks, solid faces become reflective walls, and geometry-aware
    /// executors keep masks in sync across refine/coarsen/migration.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = Some(geometry);
        self
    }

    /// Choose the block-to-rank partitioner (e.g.
    /// `Partitioner::sfc(Curve::Hilbert)`, `Partitioner::greedy()`,
    /// `Partitioner::round_robin()`). Must be identical on every rank —
    /// the replicated-topology invariant extends to the partitioner.
    pub fn with_partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Build the [`SweepEngine`] this config describes: ghost config,
    /// flux stores iff refluxing, metrics sink installed.
    pub fn engine<const D: usize>(&self) -> SweepEngine<D> {
        SweepEngine::new(self.ghost.clone())
            .with_flux_stores(self.refluxing)
            .with_metrics(self.metrics.clone())
    }
}
