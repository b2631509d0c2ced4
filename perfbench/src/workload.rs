//! The three workloads: one problem, three backends.
//!
//! Every workload is a fixed amount of work on a 3-D ideal-MHD blast in a
//! periodic unit box (`problems::mhd_blast`, γ = 5/3, Powell source,
//! MUSCL + Rusanov, refluxing on). Refinement follows `GradientCriterion`
//! on total energy (var 7), because the blast starts at uniform density.
//! A run is `cycles` coarse cycles: cycle 1 is the warm-up (it belongs to
//! set-up), and every cycle `c ≡ 1 (mod 4)` after it starts with
//! maintenance (flag → adapt; plus rebalance and snapshot on dist). The
//! rebuild of ghost plans that an adapt forces lands in the same cycle, so
//! one cycle in four carries all restructuring cost: the median samples
//! plain cycles and the 90th percentile the heaviest tenth, maintenance
//! cycles and the cycles of the grid's largest stretch. Where a workload
//! refines a lot, it does so at the first maintenance, so the median
//! does not sit on the step between small-grid and large-grid cycles.
//!
//! The seed only moves the blast centre and radius by a small fraction of
//! the finest cell, so every seed restructures the same blocks and the
//! work per run stays the same; nothing is sized by wall time.

use std::collections::HashMap;

use ablock_amr::{flag_blocks, GradientCriterion};
use ablock_core::arena::BlockId;
use ablock_core::balance::Flag;
use ablock_core::ghost::fill_ghosts;
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_solver::{ghost_config_for, problems, IdealMhd, Scheme, SolverConfig, TimeStepMode};

/// Maintenance runs on one cycle in this many.
pub const MAINT_EVERY: usize = 4;
/// Ratio of specific heats.
pub const GAMMA: f64 = 5.0 / 3.0;
/// Blast-ball pressure (ambient is 0.1 inside `mhd_blast`).
const P_IN: f64 = 10.0;
/// Magnitude of the uniform field (split evenly between Bx and By).
const B0: f64 = 0.5;
/// Energy-gradient refinement thresholds (relative undivided jump).
const REFINE_ABOVE: f64 = 0.25;
const COARSEN_BELOW: f64 = 0.05;
/// Monitored variable: total energy.
const VAR_ENERGY: usize = 7;
/// Fixed dt₀ on dist as a share of the initial stable dt₀: the blast's
/// fastest signal (rarefaction tail plus flow) outruns the initial
/// interior fast speed by under 20%, so half leaves a wide margin.
pub const DIST_DT_SAFETY: f64 = 0.5;

/// Which executor drives the step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `ParStepper` on the shared-memory pool.
    Pool,
    /// `DistSim` on two rank threads through `run_resilient_with`.
    Dist,
}

/// One workload: the backend and the grid shape it runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Executor.
    pub backend: Backend,
    /// Root blocks per axis.
    pub roots: i64,
    /// Cells per block edge.
    pub m: i64,
    /// Finest level (levels are `0..=max_level`).
    pub max_level: u8,
    /// Global or subcycled stepping.
    pub mode: TimeStepMode,
    /// Nominal blast centre; the seed moves it by under a finest cell.
    pub center: f64,
    /// Nominal blast radius; the seed moves it by under a finest cell.
    pub r0: f64,
    /// Coarse cycles per run, warm-up included (`4q + 1`).
    pub cycles: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them. Sizes are at
/// the default seed; "field" is the computed footprint per process or
/// rank (blocks × ghosted block bytes × 3 field copies: state, RHS and
/// stage scratch), next to the 300 MiB L3 of the reference VM (2 vCPUs).
///
/// * `mhd3d_m16_pool_global` — `ParStepper` on the pool (2 workers =
///   `available_parallelism` on the reference VM), 16³-cell blocks,
///   2 levels, global SSP-RK2 at the CFL dt, 41 cycles. Blocks per level
///   [7, 8] throughout (61 440 cells), field 22 MiB. The blast stays
///   inside one root block, so adapt changes nothing: the kernel does
///   almost all the work (ghost fill costs about 4% of kernel time per
///   cell at 16³), and kernel and pool changes show here while ghost,
///   adapt, comm and snapshot changes should not.
/// * `mhd3d_m4_pool_subcycled` — `ParStepper` on the pool, 4³-cell
///   blocks, 3 levels, subcycled at the CFL dt₀, 21 cycles. Blocks
///   [0, 56, 64] → [0, 32, 256] (7 680 → 18 432 cells; the first
///   maintenance refines 24 blocks), field 27 MiB. With 64× more blocks
///   per cell than 16³, ghost fill, plan rebuilds, flag/cascade/transfer
///   and subcycle/reflux bookkeeping take their largest share here. The
///   shape was first run on the serial `Stepper` as the single-thread
///   baseline, but on the reference VM a lone busy vCPU swings ±23% with
///   host load (two busy vCPUs: ±7%), which put its ten-seed spread at
///   27–37% against a 25% bound. The pool reproduces the serial result
///   bitwise (same digest), and the traced `pool.parallel_efficiency`
///   still times the serial `Stepper` on the live grid.
/// * `mhd3d_m8_dist2_subcycled_snap` — `DistSim` on two rank threads via
///   `run_resilient_with` (no faults), 8³-cell blocks, 3 levels,
///   subcycled at a fixed dt₀, 21 cycles, with `flag_blocks` +
///   `adapt_rebalance` in `on_step` and the incremental snapshot on the
///   same cycles. Blocks [0, 57, 56] → [0, 47, 136] (57 856 → 93 696
///   cells), field 58 MiB per rank (every rank holds the whole grid).
///   The blast sits off-centre so refinement is lopsided and rebalancing
///   migrates blocks (3 of 5 adapts do). It is the only workload where
///   comm, migration and snapshot hashing/replication run. It replaces
///   the earlier `blast3d_m8_dist2_ckpt` shape, whose
///   `cell_updates_per_s` moved 17% and median step time 13% between
///   two sets of runs of identical code.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "mhd3d_m16_pool_global",
        backend: Backend::Pool,
        roots: 2,
        m: 16,
        max_level: 1,
        mode: TimeStepMode::Global,
        center: 0.25,
        r0: 0.14,
        cycles: 41,
    },
    Spec {
        name: "mhd3d_m4_pool_subcycled",
        backend: Backend::Pool,
        roots: 2,
        m: 4,
        max_level: 2,
        mode: TimeStepMode::Subcycled,
        center: 0.5,
        r0: 0.16,
        cycles: 21,
    },
    Spec {
        name: "mhd3d_m8_dist2_subcycled_snap",
        backend: Backend::Dist,
        roots: 2,
        m: 8,
        max_level: 2,
        mode: TimeStepMode::Subcycled,
        center: 0.4,
        r0: 0.14,
        cycles: 21,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// True when cycle `c` (1-based) starts with maintenance.
pub fn is_maintenance(c: usize) -> bool {
    c > 1 && (c - 1).is_multiple_of(MAINT_EVERY)
}

/// The seeded initial condition: blast centre and radius.
#[derive(Clone, Copy, Debug)]
pub struct Blast {
    /// Ball centre.
    pub center: [f64; 3],
    /// Ball radius.
    pub r0: f64,
}

/// SplitMix64: a tiny, well-mixed seed expander.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[-0.5, 0.5)`.
fn jitter(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

impl Spec {
    /// Finest cell width.
    pub fn finest_h(&self) -> f64 {
        1.0 / (self.roots * self.m * (1i64 << self.max_level)) as f64
    }

    /// The blast for `seed`: centre and radius each move by at most 1% of
    /// the finest cell. That flips a few dozen cells at the ball's edge
    /// (so every seed is a different input with its own digest) but not
    /// which blocks the edge crosses; at a quarter cell the initial
    /// refinement, and with it the work, varied by ±5% across seeds.
    pub fn blast(&self, seed: u64) -> Blast {
        let mut s = seed ^ 0xB1A5_7000_0000_0000;
        let h = self.finest_h();
        let mut center = [self.center; 3];
        for c in &mut center {
            *c += 0.02 * h * jitter(&mut s);
        }
        Blast {
            center,
            r0: self.r0 + 0.02 * h * jitter(&mut s),
        }
    }

    /// Solver configuration shared by every backend.
    pub fn solver(&self) -> SolverConfig<IdealMhd> {
        SolverConfig::new(IdealMhd::new(GAMMA), Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_time_step_mode(self.mode)
    }

    /// Interior cells per block.
    pub fn block_cells(&self) -> u64 {
        (self.m * self.m * self.m) as u64
    }

    /// Bytes of one block's field, ghosts included.
    pub fn block_bytes(&self) -> usize {
        self.params().field_shape().len() * std::mem::size_of::<f64>()
    }

    fn params(&self) -> GridParams<3> {
        GridParams::new([self.m; 3], 2, 8, self.max_level)
    }

    /// Build the grid, impose the blast and adapt to full depth
    /// (re-imposing the exact profile after every round).
    pub fn initial_grid(&self, blast: &Blast) -> BlockGrid<3> {
        let phys = IdealMhd::new(GAMMA);
        let r = self.roots;
        let mut grid = BlockGrid::<3>::new(
            RootLayout::unit([r, r, r], Boundary::Periodic),
            self.params(),
        );
        let ghost = ghost_config_for(&phys, Scheme::muscl_rusanov());
        problems::mhd_blast(&mut grid, &phys, blast.center, blast.r0, P_IN, B0);
        for _ in 0..self.max_level + 2 {
            fill_ghosts(&mut grid, ghost.clone());
            let flags = flag(&grid);
            let report = ablock_core::balance::adapt(&mut grid, &flags, TRANSFER);
            problems::mhd_blast(&mut grid, &phys, blast.center, blast.r0, P_IN, B0);
            if !report.changed() {
                break;
            }
        }
        grid
    }
}

/// Conservative transfer matching MUSCL reconstruction.
pub const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

/// The refinement flags for the current solution (ghosts as left by the
/// last fill).
pub fn flag(grid: &BlockGrid<3>) -> HashMap<BlockId, Flag> {
    flag_blocks(
        grid,
        &GradientCriterion::new(VAR_ENERGY, REFINE_ABOVE, COARSEN_BELOW),
    )
}

/// Cell updates one cycle performs on this topology: a level-ℓ cell
/// advances `2^(ℓ-ℓ₀)` times per cycle under subcycling (ℓ₀ the coarsest
/// level present), once under global stepping.
pub fn cycle_updates(levels: &[usize], block_cells: u64, mode: TimeStepMode) -> u64 {
    let l0 = levels.iter().position(|&n| n > 0).unwrap_or(0);
    levels
        .iter()
        .enumerate()
        .map(|(l, &n)| {
            let substeps = match mode {
                TimeStepMode::Global => 1,
                TimeStepMode::Subcycled => 1u64 << l.saturating_sub(l0),
            };
            n as u64 * block_cells * substeps
        })
        .sum()
}
