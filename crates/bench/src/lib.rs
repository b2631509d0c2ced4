//! # ablock-bench — the evaluation harness
//!
//! One target per figure and table of the SC'97 *Adaptive Blocks* paper,
//! plus the ablations DESIGN.md calls out. Binaries print the same
//! rows/series the paper reports (`cargo run --release -p ablock-bench
//! --bin <name>`); benches on the in-repo `ablock_testkit::Bench` timer
//! cover the hot kernels (`cargo bench -p ablock-bench`).
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig2_fig4_structure` | Figs. 2 & 4 (block vs quadtree decomposition drawings) |
//! | `fig3_structure` | Fig. 3 (3-D decomposition statistics + slice render) |
//! | `fig5_table` | Fig. 5 (time per cell vs block size, + padding/sub-blocking remedies) |
//! | `fig6_weak_scaling` | Fig. 6 (scaled problem size, efficiency to 512 PEs) |
//! | `fig7_strong_scaling` | Fig. 7 (fixed problem, speedup relative to 64 PEs) |
//! | `tab_neighbor_bounds` | the 2^(k(d−1)) face-neighbor bound (prose claim) |
//! | `tab_ghost_ratio` | ghost/computational cell ratio argument (prose claim) |
//! | `abl_adaptive_efficiency` | cells used: blocks vs cell tree vs uniform |
//! | `abl_load_balance` | partition policy comparison |
//! | `abl_cascade` | cascade extent vs the k-level jump knob |
//! | `abl_ghost_depth` | ghost depth ↔ spatial order interplay |
//! | bench `fig5_time_per_cell` | quick timer version of the Fig. 5 kernel sweep |
//! | bench `abl_neighbor_lookup` | pointer lookup vs tree traversal (ABL-1) |
//! | bench `ghost_and_adapt` | exchange build/fill and adapt costs |

use std::time::Instant;

use ablock_core::ghost::{GhostConfig, GhostExchange};
use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_solver::kernel::{compute_rhs_block, Scheme};
use ablock_solver::mhd::IdealMhd;
use ablock_solver::physics::Physics;
use ablock_solver::problems;

/// A 3-D MHD grid of `roots` root blocks with `m`-cubed cells per block,
/// loaded with the spherical blast workload (the scaling figures' problem).
pub fn mhd_grid_3d(roots: [i64; 3], m: i64, pad: i64, max_level: u8) -> BlockGrid<3> {
    let mhd = IdealMhd::new(5.0 / 3.0);
    let params = GridParams::new([m, m, m], 2, 8, max_level).with_pad(pad);
    let mut grid = BlockGrid::new(RootLayout::unit(roots, Boundary::Periodic), params);
    problems::mhd_blast(&mut grid, &mhd, [0.5, 0.5, 0.5], 0.25, 10.0, 0.5);
    grid
}

/// Measured nanoseconds per interior cell for one full RHS evaluation
/// (ghost fill + kernel) over the grid, averaged over `reps` repetitions.
pub fn measure_ns_per_cell<P: Physics>(
    grid: &mut BlockGrid<3>,
    phys: &P,
    scheme: Scheme,
    reps: usize,
) -> f64 {
    let plan = GhostExchange::build(grid, GhostConfig::default());
    let shape = grid.params().field_shape();
    let mut rhs = ablock_core::field::FieldBlock::zeros(shape);
    let mut scratch = Vec::new();
    // warm up once
    plan.fill(grid);
    let ids = grid.block_ids();
    let t0 = Instant::now();
    for _ in 0..reps {
        plan.fill(grid);
        for &id in &ids {
            let node = grid.block(id);
            let h = grid.layout().cell_size(node.key().level, grid.params().block_dims);
            compute_rhs_block(phys, scheme, node.field(), h, &mut rhs, &mut scratch);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    elapsed * 1e9 / (reps as f64 * grid.num_cells() as f64)
}

/// Like [`measure_ns_per_cell`], but times each repetition separately and
/// returns the fastest one. On a shared host, interference only ever adds
/// time, so the per-rep minimum is the tightest estimate of the true cost;
/// the mean smears a single noisy rep over the whole measurement.
pub fn measure_ns_per_cell_min<P: Physics>(
    grid: &mut BlockGrid<3>,
    phys: &P,
    scheme: Scheme,
    reps: usize,
) -> f64 {
    let plan = GhostExchange::build(grid, GhostConfig::default());
    let shape = grid.params().field_shape();
    let mut rhs = ablock_core::field::FieldBlock::zeros(shape);
    let mut scratch = Vec::new();
    plan.fill(grid);
    let ids = grid.block_ids();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        plan.fill(grid);
        for &id in &ids {
            let node = grid.block(id);
            let h = grid.layout().cell_size(node.key().level, grid.params().block_dims);
            compute_rhs_block(phys, scheme, node.field(), h, &mut rhs, &mut scratch);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / grid.num_cells() as f64
}

/// Time a closure, returning seconds.
pub fn time_it(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Pick three near-cubic factors of `n` (root lattice shapes for scaling
/// studies).
pub fn near_cubic_factors(n: usize) -> [i64; 3] {
    let hint = (n as f64).cbrt();
    let mut best = [1i64, 1, n as i64];
    let mut best_score = f64::INFINITY;
    for a in 1..=(n as i64) {
        if n as i64 % a != 0 {
            continue;
        }
        let rest = n as i64 / a;
        for b in 1..=rest {
            if rest % b != 0 {
                continue;
            }
            let c = rest / b;
            let score = (a as f64 - hint).abs() + (b as f64 - hint).abs() + (c as f64 - hint).abs();
            if score < best_score {
                best_score = score;
                best = [a, b, c];
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_cubic() {
        assert_eq!(near_cubic_factors(8), [2, 2, 2]);
        assert_eq!(near_cubic_factors(64), [4, 4, 4]);
        let f = near_cubic_factors(24);
        assert_eq!(f.iter().product::<i64>(), 24);
        assert!(f.iter().all(|&x| x >= 2));
    }

    #[test]
    fn mhd_grid_builds_and_measures() {
        let mut g = mhd_grid_3d([2, 2, 2], 4, 0, 1);
        assert_eq!(g.num_cells(), 8 * 64);
        let mhd = IdealMhd::new(5.0 / 3.0);
        let ns = measure_ns_per_cell(&mut g, &mhd, Scheme::first_order(), 1);
        assert!(ns > 0.0 && ns < 1e7);
    }
}
