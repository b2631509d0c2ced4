//! BSP cost model: the 512-processor scaling experiments on a laptop.
//!
//! The paper's Figs. 6–7 were measured on a 512-PE Cray T3D. We cannot
//! rerun that machine, but the *shape* of those curves is governed by a
//! handful of rates — per-cell compute time, per-message latency,
//! per-value bandwidth, reduction depth — composed over the actual block
//! topology and partition. This module evaluates exactly that composition
//! (a bulk-synchronous step model):
//!
//! ```text
//! T_step(P) = max_r [ cells_r · s · t_cell
//!                   + msgs_r · s · t_msg + values_r · s · t_value ]
//!           + ceil(log2 P) · t_reduce_hop        (global CFL allreduce)
//! ```
//!
//! where `s` is the number of RHS stages per step and `msgs_r`/`values_r`
//! count the ghost tasks of rank `r`'s blocks whose partner lives on
//! another rank (each endpoint pays — the T3D's shmem puts work on both
//! sides). The per-cell rate can be *measured* on the host (see the
//! `ablock-bench` fig5 harness) so the model is anchored in reality, and
//! the point-to-point parameters default to T3D-era values.
//!
//! A **topology scale factor** lets big studies run on small allocations:
//! the plan is built on blocks of `topo_m` cells per side but costed as if
//! they had `model_m` — cell counts scale by `(model_m/topo_m)^D`, face
//! regions by `(model_m/topo_m)^(D-1)`, which is exact for the
//! face-proportional ghost regions the plan contains.

use std::collections::HashMap;

use ablock_core::arena::BlockId;
use ablock_core::ghost::{GhostExchange, GhostTask};
use ablock_core::grid::BlockGrid;
use ablock_core::partition::RebalancePlan;
use ablock_obs::{phase, Metrics};
use ablock_solver::engine::SweepEngine;

/// Machine and scheme rates for the step model.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Seconds per cell per RHS stage.
    pub t_cell: f64,
    /// RHS stages per step (2 for SSP-RK2).
    pub stages: f64,
    /// Seconds of latency per point-to-point message.
    pub t_msg: f64,
    /// Seconds per f64 moved point-to-point.
    pub t_value: f64,
    /// Seconds per level of the allreduce tree.
    pub t_reduce_hop: f64,
    /// Cells-per-side the model pretends each block has.
    pub model_m: f64,
    /// Cells-per-side the topology actually allocates.
    pub topo_m: f64,
    /// Variables per cell the model charges for (the topology grid may be
    /// allocated with fewer to save memory; MHD is 8).
    pub nvar: f64,
}

impl CostParams {
    /// T3D-flavored parameters around a measured (or assumed) per-cell
    /// time. The T3D's 3-D torus had ~1–2 µs one-way latency and
    /// ~150 MB/s per link; an MHD MUSCL update ran a few µs per cell on
    /// the 150 MHz Alpha 21064.
    pub fn t3d_like(t_cell: f64, model_m: f64, topo_m: f64, nvar: f64) -> Self {
        CostParams {
            t_cell,
            stages: 2.0,
            t_msg: 1.5e-6,
            t_value: 8.0 / 150.0e6, // 8-byte value over a 150 MB/s link
            t_reduce_hop: 2.0e-6,
            model_m,
            topo_m,
            nvar,
        }
    }

    /// Spatial scale factor `model_m / topo_m`.
    pub fn scale(&self) -> f64 {
        self.model_m / self.topo_m
    }
}

/// Per-rank cost tally.
#[derive(Clone, Debug, Default)]
pub struct RankCost {
    /// Model cells owned.
    pub cells: f64,
    /// Remote messages sent or received per exchange.
    pub msgs: f64,
    /// Remote f64s sent or received per exchange.
    pub values: f64,
    /// f64s copied between same-rank blocks per exchange (the local part
    /// of the ghost fill — memory traffic, not messages).
    pub local_values: f64,
}

/// Modeled cost of one time step.
#[derive(Clone, Debug)]
pub struct StepCost {
    /// Per-rank tallies.
    pub ranks: Vec<RankCost>,
    /// Modeled wall-clock seconds per step.
    pub time: f64,
    /// Compute-only seconds of the busiest rank.
    pub compute_max: f64,
    /// Compute seconds if one rank did everything (serial time).
    pub compute_serial: f64,
    /// Communication seconds of the busiest rank.
    pub comm_max: f64,
    /// Allreduce seconds.
    pub reduce: f64,
}

impl StepCost {
    /// Parallel efficiency against ideal division of the serial work:
    /// `T_serial / (P · T_step)`.
    pub fn efficiency(&self) -> f64 {
        self.compute_serial / (self.ranks.len() as f64 * self.time)
    }

    /// Speedup over the serial compute time.
    pub fn speedup(&self) -> f64 {
        self.compute_serial / self.time
    }
}

/// Evaluate the step model against a [`SweepEngine`]'s cached plan,
/// revalidating it against the grid's topology epoch first — repeated
/// what-if costing over an unchanged grid reuses one plan build.
pub fn model_step_cached<const D: usize>(
    grid: &BlockGrid<D>,
    engine: &mut SweepEngine<D>,
    owner: &HashMap<BlockId, usize>,
    nranks: usize,
    p: &CostParams,
) -> StepCost {
    engine.revalidate(grid);
    model_step(grid, engine.plan(), owner, nranks, p)
}

/// Evaluate the step model for a grid + plan + ownership at `nranks`.
pub fn model_step<const D: usize>(
    grid: &BlockGrid<D>,
    plan: &GhostExchange<D>,
    owner: &HashMap<BlockId, usize>,
    nranks: usize,
    p: &CostParams,
) -> StepCost {
    let scale = p.scale();
    let cell_scale = scale.powi(D as i32);
    let face_scale = scale.powi(D as i32 - 1);
    let nvar = p.nvar;

    let mut ranks = vec![RankCost::default(); nranks];
    let cells_per_block = grid.params().field_shape().interior_cells() as f64 * cell_scale;
    for id in grid.block_ids() {
        ranks[owner[&id]].cells += cells_per_block;
    }
    for task in plan.phase1().iter().chain(plan.phase2()) {
        let (dst, src, vol) = match task {
            GhostTask::Same { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Restrict { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Prolong { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => continue,
        };
        let (od, os) = (owner[&dst], owner[&src]);
        let values = vol as f64 * face_scale * nvar;
        if od != os {
            ranks[od].msgs += 1.0;
            ranks[od].values += values;
            ranks[os].msgs += 1.0;
            ranks[os].values += values;
        } else {
            ranks[od].local_values += values;
        }
    }

    let mut compute_max = 0.0f64;
    let mut comm_max = 0.0f64;
    let mut busiest = 0.0f64;
    let mut compute_serial = 0.0f64;
    for r in &ranks {
        let compute = r.cells * p.stages * p.t_cell;
        let comm = r.msgs * p.stages * p.t_msg + r.values * p.stages * p.t_value;
        compute_serial += compute;
        compute_max = compute_max.max(compute);
        comm_max = comm_max.max(comm);
        busiest = busiest.max(compute + comm);
    }
    let reduce = (nranks as f64).log2().ceil().max(0.0) * p.t_reduce_hop;
    StepCost {
        ranks,
        time: busiest + reduce,
        compute_max,
        compute_serial,
        comm_max,
        reduce,
    }
}

/// Round a modeled duration to integer nanoseconds (the only currency a
/// metric sink accepts — keeping the replay exactly reproducible).
fn model_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9).round() as u64
}

/// Replay one modeled step into a metric sink as phase spans, advancing
/// the sink's **virtual clock** by each phase's modeled duration. The
/// phase decomposition mirrors the instrumented executors, so a modeled
/// 512-rank run and a measured shared-memory run produce snapshots with
/// the same span paths:
///
/// * `ghost_fill` — local ghost copies of the busiest rank (at the
///   point-to-point bandwidth, a memory-traffic proxy), with the remote
///   part nested as `ghost_fill/comm` (the model's `comm_max`);
/// * `flux` — `compute_max` (the per-cell RHS rate covers the sweeps);
/// * `update` — the busiest rank's cell updates charged as
///   bandwidth-bound axpy traffic (`cells · nvar · stages` values);
/// * `reduce` — the allreduce tree.
///
/// Aggregate model counters (`model.msgs`, `model.values`,
/// `model.local_values`, rounded to integers) are recorded alongside, so
/// two replays of the same topology are byte-identical snapshots.
pub fn record_step_phases(metrics: &Metrics, cost: &StepCost, p: &CostParams) {
    let local_max = cost.ranks.iter().map(|r| r.local_values).fold(0.0f64, f64::max);
    {
        let _gf = metrics.span(phase::GHOST_FILL);
        metrics.advance_ns(model_ns(local_max * p.stages * p.t_value));
        let _comm = metrics.span(phase::COMM);
        metrics.advance_ns(model_ns(cost.comm_max));
    }
    {
        let _flux = metrics.span(phase::FLUX);
        metrics.advance_ns(model_ns(cost.compute_max));
    }
    {
        let _update = metrics.span(phase::UPDATE);
        let cells_max = if p.t_cell > 0.0 {
            cost.compute_max / (p.stages * p.t_cell)
        } else {
            0.0
        };
        metrics.advance_ns(model_ns(cells_max * p.nvar * p.stages * p.t_value));
    }
    {
        let _reduce = metrics.span(phase::REDUCE);
        metrics.advance_ns(model_ns(cost.reduce));
    }
    let total = |f: fn(&RankCost) -> f64| cost.ranks.iter().map(f).sum::<f64>().round() as u64;
    metrics.incr("model.steps", 1);
    metrics.incr("model.msgs", total(|r| r.msgs));
    metrics.incr("model.values", total(|r| r.values));
    metrics.incr("model.local_values", total(|r| r.local_values));
}

/// Replay one modeled adapt-and-rebalance into a metric sink: an
/// allgather of refine flags (two tree traversals) under `adapt`, and the
/// migration of `migrated_values` f64s under a nested `adapt/rebalance`
/// span. Companion to [`record_step_phases`] for virtual-clock runs.
pub fn record_adapt_phases(
    metrics: &Metrics,
    nranks: usize,
    migrated_values: f64,
    p: &CostParams,
) {
    let hops = (nranks as f64).log2().ceil().max(0.0);
    let _adapt = metrics.span(phase::ADAPT);
    metrics.advance_ns(model_ns(2.0 * hops * p.t_reduce_hop));
    let _rb = metrics.span(phase::REBALANCE);
    metrics.advance_ns(model_ns(migrated_values * p.t_value + p.t_msg * hops));
}

/// Replay one modeled *incremental* rebalance into a metric sink, costed
/// from an actual [`RebalancePlan`]: every migrated block pays bandwidth
/// for its interior (scaled to model cells) and every rank pair with
/// traffic pays one message latency — the protocol
/// [`DistSim::rebalance`](crate::dist::DistSim::rebalance) executes.
/// Companion to [`record_adapt_phases`] when a plan is available; lets the
/// virtual-clock harnesses cost rebalances at 4096+ ranks directly from
/// cut-point diffs.
pub fn record_rebalance_phases<const D: usize>(
    metrics: &Metrics,
    plan: &RebalancePlan<D>,
    interior_cells: f64,
    p: &CostParams,
) {
    let values_per_block = interior_cells * p.scale().powi(D as i32) * p.nvar;
    let values = plan.migrated() as f64 * values_per_block;
    let msgs = plan.pairs().len() as f64;
    let _rb = metrics.span(phase::REBALANCE);
    metrics.advance_ns(model_ns(values * p.t_value + msgs * p.t_msg));
    metrics.incr("model.rebalance.migrated_blocks", plan.migrated() as u64);
    metrics.incr("model.rebalance.values", values.round() as u64);
    metrics.incr("model.rebalance.pair_msgs", msgs as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::ghost::GhostConfig;
    use ablock_core::grid::GridParams;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_core::partition::Partitioner;
    use ablock_core::sfc::Curve;

    fn topo(roots: [i64; 3]) -> BlockGrid<3> {
        BlockGrid::new(
            RootLayout::unit(roots, Boundary::Periodic),
            GridParams::new([4, 4, 4], 2, 1, 2),
        )
    }

    fn model(grid: &BlockGrid<3>, nranks: usize, part: Partitioner) -> StepCost {
        let plan = GhostExchange::build(grid, GhostConfig::default());
        let owner = part.partition_grid(grid, nranks);
        let p = CostParams::t3d_like(2e-6, 16.0, 4.0, 8.0);
        model_step(grid, &plan, &owner, nranks, &p)
    }

    #[test]
    fn single_rank_has_no_comm() {
        let g = topo([2, 2, 2]);
        let c = model(&g, 1, Partitioner::sfc(Curve::Hilbert));
        assert_eq!(c.comm_max, 0.0);
        assert_eq!(c.reduce, 0.0);
        assert!((c.efficiency() - 1.0).abs() < 1e-12);
        // 8 blocks * 16^3 model cells * 2 stages * 2us
        let want = 8.0 * 4096.0 * 2.0 * 2e-6;
        assert!((c.compute_serial - want).abs() < 1e-12);
    }

    #[test]
    fn efficiency_decreases_with_ranks_strong_scaling() {
        let g = topo([4, 4, 4]); // 64 blocks, fixed problem
        let e: Vec<f64> = [1, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&p| model(&g, p, Partitioner::sfc(Curve::Hilbert)).efficiency())
            .collect();
        for w in e.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "efficiency must not increase: {e:?}");
        }
        assert!(e[0] > 0.999);
        assert!(e[6] < 0.9, "64 blocks on 64 ranks must pay comm: {}", e[6]);
        assert!(e[6] > 0.3, "but blocks amortize comm well: {}", e[6]);
    }

    #[test]
    fn weak_scaling_stays_efficient() {
        // blocks per rank fixed at 8
        let effs: Vec<f64> = [1usize, 8, 64]
            .iter()
            .map(|&p| {
                let side = (p as f64).cbrt().round() as i64 * 2;
                let g = topo([side, side, side]);
                model(&g, p, Partitioner::sfc(Curve::Hilbert)).efficiency()
            })
            .collect();
        assert!(effs[0] > 0.999);
        assert!(effs[2] > 0.8, "weak scaling efficiency collapsed: {effs:?}");
        for w in effs.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn sfc_beats_roundrobin_in_model_traffic() {
        // 4^3 blocks on 8 ranks: Hilbert chunks are 2x2x2 bricks (3 of 6
        // faces local); round-robin keeps only the z faces local.
        let g = topo([4, 4, 4]);
        let sfc = model(&g, 8, Partitioner::sfc(Curve::Hilbert));
        let rr = model(&g, 8, Partitioner::round_robin());
        let total = |c: &StepCost| c.ranks.iter().map(|r| r.values).sum::<f64>();
        assert!(
            total(&sfc) < total(&rr),
            "sfc traffic {} vs rr {}",
            total(&sfc),
            total(&rr)
        );
        // and never slower in modeled wall clock
        assert!(sfc.time <= rr.time + 1e-15, "sfc {} vs rr {}", sfc.time, rr.time);
    }

    #[test]
    fn scale_factor_is_exact_for_uniform_grids() {
        // model on topo 4^3 scaled to 16^3 == model on real 16^3 blocks
        let g_small = topo([2, 2, 2]);
        let plan_s = GhostExchange::build(&g_small, GhostConfig::default());
        let owner_s = Partitioner::sfc(Curve::Morton).partition_grid(&g_small, 4);
        let ps = CostParams::t3d_like(2e-6, 16.0, 4.0, 8.0);
        let cs = model_step(&g_small, &plan_s, &owner_s, 4, &ps);

        let g_big = BlockGrid::<3>::new(
            RootLayout::unit([2, 2, 2], Boundary::Periodic),
            GridParams::new([16, 16, 16], 2, 1, 2),
        );
        let plan_b = GhostExchange::build(&g_big, GhostConfig::default());
        let owner_b = Partitioner::sfc(Curve::Morton).partition_grid(&g_big, 4);
        let pb = CostParams::t3d_like(2e-6, 16.0, 16.0, 8.0);
        let cb = model_step(&g_big, &plan_b, &owner_b, 4, &pb);

        assert!((cs.compute_serial - cb.compute_serial).abs() < 1e-12);
        assert!(
            (cs.time - cb.time).abs() < 1e-9 * cb.time,
            "scaled {} vs real {}",
            cs.time,
            cb.time
        );
    }

    #[test]
    fn cached_model_matches_fresh_plan_and_reuses_it() {
        let g = topo([2, 2, 2]);
        let owner = Partitioner::sfc(Curve::Hilbert).partition_grid(&g, 4);
        let p = CostParams::t3d_like(2e-6, 16.0, 4.0, 8.0);
        let plan = GhostExchange::build(&g, GhostConfig::default());
        let fresh = model_step(&g, &plan, &owner, 4, &p);
        let mut engine = SweepEngine::new(GhostConfig::default());
        let a = model_step_cached(&g, &mut engine, &owner, 4, &p);
        let b = model_step_cached(&g, &mut engine, &owner, 4, &p);
        assert!((a.time - fresh.time).abs() < 1e-15);
        assert!((b.time - fresh.time).abs() < 1e-15);
        assert_eq!(engine.stats().rebuilds, 1);
        assert_eq!(engine.stats().reuses, 1);
    }

    #[test]
    fn reduce_term_grows_logarithmically() {
        let g = topo([4, 4, 4]);
        let c64 = model(&g, 64, Partitioner::sfc(Curve::Hilbert));
        let c2 = model(&g, 2, Partitioner::sfc(Curve::Hilbert));
        assert!((c64.reduce / c2.reduce - 6.0).abs() < 1e-9);
    }
}
