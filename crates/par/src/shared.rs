//! Shared-memory parallel executor (scoped std threads).
//!
//! The paper claims the data structure is "particularly well suited to
//! high-performance machines, both serial and parallel". This module is
//! the shared-memory side of that claim: blocks are the natural
//! parallelization unit — RHS kernels per block are embarrassingly
//! parallel, and ghost exchange becomes a two-phase **gather/scatter**
//! (gather reads only sources, scatter writes only destinations), each
//! phase running over the [`crate::pool`] helpers with no locks. A global
//! step overlaps the two: once phase 1 is scattered, a background thread
//! scatters the phase-2 prolongations into the halo blocks (their
//! destinations) while the calling thread sweeps every other block
//! (DESIGN.md §13).
//!
//! `ParStepper` reproduces `ablock_solver::Stepper`'s SSP-RK2 semantics
//! exactly (the equivalence test below checks bitwise-level agreement);
//! only the execution order across blocks differs, and no arithmetic
//! crosses block boundaries outside the ghost plan. Flux sweeps are
//! issued in the [`SolverConfig`] partitioner's space-filling-curve
//! order (cached by topology epoch), so spatially adjacent blocks land
//! on the same worker's contiguous chunk — a bitwise-neutral permutation
//! that improves ghost-source cache reuse.

use std::collections::HashMap;

use crate::pool;

use ablock_core::arena::BlockId;
use ablock_core::field::{FieldBlock, FieldShape};
use ablock_core::ghost::{synthesize_boundary, GhostConfig, GhostExchange, GhostTask};
use ablock_core::grid::{BlockGrid, BlockNode};
use ablock_core::index::IBox;
use ablock_core::ops::{prolong, restrict_avg, ProlongOrder};
use ablock_core::partition::CurveWalk;
use ablock_obs::{phase, Metrics};

use ablock_solver::config::{SolverConfig, TimeStepMode};
use ablock_solver::engine::{rk2_stage1_block, rk2_stage2_block, BcFn, SweepEngine};
use ablock_solver::kernel::{compute_rhs_block, compute_rhs_block_fluxes, max_rate_block};
use ablock_solver::physics::Physics;
use ablock_solver::subcycle::{self, SubcycleBackend, SubcycleState};

/// Disjoint mutable references `out[i] = &mut v[ids[i].index()]`;
/// `ids` must be strictly increasing by index (arena order is).
fn indexed_refs<'a, T>(v: &'a mut [T], ids: &[BlockId]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(ids.len());
    let mut rest = v;
    let mut offset = 0usize;
    for &id in ids {
        let idx = id.index();
        debug_assert!(idx >= offset, "ids must be strictly increasing");
        let (_, tail) = rest.split_at_mut(idx - offset);
        let (item, tail2) = tail.split_first_mut().expect("scratch too small");
        out.push(item);
        rest = tail2;
        offset = idx + 1;
    }
    out
}

/// Ghost values computed in the gather phase, ready to be written into one
/// destination block. `data` is variable-major (variable planes outer,
/// region cells x-fastest within a plane) — the natural order of both the
/// SoA field storage and the staging blocks the transfer operators fill.
struct ReadyOp<const D: usize> {
    region: IBox<D>,
    data: Vec<f64>,
}

/// Gather one non-physical task's destination values by reading only the
/// source block.
fn gather_task<const D: usize>(
    grid: &BlockGrid<D>,
    task: &GhostTask<D>,
    order: ProlongOrder,
) -> Option<(BlockId, ReadyOp<D>)> {
    let nvar = grid.params().nvar;
    match task {
        GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => None,
        GhostTask::Same { dst, src, region, shift } => {
            if region.is_empty() {
                return None;
            }
            let sf = grid.block(*src).field();
            let shape = *sf.shape();
            let ps = shape.plane_stride();
            let s = sf.as_slice();
            let mut data = Vec::with_capacity(region.volume() as usize * nvar);
            // plane by plane, x-row by x-row: rows are contiguous in the
            // source regardless of padding
            let mut row = *region;
            row.hi[0] = region.lo[0] + 1;
            let row_len = (region.hi[0] - region.lo[0]) as usize;
            for v in 0..nvar {
                for c in row.iter() {
                    let mut sc = c;
                    for d in 0..D {
                        sc[d] += shift[d];
                    }
                    let i0 = shape.lin(sc) + v * ps;
                    data.extend_from_slice(&s[i0..i0 + row_len]);
                }
            }
            Some((*dst, ReadyOp { region: *region, data }))
        }
        GhostTask::Restrict { dst, src, region, q, ratio } => {
            let extent = region.extent();
            let shape = FieldShape::new(extent, 0, nvar);
            let mut tmp = FieldBlock::zeros(shape);
            // temp coords c' = c - region.lo  =>  q' = ratio*region.lo + q
            let mut qp = *q;
            for d in 0..D {
                qp[d] += ratio * region.lo[d];
            }
            restrict_avg(&mut tmp, IBox::from_dims(extent), grid.block(*src).field(), qp, *ratio);
            Some((*dst, ReadyOp { region: *region, data: tmp.as_slice().to_vec() }))
        }
        GhostTask::Prolong { dst, src, region, p, a, ratio, valid } => {
            let extent = region.extent();
            let shape = FieldShape::new(extent, 0, nvar);
            let mut tmp = FieldBlock::zeros(shape);
            let mut pp = *p;
            for d in 0..D {
                pp[d] += region.lo[d];
            }
            prolong(
                &mut tmp,
                IBox::from_dims(extent),
                grid.block(*src).field(),
                pp,
                *a,
                *ratio,
                order,
                *valid,
            );
            Some((*dst, ReadyOp { region: *region, data: tmp.as_slice().to_vec() }))
        }
    }
}

/// Parallel ghost fill: each phase is gather (parallel over tasks, reads
/// only) then scatter (parallel over destination blocks, writes only).
/// The scatter (the inter-block data movement) is recorded under a
/// [`phase::COMM`] span, nested inside whatever span the caller holds.
pub fn par_fill_ghosts_with<const D: usize>(
    grid: &mut BlockGrid<D>,
    plan: &GhostExchange<D>,
    config: &GhostConfig,
    metrics: &Metrics,
) {
    for tasks in [plan.phase1(), plan.phase2()] {
        fill_phase(grid, tasks, config, metrics);
    }
}

/// Gather one phase's ghost values (parallel over tasks, reads only) and
/// group them by destination block.
fn gather_phase<const D: usize>(
    grid: &BlockGrid<D>,
    tasks: &[GhostTask<D>],
    order: ProlongOrder,
) -> HashMap<BlockId, Vec<ReadyOp<D>>> {
    let ready = pool::par_map(tasks, |t| gather_task(grid, t, order));
    let mut by_dst: HashMap<_, Vec<_>> = HashMap::new();
    for (dst, op) in ready.into_iter().flatten() {
        by_dst.entry(dst).or_default().push(op);
    }
    by_dst
}

/// Gather + scatter one phase of a ghost plan (the loop body of
/// [`par_fill_ghosts_with`]).
fn fill_phase<const D: usize>(
    grid: &mut BlockGrid<D>,
    tasks: &[GhostTask<D>],
    config: &GhostConfig,
    metrics: &Metrics,
) {
    let layout = grid.layout().clone();
    let m = grid.params().block_dims;
    let ng = grid.params().nghost;
    let by_dst = gather_phase(grid, tasks, config.prolong_order);
    let mut phys_by_dst: HashMap<BlockId, Vec<&GhostTask<D>>> = HashMap::new();
    for t in tasks {
        match t {
            GhostTask::Physical { dst, .. } | GhostTask::ClampCopy { dst, .. } => {
                phys_by_dst.entry(*dst).or_default().push(t);
            }
            _ => {}
        }
    }
    // scatter (mutable, one block per work item)
    let _comm = metrics.span(phase::COMM);
    let mut nodes: Vec<_> = grid.blocks_mut().collect();
    pool::par_for_each_mut(&mut nodes, |(id, node)| {
        if let Some(ops) = by_dst.get(id) {
            for op in ops {
                scatter_op(node.field_mut(), op);
            }
        }
        if let Some(ts) = phys_by_dst.get(id) {
            for t in ts {
                match t {
                    GhostTask::Physical { face, bc, .. } => {
                        let key = node.key();
                        synthesize_boundary(
                            &layout,
                            m,
                            ng,
                            key,
                            node.field_mut(),
                            *face,
                            *bc,
                            config,
                            &|_, _, _| {},
                        );
                    }
                    GhostTask::ClampCopy { region, .. } => {
                        for c in region.iter() {
                            let mut src = c;
                            for d in 0..D {
                                src[d] = src[d].clamp(0, m[d] - 1);
                            }
                            let u = node.field().cell(src).to_vec();
                            node.field_mut().set_cell(c, &u);
                        }
                    }
                    _ => {}
                }
            }
        }
    });
}

/// Write one gathered ghost region into a destination field.
fn scatter_op<const D: usize>(field: &mut FieldBlock<D>, op: &ReadyOp<D>) {
    if op.region.is_empty() {
        return;
    }
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let out = field.as_mut_slice();
    let mut row = op.region;
    row.hi[0] = op.region.lo[0] + 1;
    let row_len = (op.region.hi[0] - op.region.lo[0]) as usize;
    let mut off = 0;
    for v in 0..shape.nvar {
        for c in row.iter() {
            let i0 = shape.lin(c) + v * ps;
            out[i0..i0 + row_len].copy_from_slice(&op.data[off..off + row_len]);
            off += row_len;
        }
    }
}

/// Shared-memory parallel stepper: SSP-RK2 with the same arithmetic as the
/// serial `Stepper` (both call the per-block helpers in
/// `ablock_solver::engine`), parallelized over blocks. The engine's
/// epoch-keyed cache makes stepping safe across grid adaptation without
/// manual invalidation.
pub struct ParStepper<const D: usize, P: Physics> {
    cfg: SolverConfig<P>,
    engine: SweepEngine<D>,
    sub: SubcycleState<D>,
    /// Flux-sweep issue order: block id -> SFC position under the
    /// config partitioner's curve, rebuilt when the topology epoch moves.
    sweep_pos: HashMap<BlockId, usize>,
    sweep_epoch: Option<u64>,
}

impl<const D: usize, P: Physics> ParStepper<D, P> {
    /// New parallel stepper from a [`SolverConfig`] (the same bundle the
    /// serial stepper and the distributed executor consume).
    pub fn new(cfg: SolverConfig<P>) -> Self {
        let engine = cfg.engine();
        ParStepper {
            cfg,
            engine,
            sub: SubcycleState::new(),
            sweep_pos: HashMap::new(),
            sweep_epoch: None,
        }
    }

    /// The configuration this stepper was built from.
    pub fn config(&self) -> &SolverConfig<P> {
        &self.cfg
    }

    /// The underlying sweep engine (plan cache stats).
    pub fn engine(&self) -> &SweepEngine<D> {
        &self.engine
    }

    /// Mutable engine access — the single escape hatch for out-of-band
    /// invalidation ([`SweepEngine::invalidate`]); never needed after grid
    /// adaptation (the topology epoch covers that).
    pub fn engine_mut(&mut self) -> &mut SweepEngine<D> {
        &mut self.engine
    }

    /// Rebuild the SFC sweep order if the grid restructured since the
    /// last sweep. The order is a pure work-scheduling permutation: it
    /// never changes which blocks are swept or any per-block arithmetic.
    fn refresh_sweep_order(&mut self, grid: &BlockGrid<D>) {
        if self.sweep_epoch == Some(grid.epoch()) {
            return;
        }
        let walk = CurveWalk::build(grid, self.cfg.partitioner.curve());
        self.sweep_pos =
            walk.entries().iter().enumerate().map(|(pos, e)| (e.id, pos)).collect();
        self.sweep_epoch = Some(grid.epoch());
    }

    /// SFC position of a block in the current sweep order (for tests and
    /// instrumentation; blocks unknown to the cached order sort last).
    pub fn sweep_position(&self, id: BlockId) -> Option<usize> {
        self.sweep_pos.get(&id).copied()
    }

    /// Global CFL dt (parallel reduction over blocks, config's CFL).
    pub fn max_dt(&self, grid: &BlockGrid<D>) -> f64 {
        let m = grid.params().block_dims;
        let ids = grid.block_ids();
        let rate = pool::par_max_f64(&ids, 0.0, |&id| {
            let node = grid.block(id);
            let h = grid.layout().cell_size(node.key().level, m);
            max_rate_block(&self.cfg.physics, node.field(), h)
        });
        if rate > 0.0 {
            self.cfg.cfl / rate
        } else {
            f64::INFINITY
        }
    }

    /// Fill ghosts and evaluate the RHS of every block in parallel, with
    /// comm/compute overlap: phase 1 of the ghost fill completes as
    /// usual, then the phase-2 (prolongation) scatter runs on a
    /// background thread while the calling thread computes fluxes for
    /// every interior block — those whose ghosts are final after phase 1.
    /// Halo blocks (phase-2 destinations) are swept after the join.
    /// Bitwise-identical to a full fill followed by a full sweep: the
    /// gathered ghost values and the per-block flux arithmetic are
    /// unchanged, only execution order across blocks differs, and the
    /// background scatter writes only halo blocks' ghosted regions —
    /// disjoint from every interior-block read.
    fn eval_rhs(&mut self, grid: &mut BlockGrid<D>) {
        grid.ensure_geometry(&self.cfg.geometry);
        self.engine.revalidate(grid);
        self.refresh_sweep_order(grid);
        let metrics = self.cfg.metrics.clone();
        let ghost_span = metrics.span(phase::GHOST_FILL);
        // phase 1 in full, then the phase-2 gather (reads only) and the
        // interior/halo split
        let (by_dst, split) = {
            let plan = self.engine.plan();
            let config = self.engine.config();
            fill_phase(grid, plan.phase1(), config, &metrics);
            let by_dst = gather_phase(grid, plan.phase2(), config.prolong_order);
            (by_dst, self.engine.split_phase2(&grid.block_ids()))
        };
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        let phys = &self.cfg.physics;
        let scheme = self.cfg.scheme;
        let ids = grid.block_ids();
        let sw = self.engine.sweep();
        let rhs_refs = indexed_refs(sw.rhs, &ids);
        let mut interior: Vec<(BlockId, &mut BlockNode<D>, &mut FieldBlock<D>)> = Vec::new();
        let mut halo: Vec<(BlockId, &mut BlockNode<D>, &mut FieldBlock<D>)> = Vec::new();
        for ((id, node), rhs) in grid.blocks_mut().zip(rhs_refs) {
            if split.halo.binary_search(&id).is_ok() {
                halo.push((id, node, rhs));
            } else {
                interior.push((id, node, rhs));
            }
        }
        // issue both sweeps in SFC order: spatially adjacent blocks share
        // ghost sources, so contiguous worker chunks reuse cache lines
        // (a pure permutation, bitwise-neutral)
        let pos = &self.sweep_pos;
        interior.sort_by_key(|(id, ..)| pos.get(id).copied().unwrap_or(usize::MAX));
        halo.sort_by_key(|(id, ..)| pos.get(id).copied().unwrap_or(usize::MAX));
        let body = &|scratch: &mut Vec<f64>,
                     (_, node, rhs): &mut (BlockId, &mut BlockNode<D>, &mut FieldBlock<D>)| {
            let h = layout.cell_size(node.key().level, m);
            compute_rhs_block(phys, scheme, node.field(), h, rhs, scratch);
        };
        let run_flux = |work: &mut Vec<(BlockId, &mut BlockNode<D>, &mut FieldBlock<D>)>| {
            if metrics.is_enabled() {
                // timed path: per-worker busy histogram + busy/idle totals
                let t0 = std::time::Instant::now();
                let busy = pool::par_for_each_mut_init_timed(work, Vec::new, body);
                let wall = t0.elapsed().as_nanos() as u64;
                let total_busy: u64 = busy.iter().sum();
                for b in &busy {
                    metrics.observe("pool.worker_busy_ns", *b);
                }
                metrics.incr("pool.busy_ns", total_busy);
                metrics
                    .incr("pool.idle_ns", (wall * busy.len() as u64).saturating_sub(total_busy));
            } else {
                pool::par_for_each_mut_init(work, Vec::new, body);
            }
        };
        // background: scatter prolongations into halo blocks; foreground:
        // interior fluxes, overlapping the scatter
        let by_dst = &by_dst;
        let (mut halo, ()) = pool::overlap_join(
            move || {
                for (id, node, _) in halo.iter_mut() {
                    if let Some(ops) = by_dst.get(id) {
                        for op in ops {
                            scatter_op(node.field_mut(), op);
                        }
                    }
                }
                halo
            },
            || {
                let _o = metrics.span(phase::OVERLAP);
                let _f = metrics.span(phase::FLUX);
                run_flux(&mut interior);
            },
        );
        drop(ghost_span);
        // join: halo fluxes once their ghosts are complete
        let _f = metrics.span(phase::FLUX);
        run_flux(&mut halo);
    }

    /// One parallel SSP-RK2 step (Heun), identical arithmetic to the serial
    /// stepper.
    pub fn step_rk2(&mut self, grid: &mut BlockGrid<D>, dt: f64) {
        self.eval_rhs(grid);
        // stage 1: save u^n, write u* = u + dt L(u)
        {
            let _span = self.cfg.metrics.span(phase::UPDATE);
            let phys = &self.cfg.physics;
            let sw = self.engine.sweep();
            let rhs: &[FieldBlock<D>] = sw.rhs;
            let nodes: Vec<_> = grid.blocks_mut().collect();
            let ids: Vec<BlockId> = nodes.iter().map(|(id, _)| *id).collect();
            let stage_refs = indexed_refs(sw.stage, &ids);
            let mut work: Vec<_> = nodes.into_iter().zip(stage_refs).collect();
            pool::par_for_each_mut(&mut work, |((id, node), stage)| {
                rk2_stage1_block(phys, node.field_mut(), &rhs[id.index()], stage, dt);
            });
        }
        // stage 2: u^{n+1} = 1/2 u^n + 1/2 (u* + dt L(u*))
        self.eval_rhs(grid);
        {
            let _span = self.cfg.metrics.span(phase::UPDATE);
            let phys = &self.cfg.physics;
            let sw = self.engine.sweep();
            let rhs: &[FieldBlock<D>] = sw.rhs;
            let stage: &[FieldBlock<D>] = sw.stage;
            let mut nodes: Vec<_> = grid.blocks_mut().collect();
            pool::par_for_each_mut(&mut nodes, |(id, node)| {
                rk2_stage2_block(phys, node.field_mut(), &rhs[id.index()], &stage[id.index()], dt);
            });
        }
    }

    /// Largest stable coarsest-level `dt₀` for subcycling (parallel
    /// per-level reductions; see [`ablock_solver::subcycle::max_dt0`]).
    pub fn max_dt0(&mut self, grid: &BlockGrid<D>) -> f64 {
        let mut sub = std::mem::take(&mut self.sub);
        let dt0 = subcycle::max_dt0(self, grid, &mut sub);
        self.sub = sub;
        dt0
    }

    /// One subcycled hierarchy advance by `dt0`
    /// (see [`ablock_solver::subcycle::step_subcycled`]); level sweeps
    /// and ghost fills run on the pool, with the same per-block
    /// arithmetic as the serial driver.
    pub fn step_subcycled(&mut self, grid: &mut BlockGrid<D>, dt0: f64) {
        grid.ensure_geometry(&self.cfg.geometry);
        let mut sub = std::mem::take(&mut self.sub);
        subcycle::step_subcycled(self, grid, &mut sub, dt0, None);
        self.sub = sub;
    }

    /// Mode-dispatching stable step size (global CFL reduction versus
    /// coarsest-level `dt₀`). Installs the config's immersed geometry
    /// first so the CFL scan sees the same solid mask the step will.
    pub fn stable_dt(&mut self, grid: &mut BlockGrid<D>) -> f64 {
        grid.ensure_geometry(&self.cfg.geometry);
        match self.cfg.time_step_mode {
            TimeStepMode::Global => self.max_dt(grid),
            TimeStepMode::Subcycled => self.max_dt0(grid),
        }
    }

    /// Advance by `dt` honoring [`SolverConfig::time_step_mode`].
    pub fn step(&mut self, grid: &mut BlockGrid<D>, dt: f64) {
        match self.cfg.time_step_mode {
            TimeStepMode::Global => self.step_rk2(grid, dt),
            TimeStepMode::Subcycled => self.step_subcycled(grid, dt),
        }
    }
}

impl<const D: usize, P: Physics> SubcycleBackend<D> for ParStepper<D, P> {
    type Phys = P;

    fn cfg_engine(&mut self) -> (&SolverConfig<P>, &mut SweepEngine<D>) {
        (&self.cfg, &mut self.engine)
    }

    fn level_ids(&self, grid: &BlockGrid<D>, level: u8) -> Vec<BlockId> {
        grid.block_ids()
            .into_iter()
            .filter(|&id| grid.block(id).key().level == level)
            .collect()
    }

    fn fill_level(
        &mut self,
        grid: &mut BlockGrid<D>,
        state: &SubcycleState<D>,
        li: usize,
        theta: f64,
        _bc: Option<&BcFn<D>>,
    ) {
        // Like step_rk2, the pool executor has no custom-bc path; the
        // plan's default boundary synthesis applies.
        let metrics = self.cfg.metrics.clone();
        let config = self.engine.config().clone();
        let _span = metrics.span(phase::GHOST_FILL);
        state.with_lerped_sources(grid, li, theta, |grid, plan| {
            par_fill_ghosts_with(grid, plan, &config, &metrics);
        });
    }

    fn sweep_level(&mut self, grid: &BlockGrid<D>, ids: &[BlockId]) {
        let metrics = self.cfg.metrics.clone();
        let _span = metrics.span(phase::FLUX);
        let m = grid.params().block_dims;
        let layout = grid.layout().clone();
        let phys = &self.cfg.physics;
        let scheme = self.cfg.scheme;
        let sw = self.engine.sweep();
        let rhs_refs = indexed_refs(sw.rhs, ids);
        if self.cfg.refluxing {
            let store_refs = indexed_refs(sw.flux_stores, ids);
            let mut work: Vec<_> =
                ids.iter().copied().zip(rhs_refs.into_iter().zip(store_refs)).collect();
            pool::par_for_each_mut_init(&mut work, Vec::new, |scratch, (id, (rhs, store))| {
                let node = grid.block(*id);
                let h = layout.cell_size(node.key().level, m);
                compute_rhs_block_fluxes(
                    phys,
                    scheme,
                    node.field(),
                    h,
                    rhs,
                    scratch,
                    Some(store),
                );
            });
        } else {
            let mut work: Vec<_> = ids.iter().copied().zip(rhs_refs).collect();
            pool::par_for_each_mut_init(&mut work, Vec::new, |scratch, (id, rhs)| {
                let node = grid.block(*id);
                let h = layout.cell_size(node.key().level, m);
                compute_rhs_block(phys, scheme, node.field(), h, rhs, scratch);
            });
        }
    }

    fn level_rates(&mut self, grid: &BlockGrid<D>, state: &SubcycleState<D>) -> Vec<f64> {
        let m = grid.params().block_dims;
        let mut scanned = 0u64;
        let rates: Vec<f64> = (0..state.levels().len())
            .map(|li| {
                let ids = state.ids(li);
                scanned += ids.len() as u64;
                // f64 max is exact and order-independent: same dt0 as the
                // serial reduction, bit for bit.
                pool::par_max_f64(ids, 0.0, |&id| {
                    let node = grid.block(id);
                    let h = grid.layout().cell_size(node.key().level, m);
                    max_rate_block(&self.cfg.physics, node.field(), h)
                })
            })
            .collect();
        self.engine.note_rate_scans(scanned);
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_solver::euler::Euler;
    use ablock_solver::kernel::Scheme;
    use ablock_solver::problems;
    use ablock_solver::stepper::Stepper;

    fn build() -> (BlockGrid<2>, Euler<2>) {
        let e = Euler::<2>::new(1.4);
        let mut g = BlockGrid::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 3),
        );
        problems::advected_gaussian(&mut g, &e, [1.0, -0.5], [0.4, 0.6], 0.15);
        (g, e)
    }

    fn collect(g: &BlockGrid<2>) -> Vec<(BlockKey<2>, Vec<f64>)> {
        let mut v: Vec<_> = g
            .blocks()
            .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    #[test]
    fn parallel_matches_serial_uniform() {
        let (mut gs, e) = build();
        let (mut gp, _) = build();
        let mut serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let dt = 1.5e-3;
        for _ in 0..4 {
            serial.step_rk2(&mut gs, dt, None);
            par.step_rk2(&mut gp, dt);
        }
        let a = collect(&gs);
        let b = collect(&gp);
        let shape = gs.params().field_shape();
        for ((ka, fa), (kb, fb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (fa[i + v] - fb[i + v]).abs() < 1e-14,
                        "block {ka:?} cell {c:?} var {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_refined() {
        let (mut gs, e) = build();
        let id = gs.find(BlockKey::new(0, [1, 1])).unwrap();
        gs.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        let (mut gp, _) = build();
        let id = gp.find(BlockKey::new(0, [1, 1])).unwrap();
        gp.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();

        let mut serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let dt = 1e-3;
        for _ in 0..3 {
            serial.step_rk2(&mut gs, dt, None);
            par.step_rk2(&mut gp, dt);
        }
        let a = collect(&gs);
        let b = collect(&gp);
        let shape = gs.params().field_shape();
        for ((ka, fa), (kb, fb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (fa[i + v] - fb[i + v]).abs() < 1e-13,
                        "block {ka:?} cell {c:?} var {v}: {} vs {}",
                        fa[i + v],
                        fb[i + v]
                    );
                }
            }
        }
    }

    #[test]
    fn max_dt_matches_serial() {
        let (g, e) = build();
        let serial = Stepper::new(SolverConfig::new(e.clone(), Scheme::muscl_rusanov()));
        let par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        let a = serial.max_dt(&g);
        let b = par.max_dt(&g);
        assert!((a - b).abs() < 1e-16);
    }

    #[test]
    fn sweep_order_follows_partitioner_curve() {
        let (mut g, e) = build();
        let mut par = ParStepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        par.step_rk2(&mut g, 1e-3);
        let walk = CurveWalk::build(&g, par.config().partitioner.curve());
        for (pos, entry) in walk.entries().iter().enumerate() {
            assert_eq!(par.sweep_position(entry.id), Some(pos), "SFC order mismatch");
        }
        // cached: a refine bumps the epoch and forces a rebuild
        let id = g.block_ids()[0];
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        par.step_rk2(&mut g, 1e-3);
        let walk = CurveWalk::build(&g, par.config().partitioner.curve());
        assert_eq!(walk.len(), g.num_blocks());
        for (pos, entry) in walk.entries().iter().enumerate() {
            assert_eq!(par.sweep_position(entry.id), Some(pos), "stale order after adapt");
        }
    }

    #[test]
    fn indexed_refs_disjoint() {
        let mut v = vec![0i32; 10];
        let ids: Vec<BlockId> = {
            // build ids with indices 1, 4, 7 through an arena
            let mut a = ablock_core::arena::Arena::new();
            let all: Vec<BlockId> = (0..8).map(|i| a.insert(i)).collect();
            vec![all[1], all[4], all[7]]
        };
        let refs = indexed_refs(&mut v, &ids);
        assert_eq!(refs.len(), 3);
        for r in refs {
            *r += 1;
        }
        assert_eq!(v, vec![0, 1, 0, 0, 1, 0, 0, 1, 0, 0]);
    }
}
