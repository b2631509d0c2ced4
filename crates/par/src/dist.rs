//! Distributed AMR stepping over the message-passing machine.
//!
//! The decomposition follows the paper (and its BATS-R-US/PARAMESH
//! descendants): the **block topology is replicated** on every rank —
//! thousands of keys and pointers, trivially small next to field data —
//! while each block's **cell data lives on exactly one owner rank**.
//! Communication therefore moves whole ghost-face regions between owners,
//! amortized over blocks of cells exactly as the paper argues.
//!
//! Halo exchange piggybacks on the serial [`GhostExchange`] plan: every
//! rank builds the identical plan; a task whose source block lives on a
//! peer is satisfied by receiving the task's source read-region into the
//! local (otherwise unused) copy of that block, then running the task
//! locally. All tasks between one pair of ranks within one phase travel
//! as a single packed message (see [`AggregatedExchange`]), segments
//! ordered by block keys so packing is replicated-deterministic. One
//! routine runs this protocol for every distributed fill (DESIGN.md §13):
//! the global sweep computes interior fluxes while the phase-1 messages
//! are in flight, [`DistSim::fill_ghosts`] refreshes ghosts with nothing
//! in flight, and the subcycled per-level fills wrap it in the time
//! interpolation of their prolongation sources. Every send precedes its
//! matching receive on every rank, so no barrier is needed, and owned
//! blocks stay bitwise-identical to the serial stepper.
//!
//! Adaptation is replicated the same way: refine/coarsen flags from owned
//! blocks are allgathered as keys, every rank derives the identical
//! [`AdaptPlan`](ablock_core::balance::AdaptPlan), sibling interiors of
//! the planned coarsen groups are
//! pre-exchanged point-to-point (the only remote data the conservative
//! transfer reads), every rank applies the identical plan, and ownership
//! is inherited (children from parent, parent from first child).
//!
//! Re-balancing is **incremental** (DESIGN.md §16): the leaves are kept in
//! curve order ([`CurveWalk`], spliced per adapt, never re-sorted), the
//! configured [`Partitioner`] recomputes only the cut points, and the
//! resulting [`RebalancePlan`](ablock_core::partition::RebalancePlan)
//! migrates exactly the blocks whose curve
//! interval moved — one packed message per rank pair, segments in walk
//! order, mirroring the aggregated-exchange protocol. No whole-grid
//! collective remains on the adapt path; `gather_full` survives solely
//! for checkpoint writes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ablock_core::arena::BlockId;
use ablock_core::balance::{apply_adapt, plan_adapt, Flag};
use ablock_core::ghost::{
    extract_box, insert_box, task_dst, task_source_box, AggregatedExchange, GhostExchange,
};
use ablock_core::grid::{BlockGrid, Transfer};
use ablock_core::index::Face;
use ablock_core::key::BlockKey;
use ablock_core::ops::ProlongOrder;
use ablock_core::partition::{cell_weights, inherit_owner, CurveWalk, Partitioner};

use ablock_obs::{phase, Metrics};
use ablock_solver::engine::{rk2_stage1_block, rk2_stage2_block, BcFn, SweepEngine, SweepSplit};
use ablock_solver::kernel::{compute_rhs_block_fluxes, max_rate_block};
use ablock_solver::physics::Physics;
use ablock_solver::recon::Recon;
use ablock_solver::reflux::coarse_fine_fetch_list;
use ablock_solver::subcycle::{self, SubcycleBackend, SubcycleState};
use ablock_solver::{SolverConfig, TimeStepMode};

use crate::machine::Comm;

/// Tag for migration pair messages. One message per rank pair per
/// rebalance; per-`(src, tag)` FIFO matching keeps successive rebalances
/// ordered without a barrier.
const TAG_MIGRATE: u64 = 1 << 41;
/// Base tag for aggregated pair messages (`+ phase index`). Successive
/// exchanges reuse the same tags; per-`(src, tag)` FIFO matching in the
/// stash keeps them ordered without a barrier.
const TAG_AGG: u64 = 1 << 42;
/// Tag for coarsen-group sibling-interior pre-sends during adapt.
const TAG_COARSEN: u64 = 1 << 45;
/// Base tag for subcycled per-level ghost fills (`+ phase index`). Every
/// rank runs the identical driver recursion, so fills are issued in the
/// same global order everywhere and per-`(src, tag)` FIFO matching keeps
/// successive fills ordered without sequence numbers.
const TAG_SUB: u64 = 1 << 46;
/// Tag for fine-side reflux-accumulator face fetches before a coarse
/// level refluxes (see [`DistBackend::pre_reflux`]).
const TAG_SUBACC: u64 = 1 << 47;

/// Replicated per-block weight hook for rebalancing (measured costs from
/// step timers, cost-model estimates, …). **Must be deterministic and
/// identical on every rank** — all ranks derive the rebalance plan
/// independently, so rank-local inputs (e.g. raw timers) have to be
/// reduced to a replicated value first.
pub type WeightFn<const D: usize> = Arc<dyn Fn(&BlockGrid<D>, BlockId) -> f64 + Send + Sync>;

/// A rank's view of the distributed simulation.
pub struct DistSim<const D: usize, P: Physics> {
    /// Replicated grid; only owned blocks hold authoritative field data.
    pub grid: BlockGrid<D>,
    /// Block → owning rank.
    pub owner: HashMap<BlockId, usize>,
    cfg: SolverConfig<P>,
    engine: SweepEngine<D>,
    /// Leaves in curve order, spliced incrementally per adapt.
    walk: CurveWalk<D>,
    /// Optional measured-cost weights; interior cell counts otherwise.
    weight_fn: Option<WeightFn<D>>,
    /// Epoch-cached per-rank-pair aggregation of the ghost plan.
    agg: Option<AggregatedExchange<D>>,
    /// Epoch-cached interior/halo split of this rank's owned blocks.
    split: SweepSplit,
    /// Epoch-keyed subcycling scratch (level tables, per-level plans,
    /// flux accumulators); empty until the first subcycled call.
    sub: SubcycleState<D>,
    /// Epoch-cached aggregations of the per-level subcycle plans,
    /// parallel to `sub.levels()`.
    sub_agg: Vec<AggregatedExchange<D>>,
}

impl<const D: usize, P: Physics> DistSim<D, P> {
    /// Wrap a (deterministically identical on every rank) grid with an
    /// ownership map. The [`SolverConfig`] must be identical on every
    /// rank (physics, scheme, CFL, partitioner — the replicated-topology
    /// invariant extends to the solver parameters).
    pub fn new(
        mut grid: BlockGrid<D>,
        owner: HashMap<BlockId, usize>,
        cfg: SolverConfig<P>,
    ) -> Self {
        // Replicated-deterministic by construction: every rank holds the
        // identical cfg, so every rank binarizes identical solid masks.
        grid.ensure_geometry(&cfg.geometry);
        let engine = cfg.engine();
        let walk = CurveWalk::build(&grid, cfg.partitioner.curve());
        DistSim {
            grid,
            owner,
            cfg,
            engine,
            walk,
            weight_fn: None,
            agg: None,
            split: SweepSplit::default(),
            sub: SubcycleState::new(),
            sub_agg: Vec::new(),
        }
    }

    /// Partition-and-wrap convenience using the config's partitioner.
    pub fn partitioned(grid: BlockGrid<D>, nranks: usize, cfg: SolverConfig<P>) -> Self {
        let owner = cfg.partitioner.partition_grid(&grid, nranks);
        Self::new(grid, owner, cfg)
    }

    /// Install a replicated measured-cost weight hook (see [`WeightFn`]).
    pub fn set_weight_fn(&mut self, f: WeightFn<D>) {
        self.weight_fn = Some(f);
    }

    /// The solver configuration this simulation was built from.
    pub fn config(&self) -> &SolverConfig<P> {
        &self.cfg
    }

    /// The underlying sweep engine (plan cache stats).
    pub fn engine(&self) -> &SweepEngine<D> {
        &self.engine
    }

    /// Mutable engine access — the single escape hatch for out-of-band
    /// invalidation (`engine_mut().invalidate()`). **Not** needed after
    /// adapt or rebalance — both bump the grid's topology epoch, which
    /// the engine tracks automatically.
    pub fn engine_mut(&mut self) -> &mut SweepEngine<D> {
        &mut self.engine
    }

    /// Blocks owned by `rank`.
    pub fn owned_ids(&self, rank: usize) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .grid
            .block_ids()
            .into_iter()
            .filter(|id| self.owner[id] == rank)
            .collect();
        v.sort();
        v
    }

    /// Refresh the ghost cells of every owned block with the aggregated
    /// exchange, nothing in flight — for callers that read ghosts outside
    /// a step (flagging, diagnostics). Collective: every rank calls it.
    /// Owned blocks end bitwise-equal to a serial fill of the same grid.
    pub fn fill_ghosts(&mut self, comm: &Comm) {
        self.refresh_overlap_caches(comm.rank());
        let _span = self.cfg.metrics.span(phase::GHOST_FILL);
        let agg = self.agg.as_ref().expect("refreshed above");
        let exchange = PairExchange::new(agg, &self.owner, comm, &self.cfg.metrics, TAG_AGG);
        exchange.run(&mut self.grid, self.engine.plan());
    }

    /// Revalidate the plan and, when the topology epoch moved (or on
    /// first use), rebuild the epoch-cached aggregation and this rank's
    /// interior/halo split. Rebalance and adapt both bump the epoch, so
    /// ownership changes invalidate these caches automatically.
    fn refresh_overlap_caches(&mut self, me: usize) {
        self.engine.revalidate(&self.grid);
        let stale = match &self.agg {
            Some(a) => !a.is_current(&self.grid),
            None => true,
        };
        if stale {
            let owner = &self.owner;
            self.agg = Some(self.engine.plan().aggregate(&self.grid, &|id| owner[&id]));
            self.split = self
                .engine
                .split_remote(&self.owned_ids(me), &|id| owner[&id] != me);
        }
    }

    /// Global CFL time step across all owned blocks, at the configured
    /// CFL number.
    pub fn max_dt(&self, comm: &Comm) -> f64 {
        let me = comm.rank();
        let mut rate: f64 = 0.0;
        for id in self.owned_ids(me) {
            let node = self.grid.block(id);
            let h = self
                .grid
                .layout()
                .cell_size(node.key().level, self.grid.params().block_dims);
            rate = rate.max(max_rate_block(&self.cfg.physics, node.field(), h));
        }
        let global = comm.allreduce_max(rate);
        if global > 0.0 {
            self.cfg.cfl / global
        } else {
            f64::INFINITY
        }
    }

    /// Ghost exchange plus RHS of every owned block, overlapped: interior
    /// fluxes are computed between the phase-1 sends and receives, so the
    /// exchange is in flight during the bulk of the sweep; halo fluxes
    /// follow the join. Bitwise-identical to a serial fill plus a full
    /// sweep: the per-task arithmetic is untouched and every ghost cell
    /// is written exactly once per exchange, so only the execution order
    /// across blocks changes.
    fn eval_rhs(&mut self, comm: &Comm) {
        self.refresh_overlap_caches(comm.rank());
        let ghost_span = self.cfg.metrics.span(phase::GHOST_FILL);
        let agg = self.agg.as_ref().expect("refreshed above");
        let exchange = PairExchange::new(agg, &self.owner, comm, &self.cfg.metrics, TAG_AGG);
        let interior = &self.split.interior;
        exchange.start(&mut self.grid, self.engine.plan(), interior);
        {
            let _o = self.cfg.metrics.span(phase::OVERLAP);
            let _f = self.cfg.metrics.span(phase::FLUX);
            sweep_blocks(&self.cfg, &mut self.engine, &self.grid, interior, false);
        }
        exchange.finish(&mut self.grid, self.engine.plan(), interior);
        drop(ghost_span);
        let _f = self.cfg.metrics.span(phase::FLUX);
        sweep_blocks(&self.cfg, &mut self.engine, &self.grid, &self.split.halo, false);
    }

    /// One SSP-RK2 step of the owned blocks.
    pub fn step_rk2(&mut self, comm: &Comm, dt: f64) {
        let ids = self.owned_ids(comm.rank());
        self.eval_rhs(comm);
        {
            let sw = self.engine.sweep();
            for &id in &ids {
                let node = self.grid.block_mut(id);
                rk2_stage1_block(
                    &self.cfg.physics,
                    node.field_mut(),
                    &sw.rhs[id.index()],
                    &mut sw.stage[id.index()],
                    dt,
                );
            }
        }
        self.eval_rhs(comm);
        let sw = self.engine.sweep();
        for &id in &ids {
            let node = self.grid.block_mut(id);
            rk2_stage2_block(
                &self.cfg.physics,
                node.field_mut(),
                &sw.rhs[id.index()],
                &sw.stage[id.index()],
                dt,
            );
        }
    }

    /// Largest stable coarsest-level `dt₀` for subcycling
    /// ([`subcycle::max_dt0`]): one scan of every owned block, reduced
    /// per level with `allreduce_max`. The `f64` max reduction is exact
    /// and order-independent, so every rank computes a `dt₀` bitwise
    /// equal to the serial stepper's.
    pub fn max_dt0(&mut self, comm: &Comm) -> f64 {
        let mut sub = std::mem::take(&mut self.sub);
        let mut backend = DistBackend {
            cfg: &self.cfg,
            engine: &mut self.engine,
            owner: &self.owner,
            sub_agg: &mut self.sub_agg,
            comm,
            me: comm.rank(),
        };
        let dt0 = subcycle::max_dt0(&mut backend, &self.grid, &mut sub);
        self.sub = sub;
        dt0
    }

    /// One subcycled hierarchy advance by `dt0` (DESIGN.md §17): the
    /// shared driver recursion over this rank's owned blocks, with
    /// aggregated per-level ghost fills and fine-side accumulator
    /// fetches before each coarse reflux. The recursion, fill
    /// arithmetic, and reflux order are identical to the serial
    /// stepper's, so owned interiors stay bitwise-identical to it.
    pub fn step_subcycled(&mut self, comm: &Comm, dt0: f64) {
        let mut sub = std::mem::take(&mut self.sub);
        let mut backend = DistBackend {
            cfg: &self.cfg,
            engine: &mut self.engine,
            owner: &self.owner,
            sub_agg: &mut self.sub_agg,
            comm,
            me: comm.rank(),
        };
        subcycle::step_subcycled(&mut backend, &mut self.grid, &mut sub, dt0, None);
        self.sub = sub;
    }

    /// The stable step for the configured [`TimeStepMode`]: the global
    /// CFL `dt` or the subcycled coarsest-level `dt₀`.
    pub fn stable_dt(&mut self, comm: &Comm) -> f64 {
        match self.cfg.time_step_mode {
            TimeStepMode::Global => self.max_dt(comm),
            TimeStepMode::Subcycled => self.max_dt0(comm),
        }
    }

    /// Advance one step with the configured [`TimeStepMode`]: a global
    /// SSP-RK2 step or one subcycled coarsest-level cycle.
    pub fn advance(&mut self, comm: &Comm, dt: f64) {
        match self.cfg.time_step_mode {
            TimeStepMode::Global => self.step_rk2(comm, dt),
            TimeStepMode::Subcycled => self.step_subcycled(comm, dt),
        }
    }

    /// Replicated adapt: flags for owned blocks are allgathered as keys,
    /// every rank derives the identical [`ablock_core::balance::AdaptPlan`],
    /// sibling interiors of planned coarsen groups are pre-exchanged point
    /// to point, the plan is applied identically everywhere, ownership is
    /// inherited, the curve walk is spliced in place, and an incremental
    /// rebalance migrates exactly the blocks whose curve interval moved.
    /// Returns true if the grid changed.
    pub fn adapt_rebalance(
        &mut self,
        comm: &Comm,
        local_flags: &HashMap<BlockId, Flag>,
    ) -> bool {
        let me = comm.rank();
        // encode owned flags as (level, coords..., kind) tuples
        let mut payload = Vec::new();
        for (&id, &flag) in local_flags {
            if self.owner[&id] != me || flag == Flag::Keep {
                continue;
            }
            let key = self.grid.block(id).key();
            payload.push(key.level as f64);
            for d in 0..D {
                payload.push(key.coords[d] as f64);
            }
            payload.push(match flag {
                Flag::Refine => 1.0,
                Flag::Coarsen => 2.0,
                Flag::Keep => unreachable!(),
            });
        }
        let all = comm.allgatherv(payload);
        let mut flags: HashMap<BlockId, Flag> = HashMap::new();
        for part in all {
            for chunk in part.chunks_exact(D + 2) {
                let level = chunk[0] as u8;
                let mut coords = [0i64; D];
                for d in 0..D {
                    coords[d] = chunk[1 + d] as i64;
                }
                let flag = if chunk[D + 1] == 1.0 { Flag::Refine } else { Flag::Coarsen };
                if let Some(id) = self.grid.find(BlockKey::new(level, coords)) {
                    flags.insert(id, flag);
                }
            }
        }
        // ownership by key before restructuring
        let owner_by_key: HashMap<BlockKey<D>, usize> = self
            .grid
            .blocks()
            .map(|(id, n)| (n.key(), self.owner[&id]))
            .collect();
        let transfer = Transfer::Conservative(match self.cfg.scheme.recon {
            Recon::FirstOrder => ProlongOrder::Constant,
            Recon::Muscl(_) => ProlongOrder::LinearMinmod,
        });
        // The conservative transfer reads *full interiors* of exactly two
        // kinds of blocks: the parent of each refined block and the 2^D
        // children of each coarsen group. Refinement is safe without any
        // exchange — children inherit the parent's owner, and on that rank
        // the parent interior being prolonged is authoritative (mirrors
        // elsewhere prolong stale data into non-authoritative copies).
        // Coarsening is not: siblings may live on ranks other than the
        // surviving owner. So instead of gathering the whole grid we
        // pre-send just the sibling interiors of the planned groups to the
        // rank that will own the coarse parent.
        let plan = plan_adapt(&self.grid, &flags);
        self.fetch_coarsen_groups(comm, &plan.coarsen, &owner_by_key);
        let report = apply_adapt(&mut self.grid, &plan, transfer);
        // ownership is inherited: same key → same owner; child → parent's
        // owner; parent (after coarsen) → first child's owner
        self.owner = inherit_owner(&self.grid, &owner_by_key);
        // splice the curve walk instead of re-sorting: refined parents
        // become 2^D contiguous children, applied coarsen groups collapse.
        // A planned coarsen may still be vetoed at apply time; the parent
        // key is a leaf iff the group actually merged.
        let refined: Vec<BlockKey<D>> = plan.refine.iter().map(|(k, _)| *k).collect();
        let merged: Vec<BlockKey<D>> = plan
            .coarsen
            .iter()
            .copied()
            .filter(|p| self.grid.find(*p).is_some())
            .collect();
        self.walk.apply_adapt(&refined, &merged, &self.grid);
        // no invalidation needed: adapt's refine/coarsen calls bumped the
        // grid epoch, and rebalance below bumps it for ownership changes
        if report.changed() {
            self.cfg.metrics.incr("dist.adapts", 1);
        }
        if report.changed() || comm.nranks() > 1 {
            self.rebalance(comm);
        }
        report.changed()
    }

    /// Pre-exchange the sibling interiors a planned coarsen needs: for
    /// every group, children owned by a rank other than the owner of
    /// child 0 (the inherited owner of the coarse parent) are sent to
    /// that rank — one vectored message per rank pair, segments in plan
    /// order, so the protocol is deterministic on both sides. Sends for
    /// groups vetoed at apply time are harmless (they only refresh the
    /// receiver's mirror copies). This replaces the whole-grid
    /// `gather_full` on the adapt path.
    fn fetch_coarsen_groups(
        &mut self,
        comm: &Comm,
        groups: &[BlockKey<D>],
        owner_by_key: &HashMap<BlockKey<D>, usize>,
    ) {
        if groups.is_empty() || comm.nranks() == 1 {
            return;
        }
        let me = comm.rank();
        // (from, to) → child keys in plan order; replicated on every rank
        let mut pair_keys: BTreeMap<(usize, usize), Vec<BlockKey<D>>> = BTreeMap::new();
        for p in groups {
            let dst = owner_by_key[&p.child(0)];
            for ci in 1..(1usize << D) {
                let ck = p.child(ci);
                let src = owner_by_key[&ck];
                if src != dst {
                    pair_keys.entry((src, dst)).or_default().push(ck);
                }
            }
        }
        let params = self.grid.params();
        let values = params.field_shape().interior_cells() * params.nvar;
        // sends first (unbounded channels: no deadlock)
        for ((from, to), keys) in &pair_keys {
            if *from != me {
                continue;
            }
            let parts: Vec<Vec<f64>> = keys
                .iter()
                .map(|ck| {
                    let id = self.grid.find(*ck).expect("planned group child is a leaf");
                    let node = self.grid.block(id);
                    extract_box(node.field(), node.field().shape().interior_box())
                })
                .collect();
            let slices: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
            self.cfg.metrics.incr("dist.coarsen_fetch.messages", 1);
            self.cfg.metrics.incr("dist.coarsen_fetch.values", (values * keys.len()) as u64);
            comm.send_vectored(*to, TAG_COARSEN, &slices);
        }
        for ((from, to), keys) in &pair_keys {
            if *to != me {
                continue;
            }
            let lens = vec![values; keys.len()];
            let parts = comm.recv_vectored(*from, TAG_COARSEN, &lens);
            for (ck, data) in keys.iter().zip(parts) {
                let id = self.grid.find(*ck).expect("planned group child is a leaf");
                let bx = self.grid.block(id).field().shape().interior_box();
                insert_box(self.grid.block_mut(id).field_mut(), bx, &data);
            }
        }
    }

    /// Gather every owned block's interior data onto every rank. After
    /// this collective, the replicated grid holds authoritative field
    /// data everywhere — the precondition for writing a consistent
    /// checkpoint from any single rank (the recovery driver does exactly
    /// that on rank 0).
    pub fn gather_full(&mut self, comm: &Comm) {
        let me = comm.rank();
        let params = self.grid.params();
        let values = params.field_shape().interior_cells() * params.nvar;
        let rec = 1 + D + values;
        let mut payload = Vec::new();
        for id in self.owned_ids(me) {
            let node = self.grid.block(id);
            let key = node.key();
            payload.push(key.level as f64);
            for d in 0..D {
                payload.push(key.coords[d] as f64);
            }
            let bx = node.field().shape().interior_box();
            payload.extend(extract_box(node.field(), bx));
        }
        let all = comm.allgatherv(payload);
        for part in all {
            for chunk in part.chunks_exact(rec) {
                let level = chunk[0] as u8;
                let mut coords = [0i64; D];
                for d in 0..D {
                    coords[d] = chunk[1 + d] as i64;
                }
                if let Some(id) = self.grid.find(BlockKey::new(level, coords)) {
                    let bx = self.grid.block(id).field().shape().interior_box();
                    insert_box(self.grid.block_mut(id).field_mut(), bx, &chunk[1 + D..]);
                }
            }
        }
    }

    /// Incremental rebalance with the config's partitioner: recompute cut
    /// points over the maintained curve walk and migrate exactly the
    /// blocks whose interval moved (see
    /// [`RebalancePlan`](ablock_core::partition::RebalancePlan)).
    pub fn rebalance(&mut self, comm: &Comm) {
        let partitioner = self.cfg.partitioner.clone();
        self.rebalance_with(comm, &partitioner);
    }

    /// [`DistSim::rebalance`] with an explicit partitioner (must be
    /// identical on every rank). The walk is rebuilt only if the grid
    /// changed outside [`DistSim::adapt_rebalance`] or the curve differs.
    pub fn rebalance_with(&mut self, comm: &Comm, partitioner: &Partitioner) {
        let me = comm.rank();
        if !self.walk.is_current(&self.grid) || self.walk.curve() != partitioner.curve() {
            self.walk = CurveWalk::build(&self.grid, partitioner.curve());
        }
        let weights: Vec<f64> = match &self.weight_fn {
            Some(f) => self.walk.entries().iter().map(|e| f(&self.grid, e.id)).collect(),
            None => cell_weights(&self.grid, &self.walk),
        };
        let owner = &self.owner;
        let plan = partitioner.plan(&self.walk, &weights, comm.nranks(), |id| owner[&id]);
        let params = self.grid.params();
        let values_per_block = params.field_shape().interior_cells() * params.nvar;
        self.cfg.metrics.incr("dist.rebalance.count", 1);
        self.cfg.metrics.incr("dist.rebalance.migrated_blocks", plan.migrated() as u64);
        self.cfg
            .metrics
            .incr("dist.rebalance.values", (plan.migrated() * values_per_block) as u64);
        self.cfg.metrics.incr("dist.rebalance.pair_msgs", plan.pairs().len() as u64);
        // one vectored message per rank pair, segments in walk order —
        // the plan is replicated, so both sides derive identical layouts
        let mut by_pair: BTreeMap<(usize, usize), Vec<BlockId>> = BTreeMap::new();
        for m in &plan.moves {
            by_pair.entry((m.from, m.to)).or_default().push(m.id);
        }
        // sends first (unbounded channels: no deadlock)
        for ((from, to), ids) in &by_pair {
            if *from != me {
                continue;
            }
            let parts: Vec<Vec<f64>> = ids
                .iter()
                .map(|&id| {
                    let node = self.grid.block(id);
                    extract_box(node.field(), node.field().shape().interior_box())
                })
                .collect();
            let slices: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
            self.cfg.metrics.incr("dist.migrated_blocks", ids.len() as u64);
            comm.send_vectored(*to, TAG_MIGRATE, &slices);
        }
        for ((from, to), ids) in &by_pair {
            if *to != me {
                continue;
            }
            let lens = vec![values_per_block; ids.len()];
            let parts = comm.recv_vectored(*from, TAG_MIGRATE, &lens);
            for (&id, data) in ids.iter().zip(parts) {
                let bx = self.grid.block(id).field().shape().interior_box();
                insert_box(self.grid.block_mut(id).field_mut(), bx, &data);
            }
        }
        for (e, &r) in self.walk.entries().iter().zip(&plan.assign) {
            self.owner.insert(e.id, r);
        }
        if !plan.is_noop() {
            // redistribution changes which ranks hold authoritative data;
            // bump the epoch so every epoch-keyed cache sees the new layout
            self.grid.bump_epoch();
            self.walk.sync_epoch(&self.grid);
        }
    }
}

/// Disjoint-field borrow of a [`DistSim`] (everything but the grid,
/// which the subcycled driver borrows separately) plus the communicator
/// the driver signatures don't carry. Implements [`SubcycleBackend`]
/// over this rank's owned blocks.
struct DistBackend<'a, const D: usize, P: Physics> {
    cfg: &'a SolverConfig<P>,
    engine: &'a mut SweepEngine<D>,
    owner: &'a HashMap<BlockId, usize>,
    sub_agg: &'a mut Vec<AggregatedExchange<D>>,
    comm: &'a Comm,
    me: usize,
}

impl<const D: usize, P: Physics> SubcycleBackend<D> for DistBackend<'_, D, P> {
    type Phys = P;

    fn cfg_engine(&mut self) -> (&SolverConfig<P>, &mut SweepEngine<D>) {
        (self.cfg, self.engine)
    }

    fn level_ids(&self, grid: &BlockGrid<D>, level: u8) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = grid
            .block_ids()
            .into_iter()
            .filter(|id| self.owner[id] == self.me && grid.block(*id).key().level == level)
            .collect();
        v.sort();
        v
    }

    fn is_owned(&self, id: BlockId) -> bool {
        self.owner[&id] == self.me
    }

    /// Distributed per-level fill: the global path's exchange protocol
    /// over the level's filtered plan, with nothing in flight, wrapped in
    /// the time interpolation of this rank's owned prolongation sources —
    /// owners blend *before* packing, so mirrors receive
    /// owner-interpolated data and are never restored. Every rank runs
    /// the identical driver recursion, so fills are globally ordered.
    fn fill_level(
        &mut self,
        grid: &mut BlockGrid<D>,
        state: &SubcycleState<D>,
        li: usize,
        theta: f64,
        _bc: Option<&BcFn<D>>,
    ) {
        // rebuild the per-level aggregations when the topology epoch
        // moved (adapt, rebalance) — same cadence as the engine's plan
        let nlv = state.levels().len();
        let stale =
            self.sub_agg.len() != nlv || self.sub_agg.iter().any(|a| !a.is_current(grid));
        if stale {
            let owner = self.owner;
            self.sub_agg.clear();
            for l in 0..nlv {
                self.sub_agg.push(state.plan(l).aggregate(grid, &|id| owner[&id]));
            }
        }
        let _span = self.cfg.metrics.span(phase::GHOST_FILL);
        let agg = &self.sub_agg[li];
        let exchange = PairExchange::new(agg, self.owner, self.comm, &self.cfg.metrics, TAG_SUB);
        state.with_lerped_sources(grid, li, theta, |grid, plan| exchange.run(grid, plan));
    }

    fn sweep_level(&mut self, grid: &BlockGrid<D>, ids: &[BlockId]) {
        let _span = self.cfg.metrics.span(phase::FLUX);
        sweep_blocks(self.cfg, self.engine, grid, ids, self.cfg.refluxing);
    }

    fn level_rates(&mut self, grid: &BlockGrid<D>, state: &SubcycleState<D>) -> Vec<f64> {
        let mut rates = vec![0.0f64; state.levels().len()];
        let mut scanned = 0u64;
        for (li, rate) in rates.iter_mut().enumerate() {
            let mut local: f64 = 0.0;
            for &id in state.ids(li) {
                let node = grid.block(id);
                let h = grid
                    .layout()
                    .cell_size(node.key().level, grid.params().block_dims);
                local = local.max(max_rate_block(&self.cfg.physics, node.field(), h));
                scanned += 1;
            }
            // f64 max is exact and order-independent, so the reduced
            // per-level rate — and the resulting dt₀ — is bitwise equal
            // to the serial stepper's whole-grid scan.
            *rate = self.comm.allreduce_max(local);
        }
        self.engine.note_rate_scans(scanned);
        rates
    }

    /// Fetch the fine-side `accum_par` faces the coming reflux of level
    /// `levels[li]` reads from other ranks: for every coarse-fine face
    /// whose coarse block is owned here but whose fine block is not, the
    /// fine owner ships that block's accumulated face — one vectored
    /// message per rank pair, faces in the shared reflux traversal
    /// order, so the protocol is replicated-deterministic on both sides.
    fn pre_reflux(&mut self, grid: &BlockGrid<D>, state: &mut SubcycleState<D>, li: usize) {
        if self.comm.nranks() == 1 {
            return;
        }
        let me = self.me;
        let level = state.levels()[li];
        let mut pair_faces: BTreeMap<(usize, usize), Vec<(BlockId, Face)>> = BTreeMap::new();
        for (coarse, fine, face) in coarse_fine_fetch_list(grid, level) {
            let to = self.owner[&coarse];
            let from = self.owner[&fine];
            if from != to {
                let entry = pair_faces.entry((from, to)).or_default();
                let item = (fine, face.opposite());
                if !entry.contains(&item) {
                    entry.push(item);
                }
            }
        }
        // sends first (unbounded channels: no deadlock)
        for ((from, to), faces) in &pair_faces {
            if *from != me {
                continue;
            }
            let parts: Vec<&[f64]> = faces
                .iter()
                .map(|&(id, f)| state.accum_par[id.index()].face(f))
                .collect();
            self.cfg.metrics.incr("dist.sub.reflux_msgs", 1);
            self.comm.send_vectored(*to, TAG_SUBACC, &parts);
        }
        for ((from, to), faces) in &pair_faces {
            if *to != me {
                continue;
            }
            let lens: Vec<usize> = faces
                .iter()
                .map(|&(id, f)| state.accum_par[id.index()].face(f).len())
                .collect();
            let parts = self.comm.recv_vectored(*from, TAG_SUBACC, &lens);
            for (&(id, f), data) in faces.iter().zip(parts) {
                state.accum_par[id.index()].face_mut(f).copy_from_slice(&data);
            }
        }
    }
}

/// Flux `ids` into the engine's RHS scratch, recording block-face fluxes
/// for refluxing when `stores` is set.
fn sweep_blocks<const D: usize, P: Physics>(
    cfg: &SolverConfig<P>,
    engine: &mut SweepEngine<D>,
    grid: &BlockGrid<D>,
    ids: &[BlockId],
    stores: bool,
) {
    let sw = engine.sweep();
    for &id in ids {
        let node = grid.block(id);
        let h = grid
            .layout()
            .cell_size(node.key().level, grid.params().block_dims);
        let store = if stores {
            Some(&mut sw.flux_stores[id.index()])
        } else {
            None
        };
        compute_rhs_block_fluxes(
            &cfg.physics,
            cfg.scheme,
            node.field(),
            h,
            &mut sw.rhs[id.index()],
            sw.prim_scratch,
            store,
        );
    }
}

/// The aggregated ghost-exchange protocol, the only one a distributed
/// fill runs (DESIGN.md §13). For phase 1 and then phase 2, this rank
/// (1) packs and sends its pair messages, (2) runs the tasks writing an
/// owned block from a local source (or from none: boundary synthesis),
/// (3) receives and unpacks its pair messages into the mirror copies of
/// the remote sources, and (4) runs the tasks whose source is remote.
/// Phase-2 sends read this rank's completed phase 1, so every send
/// precedes the matching receive on every rank: no barrier, no deadlock.
///
/// [`PairExchange::start`] stops after phase-1 step 2 so the caller can
/// compute while the phase-1 messages are in flight;
/// [`PairExchange::finish`] completes the exchange.
struct PairExchange<'a, const D: usize> {
    agg: &'a AggregatedExchange<D>,
    owner: &'a HashMap<BlockId, usize>,
    comm: &'a Comm,
    metrics: &'a Metrics,
    /// Phase `p` travels on tag `tag + p`.
    tag: u64,
}

impl<'a, const D: usize> PairExchange<'a, D> {
    fn new(
        agg: &'a AggregatedExchange<D>,
        owner: &'a HashMap<BlockId, usize>,
        comm: &'a Comm,
        metrics: &'a Metrics,
        tag: u64,
    ) -> Self {
        PairExchange { agg, owner, comm, metrics, tag }
    }

    /// Phase-1 steps 1–2, then step 2 of phase 2 for the sorted `early`
    /// destinations. An early destination must have no remote source,
    /// directly or one hop through a phase-2 source's phase-1 slab (the
    /// interior of [`SweepEngine::split_remote`]), so its prolongations
    /// are final already.
    fn start(&self, grid: &mut BlockGrid<D>, plan: &GhostExchange<D>, early: &[BlockId]) {
        let me = self.comm.rank();
        let expected = (0..2)
            .map(|p| self.agg.phase(p).iter().filter(|m| m.from == me).count() as u64)
            .sum::<u64>();
        self.metrics.incr("comm.agg.pair_msgs_expected", expected);
        self.send(grid, 0);
        self.run_tasks(grid, plan, 0, false, |_| true);
        self.run_tasks(grid, plan, 1, false, |dst| early.binary_search(&dst).is_ok());
    }

    /// Phase-1 steps 3–4, then phase 2 for every destination not in
    /// `early` (the same slice [`PairExchange::start`] got).
    fn finish(&self, grid: &mut BlockGrid<D>, plan: &GhostExchange<D>, early: &[BlockId]) {
        self.recv(grid, 0);
        self.run_tasks(grid, plan, 0, true, |_| true);
        self.send(grid, 1);
        self.run_tasks(grid, plan, 1, false, |dst| early.binary_search(&dst).is_err());
        self.recv(grid, 1);
        self.run_tasks(grid, plan, 1, true, |_| true);
    }

    /// The whole exchange with nothing in flight: every phase-2
    /// destination waits for the phase-1 receives.
    fn run(&self, grid: &mut BlockGrid<D>, plan: &GhostExchange<D>) {
        self.start(grid, plan, &[]);
        self.finish(grid, plan, &[]);
    }

    /// Step 1 of phase `p`.
    fn send(&self, grid: &BlockGrid<D>, p: usize) {
        let me = self.comm.rank();
        let _span = self.metrics.span(phase::PACK);
        for msg in self.agg.phase(p).iter().filter(|m| m.from == me) {
            let parts = msg.pack_parts(grid);
            let slices: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
            self.metrics.incr("comm.agg.messages", 1);
            self.metrics.incr("comm.agg.values", msg.values as u64);
            self.metrics.incr("comm.agg.segments", msg.segments.len() as u64);
            self.comm.send_vectored(msg.to, self.tag + p as u64, &slices);
        }
    }

    /// Step 3 of phase `p`.
    fn recv(&self, grid: &mut BlockGrid<D>, p: usize) {
        let me = self.comm.rank();
        let _span = self.metrics.span(phase::UNPACK);
        for msg in self.agg.phase(p).iter().filter(|m| m.to == me) {
            let parts = self.comm.recv_vectored(msg.from, self.tag + p as u64, &msg.lens());
            let n: u64 = parts.iter().map(|p| p.len() as u64).sum();
            self.metrics.incr("dist.halo_values_recv", n);
            msg.unpack(grid, &parts);
        }
    }

    /// Step 2 (`remote == false`) or step 4 (`remote == true`) of phase
    /// `p`, in plan order, for the owned destinations `pick` accepts.
    fn run_tasks(
        &self,
        grid: &mut BlockGrid<D>,
        plan: &GhostExchange<D>,
        p: usize,
        remote: bool,
        pick: impl Fn(BlockId) -> bool,
    ) {
        let me = self.comm.rank();
        let tasks = if p == 0 { plan.phase1() } else { plan.phase2() };
        for task in tasks {
            let dst = task_dst(task);
            if !pick(dst) || self.owner[&dst] != me {
                continue;
            }
            let src_remote =
                task_source_box(task).is_some_and(|(_, src, _)| self.owner[&src] != me);
            if src_remote == remote {
                plan.run_single(grid, task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use ablock_core::grid::GridParams;
    use ablock_core::sfc::Curve;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_solver::euler::Euler;
    use ablock_solver::kernel::Scheme;
    use ablock_solver::problems;
    use ablock_solver::stepper::Stepper;

    fn build_grid() -> BlockGrid<2> {
        BlockGrid::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 2),
        )
    }

    fn init(grid: &mut BlockGrid<2>, e: &Euler<2>) {
        problems::advected_gaussian(grid, e, [1.0, 0.5], [0.5, 0.5], 0.15);
    }

    /// Serial reference: same grid, same scheme, same steps.
    fn serial_solution(steps: usize, dt: f64) -> Vec<(BlockKey<2>, Vec<f64>)> {
        let e = Euler::<2>::new(1.4);
        let mut g = build_grid();
        init(&mut g, &e);
        let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
        for _ in 0..steps {
            st.step_rk2(&mut g, dt, None);
        }
        let mut out: Vec<(BlockKey<2>, Vec<f64>)> = g
            .blocks()
            .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    fn dist_solution(
        nranks: usize,
        steps: usize,
        dt: f64,
        partitioner: Partitioner,
    ) -> Vec<(BlockKey<2>, Vec<f64>)> {
        let results = Machine::run(nranks, move |comm| {
            let e = Euler::<2>::new(1.4);
            let mut g = build_grid();
            init(&mut g, &e);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(partitioner.clone());
            let mut sim = DistSim::partitioned(g, nranks, cfg);
            for _ in 0..steps {
                sim.step_rk2(&comm, dt);
            }
            // return owned blocks
            let me = comm.rank();
            let mut out: Vec<(BlockKey<2>, Vec<f64>)> = sim
                .owned_ids(me)
                .into_iter()
                .map(|id| {
                    let n = sim.grid.block(id);
                    (n.key(), n.field().as_slice().to_vec())
                })
                .collect();
            out.sort_by_key(|(k, _)| *k);
            out
        })
        .unwrap();
        let mut all: Vec<(BlockKey<2>, Vec<f64>)> = results.into_iter().flatten().collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }

    fn interiors_match(a: &[(BlockKey<2>, Vec<f64>)], b: &[(BlockKey<2>, Vec<f64>)]) {
        assert_eq!(a.len(), b.len());
        let shape = ablock_core::field::FieldShape::<2>::new([4, 4], 2, 4);
        for ((ka, fa), (kb, fb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    let (x, y) = (fa[i + v], fb[i + v]);
                    assert!(
                        (x - y).abs() <= 1e-13 * x.abs().max(1.0),
                        "block {ka:?} cell {c:?} var {v}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_ranks_match_serial() {
        let dt = 2e-3;
        let serial = serial_solution(4, dt);
        let dist = dist_solution(2, 4, dt, Partitioner::sfc(Curve::Hilbert));
        interiors_match(&serial, &dist);
    }

    #[test]
    fn four_ranks_match_serial_roundrobin() {
        // round-robin maximizes remote faces: the strongest halo test
        let dt = 2e-3;
        let serial = serial_solution(3, dt);
        let dist = dist_solution(4, 3, dt, Partitioner::round_robin());
        interiors_match(&serial, &dist);
    }

    #[test]
    fn dt_reduction_is_global() {
        let dts = Machine::run(3, |comm| {
            let e = Euler::<2>::new(1.4);
            let mut g = build_grid();
            init(&mut g, &e);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(Partitioner::sfc(Curve::Morton));
            let sim = DistSim::partitioned(g, 3, cfg);
            sim.max_dt(&comm)
        })
        .unwrap();
        assert!((dts[0] - dts[1]).abs() < 1e-15);
        assert!((dts[1] - dts[2]).abs() < 1e-15);
        assert!(dts[0].is_finite() && dts[0] > 0.0);
    }

    #[test]
    fn migration_preserves_data() {
        let sums = Machine::run(2, |comm| {
            let e = Euler::<2>::new(1.4);
            let mut g = build_grid();
            init(&mut g, &e);
            let total_ref: f64 = ablock_solver::stepper::total_conserved(&g, 0);
            let cfg = SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(Partitioner::round_robin());
            let mut sim = DistSim::partitioned(g, 2, cfg);
            // rebalance to SFC cut points: lots of migration
            sim.rebalance_with(&comm, &Partitioner::sfc(Curve::Hilbert));
            // total mass over owned blocks, reduced
            let me = comm.rank();
            let mut local = 0.0;
            for id in sim.owned_ids(me) {
                let n = sim.grid.block(id);
                let h = sim
                    .grid
                    .layout()
                    .cell_size(n.key().level, sim.grid.params().block_dims);
                local += n.field().interior_sum(0) * h[0] * h[1];
            }
            let total = comm.allreduce_sum(local);
            (total, total_ref)
        })
        .unwrap();
        for (total, total_ref) in sums {
            assert!((total - total_ref).abs() < 1e-12 * total_ref);
        }
    }

    #[test]
    fn distributed_adapt_keeps_ranks_consistent() {
        let reports = Machine::run(2, |comm| {
            let e = Euler::<2>::new(1.4);
            let mut g = build_grid();
            init(&mut g, &e);
            let mut sim =
                DistSim::partitioned(g, 2, SolverConfig::new(e, Scheme::muscl_rusanov()));
            // rank-local flags: refine the two blocks covering the pulse
            let me = comm.rank();
            let mut flags = HashMap::new();
            for id in sim.owned_ids(me) {
                let key = sim.grid.block(id).key();
                if key.coords == [1, 1] || key.coords == [2, 2] {
                    flags.insert(id, Flag::Refine);
                }
            }
            let changed = sim.adapt_rebalance(&comm, &flags);
            ablock_core::verify::check_grid(&sim.grid).unwrap();
            // every rank must agree on the new topology
            let nblocks = sim.grid.num_blocks();
            let all = comm.allgatherv(vec![nblocks as f64]);
            for part in &all {
                assert_eq!(part[0] as usize, nblocks);
            }
            // ownership covers every block exactly once across ranks
            let owned = sim.owned_ids(me).len();
            let total_owned = comm.allreduce_sum(owned as f64) as usize;
            assert_eq!(total_owned, nblocks);
            (changed, nblocks)
        })
        .unwrap();
        assert!(reports[0].0);
        assert_eq!(reports[0].1, reports[1].1);
        assert_eq!(reports[0].1, 16 - 2 + 8);
    }

    /// Two-level grid shared by the subcycling tests: refine two root
    /// blocks so round-robin ownership puts coarse-fine faces (and their
    /// reflux fetches) across rank boundaries.
    fn refined_grid(e: &Euler<2>) -> BlockGrid<2> {
        let mut g = build_grid();
        init(&mut g, e);
        for coords in [[1, 1], [2, 2]] {
            let id = g.find(BlockKey::new(0, coords)).unwrap();
            g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
        }
        g
    }

    fn subcycled_cfg(e: Euler<2>) -> SolverConfig<Euler<2>> {
        SolverConfig::new(e, Scheme::muscl_rusanov())
            .with_refluxing(true)
            .with_time_step_mode(TimeStepMode::Subcycled)
    }

    #[test]
    fn dist_subcycled_matches_serial_bitwise() {
        let steps = 3;
        // serial subcycled reference
        let e = Euler::<2>::new(1.4);
        let mut g = refined_grid(&e);
        let mut st = Stepper::new(subcycled_cfg(e));
        let mut serial_dts = Vec::new();
        for _ in 0..steps {
            let dt0 = st.stable_dt(&mut g);
            serial_dts.push(dt0);
            st.step(&mut g, dt0, None);
        }
        let mut serial: Vec<(BlockKey<2>, Vec<f64>)> = g
            .blocks()
            .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
            .collect();
        serial.sort_by_key(|(k, _)| *k);
        // round-robin maximizes remote faces on both fill and reflux
        let results = Machine::run(2, move |comm| {
            let e = Euler::<2>::new(1.4);
            let g = refined_grid(&e);
            let cfg = subcycled_cfg(e).with_partitioner(Partitioner::round_robin());
            let mut sim = DistSim::partitioned(g, 2, cfg);
            let mut dts = Vec::new();
            for _ in 0..steps {
                let dt0 = sim.stable_dt(&comm);
                dts.push(dt0);
                sim.advance(&comm, dt0);
            }
            let me = comm.rank();
            let mut out: Vec<(BlockKey<2>, Vec<f64>)> = sim
                .owned_ids(me)
                .into_iter()
                .map(|id| {
                    let n = sim.grid.block(id);
                    (n.key(), n.field().as_slice().to_vec())
                })
                .collect();
            out.sort_by_key(|(k, _)| *k);
            (dts, out)
        })
        .unwrap();
        let mut dist: Vec<(BlockKey<2>, Vec<f64>)> = Vec::new();
        for (dts, out) in results {
            // every rank's per-level-reduced dt0 is bitwise the serial one
            for (a, b) in dts.iter().zip(&serial_dts) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            dist.extend(out);
        }
        dist.sort_by_key(|(k, _)| *k);
        assert_eq!(serial.len(), dist.len());
        let shape = ablock_core::field::FieldShape::<2>::new([4, 4], 2, 4);
        for ((ka, fa), (kb, fb)) in serial.iter().zip(&dist) {
            assert_eq!(ka, kb);
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert_eq!(
                        fa[i + v].to_bits(),
                        fb[i + v].to_bits(),
                        "block {ka:?} cell {c:?} var {v}: {} vs {}",
                        fa[i + v],
                        fb[i + v]
                    );
                }
            }
        }
    }

    #[test]
    fn dist_step_after_adapt_stays_finite() {
        Machine::run(2, |comm| {
            let e = Euler::<2>::new(1.4);
            let mut g = build_grid();
            init(&mut g, &e);
            let mut sim =
                DistSim::partitioned(g, 2, SolverConfig::new(e, Scheme::muscl_rusanov()));
            let me = comm.rank();
            let mut flags = HashMap::new();
            for id in sim.owned_ids(me) {
                if sim.grid.block(id).key().coords == [2, 2] {
                    flags.insert(id, Flag::Refine);
                }
            }
            sim.adapt_rebalance(&comm, &flags);
            for _ in 0..3 {
                let dt = sim.max_dt(&comm);
                sim.step_rk2(&comm, dt);
            }
            for id in sim.owned_ids(me) {
                let n = sim.grid.block(id);
                for c in n.field().shape().interior_box().iter() {
                    assert!(n.field().cell(c).iter().all(|x| x.is_finite()));
                    assert!(n.field().at(c, 0) > 0.0);
                }
            }
        })
        .unwrap();
    }
}
