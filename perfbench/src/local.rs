//! The shared-memory workloads: `ParStepper` on the pool, driven cycle by
//! cycle from this thread. The serial `Stepper` runs only in the traced
//! `pool.parallel_efficiency` comparison.

use std::time::Instant;

use ablock_core::balance::adapt;
use ablock_core::grid::BlockGrid;
use ablock_io::checkpoint::{load_grid, save_grid};
use ablock_par::{pool, ParStepper};
use ablock_solver::{total_conserved, EngineStats, IdealMhd, SolverConfig, Stepper};

use crate::check::Checks;
use crate::episode::{Counts, Episode, Options};
use crate::trace::{replay_layers, Tracer};
use crate::workload::{cycle_updates, flag, is_maintenance, Spec, TRANSFER};

/// The two shared-memory executors behind one step interface (for the
/// parallel-efficiency comparison).
trait Executor {
    fn stable_dt(&mut self, grid: &mut BlockGrid<3>) -> f64;
    fn step(&mut self, grid: &mut BlockGrid<3>, dt: f64);
    fn stats(&self) -> EngineStats;
}

impl Executor for Stepper<3, IdealMhd> {
    fn stable_dt(&mut self, grid: &mut BlockGrid<3>) -> f64 {
        Stepper::stable_dt(self, grid)
    }
    fn step(&mut self, grid: &mut BlockGrid<3>, dt: f64) {
        Stepper::step(self, grid, dt, None)
    }
    fn stats(&self) -> EngineStats {
        self.engine().stats()
    }
}

impl Executor for ParStepper<3, IdealMhd> {
    fn stable_dt(&mut self, grid: &mut BlockGrid<3>) -> f64 {
        ParStepper::stable_dt(self, grid)
    }
    fn step(&mut self, grid: &mut BlockGrid<3>, dt: f64) {
        ParStepper::step(self, grid, dt)
    }
    fn stats(&self) -> EngineStats {
        self.engine().stats()
    }
}

/// Run one pool workload.
pub fn run(spec: &Spec, opt: &Options) -> Episode {
    let start = Instant::now();
    let cfg = spec.solver().with_metrics(opt.metrics.clone());
    let mut grid = spec.initial_grid(&spec.blast(opt.seed));
    let mass0 = total_conserved(&grid, 0);
    let mut ex = ParStepper::new(cfg.clone());
    let mut tr = Tracer::new(start);
    let mut counts = Counts {
        levels_start: grid.level_histogram(),
        ..Counts::default()
    };

    // warm-up cycle: builds plans and scratch
    let dt = ex.stable_dt(&mut grid);
    counts.warmup_updates = cycle_updates(&counts.levels_start, spec.block_cells(), spec.mode);
    ex.step(&mut grid, dt);
    let setup_s = start.elapsed().as_secs_f64();

    let mut cycle_ms = Vec::with_capacity(spec.cycles);
    let mut segment = (counts.levels_start.clone(), 0u64);
    let mut recomputed = 0u64;
    let (mut ghost_values, mut ghost_cells) = (0u64, 0u64);
    let loop_start = Instant::now();
    for c in 2..=opt.cycles {
        let t0 = Instant::now();
        if is_maintenance(c) {
            let nblocks = grid.num_blocks() as u64;
            let flags = if opt.trace {
                tr.time("flag_blocks", c, nblocks, || flag(&grid))
            } else {
                flag(&grid)
            };
            let report = if opt.trace {
                tr.time("balance::adapt", c, nblocks, || {
                    adapt(&mut grid, &flags, TRANSFER)
                })
            } else {
                adapt(&mut grid, &flags, TRANSFER)
            };
            counts.adapts.push(vec![
                report.refined_requested,
                report.refined_cascade,
                report.coarsened_groups,
                report.coarsen_vetoed,
                report.cascade_rounds,
            ]);
            let levels = grid.level_histogram();
            recomputed += cycle_updates(&segment.0, spec.block_cells(), spec.mode) * segment.1;
            segment = (levels.clone(), 0);
            counts.levels_after_adapt.push(levels);
            if opt.trace {
                let ids = grid.block_ids();
                let (v, n) = replay_layers(&mut tr, c, &mut grid, &cfg, &ids, 2, &|_| 0);
                ghost_values += v;
                ghost_cells += n;
            }
        }
        let nblocks = grid.num_blocks() as u64;
        let dt = if opt.trace {
            tr.time("stable_dt", c, nblocks, || ex.stable_dt(&mut grid))
        } else {
            ex.stable_dt(&mut grid)
        };
        let updates = cycle_updates(&grid.level_histogram(), spec.block_cells(), spec.mode);
        if opt.trace {
            tr.time("step", c, updates, || ex.step(&mut grid, dt));
        } else {
            ex.step(&mut grid, dt);
        }
        counts.cell_updates += updates;
        segment.1 += 1;
        cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    recomputed += cycle_updates(&segment.0, spec.block_cells(), spec.mode) * segment.1;
    counts.engine_rebuilds = vec![ex.stats().rebuilds];
    let pool_eff = opt.trace.then(|| parallel_efficiency(&grid, &cfg));

    let checks = Checks::run(spec, opt, mass0, &grid, recomputed == counts.cell_updates);
    let mut ep = Episode {
        setup_s,
        loop_s,
        cycle_ms,
        counts,
        checks,
        layers: Vec::new(),
        tracks: Vec::new(),
        notes: Vec::new(),
    };
    if opt.trace {
        layer_metrics(
            &mut ep,
            &tr,
            ex.stats(),
            (ghost_values, ghost_cells),
            pool_eff,
        );
        ep.tracks.push(("main".into(), tr));
    }
    ep
}

/// `Stepper::step` time ÷ (workers × `ParStepper::step` time) on copies of
/// the live grid (`BlockGrid` is not `Clone`), each after one warm-up step.
fn parallel_efficiency(grid: &BlockGrid<3>, cfg: &SolverConfig<IdealMhd>) -> (f64, usize) {
    let mut bytes = Vec::new();
    save_grid(&mut bytes, grid).expect("writing to a Vec cannot fail");
    let copy = || load_grid::<3>(&mut bytes.as_slice()).expect("archive just written");
    let time_steps = |ex: &mut dyn Executor| {
        let mut g = copy();
        let dt = ex.stable_dt(&mut g);
        ex.step(&mut g, dt);
        let t0 = Instant::now();
        ex.step(&mut g, dt);
        t0.elapsed().as_secs_f64()
    };
    let serial = time_steps(&mut Stepper::new(cfg.clone()));
    let par = time_steps(&mut ParStepper::new(cfg.clone()));
    let workers = pool::nthreads();
    (serial / (workers as f64 * par), workers)
}

/// Per-layer metrics of a traced shared-memory run.
fn layer_metrics(
    ep: &mut Episode,
    tr: &Tracer,
    stats: EngineStats,
    (ghost_values, ghost_cells): (u64, u64),
    pool_eff: Option<(f64, usize)>,
) {
    let timed_cycles = ep.cycle_ms.len() as u64;
    let mut push = |name, value: Option<f64>, basis: String| {
        if let Some(v) = value {
            ep.layers.push((name, v, basis));
        }
    };
    let basis = |span: &str, unit: &str| {
        let (_, w) = tr.total(span).unwrap_or_default();
        format!("{w} {unit}")
    };
    push(
        "kernel.ns_per_cell",
        tr.ns_per("replay.kernel"),
        basis("replay.kernel", "interior cells"),
    );
    push(
        "ghost.fill_ns_per_value",
        tr.ns_per("replay.ghost_fill"),
        basis("replay.ghost_fill", "ghost values"),
    );
    push(
        "ghost.values_per_cell",
        (ghost_cells > 0).then(|| ghost_values as f64 / ghost_cells as f64),
        format!("{ghost_cells} interior cells"),
    );
    push(
        "ghost.plan_ns_per_block",
        tr.ns_per("replay.ghost_plan"),
        basis("replay.ghost_plan", "blocks"),
    );
    push(
        "engine.plan_reuse_ratio",
        Some(stats.reuses as f64 / (stats.reuses + stats.rebuilds) as f64),
        format!("{} revalidations", stats.reuses + stats.rebuilds),
    );
    push(
        "step.ns_per_cell_update",
        tr.ns_per("step"),
        basis("step", "cell updates"),
    );
    push(
        "step.cell_updates_per_cycle",
        Some(ep.counts.cell_updates as f64 / timed_cycles as f64),
        format!("{timed_cycles} cycles"),
    );
    push(
        "dt.ns_per_block",
        tr.ns_per("stable_dt"),
        basis("stable_dt", "blocks"),
    );
    push(
        "flag.ns_per_block",
        tr.ns_per("flag_blocks"),
        basis("flag_blocks", "blocks"),
    );
    push(
        "adapt.ns_per_block",
        tr.ns_per("balance::adapt"),
        basis("balance::adapt", "blocks"),
    );
    let n_adapts = ep.counts.adapts.len();
    let changed: usize = ep.counts.adapts.iter().map(|a| a[0] + a[1] + a[2]).sum();
    push(
        "adapt.blocks_changed",
        (n_adapts > 0).then(|| changed as f64 / n_adapts as f64),
        format!("{n_adapts} adapts"),
    );
    let requested: usize = ep.counts.adapts.iter().map(|a| a[0]).sum();
    let cascade: usize = ep.counts.adapts.iter().map(|a| a[1]).sum();
    push(
        "adapt.cascade_ratio",
        (requested > 0).then(|| cascade as f64 / requested as f64),
        format!("{requested} requested refinements"),
    );
    push(
        "rebalance.plan_ns_per_block",
        tr.ns_per("replay.partition_plan"),
        basis("replay.partition_plan", "blocks"),
    );
    push(
        "snapshot.hash_ns_per_byte",
        tr.ns_per("replay.snapshot"),
        basis("replay.snapshot", "bytes encoded"),
    );
    if let Some((eff, workers)) = pool_eff {
        push(
            "pool.parallel_efficiency",
            Some(eff),
            format!("{workers} workers, 1 timed step each"),
        );
    }
}
