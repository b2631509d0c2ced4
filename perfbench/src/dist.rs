//! The distributed workload: `DistSim` on two rank threads through
//! `run_resilient_with`, with maintenance in the `on_step` hook.
//!
//! `run_resilient_with` owns the step loop, so a cycle is measured from
//! one `on_step` entry to the next on rank 0. Each such interval holds one
//! `advance` and, when the previous cycle ended with maintenance, that
//! maintenance (flag + `adapt_rebalance` in the hook) and the incremental
//! snapshot the supervisor writes right after the hook — so, as on the
//! shared-memory workloads, one cycle in four carries all restructuring.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use ablock_core::arena::BlockId;
use ablock_core::grid::BlockGrid;
use ablock_core::key::BlockKey;
use ablock_io::checkpoint::{load_grid, save_grid};
use ablock_par::{run_resilient_with, Comm, DistSim, MachineConfig, RecoverConfig};
use ablock_solver::{total_conserved, IdealMhd, Stepper, TimeStepMode};

use crate::check::Checks;
use crate::episode::{Counts, Episode, Options};
use crate::trace::{replay_layers, Tracer};
use crate::workload::{cycle_updates, flag, is_maintenance, Spec, DIST_DT_SAFETY, MAINT_EVERY};

/// Rank threads.
pub const NRANKS: usize = 2;

/// What one rank records; each rank locks only its own.
struct RankLog {
    tracer: Tracer,
    /// `on_step` entry of every cycle (index = cycle − 1).
    stamps: Vec<Instant>,
    /// Cell updates of every cycle, from the topology it advanced on.
    updates: Vec<u64>,
    /// Per cycle: cell updates of each rank's owned blocks (traced runs).
    rank_updates: Vec<Vec<u64>>,
    levels_after_adapt: Vec<Vec<usize>>,
    adapts: Vec<Vec<usize>>,
    migrated: Vec<usize>,
    /// `(sent_msgs, sent_values)` at the first and last `on_step`.
    comm_first: (u64, u64),
    comm_last: (u64, u64),
    rebuilds: u64,
    reuses: u64,
    peak_blocks: usize,
    ghost: (u64, u64),
}

fn comm_counts(comm: &Comm) -> (u64, u64) {
    (comm.sent_msgs.get(), comm.sent_values.get())
}

/// Owner of every block, by key.
fn owners_by_key(sim: &DistSim<3, IdealMhd>) -> HashMap<BlockKey<3>, usize> {
    sim.grid
        .blocks()
        .map(|(id, n)| (n.key(), sim.owner[&id]))
        .collect()
}

/// The owner key `k` inherits across an adapt, before any rebalance:
/// same key, else a refined parent's, else a coarsened group's first
/// child's (the rule `DistSim::adapt_rebalance` applies). A block whose
/// owner differs from this one was migrated.
fn inherited(before: &HashMap<BlockKey<3>, usize>, k: BlockKey<3>) -> Option<usize> {
    before
        .get(&k)
        .or_else(|| k.parent().and_then(|p| before.get(&p)))
        .or_else(|| before.get(&k.child(0)))
        .copied()
}

/// Run the distributed workload.
pub fn run(spec: &Spec, opt: &Options) -> Episode {
    let start = Instant::now();
    let cfg = spec.solver().with_metrics(opt.metrics.clone());
    let mut grid = spec.initial_grid(&spec.blast(opt.seed));
    let mass0 = total_conserved(&grid, 0);
    let levels_start = grid.level_histogram();
    // fixed dt₀: a safety factor times the initial stable dt₀
    let dt0 = DIST_DT_SAFETY * Stepper::new(cfg.clone()).stable_dt(&mut grid);
    let mut archive = Vec::new();
    save_grid(&mut archive, &grid).expect("writing to a Vec cannot fail");
    drop(grid);

    let logs: Vec<Mutex<RankLog>> = (0..NRANKS)
        .map(|_| {
            Mutex::new(RankLog {
                tracer: Tracer::new(start),
                stamps: Vec::with_capacity(opt.cycles),
                updates: Vec::with_capacity(opt.cycles),
                rank_updates: Vec::new(),
                levels_after_adapt: Vec::new(),
                adapts: Vec::new(),
                migrated: Vec::new(),
                comm_first: (0, 0),
                comm_last: (0, 0),
                rebuilds: 0,
                reuses: 0,
                peak_blocks: 0,
                ghost: (0, 0),
            })
        })
        .collect();
    let rcfg = RecoverConfig {
        checkpoint_every: MAINT_EVERY,
        machine: MachineConfig::default(),
        max_restarts: 0,
    };
    let cycles = opt.cycles;
    let block_cells = spec.block_cells();
    let result = run_resilient_with(
        NRANKS,
        cycles,
        dt0,
        cfg.clone(),
        || load_grid::<3>(&mut archive.as_slice()).expect("archive just written"),
        rcfg,
        None,
        |sim, comm, done| {
            let entered = Instant::now();
            let me = comm.rank();
            let mut log = logs[me]
                .lock()
                .expect("a rank thread panicked holding its log");
            let log = &mut *log;
            let levels = sim.grid.level_histogram();
            log.peak_blocks = log.peak_blocks.max(sim.grid.num_blocks());
            log.updates
                .push(cycle_updates(&levels, block_cells, spec.mode));
            if opt.trace {
                log.rank_updates
                    .push(rank_updates(sim, block_cells, spec.mode));
                if let Some(&prev) = log.stamps.last() {
                    let name = if is_maintenance(done) {
                        "cycle.maintenance"
                    } else {
                        "cycle.plain"
                    };
                    let updates = *log.updates.last().expect("pushed above");
                    log.tracer.record(name, done, updates, prev, entered);
                }
            }
            log.stamps.push(entered);
            if done == 1 {
                log.comm_first = comm_counts(comm);
            }
            if done == cycles {
                log.comm_last = comm_counts(comm);
                let stats = sim.engine().stats();
                (log.rebuilds, log.reuses) = (stats.rebuilds, stats.reuses);
            }
            if done < cycles && is_maintenance(done + 1) {
                maintenance(sim, comm, done + 1, log, opt.trace, &cfg);
            }
        },
    );
    let logs: Vec<RankLog> = logs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("a rank thread panicked holding its log")
        })
        .collect();
    let r0 = &logs[0];
    let setup_s = r0
        .stamps
        .first()
        .map_or(0.0, |t| t.duration_since(start).as_secs_f64());
    let outcome = match result {
        Ok(o) if o.restarts == 0 => o,
        Ok(o) => return Episode::failed(setup_s, format!("{} restarts", o.restarts)),
        Err(e) => return Episode::failed(setup_s, format!("RecoverError: {e}")),
    };

    let cycle_ms: Vec<f64> = r0
        .stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect();
    let loop_s = r0.stamps[cycles - 1]
        .duration_since(r0.stamps[0])
        .as_secs_f64();
    let cell_updates: u64 = r0.updates[1..].iter().sum();
    // recompute the loop's updates from the level histograms of each
    // segment between adapts
    let mut recomputed = 0u64;
    let mut levels = levels_start.clone();
    let mut seg_start = 2;
    for (i, after) in r0.levels_after_adapt.iter().enumerate() {
        let seg_end = 1 + MAINT_EVERY * (i + 1); // first cycle after this adapt
        recomputed += cycle_updates(&levels, block_cells, spec.mode) * (seg_end - seg_start) as u64;
        levels = after.clone();
        seg_start = seg_end;
    }
    recomputed += cycle_updates(&levels, block_cells, spec.mode) * (cycles + 1 - seg_start) as u64;

    let s = outcome.snapshots;
    let counts = Counts {
        warmup_updates: r0.updates[0],
        cell_updates,
        levels_start,
        levels_after_adapt: r0.levels_after_adapt.clone(),
        adapts: r0.adapts.clone(),
        migrated: r0.migrated.clone(),
        comm: logs
            .iter()
            .map(|l| {
                (
                    l.comm_last.0 - l.comm_first.0,
                    l.comm_last.1 - l.comm_first.1,
                )
            })
            .collect(),
        snapshots: vec![s.snapshots, s.bytes_new, s.bytes_shared],
        engine_rebuilds: logs.iter().map(|l| l.rebuilds).collect(),
    };
    let checks = Checks::run(spec, opt, mass0, &outcome.grid, recomputed == cell_updates);
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
        layer_metrics(&mut ep, &logs, &outcome.grid);
        for (r, log) in logs.into_iter().enumerate() {
            ep.tracks.push((format!("rank{r}"), log.tracer));
        }
    }
    ep
}

/// Per-rank cell updates of one cycle.
fn rank_updates(sim: &DistSim<3, IdealMhd>, block_cells: u64, mode: TimeStepMode) -> Vec<u64> {
    let levels = sim.grid.level_histogram();
    let l0 = levels.iter().position(|&n| n > 0).unwrap_or(0);
    let mut per = vec![0u64; NRANKS];
    for (id, node) in sim.grid.blocks() {
        let substeps = match mode {
            TimeStepMode::Global => 1,
            TimeStepMode::Subcycled => 1u64 << (node.key().level as usize - l0),
        };
        per[sim.owner[&id]] += block_cells * substeps;
    }
    per
}

/// Flag owned blocks, adapt and rebalance; traced runs then replay the
/// layers on this rank's copy of the grid.
fn maintenance(
    sim: &mut DistSim<3, IdealMhd>,
    comm: &Comm,
    cycle: usize,
    log: &mut RankLog,
    trace: bool,
    cfg: &ablock_solver::SolverConfig<IdealMhd>,
) {
    let me = comm.rank();
    let nblocks = sim.grid.num_blocks() as u64;
    let t0 = Instant::now();
    let mut flags = flag(&sim.grid);
    flags.retain(|id, _| sim.owner[id] == me);
    let t1 = Instant::now();
    let before = owners_by_key(sim);
    let t2 = Instant::now();
    sim.adapt_rebalance(comm, &flags);
    let t3 = Instant::now();
    if trace {
        log.tracer.record("flag_blocks", cycle, nblocks, t0, t1);
        log.tracer.record("adapt_rebalance", cycle, nblocks, t2, t3);
    }
    let after = owners_by_key(sim);
    let refined = before
        .keys()
        .filter(|k| !after.contains_key(k) && after.contains_key(&k.child(0)))
        .count();
    let coarsened = after
        .keys()
        .filter(|k| !before.contains_key(k) && before.contains_key(&k.child(0)))
        .count();
    let migrated = after
        .iter()
        .filter(|(k, &o)| inherited(&before, **k) != Some(o))
        .count();
    log.adapts.push(vec![refined, coarsened]);
    log.migrated.push(migrated);
    log.levels_after_adapt.push(sim.grid.level_histogram());
    if trace {
        let owned: Vec<BlockId> = sim.owned_ids(me);
        let owner = &sim.owner;
        let (v, n) = replay_layers(
            &mut log.tracer,
            cycle,
            &mut sim.grid,
            cfg,
            &owned,
            comm.nranks(),
            &|id| owner[&id],
        );
        log.ghost.0 += v;
        log.ghost.1 += n;
    }
}

/// Per-layer metrics of a traced distributed run, summed over ranks.
fn layer_metrics(ep: &mut Episode, logs: &[RankLog], final_grid: &BlockGrid<3>) {
    let total = |name: &str| {
        logs.iter()
            .filter_map(|l| l.tracer.total(name))
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let per = |name: &str| {
        let (ns, w) = total(name);
        ((w > 0).then(|| ns as f64 / w as f64), w)
    };
    let timed = ep.cycle_ms.len() as u64;
    let mut layers: Vec<(&'static str, Option<f64>, String)> = Vec::new();
    let (v, b) = per("replay.kernel");
    layers.push((
        "kernel.ns_per_cell",
        v,
        format!("{b} owned interior cells, all ranks"),
    ));
    let (v, b) = per("replay.ghost_fill");
    layers.push((
        "ghost.fill_ns_per_value",
        v,
        format!("{b} ghost values, all ranks"),
    ));
    let (gv, gc) = logs
        .iter()
        .fold((0, 0), |a, l| (a.0 + l.ghost.0, a.1 + l.ghost.1));
    layers.push((
        "ghost.values_per_cell",
        (gc > 0).then(|| gv as f64 / gc as f64),
        format!("{gc} interior cells"),
    ));
    let (v, b) = per("replay.ghost_plan");
    layers.push((
        "ghost.plan_ns_per_block",
        v,
        format!("{b} blocks, all ranks"),
    ));
    let (reuses, rebuilds) = logs
        .iter()
        .fold((0, 0), |a, l| (a.0 + l.reuses, a.1 + l.rebuilds));
    layers.push((
        "engine.plan_reuse_ratio",
        Some(reuses as f64 / (reuses + rebuilds) as f64),
        format!("{} revalidations, all ranks", reuses + rebuilds),
    ));
    let (ns, w) = logs[0].tracer.total("cycle.plain").unwrap_or_default();
    layers.push((
        "step.ns_per_cell_update",
        (w > 0).then(|| ns as f64 / w as f64),
        format!("{w} cell updates in on_step intervals without maintenance"),
    ));
    layers.push((
        "step.cell_updates_per_cycle",
        Some(ep.counts.cell_updates as f64 / timed as f64),
        format!("{timed} cycles"),
    ));
    let (v, b) = per("flag_blocks");
    layers.push(("flag.ns_per_block", v, format!("{b} blocks, all ranks")));
    let n_adapts = ep.counts.adapts.len();
    let changed: usize = ep.counts.adapts.iter().map(|a| a[0] + a[1]).sum();
    layers.push((
        "adapt.blocks_changed",
        (n_adapts > 0).then(|| changed as f64 / n_adapts as f64),
        format!("{n_adapts} adapts"),
    ));
    let (ns, calls) = logs[0]
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == "adapt_rebalance")
        .fold((0u64, 0u64), |a, s| (a.0 + s.dur_ns, a.1 + 1));
    layers.push((
        "dist.adapt_rebalance_ms",
        (calls > 0).then(|| ns as f64 / calls as f64 / 1e6),
        format!("{calls} calls on rank 0"),
    ));
    let (v, b) = per("replay.partition_plan");
    layers.push((
        "rebalance.plan_ns_per_block",
        v,
        format!("{b} blocks, all ranks"),
    ));
    let moved: usize = ep.counts.migrated.iter().sum();
    layers.push((
        "rebalance.migrated_blocks",
        (n_adapts > 0).then(|| moved as f64 / n_adapts as f64),
        format!("{n_adapts} calls"),
    ));
    let ratios: Vec<f64> = logs[0].rank_updates[1..]
        .iter()
        .map(|per| {
            let max = *per.iter().max().expect("ranks") as f64;
            let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
            max / mean
        })
        .collect();
    layers.push((
        "rebalance.update_imbalance",
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64),
        format!("mean over {} cycles, {NRANKS} ranks", ratios.len()),
    ));
    let (msgs, values) = ep
        .counts
        .comm
        .iter()
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    layers.push((
        "comm.msgs_per_cycle",
        Some(msgs as f64 / timed as f64),
        format!("{msgs} messages over {timed} cycles, all ranks"),
    ));
    layers.push((
        "comm.bytes_per_cycle",
        Some(8.0 * values as f64 / timed as f64),
        format!("{values} values over {timed} cycles, all ranks"),
    ));
    let (v, b) = per("replay.snapshot");
    layers.push((
        "snapshot.hash_ns_per_byte",
        v,
        format!("{b} bytes encoded, all ranks"),
    ));
    let (snaps, new, shared) = (
        ep.counts.snapshots[0],
        ep.counts.snapshots[1],
        ep.counts.snapshots[2],
    );
    layers.push((
        "snapshot.bytes_new_per_snapshot",
        (snaps > 0).then(|| new as f64 / snaps as f64),
        format!("{snaps} snapshots"),
    ));
    layers.push((
        "snapshot.dedup_ratio",
        (new > 0).then(|| (new + shared) as f64 / new as f64),
        format!("{new} bytes new, {shared} bytes shared"),
    ));
    // every rank holds the whole grid: field, rhs and stage copies of
    // every block (computed, not measured)
    let peak = logs.iter().map(|l| l.peak_blocks).max().unwrap_or(0);
    let block_bytes = final_grid.field_shape().len() * std::mem::size_of::<f64>();
    layers.push((
        "mem.field_mb_per_rank",
        Some((peak * block_bytes * 3) as f64 / (1024.0 * 1024.0)),
        format!("computed: {peak} blocks x {block_bytes} B x 3 field copies"),
    ));
    ep.layers = layers
        .into_iter()
        .filter_map(|(n, v, b)| v.map(|v| (n, v, b)))
        .collect();

    for (r, log) in logs.iter().enumerate() {
        let spans = |name: &str| -> Vec<f64> {
            let mut v: Vec<f64> = log
                .tracer
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns as f64 / 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { v[v.len() / 2] };
        let (plain, maint) = (spans("cycle.plain"), spans("cycle.maintenance"));
        let owned: f64 = logs[0].rank_updates[1..]
            .iter()
            .map(|p| p[r] as f64)
            .sum::<f64>()
            / (logs[0].rank_updates.len() - 1).max(1) as f64;
        ep.notes.push(format!(
            "rank {r}: cycle interval median {:.2} ms plain ({} cycles) / {:.2} ms maintenance \
             ({}); flag {:.2} ms, adapt_rebalance {:.2} ms per call; owned cell updates per \
             cycle {owned:.0}",
            med(&plain),
            plain.len(),
            med(&maint),
            maint.len(),
            med(&spans("flag_blocks")),
            med(&spans("adapt_rebalance")),
        ));
    }
}
