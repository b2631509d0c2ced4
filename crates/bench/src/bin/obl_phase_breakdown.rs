//! OBL: per-phase time breakdown through the observability layer.
//!
//! Two runs, one export format (`BENCH_phase.json`):
//!
//! 1. **Measured shared-memory run** (real monotonic clock): a 2-D Euler
//!    blast stepped by the pool-parallel [`ParStepper`] with adaptation
//!    driven by [`AmrSimulation`], both recording into one registry — so
//!    the snapshot holds `ghost_fill` (with the scatter under
//!    `ghost_fill/comm`), `flux`, `update`, `adapt` (with `flag` and
//!    `cascade` nested), plus pool busy/idle counters.
//! 2. **Modeled 64-rank run** (virtual clock): the BSP cost model of a
//!    3-D MHD topology replayed through [`record_step_phases`] /
//!    [`record_adapt_phases`] at T3D-era rates. The virtual clock only
//!    moves by modeled durations, so the replay is fully deterministic:
//!    it is executed twice and the two JSON serializations are asserted
//!    byte-identical before anything is written.
//!
//! 3. **Distributed 4-rank run** (real clock, in-process machine): an
//!    AMR topology stepped by [`DistSim`] through the aggregated ghost
//!    exchange (`comm.agg.*`). The run asserts the aggregation invariant
//!    — one message per active rank pair per phase
//!    (`comm.agg.messages == comm.agg.pair_msgs_expected`) — and, since
//!    each packed segment is exactly one message of a one-message-per-task
//!    exchange, a >= 25% cut in messages against segments
//!    (`4·messages <= 3·segments`); every value sent must arrive as a
//!    halo value (Σ`comm.agg.values` == Σ`dist.halo_values_recv`).
//!
//! `--quick` shrinks step counts for CI.

use std::collections::HashMap;

use ablock_amr::{AmrConfig, AmrSimulation, GradientCriterion};
use ablock_bench::near_cubic_factors;
use ablock_core::balance::Flag;
use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_io::{phase_table, spans_table, write_metrics_json};
use ablock_obs::{phase, Metrics, MetricsSnapshot};
use ablock_par::{
    cell_weights, model_step_cached, record_adapt_phases, record_rebalance_phases,
    record_step_phases, CostParams, CurveWalk, DistSim, Machine, ParStepper, Partitioner,
};
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::{problems, SolverConfig};

const PHASES: [&str; 5] =
    [phase::GHOST_FILL, phase::FLUX, phase::UPDATE, phase::ADAPT, phase::COMM];

/// Shared-memory run: AMR driver (serial stepper + adapt spans) and the
/// pool-parallel stepper share one real-clock registry.
fn shared_memory_run(steps: usize) -> MetricsSnapshot {
    let metrics = Metrics::recording();
    let e = Euler::<2>::new(1.4);
    let solver = SolverConfig::new(e.clone(), Scheme::muscl_rusanov())
        .with_cfl(0.3)
        .with_metrics(metrics.clone());

    let make_grid = || {
        BlockGrid::new(
            RootLayout::unit([4, 4], Boundary::Outflow),
            GridParams::new([8, 8], 2, 4, 2),
        )
    };
    let ic = |g: &mut BlockGrid<2>| problems::sedov_blast(g, &e, [0.5, 0.5], 0.1, 20.0);

    // AMR: adapt cadence 2 guarantees adapt spans even in --quick runs
    let mut sim = AmrSimulation::new(
        make_grid(),
        solver.clone(),
        GradientCriterion::new(3, 0.08, 0.03),
        AmrConfig { adapt_every: 2, max_steps: 10_000 },
    );
    sim.initial_adapt_with(2, None, |g| ic(g));
    for _ in 0..steps {
        sim.advance(None);
    }

    // pool-parallel stepping on a fresh uniform grid, same registry
    let mut grid = make_grid();
    ic(&mut grid);
    let mut par = ParStepper::new(solver);
    for _ in 0..steps {
        let dt = par.max_dt(&grid);
        par.step_rk2(&mut grid, dt);
    }
    metrics.snapshot()
}

/// Modeled 64-rank run on the virtual clock; returns (snapshot, json).
fn cost_model_run(steps: usize) -> (MetricsSnapshot, String) {
    const NRANKS: usize = 64;
    let metrics = Metrics::with_virtual_clock();
    // 8 blocks per rank, topology 4^3 costed as 16^3 MHD (paper scaling)
    let grid = ablock_bench::mhd_grid_3d(near_cubic_factors(8 * NRANKS), 4, 0, 0);
    let owner: HashMap<_, _> = Partitioner::default().partition_grid(&grid, NRANKS);
    let params = CostParams::t3d_like(700.0 / 33.0e6, 16.0, 4.0, 8.0);
    let mut engine = SolverConfig::new(Euler::<3>::new(1.4), Scheme::muscl_rusanov())
        .with_metrics(metrics.clone())
        .engine();
    for step in 0..steps {
        let cost = model_step_cached(&grid, &mut engine, &owner, NRANKS, &params);
        record_step_phases(&metrics, &cost, &params);
        if (step + 1) % 4 == 0 {
            // model an adapt that migrates ~5% of one rank's cells
            let migrated = cost.ranks[0].cells * params.nvar * 0.05;
            record_adapt_phases(&metrics, NRANKS, migrated, &params);
        }
    }
    let snap = metrics.snapshot();
    let json = snap.to_json();
    (snap, json)
}

/// Incremental rebalance costed at high virtual rank counts, from an
/// actual cut-point plan: one block's weight grows 2^3-fold (a single
/// refinement's worth of work) and the partitioner re-cuts the maintained
/// walk, so the plan migrates the blocks near shifted cuts — O(ranks),
/// not O(total blocks). The grid is topology-only (1 tracer var); the
/// cost model takes nvar from [`CostParams`].
/// Returns (snapshot, migrated blocks, total blocks).
fn rebalance_model_run(vranks: usize, total_blocks: usize) -> (MetricsSnapshot, u64, usize) {
    let metrics = Metrics::with_virtual_clock();
    let grid = BlockGrid::<3>::new(
        RootLayout::unit(near_cubic_factors(total_blocks), Boundary::Periodic),
        GridParams::new([4, 4, 4], 2, 1, 1),
    );
    let params = CostParams::t3d_like(700.0 / 33.0e6, 16.0, 4.0, 8.0);
    let part = Partitioner::default();
    let walk = CurveWalk::build(&grid, part.curve());
    let uniform = cell_weights(&grid, &walk);
    let prev = part.assign(&uniform, vranks);
    let owner: HashMap<_, _> =
        walk.entries().iter().zip(&prev).map(|(e, &r)| (e.id, r)).collect();
    let mut bumped = uniform.clone();
    bumped[walk.len() / 2] *= 8.0;
    let plan = part.plan(&walk, &bumped, vranks, |id| owner[&id]);
    record_rebalance_phases(
        &metrics,
        &plan,
        grid.params().field_shape().interior_cells() as f64,
        &params,
    );
    let migrated = plan.migrated() as u64;
    (metrics.snapshot(), migrated, walk.len())
}

/// Distributed 4-rank run over the in-process machine; returns the
/// per-rank snapshots. A mid-domain refinement keeps prolongation
/// (phase-2) traffic in the exchange.
fn dist_run(steps: usize) -> Vec<MetricsSnapshot> {
    const NRANKS: usize = 4;
    Machine::run(NRANKS, move |comm| {
        let metrics = Metrics::recording();
        let e = Euler::<2>::new(1.4);
        let solver =
            SolverConfig::new(e.clone(), Scheme::muscl_rusanov()).with_metrics(metrics.clone());
        let mut grid = BlockGrid::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([4, 4], 2, 4, 2),
        );
        problems::sedov_blast(&mut grid, &e, [0.5, 0.5], 0.1, 20.0);
        let mut sim = DistSim::partitioned(grid, comm.nranks(), solver);
        // refine the left half so restriction *and* prolongation cross ranks
        let flags: HashMap<_, _> = sim
            .owned_ids(comm.rank())
            .into_iter()
            .filter(|&id| {
                let k = sim.grid.block(id).key();
                k.level == 0 && k.coords[0] == 0
            })
            .map(|id| (id, Flag::Refine))
            .collect();
        sim.adapt_rebalance(&comm, &flags);
        for _ in 0..steps {
            sim.step_rk2(&comm, 1e-3);
        }
        metrics.snapshot()
    })
    .expect("fault-free machine run")
}

fn sum_counter(snaps: &[MetricsSnapshot], key: &str) -> u64 {
    snaps.iter().map(|s| s.counter(key)).sum()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sm_steps, cm_steps, dist_steps) = if quick { (4, 8, 2) } else { (12, 64, 6) };

    let shared = shared_memory_run(sm_steps);

    let (model, model_json) = cost_model_run(cm_steps);
    let (_, model_json2) = cost_model_run(cm_steps);
    assert_eq!(
        model_json, model_json2,
        "virtual-clock cost-model metrics must be byte-identical across runs"
    );
    println!(
        "determinism self-check: two {cm_steps}-step cost-model replays \
         serialized to identical {}-byte JSON\n",
        model_json.len()
    );

    phase_table(
        "OBL: per-phase totals (ms), measured vs modeled",
        &PHASES,
        &[("shared_mem", &shared), ("model_64rank", &model)],
    )
    .print();
    println!();
    spans_table("shared-memory span detail", &shared).print();
    println!();
    spans_table("64-rank cost-model span detail", &model).print();

    for ph in PHASES {
        assert!(
            shared.span_total_ns(ph) > 0,
            "shared-memory run recorded no time in phase '{ph}'"
        );
        assert!(
            model.span_total_ns(ph) > 0,
            "cost-model run recorded no time in phase '{ph}'"
        );
    }

    // ---- incremental rebalance at 4096 virtual ranks ------------------
    // 8 (quick) / 16 blocks per rank: the O(ranks) migration claim needs
    // blocks/rank >> 1, else nearly every cut shifts (see obl_rebalance)
    let (vranks, vblocks) = if quick { (4096usize, 32768usize) } else { (4096, 65536) };
    let (rb, migrated, nblocks) = rebalance_model_run(vranks, vblocks);
    println!(
        "\nincremental rebalance model: single-block refine on {nblocks} blocks \
         at {vranks} virtual ranks\n  migrated {migrated} blocks \
         ({} values, {} pair messages), modeled {:.3} ms",
        rb.counter("model.rebalance.values"),
        rb.counter("model.rebalance.pair_msgs"),
        rb.span_total_ns(phase::REBALANCE) as f64 / 1e6,
    );
    assert!(migrated > 0, "a weight bump at {vranks} ranks must shift some cut");
    assert!(
        (migrated as usize) < nblocks / 2,
        "incremental plan must not reshuffle the grid: {migrated} of {nblocks}"
    );

    // ---- distributed: aggregated exchange --------------------------
    let dist = dist_run(dist_steps);
    let agg_msgs = sum_counter(&dist, "comm.agg.messages");
    let expected = sum_counter(&dist, "comm.agg.pair_msgs_expected");
    let segments = sum_counter(&dist, "comm.agg.segments");
    let values = sum_counter(&dist, "comm.agg.values");
    let exchanges = 2 * dist_steps as u64; // RK2: two ghost exchanges per step
    println!(
        "\ndistributed 4-rank run over {dist_steps} steps ({exchanges} exchanges):\n  \
         {agg_msgs} aggregated messages ({} per exchange), {segments} segments \
         (one per message of a per-task exchange), {values} values\n  \
         message reduction vs per-task: {:.1}%",
        agg_msgs / exchanges,
        100.0 * (1.0 - agg_msgs as f64 / segments as f64),
    );
    assert_eq!(
        agg_msgs, expected,
        "aggregated run must issue exactly one message per active rank pair per phase"
    );
    assert!(
        4 * agg_msgs <= 3 * segments,
        "aggregation must cut messages by >= 25% against one per task: \
         {agg_msgs} messages for {segments} segments"
    );
    assert_eq!(
        values,
        sum_counter(&dist, "dist.halo_values_recv"),
        "every value sent must be received as a halo value"
    );

    let out_name = "BENCH_phase.json";
    let mut out = Vec::new();
    out.extend_from_slice(b"{\n\"shared_memory\": ");
    write_metrics_json(&mut out, &shared).expect("vec write");
    while out.last() == Some(&b'\n') {
        out.pop();
    }
    out.extend_from_slice(b",\n\"cost_model_64rank\": ");
    out.extend_from_slice(model_json.trim_end().as_bytes());
    out.extend_from_slice(b",\n\"rebalance_4096rank\": ");
    write_metrics_json(&mut out, &rb).expect("vec write");
    while out.last() == Some(&b'\n') {
        out.pop();
    }
    out.extend_from_slice(b",\n\"dist_4rank_rank0\": ");
    write_metrics_json(&mut out, &dist[0]).expect("vec write");
    while out.last() == Some(&b'\n') {
        out.pop();
    }
    out.extend_from_slice(b"\n}\n");
    std::fs::write(out_name, &out).expect("write phase-breakdown JSON");
    println!("\nwrote {out_name} ({} bytes)", out.len());
}
