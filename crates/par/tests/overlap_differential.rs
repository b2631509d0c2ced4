//! Differential proof that comm/compute overlap is bitwise-safe
//! (DESIGN.md §13): identical adapt+step schedules through the serial
//! [`Stepper`] and the overlapped [`ParStepper`] and [`DistSim`] — plus
//! a fault-injected `run_resilient_with` run — must all produce
//! bitwise-identical state and matching topology-epoch deltas. A
//! separate test pins the aggregation message invariant: one message per
//! active rank pair per exchange phase.

use std::collections::HashMap;

use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::verify::check_grid;
use ablock_obs::Metrics;
use ablock_core::sfc::Curve;
use ablock_par::{
    run_resilient_with, DistSim, FaultPlan, Machine, MachineConfig, ParStepper, Partitioner,
    RecoverConfig,
};
use ablock_solver::{problems, Euler, Geometry, Scheme, SolverConfig, Stepper, TimeStepMode};
use ablock_testkit::{cases, flag_for_key, gen_schedule, random_geometry, Schedule};

const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn cfg(geom: &Option<Geometry>) -> SolverConfig<Euler<2>> {
    let mut c = SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
        .with_partitioner(Partitioner::sfc(Curve::Hilbert));
    if let Some(g) = geom {
        c = c.with_geometry(g.clone());
    }
    c
}

/// Subcycled variant: refluxing + local time stepping.
fn sub_cfg() -> SolverConfig<Euler<2>> {
    cfg(&None)
        .with_refluxing(true)
        .with_time_step_mode(TimeStepMode::Subcycled)
}

fn base_grid() -> BlockGrid<2> {
    let layout = RootLayout::unit([2, 2], Boundary::Periodic);
    let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 4, MAX_LEVEL));
    problems::advected_gaussian(&mut g, &Euler::new(1.4), [0.4, 0.3], [0.5, 0.5], 0.2);
    g
}

fn flags_for(
    grid: &BlockGrid<2>,
    seed: u64,
    density: u8,
    only: Option<&[ablock_core::arena::BlockId]>,
) -> HashMap<ablock_core::arena::BlockId, Flag> {
    let pick = |id: ablock_core::arena::BlockId| {
        let key = grid.block(id).key();
        match flag_for_key(seed, key, MAX_LEVEL, density) {
            Flag::Keep => None,
            f => Some((id, f)),
        }
    };
    match only {
        Some(ids) => ids.iter().copied().filter_map(pick).collect(),
        None => grid.block_ids().into_iter().filter_map(pick).collect(),
    }
}

/// Sorted (key, interior bit pattern) signature — the bitwise identity of
/// a grid's state, independent of arena id assignment.
fn signature(grid: &BlockGrid<2>) -> Vec<(BlockKey<2>, Vec<u64>)> {
    let mut v: Vec<(BlockKey<2>, Vec<u64>)> = grid
        .blocks()
        .map(|(_, n)| {
            let f = n.field();
            let mut bits = Vec::new();
            for c in f.shape().interior_box().iter() {
                for var in 0..f.shape().nvar {
                    bits.push(f.at(c, var).to_bits());
                }
            }
            (n.key(), bits)
        })
        .collect();
    v.sort_by_key(|(k, _)| *k);
    v
}

fn assert_bitwise_eq(a: &BlockGrid<2>, b: &BlockGrid<2>, what: &str) {
    let (sa, sb) = (signature(a), signature(b));
    let keys_a: Vec<_> = sa.iter().map(|(k, _)| *k).collect();
    let keys_b: Vec<_> = sb.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys_a, keys_b, "{what}: leaf sets differ");
    for ((k, da), (_, db)) in sa.iter().zip(&sb) {
        for (i, (&x, &y)) in da.iter().zip(db).enumerate() {
            assert!(
                x == y,
                "{what}: block {k:?} word {i}: {:.17e} != {:.17e}",
                f64::from_bits(x),
                f64::from_bits(y)
            );
        }
    }
}

fn adapt_serial(grid: &mut BlockGrid<2>, seed: u64, density: u8) -> u64 {
    let flags = flags_for(grid, seed, density, None);
    let before = grid.epoch();
    adapt(grid, &flags, TRANSFER);
    grid.epoch() - before
}

/// Serial reference.
fn run_serial(schedule: &Schedule, geom: &Option<Geometry>) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    // masks must exist before the round-0 adapt on every backend
    // (DistSim binarizes them at construction)
    grid.ensure_geometry(geom);
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(cfg(geom));
    let mut deltas = Vec::new();
    for round in &schedule.rounds {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step_rk2(&mut grid, DT, None);
        }
    }
    check_grid(&grid).unwrap();
    (grid, deltas)
}

fn run_shared(schedule: &Schedule, geom: &Option<Geometry>) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    grid.ensure_geometry(geom);
    let mut stepper: ParStepper<2, Euler<2>> = ParStepper::new(cfg(geom));
    let mut deltas = Vec::new();
    for round in &schedule.rounds {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step_rk2(&mut grid, DT);
        }
    }
    (grid, deltas)
}

fn run_dist(
    schedule: &Schedule,
    nranks: usize,
    geom: &Option<Geometry>,
) -> (BlockGrid<2>, Vec<u64>) {
    let results = Machine::run(nranks, |comm| {
        let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), cfg(geom));
        let mut deltas = Vec::new();
        for round in &schedule.rounds {
            let owned = sim.owned_ids(comm.rank());
            let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
            let before = sim.grid.epoch();
            sim.adapt_rebalance(&comm, &flags);
            deltas.push(sim.grid.epoch() - before);
            for _ in 0..round.steps {
                sim.step_rk2(&comm, DT);
            }
        }
        sim.gather_full(&comm);
        if comm.rank() == 0 {
            Some((sim.grid, deltas))
        } else {
            None
        }
    })
    .expect("fault-free machine run");
    results.into_iter().flatten().next().expect("rank 0 returns state")
}

/// Fault-tolerant backend (mirrors the schedule translation in
/// `differential_backends.rs`).
fn run_resilient_backend(
    schedule: &Schedule,
    nranks: usize,
    faults: Option<std::sync::Arc<FaultPlan>>,
    geom: &Option<Geometry>,
) -> BlockGrid<2> {
    let rounds = schedule.rounds.clone();
    let round0 = rounds[0];
    let g0 = geom.clone();
    let make_grid = move || {
        let mut g = base_grid();
        g.ensure_geometry(&g0);
        adapt_serial(&mut g, round0.flag_seed, round0.density);
        g
    };
    let mut boundaries: HashMap<usize, usize> = HashMap::new();
    let mut cum = rounds[0].steps as usize;
    for (r, round) in rounds.iter().enumerate().skip(1) {
        boundaries.insert(cum, r);
        cum += round.steps as usize;
    }
    let rcfg = RecoverConfig {
        checkpoint_every: 2,
        machine: MachineConfig::fast(),
        max_restarts: 3,
    };
    let outcome = run_resilient_with(
        nranks,
        cum,
        DT,
        cfg(geom),
        make_grid,
        rcfg,
        faults,
        |sim, comm, done| {
            if let Some(&r) = boundaries.get(&done) {
                let round = rounds[r];
                let owned = sim.owned_ids(comm.rank());
                let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
                sim.adapt_rebalance(comm, &flags);
            }
        },
    )
    .expect("resilient run must recover");
    outcome.grid
}

/// Shared-memory overlap matches the serial stepper bitwise, with
/// identical epoch-delta traces.
#[test]
fn shared_overlap_matches_serial() {
    cases(6, 0x5EED_0050, |_, rng| {
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &None);
        let (shared, d_shared) = run_shared(&schedule, &None);
        assert_eq!(d_serial, d_shared, "epoch deltas serial vs shared");
        assert_bitwise_eq(&serial, &shared, "Stepper vs ParStepper");
    });
}

/// Distributed overlap: the aggregated+overlapped exchange matches the
/// serial stepper bitwise; structural epoch deltas match serial, with at
/// most one extra bump per round when the incremental rebalance actually
/// migrates blocks.
#[test]
fn dist_overlap_matches_serial() {
    cases(4, 0x5EED_0051, |_, rng| {
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &None);
        let (dist, d_dist) = run_dist(&schedule, 2, &None);
        assert_eq!(d_serial.len(), d_dist.len(), "round counts");
        for (i, (&ds, &dd)) in d_serial.iter().zip(&d_dist).enumerate() {
            assert!(dd == ds || dd == ds + 1, "epoch delta round {i}: serial {ds} vs dist {dd}");
        }
        assert_bitwise_eq(&serial, &dist, "Stepper vs DistSim");
    });
}

/// The masked-geometry axis: a random immersed SDF rides the same
/// schedules. Wall fluxes, frozen solid cells, and mask-aware
/// prolongation are all rank-local and deterministic, so overlapping the
/// exchange (and distributing across ranks, and crashing a rank) must
/// stay bitwise-invisible on masked worlds too.
#[test]
fn overlap_matches_serial_masked_geometry() {
    cases(3, 0x5EED_0054, |_, rng| {
        let geom = Some(random_geometry(rng, 2));
        let schedule = gen_schedule(rng);
        let (serial, d_serial) = run_serial(&schedule, &geom);
        let (shared, d_shared) = run_shared(&schedule, &geom);
        assert_eq!(d_serial, d_shared, "masked epoch deltas serial vs shared");
        assert_bitwise_eq(&serial, &shared, "masked Stepper vs ParStepper");
        let (dist, d_dist) = run_dist(&schedule, 2, &geom);
        for (i, (&ds, &dd)) in d_serial.iter().zip(&d_dist).enumerate() {
            assert!(
                dd == ds || dd == ds + 1,
                "masked epoch delta round {i}: serial {ds} vs dist {dd}"
            );
        }
        assert_bitwise_eq(&serial, &dist, "masked Stepper vs DistSim");
        let resilient = run_resilient_backend(&schedule, 2, None, &geom);
        assert_bitwise_eq(&serial, &resilient, "masked Stepper vs resilient");
    });
}

/// A resilient run that crashes rank 1 mid-schedule and recovers on fewer
/// ranks still matches the serial reference bitwise.
#[test]
fn resilient_crash_under_overlap_matches_serial() {
    cases(3, 0x5EED_0052, |seed, rng| {
        let schedule = gen_schedule(rng);
        let (serial, _) = run_serial(&schedule, &None);
        let faults = std::sync::Arc::new(FaultPlan::new(seed).crash_rank(1, 30));
        let resilient = run_resilient_backend(&schedule, 2, Some(faults), &None);
        assert_bitwise_eq(&serial, &resilient, "Stepper vs faulted resilient");
    });
}

/// The aggregation invariant, asserted against live comm counters: every
/// exchange moves exactly one message per active rank pair per phase
/// (`comm.agg.messages` == plan-derived pair count ==
/// `comm.agg.pair_msgs_expected`). Each segment is exactly one message
/// of a one-message-per-task exchange, so aggregation must cut the
/// message count by at least 25% against the segment count, and every
/// value sent must arrive as a halo value.
#[test]
fn aggregated_messages_equal_active_pairs() {
    const NRANKS: usize = 3;
    const STEPS: usize = 3;
    let snaps = Machine::run(NRANKS, move |comm| {
        let metrics = Metrics::recording();
        let mut sim = DistSim::partitioned(
            base_grid(),
            comm.nranks(),
            cfg(&None).with_metrics(metrics.clone()),
        );
        // one adapt round so prolongation (phase-2) traffic exists
        let owned = sim.owned_ids(comm.rank());
        let flags = flags_for(&sim.grid, 0xA11CE, 60, Some(&owned));
        sim.adapt_rebalance(&comm, &flags);
        for _ in 0..STEPS {
            sim.step_rk2(&comm, DT);
        }
        // independently derive the active-pair count from the plan
        let mut owner: HashMap<ablock_core::arena::BlockId, usize> = HashMap::new();
        for r in 0..comm.nranks() {
            for id in sim.owned_ids(r) {
                owner.insert(id, r);
            }
        }
        let pairs = sim.engine().plan().aggregate(&sim.grid, &|id| owner[&id]).num_messages();
        (metrics.snapshot(), pairs)
    })
    .expect("fault-free machine run");

    let pairs = snaps[0].1;
    assert!(pairs > 0, "test topology must have cross-rank traffic");
    assert!(snaps.iter().all(|(_, p)| *p == pairs), "replicated plans disagree on pair count");
    let sum = |key: &str| -> u64 { snaps.iter().map(|(s, _)| s.counter(key)).sum() };
    // RK2 = two ghost exchanges per step
    let exchanges = (2 * STEPS) as u64;
    let agg_msgs = sum("comm.agg.messages");
    assert_eq!(
        agg_msgs,
        exchanges * pairs as u64,
        "aggregated path must move exactly one message per active rank pair per phase"
    );
    assert_eq!(
        agg_msgs,
        sum("comm.agg.pair_msgs_expected"),
        "sent messages must match the plan-derived expectation"
    );
    let segments = sum("comm.agg.segments");
    assert!(
        4 * agg_msgs <= 3 * segments,
        "aggregation must cut messages by >= 25% against one per task: \
         {agg_msgs} messages for {segments} segments"
    );
    assert_eq!(
        sum("comm.agg.values"),
        sum("dist.halo_values_recv"),
        "every value sent must be received as a halo value"
    );
}

/// Subcycled local time stepping (DESIGN.md §17): the per-sublevel ghost
/// fills ride the same aggregated exchange, and shared and distributed
/// backends match the serial subcycled stepper bitwise.
#[test]
fn subcycled_overlap_matches_serial() {
    cases(4, 0x5EED_0053, |_, rng| {
        let schedule = gen_schedule(rng);
        // serial subcycled reference
        let mut serial = base_grid();
        let mut st: Stepper<2, Euler<2>> = Stepper::new(sub_cfg());
        for round in &schedule.rounds {
            adapt_serial(&mut serial, round.flag_seed, round.density);
            for _ in 0..round.steps {
                st.step(&mut serial, DT, None);
            }
        }
        check_grid(&serial).unwrap();
        let mut shared = base_grid();
        let mut ps: ParStepper<2, Euler<2>> = ParStepper::new(sub_cfg());
        for round in &schedule.rounds {
            adapt_serial(&mut shared, round.flag_seed, round.density);
            for _ in 0..round.steps {
                ps.step(&mut shared, DT);
            }
        }
        assert_bitwise_eq(&serial, &shared, "subcycled Stepper vs ParStepper");
        let results = Machine::run(2, |comm| {
            let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), sub_cfg());
            for round in &schedule.rounds {
                let owned = sim.owned_ids(comm.rank());
                let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
                sim.adapt_rebalance(&comm, &flags);
                for _ in 0..round.steps {
                    sim.advance(&comm, DT);
                }
            }
            sim.gather_full(&comm);
            (comm.rank() == 0).then_some(sim.grid)
        })
        .expect("fault-free machine run");
        let dist = results.into_iter().flatten().next().expect("rank 0 returns state");
        assert_bitwise_eq(&serial, &dist, "subcycled Stepper vs DistSim");
    });
}
