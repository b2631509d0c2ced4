//! Cross-backend differential equivalence (DESIGN.md §12): identical
//! adapt+step schedules driven through the serial [`Stepper`], the
//! shared-memory [`ParStepper`], the distributed [`DistSim`], and the
//! fault-tolerant [`run_resilient_with`] supervisor must produce
//! **bitwise-identical** final state, and (where the backend exposes a
//! live grid) identical topology-epoch deltas per adapt round.
//!
//! Schedules come from `ablock_testkit::gen_schedule`; adapt flags are
//! *key-derived* ([`flag_for_key`]) so every backend computes the same
//! flag set without coordination. Half the schedules include a
//! mid-schedule checkpoint save→load cut, which must be bitwise-neutral.

use std::collections::HashMap;

use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::sfc::Curve;
use ablock_core::verify::check_grid;
use ablock_io::{load_grid, save_grid};
use ablock_par::{
    run_resilient_with, DistSim, FaultPlan, Machine, MachineConfig, ParStepper, Partitioner,
    RecoverConfig,
};
use ablock_solver::{problems, Euler, Scheme, SolverConfig, Stepper};
use ablock_testkit::{cases, flag_for_key, gen_schedule, Schedule};

const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn cfg() -> SolverConfig<Euler<2>> {
    SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
        .with_partitioner(Partitioner::sfc(Curve::Hilbert))
}

fn base_grid() -> BlockGrid<2> {
    let layout = RootLayout::unit([2, 2], Boundary::Periodic);
    let mut g = BlockGrid::new(layout, GridParams::new([4, 4], 2, 4, MAX_LEVEL));
    problems::advected_gaussian(&mut g, &Euler::new(1.4), [0.4, 0.3], [0.5, 0.5], 0.2);
    g
}

/// Key-derived flag map for the current leaves (restricted to `only`
/// when a backend owns a subset).
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

/// Apply one adapt round serially; returns the epoch delta.
fn adapt_serial(grid: &mut BlockGrid<2>, seed: u64, density: u8) -> u64 {
    let flags = flags_for(grid, seed, density, None);
    let before = grid.epoch();
    adapt(grid, &flags, TRANSFER);
    grid.epoch() - before
}

fn checkpoint_cut(grid: &BlockGrid<2>) -> BlockGrid<2> {
    let mut bytes = Vec::new();
    save_grid(&mut bytes, grid).expect("writing to a Vec cannot fail");
    load_grid(&mut bytes.as_slice()).expect("fresh checkpoint must load")
}

/// Serial reference: `Stepper` + `balance::adapt`, with a fresh stepper
/// after a checkpoint cut (per-grid plan caches must not carry over).
fn run_serial(schedule: &Schedule) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(cfg());
    let mut deltas = Vec::new();
    for (ri, round) in schedule.rounds.iter().enumerate() {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step_rk2(&mut grid, DT, None);
        }
        if schedule.checkpoint_after_round == Some(ri) {
            grid = checkpoint_cut(&grid);
            stepper = Stepper::new(cfg());
        }
    }
    check_grid(&grid).unwrap();
    (grid, deltas)
}

/// Shared-memory backend: same schedule through `ParStepper`.
fn run_shared(schedule: &Schedule) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    let mut stepper: ParStepper<2, Euler<2>> = ParStepper::new(cfg());
    let mut deltas = Vec::new();
    for (ri, round) in schedule.rounds.iter().enumerate() {
        deltas.push(adapt_serial(&mut grid, round.flag_seed, round.density));
        for _ in 0..round.steps {
            stepper.step_rk2(&mut grid, DT);
        }
        if schedule.checkpoint_after_round == Some(ri) {
            grid = checkpoint_cut(&grid);
            stepper = ParStepper::new(cfg());
        }
    }
    (grid, deltas)
}

/// Distributed backend: `DistSim` over the in-process machine; each rank
/// contributes key-derived flags for its owned blocks only.
fn run_dist(schedule: &Schedule, nranks: usize) -> (BlockGrid<2>, Vec<u64>) {
    let results = Machine::run(nranks, |comm| {
        let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), cfg());
        let mut deltas = Vec::new();
        for (ri, round) in schedule.rounds.iter().enumerate() {
            let owned = sim.owned_ids(comm.rank());
            let flags =
                flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
            let before = sim.grid.epoch();
            sim.adapt_rebalance(&comm, &flags);
            deltas.push(sim.grid.epoch() - before);
            for _ in 0..round.steps {
                sim.step_rk2(&comm, DT);
            }
            if schedule.checkpoint_after_round == Some(ri) {
                // collective: every rank snapshots the gathered state and
                // re-partitions the reloaded grid identically
                sim.gather_full(&comm);
                let loaded = checkpoint_cut(&sim.grid);
                sim = DistSim::partitioned(loaded, comm.nranks(), cfg());
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

/// Fault-tolerant backend: the same schedule expressed through
/// `run_resilient_with`'s `on_step` hook (round 0 folds into `make_grid`;
/// later rounds fire at cumulative step boundaries).
fn run_resilient_backend(
    schedule: &Schedule,
    nranks: usize,
    faults: Option<std::sync::Arc<FaultPlan>>,
) -> BlockGrid<2> {
    let rounds = schedule.rounds.clone();
    let round0 = rounds[0];
    let make_grid = move || {
        let mut g = base_grid();
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
        cfg(),
        make_grid,
        rcfg,
        faults,
        |sim, comm, done| {
            if let Some(&r) = boundaries.get(&done) {
                let round = rounds[r];
                let owned = sim.owned_ids(comm.rank());
                let flags =
                    flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
                sim.adapt_rebalance(comm, &flags);
            }
        },
    )
    .expect("resilient run must recover");
    outcome.grid
}

/// One schedule through all four backends, asserting bitwise state
/// equality and identical epoch-delta traces.
fn differential_case(rng: &mut ablock_testkit::Rng) {
    let schedule = gen_schedule(rng);
    let (serial, d_serial) = run_serial(&schedule);
    let (shared, d_shared) = run_shared(&schedule);
    assert_eq!(d_serial, d_shared, "epoch deltas serial vs shared");
    assert_bitwise_eq(&serial, &shared, "Stepper vs ParStepper");
    let (dist, d_dist) = run_dist(&schedule, 2);
    // adapt_rebalance ends every round with an incremental rebalance,
    // which bumps the epoch once more *only if blocks actually migrated*
    // (the no-op plan leaves epoch-keyed caches valid) — so each
    // distributed delta is the serial structural delta plus at most one.
    assert_eq!(d_serial.len(), d_dist.len(), "round counts serial vs dist");
    for (i, (&ds, &dd)) in d_serial.iter().zip(&d_dist).enumerate() {
        assert!(
            dd == ds || dd == ds + 1,
            "epoch delta at round {i}: serial {ds} vs dist {dd}"
        );
    }
    assert_bitwise_eq(&serial, &dist, "Stepper vs DistSim");
    let resilient = run_resilient_backend(&schedule, 2, None);
    assert_bitwise_eq(&serial, &resilient, "Stepper vs run_resilient");
}

// The ≥50-schedule budget is split across parallel test binaries' threads;
// every seed namespace is distinct so failures replay in isolation.

#[test]
fn differential_schedules_batch_a() {
    cases(10, 0x5EED_0020, |_, rng| differential_case(rng));
}

#[test]
fn differential_schedules_batch_b() {
    cases(10, 0x5EED_0021, |_, rng| differential_case(rng));
}

#[test]
fn differential_schedules_batch_c() {
    cases(10, 0x5EED_0022, |_, rng| differential_case(rng));
}

#[test]
fn differential_schedules_batch_d() {
    cases(10, 0x5EED_0023, |_, rng| differential_case(rng));
}

#[test]
fn differential_schedules_batch_e() {
    cases(10, 0x5EED_0024, |_, rng| differential_case(rng));
}

/// Injected faults must not change the answer: a resilient run that
/// crashes a rank mid-schedule and recovers on fewer ranks still matches
/// the serial reference bitwise.
#[test]
fn differential_with_injected_faults() {
    cases(4, 0x5EED_0025, |seed, rng| {
        let schedule = gen_schedule(rng);
        let (serial, _) = run_serial(&schedule);
        let faults = std::sync::Arc::new(FaultPlan::new(seed).crash_rank(1, 30));
        let resilient = run_resilient_backend(&schedule, 2, Some(faults));
        assert_bitwise_eq(&serial, &resilient, "Stepper vs faulted run_resilient");
    });
}
