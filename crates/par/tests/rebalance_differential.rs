//! Differential proof that the incremental rebalance path is exact
//! (ISSUE 8 / DESIGN.md §16): across random adapt schedules, the
//! ownership `DistSim` reaches through spliced-walk cut-point plans is
//! identical to a from-scratch `Partitioner::partition_grid` of the same
//! grid, the grid passes `check_grid` after every plan application, and
//! the field state stays bitwise-identical to the serial stepper — on
//! Hilbert and Morton, and under a non-uniform measured-cost weight hook.

use std::collections::HashMap;
use std::sync::Arc;

use ablock_core::balance::{adapt, Flag};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::sfc::Curve;
use ablock_core::verify::check_grid;
use ablock_par::{DistSim, Machine, Partitioner, WeightFn};
use ablock_solver::{problems, Euler, Geometry, Scheme, SolverConfig, Stepper};
use ablock_testkit::{cases, flag_for_key, gen_schedule, random_geometry, Schedule};

const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn cfg(geom: &Option<Geometry>) -> SolverConfig<Euler<2>> {
    let mut c = SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov());
    if let Some(g) = geom {
        c = c.with_geometry(g.clone());
    }
    c
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

/// Sorted (key, interior bit pattern) signature — bitwise identity of a
/// grid's state, independent of arena id assignment.
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

fn run_serial(schedule: &Schedule, geom: &Option<Geometry>) -> BlockGrid<2> {
    let mut grid = base_grid();
    // masks must exist before the round-0 adapt on every backend
    // (DistSim binarizes them at construction)
    grid.ensure_geometry(geom);
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(cfg(geom));
    for round in &schedule.rounds {
        let flags = flags_for(&grid, round.flag_seed, round.density, None);
        adapt(&mut grid, &flags, TRANSFER);
        for _ in 0..round.steps {
            stepper.step_rk2(&mut grid, DT, None);
        }
    }
    check_grid(&grid).unwrap();
    grid
}

/// Distributed run driving the incremental rebalance; after every plan
/// application, assert the ownership oracle (incremental == from-scratch
/// `partition_grid`) and re-verify the grid from scratch.
fn run_dist(
    schedule: &Schedule,
    nranks: usize,
    part: &Partitioner,
    weight_fn: Option<WeightFn<2>>,
    check_owner: bool,
    geom: &Option<Geometry>,
) -> BlockGrid<2> {
    let results = Machine::run(nranks, |comm| {
        let mut sim = DistSim::partitioned(
            base_grid(),
            comm.nranks(),
            cfg(geom).with_partitioner(part.clone()),
        );
        if let Some(w) = &weight_fn {
            sim.set_weight_fn(w.clone());
        }
        for (r, round) in schedule.rounds.iter().enumerate() {
            let owned = sim.owned_ids(comm.rank());
            let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
            sim.adapt_rebalance(&comm, &flags);
            check_grid(&sim.grid).unwrap_or_else(|e| {
                panic!("round {r} rank {}: invalid grid after plan: {e}", comm.rank())
            });
            if check_owner {
                // the incremental cut-point plan must land exactly where a
                // from-scratch partition of the post-adapt grid lands
                let scratch = part.partition_grid(&sim.grid, comm.nranks());
                assert_eq!(
                    sim.owner.len(),
                    scratch.len(),
                    "round {r} rank {}: owner map size",
                    comm.rank()
                );
                for (id, rank) in &scratch {
                    assert_eq!(
                        sim.owner.get(id),
                        Some(rank),
                        "round {r} rank {}: block {:?} owner diverged from from-scratch",
                        comm.rank(),
                        sim.grid.block(*id).key()
                    );
                }
            }
            for _ in 0..round.steps {
                sim.step_rk2(&comm, DT);
            }
        }
        sim.gather_full(&comm);
        if comm.rank() == 0 {
            Some(sim.grid)
        } else {
            None
        }
    })
    .expect("fault-free machine run");
    results.into_iter().flatten().next().expect("rank 0 returns state")
}

/// Random adapt schedules: incremental ownership == from-scratch
/// partition after every plan, bitwise state == serial.
#[test]
fn incremental_rebalance_matches_from_scratch_and_serial() {
    cases(4, 0x5EED_0060, |_, rng| {
        let schedule = gen_schedule(rng);
        let serial = run_serial(&schedule, &None);
        let part = Partitioner::default();
        let dist = run_dist(&schedule, 3, &part, None, true, &None);
        assert_bitwise_eq(&serial, &dist, "serial vs dist");
    });
}

/// The ownership oracle holds on the Morton curve too (different splice
/// geometry, same cut-point algebra).
#[test]
fn incremental_rebalance_exact_on_morton() {
    cases(3, 0x5EED_0061, |_, rng| {
        let schedule = gen_schedule(rng);
        let serial = run_serial(&schedule, &None);
        let part = Partitioner::sfc(Curve::Morton);
        let dist = run_dist(&schedule, 2, &part, None, true, &None);
        assert_bitwise_eq(&serial, &dist, "serial vs dist (Morton)");
    });
}

/// A non-uniform measured-cost weight hook (deterministic per key, so
/// replicated plans still agree) moves the cuts but never the physics:
/// state stays bitwise-identical to serial.
#[test]
fn measured_weight_hook_keeps_state_bitwise() {
    cases(3, 0x5EED_0062, |_, rng| {
        let schedule = gen_schedule(rng);
        let serial = run_serial(&schedule, &None);
        let weights: WeightFn<2> = Arc::new(|grid, id| {
            let key = grid.block(id).key();
            // key-derived, rank-independent pseudo-cost in [1, 8)
            let h = (key.coords[0] as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(key.coords[1] as u64)
                .wrapping_add(key.level as u64);
            1.0 + (h % 7) as f64
        });
        let part = Partitioner::default();
        // ownership diverges from the uniform-weight from-scratch oracle
        // by design; the invariant under test is bitwise state safety
        let dist = run_dist(&schedule, 3, &part, Some(weights), false, &None);
        assert_bitwise_eq(&serial, &dist, "serial vs dist (weight hook)");
    });
}

/// The masked-geometry axis: migrated blocks carry only the `nvar` field
/// planes — solid masks never travel, each rank re-binarizes them from
/// the replicated geometry. The incremental-vs-from-scratch ownership
/// oracle and the bitwise serial equality must both survive masked
/// worlds.
#[test]
fn incremental_rebalance_masked_geometry() {
    cases(3, 0x5EED_0063, |_, rng| {
        let geom = Some(random_geometry(rng, 2));
        let schedule = gen_schedule(rng);
        let serial = run_serial(&schedule, &geom);
        let part = Partitioner::default();
        let dist = run_dist(&schedule, 3, &part, None, true, &geom);
        assert_bitwise_eq(&serial, &dist, "serial vs dist (masked geometry)");
    });
}
