//! Cross-backend differential equivalence for local time stepping
//! (DESIGN.md §17): identical adapt+step schedules driven through the
//! serial [`Stepper`], the shared-memory [`ParStepper`], the distributed
//! [`DistSim`] (Hilbert *and* Morton partitions), and the fault-tolerant
//! [`run_resilient_with`] supervisor — all under
//! `TimeStepMode::Subcycled` with refluxing — must produce
//! **bitwise-identical** final state. A separate suite proves the
//! conservation contract: refluxed subcycled totals track the refluxed
//! global-Δt totals to a few ulps per step on random adapt schedules.

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
use ablock_solver::{
    problems, total_conserved, Euler, Geometry, Scheme, SolverConfig, Stepper, TimeStepMode,
};
use ablock_testkit::{cases, flag_for_key, gen_schedule, random_geometry, Schedule};

/// Fixed outer (coarsest-level) step. Stable at every level of the
/// `MAX_LEVEL = 2` hierarchy, and usable by `run_resilient_with`, which
/// takes one dt for the whole run.
const DT: f64 = 1e-3;
const MAX_LEVEL: u8 = 2;
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);

fn sub_cfg(curve: Curve, geom: &Option<Geometry>) -> SolverConfig<Euler<2>> {
    let mut cfg = SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
        .with_partitioner(Partitioner::sfc(curve))
        .with_refluxing(true)
        .with_time_step_mode(TimeStepMode::Subcycled);
    if let Some(g) = geom {
        cfg = cfg.with_geometry(g.clone());
    }
    cfg
}

/// The global-Δt reference oracle: same scheme, same refluxing, uniform dt.
fn global_cfg() -> SolverConfig<Euler<2>> {
    SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov()).with_refluxing(true)
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

fn adapt_serial(grid: &mut BlockGrid<2>, seed: u64, density: u8) {
    let flags = flags_for(grid, seed, density, None);
    adapt(grid, &flags, TRANSFER);
}

fn checkpoint_cut(grid: &BlockGrid<2>) -> BlockGrid<2> {
    let mut bytes = Vec::new();
    save_grid(&mut bytes, grid).expect("writing to a Vec cannot fail");
    load_grid(&mut bytes.as_slice()).expect("fresh checkpoint must load")
}

/// Serial subcycled reference. Each "step" of the schedule is one full
/// coarsest-level cycle (finer levels substep 2^Δℓ times inside it).
/// Also returns the per-step `stable_dt` trace so distributed runs can
/// be checked for bitwise-equal CFL reductions.
fn run_serial_sub(schedule: &Schedule, geom: &Option<Geometry>) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    // install the immersed geometry before the first adapt, matching
    // DistSim (which binarizes masks at construction): the round-0
    // prolongation must already be mask-aware on every backend
    grid.ensure_geometry(geom);
    let mut stepper: Stepper<2, Euler<2>> = Stepper::new(sub_cfg(Curve::Hilbert, geom));
    let mut dts = Vec::new();
    for (ri, round) in schedule.rounds.iter().enumerate() {
        adapt_serial(&mut grid, round.flag_seed, round.density);
        for _ in 0..round.steps {
            dts.push(stepper.stable_dt(&mut grid).to_bits());
            stepper.step(&mut grid, DT, None);
        }
        if schedule.checkpoint_after_round == Some(ri) {
            grid = checkpoint_cut(&grid);
            stepper = Stepper::new(sub_cfg(Curve::Hilbert, geom));
        }
    }
    check_grid(&grid).unwrap();
    (grid, dts)
}

fn run_shared_sub(schedule: &Schedule, geom: &Option<Geometry>) -> (BlockGrid<2>, Vec<u64>) {
    let mut grid = base_grid();
    grid.ensure_geometry(geom);
    let mut stepper: ParStepper<2, Euler<2>> =
        ParStepper::new(sub_cfg(Curve::Hilbert, geom));
    let mut dts = Vec::new();
    for (ri, round) in schedule.rounds.iter().enumerate() {
        adapt_serial(&mut grid, round.flag_seed, round.density);
        for _ in 0..round.steps {
            dts.push(stepper.stable_dt(&mut grid).to_bits());
            stepper.step(&mut grid, DT);
        }
        if schedule.checkpoint_after_round == Some(ri) {
            grid = checkpoint_cut(&grid);
            stepper = ParStepper::new(sub_cfg(Curve::Hilbert, geom));
        }
    }
    (grid, dts)
}

/// Distributed subcycled backend under SFC cuts along `curve`. The
/// per-level allreduce in `DistSim::stable_dt` must reproduce the serial
/// CFL trace bitwise (f64 max is exact and order-independent).
fn run_dist_sub(
    schedule: &Schedule,
    nranks: usize,
    curve: Curve,
    geom: &Option<Geometry>,
) -> (BlockGrid<2>, Vec<u64>) {
    let geom = geom.clone();
    let results = Machine::run(nranks, move |comm| {
        let mut sim = DistSim::partitioned(base_grid(), comm.nranks(), sub_cfg(curve, &geom));
        let mut dts = Vec::new();
        for (ri, round) in schedule.rounds.iter().enumerate() {
            let owned = sim.owned_ids(comm.rank());
            let flags = flags_for(&sim.grid, round.flag_seed, round.density, Some(&owned));
            sim.adapt_rebalance(&comm, &flags);
            for _ in 0..round.steps {
                dts.push(sim.stable_dt(&comm).to_bits());
                sim.advance(&comm, DT);
            }
            if schedule.checkpoint_after_round == Some(ri) {
                sim.gather_full(&comm);
                let loaded = checkpoint_cut(&sim.grid);
                sim = DistSim::partitioned(loaded, comm.nranks(), sub_cfg(curve, &geom));
            }
        }
        sim.gather_full(&comm);
        if comm.rank() == 0 {
            Some((sim.grid, dts))
        } else {
            None
        }
    })
    .expect("fault-free machine run");
    results.into_iter().flatten().next().expect("rank 0 returns state")
}

/// Fault-tolerant backend with the subcycled config: the supervisor's
/// step loop dispatches through `DistSim::advance`, so every step is one
/// subcycled coarsest-level cycle.
fn run_resilient_sub(
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
        sub_cfg(Curve::Hilbert, geom),
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

/// One schedule through every subcycled backend: bitwise state equality
/// everywhere, bitwise-equal per-step CFL (`stable_dt`) traces where the
/// backend exposes them.
fn subcycled_differential_case(rng: &mut ablock_testkit::Rng, geom: &Option<Geometry>) {
    let schedule = gen_schedule(rng);
    let (serial, dt_serial) = run_serial_sub(&schedule, geom);
    let (shared, dt_shared) = run_shared_sub(&schedule, geom);
    assert_eq!(dt_serial, dt_shared, "stable_dt trace serial vs shared");
    assert_bitwise_eq(&serial, &shared, "subcycled Stepper vs ParStepper");
    for curve in [Curve::Hilbert, Curve::Morton] {
        let (dist, dt_dist) = run_dist_sub(&schedule, 2, curve, geom);
        assert_eq!(dt_serial, dt_dist, "stable_dt trace serial vs dist {curve:?}");
        assert_bitwise_eq(&serial, &dist, &format!("subcycled Stepper vs DistSim {curve:?}"));
    }
    let resilient = run_resilient_sub(&schedule, 2, None, geom);
    assert_bitwise_eq(&serial, &resilient, "subcycled Stepper vs run_resilient");
}

#[test]
fn subcycled_differential_batch_a() {
    cases(5, 0x5EED_0060, |_, rng| subcycled_differential_case(rng, &None));
}

#[test]
fn subcycled_differential_batch_b() {
    cases(5, 0x5EED_0061, |_, rng| subcycled_differential_case(rng, &None));
}

#[test]
fn subcycled_differential_batch_c() {
    cases(5, 0x5EED_0062, |_, rng| subcycled_differential_case(rng, &None));
}

/// The masked-geometry axis: a random immersed SDF is installed through
/// `SolverConfig::with_geometry` on every backend. Solid cells freeze,
/// solid faces act as reflective walls, and masks re-binarize
/// deterministically on every rank — so the bitwise equivalence across
/// serial/pool/dist/resilient must be unchanged.
#[test]
fn subcycled_differential_masked_geometry() {
    cases(3, 0x5EED_0065, |_, rng| {
        let geom = Some(random_geometry(rng, 2));
        subcycled_differential_case(rng, &geom);
    });
}

/// Injected faults must not change the subcycled answer: a resilient run
/// that crashes rank 1 mid-schedule and recovers on fewer ranks still
/// matches the serial subcycled reference bitwise.
#[test]
fn subcycled_differential_with_injected_faults() {
    cases(3, 0x5EED_0063, |seed, rng| {
        let schedule = gen_schedule(rng);
        let (serial, _) = run_serial_sub(&schedule, &None);
        let faults = std::sync::Arc::new(FaultPlan::new(seed).crash_rank(1, 30));
        let resilient = run_resilient_sub(&schedule, 2, Some(faults), &None);
        assert_bitwise_eq(&serial, &resilient, "subcycled Stepper vs faulted run_resilient");
    });
}

/// The conservation contract on random adapt schedules: with periodic
/// boundaries and conservative transfers, a refluxed subcycled run and a
/// refluxed global-Δt run both keep every conserved total within ulps of
/// the initial value — so the two totals agree to ulps per step even
/// though the states themselves differ at O(Δt²).
///
/// Key-derived flags depend only on topology, so both runs traverse the
/// *same* grid-hierarchy sequence; only the cell data differs.
#[test]
fn subcycled_totals_match_global_dt_to_ulps() {
    cases(6, 0x5EED_0064, |_, rng| {
        let schedule = gen_schedule(rng);
        let mut g_sub = base_grid();
        let mut g_glob = base_grid();
        let nvar = 4;
        let t0: Vec<f64> = (0..nvar).map(|v| total_conserved(&g_sub, v)).collect();
        let mut st_sub: Stepper<2, Euler<2>> = Stepper::new(sub_cfg(Curve::Hilbert, &None));
        let mut st_glob: Stepper<2, Euler<2>> = Stepper::new(global_cfg());
        // one "event" = a step or an adapt round; each adds at most a few
        // ulps of summation noise to a conserved total
        let mut events = 0u64;
        for round in &schedule.rounds {
            adapt_serial(&mut g_sub, round.flag_seed, round.density);
            adapt_serial(&mut g_glob, round.flag_seed, round.density);
            events += 1;
            for _ in 0..round.steps {
                st_sub.step(&mut g_sub, DT, None);
                st_glob.step(&mut g_glob, DT, None);
                events += 1;
                for v in 0..nvar {
                    let a = total_conserved(&g_sub, v);
                    let b = total_conserved(&g_glob, v);
                    let tol = events as f64 * 16.0 * f64::EPSILON * (1.0 + t0[v].abs());
                    assert!(
                        (a - t0[v]).abs() <= tol,
                        "subcycled total of var {v} drifted: {:.17e} -> {a:.17e} after {events} events",
                        t0[v]
                    );
                    assert!(
                        (b - t0[v]).abs() <= tol,
                        "global total of var {v} drifted: {:.17e} -> {b:.17e} after {events} events",
                        t0[v]
                    );
                    assert!(
                        (a - b).abs() <= 2.0 * tol,
                        "subcycled vs global totals of var {v} diverged: {a:.17e} vs {b:.17e}"
                    );
                }
            }
        }
        check_grid(&g_sub).unwrap();
    });
}
