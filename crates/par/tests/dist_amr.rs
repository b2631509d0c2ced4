//! End-to-end distributed AMR: a blast tracked by a gradient criterion on
//! the message-passing machine, with replicated adapts and SFC
//! rebalancing mid-run, checked bit-for-bit against the serial driver;
//! plus the distributed ghost fill on its own, ghost cells included.

use std::collections::HashMap;

use ablock_core::balance::{adapt, Flag};
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_obs::Metrics;
use ablock_par::{DistSim, Machine, Partitioner};
use ablock_core::sfc::Curve;
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::problems;
use ablock_solver::SolverConfig;
use ablock_solver::stepper::Stepper;

fn build() -> (BlockGrid<2>, Euler<2>) {
    let e = Euler::<2>::new(1.4);
    let mut g = BlockGrid::new(
        RootLayout::unit([4, 4], Boundary::Periodic),
        GridParams::new([4, 4], 2, 4, 2),
    );
    problems::sedov_blast(&mut g, &e, [0.5, 0.5], 0.12, 8.0);
    (g, e)
}

/// Deterministic per-block refine flags from the energy gradient (the
/// criterion used by both serial and distributed runs). Requires filled
/// ghosts.
fn energy_flags(grid: &BlockGrid<2>) -> HashMap<ablock_core::arena::BlockId, Flag> {
    let mut flags = HashMap::new();
    for (id, node) in grid.blocks() {
        if node.key().level >= grid.params().max_level {
            continue;
        }
        let f = node.field();
        let mut worst: f64 = 0.0;
        for c in f.shape().interior_box().iter() {
            for d in 0..2 {
                let mut cp = c;
                cp[d] += 1;
                let mut cm = c;
                cm[d] -= 1;
                worst = worst.max((f.at(cp, 3) - f.at(cm, 3)).abs() / (f.at(c, 3).abs() + 1e-12));
            }
        }
        if worst > 0.25 {
            flags.insert(id, Flag::Refine);
        }
    }
    flags
}

const DT: f64 = 1.0e-3;
const ROUNDS: usize = 3;
const STEPS_PER_ROUND: usize = 2;

/// Serial reference: step, adapt on cadence, step.
fn serial_run() -> (Vec<(BlockKey<2>, Vec<f64>)>, usize) {
    let (mut g, e) = build();
    let mut st = Stepper::new(SolverConfig::new(e, Scheme::muscl_rusanov()));
    for _ in 0..ROUNDS {
        for _ in 0..STEPS_PER_ROUND {
            st.step_rk2(&mut g, DT, None);
        }
        st.fill_ghosts(&mut g, None);
        let flags = energy_flags(&g);
        adapt(&mut g, &flags, Transfer::Conservative(ProlongOrder::LinearMinmod));
    }
    let mut out: Vec<(BlockKey<2>, Vec<f64>)> = g
        .blocks()
        .map(|(_, n)| (n.key(), n.field().as_slice().to_vec()))
        .collect();
    out.sort_by_key(|(k, _)| *k);
    (out, g.num_blocks())
}

#[test]
fn distributed_amr_blast_matches_serial() {
    let (serial, serial_blocks) = serial_run();
    let serial_map: HashMap<BlockKey<2>, Vec<f64>> = serial.into_iter().collect();

    for nranks in [2usize, 3] {
        let results = Machine::run(nranks, |comm| {
            let (g, e) = build();
            let mut sim =
                DistSim::partitioned(g, nranks, SolverConfig::new(e, Scheme::muscl_rusanov()));
            for _ in 0..ROUNDS {
                for _ in 0..STEPS_PER_ROUND {
                    sim.step_rk2(&comm, DT);
                }
                // flags from owned blocks only (ghosts refreshed first)
                sim.fill_ghosts(&comm);
                let me = comm.rank();
                let all_flags = energy_flags(&sim.grid);
                let my_flags: HashMap<_, _> = all_flags
                    .into_iter()
                    .filter(|(id, _)| sim.owner[id] == me)
                    .collect();
                sim.adapt_rebalance(&comm, &my_flags);
            }
            ablock_core::verify::check_grid(&sim.grid).unwrap();
            let me = comm.rank();
            // every rank must agree on the topology
            let nb = sim.grid.num_blocks() as f64;
            let nb_max = comm.allreduce_max(nb);
            assert_eq!(nb, nb_max, "ranks disagree on topology");
            sim.owned_ids(me)
                .into_iter()
                .map(|id| {
                    let n = sim.grid.block(id);
                    (n.key(), n.field().as_slice().to_vec())
                })
                .collect::<Vec<_>>()
        }).unwrap();
        let flat: Vec<(BlockKey<2>, Vec<f64>)> = results.into_iter().flatten().collect();
        assert_eq!(
            flat.len(),
            serial_blocks,
            "P={nranks}: ownership must cover each block exactly once"
        );
        let shape = ablock_core::field::FieldShape::<2>::new([4, 4], 2, 4);
        for (key, data) in flat {
            let sref = serial_map
                .get(&key)
                .unwrap_or_else(|| panic!("P={nranks}: topology mismatch at {key:?}"));
            for c in shape.interior_box().iter() {
                let i = shape.lin(c);
                for v in 0..4 {
                    assert!(
                        (data[i + v] - sref[i + v]).abs() < 1e-12,
                        "P={nranks} block {key:?} cell {c:?} var {v}: {} vs {}",
                        data[i + v],
                        sref[i + v]
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_amr_conserves_mass() {
    let totals = Machine::run(2, |comm| {
        let (g, e) = build();
        let total0 = ablock_solver::stepper::total_conserved(&g, 0);
        let mut sim = DistSim::partitioned(
            g,
            2,
            SolverConfig::new(e, Scheme::muscl_rusanov())
                .with_partitioner(Partitioner::sfc(Curve::Morton)),
        );
        for _ in 0..2 {
            for _ in 0..2 {
                let dt = sim.max_dt(&comm);
                sim.step_rk2(&comm, dt);
            }
            sim.fill_ghosts(&comm);
            let me = comm.rank();
            let flags: HashMap<_, _> = energy_flags(&sim.grid)
                .into_iter()
                .filter(|(id, _)| sim.owner[id] == me)
                .collect();
            sim.adapt_rebalance(&comm, &flags);
        }
        // owned-mass reduction
        let me = comm.rank();
        let m = sim.grid.params().block_dims;
        let mut local = 0.0;
        for id in sim.owned_ids(me) {
            let n = sim.grid.block(id);
            let h = sim.grid.layout().cell_size(n.key().level, m);
            local += n.field().interior_sum(0) * h[0] * h[1];
        }
        (comm.allreduce_sum(local), total0)
    }).unwrap();
    for (total, total0) in totals {
        // periodic box; only the coarse/fine flux mismatch leaks
        assert!(
            (total - total0).abs() < 5e-4 * total0,
            "mass {total0} -> {total}"
        );
    }
}

/// Two-level grid with reflecting walls: a refined patch gives the plan
/// restrictions (phase 1) and prolongations (phase 2), the walls give it
/// boundary synthesis. The wide pulse leaves no flat region, so limited
/// prolongation slopes see every coarse ghost value they read.
fn two_level(e: &Euler<2>) -> BlockGrid<2> {
    let mut g = BlockGrid::new(
        RootLayout::unit([4, 4], Boundary::Reflect),
        GridParams::new([4, 4], 2, 4, 2),
    );
    problems::advected_gaussian(&mut g, e, [0.7, -0.4], [0.45, 0.55], 0.35);
    for coords in [[1, 1], [1, 2], [2, 2]] {
        let id = g.find(BlockKey::new(0, coords)).unwrap();
        g.refine(id, Transfer::Conservative(ProlongOrder::LinearMinmod)).unwrap();
    }
    g
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `DistSim::fill_ghosts` leaves every owned block's whole field, ghost
/// cells included, bitwise-equal to a serial `GhostExchange::fill` of the
/// same grid. Round-robin ownership puts most faces across ranks, so
/// phase-2 prolongations read coarse slabs restricted from remote fine
/// blocks; the live message count must equal the plan's pair count.
#[test]
fn fill_ghosts_matches_serial_fill_bitwise() {
    let e = Euler::<2>::new(1.4);
    for corners in [false, true] {
        let mut cfg = SolverConfig::new(e.clone(), Scheme::muscl_rusanov())
            .with_partitioner(Partitioner::round_robin());
        cfg.ghost.corners = corners;
        let mut serial = two_level(&e);
        GhostExchange::build(&serial, cfg.ghost.clone()).fill(&mut serial);
        let serial_map: HashMap<BlockKey<2>, Vec<u64>> = serial
            .blocks()
            .map(|(_, n)| (n.key(), bits(n.field().as_slice())))
            .collect();
        for nranks in [2usize, 3] {
            let results = Machine::run(nranks, |comm| {
                let metrics = Metrics::recording();
                let mut sim = DistSim::partitioned(
                    two_level(&e),
                    nranks,
                    cfg.clone().with_metrics(metrics.clone()),
                );
                sim.fill_ghosts(&comm);
                let pairs = GhostExchange::build(&sim.grid, cfg.ghost.clone())
                    .aggregate(&sim.grid, &|id| sim.owner[&id])
                    .num_messages();
                let owned: Vec<(BlockKey<2>, Vec<u64>)> = sim
                    .owned_ids(comm.rank())
                    .into_iter()
                    .map(|id| {
                        let n = sim.grid.block(id);
                        (n.key(), bits(n.field().as_slice()))
                    })
                    .collect();
                (owned, metrics.snapshot().counter("comm.agg.messages"), pairs)
            })
            .unwrap();
            let pairs = results[0].2;
            assert!(pairs > 0, "P={nranks}: round-robin must put faces across ranks");
            let msgs: u64 = results.iter().map(|r| r.1).sum();
            assert_eq!(msgs, pairs as u64, "P={nranks} corners={corners}: messages vs pairs");
            let mut checked = 0;
            for (owned, ..) in results {
                for (key, got) in owned {
                    let want = &serial_map[&key];
                    if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
                        panic!(
                            "P={nranks} corners={corners} block {key:?} word {i}: \
                             {:e} vs serial {:e}",
                            f64::from_bits(got[i]),
                            f64::from_bits(want[i])
                        );
                    }
                    checked += 1;
                }
            }
            assert_eq!(checked, serial.num_blocks(), "P={nranks}: every block owned once");
        }
    }
}
