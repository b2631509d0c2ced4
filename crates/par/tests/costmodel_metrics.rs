//! Observability over the parallel substrates: the virtual-clock cost
//! model must replay to byte-identical metrics, and the machine's
//! per-rank comm counters must see real traffic.

use std::collections::HashMap;

use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::sfc::Curve;
use ablock_obs::{phase, Metrics};
use ablock_par::{
    model_step_cached, record_adapt_phases, record_step_phases, CostParams,
    Machine, Partitioner,
};
use ablock_solver::euler::Euler;
use ablock_solver::kernel::Scheme;
use ablock_solver::SolverConfig;

/// One modeled 8-rank run on a fresh virtual-clock registry.
fn modeled_run(steps: usize) -> String {
    const NRANKS: usize = 8;
    let metrics = Metrics::with_virtual_clock();
    let grid = BlockGrid::<3>::new(
        RootLayout::unit([4, 2, 2], Boundary::Periodic),
        GridParams::new([4, 4, 4], 2, 1, 1),
    );
    let owner: HashMap<_, _> = Partitioner::sfc(Curve::Hilbert).partition_grid(&grid, NRANKS);
    let params = CostParams::t3d_like(2.0e-6, 16.0, 4.0, 8.0);
    let mut engine = SolverConfig::new(Euler::<3>::new(1.4), Scheme::muscl_rusanov())
        .with_metrics(metrics.clone())
        .engine();
    for step in 0..steps {
        let cost = model_step_cached(&grid, &mut engine, &owner, NRANKS, &params);
        record_step_phases(&metrics, &cost, &params);
        if (step + 1) % 2 == 0 {
            let migrated = cost.ranks[0].cells * params.nvar * 0.05;
            record_adapt_phases(&metrics, NRANKS, migrated, &params);
        }
    }
    metrics.snapshot().to_json()
}

#[test]
fn cost_model_metrics_replay_byte_identical() {
    let a = modeled_run(6);
    let b = modeled_run(6);
    assert_eq!(a, b, "two identical cost-model runs must serialize identically");
    // and the replay actually recorded the phase structure
    for ph in [
        phase::GHOST_FILL,
        phase::FLUX,
        phase::UPDATE,
        phase::COMM,
        phase::REDUCE,
        phase::ADAPT,
        phase::REBALANCE,
    ] {
        assert!(a.contains(&format!("\"{ph}\"")) || a.contains(&format!("/{ph}\"")), "missing {ph}");
    }
}

#[test]
fn machine_records_per_rank_comm_traffic() {
    const NRANKS: usize = 3;
    let snaps = Machine::run(NRANKS, |comm| {
        let metrics = Metrics::recording();
        comm.install_metrics(&metrics);
        // point-to-point traffic in a ring + a collective
        let next = (comm.rank() + 1) % NRANKS;
        let prev = (comm.rank() + NRANKS - 1) % NRANKS;
        comm.send(next, 7, vec![comm.rank() as f64; 16]);
        let data = comm.recv(prev, 7);
        assert_eq!(data.len(), 16);
        let total = comm.allreduce_sum(1.0);
        assert_eq!(total, NRANKS as f64);
        comm.barrier();
        metrics.snapshot()
    })
    .unwrap();

    for (rank, snap) in snaps.iter().enumerate() {
        let sent = snap.counter(&format!("comm.r{rank}.sent_msgs"));
        let recvd = snap.counter(&format!("comm.r{rank}.recv_msgs"));
        let sent_values = snap.counter(&format!("comm.r{rank}.sent_values"));
        assert!(sent >= 1, "rank {rank} sent nothing: {sent}");
        assert!(recvd >= 1, "rank {rank} received nothing: {recvd}");
        assert!(sent_values >= 16, "rank {rank} undercounted values: {sent_values}");
        // keys are rank-qualified: no rank sees another rank's counters
        for other in 0..NRANKS {
            if other != rank {
                assert_eq!(snap.counter(&format!("comm.r{other}.sent_msgs")), 0);
            }
        }
    }
}
