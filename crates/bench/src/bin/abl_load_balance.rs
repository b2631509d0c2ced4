//! ABL-3: load-balance policy comparison.
//!
//! The paper: "Whenever refinement or coarsening occurs, load re-balancing
//! should be performed", and warns that few blocks per processor hurt.
//! This ablation compares the partitioners on an actually-adapted grid:
//! load imbalance, remote ghost traffic, and the modeled step time each
//! policy yields, across processor counts.

use std::collections::HashMap;

use ablock_core::balance::refine_ball_to_level;
use ablock_core::ghost::{GhostConfig, GhostExchange};
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::sfc::Curve;
use ablock_io::Table;
use ablock_par::{comm_stats, imbalance, model_step, CostParams, Partitioner};

fn main() {
    // an AMR'd 3-D grid: refined shell inside a coarse background
    let mut g = BlockGrid::<3>::new(
        RootLayout::unit([4, 4, 4], Boundary::Periodic),
        GridParams::new([4, 4, 4], 2, 1, 2),
    );
    refine_ball_to_level(&mut g, [0.5, 0.5, 0.5], 0.22, 2, Transfer::None);
    let plan = GhostExchange::build(&g, GhostConfig::default());
    println!(
        "workload: {} blocks on levels {:?}\n",
        g.num_blocks(),
        g.level_histogram()
    );
    let params = CostParams::t3d_like(2e-6, 16.0, 4.0, 8.0);

    for nranks in [8usize, 32, 128] {
        let mut t = Table::new(
            &format!("ABL-3: partition policies at P = {nranks}"),
            &["policy", "imbalance", "remote frac", "remote msgs", "T_step(ms)", "efficiency"],
        );
        for (label, part) in [
            ("SfcHilbert", Partitioner::sfc(Curve::Hilbert)),
            ("SfcMorton", Partitioner::sfc(Curve::Morton)),
            ("Greedy", Partitioner::greedy()),
            ("RoundRobin", Partitioner::round_robin()),
        ] {
            let owner: HashMap<_, _> = part.partition_grid(&g, nranks);
            let ids = g.block_ids();
            let weights = vec![1.0f64; ids.len()];
            let assign: Vec<usize> = ids.iter().map(|id| owner[id]).collect();
            let im = imbalance(&weights, &assign, nranks);
            let cs = comm_stats(&g, &plan, &owner);
            let cost = model_step(&g, &plan, &owner, nranks, &params);
            t.row(&[
                label.to_string(),
                format!("{im:.3}"),
                format!("{:.3}", cs.remote_fraction()),
                cs.remote_msgs.to_string(),
                format!("{:.2}", cost.time * 1e3),
                format!("{:.3}", cost.efficiency()),
            ]);
        }
        t.print();
    }
    println!(
        "expected ranking: SFC policies keep neighbors on-rank (low remote\n\
         fraction) at equal imbalance; round-robin is the locality disaster\n\
         the paper's re-balancing avoids."
    );
}
