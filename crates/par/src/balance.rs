//! Load-balance quality metrics.
//!
//! The paper: "Whenever refinement or coarsening occurs, load re-balancing
//! should be performed to insure high performance", and warns that few
//! blocks per processor make imbalance expensive.
//!
//! The partitioning machinery itself lives in [`ablock_core::partition`]:
//! a [`Partitioner`](ablock_core::partition::Partitioner) pairs a curve
//! with a [`PartitionStrategy`](ablock_core::partition::PartitionStrategy)
//! (SFC cut points, round-robin, greedy) and produces either a
//! from-scratch owner map or an incremental
//! [`RebalancePlan`](ablock_core::partition::RebalancePlan). This module
//! holds the [`imbalance`] and [`comm_stats`] quality metrics the
//! experiments compare the strategies by (ABL-3):
//!
//! * **SFC (Morton or Hilbert)** — sort blocks along a space-filling curve
//!   and cut the walk into `P` contiguous chunks of equal weight. Good
//!   balance *and* good locality (neighbors tend to share a rank).
//! * **Round-robin** — blocks dealt out cyclically; perfect count balance,
//!   terrible locality.
//! * **Greedy** — heaviest-first onto the least-loaded rank; best balance
//!   for heterogeneous weights, locality-blind.

use std::collections::HashMap;

use ablock_core::arena::BlockId;
use ablock_core::ghost::{GhostExchange, GhostTask};
use ablock_core::grid::BlockGrid;

/// Load-balance quality: `max_rank(load) / mean(load)` (1.0 is perfect).
pub fn imbalance(weights: &[f64], assignment: &[usize], nranks: usize) -> f64 {
    let mut load = vec![0.0f64; nranks];
    for (w, &r) in weights.iter().zip(assignment) {
        load[r] += w;
    }
    let total: f64 = load.iter().sum();
    let mean = total / nranks as f64;
    let max = load.iter().cloned().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Communication statistics of an assignment under a ghost-exchange plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Ghost-region values crossing rank boundaries per exchange.
    pub remote_values: usize,
    /// Values moved between blocks on the same rank (free on the T3D's
    /// shared DRAM; memcpy locally).
    pub local_values: usize,
    /// Remote messages (one per remote task).
    pub remote_msgs: usize,
}

impl CommStats {
    /// Fraction of exchanged values that cross rank boundaries.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.remote_values + self.local_values;
        if total == 0 {
            0.0
        } else {
            self.remote_values as f64 / total as f64
        }
    }
}

/// Count exchange traffic for an assignment (`owner[block index] = rank`).
pub fn comm_stats<const D: usize>(
    grid: &BlockGrid<D>,
    plan: &GhostExchange<D>,
    owner: &HashMap<BlockId, usize>,
) -> CommStats {
    let nvar = grid.params().nvar;
    let mut st = CommStats::default();
    for task in plan.phase1().iter().chain(plan.phase2()) {
        let (dst, src, vol) = match task {
            GhostTask::Same { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Restrict { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Prolong { dst, src, region, .. } => (*dst, *src, region.volume()),
            GhostTask::Physical { .. } | GhostTask::ClampCopy { .. } => continue,
        };
        let vals = vol as usize * nvar;
        if owner[&dst] == owner[&src] {
            st.local_values += vals;
        } else {
            st.remote_values += vals;
            st.remote_msgs += 1;
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::ghost::GhostConfig;
    use ablock_core::grid::{GridParams, Transfer};
    use ablock_core::key::BlockKey;
    use ablock_core::layout::{Boundary, RootLayout};
    use ablock_core::partition::Partitioner;
    use ablock_core::sfc::{curve_index, required_bits, Curve};

    fn keys_grid(n: i64) -> Vec<BlockKey<2>> {
        (0..n).flat_map(|x| (0..n).map(move |y| BlockKey::new(0, [x, y]))).collect()
    }

    fn all() -> [Partitioner; 4] {
        [
            Partitioner::sfc(Curve::Morton),
            Partitioner::sfc(Curve::Hilbert),
            Partitioner::round_robin(),
            Partitioner::greedy(),
        ]
    }

    #[test]
    fn all_policies_cover_all_ranks() {
        let keys = keys_grid(8); // 64 blocks
        let w = vec![1.0; keys.len()];
        for part in all() {
            let a = part.assign_keys(&keys, &w, 8);
            let mut seen = vec![0usize; 8];
            for &r in &a {
                assert!(r < 8);
                seen[r] += 1;
            }
            assert!(seen.iter().all(|&c| c == 8), "{part:?}: {seen:?}");
        }
    }

    #[test]
    fn uniform_weights_perfectly_balanced() {
        let keys = keys_grid(8);
        let w = vec![1.0; keys.len()];
        for part in all() {
            let a = part.assign_keys(&keys, &w, 16);
            let im = imbalance(&w, &a, 16);
            assert!((im - 1.0).abs() < 1e-12, "{part:?}: {im}");
        }
    }

    #[test]
    fn greedy_balances_heterogeneous_weights() {
        let keys = keys_grid(4);
        let mut w = vec![1.0; 16];
        w[0] = 8.0; // one heavy block
        let greedy = Partitioner::greedy().assign_keys(&keys, &w, 4);
        let rr = Partitioner::round_robin().assign_keys(&keys, &w, 4);
        let ig = imbalance(&w, &greedy, 4);
        let ir = imbalance(&w, &rr, 4);
        assert!(ig <= ir, "greedy {ig} vs round-robin {ir}");
        // total weight is 23 (one 1.0 became 8.0); perfect balance is
        // impossible (8 > 23/4), but greedy isolates the heavy block:
        // loads (8, 5, 5, 5) -> imbalance 8 / 5.75
        assert!((ig - 8.0 / 5.75).abs() < 1e-12, "greedy imbalance {ig}");
    }

    #[test]
    fn sfc_cuts_are_contiguous_along_curve() {
        let keys = keys_grid(8);
        let w = vec![1.0; keys.len()];
        let a = Partitioner::sfc(Curve::Hilbert).assign_keys(&keys, &w, 4);
        // walking in curve order, the rank sequence must be nondecreasing
        let bits = required_bits(8, 0);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| curve_index(&keys[i], 0, bits, Curve::Hilbert));
        let ranks: Vec<usize> = order.iter().map(|&i| a[i]).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
    }

    #[test]
    fn sfc_locality_beats_round_robin() {
        // On a refined grid, SFC partitions must move far fewer ghost
        // values across rank boundaries than round-robin.
        let mut g = BlockGrid::<2>::new(
            RootLayout::unit([4, 4], Boundary::Periodic),
            GridParams::new([4, 4], 2, 1, 3),
        );
        ablock_core::balance::refine_ball_to_level(
            &mut g,
            [0.5, 0.5],
            0.2,
            2,
            Transfer::None,
        );
        let plan = GhostExchange::build(&g, GhostConfig::default());
        let sfc = Partitioner::sfc(Curve::Hilbert).partition_grid(&g, 8);
        let rr = Partitioner::round_robin().partition_grid(&g, 8);
        let cs = comm_stats(&g, &plan, &sfc);
        let cr = comm_stats(&g, &plan, &rr);
        assert!(
            cs.remote_values < cr.remote_values,
            "sfc {} vs round-robin {}",
            cs.remote_values,
            cr.remote_values
        );
        assert!(cs.remote_fraction() < 1.0);
        // round-robin with 8 ranks: essentially every face is remote
        assert!(cr.remote_fraction() > 0.9, "rr fraction {}", cr.remote_fraction());
    }

    #[test]
    fn single_rank_all_local() {
        let g = BlockGrid::<2>::new(
            RootLayout::unit([2, 2], Boundary::Periodic),
            GridParams::new([4, 4], 2, 1, 1),
        );
        let plan = GhostExchange::build(&g, GhostConfig::default());
        let owner = Partitioner::sfc(Curve::Morton).partition_grid(&g, 1);
        let st = comm_stats(&g, &plan, &owner);
        assert_eq!(st.remote_values, 0);
        assert_eq!(st.remote_msgs, 0);
        assert!(st.local_values > 0);
    }

    #[test]
    fn more_ranks_than_blocks() {
        let keys = keys_grid(2); // 4 blocks
        let w = vec![1.0; 4];
        let a = Partitioner::sfc(Curve::Morton).assign_keys(&keys, &w, 16);
        // all blocks assigned to valid (distinct-ish) ranks
        for &r in &a {
            assert!(r < 16);
        }
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 4, "four blocks on four different ranks");
    }

    #[test]
    fn partitioner_names_match_strategies() {
        assert_eq!(Partitioner::sfc(Curve::Morton).name(), "sfc");
        assert_eq!(Partitioner::sfc(Curve::Hilbert).curve(), Curve::Hilbert);
        assert_eq!(Partitioner::round_robin().name(), "round_robin");
        assert_eq!(Partitioner::greedy().name(), "greedy");
        assert!(Partitioner::sfc(Curve::Morton).contiguous());
        assert!(!Partitioner::greedy().contiguous());
    }
}
