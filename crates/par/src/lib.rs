//! # ablock-par — parallel substrates for adaptive blocks
//!
//! Everything the SC'97 paper's 512-PE Cray T3D runs needed, rebuilt:
//!
//! * [`machine`] — a from-scratch message-passing machine (ranks =
//!   threads, tagged channels, barrier, allreduce/allgatherv/broadcast);
//! * [`dist`] — distributed AMR stepping: replicated block topology,
//!   owner-held field data, halo exchange over the machine, replicated
//!   adapt with data migration;
//! * [`balance`] — imbalance and communication metrics for assignments
//!   made by the pluggable [`Partitioner`] API (SFC cut points,
//!   round-robin, greedy);
//! * [`shared`] — a shared-memory executor on scoped threads
//!   (gather/scatter ghost fill, parallel block kernels via [`pool`]);
//! * [`costmodel`] — a BSP step-cost model with T3D-like parameters that
//!   regenerates the paper's Figs. 6–7 scaling shapes at any rank count;
//! * [`fault`] — deterministic, seeded fault injection for the machine
//!   (drop/delay/duplicate/corrupt messages, crash a rank at a chosen op);
//! * [`recover`] — incremental-checkpoint recovery driver: content-
//!   addressed snapshots with buddy replication, rank-failure detection,
//!   restart on the survivors with delta-proportional peer fetch.

#![warn(missing_docs)]

pub mod balance;
pub mod costmodel;
pub mod dist;
pub mod fault;
pub mod machine;
pub mod pool;
pub mod recover;
pub mod shared;

pub use ablock_core::partition::{
    cell_weights, inherit_owner, BlockMove, CurveWalk, PartitionStrategy, Partitioner,
    RebalancePlan,
};
pub use balance::{comm_stats, imbalance, CommStats};
pub use costmodel::{
    model_step, model_step_cached, record_adapt_phases, record_rebalance_phases,
    record_step_phases, CostParams, RankCost, StepCost,
};
pub use dist::{DistSim, WeightFn};
pub use fault::{FaultPlan, FaultStats};
pub use machine::{Comm, CommError, Machine, MachineConfig, MachineError, Msg, RankFailure};
pub use recover::{
    run_resilient, run_resilient_with, RecoverConfig, RecoverError, RecoverOutcome,
    RecoveryReport, SnapshotTotals,
};
pub use shared::{par_fill_ghosts_with, ParStepper};
