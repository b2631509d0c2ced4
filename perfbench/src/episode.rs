//! What one run of a workload produces, and its one-line JSON record.

use std::fmt::Write as _;
use std::path::PathBuf;

use ablock_obs::Metrics;

use crate::check::Checks;
use crate::trace::Tracer;
use crate::workload::Spec;

/// How to run one workload.
#[derive(Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Coarse cycles, warm-up included (`4q + 1`).
    pub cycles: usize,
    /// Wrap the layer calls in spans and replay layers on maintenance
    /// cycles.
    pub trace: bool,
    /// Sink handed to the solver config (null except in the self-test,
    /// which compares the crates' own counters with the benchmark's).
    pub metrics: Metrics,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Counts that must repeat exactly for a seed: the self-test compares
/// them across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cell updates in the warm-up cycle.
    pub warmup_updates: u64,
    /// Cell updates in the timed loop.
    pub cell_updates: u64,
    /// Leaves per level at the first cycle.
    pub levels_start: Vec<usize>,
    /// Leaves per level after each maintenance adapt.
    pub levels_after_adapt: Vec<Vec<usize>>,
    /// Per adapt: `AdaptReport` {refined_requested, refined_cascade,
    /// coarsened_groups, coarsen_vetoed, cascade_rounds} on the shared-
    /// memory backends; {refined, coarsened} from the key diff on dist.
    pub adapts: Vec<Vec<usize>>,
    /// Blocks that changed owner per `adapt_rebalance` (dist).
    pub migrated: Vec<usize>,
    /// `Comm::sent_msgs` and `sent_values` per rank over the timed loop.
    pub comm: Vec<(u64, u64)>,
    /// `SnapshotTotals` {snapshots, bytes_new, bytes_shared} (dist).
    pub snapshots: Vec<u64>,
    /// `EngineStats::rebuilds` per rank (one entry on shared memory).
    pub engine_rebuilds: Vec<u64>,
}

/// A finished run.
pub struct Episode {
    /// Workload start to the first timed cycle.
    pub setup_s: f64,
    /// Wall time of the timed loop.
    pub loop_s: f64,
    /// Wall time of each timed cycle, ms.
    pub cycle_ms: Vec<f64>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Correctness gate.
    pub checks: Checks,
    /// Traced runs: per-layer metrics `(name, value, basis)`, where the
    /// basis names the count the value is normalised by.
    pub layers: Vec<(&'static str, f64, String)>,
    /// Traced runs: one span buffer per thread.
    pub tracks: Vec<(String, Tracer)>,
    /// Traced runs: extra report lines (per-rank breakdowns).
    pub notes: Vec<String>,
}

impl Episode {
    /// An episode that failed before producing a grid.
    pub fn failed(setup_s: f64, error: String) -> Self {
        Episode {
            setup_s,
            loop_s: 0.0,
            cycle_ms: Vec::new(),
            counts: Counts::default(),
            checks: Checks::failed(error),
            layers: Vec::new(),
            tracks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The one-line JSON record `run.py` aggregates.
    pub fn to_json(&self, spec: &Spec, seed: u64, cycles: usize, peak_rss_kb: u64) -> String {
        let c = &self.checks;
        let mut s = String::new();
        write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{seed},\"cycles\":{cycles},\
             \"block_cells\":{},\"block_bytes\":{},\
             \"correct\":{},\"setup_s\":{},\"loop_s\":{},\"cell_updates\":{},\
             \"warmup_updates\":{},\"peak_rss_kb\":{peak_rss_kb},\"cycle_ms\":[{}],",
            spec.name,
            spec.block_cells(),
            spec.block_bytes(),
            c.passed(),
            self.setup_s,
            self.loop_s,
            self.counts.cell_updates,
            self.counts.warmup_updates,
            join(self.cycle_ms.iter()),
        )
        .expect("write to String");
        write!(
            s,
            "\"checks\":{{\"mass_drift\":{:e},\"mass_rtol\":{:e},\"check_grid\":{},\"bad_cells\":{},\
             \"updates_match\":{},\"digest\":\"{}\",\"digest_expected\":{},\"error\":{}}},",
            c.mass_drift,
            c.mass_rtol,
            json_str(&match &c.grid {
                Ok(()) => "ok".to_string(),
                Err(e) => e.clone(),
            }),
            c.bad_cells,
            c.updates_match,
            c.digest,
            c.expected.map_or("null".into(), json_str),
            c.error.as_deref().map_or("null".into(), json_str),
        )
        .expect("write to String");
        let k = &self.counts;
        write!(
            s,
            "\"levels_start\":[{}],\"levels_end\":[{}],\"adapts\":[{}],\"migrated\":[{}],\
             \"comm\":[{}],\"snapshots\":[{}],\"engine_rebuilds\":[{}],",
            join(k.levels_start.iter()),
            join(
                k.levels_after_adapt
                    .last()
                    .unwrap_or(&k.levels_start)
                    .iter()
            ),
            k.adapts
                .iter()
                .map(|a| format!("[{}]", join(a.iter())))
                .collect::<Vec<_>>()
                .join(","),
            join(k.migrated.iter()),
            k.comm
                .iter()
                .map(|(m, v)| format!("[{m},{v}]"))
                .collect::<Vec<_>>()
                .join(","),
            join(k.snapshots.iter()),
            join(k.engine_rebuilds.iter()),
        )
        .expect("write to String");
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(n, v, b)| format!("\"{n}\":{{\"value\":{v},\"basis\":{}}}", json_str(b)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        write!(
            s,
            "\"layers\":{{{}}},\"notes\":[{}]}}",
            layers.join(","),
            notes.join(",")
        )
        .expect("write to String");
        s
    }
}

fn join<T: std::fmt::Display>(xs: impl Iterator<Item = T>) -> String {
    xs.map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
