//! The correctness gate every run passes through, and the digests recorded
//! with the benchmark.

use ablock_core::grid::BlockGrid;
use ablock_core::verify::check_grid;
use ablock_io::snapshot::{write_snapshot, NodeStore};
use ablock_solver::{total_conserved, IdealMhd};

use crate::episode::Options;
use crate::workload::{Backend, Spec, GAMMA};
use ablock_solver::TimeStepMode;

/// The seed whose final-grid digest is recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// `write_snapshot(..).root` of each workload's final grid at
/// [`DEFAULT_SEED`] and the workload's full cycle count, written at
/// step = that cycle count.
const DIGESTS: [(&str, &str); 3] = [
    ("mhd3d_m16_pool_global", "44e292e1999d17b2be79a286b746c143"),
    (
        "mhd3d_m4_pool_subcycled",
        "182453b4fb8ac6f434d0275c14d1d771",
    ),
    (
        "mhd3d_m8_dist2_subcycled_snap",
        "074e31ad5fc3d08bc87b943b16061a31",
    ),
];

/// Relative drift of total mass allowed over a run. The box is periodic,
/// refluxing keeps coarse/fine faces conservative and adapt transfers
/// conservatively, so only roundoff remains. Energy and momentum are not
/// checked: the Powell source does not conserve them.
///
/// The global pool workload is the exception: `ParStepper`'s global step
/// evaluates fluxes with `compute_rhs_block`, which records no face
/// fluxes, so its refluxing never runs and mass drifts at coarse/fine
/// faces (6e-8 relative over the workload's 40 cycles). Its bound stays
/// loose until that path refluxes.
fn mass_rtol(spec: &Spec) -> f64 {
    match (spec.backend, spec.mode) {
        (Backend::Pool, TimeStepMode::Global) => 1e-6,
        _ => 1e-12,
    }
}

/// Outcome of the gate for one run.
#[derive(Clone, Debug)]
pub struct Checks {
    /// |M_end − M_0| / M_0.
    pub mass_drift: f64,
    /// The drift allowed for this workload.
    pub mass_rtol: f64,
    /// `check_grid` on the final grid.
    pub grid: Result<(), String>,
    /// Interior cells that are non-finite or have ρ ≤ 0 or p ≤ 0.
    pub bad_cells: usize,
    /// The loop's cell-update count equals the count recomputed from the
    /// per-segment level histograms.
    pub updates_match: bool,
    /// Digest of the final grid.
    pub digest: String,
    /// Recorded digest, when this is the default seed and one is recorded.
    pub expected: Option<&'static str>,
    /// Anything that stopped the run before the gate (e.g. a
    /// `RecoverError`, or restarts on dist).
    pub error: Option<String>,
}

impl Checks {
    /// Run the gate on a final grid.
    pub fn run(
        spec: &Spec,
        opt: &Options,
        mass0: f64,
        grid: &BlockGrid<3>,
        updates_match: bool,
    ) -> Self {
        let digest = digest(grid, opt.cycles as u64);
        let expected = if opt.seed == DEFAULT_SEED && opt.cycles == spec.cycles {
            DIGESTS
                .iter()
                .find(|(w, _)| *w == spec.name)
                .map(|(_, d)| *d)
        } else {
            None
        };
        Checks {
            mass_drift: ((total_conserved(grid, 0) - mass0) / mass0).abs(),
            mass_rtol: mass_rtol(spec),
            grid: check_grid(grid),
            bad_cells: bad_cells(grid),
            updates_match,
            digest,
            expected,
            error: None,
        }
    }

    /// A run that could not finish.
    pub fn failed(error: String) -> Self {
        Checks {
            mass_drift: 0.0,
            mass_rtol: 0.0,
            grid: Err("not reached".into()),
            bad_cells: 0,
            updates_match: false,
            digest: String::new(),
            expected: None,
            error: Some(error),
        }
    }

    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.error.is_none()
            && self.mass_drift <= self.mass_rtol
            && self.grid.is_ok()
            && self.bad_cells == 0
            && self.updates_match
            && self.expected.is_none_or(|d| d == self.digest)
    }
}

/// Root of the final grid's snapshot: a content hash of topology and
/// every interior value.
pub fn digest(grid: &BlockGrid<3>, step: u64) -> String {
    let stats = write_snapshot(&mut NodeStore::new(), grid, step)
        .expect("snapshot into memory cannot fail");
    format!("{:?}", stats.root)
}

fn bad_cells(grid: &BlockGrid<3>) -> usize {
    let phys = IdealMhd::new(GAMMA);
    let mut bad = 0;
    for (_, node) in grid.blocks() {
        let f = node.field();
        for c in f.shape().interior_box().iter() {
            let u = f.cell(c);
            if u.iter().any(|v| !v.is_finite()) || u[0] <= 0.0 || phys.pressure(&u) <= 0.0 {
                bad += 1;
            }
        }
    }
    bad
}
