//! Stateful grid fuzzing: command vocabulary, generator, executor, and
//! the shrinking fuzz driver.
//!
//! A fuzz case is a `(seed, script)` pair. The **seed** deterministically
//! derives the world (root lattice, boundary conditions, optional root
//! mask, level cap) and, in generation mode, the script itself; the
//! **script** is a sequence of [`FuzzCmd`]s executed against a
//! [`BlockGrid`] and the flat [`RefModel`] side by side. After *every*
//! command the harness runs the full oracle stack:
//!
//! 1. `ablock_core::verify::check_grid` (tiling, pointers, symmetry,
//!    jump constraint, neighbor bounds — from scratch),
//! 2. [`RefModel::agree_with`] (leaf set + independently recomputed
//!    connectivity),
//! 3. epoch bookkeeping (monotone; bumped iff the topology changed),
//! 4. conservation of the volume-weighted totals across structural
//!    commands (transfers are conservative).
//!
//! On failure, [`run_fuzz`] minimizes the script with
//! [`crate::shrink::shrink`] and formats a replay one-liner
//! (`abl_fuzz --replay <D> <seed> '<script>'`) that reproduces the
//! failure byte for byte — scripts are plain text via [`format_script`] /
//! [`parse_script`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ablock_core::arena::BlockId;
use ablock_core::balance::{apply_adapt, plan_adapt, Flag};
use ablock_core::geom::Geometry;
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::{BlockGrid, GridParams, Transfer};
use ablock_core::index::IVec;
use ablock_core::key::BlockKey;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_core::ops::ProlongOrder;
use ablock_core::partition::{cell_weights, inherit_owner, CurveWalk, Partitioner};
use ablock_core::verify::check_grid;
use ablock_io::{
    load_grid, materialize, read_archive, save_grid, write_archive, write_snapshot, NodeHash,
    NodeStore,
};
use ablock_par::ParStepper;
use ablock_solver::{total_conserved, Euler, Scheme, SolverConfig, Stepper, TimeStepMode};

use crate::model::RefModel;
use crate::shrink::shrink;
use crate::{payload_str, subseed, Rng};

/// Transfer used by every structural command (so conservation is checkable).
const TRANSFER: Transfer = Transfer::Conservative(ProlongOrder::LinearMinmod);
/// Fixed, unconditionally stable step size for the `Step` command.
const STEP_DT: f64 = 2e-4;
/// Stream separator: world/script derivation must not consume the same
/// stream as the per-command payloads.
const SETUP_STREAM: u64 = 0x5E70_F5EE_D001_0001;

// ---------------------------------------------------------------------------
// command vocabulary
// ---------------------------------------------------------------------------

/// One fuzzer command. Deliberately dimension-independent (no keys or
/// coordinates inside) so a script shrinks, prints, and parses cleanly;
/// payloads are resolved against the current grid state at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzCmd {
    /// Refine the `r % num_leaves`-th leaf in sorted-key order (legality
    /// is cross-checked: model and grid must accept or reject for the
    /// same reason).
    Refine(u64),
    /// Coarsen the sibling group of the `r % num_leaves`-th leaf (no-op
    /// at level 0); legality cross-checked like [`FuzzCmd::Refine`].
    Coarsen(u64),
    /// Flag-driven rebalance: every leaf gets a key-derived flag (see
    /// [`flag_for_key`]) and `balance::adapt` applies the set with
    /// cascade; the model resyncs its leaf set and re-verifies
    /// connectivity from scratch.
    Adapt {
        /// Flag-derivation seed.
        seed: u64,
        /// Refine probability in percent (coarsen runs at `2 * density`).
        density: u8,
    },
    /// Rebuild the world with (`masked = true`) or without a seeded root
    /// mask — the paper's non-Cartesian initial configuration — resetting
    /// fields, caches, and epoch tracking.
    Remask {
        /// Mask-derivation seed.
        seed: u64,
        /// Whether to install a mask or clear it.
        masked: bool,
    },
    /// Install the random immersed geometry derived from the seed via
    /// [`random_geometry`] (`seed = 0` clears the geometry instead,
    /// tearing the mask plane back down). Binarization touches only the
    /// mask plane, so every conserved total must survive bit for bit;
    /// afterwards solid cells are frozen and step commands assert they
    /// stay bitwise inert.
    Geometry(u64),
    /// Checkpoint save → load → bitwise comparison, then continue on the
    /// *loaded* grid (so later commands exercise the reconstructed state).
    Checkpoint,
    /// Epoch-cached ghost exchange: rebuild the plan only when stale,
    /// assert the staleness signal matches the epoch, fill, and check
    /// every ghosted cell is finite.
    Ghost,
    /// One RK2 Euler step at a fixed small `dt` through a cached
    /// [`Stepper`] (exercising its plan cache across adapts).
    Step,
    /// One *subcycled* coarsest-level cycle at the same fixed `dt₀`
    /// through a cached refluxing [`TimeStepMode::Subcycled`] stepper,
    /// differentially checked against a **flat reference**: a global-dt
    /// twin (checkpoint clone) advanced the same interval with uniform
    /// finest-level steps `dt₀/2^(ℓmax−ℓmin)`. On a single-level grid the
    /// comparison is **bitwise** (subcycling must reduce to the global
    /// step exactly); on refined grids it is a tight accuracy band, plus
    /// exact conservation of the refluxed totals when every boundary is
    /// periodic. Mixed `T`/`S` schedules exercise both steppers' caches
    /// against the same evolving grid.
    StepSub,
    /// One RK2 Euler step through a cached shared-memory [`ParStepper`]
    /// (`O`; `N`, which once selected a non-overlapped variant, parses to
    /// the same command), differentially checked **bitwise** against a
    /// fresh serial stepper run on a checkpoint-cloned twin grid;
    /// execution continues on the parallel result, so later commands
    /// build on the overlapped path's output.
    StepPar,
    /// Incremental rebalance oracle: plan a partition of the current
    /// grid onto `1 + r % 6` virtual ranks through the harness's
    /// splice-maintained [`CurveWalk`] and persistent by-key owner map,
    /// then assert the incremental path is exact — the spliced walk
    /// equals a from-scratch curve sort, the plan's assignment equals
    /// `Partitioner::partition_grid` recomputed from nothing, and the
    /// migration list is precisely the owner diff (no more, no less).
    Rebalance(u64),
    /// Content-addressed snapshot into the harness's persistent
    /// [`NodeStore`]: write, re-write (must be fully deduplicated and
    /// produce the identical root), materialize back bitwise, archive
    /// roundtrip, then continue on the *materialized* grid. Prior roots
    /// stay resolvable in the append-only store.
    Snapshot,
    /// Test-only invariant break (`BlockGrid::testonly_corrupt_face`);
    /// the oracle stack must catch it on the same command. Never
    /// generated unless [`FuzzConfig::sabotage`] is set.
    Sabotage,
}

/// Format a script as the compact text form accepted by [`parse_script`]:
/// `R<r>` `C<r>` `A<seed>:<density>` `M<seed>:<0|1>` `B<r>` `G<seed>`
/// `K` `G` `S` `T` `O` `P` `X`, space-separated, seeds in hex (bare
/// `G` is the ghost-fill command; `G` with a payload installs a random
/// immersed geometry).
pub fn format_script(cmds: &[FuzzCmd]) -> String {
    let words: Vec<String> = cmds
        .iter()
        .map(|c| match c {
            FuzzCmd::Refine(r) => format!("R{r}"),
            FuzzCmd::Coarsen(r) => format!("C{r}"),
            FuzzCmd::Adapt { seed, density } => format!("A{seed:x}:{density}"),
            FuzzCmd::Remask { seed, masked } => {
                format!("M{seed:x}:{}", u8::from(*masked))
            }
            FuzzCmd::Rebalance(r) => format!("B{r}"),
            FuzzCmd::Geometry(seed) => format!("G{seed:x}"),
            FuzzCmd::Checkpoint => "K".to_string(),
            FuzzCmd::Ghost => "G".to_string(),
            FuzzCmd::Step => "S".to_string(),
            FuzzCmd::StepSub => "T".to_string(),
            FuzzCmd::StepPar => "O".to_string(),
            FuzzCmd::Snapshot => "P".to_string(),
            FuzzCmd::Sabotage => "X".to_string(),
        })
        .collect();
    words.join(" ")
}

/// Parse the text form produced by [`format_script`] (plus `N`, an alias
/// of `O` kept so recorded scripts and replay lines still parse).
pub fn parse_script(s: &str) -> Result<Vec<FuzzCmd>, String> {
    let mut out = Vec::new();
    for w in s.split_whitespace() {
        let (head, rest) = w.split_at(1);
        let cmd = match head {
            "R" => FuzzCmd::Refine(
                rest.parse().map_err(|e| format!("bad refine index {rest:?}: {e}"))?,
            ),
            "C" => FuzzCmd::Coarsen(
                rest.parse().map_err(|e| format!("bad coarsen index {rest:?}: {e}"))?,
            ),
            "B" => FuzzCmd::Rebalance(
                rest.parse().map_err(|e| format!("bad rebalance roll {rest:?}: {e}"))?,
            ),
            "A" | "M" => {
                let (a, b) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("missing ':' in {w:?}"))?;
                let seed = u64::from_str_radix(a, 16)
                    .map_err(|e| format!("bad seed {a:?}: {e}"))?;
                if head == "A" {
                    FuzzCmd::Adapt {
                        seed,
                        density: b.parse().map_err(|e| format!("bad density {b:?}: {e}"))?,
                    }
                } else {
                    FuzzCmd::Remask {
                        seed,
                        masked: match b {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("bad mask flag {b:?}")),
                        },
                    }
                }
            }
            "K" if rest.is_empty() => FuzzCmd::Checkpoint,
            "G" if rest.is_empty() => FuzzCmd::Ghost,
            "G" => FuzzCmd::Geometry(
                u64::from_str_radix(rest, 16)
                    .map_err(|e| format!("bad geometry seed {rest:?}: {e}"))?,
            ),
            "S" if rest.is_empty() => FuzzCmd::Step,
            "T" if rest.is_empty() => FuzzCmd::StepSub,
            "O" | "N" if rest.is_empty() => FuzzCmd::StepPar,
            "P" if rest.is_empty() => FuzzCmd::Snapshot,
            "X" if rest.is_empty() => FuzzCmd::Sabotage,
            _ => return Err(format!("unknown command {w:?}")),
        };
        out.push(cmd);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// key-derived adapt flags (shared with the differential suite)
// ---------------------------------------------------------------------------

fn key_hash<const D: usize>(seed: u64, key: &BlockKey<D>) -> u64 {
    let mut h = subseed(seed, key.level as u64);
    for d in 0..D {
        h = subseed(h, key.coords[d] as u64);
    }
    h
}

/// Deterministic per-key adapt flag: `Refine` with probability
/// `density`% (below the level cap), else `Coarsen` with probability
/// `2·density`% derived from the *parent* key so complete sibling groups
/// always agree (a coarsen flag on a partial group is a guaranteed veto).
/// Because the flag depends only on the key — never on ids, rank, or
/// iteration order — every backend derives the identical flag set, which
/// is what makes cross-backend differential schedules well-defined.
pub fn flag_for_key<const D: usize>(
    seed: u64,
    key: BlockKey<D>,
    max_level: u8,
    density: u8,
) -> Flag {
    if key.level < max_level && key_hash(seed, &key) % 100 < density as u64 {
        return Flag::Refine;
    }
    if let Some(parent) = key.parent() {
        if key_hash(seed ^ 0xC0A2_5EED, &parent) % 100 < 2 * density as u64 {
            return Flag::Coarsen;
        }
    }
    Flag::Keep
}

// ---------------------------------------------------------------------------
// differential schedules (consumed by the cross-backend suite in par/solver)
// ---------------------------------------------------------------------------

/// One round of a differential schedule: adapt with key-derived flags,
/// then advance a few steps.
#[derive(Clone, Copy, Debug)]
pub struct AdaptRound {
    /// Seed for [`flag_for_key`].
    pub flag_seed: u64,
    /// Refine density in percent.
    pub density: u8,
    /// RK2 steps after the adapt.
    pub steps: u32,
}

/// A full adapt+step schedule, optionally cut by a checkpoint
/// save→load after one of the rounds.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The rounds, executed in order.
    pub rounds: Vec<AdaptRound>,
    /// Round index after which to roundtrip through a checkpoint.
    pub checkpoint_after_round: Option<usize>,
}

/// Generate a random differential schedule: 2–4 rounds of adapt + 1–3
/// steps, with a checkpoint cut point in half the schedules.
pub fn gen_schedule(rng: &mut Rng) -> Schedule {
    let nrounds = rng.usize_in(2, 5);
    let rounds: Vec<AdaptRound> = (0..nrounds)
        .map(|_| AdaptRound {
            flag_seed: rng.next_u64(),
            density: rng.usize_in(10, 35) as u8,
            steps: rng.usize_in(1, 4) as u32,
        })
        .collect();
    let checkpoint_after_round =
        if rng.coin() { Some(rng.usize_below(nrounds)) } else { None };
    Schedule { rounds, checkpoint_after_round }
}

// ---------------------------------------------------------------------------
// world derivation
// ---------------------------------------------------------------------------

/// The seed-derived world a script runs in (stable under shrinking: it
/// depends only on the case seed, never on the script).
#[derive(Clone, Copy, Debug)]
pub struct Setup<const D: usize> {
    /// Root lattice extent per axis.
    pub roots: IVec<D>,
    /// Boundary condition per axis (both faces).
    pub bcs: [Boundary; D],
    /// Level cap (smaller in 3-D to bound case cost).
    pub max_level: u8,
    /// Current root-mask seed (`None` = full lattice); mutated by
    /// [`FuzzCmd::Remask`].
    pub mask_seed: Option<u64>,
}

fn mask_active<const D: usize>(seed: u64, c: IVec<D>) -> bool {
    // Root [0; D] is always active so the lattice never empties.
    let mut h = seed;
    for d in 0..D {
        h = subseed(h, c[d] as u64);
    }
    c == [0; D] || !h.is_multiple_of(4)
}

/// Derive the world for a case seed.
pub fn derive_setup<const D: usize>(seed: u64) -> Setup<D> {
    let mut rng = Rng::new(seed ^ SETUP_STREAM ^ (D as u64) << 32);
    let mut roots = [1i64; D];
    for r in roots.iter_mut() {
        *r = rng.i64_in(1, 3);
    }
    let choices = [Boundary::Periodic, Boundary::Outflow, Boundary::Reflect];
    let mut bcs = [Boundary::Outflow; D];
    for b in bcs.iter_mut() {
        *b = *rng.choose(&choices);
    }
    let max_level = if D >= 3 { 2 } else { 2 + rng.u64_below(2) as u8 };
    let mask_seed = if rng.bool(0.25) { Some(rng.next_u64()) } else { None };
    Setup { roots, bcs, max_level, mask_seed }
}

/// Derive a random immersed geometry from an rng stream: 1–3 primitives
/// (spheres, cuboids, axis-aligned cylinders) unioned together, sized to
/// sit inside the unit domains the fuzz worlds use, occasionally
/// inverted so the fluid runs in pockets through the solid. Primitive
/// centers collapse to `0` on axes at or above `dim`, so lower-
/// dimensional worlds (which sample the geometry on the `y = z = 0`
/// subspace) still intersect the solid. Shared by the fuzzer's
/// `G<seed>` command and the amr property suites.
pub fn random_geometry(rng: &mut Rng, dim: usize) -> Geometry {
    fn primitive(rng: &mut Rng, dim: usize) -> Geometry {
        let mut c = [0.0; 3];
        for (d, x) in c.iter_mut().enumerate() {
            if d < dim {
                *x = rng.f64_in(0.2, 0.8);
            }
        }
        match rng.u64_below(3) {
            0 => Geometry::sphere(c, rng.f64_in(0.08, 0.22)),
            1 => {
                let mut lo = [0.0; 3];
                let mut hi = [0.0; 3];
                for d in 0..3 {
                    let half = rng.f64_in(0.05, 0.2);
                    lo[d] = c[d] - half;
                    hi[d] = c[d] + half;
                }
                Geometry::cuboid(lo, hi)
            }
            _ => Geometry::cylinder(
                rng.u64_below(3) as usize,
                c,
                rng.f64_in(0.06, 0.18),
            ),
        }
    }
    let n = 1 + rng.u64_below(3);
    let mut g = primitive(rng, dim);
    for _ in 1..n {
        g = g.union(primitive(rng, dim));
    }
    if rng.bool(0.15) {
        g = g.invert();
    }
    g
}

fn build_world<const D: usize>(setup: &Setup<D>) -> BlockGrid<D> {
    let mut layout = RootLayout::unit(setup.roots, Boundary::Outflow);
    for d in 0..D {
        layout = layout.with_axis_boundary(d, setup.bcs[d]);
    }
    if let Some(ms) = setup.mask_seed {
        layout = layout.with_mask(|c| mask_active(ms, c));
    }
    let params = GridParams::new([4; D], 2, D + 2, setup.max_level);
    let mut grid = BlockGrid::new(layout, params);
    let euler = Euler::<D>::new(1.4);
    let mut vel = [0.0; D];
    vel[0] = 0.4;
    ablock_solver::problems::advected_gaussian(
        &mut grid,
        &euler,
        vel,
        [0.5; D],
        0.2,
    );
    grid
}

// ---------------------------------------------------------------------------
// execution harness
// ---------------------------------------------------------------------------

struct Harness<const D: usize> {
    setup: Setup<D>,
    grid: BlockGrid<D>,
    model: RefModel<D>,
    exchange: Option<GhostExchange<D>>,
    stepper: Option<Stepper<D, Euler<D>>>,
    /// Cached refluxing subcycled stepper for [`FuzzCmd::StepSub`].
    sub_stepper: Option<Stepper<D, Euler<D>>>,
    par: Option<ParStepper<D, Euler<D>>>,
    last_epoch: u64,
    /// Splice-maintained curve walk for [`FuzzCmd::Rebalance`]; `None`
    /// until the first rebalance or after a world swap invalidates ids.
    walk: Option<CurveWalk<D>>,
    /// By-key ownership carried between rebalances (the incremental
    /// state the oracle diffs against).
    owner_by_key: HashMap<BlockKey<D>, usize>,
    /// Append-only content-addressed store shared by every
    /// [`FuzzCmd::Snapshot`] in the script (so successive snapshots dedup
    /// against each other).
    store: NodeStore,
    snap_step: u64,
    last_root: Option<NodeHash>,
}

/// Bitwise interior comparison of a reconstructed grid against the
/// original — same leaves, same `f64` bits in every interior cell.
fn assert_bitwise<const D: usize>(
    original: &BlockGrid<D>,
    loaded: &BlockGrid<D>,
    what: &str,
) -> Result<(), String> {
    for (_, node) in original.blocks() {
        let lid = loaded
            .find(node.key())
            .ok_or_else(|| format!("leaf {:?} lost in {what}", node.key()))?;
        let lf = loaded.block(lid).field();
        let of = node.field();
        for c in of.shape().interior_box().iter() {
            for v in 0..of.shape().nvar {
                if of.at(c, v).to_bits() != lf.at(c, v).to_bits() {
                    return Err(format!(
                        "{what} not bitwise at {:?} cell {c:?} var {v}: {:.17e} != {:.17e}",
                        node.key(),
                        of.at(c, v),
                        lf.at(c, v)
                    ));
                }
            }
        }
    }
    if loaded.num_blocks() != original.num_blocks() {
        return Err(format!(
            "{what} changed leaf count: {} -> {}",
            original.num_blocks(),
            loaded.num_blocks()
        ));
    }
    Ok(())
}

fn fresh_stepper<const D: usize>() -> Stepper<D, Euler<D>> {
    Stepper::new(SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov()))
}

impl<const D: usize> Harness<D> {
    fn new(setup: Setup<D>) -> Self {
        let grid = build_world(&setup);
        let model = RefModel::from_grid(&grid);
        let last_epoch = grid.epoch();
        Harness {
            setup,
            grid,
            model,
            exchange: None,
            stepper: None,
            sub_stepper: None,
            par: None,
            last_epoch,
            walk: None,
            owner_by_key: HashMap::new(),
            store: NodeStore::new(),
            snap_step: 0,
            last_root: None,
        }
    }

    fn totals(&self) -> Vec<f64> {
        (0..D + 2).map(|v| total_conserved(&self.grid, v)).collect()
    }

    fn check_conserved(&self, before: &[f64], what: &str) -> Result<(), String> {
        let all: Vec<usize> = (0..D + 2).collect();
        self.check_conserved_vars(before, &all, what)
    }

    fn check_conserved_vars(
        &self,
        before: &[f64],
        vars: &[usize],
        what: &str,
    ) -> Result<(), String> {
        let after = self.totals();
        for &v in vars {
            let (b, a) = (before[v], after[v]);
            // Relative with an absolute floor at the O(1) domain scale:
            // transverse momentum totals are exactly zero, so a pure
            // relative test would flag denormal-level roundoff.
            let tol = 1e-9 * (1.0 + b.abs());
            if (a - b).abs() > tol {
                return Err(format!(
                    "{what} lost conservation of var {v}: {b:.17e} -> {a:.17e}"
                ));
            }
        }
        Ok(())
    }

    /// Which conserved totals a *step* must preserve in this world.
    /// Periodic faces move nothing out of the domain; reflective walls
    /// (`Reflect` axis boundaries, root-mask holes — [`RootLayout`]'s
    /// `hole_boundary` defaults to `Reflect` — and immersed solid faces)
    /// exert force but pass exactly zero mass and energy, so rho and E
    /// survive; any `Outflow` face conserves nothing. Solid cells are
    /// frozen bitwise, so whole-grid totals conserve iff fluid totals do.
    fn step_conserved_vars(&self) -> Vec<usize> {
        if self
            .setup
            .bcs
            .iter()
            .any(|b| !matches!(b, Boundary::Periodic | Boundary::Reflect))
        {
            return Vec::new();
        }
        let walls = self.setup.mask_seed.is_some()
            || self.grid.layout().geometry.is_some()
            || self.setup.bcs.iter().any(|b| matches!(b, Boundary::Reflect));
        if walls {
            vec![0, D + 1]
        } else {
            (0..D + 2).collect()
        }
    }

    /// Raw state bits of every solid interior cell, in block iteration
    /// order (stable across a non-structural command). Empty without an
    /// installed geometry.
    fn solid_bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, node) in self.grid.blocks() {
            let f = node.field();
            if f.mask().is_none() {
                continue;
            }
            for c in f.shape().interior_box().iter() {
                if f.is_solid(c) {
                    for v in 0..f.shape().nvar {
                        out.push(f.at(c, v).to_bits());
                    }
                }
            }
        }
        out
    }

    /// The oracle stack run after every command.
    fn post_check(&mut self, structural: bool) -> Result<(), String> {
        check_grid(&self.grid).map_err(|e| format!("check_grid: {e}"))?;
        self.model
            .agree_with(&self.grid)
            .map_err(|e| format!("model disagreement: {e}"))?;
        let epoch = self.grid.epoch();
        if epoch < self.last_epoch {
            return Err(format!(
                "epoch went backwards: {} -> {epoch}",
                self.last_epoch
            ));
        }
        if !structural && epoch != self.last_epoch {
            return Err(format!(
                "epoch bumped by a non-structural command: {} -> {epoch}",
                self.last_epoch
            ));
        }
        self.last_epoch = epoch;
        Ok(())
    }

    /// Carry the by-key ownership across one structural change, exactly
    /// as the distributed executor does after every adapt (same key keeps
    /// its owner, child inherits parent, coarse parent inherits child 0).
    /// No-op until the first [`FuzzCmd::Rebalance`] seeds the map.
    fn carry_owners(&mut self) {
        if self.owner_by_key.is_empty() {
            return;
        }
        let by_id = inherit_owner(&self.grid, &self.owner_by_key);
        self.owner_by_key =
            self.grid.blocks().map(|(id, n)| (n.key(), by_id[&id])).collect();
    }

    fn nth_leaf(&self, r: u64) -> BlockKey<D> {
        let n = self.model.num_leaves();
        *self
            .model
            .leaves()
            .nth((r % n as u64) as usize)
            .expect("model has at least one leaf")
    }

    fn exec(&mut self, cmd: &FuzzCmd) -> Result<(), String> {
        let mut structural = false;
        match *cmd {
            FuzzCmd::Refine(r) => {
                let key = self.nth_leaf(r);
                let id = self
                    .grid
                    .find(key)
                    .ok_or_else(|| format!("model leaf {key:?} missing from grid"))?;
                match self.model.check_refine(key) {
                    Ok(()) => {
                        let before = self.totals();
                        self.grid
                            .refine(id, TRANSFER)
                            .map_err(|e| format!("grid rejected legal refine {key:?}: {e}"))?;
                        if let Some(w) = self.walk.as_mut() {
                            w.apply_adapt(&[key], &[], &self.grid);
                        }
                        self.carry_owners();
                        self.model.refine(key);
                        self.check_conserved(&before, "refine")?;
                        structural = true;
                    }
                    Err(me) => match self.grid.refine(id, TRANSFER) {
                        Ok(_) => {
                            return Err(format!(
                                "grid accepted refine {key:?} the model rejects ({me:?})"
                            ))
                        }
                        Err(ge) if me.matches_grid_error(&ge) => {}
                        Err(ge) => {
                            return Err(format!(
                                "refine {key:?}: model rejects with {me:?}, grid with {ge}"
                            ))
                        }
                    },
                }
            }
            FuzzCmd::Coarsen(r) => {
                let key = self.nth_leaf(r);
                let Some(parent) = key.parent() else {
                    return self.post_check(false); // level-0 leaf: no-op
                };
                match self.model.check_coarsen(parent) {
                    Ok(()) => {
                        let before = self.totals();
                        self.grid
                            .coarsen(parent, TRANSFER)
                            .map_err(|e| format!("grid rejected legal coarsen {parent:?}: {e}"))?;
                        if let Some(w) = self.walk.as_mut() {
                            w.apply_adapt(&[], &[parent], &self.grid);
                        }
                        self.carry_owners();
                        self.model.coarsen(parent);
                        self.check_conserved(&before, "coarsen")?;
                        structural = true;
                    }
                    Err(me) => match self.grid.coarsen(parent, TRANSFER) {
                        Ok(_) => {
                            return Err(format!(
                                "grid accepted coarsen {parent:?} the model rejects ({me:?})"
                            ))
                        }
                        Err(ge) if me.matches_grid_error(&ge) => {}
                        Err(ge) => {
                            return Err(format!(
                                "coarsen {parent:?}: model rejects with {me:?}, grid with {ge}"
                            ))
                        }
                    },
                }
            }
            FuzzCmd::Adapt { seed, density } => {
                let max_level = self.grid.params().max_level;
                let flags: HashMap<_, _> = self
                    .grid
                    .blocks()
                    .filter_map(|(id, node)| {
                        match flag_for_key(seed, node.key(), max_level, density) {
                            Flag::Keep => None,
                            f => Some((id, f)),
                        }
                    })
                    .collect();
                let epoch_before = self.grid.epoch();
                let before = self.totals();
                // plan/apply split (identical semantics to `balance::adapt`)
                // so the curve walk can splice from the plan, mirroring the
                // distributed executor's adapt path
                let plan = plan_adapt(&self.grid, &flags);
                let report = apply_adapt(&mut self.grid, &plan, TRANSFER);
                if let Some(w) = self.walk.as_mut() {
                    let refined: Vec<BlockKey<D>> =
                        plan.refine.iter().map(|(k, _)| *k).collect();
                    let merged: Vec<BlockKey<D>> = plan
                        .coarsen
                        .iter()
                        .copied()
                        .filter(|p| self.grid.find(*p).is_some())
                        .collect();
                    w.apply_adapt(&refined, &merged, &self.grid);
                }
                self.carry_owners();
                if report.changed() != (self.grid.epoch() != epoch_before) {
                    return Err(format!(
                        "adapt report.changed()={} but epoch {} -> {}",
                        report.changed(),
                        epoch_before,
                        self.grid.epoch()
                    ));
                }
                self.model.resync_leaves(&self.grid);
                self.check_conserved(&before, "adapt")?;
                structural = true;
            }
            FuzzCmd::Remask { seed, masked } => {
                self.setup.mask_seed = if masked { Some(seed) } else { None };
                *self = Harness::new(self.setup);
                return self.post_check(true);
            }
            FuzzCmd::Geometry(seed) => {
                // binarization writes only the mask plane; the physics
                // state (and so every conserved total) must survive bitwise
                let before = self.totals();
                let geometry =
                    (seed != 0).then(|| random_geometry(&mut Rng::new(seed), D));
                self.grid.set_geometry(geometry);
                // the epoch bump (iff the geometry changed) invalidates
                // ghost plans, but the leaf set is untouched — the walk's
                // entries stay exact, so re-stamp rather than rebuild
                if let Some(w) = self.walk.as_mut() {
                    w.sync_epoch(&self.grid);
                }
                self.check_conserved(&before, "set_geometry")?;
                structural = true;
            }
            FuzzCmd::Checkpoint => {
                let mut buf = Vec::new();
                save_grid(&mut buf, &self.grid).map_err(|e| format!("save_grid: {e}"))?;
                let loaded: BlockGrid<D> = load_grid(&mut buf.as_slice())
                    .map_err(|e| format!("load_grid: {e}"))?;
                assert_bitwise(&self.grid, &loaded, "checkpoint roundtrip")?;
                // Continue on the loaded grid. Its epoch counter restarted
                // with the reconstruction, and per-instance caches must not
                // carry over (a fresh grid's epoch can coincidentally match).
                self.grid = loaded;
                self.exchange = None;
                self.stepper = None;
                self.sub_stepper = None;
                self.par = None;
                // ids restarted with the reconstruction; ownership is
                // by-key and survives, the walk rebuilds on next use
                self.walk = None;
                self.model = RefModel::from_grid(&self.grid);
                self.last_epoch = self.grid.epoch();
                return self.post_check(true);
            }
            FuzzCmd::Ghost => {
                let stale = self
                    .exchange
                    .as_ref()
                    .map(|x| !x.is_current(&self.grid))
                    .unwrap_or(true);
                if let Some(x) = &self.exchange {
                    if x.is_current(&self.grid) != (x.epoch() == self.grid.epoch()) {
                        return Err(format!(
                            "ghost cache staleness signal disagrees with epochs \
                             (cache {} vs grid {})",
                            x.epoch(),
                            self.grid.epoch()
                        ));
                    }
                }
                if stale {
                    let cfg =
                        SolverConfig::new(Euler::<D>::new(1.4), Scheme::muscl_rusanov()).ghost;
                    self.exchange = Some(GhostExchange::build(&self.grid, cfg));
                }
                let x = self.exchange.as_ref().expect("just built");
                if !x.is_current(&self.grid) {
                    return Err("freshly built ghost plan is already stale".to_string());
                }
                x.fill(&mut self.grid);
                for (_, node) in self.grid.blocks() {
                    let f = node.field();
                    for c in f.shape().ghosted_box().iter() {
                        for v in 0..f.shape().nvar {
                            if !f.at(c, v).is_finite() {
                                return Err(format!(
                                    "non-finite ghost fill at {:?} cell {c:?} var {v}",
                                    node.key()
                                ));
                            }
                        }
                    }
                }
            }
            FuzzCmd::Step => {
                if self.stepper.is_none() {
                    self.stepper = Some(fresh_stepper());
                }
                let solid_before = self.solid_bits();
                let stepper = self.stepper.as_mut().expect("just set");
                stepper.step_rk2(&mut self.grid, STEP_DT, None);
                if self.solid_bits() != solid_before {
                    return Err("step touched a frozen solid cell".to_string());
                }
                for (_, node) in self.grid.blocks() {
                    let f = node.field();
                    for c in f.shape().interior_box().iter() {
                        for v in 0..f.shape().nvar {
                            if !f.at(c, v).is_finite() {
                                return Err(format!(
                                    "non-finite state after step at {:?} cell {c:?} var {v}",
                                    node.key()
                                ));
                            }
                        }
                    }
                }
            }
            FuzzCmd::StepSub => {
                // Flat reference at the finest dt: a global-dt twin
                // (checkpoint clone, see StepPar for why) advanced over
                // the same interval with 2^(lmax-lmin) uniform steps.
                let mut buf = Vec::new();
                save_grid(&mut buf, &self.grid).map_err(|e| format!("save_grid: {e}"))?;
                let mut twin: BlockGrid<D> =
                    load_grid(&mut buf.as_slice()).map_err(|e| format!("load_grid: {e}"))?;
                let (lmin, lmax) = self
                    .grid
                    .blocks()
                    .fold((u8::MAX, 0u8), |(lo, hi), (_, n)| {
                        (lo.min(n.key().level), hi.max(n.key().level))
                    });
                let nsub = 1u64 << (lmax - lmin);
                // nsub is a power of two, so the finest dt is exact and
                // nsub of them telescope back to exactly STEP_DT
                let fine_dt = STEP_DT / nsub as f64;
                let mut flat = Stepper::new(
                    SolverConfig::new(Euler::<D>::new(1.4), Scheme::muscl_rusanov())
                        .with_refluxing(true),
                );
                for _ in 0..nsub {
                    flat.step_rk2(&mut twin, fine_dt, None);
                }
                let before = self.totals();
                let cons_vars = self.step_conserved_vars();
                let solid_before = self.solid_bits();
                let st = self.sub_stepper.get_or_insert_with(|| {
                    Stepper::new(
                        SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov())
                            .with_refluxing(true)
                            .with_time_step_mode(TimeStepMode::Subcycled),
                    )
                });
                st.step(&mut self.grid, STEP_DT, None);
                // refluxed subcycling is exactly conservative in whatever
                // the world's boundaries preserve: everything when all
                // faces are periodic; mass and energy when the only
                // non-periodic faces are reflective walls (Reflect axes,
                // root-mask holes, immersed solid faces); nothing once
                // Outflow lets state leave the domain.
                self.check_conserved_vars(&before, &cons_vars, "subcycled step")?;
                if self.solid_bits() != solid_before {
                    return Err("subcycled step touched a frozen solid cell".to_string());
                }
                for (_, node) in self.grid.blocks() {
                    let key = node.key();
                    let tid = twin
                        .find(key)
                        .ok_or_else(|| format!("twin lost leaf {key:?}"))?;
                    let tf = twin.block(tid).field();
                    let f = node.field();
                    for c in f.shape().interior_box().iter() {
                        for v in 0..f.shape().nvar {
                            let (a, b) = (f.at(c, v), tf.at(c, v));
                            if !a.is_finite() {
                                return Err(format!(
                                    "non-finite state after subcycled step at {key:?} \
                                     cell {c:?} var {v}"
                                ));
                            }
                            if nsub == 1 {
                                // single level: subcycling must reduce to
                                // the global step bitwise
                                if a.to_bits() != b.to_bits() {
                                    return Err(format!(
                                        "single-level subcycled step diverged from global \
                                         at {key:?} cell {c:?} var {v}: {a:.17e} != {b:.17e}"
                                    ));
                                }
                            } else if (a - b).abs() > 1e-5 * (1.0 + b.abs()) {
                                return Err(format!(
                                    "subcycled step left the flat finest-dt reference band \
                                     at {key:?} cell {c:?} var {v}: {a:.17e} vs {b:.17e}"
                                ));
                            }
                        }
                    }
                }
            }
            FuzzCmd::StepPar => {
                // Serial twin via a bitwise checkpoint clone (grids are
                // deliberately not Clone); its ghost junk is irrelevant —
                // a step fills ghosts from interiors before reading them.
                let mut buf = Vec::new();
                save_grid(&mut buf, &self.grid).map_err(|e| format!("save_grid: {e}"))?;
                let mut twin: BlockGrid<D> =
                    load_grid(&mut buf.as_slice()).map_err(|e| format!("load_grid: {e}"))?;
                fresh_stepper().step_rk2(&mut twin, STEP_DT, None);
                let solid_before = self.solid_bits();
                let par = self.par.get_or_insert_with(|| {
                    ParStepper::new(SolverConfig::new(Euler::new(1.4), Scheme::muscl_rusanov()))
                });
                par.step_rk2(&mut self.grid, STEP_DT);
                if self.solid_bits() != solid_before {
                    return Err("parallel step touched a frozen solid cell".to_string());
                }
                for (_, node) in self.grid.blocks() {
                    let key = node.key();
                    let tid = twin
                        .find(key)
                        .ok_or_else(|| format!("twin lost leaf {key:?}"))?;
                    let tf = twin.block(tid).field();
                    let f = node.field();
                    for c in f.shape().interior_box().iter() {
                        for v in 0..f.shape().nvar {
                            let (a, b) = (f.at(c, v), tf.at(c, v));
                            if a.to_bits() != b.to_bits() {
                                return Err(format!(
                                    "parallel step diverged from serial \
                                     at {key:?} cell {c:?} var {v}: {a:.17e} != {b:.17e}"
                                ));
                            }
                            if !a.is_finite() {
                                return Err(format!(
                                    "non-finite state after parallel step at {key:?} \
                                     cell {c:?} var {v}"
                                ));
                            }
                        }
                    }
                }
            }
            FuzzCmd::Rebalance(r) => {
                let nranks = 1 + (r % 6) as usize;
                let part = Partitioner::default();
                let walk = match self.walk.take() {
                    Some(w) => {
                        if !w.is_current(&self.grid) {
                            return Err(format!(
                                "rebalance found a stale walk (epoch {} vs grid {}): \
                                 a structural command missed its splice",
                                self.grid.epoch() - 1,
                                self.grid.epoch()
                            ));
                        }
                        w
                    }
                    None => CurveWalk::build(&self.grid, part.curve()),
                };
                // oracle 1: the spliced walk is the from-scratch curve sort
                let fresh = CurveWalk::build(&self.grid, part.curve());
                if walk.entries() != fresh.entries() {
                    return Err("spliced walk diverged from from-scratch sort".to_string());
                }
                // first rebalance: no prior owners, everything starts at
                // rank 0 (the diff below then reports the initial spread)
                let prev: HashMap<BlockId, usize> = if self.owner_by_key.is_empty() {
                    HashMap::new()
                } else {
                    inherit_owner(&self.grid, &self.owner_by_key)
                };
                let weights = cell_weights(&self.grid, &walk);
                let plan =
                    part.plan(&walk, &weights, nranks, |id| prev.get(&id).copied().unwrap_or(0));
                // oracle 2: incremental assignment == from-scratch partition
                let scratch: HashMap<BlockId, usize> = part.partition_grid(&self.grid, nranks);
                for (e, &rank) in walk.entries().iter().zip(&plan.assign) {
                    if scratch.get(&e.id) != Some(&rank) {
                        return Err(format!(
                            "incremental rebalance to {nranks} ranks assigns {:?} to {rank}, \
                             from-scratch partition_grid says {:?}",
                            e.key,
                            scratch.get(&e.id)
                        ));
                    }
                }
                // oracle 3: the migration list is the exact owner diff
                let diff: Vec<(BlockKey<D>, usize, usize)> = walk
                    .entries()
                    .iter()
                    .zip(&plan.assign)
                    .filter_map(|(e, &to)| {
                        let from = prev.get(&e.id).copied().unwrap_or(0);
                        (from != to).then_some((e.key, from, to))
                    })
                    .collect();
                let got: Vec<(BlockKey<D>, usize, usize)> =
                    plan.moves.iter().map(|m| (m.key, m.from, m.to)).collect();
                if got != diff {
                    return Err(format!(
                        "plan moves are not the exact owner diff: {} moves vs {} diffs",
                        got.len(),
                        diff.len()
                    ));
                }
                self.owner_by_key =
                    walk.entries().iter().zip(&plan.assign).map(|(e, &r)| (e.key, r)).collect();
                self.walk = Some(walk);
            }
            FuzzCmd::Snapshot => {
                self.snap_step += 1;
                let stats = write_snapshot(&mut self.store, &self.grid, self.snap_step)
                    .map_err(|e| format!("write_snapshot: {e}"))?;
                // idempotence + full dedup: the identical state at the
                // identical step must hash to the identical root and add
                // nothing to the store
                let again = write_snapshot(&mut self.store, &self.grid, self.snap_step)
                    .map_err(|e| format!("re-snapshot: {e}"))?;
                if again.root != stats.root || again.nodes_new != 0 || again.bytes_new != 0 {
                    return Err(format!(
                        "re-snapshot of identical state not fully shared: \
                         {stats:?} then {again:?}"
                    ));
                }
                // the store is append-only: earlier roots stay resolvable
                if let Some(prev) = self.last_root {
                    if !self.store.contains(prev) {
                        return Err(format!("prior snapshot root {prev:?} evicted"));
                    }
                    materialize::<D>(&self.store, prev)
                        .map_err(|e| format!("prior root no longer materializes: {e}"))?;
                }
                let loaded = materialize::<D>(&self.store, stats.root)
                    .map_err(|e| format!("materialize: {e}"))?;
                assert_bitwise(&self.grid, &loaded, "snapshot materialize")?;
                // archive roundtrip: the reachable closure alone must
                // rebuild the same state in a fresh store
                let mut buf = Vec::new();
                write_archive::<D>(&mut buf, &self.store, stats.root)
                    .map_err(|e| format!("write_archive: {e}"))?;
                let (unpacked, root) = read_archive::<D>(&mut buf.as_slice())
                    .map_err(|e| format!("read_archive: {e}"))?;
                if root != stats.root {
                    return Err(format!(
                        "archive changed the root: {:?} -> {root:?}",
                        stats.root
                    ));
                }
                let reloaded = materialize::<D>(&unpacked, root)
                    .map_err(|e| format!("materialize from archive: {e}"))?;
                assert_bitwise(&self.grid, &reloaded, "archive roundtrip")?;
                self.last_root = Some(stats.root);
                // continue on the materialized grid, like Checkpoint
                self.grid = loaded;
                self.exchange = None;
                self.stepper = None;
                self.sub_stepper = None;
                self.par = None;
                self.walk = None;
                self.model = RefModel::from_grid(&self.grid);
                self.last_epoch = self.grid.epoch();
                return self.post_check(true);
            }
            FuzzCmd::Sabotage => {
                self.grid.testonly_corrupt_face(0);
            }
        }
        self.post_check(structural)
    }
}

/// Execute `script` in the world derived from `seed`, running the full
/// oracle stack after every command. Panics inside commands are caught
/// and converted to `Err`, so failures (including `assert!` failures deep
/// in the library) are shrinkable.
pub fn run_script<const D: usize>(seed: u64, script: &[FuzzCmd]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut h = Harness::<D>::new(derive_setup(seed));
        h.post_check(true).map_err(|e| format!("initial state: {e}"))?;
        for (i, cmd) in script.iter().enumerate() {
            h.exec(cmd)
                .map_err(|e| format!("command {i} ({}): {e}", format_script(&[*cmd])))?;
        }
        Ok(())
    }))
    .unwrap_or_else(|payload| Err(format!("panic: {}", payload_str(payload.as_ref()))))
}

/// Execute `script` like [`run_script`], additionally folding the
/// canonical state digest ([`crate::golden::grid_digest`]) of the grid
/// after the initial build and after every command into one FNV-1a
/// stream value. The stream is layout-independent but bit-exact in the
/// physics state, so it pins the entire arithmetic sequence of a
/// schedule: storage refactors must reproduce recorded streams unchanged
/// (see [`crate::golden::GOLDEN_CASES`]).
pub fn run_script_digest<const D: usize>(
    seed: u64,
    script: &[FuzzCmd],
) -> Result<u64, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut h = Harness::<D>::new(derive_setup(seed));
        h.post_check(true).map_err(|e| format!("initial state: {e}"))?;
        let mut stream = crate::golden::Fnv64::new();
        stream.write_u64(crate::golden::grid_digest(&h.grid));
        for (i, cmd) in script.iter().enumerate() {
            h.exec(cmd)
                .map_err(|e| format!("command {i} ({}): {e}", format_script(&[*cmd])))?;
            stream.write_u64(crate::golden::grid_digest(&h.grid));
        }
        Ok(stream.finish())
    }))
    .unwrap_or_else(|payload| Err(format!("panic: {}", payload_str(payload.as_ref()))))
}

/// Generate a random script for the world derived from `seed`.
pub fn gen_script(seed: u64, max_cmds: usize, sabotage: bool) -> Vec<FuzzCmd> {
    let mut rng = Rng::new(seed);
    let len = rng.usize_in(1, max_cmds.max(2));
    let mut script: Vec<FuzzCmd> = (0..len)
        .map(|_| {
            let roll = rng.f64();
            if roll < 0.28 {
                FuzzCmd::Refine(rng.u64_below(4096))
            } else if roll < 0.46 {
                FuzzCmd::Coarsen(rng.u64_below(4096))
            } else if roll < 0.60 {
                FuzzCmd::Adapt {
                    seed: rng.next_u64(),
                    density: rng.usize_in(5, 30) as u8,
                }
            } else if roll < 0.67 {
                FuzzCmd::Rebalance(rng.u64_below(4096))
            } else if roll < 0.74 {
                FuzzCmd::Ghost
            } else if roll < 0.79 {
                FuzzCmd::Step
            } else if roll < 0.84 {
                FuzzCmd::StepSub
            } else if roll < 0.90 {
                FuzzCmd::StepPar
            } else if roll < 0.93 {
                FuzzCmd::Checkpoint
            } else if roll < 0.955 {
                FuzzCmd::Snapshot
            } else if roll < 0.98 {
                FuzzCmd::Remask { seed: rng.next_u64(), masked: rng.coin() }
            } else {
                // seed 0 clears the geometry: exercise mask-plane teardown
                FuzzCmd::Geometry(if rng.bool(0.25) { 0 } else { rng.next_u64() })
            }
        })
        .collect();
    if sabotage {
        let at = rng.usize_below(script.len() + 1);
        script.insert(at, FuzzCmd::Sabotage);
    }
    script
}

// ---------------------------------------------------------------------------
// fuzz driver
// ---------------------------------------------------------------------------

/// Configuration of one fuzz run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Command sequences to run.
    pub sequences: u64,
    /// Base seed; case `i` uses `subseed(base_seed, i)`.
    pub base_seed: u64,
    /// Maximum commands per sequence.
    pub max_cmds: usize,
    /// Insert one [`FuzzCmd::Sabotage`] per sequence (harness self-test:
    /// the run *must* fail and shrink to a tiny script).
    pub sabotage: bool,
    /// Prepend a seed-derived [`FuzzCmd::Geometry`] to every sequence so
    /// the whole script — adapts, steps, checkpoints, oracles — runs on
    /// a masked world. The default mix reaches geometry on only ~2% of
    /// commands; this dedicates a full budget to the immersed path.
    pub masked: bool,
}

impl FuzzConfig {
    /// A quick configuration with the given sequence count.
    pub fn quick(sequences: u64, base_seed: u64) -> Self {
        FuzzConfig { sequences, base_seed, max_cmds: 24, sabotage: false, masked: false }
    }
}

/// A minimized fuzz failure with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Spatial dimension of the failing case.
    pub dim: usize,
    /// Case seed (derives the world and replays the failure).
    pub seed: u64,
    /// Error from the *shrunk* script.
    pub error: String,
    /// Original generated script (text form).
    pub script: String,
    /// Minimized script (text form).
    pub shrunk: String,
    /// Shrunk command count.
    pub shrunk_len: usize,
    /// Copy-pasteable replay one-liner.
    pub replay: String,
}

/// Outcome of [`run_fuzz`].
#[derive(Clone, Debug)]
pub enum FuzzOutcome {
    /// Every sequence passed.
    Pass {
        /// Sequences executed.
        sequences: u64,
        /// Total commands executed.
        commands: u64,
    },
    /// A sequence failed; the failure is already shrunk.
    Fail(Box<FuzzFailure>),
}

/// Run `cfg.sequences` independent command sequences; on the first
/// failure, shrink the script with [`shrink`] and return a
/// [`FuzzFailure`] carrying a replay line.
pub fn run_fuzz<const D: usize>(cfg: &FuzzConfig) -> FuzzOutcome {
    let mut commands = 0u64;
    for i in 0..cfg.sequences {
        let seed = subseed(cfg.base_seed, i);
        let mut script = gen_script(seed, cfg.max_cmds, cfg.sabotage);
        if cfg.masked {
            // `| 1` keeps the seed nonzero — zero would *clear* geometry
            script.insert(0, FuzzCmd::Geometry(seed | 1));
        }
        commands += script.len() as u64;
        let Err(first_error) = run_script::<D>(seed, &script) else {
            continue;
        };
        let shrunk = shrink(&script, |cand| run_script::<D>(seed, cand).is_err());
        let error = run_script::<D>(seed, &shrunk).err().unwrap_or(first_error);
        let shrunk_text = format_script(&shrunk);
        return FuzzOutcome::Fail(Box::new(FuzzFailure {
            dim: D,
            seed,
            error,
            script: format_script(&script),
            shrunk: shrunk_text.clone(),
            shrunk_len: shrunk.len(),
            replay: format!(
                "cargo run --release -p ablock-bench --bin abl_fuzz -- \
                 --replay {D} {seed:#018x} '{shrunk_text}'"
            ),
        }));
    }
    FuzzOutcome::Pass { sequences: cfg.sequences, commands }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_text_roundtrips() {
        let script = vec![
            FuzzCmd::Refine(17),
            FuzzCmd::Coarsen(3),
            FuzzCmd::Adapt { seed: 0xDEAD_BEEF, density: 12 },
            FuzzCmd::Remask { seed: 0xF00, masked: true },
            FuzzCmd::Rebalance(9),
            FuzzCmd::Geometry(0xBEE),
            FuzzCmd::Checkpoint,
            FuzzCmd::Ghost,
            FuzzCmd::Step,
            FuzzCmd::StepSub,
            FuzzCmd::StepPar,
            FuzzCmd::Snapshot,
            FuzzCmd::Sabotage,
        ];
        let text = format_script(&script);
        assert_eq!(parse_script(&text).unwrap(), script);
        assert_eq!(text, "R17 C3 Adeadbeef:12 Mf00:1 B9 Gbee K G S T O P X");
        // recorded scripts and replay lines may still carry `N`
        assert_eq!(parse_script("N O").unwrap(), vec![FuzzCmd::StepPar, FuzzCmd::StepPar]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_script("Q9").is_err());
        assert!(parse_script("A12").is_err()); // missing density
        assert!(parse_script("Mzz:1").is_err());
        assert!(parse_script("Gzz").is_err()); // not a hex geometry seed
        assert!(parse_script("K7").is_err());
        assert!(parse_script("T3").is_err());
        assert!(parse_script("O7").is_err());
        assert!(parse_script("N1").is_err());
        assert!(parse_script("P2").is_err());
        assert!(parse_script("B").is_err()); // missing roll
    }

    #[test]
    fn generation_is_deterministic_and_sabotage_injects_once() {
        let a = gen_script(42, 20, false);
        let b = gen_script(42, 20, false);
        assert_eq!(a, b);
        assert!(!a.contains(&FuzzCmd::Sabotage));
        let s = gen_script(42, 20, true);
        assert_eq!(s.iter().filter(|c| **c == FuzzCmd::Sabotage).count(), 1);
    }

    #[test]
    fn flags_are_key_derived_and_respect_caps() {
        let key = BlockKey::<2>::new(0, [1, 0]);
        // deterministic
        assert_eq!(flag_for_key(7, key, 3, 50), flag_for_key(7, key, 3, 50));
        // a root can never be flagged Coarsen, a capped key never Refine
        for s in 0..200u64 {
            assert_ne!(flag_for_key(s, key, 0, 90), Flag::Refine);
            assert_ne!(flag_for_key(s, key, 3, 90), Flag::Coarsen);
        }
        // at high density some keys do get refined
        let mut refined = 0;
        for s in 0..50u64 {
            if flag_for_key(s, key, 3, 80) == Flag::Refine {
                refined += 1;
            }
        }
        assert!(refined > 10, "density 80 refined only {refined}/50");
    }

    #[test]
    fn empty_script_passes() {
        run_script::<2>(0x5EED_0010, &[]).unwrap();
    }

    #[test]
    fn parallel_step_commands_match_serial() {
        // each O runs the bitwise differential against a serial twin
        run_script::<2>(
            0x5EED_0012,
            &[
                FuzzCmd::Refine(3),
                FuzzCmd::StepPar,
                FuzzCmd::StepPar,
                FuzzCmd::Step,
                FuzzCmd::Adapt { seed: 0xA11CE, density: 20 },
                FuzzCmd::StepPar,
            ],
        )
        .unwrap();
    }

    #[test]
    fn mixed_subcycled_and_global_steps_interleave() {
        // T and S share the evolving grid but run distinct cached
        // steppers; T is checked against the flat finest-dt reference
        // (bitwise on the initial single-level world, banded once the
        // refines land) and structural commands invalidate both caches.
        run_script::<2>(
            0x5EED_0015,
            &[
                FuzzCmd::StepSub, // single level: bitwise vs global
                FuzzCmd::Refine(3),
                FuzzCmd::StepSub,
                FuzzCmd::Step,
                FuzzCmd::StepSub,
                FuzzCmd::Adapt { seed: 0xA11CE, density: 20 },
                FuzzCmd::StepSub,
                FuzzCmd::Checkpoint,
                FuzzCmd::StepSub,
                FuzzCmd::Step,
            ],
        )
        .unwrap();
    }

    #[test]
    fn snapshot_command_dedups_and_roundtrips() {
        // successive P commands share the persistent store; structural and
        // stepping commands in between change what the snapshots capture
        run_script::<2>(
            0x5EED_0013,
            &[
                FuzzCmd::Refine(3),
                FuzzCmd::Snapshot,
                FuzzCmd::Snapshot,
                FuzzCmd::Step,
                FuzzCmd::Snapshot,
                FuzzCmd::Adapt { seed: 0xA11CE, density: 20 },
                FuzzCmd::Snapshot,
            ],
        )
        .unwrap();
    }

    #[test]
    fn rebalance_command_tracks_incremental_ownership() {
        // rebalances interleaved with every structural command class, a
        // rank-count change, and a checkpoint cut (walk rebuild, owner
        // carried by key)
        run_script::<2>(
            0x5EED_0014,
            &[
                FuzzCmd::Rebalance(1), // 2 ranks
                FuzzCmd::Refine(3),
                FuzzCmd::Rebalance(1),
                FuzzCmd::Adapt { seed: 0xA11CE, density: 25 },
                FuzzCmd::Rebalance(3), // 4 ranks
                FuzzCmd::Coarsen(1),
                FuzzCmd::Checkpoint,
                FuzzCmd::Rebalance(11),
                FuzzCmd::Step,
                FuzzCmd::Rebalance(0), // 1 rank: everything collapses home
            ],
        )
        .unwrap();
    }

    #[test]
    fn geometry_command_freezes_solids_across_the_stack() {
        // install a random SDF, push it through every stepper class plus
        // checkpoint/snapshot roundtrips and structural commands, clear
        // it again; the per-command oracles (mask invariants via
        // check_grid, solid cells bitwise-inert, conserved totals) do the
        // actual checking
        run_script::<2>(
            0x5EED_0016,
            &[
                FuzzCmd::Geometry(0xD1CE),
                FuzzCmd::Step,
                FuzzCmd::Refine(2),
                FuzzCmd::StepSub,
                FuzzCmd::StepPar,
                FuzzCmd::Checkpoint,
                FuzzCmd::Step,
                FuzzCmd::Adapt { seed: 0xA11CE, density: 20 },
                FuzzCmd::Snapshot,
                FuzzCmd::StepSub,
                FuzzCmd::Geometry(0),
                FuzzCmd::Step,
            ],
        )
        .unwrap();
    }

    #[test]
    fn random_geometries_have_bounded_depth_and_validate() {
        for seed in 1..200u64 {
            for dim in 1..=3 {
                let g = random_geometry(&mut Rng::new(seed), dim);
                assert!(g.validate(), "seed {seed} dim {dim}: {g:?}");
                assert!(g.depth() <= 8, "seed {seed} dim {dim} too deep");
            }
        }
    }

    #[test]
    fn sabotage_alone_fails() {
        let err = run_script::<2>(0x5EED_0011, &[FuzzCmd::Sabotage]).unwrap_err();
        assert!(err.contains("command 0"), "{err}");
    }
}
