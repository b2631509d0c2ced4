//! The benchmark's own tracing: spans around the public calls the loop
//! makes, per-thread buffers, and the replays of layers on the live grid.
//!
//! Timed (untraced) runs record nothing but cycle boundaries. The crates'
//! `Metrics` sink stays null there: it locks one mutex and allocates a
//! `String` per counter increment, and its span stack is shared across
//! threads, so rank threads cannot open spans on it. Instead every thread
//! here owns a [`Tracer`] (the distributed run keeps one per rank) and the
//! spans are written out once, when the run ends.

use std::hint::black_box;
use std::time::Instant;

use ablock_core::arena::BlockId;
use ablock_core::field::FieldBlock;
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::BlockGrid;
use ablock_core::partition::{cell_weights, CurveWalk, Partitioner};
use ablock_io::snapshot::{write_snapshot, NodeStore};
use ablock_solver::{compute_rhs_block_fluxes, FaceFluxStore, IdealMhd, SolverConfig};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Coarse cycle it belongs to.
    pub cycle: usize,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// The count the span's time is normalised by (cells, blocks, bytes…).
    pub work: u64,
}

/// A per-thread span buffer.
pub struct Tracer {
    origin: Instant,
    /// Closed spans in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Empty buffer timing from `origin` (shared by every thread of a run
    /// so their tracks line up).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; `work` is the count its time is normalised by.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        cycle: usize,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, cycle, work, t0, t1);
        out
    }

    /// Record an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        cycle: usize,
        work: u64,
        t0: Instant,
        t1: Instant,
    ) {
        self.spans.push(Span {
            name,
            cycle,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
            work,
        });
    }

    /// Total ns and total work over spans named `name`, or `None` if
    /// there are none.
    pub fn total(&self, name: &str) -> Option<(u64, u64)> {
        let mut hit = false;
        let (mut ns, mut work) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            hit = true;
            ns += s.dur_ns;
            work += s.work;
        }
        hit.then_some((ns, work))
    }

    /// ns per unit of work over spans named `name` (None if no work).
    pub fn ns_per(&self, name: &str) -> Option<f64> {
        self.total(name)
            .filter(|&(_, w)| w > 0)
            .map(|(ns, w)| ns as f64 / w as f64)
    }
}

/// Replay the layers that run inside a step, on the live grid, between
/// maintenance and the cycle's step: plan build, full ghost fill (which
/// only writes ghost cells, all of which the next step refills), the flux
/// kernel over `blocks` into throwaway scratch, the partition plan for
/// `nranks` against `owner`, and a snapshot into a throwaway store.
/// Returns the ghost values the fill wrote and the grid's interior cells.
pub fn replay_layers(
    tr: &mut Tracer,
    cycle: usize,
    grid: &mut BlockGrid<3>,
    cfg: &SolverConfig<IdealMhd>,
    blocks: &[BlockId],
    nranks: usize,
    owner: &dyn Fn(BlockId) -> usize,
) -> (u64, u64) {
    let nblocks = grid.num_blocks() as u64;
    let plan = tr.time("replay.ghost_plan", cycle, nblocks, || {
        GhostExchange::build(grid, cfg.ghost.clone())
    });
    let values = plan.comm_volume(grid) as u64;
    tr.time("replay.ghost_fill", cycle, values, || plan.fill(grid));

    let dims = grid.params().block_dims;
    let shape = grid.field_shape();
    let mut rhs = FieldBlock::zeros(shape);
    let mut prim = Vec::new();
    let mut store = FaceFluxStore::new(dims, shape.nvar);
    let cells = blocks.len() as u64 * shape.interior_cells() as u64;
    tr.time("replay.kernel", cycle, cells, || {
        for &id in blocks {
            let node = grid.block(id);
            let h = grid.layout().cell_size(node.key().level, dims);
            compute_rhs_block_fluxes(
                &cfg.physics,
                cfg.scheme,
                node.field(),
                h,
                &mut rhs,
                &mut prim,
                Some(&mut store),
            );
            black_box(&rhs);
        }
    });

    let partitioner = Partitioner::default();
    tr.time("replay.partition_plan", cycle, nblocks, || {
        let walk = CurveWalk::build(grid, partitioner.curve());
        let weights = cell_weights(grid, &walk);
        black_box(partitioner.plan(&walk, &weights, nranks, owner));
    });

    let t0 = Instant::now();
    let stats = write_snapshot(&mut NodeStore::new(), grid, cycle as u64)
        .expect("snapshot into memory cannot fail");
    tr.record(
        "replay.snapshot",
        cycle,
        stats.bytes_new + stats.bytes_shared,
        t0,
        Instant::now(),
    );
    (values, grid.num_cells() as u64)
}

/// Write the spans of every thread as Chrome trace-event JSON (one track
/// per rank or thread), with each span's cycle and work count as args.
pub fn write_trace(path: &std::path::Path, tracks: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (label, tr)) in tracks.iter().enumerate() {
        for s in &tr.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"track\":\"{label}\",\"cycle\":{},\"work\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.cycle,
                s.work
            ));
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
