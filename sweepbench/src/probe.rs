//! The traced run's layer probe: spans around each call into a layer,
//! on the workload's own inputs, and the per-layer metrics they give.
//!
//! Layers nested inside one program call are timed by calling the
//! program twice on the same input: `run_summary_*` minus a bare
//! `sim.drive()` is the analysis, `run_capture_*` minus `run_summary_*`
//! is the series capture. Runs are deterministic, so both calls do the
//! same simulation work.

use crate::trace::Ledger;
use crate::workloads::{cold_round, fold_op, warm_op, Ctx, OpShape, Probe, CHECKPOINT};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use wl_harness::cache::canon_string;
use wl_harness::run::{run_capture_enum, run_capture_mono, run_summary_enum, run_summary_mono};
use wl_harness::{
    assemble_enum, assemble_mono, store_report, Capture, EnumScenario, Maintenance, MonoScenario,
    ScenarioSpec, SkewSketch, StoreFormat, SweepRequest, SweepRunner, SweepStore, TierPolicy,
};

/// Read-side layers repeat until this much time is spent, within
/// `READ_REPS` repetitions.
const READ_BUDGET_S: f64 = 1.0;
const READ_REPS: (usize, usize) = (3, 20);

/// One assembled point, on whichever fast path the sweep would take.
enum Built {
    Mono(MonoScenario<Maintenance>),
    Enum(EnumScenario<Maintenance>),
}

impl Built {
    fn of(spec: &ScenarioSpec) -> Self {
        match assemble_mono::<Maintenance>(spec) {
            Some(b) => Self::Mono(b),
            None => Self::Enum(
                assemble_enum::<Maintenance>(spec).expect("untraced specs take the enum path"),
            ),
        }
    }

    fn drive(self) -> u64 {
        match self {
            Self::Mono(mut b) => {
                b.sim.drive();
                b.sim.events_delivered()
            }
            Self::Enum(mut b) => {
                b.sim.drive();
                b.sim.events_delivered()
            }
        }
    }

    fn summary(self, t_end: f64) -> wl_harness::run::RunSummary {
        match self {
            Self::Mono(b) => run_summary_mono(b, t_end),
            Self::Enum(b) => run_summary_enum(b, t_end),
        }
    }

    fn capture(self, t_end: f64) -> wl_harness::SweepSeries {
        match self {
            Self::Mono(b) => run_capture_mono(b, t_end).1,
            Self::Enum(b) => run_capture_enum(b, t_end).1,
        }
    }
}

/// Seconds `op` took; its result is dropped after the clock stops, as
/// in the untraced loop.
fn time_op<R>(op: impl FnOnce() -> io::Result<R>) -> io::Result<f64> {
    let t = Instant::now();
    let out = op()?;
    let secs = t.elapsed().as_secs_f64();
    drop(out);
    Ok(secs)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn probe_point(l: &mut Ledger, spec: &ScenarioSpec) {
    let t_end = spec.t_end.as_secs();
    let built = l.span("assemble", |_| Built::of(spec));
    let events = l.span("sim.drive", |_| built.drive());
    l.count("sim.events", events as f64);
    let built = l.span("assemble", |_| Built::of(spec));
    l.span("run_summary", |_| black_box(built.summary(t_end)));
    let built = l.span("assemble", |_| Built::of(spec));
    let series = l.span("run_capture", |_| built.capture(t_end));
    l.count("capture.samples", series.skew_values.len() as f64);
    l.span("sketch.of_series", |_| {
        black_box(SkewSketch::of_series(&series))
    });
}

/// Runs every layer probe; returns the per-layer metrics.
pub fn run(
    l: &mut Ledger,
    ctx: &Ctx,
    probe: &Probe,
) -> io::Result<Vec<(&'static str, f64, &'static str)>> {
    // The machine's speed drifts by tens of percent over tens of
    // seconds, so the real op is timed next to its layers: for a worker
    // op, one whole round before and one after them.
    let real_round = |l: &mut Ledger| -> io::Result<()> {
        let path = ctx.dir.join("probe-op.wls");
        let (_, ops, _) = cold_round(probe.points.clone(), &path, probe.capture)?;
        l.count("op.n", ops.len() as f64);
        l.count("op.s", ops.iter().sum());
        Ok(())
    };
    let worker = matches!(probe.op, OpShape::Worker);
    if worker {
        real_round(l)?;
    }
    for spec in &probe.points {
        probe_point(l, spec);
    }

    // Write side: the body of `run_worker`, one call at a time.
    let wpath = ctx.dir.join("probe.wls");
    let _ = std::fs::remove_file(&wpath);
    let mut store = SweepStore::open(&wpath)?;
    store.set_format(StoreFormat::Binary);
    let cache = store.hydrate();
    for batch in probe.points.chunks(CHECKPOINT) {
        l.span("worker.batch", |l| -> io::Result<()> {
            l.span("worker.points", |_| {
                black_box(
                    SweepRequest::new()
                        .runner(SweepRunner::serial())
                        .cached(&cache)
                        .capture(probe.capture)
                        .tier(TierPolicy::LocalOnly)
                        .run::<Maintenance>(batch.to_vec()),
                )
            });
            let cached = cache.len();
            let useful = l.span("store.absorb", |_| store.absorb(&cache));
            l.count("absorb.calls", 1.0);
            l.count("absorb.records", cached as f64);
            l.count("absorb.useful", useful as f64);
            let before = file_len(&wpath);
            let written = l.span("store.checkpoint", |_| store.checkpoint())?;
            l.count("checkpoint.records", written as f64);
            l.count("checkpoint.bytes", file_len(&wpath) - before);
            Ok(())
        })?;
    }
    drop(store);
    if worker {
        real_round(l)?;
    }

    // Read side, on the workload's store, each repetition next to one
    // real warm or fold op.
    let rpath = probe.read_store.clone().unwrap_or(wpath);
    let mut misses = 0;
    let started = Instant::now();
    let mut reps = 0;
    while reps < READ_REPS.0
        || (reps < READ_REPS.1 && started.elapsed().as_secs_f64() < READ_BUDGET_S)
    {
        reps += 1;
        let op_s = match probe.op {
            OpShape::Warm => time_op(|| warm_op(&rpath, probe.points.clone()))?,
            OpShape::Fold => time_op(|| fold_op(&rpath))?,
            OpShape::Worker => 0.0,
        };
        if !worker {
            l.count("op.n", 1.0);
            l.count("op.s", op_s);
        }
        let store = l.span("store.open", |_| SweepStore::open(&rpath))?;
        l.count("open.records", store.len() as f64);
        l.count("open.bytes", file_len(&rpath));
        let cache = l.span("store.hydrate", |_| store.hydrate());
        for spec in &probe.points {
            // Hashed back to back with its lookup, so both see the
            // same (hot) caches.
            l.span("spec.hash", |_| {
                black_box((spec.content_hash(), canon_string(spec)));
            });
            l.span("cache.lookup", |_| {
                black_box(
                    SweepRequest::new()
                        .runner(SweepRunner::serial())
                        .cached(&cache)
                        .capture(probe.capture)
                        .run::<Maintenance>(vec![spec.clone()]),
                )
            });
        }
        misses += cache.misses();
        let mut merged = SweepStore::new();
        l.span("sketch.merge_from", |_| merged.merge_from(&store))
            .map_err(|c| io::Error::other(format!("probe merge refused: {c}")))?;
        l.span("sketch.report", |_| black_box(store_report(&merged)));
    }
    l.count("lookup.misses", misses as f64);
    l.count("read.reps", reps as f64);

    Ok(metrics(l, probe))
}

fn metrics(l: &Ledger, probe: &Probe) -> Vec<(&'static str, f64, &'static str)> {
    const US: f64 = 1e6;
    let pts = probe.points.len() as f64;
    let spans = l.aggregate();
    let total = |name: &str| spans.get(name).map_or(0.0, |a| a.total_s);
    let reps = l.counter("read.reps");
    let hash = total("spec.hash") / (reps * pts);
    let assemble = total("assemble") / (3.0 * pts);
    let drive = total("sim.drive") / pts;
    let summary = total("run_summary") / pts;
    let capture = total("run_capture") / pts;
    let of_series = total("sketch.of_series") / pts;
    let calls = l.counter("absorb.calls");
    let absorb = total("store.absorb") / calls;
    let checkpoint = total("store.checkpoint") / calls;
    let written = l.counter("checkpoint.records");
    let opened = l.counter("open.records");
    let open = total("store.open") / reps;
    let hydrate = total("store.hydrate") / reps;
    let lookup = total("cache.lookup") / (reps * pts);
    let merge = total("sketch.merge_from") / reps;
    let report = total("sketch.report") / reps;

    let attributed = match probe.op {
        OpShape::Worker => {
            let sketch = if probe.capture == Capture::Sketch {
                of_series
            } else {
                0.0
            };
            let per_point = hash + assemble + capture + sketch;
            CHECKPOINT as f64 * per_point + absorb + checkpoint
        }
        OpShape::Warm => open + hydrate + pts * lookup,
        OpShape::Fold => open + merge + report,
    };
    let op_mean_s = l.counter("op.s") / l.counter("op.n");
    let unattributed = op_mean_s - attributed;

    vec![
        ("spec.hash_us", hash * US, "us"),
        ("assemble.us_per_point", assemble * US, "us"),
        ("sim.us_per_point", drive * US, "us"),
        (
            "sim.events_per_point",
            l.counter("sim.events") / pts,
            "count",
        ),
        (
            "sim.events_per_s",
            l.counter("sim.events") / total("sim.drive"),
            "1/s",
        ),
        ("analyze.us_per_point", (summary - drive) * US, "us"),
        (
            "capture.series_us_per_point",
            (capture - summary) * US,
            "us",
        ),
        (
            "capture.samples_per_point",
            l.counter("capture.samples") / pts,
            "count",
        ),
        ("sketch.of_series_us_per_point", of_series * US, "us"),
        ("store.absorb_us_per_checkpoint", absorb * US, "us"),
        (
            "store.absorb_records_per_checkpoint",
            l.counter("absorb.records") / calls,
            "count",
        ),
        (
            "store.absorb_useful_ratio",
            l.counter("absorb.useful") / l.counter("absorb.records"),
            "ratio",
        ),
        (
            "store.checkpoint_us_per_record",
            total("store.checkpoint") / written * US,
            "us",
        ),
        (
            "store.append_bytes_per_record",
            l.counter("checkpoint.bytes") / written,
            "B",
        ),
        (
            "store.open_us_per_record",
            total("store.open") / opened * US,
            "us",
        ),
        (
            "store.open_mb_per_s",
            l.counter("open.bytes") / total("store.open") / 1e6,
            "MB/s",
        ),
        (
            "store.hydrate_us_per_record",
            total("store.hydrate") / opened * US,
            "us",
        ),
        ("cache.lookup_us_per_point", (lookup - hash) * US, "us"),
        ("cache.misses", l.counter("lookup.misses"), "count"),
        (
            "sketch.merge_us_per_record",
            total("sketch.merge_from") / opened * US,
            "us",
        ),
        ("sketch.report_us", report * US, "us"),
        ("worker.unattributed_us_per_op", unattributed * US, "us"),
        ("trace.op_us", op_mean_s * US, "us"),
        (
            "trace.unattributed_share",
            unattributed / op_mean_s,
            "ratio",
        ),
    ]
}
