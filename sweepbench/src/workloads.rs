//! The four workloads: set-up, the timed op loop, and the checks on
//! every op. All drive the program through `wl-harness`'s public API,
//! on explicitly serial runners.

use crate::grid::{GridShape, WARMUP_FIRST};
use crate::oracle::{self, Bounds};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wl_harness::{
    run_worker, store_report, Capture, Maintenance, MergeConflict, MergeStats, ScenarioSpec, Shard,
    SkewSketch, SrikanthToueg, StoreFormat, SweepCache, SweepOutcome, SweepRequest, SweepRunner,
    SweepStore, SyncAlgorithm, TierPolicy, WorkerConfig, WorkerProgress,
};

/// Every run times at least this many ops, so p90 has ten samples
/// beyond it.
const MIN_OPS: usize = 100;
/// Set-up repeats this often; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Points per checkpoint batch (the `sweep_drive --worker` default).
pub const CHECKPOINT: usize = 4;
/// Cold rounds: fresh-store worker runs of this many points. The series
/// round is long enough for `absorb`'s re-encoding of every cached
/// record to show as a growing batch time.
const COLD_SKETCH_ROUND: usize = 48;
const COLD_SERIES_ROUND: usize = 200;
/// Points in one cold warm-up round.
const WARMUP_ROUND: usize = 48;
/// Points in the warm-series input store.
const WARM_POINTS: usize = 24;
/// Points per algorithm family in the fold-sketch input store.
const FOLD_POINTS: usize = 2048;
/// Fold-sketch points (per family) the traced run probes layer by layer.
const FOLD_PROBE_POINTS: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSketch,
    ColdSeries,
    WarmSeries,
    FoldSketch,
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "cold-sketch" => Ok(Self::ColdSketch),
            "cold-series" => Ok(Self::ColdSeries),
            "warm-series" => Ok(Self::WarmSeries),
            "fold-sketch" => Ok(Self::FoldSketch),
            _ => Err(format!("unknown workload `{s}`")),
        }
    }
}

/// Negative controls: damage an input on purpose, so the checks can be
/// seen to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Flip one byte in the middle of a store file.
    StoreByte,
    /// Perturb outcomes (or the report) after the program returns them.
    Outcome,
}

impl std::str::FromStr for Tamper {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Self::None),
            "store-byte" => Ok(Self::StoreByte),
            "outcome" => Ok(Self::Outcome),
            _ => Err(format!(
                "unknown tamper mode `{s}` (none|store-byte|outcome)"
            )),
        }
    }
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tamper: Tamper,
    /// Fresh scratch directory for every store of the run.
    pub dir: PathBuf,
}

/// What an untraced run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    pub failed: usize,
    /// Grid points resolved inside the timed calls, and their time.
    pub points: usize,
    pub timed_s: f64,
    pub store_bytes: u64,
    pub store_points: usize,
    /// Set-up checks (not tied to an op) that failed.
    pub setup_errors: Vec<String>,
}

impl Measured {
    fn fail_op(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("op {} failed: {why}", self.op_s.len() - 1);
        }
    }
}

/// How one op decomposes into layers, for the traced run.
pub enum OpShape {
    /// A checkpoint batch of `run_worker`.
    Worker,
    /// Open, hydrate, and one lookup per grid point.
    Warm,
    /// Open, `merge_from`, `store_report`.
    Fold,
}

/// The inputs the traced run probes layer by layer.
pub struct Probe {
    pub capture: Capture,
    pub points: Vec<ScenarioSpec>,
    /// Store the read-side layers run on; `None` = the write probe's.
    pub read_store: Option<PathBuf>,
    pub op: OpShape,
}

pub fn run(w: Workload, ctx: &Ctx) -> io::Result<(Measured, Probe)> {
    match w {
        Workload::ColdSketch => cold(
            ctx,
            GridShape::n7_f2(ctx.seed),
            Capture::Sketch,
            COLD_SKETCH_ROUND,
        ),
        Workload::ColdSeries => cold(
            ctx,
            GridShape::n4_f1(ctx.seed),
            Capture::Series,
            COLD_SERIES_ROUND,
        ),
        Workload::WarmSeries => warm_series(ctx),
        Workload::FoldSketch => fold_sketch(ctx),
    }
}

fn keep_going(start: Instant, ctx: &Ctx, ops: usize) -> bool {
    ops < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

fn flip_middle_byte(path: &Path) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(path, bytes)
}

fn serial() -> SweepRequest<'static> {
    SweepRequest::new().runner(SweepRunner::serial())
}

/// One store must hold exactly `points` records and nothing damaged or
/// stale.
fn check_store(store: &SweepStore, points: usize) -> Result<(), String> {
    if store.len() != points || store.skipped_lines() != 0 || store.stale_records() != 0 {
        return Err(format!(
            "store holds {} record(s) for {points} point(s), {} skipped, {} stale",
            store.len(),
            store.skipped_lines(),
            store.stale_records()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cold workloads: `run_worker` into a fresh binary store.
// ---------------------------------------------------------------------------

fn worker_config(store: PathBuf, capture: Capture) -> WorkerConfig {
    WorkerConfig {
        shard: Shard::full(),
        store,
        checkpoint: CHECKPOINT,
        crash_after: None,
        format: StoreFormat::Binary,
        capture,
    }
}

/// One cold round: `run_worker` over `grid` into a fresh store at
/// `path`. Returns the worker's progress, the time of each checkpoint
/// batch (from the heartbeats), and the time of the whole call.
pub fn cold_round(
    grid: Vec<ScenarioSpec>,
    path: &Path,
    capture: Capture,
) -> io::Result<(WorkerProgress, Vec<f64>, f64)> {
    remove(path);
    let mut ops = Vec::with_capacity(grid.len().div_ceil(CHECKPOINT));
    let t0 = Instant::now();
    let mut last = t0;
    let progress = run_worker::<Maintenance>(
        &SweepRunner::serial(),
        grid,
        &worker_config(path.to_path_buf(), capture),
        |_| {
            let now = Instant::now();
            ops.push((now - last).as_secs_f64());
            last = now;
        },
    )?;
    Ok((progress, ops, t0.elapsed().as_secs_f64()))
}

fn cold(
    ctx: &Ctx,
    shape: GridShape,
    capture: Capture,
    round: usize,
) -> io::Result<(Measured, Probe)> {
    let mut m = Measured::default();

    // Set-up: whole warm-up rounds on a disjoint seed range.
    for rep in 0..SETUP_REPS {
        let grid = shape.points(WARMUP_FIRST + (rep * WARMUP_ROUND) as u64, WARMUP_ROUND);
        let path = ctx.dir.join(format!("warmup-{rep}.wls"));
        let t = Instant::now();
        cold_round(grid, &path, capture)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        remove(&path);
    }

    let bounds = Bounds::of(&shape.params);
    let path = ctx.dir.join("round.wls");
    let start = Instant::now();
    let mut r = 0u64;
    while keep_going(start, ctx, m.op_s.len()) {
        let grid = shape.points(r * round as u64, round);
        let (progress, ops, total_s) = cold_round(grid.clone(), &path, capture)?;
        m.timed_s += total_s;
        m.points += round;
        m.store_bytes += file_len(&path);
        m.store_points += round;

        let verdicts = if progress.done != round || progress.misses != round as u64 {
            let why = format!(
                "worker resolved {} point(s) with {} miss(es), expected {round} cold",
                progress.done, progress.misses
            );
            vec![Err(why); ops.len()]
        } else {
            check_cold_round(ctx, r, &grid, &path, capture, &bounds)?
        };
        for (op, verdict) in ops.into_iter().zip(verdicts) {
            m.op_s.push(op);
            if let Err(why) = verdict {
                m.fail_op(&format!("round {r}: {why}"));
            }
        }
        r += 1;
    }

    let probe = Probe {
        capture,
        points: shape.points(0, round),
        read_store: None,
        op: OpShape::Worker,
    };
    Ok((m, probe))
}

/// Reopens a cold round's store and checks every point in it; returns
/// one verdict per checkpoint batch (= op).
fn check_cold_round(
    ctx: &Ctx,
    round: u64,
    grid: &[ScenarioSpec],
    path: &Path,
    capture: Capture,
    bounds: &Bounds,
) -> io::Result<Vec<Result<(), String>>> {
    let n_ops = grid.len().div_ceil(CHECKPOINT);
    if ctx.tamper == Tamper::StoreByte && round == 0 {
        flip_middle_byte(path)?;
    }
    let store = SweepStore::open(path)?;
    if let Err(why) = check_store(&store, grid.len()) {
        return Ok(vec![Err(why); n_ops]);
    }
    let cache = store.hydrate();
    let mut verdicts = vec![Ok(()); n_ops];
    for (i, spec) in grid.iter().enumerate() {
        let misses = cache.misses();
        let mut out = serial()
            .cached(&cache)
            .capture(capture)
            .tier(TierPolicy::LocalOnly)
            .run::<Maintenance>(vec![spec.clone()])
            .pop()
            .expect("one spec gives one outcome");
        if ctx.tamper == Tamper::Outcome && round == 0 && i.is_multiple_of(CHECKPOINT) {
            perturb(&mut out, i / CHECKPOINT, bounds);
        }
        let mut verdict = if cache.misses() != misses {
            Err(format!("point {i} is missing from the reopened store"))
        } else {
            oracle::check_outcome(&out, bounds).map_err(|e| format!("point {i}: {e}"))
        };
        if verdict.is_ok() {
            verdict = check_payload(&out, spec, capture, i).map_err(|e| format!("point {i}: {e}"));
        }
        if verdict.is_err() && verdicts[i / CHECKPOINT].is_ok() {
            verdicts[i / CHECKPOINT] = verdict;
        }
    }
    Ok(verdicts)
}

/// The capture payload is present; on the first point of every sketch
/// batch, a series re-run recomputes the sketch's count and max.
fn check_payload(
    out: &SweepOutcome,
    spec: &ScenarioSpec,
    capture: Capture,
    i: usize,
) -> Result<(), String> {
    match capture {
        Capture::Series => out
            .series
            .as_ref()
            .map(|_| ())
            .ok_or_else(|| "no series".into()),
        Capture::Sketch => {
            let sketch = out.sketch.as_ref().ok_or("no sketch")?;
            if !i.is_multiple_of(CHECKPOINT) {
                return Ok(());
            }
            let rerun = serial()
                .capture(Capture::Series)
                .run::<Maintenance>(vec![spec.clone()])
                .pop()
                .and_then(|o| o.series)
                .expect("series capture fills the series");
            oracle::check_sketch(sketch, &rerun)
        }
        Capture::Scalar => Ok(()),
    }
}

/// Negative control: op `k` of the first round gets perturbation `k`,
/// one per check.
fn perturb(out: &mut SweepOutcome, k: usize, bounds: &Bounds) {
    match k {
        0 => out.max_skew = 2.0 * bounds.gamma,
        1 => out.agreement_holds = !out.agreement_holds,
        2 => out.max_abs_adjustment = 2.0 * bounds.adjustment,
        3 => out.adjustment_holds = !out.adjustment_holds,
        4 => {
            out.series = None;
            if let Some(s) = &mut out.sketch {
                s.count += 1;
            }
        }
        5 => {
            if let Some(s) = &mut out.sketch {
                s.max = f64::from_bits(s.max.to_bits() + 1);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Warm series replay.
// ---------------------------------------------------------------------------

/// The warm op: open the store, hydrate a cache, replay `grid` through
/// it with series capture.
pub fn warm_op(
    path: &Path,
    grid: Vec<ScenarioSpec>,
) -> io::Result<(SweepStore, SweepCache, Vec<SweepOutcome>)> {
    let store = SweepStore::open(path)?;
    let cache = store.hydrate();
    let outs = serial()
        .cached(&cache)
        .capture(Capture::Series)
        .run::<Maintenance>(grid);
    Ok((store, cache, outs))
}

fn warm_series(ctx: &Ctx) -> io::Result<(Measured, Probe)> {
    let mut m = Measured::default();
    let shape = GridShape::n7_f2(ctx.seed);
    let grid = shape.points(0, WARM_POINTS);
    let bounds = Bounds::of(&shape.params);
    let path = ctx.dir.join("warm.wls");

    // Set-up: simulate the grid with series capture, keep the outcomes
    // in memory, save a canonical binary store.
    let mut reference: Vec<SweepOutcome> = Vec::new();
    for _ in 0..SETUP_REPS {
        remove(&path);
        let t = Instant::now();
        let cache = SweepCache::new();
        let outs = serial()
            .cached(&cache)
            .capture(Capture::Series)
            .run::<Maintenance>(grid.clone());
        let mut store = SweepStore::open(&path)?;
        store.set_format(StoreFormat::Binary);
        store.absorb(&cache);
        store.save()?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        if !reference.is_empty() && !same_outcomes(&reference, &outs) {
            m.setup_errors.push("set-up repetitions disagree".into());
        }
        reference = outs;
    }
    for (i, o) in reference.iter().enumerate() {
        if let Err(e) = oracle::check_outcome(o, &bounds) {
            m.setup_errors.push(format!("set-up point {i}: {e}"));
        }
    }
    m.store_bytes = file_len(&path);
    m.store_points = WARM_POINTS;
    if ctx.tamper == Tamper::StoreByte {
        flip_middle_byte(&path)?;
    }

    let start = Instant::now();
    while keep_going(start, ctx, m.op_s.len()) {
        let specs = grid.clone();
        let t = Instant::now();
        let (store, cache, mut outs) = warm_op(&path, specs)?;
        let dt = t.elapsed().as_secs_f64();
        m.op_s.push(dt);
        m.timed_s += dt;
        m.points += WARM_POINTS;

        if ctx.tamper == Tamper::Outcome && m.op_s.len() % 10 == 1 {
            outs[0].steady_skew = f64::from_bits(outs[0].steady_skew.to_bits() ^ 1);
        }
        let verdict = check_store(&store, WARM_POINTS).and_then(|()| {
            if cache.misses() != 0 {
                Err(format!("{} miss(es) on a warm store", cache.misses()))
            } else if !same_outcomes(&reference, &outs) {
                Err("replay is not bit-identical to the set-up outcomes".into())
            } else {
                Ok(())
            }
        });
        if let Err(why) = verdict {
            m.fail_op(&why);
        }
    }

    let probe = Probe {
        capture: Capture::Series,
        points: grid,
        read_store: Some(path),
        op: OpShape::Warm,
    };
    Ok((m, probe))
}

fn same_outcomes(a: &[SweepOutcome], b: &[SweepOutcome]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_identical(y))
}

// ---------------------------------------------------------------------------
// Sketch fold.
// ---------------------------------------------------------------------------

/// Reverse-order merge of the per-point sketches: the fold's expected
/// count and max, computed without the store.
fn reverse_fold(outs: &[SweepOutcome]) -> Option<(u64, f64)> {
    let mut acc = SkewSketch::new();
    for o in outs.iter().rev() {
        acc.merge(o.sketch.as_ref()?);
    }
    Some((acc.count, acc.max))
}

/// The fold op: open the store, merge it into an empty one, report.
pub fn fold_op(
    path: &Path,
) -> io::Result<(
    SweepStore,
    SweepStore,
    Result<MergeStats, MergeConflict>,
    String,
)> {
    let store = SweepStore::open(path)?;
    let mut merged = SweepStore::new();
    let merge = merged.merge_from(&store);
    let report = store_report(&merged);
    Ok((store, merged, merge, report))
}

fn fold_sketch(ctx: &Ctx) -> io::Result<(Measured, Probe)> {
    let mut m = Measured::default();
    let shape = GridShape::fold(ctx.seed);
    let grid = shape.points(0, FOLD_POINTS);
    let path = ctx.dir.join("fold.wls");
    let records = 2 * FOLD_POINTS;

    let mut expected: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        remove(&path);
        let t = Instant::now();
        let cache = SweepCache::new();
        let wl = serial()
            .cached(&cache)
            .capture(Capture::Sketch)
            .run::<Maintenance>(grid.clone());
        let st = serial()
            .cached(&cache)
            .capture(Capture::Sketch)
            .run::<SrikanthToueg>(grid.clone());
        let mut store = SweepStore::open(&path)?;
        store.set_format(StoreFormat::Binary);
        store.absorb(&cache);
        store.save()?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        expected.clear();
        for (name, outs) in [(Maintenance::NAME, &wl), (SrikanthToueg::NAME, &st)] {
            match reverse_fold(outs) {
                Some(cm) => {
                    expected.insert(name.to_string(), cm);
                }
                None => m
                    .setup_errors
                    .push(format!("{name}: a point has no sketch")),
            }
        }
    }
    m.store_bytes = file_len(&path);
    m.store_points = records;
    if ctx.tamper == Tamper::StoreByte {
        flip_middle_byte(&path)?;
    }

    let mut first_report: Option<String> = None;
    let start = Instant::now();
    while keep_going(start, ctx, m.op_s.len()) {
        let t = Instant::now();
        let (store, merged, merge, mut report) = fold_op(&path)?;
        let dt = t.elapsed().as_secs_f64();
        m.op_s.push(dt);
        m.timed_s += dt;
        m.points += records;

        let first = first_report.get_or_insert_with(|| report.clone());
        let mut folded = oracle::parse_report(&report);
        if ctx.tamper == Tamper::Outcome {
            match m.op_s.len() % 10 {
                1 => report.push('\n'),
                6 => folded.values_mut().for_each(|v| v.0 += 1),
                _ => {}
            }
        }
        let verdict = check_store(&store, records)
            .and_then(|()| merge.map_err(|c| format!("merge refused: {c}")))
            .and_then(|_| check_store(&merged, records))
            .and_then(|()| {
                let same = folded.len() == expected.len()
                    && folded.iter().zip(&expected).all(|((a, x), (b, y))| {
                        a == b && x.0 == y.0 && x.1.to_bits() == y.1.to_bits()
                    });
                if !same {
                    Err(format!(
                        "report folds {folded:?}, reverse merge gives {expected:?}"
                    ))
                } else if *first != report {
                    Err("report text differs from the first op's".into())
                } else {
                    Ok(())
                }
            });
        if let Err(why) = verdict {
            m.fail_op(&why);
        }
    }

    let probe = Probe {
        capture: Capture::Sketch,
        points: shape.points(0, FOLD_PROBE_POINTS),
        read_store: Some(path),
        op: OpShape::Fold,
    };
    Ok((m, probe))
}
