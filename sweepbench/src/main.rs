//! Sweep benchmark: one workload per process, driven only through
//! `wl-harness`'s public API.
//!
//! ```text
//! sweepbench --workload cold-sketch|cold-series|warm-series|fold-sketch
//!            [--seed N] [--seconds S] [--trace 0|1] [--tamper none|store-byte|outcome]
//! ```
//!
//! Prints every metric as `metric <name> <value> <unit>`, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Exits 0 only when every op passed its checks.

mod grid;
mod oracle;
mod probe;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Measured, Tamper, Workload};

/// Environment knobs the program reads; a benchmark run must not
/// inherit them (`run_worker` and `SweepRequest` both consult
/// `WL_SWEEP_SERVICE`).
const PROGRAM_ENV: [&str; 5] = [
    "WL_SWEEP_SERVICE",
    "WL_SWEEP_CACHE_DIR",
    "WL_SWEEP_THREADS",
    "WL_SWEEP_FORMAT",
    "WL_SWEEP_EXPECT_MISSES",
];

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: Tamper,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut tamper = Tamper::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--tamper" => tamper = value.parse()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tamper,
    })
}

/// A scratch directory in the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(format!(".sweepbench-tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&dir)?;
        Ok(Self(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Linear-interpolated quantile of a sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", quantile(&m.setup_s, 0.5), "s"),
        ("points_per_s", m.points as f64 / m.timed_s, "1/s"),
        ("op_ms_p50", quantile(&m.op_s, 0.5) * 1e3, "ms"),
        ("op_ms_p90", quantile(&m.op_s, 0.9) * 1e3, "ms"),
        (
            "store_bytes_per_point",
            m.store_bytes as f64 / m.store_points as f64,
            "B",
        ),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::from(2);
        }
    };
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    let scratch = match ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweepbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tamper: args.tamper,
        dir: scratch.path().to_path_buf(),
    };
    match bench(&args, &ctx) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints its result; `Ok(true)` when every op
/// passed.
fn bench(args: &Args, ctx: &Ctx) -> std::io::Result<bool> {
    let (m, probe) = workloads::run(args.workload, ctx)?;
    for e in &m.setup_errors {
        eprintln!("set-up check failed: {e}");
    }
    let mut correct = m.setup_errors.is_empty();
    let attempted = m.op_s.len();
    let e2e = end_to_end(&m);
    let reported = if args.trace {
        let mut ledger = trace::Ledger::new();
        let layers = probe::run(&mut ledger, ctx, &probe)?;
        ledger.write_summary();
        layers
    } else {
        e2e.clone()
    };

    if let Some((name, ..)) = reported.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("metric {name} is not a finite number");
        correct = false;
    }
    println!(
        "workload {:?}: seed {}, {attempted} op(s) attempted, {} failed, {} point(s) in {:.3} s timed",
        args.workload, args.seed, m.failed, m.points, m.timed_s
    );
    for (name, value, unit) in e2e
        .iter()
        .chain(if args.trace { &reported[..] } else { &[] })
    {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", json(correct, attempted, m.failed, &reported));
    Ok(correct && m.failed == 0)
}
