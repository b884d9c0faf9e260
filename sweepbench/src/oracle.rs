//! Correctness checks that do not trust the program: the paper's bounds
//! written out from the `Params` fields, sample counts and maxima
//! recomputed from raw series, and the fleet report parsed back.

use std::collections::BTreeMap;
use wl_core::Params;
use wl_harness::{SkewSketch, SweepOutcome, SweepSeries};

/// The float slack the program's own verdicts allow (`holds` is
/// `observed <= bound + 1e-12` in `wl-analysis`).
const SLACK: f64 = 1e-12;

/// The two bounds every maintenance point must respect.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Theorem 16's agreement bound γ.
    pub gamma: f64,
    /// Theorem 4(a)'s per-round adjustment bound.
    pub adjustment: f64,
}

impl Bounds {
    pub fn of(p: &Params) -> Self {
        let (rho, beta, delta, eps) = (p.rho, p.beta, p.delta, p.eps);
        let s = beta + delta + eps;
        Self {
            // γ = β + ε + ρ(7β + 3δ + 7ε) + 8ρ²(β+δ+ε) + 4ρ³(β+δ+ε)
            gamma: beta
                + eps
                + rho * (7.0 * beta + 3.0 * delta + 7.0 * eps)
                + 8.0 * rho * rho * s
                + 4.0 * rho * rho * rho * s,
            // |ADJ| ≤ (1+ρ)(β+ε) + ρδ
            adjustment: (1.0 + rho) * (beta + eps) + rho * delta,
        }
    }
}

/// Checks one outcome's observed maxima against the bounds, and its
/// verdict flags against the verdicts the bounds give.
pub fn check_outcome(o: &SweepOutcome, b: &Bounds) -> Result<(), String> {
    let agrees = o.max_skew <= b.gamma + SLACK;
    if !agrees {
        return Err(format!(
            "max_skew {:e} exceeds gamma {:e}",
            o.max_skew, b.gamma
        ));
    }
    if o.agreement_holds != agrees {
        return Err("agreement_holds disagrees with max_skew <= gamma".into());
    }
    let adjusts = o.max_abs_adjustment <= b.adjustment + SLACK;
    if !adjusts {
        return Err(format!(
            "max_abs_adjustment {:e} exceeds the Theorem 4(a) bound {:e}",
            o.max_abs_adjustment, b.adjustment
        ));
    }
    if o.adjustment_holds != adjusts {
        return Err("adjustment_holds disagrees with max_abs_adjustment <= bound".into());
    }
    Ok(())
}

/// The sample count and maximum of a series' skew samples, recomputed
/// here: NaN is not a maximum, and ties order by IEEE total order.
fn series_count_max(series: &SweepSeries) -> (u64, f64) {
    let max = series
        .skew_values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(f64::NEG_INFINITY, |m, v| {
            if v.total_cmp(&m).is_gt() {
                v
            } else {
                m
            }
        });
    (series.skew_values.len() as u64, max)
}

/// Checks a stored sketch against the series of a fresh re-run.
pub fn check_sketch(sketch: &SkewSketch, series: &SweepSeries) -> Result<(), String> {
    let (count, max) = series_count_max(series);
    if sketch.count != count || sketch.max.to_bits() != max.to_bits() {
        return Err(format!(
            "sketch (count {}, max {:e}) != recomputed (count {count}, max {max:e})",
            sketch.count, sketch.max
        ));
    }
    Ok(())
}

/// The per-family `(sample count, max)` pairs of a `store_report` text.
pub fn parse_report(report: &str) -> BTreeMap<String, (u64, f64)> {
    let mut out = BTreeMap::new();
    let mut family: Option<String> = None;
    for line in report.lines() {
        if let Some(rest) = line.strip_prefix("family ") {
            family = rest.rsplit_once(": ").map(|(name, _)| name.to_string());
        } else if let Some(rest) = line.trim_start().strip_prefix("skew samples ") {
            let count = rest.split(':').next().and_then(|c| c.parse().ok());
            let max = rest
                .rsplit_once("max ")
                .and_then(|(_, m)| m.trim_end_matches(" s").parse().ok());
            if let (Some(name), Some(count), Some(max)) = (family.take(), count, max) {
                out.insert(name, (count, max));
            }
        }
    }
    out
}
