//! The inputs of every workload, made from the `--seed` argument alone.
//!
//! Grid point `i` of a block takes fault pattern `i % 4` and delay model
//! `(i / 4) % 3`, so every 4-point checkpoint batch holds each fault
//! pattern exactly once: batches cost alike, and the op-time
//! distribution has one mode.

use wl_core::Params;
use wl_harness::{derive_seed, DelayKind, FaultKind, ScenarioSpec};
use wl_sim::ProcessId;
use wl_time::RealTime;

/// The experiments' standard constants (`bench::default_params`):
/// ρ = 1e-6, δ = 10 ms, ε = 1 ms.
pub fn default_params(n: usize, f: usize) -> Params {
    Params::auto(n, f, 1e-6, 0.010, 0.001).expect("default parameters are feasible")
}

const DELAYS: [DelayKind; 3] = [
    DelayKind::Constant,
    DelayKind::Uniform,
    DelayKind::AdversarialSplit,
];

/// Simulated horizon of the maintenance grids, seconds.
const MAINTENANCE_HORIZON_S: f64 = 8.0;

/// A fault pattern: which processes misbehave, and how.
pub type Pattern = Vec<(usize, FaultKind)>;

/// The four n = 7, f = 2 patterns: none; f silent; pull-apart +
/// round-spam; f pull-apart.
fn patterns_n7(params: &Params) -> Vec<Pattern> {
    let pull = FaultKind::PullApart(params.beta / 2.0);
    vec![
        vec![],
        vec![(0, FaultKind::Silent), (1, FaultKind::Silent)],
        vec![(0, pull), (1, FaultKind::RoundSpam)],
        vec![(0, pull), (1, pull)],
    ]
}

/// The four n = 4, f = 1 patterns: none; silent; round-spam; pull-apart.
fn patterns_n4(params: &Params) -> Vec<Pattern> {
    vec![
        vec![],
        vec![(0, FaultKind::Silent)],
        vec![(0, FaultKind::RoundSpam)],
        vec![(0, FaultKind::PullApart(params.beta / 2.0))],
    ]
}

/// A grid family: parameters, horizon and fault patterns; the seed of
/// point `i` is `derive_seed(base, i)`.
#[derive(Clone)]
pub struct GridShape {
    pub params: Params,
    pub horizon_s: f64,
    pub patterns: Vec<Pattern>,
    pub base: u64,
}

impl GridShape {
    pub fn n7_f2(base: u64) -> Self {
        let params = default_params(7, 2);
        let patterns = patterns_n7(&params);
        Self {
            params,
            horizon_s: MAINTENANCE_HORIZON_S,
            patterns,
            base,
        }
    }

    pub fn n4_f1(base: u64) -> Self {
        let params = default_params(4, 1);
        let patterns = patterns_n4(&params);
        Self {
            params,
            horizon_s: MAINTENANCE_HORIZON_S,
            patterns,
            base,
        }
    }

    /// The fold grid (n = 4, f = 1, 2 s): patterns every algorithm
    /// family realizes — none; silent; two-faced (which Welch–Lynch
    /// realizes as pull-apart).
    pub fn fold(base: u64) -> Self {
        let params = default_params(4, 1);
        let patterns = vec![
            vec![],
            vec![(0, FaultKind::Silent)],
            vec![(0, FaultKind::TwoFaced(params.beta / 2.0))],
        ];
        Self {
            params,
            horizon_s: 2.0,
            patterns,
            base,
        }
    }

    /// Points `first .. first + count` of the grid.
    pub fn points(&self, first: u64, count: usize) -> Vec<ScenarioSpec> {
        (first..first + count as u64)
            .map(|i| {
                let slot = i as usize;
                let mut spec = ScenarioSpec::new(self.params.clone())
                    .seed(derive_seed(self.base, i))
                    .delay(DELAYS[(slot / self.patterns.len()) % DELAYS.len()])
                    .t_end(RealTime::from_secs(self.horizon_s));
                for &(p, kind) in &self.patterns[slot % self.patterns.len()] {
                    spec = spec.fault(ProcessId(p), kind);
                }
                spec
            })
            .collect()
    }
}

/// Index offset of warm-up points: far above any timed point, so the
/// warm-up never resolves a point the timed phase will ask for.
pub const WARMUP_FIRST: u64 = 1 << 40;
