//! What one measured phase of a workload hands back.

use crate::golden::Goldens;
use crate::probe::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload needs besides its own inputs.
pub struct Env {
    pub seed: u64,
    pub goldens: Goldens,
    /// Scratch directory inside the checkout (sockets, span dumps).
    pub scratch: PathBuf,
}

/// Tail percentile of job latency for the one-client workloads, whose
/// jobs are sized so that a run completes at least 40 of them: ten or
/// more lie beyond it. The percentile is fixed per workload, so a faster
/// commit, completing more jobs, is not measured further out.
pub const SOLO_TAIL_PCT: f64 = 75.0;

/// Samples of one phase: per-job end-to-end samples, counts, and the
/// per-layer samples the traced phase reads.
#[derive(Debug, Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    /// (target cycles, host seconds) of each stretch of simulation.
    pub simulated: Vec<(f64, f64)>,
    pub latency_s: Vec<f64>,
    /// Completion time of each job, seconds since the phase began, in
    /// completion order.
    pub done_at_s: Vec<f64>,
    /// Completions per `jobs_per_s` sample.
    pub group: usize,
    /// Percentile reported as the latency tail.
    pub tail_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-layer samples; the reported value is their median.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Tracer clock at the start and end of the phase.
    pub start_s: f64,
    pub end_s: f64,
    started: Option<Instant>,
}

impl Phase {
    pub fn begin(tracer: &Tracer, group: usize, tail_pct: f64) -> Phase {
        Phase {
            group,
            tail_pct,
            start_s: tracer.now_s(),
            started: Some(Instant::now()),
            ..Phase::default()
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    pub fn finish(&mut self, tracer: &Tracer) {
        self.end_s = tracer.now_s();
    }

    /// Records one completed job.
    pub fn job(&mut self, latency_s: f64) {
        self.latency_s.push(latency_s);
        self.done_at_s.push(self.elapsed_s());
    }

    /// Counts one attempted operation and its verdict.
    pub fn verdict(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    /// Splits the completions into runs of `group` consecutive jobs:
    /// (sum of the jobs' `weights`, seconds from the previous run's last
    /// completion to this run's last) for each.
    pub fn groups(&self, weights: &[f64]) -> Vec<(f64, f64)> {
        let g = self.group.max(1);
        let mut out = Vec::new();
        let mut prev = 0.0;
        for (chunk_t, chunk_w) in self.done_at_s.chunks_exact(g).zip(weights.chunks_exact(g)) {
            let end = chunk_t[g - 1];
            out.push((chunk_w.iter().sum(), end - prev));
            prev = end;
        }
        out
    }
}
