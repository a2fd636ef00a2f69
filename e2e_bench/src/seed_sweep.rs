//! `seed_sweep`: one 64-lane `BatchRun` of the Fig. 6 SoC, unpartitioned,
//! each lane with its own behavior seed. The only workload on the
//! bit-sliced engine; the lanes diverge as in a real seed campaign, so
//! model calls can be shared between lanes only until they fork.

use crate::designs::{self, monolithic_run, variant};
use crate::golden::{self, Outputs};
use crate::phase::{Env, Phase, SOLO_TAIL_PCT};
use crate::probe::{BehaviorStats, TimedBehavior, Tracer};
use fireaxe::ir::{ExecEngine, Interpreter, SlicedInterpreter};
use fireaxe::sim::{BatchRun, BatchScenario};
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "seed_sweep";

/// Target cycles per lane per job.
pub const CYCLES: u64 = 200;

/// Lanes per batch (one per bit of a plane word).
pub const LANES: u64 = 64;

/// Behavior seed of `lane` in variant `v`: every lane of every variant
/// gets its own seed.
fn lane_seed(v: u64, lane: u64) -> u64 {
    v * LANES + lane
}

fn scenarios(v: u64) -> Vec<BatchScenario> {
    (0..LANES)
        .map(|l| BatchScenario::new(format!("v{v}/lane{l}"), lane_seed(v, l)))
        .collect()
}

pub fn run(env: &Env, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let circuit = designs::fig6_monolithic();
    let stats = tracer.on().then(|| Arc::new(BehaviorStats::default()));
    let instances = Interpreter::with_engine(&circuit, ExecEngine::Compiled)
        .map_err(|e| format!("seed_sweep elaborate: {e}"))?
        .extern_instances()
        .len() as f64;
    let mut phase = Phase::begin(tracer, 1, SOLO_TAIL_PCT);
    let mut k = 0u64;
    while phase.elapsed_s() < seconds {
        let v = variant(env.seed, k);
        let scns = scenarios(v);
        let factory_stats = stats.clone();
        let batch = BatchRun::new(circuit.clone(), CYCLES).behaviors(move |key, path, seed| {
            let model = designs::seeded_behavior(key, path, seed)?;
            Some(match &factory_stats {
                Some(s) => TimedBehavior::wrap(model, Arc::clone(s)),
                None => model,
            })
        });
        let ticks0 = stats.as_ref().map_or(0, |s| s.get().1);
        let job = tracer.begin("job", None, k);
        // The first stimulus call marks the first simulated cycle: all
        // that precedes it inside `run` is set-up (slice compile, model
        // binding, reset).
        let mut first_cycle: Option<Instant> = None;
        let t0 = Instant::now();
        let (report, latency_s) = tracer.time("batch.run", Some(job), k, || {
            batch.run(&scns, |_, _, _| {
                first_cycle.get_or_insert_with(Instant::now);
            })
        });
        tracer.end(job);
        let setup_s = first_cycle.map_or(latency_s, |t| (t - t0).as_secs_f64());
        let run_s = latency_s - setup_s;
        phase.setup_s.push(setup_s);
        phase.job(latency_s);
        phase.simulated.push(((LANES * CYCLES) as f64, run_s));
        let lane_cycles = (LANES * CYCLES) as f64;
        phase.layer("batch.run_ns_per_lane_cycle", latency_s * 1e9 / lane_cycles);
        if let Some(s) = &stats {
            let ticks = s.get().1 - ticks0;
            phase.layer(
                "batch.extern_calls_per_lane_cycle",
                ticks as f64 / (lane_cycles * instances),
            );
        }
        let verdict = report
            .map_err(|e| format!("seed_sweep run: {e}"))
            .and_then(|r| {
                let mut digests: Vec<u64> = r.results.iter().map(|l| l.digest).collect();
                let got = Outputs {
                    time_ps: 0,
                    digests: digests.clone(),
                    tokens: Vec::new(),
                };
                env.goldens
                    .check(&golden::key(NAME, v, "fig6", CYCLES), &got, false)?;
                digests.sort_unstable();
                digests.dedup();
                phase.layer("batch.distinct_digests", digests.len() as f64);
                Ok(got.digests)
            });
        match verdict {
            Ok(lanes) if tracer.on() => {
                // Replays one lane as its own compiled run: a live
                // cross-check of the sliced lane, and the sequential
                // throughput the batch is compared with.
                let lane = (k * 37) % LANES;
                let seq = monolithic_run(&circuit, lane_seed(v, lane), CYCLES, tracer)?;
                let checked = (seq.0 == lanes[lane as usize])
                    .then_some(())
                    .ok_or_else(|| {
                        format!(
                            "seed_sweep v{v} lane {lane}: sliced digest differs from its replay"
                        )
                    });
                phase.layer("ir.monolithic_ns_per_cycle", seq.1);
                phase.layer(
                    "batch.gain_vs_sequential",
                    seq.1 * lane_cycles / (run_s * 1e9),
                );
                phase.verdict(checked);
            }
            other => phase.verdict(other.map(|_| ())),
        }
        phase.layer(
            "obs.tracer_left_on",
            f64::from(u8::from(fireaxe::obs::trace::enabled())),
        );
        k += 1;
    }
    phase.finish(tracer);
    Ok(phase)
}

/// Traced-run extras: the slice compile `BatchRun::run` does first.
pub fn extras(_env: &Env, tracer: &Tracer, phase: &mut Phase) -> Result<(), String> {
    let circuit = designs::fig6_monolithic();
    for _ in 0..3 {
        let (si, secs) = tracer.time("slice.build", None, u64::MAX, || {
            SlicedInterpreter::new(&circuit, LANES as u32)
        });
        si.map_err(|e| format!("slice build: {e}"))?;
        phase.layer("slice.build_s", secs);
    }
    Ok(())
}

/// Golden records: every lane of every variant as a sequential
/// compiled run.
pub fn record() -> Result<Vec<String>, String> {
    let circuit = designs::fig6_monolithic();
    let off = Tracer::new(false);
    (0..designs::VARIANTS)
        .map(|v| {
            let digests = (0..LANES)
                .map(|l| monolithic_run(&circuit, lane_seed(v, l), CYCLES, &off).map(|r| r.0))
                .collect::<Result<Vec<_>, _>>()?;
            let out = Outputs {
                time_ps: 0,
                digests,
                tokens: Vec::new(),
            };
            Ok(golden::record(&golden::key(NAME, v, "fig6", CYCLES), &out))
        })
        .collect()
}
