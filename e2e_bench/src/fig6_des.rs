//! `fig6_des`: the Fig. 6 24-tile BOOM SoC cut by NoC routers onto 5
//! simulated FPGAs, run on the default DES backend. All host time is
//! in-process compute: compiled eval, behavioral models, LI-BDN FSMs
//! and the link timing model.

use crate::designs::{self, variant};
use crate::golden::{self, Outputs};
use crate::phase::{Env, Phase, SOLO_TAIL_PCT};
use crate::probe::{BehaviorStats, Tracer};
use fireaxe::prelude::*;
use std::sync::Arc;

pub const NAME: &str = "fig6_des";

/// Target cycles per job.
pub const CYCLES: u64 = 5_000;

/// Cycles the monolithic interpreter is timed for in the traced run.
const MONOLITHIC_CYCLES: u64 = 4_000;

/// Samples each node once, at the last cycle, for its state digest.
pub fn observe_end(cycles: u64) -> ObsSpec {
    ObsSpec {
        sample_interval: cycles,
        vcd: false,
        signals: Vec::new(),
    }
}

pub fn run(env: &Env, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let (circuit, spec) = designs::fig6();
    let stats = tracer.on().then(|| Arc::new(BehaviorStats::default()));
    let mut phase = Phase::begin(tracer, 1, SOLO_TAIL_PCT);
    let mut k = 0u64;
    let mut sim_cycles = 0u64;
    while phase.elapsed_s() < seconds {
        let v = variant(env.seed, k);
        let job = tracer.begin("job", None, k);
        let (design, compile_s) =
            tracer.time("ripper.compile", Some(job), k, || compile(&circuit, &spec));
        let design = design.map_err(|e| format!("fig6 compile: {e}"))?;
        let (sim, build_s) = tracer.time("sim.build", Some(job), k, || {
            SimBuilder::new(&design)
                .behaviors(designs::registry(v, stats.clone()))
                .observe(observe_end(CYCLES))
                .build()
        });
        let mut sim = sim.map_err(|e| format!("fig6 build: {e}"))?;
        let (metrics, run_s) = tracer.time("sim.run_target_cycles", Some(job), k, || {
            sim.run_target_cycles(CYCLES)
        });
        tracer.end(job);
        let setup_s = compile_s + build_s;
        phase.setup_s.push(setup_s);
        phase.job(setup_s + run_s);
        phase.simulated.push((CYCLES as f64, run_s));
        let verdict = metrics.map_err(|e| format!("fig6 run: {e}")).and_then(|m| {
            let key = golden::key(NAME, v, "fig6", CYCLES);
            env.goldens
                .check(&key, &Outputs::of_run(&sim.obs_report().metrics, &m), true)?;
            let tokens: u64 = m.link_tokens.iter().sum();
            phase.layer("sim.tokens_per_cycle", tokens as f64 / CYCLES as f64);
            Ok(())
        });
        phase.verdict(verdict);
        phase.layer("ripper.compile_s", compile_s);
        phase.layer("sim.build_s", build_s);
        phase.layer("sim.run_ns_per_cycle", run_s * 1e9 / CYCLES as f64);
        let (mut run, mut skipped) = (0u64, 0u64);
        for n in 0..sim.node_names().len() {
            if let Some(s) = sim.target(n).exec_stats() {
                run += s.defs_run;
                skipped += s.defs_skipped;
            }
        }
        phase.layer("ir.defs_run_per_cycle", run as f64 / CYCLES as f64);
        phase.layer(
            "ir.dirty_skip_ratio",
            skipped as f64 / (run + skipped).max(1) as f64,
        );
        phase.layer(
            "obs.tracer_left_on",
            f64::from(u8::from(fireaxe::obs::trace::enabled())),
        );
        sim_cycles += CYCLES;
        k += 1;
    }
    phase.finish(tracer);
    if let Some(s) = stats {
        let (calls, _, ns) = s.get();
        let per = sim_cycles.max(1) as f64;
        phase.layer("soc.behavior_calls_per_cycle", calls as f64 / per);
        phase.layer("soc.behavior_ns_per_cycle", ns as f64 / per);
    }
    Ok(phase)
}

/// Traced-run extras: the same circuit unpartitioned on the compiled
/// interpreter, the eval floor the partitioned run is compared with.
pub fn extras(env: &Env, tracer: &Tracer, phase: &mut Phase) -> Result<(), String> {
    let circuit = designs::fig6_monolithic();
    let (_, ns) =
        designs::monolithic_run(&circuit, variant(env.seed, 0), MONOLITHIC_CYCLES, tracer)?;
    phase.layer("ir.monolithic_ns_per_cycle", ns);
    Ok(())
}

/// Golden records: a DES run of every variant.
pub fn record() -> Result<Vec<String>, String> {
    let (circuit, spec) = designs::fig6();
    let design = compile(&circuit, &spec).map_err(|e| e.to_string())?;
    (0..designs::VARIANTS)
        .map(|v| {
            let mut sim = SimBuilder::new(&design)
                .behaviors(designs::registry(v, None))
                .observe(observe_end(CYCLES))
                .build()
                .map_err(|e| e.to_string())?;
            let m = sim.run_target_cycles(CYCLES).map_err(|e| e.to_string())?;
            let out = Outputs::of_run(&sim.obs_report().metrics, &m);
            eprintln!("{NAME} v{v}: {:.4} MHz modeled", m.target_mhz());
            Ok(golden::record(&golden::key(NAME, v, "fig6", CYCLES), &out))
        })
        .collect()
}
