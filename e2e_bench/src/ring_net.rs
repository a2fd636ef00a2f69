//! `ring_net`: the 6-tile ring SoC on 4 partitions, run on the net
//! backend over Unix-domain sockets with the workers as in-process
//! threads. Per-partition compute is small, so framing, coordinator
//! relay and socket wake-ups dominate the host time.

use crate::designs::{self, variant};
use crate::fig6_des::observe_end;
use crate::golden::{self, Outputs};
use crate::phase::{Env, Phase, SOLO_TAIL_PCT};
use crate::probe::{self, BehaviorStats, Tracer};
use fireaxe::net::{
    execute_placed, place_cluster, prepare_job, serve, NetListener, RecoveryOptions, SimSetup,
    Teardown, WireSettings,
};
use fireaxe::prelude::*;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "ring_net";

/// Target cycles per job.
pub const CYCLES: u64 = 3_000;

const TILES: usize = 6;
const PARTITIONS: usize = 4;

/// Worker dial timeout, ms.
const CONNECT_TIMEOUT_MS: u64 = 10_000;

/// Wire settings with one state-digest sample per node at `cycles`.
pub fn wire_settings(cycles: u64) -> WireSettings {
    WireSettings {
        sample_interval: cycles,
        ..WireSettings::default()
    }
}

/// On-CPU and wall nanoseconds of one worker thread.
type WorkerTimes = (u64, u64);

pub fn run(env: &Env, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let (circuit, spec) = designs::ring(TILES, PARTITIONS);
    let stats = tracer.on().then(|| Arc::new(BehaviorStats::default()));
    let settings = wire_settings(CYCLES);
    let mut phase = Phase::begin(tracer, 1, SOLO_TAIL_PCT);
    let usage0 = probe::process_usage();
    let main_cpu0 = probe::thread_cpu_ns();
    let mut worker_cpu = 0u64;
    let mut k = 0u64;
    let mut sim_cycles = 0u64;
    while phase.elapsed_s() < seconds {
        let v = variant(env.seed, k);
        let job = tracer.begin("job", None, k);
        let t0 = Instant::now();
        let worker_setup = designs::setup(v, stats.clone());
        let mut addrs = Vec::with_capacity(PARTITIONS);
        let mut workers = Vec::with_capacity(PARTITIONS);
        for i in 0..PARTITIONS {
            let path = env
                .scratch
                .join(format!("ring-{}-{k}-{i}.sock", std::process::id()));
            let listener = NetListener::bind(&format!("unix:{}", path.display()))
                .map_err(|e| format!("worker bind {}: {e}", path.display()))?;
            addrs.push(listener.local_addr_string());
            let setup = worker_setup.clone();
            workers.push(std::thread::spawn(
                move || -> (Result<(), String>, WorkerTimes) {
                    let (cpu0, t) = (probe::thread_cpu_ns(), Instant::now());
                    let out = serve(&listener, &setup).map_err(|e| e.to_string());
                    let cpu = probe::thread_cpu_ns().saturating_sub(cpu0);
                    (out, (cpu, t.elapsed().as_nanos() as u64))
                },
            ));
        }
        let setup: &SimSetup = &designs::setup(v, None);
        let (prepared, prepare_s) = tracer.time("net.prepare_job", Some(job), k, || {
            prepare_job(&circuit, &spec, &settings, setup)
        });
        let prepared = prepared.map_err(|e| format!("ring_net prepare: {e}"))?;
        let (placed, place_s) = tracer.time("net.place_cluster", Some(job), k, || {
            place_cluster(&prepared, &addrs, CONNECT_TIMEOUT_MS)
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let placed = placed.map_err(|e| format!("ring_net place: {e}"))?;
        let (report, exec_s) = tracer.time("net.execute_placed", Some(job), k, || {
            execute_placed(
                &prepared,
                placed,
                CYCLES,
                RecoveryOptions::none(),
                None,
                Teardown::Shutdown,
            )
        });
        let latency_s = t0.elapsed().as_secs_f64();
        let mut verdict = report
            .map_err(|e| format!("ring_net run: {e}"))
            .and_then(|r| {
                let got = Outputs::of_run(&r.series, &r.metrics);
                let tokens: u64 = got.tokens.iter().sum();
                phase.layer("sim.tokens_per_cycle", tokens as f64 / CYCLES as f64);
                env.goldens
                    .check(&golden::key(NAME, v, "ring6p4", CYCLES), &got, false)
            });
        let (mut busy, mut wall) = (0u64, 0u64);
        for w in workers {
            let (out, (cpu, ns)) = w
                .join()
                .map_err(|_| "ring_net worker panicked".to_string())?;
            if let (Err(e), Ok(())) = (out, &verdict) {
                verdict = Err(format!("ring_net worker: {e}"));
            }
            busy += cpu;
            wall += ns;
        }
        tracer.end(job);
        worker_cpu += busy;
        phase.setup_s.push(setup_s);
        phase.job(latency_s);
        phase.simulated.push((CYCLES as f64, exec_s));
        phase.verdict(verdict);
        let per = CYCLES as f64;
        phase.layer("net.prepare_s", prepare_s);
        phase.layer("net.place_s", place_s);
        phase.layer("net.execute_ns_per_cycle", exec_s * 1e9 / per);
        phase.layer("net.worker_busy_ns_per_cycle", busy as f64 / per);
        phase.layer(
            "net.worker_wait_ns_per_cycle",
            wall.saturating_sub(busy) as f64 / per,
        );
        phase.layer(
            "obs.tracer_left_on",
            f64::from(u8::from(fireaxe::obs::trace::enabled())),
        );
        sim_cycles += CYCLES;
        k += 1;
    }
    phase.finish(tracer);
    let usage = probe::process_usage();
    let main_cpu = probe::thread_cpu_ns().saturating_sub(main_cpu0);
    let per = sim_cycles.max(1) as f64;
    let relay = (usage.cpu_ns.saturating_sub(usage0.cpu_ns))
        .saturating_sub(main_cpu)
        .saturating_sub(worker_cpu);
    phase.layer("net.relay_cpu_ns_per_cycle", relay as f64 / per);
    phase.layer(
        "net.ctx_switches_per_cycle",
        usage.ctx_switches.saturating_sub(usage0.ctx_switches) as f64 / per,
    );
    if let Some(s) = stats {
        let (calls, _, ns) = s.get();
        phase.layer("soc.behavior_calls_per_cycle", calls as f64 / per);
        phase.layer("soc.behavior_ns_per_cycle", ns as f64 / per);
    }
    Ok(phase)
}

/// Traced-run extras: a standalone partition compile of the design the
/// workers compile inside `place_cluster`, and the unpartitioned
/// circuit on the compiled interpreter.
pub fn extras(env: &Env, tracer: &Tracer, phase: &mut Phase) -> Result<(), String> {
    let (circuit, spec) = designs::ring(TILES, PARTITIONS);
    for _ in 0..3 {
        let (design, secs) = tracer.time("ripper.compile", None, u64::MAX, || {
            compile(&circuit, &spec)
        });
        design.map_err(|e| format!("ring compile: {e}"))?;
        phase.layer("ripper.compile_s", secs);
    }
    let (_, ns) = designs::monolithic_run(&circuit, variant(env.seed, 0), 10 * CYCLES, tracer)?;
    phase.layer("ir.monolithic_ns_per_cycle", ns);
    Ok(())
}

/// DES reference outputs of one ring design with behavior seed `v`.
pub fn des_outputs(
    circuit: &Circuit,
    spec: &PartitionSpec,
    v: u64,
    cycles: u64,
) -> Result<Outputs, String> {
    let design = compile(circuit, spec).map_err(|e| e.to_string())?;
    let mut sim = SimBuilder::new(&design)
        .behaviors(designs::registry(v, None))
        .observe(observe_end(cycles))
        .build()
        .map_err(|e| e.to_string())?;
    let m = sim.run_target_cycles(cycles).map_err(|e| e.to_string())?;
    Ok(Outputs::of_run(&sim.obs_report().metrics, &m))
}

/// Golden records: DES runs of the same design, variants and budget.
pub fn record() -> Result<Vec<String>, String> {
    let (circuit, spec) = designs::ring(TILES, PARTITIONS);
    (0..designs::VARIANTS)
        .map(|v| {
            let out = des_outputs(&circuit, &spec, v, CYCLES)?;
            Ok(golden::record(
                &golden::key(NAME, v, "ring6p4", CYCLES),
                &out,
            ))
        })
        .collect()
}
