//! `campaign_mixed`: closed-loop clients submit short jobs to an
//! in-process `JobServer` with pooled thread workers. Jobs interleave
//! three ring designs and alternate the net and threads backends, so
//! per-job fixed costs dominate: admission, the tape cache, placement
//! and the pooled workers' reset or rebuild.

use crate::designs::{self, mix, variant, CAMPAIGN_DESIGNS};
use crate::golden::{self, Outputs};
use crate::phase::{Env, Phase};
use crate::probe::Tracer;
use crate::ring_net::{des_outputs, wire_settings};
use crate::stats;
use fireaxe::net::{
    serve_pooled, NetListener, SpawnedWorker, BACKEND_NET, BACKEND_THREADS, JOB_DONE,
};
use fireaxe::prelude::*;
use fireaxe_serve::{JobOutcome, JobServer, ServeClient, ServeOptions, ServeSetup, SubmitSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "campaign_mixed";

/// Target cycles per job.
pub const CYCLES: u64 = 600;

/// Closed-loop clients, each waiting for its job's result before
/// submitting the next.
pub const CLIENTS: usize = 2;

/// Completions per throughput sample. Four per client spans both
/// backends and, on average, more than one design, so a sample does
/// not swing with which kind of job happened to finish in it.
const THROUGHPUT_GROUP: usize = 4 * CLIENTS;

/// Tail percentile of job latency: a run completes well over 100 jobs,
/// so at least ten lie beyond it.
const TAIL_PCT: f64 = 90.0;

/// One campaign design: its name, circuit tape and partition cut.
struct Design {
    name: &'static str,
    tape: Vec<u8>,
    spec: PartitionSpec,
}

fn designs() -> Vec<Design> {
    CAMPAIGN_DESIGNS
        .iter()
        .map(|&(name, tiles, partitions)| {
            let (circuit, spec) = designs::ring(tiles, partitions);
            Design {
                name,
                tape: fireaxe::ir::circuit_to_tape(&circuit),
                spec,
            }
        })
        .collect()
}

fn submission(d: &Design, backend: u8) -> SubmitSpec {
    SubmitSpec {
        tenant: "bench".to_string(),
        budget: CYCLES,
        backend,
        tape: d.tape.clone(),
        spec: d.spec.clone(),
        settings: wire_settings(CYCLES),
    }
}

/// The numbers in `text` that follow each occurrence of `"field": `.
fn json_u64s(text: &str, field: &str) -> Vec<u64> {
    let pat = format!("\"{field}\": ");
    text.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Checks a job's result against the DES golden of its design.
fn check(env: &Env, v: u64, design: &str, out: &JobOutcome) -> Result<(), String> {
    if out.outcome != JOB_DONE {
        return Err(format!("job {} ({design}) failed: {}", out.job, out.error));
    }
    if out.cycles != CYCLES {
        return Err(format!(
            "job {} ran {} of {CYCLES} cycles",
            out.job, out.cycles
        ));
    }
    let tokens_at = out.metrics_json.find("\"link_tokens\": [").map_or("", |i| {
        let rest = &out.metrics_json[i + 16..];
        &rest[..rest.find(']').unwrap_or(0)]
    });
    let got = Outputs {
        time_ps: 0,
        digests: json_u64s(&out.series_json, "state_digest"),
        tokens: tokens_at
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
    };
    env.goldens
        .check(&golden::key(NAME, v, design, CYCLES), &got, false)
}

/// Design index and backend of client `c`'s `k`-th job. Each client
/// walks the six (design, backend) pairs in a fixed order that
/// alternates backends, from a start the seed picks; the clients start
/// half a cycle apart. Every run thus submits the same mix.
fn job_kind(seed: u64, c: usize, k: u64) -> (usize, u8) {
    let n = CAMPAIGN_DESIGNS.len() as u64;
    let i = (mix(seed) + 3 * c as u64 + k) % (2 * n);
    let backend = if i.is_multiple_of(2) {
        BACKEND_NET
    } else {
        BACKEND_THREADS
    };
    ((i % n) as usize, backend)
}

/// One finished job as a client saw it.
struct Done {
    design: usize,
    backend: u8,
    latency_s: f64,
    done_at_s: f64,
    outcome: Result<JobOutcome, String>,
}

pub fn run(env: &Env, seconds: f64, tracer: &Tracer) -> Result<Phase, String> {
    let designs = designs();
    // One behavior seed per run: the pooled workers' set-up is fixed
    // for the life of the server.
    let v = variant(env.seed, 0);
    let setup = designs::setup(v, None);
    let listener = NetListener::bind("127.0.0.1:0").map_err(|e| format!("server bind: {e}"))?;
    let addr = listener.local_addr_string();
    let worker_setup = setup.clone();
    let spawner: fireaxe_serve::WorkerSpawner = Box::new(move || {
        let worker = NetListener::bind("127.0.0.1:0")?;
        let worker_addr = worker.local_addr_string();
        let setup = worker_setup.clone();
        // Pooled workers serve until the process exits; the server only
        // tracks their addresses.
        std::thread::spawn(move || {
            let _ = serve_pooled(&worker, &setup);
        });
        Ok(SpawnedWorker::external(worker_addr))
    });
    let serve_setup: Arc<ServeSetup> = Arc::new(setup);
    let server = JobServer::start(listener, spawner, serve_setup, ServeOptions::default());
    let mut phase = Phase::begin(tracer, THROUGHPUT_GROUP, TAIL_PCT);

    // Set-up: each design's first submission compiles it (a tape-cache
    // miss) and places it; its admission is the time from submission to
    // the first simulated cycle.
    let mut client = ServeClient::connect(&addr, Duration::from_secs(10))
        .map_err(|e| format!("client connect: {e}"))?;
    let mut cache_hits = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        let (out, _) = tracer.time("serve.submit_and_wait", None, i as u64, || {
            client.submit_and_wait(submission(d, BACKEND_NET))
        });
        let verdict = out
            .map_err(|e| format!("{} prime: {e}", d.name))
            .and_then(|o| {
                phase.setup_s.push(o.admission_micros as f64 * 1e-6);
                cache_hits.push(f64::from(u8::from(o.cache_hit)));
                check(env, v, d.name, &o)
            });
        phase.verdict(verdict);
    }
    drop(client);

    let t0 = Instant::now();
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (designs, addr) = (&designs, &addr);
                s.spawn(move || -> Result<Vec<Done>, String> {
                    let mut client = ServeClient::connect(addr, Duration::from_secs(10))
                        .map_err(|e| format!("client connect: {e}"))?;
                    let mut done = Vec::new();
                    let mut k = 0u64;
                    while t0.elapsed().as_secs_f64() < seconds {
                        let (design, backend) = job_kind(env.seed, c, k);
                        let job = ((c as u64) << 32) | k;
                        let (outcome, latency_s) =
                            tracer.time("serve.submit_and_wait", None, job, || {
                                client.submit_and_wait(submission(&designs[design], backend))
                            });
                        done.push(Done {
                            design,
                            backend,
                            latency_s,
                            done_at_s: t0.elapsed().as_secs_f64(),
                            outcome: outcome.map_err(|e| e.to_string()),
                        });
                        k += 1;
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut done: Vec<Done> = Vec::new();
    for r in results {
        done.extend(r?);
    }
    done.sort_by(|a, b| a.done_at_s.total_cmp(&b.done_at_s));
    let (mut adm_net, mut adm_threads, mut adm_all, mut exec) = (vec![], vec![], vec![], vec![]);
    for d in &done {
        phase.latency_s.push(d.latency_s);
        phase.done_at_s.push(d.done_at_s);
        let verdict = match &d.outcome {
            Ok(o) => {
                let adm_ms = o.admission_micros as f64 / 1e3;
                adm_all.push(adm_ms);
                if d.backend == BACKEND_NET {
                    adm_net.push(adm_ms);
                } else {
                    adm_threads.push(adm_ms);
                }
                exec.push(d.latency_s * 1e3 - adm_ms);
                cache_hits.push(f64::from(u8::from(o.cache_hit)));
                check(env, v, CAMPAIGN_DESIGNS[d.design].0, o)
            }
            Err(e) => Err(e.clone()),
        };
        phase.verdict(verdict);
    }
    let weights = vec![CYCLES as f64; done.len()];
    phase.simulated = phase.groups(&weights);
    phase.layer(
        "obs.tracer_left_on",
        f64::from(u8::from(fireaxe::obs::trace::enabled())),
    );
    drop(server);
    phase.finish(tracer);

    phase.layer("serve.admission_net_p50_ms", stats::median(&adm_net));
    phase.layer(
        "serve.admission_threads_p50_ms",
        stats::median(&adm_threads),
    );
    phase.layer(
        "serve.admission_tail_ms",
        stats::percentile(&adm_all, TAIL_PCT).0,
    );
    phase.layer("serve.exec_p50_ms", stats::median(&exec));
    let hits = cache_hits.iter().sum::<f64>() / cache_hits.len().max(1) as f64;
    phase.layer("serve.cache_hit_ratio", hits);
    Ok(phase)
}

/// Traced-run extras: a standalone partition compile of each design,
/// the work a tape-cache miss does inside admission.
pub fn extras(_env: &Env, tracer: &Tracer, phase: &mut Phase) -> Result<(), String> {
    for &(name, tiles, partitions) in &CAMPAIGN_DESIGNS {
        let (circuit, spec) = designs::ring(tiles, partitions);
        let (design, secs) = tracer.time("ripper.compile", None, u64::MAX, || {
            compile(&circuit, &spec)
        });
        design.map_err(|e| format!("{name} compile: {e}"))?;
        phase.layer("ripper.compile_s", secs);
    }
    Ok(())
}

/// Golden records: DES runs of every design and variant.
pub fn record() -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for &(name, tiles, partitions) in &CAMPAIGN_DESIGNS {
        let (circuit, spec) = designs::ring(tiles, partitions);
        for v in 0..designs::VARIANTS {
            let o = des_outputs(&circuit, &spec, v, CYCLES)?;
            out.push(golden::record(&golden::key(NAME, v, name, CYCLES), &o));
        }
    }
    Ok(out)
}
