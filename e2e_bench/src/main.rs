//! End-to-end benchmark of FireAxe-rs.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <fig6_des|ring_net|campaign_mixed|seed_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A timed run (`--trace 0`) repeats the workload's job for `--seconds`
//! and prints the end-to-end metrics. A traced run (`--trace 1`) spends
//! half the time untraced and half with spans around every layer call,
//! and prints the per-layer metrics. Every job's outputs are checked
//! against `goldens.txt`; the last line of standard output is one JSON
//! object with the verdict and the metrics. See README.md.
//!
//! `--record-goldens <file>` regenerates the golden outputs.

mod campaign_mixed;
mod designs;
mod fig6_des;
mod golden;
mod phase;
mod probe;
mod ring_net;
mod seed_sweep;
mod stats;

use phase::{Env, Phase};
use probe::Tracer;
use stats::Summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

type RunFn = fn(&Env, f64, &Tracer) -> Result<Phase, String>;
type ExtrasFn = fn(&Env, &Tracer, &mut Phase) -> Result<(), String>;

/// The workloads by name: timed run and traced-run extras.
const WORKLOADS: [(&str, RunFn, ExtrasFn); 4] = [
    (fig6_des::NAME, fig6_des::run, fig6_des::extras),
    (ring_net::NAME, ring_net::run, ring_net::extras),
    (
        campaign_mixed::NAME,
        campaign_mixed::run,
        campaign_mixed::extras,
    ),
    (seed_sweep::NAME, seed_sweep::run, seed_sweep::extras),
];

/// Per-layer metrics a traced run prints, with units. A layer the
/// workload never calls reads 0.
const LAYER_METRICS: [(&str, &str); 29] = [
    ("ripper.compile_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_ns_per_cycle", "ns/cycle"),
    ("ir.monolithic_ns_per_cycle", "ns/cycle"),
    ("ir.defs_run_per_cycle", "count"),
    ("ir.dirty_skip_ratio", "ratio"),
    ("soc.behavior_ns_per_cycle", "ns/cycle"),
    ("soc.behavior_calls_per_cycle", "count"),
    ("sim.tokens_per_cycle", "count"),
    ("net.prepare_s", "s"),
    ("net.place_s", "s"),
    ("net.execute_ns_per_cycle", "ns/cycle"),
    ("net.worker_busy_ns_per_cycle", "ns/cycle"),
    ("net.worker_wait_ns_per_cycle", "ns/cycle"),
    ("net.relay_cpu_ns_per_cycle", "ns/cycle"),
    ("net.ctx_switches_per_cycle", "count"),
    ("serve.admission_net_p50_ms", "ms"),
    ("serve.admission_threads_p50_ms", "ms"),
    ("serve.admission_tail_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("slice.build_s", "s"),
    ("batch.run_ns_per_lane_cycle", "ns/cycle"),
    ("batch.extern_calls_per_lane_cycle", "count"),
    ("batch.distinct_digests", "count"),
    ("batch.gain_vs_sequential", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.tracer_left_on", "flag"),
    ("obs.unattributed_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record-goldens" => args.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Writes a fresh golden table: every workload, every variant.
fn record_goldens(path: &PathBuf) -> Result<(), String> {
    let mut text = String::from(
        "# Golden outputs of e2e_bench, recorded with `--record-goldens`.\n\
         # workload variant design cycles time_ps digests(hex) tokens\n",
    );
    for lines in [
        fig6_des::record()?,
        ring_net::record()?,
        campaign_mixed::record()?,
        seed_sweep::record()?,
    ] {
        for l in lines {
            text.push_str(&l);
            text.push('\n');
        }
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// A metric for the result line: name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// One report line: the metric's value, then n, median and quartiles
/// of the samples it was taken from.
fn describe(report: &mut String, name: &str, unit: &str, value: f64, samples: &[f64]) {
    let s = Summary::of(samples).unwrap_or_default();
    let _ = writeln!(
        report,
        "{name:<22} {value:>12.4} {unit:<8} samples n={:<4} median={:.4} q1={:.4} q3={:.4}",
        s.n, s.median, s.q1, s.q3
    );
}

/// End-to-end metrics of a timed phase. Set-up time and latency are the
/// median (and a tail percentile) of the per-job samples. Throughput is
/// the phase's total work over its total time: unlike a median of
/// per-job rates, it moves smoothly with the share of the run the host
/// spent in a slow spell, rather than jumping between fast and slow.
fn end_to_end(phase: &Phase, report: &mut String) -> Vec<Metric> {
    let setup = stats::median(&phase.setup_s);
    describe(report, "setup_s", "s", setup, &phase.setup_s);
    let mut out = vec![("setup_s", setup, "s")];
    let ones = vec![1.0; phase.done_at_s.len()];
    for (name, unit, work) in [
        ("cycles_per_s", "cycles/s", phase.simulated.clone()),
        ("jobs_per_s", "jobs/s", phase.groups(&ones)),
    ] {
        let total = work.iter().map(|w| w.0).sum::<f64>() / work.iter().map(|w| w.1).sum::<f64>();
        let rates: Vec<f64> = work.iter().map(|w| w.0 / w.1).collect();
        describe(report, name, unit, total, &rates);
        out.push((name, total, unit));
    }
    let latency: Vec<f64> = phase.latency_s.iter().map(|x| x * 1e3).collect();
    let p50 = stats::median(&latency);
    describe(report, "job_latency_p50_ms", "ms", p50, &latency);
    out.push(("job_latency_p50_ms", p50, "ms"));
    let (tail, beyond) = stats::percentile(&latency, phase.tail_pct);
    let _ = writeln!(
        report,
        "{:<22} {tail:>12.4} {:<8} p{} of n={}, {beyond} beyond",
        "job_latency_tail_ms",
        "ms",
        phase.tail_pct,
        latency.len()
    );
    out.push(("job_latency_tail_ms", tail, "ms"));
    let rss = probe::peak_rss_mb();
    let _ = writeln!(report, "{:<22} {rss:>12.4} MB", "peak_rss_mb");
    out.push(("peak_rss_mb", rss, "MB"));
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.record {
        return match record_goldens(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let &(name, run_fn, extras_fn) =
        WORKLOADS
            .iter()
            .find(|w| w.0 == args.workload)
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                format!("--workload must be one of {}", names.join(", "))
            })?;
    let scratch = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let env = Env {
        seed: args.seed,
        goldens: golden::Goldens::load()?,
        scratch,
    };
    let mut report = format!(
        "workload {name}, seed {}, {} s, trace {}, {} CPUs\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (attempted, failed, errors, metrics) = if args.trace {
        let untraced = run_fn(&env, args.seconds / 2.0, &Tracer::new(false))?;
        let tracer = Tracer::new(true);
        let mut traced = run_fn(&env, args.seconds / 2.0, &tracer)?;
        let uncovered = tracer.uncovered_s(traced.start_s, traced.end_s);
        extras_fn(&env, &tracer, &mut traced)?;
        traced.layer(
            "obs.trace_overhead",
            stats::median(&traced.latency_s) / stats::median(&untraced.latency_s),
        );
        traced.layer("obs.unattributed_s", uncovered);
        let spans = env
            .scratch
            .join(format!("spans-{name}-{}.jsonl", args.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        let _ = writeln!(report, "spans written to {}", spans.display());
        let metrics: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(metric, unit)| {
                let v = traced.layers.get(metric).map_or(0.0, |s| stats::median(s));
                let _ = writeln!(report, "{metric:<34} {v:>14.4} {unit}");
                (metric, v, unit)
            })
            .collect();
        let mut errors = untraced.errors;
        errors.extend(traced.errors);
        (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            errors,
            metrics,
        )
    } else {
        let phase = run_fn(&env, args.seconds, &Tracer::new(false))?;
        let metrics = end_to_end(&phase, &mut report);
        (phase.attempted, phase.failed, phase.errors, metrics)
    };
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "error_rate {error_rate} ({failed} of {attempted} failed)"
    );
    for e in &errors {
        let _ = writeln!(report, "error: {e}");
    }
    print!("{report}");
    let correct = failed == 0 && attempted > 0;
    Ok(json_line(correct, attempted, failed, &metrics))
}
