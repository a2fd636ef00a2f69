//! What the traced run records, from the benchmark's own code: spans
//! around each call into a layer, call counters on the behavioral
//! models, and host counters read from `/proc` and `getrusage`.
//!
//! Timed runs use the same [`Tracer`] switched off: it then only reads
//! the clock, so both kinds of run time the same calls.

use fireaxe::ir::{BehaviorSnapshot, Bits, ExternBehavior};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span (the job), if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

/// In-memory span recorder. Spans are kept until the run ends and
/// written out by [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span (recorded only when tracing is on).
    pub fn begin(&self, name: &'static str, parent: Option<Open>, job: u64) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                start_s: (start - self.epoch).as_secs_f64(),
                end_s: f64::NAN,
                parent: parent.and_then(|p| p.index),
                job,
            });
            spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `span`; returns its duration in seconds.
    pub fn end(&self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.spans.lock().expect("span list lock")[i].end_s = (end - self.epoch).as_secs_f64();
        }
        (end - span.start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<Open>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(name, parent, job);
        let out = f();
        (out, self.end(span))
    }

    /// Seconds since the tracer was created.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Wall time within `[from_s, to_s]` covered by no closed span other
    /// than the `job` spans that group a job's layer calls.
    pub fn uncovered_s(&self, from_s: f64, to_s: f64) -> f64 {
        let spans = self.spans.lock().expect("span list lock");
        let mut iv: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.name != "job" && s.end_s.is_finite())
            .map(|s| (s.start_s.max(from_s), s.end_s.min(to_s)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = from_s;
        for (a, b) in iv {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        (to_s - from_s - covered).max(0.0)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \
                 \"job\": {}}}",
                s.name,
                s.start_s,
                if s.end_s.is_finite() { s.end_s } else { -1.0 },
                s.job
            )?;
        }
        out.flush()
    }
}

/// Call counters shared by every [`TimedBehavior`] of one run.
#[derive(Debug, Default)]
pub struct BehaviorStats {
    /// Calls of `reset`, `source_outputs`, `comb_outputs` and `tick`.
    pub calls: AtomicU64,
    /// Calls of `tick` alone: one per model per simulated cycle when
    /// nothing is shared between lanes.
    pub ticks: AtomicU64,
    /// Host nanoseconds spent inside the counted calls.
    pub ns: AtomicU64,
}

impl BehaviorStats {
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ticks.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Times and counts the calls into a behavioral model. Every
/// `ExternBehavior` method is forwarded, so the model's outputs and
/// checkpoints are unchanged.
#[derive(Debug)]
pub struct TimedBehavior {
    inner: Box<dyn ExternBehavior>,
    stats: Arc<BehaviorStats>,
}

impl TimedBehavior {
    pub fn wrap(
        inner: Box<dyn ExternBehavior>,
        stats: Arc<BehaviorStats>,
    ) -> Box<dyn ExternBehavior> {
        Box::new(TimedBehavior { inner, stats })
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn ExternBehavior) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl ExternBehavior for TimedBehavior {
    fn reset(&mut self) {
        self.timed(|b| b.reset());
    }

    fn source_outputs(&mut self) -> BTreeMap<String, Bits> {
        self.timed(|b| b.source_outputs())
    }

    fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>) -> BTreeMap<String, Bits> {
        self.timed(|b| b.comb_outputs(inputs))
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.stats.ticks.fetch_add(1, Ordering::Relaxed);
        self.timed(|b| b.tick(inputs));
    }

    fn snapshot(&self) -> Option<BehaviorSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &BehaviorSnapshot) -> bool {
        self.inner.restore(snap)
    }

    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_bytes(bytes)
    }
}

/// On-CPU nanoseconds of the calling thread
/// (`/proc/thread-self/schedstat`, first field); 0 if unreadable.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Process-wide CPU time and context switches, every thread included
/// (also threads that already exited, which `/proc/self/task` no longer
/// lists).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_usage() -> Usage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long` counters of which the last two are the voluntary and
    /// involuntary context switches.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of
    // `struct rusage` on this target (guarded by the cfg above), and
    // getrusage writes only within it.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Usage::default();
    }
    let ns = |tv: [i64; 2]| (tv[0] as u64) * 1_000_000_000 + (tv[1] as u64) * 1_000;
    Usage {
        cpu_ns: ns(ru.utime) + ns(ru.stime),
        ctx_switches: (ru.counters[12] + ru.counters[13]) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_usage() -> Usage {
    Usage::default()
}
