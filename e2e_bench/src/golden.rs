//! Reference outputs, recorded once from the DES backend (and, for the
//! batch lanes, from sequential compiled runs) and kept in
//! `goldens.txt`. A simulator-only change must reproduce them exactly.
//!
//! One record per line, whitespace-separated:
//! `workload variant design cycles time_ps digests tokens`, where
//! `digests` are comma-separated hex (per node, or per batch lane) and
//! `tokens` comma-separated per-link token totals (`-` when empty).

use fireaxe::obs::MetricsSeries;
use fireaxe::sim::SimMetrics;
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDENS: &str = include_str!("../goldens.txt");

/// Observable outputs of one simulation job.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outputs {
    /// Virtual time of a DES run, ps (0 where the backend has none).
    pub time_ps: u64,
    /// Per-node state digests at the end of the run (per lane for a batch).
    pub digests: Vec<u64>,
    /// Per-link token totals.
    pub tokens: Vec<u64>,
}

impl Outputs {
    /// The outputs of a finished run: each node's last sampled state
    /// digest (runs sample once, at their final cycle), per-link token
    /// totals, and virtual time.
    pub fn of_run(series: &MetricsSeries, metrics: &SimMetrics) -> Outputs {
        Outputs {
            time_ps: metrics.time_ps,
            digests: series
                .nodes
                .iter()
                .map(|n| n.samples.last().map_or(0, |s| s.state_digest))
                .collect(),
            tokens: metrics.link_tokens.clone(),
        }
    }
}

/// Identifies one golden record.
pub type Key = (String, u64, String, u64);

pub fn key(workload: &str, variant: u64, design: &str, cycles: u64) -> Key {
    (workload.to_string(), variant, design.to_string(), cycles)
}

/// The parsed golden table.
pub struct Goldens(HashMap<Key, Outputs>);

impl Goldens {
    pub fn load() -> Result<Goldens, String> {
        let mut map = HashMap::new();
        for (i, line) in GOLDENS.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("goldens.txt line {}: malformed record", i + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 7 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let list = |s: &str, radix: u32| -> Result<Vec<u64>, String> {
                if s == "-" {
                    return Ok(Vec::new());
                }
                s.split(',')
                    .map(|x| u64::from_str_radix(x, radix).map_err(|_| bad()))
                    .collect()
            };
            map.insert(
                key(f[0], num(f[1])?, f[2], num(f[3])?),
                Outputs {
                    time_ps: num(f[4])?,
                    digests: list(f[5], 16)?,
                    tokens: list(f[6], 10)?,
                },
            );
        }
        Ok(Goldens(map))
    }

    /// Compares `got` with the golden record `k`; `check_time` also
    /// compares virtual time (DES runs only). Returns a description of
    /// the first difference.
    pub fn check(&self, k: &Key, got: &Outputs, check_time: bool) -> Result<(), String> {
        let want = self
            .0
            .get(k)
            .ok_or_else(|| format!("no golden record for {k:?}"))?;
        if want.digests != got.digests {
            return Err(format!("{k:?}: state digests differ from the golden run"));
        }
        if want.tokens != got.tokens {
            return Err(format!(
                "{k:?}: link tokens {:?} != golden {:?}",
                got.tokens, want.tokens
            ));
        }
        if check_time && want.time_ps != got.time_ps {
            return Err(format!(
                "{k:?}: virtual time {} ps != golden {} ps",
                got.time_ps, want.time_ps
            ));
        }
        Ok(())
    }
}

/// Renders one record in the `goldens.txt` format.
pub fn record(k: &Key, out: &Outputs) -> String {
    let mut digests = String::new();
    for (i, d) in out.digests.iter().enumerate() {
        let _ = write!(digests, "{}{d:x}", if i > 0 { "," } else { "" });
    }
    let tokens = if out.tokens.is_empty() {
        "-".to_string()
    } else {
        out.tokens
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{} {} {} {} {} {digests} {tokens}",
        k.0, k.1, k.2, k.3, out.time_ps
    )
}
