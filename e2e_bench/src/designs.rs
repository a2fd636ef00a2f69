//! The benchmark's inputs: designs, partition cuts and behavior seeds,
//! all derived from the `--seed` argument; and the unpartitioned
//! compiled run the partitioned and batched runs are compared with.

use crate::probe::{BehaviorStats, TimedBehavior, Tracer};
use fireaxe::ir::{ExecEngine, ExternBehavior, Interpreter};
use fireaxe::prelude::*;
use std::sync::Arc;

/// Behavior-seed variants. A run's seed picks where in this cycle its
/// jobs start; the goldens hold the reference outputs of every variant.
pub const VARIANTS: u64 = 8;

/// Splitmix64: spreads consecutive seeds over the whole `u64` range.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Variant of the `k`-th job of a run with seed `seed`. Consecutive
/// jobs walk through all variants, so every run covers them evenly.
pub fn variant(seed: u64, k: u64) -> u64 {
    (mix(seed) % VARIANTS + k) % VARIANTS
}

/// The behavioral model for `key` with its LCG streams salted by
/// `seed` (the models' `seed` key parameter; 0 is the unsalted model).
pub fn seeded_behavior(key: &str, path: &str, seed: u64) -> Option<Box<dyn ExternBehavior>> {
    let sep = if key.contains('?') { '&' } else { '?' };
    fireaxe::soc::make_behavior(&format!("{key}{sep}seed={seed}"), path)
}

/// A registry serving every SoC model with behavior seed `seed`,
/// optionally wrapped to count and time every call.
pub fn registry(seed: u64, stats: Option<Arc<BehaviorStats>>) -> BehaviorRegistry {
    let mut r = BehaviorRegistry::new();
    r.register_fallback(move |key, path| {
        let model = seeded_behavior(key, path, seed)?;
        Some(match &stats {
            Some(s) => TimedBehavior::wrap(model, Arc::clone(s)),
            None => model,
        })
    });
    r
}

/// The simulation set-up hook every build of a job applies: SoC models
/// with behavior seed `seed`, optionally counted and timed.
pub fn setup(
    seed: u64,
    stats: Option<Arc<BehaviorStats>>,
) -> impl for<'a> Fn(SimBuilder<'a>) -> SimBuilder<'a> + Clone + Send + Sync + 'static {
    move |b| b.behaviors(registry(seed, stats.clone()))
}

/// A ring SoC cut along its NoC routers: `groups` partitions of
/// `tiles / groups` consecutive routers each, plus the rest (subsystem
/// and glue) as the last partition.
fn ring_cut(cfg: RingSocConfig, groups: usize) -> (Circuit, PartitionSpec) {
    let per = cfg.tiles / groups;
    let soc = ring_soc(&cfg);
    let groups: Vec<PartitionGroup> = (0..groups)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect();
    (soc.circuit, PartitionSpec::exact(groups))
}

/// The Fig. 6 SoC configuration: 24 BOOM tiles running the heavy
/// workload that exposes the paper's RTL bug.
fn fig6_config() -> RingSocConfig {
    RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: 150,
        ..Default::default()
    }
}

/// Fig. 6: the 24-tile SoC on 5 simulated FPGAs (4 router groups + rest).
pub fn fig6() -> (Circuit, PartitionSpec) {
    ring_cut(fig6_config(), 4)
}

/// The Fig. 6 SoC unpartitioned, for the batch-of-seeds workload.
pub fn fig6_monolithic() -> Circuit {
    ring_soc(&fig6_config()).circuit
}

/// A `tiles`-tile ring SoC on `partitions` partitions, two routers per
/// router group.
pub fn ring(tiles: usize, partitions: usize) -> (Circuit, PartitionSpec) {
    ring_cut(
        RingSocConfig {
            tiles,
            tile_period: 4,
            ..Default::default()
        },
        partitions - 1,
    )
}

/// The three campaign designs: (name, tiles, partitions).
pub const CAMPAIGN_DESIGNS: [(&str, usize, usize); 3] =
    [("ring4p3", 4, 3), ("ring6p4", 6, 4), ("ring8p5", 8, 5)];

/// `circuit` unpartitioned on one compiled interpreter with behavior
/// seed `seed`, for `cycles` cycles: the final state digest and the host
/// ns per cycle of the step loop. When tracing, the models carry the
/// same timing wrapper as in the traced jobs, so the two compare.
pub fn monolithic_run(
    circuit: &Circuit,
    seed: u64,
    cycles: u64,
    tracer: &Tracer,
) -> Result<(u64, f64), String> {
    let mut interp = Interpreter::with_engine(circuit, ExecEngine::Compiled)
        .map_err(|e| format!("monolithic elaborate: {e}"))?;
    for (path, key, bound) in interp.extern_instances() {
        if !bound {
            let mut model = seeded_behavior(&key, &path, seed)
                .ok_or_else(|| format!("no behavior for `{key}`"))?;
            if tracer.on() {
                model = TimedBehavior::wrap(model, Arc::default());
            }
            interp
                .bind_behavior(&path, model)
                .map_err(|e| format!("monolithic bind: {e}"))?;
        }
    }
    interp.reset();
    let (stepped, secs) = tracer.time("ir.interpreter_step", None, u64::MAX, || {
        (0..cycles).try_for_each(|_| interp.step())
    });
    stepped.map_err(|e| format!("monolithic step: {e}"))?;
    interp.eval().map_err(|e| format!("monolithic eval: {e}"))?;
    Ok((interp.state_digest(), secs * 1e9 / cycles as f64))
}
