//! The traced replay: the same points the sweep runs, driven through
//! the library's layers one public call at a time with a span around
//! each call.
//!
//! The replay mirrors the library's warm sweep path (`SimArena`):
//! trace generators and trace buffers are refilled in place
//! (`TraceGenerator::reset_for` / `generate_into`), a machine of the
//! same structure is revived with `CacheSystem::reset_for`, and any
//! other machine is assembled with `CacheSystem::with_structure` on a
//! structure from a shared `StructuralCache`. `CacheSystem::run` is
//! split into its two halves, `warm` and `run_timed`. A CMP point warms
//! with the interleaved warm-up `run_cmp` builds and then calls
//! `run_cmp`, which warms again internally: `warm` *replaces* cache
//! contents, so the explicit call is timed but changes no result, and
//! the `system.timed` span of a CMP point includes that second warm-up.
//!
//! The replay must reproduce the sweep's digests bit for bit; the
//! per-core trace seeds are derived exactly as `SweepPoint` derives
//! them, and the digest check catches any drift.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nucanet::metrics::MetricsCapture;
use nucanet::sweep::derive_seed;
use nucanet::{CacheSystem, StructuralCache, SweepPoint};
use nucanet_workload::{L2Access, SynthConfig, Trace, TraceGenerator};

use crate::spans::{self_times, Span, Tracer};
use crate::stats::PointStats;

/// Stream index `SweepPoint` mixes into `derive_seed` for the trace of
/// core `c > 0` (as `CORE_SEED_STREAM + c`); core 0 keeps the raw seed.
const CORE_SEED_STREAM: u64 = 0xC04E;

/// The trace configuration of core `core` of `point`, derived as the
/// sweep derives it.
pub fn trace_config(point: &SweepPoint, core: u16) -> SynthConfig {
    let seed = if core == 0 {
        point.scale.seed
    } else {
        derive_seed(
            point.scale.seed,
            CORE_SEED_STREAM.wrapping_add(u64::from(core)),
        )
    };
    SynthConfig {
        active_sets: point.scale.active_sets,
        seed,
        ..Default::default()
    }
}

/// One traced pass over a workload's points.
#[derive(Debug)]
pub struct TracedBatch {
    /// Per-point statistics, in input order.
    pub points: Vec<Result<PointStats, String>>,
    /// The recorded spans.
    pub spans: Vec<Span>,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Structures the pass built.
    pub builds: usize,
    /// Points that revived the previous machine.
    pub resets: u64,
    /// Accesses generated (warm-up and measured, every core).
    pub gen_accesses: u64,
    /// Accesses passed to `warm`.
    pub warm_accesses: u64,
}

impl TracedBatch {
    /// Self time per span name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// Summed wall time of the points (their `point` spans).
    pub fn point_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == "point")
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// The worker's reusable state, as in the library's `SimArena`.
struct Worker {
    sys: Option<CacheSystem>,
    gens: Vec<TraceGenerator>,
    traces: Vec<Trace>,
    warm: Vec<L2Access>,
    tracer: Tracer,
    resets: u64,
    gen_accesses: u64,
    warm_accesses: u64,
}

impl Worker {
    fn new(origin: Instant) -> Worker {
        Worker {
            sys: None,
            gens: Vec::new(),
            traces: Vec::new(),
            warm: Vec::new(),
            tracer: Tracer::new(origin),
            resets: 0,
            gen_accesses: 0,
            warm_accesses: 0,
        }
    }

    fn run_point(
        &mut self,
        i: usize,
        point: &SweepPoint,
        structures: &StructuralCache,
    ) -> Result<PointStats, String> {
        let Worker {
            sys: slot,
            gens,
            traces,
            warm,
            tracer,
            resets,
            gen_accesses,
            warm_accesses,
        } = self;
        tracer.span("point", i, |t| {
            let cores = point.config.cores.max(1);
            let n = usize::from(cores);
            let (w, m) = (point.scale.warmup, point.scale.measured);
            t.span("workload.gen", i, |_| {
                for c in 0..n {
                    let syn = trace_config(point, c as u16);
                    match gens.get_mut(c) {
                        Some(g) => g.reset_for(point.profile, syn),
                        None => gens.push(TraceGenerator::new(point.profile, syn)),
                    }
                    match traces.get_mut(c) {
                        Some(tr) => gens[c].generate_into(tr, w, m),
                        None => traces.push(gens[c].generate(w, m)),
                    }
                }
            });
            *gen_accesses += ((w + m) * n) as u64;
            let cfg = &*point.config;
            let mut sys = match slot.take().filter(|s| s.same_machine(cfg)) {
                Some(mut s) => {
                    let revived = t.span("system.reset", i, |_| s.reset_for(cfg));
                    assert!(revived, "same_machine implies reset_for succeeds");
                    *resets += 1;
                    s
                }
                None => {
                    let entry = t
                        .span("system.build", i, |_| structures.get_or_build(cfg, cores))
                        .map_err(|e| e.to_string())?;
                    t.span("system.assemble", i, |_| {
                        CacheSystem::with_structure(cfg, &entry)
                    })
                }
            };
            sys.set_metrics_capture(MetricsCapture::Streaming);
            let traces = &traces[..n];
            let result = if n == 1 {
                *warm_accesses += w as u64;
                t.span("cache.warm", i, |_| sys.warm(traces[0].warmup()));
                t.span("system.timed", i, |_| sys.run_timed(traces[0].measured()))
                    .map(|m| PointStats::from_metrics(&m))
            } else {
                // The round-robin interleave `run_cmp` warms with.
                warm.clear();
                let longest = traces.iter().map(|tr| tr.warmup().len()).max().unwrap_or(0);
                for k in 0..longest {
                    warm.extend(traces.iter().filter_map(|tr| tr.warmup().get(k)));
                }
                *warm_accesses += warm.len() as u64;
                t.span("cache.warm", i, |_| sys.warm(warm));
                t.span("system.timed", i, |_| sys.run_cmp(traces))
                    .map(|per_core| PointStats::from_cores(&per_core))
            };
            if result.is_ok() {
                *slot = Some(sys);
            }
            result.map_err(|e| e.to_string())
        })
    }
}

/// Replays `points` once, in order, on one worker.
pub fn run_batch(points: &[SweepPoint]) -> TracedBatch {
    let origin = Instant::now();
    let structures = StructuralCache::new();
    let mut worker = Worker::new(origin);
    let stats = points
        .iter()
        .enumerate()
        .map(|(i, point)| worker.run_point(i, point, &structures))
        .collect();
    TracedBatch {
        points: stats,
        wall: origin.elapsed(),
        builds: structures.len(),
        resets: worker.resets,
        gen_accesses: worker.gen_accesses,
        warm_accesses: worker.warm_accesses,
        spans: worker.tracer.into_spans(),
    }
}
