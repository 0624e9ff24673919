//! One benchmark run: set-up, the timed closed-loop batches, the output
//! check, and (with tracing on) the traced replay that splits the time
//! by layer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nucanet::metrics::MetricsCapture;
use nucanet::{CacheSystem, StructuralEntry, SweepPoint, SweepRunner};

use crate::json::{obj, Value};
use crate::stats::PointStats;
use crate::traced::{self, TracedBatch};
use crate::workloads::{Size, Workload, DEFAULT_SEED, WORKERS};

/// Default-seed digests, one line per point: `<workload> <index> <hex>`.
const RECORDED_DIGESTS: &str = include_str!("../digests/default_seed.txt");

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Record schema tag.
pub const SCHEMA: &str = "nucanet-e2ebench/v1";

/// Every setting that shapes a run. Records whose knobs differ are not
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Which workload.
    pub workload: Workload,
    /// Batch size.
    pub size: Size,
    /// Workload seed.
    pub seed: u64,
    /// Minimum measured wall time; whole batches run until it is
    /// reached (at least one).
    pub seconds: f64,
    /// Whether to add the traced replay and report per-layer metrics.
    pub trace: bool,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    /// Points attempted (untraced and traced).
    pub attempted: u64,
    /// Points that failed or whose output did not check out.
    pub failed: u64,
    /// The metrics the result line prints: end-to-end without tracing,
    /// per-layer with it.
    pub metrics: Vec<Metric>,
    /// The self-describing record (knobs, host, samples, metrics).
    pub record: Value,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The untraced statistics of every point, from the first batch.
    pub stats: Vec<PointStats>,
    /// The traced batches (empty without tracing).
    pub traced: Vec<TracedBatch>,
}

impl Report {
    /// Whether every point succeeded and checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_obj(&self.metrics)),
        ])
        .render()
    }
}

fn metrics_obj(metrics: &[Metric]) -> Value {
    obj(metrics.iter().map(|m| {
        (
            m.name,
            obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        )
    }))
}

/// The recorded default-seed digests of `workload`, in point order.
pub fn recorded_digests(workload: Workload) -> Vec<u64> {
    RECORDED_DIGESTS
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next()? == workload.name()).then_some(())?;
            f.next()?;
            u64::from_str_radix(f.next()?, 16).ok()
        })
        .collect()
}

/// Checks one point's outcome and returns its digest, or why it
/// failed.
fn check(
    point: &SweepPoint,
    stats: &Result<PointStats, String>,
    expected: Option<u64>,
) -> Result<u64, String> {
    let s = stats.as_ref().map_err(Clone::clone)?;
    let cores = u64::from(point.config.cores.max(1));
    if s.timeouts > 0 {
        return Err(format!("{} accesses timed out", s.timeouts));
    }
    if s.accesses != point.scale.measured as u64 * cores {
        return Err(format!(
            "{} of {} accesses completed",
            s.accesses,
            point.scale.measured as u64 * cores
        ));
    }
    let d = s.digest();
    match expected {
        Some(e) if e != d => Err(format!("digest {d:016x}, expected {e:016x}")),
        _ => Ok(d),
    }
}

/// Tallies attempts and failures against the per-point reference
/// digests: recorded ones where they exist, otherwise the first
/// untraced batch's.
struct Checker<'a> {
    points: &'a [SweepPoint],
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker<'_> {
    fn record(&mut self, pass: &str, i: usize, stats: &Result<PointStats, String>) {
        self.attempted += 1;
        match check(&self.points[i], stats, self.reference[i]) {
            Ok(d) => {
                self.reference[i].get_or_insert(d);
            }
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!(
                        "{pass} point {i} ({}): {why}",
                        self.points[i].label
                    ));
                }
            }
        }
    }
}

/// Median of `v` (sorted in place); 0 when empty.
fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linearly interpolated `q` quantile of `v` (sorted in place); 0 when
/// empty.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-time work before the first point simulates: the point list and
/// the first machine's structure, built and assembled. Returns the
/// median over [`SETUP_REPEATS`] repetitions, in seconds.
fn measure_setup(knobs: &Knobs) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let points = knobs.workload.points(knobs.size, knobs.seed);
        let cfg = &points[0].config;
        let entry = StructuralEntry::build(cfg, cfg.cores).map_err(|e| e.to_string())?;
        let sys = CacheSystem::with_structure(cfg, &Arc::new(entry));
        times.push(start.elapsed().as_secs_f64());
        drop(std::hint::black_box((points, sys)));
    }
    Ok(median(&mut times))
}

/// The host and build the run happened on.
fn host() -> Value {
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("git_rev", Value::Str(git_rev)),
        ("rustc", Value::Str(env!("E2EBENCH_RUSTC").into())),
        ("nproc", Value::Num(nproc() as f64)),
    ])
}

/// Cores this process may use.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The knobs as recorded: everything that shapes the run.
fn knobs_value(knobs: &Knobs, points: &[SweepPoint]) -> Value {
    let p = &points[0];
    obj([
        ("workload", Value::Str(knobs.workload.name().into())),
        (
            "size",
            Value::Str(match knobs.size {
                Size::Paper => "paper".into(),
                Size::Tiny => "tiny".into(),
            }),
        ),
        ("seed", Value::Str(knobs.seed.to_string())),
        ("seconds", Value::Num(knobs.seconds)),
        ("trace", Value::Bool(knobs.trace)),
        ("workers", Value::Num(WORKERS as f64)),
        ("points", Value::Num(points.len() as f64)),
        ("warmup", Value::Num(p.scale.warmup as f64)),
        ("measured", Value::Num(p.scale.measured as f64)),
        ("active_sets", Value::Num(f64::from(p.scale.active_sets))),
        ("cores", Value::Num(f64::from(p.config.cores))),
    ])
}

/// FNV-1a over the per-point digests in order.
fn batch_digest(stats: &[PointStats]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in stats.iter().flat_map(|s| s.digest().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The Fig. 8 reduction: geomean over the benchmarks of Multicast
/// Fast-LRU latency ÷ Unicast LRU latency, as a percentage change, and
/// its distance from the paper's −46 %. `stats` alternate Unicast LRU,
/// Multicast Fast-LRU per benchmark, as [`Workload::points`] builds them.
fn fig8_reduction(stats: &[PointStats]) -> (f64, f64) {
    let lat = |s: &PointStats| s.latency_sum as f64 / s.accesses.max(1) as f64;
    let logs: Vec<f64> = stats
        .chunks(2)
        .map(|c| (lat(&c[1]) / lat(&c[0])).ln())
        .collect();
    let reduction = ((logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0) * 100.0;
    (reduction, (reduction - -46.0).abs())
}

/// The untraced batches of a run.
struct Untraced {
    /// Wall time of each batch.
    batch_s: Vec<f64>,
    /// Wall time of point `i` in every batch, at `point_ms[i]`.
    point_ms: Vec<Vec<f64>>,
    /// Summed point wall time.
    busy: Duration,
    /// Statistics of the first batch's points.
    first: Vec<PointStats>,
}

/// Runs whole batches through the library's warm sweep path until
/// `window` has passed (at least one).
fn run_untraced(points: &[SweepPoint], window: Duration, checker: &mut Checker<'_>) -> Untraced {
    let runner = SweepRunner::with_workers(WORKERS).capture(MetricsCapture::Streaming);
    let mut u = Untraced {
        batch_s: Vec::new(),
        point_ms: vec![Vec::new(); points.len()],
        busy: Duration::ZERO,
        first: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let batch_start = Instant::now();
        let outcomes = runner.try_run(points);
        u.batch_s.push(batch_start.elapsed().as_secs_f64());
        for (i, (out, p)) in outcomes.iter().zip(points).enumerate() {
            let (wall, stats) = match out {
                Ok(o) => (
                    o.wall,
                    PointStats::from_merged(&o.metrics, u64::from(p.config.cores.max(1))),
                ),
                Err(f) => (f.wall, Err(f.error.to_string())),
            };
            u.busy += wall;
            u.point_ms[i].push(wall.as_secs_f64() * 1e3);
            checker.record("untraced", i, &stats);
            if u.first.len() < points.len() {
                u.first.push(stats.unwrap_or_default());
            }
        }
        if start.elapsed() >= window {
            return u;
        }
    }
}

/// Runs the benchmark once, checking default-seed points against the
/// recorded digests: without tracing, untraced batches for the
/// whole window and end-to-end metrics; with tracing, untraced batches
/// for half the window, traced batches for the other half, and
/// per-layer metrics.
///
/// # Errors
///
/// Fails when the workload's machine cannot be built.
pub fn run(knobs: &Knobs) -> Result<Report, String> {
    let recorded = if knobs.seed == DEFAULT_SEED && knobs.size == Size::Paper {
        recorded_digests(knobs.workload)
    } else {
        Vec::new()
    };
    run_against(knobs, &recorded)
}

/// [`run`], checking point `i` against `recorded[i]` where it exists
/// (and otherwise against the first untraced batch).
///
/// # Errors
///
/// Fails when the workload's machine cannot be built.
pub fn run_against(knobs: &Knobs, recorded: &[u64]) -> Result<Report, String> {
    let setup_s = measure_setup(knobs)?;
    let points = knobs.workload.points(knobs.size, knobs.seed);
    let mut checker = Checker {
        points: &points,
        reference: (0..points.len())
            .map(|i| recorded.get(i).copied())
            .collect(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let window = Duration::from_secs_f64(knobs.seconds);
    let untraced_window = if knobs.trace { window / 2 } else { window };
    let mut u = run_untraced(&points, untraced_window, &mut checker);

    let mut record = vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("knobs", knobs_value(knobs, &points)),
        ("host", host()),
        (
            "digest",
            Value::Str(format!("{:016x}", batch_digest(&u.first))),
        ),
    ];
    if knobs.workload == Workload::Fig8Mesh {
        let (reduction, gap) = fig8_reduction(&u.first);
        record.push((
            "fig8",
            obj([
                ("mc_fastlru_vs_unicast_lru_pct", Value::Num(reduction)),
                ("paper_pct", Value::Num(-46.0)),
                ("paper_gap_pct", Value::Num(gap)),
            ]),
        ));
    }
    let mut samples = vec![
        ("batches", Value::Num(u.batch_s.len() as f64)),
        (
            "points",
            Value::Num((u.batch_s.len() * points.len()) as f64),
        ),
    ];

    let mut traced = Vec::new();
    let metrics = if knobs.trace {
        // The same points, one layer call at a time.
        let start = Instant::now();
        loop {
            let batch = traced::run_batch(&points);
            for (i, stats) in batch.points.iter().enumerate() {
                checker.record("traced", i, stats);
            }
            traced.push(batch);
            if start.elapsed() >= window / 2 {
                break;
            }
        }
        samples.push(("traced_batches", Value::Num(traced.len() as f64)));
        let untraced_s: f64 = u.batch_s.iter().sum();
        let busy_frac = u.busy.as_secs_f64() / (WORKERS as f64 * untraced_s);
        let mut traced_s: Vec<f64> = traced.iter().map(|b| b.wall.as_secs_f64()).collect();
        let overhead = (median(&mut traced_s) / median(&mut u.batch_s) - 1.0) * 100.0;
        let (layers, metrics) = layer_metrics(&traced, busy_frac, overhead);
        record.push(("layers_ms_per_batch", layers));
        metrics
    } else {
        let mut totals = PointStats::default();
        for s in &u.first {
            totals.add(s);
        }
        let ok = (checker.attempted - checker.failed) as f64 / checker.attempted as f64;
        // Each point's typical wall time: its median over the batches, so
        // a burst of host noise during one batch does not move it.
        let mut typical: Vec<f64> = u.point_ms.iter_mut().map(|w| median(w)).collect();
        let typical_batch_s = typical.iter().sum::<f64>() / 1e3 / WORKERS as f64;
        vec![
            metric("points_per_s", points.len() as f64 / typical_batch_s, "1/s"),
            metric("point_ms_p50", median(&mut typical), "ms"),
            metric("point_ms_p99", percentile(&mut typical, 0.99), "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("ok_frac", ok, "frac"),
            metric(
                "sim_latency_cycles",
                totals.latency_sum as f64 / totals.accesses.max(1) as f64,
                "cycles",
            ),
        ]
    };
    record.push(("samples", obj(samples)));
    record.push(("metrics", metrics_obj(&metrics)));
    record.push(("attempted", Value::Num(checker.attempted as f64)));
    record.push(("failed", Value::Num(checker.failed as f64)));
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        record: obj(record),
        failures: checker.failures,
        stats: u.first,
        traced,
    })
}

/// Per-layer metrics, averaged per batch over the traced batches, and
/// the layer table for the record (self ms per batch, plus the share of
/// summed point wall time).
fn layer_metrics(
    traced: &[TracedBatch],
    busy_frac: f64,
    overhead_pct: f64,
) -> (Value, Vec<Metric>) {
    let n = traced.len() as f64;
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for b in traced {
        for (name, ns) in b.self_ns() {
            *self_ns.entry(name).or_insert(0) += ns;
        }
    }
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / n / 1e6;
    let per_batch = |f: fn(&TracedBatch) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let point_wall_ms = per_batch(|b| b.point_wall_ns() as f64) / 1e6;
    let points = traced[0].points.len() as f64;
    let gen_accesses = per_batch(|b| b.gen_accesses as f64);
    let warm_accesses = per_batch(|b| b.warm_accesses as f64);
    // Work counts from the traced pass, which reads system-wide
    // counters from one core's entry.
    let mut w = PointStats::default();
    for s in traced[0].points.iter().flatten() {
        w.add(s);
    }
    let per = |num_ms: f64, den: f64| if den > 0.0 { num_ms * 1e6 / den } else { 0.0 };

    let layers = obj(self_ns
        .keys()
        .map(|&name| (name, Value::Num(ms(name))))
        .chain([
            ("point_wall_ms", Value::Num(point_wall_ms)),
            (
                "timed_share_of_point_wall",
                Value::Num(ms("system.timed") / point_wall_ms),
            ),
        ]));
    let metrics = vec![
        metric("workload.gen_ms", ms("workload.gen"), "ms"),
        metric("workload.accesses", gen_accesses, "count"),
        metric(
            "workload.ns_per_access",
            per(ms("workload.gen"), gen_accesses),
            "ns",
        ),
        metric("system.build_ms", ms("system.build"), "ms"),
        metric("system.assemble_ms", ms("system.assemble"), "ms"),
        metric("system.reset_ms", ms("system.reset"), "ms"),
        metric("system.builds", per_batch(|b| b.builds as f64), "count"),
        metric(
            "system.revive_frac",
            per_batch(|b| b.resets as f64) / points,
            "frac",
        ),
        metric("cache.warm_ms", ms("cache.warm"), "ms"),
        metric("cache.warm_accesses", warm_accesses, "count"),
        metric(
            "cache.warm_ns_per_access",
            per(ms("cache.warm"), warm_accesses),
            "ns",
        ),
        metric("system.timed_ms", ms("system.timed"), "ms"),
        metric(
            "system.timed_ns_per_sim_cycle",
            per(ms("system.timed"), w.cycles as f64),
            "ns",
        ),
        metric(
            "system.timed_ns_per_flit_hop",
            per(ms("system.timed"), w.flit_hops as f64),
            "ns",
        ),
        metric("noc.sim_cycles", w.cycles as f64, "cycles"),
        metric("noc.flit_hops", w.flit_hops as f64, "count"),
        metric("noc.packets", w.packets as f64, "count"),
        metric("noc.replications", w.replications as f64, "count"),
        metric(
            "noc.replication_blocked_cycles",
            w.replication_blocked_cycles as f64,
            "cycles",
        ),
        metric(
            "noc.route_blocked_cycles",
            w.route_blocked_cycles as f64,
            "cycles",
        ),
        metric(
            "noc.avg_packet_latency",
            w.packet_latency_sum as f64 / w.packets.max(1) as f64,
            "cycles",
        ),
        metric("cache.bank_ops", w.bank_ops as f64, "count"),
        metric("memory.mem_ops", w.mem_ops as f64, "count"),
        metric("agents.retries", w.retries as f64, "count"),
        metric("agents.timeouts", w.timeouts as f64, "count"),
        metric("sweep.worker_busy_frac", busy_frac, "frac"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    (layers, metrics)
}

/// Pairs the metrics of two records as `(name, old, new)`.
///
/// # Errors
///
/// Refuses records whose knobs differ: their numbers measure different
/// things.
pub fn compare(old: &Value, new: &Value) -> Result<Vec<(String, f64, f64)>, String> {
    let knobs = |r: &Value| r.get("knobs").map_or_else(String::new, Value::render);
    if old.get("knobs").is_none() || old.get("knobs") != new.get("knobs") {
        return Err(format!(
            "records are not comparable, their knobs differ:\n  old: {}\n  new: {}",
            knobs(old),
            knobs(new)
        ));
    }
    let (Some(Value::Obj(a)), Some(b)) = (old.get("metrics"), new.get("metrics")) else {
        return Err("a record has no metrics".into());
    };
    let num = |v: Option<&Value>| v.and_then(|m| m.get("value")).and_then(Value::as_f64);
    Ok(a.iter()
        .filter_map(|(name, va)| Some((name.clone(), num(Some(va))?, num(b.get(name))?)))
        .collect())
}
