//! The benchmark's own tests, at the tiny size.

use nucanet::metrics::MetricsCapture;
use nucanet::{CacheSystem, Metrics};
use nucanet_e2ebench::json::{self, Value};
use nucanet_e2ebench::run::{self, Knobs, Report};
use nucanet_e2ebench::stats::PointStats;
use nucanet_e2ebench::traced::trace_config;
use nucanet_e2ebench::workloads::{Size, Workload, DEFAULT_SEED};
use nucanet_workload::TraceGenerator;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run::run(&Knobs {
        workload,
        size: Size::Tiny,
        seed,
        seconds: 0.0,
        trace,
    })
    .expect("workload builds");
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let Some(Value::Arr(items)) = json::parse(&text).expect("valid JSON").get(key).cloned() else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("metric without a name"),
        })
        .collect()
}

#[test]
fn every_workload_runs_tiny_and_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let plain = tiny(w, DEFAULT_SEED, false);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, end_to_end, "{}", w.name());
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
        let traced = tiny(w, DEFAULT_SEED, true);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, per_layer, "{}", w.name());
        // Untraced and traced passes both ran every point and agreed.
        let points = w.points(Size::Tiny, DEFAULT_SEED).len() as u64;
        assert_eq!(traced.attempted, 2 * points);
        assert!(value(&traced, "system.timed_ms") > 0.0);
        assert!(value(&traced, "noc.flit_hops") > 0.0);
    }
}

#[test]
fn work_counts_repeat_exactly() {
    const COUNTS: [&str; 14] = [
        "workload.accesses",
        "system.builds",
        "system.revive_frac",
        "cache.warm_accesses",
        "noc.sim_cycles",
        "noc.flit_hops",
        "noc.packets",
        "noc.replications",
        "noc.replication_blocked_cycles",
        "noc.route_blocked_cycles",
        "noc.avg_packet_latency",
        "cache.bank_ops",
        "memory.mem_ops",
        "agents.retries",
    ];
    for w in Workload::ALL {
        let a = tiny(w, DEFAULT_SEED, true);
        let b = tiny(w, DEFAULT_SEED, true);
        assert_eq!(a.stats, b.stats, "{}", w.name());
        for name in COUNTS {
            assert_eq!(value(&a, name), value(&b, name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn span_self_times_stay_within_the_traced_wall() {
    for w in Workload::ALL {
        let report = tiny(w, DEFAULT_SEED, true);
        for batch in &report.traced {
            let wall = batch.wall.as_nanos() as u64;
            let self_sum: u64 = batch.self_ns().values().sum();
            assert!(self_sum <= wall, "{}: {self_sum} ns > {wall} ns", w.name());
            // Self times partition the root spans exactly.
            let roots: u64 = batch
                .spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(self_sum, roots, "{}", w.name());
        }
    }
}

#[test]
fn cmp_points_count_system_counters_once() {
    let point = &Workload::HaloCmp.points(Size::Tiny, DEFAULT_SEED)[0];
    let cores = point.config.cores;
    assert!(cores > 1);
    let traces: Vec<_> = (0..cores)
        .map(|c| {
            TraceGenerator::new(point.profile, trace_config(point, c))
                .generate(point.scale.warmup, point.scale.measured)
        })
        .collect();
    let mut sys = CacheSystem::new(&point.config);
    sys.set_metrics_capture(MetricsCapture::Streaming);
    let per_core = sys.run_cmp(&traces).expect("tiny CMP point runs");

    // Every entry carries the same system-wide counters ...
    let first = PointStats::from_metrics(&per_core[0]);
    for m in &per_core[1..] {
        let s = PointStats::from_metrics(m);
        assert_eq!(
            (s.flit_hops, s.packets, s.mem_ops, s.bank_ops),
            (
                first.flit_hops,
                first.packets,
                first.mem_ops,
                first.bank_ops
            )
        );
    }
    // ... so merging sums them once per core ...
    let mut merged: Metrics = per_core[0].clone();
    for m in &per_core[1..] {
        merged.merge(m);
    }
    let raw = PointStats::from_metrics(&merged);
    let n = u64::from(cores);
    assert_eq!(raw.flit_hops, n * first.flit_hops);
    assert_eq!(raw.mem_ops, n * first.mem_ops);
    assert_eq!(raw.bank_ops, n * first.bank_ops);
    // ... and the benchmark counts them once either way.
    let once = PointStats::from_cores(&per_core);
    assert_eq!(PointStats::from_merged(&merged, n), Ok(once));
    assert_eq!(once.flit_hops, first.flit_hops);
    assert_eq!(once.accesses, n * point.scale.measured as u64);
}

#[test]
fn a_held_out_seed_changes_the_inputs_and_still_checks_out() {
    for w in Workload::ALL {
        let default = tiny(w, DEFAULT_SEED, true);
        let held_out = tiny(w, 0x5EED_0F2B, true);
        assert_ne!(default.stats, held_out.stats, "{}", w.name());
    }
}

#[test]
fn recorded_digests_cover_every_paper_point() {
    for w in Workload::ALL {
        let recorded = run::recorded_digests(w);
        assert_eq!(
            recorded.len(),
            w.points(Size::Paper, DEFAULT_SEED).len(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn compare_refuses_records_whose_knobs_differ() {
    let a = tiny(Workload::Fig8Mesh, DEFAULT_SEED, false).record;
    let b = tiny(Workload::Fig8Mesh, DEFAULT_SEED, false).record;
    let rows = run::compare(&a, &b).expect("same knobs compare");
    assert_eq!(rows.len(), declared("end_to_end").len());
    let other = tiny(Workload::Fig8Mesh, 7, false).record;
    assert!(run::compare(&a, &other).is_err());
    // Records survive a render/parse round trip.
    assert_eq!(json::parse(&a.render()).expect("parses"), a);
}
