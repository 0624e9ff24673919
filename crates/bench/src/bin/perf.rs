//! Measures cycle-kernel throughput (cycles/sec, flit-hops/sec) on the
//! Fig. 7 mesh and Design E halo — burst-and-drain plus closed-loop
//! saturation shapes — and records the perf trajectory in
//! `BENCH_perf.json` (schema `nucanet/perf-v2`).
//!
//! Environment:
//!
//! * `NUCANET_PERF_PACKETS` — packets per configuration (default
//!   20000; CI uses a smaller count).
//! * `NUCANET_PERF_REPEATS` — runs per configuration, keeping the
//!   fastest (default 3). The simulation is deterministic, so repeats
//!   differ only in wall time; the minimum is the least-noisy estimate
//!   of kernel speed.
//! * `NUCANET_SIM_THREADS` — cycle-kernel threads (default 1: serial;
//!   0 auto-detects). Simulated results are bit-identical for any
//!   value; only wall time and the phase breakdown change.
//! * `NUCANET_PERF_CORES` — injector endpoints driving the 32×32
//!   `mesh-giant` closed loop (default 4).
//! * `NUCANET_PERF_MIN_RATIO` — when set (e.g. `0.33`), exit nonzero
//!   if cycles/sec falls below `ratio × baseline` on any config with a
//!   recorded baseline: the CI smoke-perf regression floor.
//! * `NUCANET_PERF_SWEEP_POINTS` — points in the screening-sweep
//!   throughput measurement (default 1000; `0` skips it). The sweep
//!   runs twice — fresh (per-point construction) and warm (structural
//!   cache + reusable arenas) — and both land in the `points_per_sec`
//!   section of `BENCH_perf.json`.
//! * `NUCANET_PERF_SWEEP_WORKERS` — sweep worker threads for the
//!   measurement (default 1: the per-worker speedup, uncontended).
//! * `NUCANET_PERF_SWEEP_MIN_SPEEDUP` — when set (e.g. `1.2`), exit
//!   nonzero if warm points/sec falls below `value × fresh points/sec`:
//!   the warm path's same-machine relative regression floor.
//! * `NUCANET_BENCH_DIR` — where `BENCH_perf.json` lands.

use std::path::PathBuf;

use nucanet::sweep::write_atomically;
use nucanet_bench::perf::{
    baseline_for, giant_sat_throughput, halo_sat_throughput, halo_throughput, mesh_sat_throughput,
    mesh_throughput, render_perf_json_with_sweep, screening_points, sweep_throughput, warm_speedup,
    PerfKnobs, SweepPerfSample,
};
use nucanet_bench::{parse_env_u64, sim_threads_from_env};

fn env_u64(key: &str, default: u64) -> u64 {
    match std::env::var(key) {
        Err(_) => default,
        Ok(v) => match parse_env_u64(&v) {
            Ok(n) => n,
            Err(e) => panic!("bad {key}: {e}"),
        },
    }
}

fn best_of<F: Fn() -> nucanet_bench::perf::PerfSample>(
    repeats: u64,
    run: F,
) -> nucanet_bench::perf::PerfSample {
    (0..repeats.max(1))
        .map(|_| run())
        .min_by_key(|s| s.wall)
        .expect("at least one repeat")
}

fn main() {
    let packets = env_u64("NUCANET_PERF_PACKETS", 20_000);
    let repeats = env_u64("NUCANET_PERF_REPEATS", 3);
    let threads = sim_threads_from_env();
    println!(
        "cycle-kernel throughput ({packets} packets per config, best of {repeats}, sim-threads {threads})"
    );
    let cores = env_u64("NUCANET_PERF_CORES", 4) as u16;
    let knobs = PerfKnobs::new(packets, repeats, cores);
    let samples = vec![
        best_of(repeats, || mesh_throughput(packets, threads)),
        best_of(repeats, || halo_throughput(packets, threads)),
        best_of(repeats, || mesh_sat_throughput(packets, threads)),
        best_of(repeats, || halo_sat_throughput(packets, threads)),
        best_of(repeats, || giant_sat_throughput(packets, threads, cores)),
    ];
    let mut floor_violated = false;
    let min_ratio: Option<f64> = std::env::var("NUCANET_PERF_MIN_RATIO")
        .ok()
        .map(|v| v.parse().expect("NUCANET_PERF_MIN_RATIO must be a float"));
    for s in &samples {
        print!(
            "{:10}  {:>12.0} cycles/s  {:>12.0} flit-hops/s  ({} cycles, {} router visits, {} ms, {} thr)",
            s.config,
            s.cycles_per_sec(),
            s.flit_hops_per_sec(),
            s.cycles,
            s.router_visits,
            s.wall.as_millis(),
            s.threads
        );
        match baseline_for(s.config) {
            Some(b) if b.cycles_per_sec.is_finite() => {
                let ratio = s.cycles_per_sec() / b.cycles_per_sec;
                println!("  {ratio:.2}x vs baseline");
                if let Some(floor) = min_ratio {
                    if ratio < floor {
                        eprintln!(
                            "PERF REGRESSION: {} at {ratio:.2}x of baseline (floor {floor})",
                            s.config
                        );
                        floor_violated = true;
                    }
                }
            }
            _ => println!("  (no baseline recorded)"),
        }
    }
    let sweep_points = env_u64("NUCANET_PERF_SWEEP_POINTS", 1_000);
    let sweep_workers = env_u64("NUCANET_PERF_SWEEP_WORKERS", 1).max(1) as usize;
    let mut sweep_samples: Vec<SweepPerfSample> = Vec::new();
    if sweep_points > 0 {
        let points = screening_points(sweep_points);
        println!(
            "\nsweep throughput ({sweep_points} screening points, {sweep_workers} workers, best of {repeats})"
        );
        for warm in [false, true] {
            let s = (0..repeats.max(1))
                .map(|_| sweep_throughput(&points, sweep_workers, warm))
                .min_by_key(|s| s.wall)
                .expect("at least one repeat");
            println!(
                "{:10}  {:>12.1} points/s  ({} points, {} ms, {} workers)",
                s.mode,
                s.points_per_sec(),
                s.points,
                s.wall.as_millis(),
                s.workers
            );
            sweep_samples.push(s);
        }
        if let Some(x) = warm_speedup(&sweep_samples) {
            println!("warm speedup: {x:.2}x fresh points/sec");
            if let Ok(v) = std::env::var("NUCANET_PERF_SWEEP_MIN_SPEEDUP") {
                let floor: f64 = v.parse().expect("NUCANET_PERF_SWEEP_MIN_SPEEDUP must be a float");
                if x < floor {
                    eprintln!(
                        "PERF REGRESSION: warm sweep at {x:.2}x of fresh (floor {floor})"
                    );
                    floor_violated = true;
                }
            }
        }
    }
    let dir = std::env::var("NUCANET_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = dir.join("BENCH_perf.json");
    match write_atomically(
        &path,
        &render_perf_json_with_sweep(&knobs, &samples, &sweep_samples),
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if floor_violated {
        std::process::exit(2);
    }
}
