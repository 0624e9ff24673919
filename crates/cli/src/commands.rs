//! Subcommand implementations. Each returns its output as a `String` so
//! the binary stays a two-line shell and tests can assert on content.

use nucanet::area::{analyze, unused_area_mm2};
use nucanet::config::ALL_DESIGNS;
use nucanet::energy::energy_of_run;
use nucanet::experiments::{run_cell, run_config, ExperimentScale};
use nucanet::scheme::ALL_SCHEMES;
use nucanet::sweep::{capacity_points, render_json_results, write_atomically, SweepRunner};
use nucanet::{CacheSystem, FaultConfig, Scheme};
use nucanet_bench::perf::{
    baseline_for, giant_sat_throughput, halo_sat_throughput, halo_throughput, mesh_sat_throughput,
    mesh_throughput, parse_baseline, render_perf_json_with_sweep, screening_points,
    sweep_throughput, warm_speedup, PerfKnobs, SweepPerfSample,
};
use nucanet_noc::{
    run_fuzz, FuzzOptions, LinkCensus, MulticastStrategy, NodeId, RoutingSpec, Topology,
};
use nucanet_workload::{CoreModel, SynthConfig, Trace, TraceGenerator};

use crate::args::{Args, ParseError};
use crate::render::{metrics_line, Table};

/// Executes `args` and returns the text to print.
///
/// # Errors
///
/// Returns a [`ParseError`] (rendered by the binary) on bad options or
/// an unknown subcommand.
pub fn run_command(args: &Args) -> Result<String, ParseError> {
    match args.command.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "designs" => cmd_designs(args),
        "area" => Ok(cmd_area()),
        "energy" => cmd_energy(args),
        "census" => Ok(cmd_census()),
        "sweep" => cmd_sweep(args),
        "perf" => cmd_perf(args),
        "fuzz" => cmd_fuzz(args),
        "trace" => cmd_trace(args),
        "replay" => cmd_replay(args),
        "help" | "--help" | "-h" => Ok(help_text()),
        other => Err(ParseError::BadValue {
            key: "command".into(),
            value: other.into(),
            expected: "run|compare|designs|area|energy|census|sweep|perf|fuzz|trace|replay|help",
        }),
    }
}

/// The help screen.
pub fn help_text() -> String {
    "nucanet — networked NUCA cache simulator (HPCA'07 reproduction)\n\
     \n\
     usage: nucanet <command> [--key value ...]\n\
     \n\
     commands:\n\
     \x20 run      simulate one (design, scheme, benchmark) cell\n\
     \x20 compare  all replacement schemes on one design\n\
     \x20 designs  all network designs under one scheme\n\
     \x20 area     Table 4 area analysis for every design\n\
     \x20 energy   per-access dynamic energy split (§7 extension)\n\
     \x20 census   link-utilisation analysis of the 16x16 mesh\n\
     \x20 sweep    parallel mesh-vs-halo capacity sweep (4..32 MB)\n\
     \x20 perf     cycle-kernel throughput on the Fig. 7 mesh and halo\n\
     \x20 fuzz     differential fuzz: fast simulator vs golden model\n\
     \x20 trace    print a synthetic L2 trace (addr,write per line)\n\
     \x20 replay   run a trace file through a design (--file PATH)\n\
     \n\
     common options:\n\
     \x20 --design A..F        network design (default A)\n\
     \x20 --scheme NAME        promotion|lru|fastlru|mc-promotion|mc-fastlru|static\n\
     \x20 --bench NAME         Table 2 benchmark (default gcc)\n\
     \x20 --accesses N         measured accesses (default 2000)\n\
     \x20 --warmup N           warm-up accesses (default 20000)\n\
     \x20 --cores K            cores sharing the cache (run/sweep: closed-loop\n\
     \x20                      CMP mode; perf: mesh-giant injectors; default 1)\n\
     \x20 --seed N             workload seed\n\
     \x20 --strategy NAME      multicast replication strategy for run/\n\
     \x20                      sweep/perf/fuzz: hybrid (paper default),\n\
     \x20                      tree, or path (default: NUCANET_STRATEGY\n\
     \x20                      or hybrid; fuzz samples per scenario)\n\
     \x20 --workers N          sweep worker threads (default: all cores)\n\
     \x20 --sim-threads N      cycle-kernel threads per simulated network\n\
     \x20                      (default: NUCANET_SIM_THREADS or 1; 0 = auto;\n\
     \x20                      results are bit-identical for any value)\n\
     \x20 --json PATH          sweep/perf: also write machine-readable JSON\n\
     \x20 --baseline PATH      perf only: compare against a recorded BENCH_perf*.json\n\
     \x20                      (files from a different perf schema, or taken with\n\
     \x20                      other --packets/--repeats/--cores/--strategy, are\n\
     \x20                      refused)\n\
     \x20 --sweep-points N     perf only: also time an N-point screening sweep\n\
     \x20                      fresh vs warm (arena reuse), reporting points/sec\n\
     \x20 --faults N           sweep only: inject N random link faults per point\n\
     \x20 --fault-repair C     sweep only: repair each injected fault after C cycles\n\
     \x20 --check 1            run/sweep: enable the runtime invariant checker\n\
     \x20 --iters N            fuzz: scenarios to run (default 200)\n\
     \x20 --cross-strategy 1   fuzz: run every scenario under all three\n\
     \x20                      strategies and compare their delivered\n\
     \x20                      (packet, endpoint) multisets\n\
     \x20 --cmp-iters N        fuzz: CMP determinism scenarios, 2-4 cores\n\
     \x20                      across sim-thread counts (default 10)\n\
     \x20 --warm-iters N       fuzz: reset-and-replay scenarios — each runs\n\
     \x20                      fresh, then again on the same network after\n\
     \x20                      reset(), asserting bit-identical deliveries\n\
     \x20                      and counters (default 0)\n\
     \x20 --csv 1              emit CSV instead of aligned text\n\
     \n\
     A sweep point whose faults partition the network fails alone\n\
     (watchdog error in the table and JSON); the other points complete.\n"
        .into()
}

/// Cycle-kernel thread count: `--sim-threads N` when given, else the
/// `NUCANET_SIM_THREADS` environment variable, else 1 (serial kernel).
/// `0` auto-detects the host's core count. Simulated results are
/// bit-identical for every value.
fn sim_threads_of(args: &Args) -> Result<u32, ParseError> {
    if args.get("sim-threads").is_some() {
        Ok(args.get_usize("sim-threads", 1)? as u32)
    } else {
        Ok(nucanet_bench::sim_threads_from_env())
    }
}

/// `--strategy NAME` when given, else the `NUCANET_STRATEGY`
/// environment variable, else `None` (the config keeps the paper's
/// hybrid default). Delivered packets are identical under every
/// strategy; latency and replication counters move.
fn strategy_of(args: &Args) -> Result<Option<MulticastStrategy>, ParseError> {
    match args.strategy()? {
        Some(s) => Ok(Some(s)),
        None => Ok(nucanet_bench::strategy_from_env()),
    }
}

/// `--cores K`: the CMP core count (default 1). Zero and values beyond
/// the topology's attachment points are *configuration* errors reported
/// by the layout builder, so only the integer range is checked here.
fn cores_of(args: &Args) -> Result<u16, ParseError> {
    let raw = args.get_usize("cores", 1)?;
    u16::try_from(raw).map_err(|_| ParseError::BadValue {
        key: "cores".into(),
        value: raw.to_string(),
        expected: "a core count that fits in 16 bits",
    })
}

fn scale_of(args: &Args) -> Result<ExperimentScale, ParseError> {
    Ok(ExperimentScale {
        warmup: args.get_usize("warmup", 20_000)?,
        measured: args.get_usize("accesses", 2_000)?,
        active_sets: args.get_usize("sets", 256)? as u32,
        seed: args.get_usize("seed", 0xCAFE)? as u64,
    })
}

fn cmd_run(args: &Args) -> Result<String, ParseError> {
    let design = args.design()?;
    let scheme = args.scheme()?;
    let bench = args.benchmark()?;
    let scale = scale_of(args)?;
    let cores = cores_of(args)?;
    let check = args.get("check") == Some("1");
    let sim_threads = sim_threads_of(args)?;
    let strategy = strategy_of(args)?;

    if cores == 1 {
        let mut cfg = design.config(scheme);
        cfg.check_invariants = check;
        cfg.router.sim_threads = sim_threads;
        if let Some(s) = strategy {
            cfg.router.strategy = s;
        }
        let (m, ipc) = run_config(&cfg, &bench, scale)
            .map_err(|e| ParseError::SimulationFailed(e.to_string()))?;
        let note = if check { "\ninvariants checked: ok" } else { "" };
        return Ok(format!(
            "{design:?} / {scheme} / {}\n{}\nIPC {ipc:.3} (perfect-L2 {:.2}){note}\n",
            bench.name,
            metrics_line(&m),
            bench.perfect_l2_ipc
        ));
    }
    // CMP: every core runs the same profile with a different seed.
    let mut cfg = design.config(scheme);
    cfg.check_invariants = check;
    cfg.router.sim_threads = sim_threads;
    if let Some(s) = strategy {
        cfg.router.strategy = s;
    }
    let mut sys = CacheSystem::try_with_cores(&cfg, cores)
        .map_err(|e| ParseError::InvalidConfig(e.to_string()))?;
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let mut gen = TraceGenerator::new(
                bench,
                SynthConfig {
                    active_sets: scale.active_sets,
                    seed: scale.seed + i as u64,
                    ..Default::default()
                },
            );
            gen.generate(scale.warmup, scale.measured)
        })
        .collect();
    let ms = sys
        .run_cmp(&traces)
        .map_err(|e| ParseError::SimulationFailed(e.to_string()))?;
    let mut out = format!("{design:?} / {scheme} / {} x{cores} cores\n", bench.name);
    for (i, m) in ms.iter().enumerate() {
        out.push_str(&format!("core {i}: {}\n", metrics_line(m)));
    }
    Ok(out)
}

fn cmd_compare(args: &Args) -> Result<String, ParseError> {
    let design = args.design()?;
    let bench = args.benchmark()?;
    let scale = scale_of(args)?;
    let mut t = Table::new(vec!["scheme", "avg", "hit", "miss", "hitrate", "ipc"]);
    for scheme in ALL_SCHEMES.into_iter().chain([Scheme::StaticNuca]) {
        // Static NUCA only routes on the full mesh and halo.
        if scheme == Scheme::StaticNuca
            && !matches!(design, nucanet::Design::A | nucanet::Design::E)
        {
            continue;
        }
        let (m, ipc) = run_cell(design, scheme, &bench, scale);
        t.push(vec![
            scheme.name().to_string(),
            format!("{:.1}", m.avg_latency()),
            format!("{:.1}", m.avg_hit_latency()),
            format!("{:.1}", m.avg_miss_latency()),
            format!("{:.3}", m.hit_rate()),
            format!("{ipc:.3}"),
        ]);
    }
    Ok(render(args, t))
}

fn cmd_designs(args: &Args) -> Result<String, ParseError> {
    let scheme = args.scheme()?;
    let bench = args.benchmark()?;
    let scale = scale_of(args)?;
    let mut t = Table::new(vec!["design", "interconnect", "avg", "ipc", "norm"]);
    let mut base_ipc = None;
    for d in ALL_DESIGNS {
        // Static NUCA needs uniform bank counts AND routable fills to
        // every bank — only the full mesh (A) and halo (E) qualify.
        if scheme == Scheme::StaticNuca && !matches!(d, nucanet::Design::A | nucanet::Design::E) {
            continue;
        }
        let (m, ipc) = run_cell(d, scheme, &bench, scale);
        let base = *base_ipc.get_or_insert(ipc);
        t.push(vec![
            format!("{d:?}"),
            d.interconnect_description().to_string(),
            format!("{:.1}", m.avg_latency()),
            format!("{ipc:.3}"),
            format!("{:.3}", ipc / base),
        ]);
    }
    Ok(render(args, t))
}

fn cmd_area() -> String {
    let mut t = Table::new(vec![
        "design",
        "bank%",
        "router%",
        "link%",
        "L2 mm2",
        "chip mm2",
        "unused mm2",
    ]);
    for d in ALL_DESIGNS {
        let a = analyze(d);
        let (b, r, l) = a.breakdown.shares();
        t.push(vec![
            format!("{d:?}"),
            format!("{:.1}", 100.0 * b),
            format!("{:.1}", 100.0 * r),
            format!("{:.1}", 100.0 * l),
            format!("{:.1}", a.breakdown.l2_mm2()),
            format!("{:.1}", a.chip_mm2),
            format!("{:.1}", unused_area_mm2(&a)),
        ]);
    }
    t.to_text()
}

fn cmd_energy(args: &Args) -> Result<String, ParseError> {
    let design = args.design()?;
    let scheme = args.scheme()?;
    let bench = args.benchmark()?;
    let scale = scale_of(args)?;
    let (m, _) = run_cell(design, scheme, &bench, scale);
    let e = energy_of_run(&design.config(scheme), &m);
    let n = m.accesses() as f64;
    Ok(format!(
        "{design:?} / {scheme} / {}: {:.1} pJ per access\n\
         \x20 link {:.1}  router {:.1}  bank {:.1}  memory {:.1}  (network share {:.0}%)\n",
        bench.name,
        e.per_access_pj(),
        e.link_pj / n,
        e.router_pj / n,
        e.bank_pj / n,
        e.memory_pj / n,
        100.0 * e.network_share()
    ))
}

fn cmd_census() -> String {
    let unit = |n: u16| vec![1u32; n as usize];
    let topo = Topology::mesh(16, 16, &unit(15), &unit(15));
    let rt = RoutingSpec::Xy.build(&topo).expect("mesh routes under XY");
    let core = topo.node_at(7, 0);
    let memory = topo.node_at(8, 15);
    let mut flows: Vec<(NodeId, NodeId)> = Vec::new();
    for c in 0..16 {
        for r in 0..16 {
            let bank = topo.node_at(c, r);
            flows.push((core, bank));
            flows.push((bank, core));
            if r + 1 < 16 {
                flows.push((bank, topo.node_at(c, r + 1)));
                flows.push((topo.node_at(c, r + 1), bank));
            }
        }
        flows.push((memory, topo.node_at(c, 0)));
        flows.push((topo.node_at(c, 15), memory));
    }
    let census = LinkCensus::from_flows(&topo, &rt, &flows);
    let simp = Topology::simplified_mesh(16, 16, &unit(15), &unit(15));
    format!(
        "16x16 mesh under XY with cache traffic: {}/{} links never used ({:.0}%)\n\
         simplified mesh keeps {} links (removes {})\n\
         paper §1: \"20% of the links in a mesh network are never used\"\n",
        census.unused(),
        census.total(),
        100.0 * census.unused_fraction(),
        simp.link_count(),
        topo.link_count() - simp.link_count()
    )
}

/// Cycle window in which `--faults` places random link failures. Warm-up
/// is functional (no cycles), so even the smallest sweep point simulates
/// well past this window and every scheduled fault actually lands.
const FAULT_WINDOW: (u64, u64) = (1, 1_000);

fn cmd_sweep(args: &Args) -> Result<String, ParseError> {
    let bench = args.benchmark()?;
    let scale = scale_of(args)?;
    let workers = args.get_usize("workers", 0)?;
    let faults = args.get_usize("faults", 0)?;
    let repair = args.get_usize("fault-repair", 0)?;
    let cores = cores_of(args)?.max(1);
    let runner = if workers == 0 {
        SweepRunner::new()
    } else {
        SweepRunner::with_workers(workers)
    };
    let mut points = capacity_points(bench, scale);
    let sim_threads = sim_threads_of(args)?;
    let strategy = strategy_of(args)?;
    for p in &mut points {
        let cfg = std::sync::Arc::make_mut(&mut p.config);
        cfg.router.sim_threads = sim_threads;
        if let Some(s) = strategy {
            cfg.router.strategy = s;
        }
        // CMP sweep: every point runs the closed-loop N-core mode with
        // per-core derived traces (bit-identical for any worker count).
        cfg.cores = cores;
        if cores > 1 {
            p.label = format!("{} x{cores} cores", p.label).into();
        }
    }
    if args.get("check") == Some("1") {
        for p in &mut points {
            std::sync::Arc::make_mut(&mut p.config).check_invariants = true;
        }
    }
    if faults > 0 {
        let fc = FaultConfig::random(
            faults as u32,
            FAULT_WINDOW,
            (repair > 0).then_some(repair as u64),
        );
        for p in &mut points {
            std::sync::Arc::make_mut(&mut p.config).faults = Some(fc.clone());
        }
    }
    let results = runner.try_run(&points);
    let mut t = Table::new(vec![
        "point", "avg", "p50", "p95", "p99", "hitrate", "ipc", "status",
    ]);
    let mut failures = Vec::new();
    for r in &results {
        match r {
            Ok(o) => {
                let p = |q: f64| {
                    o.metrics
                        .latency_percentile(q)
                        .map_or_else(|| "-".into(), |v| v.to_string())
                };
                let status = if o.metrics.net.link_down_events > 0 {
                    format!("ok ({} faults)", o.metrics.net.link_down_events)
                } else {
                    "ok".into()
                };
                t.push(vec![
                    o.label.to_string(),
                    format!("{:.1}", o.metrics.avg_latency()),
                    p(0.50),
                    p(0.95),
                    p(0.99),
                    format!("{:.3}", o.metrics.hit_rate()),
                    format!("{:.3}", o.ipc),
                    status,
                ]);
            }
            Err(f) => {
                let dash = || "-".to_string();
                t.push(vec![
                    f.label.to_string(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    format!("error: {}", f.error.kind()),
                ]);
                failures.push(f);
            }
        }
    }
    let mut out = render(args, t);
    for f in &failures {
        out.push_str(&format!("point '{}' failed: {}\n", f.label, f.error));
    }
    if !failures.is_empty() {
        out.push_str(&format!(
            "{}/{} points failed; surviving results are reported above (degraded sweep)\n",
            failures.len(),
            results.len()
        ));
    }
    if let Some(path) = args.get("json") {
        let json = render_json_results("sweep", runner.workers(), &points, &results);
        write_atomically(std::path::Path::new(path), &json).map_err(|e| ParseError::BadValue {
            key: "json".into(),
            value: format!("{path}: {e}"),
            expected: "a writable path",
        })?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

fn cmd_perf(args: &Args) -> Result<String, ParseError> {
    let packets = args.get_usize("packets", 5_000)? as u64;
    let repeats = args.get_usize("repeats", 1)?.max(1);
    let threads = sim_threads_of(args)?;
    let cores = cores_of(args)?.max(1);
    // The perf harness reads its router parameters from the
    // environment, so `--strategy` is forwarded through the variable
    // the bench binaries already honour.
    if let Some(s) = args.strategy()? {
        std::env::set_var("NUCANET_STRATEGY", s.name());
    }
    let knobs = PerfKnobs::new(packets, repeats as u64, cores);
    let best = |run: &dyn Fn() -> nucanet_bench::perf::PerfSample| {
        (0..repeats)
            .map(|_| run())
            .min_by_key(|s| s.wall)
            .expect("repeats >= 1")
    };
    let samples = vec![
        best(&|| mesh_throughput(packets, threads)),
        best(&|| halo_throughput(packets, threads)),
        best(&|| mesh_sat_throughput(packets, threads)),
        best(&|| halo_sat_throughput(packets, threads)),
        best(&|| giant_sat_throughput(packets, threads, cores)),
    ];
    let mut out = format!(
        "cycle-kernel throughput ({packets} packets, best of {repeats}, sim-threads {threads})\n"
    );
    for s in &samples {
        out.push_str(&format!(
            "{:10} {:>12.0} cycles/s {:>12.0} flit-hops/s ({} cycles, {} router visits, {} ms, {} thr)",
            s.config,
            s.cycles_per_sec(),
            s.flit_hops_per_sec(),
            s.cycles,
            s.router_visits,
            s.wall.as_millis(),
            s.threads
        ));
        match baseline_for(s.config) {
            Some(b) if b.cycles_per_sec.is_finite() => out.push_str(&format!(
                "  {:.2}x vs baseline\n",
                s.cycles_per_sec() / b.cycles_per_sec
            )),
            _ => out.push('\n'),
        }
        if s.threads > 1 {
            out.push_str(&format!(
                "{:10}   gate: {} parallel / {} serial cycles, dispatch {:.1} ms\n",
                "",
                s.adaptive_parallel_cycles,
                s.adaptive_serial_cycles,
                s.dispatch_ns as f64 / 1e6
            ));
        }
    }
    let mut sweep_samples: Vec<SweepPerfSample> = Vec::new();
    let sweep_points = args.get_usize("sweep-points", 0)? as u64;
    if sweep_points > 0 {
        let points = screening_points(sweep_points);
        out.push_str(&format!(
            "sweep throughput ({sweep_points} screening points, 1 worker, best of {repeats})\n"
        ));
        for warm in [false, true] {
            let s = (0..repeats)
                .map(|_| sweep_throughput(&points, 1, warm))
                .min_by_key(|s| s.wall)
                .expect("repeats >= 1");
            out.push_str(&format!(
                "{:10} {:>12.1} points/s  ({} points, {} ms)\n",
                s.mode,
                s.points_per_sec(),
                s.points,
                s.wall.as_millis()
            ));
            sweep_samples.push(s);
        }
        if let Some(x) = warm_speedup(&sweep_samples) {
            out.push_str(&format!("warm speedup: {x:.2}x fresh points/sec\n"));
        }
    }
    if let Some(path) = args.get("baseline") {
        // Compare against a previously recorded BENCH_perf*.json. The
        // parse refuses cross-schema files (perf-v1 vs perf-v2) and
        // files taken with other knobs (packets, repeats, cores,
        // strategy) with a clear message rather than comparing numbers
        // that do not measure the same thing.
        let text =
            std::fs::read_to_string(path).map_err(|e| ParseError::BadValue {
                key: "baseline".into(),
                value: format!("{path}: {e}"),
                expected: "a readable BENCH_perf JSON file",
            })?;
        let runs = parse_baseline(&text, &knobs).map_err(|e| ParseError::BadValue {
            key: "baseline".into(),
            value: format!("{path}: {e}"),
            expected: "a nucanet/perf-v2 BENCH_perf document taken with this run's knobs",
        })?;
        out.push_str(&format!("vs {path}:\n"));
        for s in &samples {
            match runs.iter().find(|r| r.config == s.config) {
                Some(r) if r.cycles_per_sec > 0.0 => out.push_str(&format!(
                    "{:10} {:>6.2}x (recorded {:.0} cycles/s at {} thr)\n",
                    s.config,
                    s.cycles_per_sec() / r.cycles_per_sec,
                    r.cycles_per_sec,
                    r.threads
                )),
                _ => out.push_str(&format!("{:10} (not in baseline file)\n", s.config)),
            }
        }
    }
    if let Some(path) = args.get("json") {
        write_atomically(
            std::path::Path::new(path),
            &render_perf_json_with_sweep(&knobs, &samples, &sweep_samples),
        )
        .map_err(
            |e| ParseError::BadValue {
                key: "json".into(),
                value: format!("{path}: {e}"),
                expected: "a writable path",
            },
        )?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// Differential fuzzing: seeded random scenarios through the fast
/// wormhole simulator (twice, for determinism) and the store-and-forward
/// golden model, comparing delivered-packet multisets. On failure the
/// collapsed seed is printed and written to `FUZZ_FAILURE.json` so CI
/// can upload it as an artifact.
fn cmd_fuzz(args: &Args) -> Result<String, ParseError> {
    let opts = FuzzOptions {
        iters: args.get_usize("iters", 200)? as u64,
        seed: args.get_usize("seed", 0xA11CE)? as u64,
        // The checker defaults ON for fuzzing; `--check 0` disables it.
        check: args.get("check") != Some("0"),
        max_cycles: args.get_usize("max-cycles", 50_000)? as u64,
        sim_threads: sim_threads_of(args)?,
        warm_iters: args.get_usize("warm-iters", 0)? as u64,
        // `--strategy` pins one strategy; by default each scenario
        // samples its own from the seed.
        strategy: strategy_of(args)?,
        // `--cross-strategy 1` runs every scenario under all three
        // strategies and compares their delivered multisets.
        cross_strategy: args.get("cross-strategy") == Some("1"),
    };
    let cmp_opts = nucanet::CmpFuzzOptions {
        iters: args.get_usize("cmp-iters", 10)? as u64,
        seed: args.get_usize("seed", 0xA11CE)? as u64,
        accesses: 40,
    };
    let report = run_fuzz(&opts);
    if let Some(f) = &report.failure {
        let json = format!(
            "{{\n  \"schema\": \"nucanet/fuzz-failure-v1\",\n  \"iter\": {},\n  \
             \"seed\": {},\n  \"detail\": \"{}\"\n}}\n",
            f.iter,
            f.seed,
            f.detail
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        );
        write_atomically(std::path::Path::new("FUZZ_FAILURE.json"), &json).ok();
        return Err(ParseError::SimulationFailed(format!(
            "fuzz iteration {} failed (replay: nucanet fuzz --iters 1 --seed {}): {}",
            f.iter, f.seed, f.detail
        )));
    }
    // Layer above the network: closed-loop CMP runs (2-4 cores) must be
    // bit-identical across cycle-kernel thread counts.
    let cmp_clean = nucanet::run_cmp_fuzz(&cmp_opts).map_err(|f| {
        ParseError::SimulationFailed(format!(
            "cmp fuzz iteration {} failed (replay: nucanet fuzz --iters 0 \
             --cmp-iters 1 --seed {}): {}",
            f.iter, f.seed, f.detail
        ))
    })?;
    let mode = if opts.cross_strategy {
        "cross-strategy".to_string()
    } else {
        match opts.strategy {
            Some(s) => format!("strategy {s}"),
            None => "strategy sampled".to_string(),
        }
    };
    let [h, t, p] = report.strategy_runs;
    Ok(format!(
        "fuzz: {} iterations clean (checker {}, {mode})\n\
         {} packets injected, {} deliveries, {} multicasts, {} fault events\n\
         strategy runs: {h} hybrid, {t} tree, {p} path\n\
         warm fuzz: {} reset-and-replay scenarios clean\n\
         cmp fuzz: {} scenarios clean (2-4 cores, sim-threads 1 vs 4)\n",
        report.iters_run,
        if opts.check { "on" } else { "off" },
        report.packets,
        report.deliveries,
        report.multicasts,
        report.fault_events,
        report.warm_iters_run,
        cmp_clean
    ))
}

fn cmd_trace(args: &Args) -> Result<String, ParseError> {
    let bench = args.benchmark()?;
    let n = args.get_usize("accesses", 1_000)?;
    let seed = args.get_usize("seed", 0xCAFE)? as u64;
    let mut gen = TraceGenerator::new(
        bench,
        SynthConfig {
            seed,
            ..Default::default()
        },
    );
    let trace = gen.generate(0, n);
    let mut out = String::with_capacity(n * 12);
    out.push_str("# addr,write\n");
    for a in trace.all() {
        out.push_str(&format!("{:#010x},{}\n", a.addr, u8::from(a.write)));
    }
    Ok(out)
}

fn cmd_replay(args: &Args) -> Result<String, ParseError> {
    let design = args.design()?;
    let scheme = args.scheme()?;
    let path = args
        .get("file")
        .ok_or(ParseError::MissingValue("file".into()))?;
    let file = std::fs::File::open(path).map_err(|e| ParseError::BadValue {
        key: "file".into(),
        value: format!("{path}: {e}"),
        expected: "a readable trace file",
    })?;
    let trace = nucanet_workload::read_trace(std::io::BufReader::new(file)).map_err(|e| {
        ParseError::BadValue {
            key: "file".into(),
            value: e.to_string(),
            expected: "a trace in `addr,write` format",
        }
    })?;
    let mut sys = CacheSystem::new(&design.config(scheme));
    let m = sys
        .run(&trace)
        .map_err(|e| ParseError::SimulationFailed(e.to_string()))?;
    Ok(format!(
        "{design:?} / {scheme} / {path}\n{}\n",
        metrics_line(&m)
    ))
}

fn render(args: &Args, t: Table) -> String {
    if args.get("csv") == Some("1") {
        t.to_csv()
    } else {
        t.to_text()
    }
}

/// IPC for a metrics/benchmark pair (exposed for the binary's tests).
pub fn ipc_of(m: &nucanet::Metrics, bench: &nucanet_workload::BenchmarkProfile) -> f64 {
    m.ipc(&CoreModel::for_profile(bench))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> String {
        let args = Args::parse(line.split_whitespace().map(String::from)).expect("parses");
        run_command(&args).expect("command succeeds")
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help_text();
        for cmd in [
            "run", "compare", "designs", "area", "energy", "census", "sweep", "perf", "fuzz",
            "trace",
        ] {
            assert!(h.contains(cmd), "help must mention {cmd}");
        }
    }

    #[test]
    fn fuzz_short_campaign_is_clean() {
        let out = run("fuzz --iters 10 --seed 99");
        assert!(out.contains("10 iterations clean"), "{out}");
        assert!(out.contains("checker on"), "{out}");
    }

    #[test]
    fn fuzz_warm_replays_are_clean() {
        let out = run("fuzz --iters 2 --warm-iters 8 --seed 31");
        assert!(
            out.contains("warm fuzz: 8 reset-and-replay scenarios clean"),
            "{out}"
        );
    }

    #[test]
    fn fuzz_samples_strategies_by_default() {
        let out = run("fuzz --iters 12 --seed 5");
        assert!(out.contains("strategy sampled"), "{out}");
        assert!(out.contains("strategy runs:"), "{out}");
        // Twelve seeded scenarios should not all collapse onto one
        // strategy (the sampler is a decorrelated stream).
        assert!(!out.contains("12 hybrid"), "{out}");
    }

    #[test]
    fn fuzz_strategy_can_be_pinned() {
        let out = run("fuzz --iters 4 --seed 9 --strategy path");
        assert!(out.contains("strategy path"), "{out}");
        assert!(out.contains("strategy runs: 0 hybrid, 0 tree, 4 path"), "{out}");
    }

    #[test]
    fn fuzz_cross_strategy_campaign_is_clean() {
        let out = run("fuzz --iters 4 --seed 17 --cross-strategy 1");
        assert!(out.contains("4 iterations clean"), "{out}");
        assert!(out.contains("cross-strategy"), "{out}");
        assert!(out.contains("strategy runs: 4 hybrid, 4 tree, 4 path"), "{out}");
    }

    #[test]
    fn run_accepts_a_strategy() {
        for strategy in ["tree", "path"] {
            let out = run(&format!(
                "run --bench art --accesses 60 --warmup 1000 --sets 32 --check 1 \
                 --strategy {strategy}"
            ));
            assert!(out.contains("invariants checked: ok"), "{strategy}: {out}");
        }
    }

    #[test]
    fn fuzz_checker_can_be_disabled() {
        let out = run("fuzz --iters 3 --seed 4 --check 0");
        assert!(out.contains("checker off"), "{out}");
    }

    #[test]
    fn perf_sweep_points_reports_warm_speedup() {
        let out = run("perf --packets 100 --sweep-points 8");
        assert!(out.contains("sweep throughput (8 screening points"), "{out}");
        assert!(out.contains("warm speedup:"), "{out}");
    }

    #[test]
    fn run_with_checker_reports_clean_invariants() {
        let out =
            run("run --bench art --accesses 60 --warmup 1000 --sets 32 --check 1");
        assert!(out.contains("invariants checked: ok"), "{out}");
    }

    #[test]
    fn perf_reports_throughput_and_writes_json() {
        let path = std::env::temp_dir().join("nucanet_cli_perf_test.json");
        let out = run(&format!("perf --packets 300 --json {}", path.display()));
        assert!(out.contains("fig7-mesh"), "{out}");
        assert!(out.contains("mesh-sat"), "{out}");
        assert!(out.contains("cycles/s"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"nucanet/perf-v2\""), "{json}");
        assert!(json.contains("\"halo\""), "{json}");
        assert!(json.contains("\"halo-sat\""), "{json}");
        assert!(json.contains("\"threads\": 1"), "{json}");
        assert!(json.contains("\"compute_ns\":"), "{json}");
        assert!(json.contains("\"dispatch_ns\":"), "{json}");
        assert!(json.contains("\"adaptive_serial_cycles\":"), "{json}");
        assert!(json.contains("\"router_visits\":"), "{json}");
        assert!(
            json.contains(
                "\"knobs\": {\"packets\": 300, \"repeats\": 1, \"cores\": 1, \"strategy\": \""
            ),
            "{json}"
        );
        assert!(out.contains("router visits"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perf_with_threads_reports_gate_breakdown() {
        let out = run("perf --packets 200 --sim-threads 2");
        assert!(out.contains("gate:"), "{out}");
        assert!(out.contains("parallel /"), "{out}");
        assert!(out.contains("dispatch"), "{out}");
    }

    #[test]
    fn perf_compares_against_a_recorded_trajectory() {
        let path = std::env::temp_dir().join("nucanet_cli_perf_baseline_ok.json");
        // Record once, then compare a fresh run against the recording:
        // the simulated cycles are deterministic, so every config must
        // be present with a finite ratio.
        run(&format!("perf --packets 200 --json {}", path.display()));
        let out = run(&format!("perf --packets 200 --baseline {}", path.display()));
        assert!(out.contains(&format!("vs {}", path.display())), "{out}");
        assert!(out.contains("x (recorded"), "{out}");
        assert!(!out.contains("not in baseline file"), "{out}");
        // The same file is refused as the baseline of a run taken with
        // other knobs.
        let args = Args::parse(
            format!("perf --packets 100 --baseline {}", path.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let err = run_command(&args).unwrap_err().to_string();
        assert!(err.contains("different knobs"), "{err}");
        assert!(err.contains("packets 200 vs 100"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perf_refuses_cross_schema_baselines() {
        let path = std::env::temp_dir().join("nucanet_cli_perf_baseline_v1.json");
        std::fs::write(
            &path,
            "{\n  \"schema\": \"nucanet/perf-v1\",\n  \"runs\": []\n}\n",
        )
        .unwrap();
        let args = Args::parse(
            format!("perf --packets 100 --baseline {}", path.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let err = run_command(&args).unwrap_err().to_string();
        assert!(err.contains("nucanet/perf-v1"), "{err}");
        assert!(err.contains("re-record"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_is_bit_identical_across_sim_threads() {
        // The run command prints only simulated metrics (no wall time),
        // so its whole output must match between the serial and the
        // threaded cycle kernel.
        let serial = run("run --bench art --accesses 60 --warmup 1000 --sets 32 --sim-threads 1");
        let threaded =
            run("run --bench art --accesses 60 --warmup 1000 --sets 32 --sim-threads 4");
        assert_eq!(serial, threaded);
    }

    #[test]
    fn unknown_command_errors() {
        let args = Args::parse(["frobnicate".to_string()]).unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn run_small_cell() {
        let out = run("run --bench art --accesses 80 --warmup 1500 --sets 32");
        assert!(out.contains("A / multicast+fastLRU / art"), "{out}");
        assert!(out.contains("IPC"), "{out}");
        assert!(out.contains("80 accesses"), "{out}");
    }

    #[test]
    fn run_cmp_cell() {
        let out = run("run --cores 2 --accesses 60 --warmup 1000 --sets 32 --bench twolf");
        assert!(out.contains("x2 cores"), "{out}");
        assert!(out.contains("core 0:"), "{out}");
        assert!(out.contains("core 1:"), "{out}");
    }

    #[test]
    fn compare_emits_all_schemes() {
        let out = run("compare --accesses 60 --warmup 1000 --sets 32 --bench vpr");
        for s in ["unicast+promotion", "multicast+fastLRU", "static NUCA"] {
            assert!(out.contains(s), "{out}");
        }
    }

    #[test]
    fn compare_csv_mode() {
        let out = run("compare --accesses 50 --warmup 800 --sets 32 --csv 1");
        assert!(out.starts_with("scheme,avg,hit,miss,hitrate,ipc"), "{out}");
        assert_eq!(out.lines().count(), 7, "{out}");
    }

    #[test]
    fn designs_skips_non_uniform_for_static() {
        let out = run("designs --scheme static --accesses 50 --warmup 800 --sets 32");
        assert!(out.contains("A"), "{out}");
        assert!(
            !out.contains("non-uniform"),
            "static NUCA must skip D/F: {out}"
        );
    }

    #[test]
    fn area_has_six_rows() {
        let out = cmd_area();
        assert_eq!(out.lines().count(), 8, "{out}"); // header + rule + 6 designs
    }

    #[test]
    fn census_mentions_the_claim() {
        let out = cmd_census();
        assert!(out.contains("never used"), "{out}");
    }

    #[test]
    fn sweep_lists_all_capacities() {
        let out = run("sweep --bench twolf --accesses 60 --warmup 1000 --sets 32 --workers 2");
        for mb in ["4 MB", "8 MB", "16 MB", "32 MB"] {
            assert!(out.contains(mb), "{out}");
        }
        assert!(out.contains("mesh"), "{out}");
        assert!(out.contains("halo"), "{out}");
    }

    #[test]
    fn sweep_writes_json() {
        let path = std::env::temp_dir().join("nucanet_cli_sweep_test.json");
        let out = run(&format!(
            "sweep --bench art --accesses 40 --warmup 800 --sets 32 --workers 2 --json {}",
            path.display()
        ));
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"nucanet/sweep-v2\""), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        assert!(json.contains("\"errors\": 0"), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_with_repaired_faults_completes() {
        // Transient faults (repaired after 300 cycles) drain and reroute;
        // every point should still finish and report its fault count.
        let out = run(
            "sweep --bench art --accesses 40 --warmup 800 --sets 32 --workers 2 \
             --faults 2 --fault-repair 300",
        );
        assert!(out.contains("ok (2 faults)"), "{out}");
        assert!(!out.contains("failed"), "{out}");
    }

    #[test]
    fn trace_dumps_lines() {
        let out = run("trace --bench art --accesses 25 --seed 7");
        assert_eq!(out.lines().count(), 26, "{out}"); // header + 25 accesses
        assert!(out.lines().nth(1).unwrap().starts_with("0x"), "{out}");
    }

    #[test]
    fn replay_runs_a_trace_file() {
        // Emit a trace with the trace command, write it to a temp file,
        // replay it.
        let dumped = run("trace --bench art --accesses 120 --seed 3");
        let path = std::env::temp_dir().join("nucanet_cli_replay_test.trace");
        std::fs::write(&path, format!("# warmup: 40\n{dumped}")).unwrap();
        let out = run(&format!(
            "replay --file {} --design B --scheme fastlru",
            path.display()
        ));
        assert!(out.contains("80 accesses"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_missing_file_errors() {
        let args = Args::parse(
            "replay --file /no/such/file.trace"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn energy_reports_components() {
        let out = run("energy --accesses 50 --warmup 800 --sets 32 --bench mesa");
        assert!(out.contains("pJ per access"), "{out}");
        assert!(out.contains("network share"), "{out}");
    }
}
