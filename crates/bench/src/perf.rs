//! Simulator throughput self-measurement: the tracked perf trajectory.
//!
//! The paper's figures come from sweeping millions of simulated cycles,
//! so the cycle kernel's speed bounds every experiment. This module
//! times the flit-level [`Network`] on the topologies the headline
//! results use — the Fig. 7 16×16 mesh (Design A) and the 16-spike
//! halo of Design E — and reports **cycles/sec** and **flit-hops/sec**.
//!
//! Two traffic shapes per topology:
//!
//! * the original **burst-and-drain** configs (`"fig7-mesh"`,
//!   `"halo"`), which alternate between saturated and draining phases
//!   like the cache protocol's request/response exchange;
//! * the **closed-loop saturation** configs (`"mesh-sat"`,
//!   `"halo-sat"`), which keep a fixed window of packets in flight so
//!   nearly every router is active every cycle — the regime the
//!   two-phase threaded kernel targets, since a full worklist is what
//!   the compute phase shards;
//! * the **giant-topology** config (`"mesh-giant"`), a 32×32 mesh
//!   (1024 routers) driven closed-loop from N injector endpoints with
//!   thousands of outstanding packets — the scale the O(links) routing
//!   builder unlocks.
//!
//! Every measurement function takes a `sim_threads` argument
//! ([`nucanet_noc::RouterParams::sim_threads`]); the simulation is
//! bit-identical for any value, so threads change only the wall time
//! and the [`PerfSample`] phase breakdown.
//!
//! The `perf` binary writes the measurements next to a baked-in
//! baseline (the serial SoA-slab kernel, re-recorded when the
//! structure-of-arrays rewrite landed) into `BENCH_perf.json`, so
//! every future PR extends a perf trajectory instead of guessing.
//! Absolute numbers are machine-dependent; the CI smoke-perf job
//! therefore only fails on a catastrophic (>3×) regression against the
//! same-machine baseline ratio, while local runs show the real
//! speedup. Committed snapshots compare across PRs via
//! [`parse_baseline`] / `nucanet perf --baseline PATH`, which refuses
//! to mix documents from different schema versions ([`PERF_SCHEMA`])
//! or taken with different knobs ([`PerfKnobs`]).
//!
//! Traffic is generated from a fixed-seed LCG, so a sample simulates
//! the exact same cycles on every run and machine — wall time is the
//! only thing that varies.

use std::time::{Duration, Instant};

use nucanet::experiments::ExperimentScale;
use nucanet::metrics::MetricsCapture;
use nucanet::sweep::{derive_seed, SweepPoint, SweepRunner};
use nucanet::{Design, Scheme};
use nucanet_noc::{
    Dest, Endpoint, MulticastStrategy, Network, NodeId, Packet, RouterParams, RoutingSpec, Topology,
};
use nucanet_workload::BenchmarkProfile;

/// The schema identifier this harness emits in `BENCH_perf.json`.
///
/// `nucanet/perf-v1` documents (written before the two-phase kernel)
/// lack the thread count, `host_cores`, and the phase breakdown, and
/// their `wall_ms` was measured by a different harness loop — numbers
/// across schemas do not line up. [`parse_trajectory`] therefore
/// refuses to read any document whose schema is not exactly this
/// constant.
pub const PERF_SCHEMA: &str = "nucanet/perf-v2";

/// One timed throughput measurement of the cycle kernel.
#[derive(Debug, Clone)]
pub struct PerfSample {
    /// Which configuration was measured (`"fig7-mesh"`, `"halo"`,
    /// `"mesh-sat"`, `"halo-sat"`, `"mesh-giant"`).
    pub config: &'static str,
    /// Cycle-kernel threads the network resolved to (1 = serial).
    pub threads: usize,
    /// Wall-clock time spent inside the simulation loop.
    pub wall: Duration,
    /// Simulated cycles stepped.
    pub cycles: u64,
    /// Total flit link traversals (sum over links of flits carried).
    pub flit_hops: u64,
    /// Packets injected and delivered.
    pub packets: u64,
    /// Cycles that ran the sharded two-phase kernel.
    pub parallel_cycles: u64,
    /// Cycles that ran the classic serial kernel.
    pub serial_cycles: u64,
    /// Wall nanoseconds inside the parallel compute phase.
    pub compute_ns: u64,
    /// Wall nanoseconds inside the serial commit phase.
    pub commit_ns: u64,
    /// Wall nanoseconds of pool-dispatch overhead across all parallel
    /// cycles (job publish + spawned-worker tail wait).
    pub dispatch_ns: u64,
    /// Cycles the adaptive gate ran serially despite `sim_threads > 1`.
    pub adaptive_serial_cycles: u64,
    /// Cycles the adaptive gate sharded (including calibration probes).
    pub adaptive_parallel_cycles: u64,
    /// Router turns the kernel took (summed worklist lengths): a
    /// deterministic work count, equal for every thread count.
    pub router_visits: u64,
}

impl PerfSample {
    /// Simulated cycles per wall-clock second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Flit link traversals per wall-clock second.
    #[must_use]
    pub fn flit_hops_per_sec(&self) -> f64 {
        self.flit_hops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Reference numbers a later run is compared against.
#[derive(Debug, Clone, Copy)]
pub struct PerfBaseline {
    /// Configuration the baseline was recorded on.
    pub config: &'static str,
    /// Cycles/sec of the pre-rewrite kernel.
    pub cycles_per_sec: f64,
    /// Flit-hops/sec of the pre-rewrite kernel.
    pub flit_hops_per_sec: f64,
}

/// Serial (1-thread) throughput of the SoA-slab two-phase kernel,
/// re-recorded on the development container when the structure-of-arrays
/// rewrite and the sharded commit phase landed (8000 packets, best of
/// 3). These gate the CI smoke-perf regression floor; the historical
/// pre-rewrite numbers live in `perf/BENCH_perf_baseline.json`. Later
/// PRs append to the trajectory by comparing `BENCH_perf*.json` files
/// (`nucanet perf --baseline PATH`), not by editing these constants —
/// the closed-loop saturation configs have no baked-in baseline and are
/// gated purely through the committed `BENCH_perf*.json` trajectory.
pub const BASELINES: [PerfBaseline; 2] = [
    PerfBaseline {
        config: "fig7-mesh",
        cycles_per_sec: 31_500.0,
        flit_hops_per_sec: 2_020_000.0,
    },
    PerfBaseline {
        config: "halo",
        cycles_per_sec: 209_000.0,
        flit_hops_per_sec: 1_600_000.0,
    },
];

/// The baseline recorded for `config`, if any.
#[must_use]
pub fn baseline_for(config: &str) -> Option<PerfBaseline> {
    BASELINES.iter().find(|b| b.config == config).copied()
}

/// One run read back out of a committed `BENCH_perf*.json` trajectory
/// snapshot by [`parse_trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRun {
    /// Configuration name (`"fig7-mesh"`, `"halo"`, `"mesh-sat"`,
    /// `"halo-sat"`).
    pub config: String,
    /// Cycle-kernel threads the recorded run used.
    pub threads: usize,
    /// Throughput the run recorded.
    pub cycles_per_sec: f64,
}

/// The knobs a perf document was measured with. Two documents compare
/// only when all of them agree: `packets` and `cores` change the
/// simulated traffic (and with it every cycle count), `strategy`
/// changes the replication kernel, and `repeats` changes the best-of-N
/// estimator behind every wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfKnobs {
    /// Packets per configuration.
    pub packets: u64,
    /// Runs per configuration; the fastest is kept.
    pub repeats: u64,
    /// Injector endpoints driving the `mesh-giant` closed loop.
    pub cores: u16,
    /// Multicast replication strategy of every timed network.
    pub strategy: MulticastStrategy,
}

impl PerfKnobs {
    /// The knobs of a run with these counts, taking the strategy the
    /// timed networks will use (`NUCANET_STRATEGY`, else the Table 1
    /// default) from the same source they do.
    #[must_use]
    pub fn new(packets: u64, repeats: u64, cores: u16) -> Self {
        PerfKnobs {
            packets,
            repeats,
            cores,
            strategy: params(1).strategy,
        }
    }

    /// The one-line JSON object written under `"knobs"`.
    fn render(&self) -> String {
        format!(
            "{{\"packets\": {}, \"repeats\": {}, \"cores\": {}, \"strategy\": \"{}\"}}",
            self.packets,
            self.repeats,
            self.cores,
            self.strategy.name()
        )
    }
}

/// Reads the `"knobs"` object of a rendered document.
///
/// # Errors
///
/// Returns a message when the document records no knobs (it predates
/// them) or a knob is malformed.
fn parse_knobs(json: &str) -> Result<PerfKnobs, String> {
    let start = json.find("\"knobs\": {").ok_or_else(|| {
        "the file records no run knobs (packets, repeats, cores, strategy), so \
         nothing shows it was measured like this run; re-record the reference with \
         the current binary"
            .to_string()
    })?;
    let obj = &json[start..];
    let obj = &obj[..=obj.find('}').unwrap_or(obj.len() - 1)];
    let bad = |k: &str| format!("malformed knob \"{k}\" in BENCH_perf document");
    Ok(PerfKnobs {
        packets: num_field(obj, "packets").ok_or_else(|| bad("packets"))? as u64,
        repeats: num_field(obj, "repeats").ok_or_else(|| bad("repeats"))? as u64,
        cores: num_field(obj, "cores").ok_or_else(|| bad("cores"))? as u16,
        strategy: str_field(obj, "strategy")
            .and_then(MulticastStrategy::parse)
            .ok_or_else(|| bad("strategy"))?,
    })
}

/// Reads a recorded `BENCH_perf*.json` document as the baseline for a
/// run taken with `knobs`: [`parse_trajectory`]'s schema check, then a
/// refusal unless the document's knobs equal `knobs`.
///
/// # Errors
///
/// Everything [`parse_trajectory`] refuses; a document that records no
/// knobs or a malformed one; and knobs that differ, with a message
/// naming each.
///
/// ```
/// use nucanet_bench::perf::{mesh_throughput, parse_baseline, render_perf_json, PerfKnobs};
///
/// let knobs = PerfKnobs::new(50, 1, 4);
/// let doc = render_perf_json(&knobs, &[mesh_throughput(50, 1)]);
/// assert_eq!(parse_baseline(&doc, &knobs).unwrap().len(), 1);
/// let err = parse_baseline(&doc, &PerfKnobs::new(50, 1, 8)).unwrap_err();
/// assert!(err.contains("cores"), "{err}");
/// ```
pub fn parse_baseline(json: &str, knobs: &PerfKnobs) -> Result<Vec<TrajectoryRun>, String> {
    let runs = parse_trajectory(json)?;
    let rec = parse_knobs(json)?;
    let mut diffs = Vec::new();
    if rec.packets != knobs.packets {
        diffs.push(format!("packets {} vs {}", rec.packets, knobs.packets));
    }
    if rec.repeats != knobs.repeats {
        diffs.push(format!("repeats {} vs {}", rec.repeats, knobs.repeats));
    }
    if rec.cores != knobs.cores {
        diffs.push(format!("cores {} vs {}", rec.cores, knobs.cores));
    }
    if rec.strategy != knobs.strategy {
        diffs.push(format!("strategy {} vs {}", rec.strategy, knobs.strategy));
    }
    if diffs.is_empty() {
        Ok(runs)
    } else {
        Err(format!(
            "refusing to compare runs taken with different knobs (recorded vs this run: {}); \
             re-run with the recorded knobs",
            diffs.join(", ")
        ))
    }
}

/// Extracts a `"key": "value"` string field from a rendered document.
fn str_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extracts a `"key": number` field from a rendered document.
fn num_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find([',', '\n', '}'])
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses a previously written `BENCH_perf*.json` document back into
/// its runs so a fresh measurement can be compared against it.
///
/// Refuses any document whose `"schema"` is not [`PERF_SCHEMA`]: a
/// perf-v1 file was measured by a different harness loop and lacks the
/// fields a comparison needs, so mixing schemas would silently compare
/// numbers that do not mean the same thing. The returned error says
/// which schema the file records and how to proceed (re-record the
/// reference with the current binary).
///
/// # Errors
///
/// Returns a human-readable message when the document has no schema
/// field, records a different schema, or contains a malformed run.
///
/// ```
/// use nucanet_bench::perf::parse_trajectory;
///
/// let v1 = "{\n  \"schema\": \"nucanet/perf-v1\",\n  \"runs\": []\n}\n";
/// let err = parse_trajectory(v1).unwrap_err();
/// assert!(err.contains("nucanet/perf-v1"), "{err}");
/// assert!(err.contains("re-record"), "{err}");
/// ```
pub fn parse_trajectory(json: &str) -> Result<Vec<TrajectoryRun>, String> {
    let schema = str_field(json, "schema")
        .ok_or_else(|| "not a BENCH_perf document: no \"schema\" field".to_string())?;
    if schema != PERF_SCHEMA {
        return Err(format!(
            "refusing to compare across perf schemas: the file records \
             \"{schema}\" but this binary emits \"{PERF_SCHEMA}\"; runs in \
             different schemas were measured by different harness loops and \
             their numbers do not line up — re-record the reference with the \
             current binary (see docs/PERFORMANCE.md)"
        ));
    }
    // Within a run object the fields render in a fixed order with
    // "config" first, so each run is the slice between consecutive
    // "config" keys.
    let mut starts: Vec<usize> = json.match_indices("\"config\":").map(|(i, _)| i).collect();
    starts.push(json.len());
    let mut runs = Vec::new();
    for w in starts.windows(2) {
        let obj = &json[w[0]..w[1]];
        let (Some(config), Some(threads), Some(cycles_per_sec)) = (
            str_field(obj, "config"),
            num_field(obj, "threads"),
            num_field(obj, "cycles_per_sec"),
        ) else {
            return Err(format!(
                "malformed run entry in BENCH_perf document (run {})",
                runs.len()
            ));
        };
        runs.push(TrajectoryRun {
            config: config.to_string(),
            threads: threads as usize,
            cycles_per_sec,
        });
    }
    Ok(runs)
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 16
}

/// Router parameters for every timed config: Table 1 values, the
/// requested thread count, and — when `NUCANET_STRATEGY` is set — the
/// requested multicast replication strategy, so the perf trajectory
/// can be re-measured under tree or path replication without a new
/// harness entry point.
fn params(sim_threads: u32) -> RouterParams {
    let mut p = RouterParams {
        sim_threads,
        ..RouterParams::hpca07()
    };
    if let Some(s) = crate::strategy_from_env() {
        p.strategy = s;
    }
    p
}

fn drain<P>(net: &mut Network<P>, inbox: &mut Vec<nucanet_noc::Delivered<P>>) {
    while net.is_busy() || net.next_event_cycle().is_some() {
        net.advance().expect("perf traffic cannot deadlock");
        net.drain_all_delivered_into(inbox);
        inbox.clear();
    }
}

/// Finalises a measurement from the network's own counters.
fn sample<P>(config: &'static str, net: &Network<P>, wall: Duration) -> PerfSample {
    let phase = net.phase_stats();
    PerfSample {
        config,
        threads: net.sim_threads(),
        wall,
        cycles: net.stats().cycles,
        flit_hops: net.stats().total_flit_hops(),
        packets: net.stats().packets_delivered,
        parallel_cycles: phase.parallel_cycles,
        serial_cycles: phase.serial_cycles,
        compute_ns: phase.compute_ns,
        commit_ns: phase.commit_ns,
        dispatch_ns: phase.dispatch_ns,
        adaptive_serial_cycles: phase.adaptive_serial_cycles,
        adaptive_parallel_cycles: phase.adaptive_parallel_cycles,
        router_visits: phase.router_visits,
    }
}

/// Times random unicast traffic on the Fig. 7 16×16 full mesh
/// (Design A geometry, XY routing, Table 1 router parameters) with
/// `sim_threads` cycle-kernel threads.
///
/// Injects `packets` packets in bursts of 64 (mixing 1-flit requests
/// and 5-flit block transfers like the cache protocol does) and steps
/// the network until every burst drains.
///
/// ```
/// use nucanet_bench::perf::mesh_throughput;
///
/// // Fixed-seed traffic: the simulated cycle count is identical on
/// // every run and machine; only the wall time varies.
/// let s = mesh_throughput(100, 1);
/// assert_eq!(s.packets, 100);
/// assert_eq!(s.cycles, mesh_throughput(100, 2).cycles);
/// assert!(s.cycles_per_sec() > 0.0);
/// ```
#[must_use]
pub fn mesh_throughput(packets: u64, sim_threads: u32) -> PerfSample {
    let topo = Topology::mesh(16, 16, &[1; 15], &[1; 15]);
    let table = RoutingSpec::Xy.build(&topo).expect("mesh routes");
    let mut net: Network<u64> = Network::new(topo, table, params(sim_threads));
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let mut inbox = Vec::new();
    let start = Instant::now();
    let mut injected = 0u64;
    while injected < packets {
        let burst = 64.min(packets - injected);
        for _ in 0..burst {
            let r = lcg(&mut x);
            let a = (r % 256) as u32;
            let mut b = ((r >> 8) % 256) as u32;
            if a == b {
                b = (b + 1) % 256;
            }
            let flits = if r & 0x10000 == 0 { 1 } else { 5 };
            net.inject(Packet::new(
                Endpoint::at(NodeId(a)),
                Dest::unicast(Endpoint::at(NodeId(b))),
                flits,
                injected,
            ));
            injected += 1;
        }
        drain(&mut net, &mut inbox);
    }
    sample("fig7-mesh", &net, start.elapsed())
}

/// Times hub-to-spike traffic on the Design E halo (16 spikes of 16
/// banks, shortest-path routing) with `sim_threads` cycle-kernel
/// threads: alternating unicast requests to random banks and
/// full-spike path multicasts, the pattern the paper's concurrent
/// tag-match produces.
#[must_use]
pub fn halo_throughput(packets: u64, sim_threads: u32) -> PerfSample {
    let topo = Topology::halo(16, 16, &[1; 16], 2);
    let table = RoutingSpec::ShortestPath.build(&topo).expect("halo routes");
    // Shared endpoint lists: every multicast down a spike reuses one
    // `Arc<[Endpoint]>` instead of allocating a fresh path per packet.
    let spike_paths: Vec<std::sync::Arc<[Endpoint]>> = (0..16)
        .map(|s| (0..16).map(|p| Endpoint::at(topo.spike_node(s, p))).collect())
        .collect();
    let mut net: Network<u64> = Network::new(topo, table, params(sim_threads));
    let hub = Endpoint {
        node: NodeId(0),
        slot: 1,
    };
    let mut x: u64 = 0x6A09E667F3BCC909;
    let mut inbox = Vec::new();
    let start = Instant::now();
    let mut injected = 0u64;
    while injected < packets {
        let burst = 16.min(packets - injected);
        for _ in 0..burst {
            let r = lcg(&mut x);
            let s = (r % 16) as u16;
            if r & 0x1000 == 0 {
                // Concurrent tag-match: multicast down the whole spike.
                net.inject(Packet::new(
                    hub,
                    Dest::multicast_shared(std::sync::Arc::clone(&spike_paths[s as usize])),
                    1,
                    injected,
                ));
            } else {
                // Block transfer to one bank.
                let p = ((r >> 8) % 16) as u16;
                net.inject(Packet::new(
                    hub,
                    Dest::unicast(Endpoint::at(net.topology().spike_node(s, p))),
                    5,
                    injected,
                ));
            }
            injected += 1;
        }
        drain(&mut net, &mut inbox);
    }
    sample("halo", &net, start.elapsed())
}

/// Packets kept in flight by the closed-loop mesh measurement. Large
/// enough that most of the 256 routers are busy every cycle.
const MESH_SAT_WINDOW: u64 = 512;

/// Packets kept in flight by the closed-loop halo measurement. The hub
/// is the single injector, so the window models the cache controller's
/// outstanding-transaction budget rather than per-node sources.
const HALO_SAT_WINDOW: u64 = 64;

/// Packets kept in flight by the giant-mesh closed loop: thousands of
/// outstanding transactions across 1024 routers, the regime the
/// giant-topology CMP mode targets.
const GIANT_SAT_WINDOW: u64 = 2048;

/// Times the 16×16 mesh at saturation with `sim_threads` cycle-kernel
/// threads: a closed loop keeps a 512-packet window of random unicasts
/// in flight (refilling as deliveries complete) until `packets` have
/// been injected, then drains. Nearly every router stays on the
/// worklist every cycle — the regime the sharded compute phase targets.
#[must_use]
pub fn mesh_sat_throughput(packets: u64, sim_threads: u32) -> PerfSample {
    let topo = Topology::mesh(16, 16, &[1; 15], &[1; 15]);
    let table = RoutingSpec::Xy.build(&topo).expect("mesh routes");
    let mut net: Network<u64> = Network::new(topo, table, params(sim_threads));
    let mut x: u64 = 0x243F6A8885A308D3;
    let mut injected = 0u64;
    let mut completed = 0u64;
    let mut inbox = Vec::new();
    let start = Instant::now();
    while completed < packets {
        while injected < packets && injected - completed < MESH_SAT_WINDOW {
            let r = lcg(&mut x);
            let a = (r % 256) as u32;
            let mut b = ((r >> 8) % 256) as u32;
            if a == b {
                b = (b + 1) % 256;
            }
            let flits = if r & 0x10000 == 0 { 1 } else { 5 };
            net.inject(Packet::new(
                Endpoint::at(NodeId(a)),
                Dest::unicast(Endpoint::at(NodeId(b))),
                flits,
                injected,
            ));
            injected += 1;
        }
        net.advance().expect("perf traffic cannot deadlock");
        net.drain_all_delivered_into(&mut inbox);
        completed += inbox.drain(..).count() as u64;
    }
    sample("mesh-sat", &net, start.elapsed())
}

/// Times the Design E halo at saturation with `sim_threads`
/// cycle-kernel threads: a closed loop keeps a 64-transaction window
/// in flight from the hub — the usual mix of unicast block transfers
/// and full-spike tag-match multicasts — counting a multicast complete
/// only when all 16 spike banks received it.
#[must_use]
pub fn halo_sat_throughput(packets: u64, sim_threads: u32) -> PerfSample {
    let topo = Topology::halo(16, 16, &[1; 16], 2);
    let table = RoutingSpec::ShortestPath.build(&topo).expect("halo routes");
    let spike_paths: Vec<std::sync::Arc<[Endpoint]>> = (0..16)
        .map(|s| (0..16).map(|p| Endpoint::at(topo.spike_node(s, p))).collect())
        .collect();
    let mut net: Network<u64> = Network::new(topo, table, params(sim_threads));
    let hub = Endpoint {
        node: NodeId(0),
        slot: 1,
    };
    let mut x: u64 = 0xB7E151628AED2A6A;
    let mut injected = 0u64;
    let mut completed = 0u64;
    // Endpoint deliveries still owed per injected packet (multicasts
    // owe one per spike bank).
    let mut owed: Vec<u16> = Vec::new();
    let mut inbox: Vec<nucanet_noc::Delivered<u64>> = Vec::new();
    let start = Instant::now();
    while completed < packets {
        while injected < packets && injected - completed < HALO_SAT_WINDOW {
            let r = lcg(&mut x);
            let s = (r % 16) as u16;
            if r & 0x1000 == 0 {
                net.inject(Packet::new(
                    hub,
                    Dest::multicast_shared(std::sync::Arc::clone(&spike_paths[s as usize])),
                    1,
                    injected,
                ));
                owed.push(16);
            } else {
                let p = ((r >> 8) % 16) as u16;
                net.inject(Packet::new(
                    hub,
                    Dest::unicast(Endpoint::at(net.topology().spike_node(s, p))),
                    5,
                    injected,
                ));
                owed.push(1);
            }
            injected += 1;
        }
        net.advance().expect("perf traffic cannot deadlock");
        net.drain_all_delivered_into(&mut inbox);
        for d in inbox.drain(..) {
            let slot = &mut owed[d.packet.payload as usize];
            *slot -= 1;
            if *slot == 0 {
                completed += 1;
            }
        }
    }
    sample("halo-sat", &net, start.elapsed())
}

/// Times a 32×32 mesh (1024 routers) at saturation with `sim_threads`
/// cycle-kernel threads: `cores` injector endpoints spread across the
/// top row keep a shared 2048-packet window of random unicasts in
/// flight until `packets` transactions complete, then the loop drains.
/// Table construction for the 1024-router mesh happens inside the
/// measured region, so this config also smoke-tests the O(links)
/// routing builder at giant scale.
///
/// ```
/// use nucanet_bench::perf::giant_sat_throughput;
///
/// let s = giant_sat_throughput(64, 1, 4);
/// assert_eq!(s.packets, 64);
/// assert_eq!(s.config, "mesh-giant");
/// ```
#[must_use]
pub fn giant_sat_throughput(packets: u64, sim_threads: u32, cores: u16) -> PerfSample {
    let cores = cores.max(1);
    let topo = Topology::mesh(32, 32, &[1; 31], &[1; 31]);
    let table = RoutingSpec::Xy.build(&topo).expect("mesh routes");
    let srcs: Vec<Endpoint> = (0..cores)
        .map(|i| Endpoint::at(topo.node_at((i as u32 * 32 / cores as u32) as u16, 0)))
        .collect();
    let mut net: Network<u64> = Network::new(topo, table, params(sim_threads));
    let mut x: u64 = 0x452821E638D01377;
    let mut injected = 0u64;
    let mut completed = 0u64;
    let mut inbox = Vec::new();
    let start = Instant::now();
    while completed < packets {
        while injected < packets && injected - completed < GIANT_SAT_WINDOW {
            let src = srcs[(injected % cores as u64) as usize];
            let r = lcg(&mut x);
            let mut b = (r % 1024) as u32;
            if NodeId(b) == src.node {
                b = (b + 1) % 1024;
            }
            let flits = if r & 0x10000 == 0 { 1 } else { 5 };
            net.inject(Packet::new(
                src,
                Dest::unicast(Endpoint::at(NodeId(b))),
                flits,
                injected,
            ));
            injected += 1;
        }
        net.advance().expect("perf traffic cannot deadlock");
        net.drain_all_delivered_into(&mut inbox);
        completed += inbox.drain(..).count() as u64;
    }
    sample("mesh-giant", &net, start.elapsed())
}

/// One timed sweep-engine measurement: a screening sweep of
/// structurally identical points run end to end through
/// [`SweepRunner`], either warm (structural cache + per-worker arenas,
/// the default path) or fresh (`reuse(false)`: every point builds its
/// simulator from scratch, the pre-warm behaviour).
#[derive(Debug, Clone)]
pub struct SweepPerfSample {
    /// `"warm"` (arena reuse) or `"fresh"` (per-point construction).
    pub mode: &'static str,
    /// Sweep worker threads used.
    pub workers: usize,
    /// Points evaluated.
    pub points: u64,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
}

impl SweepPerfSample {
    /// Sweep points evaluated per wall-clock second.
    #[must_use]
    pub fn points_per_sec(&self) -> f64 {
        self.points as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Builds an `n`-point screening sweep: every point is the Design A
/// Multicast Fast-LRU machine (one shared `Arc<SystemConfig>`), with
/// the benchmark and workload seed rotating per point. Screening runs
/// triage thousands of candidate points with small traces, so per-point
/// construction — not simulation — dominates the fresh path; this is
/// the regime the warm-evaluation path exists for.
#[must_use]
pub fn screening_points(n: u64) -> Vec<SweepPoint> {
    const BENCHES: [&str; 8] = [
        "gcc", "twolf", "vpr", "art", "mesa", "parser", "mcf", "apsi",
    ];
    let config: std::sync::Arc<_> = Design::A.config(Scheme::MulticastFastLru).into();
    (0..n)
        .map(|i| SweepPoint {
            label: format!("screen-{i}").into(),
            config: config.clone(),
            profile: BenchmarkProfile::by_name(BENCHES[(i % 8) as usize]).expect("profile"),
            scale: ExperimentScale {
                warmup: 40,
                measured: 10,
                active_sets: 32,
                seed: derive_seed(0x5C4EE4, i),
            },
        })
        .collect()
}

/// Times one full sweep over `points` with `workers` worker threads,
/// warm (`reuse = true`) or fresh. Streaming capture keeps the metrics
/// footprint constant, the screening regime. The simulated results are
/// bit-identical between the two modes (and for any worker count); only
/// wall time differs.
#[must_use]
pub fn sweep_throughput(points: &[SweepPoint], workers: usize, warm: bool) -> SweepPerfSample {
    let runner = SweepRunner::with_workers(workers)
        .capture(MetricsCapture::Streaming)
        .reuse(warm);
    let start = Instant::now();
    let outcomes = runner.run(points);
    let wall = start.elapsed();
    assert_eq!(outcomes.len(), points.len());
    SweepPerfSample {
        mode: if warm { "warm" } else { "fresh" },
        workers,
        points: points.len() as u64,
        wall,
    }
}

/// Renders samples plus the baked-in baseline as the
/// `nucanet/perf-v2` JSON document written to `BENCH_perf.json`:
/// v1's throughput fields plus the run's knobs, the cycle-kernel
/// thread count, the host's core count, the router-visit work count,
/// and the two-phase breakdown (parallel/serial cycles, compute/commit
/// wall nanoseconds).
#[must_use]
pub fn render_perf_json(knobs: &PerfKnobs, samples: &[PerfSample]) -> String {
    render_perf_json_with_sweep(knobs, samples, &[])
}

/// Like [`render_perf_json`] but also emits a `"points_per_sec"`
/// section recording sweep-engine throughput (one entry per
/// [`SweepPerfSample`]) and, when both a warm and a fresh run at the
/// same worker count are present, a `"warm_speedup"` summary field.
/// The section deliberately avoids the `"config":` token so
/// [`parse_trajectory`]'s run splitter is unaffected; an empty `sweep`
/// slice renders the exact [`render_perf_json`] document.
#[must_use]
pub fn render_perf_json_with_sweep(
    knobs: &PerfKnobs,
    samples: &[PerfSample],
    sweep: &[SweepPerfSample],
) -> String {
    fn f(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.1}")
        } else {
            "null".into()
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{PERF_SCHEMA}\",\n"));
    out.push_str("  \"name\": \"perf\",\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"knobs\": {},\n", knobs.render()));
    out.push_str("  \"runs\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let base = baseline_for(s.config);
        out.push_str("    {\n");
        out.push_str(&format!("      \"config\": \"{}\",\n", s.config));
        out.push_str(&format!("      \"threads\": {},\n", s.threads));
        out.push_str(&format!("      \"wall_ms\": {},\n", s.wall.as_millis()));
        out.push_str(&format!("      \"sim_cycles\": {},\n", s.cycles));
        out.push_str(&format!("      \"flit_hops\": {},\n", s.flit_hops));
        out.push_str(&format!("      \"packets\": {},\n", s.packets));
        out.push_str(&format!("      \"router_visits\": {},\n", s.router_visits));
        out.push_str(&format!(
            "      \"parallel_cycles\": {},\n",
            s.parallel_cycles
        ));
        out.push_str(&format!("      \"serial_cycles\": {},\n", s.serial_cycles));
        out.push_str(&format!("      \"compute_ns\": {},\n", s.compute_ns));
        out.push_str(&format!("      \"commit_ns\": {},\n", s.commit_ns));
        out.push_str(&format!("      \"dispatch_ns\": {},\n", s.dispatch_ns));
        out.push_str(&format!(
            "      \"adaptive_serial_cycles\": {},\n",
            s.adaptive_serial_cycles
        ));
        out.push_str(&format!(
            "      \"adaptive_parallel_cycles\": {},\n",
            s.adaptive_parallel_cycles
        ));
        out.push_str(&format!(
            "      \"cycles_per_sec\": {},\n",
            f(s.cycles_per_sec())
        ));
        out.push_str(&format!(
            "      \"flit_hops_per_sec\": {},\n",
            f(s.flit_hops_per_sec())
        ));
        match base {
            Some(b) if b.cycles_per_sec.is_finite() => {
                out.push_str(&format!(
                    "      \"baseline_cycles_per_sec\": {},\n",
                    f(b.cycles_per_sec)
                ));
                out.push_str(&format!(
                    "      \"speedup_vs_baseline\": {}\n",
                    f(s.cycles_per_sec() / b.cycles_per_sec)
                ));
            }
            _ => {
                out.push_str("      \"baseline_cycles_per_sec\": null,\n");
                out.push_str("      \"speedup_vs_baseline\": null\n");
            }
        }
        out.push_str(if i + 1 == samples.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    if sweep.is_empty() {
        out.push_str("  ]\n");
    } else {
        out.push_str("  ],\n");
        out.push_str("  \"points_per_sec\": [\n");
        for (i, s) in sweep.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"mode\": \"{}\",\n", s.mode));
            out.push_str(&format!("      \"workers\": {},\n", s.workers));
            out.push_str(&format!("      \"points\": {},\n", s.points));
            out.push_str(&format!("      \"wall_ms\": {},\n", s.wall.as_millis()));
            out.push_str(&format!(
                "      \"points_per_sec\": {}\n",
                f(s.points_per_sec())
            ));
            out.push_str(if i + 1 == sweep.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        let speedup = warm_speedup(sweep);
        match speedup {
            Some(x) => {
                out.push_str("  ],\n");
                out.push_str(&format!("  \"warm_speedup\": {}\n", f(x)));
            }
            None => out.push_str("  ]\n"),
        }
    }
    out.push_str("}\n");
    out
}

/// Warm-over-fresh points/sec ratio when the slice holds both modes at
/// the same worker count; `None` otherwise.
#[must_use]
pub fn warm_speedup(sweep: &[SweepPerfSample]) -> Option<f64> {
    let warm = sweep.iter().find(|s| s.mode == "warm")?;
    let fresh = sweep
        .iter()
        .find(|s| s.mode == "fresh" && s.workers == warm.workers)?;
    Some(warm.points_per_sec() / fresh.points_per_sec().max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_simulate_deterministic_cycles() {
        let a = mesh_throughput(200, 1);
        let b = mesh_throughput(200, 1);
        assert_eq!(a.cycles, b.cycles, "same traffic, same cycles");
        assert_eq!(a.flit_hops, b.flit_hops);
        assert_eq!(a.packets, 200);
        assert_eq!(a.threads, 1);
        assert_eq!(a.parallel_cycles, 0, "serial run never shards");
    }

    #[test]
    fn thread_count_changes_only_wall_time() {
        for run in [mesh_throughput, halo_throughput, mesh_sat_throughput] {
            let serial = run(200, 1);
            let threaded = run(200, 2);
            assert_eq!(serial.cycles, threaded.cycles, "{}", serial.config);
            assert_eq!(serial.flit_hops, threaded.flit_hops, "{}", serial.config);
            assert_eq!(serial.packets, threaded.packets, "{}", serial.config);
            assert_eq!(threaded.threads, 2);
        }
    }

    #[test]
    fn halo_sample_delivers_multicasts() {
        let s = halo_throughput(64, 1);
        // Spike multicasts deliver to 16 banks each, so deliveries
        // exceed injections.
        assert!(s.packets > 64, "deliveries {}", s.packets);
        assert!(s.flit_hops > 0);
    }

    #[test]
    fn saturation_configs_complete_their_window() {
        let m = mesh_sat_throughput(300, 1);
        assert_eq!(m.packets, 300, "every unicast delivered");
        let h = halo_sat_throughput(100, 2);
        // Multicasts fan out, so endpoint deliveries exceed the 100
        // completed transactions.
        assert!(h.packets >= 100, "deliveries {}", h.packets);
        assert_eq!(h.config, "halo-sat");
        assert_eq!(
            halo_sat_throughput(100, 1).cycles,
            h.cycles,
            "saturation loop is bit-identical across thread counts"
        );
    }

    #[test]
    fn giant_config_is_bit_identical_across_threads_and_sources() {
        let serial = giant_sat_throughput(150, 1, 4);
        let threaded = giant_sat_throughput(150, 4, 4);
        assert_eq!(serial.cycles, threaded.cycles);
        assert_eq!(serial.flit_hops, threaded.flit_hops);
        assert_eq!(serial.packets, 150);
        // More sources change the traffic (different scenario), but the
        // run stays deterministic for a fixed source count.
        let eight = giant_sat_throughput(150, 1, 8);
        assert_eq!(eight.cycles, giant_sat_throughput(150, 2, 8).cycles);
    }

    #[test]
    fn trajectory_roundtrips_through_the_renderer() {
        let samples = [mesh_throughput(50, 1), halo_throughput(50, 2)];
        let runs = parse_trajectory(&render_perf_json(&PerfKnobs::new(50, 1, 4), &samples))
            .expect("own output parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].config, "fig7-mesh");
        assert_eq!(runs[0].threads, 1);
        assert_eq!(runs[1].config, "halo");
        assert_eq!(runs[1].threads, 2);
        for (run, s) in runs.iter().zip(&samples) {
            // The renderer rounds to one decimal; the parse must agree
            // to that precision.
            assert!(
                (run.cycles_per_sec - s.cycles_per_sec()).abs() <= 0.05 + 1e-9,
                "{} {} vs {}",
                run.config,
                run.cycles_per_sec,
                s.cycles_per_sec()
            );
        }
    }

    #[test]
    fn trajectory_refuses_other_schemas() {
        let v1 = "{\n  \"schema\": \"nucanet/perf-v1\",\n  \"runs\": [\n    {\n      \
                  \"config\": \"fig7-mesh\",\n      \"cycles_per_sec\": 28400.0\n    }\n  ]\n}\n";
        let err = parse_trajectory(v1).unwrap_err();
        assert!(err.contains("nucanet/perf-v1"), "{err}");
        assert!(err.contains(PERF_SCHEMA), "{err}");
        assert!(err.contains("re-record"), "{err}");

        let e2 = parse_trajectory("{\n  \"name\": \"perf\"\n}\n").unwrap_err();
        assert!(e2.contains("no \"schema\" field"), "{e2}");
    }

    #[test]
    fn sweep_section_renders_and_keeps_the_trajectory_parseable() {
        let points = screening_points(6);
        let fresh = sweep_throughput(&points, 1, false);
        let warm = sweep_throughput(&points, 1, true);
        assert_eq!(fresh.points, 6);
        assert_eq!(warm.mode, "warm");
        assert!(warm.points_per_sec() > 0.0);
        let sweep = [fresh, warm];
        assert!(warm_speedup(&sweep).is_some());
        let json = render_perf_json_with_sweep(
            &PerfKnobs::new(50, 1, 4),
            &[mesh_throughput(50, 1)],
            &sweep,
        );
        assert!(json.contains("\"points_per_sec\": ["), "{json}");
        assert!(json.contains("\"mode\": \"warm\""), "{json}");
        assert!(json.contains("\"warm_speedup\":"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The section must not disturb the cycles/sec trajectory parser.
        let runs = parse_trajectory(&json).expect("sweep section leaves runs parseable");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].config, "fig7-mesh");
    }

    #[test]
    fn screening_points_share_one_structure() {
        let points = screening_points(16);
        assert_eq!(points.len(), 16);
        for p in &points[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&p.config, &points[0].config),
                "screening points must share one Arc'd config"
            );
        }
        // Seeds differ per point, so the workload is not 16 repeats.
        assert_ne!(points[0].scale.seed, points[1].scale.seed);
    }

    #[test]
    fn json_names_all_configs() {
        let json = render_perf_json(
            &PerfKnobs::new(50, 1, 4),
            &[
                mesh_throughput(50, 1),
                halo_throughput(50, 1),
                mesh_sat_throughput(50, 1),
                halo_sat_throughput(50, 1),
            ],
        );
        assert!(json.contains("\"fig7-mesh\""));
        assert!(json.contains("\"halo\""));
        assert!(json.contains("\"mesh-sat\""));
        assert!(json.contains("\"halo-sat\""));
        assert!(json.contains("nucanet/perf-v2"));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"host_cores\":"));
        assert!(json.contains("\"compute_ns\":"));
        assert!(json.contains("\"dispatch_ns\":"));
        assert!(json.contains("\"adaptive_serial_cycles\":"));
        assert!(json.contains("\"adaptive_parallel_cycles\":"));
        assert!(json.contains("\"router_visits\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn knobs_roundtrip_and_gate_the_baseline() {
        let knobs = PerfKnobs::new(50, 3, 8);
        let json = render_perf_json(&knobs, &[mesh_throughput(50, 1)]);
        assert_eq!(parse_knobs(&json), Ok(knobs));
        assert_eq!(parse_baseline(&json, &knobs).expect("same knobs").len(), 1);
        for (other, name) in [
            (PerfKnobs::new(60, 3, 8), "packets"),
            (PerfKnobs::new(50, 1, 8), "repeats"),
            (PerfKnobs::new(50, 3, 4), "cores"),
            (
                PerfKnobs {
                    strategy: MulticastStrategy::Path,
                    ..knobs
                },
                "strategy",
            ),
        ] {
            let err = parse_baseline(&json, &other).unwrap_err();
            assert!(
                err.contains(name) && err.contains("different knobs"),
                "{err}"
            );
        }
        // A document written before knobs were recorded proves nothing
        // about how it was measured: refused, not guessed.
        let legacy = json.replace(&format!("  \"knobs\": {},\n", knobs.render()), "");
        assert!(!legacy.contains("knobs"));
        let err = parse_baseline(&legacy, &knobs).unwrap_err();
        assert!(
            err.contains("no run knobs") && err.contains("re-record"),
            "{err}"
        );
    }

    /// Router visits the kernel took on `halo_throughput(1000, _)` while
    /// a returning credit still woke its upstream router whether or not
    /// that router held a flit. The halo's burst-and-drain traffic
    /// returns a credit for every flit hop, most of them to routers the
    /// worm has already left.
    const HALO_1000_VISITS_WITH_CREDIT_WAKEUPS: u64 = 61_444;

    #[test]
    fn router_visits_are_thread_invariant_and_skip_credit_wakeups() {
        let serial = halo_throughput(1000, 1);
        let threaded = halo_throughput(1000, 4);
        assert_eq!(serial.cycles, threaded.cycles);
        assert_eq!(
            serial.router_visits, threaded.router_visits,
            "both kernels count the same worklist entries"
        );
        assert!(
            serial.router_visits < HALO_1000_VISITS_WITH_CREDIT_WAKEUPS,
            "{} visits: empty routers are being woken by credits again",
            serial.router_visits
        );
    }
}
