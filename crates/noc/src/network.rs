//! The cycle-driven wormhole network simulator.
//!
//! [`Network`] steps all routers in lockstep. Each cycle a router
//! performs, for flits at the front of input VCs:
//!
//! 1. **Routing + VC allocation** (lookahead/single-cycle: both complete
//!    within the cycle): heads pick an output port from the routing
//!    table and claim a free downstream VC with available credit
//!    tracking. Multicast heads additionally reserve a replica VC in a
//!    different input physical channel (§3.1 hybrid replication).
//! 2. **Switch allocation**: round-robin input-side VC selection, then
//!    round-robin output-side port arbitration — VCs of one physical
//!    channel share a crossbar port, so at most one flit leaves each
//!    input port per cycle, and at most one flit enters each output.
//! 3. **Traversal**: winners move across the crossbar; link traversal
//!    takes the link's wire delay; a credit returns upstream when a flit
//!    leaves an input buffer.
//!
//! With `router_stages = 1` a flit can enter and leave a router in the
//! same cycle, reproducing the paper's single-cycle router; larger
//! values model a conventional pipeline for ablations.
//!
//! A [`FaultSchedule`] (see [`crate::faults`]) can take links down and
//! up at fixed cycles. Each state change rebuilds the routing table over
//! the surviving links; heads that lose every path wait in place for a
//! repair, and a permanent partition eventually surfaces as a
//! [`SimError::Watchdog`] from [`Network::step`] instead of a panic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::check::InvariantChecker;
use crate::commit::{apply_intent, apply_winner, commit_shim, CommitJob, Effect, Mailbox, SlabPtrs};
use crate::deadlock::ChannelDependencyGraph;
use crate::error::SimError;
use crate::event_wheel::EventWheel;
use crate::evlog::{EventLog, NetEvent};
use crate::faults::FaultSchedule;
use crate::ids::{Endpoint, LinkId, NodeId, PortId};
use crate::packet::{FlitRef, Packet, PacketId};
use crate::par::SimPool;
use crate::params::RouterParams;
use crate::router::{
    ComputeScratch, NetSlabs, OutRoute, RouteIntent, RouterIntent, RouterScratch, Split,
};
use crate::routing::{RoutingBuilder, RoutingTable};
use crate::stats::NetStats;
use crate::strategy::MulticastStrategy;
use crate::topology::{PortLabel, Topology};

/// Fewest active routers for which an *uncalibrated* gate shards a
/// cycle — the static floor the adaptive threshold starts from (and
/// never drops below). Kept low so correctness campaigns on small
/// topologies (the fuzzer's meshes) still exercise the two-phase path
/// with `sim_threads > 1` before calibration settles.
const MIN_PAR_WORK: usize = 8;

/// Hard ceiling on the adaptive threshold: on hosts where a pool
/// dispatch never pays for itself (one core, heavy oversubscription)
/// the calibrated break-even grows without bound; clamping keeps the
/// arithmetic sane. Effectively "always serial" for any real topology.
const MAX_PAR_WORK: usize = 1 << 20;

/// A serial-decided cycle every this many consecutive parallel cycles
/// re-measures the serial kernel, so the serial-cost estimate tracks
/// the workload as it drifts. Cheap: a serial probe does strictly less
/// work than the parallel cycle it replaces would have.
const SERIAL_PROBE_EVERY: u32 = 1024;

/// A parallel-decided cycle every this many consecutive serial cycles
/// re-measures the pool dispatch, so a host whose scheduling improves
/// (cores freed up) gets the parallel kernel back. Each probe that
/// still loses doubles the interval (up to [`PAR_PROBE_MAX`]) so a
/// host where sharding never pays converges to near-zero probe
/// overhead; a probe that would win snaps the interval back here.
const PAR_PROBE_EVERY: u32 = 512;

/// Ceiling for the parallel-probe backoff. At this interval even a
/// grossly oversubscribed probe (a parallel cycle costing 50x a serial
/// one) stays under 0.1% of wall time.
const PAR_PROBE_MAX: u32 = 1 << 16;

/// Serial cycles are timed once every this many (when `sim_threads >
/// 1`), amortizing the two `Instant::now` calls so the gate costs the
/// serial path nearly nothing.
const SERIAL_SAMPLE_EVERY: u32 = 8;

/// EWMA smoothing for the gate's cost estimates: `new = (1 - ALPHA) *
/// old + ALPHA * sample`.
const GATE_ALPHA: f64 = 0.1;

/// Wall-clock breakdown of the two-phase cycle kernel. Lives outside
/// [`NetStats`] on purpose: stats are part of the bit-identity
/// determinism contract, and wall-clock timings must never be.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStats {
    /// Cycles that ran the parallel two-phase kernel.
    pub parallel_cycles: u64,
    /// Cycles that ran the classic serial kernel (thread count 1, or
    /// the adaptive gate choosing serial).
    pub serial_cycles: u64,
    /// Nanoseconds spent in the sharded compute phase.
    pub compute_ns: u64,
    /// Nanoseconds spent in the commit phase (the sharded apply plus
    /// the deterministic merge, or the serial fallback).
    pub commit_ns: u64,
    /// Nanoseconds of pool dispatch overhead (job publish + waiting
    /// out the spawned workers' tail) across all parallel cycles.
    pub dispatch_ns: u64,
    /// Cycles the adaptive gate decided serially although `sim_threads
    /// > 1` (small worklist, or a calibrated host where dispatch never
    /// pays). Zero when `sim_threads == 1`.
    pub adaptive_serial_cycles: u64,
    /// Cycles the adaptive gate decided to shard (including
    /// calibration probes). Zero when `sim_threads == 1`.
    pub adaptive_parallel_cycles: u64,
    /// Router turns taken: the summed length of every cycle's worklist.
    /// Unlike the fields above this is a deterministic work count — it
    /// depends only on the simulated traffic, never on the host or the
    /// kernel, and is equal for every `sim_threads` value.
    pub router_visits: u64,
}

/// Online serial-vs-parallel calibration for the cycle kernel.
///
/// Both kernels are bit-identical, so the choice is free of
/// determinism risk — purely a wall-clock decision, re-made every
/// cycle from three measured quantities:
///
/// * `serial_ns_per_router` — EWMA of the serial kernel's cost per
///   worklist router, sampled every [`SERIAL_SAMPLE_EVERY`]-th serial
///   cycle (and on every serial probe);
/// * `dispatch_ns` — EWMA of one parallel cycle's pool-dispatch
///   overhead, measured by [`SimPool`] as publish + tail-wait time and
///   differenced here per cycle;
/// * `par_ns_per_router` — EWMA of a whole parallel cycle's cost per
///   worklist router with the dispatch overhead subtracted out: the
///   sharded kernel's *measured* marginal rate, which already folds in
///   shard imbalance, the serial commit merge, and — crucially — hosts
///   where the "parallel" workers in fact serialize (one core, heavy
///   oversubscription) and the marginal rate exceeds serial.
///
/// The break-even worklist follows from pricing a cycle both ways with
/// measured rates: serial costs `s·W`, parallel costs `D + p·W`, so
/// parallel wins when `W > D / (s − p)` — and *never* when `p ≥ s`
/// (the threshold pegs to [`MAX_PAR_WORK`]). Unlike a model that
/// assumes compute divides by the thread count, this cannot be fooled
/// by a host that grants fewer cores than `sim_threads` asks for. The
/// threshold is clamped to `[MIN_PAR_WORK, MAX_PAR_WORK]` and defaults
/// to [`MIN_PAR_WORK`] until the estimates exist. Periodic probes run
/// the minority kernel so whichever estimate is going stale gets
/// refreshed (see [`SERIAL_PROBE_EVERY`] / [`PAR_PROBE_EVERY`]);
/// parallel probes back off exponentially while they keep losing.
///
/// The estimates describe the *host*, not the simulation, so they
/// survive [`Network::reset`] along with the pool.
#[derive(Debug)]
struct AdaptiveGate {
    /// EWMA serial cost per worklist router, ns; 0 until first sample.
    serial_ns_per_router: f64,
    /// EWMA parallel marginal cost per worklist router (dispatch
    /// excluded), ns; 0 until the first parallel cycle.
    par_ns_per_router: f64,
    /// EWMA pool-dispatch overhead per parallel cycle, ns; 0 until the
    /// first parallel cycle.
    dispatch_ns: f64,
    /// Pool cumulative dispatch counter at the last reading.
    last_dispatch_total: u64,
    /// Calibrated break-even worklist length.
    threshold: usize,
    /// Consecutive serial decisions (drives parallel probing).
    serial_streak: u32,
    /// Consecutive parallel decisions (drives serial probing).
    parallel_streak: u32,
    /// Current parallel-probe interval (doubles while probes lose).
    par_probe_interval: u32,
    /// Serial cycles since the last timed one.
    sample_tick: u32,
    /// The next serial cycle is a probe: time it regardless of the
    /// sampling tick.
    probe_pending: bool,
}

impl Default for AdaptiveGate {
    fn default() -> Self {
        AdaptiveGate {
            serial_ns_per_router: 0.0,
            par_ns_per_router: 0.0,
            dispatch_ns: 0.0,
            last_dispatch_total: 0,
            threshold: MIN_PAR_WORK,
            serial_streak: 0,
            parallel_streak: 0,
            par_probe_interval: PAR_PROBE_EVERY,
            sample_tick: 0,
            probe_pending: false,
        }
    }
}

impl AdaptiveGate {
    /// Decides this cycle's kernel for a worklist of `work_len` active
    /// routers (`sim_threads > 1` and `work_len > 0` at every call).
    fn choose_parallel(&mut self, work_len: usize) -> bool {
        // Bootstrap: price both kernels before trusting the threshold.
        // The first gated cycle shards (seeding the dispatch estimate),
        // the next runs serial with forced timing (seeding the serial
        // estimate) — so calibration completes within two cycles
        // instead of waiting out a probe interval, which matters for
        // short runs on hosts where sharding never pays.
        let mut par = if self.dispatch_ns == 0.0 {
            true
        } else if self.serial_ns_per_router == 0.0 {
            self.probe_pending = true;
            false
        } else {
            work_len >= self.threshold
        };
        if par {
            if self.parallel_streak >= SERIAL_PROBE_EVERY {
                par = false;
                self.probe_pending = true;
            }
        } else if self.serial_streak >= self.par_probe_interval && self.serial_ns_per_router > 0.0
        {
            par = true;
        }
        if par {
            self.parallel_streak += 1;
            self.serial_streak = 0;
        } else {
            self.serial_streak += 1;
            self.parallel_streak = 0;
        }
        par
    }

    /// Whether this serial cycle should be timed.
    fn serial_sample_due(&mut self) -> bool {
        if std::mem::take(&mut self.probe_pending) {
            self.sample_tick = 0;
            return true;
        }
        self.sample_tick += 1;
        if self.sample_tick >= SERIAL_SAMPLE_EVERY {
            self.sample_tick = 0;
            true
        } else {
            false
        }
    }

    /// Feeds one timed serial cycle (`elapsed` ns over `work_len`
    /// routers) into the serial-cost estimate.
    fn note_serial(&mut self, elapsed_ns: u64, work_len: usize) {
        let per_router = elapsed_ns as f64 / work_len.max(1) as f64;
        self.serial_ns_per_router = if self.serial_ns_per_router == 0.0 {
            per_router
        } else {
            (1.0 - GATE_ALPHA) * self.serial_ns_per_router + GATE_ALPHA * per_router
        };
        self.update_threshold();
    }

    /// Feeds one whole parallel cycle (`elapsed` ns over `work_len`
    /// routers, with the pool's cumulative dispatch counter for the
    /// fixed-overhead split) into the parallel-cost estimates; returns
    /// the per-cycle dispatch delta for [`PhaseStats::dispatch_ns`].
    fn note_parallel(&mut self, pool_total_ns: u64, elapsed_ns: u64, work_len: usize) -> u64 {
        let delta = pool_total_ns.saturating_sub(self.last_dispatch_total);
        self.last_dispatch_total = pool_total_ns;
        self.dispatch_ns = if self.dispatch_ns == 0.0 {
            delta as f64
        } else {
            (1.0 - GATE_ALPHA) * self.dispatch_ns + GATE_ALPHA * delta as f64
        };
        let marginal = elapsed_ns.saturating_sub(delta) as f64 / work_len.max(1) as f64;
        self.par_ns_per_router = if self.par_ns_per_router == 0.0 {
            marginal
        } else {
            (1.0 - GATE_ALPHA) * self.par_ns_per_router + GATE_ALPHA * marginal
        };
        self.update_threshold();
        // Probe backoff: a parallel cycle that leaves the threshold
        // above this worklist just confirmed serial still wins here —
        // stretch the next probe out. One that would win resets the
        // cadence (the threshold decision takes over from there).
        if work_len < self.threshold {
            self.par_probe_interval = (self.par_probe_interval * 2).min(PAR_PROBE_MAX);
        } else {
            self.par_probe_interval = PAR_PROBE_EVERY;
        }
        delta
    }

    /// Re-derives the break-even worklist from the current estimates:
    /// `D / (s − p)` routers, or "never" when the measured parallel
    /// marginal rate is no better than serial.
    fn update_threshold(&mut self) {
        if self.serial_ns_per_router > 0.0 && self.dispatch_ns > 0.0 {
            let gain = self.serial_ns_per_router - self.par_ns_per_router;
            self.threshold = if gain <= 0.0 {
                MAX_PAR_WORK
            } else {
                ((self.dispatch_ns / gain).ceil() as usize).clamp(MIN_PAR_WORK, MAX_PAR_WORK)
            };
        }
    }

    /// The threshold the sharded-commit decision shares (no probing:
    /// runs inside an already-parallel cycle).
    fn run_threshold(&self) -> usize {
        self.threshold
    }
}

/// A packet handed to a local sink.
#[derive(Debug)]
pub struct Delivered<P> {
    /// The packet (shared with any other multicast deliveries).
    pub packet: Arc<Packet<P>>,
    /// Which endpoint received it.
    pub endpoint: Endpoint,
    /// Cycle the tail flit was ejected.
    pub cycle: u64,
}

// Manual impl: `derive(Clone)` would demand `P: Clone`, but cloning
// only bumps the `Arc` and copies plain fields.
impl<P> Clone for Delivered<P> {
    fn clone(&self) -> Self {
        Delivered {
            packet: Arc::clone(&self.packet),
            endpoint: self.endpoint,
            cycle: self.cycle,
        }
    }
}

#[derive(Debug)]
enum EvKind<P> {
    /// A flit finishes traversing `link` into downstream VC `vc`.
    Arrive {
        link: LinkId,
        vc: u8,
        flit: FlitRef<P>,
    },
    /// A credit returns to the upstream side of `link`, VC `vc`.
    Credit { link: LinkId, vc: u8 },
}

/// Cycle-driven network of single-cycle multicasting wormhole routers.
pub struct Network<P> {
    /// Shared read-only topology. Behind an `Arc` so a structural cache
    /// can hand the same instance to every worker's network; the kernel
    /// never mutates it.
    topo: Arc<Topology>,
    /// The routing table in use. Starts as the (possibly shared)
    /// fault-free table; the first fault replaces it with a privately
    /// owned degraded copy, so a shared pristine table is never written.
    table: Arc<RoutingTable>,
    params: RouterParams,
    /// All router microarchitectural state, as structure-of-arrays
    /// slabs: each router's VC buffers, routes, credits, and round-robin
    /// pointers occupy a contiguous index range of flat arrays (see
    /// [`NetSlabs`]), so the compute phase streams contiguous memory
    /// and the sharded commit can hand workers disjoint ranges.
    slabs: NetSlabs<P>,
    /// In-flight flits and returning credits, bucketed by due cycle.
    /// Every delay is a small constant fixed at construction, so a
    /// calendar queue replaces the comparison-based heap; FIFO buckets
    /// preserve the old `(when, seq)` heap order exactly.
    events: EventWheel<EvKind<P>>,
    /// Reusable per-cycle temporaries of the router loop (switch
    /// allocation candidates, winners, the sorted worklist). Owned
    /// here so `step` performs no steady-state allocations.
    scratch: RouterScratch,
    cycle: u64,
    next_packet: u64,
    /// Routers that may have work this coming cycle.
    pending: Vec<u32>,
    pending_flag: Vec<bool>,
    delivered: VecDeque<Delivered<P>>,
    /// Remote replica reservations, indexed `link.0 * vcs + vc`; an
    /// upstream router may not allocate a reserved downstream VC.
    reserved: Vec<bool>,
    /// Flits currently on the wire, indexed `link.0 * vcs + vc`. A VC
    /// with in-flight flits is not free for replica reservation even if
    /// its buffer is empty.
    inflight: Vec<u32>,
    stats: NetStats,
    last_progress: u64,
    /// Optional debugging event log (disabled by default).
    evlog: Option<EventLog>,
    /// Optional runtime invariant checker (disabled by default; see
    /// [`crate::check`]). The disabled path is one branch per hook so
    /// the kernel stays allocation-free.
    checker: Option<InvariantChecker>,
    /// Scheduled link faults (empty by default) and the cursor of the
    /// next event still to apply.
    faults: FaultSchedule,
    next_fault: usize,
    /// Per-link up/down state under the fault schedule.
    link_up: Vec<bool>,
    /// The fault-free routing table, kept from the first fault rebuild
    /// onward so injection checks and reroute accounting can compare
    /// against the intact topology. `None` until a fault applies.
    base_table: Option<Arc<RoutingTable>>,
    /// A retired degraded table kept across [`Network::reset`] so the
    /// next run's first fault can rebuild into its storage instead of
    /// allocating a fresh table. Always uniquely owned.
    spare_table: Option<Arc<RoutingTable>>,
    /// Masked-rebuild state (reverse adjacency index + dense scratch),
    /// created at the first fault event and reused for every later
    /// rebuild so fault recomputation stops reallocating O(n²).
    rebuilder: Option<RoutingBuilder>,
    /// Resolved compute-thread count (`params.sim_threads`, with `0`
    /// replaced by the host's available parallelism).
    sim_threads: usize,
    /// Persistent compute-phase worker pool, created on the first cycle
    /// that shards (never for `sim_threads == 1`).
    pool: Option<SimPool>,
    /// Per-router compute-phase intents, indexed by router id.
    intents: Vec<RouterIntent>,
    /// Routers whose compute pass bailed (multicast split needs live
    /// replica reservation) and re-run the serial kernel at commit.
    deferred: Vec<bool>,
    /// One compute scratch per pool worker (sized with the pool).
    compute_scratch: Vec<ComputeScratch>,
    /// `reserved` slots flipped during the current commit pass; a later
    /// router whose snapshot covered a flipped slot discards its intent
    /// and recomputes serially.
    res_dirty: Vec<bool>,
    res_dirty_list: Vec<u32>,
    /// Widest router (ports), for sizing per-worker scratch.
    max_ports: usize,
    /// Per-worker effect mailboxes for the sharded commit (sized with
    /// the pool).
    commit_mb: Vec<Mailbox<P>>,
    phase: PhaseStats,
    /// Online serial-vs-parallel calibration (meaningful only when
    /// `sim_threads > 1`). Host-describing, so it survives resets.
    gate: AdaptiveGate,
}

impl<P> Network<P> {
    /// Builds a network over `topo` using the given routing table.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn new(topo: Topology, table: RoutingTable, params: RouterParams) -> Self {
        Self::with_shared(Arc::new(topo), Arc::new(table), params)
    }

    /// Builds a network over *shared* structure: the topology and the
    /// fault-free routing table may be `Arc`s handed out by a structural
    /// cache and shared read-only across many networks (one per sweep
    /// worker). The kernel never writes through either `Arc` — fault
    /// rebuilds move the degraded table into a privately owned
    /// allocation first — so sharing is safe and free.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn with_shared(
        topo: Arc<Topology>,
        table: Arc<RoutingTable>,
        params: RouterParams,
    ) -> Self {
        params.validate();
        let slabs = NetSlabs::build(&topo, params.vcs_per_port, params.vc_depth);
        let n = topo.len();
        let n_links = topo.link_count();
        // Bound the event horizon: the longest link traversal (wire
        // delay plus extra pipeline stages) or the credit return,
        // whichever scheduling delay is larger.
        let max_link_delay = topo.links().iter().map(|l| l.delay).max().unwrap_or(1);
        let horizon = u64::from((max_link_delay + params.router_stages - 1).max(1))
            .max(u64::from(params.credit_delay));
        let max_ports = topo.routers().iter().map(|r| r.ports.len()).max().unwrap_or(0);
        let sim_threads = match params.sim_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            t => t as usize,
        };
        Network {
            stats: NetStats::new(n_links),
            evlog: None,
            checker: None,
            reserved: vec![false; n_links * params.vcs_per_port as usize],
            inflight: vec![0; n_links * params.vcs_per_port as usize],
            slabs,
            events: EventWheel::new(horizon),
            scratch: RouterScratch::for_max_ports(max_ports),
            cycle: 0,
            next_packet: 0,
            pending: Vec::new(),
            pending_flag: vec![false; n],
            delivered: VecDeque::new(),
            last_progress: 0,
            faults: FaultSchedule::default(),
            next_fault: 0,
            link_up: vec![true; n_links],
            base_table: None,
            spare_table: None,
            rebuilder: None,
            sim_threads,
            pool: None,
            intents: (0..n)
                .map(|_| RouterIntent::for_ports(max_ports, params.vcs_per_port as usize))
                .collect(),
            deferred: vec![false; n],
            compute_scratch: Vec::new(),
            res_dirty: vec![false; n_links * params.vcs_per_port as usize],
            // Pre-sized to its hard bound (one entry per distinct
            // (link, VC) slot) so the commit pre-scan never allocates.
            res_dirty_list: Vec::with_capacity(n_links * params.vcs_per_port as usize),
            max_ports,
            commit_mb: Vec::new(),
            phase: PhaseStats::default(),
            gate: AdaptiveGate::default(),
            topo,
            table,
            params,
        }
    }

    /// Returns the network to its just-constructed state while keeping
    /// every allocation: slab storage, event-wheel buckets, scratch
    /// buffers, mailboxes, the worker pool, and the fault-rebuild
    /// machinery all retain their capacity. This is the warm-evaluation
    /// path's arena reset — after it, the network is observationally
    /// identical to `Network::with_shared(topo, table, params)` on the
    /// same structure (bit-identical simulation results), but stepping
    /// it performs zero steady-state allocations from the first cycle.
    ///
    /// The fault schedule, event log, and invariant checker are
    /// cleared (they are per-run configuration; reinstall per point).
    /// If a fault had degraded the routing table, the pristine table
    /// `Arc` moves back into place and the degraded copy is retired as
    /// a spare for the next run's first fault rebuild.
    pub fn reset(&mut self) {
        self.slabs.reset(self.params.vc_depth);
        self.events.clear();
        self.scratch.requesting.clear();
        self.scratch.winners.clear();
        self.scratch.work.clear();
        self.cycle = 0;
        self.next_packet = 0;
        self.pending.clear();
        self.pending_flag.fill(false);
        self.delivered.clear();
        self.reserved.fill(false);
        self.inflight.fill(0);
        self.stats.reset();
        self.last_progress = 0;
        self.evlog = None;
        self.checker = None;
        self.faults = FaultSchedule::default();
        self.next_fault = 0;
        self.link_up.fill(true);
        // Restore the fault-free table; keep the degraded storage (and
        // the rebuilder scratch) so a faulted next run allocates nothing.
        if let Some(pristine) = self.base_table.take() {
            let degraded = std::mem::replace(&mut self.table, pristine);
            self.spare_table = Some(degraded);
        }
        for intent in &mut self.intents {
            intent.clear();
        }
        self.deferred.fill(false);
        self.res_dirty.fill(false);
        self.res_dirty_list.clear();
        for mb in &mut self.commit_mb {
            mb.clear();
        }
        self.phase = PhaseStats::default();
    }

    /// Installs a fault schedule. Events at or before the current cycle
    /// apply on the next [`Network::step`]. Replaces any earlier
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics when an event names a link the topology does not have.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        for e in schedule.events() {
            assert!(
                (e.link.0 as usize) < self.topo.link_count(),
                "fault schedule names nonexistent link {:?}",
                e.link
            );
        }
        self.faults = schedule;
        self.next_fault = 0;
    }

    /// Whether `link` is currently up under the fault schedule.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.0 as usize]
    }

    /// The routing table of the intact topology (ignoring faults).
    fn pristine_table(&self) -> &RoutingTable {
        self.base_table.as_deref().unwrap_or(&self.table)
    }

    /// Applies fault events due at the current cycle and rebuilds the
    /// routing table around the surviving links.
    fn apply_due_faults(&mut self) {
        let mut changed = false;
        while let Some(&ev) = self.faults.events().get(self.next_fault) {
            if ev.cycle > self.cycle {
                break;
            }
            self.next_fault += 1;
            let slot = ev.link.0 as usize;
            if self.link_up[slot] == ev.up {
                continue;
            }
            self.link_up[slot] = ev.up;
            changed = true;
            if ev.up {
                self.stats.link_up_events += 1;
            } else {
                self.stats.link_down_events += 1;
            }
            self.log(NetEvent::LinkState {
                cycle: self.cycle,
                link: ev.link,
                up: ev.up,
            });
        }
        if changed {
            if self.rebuilder.is_none() {
                self.rebuilder = Some(
                    RoutingBuilder::new(self.table.spec(), &self.topo)
                        .expect("the spec already built a table for this topology"),
                );
            }
            let rebuilder = self.rebuilder.as_mut().expect("created above");
            // Invariant: `base_table` is written exactly once per run —
            // at the first fault event, when `self.table` still is the
            // intact (possibly shared) table. That first rebuild goes
            // into a privately owned `Arc` — a spare retired by a prior
            // [`Network::reset`] when one exists, a fresh allocation
            // otherwise — so the intact table moves into `base_table`
            // unchanged and a table shared through a structural cache is
            // never written. Every later rebuild (repairs included)
            // reuses the degraded table's storage and the builder's
            // scratch, so steady-state fault recomputation allocates
            // nothing. `pristine_table` keeps serving the fault-free
            // view for injection checks and reroute accounting.
            if self.base_table.is_none() {
                let rebuilt = match self.spare_table.take() {
                    Some(mut spare) => {
                        let t = Arc::get_mut(&mut spare).expect("spare table is uniquely owned");
                        rebuilder.rebuild_into(&self.topo, &self.link_up, t);
                        spare
                    }
                    None => Arc::new(rebuilder.build(&self.topo, &self.link_up)),
                };
                let pristine = std::mem::replace(&mut self.table, rebuilt);
                self.base_table = Some(pristine);
            } else {
                let t = Arc::get_mut(&mut self.table)
                    .expect("degraded table is uniquely owned after the first fault");
                rebuilder.rebuild_into(&self.topo, &self.link_up, t);
            }
            if let Some(checker) = &mut self.checker {
                let order =
                    ChannelDependencyGraph::from_all_pairs(&self.topo, &self.table).enumeration();
                checker.on_table_rebuilt(order);
            }
            // The topology changed: give stranded traffic a fresh
            // watchdog window to drain over the new routes, and wake
            // every router holding flits so blocked heads retry routing.
            self.last_progress = self.cycle;
            for i in 0..self.slabs.n_routers() {
                if self.slabs.has_work(i) {
                    self.mark_pending(NodeId(i as u32));
                }
            }
        }
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing table in use.
    pub fn routing(&self) -> &RoutingTable {
        &self.table
    }

    /// Router parameters.
    pub fn params(&self) -> &RouterParams {
        &self.params
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Wall-clock breakdown of the two-phase kernel. Unlike
    /// [`Network::stats`], this is *not* deterministic — it reports how
    /// much host time each phase took, never simulation results.
    pub fn phase_stats(&self) -> PhaseStats {
        self.phase
    }

    /// The resolved compute-thread count (after `sim_threads == 0`
    /// auto-detection). `1` means the serial kernel.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Enables event logging with a ring buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.evlog = Some(EventLog::new(capacity));
    }

    /// Takes the event log, disabling further logging.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.evlog.take()
    }

    /// Appends an externally observed event (e.g. a protocol-level
    /// packet drop) to the event log, so invariant-violation reports
    /// include the causal entry. No-op while logging is disabled.
    pub fn log_event(&mut self, ev: NetEvent) {
        self.log(ev);
    }

    /// Enables per-cycle invariant checking (see [`crate::check`]).
    /// Also enables a small event log when none is active, so violation
    /// reports carry recent history. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when traffic was already injected: the checker must
    /// observe every packet from injection onward.
    pub fn enable_invariant_checker(&mut self) {
        assert_eq!(
            self.next_packet, 0,
            "enable the invariant checker before injecting traffic"
        );
        if self.checker.is_some() {
            return;
        }
        if self.evlog.is_none() {
            self.enable_event_log(64);
        }
        let order = ChannelDependencyGraph::from_all_pairs(&self.topo, &self.table).enumeration();
        self.checker = Some(InvariantChecker::new(order, self.params.strategy));
    }

    /// The invariant checker, when enabled.
    pub fn invariant_checker(&self) -> Option<&InvariantChecker> {
        self.checker.as_ref()
    }

    /// Takes the invariant checker, disabling further checking.
    pub fn take_invariant_checker(&mut self) -> Option<InvariantChecker> {
        self.checker.take()
    }

    fn log(&mut self, ev: NetEvent) {
        if let Some(l) = &mut self.evlog {
            l.push(ev);
        }
    }

    /// Injects `packet` at its source endpoint's local port. All flits
    /// enter the source queue immediately; they start moving next cycle.
    /// Returns the assigned packet id.
    ///
    /// # Panics
    ///
    /// Panics when the source or a destination endpoint does not exist,
    /// when a destination is unroutable on the *intact* topology (a
    /// protocol bug — a route cut only by an active fault is accepted;
    /// the head waits for a repair), or when a multicast list visits the
    /// same router twice in a row.
    pub fn inject(&mut self, mut packet: Packet<P>) -> PacketId {
        let src = packet.src;
        let sp = self
            .local_port(src.node, src.slot)
            .unwrap_or_else(|| panic!("source endpoint {src} does not exist"));
        // The first endpoint may share the source router (e.g. the core
        // multicasting to the bank on its own router); consecutive
        // destination endpoints must live on distinct routers.
        let mut prev = src.node;
        for (i, e) in packet.dest.endpoints().iter().enumerate() {
            assert!(
                self.local_port(e.node, e.slot).is_some(),
                "destination endpoint {e} does not exist"
            );
            assert!(
                i == 0 || e.node != prev,
                "multicast list must not visit router {prev} twice in a row"
            );
            assert!(
                self.pristine_table().is_routable(prev, e.node),
                "no route from {prev} to {} under {:?}",
                e.node,
                self.table.spec()
            );
            prev = e.node;
        }
        packet.id = PacketId(self.next_packet);
        self.next_packet += 1;
        packet.injected_at = self.cycle;
        self.stats.packets_injected += 1;
        let id = packet.id;
        let flits = packet.flits;
        let pkt = Arc::new(packet);
        if let Some(c) = &mut self.checker {
            c.on_inject(id, flits, pkt.dest.endpoints());
        }
        // Pick the least-occupied injection VC so distinct packets can
        // interleave across VCs of the local port.
        let base = self.slabs.vc_slot(src.node.0 as usize, sp.0 as usize, 0);
        let vc_idx = (0..self.slabs.vcs)
            .min_by_key(|&v| self.slabs.occ[base + v])
            .expect("local ports always have VCs");
        let dest_hi = pkt.dest.endpoints().len() as u32;
        // One run-length entry (and one `Arc`) covers the whole packet,
        // however many flits it carries.
        self.slabs.buf[base + vc_idx].push_run(pkt, 0, flits, dest_hi);
        self.slabs.occ[base + vc_idx] += flits;
        let ps = self.slabs.port_slot(src.node.0 as usize, sp.0 as usize);
        self.slabs.port_occ[ps] += flits;
        self.slabs.buffered[src.node.0 as usize] += flits;
        self.mark_pending(src.node);
        self.log(NetEvent::Inject {
            cycle: self.cycle,
            packet: id,
            src,
            flits,
        });
        id
    }

    /// True when some router has buffered flits to process this cycle.
    pub fn is_busy(&self) -> bool {
        !self.pending.is_empty()
    }

    /// When idle, the cycle of the next scheduled event (in-flight flit
    /// or credit), if any.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.events.next_cycle()
    }

    /// Fast-forwards the clock to `cycle` while the network is idle.
    ///
    /// # Panics
    ///
    /// Panics if the network is busy, if an event is scheduled before
    /// `cycle`, or if `cycle` is in the past.
    pub fn skip_to(&mut self, cycle: u64) {
        assert!(!self.is_busy(), "cannot skip while routers have work");
        assert!(cycle >= self.cycle, "cannot skip backwards");
        if let Some(w) = self.next_event_cycle() {
            assert!(
                w >= cycle,
                "event scheduled at {w}, before skip target {cycle}"
            );
        }
        self.cycle = cycle;
        self.stats.cycles = cycle;
        self.last_progress = self.last_progress.max(cycle.saturating_sub(1));
    }

    /// Advances to the next cycle in which anything can happen: steps
    /// once when routers have work, otherwise fast-forwards to just
    /// before the next scheduled event and steps into it. With neither
    /// work nor events, simply advances the clock one cycle.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Network::step`].
    pub fn advance(&mut self) -> Result<(), SimError> {
        if !self.is_busy() {
            if let Some(w) = self.next_event_cycle() {
                if w > self.cycle + 1 {
                    self.skip_to(w - 1);
                }
            }
        }
        self.step()
    }

    /// Drains every delivery produced so far, in delivery order.
    pub fn drain_all_delivered(&mut self) -> Vec<Delivered<P>> {
        self.delivered.drain(..).collect()
    }

    /// Like [`Network::drain_all_delivered`], but appends into a
    /// caller-owned buffer so a driver loop can reuse one allocation
    /// across calls.
    pub fn drain_all_delivered_into(&mut self, out: &mut Vec<Delivered<P>>) {
        out.extend(self.delivered.drain(..));
    }

    /// Drains deliveries for one router (helper for small tests; large
    /// drivers should use [`Network::drain_all_delivered`]). Delivery
    /// order is preserved on both sides.
    pub fn drain_delivered(&mut self, node: NodeId) -> Vec<Delivered<P>> {
        let mut out = Vec::new();
        self.drain_delivered_into(node, &mut out);
        out
    }

    /// Appends deliveries for `node` into `out`; reusable-buffer variant
    /// of [`Network::drain_delivered`]. A single rotation pass *moves*
    /// each matched delivery out (no `Arc` clone): every entry is popped
    /// from the front exactly once and either kept or pushed back, so
    /// both the drained and the remaining sequences keep their order.
    pub fn drain_delivered_into(&mut self, node: NodeId, out: &mut Vec<Delivered<P>>) {
        for _ in 0..self.delivered.len() {
            let d = self.delivered.pop_front().expect("iterating current length");
            if d.endpoint.node == node {
                out.push(d);
            } else {
                self.delivered.push_back(d);
            }
        }
    }

    /// Advances the simulation by one cycle, applying any fault-schedule
    /// events that fall due first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Watchdog`] when the watchdog detects no
    /// forward progress for `params.watchdog_cycles` cycles while flits
    /// are buffered (a deadlock, a protocol bug, or traffic stranded by
    /// a permanent fault). The network state is left intact for
    /// inspection; further stepping keeps returning the error.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.apply_due_faults();
        self.deliver_events();
        // Deterministic processing order. The pending list and the
        // scratch worklist ping-pong so both keep their capacity:
        // `mark_pending` refills `self.pending` (now the recycled
        // buffer) while we iterate this cycle's sorted list.
        let mut work = std::mem::replace(&mut self.pending, std::mem::take(&mut self.scratch.work));
        work.sort_unstable();
        for &i in &work {
            self.pending_flag[i as usize] = false;
        }
        self.phase.router_visits += work.len() as u64;
        // The router turn applies global effects while `self` is
        // mutably borrowed, so it reads the topology through its own
        // handle (one reference-count bump per cycle).
        let topo = Arc::clone(&self.topo);
        // Reset last cycle's commit-time reservation dirty set.
        for &s in &self.res_dirty_list {
            self.res_dirty[s as usize] = false;
        }
        self.res_dirty_list.clear();
        // Kernel choice: per-instance calibration of the serial cost vs
        // the pool-dispatch cost (both kernels are bit-identical, so the
        // decision is pure wall-clock). With one thread there is no
        // choice and no gate bookkeeping at all.
        let parallel =
            self.sim_threads > 1 && !work.is_empty() && self.gate.choose_parallel(work.len());
        if parallel {
            self.phase.adaptive_parallel_cycles += 1;
            // Time the whole sharded cycle: the gate prices parallel
            // from its measured total cost, not a modeled speedup, so
            // a host that can't actually run the workers concurrently
            // calibrates itself back to serial.
            let t0 = Instant::now();
            self.step_two_phase(&work, &topo);
            let total = self.pool.as_ref().expect("pool created").dispatch_ns();
            self.phase.dispatch_ns +=
                self.gate
                    .note_parallel(total, t0.elapsed().as_nanos() as u64, work.len());
        } else {
            // Classic serial kernel — also the reference semantics the
            // two-phase kernel must reproduce bit-for-bit.
            self.phase.serial_cycles += 1;
            let gated = self.sim_threads > 1 && !work.is_empty();
            if gated {
                self.phase.adaptive_serial_cycles += 1;
            }
            let t0 = (gated && self.gate.serial_sample_due()).then(Instant::now);
            // Split borrow: take the slabs out of `self` once for the
            // whole loop; helpers receive them as an explicit argument.
            // Nothing below may touch `self.slabs` (it is empty) until
            // restored.
            let mut slabs = std::mem::take(&mut self.slabs);
            for &i in &work {
                self.process_router(i, &mut slabs, &topo);
            }
            self.slabs = slabs;
            if let Some(t0) = t0 {
                self.gate
                    .note_serial(t0.elapsed().as_nanos() as u64, work.len());
            }
        }
        work.clear();
        self.scratch.work = work;
        self.audit_invariants();
        if let Some(v) = self
            .checker
            .as_ref()
            .and_then(|c| c.violations().first())
        {
            return Err(SimError::Invariant(Box::new(v.clone())));
        }
        // Watchdog.
        if self.is_busy() && self.cycle - self.last_progress > self.params.watchdog_cycles {
            return Err(SimError::Watchdog {
                cycle: self.cycle,
                stalled_for: self.params.watchdog_cycles,
                buffered_flits: self.slabs.buffered_flits_total() as usize,
                busy_routers: self.pending.len(),
                blocked_heads: self.slabs.blocked_heads_total(),
                faults_active: self.stats.faults_active(),
            });
        }
        Ok(())
    }

    fn deliver_events(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut batch = self.events.take_due(self.cycle);
        for (_when, kind) in batch.drain(..) {
            match kind {
                EvKind::Arrive { link, vc, flit } => {
                    let l = *self.topo.link(link);
                    let slot = link.0 as usize * self.params.vcs_per_port as usize + vc as usize;
                    self.inflight[slot] -= 1;
                    let ps = self
                        .slabs
                        .port_slot(l.dst.0 as usize, l.dst_port.0 as usize);
                    self.slabs.util[ps] += 1;
                    let slot = ps * self.slabs.vcs + vc as usize;
                    assert!(
                        self.slabs.occ[slot] < u32::from(self.params.vc_depth),
                        "VC overflow at {} port {:?} vc {vc}: credit protocol violated",
                        l.dst,
                        l.dst_port
                    );
                    self.slabs.buf[slot].push_back(flit);
                    self.slabs.occ[slot] += 1;
                    self.slabs.port_occ[ps] += 1;
                    self.slabs.buffered[l.dst.0 as usize] += 1;
                    let occ = self.slabs.occ[slot] as u8;
                    if occ > self.stats.peak_vc_occupancy {
                        self.stats.peak_vc_occupancy = occ;
                    }
                    self.mark_pending(l.dst);
                }
                EvKind::Credit { link, vc } => {
                    let l = *self.topo.link(link);
                    let oslot =
                        self.slabs
                            .vc_slot(l.src.0 as usize, l.src_port.0 as usize, vc as usize);
                    self.slabs.out_credits[oslot] += 1;
                    assert!(
                        self.slabs.out_credits[oslot] <= self.params.vc_depth,
                        "credit overflow on {link:?} vc {vc}"
                    );
                    // A credit can only unblock buffered flits: the turn
                    // of a router holding none is a pure no-op, so an
                    // empty router stays asleep. When only credits are in
                    // flight the network is idle and `advance` skips
                    // straight to them.
                    if self.slabs.buffered[l.src.0 as usize] > 0 {
                        self.mark_pending(l.src);
                    }
                }
            }
        }
        self.events.recycle(batch);
    }

    fn mark_pending(&mut self, node: NodeId) {
        if !self.pending_flag[node.0 as usize] {
            self.pending_flag[node.0 as usize] = true;
            self.pending.push(node.0);
        }
    }

    fn local_port(&self, node: NodeId, slot: u16) -> Option<PortId> {
        if node.0 as usize >= self.topo.len() {
            return None;
        }
        self.topo.router(node).port_by_label(PortLabel::Local(slot))
    }

    fn schedule(&mut self, when: u64, kind: EvKind<P>) {
        self.events.schedule(self.cycle, when, kind);
    }

    /// One router's routing / VC allocation / switch allocation /
    /// traversal for the current cycle.
    ///
    /// `slabs` is the full SoA state, split-borrowed out of `self` by
    /// [`Network::step`] (or the commit loop) for the duration of the
    /// router loop, and `topo` is the caller's handle on `self.topo`.
    /// All per-cycle temporaries live in `self.scratch` (cleared, never
    /// reallocated), so steady-state processing is allocation-free.
    ///
    /// Only routers holding flits take a turn (a credit does not wake
    /// an empty router), and ports holding none are skipped by both the
    /// route scan and nomination, so a turn costs O(occupied ports).
    fn process_router(&mut self, idx: u32, slabs: &mut NetSlabs<P>, topo: &Topology) {
        let node = NodeId(idx);
        let ri = idx as usize;
        debug_assert!(slabs.buffered[ri] > 0, "router {ri} woken without flits");

        self.allocate_routes(node, slabs);

        // Phase A: each input port nominates one sendable VC. Nominees
        // land in a dense `(port, vc, output)` list (ascending port
        // order) so phase B touches only nominating ports instead of
        // rescanning every (output, input) pair against the route slab.
        // The VC walk wraps with a compare, not a division.
        let n_ports = slabs.n_ports(ri);
        let n_vcs = slabs.vcs as u8;
        debug_assert!(self.scratch.nominated.is_empty());
        for p in 0..n_ports {
            let ps = slabs.port_slot(ri, p);
            if slabs.port_occ[ps] == 0 {
                debug_assert!(slabs.occ[ps * slabs.vcs..(ps + 1) * slabs.vcs]
                    .iter()
                    .all(|&n| n == 0));
                continue;
            }
            let mut v = slabs.rr_in[ps];
            for _ in 0..n_vcs {
                if let Some(rt) = self.vc_sendable(slabs, ri, p, v as usize) {
                    self.scratch.nominated.push((p as u8, v, rt.port));
                    break;
                }
                v += 1;
                if v == n_vcs {
                    v = 0;
                }
            }
        }

        // Phase B: each requested output port grants one nominating
        // input port. Every nominee requests exactly one output, so the
        // nominee list partitions by output port; walking the distinct
        // outputs in ascending order visits them exactly as the
        // historical all-pairs `for o in 0..n_ports` scan did.
        debug_assert!(self.scratch.winners.is_empty());
        let mut next_o = self.scratch.nominated.iter().map(|&(_, _, o)| o).min();
        while let Some(o) = next_o {
            self.scratch.requesting.clear();
            let mut pick_v = 0;
            for &(p, v, po) in &self.scratch.nominated {
                if po == o {
                    self.scratch.requesting.push(p);
                    pick_v = v;
                }
            }
            let ps_o = slabs.port_slot(ri, o as usize);
            let start = slabs.out_rr[ps_o];
            let pick = self
                .scratch
                .requesting
                .iter()
                .copied()
                .find(|&p| p >= start)
                .unwrap_or(self.scratch.requesting[0]);
            let next = pick + 1;
            slabs.out_rr[ps_o] = if usize::from(next) == n_ports {
                0
            } else {
                next
            };
            if self.scratch.requesting.len() > 1 {
                pick_v = self
                    .scratch
                    .nominated
                    .iter()
                    .find(|&&(p, _, _)| p == pick)
                    .map(|&(_, v, _)| v)
                    .expect("picked port has a nominee");
            }
            self.scratch.winners.push((pick, pick_v));
            next_o = self
                .scratch
                .nominated
                .iter()
                .map(|&(_, _, po)| po)
                .filter(|&po| po > o)
                .min();
        }
        self.scratch.nominated.clear();

        // Traversal: apply each winner through the shared commit-path
        // implementation, with a sink that applies every global effect
        // on the spot — no mailbox round trip (see `apply_winner` for
        // why the order matches the sharded commit's merge). The
        // winners buffer moves out and back so `self` stays borrowable;
        // a Vec move allocates nothing.
        let winners = std::mem::take(&mut self.scratch.winners);
        let (params, cycle) = (self.params, self.cycle);
        let view = SlabPtrs::new(slabs);
        for &(p, v) in &winners {
            // SAFETY: `slabs` is exclusively borrowed here and the view
            // is used single-threaded, so the "caller owns the router"
            // contract holds trivially.
            unsafe {
                apply_winner(
                    &view,
                    topo,
                    &params,
                    cycle,
                    node,
                    p as usize,
                    v as usize,
                    &mut |e| self.apply_effect(e),
                );
            }
        }
        if !winners.is_empty() {
            self.last_progress = cycle;
        }
        self.scratch.winners = winners;
        self.scratch.winners.clear();

        if slabs.has_work(ri) {
            self.mark_pending(node);
        }
    }

    /// The two-phase cycle kernel: a sharded, read-only **compute**
    /// pass records each active router's decisions as intents, then a
    /// **commit** pass applies them in sorted worklist order — itself
    /// sharded by router ownership, with cross-router effects routed
    /// through per-worker mailboxes and merged in worklist order.
    ///
    /// # Why this is bit-identical to the serial kernel
    ///
    /// In the serial kernel, the only *cross-router* state a router's
    /// turn reads that an earlier router's turn may have written in the
    /// same cycle is (a) the remote-reservation bitmap `reserved`
    /// (consulted by output-VC allocation) and (b) upstream output-VC
    /// ownership plus wire occupancy (consulted only by the multicast
    /// replica-VC search). Buffers and credits of *other* routers
    /// cannot change mid-cycle: every flit arrival and credit return is
    /// scheduled at least one cycle ahead. The compute pass therefore
    /// works from a true snapshot, with those two channels handled as:
    ///
    /// * A router whose cycle needs the replica-VC search (a multicast
    ///   head splitting now) **defers**: its compute records nothing
    ///   and the commit pass runs the full serial [`Network::process_router`]
    ///   at its worklist turn. Because compute writes no live state,
    ///   the state a deferred router sees at its turn is exactly what
    ///   the serial kernel would have shown it — earlier routers fully
    ///   committed, later ones untouched.
    /// * A commit that flips a `reserved` slot (replica reserve or
    ///   release) marks it dirty; a later router whose output links
    ///   cover a dirty slot discards its intent and recomputes
    ///   serially at its turn ([`Network::intent_invalidated`]).
    ///
    /// Everything else an intent carries — routes, output-VC claims,
    /// round-robin pointers, switch winners — derives from the router's
    /// *own* state, which only its own turn mutates, and the commit
    /// replays those mutations in the serial order.
    fn step_two_phase(&mut self, work: &[u32], topo: &Topology) {
        self.phase.parallel_cycles += 1;
        if self.pool.is_none() {
            let pool = SimPool::new(self.sim_threads);
            self.compute_scratch = (0..pool.threads())
                .map(|_| ComputeScratch::for_max_ports(self.max_ports))
                .collect();
            // Hard bound per worker: its share of the worklist times
            // the per-router effect maximum (4 per winner, one winner
            // per port), so sharded commits never grow a mailbox.
            let mb_cap = (self.slabs.n_routers() * self.max_ports * 4)
                .div_ceil(pool.threads().max(1))
                + self.max_ports * 4;
            self.commit_mb = (0..pool.threads())
                .map(|_| Mailbox::with_capacity(mb_cap))
                .collect();
            self.pool = Some(pool);
        }

        // Compute phase: shard the worklist across the pool.
        let t_compute = Instant::now();
        {
            let intents = self.intents.as_mut_ptr();
            let deferred = self.deferred.as_mut_ptr();
            let scratch = self.compute_scratch.as_mut_ptr();
            let job = ComputeJob {
                ctx: ComputeCtx {
                    topo: &self.topo,
                    table: &self.table,
                    base: self.base_table.as_deref(),
                    params: &self.params,
                    reserved: &self.reserved,
                    slabs: &self.slabs,
                },
                work,
                intents,
                deferred,
                scratch,
                next: AtomicUsize::new(0),
            };
            let pool = self.pool.as_ref().expect("created above");
            // SAFETY: `compute_shim::<P>` only *reads* the shared
            // snapshot in `ctx` (plain fields and `Arc` targets; it
            // never clones, drops, or mutates an `Arc` and never touches
            // the `P` payload), and writes only disjoint slots:
            // `intents[i]` / `deferred[i]` for distinct router ids
            // claimed through the shared `next` counter, and
            // `scratch[w]` for the worker's own index. `run` blocks
            // until every worker finished, so the stack-borrowed `job`
            // outlives all use.
            unsafe { pool.run(compute_shim::<P>, (&raw const job).cast()) };
        }
        self.phase.compute_ns += t_compute.elapsed().as_nanos() as u64;

        // Commit phase: split the worklist into *runs* of committable
        // routers separated by *barriers* (deferred or invalidated
        // routers, which re-run the live serial kernel with all earlier
        // effects merged). Each run is applied by the pool — workers own
        // disjoint routers and record global effects in per-worker
        // mailboxes — then merged in worklist order, so the sequence of
        // global writes is exactly the serial kernel's.
        //
        // The pre-scan marks each valid intent's predicted reservation
        // releases dirty *before* extending the run past later routers
        // (check-then-mark: a router checks its own invalidation before
        // its releases are marked, just as the serial kernel flips
        // `reserved` only after that router's own decisions are done).
        // Predictions are exact — winners apply unconditionally, and a
        // replica VC's tail-at-front status is own-router state no
        // earlier commit can change — so the dirty set a later router
        // sees matches the serial kernel's flip-for-flip.
        let t_commit = Instant::now();
        let mut slabs = std::mem::take(&mut self.slabs);
        let intents = std::mem::take(&mut self.intents);
        let mut pos = 0;
        while pos < work.len() {
            let lo = pos;
            while pos < work.len() {
                let idx = work[pos];
                if self.deferred[idx as usize] || self.intent_invalidated(idx) {
                    break;
                }
                for &slot in &intents[idx as usize].releases {
                    if !self.res_dirty[slot as usize] {
                        self.res_dirty[slot as usize] = true;
                        self.res_dirty_list.push(slot);
                    }
                }
                pos += 1;
            }
            if pos > lo {
                self.commit_run(&work[lo..pos], &intents, &mut slabs, topo);
            }
            if pos < work.len() {
                // Barrier: live serial processing — exact by
                // construction, with every earlier effect applied.
                self.process_router(work[pos], &mut slabs, topo);
                pos += 1;
            }
        }
        self.intents = intents;
        self.slabs = slabs;
        self.phase.commit_ns += t_commit.elapsed().as_nanos() as u64;
    }

    /// Commits one run of valid intents: sharded across the pool when
    /// the run is large enough (followed by the in-order mailbox
    /// merge), serial otherwise (effects applied on the spot, as in the
    /// serial router turn). Either way the global write sequence is the
    /// serial kernel's.
    fn commit_run(
        &mut self,
        run: &[u32],
        intents: &[RouterIntent],
        slabs: &mut NetSlabs<P>,
        topo: &Topology,
    ) {
        let threads = self.sim_threads;
        if run.len() >= self.gate.run_threshold() && threads > 1 {
            {
                let job = CommitJob {
                    slabs: SlabPtrs::new(slabs),
                    topo: &self.topo,
                    params: &self.params,
                    intents: intents.as_ptr(),
                    run,
                    cycle: self.cycle,
                    mailboxes: self.commit_mb.as_mut_ptr(),
                    stride: threads,
                };
                let pool = self.pool.as_ref().expect("pool exists in two-phase path");
                // SAFETY: workers own disjoint routers (static
                // round-robin over run positions), and every slab write
                // in `apply_intent`/`apply_winner` stays inside the
                // owner's contiguous slot ranges; `mailboxes[w]` is
                // touched only by worker `w`. Shared state (`topo`,
                // `params`, `intents`) is read-only. Flits are moved or
                // `Arc`-cloned (atomic), never dropped, on workers —
                // the last drop and any `P` access happen on this
                // thread during the merge. `run` blocks until every
                // worker finished, so the stack-borrowed `job` outlives
                // all use, and its Acquire/Release handshake orders the
                // workers' writes before the merge reads them.
                unsafe { pool.run(commit_shim::<P>, (&raw const job).cast()) };
            }
            for (off, &idx) in run.iter().enumerate() {
                let w = off % threads;
                let mut mb = std::mem::take(&mut self.commit_mb[w]);
                while mb.front().is_some_and(|&(t, _)| t == off as u32) {
                    let (_, eff) = mb.pop_front().expect("checked front");
                    self.apply_effect(eff);
                }
                self.commit_mb[w] = mb;
                self.finish_commit(idx, &intents[idx as usize], slabs);
            }
        } else {
            let (params, cycle) = (self.params, self.cycle);
            for &idx in run {
                let view = SlabPtrs::new(slabs);
                // SAFETY: single-threaded use of the view under an
                // exclusive borrow of `slabs`.
                unsafe {
                    apply_intent(
                        &view,
                        topo,
                        &params,
                        cycle,
                        idx,
                        &intents[idx as usize],
                        &mut |e| self.apply_effect(e),
                    );
                }
                self.finish_commit(idx, &intents[idx as usize], slabs);
            }
        }
    }

    /// Books one committed router's own consequences once its effects
    /// are applied: the intent's blocked-route and reroute counts,
    /// forward progress, and re-scheduling. The serial kernel bumps the
    /// two counters before its effects; no effect reads them, so the
    /// totals are the same.
    fn finish_commit(&mut self, idx: u32, intent: &RouterIntent, slabs: &NetSlabs<P>) {
        self.stats.route_blocked_cycles += u64::from(intent.route_blocked);
        for rt in &intent.routes {
            if rt.rerouted {
                self.stats.packets_rerouted += 1;
            }
        }
        if !intent.winners.is_empty() {
            self.last_progress = self.cycle;
        }
        if slabs.has_work(idx as usize) {
            self.mark_pending(NodeId(idx));
        }
    }

    /// Applies one recorded commit effect to global state. Called in
    /// the deterministic merge order, so every observable sequence
    /// (event wheel, delivered queue, stats, checker, event log)
    /// matches the serial kernel's.
    fn apply_effect(&mut self, eff: Effect<P>) {
        match eff {
            Effect::Arrive {
                when,
                link,
                vc,
                flit,
            } => {
                self.stats.flits_per_link[link.0 as usize] += 1;
                if flit.is_head() {
                    if let Some(c) = &mut self.checker {
                        c.on_link_send(flit.pkt.id, flit.dest_idx, link);
                    }
                }
                self.inflight
                    [link.0 as usize * self.params.vcs_per_port as usize + vc as usize] += 1;
                self.schedule(when, EvKind::Arrive { link, vc, flit });
            }
            Effect::Credit { when, link, vc } => {
                self.schedule(when, EvKind::Credit { link, vc });
            }
            Effect::Eject { flit } => {
                let is_tail = flit.is_tail();
                self.stats.flits_ejected += 1;
                if let Some(c) = &mut self.checker {
                    c.on_eject(flit.pkt.id, flit.seq, flit.dest_idx, flit.target(), is_tail);
                }
                if is_tail {
                    let endpoint = flit.target();
                    self.stats.packets_delivered += 1;
                    let latency = self.cycle - flit.pkt.injected_at;
                    self.stats.total_packet_latency += latency;
                    self.stats.record_latency(latency);
                    self.log(NetEvent::Deliver {
                        cycle: self.cycle,
                        packet: flit.pkt.id,
                        endpoint,
                    });
                    self.delivered.push_back(Delivered {
                        packet: flit.pkt,
                        endpoint,
                        cycle: self.cycle,
                    });
                }
            }
            Effect::ReplicaCopy { packet } => {
                if let Some(c) = &mut self.checker {
                    c.on_replica_copy(packet);
                }
            }
            Effect::Release { node, port, vc } => {
                self.reserve_remote(node, port as usize, vc as usize, false);
            }
        }
    }

    /// Whether commit-time `reserved` flips touched a slot router
    /// `idx`'s compute snapshot may have read — the VCs of its output
    /// links. Almost always decided by the empty-list fast path.
    fn intent_invalidated(&self, idx: u32) -> bool {
        if self.res_dirty_list.is_empty() {
            return false;
        }
        let vcs = self.params.vcs_per_port as usize;
        self.topo
            .router(NodeId(idx))
            .ports
            .iter()
            .filter_map(|p| p.out_link)
            .any(|l| {
                let base = l.0 as usize * vcs;
                self.res_dirty[base..base + vcs].iter().any(|&d| d)
            })
    }

    /// Routing and VC allocation for head flits at VC fronts,
    /// dispatched per replication strategy. The hybrid body is the
    /// paper's §3.1 logic, untouched; tree and path live in their own
    /// loops so the baseline cannot drift.
    ///
    /// Receives the split-borrowed slabs (see
    /// [`Network::process_router`]); the replica-VC search reads the
    /// upstream neighbours' output state from the same slabs.
    fn allocate_routes(&mut self, node: NodeId, slabs: &mut NetSlabs<P>) {
        match self.params.strategy {
            MulticastStrategy::Hybrid => self.allocate_routes_hybrid(node, slabs),
            MulticastStrategy::Tree => self.allocate_routes_tree(node, slabs),
            MulticastStrategy::Path => self.allocate_routes_path(node, slabs),
        }
    }

    /// Hybrid replication (§3.1): at each visited destination, reserve
    /// a replica VC on a different input channel and keep the primary
    /// moving toward the next endpoint.
    fn allocate_routes_hybrid(&mut self, node: NodeId, slabs: &mut NetSlabs<P>) {
        let ri = node.0 as usize;
        for p in 0..slabs.n_ports(ri) {
            if slabs.port_occ[slabs.port_slot(ri, p)] == 0 {
                continue;
            }
            for v in 0..slabs.vcs {
                let slot = slabs.vc_slot(ri, p, v);
                // Copy the head's routing facts out before any `&mut`
                // helper call needs the slabs.
                let (target, next_target, dest_idx, split_is_none) = {
                    if slabs.occ[slot] == 0 || slabs.route[slot].is_some() {
                        continue;
                    }
                    let front = slabs.buf[slot].front().expect("occupied VC has a front");
                    assert!(
                        front.is_head(),
                        "non-head flit at front of unrouted VC: packet {:?} seq {}",
                        front.pkt.id,
                        front.seq
                    );
                    let next_target = if front.has_more_targets() {
                        Some(front.pkt.dest.endpoints()[front.dest_idx as usize + 1])
                    } else {
                        None
                    };
                    (
                        front.target(),
                        next_target,
                        front.dest_idx,
                        slabs.split[slot].is_none(),
                    )
                };

                if target.node == node {
                    let eject_port = self
                        .local_port(node, target.slot)
                        .unwrap_or_else(|| panic!("endpoint {target} vanished"))
                        .0;
                    if let Some(next) = next_target {
                        // Multicast split: reserve a replica VC first.
                        if split_is_none {
                            match self.find_replica_vc(node, slabs, p) {
                                Some((rp, rv)) => {
                                    let rslot = slabs.vc_slot(ri, rp, rv);
                                    slabs.replica_role[rslot] = true;
                                    slabs.route[rslot] = Some(OutRoute {
                                        port: eject_port as u8,
                                        vc: 0,
                                        eject: true,
                                    });
                                    slabs.split[slot] = Some(Split {
                                        port: rp as u8,
                                        vc: rv as u8,
                                        resume: dest_idx + 1,
                                    });
                                    let pkt_id =
                                        slabs.buf[slot].front().expect("head present").pkt.id;
                                    self.reserve_remote(node, rp, rv, true);
                                    self.stats.replications += 1;
                                    self.log(NetEvent::Replicate {
                                        cycle: self.cycle,
                                        packet: pkt_id,
                                        node,
                                    });
                                }
                                None => {
                                    self.stats.replication_blocked_cycles += 1;
                                    self.log(NetEvent::ReplicaBlocked {
                                        cycle: self.cycle,
                                        node,
                                    });
                                    continue;
                                }
                            }
                        }
                        // Primary continues toward the next endpoint.
                        let Some(out) = self.table.next_hop(node, next.node) else {
                            // Every path to the next endpoint is cut by a
                            // fault; the head waits for a repair (or the
                            // watchdog).
                            self.stats.route_blocked_cycles += 1;
                            continue;
                        };
                        if let Some(ovc) = self.claim_out_vc(node, slabs, out.0 as usize) {
                            slabs.route[slot] = Some(OutRoute {
                                port: out.0 as u8,
                                vc: ovc,
                                eject: false,
                            });
                            self.note_reroute(node, next.node, out);
                        }
                    } else {
                        slabs.route[slot] = Some(OutRoute {
                            port: eject_port as u8,
                            vc: 0,
                            eject: true,
                        });
                    }
                } else {
                    let Some(out) = self.table.next_hop(node, target.node) else {
                        // Fault cut every path toward the target; wait.
                        self.stats.route_blocked_cycles += 1;
                        continue;
                    };
                    if let Some(ovc) = self.claim_out_vc(node, slabs, out.0 as usize) {
                        slabs.route[slot] = Some(OutRoute {
                            port: out.0 as u8,
                            vc: ovc,
                            eject: false,
                        });
                        self.note_reroute(node, target.node, out);
                    }
                }
            }
        }
    }

    /// Path-based multicast: no replication state at all. A worm whose
    /// current target lives here but has further endpoints routes
    /// onward toward the next one; the local copy peels off in
    /// [`crate::commit::apply_winner`] as the flits pass through.
    fn allocate_routes_path(&mut self, node: NodeId, slabs: &mut NetSlabs<P>) {
        let ri = node.0 as usize;
        for p in 0..slabs.n_ports(ri) {
            if slabs.port_occ[slabs.port_slot(ri, p)] == 0 {
                continue;
            }
            for v in 0..slabs.vcs {
                let slot = slabs.vc_slot(ri, p, v);
                let (target, next_target) = {
                    if slabs.occ[slot] == 0 || slabs.route[slot].is_some() {
                        continue;
                    }
                    let front = slabs.buf[slot].front().expect("occupied VC has a front");
                    assert!(
                        front.is_head(),
                        "non-head flit at front of unrouted VC: packet {:?} seq {}",
                        front.pkt.id,
                        front.seq
                    );
                    let next_target = if front.has_more_targets() {
                        Some(front.pkt.dest.endpoints()[front.dest_idx as usize + 1])
                    } else {
                        None
                    };
                    (front.target(), next_target)
                };

                // Route toward the worm's next stop: the following
                // endpoint when the current target is local and more
                // remain, otherwise the current target (or ejection).
                let toward = if target.node == node {
                    match next_target {
                        Some(next) => next,
                        None => {
                            let eject_port = self
                                .local_port(node, target.slot)
                                .unwrap_or_else(|| panic!("endpoint {target} vanished"))
                                .0;
                            slabs.route[slot] = Some(OutRoute {
                                port: eject_port as u8,
                                vc: 0,
                                eject: true,
                            });
                            continue;
                        }
                    }
                } else {
                    target
                };
                let Some(out) = self.table.next_hop(node, toward.node) else {
                    // Fault cut every path; the head waits for a repair.
                    self.stats.route_blocked_cycles += 1;
                    continue;
                };
                if let Some(ovc) = self.claim_out_vc(node, slabs, out.0 as usize) {
                    slabs.route[slot] = Some(OutRoute {
                        port: out.0 as u8,
                        vc: ovc,
                        eject: false,
                    });
                    self.note_reroute(node, toward.node, out);
                }
            }
        }
    }

    /// Tree-based multicast: a worm serves the destination range
    /// `dest_idx .. dest_hi`. At every router the longest prefix of the
    /// range sharing the first destination's action (local ejection or
    /// the table's next hop) stays on this worm; the remainder forks
    /// into a reserved replica VC (the same storage hybrid replication
    /// uses) and is routed — and possibly forked again — from this
    /// router on later cycles.
    ///
    /// Forking is **opportunistic**: a branch point with no free
    /// replica VC never blocks the worm. Hybrid can afford to wait
    /// (its replicas eject immediately, so the VC it wants always
    /// drains), but tree replicas are network worms holding buffers for
    /// many cycles — two fork-blocked heads whose replica VCs hold each
    /// other's flits would deadlock. Instead the worm degrades to
    /// path-style serialization: it carries the whole range toward the
    /// first endpoint (retrying the fork at later routers), and at an
    /// ejection router with no replica VC it routes toward the next
    /// endpoint and lets the commit phase peel the local copy off as a
    /// passing delivery. The mid-route retry is also gated on the
    /// suffix still being routable from here — a worm that drifted past
    /// a branch point may stand where the table cannot reach the
    /// divergent endpoints (XYX turn limits), and a fork there would
    /// strand the replica; serializing through the endpoint chain,
    /// whose per-segment routability injection asserted, always works.
    fn allocate_routes_tree(&mut self, node: NodeId, slabs: &mut NetSlabs<P>) {
        let ri = node.0 as usize;
        for p in 0..slabs.n_ports(ri) {
            if slabs.port_occ[slabs.port_slot(ri, p)] == 0 {
                continue;
            }
            for v in 0..slabs.vcs {
                let slot = slabs.vc_slot(ri, p, v);
                let (pkt, lo, hi) = {
                    if slabs.occ[slot] == 0 || slabs.route[slot].is_some() {
                        continue;
                    }
                    let front = slabs.buf[slot].front().expect("occupied VC has a front");
                    assert!(
                        front.is_head(),
                        "non-head flit at front of unrouted VC: packet {:?} seq {}",
                        front.pkt.id,
                        front.seq
                    );
                    (Arc::clone(front.pkt), front.dest_idx, front.dest_hi)
                };
                let eps = pkt.dest.endpoints();
                debug_assert!((lo as usize) < eps.len() && hi as usize <= eps.len() && lo < hi);
                // The split survives route-blocked cycles: once the fork
                // is placed, only the primary's own route is (re)sought.
                let already_split = slabs.split[slot].is_some();
                let first = eps[lo as usize];
                if first.node == node {
                    // Consecutive endpoints never share a router, so an
                    // ejecting group is always a singleton: fork the
                    // rest of the range before ejecting.
                    if hi - lo >= 2
                        && !already_split
                        && !self.fork_tree(node, slabs, slot, p, lo + 1, pkt.id)
                    {
                        // No replica VC free: degrade to a passing
                        // delivery — route toward the next endpoint and
                        // let the commit phase peel the local copy off.
                        let next = eps[lo as usize + 1];
                        let Some(out) = self.table.next_hop(node, next.node) else {
                            self.stats.route_blocked_cycles += 1;
                            continue;
                        };
                        if let Some(ovc) = self.claim_out_vc(node, slabs, out.0 as usize) {
                            slabs.route[slot] = Some(OutRoute {
                                port: out.0 as u8,
                                vc: ovc,
                                eject: false,
                            });
                            self.note_reroute(node, next.node, out);
                        }
                        continue;
                    }
                    let eject_port = self
                        .local_port(node, first.slot)
                        .unwrap_or_else(|| panic!("endpoint {first} vanished"))
                        .0;
                    slabs.route[slot] = Some(OutRoute {
                        port: eject_port as u8,
                        vc: 0,
                        eject: true,
                    });
                } else {
                    let Some(out) = self.table.next_hop(node, first.node) else {
                        // Fault cut every path; wait for a repair.
                        self.stats.route_blocked_cycles += 1;
                        continue;
                    };
                    if !already_split {
                        // Branch-point scan: how far does the range
                        // share the first destination's next hop?
                        let mut k = lo + 1;
                        while k < hi {
                            let e = eps[k as usize];
                            if e.node == node || self.table.next_hop(node, e.node) != Some(out) {
                                break;
                            }
                            k += 1;
                        }
                        // Fork the divergent suffix when it is routable
                        // (or local) from here; otherwise — and when no
                        // replica VC is free — carry the whole range on
                        // and retry further along.
                        if k < hi {
                            let e = eps[k as usize];
                            if e.node == node || self.table.next_hop(node, e.node).is_some() {
                                let _ = self.fork_tree(node, slabs, slot, p, k, pkt.id);
                            }
                        }
                    }
                    if let Some(ovc) = self.claim_out_vc(node, slabs, out.0 as usize) {
                        slabs.route[slot] = Some(OutRoute {
                            port: out.0 as u8,
                            vc: ovc,
                            eject: false,
                        });
                        self.note_reroute(node, first.node, out);
                    }
                }
            }
        }
    }

    /// Places a tree fork on input VC `slot`: reserves a replica VC on
    /// a different input channel (hybrid's §3.1 machinery) that will
    /// receive the clone carrying destinations `resume ..`. Unlike
    /// hybrid, the replica head starts *unrouted* — it is routed (and
    /// possibly forked again) from this router on later cycles. Returns
    /// `false` when no replica VC is free.
    fn fork_tree(
        &mut self,
        node: NodeId,
        slabs: &mut NetSlabs<P>,
        slot: usize,
        primary_port: usize,
        resume: u32,
        pkt_id: PacketId,
    ) -> bool {
        match self.find_replica_vc(node, slabs, primary_port) {
            Some((rp, rv)) => {
                let ri = node.0 as usize;
                let rslot = slabs.vc_slot(ri, rp, rv);
                slabs.replica_role[rslot] = true;
                slabs.split[slot] = Some(Split {
                    port: rp as u8,
                    vc: rv as u8,
                    resume,
                });
                self.reserve_remote(node, rp, rv, true);
                self.stats.replications += 1;
                self.log(NetEvent::Replicate {
                    cycle: self.cycle,
                    packet: pkt_id,
                    node,
                });
                true
            }
            None => {
                self.stats.replication_blocked_cycles += 1;
                self.log(NetEvent::ReplicaBlocked {
                    cycle: self.cycle,
                    node,
                });
                false
            }
        }
    }

    /// Counts a route allocation that deviates from the fault-free
    /// table (the packet is detouring around a failed link).
    fn note_reroute(&mut self, node: NodeId, toward: NodeId, used: PortId) {
        if let Some(base) = &self.base_table {
            if base.next_hop(node, toward) != Some(used) {
                self.stats.packets_rerouted += 1;
            }
        }
    }

    /// Claims a free downstream VC on output port `o`; returns its index.
    fn claim_out_vc(&mut self, node: NodeId, slabs: &mut NetSlabs<P>, o: usize) -> Option<u8> {
        let link = self.topo.router(node).ports[o]
            .out_link
            .unwrap_or_else(|| panic!("output port {o} of {node} has no link"));
        let vcs = self.params.vcs_per_port as usize;
        let base = slabs.vc_slot(node.0 as usize, o, 0);
        for v in 0..vcs {
            let reserved = self.reserved[link.0 as usize * vcs + v];
            if !slabs.out_owner[base + v] && !reserved {
                slabs.out_owner[base + v] = true;
                return Some(v as u8);
            }
        }
        None
    }

    /// Finds a free VC in a *different, less-utilised* input physical
    /// channel for multicast replication.
    ///
    /// Reads the local router *and* its upstream neighbours from the
    /// split-borrowed `slabs`, so it stays correct while `self.slabs`
    /// is taken out during the router loop.
    fn find_replica_vc(
        &self,
        node: NodeId,
        slabs: &NetSlabs<P>,
        primary_port: usize,
    ) -> Option<(usize, usize)> {
        let ri = node.0 as usize;
        let mut best: Option<(u64, usize, usize)> = None;
        for p in 0..slabs.n_ports(ri) {
            let ps = slabs.port_slot(ri, p);
            if p == primary_port || slabs.is_local[ps] {
                continue;
            }
            let Some(in_link) = self.topo.router(node).ports[p].in_link else {
                continue;
            };
            // The upstream side must not have allocated the VC, and no
            // flits may still be on the wire toward it.
            let l = self.topo.link(in_link);
            let vcs = self.params.vcs_per_port as usize;
            let up_base = slabs.vc_slot(l.src.0 as usize, l.src_port.0 as usize, 0);
            for v in 0..slabs.vcs {
                if !slabs.vc_is_free(ps * vcs + v) {
                    continue;
                }
                if self.inflight[in_link.0 as usize * vcs + v] > 0 {
                    continue;
                }
                if slabs.out_owner[up_base + v] {
                    continue;
                }
                let util = slabs.util[ps];
                if best.is_none_or(|(bu, _, _)| util < bu) {
                    best = Some((util, p, v));
                }
                break; // one candidate VC per port is enough
            }
        }
        best.map(|(_, p, v)| (p, v))
    }

    /// Marks/unmarks a remote replica reservation so the upstream router
    /// cannot allocate the VC while it holds replica flits.
    fn reserve_remote(&mut self, node: NodeId, port: usize, vc: usize, on: bool) {
        if let Some(in_link) = self.topo.router(node).ports[port].in_link {
            let vcs = self.params.vcs_per_port as usize;
            let slot = in_link.0 as usize * vcs + vc;
            if self.reserved[slot] != on {
                self.reserved[slot] = on;
                // Invalidation breadcrumb for the two-phase commit: a
                // later router whose compute snapshot covered this slot
                // must recompute serially (`intent_invalidated`). The
                // set resets at the top of every `step`.
                if !self.res_dirty[slot] {
                    self.res_dirty[slot] = true;
                    self.res_dirty_list.push(slot as u32);
                }
            }
        }
    }

    /// Whether input VC (`p`, `v`) of router `ri` can send a flit this
    /// cycle; returns its allocated route so switch allocation can reuse
    /// the output port without re-reading the route slab.
    fn vc_sendable(&self, slabs: &NetSlabs<P>, ri: usize, p: usize, v: usize) -> Option<OutRoute> {
        let slot = slabs.vc_slot(ri, p, v);
        debug_assert_eq!(slabs.occ[slot] as usize, slabs.buf[slot].len());
        if slabs.occ[slot] == 0 {
            return None;
        }
        let route = slabs.route[slot]?;
        // Multicast primary also writes into the replica VC: need space.
        if let Some(s) = slabs.split[slot] {
            let rslot = slabs.vc_slot(ri, s.port as usize, s.vc as usize);
            if slabs.occ[rslot] >= u32::from(self.params.vc_depth) {
                return None;
            }
        }
        if route.eject
            || slabs.out_credits[slabs.vc_slot(ri, route.port as usize, route.vc as usize)] > 0
        {
            Some(route)
        } else {
            None
        }
    }

    /// End-of-step invariant audit (no-op unless the checker is on):
    /// recounts the wire from the event wheel, audits per-(link, VC)
    /// credit conservation and global flit conservation, runs the
    /// exactly-once delivery audit when the network is quiescent, and
    /// seals this cycle's findings with recent event-log history. Lives
    /// here rather than in [`crate::check`] because it reads the
    /// network's private state ([`EvKind`] included).
    fn audit_invariants(&mut self) {
        if self.checker.is_none() {
            return;
        }
        let mut c = self.checker.take().expect("checked above");
        let vcs = self.params.vcs_per_port as usize;
        c.begin_wire(self.topo.link_count() * vcs);
        for ev in self.events.iter() {
            match &ev.1 {
                EvKind::Arrive { link, vc, .. } => {
                    c.wire_flit(link.0 as usize * vcs + *vc as usize);
                }
                EvKind::Credit { link, vc } => {
                    c.wire_credit(link.0 as usize * vcs + *vc as usize);
                }
            }
        }
        for (li, l) in self.topo.links().iter().enumerate() {
            let up_base = self
                .slabs
                .vc_slot(l.src.0 as usize, l.src_port.0 as usize, 0);
            let down_base = self
                .slabs
                .vc_slot(l.dst.0 as usize, l.dst_port.0 as usize, 0);
            for v in 0..vcs {
                let slot = li * vcs + v;
                c.check_slot(
                    LinkId(li as u32),
                    v as u8,
                    slot,
                    self.slabs.out_credits[up_base + v],
                    self.slabs.buf[down_base + v].len() as u32,
                    self.slabs.replica_role[down_base + v],
                    self.inflight[slot],
                    self.params.vc_depth,
                );
            }
        }
        self.slabs
            .audit_mirrors(|mirror, index, tracked, recounted| {
                c.mirror_drift(mirror, index, tracked, recounted);
            });
        let buffered = self.slabs.buffered_flits_total();
        c.check_conservation(buffered, self.stats.flits_ejected);
        if self.pending.is_empty() && self.events.is_empty() {
            c.audit_quiescent();
        }
        c.seal(self.cycle, self.evlog.as_ref());
        self.checker = Some(c);
    }
}

/// Read-only snapshot handed to compute workers: immutable borrows
/// only. Everything the compute phase *writes* is per-router
/// (`intents`, `deferred`) or per-worker (`scratch`) and reached
/// through the raw pointers in [`ComputeJob`].
struct ComputeCtx<'a, P> {
    topo: &'a Topology,
    table: &'a RoutingTable,
    base: Option<&'a RoutingTable>,
    params: &'a RouterParams,
    reserved: &'a [bool],
    slabs: &'a NetSlabs<P>,
}

impl<P> ComputeCtx<'_, P> {
    /// Serial-equivalent decision pass for one router, recorded into
    /// `intent`. Returns `true` when the router must defer to the
    /// serial commit pass (a multicast head needs the live replica-VC
    /// search and reservation); the intent is then meaningless.
    ///
    /// Mirrors [`Network::allocate_routes`] plus the two switch
    /// allocation phases of [`Network::process_router`], decision for
    /// decision — any change to one must be mirrored in the other.
    fn compute_router(
        &self,
        idx: u32,
        intent: &mut RouterIntent,
        scratch: &mut ComputeScratch,
    ) -> bool {
        intent.clear();
        let node = NodeId(idx);
        let s = self.slabs;
        let ri = idx as usize;

        // Routing + VC allocation, as intents.
        for p in 0..s.n_ports(ri) {
            if s.port_occ[s.port_slot(ri, p)] == 0 {
                continue;
            }
            for v in 0..s.vcs {
                let slot = s.vc_slot(ri, p, v);
                if s.occ[slot] == 0 || s.route[slot].is_some() {
                    continue;
                }
                let front = s.buf[slot].front().expect("occupied VC has a front");
                assert!(
                    front.is_head(),
                    "non-head flit at front of unrouted VC: packet {:?} seq {}",
                    front.pkt.id,
                    front.seq
                );
                if matches!(self.params.strategy, MulticastStrategy::Tree)
                    && front.dest_hi - front.dest_idx >= 2
                {
                    // A tree worm with a multi-destination range may
                    // fork at any router, which needs the live
                    // replica-VC search: defer. (Conservative — the
                    // range may turn out not to branch here — but
                    // deferral is bit-identical by construction.)
                    return true;
                }
                let target = front.target();
                let next_target = if front.has_more_targets() {
                    Some(front.pkt.dest.endpoints()[front.dest_idx as usize + 1])
                } else {
                    None
                };
                if target.node == node {
                    if let Some(next) = next_target {
                        match self.params.strategy {
                            MulticastStrategy::Hybrid => {
                                if s.split[slot].is_none() {
                                    // Multicast split this cycle: defer.
                                    return true;
                                }
                                // Split already placed; the primary
                                // continues toward the next endpoint.
                            }
                            // Path multicast needs no replication state:
                            // the worm just routes onward (the passing
                            // copy peels off at traversal time).
                            MulticastStrategy::Path => {}
                            MulticastStrategy::Tree => {
                                unreachable!("tree multicast heads defer above")
                            }
                        }
                        let Some(out) = self.table.next_hop(node, next.node) else {
                            intent.route_blocked += 1;
                            continue;
                        };
                        if let Some(ovc) = self.claim_out_vc(node, out.0 as usize, intent) {
                            intent.routes.push(RouteIntent {
                                port: p as u8,
                                vc: v as u8,
                                route: OutRoute {
                                    port: out.0 as u8,
                                    vc: ovc,
                                    eject: false,
                                },
                                rerouted: self.is_reroute(node, next.node, out),
                            });
                        }
                    } else {
                        let eject_port = self
                            .topo
                            .router(node)
                            .port_by_label(PortLabel::Local(target.slot))
                            .unwrap_or_else(|| panic!("endpoint {target} vanished"))
                            .0;
                        intent.routes.push(RouteIntent {
                            port: p as u8,
                            vc: v as u8,
                            route: OutRoute {
                                port: eject_port as u8,
                                vc: 0,
                                eject: true,
                            },
                            rerouted: false,
                        });
                    }
                } else {
                    let Some(out) = self.table.next_hop(node, target.node) else {
                        intent.route_blocked += 1;
                        continue;
                    };
                    if let Some(ovc) = self.claim_out_vc(node, out.0 as usize, intent) {
                        intent.routes.push(RouteIntent {
                            port: p as u8,
                            vc: v as u8,
                            route: OutRoute {
                                port: out.0 as u8,
                                vc: ovc,
                                eject: false,
                            },
                            rerouted: self.is_reroute(node, target.node, out),
                        });
                    }
                }
            }
        }

        // Phase A: each input port nominates one sendable VC.
        let n_ports = s.n_ports(ri);
        let n_vcs = s.vcs as u8;
        scratch.nominee[..n_ports].fill(None);
        for p in 0..n_ports {
            let ps = s.port_slot(ri, p);
            if s.port_occ[ps] == 0 {
                continue;
            }
            let mut v = s.rr_in[ps];
            for _ in 0..n_vcs {
                if self.vc_sendable(ri, p, v as usize, intent) {
                    scratch.nominee[p] = Some(v);
                    break;
                }
                v += 1;
                if v == n_vcs {
                    v = 0;
                }
            }
        }

        // Phase B: each output port grants one nominating input port.
        for o in 0..n_ports {
            scratch.requesting.clear();
            for p in 0..n_ports {
                let Some(v) = scratch.nominee[p] else {
                    continue;
                };
                let routed_here = self
                    .effective_route(ri, p, v as usize, intent)
                    .is_some_and(|rt| rt.port as usize == o);
                if routed_here {
                    scratch.requesting.push(p as u8);
                }
            }
            if scratch.requesting.is_empty() {
                continue;
            }
            let start = s.out_rr[s.port_slot(ri, o)];
            let pick = scratch
                .requesting
                .iter()
                .copied()
                .find(|&p| p >= start)
                .unwrap_or(scratch.requesting[0]);
            let next = pick + 1;
            intent.rr_out.push((
                o as u8,
                if usize::from(next) == n_ports {
                    0
                } else {
                    next
                },
            ));
            let v = scratch.nominee[pick as usize].expect("requesting port has nominee");
            intent.winners.push((pick, v));
            // Predict the replica-reservation release this winner will
            // perform: a replica VC whose front flit is the tail frees
            // its input link's reservation when committed. Exact, not
            // conservative — the winner applies unconditionally, and
            // both `replica_role` and the buffer front are own-router
            // state that only this router's turn mutates.
            let wslot = s.vc_slot(ri, pick as usize, v as usize);
            if s.replica_role[wslot] && s.buf[wslot].front().is_some_and(|f| f.is_tail()) {
                if let Some(in_link) = self.topo.router(node).ports[pick as usize].in_link {
                    intent
                        .releases
                        .push(in_link.0 * u32::from(self.params.vcs_per_port) + u32::from(v));
                }
            }
        }
        false
    }

    /// The route VC (`p`, `v`) of router `ri` will hold once this
    /// router's intent commits: the live route, or the one recorded
    /// this cycle.
    fn effective_route(
        &self,
        ri: usize,
        p: usize,
        v: usize,
        intent: &RouterIntent,
    ) -> Option<OutRoute> {
        if let Some(rt) = self.slabs.route[self.slabs.vc_slot(ri, p, v)] {
            return Some(rt);
        }
        intent
            .routes
            .iter()
            .find(|x| x.port as usize == p && x.vc as usize == v)
            .map(|x| x.route)
    }

    /// Intent-aware mirror of [`Network::vc_sendable`].
    fn vc_sendable(&self, ri: usize, p: usize, v: usize, intent: &RouterIntent) -> bool {
        let s = self.slabs;
        let slot = s.vc_slot(ri, p, v);
        if s.occ[slot] == 0 {
            return false;
        }
        let Some(route) = self.effective_route(ri, p, v, intent) else {
            return false;
        };
        if let Some(sp) = s.split[slot] {
            let rslot = s.vc_slot(ri, sp.port as usize, sp.vc as usize);
            if s.occ[rslot] >= u32::from(self.params.vc_depth) {
                return false;
            }
        }
        if route.eject {
            true
        } else {
            s.out_credits[s.vc_slot(ri, route.port as usize, route.vc as usize)] > 0
        }
    }

    /// Intent-aware mirror of [`Network::claim_out_vc`]: also skips VCs
    /// this intent already claimed, reproducing the serial kernel's
    /// first-free scan over in-cycle allocations.
    fn claim_out_vc(&self, node: NodeId, o: usize, intent: &RouterIntent) -> Option<u8> {
        let link = self.topo.router(node).ports[o]
            .out_link
            .unwrap_or_else(|| panic!("output port {o} of {node} has no link"));
        let vcs = self.params.vcs_per_port as usize;
        let base = self.slabs.vc_slot(node.0 as usize, o, 0);
        for v in 0..vcs {
            if self.reserved[link.0 as usize * vcs + v] || self.slabs.out_owner[base + v] {
                continue;
            }
            let claimed = intent
                .routes
                .iter()
                .any(|x| !x.route.eject && x.route.port as usize == o && x.route.vc as usize == v);
            if !claimed {
                return Some(v as u8);
            }
        }
        None
    }

    /// Mirror of [`Network::note_reroute`], returning the verdict
    /// instead of bumping the counter.
    fn is_reroute(&self, node: NodeId, toward: NodeId, used: PortId) -> bool {
        self.base
            .is_some_and(|b| b.next_hop(node, toward) != Some(used))
    }
}

/// One cycle's compute-phase job, shared by every pool worker.
struct ComputeJob<'a, P> {
    ctx: ComputeCtx<'a, P>,
    work: &'a [u32],
    intents: *mut RouterIntent,
    deferred: *mut bool,
    scratch: *mut ComputeScratch,
    /// Next unclaimed worklist position (handed out in chunks).
    next: AtomicUsize,
}

/// Worklist items claimed per `next` bump — amortizes the shared
/// counter without hurting balance (per-router work is fine-grained).
const COMPUTE_CHUNK: usize = 8;

/// Type-erased pool entry point; see the SAFETY note at the call site
/// in [`Network::step_two_phase`].
unsafe fn compute_shim<P>(data: *const (), worker: usize) {
    // SAFETY: `data` points at the caller's `ComputeJob`, which
    // `SimPool::run` keeps alive until every worker finished.
    let job = unsafe { &*data.cast::<ComputeJob<'_, P>>() };
    // SAFETY: each worker dereferences only its own scratch slot.
    let scratch = unsafe { &mut *job.scratch.add(worker) };
    loop {
        let base = job.next.fetch_add(COMPUTE_CHUNK, Ordering::Relaxed);
        if base >= job.work.len() {
            return;
        }
        let end = (base + COMPUTE_CHUNK).min(job.work.len());
        for &idx in &job.work[base..end] {
            // SAFETY: worklist entries are unique router ids, so each
            // intent/deferred slot is written by exactly one worker.
            let intent = unsafe { &mut *job.intents.add(idx as usize) };
            let deferred = unsafe { &mut *job.deferred.add(idx as usize) };
            *deferred = job.ctx.compute_router(idx, intent, scratch);
        }
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("cycle", &self.cycle)
            .field("routers", &self.slabs.n_routers())
            .field("pending", &self.pending.len())
            .field("events", &self.events.len())
            .field("delivered", &self.delivered.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{flits_for_bytes, Dest};
    use crate::routing::RoutingSpec;

    fn unit(n: u16) -> Vec<u32> {
        vec![1; n as usize]
    }

    fn mesh_net(cols: u16, rows: u16) -> Network<u32> {
        let topo = Topology::mesh(cols, rows, &unit(cols - 1), &unit(rows - 1));
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        Network::new(topo, table, RouterParams::default())
    }

    fn run_until_idle<P>(net: &mut Network<P>, max: u64) {
        let mut steps = 0;
        while net.is_busy() || net.next_event_cycle().is_some() {
            net.advance().expect("network reported a simulation error");
            steps += 1;
            assert!(steps < max, "network did not go idle in {max} steps");
        }
    }

    #[test]
    fn single_flit_unicast_latency_is_hops_plus_one() {
        let mut net = mesh_net(4, 4);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 0));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 7u32));
        run_until_idle(&mut net, 100);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.payload, 7);
        // 3 link hops (1 cycle each) + ejection cycle + initial cycle.
        assert!(got[0].cycle <= 6, "latency {} too high", got[0].cycle);
    }

    #[test]
    fn five_flit_packet_delivers_once() {
        let mut net = mesh_net(4, 4);
        let src = Endpoint::at(net.topology().node_at(1, 1));
        let dst = Endpoint::at(net.topology().node_at(2, 3));
        net.inject(Packet::new(
            src,
            Dest::unicast(dst),
            flits_for_bytes(64),
            9u32,
        ));
        run_until_idle(&mut net, 200);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 1);
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().flits_ejected, 5);
    }

    #[test]
    fn delivery_to_second_local_slot() {
        let topo = {
            let mut t = Topology::mesh(2, 2, &[1], &[1]);
            t.add_local_slot(t.node_at(1, 0));
            t
        };
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let mut net: Network<()> = Network::new(topo, table, RouterParams::default());
        let dst = Endpoint {
            node: net.topology().node_at(1, 0),
            slot: 1,
        };
        let src = Endpoint::at(net.topology().node_at(0, 1));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, ()));
        run_until_idle(&mut net, 100);
        let got = net.drain_all_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].endpoint, dst);
    }

    #[test]
    fn multicast_down_a_column_delivers_to_every_bank() {
        let mut net = mesh_net(4, 4);
        let col = 2u16;
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let path: Vec<Endpoint> = (0..4)
            .map(|r| Endpoint::at(net.topology().node_at(col, r)))
            .collect();
        net.inject(Packet::new(src, Dest::multicast(path.clone()), 1, 1u32));
        run_until_idle(&mut net, 200);
        let got = net.drain_all_delivered();
        assert_eq!(got.len(), 4, "one delivery per bank");
        let mut nodes: Vec<NodeId> = got.iter().map(|d| d.endpoint.node).collect();
        nodes.sort();
        let mut want: Vec<NodeId> = path.iter().map(|e| e.node).collect();
        want.sort();
        assert_eq!(nodes, want);
        assert_eq!(net.stats().replications, 3, "three splits along the column");
    }

    #[test]
    fn multicast_deliveries_are_pipelined() {
        // Bank k should receive the request roughly k cycles after bank 0,
        // not after the full packet finished elsewhere.
        let mut net = mesh_net(2, 8);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let path: Vec<Endpoint> = (0..8)
            .map(|r| Endpoint::at(net.topology().node_at(1, r)))
            .collect();
        net.inject(Packet::new(src, Dest::multicast(path), 1, 0u32));
        run_until_idle(&mut net, 300);
        let got = net.drain_all_delivered();
        assert_eq!(got.len(), 8);
        let mut by_row: Vec<(u16, u64)> = got
            .iter()
            .map(|d| {
                (
                    net.topology().coord_of(d.endpoint.node).unwrap().row,
                    d.cycle,
                )
            })
            .collect();
        by_row.sort();
        for w in by_row.windows(2) {
            assert!(w[1].1 >= w[0].1, "farther banks cannot hear earlier");
            assert!(w[1].1 - w[0].1 <= 4, "pipelining broken: {by_row:?}");
        }
        let spread = by_row[7].1 - by_row[0].1;
        assert!(
            spread <= 16,
            "multicast should be pipelined, spread {spread}"
        );
    }

    #[test]
    fn multicast_five_flit_packet() {
        let mut net = mesh_net(2, 4);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let path: Vec<Endpoint> = (0..4)
            .map(|r| Endpoint::at(net.topology().node_at(1, r)))
            .collect();
        net.inject(Packet::new(src, Dest::multicast(path), 5, 0u32));
        run_until_idle(&mut net, 500);
        let got = net.drain_all_delivered();
        assert_eq!(got.len(), 4);
        assert_eq!(net.stats().flits_ejected, 20);
    }

    #[test]
    fn many_packets_same_destination_all_arrive() {
        let mut net = mesh_net(4, 4);
        let dst = Endpoint::at(net.topology().node_at(3, 3));
        for i in 0..20 {
            let src = Endpoint::at(net.topology().node_at(i % 4, 0));
            net.inject(Packet::new(src, Dest::unicast(dst), 3, i as u32));
        }
        run_until_idle(&mut net, 2_000);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 20);
        let mut payloads: Vec<u32> = got.iter().map(|d| d.packet.payload).collect();
        payloads.sort();
        assert_eq!(payloads, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn wormhole_packets_do_not_interleave_within_a_vc() {
        // Two 5-flit packets from the same source to the same dest must
        // each arrive exactly once (tails seen once each).
        let mut net = mesh_net(3, 1);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(2, 0));
        net.inject(Packet::new(src, Dest::unicast(dst), 5, 1u32));
        net.inject(Packet::new(src, Dest::unicast(dst), 5, 2u32));
        run_until_idle(&mut net, 500);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 2);
    }

    /// Once the tail has ejected, only credits are left on the wire and
    /// every router they return to is drained. Those credits must not
    /// wake anyone: `is_busy` stays false, `advance` fast-forwards
    /// straight to each credit's cycle, and no router turn is taken.
    /// The statistics are pinned to the values of the kernel that still
    /// woke the upstream router on every credit — the wake rule changes
    /// host work only, never the simulation.
    #[test]
    fn drained_routers_sleep_through_returning_credits() {
        let topo = Topology::mesh(3, 3, &unit(2), &unit(2));
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        // A long credit loop: the source runs out of credits mid-packet
        // (so a credit does wake a router that still holds a flit), and
        // the trailing credits land well after the delivery.
        let params = RouterParams {
            credit_delay: 12,
            ..RouterParams::default()
        };
        let mut net: Network<u32> = Network::new(topo, table, params);
        net.enable_invariant_checker();
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(2, 2));
        net.inject(Packet::new(src, Dest::unicast(dst), 5, 0u32));
        while net.stats().packets_delivered == 0 {
            net.advance().unwrap();
        }
        assert_eq!(net.cycle(), 18);
        assert_eq!(net.slabs.buffered_flits_total(), 0);
        let visits = net.phase_stats().router_visits;
        let mut credit_cycles = Vec::new();
        while let Some(due) = net.next_event_cycle() {
            assert!(
                !net.is_busy(),
                "only credits in flight: the network is idle"
            );
            net.advance().unwrap();
            assert_eq!(net.cycle(), due, "advance lands on the credit's cycle");
            credit_cycles.push(due);
        }
        assert_eq!(credit_cycles, [19, 20, 27, 28, 29, 30]);
        assert_eq!(
            net.phase_stats().router_visits,
            visits,
            "a returning credit woke a drained router"
        );
        // The kernel that woke a router on every credit took 50 turns
        // on this run, 7 of them after the delivery.
        assert!(visits < 50, "{visits} router visits");
        let mut want = NetStats::new(net.topology().link_count());
        want.cycles = 30;
        want.packets_injected = 1;
        want.packets_delivered = 1;
        want.flits_ejected = 5;
        want.total_packet_latency = 18;
        want.peak_vc_occupancy = 1;
        for link in [0, 2, 16, 22] {
            want.flits_per_link[link] = 5;
        }
        want.latency_buckets[1] = 1;
        assert_eq!(net.stats(), &want);
        let checker = net.take_invariant_checker().expect("enabled above");
        assert!(
            checker.violations().is_empty(),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn link_stats_count_traversals() {
        let mut net = mesh_net(2, 1);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 0));
        net.inject(Packet::new(src, Dest::unicast(dst), 4, 0u32));
        run_until_idle(&mut net, 100);
        let total: u64 = net.stats().flits_per_link.iter().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn slow_links_add_latency() {
        let topo = Topology::mesh(2, 1, &[5], &[]);
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let mut net: Network<()> = Network::new(topo, table, RouterParams::default());
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 0));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, ()));
        run_until_idle(&mut net, 100);
        let got = net.drain_delivered(dst.node);
        assert!(
            got[0].cycle >= 6,
            "5-cycle link must delay delivery, got {}",
            got[0].cycle
        );
    }

    #[test]
    fn pipelined_router_is_slower() {
        let lat = |params: RouterParams| {
            let topo = Topology::mesh(8, 1, &[1; 7], &[]);
            let table = RoutingSpec::Xy.build(&topo).unwrap();
            let mut net: Network<()> = Network::new(topo, table, params);
            let src = Endpoint::at(net.topology().node_at(0, 0));
            let dst = Endpoint::at(net.topology().node_at(7, 0));
            net.inject(Packet::new(src, Dest::unicast(dst), 1, ()));
            run_until_idle(&mut net, 500);
            net.drain_delivered(dst.node)[0].cycle
        };
        let single = lat(RouterParams::hpca07());
        let four_stage = lat(RouterParams::pipelined(4));
        assert!(
            four_stage >= single + 3 * 6,
            "4-stage router should add ~3 cycles/hop: {single} vs {four_stage}"
        );
    }

    #[test]
    fn skip_to_fast_forwards_idle_network() {
        let mut net = mesh_net(2, 2);
        assert!(!net.is_busy());
        net.skip_to(500);
        assert_eq!(net.cycle(), 500);
        // Still functional afterwards.
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 1));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        run_until_idle(&mut net, 100);
        assert_eq!(net.drain_delivered(dst.node).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot skip while routers have work")]
    fn skip_while_busy_panics() {
        let mut net = mesh_net(2, 2);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 1));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        net.skip_to(100);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn inject_to_missing_endpoint_panics() {
        let mut net = mesh_net(2, 2);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint {
            node: net.topology().node_at(1, 1),
            slot: 3,
        };
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
    }

    #[test]
    fn halo_multicast_down_spike() {
        let topo = Topology::halo(4, 4, &[1; 4], 2);
        let table = RoutingSpec::ShortestPath.build(&topo).unwrap();
        let mut net: Network<u32> = Network::new(topo, table, RouterParams::default());
        let hub_core = Endpoint {
            node: NodeId(0),
            slot: 1,
        };
        let path: Vec<Endpoint> = (0..4)
            .map(|p| Endpoint::at(net.topology().spike_node(2, p)))
            .collect();
        net.inject(Packet::new(hub_core, Dest::multicast(path), 1, 0u32));
        run_until_idle(&mut net, 300);
        assert_eq!(net.drain_all_delivered().len(), 4);
    }

    #[test]
    fn injection_latency_counts_from_inject_cycle() {
        let mut net = mesh_net(2, 1);
        net.skip_to(100);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 0));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        run_until_idle(&mut net, 100);
        let s = net.stats();
        assert!(
            s.total_packet_latency < 10,
            "latency {}",
            s.total_packet_latency
        );
    }

    #[test]
    fn event_log_records_packet_lifecycle() {
        let mut net = mesh_net(2, 4);
        net.enable_event_log(64);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let path: Vec<Endpoint> = (0..4)
            .map(|r| Endpoint::at(net.topology().node_at(1, r)))
            .collect();
        let id = net.inject(Packet::new(src, Dest::multicast(path), 1, 0u32));
        run_until_idle(&mut net, 300);
        let log = net.take_event_log().expect("log was enabled");
        let evs = log.for_packet(id);
        // One inject, three replications, four deliveries.
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, crate::evlog::NetEvent::Inject { .. }))
                .count(),
            1
        );
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, crate::evlog::NetEvent::Replicate { .. }))
                .count(),
            3
        );
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, crate::evlog::NetEvent::Deliver { .. }))
                .count(),
            4
        );
        // Cycles are monotone.
        for w in evs.windows(2) {
            assert!(w[0].cycle() <= w[1].cycle());
        }
    }

    #[test]
    fn credit_backpressure_bounds_buffer_occupancy() {
        // Flood one link: downstream buffers must never exceed the VC
        // depth (the credit protocol's invariant, asserted in
        // deliver_events and visible in the peak statistic).
        let mut net = mesh_net(2, 1);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 0));
        for i in 0..30 {
            net.inject(Packet::new(src, Dest::unicast(dst), 5, i));
        }
        run_until_idle(&mut net, 5_000);
        assert_eq!(net.stats().packets_delivered, 30);
        assert!(
            net.stats().peak_vc_occupancy <= net.params().vc_depth,
            "peak {} exceeds depth {}",
            net.stats().peak_vc_occupancy,
            net.params().vc_depth
        );
    }

    #[test]
    fn round_robin_arbitration_is_fair_under_contention() {
        // Two sources hammer one destination; neither may be starved.
        let mut net = mesh_net(3, 1);
        let a = Endpoint::at(net.topology().node_at(0, 0));
        let b = Endpoint::at(net.topology().node_at(2, 0));
        let dst = Endpoint::at(net.topology().node_at(1, 0));
        for i in 0..40u32 {
            net.inject(Packet::new(a, Dest::unicast(dst), 1, i));
            net.inject(Packet::new(b, Dest::unicast(dst), 1, 1000 + i));
        }
        run_until_idle(&mut net, 20_000);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 80);
        // Interleaving: within the first half of deliveries, both
        // sources appear substantially.
        let first_half = &got[..40];
        let from_a = first_half
            .iter()
            .filter(|d| d.packet.payload < 1000)
            .count();
        assert!(
            (10..=30).contains(&from_a),
            "arbitration starved one source: {from_a}/40 from A"
        );
    }

    #[test]
    fn latency_histogram_populates_through_delivery() {
        let mut net = mesh_net(4, 4);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 3));
        for i in 0..5 {
            net.inject(Packet::new(src, Dest::unicast(dst), 1, i));
        }
        run_until_idle(&mut net, 2_000);
        let total: u64 = net.stats().latency_buckets.iter().sum();
        assert_eq!(total, 5);
        assert!(net.stats().latency_quantile(1.0).is_some());
    }

    #[test]
    fn shortest_path_traffic_reroutes_around_failed_link() {
        let topo = Topology::mesh(4, 4, &unit(3), &unit(3));
        let table = RoutingSpec::ShortestPath.build(&topo).unwrap();
        let mut net: Network<u32> = Network::new(topo, table, RouterParams::default());
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 0));
        let cut = net
            .routing()
            .path(net.topology(), src.node, dst.node)
            .unwrap()[1];
        net.set_fault_schedule(FaultSchedule::permanent(cut, 1));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 7u32));
        run_until_idle(&mut net, 200);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 1, "the packet must arrive over a detour");
        let s = net.stats();
        assert_eq!(s.flits_per_link[cut.0 as usize], 0, "failed link unused");
        assert!(s.packets_rerouted >= 1, "detour must be counted");
        assert_eq!(s.link_down_events, 1);
        assert_eq!(s.faults_active(), 1);
        assert!(!net.link_is_up(cut));
    }

    #[test]
    fn permanent_fault_surfaces_as_watchdog_error() {
        // XY has a single path per pair: cutting it strands the head, and
        // a tiny watchdog turns that into a structured error, not a panic.
        let topo = Topology::mesh(4, 1, &unit(3), &[]);
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let params = RouterParams {
            watchdog_cycles: 200,
            ..RouterParams::hpca07()
        };
        let mut net: Network<u32> = Network::new(topo, table, params);
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 0));
        let cut = net
            .routing()
            .path(net.topology(), src.node, dst.node)
            .unwrap()[0];
        net.set_fault_schedule(FaultSchedule::permanent(cut, 1));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        let err = loop {
            match net.step() {
                Ok(()) => assert!(net.cycle() < 10_000, "watchdog never fired"),
                Err(e) => break e,
            }
        };
        match err {
            SimError::Watchdog {
                faults_active,
                blocked_heads,
                buffered_flits,
                ..
            } => {
                assert_eq!(faults_active, 1);
                assert!(blocked_heads >= 1, "the stuck head must be visible");
                assert!(buffered_flits >= 1);
            }
            other => panic!("expected a watchdog error, got {other:?}"),
        }
        assert!(net.stats().route_blocked_cycles > 0);
    }

    #[test]
    fn transient_fault_heals_and_traffic_completes() {
        let topo = Topology::mesh(4, 1, &unit(3), &[]);
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let mut net: Network<u32> = Network::new(topo, table, RouterParams::default());
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 0));
        let cut = net
            .routing()
            .path(net.topology(), src.node, dst.node)
            .unwrap()[0];
        net.set_fault_schedule(FaultSchedule::transient(cut, 1, 60));
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        run_until_idle(&mut net, 500);
        let got = net.drain_delivered(dst.node);
        assert_eq!(got.len(), 1, "delivery resumes after the repair");
        assert!(got[0].cycle >= 60, "cannot arrive before the link is back");
        let s = net.stats();
        assert_eq!(s.link_down_events, 1);
        assert_eq!(s.link_up_events, 1);
        assert_eq!(s.faults_active(), 0);
        assert!(s.route_blocked_cycles > 0, "the head waited for the repair");
        assert_eq!(s.packets_rerouted, 0, "XY offers no detour, only waiting");
    }

    #[test]
    fn fault_events_while_idle_apply_before_later_traffic() {
        let topo = Topology::mesh(4, 4, &unit(3), &unit(3));
        let table = RoutingSpec::ShortestPath.build(&topo).unwrap();
        let mut net: Network<u32> = Network::new(topo, table, RouterParams::default());
        let src = Endpoint::at(net.topology().node_at(0, 0));
        let dst = Endpoint::at(net.topology().node_at(3, 0));
        let cut = net
            .routing()
            .path(net.topology(), src.node, dst.node)
            .unwrap()[0];
        net.set_fault_schedule(FaultSchedule::permanent(cut, 10));
        net.skip_to(100);
        net.inject(Packet::new(src, Dest::unicast(dst), 1, 0u32));
        run_until_idle(&mut net, 200);
        assert_eq!(net.drain_delivered(dst.node).len(), 1);
        assert_eq!(net.stats().flits_per_link[cut.0 as usize], 0);
    }

    #[test]
    fn heavy_random_traffic_drains() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut net = mesh_net(6, 6);
        let n = 36u32;
        let mut expected = 0;
        for _ in 0..300 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            if a == b {
                b = (b + 1) % n;
            }
            let flits = if rng.gen_bool(0.5) { 1 } else { 5 };
            net.inject(Packet::new(
                Endpoint::at(NodeId(a)),
                Dest::unicast(Endpoint::at(NodeId(b))),
                flits,
                a,
            ));
            expected += 1;
        }
        run_until_idle(&mut net, 50_000);
        assert_eq!(net.stats().packets_delivered, expected);
    }

    /// Drives a mixed unicast/multicast load (seeded) on an 8×8 mesh
    /// with the given thread count and returns the full delivered
    /// sequence plus final stats.
    fn threaded_run(threads: u32) -> (Vec<(PacketId, Endpoint, u64)>, NetStats) {
        use rand::{Rng, SeedableRng};
        let topo = Topology::mesh(8, 8, &[1; 7], &[1; 7]);
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let params = RouterParams {
            sim_threads: threads,
            ..RouterParams::hpca07()
        };
        let mut net: Network<u32> = Network::new(topo, table, params);
        net.enable_invariant_checker();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for i in 0..400u32 {
            let src = Endpoint::at(net.topology().node_at(rng.gen_range(0..8), 0));
            if rng.gen_bool(0.3) {
                let col = rng.gen_range(0..8);
                let path: Vec<Endpoint> = (0..8)
                    .map(|r| Endpoint::at(net.topology().node_at(col, r)))
                    .collect();
                net.inject(Packet::new(src, Dest::multicast(path), 1, i));
            } else {
                let dst = Endpoint::at(
                    net.topology()
                        .node_at(rng.gen_range(0..8), rng.gen_range(1..8)),
                );
                net.inject(Packet::new(src, Dest::unicast(dst), 5, i));
            }
        }
        run_until_idle(&mut net, 100_000);
        let seq = net
            .drain_all_delivered()
            .iter()
            .map(|d| (d.packet.id, d.endpoint, d.cycle))
            .collect();
        (seq, net.stats().clone())
    }

    #[test]
    fn two_phase_kernel_is_bit_identical_to_serial() {
        let (serial_seq, serial_stats) = threaded_run(1);
        for threads in [2u32, 4] {
            let (seq, stats) = threaded_run(threads);
            assert_eq!(seq, serial_seq, "{threads} threads: delivery order");
            assert_eq!(stats, serial_stats, "{threads} threads: stats");
        }
    }

    #[test]
    fn two_phase_kernel_actually_shards() {
        use rand::{Rng, SeedableRng};
        let topo = Topology::mesh(8, 8, &[1; 7], &[1; 7]);
        let table = RoutingSpec::Xy.build(&topo).unwrap();
        let params = RouterParams {
            sim_threads: 4,
            ..RouterParams::hpca07()
        };
        let mut net: Network<u32> = Network::new(topo, table, params);
        assert_eq!(net.sim_threads(), 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for i in 0..300u32 {
            let src = Endpoint::at(NodeId(rng.gen_range(0..64)));
            let mut d = rng.gen_range(0..64);
            if d == src.node.0 {
                d = (d + 1) % 64;
            }
            net.inject(Packet::new(
                src,
                Dest::unicast(Endpoint::at(NodeId(d))),
                3,
                i,
            ));
        }
        run_until_idle(&mut net, 100_000);
        let phase = net.phase_stats();
        assert!(
            phase.parallel_cycles > 0,
            "a saturated 64-router mesh must shard some cycles"
        );
    }

    #[test]
    fn drain_delivered_moves_and_preserves_order_both_sides() {
        let mut net = mesh_net(4, 1);
        let a = Endpoint::at(net.topology().node_at(2, 0));
        let b = Endpoint::at(net.topology().node_at(3, 0));
        let src = Endpoint::at(net.topology().node_at(0, 0));
        for i in 0..6u32 {
            let dst = if i % 2 == 0 { a } else { b };
            net.inject(Packet::new(src, Dest::unicast(dst), 1, i));
        }
        run_until_idle(&mut net, 2_000);
        let mut to_a = Vec::new();
        net.drain_delivered_into(a.node, &mut to_a);
        assert_eq!(to_a.len(), 3);
        assert!(to_a.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Each delivery's Arc is now uniquely held by the drained buffer
        // (plus nothing else): the drain moved, it did not clone.
        for d in &to_a {
            assert_eq!(Arc::strong_count(&d.packet), 1, "delivery was cloned");
        }
        // The remaining deque kept b's deliveries in order; a second
        // drain into the same buffer appends.
        net.drain_delivered_into(b.node, &mut to_a);
        assert_eq!(to_a.len(), 6);
        assert!(net.drain_all_delivered().is_empty());
    }
}
