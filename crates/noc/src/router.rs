//! Router microarchitectural state, stored structure-of-arrays.
//!
//! Each router has one *input unit* per port (a set of virtual channels
//! with flit FIFOs) and one *output unit* per port (per-VC ownership and
//! credit state mirroring the downstream input buffer). Local ports act
//! as injection queues on the input side and ejection sinks on the
//! output side.
//!
//! Since the SoA refactor the per-router structs are gone: every field
//! lives in one flat slab (`NetSlabs`) indexed by a global *port slot*
//! (`port_base[router] + port`) or *VC slot* (`port_slot * vcs + vc`).
//! The hot cycle kernel — serial, compute phase, and sharded commit —
//! walks contiguous arrays instead of chasing one heap box per router,
//! and the parallel phases can hand out disjoint raw-pointer views per
//! worker without per-router snapshot copies.
//!
//! Multicast replication follows §3.1 of the paper: when a path-multicast
//! head must both eject locally and continue, the router reserves a free
//! VC of a *different* input physical channel and copies each flit into
//! it as the primary flit traverses the switch. The replica VC then
//! competes for the ejection port like any other input VC. No dedicated
//! multicast buffers exist; when no VC is free the packet blocks.

use crate::packet::FlitQueue;
use crate::topology::{PortLabel, Topology};

/// Where an input VC's current packet is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutRoute {
    /// Output port index at this router.
    pub port: u8,
    /// Downstream VC index (unused for ejection).
    pub vc: u8,
    /// True when `port` is a local slot (ejection).
    pub eject: bool,
}

/// Multicast split state on a primary input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Split {
    /// Input port holding the replica VC.
    pub port: u8,
    /// Replica VC index within that port.
    pub vc: u8,
    /// Destination-list index where the split divides the worm's range:
    /// under hybrid replication the clone ejects here and the primary
    /// resumes at `resume` (always `dest_idx + 1`); under tree
    /// replication the primary keeps `dest_idx .. resume` and the clone
    /// carries `resume .. dest_hi` onward.
    pub resume: u32,
}

/// Structure-of-arrays storage for every router's microarchitectural
/// state.
///
/// # Layout
///
/// `port_base` is a prefix sum over router port counts: router `r` owns
/// global ports `port_base[r] .. port_base[r + 1]`, and every port has
/// exactly `vcs` virtual channels, so
///
/// * **port slot** of `(r, p)` = `port_base[r] + p`, indexing the
///   per-port arrays (`port_occ`, `is_local`, `has_out`, `util`, `rr_in`,
///   `out_rr`);
/// * **VC slot** of `(r, p, v)` = `port_slot * vcs + v`, indexing the
///   per-VC arrays (`buf`, `route`, `split`, `replica_role` on the
///   input side; `out_owner`, `out_credits` on the output side).
///
/// A router's entire state is therefore one contiguous range per array,
/// which is what lets the cycle kernel's compute phase read a true
/// shared snapshot and the sharded commit phase write disjoint ranges
/// from different workers.
#[derive(Debug)]
pub(crate) struct NetSlabs<P> {
    /// Prefix sum of port counts; `port_base.len() == n_routers + 1`.
    pub port_base: Vec<u32>,
    /// Virtual channels per port (uniform across the network).
    pub vcs: usize,
    // ---- input side, indexed by VC slot ----
    /// Flit FIFO of each input VC, stored as run-length entries
    /// ([`FlitQueue`]): a worm streaming through the VC occupies one
    /// entry, not one per flit.
    pub buf: Vec<FlitQueue<P>>,
    /// Flit count of each input VC — a dense mirror of
    /// `buf[slot].len()`. The per-cycle scans (route allocation,
    /// sendability, watchdog diagnostics) reject empty VCs from this
    /// 4-byte-per-slot array instead of striding across the much larger
    /// [`FlitQueue`] structs; every `buf` mutation site updates it in
    /// the same statement.
    pub occ: Vec<u32>,
    /// Allocated output for the packet currently traversing each VC.
    pub route: Vec<Option<OutRoute>>,
    /// Multicast replication target, when a VC carries a primary
    /// multicast stream that still has further endpoints.
    pub split: Vec<Option<Split>>,
    /// True while a VC stores locally written replica flits. Such flits
    /// did not arrive over the link, so ejecting them returns no
    /// upstream credit.
    pub replica_role: Vec<bool>,
    // ---- output side, indexed by VC slot (valid iff `has_out`) ----
    /// Output VC allocated to a packet (set at head, cleared at tail).
    pub out_owner: Vec<bool>,
    /// Free downstream buffer slots we may still consume.
    pub out_credits: Vec<u8>,
    // ---- per port, indexed by port slot ----
    /// Flit count of each input port — a dense mirror of the sum of
    /// `occ` over the port's VCs. Route allocation and switch-allocation
    /// nomination skip a port whose count is zero without touching its
    /// VC slots, so a router turn costs O(occupied ports), not
    /// O(ports × VCs). Updated at the same sites as `occ`.
    pub port_occ: Vec<u32>,
    /// Local ports hold injection queues (unbounded source queues).
    pub is_local: Vec<bool>,
    /// Whether the port has an outgoing link (local ejection sinks have
    /// no sender-side credit state). Consulted when seeding credits and
    /// by structural tests; the kernel itself reads routes instead.
    #[allow(dead_code)]
    pub has_out: Vec<bool>,
    /// Flits received over the link; the replica selector prefers the
    /// least-utilised physical channel (§3.1).
    pub util: Vec<u64>,
    /// Round-robin pointer over VCs (switch-allocation phase A).
    pub rr_in: Vec<u8>,
    /// Round-robin pointer over input ports (switch-allocation phase B),
    /// one per output port.
    pub out_rr: Vec<u8>,
    // ---- per router ----
    /// Total buffered flits per router (`sum of occ over vc_range`),
    /// making the has-work re-schedule test O(1) instead of a scan. It
    /// also gates credit wake-ups: a returning credit schedules its
    /// router only while this count is non-zero.
    pub buffered: Vec<u32>,
}

// Manual impl: `mem::take` during the router loop needs a default, and
// `derive(Default)` would demand `P: Default`.
impl<P> Default for NetSlabs<P> {
    fn default() -> Self {
        NetSlabs {
            port_base: Vec::new(),
            vcs: 0,
            buf: Vec::new(),
            occ: Vec::new(),
            route: Vec::new(),
            split: Vec::new(),
            replica_role: Vec::new(),
            out_owner: Vec::new(),
            out_credits: Vec::new(),
            port_occ: Vec::new(),
            is_local: Vec::new(),
            has_out: Vec::new(),
            util: Vec::new(),
            rr_in: Vec::new(),
            out_rr: Vec::new(),
            buffered: Vec::new(),
        }
    }
}

impl<P> NetSlabs<P> {
    /// Builds the slabs for `topo` with `vcs_per_port` VCs of depth
    /// `vc_depth` on every port. Network VC buffers are pre-sized to
    /// `vc_depth`: credit flow control bounds them to that many flits,
    /// so they never reallocate in steady state. (Local injection
    /// queues may still grow past the depth — they are unbounded source
    /// queues filled by `inject`, outside the cycle kernel.)
    pub fn build(topo: &Topology, vcs_per_port: u8, vc_depth: u8) -> Self {
        let vcs = vcs_per_port as usize;
        let mut port_base = Vec::with_capacity(topo.len() + 1);
        let mut total_ports = 0u32;
        port_base.push(0);
        for (ri, r) in topo.routers().iter().enumerate() {
            // The cycle kernel packs per-router port indices into `u8`
            // fields (`RouteTarget`, round-robin state); a wider router
            // must fail loudly here rather than alias ports. Topology
            // and routing-table construction (`PortId` is `u16`) handle
            // wider routers fine — only simulation has this cap.
            assert!(
                r.ports.len() <= u8::MAX as usize,
                "router {ri} has {} ports; the cycle kernel supports at most {}",
                r.ports.len(),
                u8::MAX
            );
            total_ports += r.ports.len() as u32;
            port_base.push(total_ports);
        }
        let n_ports = total_ports as usize;
        let n_slots = n_ports * vcs;
        let mut is_local = Vec::with_capacity(n_ports);
        let mut has_out = Vec::with_capacity(n_ports);
        for r in topo.routers() {
            for p in &r.ports {
                is_local.push(matches!(p.label, PortLabel::Local(_)));
                has_out.push(p.out_link.is_some());
            }
        }
        let mut out_credits = vec![0u8; n_slots];
        for (ps, &h) in has_out.iter().enumerate() {
            if h {
                out_credits[ps * vcs..(ps + 1) * vcs].fill(vc_depth);
            }
        }
        NetSlabs {
            port_base,
            vcs,
            buf: (0..n_slots)
                .map(|_| FlitQueue::with_capacity(vc_depth as usize))
                .collect(),
            occ: vec![0; n_slots],
            route: vec![None; n_slots],
            split: vec![None; n_slots],
            replica_role: vec![false; n_slots],
            out_owner: vec![false; n_slots],
            out_credits,
            port_occ: vec![0; n_ports],
            is_local,
            has_out,
            util: vec![0; n_ports],
            rr_in: vec![0; n_ports],
            out_rr: vec![0; n_ports],
            buffered: vec![0; topo.len()],
        }
    }

    /// Restores the just-built state in place: every VC FIFO emptied
    /// (capacity kept), routes/splits/replica roles cleared, output
    /// credits re-seeded to `vc_depth` on ports with an outgoing link,
    /// utilisation and round-robin pointers zeroed. The structural
    /// arrays (`port_base`, `vcs`, `is_local`, `has_out`) are untouched.
    /// `vc_depth` must match the depth the slabs were built with; the
    /// warm-reset path relies on this doing zero allocations.
    pub fn reset(&mut self, vc_depth: u8) {
        for b in &mut self.buf {
            b.clear();
        }
        self.occ.fill(0);
        self.port_occ.fill(0);
        self.buffered.fill(0);
        self.route.fill(None);
        self.split.fill(None);
        self.replica_role.fill(false);
        self.out_owner.fill(false);
        let vcs = self.vcs;
        for (ps, &h) in self.has_out.iter().enumerate() {
            self.out_credits[ps * vcs..(ps + 1) * vcs].fill(if h { vc_depth } else { 0 });
        }
        self.util.fill(0);
        self.rr_in.fill(0);
        self.out_rr.fill(0);
    }

    /// Number of routers.
    #[inline]
    pub fn n_routers(&self) -> usize {
        self.port_base.len().saturating_sub(1)
    }

    /// Number of ports of router `r`.
    #[inline]
    pub fn n_ports(&self, r: usize) -> usize {
        (self.port_base[r + 1] - self.port_base[r]) as usize
    }

    /// Global port slot of `(r, p)`.
    #[inline]
    pub fn port_slot(&self, r: usize, p: usize) -> usize {
        self.port_base[r] as usize + p
    }

    /// Global VC slot of `(r, p, v)`.
    #[inline]
    pub fn vc_slot(&self, r: usize, p: usize, v: usize) -> usize {
        self.port_slot(r, p) * self.vcs + v
    }

    /// The contiguous VC-slot range owned by router `r`. The kernel's
    /// has-work test reads the O(1) `buffered` counter instead; shard
    /// layout tests still assert range contiguity through this.
    #[allow(dead_code)]
    #[inline]
    pub fn vc_range(&self, r: usize) -> std::ops::Range<usize> {
        let lo = self.port_base[r] as usize * self.vcs;
        let hi = self.port_base[r + 1] as usize * self.vcs;
        lo..hi
    }

    /// An input VC is free for replica reservation when it is completely
    /// idle.
    #[inline]
    pub fn vc_is_free(&self, slot: usize) -> bool {
        self.occ[slot] == 0 && self.route[slot].is_none() && !self.replica_role[slot]
    }

    /// Whether any input VC of router `r` holds flits (the router must
    /// stay scheduled).
    #[inline]
    pub fn has_work(&self, r: usize) -> bool {
        self.buffered[r] > 0
    }

    /// Total buffered flits across the network (diagnostics).
    pub fn buffered_flits_total(&self) -> u64 {
        self.buffered.iter().map(|&n| u64::from(n)).sum()
    }

    /// Recounts the dense occupancy mirrors — `occ` per VC, `port_occ`
    /// per port, `buffered` per router — from the VC FIFOs, and calls
    /// `drift(mirror, index, tracked, recounted)` for every entry that
    /// disagrees. Invariant-checker audit only: O(VC slots).
    pub fn audit_mirrors(&self, mut drift: impl FnMut(&'static str, usize, u32, u32)) {
        for r in 0..self.n_routers() {
            let mut router_total = 0u32;
            for ps in self.port_base[r] as usize..self.port_base[r + 1] as usize {
                let mut port_total = 0u32;
                for slot in ps * self.vcs..(ps + 1) * self.vcs {
                    let n = self.buf[slot].len() as u32;
                    if self.occ[slot] != n {
                        drift("occ", slot, self.occ[slot], n);
                    }
                    port_total += n;
                }
                if self.port_occ[ps] != port_total {
                    drift("port_occ", ps, self.port_occ[ps], port_total);
                }
                router_total += port_total;
            }
            if self.buffered[r] != router_total {
                drift("buffered", r, self.buffered[r], router_total);
            }
        }
    }

    /// Input VCs holding flits but no allocated route — heads waiting on
    /// routing, e.g. cut off by a link fault (diagnostics).
    pub fn blocked_heads_total(&self) -> usize {
        (0..self.occ.len())
            .filter(|&s| self.occ[s] > 0 && self.route[s].is_none())
            .count()
    }
}

/// Reusable per-cycle temporaries for the router loop, owned by the
/// network so the cycle kernel never allocates in steady state. Every
/// buffer is sized once (to the widest router) and *cleared*, not
/// reallocated, between routers.
#[derive(Debug)]
pub(crate) struct RouterScratch {
    /// Phase A result: `(input port, nominated VC, requested output
    /// port)` per nominating port, in ascending port order. Dense so
    /// phase B visits only nominating ports.
    pub nominated: Vec<(u8, u8, u8)>,
    /// Input ports requesting the output port currently arbitrated
    /// (ascending order, rebuilt per output).
    pub requesting: Vec<u8>,
    /// Switch-allocation winners of the current router: `(input port,
    /// input VC)` pairs, in output-port order.
    pub winners: Vec<(u8, u8)>,
    /// This cycle's sorted router worklist; swapped with the network's
    /// pending list so both keep their capacity across cycles.
    pub work: Vec<u32>,
}

impl RouterScratch {
    /// Builds scratch buffers for routers with up to `max_ports` ports.
    pub fn for_max_ports(max_ports: usize) -> Self {
        RouterScratch {
            nominated: Vec::with_capacity(max_ports),
            requesting: Vec::with_capacity(max_ports),
            winners: Vec::with_capacity(max_ports),
            work: Vec::new(),
        }
    }
}

/// One route / VC-allocation decision computed for an input VC during
/// the parallel compute phase of the two-phase cycle kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteIntent {
    /// Input port of the VC being routed.
    pub port: u8,
    /// Input VC index within that port.
    pub vc: u8,
    /// The route to install. `eject == false` implies an ownership claim
    /// on the named output VC at commit time.
    pub route: OutRoute,
    /// The allocation deviates from the fault-free table (commit bumps
    /// `packets_rerouted`).
    pub rerouted: bool,
}

/// Everything one router decided during the compute phase, to be applied
/// verbatim — or discarded — by the commit pass. All buffers are
/// cleared and reused across cycles, never reallocated in steady state.
#[derive(Debug, Default)]
pub(crate) struct RouterIntent {
    /// Routes (and implied output-VC claims) for unrouted VC fronts.
    pub routes: Vec<RouteIntent>,
    /// New output-side round-robin pointers: `(output port, pointer)`.
    pub rr_out: Vec<(u8, u8)>,
    /// Switch-allocation winners `(input port, input VC)` in output-port
    /// order, exactly as the serial kernel would have produced them.
    pub winners: Vec<(u8, u8)>,
    /// Heads that found every path cut by a fault this cycle (commit
    /// adds this to `route_blocked_cycles`).
    pub route_blocked: u32,
    /// Remote-reservation slots (`link.0 * vcs + vc`) this intent's
    /// winners will release when they commit (a replica VC's tail
    /// leaving). Predicted exactly during compute — winners apply
    /// unconditionally — so the commit pre-scan can mark them dirty
    /// *before* the run executes and invalidate any later intent whose
    /// snapshot covered one of these slots, just as the serial commit
    /// would have.
    pub releases: Vec<u32>,
}

impl RouterIntent {
    /// An intent pre-sized for a router with up to `ports` ports and
    /// `vcs` VCs per port, so no buffer ever grows during simulation:
    /// at most one route per input VC, and one winner / round-robin
    /// update / release per port.
    pub fn for_ports(ports: usize, vcs: usize) -> Self {
        RouterIntent {
            routes: Vec::with_capacity(ports * vcs),
            rr_out: Vec::with_capacity(ports),
            winners: Vec::with_capacity(ports),
            route_blocked: 0,
            releases: Vec::with_capacity(ports),
        }
    }

    /// Empties the intent for reuse without dropping buffer capacity.
    pub fn clear(&mut self) {
        self.routes.clear();
        self.rr_out.clear();
        self.winners.clear();
        self.route_blocked = 0;
        self.releases.clear();
    }
}

/// Per-worker temporaries of the compute phase — the read-only analogue
/// of [`RouterScratch`]. Each compute worker owns one, so workers never
/// share mutable buffers.
#[derive(Debug)]
pub(crate) struct ComputeScratch {
    /// Phase A nominations (see [`RouterScratch::nominee`]).
    pub nominee: Vec<Option<u8>>,
    /// Requesting ports for the output currently arbitrated.
    pub requesting: Vec<u8>,
}

impl ComputeScratch {
    /// Builds scratch sized for routers with up to `max_ports` ports.
    pub fn for_max_ports(max_ports: usize) -> Self {
        ComputeScratch {
            nominee: vec![None; max_ports],
            requesting: Vec::with_capacity(max_ports),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingSpec;

    #[test]
    fn build_shapes_ports() {
        // 2×1 mesh: each router has one local port and one link port.
        let topo = Topology::mesh(2, 1, &[1], &[]);
        let _ = RoutingSpec::Xy.build(&topo).unwrap();
        let s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        assert_eq!(s.n_routers(), 2);
        assert_eq!(s.n_ports(0), 2);
        let local = (0..s.n_ports(0))
            .find(|&p| s.is_local[s.port_slot(0, p)])
            .expect("router 0 has a local port");
        let link = (0..s.n_ports(0))
            .find(|&p| !s.is_local[s.port_slot(0, p)])
            .expect("router 0 has a link port");
        assert!(
            !s.has_out[s.port_slot(0, local)] || s.out_credits[s.vc_slot(0, local, 0)] == 4,
            "local ports without an out-link carry no credit state"
        );
        assert!(s.has_out[s.port_slot(0, link)]);
        assert_eq!(s.out_credits[s.vc_slot(0, link, 0)], 4);
        assert_eq!(s.vcs, 4);
        assert!(!s.has_work(0));
        assert_eq!(s.buffered_flits_total(), 0);
    }

    #[test]
    fn slots_are_contiguous_per_router() {
        let topo = Topology::mesh(3, 3, &[1; 2], &[1; 2]);
        let s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        for r in 0..s.n_routers() {
            let range = s.vc_range(r);
            assert_eq!(range.start, s.vc_slot(r, 0, 0));
            assert_eq!(range.end - range.start, s.n_ports(r) * s.vcs);
        }
        // Ranges tile the slab exactly.
        assert_eq!(s.vc_range(s.n_routers() - 1).end, s.buf.len());
    }

    #[test]
    fn fresh_vc_is_free() {
        let topo = Topology::mesh(2, 1, &[1], &[]);
        let s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        assert!(s.vc_is_free(s.vc_slot(0, 0, 0)));
    }

    #[test]
    fn vc_with_route_is_not_free() {
        let topo = Topology::mesh(2, 1, &[1], &[]);
        let mut s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        let slot = s.vc_slot(0, 0, 0);
        s.route[slot] = Some(OutRoute {
            port: 1,
            vc: 0,
            eject: false,
        });
        assert!(!s.vc_is_free(slot));
        assert_eq!(s.blocked_heads_total(), 0, "no flit buffered yet");
    }

    #[test]
    fn mirror_audit_recounts_every_mirror() {
        let topo = Topology::mesh(2, 1, &[1], &[]);
        let mut s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        let mut drifts = Vec::new();
        s.audit_mirrors(|m, i, t, r| drifts.push((m, i, t, r)));
        assert!(drifts.is_empty(), "fresh slabs agree with their buffers");
        let ps = s.port_slot(1, 1);
        s.occ[ps * s.vcs + 2] = 3;
        s.port_occ[ps] = 2;
        s.buffered[1] = 1;
        s.audit_mirrors(|m, i, t, r| drifts.push((m, i, t, r)));
        assert_eq!(
            drifts,
            [
                ("occ", ps * s.vcs + 2, 3, 0),
                ("port_occ", ps, 2, 0),
                ("buffered", 1, 1, 0),
            ]
        );
    }

    #[test]
    fn replica_role_vc_is_not_free() {
        let topo = Topology::mesh(2, 1, &[1], &[]);
        let mut s: NetSlabs<()> = NetSlabs::build(&topo, 4, 4);
        let slot = s.vc_slot(1, 0, 2);
        s.replica_role[slot] = true;
        assert!(!s.vc_is_free(slot));
    }
}
