//! The sharded commit phase of the two-phase cycle kernel.
//!
//! After the compute phase has recorded per-router [`RouterIntent`]s,
//! the commit phase applies them. Since the SoA refactor every router's
//! microarchitectural state is a contiguous range of the
//! [`NetSlabs`] arrays, so a *run* of committable routers can be
//! applied by several workers at once: worker `w` owns worklist
//! positions `w, w + T, w + 2T, …` of the run and writes **only its own
//! routers' slab ranges** through a [`SlabPtrs`] view.
//!
//! Everything a commit does that is *not* own-router slab state — flit
//! handoff onto a link, credit return upstream, local ejection,
//! multicast replica bookkeeping, replica-reservation release — is not
//! applied by the worker. It is recorded as an [`Effect`] in the
//! worker's private mailbox, tagged with the run position that produced
//! it, and the caller merges all mailboxes *in worklist order* after
//! the workers finish. The merge performs the global writes (event
//! wheel, delivered queue, statistics, invariant-checker hooks, event
//! log, the `reserved` bitmap) in exactly the sequence the serial
//! kernel would have produced, which is what keeps the sharded commit
//! bit-identical for every thread count.
//!
//! The same [`apply_winner`] body also serves the serial kernel's
//! router turn and the serial commit of a short run, which pass an
//! effect sink that applies each effect on the spot instead of queueing
//! it (see [`apply_winner`] for why the order is the same), so there is
//! a single implementation of "apply a winner" for the serial kernel,
//! the serial commit, and the sharded commit to drift apart from.

use std::collections::VecDeque;

use crate::ids::{LinkId, NodeId};
use crate::packet::{FlitQueue, FlitRef, PacketId};
use crate::params::RouterParams;
use crate::router::{NetSlabs, OutRoute, RouterIntent, Split};
use crate::strategy::MulticastStrategy;
use crate::topology::Topology;

/// One cross-router (or global) side effect recorded by a commit
/// worker, to be applied by the caller during the deterministic merge.
///
/// Workers never drop the last `Arc` of a packet: every flit popped
/// from a slab buffer moves into an effect (even a non-tail ejection
/// carries its flit), so the final drop — and any access to the `P`
/// payload — happens on the merging thread.
#[derive(Debug)]
pub(crate) enum Effect<P> {
    /// A flit left on `link` toward downstream VC `vc`, arriving at
    /// cycle `when`. Merge bumps the link statistics and wire
    /// occupancy, fires the checker's link-send hook for heads, and
    /// schedules the arrival.
    Arrive {
        /// Arrival cycle at the downstream router.
        when: u64,
        /// The link traversed.
        link: LinkId,
        /// Downstream VC index.
        vc: u8,
        /// The flit on the wire.
        flit: FlitRef<P>,
    },
    /// A credit returns to the upstream side of `link`, VC `vc`, at
    /// cycle `when`.
    Credit {
        /// Cycle the upstream router sees the credit.
        when: u64,
        /// The link whose upstream output regains a buffer slot.
        link: LinkId,
        /// VC index within the link.
        vc: u8,
    },
    /// A flit was handed to the local sink. Merge bumps ejection
    /// statistics, fires the checker hook, and — when the flit is a
    /// tail — records the delivery.
    Eject {
        /// The ejected flit (tail-ness and endpoint derive from it).
        flit: FlitRef<P>,
    },
    /// A replica flit copy was created — written into a reserved
    /// replica VC (hybrid/tree splits) or peeled straight off to the
    /// local sink (path passing delivery). Invariant-checker
    /// bookkeeping only; the copy itself is own-router slab state (or a
    /// paired [`Effect::Eject`]) and already happened.
    ReplicaCopy {
        /// The packet whose flit was copied.
        packet: PacketId,
    },
    /// A replica VC's tail left: the remote reservation on the VC's
    /// input link must be released so the upstream router can allocate
    /// it again.
    Release {
        /// Router whose input port held the replica VC.
        node: NodeId,
        /// The input port.
        port: u8,
        /// The VC index.
        vc: u8,
    },
}

/// A commit worker's effect queue: `(run position, effect)` in
/// generation order. Reused across cycles, so it stops allocating once
/// warm.
pub(crate) type Mailbox<P> = VecDeque<(u32, Effect<P>)>;

/// Field-level raw-pointer view over [`NetSlabs`], handed to commit
/// workers. A `&mut NetSlabs` cannot be shared across workers without
/// aliasing; disjoint raw-pointer writes can.
///
/// # Safety contract
///
/// Every `unsafe` accessor takes a slot index the caller derived from a
/// router id it *owns* for the duration of the parallel region: workers
/// own disjoint routers, and each router's slots form a contiguous,
/// non-overlapping range (see [`NetSlabs`]). The underlying `NetSlabs`
/// is exclusively borrowed for as long as any view exists.
pub(crate) struct SlabPtrs<P> {
    port_base: *const u32,
    vcs: usize,
    buf: *mut FlitQueue<P>,
    occ: *mut u32,
    port_occ: *mut u32,
    buffered: *mut u32,
    route: *mut Option<OutRoute>,
    split: *mut Option<Split>,
    replica_role: *mut bool,
    out_owner: *mut bool,
    out_credits: *mut u8,
    is_local: *const bool,
    rr_in: *mut u8,
    out_rr: *mut u8,
}

impl<P> SlabPtrs<P> {
    /// Captures a view. The `&mut` borrow proves exclusive access at
    /// creation; the caller keeps it exclusive for the view's lifetime.
    pub fn new(s: &mut NetSlabs<P>) -> Self {
        SlabPtrs {
            port_base: s.port_base.as_ptr(),
            vcs: s.vcs,
            buf: s.buf.as_mut_ptr(),
            occ: s.occ.as_mut_ptr(),
            port_occ: s.port_occ.as_mut_ptr(),
            buffered: s.buffered.as_mut_ptr(),
            route: s.route.as_mut_ptr(),
            split: s.split.as_mut_ptr(),
            replica_role: s.replica_role.as_mut_ptr(),
            out_owner: s.out_owner.as_mut_ptr(),
            out_credits: s.out_credits.as_mut_ptr(),
            is_local: s.is_local.as_ptr(),
            rr_in: s.rr_in.as_mut_ptr(),
            out_rr: s.out_rr.as_mut_ptr(),
        }
    }

    /// Global port slot of `(r, p)`; see [`NetSlabs::port_slot`].
    ///
    /// # Safety
    ///
    /// `r` must be a valid router id (and `p` one of its ports).
    #[inline]
    unsafe fn port_slot(&self, r: usize, p: usize) -> usize {
        unsafe { *self.port_base.add(r) as usize + p }
    }

    /// Global VC slot of `(r, p, v)`; see [`NetSlabs::vc_slot`].
    ///
    /// # Safety
    ///
    /// As [`SlabPtrs::port_slot`], with `v < vcs`.
    #[inline]
    unsafe fn vc_slot(&self, r: usize, p: usize, v: usize) -> usize {
        unsafe { self.port_slot(r, p) * self.vcs + v }
    }
}

/// Applies one committed intent: exactly the own-router slab writes, in
/// the same order, that the serial kernel would have performed at this
/// worklist turn, with every global write handed to `sink` in serial
/// order (see [`apply_winner`]). Mirrors the serial route-install +
/// switch-traversal sequence, decision for decision.
///
/// # Safety
///
/// The caller must own router `idx` (no other thread reads or writes
/// any of its slab slots while this runs), and `s` must view a live,
/// exclusively borrowed [`NetSlabs`] for the topology `topo`.
#[allow(clippy::too_many_arguments)] // the serial kernel's turn context, spelled out
pub(crate) unsafe fn apply_intent<P>(
    s: &SlabPtrs<P>,
    topo: &Topology,
    params: &RouterParams,
    cycle: u64,
    idx: u32,
    intent: &RouterIntent,
    sink: &mut impl FnMut(Effect<P>),
) {
    let node = NodeId(idx);
    let ri = idx as usize;
    // SAFETY (all blocks below): slots derive from router `ri`, which
    // the caller owns; see the function-level contract.
    unsafe {
        for rt in &intent.routes {
            let slot = s.vc_slot(ri, rt.port as usize, rt.vc as usize);
            *s.route.add(slot) = Some(rt.route);
            if !rt.route.eject {
                let oslot = s.vc_slot(ri, rt.route.port as usize, rt.route.vc as usize);
                *s.out_owner.add(oslot) = true;
            }
        }
        for &(o, rr) in &intent.rr_out {
            *s.out_rr.add(s.port_slot(ri, o as usize)) = rr;
        }
        for &(p, v) in &intent.winners {
            apply_winner(s, topo, params, cycle, node, p as usize, v as usize, sink);
        }
    }
}

/// Moves one switch-allocation winner's flit out of input VC `(p, v)`
/// of `node`: the slab half of the traversal. Global consequences (link
/// departure, credit return, ejection, replica copy accounting,
/// reservation release) are handed to `sink` in their serial order.
///
/// The sharded commit's sink queues them in a worker [`Mailbox`] for
/// the ordered merge. The serial kernel's sink applies each one on the
/// spot. Both give the same result because the two sides share no
/// state: applying an effect writes only global state (event wheel,
/// statistics, checker, delivered queue, the `reserved` bitmap) and
/// never reads the slabs, while this function reads and writes only
/// the slabs, the topology and the parameters.
///
/// # Safety
///
/// As [`apply_intent`]: the caller owns `node` and `s` views an
/// exclusively borrowed [`NetSlabs`].
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn apply_winner<P>(
    s: &SlabPtrs<P>,
    topo: &Topology,
    params: &RouterParams,
    cycle: u64,
    node: NodeId,
    p: usize,
    v: usize,
    sink: &mut impl FnMut(Effect<P>),
) {
    let ri = node.0 as usize;
    // SAFETY: every slot below belongs to router `ri` (the replica VC
    // of a multicast split is an input VC of the *same* router); the
    // caller owns the router.
    unsafe {
        let ps = s.port_slot(ri, p);
        let slot = ps * s.vcs + v;
        let route = (*s.route.add(slot)).expect("winner must be routed");
        let split = *s.split.add(slot);
        let flit = (*s.buf.add(slot))
            .pop_front()
            .expect("winner must have a flit");
        *s.occ.add(slot) -= 1;
        *s.port_occ.add(ps) -= 1;
        *s.buffered.add(ri) -= 1;
        debug_assert!(*s.port_occ.add(ps) >= *s.occ.add(slot));
        let is_tail = flit.is_tail();
        let via_link = !*s.is_local.add(ps) && !*s.replica_role.add(slot);

        // Replica copy (multicast split): the clone's destination range
        // depends on the strategy. Hybrid clones eject here — they keep
        // `dest_idx` and close their range at `resume` (= dest_idx + 1)
        // — while the primary resumes at `resume`. Tree is the mirror
        // image: the primary keeps the near group `[dest_idx, resume)`
        // and the clone carries the far group `[resume, dest_hi)`.
        if let Some(sp) = split {
            let rslot = s.vc_slot(ri, sp.port as usize, sp.vc as usize);
            let mut copy = flit.clone();
            match params.strategy {
                MulticastStrategy::Tree => copy.dest_idx = sp.resume,
                _ => copy.dest_hi = sp.resume,
            }
            (*s.buf.add(rslot)).push_back(copy);
            *s.occ.add(rslot) += 1;
            *s.port_occ.add(s.port_slot(ri, sp.port as usize)) += 1;
            *s.buffered.add(ri) += 1;
            sink(Effect::ReplicaCopy {
                packet: flit.pkt.id,
            });
        }

        let mut out = flit;
        if let Some(sp) = split {
            match params.strategy {
                MulticastStrategy::Tree => out.dest_hi = sp.resume,
                // The continuing copy heads to the next endpoint.
                _ => out.dest_idx = sp.resume,
            }
        }

        if route.eject {
            sink(Effect::Eject { flit: out });
        } else {
            // Passing delivery: the worm's current target lives on
            // this router but further endpoints remain — peel a copy
            // off to the local sink and forward the worm re-aimed at
            // the next endpoint. No replication storage: the copy goes
            // straight from the crossbar to ejection. This is path
            // multicast's only mechanism, and tree multicast's fallback
            // when an ejection router has no free replica VC to fork
            // into (hybrid never routes onward past a local target
            // without splitting first).
            if !matches!(params.strategy, MulticastStrategy::Hybrid)
                && out.target().node == node
                && out.has_more_targets()
            {
                sink(Effect::ReplicaCopy { packet: out.pkt.id });
                sink(Effect::Eject { flit: out.clone() });
                out.dest_idx += 1;
            }
            let link = topo.router(node).ports[route.port as usize]
                .out_link
                .expect("net route must have a link");
            let oslot = s.vc_slot(ri, route.port as usize, route.vc as usize);
            let credits = &mut *s.out_credits.add(oslot);
            assert!(*credits > 0, "sent without credit");
            *credits -= 1;
            let delay = topo.link(link).delay + (params.router_stages - 1);
            let when = cycle + u64::from(delay.max(1));
            sink(Effect::Arrive {
                when,
                link,
                vc: route.vc,
                flit: out,
            });
        }

        // Credit return for flits that arrived over our input link.
        if via_link {
            if let Some(in_link) = topo.router(node).ports[p].in_link {
                sink(Effect::Credit {
                    when: cycle + u64::from(params.credit_delay),
                    link: in_link,
                    vc: v as u8,
                });
            }
        }

        if is_tail {
            let was_replica = *s.replica_role.add(slot);
            if !route.eject {
                let oslot = s.vc_slot(ri, route.port as usize, route.vc as usize);
                *s.out_owner.add(oslot) = false;
            }
            *s.route.add(slot) = None;
            *s.split.add(slot) = None;
            if was_replica {
                *s.replica_role.add(slot) = false;
                sink(Effect::Release {
                    node,
                    port: p as u8,
                    vc: v as u8,
                });
            }
        }

        // Round-robin advance without a division: `v < vcs`, so one
        // conditional wrap is exact.
        let next = v + 1;
        *s.rr_in.add(ps) = if next == s.vcs { 0 } else { next as u8 };
    }
}

/// One sharded commit run, shared by every pool worker: the run slice
/// of the worklist, the intents to apply, and per-worker mailboxes.
pub(crate) struct CommitJob<'a, P> {
    /// Raw slab view; workers write disjoint router ranges through it.
    pub slabs: SlabPtrs<P>,
    /// Topology (read-only).
    pub topo: &'a Topology,
    /// Router parameters (read-only).
    pub params: &'a RouterParams,
    /// All per-router intents, indexed by router id.
    pub intents: *const RouterIntent,
    /// The run: worklist positions `[lo, hi)`, all valid to commit.
    pub run: &'a [u32],
    /// Current simulation cycle.
    pub cycle: u64,
    /// Per-worker mailboxes (worker `w` touches only slot `w`).
    pub mailboxes: *mut Mailbox<P>,
    /// Worker count = the ownership stride over run positions.
    pub stride: usize,
}

/// Type-erased pool entry point for the sharded commit; see the SAFETY
/// note at the dispatch site in `Network::commit_run`.
pub(crate) unsafe fn commit_shim<P>(data: *const (), worker: usize) {
    // SAFETY: `data` points at the caller's `CommitJob`, which
    // `SimPool::run` keeps alive until every worker finished.
    let job = unsafe { &*data.cast::<CommitJob<'_, P>>() };
    // SAFETY: each worker dereferences only its own mailbox slot.
    let mb = unsafe { &mut *job.mailboxes.add(worker) };
    debug_assert!(mb.is_empty(), "mailbox not drained by the last merge");
    let mut pos = worker;
    while pos < job.run.len() {
        let idx = job.run[pos];
        // SAFETY: static round-robin ownership — position `pos` is
        // claimed by exactly worker `pos % stride`, so router `idx`'s
        // slab ranges and intent are touched by this worker alone.
        unsafe {
            let intent = &*job.intents.add(idx as usize);
            apply_intent(
                &job.slabs,
                job.topo,
                job.params,
                job.cycle,
                idx,
                intent,
                &mut |e| mb.push_back((pos as u32, e)),
            );
        }
        pos += job.stride;
    }
}
