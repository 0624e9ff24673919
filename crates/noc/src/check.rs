//! Runtime invariant checking for the cycle kernel.
//!
//! The fast simulator earns its speed with bookkeeping shortcuts — the
//! split borrow, the calendar queue, hybrid replica flits that bypass
//! credit flow control — and every one of them is a place a future
//! refactor can go silently wrong. The [`InvariantChecker`] is a
//! pluggable sanitizer: when enabled on a [`crate::Network`], every
//! [`crate::Network::step`] re-derives the properties the paper's
//! design depends on from first principles and compares them against
//! the kernel's own state:
//!
//! * **Flit conservation** — every flit copy ever created (injected or
//!   replicated) is buffered in some VC, on some wire, or ejected.
//! * **Credit accounting** — per (link, VC): upstream credits plus
//!   flits and credits on the wire plus the downstream buffer occupancy
//!   equal `vc_depth`; replica flits, which are written locally and
//!   never consume upstream credits, are excluded. The wire terms are
//!   recounted from the event wheel, independently of the kernel's
//!   `inflight` array, which is cross-checked too.
//! * **Wormhole order** — flits eject at each (packet, destination) in
//!   strict `0, 1, …, flits-1` sequence; packets never interleave.
//! * **Exactly-once multicast** — whatever the replication strategy
//!   (hybrid splits, tree forks, or path passing deliveries), exactly
//!   one copy arrives per destination-list slot: no duplicates, and
//!   (checked at quiescence) no starved endpoint.
//! * **Replication budget** — the active [`crate::strategy`] model
//!   predicts exactly how many replica copies a packet costs
//!   (`flits × (n_dests − 1)` for all three strategies); the running
//!   count may never overshoot it and must land on it by quiescence.
//! * **Channel enumeration** — within each routed segment, head flits
//!   cross strictly increasing channel numbers under the total order
//!   from [`crate::deadlock`] (the paper's Fig. 5(b) argument). The
//!   order is recomputed when a fault rebuilds the routing table, and
//!   per-segment history resets so hops taken under different tables
//!   are never compared. (Only segments are checked: a multicast
//!   split starts a fresh segment, since the concatenated path is not
//!   in general a routed path of the table.)
//!
//! Violations are recorded as typed [`InvariantViolation`]s with the
//! most recent entries of the network's event log attached, and the
//! first one surfaces from `Network::step` as
//! [`crate::SimError::Invariant`].
//!
//! The checker is `None` by default; the disabled path costs one
//! pointer-sized branch per hook and keeps the kernel allocation-free
//! (see `tests/alloc_free_step.rs`).

use std::collections::BTreeMap;
use std::fmt;

use crate::evlog::{EventLog, NetEvent};
use crate::ids::{Endpoint, LinkId};
use crate::packet::PacketId;
use crate::strategy::MulticastStrategy;

/// Violations retained with full detail; later ones only increment
/// [`InvariantChecker::total_violations`].
const MAX_VIOLATIONS: usize = 32;

/// How many trailing event-log entries a violation report carries.
const RECENT_EVENTS: usize = 32;

/// One violated invariant, with enough state to diagnose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantKind {
    /// Created flit copies do not equal buffered + on-wire + ejected.
    FlitConservation {
        /// Flit copies created so far (injection + replication).
        created: u64,
        /// Flits buffered across all input VCs.
        buffered: u64,
        /// Flits on the wire (recounted from the event wheel).
        on_wire: u64,
        /// Flits handed to local sinks.
        ejected: u64,
    },
    /// Per-(link, VC) credit conservation failed.
    CreditAccounting {
        /// The link whose VC is inconsistent.
        link: LinkId,
        /// VC index within the link.
        vc: u8,
        /// Upstream sender-side credits.
        credits: u8,
        /// Flits on the wire toward the downstream buffer.
        wire_flits: u32,
        /// Credits on the wire back upstream.
        wire_credits: u32,
        /// Downstream buffer occupancy counted against credits
        /// (zero while the VC holds locally written replica flits).
        buffered: u32,
        /// The buffer depth all of the above must sum to.
        vc_depth: u8,
    },
    /// The kernel's `inflight` array disagrees with a recount of the
    /// event wheel's scheduled arrivals.
    InflightDrift {
        /// The affected link.
        link: LinkId,
        /// VC index within the link.
        vc: u8,
        /// What the kernel's counter says.
        tracked: u32,
        /// What the event wheel actually holds.
        recounted: u32,
    },
    /// A dense occupancy mirror (`occ`, `port_occ` or `buffered`)
    /// disagrees with a recount of the VC FIFOs it mirrors.
    MirrorDrift {
        /// Which mirror drifted.
        mirror: &'static str,
        /// The drifted entry (VC slot, port slot or router index).
        index: u32,
        /// What the mirror says.
        tracked: u32,
        /// What the FIFOs actually hold.
        recounted: u32,
    },
    /// A flit ejected out of wormhole order at a destination.
    FlitOrder {
        /// The packet involved.
        packet: PacketId,
        /// Destination endpoint where order broke.
        endpoint: Endpoint,
        /// The sequence number that should have ejected next.
        expected_seq: u32,
        /// The sequence number that actually ejected.
        got_seq: u32,
    },
    /// A destination-list slot received more than one tail.
    DuplicateDelivery {
        /// The packet involved.
        packet: PacketId,
        /// The endpoint delivered to more than once.
        endpoint: Endpoint,
        /// Tail copies seen so far (> 1).
        copies: u32,
    },
    /// A flit ejected at an endpoint that is not the destination-list
    /// slot it claims to serve.
    UnexpectedEndpoint {
        /// The packet involved.
        packet: PacketId,
        /// Where the flit actually ejected.
        endpoint: Endpoint,
        /// The destination-list index the flit carried.
        dest_idx: u32,
    },
    /// At quiescence, a tracked packet left a destination without its
    /// delivery (a starved multicast endpoint or a lost packet).
    MissingDelivery {
        /// The packet involved.
        packet: PacketId,
        /// The endpoint that never received its copy.
        endpoint: Endpoint,
        /// Flits that did eject there before traffic stopped.
        flits_seen: u32,
    },
    /// A packet's replica-copy count disagrees with what the active
    /// multicast strategy predicts. Every strategy — hybrid splits,
    /// tree forks, path passing deliveries — creates exactly
    /// `flits × (n_dests − 1)` copies per fully delivered packet, so
    /// this fires while running when the count overshoots and at
    /// quiescence when it lands anywhere else.
    ReplicaCount {
        /// The packet involved.
        packet: PacketId,
        /// Replica copies created for it so far.
        copies: u64,
        /// What the strategy model predicts for full delivery.
        expected: u64,
    },
    /// A head flit crossed a channel whose enumeration rank does not
    /// exceed the previous hop's within the same routed segment.
    ChannelOrder {
        /// The packet involved.
        packet: PacketId,
        /// The offending link.
        link: LinkId,
        /// Rank of the previous hop's channel.
        prev_rank: u32,
        /// Rank of this hop's channel (must be greater).
        rank: u32,
    },
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantKind::FlitConservation {
                created,
                buffered,
                on_wire,
                ejected,
            } => write!(
                f,
                "flit conservation: created {created} != buffered {buffered} + \
                 on-wire {on_wire} + ejected {ejected}"
            ),
            InvariantKind::CreditAccounting {
                link,
                vc,
                credits,
                wire_flits,
                wire_credits,
                buffered,
                vc_depth,
            } => write!(
                f,
                "credit accounting on {link:?} vc {vc}: credits {credits} + wire flits \
                 {wire_flits} + wire credits {wire_credits} + buffered {buffered} != \
                 vc_depth {vc_depth}"
            ),
            InvariantKind::InflightDrift {
                link,
                vc,
                tracked,
                recounted,
            } => write!(
                f,
                "inflight drift on {link:?} vc {vc}: kernel tracks {tracked}, \
                 wheel holds {recounted}"
            ),
            InvariantKind::MirrorDrift {
                mirror,
                index,
                tracked,
                recounted,
            } => write!(
                f,
                "occupancy mirror drift: {mirror}[{index}] tracks {tracked}, \
                 buffers hold {recounted}"
            ),
            InvariantKind::FlitOrder {
                packet,
                endpoint,
                expected_seq,
                got_seq,
            } => write!(
                f,
                "wormhole order broken: {packet:?} at {endpoint} ejected seq {got_seq}, \
                 expected {expected_seq}"
            ),
            InvariantKind::DuplicateDelivery {
                packet,
                endpoint,
                copies,
            } => write!(
                f,
                "duplicate delivery: {packet:?} delivered {copies} copies to {endpoint}"
            ),
            InvariantKind::UnexpectedEndpoint {
                packet,
                endpoint,
                dest_idx,
            } => write!(
                f,
                "unexpected endpoint: {packet:?} ejected at {endpoint} for dest slot {dest_idx}"
            ),
            InvariantKind::MissingDelivery {
                packet,
                endpoint,
                flits_seen,
            } => write!(
                f,
                "missing delivery: {packet:?} never completed at {endpoint} \
                 ({flits_seen} flits seen)"
            ),
            InvariantKind::ReplicaCount {
                packet,
                copies,
                expected,
            } => write!(
                f,
                "replica count: {packet:?} created {copies} copies, strategy \
                 predicts {expected}"
            ),
            InvariantKind::ChannelOrder {
                packet,
                link,
                prev_rank,
                rank,
            } => write!(
                f,
                "channel enumeration broken: {packet:?} crossed {link:?} rank {rank} \
                 after rank {prev_rank}"
            ),
        }
    }
}

/// A violated invariant with the cycle it was detected at and the tail
/// of the network's event log for causal context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the checker caught the violation.
    pub cycle: u64,
    /// What went wrong.
    pub kind: InvariantKind,
    /// The most recent event-log entries (oldest first) at detection
    /// time; empty when logging was disabled.
    pub recent: Vec<NetEvent>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.kind)?;
        if !self.recent.is_empty() {
            write!(f, " (last {} events logged)", self.recent.len())?;
        }
        Ok(())
    }
}

/// Per-packet tracking state, one entry per in-flight packet; dropped
/// once the packet's deliveries check out at network quiescence.
#[derive(Debug)]
struct PacketTrack {
    flits: u32,
    dests: Vec<Endpoint>,
    /// Next expected ejected sequence number per destination slot.
    next_seq: Vec<u32>,
    /// Tail copies delivered per destination slot (must end at 1).
    tails: Vec<u32>,
    /// Replica flit copies created for this packet so far.
    copies: u64,
    /// What the strategy model predicts for full delivery
    /// (`flits × (n_dests − 1)` under every current strategy).
    copy_limit: u64,
}

/// Pluggable per-cycle invariant checker (see the module docs).
///
/// Owned as an `Option` by [`crate::Network`]; construct it via
/// [`crate::Network::enable_invariant_checker`].
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Channel total order of the current routing table, when one
    /// exists; `None` disables per-hop rank checks.
    enumeration: Option<Vec<u32>>,
    /// The multicast strategy whose replication expectations apply.
    strategy: MulticastStrategy,
    /// Flit copies created so far (injected flits + replica writes).
    created: u64,
    packets: BTreeMap<PacketId, PacketTrack>,
    /// Channel rank of the last link a head crossed, keyed by
    /// (packet, destination-list index) — i.e. per routed segment.
    last_rank: BTreeMap<(PacketId, u32), u32>,
    /// Per-slot wire recounts, refilled from the event wheel each audit.
    wire_flits: Vec<u32>,
    wire_credits: Vec<u32>,
    /// Kinds detected this cycle, sealed into violations at step end.
    found: Vec<InvariantKind>,
    violations: Vec<InvariantViolation>,
    total_violations: u64,
    audits: u64,
}

impl InvariantChecker {
    /// Creates a checker with the given channel enumeration (from
    /// [`crate::deadlock::ChannelDependencyGraph::enumeration`]) and
    /// the multicast strategy whose replication counts to expect.
    pub(crate) fn new(enumeration: Option<Vec<u32>>, strategy: MulticastStrategy) -> Self {
        InvariantChecker {
            enumeration,
            strategy,
            ..Default::default()
        }
    }

    fn record(&mut self, kind: InvariantKind) {
        self.total_violations += 1;
        if self.found.len() + self.violations.len() < MAX_VIOLATIONS {
            self.found.push(kind);
        }
    }

    /// Registers an injected packet.
    pub(crate) fn on_inject(&mut self, id: PacketId, flits: u32, dests: &[Endpoint]) {
        self.created += u64::from(flits);
        self.packets.insert(
            id,
            PacketTrack {
                flits,
                dests: dests.to_vec(),
                next_seq: vec![0; dests.len()],
                tails: vec![0; dests.len()],
                copies: 0,
                copy_limit: self.strategy.model().replica_copies(flits, dests.len()),
            },
        );
    }

    /// Registers one replica flit copy and checks the running count
    /// against the strategy model's prediction for the packet.
    pub(crate) fn on_replica_copy(&mut self, id: PacketId) {
        self.created += 1;
        let Some(track) = self.packets.get_mut(&id) else {
            // Injected before the checker was enabled; count the copy
            // for conservation, but there is no prediction to check.
            return;
        };
        track.copies += 1;
        let (copies, limit) = (track.copies, track.copy_limit);
        if copies > limit {
            self.record(InvariantKind::ReplicaCount {
                packet: id,
                copies,
                expected: limit,
            });
        }
    }

    /// Checks one ejected flit for wormhole order, destination
    /// membership, and duplicate tails.
    pub(crate) fn on_eject(
        &mut self,
        id: PacketId,
        seq: u32,
        dest_idx: u32,
        endpoint: Endpoint,
        is_tail: bool,
    ) {
        let Some(track) = self.packets.get_mut(&id) else {
            // Injected before the checker was enabled; nothing to say.
            return;
        };
        let slot = dest_idx as usize;
        if track.dests.get(slot) != Some(&endpoint) {
            self.record(InvariantKind::UnexpectedEndpoint {
                packet: id,
                endpoint,
                dest_idx,
            });
            return;
        }
        let track = self.packets.get_mut(&id).expect("present above");
        let expected = track.next_seq[slot] % track.flits;
        if seq != expected {
            let kind = InvariantKind::FlitOrder {
                packet: id,
                endpoint,
                expected_seq: expected,
                got_seq: seq,
            };
            self.record(kind);
        }
        let track = self.packets.get_mut(&id).expect("present above");
        track.next_seq[slot] += 1;
        if is_tail {
            track.tails[slot] += 1;
            let copies = track.tails[slot];
            if copies > 1 {
                self.record(InvariantKind::DuplicateDelivery {
                    packet: id,
                    endpoint,
                    copies,
                });
            }
        }
    }

    /// Checks a head flit's link crossing against the channel total
    /// order, per routed segment.
    pub(crate) fn on_link_send(&mut self, id: PacketId, dest_idx: u32, link: LinkId) {
        let Some(order) = &self.enumeration else {
            return;
        };
        let rank = order[link.0 as usize];
        let key = (id, dest_idx);
        if let Some(prev) = self.last_rank.insert(key, rank) {
            if prev >= rank {
                self.record(InvariantKind::ChannelOrder {
                    packet: id,
                    link,
                    prev_rank: prev,
                    rank,
                });
            }
        }
    }

    /// A fault rebuilt the routing table: adopt its (re-derived)
    /// enumeration and forget per-segment hop history so hops under
    /// different tables are never compared.
    pub(crate) fn on_table_rebuilt(&mut self, enumeration: Option<Vec<u32>>) {
        self.enumeration = enumeration;
        self.last_rank.clear();
    }

    /// Resets the per-slot wire recount buffers for a new audit.
    pub(crate) fn begin_wire(&mut self, slots: usize) {
        self.audits += 1;
        self.wire_flits.clear();
        self.wire_flits.resize(slots, 0);
        self.wire_credits.clear();
        self.wire_credits.resize(slots, 0);
    }

    /// Counts one scheduled flit arrival on `slot`.
    pub(crate) fn wire_flit(&mut self, slot: usize) {
        self.wire_flits[slot] += 1;
    }

    /// Counts one scheduled credit return on `slot`.
    pub(crate) fn wire_credit(&mut self, slot: usize) {
        self.wire_credits[slot] += 1;
    }

    /// Total flits on the wire per the recount.
    pub(crate) fn wire_flit_total(&self) -> u64 {
        self.wire_flits.iter().map(|&f| u64::from(f)).sum()
    }

    /// Audits one (link, VC) slot's credit conservation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_slot(
        &mut self,
        link: LinkId,
        vc: u8,
        slot: usize,
        credits: u8,
        buffered: u32,
        replica: bool,
        inflight: u32,
        vc_depth: u8,
    ) {
        let wire_flits = self.wire_flits[slot];
        let wire_credits = self.wire_credits[slot];
        if wire_flits != inflight {
            self.record(InvariantKind::InflightDrift {
                link,
                vc,
                tracked: inflight,
                recounted: wire_flits,
            });
        }
        // Replica flits were written locally without consuming upstream
        // credits, so they are invisible to this equation.
        let counted = if replica { 0 } else { buffered };
        let sum = u32::from(credits) + wire_flits + wire_credits + counted;
        if sum != u32::from(vc_depth) {
            self.record(InvariantKind::CreditAccounting {
                link,
                vc,
                credits,
                wire_flits,
                wire_credits,
                buffered: counted,
                vc_depth,
            });
        }
    }

    /// Records a dense occupancy mirror entry that disagrees with its
    /// recount from the VC FIFOs.
    pub(crate) fn mirror_drift(
        &mut self,
        mirror: &'static str,
        index: usize,
        tracked: u32,
        recounted: u32,
    ) {
        self.record(InvariantKind::MirrorDrift {
            mirror,
            index: index as u32,
            tracked,
            recounted,
        });
    }

    /// Audits global flit conservation; `on_wire` comes from the wheel
    /// recount of the same audit.
    pub(crate) fn check_conservation(&mut self, buffered: u64, ejected: u64) {
        let on_wire = self.wire_flit_total();
        if self.created != buffered + on_wire + ejected {
            self.record(InvariantKind::FlitConservation {
                created: self.created,
                buffered,
                on_wire,
                ejected,
            });
        }
    }

    /// At network quiescence every tracked packet must have delivered
    /// exactly one full copy per destination slot; tracking state is
    /// then dropped, bounding the checker's memory by the in-flight
    /// packet count.
    pub(crate) fn audit_quiescent(&mut self) {
        let packets = std::mem::take(&mut self.packets);
        for (id, track) in &packets {
            for (slot, &endpoint) in track.dests.iter().enumerate() {
                if track.tails[slot] != 1 || track.next_seq[slot] != track.flits {
                    self.record(InvariantKind::MissingDelivery {
                        packet: *id,
                        endpoint,
                        flits_seen: track.next_seq[slot],
                    });
                }
            }
            // A fully delivered packet must have cost exactly the
            // copies its strategy predicts — no more, no fewer.
            if track.copies != track.copy_limit {
                self.record(InvariantKind::ReplicaCount {
                    packet: *id,
                    copies: track.copies,
                    expected: track.copy_limit,
                });
            }
        }
        self.last_rank.clear();
    }

    /// Seals this cycle's findings into [`InvariantViolation`]s,
    /// attaching the tail of the event log.
    pub(crate) fn seal(&mut self, cycle: u64, evlog: Option<&EventLog>) {
        if self.found.is_empty() {
            return;
        }
        let recent: Vec<NetEvent> = evlog.map(|l| l.recent(RECENT_EVENTS)).unwrap_or_default();
        for kind in self.found.drain(..) {
            self.violations.push(InvariantViolation {
                cycle,
                kind,
                recent: recent.clone(),
            });
        }
    }

    /// Violations recorded so far (bounded; see
    /// [`InvariantChecker::total_violations`] for the unbounded count).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Total violations detected, including any past the retention cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Per-cycle audits performed.
    pub fn audits(&self) -> u64 {
        self.audits
    }

    /// Packets currently tracked (in flight since the last quiescent
    /// audit).
    pub fn tracked_packets(&self) -> usize {
        self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn ep(n: u32) -> Endpoint {
        Endpoint::at(NodeId(n))
    }

    #[test]
    fn clean_unicast_life_cycle_records_nothing() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(0), 2, &[ep(3)]);
        c.on_eject(PacketId(0), 0, 0, ep(3), false);
        c.on_eject(PacketId(0), 1, 0, ep(3), true);
        c.check_conservation(0, 2);
        c.audit_quiescent();
        c.seal(9, None);
        assert!(c.violations().is_empty());
        assert_eq!(c.total_violations(), 0);
        assert_eq!(c.tracked_packets(), 0);
    }

    #[test]
    fn out_of_order_eject_is_flagged() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(1), 3, &[ep(2)]);
        c.on_eject(PacketId(1), 1, 0, ep(2), false);
        c.seal(5, None);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::FlitOrder {
                expected_seq: 0,
                got_seq: 1,
                ..
            }
        ));
        assert_eq!(c.violations()[0].cycle, 5);
    }

    #[test]
    fn duplicate_tail_is_flagged() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(2), 1, &[ep(4)]);
        c.on_eject(PacketId(2), 0, 0, ep(4), true);
        c.on_eject(PacketId(2), 0, 0, ep(4), true);
        c.seal(1, None);
        let dup = c
            .violations()
            .iter()
            .any(|v| matches!(v.kind, InvariantKind::DuplicateDelivery { copies: 2, .. }));
        assert!(dup, "{:?}", c.violations());
    }

    #[test]
    fn missing_delivery_caught_at_quiescence() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(3), 1, &[ep(1), ep(5)]);
        c.on_eject(PacketId(3), 0, 0, ep(1), true);
        c.audit_quiescent();
        c.seal(7, None);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::MissingDelivery { flits_seen: 0, .. }
        ));
    }

    #[test]
    fn conservation_mismatch_is_flagged() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(4), 5, &[ep(1)]);
        c.begin_wire(4);
        c.wire_flit(0);
        c.check_conservation(1, 2); // 5 created, 1 buffered + 1 wire + 2 ejected
        c.seal(3, None);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::FlitConservation {
                created: 5,
                buffered: 1,
                on_wire: 1,
                ejected: 2,
            }
        ));
    }

    #[test]
    fn channel_rank_must_increase_within_a_segment() {
        let mut c = InvariantChecker::new(Some(vec![0, 2, 1]), MulticastStrategy::Hybrid);
        c.on_inject(PacketId(5), 1, &[ep(9)]);
        c.on_link_send(PacketId(5), 0, LinkId(1)); // rank 2
        c.on_link_send(PacketId(5), 0, LinkId(2)); // rank 1 < 2: violation
        c.on_link_send(PacketId(5), 1, LinkId(2)); // fresh segment: fine
        c.seal(2, None);
        assert_eq!(c.violations().len(), 1);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::ChannelOrder {
                prev_rank: 2,
                rank: 1,
                ..
            }
        ));
    }

    #[test]
    fn table_rebuild_resets_segment_history() {
        let mut c = InvariantChecker::new(Some(vec![5, 0]), MulticastStrategy::Hybrid);
        c.on_link_send(PacketId(6), 0, LinkId(0)); // rank 5
        c.on_table_rebuilt(Some(vec![5, 0]));
        c.on_link_send(PacketId(6), 0, LinkId(1)); // rank 0, but fresh history
        c.seal(1, None);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn credit_slot_mismatch_and_drift() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.begin_wire(2);
        c.wire_flit(0);
        // Slot 0: kernel claims 0 inflight but the wheel holds 1 → drift,
        // and 3 credits + 1 wire flit + 1 buffered = 5 != 4 → accounting.
        c.check_slot(LinkId(0), 0, 0, 3, 1, false, 0, 4);
        // Slot 1: replica flits excluded → 4 + 0 + 0 + (replica) = 4. OK.
        c.check_slot(LinkId(0), 1, 1, 4, 3, true, 0, 4);
        c.seal(2, None);
        assert_eq!(c.violations().len(), 2);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::InflightDrift { tracked: 0, recounted: 1, .. }
        ));
        assert!(matches!(
            c.violations()[1].kind,
            InvariantKind::CreditAccounting { .. }
        ));
    }

    #[test]
    fn replica_overshoot_is_flagged_while_running() {
        // Hybrid: 2 flits to 2 endpoints budgets 2 × (2−1) = 2 copies.
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(8), 2, &[ep(1), ep(2)]);
        c.on_replica_copy(PacketId(8));
        c.on_replica_copy(PacketId(8));
        c.seal(1, None);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        c.on_replica_copy(PacketId(8)); // third copy overshoots
        c.seal(2, None);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::ReplicaCount {
                copies: 3,
                expected: 2,
                ..
            }
        ));
    }

    #[test]
    fn replica_shortfall_is_caught_at_quiescence() {
        // Path multicast still owes one passing copy per extra
        // destination; a fully delivered packet with none is wrong.
        let mut c = InvariantChecker::new(None, MulticastStrategy::Path);
        c.on_inject(PacketId(9), 1, &[ep(1), ep(2)]);
        c.on_eject(PacketId(9), 0, 0, ep(1), true);
        c.on_eject(PacketId(9), 0, 1, ep(2), true);
        c.audit_quiescent();
        c.seal(3, None);
        assert!(matches!(
            c.violations()[0].kind,
            InvariantKind::ReplicaCount {
                copies: 0,
                expected: 1,
                ..
            }
        ));
    }

    #[test]
    fn untracked_replica_copy_only_counts_conservation() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Tree);
        c.on_replica_copy(PacketId(99)); // injected pre-enable
        c.check_conservation(1, 0);
        c.seal(1, None);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn violations_attach_recent_events() {
        let mut log = EventLog::new(8);
        log.push(NetEvent::ReplicaBlocked {
            cycle: 1,
            node: NodeId(0),
        });
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        c.on_inject(PacketId(7), 1, &[ep(1)]);
        c.on_eject(PacketId(7), 0, 0, ep(2), true); // wrong endpoint
        c.seal(4, Some(&log));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].recent.len(), 1);
        let shown = c.violations()[0].to_string();
        assert!(shown.contains("unexpected endpoint"), "{shown}");
        assert!(shown.contains("events logged"), "{shown}");
    }

    #[test]
    fn retention_is_bounded_but_total_counts_on() {
        let mut c = InvariantChecker::new(None, MulticastStrategy::Hybrid);
        for i in 0..100u64 {
            c.on_eject(PacketId(50), 0, 0, ep(1), true);
            c.on_inject(PacketId(50), 1, &[ep(2)]);
            c.on_eject(PacketId(50), 0, 0, ep(1), true); // unexpected endpoint
            c.seal(i, None);
        }
        assert!(c.violations().len() <= MAX_VIOLATIONS);
        assert!(c.total_violations() >= 100);
    }
}
