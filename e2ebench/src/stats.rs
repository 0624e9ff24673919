//! What one point simulated: the counts the output check digests and
//! the per-layer work counts are read from.
//!
//! # CMP points count system-wide counters once
//!
//! `CacheSystem::run_cmp` stamps the system-wide counters (network
//! statistics, bank and memory operations, retries and timeouts) on
//! *every* per-core `Metrics`, and `Metrics::merge` then sums them, so
//! the merged result of an `n`-core point reports `n` times the real
//! totals. The benchmark takes those counters from one entry:
//! [`PointStats::from_cores`] reads them from core 0, and
//! [`PointStats::from_merged`] divides the merged sums by the core count
//! after checking that they are exact multiples of it.

use nucanet::Metrics;

/// The simulated statistics of one finished point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointStats {
    /// Simulated cycles of the timed window.
    pub cycles: u64,
    /// Measured accesses that completed.
    pub accesses: u64,
    /// Measured accesses that hit.
    pub hits: u64,
    /// Sum of the measured accesses' latencies, in cycles.
    pub latency_sum: u64,
    /// Flits moved over links.
    pub flit_hops: u64,
    /// Packets delivered by the network.
    pub packets: u64,
    /// Sum of the delivered packets' latencies, in cycles.
    pub packet_latency_sum: u64,
    /// Multicast replications.
    pub replications: u64,
    /// Cycles a replication waited for a free VC.
    pub replication_blocked_cycles: u64,
    /// Cycles a head flit found no usable route.
    pub route_blocked_cycles: u64,
    /// Bank array operations.
    pub bank_ops: u64,
    /// Off-chip block transfers.
    pub mem_ops: u64,
    /// Request retries.
    pub retries: u64,
    /// Accesses dropped after their last retry.
    pub timeouts: u64,
}

impl PointStats {
    /// Statistics of a single-core point, or of one `Metrics` entry.
    pub fn from_metrics(m: &Metrics) -> PointStats {
        PointStats {
            cycles: m.cycles,
            accesses: m.accesses() as u64,
            hits: m.hits_by_position().iter().sum(),
            latency_sum: m.latency_histogram().sum(),
            flit_hops: m.net.flits_per_link.iter().sum(),
            packets: m.net.packets_delivered,
            packet_latency_sum: m.net.total_packet_latency,
            replications: m.net.replications,
            replication_blocked_cycles: m.net.replication_blocked_cycles,
            route_blocked_cycles: m.net.route_blocked_cycles,
            bank_ops: m.bank_ops_by_kb.iter().map(|&(_, n)| n).sum(),
            mem_ops: m.mem_ops,
            retries: m.retried_accesses,
            timeouts: m.timed_out_accesses,
        }
    }

    /// Statistics of a point from its per-core entries: per-access
    /// aggregates summed over the cores, system-wide counters from core 0.
    pub fn from_cores(per_core: &[Metrics]) -> PointStats {
        let first = PointStats::from_metrics(&per_core[0]);
        per_core[1..].iter().fold(first, |mut s, m| {
            let c = PointStats::from_metrics(m);
            s.cycles = s.cycles.max(c.cycles);
            s.accesses += c.accesses;
            s.hits += c.hits;
            s.latency_sum += c.latency_sum;
            s
        })
    }

    /// Statistics of a point from the merged `Metrics` a sweep returns
    /// for `cores` cores, counting system-wide counters once.
    ///
    /// # Errors
    ///
    /// Fails when a system-wide counter is not an exact multiple of
    /// `cores`, i.e. when the merge no longer overcounts as described in
    /// the module docs.
    pub fn from_merged(m: &Metrics, cores: u64) -> Result<PointStats, String> {
        let mut s = PointStats::from_metrics(m);
        let once = |name: &str, v: &mut u64| {
            if !v.is_multiple_of(cores) {
                return Err(format!(
                    "merged {name} {v} is not a multiple of {cores} cores"
                ));
            }
            *v /= cores;
            Ok(())
        };
        once("flit_hops", &mut s.flit_hops)?;
        once("packets", &mut s.packets)?;
        once("packet_latency_sum", &mut s.packet_latency_sum)?;
        once("replications", &mut s.replications)?;
        once(
            "replication_blocked_cycles",
            &mut s.replication_blocked_cycles,
        )?;
        once("route_blocked_cycles", &mut s.route_blocked_cycles)?;
        once("bank_ops", &mut s.bank_ops)?;
        once("mem_ops", &mut s.mem_ops)?;
        once("retries", &mut s.retries)?;
        once("timeouts", &mut s.timeouts)?;
        Ok(s)
    }

    /// FNV-1a digest of cycles, accesses, hits, latency sum, flit hops,
    /// memory operations and bank operations.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.cycles,
            self.accesses,
            self.hits,
            self.latency_sum,
            self.flit_hops,
            self.mem_ops,
            self.bank_ops,
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Adds `other`'s counts into this one (cycles add too: a batch's
    /// simulated cycles are the sum over its points).
    pub fn add(&mut self, other: &PointStats) {
        self.cycles += other.cycles;
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.latency_sum += other.latency_sum;
        self.flit_hops += other.flit_hops;
        self.packets += other.packets;
        self.packet_latency_sum += other.packet_latency_sum;
        self.replications += other.replications;
        self.replication_blocked_cycles += other.replication_blocked_cycles;
        self.route_blocked_cycles += other.route_blocked_cycles;
        self.bank_ops += other.bank_ops;
        self.mem_ops += other.mem_ops;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
    }
}
