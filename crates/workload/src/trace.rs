//! Synthetic data-center trace.
//!
//! Substitute for the paper's trace-driven experiment input (we have no
//! production traces): Poisson flow arrivals over a host population with
//! bounded-Pareto flow sizes, reproducing the two properties the
//! evaluation depends on — most flows are mice, most *bytes* ride a few
//! elephants (paper reference 1, Benson et al.).

use crate::{FlowArrival, FlowIdStream, FlowSource, FlowSpec};
use scotch_net::{FlowKey, IpAddr};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// A Poisson all-to-all workload over a set of hosts.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// Aggregate flow arrival rate, flows/s.
    pub rate: f64,
    /// Participating host addresses (flows pick distinct src/dst pairs).
    pub hosts: Vec<IpAddr>,
    /// Flow size bounds, packets.
    pub size_lo: u32,
    /// Upper bound, packets.
    pub size_hi: u32,
    /// Pareto tail index.
    pub alpha: f64,
    /// Packet size, bytes.
    pub packet_size: u32,
    /// Intra-flow packet gap.
    pub packet_interval: SimDuration,
    /// Activation start: arrivals begin here.
    start: SimTime,
    end: SimTime,
    next_at: Option<SimTime>,
    next_sport: u16,
    ids: FlowIdStream,
    rng: SimRng,
}

impl TraceWorkload {
    /// A trace over `hosts` at `rate` flows/s, active `[start, end)`.
    /// Needs at least two hosts.
    pub fn new(
        rate: f64,
        hosts: Vec<IpAddr>,
        start: SimTime,
        end: SimTime,
        ids: FlowIdStream,
        rng: SimRng,
    ) -> Self {
        assert!(hosts.len() >= 2, "need at least two hosts");
        assert!(rate > 0.0);
        TraceWorkload {
            rate,
            hosts,
            size_lo: 1,
            size_hi: 10_000,
            alpha: 1.2,
            packet_size: 1000,
            packet_interval: SimDuration::from_millis(1),
            start,
            end,
            next_at: Some(start),
            next_sport: 1024,
            ids,
            rng,
        }
    }

    /// Builder: flow size distribution parameters.
    pub fn with_sizes(mut self, lo: u32, hi: u32, alpha: f64) -> Self {
        self.size_lo = lo;
        self.size_hi = hi;
        self.alpha = alpha;
        self
    }

    /// Builder: intra-flow pacing.
    pub fn with_packet_interval(mut self, gap: SimDuration) -> Self {
        self.packet_interval = gap;
        self
    }
}

impl FlowSource for TraceWorkload {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        let at = self.next_at?;
        if at >= self.end {
            self.next_at = None;
            return None;
        }
        self.next_at = Some(at + SimDuration::from_secs_f64(self.rng.exp(1.0 / self.rate)));

        let si = self.rng.index(self.hosts.len());
        let mut di = self.rng.index(self.hosts.len() - 1);
        if di >= si {
            di += 1;
        }
        let sport = self.next_sport;
        self.next_sport = if sport == u16::MAX { 1024 } else { sport + 1 };
        let packets = self
            .rng
            .bounded_pareto(self.size_lo as f64, self.size_hi as f64, self.alpha)
            .round() as u32;
        Some(FlowArrival {
            at,
            flow: FlowSpec {
                id: self.ids.next_id(),
                key: FlowKey::tcp(self.hosts[si], sport, self.hosts[di], 80),
                packets: packets.max(1),
                packet_size: self.packet_size,
                packet_interval: self.packet_interval,
                is_attack: false,
            },
        })
    }

    fn expected_arrivals(&self, until: SimTime) -> f64 {
        self.rate * self.end.min(until).duration_since(self.start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowIdAllocator;

    fn hosts(n: u32) -> Vec<IpAddr> {
        (0..n)
            .map(|i| IpAddr(IpAddr::new(10, 0, 1, 0).0 + i))
            .collect()
    }

    fn trace(rate: f64, n_hosts: u32, secs: u64) -> TraceWorkload {
        let mut alloc = FlowIdAllocator::new();
        TraceWorkload::new(
            rate,
            hosts(n_hosts),
            SimTime::ZERO,
            SimTime::from_secs(secs),
            alloc.stream(),
            SimRng::new(21),
        )
    }

    #[test]
    fn rate_is_approximately_right() {
        let mut t = trace(500.0, 8, 10);
        let n = std::iter::from_fn(|| t.next_arrival()).count();
        assert!((4500..5500).contains(&n), "n={n}");
    }

    #[test]
    fn src_and_dst_differ_and_are_in_population() {
        let mut t = trace(200.0, 4, 2);
        let pop = hosts(4);
        while let Some(f) = t.next_arrival() {
            assert_ne!(f.flow.key.src, f.flow.key.dst);
            assert!(pop.contains(&f.flow.key.src));
            assert!(pop.contains(&f.flow.key.dst));
        }
    }

    #[test]
    fn sizes_respect_bounds() {
        let mut t = trace(1000.0, 4, 2).with_sizes(5, 500, 1.1);
        while let Some(f) = t.next_arrival() {
            assert!((5..=500).contains(&f.flow.packets), "{}", f.flow.packets);
        }
    }

    #[test]
    #[should_panic(expected = "two hosts")]
    fn rejects_single_host() {
        let mut alloc = FlowIdAllocator::new();
        let _ = TraceWorkload::new(
            10.0,
            hosts(1),
            SimTime::ZERO,
            SimTime::from_secs(1),
            alloc.stream(),
            SimRng::new(1),
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let collect = || {
            let mut t = trace(100.0, 4, 2);
            std::iter::from_fn(move || t.next_arrival())
                .map(|f| (f.at, f.flow.key, f.flow.packets))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
