//! Flash crowds: a *legitimate* control-plane overload.
//!
//! The paper stresses throughout that Scotch handles "normal (e.g., flash
//! crowds) or abnormal (e.g., DDoS attacks) traffic surge" alike. A flash
//! crowd differs from the flood in two ways that matter to Scotch: the
//! sources are real (flows complete and are not droppable as malicious)
//! and the surge is transient — which is what exercises the §5.5
//! withdrawal path.

use crate::{FlowArrival, FlowIdStream, FlowSource, FlowSpec};
use scotch_net::{FlowKey, IpAddr};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// A trapezoidal arrival-rate profile: `base` → ramp up → `peak` → ramp
/// down → `base`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateProfile {
    /// Baseline rate, flows/s.
    pub base: f64,
    /// Peak rate, flows/s.
    pub peak: f64,
    /// Ramp-up starts.
    pub surge_start: SimTime,
    /// Peak reached.
    pub peak_start: SimTime,
    /// Peak ends.
    pub peak_end: SimTime,
    /// Back to baseline.
    pub surge_end: SimTime,
}

impl RateProfile {
    /// Instantaneous arrival rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let lerp = |a: f64, b: f64, t0: SimTime, t1: SimTime| -> f64 {
            let span = t1.duration_since(t0).as_secs_f64();
            if span <= 0.0 {
                return b;
            }
            let frac = (t.duration_since(t0).as_secs_f64() / span).clamp(0.0, 1.0);
            a + (b - a) * frac
        };
        if t < self.surge_start {
            self.base
        } else if t < self.peak_start {
            lerp(self.base, self.peak, self.surge_start, self.peak_start)
        } else if t < self.peak_end {
            self.peak
        } else if t < self.surge_end {
            lerp(self.peak, self.base, self.peak_end, self.surge_end)
        } else {
            self.base
        }
    }

    /// Expected arrivals over `[from, to)`: the rate integrated by the
    /// midpoint rule over 1024 steps (zero when `to <= from`).
    pub(crate) fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        let step = to.duration_since(from).as_secs_f64() / 1024.0;
        let rate =
            |i: u32| self.rate_at(from + SimDuration::from_secs_f64(step * (f64::from(i) + 0.5)));
        (0..1024).map(rate).sum::<f64>() * step
    }
}

/// Many clients hitting one service at a time-varying rate.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// The rate profile.
    pub profile: RateProfile,
    /// Service (destination) address.
    pub dst: IpAddr,
    /// Client population: sources are drawn uniformly from this many
    /// distinct addresses (they are *real* hosts, unlike the flood's
    /// spoofed space).
    pub client_pool: u32,
    /// Base of the client address range.
    pub client_base: IpAddr,
    /// Packets per flow.
    pub packets_per_flow: u32,
    /// Packet size in bytes.
    pub packet_size: u32,
    /// Activation start: arrivals begin here.
    start: SimTime,
    end: SimTime,
    next_at: Option<SimTime>,
    ids: FlowIdStream,
    rng: SimRng,
}

impl FlashCrowd {
    /// A crowd active `[start, end)` following `profile`.
    pub fn new(
        profile: RateProfile,
        dst: IpAddr,
        start: SimTime,
        end: SimTime,
        ids: FlowIdStream,
        rng: SimRng,
    ) -> Self {
        FlashCrowd {
            profile,
            dst,
            client_pool: 1000,
            client_base: IpAddr::new(172, 16, 0, 0),
            packets_per_flow: 3,
            packet_size: 512,
            start,
            end,
            next_at: Some(start),
            ids,
            rng,
        }
    }
}

impl FlowSource for FlashCrowd {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        let at = self.next_at?;
        if at >= self.end {
            self.next_at = None;
            return None;
        }
        let rate = self.profile.rate_at(at).max(0.1);
        self.next_at = Some(at + SimDuration::from_secs_f64(self.rng.exp(1.0 / rate)));

        let src = IpAddr(self.client_base.0 + self.rng.u32() % self.client_pool);
        let sport = 1024 + (self.rng.u32() % 60_000) as u16;
        Some(FlowArrival {
            at,
            flow: FlowSpec {
                id: self.ids.next_id(),
                key: FlowKey::tcp(src, sport, self.dst, 80),
                packets: self.packets_per_flow,
                packet_size: self.packet_size,
                packet_interval: SimDuration::from_millis(1),
                is_attack: false,
            },
        })
    }

    fn expected_arrivals(&self, until: SimTime) -> f64 {
        self.profile.integral(self.start, self.end.min(until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowIdAllocator;

    fn profile() -> RateProfile {
        RateProfile {
            base: 50.0,
            peak: 2000.0,
            surge_start: SimTime::from_secs(2),
            peak_start: SimTime::from_secs(4),
            peak_end: SimTime::from_secs(8),
            surge_end: SimTime::from_secs(10),
        }
    }

    #[test]
    fn rate_profile_shape() {
        let p = profile();
        assert_eq!(p.rate_at(SimTime::from_secs(0)), 50.0);
        assert_eq!(p.rate_at(SimTime::from_secs(3)), 1025.0); // midway up
        assert_eq!(p.rate_at(SimTime::from_secs(5)), 2000.0);
        assert_eq!(p.rate_at(SimTime::from_secs(9)), 1025.0); // midway down
        assert_eq!(p.rate_at(SimTime::from_secs(20)), 50.0);
        // 2 s of base, two 2 s ramps averaging 1025, 4 s of peak, 2 s base.
        let arrivals = |a, b| p.integral(SimTime::from_secs(a), SimTime::from_secs(b));
        assert!((arrivals(0, 12) - 12_300.0).abs() < 0.1);
        assert!((arrivals(3, 5) - 3_512.5).abs() < 0.1);
        assert_eq!(arrivals(6, 5), 0.0);
    }

    #[test]
    fn surge_produces_more_flows_than_baseline() {
        let mut alloc = FlowIdAllocator::new();
        let mut fc = FlashCrowd::new(
            profile(),
            IpAddr::new(10, 0, 0, 2),
            SimTime::ZERO,
            SimTime::from_secs(12),
            alloc.stream(),
            SimRng::new(3),
        );
        let mut before = 0u32; // [0, 2): baseline
        let mut during = 0u32; // [4, 8): peak
        while let Some(f) = fc.next_arrival() {
            let t = f.at.as_secs_f64();
            if t < 2.0 {
                before += 1;
            } else if (4.0..8.0).contains(&t) {
                during += 1;
            }
        }
        // Peak is 40x the baseline rate over twice the window.
        assert!(during > 20 * before, "before={before} during={during}");
    }

    #[test]
    fn sources_are_a_finite_population() {
        let mut alloc = FlowIdAllocator::new();
        let mut fc = FlashCrowd::new(
            profile(),
            IpAddr::new(10, 0, 0, 2),
            SimTime::ZERO,
            SimTime::from_secs(12),
            alloc.stream(),
            SimRng::new(3),
        );
        let base = fc.client_base.0;
        let pool = fc.client_pool;
        while let Some(f) = fc.next_arrival() {
            assert!(f.flow.key.src.0 >= base && f.flow.key.src.0 < base + pool);
            assert!(!f.flow.is_attack);
        }
    }
}
