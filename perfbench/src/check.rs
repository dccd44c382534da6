//! Output checks over a finished [`Report`]: a content digest for
//! run-to-run equality, a flow-by-flow comparison for the sharded engine,
//! and the packet conservation counter of the chaos checker's invariant I1.

use scotch::report::FlowOutcome;
use scotch::Report;
use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a: stable across builds and processes, unlike the
/// standard library's randomly keyed hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_flow(f: &FlowOutcome, h: &mut Fnv) {
    f.id.hash(h);
    f.key.hash(h);
    f.is_attack.hash(h);
    (f.emitted, f.intended, f.delivered, f.delivered_bytes).hash(h);
    f.started_at.as_nanos().hash(h);
    f.first_delivered.map(|t| t.as_nanos()).hash(h);
    f.last_delivered.map(|t| t.as_nanos()).hash(h);
    f.served_by.map(|p| p as u8).hash(h);
}

/// Digest of the simulated outcome: the event count, every flow outcome,
/// the drop counters and the metrics snapshot. Built from public fields so
/// that no report serialisation is paid on the measured path.
pub fn digest(r: &Report) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    r.events_processed.hash(&mut h);
    r.flows.len().hash(&mut h);
    for f in &r.flows {
        hash_flow(f, &mut h);
    }
    let d = &r.drops;
    (
        d.ofa_overload,
        d.dataplane,
        d.policy,
        d.no_route,
        d.link_queue,
        d.link_faults,
    )
        .hash(&mut h);
    for (name, value) in &r.metrics.entries {
        name.hash(&mut h);
        value.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Flow outcomes that differ between two runs of one input, by position,
/// plus any flows only one of them has.
pub fn differing_flows(a: &Report, b: &Report) -> usize {
    let one = |f: &FlowOutcome| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        hash_flow(f, &mut h);
        h.finish()
    };
    let differ = a
        .flows
        .iter()
        .zip(&b.flows)
        .filter(|(x, y)| one(x) != one(y));
    differ.count() + a.flows.len().abs_diff(b.flows.len())
}

fn metric(r: &Report, name: &str) -> i64 {
    r.metrics.get(name).unwrap_or(0.0) as i64
}

/// Packets lost minus packets accounted for by a known cause, computed as
/// `scotch::chaos::check` does for invariant I1 (which then allows a slack
/// of max(1000, emitted / 100)). Positive means packets vanished silently.
pub fn unaccounted_packets(r: &Report) -> i64 {
    let lost: u64 = r
        .flows
        .iter()
        .map(|f| u64::from(f.emitted.saturating_sub(f.delivered)))
        .sum();
    let d = &r.drops;
    let counted = d.ofa_overload
        + d.dataplane
        + d.policy
        + d.no_route
        + d.link_queue
        + d.link_faults
        + r.misrouted
        + r.controller_dropped
        + r.middlebox_rejections;
    let chaos = [
        "chaos.rx_dropped.packet_in",
        "chaos.tx_dropped.packet_out",
        "chaos.absorbed.packet_out",
        "chaos.in_flight_rx.packet_in",
        "chaos.in_flight_tx.packet_out",
        "chaos.in_flight.packets",
        "controller.backlog.last",
        "ctrl.cluster.pending",
    ];
    let accounted = counted as i64 + chaos.iter().map(|m| metric(r, m)).sum::<i64>();
    lost as i64 - accounted
}

/// The legitimate flows' outcome: how many there were and the setup
/// latencies (simulated ns) of those that got through.
#[derive(Default)]
pub struct Setup {
    pub flows: usize,
    pub latencies_ns: Vec<u64>,
}

impl Setup {
    pub fn add(&mut self, r: &Report) {
        for f in r.flows.iter().filter(|f| !f.is_attack) {
            self.flows += 1;
            if let Some(d) = f.setup_latency() {
                self.latencies_ns.push(d.as_nanos());
            }
        }
    }

    /// Share of legitimate flows that never reached their server, percent
    /// (`Report::client_failure_fraction` over every report added).
    pub fn fail_pct(&self) -> f64 {
        let failed = self.flows - self.latencies_ns.len();
        100.0 * failed as f64 / self.flows.max(1) as f64
    }

    /// Median setup latency, ms of simulated time.
    pub fn p50_ms(&mut self) -> f64 {
        self.latencies_ns.sort_unstable();
        let n = self.latencies_ns.len();
        self.latencies_ns
            .get(rank(n, 50.0))
            .map_or(f64::NAN, |&v| v as f64 / 1e6)
    }

    /// The highest of p99 and p90 that has at least ten samples beyond it,
    /// as (percentile, ms). Falls back to the median, and below 21 samples
    /// to the maximum (percentile 100), so a value always exists.
    pub fn tail_ms(&mut self) -> (f64, f64) {
        self.latencies_ns.sort_unstable();
        let n = self.latencies_ns.len();
        for q in [99.0, 90.0, 50.0] {
            let rank = rank(n, q);
            if n > rank + 10 {
                return (q, self.latencies_ns[rank] as f64 / 1e6);
            }
        }
        let max = self.latencies_ns.last().copied().unwrap_or(0);
        (100.0, max as f64 / 1e6)
    }
}

/// Nearest-rank index of percentile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}
