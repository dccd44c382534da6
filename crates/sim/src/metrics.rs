//! Measurement instruments.
//!
//! The paper measures with `tcpdump` traces post-processed into rates and
//! fractions; we measure inside the simulator with the equivalents here:
//!
//! * [`Counter`] — monotone event counts (packets forwarded, flows failed).
//! * [`RateMeter`] — windowed events-per-second estimates (Packet-In rate at
//!   the controller, the signal Scotch's monitor thresholds on).
//! * [`Histogram`] — latency / size distributions with quantile queries.
//! * [`TimeSeries`] — `(t, value)` samples for plotting figure series.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A sliding-window rate estimator.
///
/// `tick(now)` records one event; `rate(now)` returns events/second over the
/// trailing window. This is the estimator the Scotch controller uses to
/// decide overlay activation and withdrawal (paper §4.2, §5.5).
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: SimDuration,
    /// Coalesced `(timestamp, count)` entries: simultaneous events share one
    /// entry, so memory is O(distinct timestamps in window), not O(events) —
    /// the difference between kilobytes and gigabytes under a DDoS surge.
    events: VecDeque<(SimTime, u64)>,
    /// Events inside the trailing window (sum of `events` counts).
    in_window: u64,
    /// Total events ever observed (not windowed).
    total: u64,
}

impl RateMeter {
    /// A meter with the given trailing window.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        RateMeter {
            window,
            events: VecDeque::new(),
            in_window: 0,
            total: 0,
        }
    }

    /// Record one event at `now`.
    pub fn tick(&mut self, now: SimTime) {
        self.tick_n(now, 1);
    }

    /// Record `n` simultaneous events at `now`.
    pub fn tick_n(&mut self, now: SimTime, n: u64) {
        self.total += n;
        self.in_window += n;
        match self.events.back_mut() {
            Some((t, count)) if *t == now => *count += n,
            _ => self.events.push_back((now, n)),
        }
        self.expire(now);
    }

    fn expire(&mut self, now: SimTime) {
        let horizon = now.saturating_sub(self.window);
        while let Some(&(front, count)) = self.events.front() {
            if front < horizon {
                self.in_window -= count;
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Events per second over the trailing window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.expire(now);
        self.in_window as f64 / self.window.as_secs_f64()
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// A histogram with linear-over-log bucketing and quantile queries.
///
/// Values are bucketed by order of magnitude with 16 linear sub-buckets per
/// decade, giving ≤ ~7 % relative error on quantiles across nine decades —
/// plenty for latency CDFs.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// buckets[d][s]: decade d (10^d .. 10^(d+1)), sub-bucket s of 16.
    buckets: Vec<[u64; 16]>,
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const DECADES: usize = 12;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![[0; 16]; DECADES],
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn locate(value: f64) -> Option<(usize, usize)> {
        if value < 1.0 {
            return None; // tracked in zero_count
        }
        let d = (value.log10().floor() as usize).min(DECADES - 1);
        let lo = 10f64.powi(d as i32);
        let frac = (value - lo) / (lo * 9.0);
        let s = ((frac * 16.0) as usize).min(15);
        Some((d, s))
    }

    /// Record a (non-negative) observation. Negative values are clamped to 0.
    pub fn record(&mut self, value: f64) {
        let value = value.max(0.0);
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match Self::locate(value) {
            None => self.zero_count += 1,
            Some((d, s)) => self.buckets[d][s] += 1,
        }
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos() as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or 0 for an empty histogram.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Observations below 1.0 (kept outside the decade buckets).
    pub fn zero_count(&self) -> u64 {
        self.zero_count
    }

    /// Non-empty buckets as `(decade, sub_bucket, count)` triples, in
    /// ascending value order — a compact, loss-free dump of the histogram
    /// shape for serialization.
    pub fn nonzero_buckets(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for (d, row) in self.buckets.iter().enumerate() {
            for (s, &n) in row.iter().enumerate() {
                if n > 0 {
                    out.push((d, s, n));
                }
            }
        }
        out
    }

    /// Approximate quantile `q` in `[0, 1]`. Returns 0 for empty histograms.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero_count;
        if seen >= target {
            return 0.0;
        }
        for d in 0..DECADES {
            for s in 0..16 {
                seen += self.buckets[d][s];
                if seen >= target {
                    // Bucket lower edge: 10^d + s/16 * (9 * 10^d).
                    let lo = 10f64.powi(d as i32);
                    let edge = lo + (s as f64 / 16.0) * lo * 9.0;
                    let width = lo * 9.0 / 16.0;
                    return (edge + width / 2.0).min(self.max).max(self.min);
                }
            }
        }
        self.max
    }
}

/// A `(time, value)` series for plotting a figure curve.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample at time `t`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs_f64(), value));
    }

    /// The recorded points as `(seconds, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (ignoring time), 0 when empty.
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn rate_meter_windowing() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        for i in 0..10 {
            m.tick(SimTime::from_millis(i * 100));
        }
        // All ten events inside the last second.
        assert_eq!(m.rate(SimTime::from_millis(900)), 10.0);
        // 2 seconds later, everything expired.
        assert_eq!(m.rate(SimTime::from_millis(2900)), 0.0);
        assert_eq!(m.total(), 10);
    }

    #[test]
    fn rate_meter_partial_expiry() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        m.tick(SimTime::from_millis(0));
        m.tick(SimTime::from_millis(500));
        m.tick(SimTime::from_millis(1000));
        // Window [200, 1200): events at 500 and 1000 remain.
        assert_eq!(m.rate(SimTime::from_millis(1200)), 2.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rate_meter_rejects_zero_window() {
        let _ = RateMeter::new(SimDuration::ZERO);
    }

    #[test]
    fn rate_meter_coalesces_simultaneous_events() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        // A burst of 100k simultaneous events must cost one deque entry,
        // not 100k — same rate()/total() semantics either way.
        m.tick_n(SimTime::from_millis(100), 100_000);
        m.tick(SimTime::from_millis(100));
        m.tick_n(SimTime::from_millis(200), 5);
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.rate(SimTime::from_millis(200)), 100_006.0);
        assert_eq!(m.total(), 100_006);
        // The whole burst expires together.
        assert_eq!(m.rate(SimTime::from_millis(1150)), 5.0);
        assert_eq!(m.rate(SimTime::from_millis(2000)), 0.0);
        assert_eq!(m.total(), 100_006);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.10, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.10, "p99={p99}");
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_clamps_negative() {
        let mut h = Histogram::new();
        h.record(-5.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn timeseries_records() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 20.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.points()[1], (2.0, 20.0));
        assert_eq!(ts.mean_value(), 15.0);
    }
}
