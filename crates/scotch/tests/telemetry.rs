//! Sampled-telemetry equivalence and determinism (DESIGN.md §13).
//!
//! The two contracts this file pins:
//!
//! 1. `sampled { rate: 1.0 }` reproduces exhaustive-mode canonical
//!    reports **byte-for-byte** — so all golden fixtures and the
//!    determinism matrix carry over to the sampled pipeline unchanged.
//! 2. sampled runs at any rate are bit-deterministic per
//!    `(scenario, seed, rate)`.
//!
//! Plus the accuracy floor: at rate 1/64 the detector still finds the
//! injected elephants on the DDoS scenario (fixed-seed recall bound).

use scotch::scenario::Scenario;
use scotch_sim::SimTime;

fn canonical(report: scotch::Report) -> String {
    report.canonical_json()
}

/// Overlay DDoS scenario with elephants — stats polling, migration and
/// withdrawal all engage, so the telemetry pipeline is fully exercised.
fn overlay_scenario() -> Scenario {
    Scenario::overlay_datacenter(4)
        .with_clients(50.0)
        .with_attack(2_000.0)
        .with_elephants(3, 1_000.0, 6_000, SimTime::from_secs(2))
}

#[test]
fn rate_one_is_byte_identical_to_exhaustive() {
    let until = SimTime::from_secs(8);
    let seed = 20141202;
    let exhaustive = canonical(overlay_scenario().run(until, seed));
    let sampled = canonical(overlay_scenario().with_sampling_rate(1.0).run(until, seed));
    assert_eq!(
        sampled, exhaustive,
        "sampled {{ rate: 1.0 }} diverged from exhaustive mode"
    );
}

#[test]
fn sampled_runs_are_bit_deterministic() {
    let until = SimTime::from_secs(5);
    let seed = 7;
    let a = canonical(
        overlay_scenario()
            .with_sampling_rate(1.0 / 64.0)
            .run(until, seed),
    );
    let b = canonical(
        overlay_scenario()
            .with_sampling_rate(1.0 / 64.0)
            .run(until, seed),
    );
    assert_eq!(a, b, "same (scenario, seed, rate) must replay identically");
    // A different rate is a different experiment — the sampler streams
    // advance differently, so liveness/migration decisions may shift.
    let c = canonical(
        overlay_scenario()
            .with_sampling_rate(1.0 / 8.0)
            .run(until, seed),
    );
    assert!(!c.is_empty());
}

#[test]
fn elephant_recall_at_rate_64_on_ddos() {
    // 3 elephants at 1000 pps under a 2000 flows/s spoofed flood. At rate
    // 1/64 an elephant yields ~15.6 sampled pkts/s — estimates of ~1000
    // pps against the 300 pps threshold, so all three should be flagged
    // (fixed seed keeps this exact run pinned).
    let report = overlay_scenario()
        .with_sampling_rate(1.0 / 64.0)
        .run(SimTime::from_secs(12), 6);
    assert!(
        report.app.elephant_decisions >= 3,
        "recall below 3/3 elephants at rate 1/64: {} decisions\n{}",
        report.app.elephant_decisions,
        report.summary()
    );
    assert!(
        report.app.migrations >= 1,
        "sampled detection should still drive migrations: {}",
        report.summary()
    );
}
