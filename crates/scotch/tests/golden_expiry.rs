//! Idle-expiry determinism: pinned canonical reports of multi-rack runs
//! that remove rules by idle timeout.
//!
//! The golden fixtures stop before the default 10 s `rule_idle_timeout`,
//! so none of them removes a rule by idle expiry. These runs use a 500 ms
//! timeout over 6 s: each of the five 1 s expiry sweeps after the first
//! timeout removes rules, and the FlowRemoved stream feeds back into the
//! controller's flow database. The bytes pin the expiry sweep's exact
//! semantics, including rules hit before their install time (a packet can
//! match a rule while the OFA install delay is still running, which moves
//! the rule's idle deadline earlier).

use scotch::scenario::Scenario;
use scotch::ScotchConfig;
use scotch_sim::{SimDuration, SimTime};

/// FNV-1a over a string's bytes: pins a canonical report without
/// committing it as a fixture.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The digest of a 4-rack, 3-replica run to 6 s with 500 ms idle timeouts.
fn expiry_digest(seed: u64) -> String {
    let report = Scenario::multirack(4, 1)
        .with_interrack_propagation(SimDuration::from_micros(200))
        .with_rack_clients(800.0)
        .with_clients(100.0)
        .with_attack(8_000.0)
        .with_controllers(3)
        .with_config(ScotchConfig {
            rule_idle_timeout: SimDuration::from_millis(500),
            ..ScotchConfig::default()
        })
        .run(SimTime::from_secs(6), seed);
    let removed = report
        .metrics
        .get("controller.rx.flow_removed")
        .unwrap_or(0.0);
    assert!(
        removed > 10_000.0,
        "only {removed} FlowRemoved messages; the pinned bytes would not cover idle expiry"
    );
    format!("{:016x}", fnv1a(&report.canonical_json()))
}

#[test]
fn idle_expiry_report_is_pinned() {
    assert_eq!(expiry_digest(20141202), "b11b49107829d042");
}

#[test]
fn idle_expiry_report_is_pinned_on_held_out_seed() {
    assert_eq!(expiry_digest(5130527), "7bf77838ac1e72b6");
}
