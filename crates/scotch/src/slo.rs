//! Declarative service-level objectives over journey latency data.
//!
//! An [`SloTable`] is a small set of rules — "on this scenario, this
//! journey metric must stay on this side of this bound" — parsed from (and
//! rendered back to) a line-oriented text format, so CI can pin a table in
//! a file next to the golden reports:
//!
//! ```text
//! # scenario   metric                 bound
//! *            setup_p99          <=  50ms
//! datacenter   stage.install_p95  <=  10ms
//! *            delivered_fraction >=  0.25
//! ```
//!
//! Metrics are measured against a run's [`LatencyDecomposition`] (built
//! from the canonical journey-mark stream, so a check's verdict is
//! bit-deterministic per `(scenario, seed, rate)`). Checking follows the
//! `chaos` exit-code convention: 0 when every rule holds, 1 when any rule
//! is violated; usage errors (a table that does not parse) are the
//! caller's 2.

use scotch_sim::journey::{LatencyDecomposition, Stage, STAGES};

/// What an SLO rule measures, always over journeys of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloMetric {
    /// Quantile of end-to-end setup latency (delivered journeys), ns.
    SetupQuantile(Quantile),
    /// Quantile of one stage's span durations, ns.
    StageQuantile(Stage, Quantile),
    /// Delivered journeys as a fraction of all journeys (dimensionless).
    DeliveredFraction,
    /// Cancelled journeys (still in flight at the horizon) as a fraction
    /// of all journeys (dimensionless).
    CancelledFraction,
}

/// The quantiles an SLO may bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
}

impl Quantile {
    fn q(self) -> f64 {
        match self {
            Quantile::P50 => 0.50,
            Quantile::P95 => 0.95,
            Quantile::P99 => 0.99,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Quantile::P50 => "p50",
            Quantile::P95 => "p95",
            Quantile::P99 => "p99",
        }
    }

    fn parse(s: &str) -> Option<Quantile> {
        match s {
            "p50" => Some(Quantile::P50),
            "p95" => Some(Quantile::P95),
            "p99" => Some(Quantile::P99),
            _ => None,
        }
    }
}

impl SloMetric {
    /// Stable text name (the table format's second column).
    pub fn name(&self) -> String {
        match self {
            SloMetric::SetupQuantile(q) => format!("setup_{}", q.suffix()),
            SloMetric::StageQuantile(s, q) => format!("stage.{}_{}", s.name(), q.suffix()),
            SloMetric::DeliveredFraction => "delivered_fraction".into(),
            SloMetric::CancelledFraction => "cancelled_fraction".into(),
        }
    }

    /// Inverse of [`SloMetric::name`].
    pub fn parse(s: &str) -> Result<SloMetric, String> {
        if s == "delivered_fraction" {
            return Ok(SloMetric::DeliveredFraction);
        }
        if s == "cancelled_fraction" {
            return Ok(SloMetric::CancelledFraction);
        }
        if let Some(q) = s.strip_prefix("setup_").and_then(Quantile::parse) {
            return Ok(SloMetric::SetupQuantile(q));
        }
        if let Some(rest) = s.strip_prefix("stage.") {
            if let Some((stage_name, q)) = rest.rsplit_once('_') {
                if let Some(q) = Quantile::parse(q) {
                    if let Some(stage) = STAGES.iter().find(|st| st.name() == stage_name) {
                        return Ok(SloMetric::StageQuantile(*stage, q));
                    }
                }
            }
        }
        Err(format!("unknown SLO metric '{s}'"))
    }

    /// True when the metric's unit is nanoseconds (affects threshold
    /// parsing and rendering).
    pub fn is_duration(&self) -> bool {
        matches!(
            self,
            SloMetric::SetupQuantile(_) | SloMetric::StageQuantile(..)
        )
    }

    /// Measure this metric against a run's decomposition. `None` when the
    /// run produced no data for it (no journeys, or an empty stage) — the
    /// check is then reported as skipped, not violated.
    pub fn measure(&self, d: &LatencyDecomposition) -> Option<f64> {
        match self {
            SloMetric::SetupQuantile(q) => (d.setup.count() > 0).then(|| d.setup.quantile(q.q())),
            SloMetric::StageQuantile(stage, q) => d
                .stages
                .iter()
                .find(|(s, _)| s == stage)
                .filter(|(_, h)| h.count() > 0)
                .map(|(_, h)| h.quantile(q.q())),
            SloMetric::DeliveredFraction => {
                (d.journeys > 0).then(|| d.delivered as f64 / d.journeys as f64)
            }
            SloMetric::CancelledFraction => {
                (d.journeys > 0).then(|| d.cancelled as f64 / d.journeys as f64)
            }
        }
    }
}

/// Which side of the bound is healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Measured value must be `<= threshold` (latency bounds).
    Le,
    /// Measured value must be `>= threshold` (delivery floors).
    Ge,
}

impl SloOp {
    fn text(self) -> &'static str {
        match self {
            SloOp::Le => "<=",
            SloOp::Ge => ">=",
        }
    }
}

/// One rule: on scenarios matching `scenario` (`*` = all), `metric op
/// threshold` must hold. Duration thresholds are ns.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Scenario name this rule applies to, or `*` for every scenario.
    pub scenario: String,
    /// The measured quantity.
    pub metric: SloMetric,
    /// Healthy side of the bound.
    pub op: SloOp,
    /// The bound (ns for duration metrics, a plain ratio otherwise).
    pub threshold: f64,
}

impl SloRule {
    fn applies_to(&self, scenario: &str) -> bool {
        self.scenario == "*" || self.scenario == scenario
    }

    /// The rule as one table-format line (no trailing newline).
    pub fn render(&self) -> String {
        let bound = if self.metric.is_duration() {
            fmt_ns(self.threshold)
        } else {
            format!("{}", self.threshold)
        };
        format!(
            "{} {} {} {}",
            self.scenario,
            self.metric.name(),
            self.op.text(),
            bound
        )
    }
}

/// Render a nanosecond quantity with the tightest exact unit (so the
/// parse/render round trip is lossless for whole-unit thresholds).
pub fn fmt_ns(ns: f64) -> String {
    for (div, unit) in [(1e9, "s"), (1e6, "ms"), (1e3, "us")] {
        let v = ns / div;
        if v >= 1.0 && v.fract() == 0.0 {
            return format!("{v}{unit}");
        }
    }
    format!("{ns}ns")
}

/// Parse a duration bound: a float with an `ns`/`us`/`ms`/`s` suffix.
fn parse_ns(text: &str) -> Result<f64, String> {
    let (num, mult) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration bound '{text}' needs a ns/us/ms/s suffix"));
    };
    let v: f64 = num
        .parse()
        .map_err(|e| format!("bad duration bound '{text}': {e}"))?;
    Ok(v * mult)
}

/// A set of SLO rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloTable {
    /// The rules, in declaration order.
    pub rules: Vec<SloRule>,
}

impl SloTable {
    /// The built-in table CI checks when no file is given: a loose
    /// latency ceiling everywhere, and a tighter one on the overlay
    /// datacenter (whose mesh vSwitch path is the paper's fast path).
    pub fn builtin() -> SloTable {
        SloTable {
            rules: vec![
                SloRule {
                    scenario: "*".into(),
                    metric: SloMetric::SetupQuantile(Quantile::P99),
                    op: SloOp::Le,
                    threshold: 50e6, // 50 ms
                },
                SloRule {
                    scenario: "datacenter".into(),
                    metric: SloMetric::SetupQuantile(Quantile::P95),
                    op: SloOp::Le,
                    threshold: 25e6, // 25 ms
                },
                SloRule {
                    scenario: "datacenter".into(),
                    metric: SloMetric::StageQuantile(Stage::Install, Quantile::P95),
                    op: SloOp::Le,
                    threshold: 10e6, // 10 ms
                },
                SloRule {
                    scenario: "*".into(),
                    metric: SloMetric::CancelledFraction,
                    op: SloOp::Le,
                    threshold: 0.25,
                },
            ],
        }
    }

    /// Parse the line format: `scenario metric <=|>= bound`, `#` comments
    /// and blank lines skipped.
    pub fn parse(text: &str) -> Result<SloTable, String> {
        let mut rules = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let err = |msg: String| format!("slo line {}: {msg}", lineno + 1);
            if fields.len() != 4 {
                return Err(err(format!(
                    "expected 'scenario metric <=|>= bound', got '{line}'"
                )));
            }
            let metric = SloMetric::parse(fields[1]).map_err(err)?;
            let op = match fields[2] {
                "<=" => SloOp::Le,
                ">=" => SloOp::Ge,
                other => return Err(err(format!("unknown operator '{other}'"))),
            };
            let threshold = if metric.is_duration() {
                parse_ns(fields[3]).map_err(err)?
            } else {
                fields[3]
                    .parse()
                    .map_err(|e| err(format!("bad bound '{}': {e}", fields[3])))?
            };
            rules.push(SloRule {
                scenario: fields[0].to_string(),
                metric,
                op,
                threshold,
            });
        }
        Ok(SloTable { rules })
    }

    /// Render back to the line format ([`SloTable::parse`] round-trips).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            out.push_str(&rule.render());
            out.push('\n');
        }
        out
    }

    /// Check every applicable rule against a run's decomposition.
    pub fn check(&self, scenario: &str, d: &LatencyDecomposition) -> SloOutcome {
        let checks = self
            .rules
            .iter()
            .filter(|r| r.applies_to(scenario))
            .map(|rule| {
                let measured = rule.metric.measure(d);
                let pass = measured.map(|m| match rule.op {
                    SloOp::Le => m <= rule.threshold,
                    SloOp::Ge => m >= rule.threshold,
                });
                SloCheck {
                    rule: rule.clone(),
                    measured,
                    pass,
                }
            })
            .collect();
        SloOutcome { checks }
    }
}

/// One rule's verdict on one run.
#[derive(Debug, Clone)]
pub struct SloCheck {
    /// The rule that was checked.
    pub rule: SloRule,
    /// What the run measured (`None`: no data for this metric).
    pub measured: Option<f64>,
    /// `Some(false)` = violated; `None` = skipped for lack of data.
    pub pass: Option<bool>,
}

impl SloCheck {
    /// One human-readable verdict line.
    pub fn render(&self) -> String {
        let verdict = match self.pass {
            Some(true) => "ok",
            Some(false) => "VIOLATED",
            None => "skipped (no data)",
        };
        let measured = match self.measured {
            Some(m) if self.rule.metric.is_duration() => fmt_ns_approx(m),
            Some(m) => format!("{m:.4}"),
            None => "-".into(),
        };
        format!("{}: measured {measured}: {verdict}", self.rule.render())
    }
}

/// Render a measured nanosecond quantity for humans (not round-tripped).
fn fmt_ns_approx(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The verdicts of one [`SloTable::check`] run.
#[derive(Debug, Clone)]
pub struct SloOutcome {
    /// Per-rule verdicts, in table order.
    pub checks: Vec<SloCheck>,
}

impl SloOutcome {
    /// The violated checks.
    pub fn violations(&self) -> impl Iterator<Item = &SloCheck> {
        self.checks.iter().filter(|c| c.pass == Some(false))
    }

    /// `chaos`-style process exit code: 0 clean, 1 violated.
    pub fn exit_code(&self) -> i32 {
        if self.violations().next().is_some() {
            1
        } else {
            0
        }
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for check in &self.checks {
            out.push_str("slo: ");
            out.push_str(&check.render());
            out.push('\n');
        }
        let violated = self.violations().count();
        if violated > 0 {
            out.push_str(&format!("slo: {violated} rule(s) VIOLATED\n"));
        } else {
            out.push_str("slo: all rules hold\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_sim::journey::{JourneyMark, JourneyPoint};
    use scotch_sim::SimTime;

    fn mark(journey: u64, at_us: u64, point: JourneyPoint) -> JourneyMark {
        JourneyMark {
            journey,
            at: SimTime::from_nanos(at_us * 1_000),
            point,
            node: 1,
            info: 0,
        }
    }

    /// Two delivered journeys (10 us and 30 us end-to-end) and one
    /// cancelled one.
    fn sample() -> LatencyDecomposition {
        let marks = vec![
            mark(1, 0, JourneyPoint::Emit),
            mark(1, 10, JourneyPoint::Deliver),
            mark(2, 0, JourneyPoint::Emit),
            mark(2, 30, JourneyPoint::Deliver),
            mark(3, 0, JourneyPoint::Emit),
            mark(3, 100, JourneyPoint::Cancel),
        ];
        LatencyDecomposition::from_marks(&marks)
    }

    #[test]
    fn parse_render_round_trips() {
        let text = "\
* setup_p99 <= 50ms
datacenter stage.install_p95 <= 10ms
* delivered_fraction >= 0.25
single setup_p50 <= 1500us
";
        let table = SloTable::parse(text).unwrap();
        assert_eq!(table.rules.len(), 4);
        assert_eq!(table.render(), text);
        // And the builtin table round-trips too.
        let builtin = SloTable::builtin();
        assert_eq!(SloTable::parse(&builtin.render()).unwrap(), builtin);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SloTable::parse("* bogus_metric <= 1ms").is_err());
        assert!(SloTable::parse("* setup_p99 == 1ms").is_err());
        assert!(SloTable::parse("* setup_p99 <= 1").is_err()); // no unit
        assert!(SloTable::parse("* setup_p99 <=").is_err());
        assert!(SloTable::parse("* delivered_fraction >= x").is_err());
        // Comments and blanks are fine.
        assert!(SloTable::parse("# note\n\n  # more\n")
            .unwrap()
            .rules
            .is_empty());
    }

    #[test]
    fn duration_units_scale() {
        let t = SloTable::parse("* setup_p99 <= 2ms").unwrap();
        assert_eq!(t.rules[0].threshold, 2e6);
        let t = SloTable::parse("* setup_p99 <= 3us").unwrap();
        assert_eq!(t.rules[0].threshold, 3e3);
        let t = SloTable::parse("* setup_p99 <= 4s").unwrap();
        assert_eq!(t.rules[0].threshold, 4e9);
        let t = SloTable::parse("* setup_p99 <= 5ns").unwrap();
        assert_eq!(t.rules[0].threshold, 5.0);
    }

    #[test]
    fn check_passes_and_fails_on_the_bound() {
        let d = sample();
        // p99 of {10us, 30us} is ~30us: a 1 ms ceiling holds, a 1 us
        // ceiling does not.
        let ok = SloTable::parse("* setup_p99 <= 1ms")
            .unwrap()
            .check("x", &d);
        assert_eq!(ok.exit_code(), 0);
        let bad = SloTable::parse("* setup_p99 <= 1us")
            .unwrap()
            .check("x", &d);
        assert_eq!(bad.exit_code(), 1);
        assert_eq!(bad.violations().count(), 1);
        assert!(bad.render().contains("VIOLATED"));
    }

    #[test]
    fn scenario_matching_filters_rules() {
        let d = sample();
        let table = SloTable::parse(
            "datacenter setup_p99 <= 1us\nsingle setup_p99 <= 1us\n* delivered_fraction >= 0.5\n",
        )
        .unwrap();
        // On 'single' only its own rule plus the wildcard apply; the
        // (violated) datacenter rule is ignored.
        let out = table.check("single", &d);
        assert_eq!(out.checks.len(), 2);
        assert_eq!(out.violations().count(), 1); // single's 1us ceiling
    }

    #[test]
    fn missing_data_is_skipped_not_violated() {
        let d = LatencyDecomposition::from_marks(&[]);
        let out = SloTable::builtin().check("datacenter", &d);
        assert!(out.checks.iter().all(|c| c.pass.is_none()));
        assert_eq!(out.exit_code(), 0);
        // A stage with no spans is likewise skipped.
        let d = sample();
        let out = SloTable::parse("* stage.ofa_queue_p99 <= 1ns")
            .unwrap()
            .check("x", &d);
        assert!(out.checks[0].pass.is_none());
    }

    #[test]
    fn fractions_check_against_ge() {
        let d = sample(); // 2 of 3 delivered
        let ok = SloTable::parse("* delivered_fraction >= 0.5")
            .unwrap()
            .check("x", &d);
        assert_eq!(ok.exit_code(), 0);
        let bad = SloTable::parse("* delivered_fraction >= 0.9")
            .unwrap()
            .check("x", &d);
        assert_eq!(bad.exit_code(), 1);
        let cancelled = SloTable::parse("* cancelled_fraction <= 0.2")
            .unwrap()
            .check("x", &d);
        assert_eq!(cancelled.exit_code(), 1); // 1/3 cancelled
    }
}
