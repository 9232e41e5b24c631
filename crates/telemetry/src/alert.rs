//! Alert rules over the live registry: threshold and windowed-rate rules
//! evaluated against [`crate::snapshot`] deltas, producing structured
//! events and a process **health verdict**.
//!
//! A [`Rule`] names a value source and a comparison:
//!
//! | prefix   | source                                                    | window    |
//! |----------|-----------------------------------------------------------|-----------|
//! | `delta:` | counter increment since the previous [`evaluate`]         | windowed  |
//! | `total:` | cumulative counter value (sticky once tripped)            | lifetime  |
//! | `gauge:` | current gauge level                                       | level     |
//! | `p99:`   | p99 upper bound of a histogram's *windowed* growth        | windowed  |
//! | `rate:a/b` | windowed counter-delta ratio (skipped when `Δb == 0`)   | windowed  |
//!
//! The textual form is `<source><cmp><threshold>` with `cmp` one of `>`
//! `<`, e.g. `gauge:audit.margin.div<0` or
//! `rate:blas.adaptive.escalations/blas.adaptive.chunks>0.5`. Rules whose
//! source is absent from the snapshot (probe never registered) or whose
//! window is empty are skipped, not fired — a process that never ran an
//! adaptive op is not unhealthy for it.
//!
//! [`default_rules`] covers the numerical-health layer: shadow-oracle
//! bound violations ([`crate::audit`]), negative bound margins, windowed
//! ulp-p99 within 2 bits of the documented bound, guard fast-only trip
//! rates, adaptive escalation rates, and degraded (panic-recovered) work.
//! `MF_ALERT_RULES` tunes the set: `off` disables all rules,
//! `+rule;rule` appends to the defaults, and a bare `rule;rule` list
//! replaces them.
//!
//! Every [`evaluate`] advances the shared window, updates `alert.active`
//! (gauge), `alert.fired` (counter), `alert.evaluations` (counter),
//! appends fired alerts to a bounded history (served by `/alerts`), and
//! mirrors each fired alert as an `alert.fired` event. The verdict the
//! `/health` route reports is **healthy iff no rule fired in this
//! evaluation** — sticky sources (`total:`/`gauge:` minima) keep a
//! genuinely violated process unhealthy across windows, while pure rate
//! alerts recover once the workload calms down.

use crate::json::Json;
use crate::{Snapshot, ENABLED};
use std::sync::Mutex;

/// Retained fired-alert history entries (newest kept).
pub const MAX_HISTORY: usize = 256;

static EVALUATIONS: crate::Counter = crate::Counter::new("alert.evaluations");
static FIRED: crate::Counter = crate::Counter::new("alert.fired");
static ACTIVE: crate::Gauge = crate::Gauge::new("alert.active");

/// Comparison direction of a [`Rule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Lt,
}

/// Where a rule reads its value from.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Counter increment over the evaluation window.
    Delta(String),
    /// Cumulative counter value.
    Total(String),
    /// Current gauge level.
    Gauge(String),
    /// p99 upper bound of a histogram's growth over the window.
    P99(String),
    /// Windowed counter-delta ratio `Δnum / Δden`.
    Rate(String, String),
}

impl Source {
    /// Resolve against the full snapshot (levels/totals) and the window
    /// delta. `None` = not evaluable (probe absent or empty window).
    fn value(&self, snap: &Snapshot, window: &Snapshot) -> Option<f64> {
        let counter = |s: &Snapshot, name: &str| {
            s.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v as f64)
        };
        match self {
            Source::Delta(name) => counter(window, name),
            Source::Total(name) => counter(snap, name),
            Source::Gauge(name) => snap
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v as f64),
            Source::P99(name) => {
                let h = window.histograms.iter().find(|h| h.name == *name)?;
                (h.count > 0).then(|| h.quantile_upper_bound(0.99) as f64)
            }
            Source::Rate(num, den) => {
                let d = counter(window, den)?;
                let n = counter(window, num)?;
                (d > 0.0).then(|| n / d)
            }
        }
    }

    fn render(&self) -> String {
        match self {
            Source::Delta(n) => format!("delta:{n}"),
            Source::Total(n) => format!("total:{n}"),
            Source::Gauge(n) => format!("gauge:{n}"),
            Source::P99(n) => format!("p99:{n}"),
            Source::Rate(n, d) => format!("rate:{n}/{d}"),
        }
    }
}

/// One alert rule: fire when `source cmp threshold` holds.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub source: Source,
    pub cmp: Cmp,
    pub threshold: f64,
}

impl Rule {
    /// Parse the textual form, e.g. `delta:audit.violations>0`. A bare
    /// metric name (no prefix) is a counter delta.
    pub fn parse(s: &str) -> Result<Rule, String> {
        let s = s.trim();
        let (cut, cmp) = match (s.find('>'), s.find('<')) {
            (Some(g), Some(l)) if g < l => (g, Cmp::Gt),
            (Some(_), Some(l)) => (l, Cmp::Lt),
            (Some(g), None) => (g, Cmp::Gt),
            (None, Some(l)) => (l, Cmp::Lt),
            (None, None) => return Err(format!("rule '{s}': no comparison (> or <)")),
        };
        let (lhs, rhs) = (s[..cut].trim(), s[cut + 1..].trim());
        let threshold: f64 = rhs
            .parse()
            .map_err(|_| format!("rule '{s}': threshold '{rhs}' is not a number"))?;
        let source = if let Some(name) = lhs.strip_prefix("delta:") {
            Source::Delta(name.trim().to_string())
        } else if let Some(name) = lhs.strip_prefix("total:") {
            Source::Total(name.trim().to_string())
        } else if let Some(name) = lhs.strip_prefix("gauge:") {
            Source::Gauge(name.trim().to_string())
        } else if let Some(name) = lhs.strip_prefix("p99:") {
            Source::P99(name.trim().to_string())
        } else if let Some(pair) = lhs.strip_prefix("rate:") {
            let (num, den) = pair
                .split_once('/')
                .ok_or_else(|| format!("rule '{s}': rate source needs 'num/den'"))?;
            Source::Rate(num.trim().to_string(), den.trim().to_string())
        } else {
            Source::Delta(lhs.to_string())
        };
        if matches!(&source, Source::Delta(n) | Source::Total(n) | Source::Gauge(n) | Source::P99(n) if n.is_empty())
        {
            return Err(format!("rule '{s}': empty metric name"));
        }
        Ok(Rule {
            source,
            cmp,
            threshold,
        })
    }

    /// The canonical textual form (round-trips through [`Rule::parse`]).
    pub fn render(&self) -> String {
        format!(
            "{}{}{}",
            self.source.render(),
            match self.cmp {
                Cmp::Gt => '>',
                Cmp::Lt => '<',
            },
            self.threshold
        )
    }

    fn fires(&self, value: f64) -> bool {
        match self.cmp {
            Cmp::Gt => value > self.threshold,
            Cmp::Lt => value < self.threshold,
        }
    }
}

/// One fired alert.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// The rule's canonical textual form.
    pub rule: String,
    /// The observed value.
    pub value: f64,
    pub threshold: f64,
    /// Evaluation ordinal (1-based) in which this alert fired.
    pub evaluation: u64,
}

/// The outcome of one [`evaluate`] pass.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// No rule fired in this evaluation.
    pub healthy: bool,
    /// Rules that fired in this evaluation.
    pub alerts: Vec<Alert>,
    /// Total [`evaluate`] calls so far.
    pub evaluations: u64,
    /// Total alerts fired over the process lifetime.
    pub fired_total: u64,
}

/// The built-in numerical-health rule set (see the module docs).
pub fn default_rules() -> Vec<Rule> {
    let mut rules = vec![
        // A shadow-oracle bound violation is the hard signal: sticky.
        Rule::parse("total:audit.violations>0").unwrap(),
        // Degraded work (panic-recovered chunks / ops) per window.
        Rule::parse("delta:core.adaptive.degraded_ops>0").unwrap(),
        Rule::parse("delta:blas.parallel.degraded_chunks>0").unwrap(),
        // Escalation and unrecovered-trip rates. The scalar engine counts
        // one escalation per escalated op: fire above one in six.
        Rule::parse("rate:core.adaptive.escalations/core.adaptive.ops>0.16666666666666666")
            .unwrap(),
        Rule::parse("rate:blas.adaptive.escalations/blas.adaptive.chunks>0.5").unwrap(),
        Rule::parse("rate:core.guard.trips.fast_only/core.guard.checks>0.25").unwrap(),
    ];
    for class in crate::audit::OpClass::ALL {
        // Lifetime minimum margin below zero = documented bound violated.
        rules.push(Rule::parse(&format!("gauge:audit.margin.{}<0", class.name())).unwrap());
        // Windowed p99 of the scaled error within 2 bits of the bound
        // (AT_BOUND / 4 in the fixed-point convention of `crate::audit`).
        rules.push(
            Rule::parse(&format!(
                "p99:audit.ulp.{}>{}",
                class.name(),
                crate::audit::AT_BOUND / 4
            ))
            .unwrap(),
        );
    }
    rules
}

/// Resolve the active rule set from `MF_ALERT_RULES` (see module docs).
/// Malformed entries are reported on stderr and skipped.
pub fn rules_from_env() -> Vec<Rule> {
    let spec = std::env::var("MF_ALERT_RULES").unwrap_or_default();
    let spec = spec.trim();
    if spec.eq_ignore_ascii_case("off") {
        return Vec::new();
    }
    let (mut rules, body) = match spec.strip_prefix('+') {
        Some(extra) => (default_rules(), extra),
        None if spec.is_empty() => return default_rules(),
        None => (Vec::new(), spec),
    };
    for part in body.split(';').filter(|p| !p.trim().is_empty()) {
        match Rule::parse(part) {
            Ok(r) => rules.push(r),
            Err(e) => eprintln!("warning: MF_ALERT_RULES: {e}"),
        }
    }
    rules
}

/// Rules + evaluation window are process-global; every test (here and in
/// [`crate::expose`]) that calls [`evaluate`] or [`set_rules`] holds this.
#[cfg(all(test, feature = "telemetry"))]
pub(crate) static EVAL_LOCK: Mutex<()> = Mutex::new(());

struct AlertState {
    rules: Option<Vec<Rule>>,
    prev: Option<Snapshot>,
    history: Vec<Alert>,
    evaluations: u64,
    fired_total: u64,
}

fn state() -> &'static Mutex<AlertState> {
    static STATE: std::sync::OnceLock<Mutex<AlertState>> = std::sync::OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(AlertState {
            rules: None,
            prev: None,
            history: Vec::new(),
            evaluations: 0,
            fired_total: 0,
        })
    })
}

/// Replace the active rule set (tests and harnesses; production processes
/// normally configure via `MF_ALERT_RULES`). Also resets the evaluation
/// window so the next [`evaluate`] starts fresh.
pub fn set_rules(rules: Vec<Rule>) {
    if !ENABLED {
        return;
    }
    let mut st = state().lock().unwrap();
    st.rules = Some(rules);
    st.prev = None;
}

/// The currently active rules (resolving `MF_ALERT_RULES` on first use).
pub fn rules() -> Vec<Rule> {
    if !ENABLED {
        return Vec::new();
    }
    let mut st = state().lock().unwrap();
    st.rules.get_or_insert_with(rules_from_env).clone()
}

/// Evaluate every active rule against a fresh snapshot, advancing the
/// shared window. See the module docs for verdict semantics.
pub fn evaluate() -> Verdict {
    if !ENABLED {
        return Verdict {
            healthy: true,
            ..Verdict::default()
        };
    }
    let snap = crate::snapshot();
    let mut st = state().lock().unwrap();
    let rules = st.rules.get_or_insert_with(rules_from_env).clone();
    let window = match &st.prev {
        Some(prev) => snap.delta_since(prev),
        // First evaluation: the window is the whole process lifetime.
        None => snap.clone(),
    };
    st.evaluations += 1;
    let evaluation = st.evaluations;
    let mut alerts = Vec::new();
    for rule in &rules {
        let Some(value) = rule.source.value(&snap, &window) else {
            continue;
        };
        if rule.fires(value) {
            alerts.push(Alert {
                rule: rule.render(),
                value,
                threshold: rule.threshold,
                evaluation,
            });
        }
    }
    st.prev = Some(snap);
    st.fired_total += alerts.len() as u64;
    for a in &alerts {
        if st.history.len() >= MAX_HISTORY {
            st.history.remove(0);
        }
        st.history.push(a.clone());
    }
    let verdict = Verdict {
        healthy: alerts.is_empty(),
        alerts,
        evaluations: st.evaluations,
        fired_total: st.fired_total,
    };
    drop(st);

    EVALUATIONS.incr();
    FIRED.add(verdict.alerts.len() as u64);
    ACTIVE.set(verdict.alerts.len() as i64);
    for a in &verdict.alerts {
        crate::event(
            "alert.fired",
            &[
                ("value", a.value),
                ("threshold", a.threshold),
                ("evaluation", a.evaluation as f64),
            ],
        );
    }
    verdict
}

/// Total alerts fired over the process lifetime.
pub fn fired_total() -> u64 {
    if !ENABLED {
        return 0;
    }
    state().lock().unwrap().fired_total
}

/// The retained fired-alert history (newest last; bounded by
/// [`MAX_HISTORY`]).
pub fn history() -> Vec<Alert> {
    if !ENABLED {
        return Vec::new();
    }
    state().lock().unwrap().history.clone()
}

fn alert_json(a: &Alert) -> Json {
    Json::Obj(vec![
        ("rule".into(), Json::Str(a.rule.clone())),
        ("value".into(), Json::Num(a.value)),
        ("threshold".into(), Json::Num(a.threshold)),
        ("evaluation".into(), Json::u64(a.evaluation)),
    ])
}

/// JSON body of the `/health` route.
pub fn verdict_json(v: &Verdict) -> Json {
    Json::Obj(vec![
        ("healthy".into(), Json::Bool(v.healthy)),
        (
            "alerts".into(),
            Json::Arr(v.alerts.iter().map(alert_json).collect()),
        ),
        ("evaluations".into(), Json::u64(v.evaluations)),
        ("fired_total".into(), Json::u64(v.fired_total)),
    ])
}

/// JSON body of the `/alerts` route: active rules plus fired history.
pub fn alerts_json() -> Json {
    Json::Obj(vec![
        (
            "rules".into(),
            Json::Arr(rules().iter().map(|r| Json::Str(r.render())).collect()),
        ),
        (
            "history".into(),
            Json::Arr(history().iter().map(alert_json).collect()),
        ),
        ("fired_total".into(), Json::u64(fired_total())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_parse_and_round_trip() {
        for spec in [
            "delta:audit.violations>0",
            "total:audit.violations>0",
            "gauge:audit.margin.div<0",
            "p99:audit.ulp.mul>64",
            "rate:core.adaptive.escalations/core.adaptive.ops>0.16666666666666666",
        ] {
            let r = Rule::parse(spec).expect(spec);
            assert_eq!(r.render(), spec, "round trip");
            assert_eq!(Rule::parse(&r.render()).unwrap(), r);
        }
        // Bare name = counter delta.
        assert_eq!(
            Rule::parse("pool.jobs>10").unwrap().source,
            Source::Delta("pool.jobs".into())
        );
        assert!(Rule::parse("no.comparison").is_err());
        assert!(Rule::parse("gauge:x<abc").is_err());
        assert!(Rule::parse("rate:only_num>1").is_err());
        assert!(Rule::parse("delta:>1").is_err());
    }

    #[test]
    fn default_rules_are_well_formed() {
        let rules = default_rules();
        assert!(rules.len() >= 6 + 16);
        for r in &rules {
            assert_eq!(Rule::parse(&r.render()).unwrap(), r.clone());
        }
        // One escalated op in six, as strict as the 0.5 threshold was when
        // every op that reached the oracle counted three escalations.
        let core = Source::Rate(
            "core.adaptive.escalations".into(),
            "core.adaptive.ops".into(),
        );
        let rule = rules.iter().find(|r| r.source == core).unwrap();
        assert_eq!(rule.threshold, 0.5 / 3.0);
        assert!(!rule.fires(1.0 / 6.0) && rule.fires(1001.0 / 6000.0));
    }

    #[test]
    fn sources_resolve_against_snapshots() {
        use crate::HistogramSnapshot;
        let mut h = HistogramSnapshot {
            name: "audit.ulp.div".into(),
            count: 100,
            sum: 0,
            buckets: [0; 65],
        };
        h.buckets[1] = 90; // 90 samples at scaled error 1
        h.buckets[11] = 10; // 10% of samples past the bound
        let snap = Snapshot {
            counters: vec![("c.total".into(), 50)],
            gauges: vec![("g.level".into(), -3)],
            histograms: vec![h],
            ..Snapshot::default()
        };
        let window = Snapshot {
            counters: vec![("c.total".into(), 7), ("c.den".into(), 10)],
            histograms: snap.histograms.clone(),
            ..snap.clone()
        };
        let get = |s: &str| Rule::parse(s).unwrap().source.value(&snap, &window);
        assert_eq!(get("delta:c.total>0"), Some(7.0));
        assert_eq!(get("total:c.total>0"), Some(50.0));
        assert_eq!(get("gauge:g.level<0"), Some(-3.0));
        assert_eq!(get("rate:c.total/c.den>0"), Some(0.7));
        assert_eq!(get("delta:absent>0"), None);
        assert_eq!(get("gauge:absent<0"), None);
        // p99 walks to the top occupied bucket's upper bound.
        assert_eq!(get("p99:audit.ulp.div>64"), Some(2047.0));
        // Empty window histogram: not evaluable.
        let empty = Snapshot::default();
        assert_eq!(
            Rule::parse("p99:audit.ulp.div>64")
                .unwrap()
                .source
                .value(&snap, &empty),
            None
        );
        // Zero denominator: rate not evaluable.
        assert_eq!(
            Rule::parse("rate:c.total/c.den>0")
                .unwrap()
                .source
                .value(&snap, &empty),
            None
        );
    }

    #[cfg(feature = "telemetry")]
    mod enabled {
        use super::super::*;

        #[test]
        fn evaluate_fires_and_windows() {
            let _g = EVAL_LOCK.lock().unwrap();
            static C: crate::Counter = crate::Counter::new("test.alert.window.counter");
            C.incr(); // register
            set_rules(vec![
                Rule::parse("delta:test.alert.window.counter>2").unwrap()
            ]);
            let v0 = evaluate(); // window = lifetime; 1 increment <= 2
            assert!(v0.healthy, "got {:?}", v0.alerts);
            C.add(5);
            let v1 = evaluate();
            assert!(!v1.healthy);
            assert_eq!(v1.alerts.len(), 1);
            assert_eq!(v1.alerts[0].value, 5.0);
            assert!(v1.fired_total >= 1);
            // Quiet window: healthy again (delta rules recover).
            let v2 = evaluate();
            assert!(v2.healthy);
            assert!(history()
                .iter()
                .any(|a| a.rule == "delta:test.alert.window.counter>2"));
            assert!(crate::snapshot()
                .events
                .iter()
                .any(|e| e.name == "alert.fired"));
            set_rules(default_rules());
        }

        #[test]
        fn sticky_total_rules_stay_fired() {
            let _g = EVAL_LOCK.lock().unwrap();
            static C: crate::Counter = crate::Counter::new("test.alert.sticky.counter");
            set_rules(vec![
                Rule::parse("total:test.alert.sticky.counter>0").unwrap()
            ]);
            assert!(evaluate().healthy, "unregistered probe is skipped");
            C.incr();
            assert!(!evaluate().healthy);
            assert!(!evaluate().healthy, "total: rules are sticky");
            set_rules(default_rules());
        }

        #[test]
        fn env_spec_modes() {
            // Parsed forms only (the env var itself is process-global and
            // read lazily; modes are exercised through the parser).
            assert!(Rule::parse("gauge:x.y<1").is_ok());
            let defaults = default_rules();
            // "+extra" mode appends.
            let mut plus = default_rules();
            plus.push(Rule::parse("delta:extra.counter>1").unwrap());
            assert_eq!(plus.len(), defaults.len() + 1);
        }
    }

    #[cfg(not(feature = "telemetry"))]
    mod disabled {
        use super::super::*;

        #[test]
        fn alerts_are_noops() {
            set_rules(vec![Rule::parse("delta:x>0").unwrap()]);
            assert!(rules().is_empty());
            let v = evaluate();
            assert!(v.healthy);
            assert_eq!(v.evaluations, 0);
            assert_eq!(fired_total(), 0);
            assert!(history().is_empty());
            let j = verdict_json(&v);
            assert_eq!(j.get("healthy").and_then(|b| b.as_bool()), Some(true));
        }
    }
}
