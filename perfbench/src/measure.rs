//! The benchmark's own arithmetic: percentiles, span self time, correct
//! bits against the oracle, and the `/proc/self` readers for CPU time and
//! peak RSS. Everything here is plain std so that no later change to the
//! library crates can change how the benchmark measures.

use mf_mpsoft::MpFloat;
use std::time::Instant;

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One benchmark-side span. `name` indexes the workload's call table
/// (or is [`Tracer::UNIT`] for the per-unit root span).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: u16,
    pub parent: u32,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs its
/// closure, so traced and untraced units execute the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    unit: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Name of the root span wrapping each unit.
    pub const UNIT: u16 = u16::MAX;

    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            unit: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between units.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span; returns
    /// the handle [`Tracer::close`] takes.
    pub fn open(&mut self, name: u16) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            parent,
            unit: self.unit,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    pub fn close(&mut self, idx: u32) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a leaf span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: u16, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children lie inside their parent by construction).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Correct bits of `computed` against the exact `reference`:
/// `-log2(|computed - reference| / |reference|)`, capped at `cap` (an
/// exact match, or an error below the oracle's own precision). A nonzero
/// result for a zero reference has 0 correct bits.
pub fn correct_bits(computed: &MpFloat, reference: &MpFloat, cap: f64) -> f64 {
    if reference.is_zero() {
        return if computed.is_zero() { cap } else { 0.0 };
    }
    let rel = computed.rel_error_vs(reference);
    if rel.is_nan() {
        return 0.0;
    }
    if rel == 0.0 {
        return cap;
    }
    (-rel.log2()).clamp(0.0, cap)
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 by the
/// kernel ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process from the text of
/// `/proc/self/stat` (fields 14 and 15, counted after the parenthesised
/// command name, which may itself contain spaces and parentheses).
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the `VmHWM` line of
/// `/proc/self/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = it.next()?.parse().ok()?;
    match it.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and has utime/stime")
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status is readable and has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        // Rank 90 leaves exactly 10 samples beyond.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // Rank 91 leaves 9.
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.5), Some(10.0));
        assert_eq!(percentile(&w, 0.55), None);
    }

    fn span(name: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // unit [0,100) > a [10,60) > b [20,30), c [35,45); d [70,90).
        let spans = [
            span(Tracer::UNIT, NO_PARENT, 0, 100),
            span(0, 0, 10, 60),
            span(1, 1, 20, 30),
            span(2, 1, 35, 45),
            span(3, 0, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 10, 20]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tr = Tracer::new(true);
        tr.set_unit(7);
        let root = tr.open(Tracer::UNIT);
        assert_eq!(tr.span(3, || 5), 5);
        let mid = tr.open(4);
        tr.span(5, || ());
        tr.close(mid);
        tr.close(root);
        let parents: Vec<u32> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2]);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false);
        let h = off.open(Tracer::UNIT);
        assert_eq!(off.span(0, || 5), 5);
        off.close(h);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn correct_bits_against_oracle() {
        let p = 256;
        let one = MpFloat::from_f64(1.0, p);
        let eps = MpFloat::from_f64(2f64.powi(-100), p);
        let off = one.add(&eps, p);
        assert_eq!(correct_bits(&off, &one, 300.0), 100.0);
        assert_eq!(correct_bits(&one, &one, 300.0), 300.0);
        let zero = MpFloat::zero(p);
        assert_eq!(correct_bits(&zero, &zero, 300.0), 300.0);
        assert_eq!(correct_bits(&one, &zero, 300.0), 0.0);
        // Wrong sign: relative error 2, clamped to 0 bits.
        assert_eq!(correct_bits(&one.neg(), &one, 300.0), 0.0);
    }

    #[test]
    fn cpu_seconds_from_proc_stat() {
        // Command name with spaces and a ')' inside; utime 250, stime 50.
        let stat = "1234 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("1234 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parens"), None);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn peak_rss_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 12 kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
