//! Span-derived self-profiler: folds the [`crate::trace`] ring buffers into
//! per-span-path aggregate wall time and exports flamegraph-compatible
//! folded stacks.
//!
//! A Chrome trace ([`crate::trace::chrome_trace`]) preserves the *timeline*
//! — every individual span, in order. That is the right view for spotting a
//! stall, but the wrong one for "where does the time go overall": a
//! parallel GEMM records tens of thousands of worker spans that a human
//! cannot eyeball. This module collapses the same records into the familiar
//! profiler aggregate: for every unique span *path* (the `;`-joined chain
//! of open span names, e.g. `bench.measure;par.gemm.tiled;par.gemm.tiled.chunk`),
//! the call count, total (inclusive) wall time, and **self** time — total
//! minus time spent in child spans.
//!
//! The folded-stack export (`path;to;span <self_ns>` per line) is the
//! interchange format of Brendan Gregg's flamegraph toolchain: feed it to
//! `flamegraph.pl`, `inferno-flamegraph`, or paste into speedscope. Values
//! are nanoseconds of self time.
//!
//! The fold is a per-thread stack walk over the copied records. The trace
//! layer's whole-span drop discipline guarantees balanced begin/end pairs
//! with monotone timestamps per thread, so the walk needs no repair logic;
//! spans still open at snapshot time (their end record not yet written) are
//! simply ignored, which makes live `/profile` scrapes safe while work is
//! in flight. Self time is conserved: the self times of a closed root span
//! and its descendants sum exactly to the root's duration, so the folded
//! output "adds up" the way flamegraph tooling expects.

use crate::trace::{thread_records, Record};
use std::collections::BTreeMap;
use std::path::Path;

/// Aggregate statistics for one unique span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// `;`-joined chain of span names from the root, flamegraph-style.
    pub path: String,
    /// Closed spans observed at this path.
    pub count: u64,
    /// Inclusive wall time: sum of span durations at this path. A span's
    /// time is also inside its ancestors' totals (standard profiler
    /// semantics), so totals across different depths overlap.
    pub total_ns: u64,
    /// Exclusive wall time: total minus time inside child spans. Self
    /// times partition wall time — across all paths they sum to the total
    /// duration of closed root spans.
    pub self_ns: u64,
}

/// One in-progress frame of the fold walk.
struct Frame {
    name: &'static str,
    ts_ns: u64,
    child_ns: u64,
}

/// Fold one thread's records (begin/end, per-thread monotone) into `map`.
/// Spans without a closing record by the end of the slice are dropped.
pub(crate) fn fold_records(map: &mut BTreeMap<String, PathStat>, records: &[Record]) {
    let mut stack: Vec<Frame> = Vec::new();
    for r in records {
        if !r.end {
            stack.push(Frame {
                name: r.name,
                ts_ns: r.ts_ns,
                child_ns: 0,
            });
            continue;
        }
        // The trace layer only writes an end for a recorded begin, but be
        // defensive against a torn slice: an unmatched end is skipped.
        let Some(frame) = stack.pop() else { continue };
        let dur = r.ts_ns.saturating_sub(frame.ts_ns);
        let path = stack
            .iter()
            .map(|f| f.name)
            .chain([frame.name])
            .collect::<Vec<_>>()
            .join(";");
        let stat = map.entry(path.clone()).or_insert(PathStat {
            path,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
    }
}

/// Fold every thread's collected spans into per-path aggregates, sorted by
/// path. Empty when the feature is off or tracing was never armed.
pub fn aggregate() -> Vec<PathStat> {
    let mut map = BTreeMap::new();
    for (_tid, records) in thread_records() {
        fold_records(&mut map, &records);
    }
    map.into_values().collect()
}

/// Render [`aggregate`] in folded-stack format: one `path;to;span <self_ns>`
/// line per path, self time in nanoseconds. Feed to `flamegraph.pl` /
/// `inferno-flamegraph` / speedscope.
pub fn folded_stacks() -> String {
    let mut out = String::new();
    for s in aggregate() {
        out.push_str(&format!("{} {}\n", s.path, s.self_ns));
    }
    out
}

/// Write [`folded_stacks`] to `path`, creating parent directories. With the
/// feature disabled this writes an empty file.
pub fn export_folded(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, folded_stacks())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(name: &'static str, ts_ns: u64) -> Record {
        Record {
            name,
            arg: 0,
            ts_ns,
            end: false,
        }
    }

    fn e(name: &'static str, ts_ns: u64) -> Record {
        Record {
            name,
            arg: 0,
            ts_ns,
            end: true,
        }
    }

    /// Satellite: folded-stack output balance against a synthetic trace.
    /// Two roots with nested children; self times must partition the wall
    /// time exactly (sum of self == sum of root durations) and every
    /// inclusive total must equal its children's totals plus its self time.
    #[test]
    fn folded_output_balances_against_synthetic_trace() {
        // Timeline (ns):      0        100            250   300       400
        //  root ──────────────[============================]
        //    inner ─────────────[=========]  [=====]
        //      leaf ──────────────[==]
        //  root2 ────────────────────────────────────────────[========]
        let records = vec![
            b("root", 0),
            b("inner", 10),
            b("leaf", 20),
            e("leaf", 50),
            e("inner", 110),
            b("inner", 150),
            e("inner", 200),
            e("root", 300),
            b("root2", 320),
            e("root2", 400),
        ];
        let mut map = BTreeMap::new();
        fold_records(&mut map, &records);
        let get = |p: &str| map.get(p).unwrap_or_else(|| panic!("missing path {p}"));

        let root = get("root");
        assert_eq!((root.count, root.total_ns), (1, 300));
        let inner = get("root;inner");
        assert_eq!((inner.count, inner.total_ns), (2, 100 + 50));
        let leaf = get("root;inner;leaf");
        assert_eq!((leaf.count, leaf.total_ns, leaf.self_ns), (1, 30, 30));

        // Self = total - children, at every level.
        assert_eq!(inner.self_ns, inner.total_ns - leaf.total_ns);
        assert_eq!(root.self_ns, root.total_ns - inner.total_ns);
        assert_eq!(get("root2").self_ns, 80);

        // Global balance: self times partition the closed-root wall time.
        let self_sum: u64 = map.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 300 + 80, "sum(self) must equal sum(root dur)");

        // The rendered form carries exactly the self values.
        let mut rendered = String::new();
        for s in map.values() {
            rendered.push_str(&format!("{} {}\n", s.path, s.self_ns));
        }
        assert!(rendered.contains("root;inner;leaf 30\n"));
        assert!(rendered.contains(&format!("root {}\n", root.self_ns)));
        // Every line parses as `stack <u64>` — what flamegraph.pl expects.
        for line in rendered.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack and value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn open_spans_and_torn_slices_are_ignored() {
        let mut map = BTreeMap::new();
        // An unmatched end (torn slice) followed by a never-closed begin.
        fold_records(&mut map, &[e("stray", 5), b("open", 10), b("child", 20)]);
        assert!(map.is_empty());
        // A closed child inside a still-open parent is attributed at its
        // full path even though the parent never closes.
        fold_records(&mut map, &[b("open", 0), b("child", 10), e("child", 30)]);
        assert_eq!(map.len(), 1);
        assert_eq!(get_stat(&map, "open;child").total_ns, 20);
    }

    fn get_stat<'m>(map: &'m BTreeMap<String, PathStat>, p: &str) -> &'m PathStat {
        map.get(p).unwrap_or_else(|| panic!("missing path {p}"))
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn live_spans_aggregate_end_to_end() {
        crate::trace::arm();
        std::thread::spawn(|| {
            let _outer = crate::trace::span("test.profile.outer", 0);
            for i in 0..4u64 {
                let _inner = crate::trace::span("test.profile.inner", i);
                std::hint::black_box(i);
            }
        })
        .join()
        .unwrap();
        let stats = aggregate();
        let outer = stats
            .iter()
            .find(|s| s.path == "test.profile.outer")
            .expect("outer path");
        let inner = stats
            .iter()
            .find(|s| s.path == "test.profile.outer;test.profile.inner")
            .expect("inner path");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 4);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let folded = folded_stacks();
        assert!(folded.contains("test.profile.outer;test.profile.inner "));
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn profile_is_inert_when_disabled() {
        crate::trace::arm();
        {
            let _s = crate::trace::span("test.profile.disabled", 1);
        }
        assert!(aggregate().is_empty());
        assert!(folded_stacks().is_empty());
    }
}
