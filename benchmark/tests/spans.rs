//! Self-time arithmetic and root coverage on a hand-built span tree.

use siren_benchmark::spans::{root_coverage, self_times, totals, SpanRec, Spans};
use std::time::Instant;

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, thread: u32) -> SpanRec {
    SpanRec {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        thread,
        calls: 1,
    }
}

/// ```text
/// thread 0: root [0,100)
///             ├─ a [10,40)
///             │    └─ b [15,25)
///             └─ a [50,90)
///           root [150,200)          (gap 100..150 is uncovered)
/// thread 1: op [0,30)  op [30,60)   (fully covered)
/// ```
fn tree() -> Vec<SpanRec> {
    vec![
        span("root", 0, 100, None, 0),
        span("a", 10, 40, Some(0), 0),
        span("b", 15, 25, Some(1), 0),
        span("a", 50, 90, Some(0), 0),
        span("root", 150, 200, None, 0),
        span("op", 0, 30, None, 1),
        span("op", 30, 60, None, 1),
    ]
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let own = self_times(&tree());
    // root: 100 - (30 + 40); first a: 30 - 10; b: 10; second a: 40.
    assert_eq!(own, vec![30, 20, 10, 40, 50, 30, 30]);
}

#[test]
fn self_times_add_up_to_root_durations() {
    let recs = tree();
    let roots: u64 = recs
        .iter()
        .filter(|r| r.parent.is_none())
        .map(SpanRec::duration_ns)
        .sum();
    assert_eq!(self_times(&recs).iter().sum::<u64>(), roots);
}

#[test]
fn totals_group_by_name_and_sort_by_self_time() {
    let t = totals(&tree());
    let names: Vec<&str> = t.iter().map(|t| t.name).collect();
    assert_eq!(names, ["root", "a", "op", "b"]);
    let a = t.iter().find(|t| t.name == "a").unwrap();
    assert_eq!((a.spans, a.calls, a.total_ns, a.self_ns), (2, 2, 70, 60));
    let root = &t[0];
    assert_eq!((root.spans, root.total_ns, root.self_ns), (2, 150, 80));
}

#[test]
fn root_coverage_is_per_thread() {
    let coverage = root_coverage(&tree());
    assert_eq!(coverage.len(), 2);
    assert_eq!(coverage[0].0, 0);
    assert!((coverage[0].1 - 150.0 / 200.0).abs() < 1e-12);
    assert_eq!(coverage[1], (1, 1.0));
}

#[test]
fn recorder_nests_absorbs_and_costs_nothing_when_off() {
    let mut spans = Spans::new(true, Instant::now());
    spans.span("outer", |s| {
        s.span_n("inner", 7, |_| ());
    });
    let mut other = spans.fork(3);
    other.span("elsewhere", |s| s.span("nested", |_| ()));
    spans.absorb(other);
    let recs = spans.records();
    assert_eq!(recs.len(), 4);
    assert_eq!(recs[1].parent, Some(0));
    assert_eq!(recs[1].calls, 7);
    // Absorbed parents are rebased onto the merged list.
    assert_eq!((recs[2].thread, recs[2].parent), (3, None));
    assert_eq!((recs[3].thread, recs[3].parent), (3, Some(2)));
    assert!(recs[0].start_ns <= recs[1].start_ns && recs[1].end_ns <= recs[0].end_ns);

    let mut off = Spans::new(false, Instant::now());
    assert_eq!(off.span("outer", |s| s.span("inner", |_| 5)), 5);
    assert!(off.records().is_empty());
}
