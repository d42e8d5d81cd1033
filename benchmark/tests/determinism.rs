//! Same seed → same inputs; another seed → other inputs.

use siren_benchmark::gen::{self, Catalog, Op, OpStream};
use siren_benchmark::ingest::reference_epoch;
use siren_benchmark::spans::Spans;
use std::sync::Arc;
use std::time::Instant;

/// A small campaign keeps the test quick; the generator is the same.
const SCALE: f64 = 0.0005;

fn epoch(seed: u64, cluster: usize) -> gen::EpochInput {
    let mut spans = Spans::new(false, Instant::now());
    gen::generate_epoch(&gen::fleet(seed, SCALE), cluster, &mut spans)
}

fn ops(seed: u64, client: u32, catalog: &Arc<Catalog>) -> Vec<Op> {
    OpStream::new(seed, client, client == 1, Arc::clone(catalog))
        .take(2_000)
        .collect()
}

fn catalog(seed: u64) -> Arc<Catalog> {
    let mut spans = Spans::new(false, Instant::now());
    let corpus: Vec<_> = (1..3)
        .map(|k| reference_epoch(&epoch(seed, k), &mut spans).expect("reference epoch"))
        .collect();
    Arc::new(Catalog::from_corpus(&corpus))
}

#[test]
fn same_seed_gives_the_same_datagrams() {
    let (a, b) = (epoch(7, 1), epoch(7, 1));
    assert!(!a.datagrams.is_empty());
    assert_eq!(a.datagrams, b.datagrams);
    assert_eq!(
        gen::datagram_digest(&a.datagrams),
        gen::datagram_digest(&b.datagrams)
    );
}

#[test]
fn another_seed_or_epoch_gives_other_datagrams() {
    let base = gen::datagram_digest(&epoch(7, 1).datagrams);
    assert_ne!(base, gen::datagram_digest(&epoch(8, 1).datagrams));
    assert_ne!(base, gen::datagram_digest(&epoch(7, 2).datagrams));
}

#[test]
fn datagram_digest_is_order_sensitive() {
    let mut datagrams = epoch(7, 1).datagrams;
    let base = gen::datagram_digest(&datagrams);
    datagrams.swap(0, 1);
    assert_ne!(base, gen::datagram_digest(&datagrams));
}

#[test]
fn same_seed_gives_the_same_operations() {
    let (c1, c2) = (catalog(7), catalog(7));
    assert_eq!(c1.records, c2.records);
    let (a, b) = (ops(7, 0, &c1), ops(7, 0, &c2));
    assert_eq!(a, b);
    assert_eq!(gen::op_digest(&a), gen::op_digest(&b));
}

#[test]
fn another_seed_or_client_gives_other_operations() {
    let c = catalog(7);
    let base = gen::op_digest(&ops(7, 0, &c));
    assert_ne!(base, gen::op_digest(&ops(8, 0, &c)));
    assert_ne!(base, gen::op_digest(&ops(7, 1, &c)));
}

#[test]
fn operation_mix_has_the_stated_shares() {
    let c = catalog(7);
    let share = |client: u32, kind: &str| {
        let ops = ops(7, client, &c);
        ops.iter().filter(|op| op.kind() == kind).count() as f64 / ops.len() as f64
    };
    for (kind, want) in [
        ("by_job", 0.55),
        ("host_window", 0.15),
        ("neighbors", 0.20),
        ("library_usage", 0.05),
        ("usage_table", 0.04),
        ("status", 0.01),
    ] {
        assert!(
            (share(0, kind) - want).abs() < 0.03,
            "direct client, {kind}"
        );
    }
    // A router refuses library usage; the routed client never asks.
    assert_eq!(share(1, "library_usage"), 0.0);
    assert!((share(1, "usage_table") - 0.09).abs() < 0.03);
}

#[test]
fn a_job_is_asked_for_in_proportion_to_its_records() {
    let c = catalog(7);
    let records_of = |job: u64| c.records.iter().filter(|(j, _)| *j == job).count();
    let largest = *c
        .jobs
        .iter()
        .max_by_key(|&&job| records_of(job))
        .expect("a corpus has jobs");
    let by_job: Vec<u64> = OpStream::new(7, 0, false, Arc::clone(&c))
        .take(40_000)
        .filter_map(|op| match op {
            Op::ByJob { job } => Some(job),
            _ => None,
        })
        .collect();
    let asked = by_job.iter().filter(|&&job| job == largest).count() as f64 / by_job.len() as f64;
    let holds = records_of(largest) as f64 / c.records.len() as f64;
    assert!(
        holds > 2.0 / c.jobs.len() as f64,
        "the corpus is skewed: its largest job holds {holds:.3} of the records"
    );
    assert!(
        (asked / holds - 1.0).abs() < 0.15,
        "asked for in {asked:.4} of by-job operations, holds {holds:.4} of the records"
    );
}
