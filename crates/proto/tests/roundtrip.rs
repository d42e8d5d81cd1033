//! Protocol round-trip property tests: every request/response variant
//! must survive encode → decode exactly, and mutated/truncated payloads
//! must come back as typed errors — never a panic, never unbounded
//! allocation. The stream shapes (plan requests, batch frames,
//! end-or-cursor frames) are fuzzed alongside the single-frame set,
//! including truncation at every byte of a multi-frame reply, and the
//! byte layouts of representative frames are pinned.
//!
//! The quick suite runs with the workspace tests; `--ignored` runs the
//! larger fuzz smoke the CI protocol gate invokes explicitly.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::{rng_for, TestRng};
use siren_analysis::{LibraryUsageRow, UsageRow};
use siren_consolidate::{ProcessRecord, ScriptRecord};
use siren_db::Record;
use siren_proto::{
    decode_stream_frame, encode_stream_frame, fold_epoch_checksum, read_frame, write_frame,
    EpochBatch, FrameError, NeighborRow, Order, PlanSource, Projection, QueryError, QueryPlan,
    QueryRequest, QueryResponse, QueryWarning, RecordRow, RowBatch, Selection, SpanId, SpanRecord,
    StatusInfo, TraceFilter, TraceId, TraceTree, DEFAULT_COMPRESS_MIN_BYTES, STREAM_HEADER_LEN,
};
use siren_wire::{Layer, MessageType};

// ---------------------------------------------------- generators --

fn arb_selection(rng: &mut TestRng) -> Selection {
    let mut sel = Selection::all();
    if rng.below(2) == 1 {
        sel = sel.epoch(rng.next_u64());
    }
    if rng.below(2) == 1 {
        sel = sel.host(format!("nid{:06}", rng.below(100_000)));
    }
    if rng.below(2) == 1 {
        let lo = rng.next_u64() >> 1;
        sel = sel.between(lo, lo + rng.below(1 << 20));
    }
    if rng.below(2) == 1 {
        sel = sel.job(rng.next_u64());
    }
    if rng.below(2) == 1 {
        let lo = rng.below(1 << 20);
        sel = sel.epochs(lo, lo + rng.below(64));
    }
    sel
}

fn arb_plan(rng: &mut TestRng) -> QueryPlan {
    let mut plan = match rng.below(3) {
        0 => QueryPlan::records(),
        1 => QueryPlan::usage_table(),
        _ => QueryPlan::neighbors(
            format!("6:{}:{}", arb_string(rng, 12), arb_string(rng, 12)),
            rng.below(101) as u32,
        ),
    };
    plan = plan.filter(arb_selection(rng));
    if rng.below(2) == 1 {
        plan = plan.project(Projection::Keys);
    }
    if plan.source == PlanSource::Records {
        plan = plan.order_by(match rng.below(3) {
            0 => Order::Commit,
            1 => Order::TimeAsc,
            _ => Order::TimeDesc,
        });
    }
    if rng.below(2) == 1 {
        plan = plan.limit(rng.below(1 << 20));
    }
    plan.batch_rows(rng.next_u64() as u32)
        .page_rows(rng.next_u64() as u32)
}

fn arb_batch(rng: &mut TestRng) -> RowBatch {
    match rng.below(3) {
        0 => RowBatch::Records(
            (0..rng.below(4))
                .map(|_| RecordRow {
                    epoch: rng.next_u64(),
                    record: arb_record(rng),
                })
                .collect(),
        ),
        1 => RowBatch::Usage(
            (0..rng.below(5))
                .map(|_| UsageRow {
                    user: format!("user_{}", rng.below(1000)),
                    jobs: rng.next_u64(),
                    system_procs: rng.next_u64(),
                    user_procs: rng.next_u64(),
                    python_procs: rng.next_u64(),
                })
                .collect(),
        ),
        _ => RowBatch::Neighbors(
            (0..rng.below(4))
                .map(|_| NeighborRow {
                    score: rng.below(101) as u32,
                    epoch: rng.next_u64(),
                    record: arb_record(rng),
                })
                .collect(),
        ),
    }
}

fn arb_string(rng: &mut TestRng, max: usize) -> String {
    let strat = "\\PC{0,8}";
    let mut s = String::new();
    for _ in 0..rng.below(max.max(1) as u64) {
        s.push_str(&Strategy::generate(&strat, rng));
        if s.len() >= max {
            break;
        }
    }
    s.chars().take(max).collect()
}

fn arb_record(rng: &mut TestRng) -> ProcessRecord {
    let row = Record {
        job_id: rng.next_u64(),
        step_id: rng.next_u64() as u32,
        pid: rng.next_u64() as u32,
        exe_hash: format!("{:016x}", rng.next_u64()),
        host: format!("nid{:06}", rng.below(1000)),
        time: rng.next_u64(),
        layer: if rng.below(2) == 0 {
            Layer::SelfExe
        } else {
            Layer::Script
        },
        mtype: MessageType::Meta,
        content: String::new(),
    };
    let mut rec = ProcessRecord::new(&row);
    if rng.below(2) == 1 {
        rec.meta
            .insert("path".into(), format!("/usr/bin/{}", arb_string(rng, 12)));
    }
    if rng.below(2) == 1 {
        rec.objects = Some(
            (0..rng.below(4))
                .map(|i| format!("/lib64/lib{i}-{}.so", arb_string(rng, 6)))
                .collect(),
        );
    }
    if rng.below(2) == 1 {
        rec.file_hash = Some(format!("3:{}:{}", arb_string(rng, 8), arb_string(rng, 8)));
    }
    if rng.below(3) == 0 {
        rec.script = Some(ScriptRecord {
            path: Some(format!("/u/{}.py", arb_string(rng, 6))),
            meta: std::collections::HashMap::new(),
            script_hash: None,
        });
    }
    rec
}

fn arb_request(rng: &mut TestRng) -> QueryRequest {
    match rng.below(8) {
        0 => QueryRequest::Status,
        1 => QueryRequest::LibraryUsage {
            selection: arb_selection(rng),
        },
        2 => QueryRequest::Plan(arb_plan(rng)),
        3 => QueryRequest::FetchCursor {
            cursor: rng.next_u64(),
        },
        4 => QueryRequest::CloseCursor {
            cursor: rng.next_u64(),
        },
        5 => QueryRequest::Metrics,
        6 => QueryRequest::Traces(arb_trace_filter(rng)),
        _ => QueryRequest::SubscribeEpochs {
            from_epoch: rng.next_u64(),
            batch_rows: rng.next_u64() as u32,
        },
    }
}

/// Ids on the wire are never zero (zero encodes "absent").
fn arb_trace_id(rng: &mut TestRng) -> TraceId {
    TraceId(rng.next_u64() | 1)
}

fn arb_trace_filter(rng: &mut TestRng) -> TraceFilter {
    TraceFilter {
        trace: (rng.below(2) == 1).then(|| arb_trace_id(rng)),
        fingerprint: (rng.below(2) == 1).then(|| rng.next_u64()),
        min_duration_ns: (rng.below(2) == 1).then(|| rng.next_u64()),
        stage: (rng.below(2) == 1).then(|| arb_string(rng, 16)),
        limit: rng.next_u64() as u32,
    }
}

fn arb_traces(rng: &mut TestRng) -> Vec<TraceTree> {
    (0..rng.below(3))
        .map(|_| {
            let trace = arb_trace_id(rng);
            let spans = (0..rng.below(4))
                .map(|_| SpanRecord {
                    trace,
                    id: SpanId(rng.next_u64() | 1),
                    parent: (rng.below(2) == 1).then(|| SpanId(rng.next_u64() | 1)),
                    stage: arb_string(rng, 16),
                    start_ns: rng.next_u64(),
                    duration_ns: rng.next_u64(),
                    annotations: (0..rng.below(3))
                        .map(|_| (arb_string(rng, 8), arb_string(rng, 16)))
                        .collect(),
                })
                .collect();
            TraceTree { trace, spans }
        })
        .collect()
}

/// A well-formed random metrics snapshot, built through a real
/// [`Registry`](siren_obs::Registry) so the invariants the decoder
/// relies on (sorted names, sparse ascending histogram buckets)
/// always hold — exactly as a server would produce it.
fn arb_metrics(rng: &mut TestRng) -> siren_obs::MetricsSnapshot {
    let registry = siren_obs::Registry::new();
    for _ in 0..rng.below(5) {
        registry
            .counter(&format!("fuzz.counter_{}", rng.below(8)))
            .add(rng.next_u64() >> 1);
    }
    for _ in 0..rng.below(3) {
        let g = registry.gauge(&format!("fuzz.gauge_{}", rng.below(4)));
        g.set(rng.next_u64() as i64 >> 8);
        g.add(-((rng.below(1 << 16)) as i64));
    }
    for _ in 0..rng.below(3) {
        let h = registry.histogram(&format!("fuzz.hist_{}", rng.below(4)));
        for _ in 0..rng.below(40) {
            h.record(rng.next_u64() >> rng.below(60));
        }
    }
    for _ in 0..rng.below(4) {
        registry.slow_queries().push(siren_obs::SlowQueryEntry {
            fingerprint: rng.next_u64(),
            shape: arb_string(rng, 24),
            rows: rng.next_u64(),
            total_ns: rng.next_u64(),
            trace_id: rng.next_u64(),
        });
    }
    registry.snapshot()
}

fn arb_error(rng: &mut TestRng) -> QueryError {
    match rng.below(8) {
        0 => QueryError::Malformed(arb_string(rng, 24)),
        1 => QueryError::UnsupportedVersion {
            server_min: rng.next_u64() as u16,
            server_max: rng.next_u64() as u16,
        },
        2 => QueryError::UnknownRequest(rng.next_u64() as u8),
        3 => QueryError::FrameTooLarge(rng.next_u64() as u32),
        4 => QueryError::Deadline,
        5 => QueryError::Internal(arb_string(rng, 24)),
        6 => QueryError::InvalidPlan(arb_string(rng, 24)),
        _ => QueryError::UnknownCursor(rng.next_u64()),
    }
}

fn arb_status(rng: &mut TestRng) -> StatusInfo {
    StatusInfo {
        protocol_version: rng.next_u64() as u16,
        committed_epochs: (0..rng.below(6)).collect(),
        records: rng.next_u64(),
        open_epoch: (rng.below(2) == 1).then(|| rng.next_u64()),
        epoch_tag_mismatches: rng.next_u64(),
        quiet_period_fallbacks: rng.next_u64(),
        queries_refused: rng.next_u64(),
        open_cursors: rng.next_u64(),
        version_connections: (1..=rng.below(3) as u16)
            .map(|v| (v, rng.next_u64()))
            .collect(),
        repl_high_water: rng.next_u64(),
        repl_lag_epochs: rng.next_u64(),
        repl_lag_bytes: rng.next_u64(),
        repl_reconnects: rng.next_u64(),
    }
}

fn arb_epoch_batch(rng: &mut TestRng) -> EpochBatch {
    EpochBatch {
        epoch: rng.next_u64(),
        records: (0..rng.below(4)).map(|_| arb_record(rng)).collect(),
    }
}

fn arb_response(rng: &mut TestRng) -> QueryResponse {
    match rng.below(11) {
        0 => QueryResponse::Status(arb_status(rng)),
        1 => QueryResponse::LibraryUsage(
            (0..rng.below(5))
                .map(|_| LibraryUsageRow {
                    library: format!("/lib64/{}.so", arb_string(rng, 10)),
                    processes: rng.next_u64(),
                    hosts: rng.next_u64(),
                })
                .collect(),
        ),
        2 => QueryResponse::Error(arb_error(rng)),
        3 => QueryResponse::Batch(arb_batch(rng)),
        4 => QueryResponse::StreamEnd {
            cursor: (rng.below(2) == 1).then(|| rng.next_u64()),
        },
        5 => QueryResponse::Metrics(arb_metrics(rng)),
        6 => QueryResponse::Traces(arb_traces(rng)),
        7 => QueryResponse::Warning(QueryWarning {
            missing: (0..rng.below(4)).map(|_| arb_string(rng, 12)).collect(),
            detail: arb_string(rng, 24),
        }),
        8 => QueryResponse::EpochBatch(arb_epoch_batch(rng)),
        9 => QueryResponse::EpochCommit {
            epoch: rng.next_u64(),
            records: rng.next_u64(),
            checksum: rng.next_u64(),
        },
        _ => QueryResponse::SubscribeEnd {
            next_from: rng.next_u64(),
            leader_bytes: rng.next_u64(),
        },
    }
}

// ------------------------------------------------------- helpers --

/// Every request body ends in a trace-context id (0 = absent): the pair
/// must round-trip exactly, truncation at every byte must be a typed
/// error, and trailing junk must be rejected.
fn assert_request_round_trip(req: &QueryRequest, trace: Option<TraceId>) {
    let encoded = req.encode_traced(trace);
    match QueryRequest::decode_traced(&encoded) {
        Ok((decoded, decoded_trace)) => {
            assert_eq!(&decoded, req);
            assert_eq!(decoded_trace, trace);
        }
        Err(err) => panic!("request failed to decode: {err}"),
    }
    for cut in 0..encoded.len() {
        assert!(
            QueryRequest::decode_traced(&encoded[..cut]).is_err(),
            "cut {cut}"
        );
    }
    let mut extra = encoded.clone();
    extra.push(0);
    assert!(QueryRequest::decode_traced(&extra).is_err());
}

fn assert_response_round_trip(resp: &QueryResponse) {
    let encoded = resp.encode();
    assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(resp));
    for cut in 0..encoded.len() {
        // Must not panic.
        let _ = QueryResponse::decode(&encoded[..cut]);
    }
    let mut extra = encoded.clone();
    extra.push(0);
    // Trailing junk: either rejected, or (for the empty-tail case of a
    // string-final variant) decodes to something ≠ the original is not
    // acceptable — so require rejection unless equality held.
    if let Ok(decoded) = QueryResponse::decode(&extra) {
        assert_eq!(&decoded, resp, "trailing junk changed the decode");
    }
}

fn run_cases(cases: u32, name: &str) {
    let mut rng = rng_for(name);
    for case in 0..cases {
        // The request with and without a propagated trace id.
        let request = arb_request(&mut rng);
        let trace = (rng.below(2) == 1).then(|| arb_trace_id(&mut rng));
        assert_request_round_trip(&request, trace);
        assert_response_round_trip(&arb_response(&mut rng));
        // Framed transport round-trip (in-memory "socket").
        let resp = arb_response(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(QueryResponse::decode(&payload), Ok(resp));
        // Random single-byte corruption never panics and never yields a
        // frame that silently decodes to a *different* valid payload of
        // the same length (checksum catches it).
        if !wire.is_empty() {
            let mut mutated = wire.clone();
            let at = rng.below(mutated.len() as u64) as usize;
            let bit = 1u8 << rng.below(8);
            mutated[at] ^= bit;
            if let Ok(payload2) = read_frame(&mut mutated.as_slice()) {
                // A flip that somehow leaves the frame readable must not
                // have changed the payload the checksum vouches for.
                assert_eq!(payload2, payload);
            }
        }
        // The stream envelope wraps the body verbatim: any stream id
        // and flag combination must round-trip the body exactly,
        // compressed or raw, and the raw envelope tail must BE the
        // body bytes.
        {
            let resp = arb_response(&mut rng);
            let body = resp.encode();
            let id = rng.next_u64() as u32;
            let accept = rng.below(2) == 1;
            let compress = match rng.below(3) {
                0 => None,
                1 => Some(0),
                _ => Some(DEFAULT_COMPRESS_MIN_BYTES),
            };
            let wire = encode_stream_frame(id, &body, accept, compress);
            if compress.is_none() {
                assert_eq!(&wire[STREAM_HEADER_LEN..], &body[..]);
            }
            let frame = decode_stream_frame(&wire).expect("envelope must decode");
            assert_eq!(frame.stream_id, id);
            assert_eq!(frame.accept_compressed, accept);
            assert_eq!(frame.body, body);
            assert_eq!(QueryResponse::decode(&frame.body).as_ref(), Ok(&resp));
            // Truncation at every byte: under the header it is a typed
            // envelope error; past it, either a typed error (torn
            // compressed body) or a short raw body handed to the inner
            // decoder, which must not panic (the frame checksum is
            // what rules out torn payloads on a real wire).
            for cut in 0..wire.len() {
                match decode_stream_frame(&wire[..cut]) {
                    Err(QueryError::Malformed(_) | QueryError::FrameTooLarge(_)) => {}
                    Err(other) => panic!("cut {cut}: unexpected error {other}"),
                    Ok(short) => {
                        assert!(cut >= STREAM_HEADER_LEN, "header cut {cut} must not decode");
                        let _ = QueryResponse::decode(&short.body);
                    }
                }
            }
        }
        // A reply stream (batch, batch, end-with-cursor) truncated
        // at any byte must surface a typed frame error at the cut,
        // never a panic, and the frames before the cut must decode
        // exactly.
        if case % 8 == 0 {
            let frames = [
                QueryResponse::Batch(arb_batch(&mut rng)),
                QueryResponse::Batch(arb_batch(&mut rng)),
                QueryResponse::StreamEnd {
                    cursor: Some(rng.next_u64()),
                },
            ];
            let mut wire = Vec::new();
            for frame in &frames {
                write_frame(&mut wire, &frame.encode()).unwrap();
            }
            let cut = rng.below(wire.len() as u64 + 1) as usize;
            let mut r = &wire[..cut];
            let mut decoded = 0usize;
            loop {
                match read_frame(&mut r) {
                    Ok(payload) => {
                        assert_eq!(
                            QueryResponse::decode(&payload).as_ref(),
                            Ok(&frames[decoded]),
                            "frame {decoded} before the cut must decode exactly"
                        );
                        decoded += 1;
                    }
                    Err(FrameError::Closed) => break, // cut at a boundary
                    Err(FrameError::Truncated) => break, // cut mid-frame
                    Err(other) => panic!("unexpected frame error at cut {cut}: {other}"),
                }
            }
            assert!(decoded <= frames.len());
        }
    }
}

// --------------------------------------------------------- tests --

#[test]
fn request_and_response_round_trip_quick() {
    run_cases(64, "request_and_response_round_trip_quick");
}

/// The CI protocol fuzz smoke: `cargo test -p siren-proto -- --ignored`.
#[test]
#[ignore = "larger fuzz smoke, run explicitly by the CI protocol gate"]
fn request_and_response_round_trip_fuzz_smoke() {
    run_cases(2000, "request_and_response_round_trip_fuzz_smoke");
}

proptest! {
    /// Selections round-trip through a LibraryUsage request unchanged.
    #[test]
    fn selection_round_trips(epoch in any::<u64>(), host in "[a-z0-9]{1,12}", lo in any::<u64>(), span in 0u64..1_000_000) {
        let lo = lo >> 1;
        let selection = Selection::all().epoch(epoch).host(host.as_str()).between(lo, lo + span);
        prop_assert_eq!(selection.epoch_filter(), Some(epoch));
        prop_assert_eq!(selection.host_filter(), Some(host.as_str()));
        prop_assert_eq!(selection.time_range(), Some((lo, lo + span)));
        let req = QueryRequest::LibraryUsage { selection: selection.clone() };
        prop_assert_eq!(QueryRequest::decode(&req.encode()), Ok(req));
    }
}

#[test]
fn between_bounds_are_inclusive_and_inverted_ranges_are_typed_errors() {
    let mut rng = rng_for("between_bounds_are_inclusive");
    let rec = arb_record(&mut rng);
    let t = rec.key.time;

    // Inclusive on both ends: the exact bounds match…
    assert!(Selection::all().between(t, t).matches(0, &rec));
    if t > 0 {
        assert!(Selection::all().between(t - 1, t).matches(0, &rec));
        // …and one past the end does not.
        assert!(!Selection::all().between(0, t - 1).matches(0, &rec));
    }
    if t < u64::MAX {
        assert!(Selection::all().between(t, t + 1).matches(0, &rec));
        assert!(!Selection::all().between(t + 1, u64::MAX).matches(0, &rec));
    }

    // Valid ranges (and the empty selection) validate.
    assert_eq!(Selection::all().validate(), Ok(()));
    assert_eq!(Selection::all().between(3, 3).validate(), Ok(()));
    assert_eq!(Selection::all().epochs(0, 5).validate(), Ok(()));

    // Inverted ranges draw the typed error instead of silently
    // matching nothing.
    assert!(matches!(
        Selection::all().between(5, 3).validate(),
        Err(QueryError::InvalidPlan(_))
    ));
    assert!(matches!(
        Selection::all().epochs(9, 2).validate(),
        Err(QueryError::InvalidPlan(_))
    ));
    // Plan validation folds the selection check in.
    assert!(matches!(
        QueryPlan::records()
            .filter(Selection::all().between(5, 3))
            .validate(),
        Err(QueryError::InvalidPlan(_))
    ));
    // Ordering an aggregation is refused up front.
    assert!(matches!(
        QueryPlan::usage_table().order_by(Order::TimeAsc).validate(),
        Err(QueryError::InvalidPlan(_))
    ));
    // Epoch-slice selections match on the epoch, not the record.
    let sel = Selection::all().epochs(2, 4);
    assert!(sel.matches(3, &rec) && sel.matches(2, &rec) && sel.matches(4, &rec));
    assert!(!sel.matches(1, &rec) && !sel.matches(5, &rec));
}

/// Three reply streams' frames interleaved on one wire — as a server
/// multiplexes them — must reassemble into each stream's exact
/// original sequence when routed by stream id, with compression
/// applied per-frame and transparently undone.
#[test]
fn interleaved_stream_frames_reassemble_exactly() {
    let mut rng = rng_for("interleaved_stream_frames_reassemble_exactly");
    for _ in 0..16 {
        // Per-stream reply sequences: batches then a terminator.
        let ids = [rng.next_u64() as u32 | 1, 7, u32::MAX];
        let sequences: Vec<Vec<QueryResponse>> = ids
            .iter()
            .map(|_| {
                let mut seq: Vec<QueryResponse> = (0..1 + rng.below(4))
                    .map(|_| QueryResponse::Batch(arb_batch(&mut rng)))
                    .collect();
                seq.push(QueryResponse::StreamEnd {
                    cursor: (rng.below(2) == 1).then(|| rng.next_u64()),
                });
                seq
            })
            .collect();

        // Interleave round-robin onto one framed wire, compressing a
        // random subset of frames (threshold 0 = always try).
        let mut wire = Vec::new();
        let mut cursors: Vec<usize> = vec![0; ids.len()];
        let mut remaining: usize = sequences.iter().map(Vec::len).sum();
        while remaining > 0 {
            let s = rng.below(ids.len() as u64) as usize;
            if cursors[s] == sequences[s].len() {
                continue;
            }
            let body = sequences[s][cursors[s]].encode();
            let compress = (rng.below(2) == 1).then_some(0);
            let envelope = encode_stream_frame(ids[s], &body, false, compress);
            write_frame(&mut wire, &envelope).unwrap();
            cursors[s] += 1;
            remaining -= 1;
        }

        // Reassemble by routing frames on their stream id.
        let mut reassembled: Vec<Vec<QueryResponse>> = vec![Vec::new(); ids.len()];
        let mut r = wire.as_slice();
        loop {
            let payload = match read_frame(&mut r) {
                Ok(p) => p,
                Err(FrameError::Closed) => break,
                Err(other) => panic!("interleaved wire broke: {other}"),
            };
            let frame = decode_stream_frame(&payload).unwrap();
            let s = ids.iter().position(|&id| id == frame.stream_id).unwrap();
            reassembled[s].push(QueryResponse::decode(&frame.body).unwrap());
        }
        assert_eq!(
            reassembled, sequences,
            "a stream's frames were reordered or torn"
        );
    }
}

/// The wire layouts are pinned byte for byte: a request that cursor
/// pagination resumes with, a reply terminator, the envelope around it,
/// a plan carrying every optional field, and a status answer carrying
/// every counter. Reserved request tags decode as unknown requests.
#[test]
fn v3_layouts_are_pinned() {
    // FetchCursor: tag + u64 cursor + the trailing trace-context id
    // (zero = absent), nothing more.
    let fetch = QueryRequest::FetchCursor {
        cursor: 0xDEAD_BEEF,
    };
    assert_eq!(
        fetch.encode(),
        [
            &[5u8][..],
            &0xDEAD_BEEFu64.to_le_bytes()[..],
            &0u64.to_le_bytes()[..],
        ]
        .concat(),
        "FetchCursor byte layout drifted"
    );

    // StreamEnd: tag + presence byte + cursor id.
    let end_bytes = QueryResponse::StreamEnd { cursor: Some(9) }.encode();
    assert_eq!(
        end_bytes,
        [&[5u8, 1u8][..], &9u64.to_le_bytes()[..]].concat(),
        "StreamEnd byte layout drifted"
    );

    // The uncompressed envelope is exactly header ++ the body: stream
    // id LE, flag byte, then the pinned encoding untouched.
    let envelope = encode_stream_frame(0x0A0B_0C0D, &end_bytes, false, None);
    let mut expected = 0x0A0B_0C0Du32.to_le_bytes().to_vec();
    expected.push(0);
    expected.extend_from_slice(&end_bytes);
    assert_eq!(envelope, expected, "stream envelope layout drifted");

    // Plan: tag, source, the five selection slots, projection, order,
    // limit, batch/page geometry, trace id.
    let plan = QueryPlan::records()
        .filter(Selection::all().host("n1").job(7).epochs(1, 2))
        .project(Projection::Keys)
        .order_by(Order::TimeDesc)
        .limit(5)
        .batch_rows(3)
        .page_rows(9);
    assert_eq!(
        QueryRequest::Plan(plan).encode_traced(Some(TraceId(0x77))),
        [
            &[4u8, 0][..],              // REQ_PLAN, SRC_RECORDS
            &[0][..],                   // no epoch
            &[1][..],                   // host …
            &2u32.to_le_bytes()[..],    // … length-prefixed
            b"n1",                      //
            &[0][..],                   // no time range
            &[1][..],                   // job …
            &7u64.to_le_bytes()[..],    //
            &[1][..],                   // epoch slice …
            &1u64.to_le_bytes()[..],    //
            &2u64.to_le_bytes()[..],    //
            &[1, 2][..],                // Keys, TimeDesc
            &[1][..],                   // limit …
            &5u64.to_le_bytes()[..],    //
            &3u32.to_le_bytes()[..],    // batch_rows
            &9u32.to_le_bytes()[..],    // page_rows
            &0x77u64.to_le_bytes()[..], // trace id
        ]
        .concat(),
        "Plan byte layout drifted"
    );

    // Status: every field, in wire order.
    let status = StatusInfo {
        protocol_version: 3,
        committed_epochs: vec![0, 2],
        records: 5,
        open_epoch: Some(3),
        epoch_tag_mismatches: 1,
        quiet_period_fallbacks: 2,
        queries_refused: 4,
        open_cursors: 6,
        version_connections: vec![(3, 8)],
        repl_high_water: 9,
        repl_lag_epochs: 10,
        repl_lag_bytes: 11,
        repl_reconnects: 12,
    };
    let mut expected = vec![0u8]; // RESP_STATUS
    expected.extend_from_slice(&3u16.to_le_bytes());
    expected.extend_from_slice(&2u32.to_le_bytes());
    for v in [0u64, 2, 5] {
        expected.extend_from_slice(&v.to_le_bytes());
    }
    expected.push(1);
    for v in [3u64, 1, 2, 4, 6] {
        expected.extend_from_slice(&v.to_le_bytes());
    }
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(&3u16.to_le_bytes());
    for v in [8u64, 9, 10, 11, 12] {
        expected.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(
        QueryResponse::Status(status).encode(),
        expected,
        "Status byte layout drifted"
    );

    // Tags 1 and 3 carried the retired one-shots: reserved, unknown.
    for tag in [1u8, 3] {
        let mut body = vec![tag];
        body.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            QueryRequest::decode(&body),
            Err(QueryError::UnknownRequest(tag))
        );
        assert!(matches!(
            QueryResponse::decode(&body),
            Err(QueryError::Malformed(_))
        ));
    }
}

#[test]
fn metrics_frames_round_trip() {
    let mut rng = rng_for("metrics_frames_round_trip");

    // The request is a bare tag (plus the trace id).
    let req = QueryRequest::Metrics.encode();
    assert_eq!(QueryRequest::decode(&req), Ok(QueryRequest::Metrics));

    for _ in 0..32 {
        let snapshot = arb_metrics(&mut rng);
        let resp = QueryResponse::Metrics(snapshot);
        let encoded = resp.encode();
        // Exact round-trip: every counter, gauge high-water, sparse
        // histogram bucket, and slow-query entry survives the wire.
        assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(&resp));
        // Truncation anywhere inside the four counted sections is a
        // typed error, never a panic or a partial snapshot.
        for cut in 0..encoded.len() {
            assert!(
                QueryResponse::decode(&encoded[..cut]).is_err(),
                "cut {cut} must not decode"
            );
        }
        // A count prefix inflated past the payload is caught by the
        // minimum-bytes-per-element bound before any allocation. The
        // counter count sits after the tag byte and the u64 capture
        // timestamp.
        let mut inflated = encoded.clone();
        inflated[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QueryResponse::decode(&inflated).is_err());
    }
}

#[test]
fn traces_frames_round_trip() {
    let mut rng = rng_for("traces_frames_round_trip");

    let req = QueryRequest::Traces(TraceFilter::recent());
    let encoded = req.encode();
    assert_eq!(QueryRequest::decode(&encoded), Ok(req));

    // A present-but-zero trace id in the filter is inconsistent (zero
    // encodes "absent") and must be refused.
    let mut zeroed = QueryRequest::Traces(TraceFilter::recent().trace(TraceId(7))).encode();
    zeroed[2..10].copy_from_slice(&0u64.to_le_bytes());
    assert!(QueryRequest::decode(&zeroed).is_err());

    for _ in 0..32 {
        let resp = QueryResponse::Traces(arb_traces(&mut rng));
        let encoded = resp.encode();
        // Exact round-trip: every span, parent link, and annotation.
        assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(&resp));
        // Truncation at every byte is a typed error, never a panic or a
        // partial forest.
        for cut in 0..encoded.len() {
            assert!(
                QueryResponse::decode(&encoded[..cut]).is_err(),
                "cut {cut} must not decode"
            );
        }
        // A count prefix inflated past the payload is caught by the
        // minimum-bytes-per-element bound before any allocation.
        let mut inflated = encoded.clone();
        inflated[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QueryResponse::decode(&inflated).is_err());
    }
}

#[test]
fn replication_frames_round_trip() {
    let mut rng = rng_for("replication_frames_round_trip");

    let req = QueryRequest::SubscribeEpochs {
        from_epoch: 7,
        batch_rows: 128,
    };
    let encoded = req.encode();
    assert_eq!(QueryRequest::decode(&encoded), Ok(req));
    // Pin the byte layout: tag, from_epoch u64, batch_rows u32, and
    // the trailing trace-context id every request body carries.
    assert_eq!(
        encoded,
        [
            &[9u8][..],
            &7u64.to_le_bytes()[..],
            &128u32.to_le_bytes()[..],
            &0u64.to_le_bytes()[..],
        ]
        .concat(),
        "SubscribeEpochs byte layout drifted"
    );

    for _ in 0..32 {
        // EpochBatch: exact round-trip, typed errors on truncation at
        // every byte.
        let batch = arb_epoch_batch(&mut rng);
        let resp = QueryResponse::EpochBatch(batch.clone());
        let encoded = resp.encode();
        assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(&resp));
        for cut in 0..encoded.len() {
            assert!(
                QueryResponse::decode(&encoded[..cut]).is_err(),
                "cut {cut} must not decode"
            );
        }
        // A flipped bit anywhere past the epoch/count header — in a
        // record's bytes, a length prefix, or the trailing checksum —
        // must draw a typed error, never a silently different batch.
        // (The checksum is what makes a decoded batch end-to-end
        // intact independent of the frame-level FNV.)
        let body_start = 1 + 8 + 4; // tag + epoch + record count
        let at = body_start + rng.below((encoded.len() - body_start) as u64) as usize;
        let mut tampered = encoded.clone();
        tampered[at] ^= 1u8 << rng.below(8);
        assert!(
            QueryResponse::decode(&tampered).is_err(),
            "bit flip at {at} must not decode"
        );
        // And a flip pinned to the trailing checksum itself draws the
        // dedicated mismatch error.
        let mut sum_flip = encoded.clone();
        let last = sum_flip.len() - 1;
        sum_flip[last] ^= 0x80;
        match QueryResponse::decode(&sum_flip) {
            Err(QueryError::Malformed(msg)) => {
                assert!(msg.contains("checksum mismatch"), "got: {msg}")
            }
            other => panic!("checksum flip must be a typed mismatch, got {other:?}"),
        }

        // The commit marker's fold matches what a follower accumulates
        // batch-by-batch with the shared helper.
        let commit = QueryResponse::EpochCommit {
            epoch: batch.epoch,
            records: batch.records.len() as u64,
            checksum: fold_epoch_checksum(&[batch.checksum()]),
        };
        let encoded = commit.encode();
        assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(&commit));

        let end = QueryResponse::SubscribeEnd {
            next_from: rng.next_u64(),
            leader_bytes: rng.next_u64(),
        };
        let encoded = end.encode();
        assert_eq!(QueryResponse::decode(&encoded).as_ref(), Ok(&end));
    }
}

#[test]
fn oversized_frame_is_refused_without_allocation() {
    // A length prefix of 2^31 must be refused before any buffer of that
    // size exists; this test would OOM-kill the suite otherwise.
    let mut wire = vec![0xD8u8];
    wire.extend_from_slice(&(1u32 << 31).to_le_bytes());
    wire.extend_from_slice(&[0u8; 64]);
    assert!(matches!(
        read_frame(&mut wire.as_slice()),
        Err(FrameError::TooLarge(_))
    ));
}
