//! Isolated layer probes and their floors, run only in a traced run and
//! only on data the workload itself produced: one ingest epoch's
//! messages, the committed corpus, one export's frames. Each probe
//! times public calls of one crate from outside; each floor handles
//! the *same bytes* with the cheapest primitive that could (memcpy,
//! loopback TCP, write + fsync), so a stage reads as "N× its floor".

use crate::export::export_plan;
use crate::fleet::{shard_addrs, Fleet};
use crate::gen::{Catalog, EpochInput};
use crate::run::{Res, Run};
use crate::stats::median;
use siren_consolidate::{consolidate, ProcessRecord};
use siren_db::{Database, Record};
use siren_federation::{plan_row_cmp, FleetConfig, Router};
use siren_fuzzy::{fuzzy_hash, FuzzyHash, FuzzyIndex};
use siren_ingest::{IngestConfig, IngestService};
use siren_proto::{
    write_frame, Order, PlanRow, QueryPlan, QueryResponse, RowBatch, Selection, SirenClient,
    DEFAULT_BATCH_ROWS, PROTOCOL_VERSION,
};
use siren_service::{EpochRecord, QuerySnapshot, SnapshotLayer};
use siren_store::{SegmentedBackend, SegmentedOptions};
use siren_wire::{Message, Reassembler};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Named values a probe produced.
pub type Values = Vec<(&'static str, f64)>;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median wall time of `reps` runs of `f`, seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start)
        })
        .collect();
    median(&samples)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Write-path layers on one epoch's own messages: wire, ingest, db,
/// consolidate, fuzzy hashing, store — and the write + fsync floor.
pub fn write_path(run: &mut Run, sample: &EpochInput, scratch: &Path) -> Res<Values> {
    let mut out = Values::new();
    let n = sample.messages.len() as f64;
    let spans = &mut run.spans;

    // wire: encode / decode / reassemble, per datagram.
    let encode = median_secs(5, || {
        for m in &sample.messages {
            black_box(m.encode());
        }
    });
    out.push(("wire.encode_ns_per_datagram", encode * 1e9 / n));
    let decode = median_secs(5, || {
        for d in &sample.datagrams {
            black_box(Message::decode(d).expect("collector output decodes"));
        }
    });
    out.push(("wire.decode_ns_per_datagram", decode * 1e9 / n));
    let mut complete = Vec::new();
    let mut reassemble = Vec::new();
    for _ in 0..5 {
        let feed = sample.messages.clone();
        let mut reassembler = Reassembler::new();
        let start = Instant::now();
        complete = feed
            .into_iter()
            .filter_map(|m| reassembler.push(m))
            .collect();
        reassemble.push(secs(start));
    }
    let reassemble = median(&reassemble);
    out.push(("wire.reassemble_ns_per_datagram", reassemble * 1e9 / n));
    out.push(("wire.bytes_per_datagram", sample.wire_bytes() as f64 / n));

    // fuzzy: CTPH over the ELF images the collector hashed.
    let image_bytes: usize = sample.images.iter().map(|i| i.len()).sum();
    let hash = spans.span_n("fuzzy.fuzzy_hash", sample.images.len() as u32, |_| {
        median_secs(3, || {
            for image in &sample.images {
                black_box(fuzzy_hash(image));
            }
        })
    });
    out.push(("fuzzy.hash_mb_per_s", mb(image_bytes) / hash));

    // db + consolidate: the serial reference path, stage by stage.
    let messages = complete.len() as f64;
    let mut records = 0usize;
    let mut insert = Vec::new();
    let mut cons = Vec::new();
    for _ in 0..3 {
        let db = Database::in_memory();
        let batch = complete.clone();
        let start = Instant::now();
        spans.span("db.Database::insert_message_batch", |_| {
            db.insert_message_batch(batch)
        })?;
        insert.push(secs(start));
        let start = Instant::now();
        records = spans
            .span("consolidate.consolidate", |_| consolidate(&db))
            .records
            .len();
        cons.push(secs(start));
    }
    out.push(("db.insert_ns_per_message", median(&insert) * 1e9 / messages));
    out.push((
        "consolidate.us_per_record",
        median(&cons) * 1e6 / records as f64,
    ));

    // ingest: the tier on its own (in memory, no WAL), 1 vs 2 shards —
    // ROADMAP's open question on two cores.
    for (name, shards) in [
        ("ingest.shards1_datagrams_per_s", 1usize),
        ("ingest.shards2_datagrams_per_s", 2),
    ] {
        let mut rates = Vec::new();
        let mut finish = Vec::new();
        for _ in 0..3 {
            let feed = sample.messages.clone();
            let start = Instant::now();
            let mut service = IngestService::spawn(IngestConfig::with_shards(shards))?;
            spans.span_n("ingest.IngestService::push", feed.len() as u32, |_| {
                for m in feed {
                    service.push(m);
                }
            });
            let finishing = Instant::now();
            let result = spans.span("ingest.IngestService::finish", |_| service.finish())?;
            finish.push(secs(finishing));
            rates.push(n / secs(start));
            black_box(result.records.len());
        }
        out.push((name, median(&rates)));
        if shards == 1 {
            out.push(("ingest.finish_ms", median(&finish) * 1e3));
        }
    }

    // store: one epoch's rows as one sealed segment (what a commit
    // writes), against plain write + fsync of the same payload.
    let rows: Vec<Record> = complete.iter().cloned().map(Record::from).collect();
    let payload: Vec<u8> = rows.iter().flat_map(siren_store::Persist::encode).collect();
    let store_dir = scratch.join("store-probe");
    let opts = SegmentedOptions {
        background_compaction: false,
        ..SegmentedOptions::default()
    };
    let _ = std::fs::remove_dir_all(&store_dir);
    let (mut store, _, _) = SegmentedBackend::<Record>::open(&store_dir, opts)?;
    let mut writes = Vec::new();
    for _ in 0..opts.compact_min_files.max(4) {
        let start = Instant::now();
        spans.span("store.SegmentedBackend::append_sealed", |_| {
            store.append_sealed(&rows)
        })?;
        writes.push(secs(start));
    }
    let sealed = writes.len();
    let write_s = median(&writes);
    out.push(("store.write_mb_per_s", mb(payload.len()) / write_s));
    out.push((
        "store.write_amplification",
        crate::world::dir_bytes(&store_dir) as f64 / (payload.len() * sealed) as f64,
    ));
    drop(store);
    let start = Instant::now();
    let (mut store, recovered, _) = spans.span("store.SegmentedBackend::open", |_| {
        SegmentedBackend::<Record>::open(&store_dir, opts)
    })?;
    out.push((
        "store.open_records_per_s",
        recovered.len() as f64 / secs(start),
    ));
    drop(recovered);
    let start = Instant::now();
    spans.span("store.SegmentedBackend::compact_now", |_| {
        store.compact_now()
    })?;
    out.push(("store.compact_ms", secs(start) * 1e3));
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let floor_path = scratch.join("fsync-floor.bin");
    let floor = median_secs(4, || {
        let mut file = std::fs::File::create(&floor_path).expect("create floor file");
        file.write_all(&payload).expect("write floor file");
        file.sync_all().expect("fsync floor file");
    });
    let _ = std::fs::remove_file(&floor_path);
    out.push(("store.fsync_floor_mb_per_s", mb(payload.len()) / floor));
    out.push(("store.write_x_floor", write_s / floor));
    Ok(out)
}

/// Read-path layers on the committed corpus: fuzzy index, snapshot
/// build, plan execution, row codec, frame checksum — and the memcpy
/// and loopback-TCP floors over one export's frame bytes.
pub fn read_path(run: &mut Run, corpus: &[Vec<ProcessRecord>], catalog: &Catalog) -> Res<Values> {
    let mut out = Values::new();
    let spans = &mut run.spans;
    let epoch_records = |e: usize| -> Vec<EpochRecord> {
        corpus[e]
            .iter()
            .map(|record| EpochRecord {
                epoch: e as u64,
                record: record.clone(),
            })
            .collect()
    };
    let all: Vec<EpochRecord> = (0..corpus.len()).flat_map(epoch_records).collect();
    let total = all.len() as f64;

    // fuzzy: build and search the gram index a layer keeps.
    let hashes: Vec<FuzzyHash> = all
        .iter()
        .filter_map(|er| er.record.file_hash.as_deref())
        .filter_map(|h| FuzzyHash::parse(h).ok())
        .collect();
    let mut index = FuzzyIndex::build(&hashes);
    let build = median_secs(3, || {
        index = spans.span("fuzzy.FuzzyIndex::build", |_| FuzzyIndex::build(&hashes));
    });
    out.push((
        "fuzzy.index_build_us_per_hash",
        build * 1e6 / hashes.len() as f64,
    ));
    let probes: Vec<FuzzyHash> = catalog
        .hashes
        .iter()
        .filter_map(|h| FuzzyHash::parse(h).ok())
        .collect();
    let (mut scored, mut returned) = (0usize, 0usize);
    let mut search_us = Vec::new();
    spans.span_n(
        "fuzzy.FuzzyIndex::search_counted",
        probes.len() as u32,
        |_| {
            for probe in &probes {
                let start = Instant::now();
                let (hits, _) = index.search_counted(&hashes, probe, 50);
                search_us.push(secs(start) * 1e6);
                returned += hits.len();
                scored += index.candidates(probe).len();
            }
        },
    );
    out.push(("fuzzy.search_us_p50", median(&search_us)));
    out.push((
        "fuzzy.candidates_per_hit",
        scored as f64 / returned.max(1) as f64,
    ));

    // service: layer build, delta commit, full rebuild, plan execution.
    let last = corpus.len() - 1;
    let layer = median_secs(3, || {
        let records = epoch_records(last);
        spans.span("service.SnapshotLayer::build", |_| {
            black_box(SnapshotLayer::build(records));
        });
    });
    out.push((
        "service.layer_build_us_per_record",
        layer * 1e6 / corpus[last].len() as f64,
    ));
    let base = QuerySnapshot::build((0..last).flat_map(epoch_records).collect());
    let with_epoch = median_secs(3, || {
        let records = epoch_records(last);
        spans.span("service.QuerySnapshot::with_epoch", |_| {
            black_box(base.with_epoch(records));
        });
    });
    out.push(("service.with_epoch_ms", with_epoch * 1e3));
    drop(base);
    let mut snapshot = Arc::new(QuerySnapshot::empty());
    let rebuild = median_secs(3, || {
        let records = all.clone();
        snapshot = Arc::new(spans.span("service.QuerySnapshot::build", |_| {
            QuerySnapshot::build(records)
        }));
    });
    out.push(("service.snapshot_rebuild_records_per_s", total / rebuild));

    let mut rows: Vec<PlanRow> = Vec::new();
    let plan_rows = median_secs(3, || {
        rows = spans
            .span("service.QuerySnapshot::plan_rows", |_| {
                snapshot.plan_rows(export_plan())
            })
            .expect("export plan is valid");
    });
    out.push(("service.plan_rows_ns_per_row", plan_rows * 1e9 / total));
    let job_us: Vec<f64> = catalog
        .jobs
        .iter()
        .map(|&job| {
            let start = Instant::now();
            black_box(snapshot.plan_rows(QueryPlan::records().filter(Selection::all().job(job))))
                .expect("by-job plan is valid");
            secs(start) * 1e6
        })
        .collect();
    out.push(("service.job_plan_us_p50", median(&job_us)));
    let neighbor_us: Vec<f64> = catalog
        .hashes
        .iter()
        .map(|hash| {
            let start = Instant::now();
            black_box(snapshot.nearest_neighbors(hash, 10, 50));
            secs(start) * 1e6
        })
        .collect();
    out.push(("service.neighbors_us_p50", median(&neighbor_us)));

    // proto: the row path of one export — batch encode, frame, decode.
    let batches: Vec<QueryResponse> = rows
        .chunks(DEFAULT_BATCH_ROWS as usize)
        .map(|chunk| {
            QueryResponse::Batch(RowBatch::Records(
                chunk
                    .iter()
                    .filter_map(|row| row.clone().into_record())
                    .collect(),
            ))
        })
        .collect();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let encode = median_secs(3, || {
        bodies = spans.span_n(
            "proto.QueryResponse::encode_versioned",
            batches.len() as u32,
            |_| {
                batches
                    .iter()
                    .map(|b| b.encode_versioned(PROTOCOL_VERSION))
                    .collect()
            },
        );
    });
    out.push(("proto.batch_encode_ns_per_row", encode * 1e9 / total));
    let body_bytes: usize = bodies.iter().map(Vec::len).sum();
    out.push(("proto.bytes_per_row", body_bytes as f64 / total));
    let decode = median_secs(3, || {
        spans.span_n(
            "proto.QueryResponse::decode_versioned",
            bodies.len() as u32,
            |_| {
                for body in &bodies {
                    black_box(
                        QueryResponse::decode_versioned(body, PROTOCOL_VERSION)
                            .expect("own encoding decodes"),
                    );
                }
            },
        );
    });
    out.push(("proto.batch_decode_ns_per_row", decode * 1e9 / total));
    let mut framed: Vec<u8> = Vec::with_capacity(body_bytes + bodies.len() * 16);
    let frame = median_secs(5, || {
        framed.clear();
        spans.span_n("proto.write_frame", bodies.len() as u32, |_| {
            for body in &bodies {
                write_frame(&mut framed, body).expect("write to a Vec");
            }
        });
    });
    out.push(("proto.frame_write_mb_per_s", mb(framed.len()) / frame));

    // hash: the checksum frames, WAL and segment footers share, its
    // candidate replacement, and the memcpy floor — same frame bytes.
    let fnv = median_secs(5, || {
        black_box(siren_hash::fnv1a64(black_box(&framed)));
    });
    out.push(("hash.fnv1a64_mb_per_s", mb(framed.len()) / fnv));
    let xxh3 = median_secs(5, || {
        black_box(siren_hash::xxh3_128(black_box(&framed)));
    });
    out.push(("hash.xxh3_mb_per_s", mb(framed.len()) / xxh3));
    let mut sink = vec![0u8; framed.len()];
    let memcpy = median_secs(5, || {
        sink.copy_from_slice(black_box(&framed));
        black_box(&mut sink);
    });
    out.push(("hash.memcpy_floor_mb_per_s", mb(framed.len()) / memcpy));
    out.push(("proto.frame_write_x_memcpy", frame / memcpy));

    // loopback TCP floor: the same bytes through a raw socket pair.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let expect = framed.len();
    let loopback = std::thread::scope(|scope| -> Res<f64> {
        let reader = scope.spawn(move || -> std::io::Result<()> {
            let mut buf = vec![0u8; 64 * 1024];
            for _ in 0..5 {
                let (mut conn, _) = listener.accept()?;
                let mut got = 0usize;
                while got < expect {
                    let n = conn.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    got += n;
                }
                conn.write_all(&[1])?;
            }
            Ok(())
        });
        let mut samples = Vec::new();
        for _ in 0..5 {
            let mut conn = TcpStream::connect(addr)?;
            let start = Instant::now();
            conn.write_all(&framed)?;
            conn.read_exact(&mut [0u8; 1])?;
            samples.push(secs(start));
        }
        reader.join().map_err(|_| "loopback reader panicked")??;
        Ok(median(&samples))
    })?;
    out.push(("proto.loopback_floor_mb_per_s", mb(framed.len()) / loopback));
    Ok(out)
}

/// The serving tier as a client sees it, against the live fleet:
/// handshake, request floor, cursor paging, and the router's own cost
/// without `RouterDaemon`'s re-encode.
pub fn serving(run: &mut Run, fleet: &Fleet) -> Res<Values> {
    let mut out = Values::new();
    let spans = &mut run.spans;
    let addr = fleet.union_addr()?;

    let connect_us: Vec<f64> = (0..200)
        .map(|_| -> Res<f64> {
            let start = Instant::now();
            let client =
                spans.span("proto.SirenClient::connect", |_| SirenClient::connect(addr))?;
            let us = secs(start) * 1e6;
            drop(client);
            Ok(us)
        })
        .collect::<Res<_>>()?;
    out.push(("reactor.connect_us_p50", median(&connect_us)));

    let mut client = SirenClient::connect(addr)?;
    let status_us: Vec<f64> = (0..2_000)
        .map(|_| -> Res<f64> {
            let start = Instant::now();
            client.status()?;
            Ok(secs(start) * 1e6)
        })
        .collect::<Res<_>>()?;
    out.push(("proto.status_rtt_us_p50", median(&status_us)));

    // Cursor paging: drain the corpus in default-size pages and time
    // each `next()` that crosses a page boundary (a `FetchCursor`).
    let page = siren_proto::DEFAULT_PAGE_ROWS as usize;
    let mut fetch_ms = Vec::new();
    spans.span("proto.SirenClient::query(paged)", |_| -> Res<()> {
        let mut stream = client.query(QueryPlan::records())?;
        let mut i = 0usize;
        loop {
            let start = Instant::now();
            let Some(row) = stream.next() else { break };
            row?;
            if i > 0 && i.is_multiple_of(page) {
                fetch_ms.push(secs(start) * 1e3);
            }
            i += 1;
        }
        Ok(())
    })?;
    out.push(("reactor.fetch_page_ms_p50", median(&fetch_ms)));

    // Cursor close: read one small page of a large answer, then time
    // the drop (a `CloseCursor` round trip).
    let mut close_us = Vec::new();
    for _ in 0..200 {
        let mut stream = client.query(QueryPlan::records().page_rows(32))?;
        for row in stream.by_ref().take(32) {
            row?;
        }
        let start = Instant::now();
        drop(stream);
        close_us.push(secs(start) * 1e6);
    }
    out.push(("reactor.close_cursor_us_p50", median(&close_us)));
    drop(client);

    // federation: the embedded router (no second wire hop), and the
    // k-way merge alone over pre-decoded shard streams.
    let addrs = shard_addrs(&fleet.shards)?;
    let router = Router::new(FleetConfig::sharded(addrs.clone()))?;
    let mut rows = 0usize;
    let embedded = median_secs(3, || {
        let stream = spans
            .span("federation.Router::query", |_| router.query(export_plan()))
            .expect("fleet is healthy");
        rows = stream.collect_rows_warned().0.len();
    });
    out.push(("federation.router_rows_per_s", rows as f64 / embedded));
    let streams: Vec<Vec<PlanRow>> = addrs
        .iter()
        .map(|&shard| -> Res<Vec<PlanRow>> {
            Ok(SirenClient::connect(shard)?
                .query(export_plan())?
                .collect_rows()?)
        })
        .collect::<Res<_>>()?;
    let merge = median_secs(3, || {
        let mut heads: Vec<std::iter::Peekable<std::slice::Iter<PlanRow>>> =
            streams.iter().map(|s| s.iter().peekable()).collect();
        let mut merged = 0usize;
        loop {
            let mut best: Option<usize> = None;
            for i in 0..heads.len() {
                let Some(row) = heads[i].peek().copied() else {
                    continue;
                };
                let better = match best {
                    Some(b) => {
                        let held = heads[b].peek().copied().expect("best head is live");
                        plan_row_cmp(Order::Commit, row, held).is_lt()
                    }
                    None => true,
                };
                if better {
                    best = Some(i);
                }
            }
            let Some(b) = best else { break };
            black_box(heads[b].next());
            merged += 1;
        }
        black_box(merged);
    });
    out.push((
        "federation.merge_ns_per_row",
        merge * 1e9 / rows.max(1) as f64,
    ));
    Ok(out)
}

/// Cost of recording one span: `siren-obs`'s flight recorder, and this
/// benchmark's own recorder (which bounds how far traced numbers can
/// be trusted).
pub fn span_costs(run: &Run) -> (f64, f64) {
    let store = siren_obs::TraceStore::default();
    let buffer = store.buffer();
    let calls = 100_000;
    let start = Instant::now();
    for _ in 0..calls {
        black_box(buffer.root("bench.span", None));
    }
    let obs_ns = secs(start) * 1e9 / calls as f64;
    let mut own = run.spans.fork(u32::MAX);
    let start = Instant::now();
    for _ in 0..calls {
        let token = own.enter("bench.span", 1);
        own.exit(token);
    }
    let own_ns = secs(start) * 1e9 / calls as f64;
    (obs_ns, own_ns)
}
