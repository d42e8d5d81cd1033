//! The daemon: epoch lifecycle over a segmented consolidated-record
//! store.

use crate::maintain::SnapshotMaintainer;
use crate::metrics::ServiceMetrics;
use crate::server::QueryServer;
use crate::snapshot::QuerySnapshot;
use parking_lot::RwLock;
use siren_consolidate::{ConsolidateStats, ProcessRecord};
use siren_ingest::{IngestConfig, IngestMetrics, IngestService, IngestTraceContext, ShardStats};
use siren_net::UdpReceiver;
use siren_obs::{Counter, MetricsSnapshot, Span, SpanId, TraceFilter, TraceId, TraceTree};
use siren_proto::StatusInfo;
use siren_store::{Persist, RecoveryStats, SegmentedBackend, SegmentedOptions, StoreMetrics};
use siren_wire::{parse_sentinel, parse_sentinel_epoch, Message, MessageType};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One consolidated process record, tagged with the epoch (campaign)
/// that produced it — the unit of the daemon's persistent store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch the record was committed under.
    pub epoch: u64,
    /// The consolidated record.
    pub record: ProcessRecord,
}

/// What the consolidated store physically holds: the epoch's rows plus
/// one **seal** marker written in the same atomic segment. The seal is
/// what makes "epoch N committed" durable even when the epoch produced
/// zero records (every datagram lost) — without it, a restarted daemon
/// would re-derive committed epochs from row tags alone, forget the
/// empty epoch, and hand its id out again.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StoredItem {
    /// One consolidated row of an epoch (boxed: rows are two orders
    /// of magnitude larger than seals).
    Row(Box<EpochRecord>),
    /// Commit marker: every row of this epoch precedes it.
    Seal(u64),
}

impl StoredItem {
    fn epoch(&self) -> u64 {
        match self {
            StoredItem::Row(row) => row.epoch,
            StoredItem::Seal(epoch) => *epoch,
        }
    }

    /// Rows sort before the seal within an epoch.
    fn kind_tag(&self) -> u8 {
        match self {
            StoredItem::Row(_) => 0,
            StoredItem::Seal(_) => 1,
        }
    }
}

impl Persist for StoredItem {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StoredItem::Row(row) => {
                out.push(0);
                out.extend_from_slice(&row.epoch.to_le_bytes());
                row.record.encode_into(out);
            }
            StoredItem::Seal(epoch) => {
                out.push(1);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    fn decode(data: &[u8]) -> Option<Self> {
        let epoch = u64::from_le_bytes(data.get(1..9)?.try_into().ok()?);
        match data.first()? {
            0 => Some(StoredItem::Row(Box::new(EpochRecord {
                epoch,
                record: ProcessRecord::decode(data.get(9..)?)?,
            }))),
            1 if data.len() == 9 => Some(StoredItem::Seal(epoch)),
            _ => None,
        }
    }

    fn order(a: &Self, b: &Self) -> std::cmp::Ordering {
        // Epoch, then rows-before-seal, then the consolidation order —
        // within one epoch row keys are unique (consolidation groups by
        // them), so this is effectively total; the stable compaction
        // sort breaks any remaining tie by arrival.
        a.epoch()
            .cmp(&b.epoch())
            .then_with(|| a.kind_tag().cmp(&b.kind_tag()))
            .then_with(|| match (a, b) {
                (StoredItem::Row(x), StoredItem::Row(y)) => {
                    siren_consolidate::record_order(&x.record, &y.record)
                }
                _ => std::cmp::Ordering::Equal,
            })
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory holding everything the daemon persists: the
    /// consolidated-record store under `consolidated/` and per-epoch
    /// shard WALs beside it.
    pub data_dir: PathBuf,
    /// Ingest shards per epoch (clamped to the hardware by default, as
    /// in [`IngestConfig`]).
    pub shards: usize,
    /// Distinct sender ids whose `TYPE=END` sentinels close an epoch
    /// (one per collector stream feeding the campaign).
    pub expected_senders: usize,
    /// Consolidated-store tuning.
    pub store: SegmentedOptions,
    /// When set, the daemon serves the versioned TCP query protocol on
    /// this address (bind `127.0.0.1:0` for an ephemeral test port; the
    /// bound address is [`SirenDaemon::query_addr`]).
    pub query_addr: Option<SocketAddr>,
    /// Accepted connections waiting for event-loop registration;
    /// connections beyond it are refused, never buffered without
    /// bound.
    pub query_backlog: usize,
    /// Per-connection read/write deadline (bounds idle clients, slow
    /// consumers, and request handling alike — including every batch
    /// write of a v2 row stream).
    pub query_deadline: Duration,
    /// How long a paginated v2 cursor may sit idle between fetches
    /// before the server evicts it (and drops the snapshot it pins).
    pub cursor_ttl: Duration,
    /// Most cursors parked at once; past it the stalest is evicted so
    /// abandoned clients cannot pin unbounded snapshot memory.
    pub query_max_cursors: usize,
    /// Silence on the UDP ingest loop ([`SirenDaemon::drain_udp`])
    /// after which an open epoch is committed without its sentinel
    /// quorum — the fallback for campaigns whose every `TYPE=END` copy
    /// was lost. Each use is counted and surfaced in the `Status` query.
    pub quiet_period: Duration,
    /// Requests slower than this land in the bounded slow-query log
    /// surfaced through the `Metrics` reply (plan fingerprint, selection
    /// shape, rows, duration — never predicate values). `Duration::ZERO`
    /// logs every streaming request; tests use that to exercise the ring.
    pub slow_query_threshold: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            data_dir: PathBuf::from("siren-service-data"),
            shards: 1,
            expected_senders: 1,
            store: SegmentedOptions::default(),
            query_addr: None,
            query_backlog: 64,
            query_deadline: Duration::from_secs(5),
            cursor_ttl: Duration::from_secs(60),
            query_max_cursors: 256,
            quiet_period: Duration::from_secs(10),
            slow_query_threshold: Duration::from_millis(100),
        }
    }
}

impl ServiceConfig {
    /// Config rooted at `data_dir`, defaults elsewhere.
    pub fn at(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            ..Self::default()
        }
    }

    fn consolidated_dir(&self) -> PathBuf {
        self.data_dir.join("consolidated")
    }

    /// Base path of epoch `epoch`'s message WALs; the ingest tier
    /// appends `.shard<i>`. The shard count is baked into the name so a
    /// restart resumes with the partitioning the files were written
    /// under, even if the configured count changed in between.
    fn epoch_msgs_base(&self, epoch: u64, shards: usize) -> PathBuf {
        self.data_dir
            .join(format!("epoch-{epoch:010}.s{shards}.msgs"))
    }
}

/// Parse `epoch-<K>.s<N>.msgs.shard<i>` → `(K, N)`.
fn parse_epoch_msgs_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("epoch-")?;
    let (epoch, rest) = rest.split_once(".s")?;
    let (shards, rest) = rest.split_once(".msgs.shard")?;
    rest.parse::<usize>().ok()?;
    Some((epoch.parse().ok()?, shards.parse().ok()?))
}

/// What a daemon found on startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonRecovery {
    /// Epochs whose records were recovered from the consolidated store.
    pub committed_epochs: Vec<u64>,
    /// Consolidated records loaded.
    pub consolidated_records: u64,
    /// Consolidated-store recovery detail (torn tails, segments, runs).
    pub store: RecoveryStats,
    /// The uncommitted epoch resumed from its message WALs, if any.
    /// Its already-received rows are replayed into the epoch's ingest
    /// partitions; re-sending the campaign (duplicates included) then
    /// converges on the crash-free result.
    pub resumed_epoch: Option<u64>,
    /// Message WALs deleted because their epoch was already committed
    /// (the crash hit between commit and cleanup).
    pub stale_epoch_wals_removed: usize,
}

/// Everything the daemon reports about one committed epoch.
#[derive(Debug)]
pub struct EpochSummary {
    /// The epoch id.
    pub epoch: u64,
    /// Consolidated records committed under this epoch.
    pub records: u64,
    /// Consolidation statistics.
    pub consolidate_stats: ConsolidateStats,
    /// Per-shard ingest telemetry (replay, backpressure, reassembly).
    pub shard_stats: Vec<ShardStats>,
    /// `TYPE=END` sentinel datagrams observed (all copies).
    pub sentinels_seen: u64,
    /// Distinct sender ids that announced end-of-campaign.
    pub senders_closed: usize,
    /// Sentinels whose epoch tag disagreed with the open epoch.
    pub epoch_tag_mismatches: u64,
}

/// No-open-epoch marker inside [`SharedState::open_epoch`].
const NO_EPOCH: u64 = u64::MAX;

/// The state the daemon shares with the query-server threads: the
/// current snapshot behind an atomic swap, plus live ingest-health
/// counters.
///
/// Concurrency model: the `RwLock` guards only the `Arc` *pointer* —
/// readers hold it just long enough to clone the `Arc`, then run the
/// whole query against their private, immutable snapshot with no locks
/// at all. A commit builds the next snapshot off to the side and swaps
/// the pointer; in-flight queries keep answering from the snapshot they
/// started with, so queries and epoch commits never wait on each other.
#[derive(Debug)]
pub(crate) struct SharedState {
    snapshot: RwLock<Arc<QuerySnapshot>>,
    open_epoch: AtomicU64,
    /// Sealed consolidated-store footprint in bytes, refreshed at open
    /// and after every commit. The reactor tier reads it to stamp
    /// `SubscribeEnd.leader_bytes` without touching the store itself;
    /// followers subtract their own figure to report `repl.lag_bytes`.
    sealed_bytes: AtomicU64,
    /// Registry-backed (`service.epoch_tag_mismatches` /
    /// `service.quiet_period_fallbacks`): a `Status` answer and a
    /// `Metrics` snapshot read the very same atomics, so the two views
    /// can never disagree.
    epoch_tag_mismatches: Arc<Counter>,
    quiet_period_fallbacks: Arc<Counter>,
}

impl SharedState {
    fn new(snapshot: Arc<QuerySnapshot>, metrics: &ServiceMetrics) -> Self {
        Self {
            snapshot: RwLock::new(snapshot),
            open_epoch: AtomicU64::new(NO_EPOCH),
            sealed_bytes: AtomicU64::new(0),
            epoch_tag_mismatches: Arc::clone(&metrics.epoch_tag_mismatches),
            quiet_period_fallbacks: Arc::clone(&metrics.quiet_period_fallbacks),
        }
    }

    /// The sealed-store footprint last published by the daemon.
    pub(crate) fn sealed_bytes(&self) -> u64 {
        self.sealed_bytes.load(Ordering::Relaxed)
    }

    fn publish_sealed_bytes(&self, bytes: u64) {
        self.sealed_bytes.store(bytes, Ordering::Relaxed);
    }

    /// The current snapshot (a cheap `Arc` clone).
    pub(crate) fn load(&self) -> Arc<QuerySnapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Publish a new snapshot (the epoch-commit pointer swap).
    fn store(&self, snapshot: Arc<QuerySnapshot>) {
        *self.snapshot.write() = snapshot;
    }

    /// Publish `next` only if the current snapshot is still `expected`
    /// — the background merger's optimistic swap. A pointer mismatch
    /// means an epoch committed meanwhile; the stale merge must be
    /// discarded, never allowed to roll that epoch back.
    pub(crate) fn replace_if(
        &self,
        expected: &Arc<QuerySnapshot>,
        next: Arc<QuerySnapshot>,
    ) -> bool {
        let mut guard = self.snapshot.write();
        if Arc::ptr_eq(&guard, expected) {
            *guard = next;
            true
        } else {
            false
        }
    }

    /// A `Status` answer minus the query-traffic counters: store shape
    /// (committed epochs, record count) from one loaded snapshot, so
    /// the answer is self-consistent, plus the live ingest counters.
    pub(crate) fn status(&self, protocol_version: u16) -> StatusInfo {
        let open = self.open_epoch.load(Ordering::Relaxed);
        let snapshot = self.load();
        StatusInfo {
            protocol_version,
            committed_epochs: snapshot.epochs(),
            records: snapshot.len() as u64,
            open_epoch: (open != NO_EPOCH).then_some(open),
            epoch_tag_mismatches: self.epoch_tag_mismatches.get(),
            quiet_period_fallbacks: self.quiet_period_fallbacks.get(),
            ..StatusInfo::default()
        }
    }
}

struct OpenEpoch {
    epoch: u64,
    /// The exact ingest configuration the epoch runs under — kept so
    /// commit-time cleanup can ask it (and only it) where the shard
    /// partitions live.
    ingest_cfg: IngestConfig,
    service: IngestService,
    senders_seen: BTreeSet<u32>,
    sentinels_seen: u64,
    epoch_tag_mismatches: u64,
    /// The epoch's root span (`epoch.ingest`), opened when the epoch
    /// spawns and finished when the commit lands — every shard-worker
    /// `reassembly`/`wal_insert`/`fold` span and the
    /// `recv`/`commit`/`publish` children hang under it, so one `Traces`
    /// query shows the whole epoch pipeline.
    span: Span,
    /// When the epoch opened — the start of the `recv` child span
    /// recorded at close (the receive window is over by then).
    opened_at: Instant,
}

/// The long-running ingest daemon. See the crate docs for the lifecycle.
pub struct SirenDaemon {
    cfg: ServiceConfig,
    store: SegmentedBackend<StoredItem>,
    committed: BTreeSet<u64>,
    open: Option<OpenEpoch>,
    /// Committed records live in the layered snapshot published here;
    /// the daemon reads the current snapshot back from the shared state
    /// at each commit so background layer merges are picked up rather
    /// than overwritten.
    shared: Arc<SharedState>,
    maintainer: SnapshotMaintainer,
    server: Option<QueryServer>,
    /// The daemon-wide metric handles and their registry; store and
    /// ingest handles are registered into the same registry, so one
    /// snapshot covers the whole pipeline.
    metrics: ServiceMetrics,
    /// The registered `ingest.*` handles every epoch's ingest service
    /// records into.
    ingest_metrics: IngestMetrics,
}

impl SirenDaemon {
    /// Open (or create) the daemon at `cfg.data_dir`, running recovery:
    /// committed epochs come back from the consolidated store (their
    /// seal markers survive even for zero-record epochs), and an epoch
    /// that was mid-stream at the crash is resumed from its shard WALs.
    pub fn open(cfg: ServiceConfig) -> std::io::Result<(Self, DaemonRecovery)> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let metrics = ServiceMetrics::new();
        let ingest_metrics = IngestMetrics::register(&metrics.registry);
        let (store, items, store_stats) = SegmentedBackend::<StoredItem>::open_with_metrics(
            &cfg.consolidated_dir(),
            cfg.store,
            StoreMetrics::register(&metrics.registry)
                .with_spans(Arc::clone(metrics.traces.buffer())),
        )?;
        let mut records: Vec<EpochRecord> = Vec::with_capacity(items.len());
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        for item in items {
            // Defensive union: rows imply the commit too (a seal can
            // only be missing if the store predates it or was damaged).
            committed.insert(item.epoch());
            if let StoredItem::Row(row) = item {
                records.push(*row);
            }
        }

        let mut recovery = DaemonRecovery {
            committed_epochs: committed.iter().copied().collect(),
            consolidated_records: records.len() as u64,
            store: store_stats,
            ..DaemonRecovery::default()
        };

        // Leftover epoch message WALs: stale for committed epochs,
        // resumable for the (single) uncommitted one.
        let mut leftovers: BTreeSet<(u64, usize)> = BTreeSet::new();
        for entry in std::fs::read_dir(&cfg.data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((epoch, shards)) = parse_epoch_msgs_name(name) {
                if committed.contains(&epoch) {
                    // Survivable: the epoch is already durable in the
                    // sealed store, so a failed unlink of its raw
                    // message WAL costs disk, not correctness. Count
                    // it and keep recovering — the next open retries.
                    if std::fs::remove_file(entry.path()).is_err() {
                        metrics.io_errors.inc();
                    } else {
                        recovery.stale_epoch_wals_removed += 1;
                    }
                } else {
                    leftovers.insert((epoch, shards));
                }
            }
        }

        // Recovery is the one unavoidable O(total records) build: the
        // whole store was just read back anyway. Every later commit
        // stacks an O(epoch) layer instead.
        let snapshot = Arc::new(QuerySnapshot::build(records));
        let shared = Arc::new(SharedState::new(snapshot, &metrics));
        let maintainer = SnapshotMaintainer::spawn(
            Arc::clone(&shared),
            Arc::clone(&metrics.snapshot_merges),
            Arc::clone(&metrics.merge_ns),
            Arc::clone(metrics.traces.buffer()),
        )?;
        let mut daemon = Self {
            cfg,
            store,
            committed,
            open: None,
            shared,
            maintainer,
            server: None,
            metrics,
            ingest_metrics,
        };
        daemon
            .shared
            .publish_sealed_bytes(daemon.store.sealed_bytes());

        // Resume the newest uncommitted epoch; commit any older ones
        // outright (their campaigns ended with the crash).
        if let Some(&(resume, resume_shards)) = leftovers.iter().next_back() {
            for &(epoch, shards) in leftovers.iter().rev().skip(1) {
                daemon.open = Some(daemon.spawn_epoch(epoch, shards)?);
                daemon.close_epoch()?;
            }
            daemon.open = Some(daemon.spawn_epoch(resume, resume_shards)?);
            recovery.resumed_epoch = Some(resume);
        }

        // Serve queries only once recovery has settled (clients must
        // never observe a half-recovered store).
        if let Some(addr) = daemon.cfg.query_addr {
            daemon.server = Some(QueryServer::spawn(
                addr,
                Arc::clone(&daemon.shared),
                &daemon.cfg,
                daemon.metrics.clone(),
            )?);
        }
        Ok((daemon, recovery))
    }

    fn spawn_epoch(&self, epoch: u64, shards: usize) -> std::io::Result<OpenEpoch> {
        let mut span = self.metrics.traces.buffer().root("epoch.ingest", None);
        span.annotate("epoch", &epoch.to_string());
        let ingest_cfg = IngestConfig {
            wal_base: Some(self.cfg.epoch_msgs_base(epoch, shards)),
            metrics: self.ingest_metrics.clone(),
            trace: Some(IngestTraceContext {
                buffer: Arc::clone(self.metrics.traces.buffer()),
                trace: span.trace(),
                parent: span.id(),
            }),
            ..IngestConfig::with_shards_unclamped(shards)
        };
        let service = IngestService::spawn(ingest_cfg.clone())?;
        self.shared.open_epoch.store(epoch, Ordering::Relaxed);
        Ok(OpenEpoch {
            epoch,
            ingest_cfg,
            service,
            senders_seen: BTreeSet::new(),
            sentinels_seen: 0,
            epoch_tag_mismatches: 0,
            span,
            opened_at: Instant::now(),
        })
    }

    /// The epoch a new campaign would open under.
    fn next_epoch(&self) -> u64 {
        let committed_max = self.committed.iter().next_back().copied();
        match committed_max {
            Some(e) => e + 1,
            None => 0,
        }
    }

    /// Begin a new epoch explicitly. Idempotent: returns the already-open
    /// epoch if one exists (including a crash-resumed one).
    pub fn begin_epoch(&mut self) -> std::io::Result<u64> {
        if let Some(open) = &self.open {
            return Ok(open.epoch);
        }
        let epoch = self.next_epoch();
        let shards = self.cfg.shards.max(1);
        // Honor the hardware clamp for fresh epochs; resumed epochs keep
        // the shard count baked into their file names.
        let shards = IngestConfig::with_shards(shards).effective_shards();
        self.open = Some(self.spawn_epoch(epoch, shards)?);
        Ok(epoch)
    }

    /// The currently open epoch, if any.
    pub fn open_epoch(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.epoch)
    }

    /// Epochs committed to the consolidated store, ascending.
    pub fn committed_epochs(&self) -> Vec<u64> {
        self.committed.iter().copied().collect()
    }

    /// Deliver one decoded message. Payload messages open an epoch on
    /// demand and stream into its ingest service; `TYPE=END` sentinels
    /// are tallied per sender and close the epoch once
    /// [`ServiceConfig::expected_senders`] distinct senders have
    /// announced end-of-campaign — the returned summary is the commit
    /// receipt. A sentinel whose epoch tag disagrees with the open epoch
    /// is a straggler from another campaign (reordered delivery): it is
    /// counted and otherwise ignored, never trusted to close an epoch it
    /// does not name.
    pub fn push(&mut self, msg: Message) -> std::io::Result<Option<EpochSummary>> {
        if msg.header.mtype == MessageType::End {
            let expected = self.cfg.expected_senders.max(1);
            let Some(open) = self.open.as_mut() else {
                return Ok(None); // stray sentinel outside any epoch
            };
            open.sentinels_seen += 1;
            if let Some((sender, _sent)) = parse_sentinel(&msg) {
                if let Some(tag) = parse_sentinel_epoch(&msg) {
                    if tag != open.epoch {
                        open.epoch_tag_mismatches += 1;
                        // Counted live into the shared state too, so a
                        // `Status` query sees it before the epoch closes.
                        self.shared.epoch_tag_mismatches.inc();
                        return Ok(None);
                    }
                }
                open.senders_seen.insert(sender);
                if open.senders_seen.len() >= expected {
                    return self.close_epoch().map(Some);
                }
            }
            return Ok(None);
        }
        if self.open.is_none() {
            self.begin_epoch()?;
        }
        let open = self.open.as_mut().expect("epoch opened above");
        open.service.push(msg);
        Ok(None)
    }

    /// Decode and deliver one datagram. An undecodable datagram is
    /// dropped silently (exactly as a UDP receiver would shed it); a
    /// storage failure is a real daemon fault and propagates.
    pub fn push_datagram(&mut self, datagram: &[u8]) -> std::io::Result<Option<EpochSummary>> {
        match Message::decode(datagram) {
            Ok(msg) => self.push(msg),
            Err(_) => Ok(None),
        }
    }

    /// Close the open epoch: drain and join the ingest shards (whose
    /// folds only have their script merge and sort left), merge their
    /// records, commit them atomically to the consolidated store, and
    /// only then delete the epoch's message WALs.
    pub fn close_epoch(&mut self) -> std::io::Result<EpochSummary> {
        let open = self.open.take().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no epoch is open")
        })?;
        // The epoch is no longer open whatever happens next; clearing
        // the shared marker here (not only on commit) keeps a failed
        // close from leaving `Status` reporting a phantom open epoch.
        self.shared.open_epoch.store(NO_EPOCH, Ordering::Relaxed);
        let OpenEpoch {
            epoch,
            ingest_cfg,
            service,
            senders_seen,
            sentinels_seen,
            epoch_tag_mismatches,
            span,
            opened_at,
        } = open;

        // The receive window is over: everything the campaign will
        // deliver is already in the shard channels.
        self.metrics.traces.buffer().record_past(
            span.trace(),
            Some(span.id()),
            "recv",
            opened_at,
            opened_at.elapsed(),
        );
        let result = service.finish()?;
        let records = result.records.len() as u64;
        let epoch_records: Vec<EpochRecord> = result
            .records
            .into_iter()
            .map(|record| EpochRecord { epoch, record })
            .collect();

        self.commit_records(epoch, epoch_records, Some((span.trace(), span.id())))?;
        // The epoch root span closes once the commit is durable and
        // published — its duration is the campaign end to end.
        span.finish();
        // Only now is it safe to drop the raw messages. The partition
        // paths come from the ingest config itself, so this deletes
        // exactly what the workers wrote. A failed unlink is
        // survivable — the epoch is already sealed, and recovery
        // removes stale WALs for committed epochs on the next open —
        // so it is counted, not propagated: failing a durable commit
        // over cleanup would un-commit good data.
        for shard in 0..ingest_cfg.effective_shards() {
            if let Some(path) = ingest_cfg.shard_wal_path(shard) {
                if path.exists() && std::fs::remove_file(&path).is_err() {
                    self.metrics.io_errors.inc();
                }
            }
        }

        Ok(EpochSummary {
            epoch,
            records,
            consolidate_stats: result.stats,
            shard_stats: result.shard_stats,
            sentinels_seen,
            senders_closed: senders_seen.len(),
            epoch_tag_mismatches,
        })
    }

    /// Bulk-import already-consolidated records as one committed epoch,
    /// bypassing ingest — the backfill/migration path (also what the
    /// query benchmarks populate a daemon with). The commit is exactly
    /// an epoch close: one atomic sealed segment, then the snapshot
    /// swap. Refused while an epoch is ingesting.
    pub fn import_epoch(&mut self, records: Vec<ProcessRecord>) -> std::io::Result<u64> {
        if self.open.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot import while an epoch is ingesting",
            ));
        }
        let epoch = self.next_epoch();
        let mut span = self.metrics.traces.buffer().root("epoch.import", None);
        span.annotate("epoch", &epoch.to_string());
        let epoch_records: Vec<EpochRecord> = records
            .into_iter()
            .map(|record| EpochRecord { epoch, record })
            .collect();
        self.commit_records(epoch, epoch_records, Some((span.trace(), span.id())))?;
        span.finish();
        Ok(epoch)
    }

    /// [`import_epoch`](Self::import_epoch) pinned to an explicit epoch
    /// id — the replication apply path. Idempotent on re-delivery:
    /// returns `Ok(false)` without touching the store when `epoch` is
    /// already committed (a follower replaying a stream after a crash
    /// simply skips what it already has). Refused while an epoch is
    /// ingesting, and refused with `InvalidInput` when `epoch` would
    /// leave a gap — committed epochs must stay contiguous or recovery's
    /// "rows imply the commit" union would invent history.
    pub fn import_epoch_at(
        &mut self,
        epoch: u64,
        records: Vec<ProcessRecord>,
    ) -> std::io::Result<bool> {
        if self.open.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot import while an epoch is ingesting",
            ));
        }
        if self.committed.contains(&epoch) {
            return Ok(false);
        }
        let expected = self.next_epoch();
        if epoch != expected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("import at epoch {epoch} would leave a gap (next is {expected})"),
            ));
        }
        let mut span = self.metrics.traces.buffer().root("epoch.import", None);
        span.annotate("epoch", &epoch.to_string());
        let epoch_records: Vec<EpochRecord> = records
            .into_iter()
            .map(|record| EpochRecord { epoch, record })
            .collect();
        self.commit_records(epoch, epoch_records, Some((span.trace(), span.id())))?;
        span.finish();
        Ok(true)
    }

    /// The shared commit point: one atomic segment (fsync + rename
    /// inside) holding the epoch's rows plus its seal marker, then the
    /// snapshot publish. Cost is O(this epoch): the records move into
    /// the store items and back out into the new snapshot layer without
    /// a single clone, and `with_epoch` reuses every existing layer by
    /// `Arc` instead of re-indexing the whole history.
    fn commit_records(
        &mut self,
        epoch: u64,
        epoch_records: Vec<EpochRecord>,
        trace: Option<(TraceId, SpanId)>,
    ) -> std::io::Result<()> {
        let mut items: Vec<StoredItem> = epoch_records
            .into_iter()
            .map(|row| StoredItem::Row(Box::new(row)))
            .collect();
        items.push(StoredItem::Seal(epoch));
        let commit_start = Instant::now();
        self.store.append_sealed(&items)?;
        self.shared.publish_sealed_bytes(self.store.sealed_bytes());
        let commit_elapsed = commit_start.elapsed();
        self.metrics.commit_ns.record_duration(commit_elapsed);
        if let Some((trace, parent)) = trace {
            self.metrics.traces.buffer().record_past(
                trace,
                Some(parent),
                "commit",
                commit_start,
                commit_elapsed,
            );
        }
        let epoch_records: Vec<EpochRecord> = items
            .into_iter()
            .filter_map(|item| match item {
                StoredItem::Row(row) => Some(*row),
                StoredItem::Seal(_) => None,
            })
            .collect();

        self.committed.insert(epoch);
        self.metrics.epochs_committed.inc();
        self.metrics
            .records_committed
            .add(epoch_records.len() as u64);
        // Publish: build the successor snapshot off to the side, then
        // swap the shared pointer. Queries in flight keep the snapshot
        // they started with; new queries see the epoch atomically. The
        // base is re-read from the shared state so a background layer
        // merge published since the last commit is kept, not clobbered.
        let publish_start = Instant::now();
        let next = Arc::new(self.shared.load().with_epoch(epoch_records));
        self.shared.store(next);
        let publish_elapsed = publish_start.elapsed();
        self.metrics.publish_ns.record_duration(publish_elapsed);
        if let Some((trace, parent)) = trace {
            self.metrics.traces.buffer().record_past(
                trace,
                Some(parent),
                "publish",
                publish_start,
                publish_elapsed,
            );
        }
        self.shared.open_epoch.store(NO_EPOCH, Ordering::Relaxed);
        self.maintainer.ping();
        Ok(())
    }

    /// The current immutable query snapshot. The returned `Arc` stays
    /// valid (and internally consistent) however many epochs commit
    /// after it — clone it into as many reader threads as needed.
    pub fn snapshot(&self) -> Arc<QuerySnapshot> {
        self.shared.load()
    }

    /// Layers stacked in the current snapshot (bounded by the
    /// background merger; a fan-out diagnostic for tests and ops).
    pub fn snapshot_layers(&self) -> usize {
        self.shared.load().layer_count()
    }

    /// Background layer merges performed so far.
    pub fn snapshot_merges(&self) -> u64 {
        self.maintainer.merges()
    }

    /// Live ingest-health counters as a `Status` answer would carry
    /// them (protocol version 0 = in-process) — exactly the wire
    /// answer's code path, so the two can never diverge. When the
    /// query server is up, the query-traffic counters (refused
    /// connections, open cursors, negotiated-version histogram) are
    /// filled in exactly as a wire answer would carry them.
    pub fn status(&self) -> StatusInfo {
        let mut status = self.shared.status(0);
        if let Some(server) = &self.server {
            server.fill_traffic_counters(&mut status);
        }
        status
    }

    /// The full pipeline telemetry snapshot — every `store.*`,
    /// `ingest.*`, `service.*`, `query.*`, and `cursor.*` series this
    /// daemon's components have registered, plus the slow-query log.
    /// Exactly what a wire `Metrics` request returns, read from the
    /// same registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// Reassembled trace trees from the daemon's span flight recorder —
    /// exactly what a wire `Traces` request returns, read from the same
    /// ring. Covers request traces (plan/fetch/serialize), epoch
    /// pipelines (`epoch.ingest` with recv/reassembly/wal_insert/fold/
    /// commit/publish children), and background work (layer merges,
    /// store compaction).
    pub fn traces(&self, filter: &TraceFilter) -> Vec<TraceTree> {
        self.metrics.traces.traces(filter)
    }

    /// The address the embedded query server is listening on, if
    /// [`ServiceConfig::query_addr`] was set.
    pub fn query_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(QueryServer::local_addr)
    }

    /// Sealed consolidated-store bytes on disk — the replication
    /// "bytes behind" yardstick ([`StatusInfo::repl_lag_bytes`] is the
    /// leader's figure minus the follower's).
    ///
    /// [`StatusInfo::repl_lag_bytes`]: siren_proto::StatusInfo
    pub fn sealed_bytes(&self) -> u64 {
        self.shared.sealed_bytes()
    }

    /// The daemon's metric handles, for in-crate tiers (the replicator)
    /// that record into the same registry the wire `Metrics` reply
    /// snapshots.
    pub(crate) fn service_metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Protocol requests the query server has answered so far.
    pub fn queries_served(&self) -> u64 {
        self.server
            .as_ref()
            .map(QueryServer::requests_served)
            .unwrap_or(0)
    }

    /// Query connections accepted and refused (queue full) so far —
    /// refusals rising is the signal to raise
    /// [`ServiceConfig::query_backlog`].
    pub fn query_connections(&self) -> (u64, u64) {
        self.server
            .as_ref()
            .map(|s| (s.connections_accepted(), s.connections_refused()))
            .unwrap_or((0, 0))
    }

    /// Paginated v2 cursors currently parked (each pins the snapshot
    /// its plan opened on; bounded by [`ServiceConfig::cursor_ttl`] and
    /// [`ServiceConfig::query_max_cursors`]).
    pub fn open_cursors(&self) -> u64 {
        self.server
            .as_ref()
            .map(QueryServer::open_cursors)
            .unwrap_or(0)
    }

    /// Drain decoded datagrams from a UDP receiver into the epoch
    /// lifecycle until `max_epochs` epochs have committed, falling back
    /// to [`ServiceConfig::quiet_period`] when a campaign's every
    /// sentinel copy was lost: after that much silence an open epoch is
    /// committed anyway (counted, and surfaced in the `Status` query),
    /// and silence with **no** open epoch ends the drain.
    pub fn drain_udp(
        &mut self,
        receiver: &UdpReceiver,
        max_epochs: usize,
    ) -> std::io::Result<Vec<EpochSummary>> {
        const TICK: Duration = Duration::from_millis(20);
        let quiet_limit = (self.cfg.quiet_period.as_millis() / TICK.as_millis()).max(1) as u32;
        let mut quiet = 0u32;
        let mut summaries = Vec::new();
        while summaries.len() < max_epochs {
            match receiver.recv_timeout(TICK) {
                Some(msg) => {
                    quiet = 0;
                    if let Some(summary) = self.push(msg)? {
                        summaries.push(summary);
                    }
                }
                None => {
                    quiet += 1;
                    if quiet >= quiet_limit {
                        if self.open.is_none() {
                            break;
                        }
                        self.shared.quiet_period_fallbacks.inc();
                        summaries.push(self.close_epoch()?);
                        quiet = 0;
                    }
                }
            }
        }
        Ok(summaries)
    }

    /// The daemon's data directory.
    pub fn data_dir(&self) -> &Path {
        &self.cfg.data_dir
    }

    /// Abandon the open epoch *without committing*, quiescing its shard
    /// workers first so their WAL files are fully flushed — the
    /// repeatable stand-in for `kill -9` in crash-recovery tests (a real
    /// kill additionally tears the WAL tails; tests fuzz that by
    /// truncating the files afterwards).
    pub fn simulate_crash(mut self) -> std::io::Result<()> {
        if let Some(open) = self.open.take() {
            let _ = open.service.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_db::Record;
    use siren_store::segment::SEG_MAGIC;
    use siren_store::{encode_frame, read_segment, write_segment, SegmentRead};
    use siren_wire::Layer;

    /// The payload a stored item was framed from before frames were
    /// written in place: tag and epoch, then a separately encoded record.
    fn two_step_payload(item: &StoredItem) -> Vec<u8> {
        match item {
            StoredItem::Row(row) => {
                let mut out = vec![0u8];
                out.extend_from_slice(&row.epoch.to_le_bytes());
                out.extend_from_slice(&row.record.encode());
                out
            }
            StoredItem::Seal(epoch) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&epoch.to_le_bytes());
                out
            }
        }
    }

    #[test]
    fn stored_items_frame_in_place_to_the_two_step_bytes() {
        let row = Record {
            job_id: 7,
            step_id: 1,
            pid: 42,
            exe_hash: "e1".into(),
            host: "node1".into(),
            time: 1_700_000_000,
            layer: Layer::SelfExe,
            mtype: MessageType::Meta,
            content: "path=/usr/bin/python3;user=user_1".into(),
        };
        let mut record = ProcessRecord::new(&row);
        record.absorb(&row);
        record.objects = Some(vec!["/lib64/libc.so.6".into()]);
        record.file_hash = Some("3:ab:cd".into());
        let items = vec![
            StoredItem::Row(Box::new(EpochRecord { epoch: 3, record })),
            StoredItem::Seal(3),
        ];

        let dir = std::env::temp_dir().join(format!("siren-daemon-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pin.seg");
        write_segment(&path, &items).unwrap();
        let data = std::fs::read(&path).unwrap();
        let mut frames = SEG_MAGIC.to_vec();
        for item in &items {
            assert_eq!(item.encode(), two_step_payload(item));
            frames.extend_from_slice(&encode_frame(&two_step_payload(item)));
        }
        // The 17-byte footer follows the frames.
        assert_eq!(data.len(), frames.len() + 17);
        assert_eq!(data[..frames.len()], frames[..]);
        match read_segment::<StoredItem>(&path).unwrap() {
            SegmentRead::Valid(got) => assert_eq!(got, items),
            SegmentRead::Partial(_) => panic!("a fresh segment must read back valid"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
