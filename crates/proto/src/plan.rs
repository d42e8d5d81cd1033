//! The composable [`QueryPlan`] and the streamed answer shapes
//! ([`RowBatch`] frames terminated by an end-or-cursor frame).
//!
//! A client ships a *plan* — a source (committed records, the per-user
//! usage table, or fuzzy neighbors), one shared [`Selection`] filter, a
//! projection, an ordering, and a limit — and the server answers with a
//! stream of bounded [`RowBatch`] frames. Each reply ends with a
//! [`QueryResponse::StreamEnd`](crate::QueryResponse::StreamEnd) frame
//! carrying either *end of rows* or a resumable cursor id; the cursor
//! pins the `Arc` snapshot the plan started on, so pagination stays
//! consistent across epoch commits landing mid-stream.
//!
//! "What did this job run" is a job-filtered record plan and "which
//! known binary is this closest to" a neighbor plan; a new question is
//! a new [`PlanSource`]/field combination, not a new request tag.

use crate::message::{get_u32, get_u64, take, QueryError, Selection};
use crate::message::{NeighborRow, RecordRow};
use siren_analysis::UsageRow;
use siren_consolidate::ProcessRecord;
use siren_store::codec::{get_bytes, get_str, put_bytes, put_str};

// Plan-source tags.
const SRC_RECORDS: u8 = 0;
const SRC_USAGE_TABLE: u8 = 1;
const SRC_NEIGHBORS: u8 = 2;

// Row-kind tags inside a batch frame.
const ROWS_RECORDS: u8 = 0;
const ROWS_USAGE: u8 = 1;
const ROWS_NEIGHBORS: u8 = 2;

/// Default rows per batch frame when the plan does not say.
pub const DEFAULT_BATCH_ROWS: u32 = 256;
/// Default rows per reply (page) before the server hands out a cursor.
pub const DEFAULT_PAGE_ROWS: u32 = 2048;
/// Hard per-batch row cap the server clamps to (frames stay bounded).
pub const MAX_BATCH_ROWS: u32 = 4096;
/// Hard per-page row cap the server clamps to.
pub const MAX_PAGE_ROWS: u32 = 65_536;

/// What a [`QueryPlan`] reads from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSource {
    /// Epoch-tagged committed records ([`RecordRow`] stream).
    Records,
    /// The paper's per-user usage aggregation ([`UsageRow`] stream),
    /// computed over the selection.
    UsageTable,
    /// Fuzzy-hash nearest neighbors of `hash` over the selection's
    /// `FILE_H` column ([`NeighborRow`] stream, best score first).
    Neighbors {
        /// SSDeep-style `block:sig1:sig2` probe hash.
        hash: String,
        /// Minimum similarity score (0–100).
        min_score: u32,
    },
}

/// Which columns of a record a row stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Projection {
    /// The whole consolidated record.
    #[default]
    Full,
    /// Identity only: the process key survives; metadata, object
    /// lists, and content hashes are stripped. Shrinks row frames by
    /// an order of magnitude for workloads that only pivot on
    /// job/host/time/exe.
    Keys,
}

impl Projection {
    /// Apply the projection to one record (in place).
    pub fn apply(&self, record: &mut ProcessRecord) {
        match self {
            Projection::Full => {}
            Projection::Keys => {
                record.meta.clear();
                record.objects = None;
                record.modules = None;
                record.compilers = None;
                record.maps = None;
                record.objects_hash = None;
                record.modules_hash = None;
                record.compilers_hash = None;
                record.maps_hash = None;
                record.file_hash = None;
                record.strings_hash = None;
                record.symbols_hash = None;
                record.script = None;
            }
        }
    }
}

/// Row ordering of a [`PlanSource::Records`] stream. Aggregations keep
/// their natural order (usage rows: the paper's sort; neighbors: score
/// descending) and reject any other request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// Commit order — streamed lazily.
    #[default]
    Commit,
    /// Collection timestamp ascending (ties: commit order).
    TimeAsc,
    /// Collection timestamp descending (ties: commit order).
    TimeDesc,
}

/// A composable query: source, filter, projection, order, limit, and
/// the batching geometry of the reply stream.
///
/// Built with the fluent constructors ([`QueryPlan::records`],
/// [`QueryPlan::usage_table`], [`QueryPlan::neighbors`]) and builder
/// methods; validated by [`QueryPlan::validate`] on both ends before
/// any row is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// What to read.
    pub source: PlanSource,
    /// The shared record filter (epoch, epoch slice, host, job, time).
    pub selection: Selection,
    /// Which columns each row carries.
    pub projection: Projection,
    /// Row ordering (records only).
    pub order: Order,
    /// Stop after this many rows (for [`PlanSource::Neighbors`] this is
    /// the `k` of the search). `None` = all matching rows.
    pub limit: Option<u64>,
    /// Rows per batch frame (server clamps to [`MAX_BATCH_ROWS`]).
    pub batch_rows: u32,
    /// Rows per reply before a cursor is handed out (server clamps to
    /// [`MAX_PAGE_ROWS`]).
    pub page_rows: u32,
}

impl QueryPlan {
    fn new(source: PlanSource) -> Self {
        Self {
            source,
            selection: Selection::all(),
            projection: Projection::Full,
            order: Order::Commit,
            limit: None,
            batch_rows: DEFAULT_BATCH_ROWS,
            page_rows: DEFAULT_PAGE_ROWS,
        }
    }

    /// A record stream over the whole store (narrow it with
    /// [`filter`](Self::filter)).
    pub fn records() -> Self {
        Self::new(PlanSource::Records)
    }

    /// The per-user usage table over the selection.
    pub fn usage_table() -> Self {
        Self::new(PlanSource::UsageTable)
    }

    /// Fuzzy nearest neighbors of `hash` scoring at least `min_score`.
    pub fn neighbors(hash: impl Into<String>, min_score: u32) -> Self {
        Self::new(PlanSource::Neighbors {
            hash: hash.into(),
            min_score,
        })
    }

    /// Restrict the plan to records passing `selection`.
    pub fn filter(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Choose the row projection.
    pub fn project(mut self, projection: Projection) -> Self {
        self.projection = projection;
        self
    }

    /// Choose the record ordering.
    pub fn order_by(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Stop after `limit` rows (the `k` of a neighbor search).
    pub fn limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Rows per batch frame.
    pub fn batch_rows(mut self, rows: u32) -> Self {
        self.batch_rows = rows;
        self
    }

    /// Rows per reply before the server hands out a cursor.
    pub fn page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows;
        self
    }

    /// Reject structurally invalid plans with a typed error — run on
    /// both ends before any row work (the server also re-validates, so
    /// a hand-rolled client cannot smuggle one through).
    pub fn validate(&self) -> Result<(), QueryError> {
        self.selection.validate()?;
        if self.batch_rows == 0 || self.page_rows == 0 {
            return Err(QueryError::InvalidPlan(
                "batch_rows and page_rows must be at least 1".into(),
            ));
        }
        if self.order != Order::Commit && self.source != PlanSource::Records {
            return Err(QueryError::InvalidPlan(
                "only record streams are orderable; aggregations keep their natural order".into(),
            ));
        }
        if let PlanSource::Neighbors { hash, .. } = &self.source {
            if hash.is_empty() {
                return Err(QueryError::InvalidPlan("empty probe hash".into()));
            }
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of the encoded plan — the identity the
    /// slow-query log groups by, so "the same plan ran slow again" is
    /// one line, not many.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::with_capacity(64);
        self.put(&mut buf);
        siren_hash::fnv1a64(&buf)
    }

    /// Compact structural description (`source/order sel=<shape>`) —
    /// what the slow-query log records instead of full predicate
    /// values, which may carry untrusted ingest strings.
    pub fn shape(&self) -> String {
        let source = match &self.source {
            PlanSource::Records => "records",
            PlanSource::UsageTable => "usage",
            PlanSource::Neighbors { .. } => "neighbors",
        };
        let order = match self.order {
            Order::Commit => "commit",
            Order::TimeAsc => "time_asc",
            Order::TimeDesc => "time_desc",
        };
        format!("{source}/{order} sel={}", self.selection.shape())
    }

    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        match &self.source {
            PlanSource::Records => out.push(SRC_RECORDS),
            PlanSource::UsageTable => out.push(SRC_USAGE_TABLE),
            PlanSource::Neighbors { hash, min_score } => {
                out.push(SRC_NEIGHBORS);
                put_str(out, hash);
                out.extend_from_slice(&min_score.to_le_bytes());
            }
        }
        self.selection.put(out);
        out.push(match self.projection {
            Projection::Full => 0,
            Projection::Keys => 1,
        });
        out.push(match self.order {
            Order::Commit => 0,
            Order::TimeAsc => 1,
            Order::TimeDesc => 2,
        });
        match self.limit {
            None => out.push(0),
            Some(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.batch_rows.to_le_bytes());
        out.extend_from_slice(&self.page_rows.to_le_bytes());
    }

    pub(crate) fn get(data: &[u8], pos: &mut usize) -> Option<Self> {
        let source = match take(data, pos, 1)?[0] {
            SRC_RECORDS => PlanSource::Records,
            SRC_USAGE_TABLE => PlanSource::UsageTable,
            SRC_NEIGHBORS => PlanSource::Neighbors {
                hash: get_str(data, pos)?,
                min_score: get_u32(data, pos)?,
            },
            _ => return None,
        };
        let selection = Selection::get(data, pos)?;
        let projection = match take(data, pos, 1)?[0] {
            0 => Projection::Full,
            1 => Projection::Keys,
            _ => return None,
        };
        let order = match take(data, pos, 1)?[0] {
            0 => Order::Commit,
            1 => Order::TimeAsc,
            2 => Order::TimeDesc,
            _ => return None,
        };
        let limit = match take(data, pos, 1)?[0] {
            0 => None,
            1 => Some(get_u64(data, pos)?),
            _ => return None,
        };
        Some(Self {
            source,
            selection,
            projection,
            order,
            limit,
            batch_rows: get_u32(data, pos)?,
            page_rows: get_u32(data, pos)?,
        })
    }
}

/// One bounded frame of rows, all of the plan's source kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowBatch {
    /// Rows of a [`PlanSource::Records`] stream.
    Records(Vec<RecordRow>),
    /// Rows of a [`PlanSource::UsageTable`] stream.
    Usage(Vec<UsageRow>),
    /// Rows of a [`PlanSource::Neighbors`] stream.
    Neighbors(Vec<NeighborRow>),
}

impl RowBatch {
    /// Rows in this batch.
    pub fn len(&self) -> usize {
        match self {
            RowBatch::Records(rows) => rows.len(),
            RowBatch::Usage(rows) => rows.len(),
            RowBatch::Neighbors(rows) => rows.len(),
        }
    }

    /// True when the batch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flatten into per-row items (what [`RowStream`](crate::RowStream)
    /// yields).
    pub fn into_rows(self) -> Vec<PlanRow> {
        match self {
            RowBatch::Records(rows) => rows.into_iter().map(PlanRow::Record).collect(),
            RowBatch::Usage(rows) => rows.into_iter().map(PlanRow::Usage).collect(),
            RowBatch::Neighbors(rows) => rows.into_iter().map(PlanRow::Neighbor).collect(),
        }
    }

    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        match self {
            RowBatch::Records(rows) => {
                out.push(ROWS_RECORDS);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&row.epoch.to_le_bytes());
                    put_bytes(out, &row.record.encode());
                }
            }
            RowBatch::Usage(rows) => {
                out.push(ROWS_USAGE);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    put_str(out, &row.user);
                    out.extend_from_slice(&row.jobs.to_le_bytes());
                    out.extend_from_slice(&row.system_procs.to_le_bytes());
                    out.extend_from_slice(&row.user_procs.to_le_bytes());
                    out.extend_from_slice(&row.python_procs.to_le_bytes());
                }
            }
            RowBatch::Neighbors(rows) => {
                out.push(ROWS_NEIGHBORS);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&row.score.to_le_bytes());
                    out.extend_from_slice(&row.epoch.to_le_bytes());
                    put_bytes(out, &row.record.encode());
                }
            }
        }
    }

    pub(crate) fn get(data: &[u8], pos: &mut usize) -> Option<Self> {
        let kind = take(data, pos, 1)?[0];
        let remaining = data.len().saturating_sub(*pos);
        let n = get_u32(data, pos)? as usize;
        // Minimum wire bytes per row kind (see `get_count` in message.rs
        // for the rationale: a hostile count must not pre-allocate).
        let min_elem = match kind {
            ROWS_RECORDS => 12,
            ROWS_USAGE => 36,
            ROWS_NEIGHBORS => 16,
            _ => return None,
        };
        if n > remaining / min_elem {
            return None;
        }
        let cap = n.min(1024);
        Some(match kind {
            ROWS_RECORDS => {
                let mut rows = Vec::with_capacity(cap);
                for _ in 0..n {
                    let epoch = get_u64(data, pos)?;
                    let record = ProcessRecord::decode(get_bytes(data, pos)?)?;
                    rows.push(RecordRow { epoch, record });
                }
                RowBatch::Records(rows)
            }
            ROWS_USAGE => {
                let mut rows = Vec::with_capacity(cap);
                for _ in 0..n {
                    rows.push(UsageRow {
                        user: get_str(data, pos)?,
                        jobs: get_u64(data, pos)?,
                        system_procs: get_u64(data, pos)?,
                        user_procs: get_u64(data, pos)?,
                        python_procs: get_u64(data, pos)?,
                    });
                }
                RowBatch::Usage(rows)
            }
            ROWS_NEIGHBORS => {
                let mut rows = Vec::with_capacity(cap);
                for _ in 0..n {
                    let score = get_u32(data, pos)?;
                    let epoch = get_u64(data, pos)?;
                    let record = ProcessRecord::decode(get_bytes(data, pos)?)?;
                    rows.push(NeighborRow {
                        score,
                        epoch,
                        record,
                    });
                }
                RowBatch::Neighbors(rows)
            }
            _ => return None,
        })
    }
}

/// One row of a plan's answer stream, whatever the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanRow {
    /// From [`PlanSource::Records`].
    Record(RecordRow),
    /// From [`PlanSource::UsageTable`].
    Usage(UsageRow),
    /// From [`PlanSource::Neighbors`].
    Neighbor(NeighborRow),
}

impl PlanRow {
    /// The record row, if this came from a record stream.
    pub fn into_record(self) -> Option<RecordRow> {
        match self {
            PlanRow::Record(row) => Some(row),
            _ => None,
        }
    }

    /// The usage row, if this came from a usage-table stream.
    pub fn into_usage(self) -> Option<UsageRow> {
        match self {
            PlanRow::Usage(row) => Some(row),
            _ => None,
        }
    }

    /// The neighbor row, if this came from a neighbor stream.
    pub fn into_neighbor(self) -> Option<NeighborRow> {
        match self {
            PlanRow::Neighbor(row) => Some(row),
            _ => None,
        }
    }
}
