//! # siren-service — the long-running SIREN ingest daemon
//!
//! The paper's receiver is a continuously running service: collectors on
//! thousands of nodes fire datagrams at it around the clock, and analysts
//! query the accumulated database. The seed reproduction only ever ran
//! campaign-scoped (spawn ingest, drain one campaign, consolidate, exit);
//! this crate turns that into a daemon:
//!
//! * Campaigns arrive as **epochs**, delimited by the existing `TYPE=END`
//!   sentinels (optionally epoch-tagged — see
//!   `siren_wire::sentinel_message_with_epoch`). Each epoch runs the
//!   sharded ingest service with per-shard persistence under the
//!   daemon's data directory.
//! * Each shard folds its rows into per-process records as they
//!   arrive; on close, the folds finish, their records are merged and
//!   the epoch is **committed atomically** to a
//!   consolidated-record store (`siren-store`'s segmented backend,
//!   `append_sealed`): after any crash either the whole epoch is present
//!   or its raw message WALs still are — never both halves.
//! * A restarted daemon recovers committed epochs from the segmented
//!   store and resumes the uncommitted epoch from its shard WALs; a full
//!   re-send of the interrupted campaign converges to exactly the records
//!   a never-crashed run would hold, because consolidation groups by
//!   process key and is idempotent under duplicate rows.
//! * Each commit publishes an immutable, `Arc`-shared, **layered**
//!   [`QuerySnapshot`] behind an atomic pointer swap, so queries run
//!   lock-free while the next epoch ingests: per-job lookups, library
//!   usage by host/time range (through `siren-analysis`, which renders
//!   its tables from the same selections), and fuzzy-hash
//!   nearest-neighbor search (n-gram-index pruned). The commit indexes
//!   only the new epoch into a [`SnapshotLayer`] and reuses every
//!   earlier layer by `Arc` — O(epoch), not O(history) — while a
//!   background thread merges small layers to bound query fan-out.
//! * With [`ServiceConfig::query_addr`] set, an embedded TCP
//!   **query server** (reactor event loops, per-connection deadlines)
//!   answers the `siren-proto` wire protocol; the blocking
//!   [`siren_proto::SirenClient`] is the typed client side.
//!
//! ```text
//!            epoch N stream          epoch N close        TCP queries
//! push(msg) ──▶ IngestService ──▶ fold finish ──▶ EpochRecord segment
//!                │ shard WALs +      (siren-consolidate)   │ (append_sealed)
//!                │ folds on arrival                        │
//!                ▼                                         ▼
//!        data_dir/epoch-N.*.msgs.shard*       data_dir/consolidated/{seg,run}*
//!                                                          │ commit = snapshot swap
//!                                              Arc<QuerySnapshot> ◀── QueryServer workers
//! ```

pub mod daemon;
pub mod replicate;
pub mod snapshot;

pub(crate) mod maintain;
pub(crate) mod metrics;
pub(crate) mod plan;
pub(crate) mod server;

pub use daemon::{DaemonRecovery, EpochRecord, EpochSummary, ServiceConfig, SirenDaemon};
pub use replicate::{Replicator, ReplicatorConfig};
pub use siren_obs::{MetricsSnapshot, SlowQueryEntry};
pub use siren_proto::{Order, PlanRow, PlanSource, Projection, QueryPlan, Selection};
pub use snapshot::{
    Neighbor, QuerySnapshot, SnapshotLayer, SnapshotSelection, HARD_MAX_LAYERS, SOFT_MAX_LAYERS,
};
