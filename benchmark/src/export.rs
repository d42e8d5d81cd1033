//! Large streams: the whole corpus drained as `Projection::Full` rows,
//! alternately direct from the union daemon and through the router.

use crate::fleet::Fleet;
use crate::run::{Res, Run};
use crate::spans::Spans;
use crate::world::{rows_digest, snapshot_digest};
use siren_proto::{PlanRow, QueryPlan, SirenClient, MAX_PAGE_ROWS};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Untimed direct + routed pairs run first.
const WARMUP_PAIRS: usize = 2;

/// What the export phase measured.
#[derive(Debug, Default)]
pub struct ExportOut {
    /// Rows per drain.
    pub rows: u64,
    /// Plan sent → first row decoded, ms.
    pub direct_first_row_ms: Vec<f64>,
    pub routed_first_row_ms: Vec<f64>,
    /// Plan sent → last row decoded, seconds.
    pub direct_s: Vec<f64>,
    pub routed_s: Vec<f64>,
}

/// The export plan: every record, full projection, commit order, the
/// largest page the server allows.
pub fn export_plan() -> QueryPlan {
    QueryPlan::records().page_rows(MAX_PAGE_ROWS)
}

/// Drain the export plan over `client`; returns (first-row latency,
/// total, rows).
pub fn drain(
    client: &mut SirenClient,
    spans: &mut Spans,
    name: &'static str,
) -> Res<(Duration, Duration, Vec<PlanRow>)> {
    spans.span(name, |_| {
        let start = Instant::now();
        let mut stream = client.query(export_plan())?;
        let mut rows = Vec::new();
        let first = stream.next().transpose()?;
        let first_row = start.elapsed();
        rows.extend(first);
        for row in stream {
            rows.push(row?);
        }
        Ok((first_row, start.elapsed(), rows))
    })
}

/// Where the two export clients dial and what they have measured so
/// far. Each pair dials afresh: the daemon drops a connection idle
/// past its `query_deadline` (5 s as shipped) and the other phases'
/// slices in between can take longer than that; and which reactor
/// worker serves a connection is a draw worth sampling per pair.
pub struct Export {
    direct: SocketAddr,
    routed: SocketAddr,
    /// Digest every drain must reproduce.
    want: u64,
    out: ExportOut,
}

impl Export {
    /// Check the in-process export against the snapshot, connect both
    /// clients and run the untimed warm-up pairs.
    pub fn warm(run: &mut Run, fleet: &Fleet) -> Res<Self> {
        let snapshot = fleet.union.snapshot();
        let want = snapshot_digest(&snapshot);
        let in_process = run.rooted("oracle.export.in_process", |run| {
            run.spans.span("service.QuerySnapshot::plan_rows", |_| {
                snapshot.plan_rows(export_plan())
            })
        })?;
        let ok = run.rooted("oracle.export.digest", move |_| {
            rows_digest(&in_process) == Some(want)
        });
        run.tally.check(ok, || {
            "in-process export digest differs from the snapshot's".into()
        });
        let export = Export {
            direct: fleet.union_addr()?,
            routed: fleet.router.local_addr(),
            want,
            out: ExportOut {
                rows: snapshot.len() as u64,
                ..ExportOut::default()
            },
        };
        run.setup("setup.export.warmup", |run| -> Res<()> {
            let mut direct = SirenClient::connect(export.direct)?;
            let mut routed = SirenClient::connect(export.routed)?;
            for _ in 0..WARMUP_PAIRS {
                drain(&mut direct, &mut run.spans, "proto.export.direct")?;
                drain(&mut routed, &mut run.spans, "proto.export.routed")?;
            }
            Ok(())
        })?;
        Ok(export)
    }

    /// Time `n` alternating direct / routed drains. Every drain's
    /// digest must equal the in-process one.
    pub fn pairs(&mut self, run: &mut Run, n: usize) -> Res<()> {
        let want = self.want;
        let out = &mut self.out;
        for _ in 0..n {
            let mut direct = SirenClient::connect(self.direct)?;
            let mut routed = SirenClient::connect(self.routed)?;
            for (client, name, first_ms, total_s) in [
                (
                    &mut direct,
                    "proto.export.direct",
                    &mut out.direct_first_row_ms,
                    &mut out.direct_s,
                ),
                (
                    &mut routed,
                    "proto.export.routed",
                    &mut out.routed_first_row_ms,
                    &mut out.routed_s,
                ),
            ] {
                let (first, total, rows) = run.measure("phase.export.drain", |run| {
                    drain(client, &mut run.spans, name)
                })?;
                first_ms.push(first.as_secs_f64() * 1e3);
                total_s.push(total.as_secs_f64());
                let ok = run.rooted("oracle.export.digest", move |_| {
                    rows_digest(&rows) == Some(want)
                });
                run.tally.check(ok, || {
                    format!("{name}: streamed digest differs from the in-process one")
                });
            }
        }
        Ok(())
    }

    pub fn finish(self) -> ExportOut {
        self.out
    }
}
