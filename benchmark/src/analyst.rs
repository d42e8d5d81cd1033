//! Small interactive reads: two closed-loop clients, one on the union
//! daemon and one on the router, each working through its own seeded
//! operation stream.

use crate::fleet::Fleet;
use crate::gen::{Catalog, Op, OpStream, WINDOW_LIMIT, WINDOW_PAGE_ROWS};
use crate::run::{Res, Run, Tally};
use crate::spans::Spans;
use siren_proto::{ClientError, PlanRow, QueryPlan, Selection, SirenClient};
use siren_service::QuerySnapshot;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Every `VERIFY_EVERY`-th operation of a client is checked against the
/// in-process oracle, after its latency has been taken.
pub const VERIFY_EVERY: usize = 16;
/// Operations a client sends over one connection before it dials
/// again. Which reactor worker a connection lands on, and which core
/// that worker shares with whom, is drawn afresh per connection and
/// moves a session's median by a fifth on this 2-core box; a run
/// samples that draw a dozen times per client rather than once.
const SESSION_OPS: usize = 128;
/// Untimed operations each client runs first.
const WARMUP_OPS: usize = 256;

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// 0 = direct to the union daemon, 1 = through the router.
    pub client: u32,
    pub kind: &'static str,
    /// Request sent → last row decoded.
    pub ms: f64,
}

/// What the analyst phase measured.
#[derive(Debug, Default)]
pub struct AnalystOut {
    pub samples: Vec<OpSample>,
    /// Connections the shard daemons accepted during the timed section:
    /// the router dials a backend per plan it does not prune.
    pub backend_dials: u64,
}

/// What an operation returned, in the shape the oracle produces too.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<PlanRow>),
    /// `(library, processes, hosts)` per library-usage row.
    Library(Vec<(String, u64, u64)>),
    Records(u64),
}

fn plan_of(op: &Op) -> Option<QueryPlan> {
    Some(match op {
        Op::ByJob { job } => QueryPlan::records().filter(Selection::all().job(*job)),
        Op::HostWindow { host, start, end } => QueryPlan::records()
            .filter(Selection::all().host(host.clone()).between(*start, *end))
            .limit(WINDOW_LIMIT)
            .page_rows(WINDOW_PAGE_ROWS),
        Op::Neighbors { hash, min_score, k } => {
            QueryPlan::neighbors(hash.clone(), *min_score).limit(*k)
        }
        Op::UsageTable { epoch } => QueryPlan::usage_table().filter(Selection::all().epoch(*epoch)),
        Op::LibraryUsage { .. } | Op::Status => return None,
    })
}

/// Rows of `plan` the client is to read: a windowed plan stops after
/// its first page (dropping the stream closes the server's cursor).
fn rows_wanted(op: &Op) -> usize {
    match op {
        Op::HostWindow { .. } => WINDOW_PAGE_ROWS as usize,
        _ => usize::MAX,
    }
}

fn execute(client: &mut SirenClient, op: &Op, spans: &mut Spans) -> Result<Answer, ClientError> {
    match op {
        Op::LibraryUsage { host } => spans.span("proto.SirenClient::library_usage", |_| {
            client
                .library_usage(Selection::all().host(host.clone()))
                .map(|rows| {
                    Answer::Library(
                        rows.into_iter()
                            .map(|r| (r.library, r.processes, r.hosts))
                            .collect(),
                    )
                })
        }),
        Op::Status => spans.span("proto.SirenClient::status", |_| {
            client.status().map(|s| Answer::Records(s.records))
        }),
        _ => {
            let plan = plan_of(op).expect("plan-shaped operation");
            let wanted = rows_wanted(op);
            spans.span("proto.SirenClient::query→rows", |_| {
                let stream = client.query(plan)?;
                stream
                    .take(wanted)
                    .collect::<Result<Vec<_>, _>>()
                    .map(Answer::Rows)
            })
        }
    }
}

fn oracle_answer(oracle: &Arc<QuerySnapshot>, op: &Op) -> Option<Answer> {
    Some(match op {
        Op::LibraryUsage { host } => Answer::Library(
            oracle
                .select()
                .host(host)
                .library_usage()
                .into_iter()
                .map(|r| (r.library, r.processes, r.hosts))
                .collect(),
        ),
        Op::Status => Answer::Records(oracle.len() as u64),
        _ => {
            let mut rows = oracle.plan_rows(plan_of(op)?).ok()?;
            rows.truncate(rows_wanted(op));
            Answer::Rows(rows)
        }
    })
}

/// One client's closed loop over `ops`.
fn client_loop(
    client_id: u32,
    addr: SocketAddr,
    ops: Vec<Op>,
    oracle: &Arc<QuerySnapshot>,
    mut spans: Spans,
) -> (Vec<OpSample>, Tally, Spans) {
    let mut samples = Vec::with_capacity(ops.len());
    let mut tally = Tally::default();
    let mut client = None;
    for (i, op) in ops.iter().enumerate() {
        if i % SESSION_OPS == 0 {
            let token = spans.enter("session.connect", 1);
            let connected = SirenClient::connect(addr);
            spans.exit(token);
            match connected {
                Ok(connected) => client = Some(connected),
                Err(err) => {
                    let rest = (ops.len() - i) as u64;
                    tally.attempted += rest;
                    tally.failed += rest;
                    tally
                        .notes
                        .push(format!("client {client_id}: connect: {err}"));
                    break;
                }
            }
        }
        let client = client.as_mut().expect("connected at operation 0");
        // The root span also covers checking and freeing the answer, so
        // the thread's wall time is accounted for; the latency is not.
        let token = spans.enter(op.span_name(), 1);
        let start = Instant::now();
        let answer = execute(client, op, &mut spans);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match answer {
            Ok(answer) => {
                samples.push(OpSample {
                    client: client_id,
                    kind: op.kind(),
                    ms,
                });
                let ok = i % VERIFY_EVERY != 0
                    || spans.span("oracle.analyst.op", |_| {
                        oracle_answer(oracle, op).is_some_and(|want| want == answer)
                    });
                tally.check(ok, || {
                    format!("client {client_id}: {op:?} disagrees with the oracle")
                });
            }
            Err(err) => tally.check(false, || format!("client {client_id}: {op:?}: {err}")),
        }
        spans.exit(token);
    }
    (samples, tally, spans)
}

/// The two analyst clients' operation streams and what they have
/// measured so far. `ops` runs the next slice of both streams, so the
/// same seed gives the same operation sequence however the lifecycle
/// slices it.
pub struct Analyst {
    streams: [OpStream; 2],
    /// Span-recorder thread id for the next pair of client threads
    /// (each slice runs on fresh threads).
    next_thread: u32,
    out: AnalystOut,
}

impl Analyst {
    /// Warm both clients' paths with an untimed operation stream of
    /// its own, then position the timed streams at their start.
    pub fn warm(run: &mut Run, fleet: &Fleet, catalog: &Arc<Catalog>) -> Res<Self> {
        let streams = |seed: u64| {
            [
                OpStream::new(seed, 0, false, Arc::clone(catalog)),
                OpStream::new(seed, 1, true, Arc::clone(catalog)),
            ]
        };
        let mut warm = Analyst {
            streams: streams(run.seed ^ 0x5EED_0FF5),
            next_thread: 1,
            out: AnalystOut::default(),
        };
        run.setup("setup.analyst.warmup", |run| {
            warm.run_clients(run, fleet, WARMUP_OPS)
        })?;
        Ok(Analyst {
            streams: streams(run.seed),
            next_thread: warm.next_thread,
            out: AnalystOut::default(),
        })
    }

    /// Run the next `ops` operations (half per client), timed.
    pub fn ops(&mut self, run: &mut Run, fleet: &Fleet, ops: usize) -> Res<()> {
        let dials = || -> u64 {
            fleet
                .shards
                .iter()
                .map(|d| d.metrics_snapshot().counter("query.connections_accepted"))
                .sum()
        };
        let dials_before = dials();
        let (samples, tally) =
            run.measure("phase.analyst", |run| self.run_clients(run, fleet, ops / 2))?;
        self.out.backend_dials += dials() - dials_before;
        self.out.samples.extend(samples);
        run.tally.absorb(tally);
        Ok(())
    }

    pub fn finish(self) -> AnalystOut {
        self.out
    }

    fn run_clients(
        &mut self,
        run: &mut Run,
        fleet: &Fleet,
        ops_per_client: usize,
    ) -> Res<(Vec<OpSample>, Tally)> {
        let oracle = fleet.union.snapshot();
        let addrs = [fleet.union_addr()?, fleet.router.local_addr()];
        let first_thread = self.next_thread;
        self.next_thread += 2;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .zip(addrs)
                .zip(0u32..)
                .map(|((stream, addr), id)| {
                    let ops: Vec<Op> = stream.take(ops_per_client).collect();
                    let spans = run.spans.fork(first_thread + id);
                    let oracle = &oracle;
                    scope.spawn(move || client_loop(id, addr, ops, oracle, spans))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut samples = Vec::new();
        let mut tally = Tally::default();
        for result in results {
            let (s, t, spans) = result.map_err(|_| "an analyst client thread panicked")?;
            samples.extend(s);
            tally.absorb(t);
            run.spans.absorb(spans);
        }
        Ok((samples, tally))
    }
}
