//! The write path: campaign → collector → wire → daemon epoch commit,
//! closed loop with one producer, plus one open-loop epoch over real
//! UDP at a fixed rate.

use crate::gen::{self, EpochInput};
use crate::run::{Res, Run, CORPUS_EPOCHS};
use crate::spans::Spans;
use crate::world::{self, records_digest};
use siren_cluster::FleetConfig;
use siren_collector::SENTINEL_BURST;
use siren_consolidate::{consolidate, ProcessRecord};
use siren_db::Database;
use siren_net::{Sender, UdpReceiver, UdpSender};
use siren_service::{EpochSummary, SirenDaemon};
use siren_wire::{sentinel_message_with_epoch, Reassembler};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fixed send rate of the UDP epoch, datagrams per second. The
/// receiver's socket buffer is the kernel default (~270 of these
/// datagrams) and `UdpReceiver::spawn` offers no way to enlarge it, so
/// the rate sets how long a stall of the receiver thread the epoch
/// survives: at 8 000/s (34 ms) one run in ~130 on this 2-core VM lost
/// datagrams; at 2 000/s the thread may stall 135 ms. Lower the rate,
/// never the check.
pub const UDP_RATE: f64 = 2_000.0;

/// What the ingest phase measured.
#[derive(Debug, Default)]
pub struct IngestOut {
    /// Per measured epoch: datagrams ÷ (first push → commit receipt).
    pub datagrams_per_s: Vec<f64>,
    /// Per measured epoch: sentinel push → `EpochSummary`, ms.
    pub commit_ms: Vec<f64>,
    /// Per measured epoch: producer-side push cost, ns per datagram.
    pub push_ns_per_datagram: Vec<f64>,
    /// `collect_datagrams` per observed process, µs (all measured epochs).
    pub collect_us: Vec<f64>,
    /// Bytes under the data directory after the last commit.
    pub disk_bytes: u64,
    /// Records committed.
    pub records: u64,
    /// Processes observed / skipped by the collector, datagrams and
    /// wire bytes sent, over the measured epochs.
    pub observed: u64,
    pub skipped: u64,
    pub datagrams: u64,
    pub wire_bytes: u64,
    /// Ingest-tier counters summed over measured epochs.
    pub backpressure_waits: u64,
    pub duplicates: u64,
    pub incomplete: u64,
    /// Snapshot shape after the last commit.
    pub snapshot_layers: usize,
    pub snapshot_merges: u64,
    /// The UDP leg.
    pub udp: UdpOut,
    /// One measured epoch's input, kept for the layer probes of a
    /// traced run.
    pub sample: Option<EpochInput>,
}

/// What the UDP epoch measured.
#[derive(Debug, Default)]
pub struct UdpOut {
    pub sent: u64,
    pub received: u64,
    /// Records the UDP epoch committed.
    pub records: u64,
    pub overflowed: u64,
    /// `UdpSender::send` cost per datagram, ns.
    pub send_ns_per_datagram: f64,
    /// Last send → commit receipt, ms.
    pub commit_lag_ms: f64,
    /// How late after its due time each datagram left, ms.
    pub late_ms: Vec<f64>,
}

/// The serial reference the daemon's committed epoch must equal:
/// reassemble, insert, consolidate — one thread, no daemon.
pub fn reference_epoch(input: &EpochInput, spans: &mut Spans) -> Res<Vec<ProcessRecord>> {
    let mut reassembler = Reassembler::new();
    let complete = spans.span_n(
        "wire.Reassembler::push",
        input.messages.len() as u32,
        |_| {
            input
                .messages
                .iter()
                .filter_map(|m| reassembler.push(m.clone()))
                .collect::<Vec<_>>()
        },
    );
    let db = Database::in_memory();
    spans.span("db.Database::insert_message_batch", |_| {
        db.insert_message_batch(complete)
    })?;
    let mut records = spans
        .span("consolidate.consolidate", |_| consolidate(&db))
        .records;
    records.sort_by(siren_consolidate::record_order);
    Ok(records)
}

/// Push one epoch through the daemon, closed loop. Returns the commit
/// receipt and three durations: the whole epoch (`begin_epoch` →
/// receipt), the payload pushes, and sentinel push → receipt.
fn push_epoch(
    daemon: &mut SirenDaemon,
    input: &EpochInput,
    spans: &mut Spans,
) -> Res<(EpochSummary, Duration, Duration, Duration)> {
    let start = Instant::now();
    let epoch = spans.span("service.begin_epoch", |_| daemon.begin_epoch())?;
    let sentinel =
        sentinel_message_with_epoch(0, input.datagrams.len() as u64, Some(epoch)).encode();
    let push_start = Instant::now();
    spans.span_n(
        "service.push_datagram",
        input.datagrams.len() as u32,
        |_| -> std::io::Result<()> {
            for datagram in &input.datagrams {
                daemon.push_datagram(datagram)?;
            }
            Ok(())
        },
    )?;
    let pushed = push_start.elapsed();
    let commit_start = Instant::now();
    let summary = spans
        .span("service.push_datagram(sentinel)→commit", |_| {
            daemon.push_datagram(&sentinel)
        })?
        .ok_or("the sentinel did not close its epoch")?;
    Ok((summary, start.elapsed(), pushed, commit_start.elapsed()))
}

/// Compare a committed epoch with the serial reference.
fn check_epoch(
    run: &mut Run,
    daemon: &SirenDaemon,
    summary: &EpochSummary,
    input: &EpochInput,
) -> Res<Vec<ProcessRecord>> {
    let reference = reference_epoch(input, &mut run.spans)?;
    let snapshot = daemon.snapshot();
    let committed = snapshot.epoch_records(summary.epoch);
    let ok = summary.records == reference.len() as u64
        && records_digest(committed.iter().map(|r| (summary.epoch, *r)))
            == records_digest(reference.iter().map(|r| (summary.epoch, r)));
    run.tally.check(ok, || {
        format!(
            "epoch {}: daemon committed {} records, serial reference {} (digest mismatch)",
            summary.epoch,
            summary.records,
            reference.len()
        )
    });
    Ok(reference)
}

/// The ingest daemon and what it has measured so far. Epochs are fed
/// in slices (`epochs`), so the lifecycle can interleave them with the
/// other phases; `finish` adds the UDP epoch and tears the daemon down.
pub struct Ingest {
    daemon: SirenDaemon,
    data_dir: PathBuf,
    fleet: FleetConfig,
    /// Next cluster (epoch input) to generate; 0 was the warm-up.
    next_cluster: usize,
    /// The records of the first [`CORPUS_EPOCHS`] measured epochs (the
    /// serial reference, which the daemon's committed epoch was just
    /// checked to equal), until the lifecycle takes them.
    corpus: Vec<Vec<ProcessRecord>>,
    corpus_taken: bool,
    out: IngestOut,
}

impl Ingest {
    /// Open a fresh daemon at `data_dir` and push one warm-up epoch
    /// through it: first-touch allocation, page cache, code paths.
    pub fn open(run: &mut Run, data_dir: &Path) -> Res<Self> {
        let fleet = gen::fleet(run.seed, gen::EPOCH_SCALE);
        let daemon = run.setup("setup.ingest", |run| -> Res<SirenDaemon> {
            let mut daemon = run.spans.span("service.SirenDaemon::open", |_| {
                world::open_daemon(data_dir)
            })?;
            let warm = gen::generate_epoch(&fleet, 0, &mut run.spans);
            push_epoch(&mut daemon, &warm, &mut run.spans)?;
            Ok(daemon)
        })?;
        Ok(Self {
            daemon,
            data_dir: data_dir.to_path_buf(),
            fleet,
            next_cluster: 1,
            corpus: Vec::new(),
            corpus_taken: false,
            out: IngestOut::default(),
        })
    }

    /// Hand over the read-side corpus once [`CORPUS_EPOCHS`] epochs are
    /// in; later epochs are not kept.
    pub fn take_corpus(&mut self) -> Vec<Vec<ProcessRecord>> {
        self.corpus_taken = true;
        std::mem::take(&mut self.corpus)
    }

    /// Generate, push and commit `n` more epochs, each checked against
    /// the serial reference outside its timed section.
    pub fn epochs(&mut self, run: &mut Run, n: usize) -> Res<()> {
        for _ in 0..n {
            let k = self.next_cluster;
            self.next_cluster += 1;
            // A campaign arrives at an idle daemon: let the previous
            // epoch's background layer merges finish first.
            let daemon = &mut self.daemon;
            run.setup("setup.ingest.quiesce", |_| {
                if world::quiesce(daemon) {
                    Ok(())
                } else {
                    Err("daemon did not quiesce before an ingest epoch")
                }
            })?;
            let (out, fleet) = (&mut self.out, &self.fleet);
            let (input, summary) = run.measure("phase.ingest.epoch", |run| -> Res<_> {
                let input = gen::generate_epoch(fleet, k, &mut run.spans);
                let (summary, total, pushed, commit) = push_epoch(daemon, &input, &mut run.spans)?;
                let n = input.datagrams.len() as f64;
                out.datagrams_per_s.push(n / total.as_secs_f64());
                out.push_ns_per_datagram.push(pushed.as_nanos() as f64 / n);
                out.commit_ms.push(commit.as_secs_f64() * 1e3);
                Ok((input, summary))
            })?;
            out.collect_us
                .extend(input.collect_ns.iter().map(|&ns| ns as f64 / 1e3));
            out.observed += input.observed;
            out.skipped += input.skipped;
            out.datagrams += input.datagrams.len() as u64;
            out.wire_bytes += input.wire_bytes();
            out.records += summary.records;
            for shard in &summary.shard_stats {
                out.backpressure_waits += shard.backpressure_waits;
                out.duplicates += shard.duplicates;
                out.incomplete += shard.incomplete;
            }
            let reference = run.rooted("oracle.ingest.epoch", |run| {
                check_epoch(run, daemon, &summary, &input)
            })?;
            if !self.corpus_taken && self.corpus.len() < CORPUS_EPOCHS {
                self.corpus.push(reference);
            }
            if run.trace {
                out.sample = Some(input);
            }
        }
        Ok(())
    }

    /// Send the UDP epoch, let the daemon settle, close it and weigh
    /// its data directory.
    pub fn finish(self, run: &mut Run) -> Res<IngestOut> {
        let Ingest {
            mut daemon,
            data_dir,
            next_cluster,
            mut out,
            ..
        } = self;
        let udp_fleet = gen::fleet(run.seed, gen::SMALL_EPOCH_SCALE);
        out.udp = udp_leg(run, &mut daemon, &udp_fleet, next_cluster)?;
        out.records += out.udp.records;
        run.setup("setup.ingest.settle", |_| {
            if world::quiesce(&daemon) {
                Ok(())
            } else {
                Err("daemon did not quiesce after the last commit")
            }
        })?;
        out.snapshot_layers = daemon.snapshot_layers();
        out.snapshot_merges = daemon.snapshot_merges();
        out.disk_bytes = run.rooted("teardown.ingest", |_| {
            drop(daemon);
            world::dir_bytes(&data_dir)
        });
        Ok(out)
    }
}

/// One smaller epoch through `UdpSender` → `UdpReceiver` →
/// `SirenDaemon::drain_udp`, open loop: datagram `i` is due at
/// `i / UDP_RATE` seconds whatever the receiver is doing. Every
/// datagram is an attempted operation; one that does not arrive is a
/// failed one.
fn udp_leg(
    run: &mut Run,
    daemon: &mut SirenDaemon,
    fleet: &FleetConfig,
    cluster: usize,
) -> Res<UdpOut> {
    let input = run.setup("setup.udp.generate", |run| {
        gen::generate_epoch(fleet, cluster, &mut run.spans)
    });
    let receiver = UdpReceiver::spawn(65_536)?;
    let sender = UdpSender::connect(receiver.local_addr())?;
    let epoch = daemon.begin_epoch()?;
    let sentinel =
        sentinel_message_with_epoch(0, input.datagrams.len() as u64, Some(epoch)).encode();

    let mut out = UdpOut::default();
    let summaries = run.measure("phase.ingest.udp", |run| -> Res<Vec<EpochSummary>> {
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| daemon.drain_udp(&receiver, 1));
            let token = run
                .spans
                .enter("net.UdpSender::send", input.datagrams.len() as u32);
            let start = Instant::now();
            let mut send_ns = 0u128;
            let mut next = 0usize;
            while next < input.datagrams.len() {
                let due = Duration::from_secs_f64(next as f64 / UDP_RATE);
                let now = start.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                let sent_at = Instant::now();
                sender.send(&input.datagrams[next]);
                send_ns += sent_at.elapsed().as_nanos();
                out.late_ms
                    .push((start.elapsed().saturating_sub(due)).as_secs_f64() * 1e3);
                next += 1;
            }
            for _ in 0..SENTINEL_BURST {
                sender.send(&sentinel);
            }
            run.spans.exit(token);
            let last_send = Instant::now();
            out.send_ns_per_datagram = send_ns as f64 / input.datagrams.len() as f64;
            let summaries = run.spans.span("service.drain_udp→commit", |_| {
                drain.join().map_err(|_| "UDP drain thread panicked")
            })??;
            out.commit_lag_ms = last_send.elapsed().as_secs_f64() * 1e3;
            Ok(summaries)
        })
    })?;
    let stats = receiver.stop();
    out.sent = input.datagrams.len() as u64;
    // Sentinels travel the same socket; only payload datagrams are
    // operations, so cap what counts as received at what was sent.
    out.received = stats
        .received
        .saturating_sub(SENTINEL_BURST as u64)
        .min(out.sent);
    out.overflowed = stats.overflowed;
    run.tally.attempted += out.sent;
    let lost = out.sent - out.received + out.overflowed;
    for _ in 0..lost {
        run.tally
            .fail(format!("UDP datagram lost at {UDP_RATE} datagrams/s"));
    }
    let summary = summaries.first().ok_or("the UDP epoch never committed")?;
    out.records = summary.records;
    run.rooted("oracle.ingest.udp", |run| {
        check_epoch(run, daemon, summary, &input)
    })?;
    Ok(out)
}
