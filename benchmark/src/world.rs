//! The run's scratch directory, the daemons that live in it, and the
//! digests every oracle compares.

use crate::gen::fold_digest;
use siren_consolidate::ProcessRecord;
use siren_hash::xxh3_128;
use siren_proto::PlanRow;
use siren_service::{QuerySnapshot, ServiceConfig, SirenDaemon};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Upper bound on any single wait in the benchmark. A wait that hits it
/// fails the operation instead of hanging the run.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(30);

/// `benchmark/target/run-<pid>/`: every byte a run writes lives here
/// and the directory is removed when the run ends, whether it returns
/// or unwinds.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Create a fresh run directory. A run that was killed cannot clean
    /// up after itself, so directories of processes that no longer
    /// exist are swept here.
    pub fn create() -> std::io::Result<Self> {
        let target = target_dir();
        for entry in std::fs::read_dir(&target).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix("run-"));
            if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let root = target.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A (not yet created) data directory named `name`.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `benchmark/target/`, where run directories and trace files go. The
/// checkout is found from where the package was built, so the result
/// does not depend on the caller's working directory.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Open the daemon as it ships: default `ServiceConfig`, only the data
/// directory and an ephemeral query port set.
pub fn open_daemon(data_dir: &Path) -> std::io::Result<SirenDaemon> {
    let cfg = ServiceConfig {
        query_addr: Some("127.0.0.1:0".parse().expect("literal socket address")),
        ..ServiceConfig::at(data_dir)
    };
    SirenDaemon::open(cfg).map(|(daemon, _)| daemon)
}

/// Wait until the daemon's background layer merges have settled: the
/// `(layers, merges)` pair unchanged over four polls 10 ms apart.
/// Returns false on timeout.
pub fn quiesce(daemon: &SirenDaemon) -> bool {
    let deadline = Instant::now() + WAIT_TIMEOUT;
    let mut last = (daemon.snapshot_layers(), daemon.snapshot_merges());
    let mut stable = 0;
    while stable < 4 {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
        let now = (daemon.snapshot_layers(), daemon.snapshot_merges());
        stable = if now == last { stable + 1 } else { 0 };
        last = now;
    }
    true
}

/// Bytes of regular files under `path`, recursively.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Digest of one epoch-tagged record (XXH3 over epoch + stored encoding).
fn record_hash(epoch: u64, record: &ProcessRecord) -> u64 {
    xxh3_128(&record.encode()).fold64() ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Order-sensitive digest of epoch-tagged records.
pub fn records_digest<'a>(rows: impl IntoIterator<Item = (u64, &'a ProcessRecord)>) -> u64 {
    extend_digest(0, rows)
}

/// Continue a digest with further epoch-tagged records: the digest of
/// a store after one more epoch commits.
pub fn extend_digest<'a>(
    digest: u64,
    rows: impl IntoIterator<Item = (u64, &'a ProcessRecord)>,
) -> u64 {
    rows.into_iter().fold(digest, |acc, (epoch, record)| {
        fold_digest(acc, record_hash(epoch, record))
    })
}

/// Digest of a whole snapshot in commit order.
pub fn snapshot_digest(snapshot: &QuerySnapshot) -> u64 {
    records_digest(snapshot.iter().map(|er| (er.epoch, &er.record)))
}

/// Digest of a record-row stream as a client decoded it. `None` if a
/// row of another kind turns up.
pub fn rows_digest(rows: &[PlanRow]) -> Option<u64> {
    let mut acc = 0u64;
    for row in rows {
        let PlanRow::Record(r) = row else { return None };
        acc = fold_digest(acc, record_hash(r.epoch, &r.record));
    }
    Some(acc)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
