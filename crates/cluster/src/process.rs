//! The simulated `/proc` view: everything `siren.so` can observe about a
//! process at constructor time.

use std::sync::Arc;

/// Executable (or script) file metadata, mirroring the `stat` fields the
//  collector records (§3.1: inode, size, permissions, owner, timestamps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Inode number.
    pub inode: u64,
    /// File size in bytes.
    pub size: u64,
    /// Permission bits (e.g. 0o755).
    pub mode: u32,
    /// Owning user id.
    pub owner_uid: u32,
    /// Owning group id.
    pub owner_gid: u32,
    /// Access time (UNIX seconds).
    pub atime: u64,
    /// Modification time.
    pub mtime: u64,
    /// Status-change time.
    pub ctime: u64,
}

/// A file in the simulated filesystem: bytes + metadata.
#[derive(Debug, Clone)]
pub struct SimFile {
    /// File contents (shared; many processes execute the same binary).
    pub data: Arc<Vec<u8>>,
    /// Stat metadata.
    pub meta: FileMeta,
}

impl SimFile {
    /// Construct with metadata derived from content and provenance.
    pub fn new(data: Vec<u8>, inode: u64, owner_uid: u32, mtime: u64) -> Self {
        let size = data.len() as u64;
        Self {
            data: Arc::new(data),
            meta: FileMeta {
                inode,
                size,
                mode: 0o755,
                owner_uid,
                owner_gid: owner_uid,
                atime: mtime,
                mtime,
                ctime: mtime,
            },
        }
    }
}

/// Python-specific observation: the input script run by an interpreter
/// process (collected at LAYER=SCRIPT).
#[derive(Debug, Clone)]
pub struct PythonContext {
    /// Path of the Python input script.
    pub script_path: String,
    /// The script file.
    pub script: Arc<SimFile>,
}

/// One process observation: the full simulated `/proc/self` view handed to
/// the collector.
#[derive(Debug, Clone)]
pub struct ProcessContext {
    /// Anonymized user name (`user_<n>`).
    pub user: String,
    /// Numeric uid.
    pub uid: u32,
    /// Numeric gid.
    pub gid: u32,
    /// `SLURM_JOB_ID`.
    pub job_id: u64,
    /// `SLURM_STEP_ID`.
    pub step_id: u32,
    /// `SLURM_PROCID` — the collector only records rank 0 (§3.1,
    /// "Selective Data Collection").
    pub slurm_procid: u32,
    /// Node hostname.
    pub host: String,
    /// Process id (subject to reuse and `exec()` retention).
    pub pid: u32,
    /// Parent process id.
    pub ppid: u32,
    /// Observation timestamp (1-second granularity, like UNIX time).
    pub timestamp: u64,
    /// Path of `/proc/self/exe`.
    pub exe_path: String,
    /// The executable file.
    pub exe: Arc<SimFile>,
    /// Loaded shared objects (what `dl_iterate_phdr` would report).
    pub loaded_objects: Arc<Vec<String>>,
    /// Loaded modules (the `LOADEDMODULES` environment variable, split).
    pub loaded_modules: Arc<Vec<String>>,
    /// Memory-mapped file paths (what parsing `/proc/self/maps` yields).
    pub memory_maps: Arc<Vec<String>>,
    /// Present when this process is a Python interpreter with an input
    /// script.
    pub python: Option<PythonContext>,
    /// True when the process runs inside a container. The LD_PRELOAD
    /// variable propagates into the container, but the directory holding
    /// `siren.so` is not mounted there, so the collection library never
    /// loads — the paper's stated limitation (§3.1), modeled explicitly.
    pub in_container: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simfile_meta_derived_from_content() {
        let f = SimFile::new(vec![1, 2, 3, 4], 42, 1001, 99);
        assert_eq!(f.meta.size, 4);
        assert_eq!(f.meta.inode, 42);
        assert_eq!(f.meta.owner_uid, 1001);
        assert_eq!(f.meta.mode, 0o755);
        assert_eq!(f.meta.mtime, 99);
    }
}
