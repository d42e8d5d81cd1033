//! Record assembly and emission: the constructor-time work of `siren.so`.

use crate::categorize::Category;
use crate::policy::{CollectionPolicy, PolicyMode};
use siren_cluster::ProcessContext;
use siren_fuzzy::FuzzyHasher;
use siren_hash::xxh3_128_hex;
use siren_net::Sender;
use siren_text::{printable_strings_joined, StringsConfig};
use siren_wire::{
    chunk_message, sentinel_message_with_epoch, Layer, Message, MessageHeader, MessageType,
    DEFAULT_MAX_DATAGRAM,
};

/// Collection statistics (the collector's only side channel — it never
/// reports errors to the hooked process).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Rank-0 observations processed.
    pub observed: u64,
    /// Observations skipped because `SLURM_PROCID != 0`.
    pub skipped_nonzero_rank: u64,
    /// Containerized processes the collector never saw (`siren.so` is not
    /// mounted inside containers — the §3.1 limitation). Counted here for
    /// observability of the blind spot; in reality these would simply be
    /// absent.
    pub invisible_container: u64,
    /// Logical messages produced.
    pub messages: u64,
    /// Datagrams handed to the transport (after chunking).
    pub datagrams_sent: u64,
    /// Collection steps that failed and were silently dropped.
    pub errors: u64,
    /// Per-category observation counts (system, user, python).
    pub by_category: [u64; 3],
    /// Total bytes of executable content fuzzy-hashed (cost metric for
    /// the selective-collection ablation).
    pub bytes_hashed: u64,
}

/// How many copies of the end-of-campaign sentinel each sender emits.
/// Transport is fire-and-forget UDP, so a single sentinel could be lost;
/// a small burst makes loss of *all* copies vanishingly unlikely while
/// the receiver's quiet-period fallback still covers that case.
pub const SENTINEL_BURST: usize = 3;

/// The collector: stateless per observation, accumulates statistics.
pub struct Collector<'s, S: Sender> {
    sender: &'s S,
    mode: PolicyMode,
    sender_id: u32,
    epoch: Option<u64>,
    stats: CollectorStats,
}

impl<'s, S: Sender> Collector<'s, S> {
    /// Collector emitting through `sender` under the given policy mode.
    pub fn new(sender: &'s S, mode: PolicyMode) -> Self {
        Self {
            sender,
            mode,
            sender_id: 0,
            epoch: None,
            stats: CollectorStats::default(),
        }
    }

    /// Tag this collector's sentinel with a sender id (multi-sender
    /// deployments give each collector thread a distinct id so the
    /// receiver can account for every stream).
    pub fn with_sender_id(mut self, id: u32) -> Self {
        self.sender_id = id;
        self
    }

    /// Tag this collector's end-of-campaign sentinel with a service
    /// **epoch** (long-running daemons ingest campaigns as consecutive
    /// epochs; the tag lets the receiver detect close mismatches).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Announce end of campaign: emit [`SENTINEL_BURST`] copies of the
    /// END sentinel through the transport. Datagram counts in the
    /// sentinel reflect payload datagrams only, so receivers can
    /// reconcile loss without counting sentinels.
    pub fn end_campaign(&self) {
        let sentinel =
            sentinel_message_with_epoch(self.sender_id, self.stats.datagrams_sent, self.epoch);
        let encoded = sentinel.encode();
        for _ in 0..SENTINEL_BURST {
            self.sender.send(&encoded);
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Observe one process (the constructor hook). Sends all resulting
    /// datagrams through the transport; never fails.
    pub fn observe(&mut self, ctx: &ProcessContext) {
        if ctx.slurm_procid != 0 {
            // Non-zero ranks are skipped whether or not the constructor
            // would have run; counting them first keeps the container
            // blind-spot counter aligned with the campaign's rank-0
            // container accounting.
            self.stats.skipped_nonzero_rank += 1;
            return;
        }
        if ctx.in_container {
            // The dynamic linker inside the container cannot find
            // siren.so: the constructor never runs, nothing is collected.
            self.stats.invisible_container += 1;
            return;
        }
        self.stats.observed += 1;
        let msgs = collect_messages(ctx, self.mode, &mut self.stats);
        for (header, content) in msgs {
            self.stats.messages += 1;
            for msg in chunk_message(&header, &content, DEFAULT_MAX_DATAGRAM) {
                self.stats.datagrams_sent += 1;
                self.sender.send(&msg.encode());
            }
        }
    }
}

fn fuzzy_of_bytes(data: &[u8]) -> String {
    let mut h = FuzzyHasher::new();
    h.update(data);
    h.digest().to_string_repr()
}

fn fuzzy_of_list(items: &[String]) -> String {
    fuzzy_of_bytes(items.join("\n").as_bytes())
}

fn meta_content(ctx: &ProcessContext) -> String {
    let m = &ctx.exe.meta;
    format!(
        "path={};inode={};size={};mode={:o};owner_uid={};owner_gid={};atime={};mtime={};ctime={};uid={};gid={};ppid={};user={}",
        ctx.exe_path,
        m.inode,
        m.size,
        m.mode,
        m.owner_uid,
        m.owner_gid,
        m.atime,
        m.mtime,
        m.ctime,
        ctx.uid,
        ctx.gid,
        ctx.ppid,
        ctx.user,
    )
}

fn script_meta_content(ctx: &ProcessContext) -> Option<String> {
    let py = ctx.python.as_ref()?;
    let m = &py.script.meta;
    Some(format!(
        "path={};inode={};size={};mode={:o};owner_uid={};owner_gid={};atime={};mtime={};ctime={};uid={};gid={};ppid={};user={}",
        py.script_path,
        m.inode,
        m.size,
        m.mode,
        m.owner_uid,
        m.owner_gid,
        m.atime,
        m.mtime,
        m.ctime,
        ctx.uid,
        ctx.gid,
        ctx.ppid,
        ctx.user,
    ))
}

/// Assemble all logical messages for one observation. Pure except for
/// statistics accounting. Public so tests and benches can inspect
/// collection output without a transport.
pub fn collect_messages(
    ctx: &ProcessContext,
    mode: PolicyMode,
    stats: &mut CollectorStats,
) -> Vec<(MessageHeader, String)> {
    let category = Category::of(&ctx.exe_path);
    match category {
        Category::System => stats.by_category[0] += 1,
        Category::User => stats.by_category[1] += 1,
        Category::Python => stats.by_category[2] += 1,
    }
    let policy = CollectionPolicy::for_category(category, mode);

    let header = |mtype: MessageType| MessageHeader {
        job_id: ctx.job_id,
        step_id: ctx.step_id,
        pid: ctx.pid,
        exe_hash: xxh3_128_hex(ctx.exe_path.as_bytes()),
        host: ctx.host.clone(),
        time: ctx.timestamp,
        layer: Layer::SelfExe,
        mtype,
    };

    let mut out: Vec<(MessageHeader, String)> = Vec::with_capacity(12);

    if policy.file_metadata {
        out.push((header(MessageType::Meta), meta_content(ctx)));
    }
    if policy.libraries {
        let list: Vec<String> = ctx.loaded_objects.to_vec();
        out.push((header(MessageType::Objects), list.join(";")));
        out.push((header(MessageType::ObjectsHash), fuzzy_of_list(&list)));
    }
    if policy.modules {
        let list: Vec<String> = ctx.loaded_modules.to_vec();
        out.push((header(MessageType::Modules), list.join(";")));
        out.push((header(MessageType::ModulesHash), fuzzy_of_list(&list)));
    }
    if policy.compilers {
        // `.comment` extraction can fail on malformed binaries — graceful
        // failure means the field is simply absent.
        match siren_elf::ElfFile::parse(&ctx.exe.data) {
            Ok(elf) => {
                let list = elf.comment_strings();
                out.push((header(MessageType::Compilers), list.join(";")));
                out.push((header(MessageType::CompilersHash), fuzzy_of_list(&list)));
            }
            Err(_) => stats.errors += 1,
        }
    }
    if policy.memory_map {
        let list: Vec<String> = ctx.memory_maps.to_vec();
        out.push((header(MessageType::Maps), list.join(";")));
        out.push((header(MessageType::MapsHash), fuzzy_of_list(&list)));
    }
    if policy.file_hash {
        stats.bytes_hashed += ctx.exe.data.len() as u64;
        out.push((header(MessageType::FileHash), fuzzy_of_bytes(&ctx.exe.data)));
    }
    if policy.strings_hash {
        let strings = printable_strings_joined(&ctx.exe.data, &StringsConfig::default());
        stats.bytes_hashed += strings.len() as u64;
        out.push((
            header(MessageType::StringsHash),
            fuzzy_of_bytes(strings.as_bytes()),
        ));
    }
    if policy.symbols_hash {
        match siren_elf::ElfFile::parse(&ctx.exe.data) {
            Ok(elf) => {
                let names: Vec<String> = elf.global_symbols().into_iter().map(|s| s.name).collect();
                stats.bytes_hashed += names.iter().map(|n| n.len() as u64 + 1).sum::<u64>();
                out.push((header(MessageType::SymbolsHash), fuzzy_of_list(&names)));
            }
            Err(_) => stats.errors += 1,
        }
    }

    // LAYER=SCRIPT: the Python input script, when present and the process
    // is a system-directory interpreter (Table 1's last column).
    if category == Category::Python {
        if let Some(py) = &ctx.python {
            let script_policy = CollectionPolicy::for_python_script();
            let sheader = |mtype: MessageType| MessageHeader {
                layer: Layer::Script,
                exe_hash: xxh3_128_hex(py.script_path.as_bytes()),
                ..header(mtype)
            };
            if script_policy.file_metadata {
                if let Some(content) = script_meta_content(ctx) {
                    out.push((sheader(MessageType::Meta), content));
                }
            }
            if script_policy.file_hash {
                stats.bytes_hashed += py.script.data.len() as u64;
                out.push((
                    sheader(MessageType::ScriptHash),
                    fuzzy_of_bytes(&py.script.data),
                ));
            }
        }
    }

    out
}

/// Convenience for tests: collect into [`Message`] datagrams without a
/// transport.
pub fn collect_datagrams(ctx: &ProcessContext, mode: PolicyMode) -> Vec<Message> {
    let mut stats = CollectorStats::default();
    collect_messages(ctx, mode, &mut stats)
        .into_iter()
        .flat_map(|(h, c)| chunk_message(&h, &c, DEFAULT_MAX_DATAGRAM))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_cluster::{FileMeta, ProcessContext, PythonContext, SimFile};
    use siren_elf::{Binding, ElfBuilder, ElfType, SymType};
    use std::sync::Arc;

    fn elf_exe() -> Vec<u8> {
        ElfBuilder::new(ElfType::Dyn)
            .text(&[0xAB; 4000])
            .rodata(b"solver v1.2\0usage: solver\0")
            .comment("GCC: (SUSE Linux) 13.2.1")
            .symbol("main", 0x10, 8, Binding::Global, SymType::Func)
            .symbol("solve_step", 0x20, 8, Binding::Global, SymType::Func)
            .build()
    }

    fn ctx(path: &str, data: Vec<u8>) -> ProcessContext {
        ProcessContext {
            user: "user_9".into(),
            uid: 1009,
            gid: 1009,
            job_id: 42,
            step_id: 1,
            slurm_procid: 0,
            host: "nid000099".into(),
            pid: 3141,
            ppid: 3000,
            timestamp: 1_733_900_000,
            exe_path: path.into(),
            exe: Arc::new(SimFile::new(data, 777, 1009, 1_700_000_000)),
            loaded_objects: Arc::new(vec![
                "/opt/siren/lib/siren.so".into(),
                "/lib64/libc.so.6".into(),
            ]),
            loaded_modules: Arc::new(vec!["PrgEnv-gnu/8.4.0".into()]),
            memory_maps: Arc::new(vec!["/lib64/libc.so.6".into()]),
            python: None,
            in_container: false,
        }
    }

    fn types_of(msgs: &[(MessageHeader, String)]) -> Vec<MessageType> {
        msgs.iter().map(|(h, _)| h.mtype).collect()
    }

    #[test]
    fn user_executable_emits_all_categories() {
        let c = ctx("/users/user_9/app/bin/solver", elf_exe());
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::Selective, &mut stats);
        let types = types_of(&msgs);
        for t in [
            MessageType::Meta,
            MessageType::Objects,
            MessageType::ObjectsHash,
            MessageType::Modules,
            MessageType::ModulesHash,
            MessageType::Compilers,
            MessageType::CompilersHash,
            MessageType::Maps,
            MessageType::MapsHash,
            MessageType::FileHash,
            MessageType::StringsHash,
            MessageType::SymbolsHash,
        ] {
            assert!(types.contains(&t), "missing {t:?}");
        }
        assert!(stats.bytes_hashed > 0);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn system_executable_emits_only_meta_and_objects() {
        let c = ctx("/usr/bin/bash", elf_exe());
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::Selective, &mut stats);
        let types = types_of(&msgs);
        assert_eq!(
            types,
            vec![
                MessageType::Meta,
                MessageType::Objects,
                MessageType::ObjectsHash
            ]
        );
        assert_eq!(stats.bytes_hashed, 0, "system binaries are never hashed");
    }

    #[test]
    fn collect_everything_hashes_system_binaries_too() {
        let c = ctx("/usr/bin/bash", elf_exe());
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::CollectEverything, &mut stats);
        assert!(types_of(&msgs).contains(&MessageType::FileHash));
        assert!(stats.bytes_hashed > 0);
    }

    #[test]
    fn compilers_content_is_comment_strings() {
        let c = ctx("/users/user_9/app/bin/solver", elf_exe());
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::Selective, &mut stats);
        let compilers = msgs
            .iter()
            .find(|(h, _)| h.mtype == MessageType::Compilers)
            .map(|(_, c)| c.clone())
            .unwrap();
        assert_eq!(compilers, "GCC: (SUSE Linux) 13.2.1");
    }

    #[test]
    fn malformed_binary_fails_gracefully() {
        let c = ctx(
            "/users/user_9/app/bin/solver",
            b"not an elf at all".to_vec(),
        );
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::Selective, &mut stats);
        // Compilers + symbols extraction fail silently; the rest proceeds.
        assert_eq!(stats.errors, 2);
        let types = types_of(&msgs);
        assert!(types.contains(&MessageType::Meta));
        assert!(types.contains(&MessageType::FileHash));
        assert!(!types.contains(&MessageType::Compilers));
        assert!(!types.contains(&MessageType::SymbolsHash));
    }

    #[test]
    fn python_interpreter_emits_script_layer() {
        let mut c = ctx("/usr/bin/python3.6", elf_exe());
        c.python = Some(PythonContext {
            script_path: "/users/user_9/scripts/run.py".into(),
            script: Arc::new(SimFile {
                data: Arc::new(b"import numpy\nprint('hi')\n".to_vec()),
                meta: FileMeta {
                    inode: 1,
                    size: 25,
                    mode: 0o644,
                    owner_uid: 1009,
                    owner_gid: 1009,
                    atime: 0,
                    mtime: 0,
                    ctime: 0,
                },
            }),
        });
        let mut stats = CollectorStats::default();
        let msgs = collect_messages(&c, PolicyMode::Selective, &mut stats);
        let script_msgs: Vec<_> = msgs
            .iter()
            .filter(|(h, _)| h.layer == Layer::Script)
            .collect();
        assert_eq!(script_msgs.len(), 2); // META + SCRIPT_H
        assert!(script_msgs
            .iter()
            .any(|(h, _)| h.mtype == MessageType::ScriptHash));
        // Interpreter itself: no FILE_H (Table 1), but maps present.
        let self_types: Vec<MessageType> = msgs
            .iter()
            .filter(|(h, _)| h.layer == Layer::SelfExe)
            .map(|(h, _)| h.mtype)
            .collect();
        assert!(!self_types.contains(&MessageType::FileHash));
        assert!(self_types.contains(&MessageType::Maps));
    }

    #[test]
    fn exe_hash_distinguishes_paths_not_content() {
        let data = elf_exe();
        let a = ctx("/usr/bin/bash", data.clone());
        let b = ctx("/usr/bin/srun", data);
        let mut stats = CollectorStats::default();
        let ha = collect_messages(&a, PolicyMode::Selective, &mut stats)[0]
            .0
            .exe_hash
            .clone();
        let hb = collect_messages(&b, PolicyMode::Selective, &mut stats)[0]
            .0
            .exe_hash
            .clone();
        assert_ne!(ha, hb);
        assert_eq!(ha.len(), 32);
    }

    #[test]
    fn nonzero_rank_skipped_by_observe() {
        let (tx, rx) = siren_net::SimChannel::create(siren_net::SimConfig::perfect());
        let mut collector = Collector::new(&tx, PolicyMode::Selective);
        let mut c = ctx("/usr/bin/bash", elf_exe());
        c.slurm_procid = 3;
        collector.observe(&c);
        assert_eq!(collector.stats().skipped_nonzero_rank, 1);
        assert_eq!(collector.stats().observed, 0);
        assert_eq!(rx.queued(), 0);
    }

    #[test]
    fn container_processes_are_invisible() {
        let (tx, rx) = siren_net::SimChannel::create(siren_net::SimConfig::perfect());
        let mut collector = Collector::new(&tx, PolicyMode::Selective);
        let mut c = ctx("/users/user_9/app/bin/solver", elf_exe());
        c.in_container = true;
        collector.observe(&c);
        assert_eq!(collector.stats().invisible_container, 1);
        assert_eq!(collector.stats().observed, 0);
        assert_eq!(rx.queued(), 0, "no datagrams from inside containers");
    }

    #[test]
    fn long_object_lists_chunk_into_multiple_datagrams() {
        let mut c = ctx("/usr/bin/bash", elf_exe());
        let many: Vec<String> = (0..200)
            .map(|i| format!("/opt/very/long/library/path/lib_{i:04}.so.1"))
            .collect();
        c.loaded_objects = Arc::new(many);
        let datagrams = collect_datagrams(&c, PolicyMode::Selective);
        let obj_chunks = datagrams
            .iter()
            .filter(|m| m.header.mtype == MessageType::Objects)
            .count();
        assert!(obj_chunks > 1, "expected chunking, got {obj_chunks}");
    }
}
