//! Campaign orchestration: users × job kinds × processes → a deterministic
//! stream of [`ProcessContext`] observations.

use crate::corpus::ApplicationCorpus;
use crate::process::{ProcessContext, PythonContext, SimFile};
use crate::python::PythonEcosystem;
use crate::scheduler::{
    pick_weighted, sample_count, scale_count, system_variant_weights, PidAllocator,
};
use crate::sysimage::SystemImage;
use crate::users::{build_profiles, UserProfile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Fraction of application processes that also emit a non-zero-rank
/// MPI sibling, which the collector must skip (§3.1). Any non-zero value
/// exercises the skip path; 5 % is the value every table and test in
/// this repository was measured with.
const NONZERO_RANK_RATIO: f64 = 0.05;

/// Fraction of application processes that run inside containers
/// (Singularity/Apptainer). `siren.so` is not mounted there, so the
/// collector cannot observe them — §3.1's stated limitation. 2 % keeps
/// the blind spot visible in the collector's `invisible_container`
/// count; it is the value every table and test here was measured with.
const CONTAINER_RATIO: f64 = 0.02;

/// Presence floor: each binary-variant family emits at least
/// `min(variants, VARIANT_FLOOR_CAP)` processes over the campaign
/// regardless of scale, so the similarity experiments always see their
/// families. At 8 the UNKNOWN family's 7 copies (Table 7) all appear,
/// while the 130-variant `icon-gcc` family costs only 8 processes at
/// small scales.
const VARIANT_FLOOR_CAP: usize = 8;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; `(seed, scale)` fully determines the output stream.
    pub seed: u64,
    /// Population scale relative to the paper's deployment (1.0 =
    /// 2.3 M processes; the default 0.02 ≈ 46 k keeps experiments fast
    /// while preserving every structural feature).
    pub scale: f64,
    /// First Slurm job id minus one.
    pub job_id_base: u64,
    /// Lowest node number; jobs land on hosts `nid{host_base+0..512}`.
    /// Multi-cluster fleets give each cluster a disjoint host range.
    pub host_base: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0x51_4E,
            scale: 0.02,
            job_id_base: 8_000_000,
            host_base: 1000,
        }
    }
}

/// Aggregate counts of one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs generated.
    pub jobs: u64,
    /// Rank-0 process observations emitted.
    pub processes: u64,
    /// … of which from system-directory executables.
    pub system_processes: u64,
    /// … of which from user-directory executables.
    pub user_processes: u64,
    /// … of which Python interpreters (system-directory).
    pub python_processes: u64,
    /// Extra non-zero-rank observations (collector should skip these).
    pub nonzero_rank_processes: u64,
    /// `exec()` image replacements emitted (same PID + timestamp).
    pub exec_replacements: u64,
    /// Containerized process observations (invisible to the collector).
    pub container_processes: u64,
}

/// A fully built campaign, ready to stream process observations.
pub struct Campaign {
    cfg: CampaignConfig,
    system: SystemImage,
    corpus: ApplicationCorpus,
    python: PythonEcosystem,
    profiles: Vec<UserProfile>,
}

impl Campaign {
    /// Build all substrate state (system image, corpus, Python ecosystem).
    pub fn new(cfg: CampaignConfig) -> Self {
        Self {
            cfg,
            system: SystemImage::build(),
            corpus: ApplicationCorpus::build(),
            python: PythonEcosystem::build(),
            profiles: build_profiles(),
        }
    }

    /// Stream every process observation through `f`. Deterministic for a
    /// given config. Returns aggregate statistics.
    pub fn run(&self, mut f: impl FnMut(ProcessContext)) -> CampaignStats {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut pids = PidAllocator::new();
        let mut stats = CampaignStats::default();
        let mut job_id = cfg.job_id_base;
        // Round-robin cursors so every binary variant and every script in
        // a family gets exercised, lowest variants first (the similarity
        // experiments rely on low-numbered variants being present).
        let mut variant_cursor: HashMap<&'static str, usize> = HashMap::new();
        let mut script_cursor: HashMap<&'static str, usize> = HashMap::new();
        // SimFile cache (per concrete path) so repeated executions share
        // one file object with a stable inode.
        let mut file_cache: HashMap<String, Arc<SimFile>> = HashMap::new();
        let mut next_inode = 5_000_000u64;
        // Processes emitted per group, for the presence floor.
        let mut group_emitted: HashMap<&'static str, u64> = HashMap::new();
        // Variants emitted per system executable: the first draws cycle
        // through the library-set variants so every set of Tables 3–4 is
        // present at any scale (same presence doctrine as the app-family
        // floor); afterwards draws follow the observed weights.
        let mut sys_variant_seen: HashMap<&'static str, usize> = HashMap::new();
        // Users whose first job has already guaranteed system-executable
        // presence (keeps Table 3's unique-user column exact at any scale).
        let mut sys_guaranteed: std::collections::HashSet<&'static str> =
            std::collections::HashSet::new();

        for profile in &self.profiles {
            // Per-job system rates. bash is moved to the front so the
            // bash→srun exec() pairing sees the bash before the srun.
            let mut sys_rates: Vec<(&'static str, f64)> = profile
                .system_procs
                .iter()
                .map(|(exe, total)| (*exe, total / profile.total_jobs as f64))
                .collect();
            sys_rates.sort_by_key(|(exe, _)| *exe != "/usr/bin/bash");

            let mut user_first_job = !sys_guaranteed.contains(profile.name);
            sys_guaranteed.insert(profile.name);
            for kind in &profile.kinds {
                let n_jobs = scale_count(kind.count, cfg.scale);
                // When the min-1 clamp rounded the job count up (or .round()
                // moved it), rescale the per-job rates so expected totals
                // remain exactly `scale × unscaled`.
                let kind_factor = (kind.count as f64 * cfg.scale) / n_jobs as f64;
                for job_idx in 0..n_jobs {
                    job_id += 1;
                    stats.jobs += 1;
                    let host = format!("nid{:06}", cfg.host_base + rng.random_range(0..512u32));
                    let span = crate::CAMPAIGN_SECONDS.saturating_sub(7200).max(1);
                    let job_start = crate::CAMPAIGN_START + rng.random_range(0..span);

                    self.emit_job(
                        profile,
                        kind,
                        job_id,
                        &host,
                        job_start,
                        &sys_rates,
                        kind_factor,
                        job_idx == 0,
                        std::mem::take(&mut user_first_job),
                        &mut rng,
                        &mut pids,
                        &mut variant_cursor,
                        &mut script_cursor,
                        &mut group_emitted,
                        &mut sys_variant_seen,
                        &mut file_cache,
                        &mut next_inode,
                        &mut stats,
                        &mut f,
                    );
                }
            }
        }
        stats
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_job(
        &self,
        profile: &UserProfile,
        kind: &crate::users::JobKind,
        job_id: u64,
        host: &str,
        job_start: u64,
        sys_rates: &[(&'static str, f64)],
        kind_factor: f64,
        first_job_of_kind: bool,
        first_job_of_user: bool,
        rng: &mut StdRng,
        pids: &mut PidAllocator,
        variant_cursor: &mut HashMap<&'static str, usize>,
        script_cursor: &mut HashMap<&'static str, usize>,
        group_emitted: &mut HashMap<&'static str, u64>,
        sys_variant_seen: &mut HashMap<&'static str, usize>,
        file_cache: &mut HashMap<String, Arc<SimFile>>,
        next_inode: &mut u64,
        stats: &mut CampaignStats,
        f: &mut impl FnMut(ProcessContext),
    ) {
        let uid = profile.uid;
        let user = profile.name;
        let job_pid_root = pids.next(host);
        let mut first_bash: Option<(u32, u64)> = None;
        let mut exec_done = false;

        // ------------------------------------------ system processes --
        for (exe_path, rate) in sys_rates {
            let mut n = sample_count(rate * kind_factor, rng);
            if first_job_of_user && *rate > 0.0 {
                // Presence guarantee: every executable a user touches in
                // the full-scale campaign appears at least once, so the
                // unique-users column of Table 3 is scale-invariant.
                n = n.max(1);
            }
            if n == 0 {
                continue;
            }
            let exe = self
                .system
                .get(exe_path)
                .unwrap_or_else(|| panic!("system image missing {exe_path}"));
            let weights = system_variant_weights(exe_path, exe.object_variants.len());
            for _ in 0..n {
                let seen = sys_variant_seen.entry(exe_path).or_insert(0);
                let variant = if *seen < exe.object_variants.len() {
                    let v = *seen;
                    *seen += 1;
                    v
                } else {
                    pick_weighted(&weights, rng)
                };
                let objects = Arc::clone(&exe.object_variants[variant]);
                let ts = job_start + rng.random_range(0..3600u64);

                // §3.1: a bash that `exec()`s srun keeps its PID; the two
                // observations may share the same 1-second timestamp.
                let (pid, ts) = if *exe_path == "/usr/bin/srun" && !exec_done {
                    if let Some((bpid, bts)) = first_bash {
                        exec_done = true;
                        stats.exec_replacements += 1;
                        (bpid, bts)
                    } else {
                        (pids.next(host), ts)
                    }
                } else {
                    (pids.next(host), ts)
                };

                if *exe_path == "/usr/bin/bash" && first_bash.is_none() {
                    first_bash = Some((pid, ts));
                }

                let mut maps: Vec<String> = objects.iter().cloned().collect();
                maps.push(exe_path.to_string());

                stats.processes += 1;
                stats.system_processes += 1;
                f(ProcessContext {
                    user: user.to_string(),
                    uid,
                    gid: uid,
                    job_id,
                    step_id: 0,
                    slurm_procid: 0,
                    host: host.to_string(),
                    pid,
                    ppid: job_pid_root,
                    timestamp: ts,
                    exe_path: exe_path.to_string(),
                    exe: Arc::clone(&exe.file),
                    loaded_objects: objects,
                    loaded_modules: Arc::new(Vec::new()),
                    memory_maps: Arc::new(maps),
                    python: None,
                    in_container: false,
                });
            }
        }

        // -------------------------------------- application processes --
        let mut step_id = 1u32;
        for (group_id, rate) in &kind.apps {
            let group = self.corpus.group(group_id);
            let mut n = sample_count(rate * kind_factor, rng);
            if first_job_of_kind {
                // Presence guarantees: every kind shows its applications at
                // any scale, and every variant family reaches its floor.
                let floor = group.spec.variants.min(VARIANT_FLOOR_CAP) as u64;
                let already = *group_emitted.get(group.spec.group_id).unwrap_or(&0);
                n = n.max(1).max(floor.saturating_sub(already));
            }
            *group_emitted.entry(group.spec.group_id).or_insert(0) += n;
            for _ in 0..n {
                let cursor = variant_cursor.entry(group.spec.group_id).or_insert(0);
                let variant = *cursor % group.spec.variants;
                *cursor += 1;

                let path = group.exe_path(user, variant);
                let vb = &group.variants[variant];
                let file = file_cache
                    .entry(path.clone())
                    .or_insert_with(|| {
                        *next_inode += 1;
                        Arc::new(SimFile {
                            data: Arc::clone(&vb.content),
                            meta: crate::process::FileMeta {
                                inode: *next_inode,
                                size: vb.content.len() as u64,
                                mode: 0o755,
                                owner_uid: uid,
                                owner_gid: uid,
                                atime: job_start,
                                mtime: crate::CAMPAIGN_START - 86_400,
                                ctime: crate::CAMPAIGN_START - 86_400,
                            },
                        })
                    })
                    .clone();

                let ts = job_start + 60 + rng.random_range(0..3600u64);
                let pid = pids.next(host);
                let mut maps: Vec<String> = vb.objects.iter().cloned().collect();
                maps.push(path.clone());

                stats.processes += 1;
                stats.user_processes += 1;
                let in_container = rng.random::<f64>() < CONTAINER_RATIO;
                if in_container {
                    stats.container_processes += 1;
                }
                let ctx = ProcessContext {
                    user: user.to_string(),
                    uid,
                    gid: uid,
                    job_id,
                    step_id,
                    slurm_procid: 0,
                    host: host.to_string(),
                    pid,
                    ppid: job_pid_root,
                    timestamp: ts,
                    exe_path: path,
                    exe: file,
                    loaded_objects: Arc::clone(&vb.objects),
                    loaded_modules: Arc::clone(&vb.modules),
                    memory_maps: Arc::new(maps),
                    python: None,
                    in_container,
                };
                // A fraction of MPI applications run with multiple ranks;
                // the collector must skip the non-zero ranks (§3.1).
                if rng.random::<f64>() < NONZERO_RANK_RATIO {
                    let mut sibling = ctx.clone();
                    sibling.slurm_procid = 1;
                    sibling.pid = pids.next(host);
                    stats.nonzero_rank_processes += 1;
                    f(sibling);
                }
                f(ctx);
            }
            step_id += 1;
        }

        // ------------------------------------------ python processes --
        if let Some(py) = &kind.python {
            let interp = self.python.interpreter(py.interpreter);
            let scripts = self.python.scripts(py.family);

            let mut n = sample_count(py.procs_per_job * kind_factor, rng);
            if first_job_of_kind {
                n = n.max(1);
            }
            for _ in 0..n {
                // Rotate through the family per process so every script —
                // and thus every imported package — is exercised at any
                // scale (a job's many interpreter processes map to the
                // sweep of inputs the user's workflow runs through).
                let cursor = script_cursor.entry(py.family).or_insert(0);
                let script = &scripts[*cursor % scripts.len()];
                *cursor += 1;
                let ts = job_start + 30 + rng.random_range(0..3600u64);
                let pid = pids.next(host);
                let maps = self.python.interpreter_maps(interp, script);

                stats.processes += 1;
                stats.python_processes += 1;
                f(ProcessContext {
                    user: user.to_string(),
                    uid,
                    gid: uid,
                    job_id,
                    step_id,
                    slurm_procid: 0,
                    host: host.to_string(),
                    pid,
                    ppid: job_pid_root,
                    timestamp: ts,
                    exe_path: interp.path.to_string(),
                    exe: Arc::clone(&interp.file),
                    loaded_objects: Arc::clone(&interp.objects),
                    loaded_modules: Arc::new(Vec::new()),
                    memory_maps: Arc::new(maps),
                    python: Some(PythonContext {
                        script_path: script.path.clone(),
                        script: Arc::new((*script.file).clone()),
                    }),
                    in_container: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            scale: 0.002,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn stats_add_up() {
        let campaign = Campaign::new(small_cfg());
        let mut counted = 0u64;
        let stats = campaign.run(|_| counted += 1);
        assert_eq!(
            counted,
            stats.processes + stats.nonzero_rank_processes,
            "callback must see rank-0 and extra-rank observations"
        );
        assert_eq!(
            stats.processes,
            stats.system_processes + stats.user_processes + stats.python_processes
        );
        assert!(stats.jobs > 0);
    }

    #[test]
    fn population_shape_matches_table_2_proportions() {
        let campaign = Campaign::new(CampaignConfig {
            scale: 0.01,
            ..CampaignConfig::default()
        });
        let stats = campaign.run(|_| {});
        // At scale s the totals should approximate s × paper totals.
        let expect_procs = 2_350_217.0 * 0.01; // 2,317,859 + 9,042 + 23,316
        let got = stats.processes as f64;
        assert!(
            (got - expect_procs).abs() / expect_procs < 0.15,
            "got {got}, expected ≈{expect_procs}"
        );
        assert!(stats.system_processes > stats.user_processes);
        assert!(stats.python_processes > stats.user_processes / 4);
    }

    #[test]
    fn exec_replacements_share_pid_and_timestamp() {
        let campaign = Campaign::new(small_cfg());
        let mut by_key: HashMap<(u64, String, u32, u64), Vec<String>> = HashMap::new();
        let stats = campaign.run(|ctx| {
            by_key
                .entry((ctx.job_id, ctx.host.clone(), ctx.pid, ctx.timestamp))
                .or_default()
                .push(ctx.exe_path.clone());
        });
        assert!(stats.exec_replacements > 0, "campaign must exercise exec()");
        let collisions = by_key.values().filter(|v| v.len() > 1).count();
        assert!(collisions > 0, "exec pairs must collide on (pid, time)");
        // At least one collision must be bash → srun.
        assert!(by_key.values().any(|v| {
            v.len() > 1
                && v.iter().any(|e| e.contains("bash"))
                && v.iter().any(|e| e.contains("srun"))
        }));
    }

    #[test]
    fn unknown_group_emitted_with_nondescript_path() {
        let campaign = Campaign::new(small_cfg());
        let mut unknown_paths = Vec::new();
        campaign.run(|ctx| {
            if ctx.exe_path.ends_with("/a.out") {
                unknown_paths.push(ctx.exe_path.clone());
            }
        });
        assert!(
            !unknown_paths.is_empty(),
            "UNKNOWN must appear even at small scale"
        );
    }

    #[test]
    fn python_contexts_carry_scripts() {
        let campaign = Campaign::new(small_cfg());
        let mut py = 0u64;
        campaign.run(|ctx| {
            if let Some(p) = &ctx.python {
                py += 1;
                assert!(p.script_path.ends_with(".py"));
                assert!(!p.script.data.is_empty());
                assert!(ctx.exe_path.contains("python"));
            }
        });
        assert!(py > 0);
    }

    #[test]
    fn variants_cycle_from_zero() {
        let campaign = Campaign::new(small_cfg());
        let mut icon_paths = std::collections::HashSet::new();
        campaign.run(|ctx| {
            if ctx.exe_path.contains("icon-model/build_") {
                icon_paths.insert(ctx.exe_path.clone());
            }
        });
        // Low-numbered build dirs must be present (round-robin from 0).
        assert!(icon_paths.iter().any(|p| p.contains("/build_0/")));
        assert!(icon_paths.len() > 3);
    }

    #[test]
    fn all_twelve_users_appear() {
        let campaign = Campaign::new(small_cfg());
        let mut users = std::collections::HashSet::new();
        campaign.run(|ctx| {
            users.insert(ctx.user.clone());
        });
        assert_eq!(users.len(), 12);
    }
}
