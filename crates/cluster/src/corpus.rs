//! The user-application corpus: synthetic binary *families*.
//!
//! Each [`GroupSpec`] describes one build lineage of one software package
//! — e.g. the GCC-built icon executables, or the LLD-built GROMACS — with
//! its compiler identification strings (Table 6 / Fig. 4), shared-library
//! labels (Fig. 2 / Fig. 5), module environment, and a number of binary
//! *variants* (the paper's "unique FILE_H" column, Table 5).
//!
//! Variants are generated with **controlled byte-level divergence**: the
//! `.text` payload of variant `v` re-rolls a fraction of the base blocks
//! that grows with `v`, so fuzzy-hash similarity to variant 0 decays
//! gradually — exactly the structure Table 7's similarity search reveals.
//! Symbol tables change every 4 variants, module lists every 8, and the
//! loaded-object list alternates between a full and a reduced set every
//! 16, reproducing the mixed 100/57-style column values of Table 7.
//!
//! The `UNKNOWN` group *copies* the first variants of the GCC icon lineage
//! byte-for-byte under a nondescript `/scratch/.../a.out` path — the
//! planted ground truth that the similarity-search experiment recovers.

use crate::libcatalog::LibraryCatalog;
use siren_elf::{Binding, ElfBuilder, ElfType, SymType};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiler identification strings as they appear in `.comment`.
pub mod compilers {
    /// SUSE system GCC (LUMI's OS toolchain).
    pub const GCC_SUSE: &str = "GCC: (SUSE Linux) 13.2.1 20240206";
    /// AMD ROCm LLVM linker.
    pub const LLD_AMD: &str = "LLD 17.0.0 [AMD ROCm 5.6.1]";
    /// Cray clang (CCE).
    pub const CLANG_CRAY: &str = "clang version 16.0.1 (Cray Inc.)";
    /// AMD clang (ROCm).
    pub const CLANG_AMD: &str = "AMD clang version 16.0.0 (roc-5.6.1)";
    /// Red Hat GCC (conda base images).
    pub const GCC_REDHAT: &str = "GCC: (GNU) 8.5.0 20210514 (Red Hat 8.5.0-18)";
    /// conda-forge GCC.
    pub const GCC_CONDA: &str = "GCC: (conda-forge gcc 12.3.0-3) 12.3.0";
    /// HPE GCC build.
    pub const GCC_HPE: &str = "GCC: (HPE) 12.2.0 20230601";
    /// Rust compiler (novel-toolchain case of §4.3).
    pub const RUSTC: &str = "rustc version 1.74.0 (79e9716c9 2023-11-13)";
}

use compilers::*;

/// Static description of one build lineage.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Unique group identifier (referenced by job templates).
    pub group_id: &'static str,
    /// Software label the analysis should derive (Table 5). `UNKNOWN`
    /// binaries get a nondescript path that matches no label rule.
    pub software: &'static str,
    /// `.comment` strings in every variant of this lineage.
    pub compilers: &'static [&'static str],
    /// Number of distinct binaries (unique `FILE_H`).
    pub variants: usize,
    /// Figure-2 library labels loaded by these processes (full set).
    pub lib_labels: &'static [&'static str],
    /// Optional reduced library set used by some variants (drives the
    /// multiple-OBJECTS_H structure).
    pub alt_lib_labels: Option<&'static [&'static str]>,
    /// Module environment (`LOADEDMODULES` base list).
    pub modules: &'static [&'static str],
    /// Executable file name.
    pub exe_name: &'static str,
    /// Directory template; `{user}` and `{variant}` are substituted.
    pub exe_dir: &'static str,
    /// Deterministic generation seed.
    pub seed: u64,
    /// `.text` payload size in bytes.
    pub text_size: usize,
    /// When set, variants are byte-copies of another group's first
    /// variants (the UNKNOWN construction).
    pub copy_of: Option<&'static str>,
    /// Symbol-name theme for the synthetic symbol table.
    pub symbol_theme: &'static str,
}

const LAMMPS_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "rocm",
    "numa",
    "drm",
    "amdgpu-drm",
    "libsci-cray",
    "rocm-blas",
    "rocsolver-rocm",
    "rocsparse-rocm",
    "fft-cray",
    "rocm-fft",
    "rocfft-rocm-fft",
    "MIOpen-rocm",
    "rocm-torch",
    "numa-rocm-torch",
    "torch-tykky",
    "numa-torch-tykky",
];
const GROMACS_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "rocm",
    "numa",
    "drm",
    "amdgpu-drm",
    "fortran",
    "gromacs",
    "boost",
];
const MINICONDA_LIBS: &[&str] = &["siren", "pthread"];
const JANKO_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "fortran",
    "libsci-cray",
    "numa-spack",
    "spack",
    "blas-spack",
    "rocsolver-spack",
    "rocsparse-spack",
    "drm-spack",
    "amdgpu-drm-spack",
];
const ICON_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "rocm",
    "numa",
    "drm",
    "amdgpu-drm",
    "fortran",
    "libsci-cray",
    "craymath-cray",
    "netcdf-cray",
    "amdgpu-cray",
    "openacc-cray",
    "climatedt",
    "climatedt-yaml",
    "hdf5-cray",
];
/// Reduced icon set (variants that skip GPU + climatedt libraries) —
/// produces the second OBJECTS_H and the 57-similarity OB column value.
const ICON_LIBS_REDUCED: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "fortran",
    "libsci-cray",
    "craymath-cray",
    "netcdf-cray",
    "hdf5-cray",
];
const AMBER_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "rocm",
    "numa",
    "drm",
    "amdgpu-drm",
    "fortran",
    "libsci-cray",
    "rocm-blas",
    "rocsolver-rocm",
    "rocsparse-rocm",
    "fft-cray",
    "rocm-fft",
    "rocfft-rocm-fft",
    "netcdf-cray",
    "cuda-amber",
    "amber",
    "netcdf-parallel-cray",
    "hdf5-parallel-cray",
    "hdf5-fortran-parallel-cray",
];
const GZIP_LIBS: &[&str] = &["siren"];
const ALEXANDRIA_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "fabric-cray",
    "pmi-cray",
    "fortran",
    "craymath-cray",
];
const RADRAD_LIBS: &[&str] = &[
    "siren",
    "pthread",
    "cray",
    "quadmath-cray",
    "rocm",
    "numa",
    "drm",
    "amdgpu-drm",
    "fortran",
    "libsci-cray",
    "rocm-blas",
    "rocsolver-rocm",
    "rocsparse-rocm",
    "craymath-cray",
    "amdgpu-cray",
    "openacc-cray",
];

/// All build lineages in the simulated deployment. Allocation of
/// processes/jobs to users lives in `users.rs`; this table is the "what
/// exists on disk" side.
pub const GROUPS: &[GroupSpec] = &[
    GroupSpec {
        group_id: "lammps-gcc",
        software: "LAMMPS",
        compilers: &[GCC_SUSE],
        variants: 3,
        lib_labels: LAMMPS_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-gnu/8.4.0", "rocm/5.6.1", "cray-fftw/3.3.10.5"],
        exe_name: "lmp",
        exe_dir: "/users/{user}/lammps/build",
        seed: 0x11AA,
        text_size: 28_000,
        copy_of: None,
        symbol_theme: "pair_lj",
    },
    GroupSpec {
        group_id: "lammps-lld",
        software: "LAMMPS",
        compilers: &[LLD_AMD],
        variants: 2,
        lib_labels: LAMMPS_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-amd/8.4.0", "rocm/5.6.1", "cray-fftw/3.3.10.5"],
        exe_name: "lmp_gpu",
        exe_dir: "/users/{user}/lammps/build-gpu",
        seed: 0x11AB,
        text_size: 30_000,
        copy_of: None,
        symbol_theme: "pair_gpu",
    },
    GroupSpec {
        group_id: "gromacs",
        software: "GROMACS",
        compilers: &[LLD_AMD],
        variants: 1,
        lib_labels: GROMACS_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-amd/8.4.0", "rocm/5.6.1", "gromacs/2024.1"],
        exe_name: "gmx_mpi",
        exe_dir: "/users/{user}/gromacs-2024/bin",
        seed: 0x22AA,
        text_size: 32_000,
        copy_of: None,
        symbol_theme: "gmx_mdrun",
    },
    GroupSpec {
        group_id: "miniconda",
        software: "miniconda",
        compilers: &[GCC_REDHAT, GCC_CONDA],
        variants: 4,
        lib_labels: MINICONDA_LIBS,
        alt_lib_labels: None,
        modules: &[],
        exe_name: "python3.11",
        exe_dir: "/users/{user}/miniconda3/envs/env{variant}/bin",
        seed: 0x33AA,
        text_size: 24_000,
        copy_of: None,
        symbol_theme: "PyObject",
    },
    GroupSpec {
        group_id: "miniconda-rustc",
        software: "miniconda",
        compilers: &[GCC_REDHAT, RUSTC],
        variants: 1,
        lib_labels: MINICONDA_LIBS,
        alt_lib_labels: None,
        modules: &[],
        exe_name: "uv",
        exe_dir: "/users/{user}/miniconda3/bin",
        seed: 0x33AB,
        text_size: 20_000,
        copy_of: None,
        symbol_theme: "rust_alloc",
    },
    GroupSpec {
        group_id: "janko",
        software: "janko",
        compilers: &[GCC_SUSE, GCC_HPE],
        variants: 2,
        lib_labels: JANKO_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-gnu/8.4.0", "spack/23.09"],
        exe_name: "janko",
        exe_dir: "/users/{user}/janko/bin",
        seed: 0x44AA,
        text_size: 18_000,
        copy_of: None,
        symbol_theme: "janko_solver",
    },
    GroupSpec {
        group_id: "icon-gcc",
        software: "icon",
        compilers: &[GCC_SUSE],
        variants: 130,
        lib_labels: ICON_LIBS,
        alt_lib_labels: Some(ICON_LIBS_REDUCED),
        modules: &[
            "PrgEnv-gnu/8.4.0",
            "cray-hdf5/1.12.2.7",
            "cray-netcdf/4.9.0.7",
            "climatedt/1.4",
        ],
        exe_name: "icon",
        exe_dir: "/users/{user}/icon-model/build_{variant}/bin",
        seed: 0x55AA,
        text_size: 26_000,
        copy_of: None,
        symbol_theme: "mo_atmo",
    },
    GroupSpec {
        group_id: "icon-cray",
        software: "icon",
        compilers: &[GCC_SUSE, CLANG_CRAY],
        variants: 32,
        lib_labels: ICON_LIBS,
        alt_lib_labels: Some(ICON_LIBS_REDUCED),
        modules: &[
            "PrgEnv-cray/8.4.0",
            "cce/16.0.1",
            "cray-hdf5/1.12.2.7",
            "cray-netcdf/4.9.0.7",
            "climatedt/1.4",
        ],
        exe_name: "icon_atm",
        exe_dir: "/users/{user}/icon-model/build-cce_{variant}/bin",
        seed: 0x55AB,
        text_size: 26_000,
        copy_of: None,
        symbol_theme: "mo_atmo",
    },
    GroupSpec {
        group_id: "icon-triple",
        software: "icon",
        compilers: &[GCC_SUSE, CLANG_CRAY, CLANG_AMD],
        variants: 13,
        lib_labels: ICON_LIBS,
        alt_lib_labels: Some(ICON_LIBS_REDUCED),
        modules: &[
            "PrgEnv-cray/8.4.0",
            "cce/16.0.1",
            "rocm/5.6.1",
            "cray-hdf5/1.12.2.7",
            "cray-netcdf/4.9.0.7",
            "climatedt/1.4",
        ],
        exe_name: "icon_ocean",
        exe_dir: "/users/{user}/icon-model/build-gpu_{variant}/bin",
        seed: 0x55AC,
        text_size: 26_000,
        copy_of: None,
        symbol_theme: "mo_ocean",
    },
    GroupSpec {
        group_id: "unknown",
        software: "UNKNOWN",
        compilers: &[GCC_SUSE],
        variants: 7,
        lib_labels: ICON_LIBS,
        alt_lib_labels: Some(ICON_LIBS_REDUCED),
        modules: &[
            "PrgEnv-gnu/8.4.0",
            "cray-hdf5/1.12.2.7",
            "cray-netcdf/4.9.0.7",
            "climatedt/1.4",
        ],
        exe_name: "a.out",
        exe_dir: "/scratch/project_462000123/run_{variant}",
        seed: 0x55AA, // irrelevant: bytes are copied from icon-gcc
        text_size: 26_000,
        copy_of: Some("icon-gcc"),
        symbol_theme: "mo_atmo",
    },
    GroupSpec {
        group_id: "amber",
        software: "amber",
        compilers: &[GCC_SUSE, CLANG_AMD],
        variants: 2,
        lib_labels: AMBER_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-gnu/8.4.0", "rocm/5.6.1", "amber/22"],
        exe_name: "pmemd.hip",
        exe_dir: "/users/{user}/amber22/bin",
        seed: 0x66AA,
        text_size: 30_000,
        copy_of: None,
        symbol_theme: "pme_force",
    },
    GroupSpec {
        group_id: "gzip",
        software: "gzip",
        compilers: &[LLD_AMD],
        variants: 1,
        lib_labels: GZIP_LIBS,
        alt_lib_labels: None,
        modules: &[],
        exe_name: "gzip",
        exe_dir: "/users/{user}/tools/gzip-1.13/bin",
        seed: 0x77AA,
        text_size: 12_000,
        copy_of: None,
        symbol_theme: "deflate",
    },
    GroupSpec {
        group_id: "alexandria",
        software: "alexandria",
        compilers: &[GCC_SUSE],
        variants: 1,
        lib_labels: ALEXANDRIA_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-gnu/8.4.0"],
        exe_name: "alexandria",
        exe_dir: "/users/{user}/alexandria/bin",
        seed: 0x88AA,
        text_size: 16_000,
        copy_of: None,
        symbol_theme: "alex_train",
    },
    GroupSpec {
        group_id: "radrad",
        software: "RadRad",
        compilers: &[GCC_SUSE, CLANG_CRAY],
        variants: 2,
        lib_labels: RADRAD_LIBS,
        alt_lib_labels: None,
        modules: &["PrgEnv-cray/8.4.0", "cce/16.0.1", "rocm/5.6.1"],
        exe_name: "RadRad",
        exe_dir: "/users/{user}/RadRad/bin",
        seed: 0x99AA,
        text_size: 15_000,
        copy_of: None,
        symbol_theme: "rad_transfer",
    },
];

/// One generated binary variant (content shared across users; paths are
/// instantiated per user by the scheduler).
#[derive(Debug, Clone)]
pub struct VariantBinary {
    /// Binary image bytes.
    pub content: Arc<Vec<u8>>,
    /// Loaded-object paths (resolved, with `siren.so` + base libs).
    pub objects: Arc<Vec<String>>,
    /// `LOADEDMODULES` list for processes running this variant.
    pub modules: Arc<Vec<String>>,
}

/// A lineage with its generated variants.
#[derive(Debug)]
pub struct GroupRuntime {
    /// The static spec.
    pub spec: &'static GroupSpec,
    /// Generated variants, index = variant number.
    pub variants: Vec<VariantBinary>,
}

impl GroupRuntime {
    /// Directory + file name for `(user, variant)`.
    pub fn exe_path(&self, user: &str, variant: usize) -> String {
        let dir = self
            .spec
            .exe_dir
            .replace("{user}", user)
            .replace("{variant}", &variant.to_string());
        format!("{dir}/{}", self.spec.exe_name)
    }
}

/// The whole corpus.
#[derive(Debug)]
pub struct ApplicationCorpus {
    groups: HashMap<&'static str, GroupRuntime>,
}

/// Deterministic block-based payload with per-variant divergence.
fn variant_text(seed: u64, size: usize, variant: usize, total_variants: usize) -> Vec<u8> {
    const BLOCK: usize = 256;
    let blocks = size.div_ceil(BLOCK);
    // Fraction of blocks re-rolled grows sub-linearly so low-numbered
    // variants stay close to the baseline (Table 7's graded decay).
    let frac = if variant == 0 || total_variants <= 1 {
        0.0
    } else {
        (variant as f64 / total_variants as f64).sqrt()
    };
    let rerolled = (frac * blocks as f64).round() as usize;

    let mut out = Vec::with_capacity(blocks * BLOCK);
    for b in 0..blocks {
        let block_seed = if b < rerolled {
            seed ^ (variant as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ b as u64
        } else {
            seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut x = block_seed | 1;
        for _ in 0..BLOCK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.push((x >> 32) as u8);
        }
    }
    out.truncate(size);
    out
}

/// Synthetic global symbol names for a variant. The set changes every 4
/// variants (symbol churn is slower than code churn).
fn variant_symbols(theme: &str, variant: usize) -> Vec<String> {
    let generation = variant / 4;
    let mut syms = Vec::with_capacity(44);
    for i in 0..40 {
        syms.push(format!("{theme}_{i:02}"));
    }
    // Each generation renames a few interfaces and adds one.
    for g in 0..generation.min(8) {
        syms[g * 3 % 40] = format!("{theme}_v{generation}_{g}");
    }
    if generation > 0 {
        syms.push(format!("{theme}_init_v{generation}"));
    }
    syms.push("main".to_string());
    syms
}

/// `.rodata` literal pool: stable domain strings + a drifting version
/// banner (drives `Strings_H` similarity staying high but not perfect).
fn variant_rodata(spec: &GroupSpec, variant: usize) -> Vec<u8> {
    let mut s = String::with_capacity(2048);
    s.push_str(&format!(
        "{} release 2.{}.{}\0",
        spec.software,
        variant / 10,
        variant % 10
    ));
    s.push_str("usage: %s [options] input\0--help display this help\0");
    for i in 0..24 {
        s.push_str(&format!(
            "{}::{}_kernel_{i} elapsed %f s\0",
            spec.symbol_theme, spec.software
        ));
    }
    s.push_str("error: allocation failed at %s:%d\0MPI_Init\0MPI_Finalize\0");
    s.into_bytes()
}

/// Modules every Cray PE job loads regardless of application (the bulk of
/// a real `LOADEDMODULES` value — and what makes `MO_H` comparisons
/// meaningful: fuzzy hashes of longer lists carry more signal).
pub const BASE_MODULES: &[&str] = &[
    "craype-x86-rome",
    "libfabric/1.15.2.0",
    "craype-network-ofi",
    "xpmem/2.6.2-2.5_2.38",
    "craype/2.7.23",
    "cray-dsmml/0.2.2",
    "cray-mpich/8.1.27",
    "cray-libsci/23.09.1.1",
    "perftools-base/23.09.0",
    "cpe/23.09",
    "lumi-tools/23.03",
    "init-lumi/0.2",
];

fn modules_for_variant(spec: &GroupSpec, variant: usize) -> Vec<String> {
    // Module environments drift every 8 variants (a toolchain upgrade):
    // one module gets a patch-version bump per generation, so the list
    // stays highly similar — Table 7's MO_H column decays gently
    // (100 → 96 → 94 …), it does not collapse.
    let generation = variant / 8;
    if spec.modules.is_empty() {
        // Software without a module environment (conda, user gzip).
        return Vec::new();
    }
    let all: Vec<&str> = BASE_MODULES
        .iter()
        .chain(spec.modules.iter())
        .copied()
        .collect();
    let n = all.len();
    all.iter()
        .enumerate()
        .map(|(i, m)| {
            let bumps = if generation == 0 {
                0
            } else {
                (generation + n - 1 - i) / n
            };
            if bumps == 0 {
                m.to_string()
            } else {
                format!("{m}.{bumps}")
            }
        })
        .collect()
}

fn objects_for_variant(spec: &GroupSpec, variant: usize) -> Vec<String> {
    let use_alt = spec.alt_lib_labels.is_some() && (variant / 16) % 2 == 1;
    let labels = if use_alt {
        spec.alt_lib_labels.unwrap()
    } else {
        spec.lib_labels
    };
    LibraryCatalog::resolve_with_base(labels)
}

fn build_variant(spec: &GroupSpec, variant: usize) -> VariantBinary {
    let text = variant_text(spec.seed, spec.text_size, variant, spec.variants);
    let symbols = variant_symbols(spec.symbol_theme, variant);
    let rodata = variant_rodata(spec, variant);
    let objects = objects_for_variant(spec, variant);

    let mut builder = ElfBuilder::new(ElfType::Dyn).text(&text).rodata(&rodata);
    for c in spec.compilers {
        builder = builder.comment(c);
    }
    for (i, sym) in symbols.iter().enumerate() {
        builder = builder.symbol(
            sym,
            0x1000 + (i as u64) * 0x40,
            0x40,
            Binding::Global,
            SymType::Func,
        );
    }
    // A couple of local symbols (must not appear in the global extraction).
    builder = builder.symbol("static_helper", 0x9000, 16, Binding::Local, SymType::Func);
    for obj in objects.iter().skip(1).take(8) {
        // DT_NEEDED uses sonames, not paths.
        if let Some(name) = obj.rsplit('/').next() {
            builder = builder.needed(name);
        }
    }

    VariantBinary {
        content: Arc::new(builder.build()),
        objects: Arc::new(objects),
        modules: Arc::new(modules_for_variant(spec, variant)),
    }
}

impl ApplicationCorpus {
    /// Generate every lineage. Content depends only on the static specs —
    /// binaries on disk do not change with the campaign seed (users built
    /// them before the observation window).
    pub fn build() -> Self {
        let mut groups: HashMap<&'static str, GroupRuntime> = HashMap::new();

        // First pass: everything that is not a copy.
        for spec in GROUPS.iter().filter(|s| s.copy_of.is_none()) {
            let variants = (0..spec.variants).map(|v| build_variant(spec, v)).collect();
            groups.insert(spec.group_id, GroupRuntime { spec, variants });
        }
        // Second pass: copies (UNKNOWN = byte-identical icon binaries).
        for spec in GROUPS.iter().filter(|s| s.copy_of.is_some()) {
            let source = groups
                .get(spec.copy_of.unwrap())
                .expect("copy_of target must be defined before the copying group");
            let variants: Vec<VariantBinary> = source
                .variants
                .iter()
                .take(spec.variants)
                .cloned()
                .collect();
            assert_eq!(
                variants.len(),
                spec.variants,
                "copy source has too few variants"
            );
            groups.insert(spec.group_id, GroupRuntime { spec, variants });
        }

        Self { groups }
    }

    /// Look up a lineage by id.
    pub fn group(&self, group_id: &str) -> &GroupRuntime {
        self.groups
            .get(group_id)
            .unwrap_or_else(|| panic!("unknown group {group_id}"))
    }

    /// All lineages (deterministic order by group id).
    pub fn groups(&self) -> Vec<&GroupRuntime> {
        let mut v: Vec<&GroupRuntime> = self.groups.values().collect();
        v.sort_by_key(|g| g.spec.group_id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_builds_all_groups() {
        let corpus = ApplicationCorpus::build();
        assert_eq!(corpus.groups().len(), GROUPS.len());
        for g in corpus.groups() {
            assert_eq!(g.variants.len(), g.spec.variants, "{}", g.spec.group_id);
        }
    }

    #[test]
    fn icon_family_sums_to_175_unique_binaries() {
        let mut m = HashMap::new();
        for g in GROUPS {
            *m.entry(g.software).or_insert(0) += g.variants;
        }
        assert_eq!(m["icon"], 175); // 130 + 32 + 13, Table 5
        assert_eq!(m["UNKNOWN"], 7);
        assert_eq!(m["LAMMPS"], 5);
        assert_eq!(m["GROMACS"], 1);
        assert_eq!(m["miniconda"], 5);
    }

    #[test]
    fn unknown_copies_icon_bytes_exactly() {
        let corpus = ApplicationCorpus::build();
        let icon = corpus.group("icon-gcc");
        let unknown = corpus.group("unknown");
        for v in 0..unknown.spec.variants {
            assert_eq!(
                icon.variants[v].content, unknown.variants[v].content,
                "variant {v} must be byte-identical"
            );
        }
    }

    #[test]
    fn unknown_path_is_nondescript() {
        let corpus = ApplicationCorpus::build();
        let path = corpus.group("unknown").exe_path("user_4", 0);
        assert!(path.ends_with("/a.out"));
        assert!(!path.contains("icon"));
    }

    #[test]
    fn variants_diverge_gradually() {
        let corpus = ApplicationCorpus::build();
        let icon = corpus.group("icon-gcc");
        let base = &icon.variants[0].content;
        let diff = |a: &[u8], b: &[u8]| -> usize {
            a.iter().zip(b.iter()).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
        };
        let d1 = diff(base, &icon.variants[1].content);
        let d10 = diff(base, &icon.variants[10].content);
        let d100 = diff(base, &icon.variants[100].content);
        assert!(d1 > 0, "variant 1 must differ");
        assert!(d1 < d10, "divergence must grow: {d1} !< {d10}");
        assert!(d10 < d100, "divergence must keep growing: {d10} !< {d100}");
    }

    #[test]
    fn variant_binaries_parse_and_carry_compilers() {
        let corpus = ApplicationCorpus::build();
        let amber = corpus.group("amber");
        let parsed = siren_elf::ElfFile::parse(&amber.variants[0].content).unwrap();
        let comments = parsed.comment_strings();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].contains("SUSE"));
        assert!(comments[1].contains("AMD clang"));
        let globals = parsed.global_symbols();
        assert!(globals.iter().any(|s| s.name == "main"));
        assert!(globals.iter().any(|s| s.name.starts_with("pme_force")));
        assert!(!globals.iter().any(|s| s.name == "static_helper"));
    }

    #[test]
    fn symbol_sets_change_every_four_variants() {
        let a = variant_symbols("mo_atmo", 0);
        let b = variant_symbols("mo_atmo", 3);
        let c = variant_symbols("mo_atmo", 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn module_lists_drift_every_eight_variants() {
        let spec = &GROUPS.iter().find(|g| g.group_id == "icon-gcc").unwrap();
        assert_eq!(modules_for_variant(spec, 0), modules_for_variant(spec, 7));
        assert_ne!(modules_for_variant(spec, 0), modules_for_variant(spec, 8));
    }

    #[test]
    fn object_sets_alternate_with_alt_labels() {
        let spec = &GROUPS.iter().find(|g| g.group_id == "icon-gcc").unwrap();
        let full = objects_for_variant(spec, 0);
        let alt = objects_for_variant(spec, 16);
        assert_ne!(full, alt);
        assert!(full.len() > alt.len());
        assert_eq!(objects_for_variant(spec, 32), full);
        // Groups without alt labels never alternate.
        let gz = &GROUPS.iter().find(|g| g.group_id == "gzip").unwrap();
        assert_eq!(objects_for_variant(gz, 0), objects_for_variant(gz, 16));
    }

    #[test]
    fn exe_paths_substitute_user_and_variant() {
        let corpus = ApplicationCorpus::build();
        let icon = corpus.group("icon-gcc");
        assert_eq!(
            icon.exe_path("user_4", 17),
            "/users/user_4/icon-model/build_17/bin/icon"
        );
        let gmx = corpus.group("gromacs");
        assert_eq!(
            gmx.exe_path("user_8", 0),
            "/users/user_8/gromacs-2024/bin/gmx_mpi"
        );
    }
}
