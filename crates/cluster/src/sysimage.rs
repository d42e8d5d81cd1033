//! System-directory executables: the `/usr/bin` population of Tables 3–4.
//!
//! The paper observed 112 distinct system-directory executables. The top
//! ten (by unique users) are modeled explicitly with their library-variant
//! structure: `bash` has **three** distinct shared-object sets (Table 4 —
//! `libtinfo` from `/lib64`, from a Spack tree, or from a `SW` tree plus
//! `libm`), `srun` has three, `lua5.3` has two, the rest one each. The
//! remaining 102 are a generated long tail, each owned by a single user's
//! tooling habits so none of them can displace the top ten in the
//! users-first sort order.

use crate::process::SimFile;
use siren_elf::{Binding, ElfBuilder, ElfType, SymType};
use std::collections::HashMap;
use std::sync::Arc;

/// The LD_PRELOADed collection library — loaded by every hooked process.
pub const SIREN_SO: &str = "/opt/siren/lib/siren.so";

/// One system executable with its library-set variants.
#[derive(Debug, Clone)]
pub struct SystemExecutable {
    /// Absolute path (e.g. `/usr/bin/bash`).
    pub path: String,
    /// The binary image (shared by all variants — variants differ in the
    /// *loaded* libraries, not the file).
    pub file: Arc<SimFile>,
    /// Library-set variants: each entry is a complete loaded-objects list.
    pub object_variants: Vec<Arc<Vec<String>>>,
}

/// The full system image.
#[derive(Debug)]
pub struct SystemImage {
    executables: HashMap<String, SystemExecutable>,
}

/// Bash's three loaded-library variants, verbatim from Table 4.
pub const BASH_VARIANTS: [&[&str]; 3] = [
    &["/lib64/libtinfo.so.6"],
    &["/appl/spack/23.09/ncurses-6.4/lib/libtinfo.so.6"],
    &["/appl/SW/ncurses/lib/libtinfo.so.6", "/lib64/libm.so.6"],
];

fn base_objects(extra: &[&str]) -> Vec<String> {
    let mut v = Vec::with_capacity(extra.len() + 4);
    v.push(SIREN_SO.to_string());
    for e in extra {
        v.push((*e).to_string());
    }
    v.push("/lib64/libc.so.6".to_string());
    v.push("/lib64/ld-linux-x86-64.so.2".to_string());
    v
}

/// Deterministic pseudo-random bytes for a binary's `.text` payload.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn make_binary(name: &str, seed: u64, size: usize) -> Vec<u8> {
    ElfBuilder::new(ElfType::Dyn)
        .text(&payload(seed, size))
        .rodata(format!("{name} (coreutils-like utility)\0usage: {name} [OPTION]...\0").as_bytes())
        .comment("GCC: (SUSE Linux) 13.2.1 20240206")
        .symbol("main", 0x1000, 256, Binding::Global, SymType::Func)
        .needed("libc.so.6")
        .build()
}

impl SystemImage {
    /// Build the canonical image (fixed content; system binaries do not
    /// vary with the campaign seed — they are installed by administrators,
    /// not generated by users).
    pub fn build() -> Self {
        let mut image = Self {
            executables: HashMap::new(),
        };
        let mut inode = 100_000u64;
        let install_time = crate::CAMPAIGN_START - 90 * 24 * 3600;

        let mut add = |image: &mut Self, path: &str, seed: u64, variants: Vec<Vec<String>>| {
            inode += 1;
            let file = Arc::new(SimFile::new(
                make_binary(path, seed, 6000),
                inode,
                0,
                install_time,
            ));
            image.executables.insert(
                path.to_string(),
                SystemExecutable {
                    path: path.to_string(),
                    file,
                    object_variants: variants.into_iter().map(Arc::new).collect(),
                },
            );
        };

        // --- the explicit top ten -------------------------------------
        add(
            &mut image,
            "/usr/bin/srun",
            11,
            vec![
                base_objects(&[
                    "/opt/cray/pe/pmi/6.1.12/lib/libpmi2.so.0",
                    "/usr/lib64/libslurm.so.40",
                ]),
                base_objects(&[
                    "/opt/cray/pe/pmi/6.1.12/lib/libpmi2.so.0",
                    "/usr/lib64/libslurm.so.40",
                    "/opt/cray/libfabric/1.15.2.0/lib64/libfabric.so.1",
                ]),
                base_objects(&[
                    "/opt/cray/pe/pmi/6.1.8/lib/libpmi2.so.0",
                    "/usr/lib64/libslurm.so.40",
                ]),
            ],
        );
        add(
            &mut image,
            "/usr/bin/bash",
            12,
            BASH_VARIANTS.iter().map(|v| base_objects(v)).collect(),
        );
        add(
            &mut image,
            "/usr/bin/lua5.3",
            13,
            vec![
                base_objects(&["/usr/lib64/liblua5.3.so.5", "/lib64/libm.so.6"]),
                base_objects(&["/appl/lumi/lua/liblua5.3.so.5", "/lib64/libm.so.6"]),
            ],
        );
        for (path, seed) in [
            ("/usr/bin/rm", 14u64),
            ("/usr/bin/cat", 15),
            ("/usr/bin/uname", 16),
            ("/usr/bin/ls", 17),
            ("/usr/bin/mkdir", 18),
            ("/usr/bin/grep", 19),
            ("/usr/bin/cp", 20),
        ] {
            add(&mut image, path, seed, vec![base_objects(&[])]);
        }

        // --- the long tail: 102 further executables --------------------
        let named_tail = [
            "sed", "awk", "date", "hostname", "chmod", "tail", "head", "sort", "wc", "sleep",
            "env", "id", "dirname", "basename", "tee", "touch", "ln", "du", "df", "tar",
        ];
        for (i, name) in named_tail.iter().enumerate() {
            add(
                &mut image,
                &format!("/usr/bin/{name}"),
                100 + i as u64,
                vec![base_objects(&[])],
            );
        }
        for i in 0..82u64 {
            add(
                &mut image,
                &format!("/usr/bin/tool_{i:03}"),
                200 + i,
                vec![base_objects(&[])],
            );
        }

        image
    }

    /// Look up an executable by path.
    pub fn get(&self, path: &str) -> Option<&SystemExecutable> {
        self.executables.get(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_has_112_executables_like_the_paper() {
        assert_eq!(SystemImage::build().executables.len(), 112);
    }

    #[test]
    fn bash_has_three_variants_srun_three_lua_two() {
        let img = SystemImage::build();
        assert_eq!(img.get("/usr/bin/bash").unwrap().object_variants.len(), 3);
        assert_eq!(img.get("/usr/bin/srun").unwrap().object_variants.len(), 3);
        assert_eq!(img.get("/usr/bin/lua5.3").unwrap().object_variants.len(), 2);
        assert_eq!(img.get("/usr/bin/rm").unwrap().object_variants.len(), 1);
    }

    #[test]
    fn bash_variant_2_loads_libm_like_table_4() {
        let img = SystemImage::build();
        let bash = img.get("/usr/bin/bash").unwrap();
        let v2 = &bash.object_variants[2];
        assert!(v2.iter().any(|l| l.contains("libm.so")));
        assert!(v2.iter().any(|l| l.contains("SW")));
        let v0 = &bash.object_variants[0];
        assert!(!v0.iter().any(|l| l.contains("libm.so")));
    }

    #[test]
    fn every_variant_loads_siren_so_first() {
        let img = SystemImage::build();
        for path in img.executables.keys() {
            for v in &img.get(path).unwrap().object_variants {
                assert_eq!(v[0], SIREN_SO, "{path}");
            }
        }
    }

    #[test]
    fn binaries_are_valid_elf_with_suse_comment() {
        let img = SystemImage::build();
        let bash = img.get("/usr/bin/bash").unwrap();
        let parsed = siren_elf::ElfFile::parse(&bash.file.data).unwrap();
        assert!(parsed.comment_strings()[0].contains("SUSE"));
    }

    #[test]
    fn distinct_executables_have_distinct_bytes() {
        let img = SystemImage::build();
        let rm = img.get("/usr/bin/rm").unwrap();
        let cat = img.get("/usr/bin/cat").unwrap();
        assert_ne!(rm.file.data, cat.file.data);
        assert_ne!(rm.file.meta.inode, cat.file.meta.inode);
    }

    #[test]
    fn build_is_deterministic() {
        let a = SystemImage::build();
        let b = SystemImage::build();
        for p in a.executables.keys() {
            assert_eq!(a.get(p).unwrap().file.data, b.get(p).unwrap().file.data);
        }
    }
}
