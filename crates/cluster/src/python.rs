//! The Python ecosystem: interpreters, script families, imported packages.
//!
//! Python is the paper's special case (§4.4): the process-level view only
//! sees the interpreter binary, so SIREN additionally records the input
//! script (LAYER=SCRIPT) and later extracts imported packages from the
//! interpreter's memory-mapped files. This module synthesizes the three
//! interpreter populations of Table 8 and the package-import structure of
//! Figure 3.

use crate::process::SimFile;
use siren_elf::{Binding, ElfBuilder, ElfType, SymType};
use std::collections::HashMap;
use std::sync::Arc;

/// The 36 packages of Figure 3, in the figure's x-axis order.
pub const PACKAGE_CATALOG: &[&str] = &[
    "heapq",
    "struct",
    "math",
    "posixsubprocess",
    "select",
    "blake2",
    "hashlib",
    "bz2",
    "lzma",
    "zlib",
    "fcntl",
    "array",
    "binascii",
    "bisect",
    "cmath",
    "csv",
    "ctypes",
    "datetime",
    "decimal",
    "grp",
    "json",
    "mmap",
    "mpi4py",
    "multiprocessing",
    "numpy",
    "opcode",
    "pandas",
    "pickle",
    "queue",
    "random",
    "scipy",
    "sha512",
    "socket",
    "unicodedata",
    "zoneinfo",
    "sha3",
];

/// One interpreter installation.
#[derive(Debug, Clone)]
pub struct Interpreter {
    /// Short name as reported in Table 8 (e.g. `python3.10`).
    pub name: &'static str,
    /// Absolute path. All three live in system directories, which is what
    /// makes them category *Python* rather than *user* (§3.1).
    pub path: &'static str,
    /// CPython ABI tag used in extension-module file names.
    pub abi: &'static str,
    /// The interpreter binary.
    pub file: Arc<SimFile>,
    /// Loaded shared objects of the interpreter process itself.
    pub objects: Arc<Vec<String>>,
}

/// A family of related scripts run by one user on one interpreter.
#[derive(Debug, Clone)]
pub struct ScriptFamily {
    /// Family id referenced by job templates (e.g. `u4-py36`).
    pub id: &'static str,
    /// Which interpreter runs these scripts.
    pub interpreter: &'static str,
    /// Owning user.
    pub user: &'static str,
    /// Number of distinct scripts (unique `SCRIPT_H`, Table 8).
    pub n_scripts: usize,
    /// Packages this family draws imports from.
    pub imports: &'static [&'static str],
}

/// Script-family definitions reproducing Table 8:
/// `python3.10`: 2 users, 30 jobs/procs, 27 scripts;
/// `python3.6`: 1 user, 14,884 procs, 6 scripts;
/// `python3.11`: 1 user, 8,402 procs, 5 scripts.
pub const SCRIPT_FAMILIES: &[ScriptFamily0] = &[
    ScriptFamily0 {
        id: "u4-py36",
        interpreter: "python3.6",
        user: "user_4",
        n_scripts: 6,
        imports: &[
            "heapq",
            "struct",
            "math",
            "mpi4py",
            "numpy",
            "scipy",
            "pickle",
            "socket",
            "select",
            "posixsubprocess",
            "hashlib",
            "blake2",
            "sha512",
            "sha3",
            "zlib",
            "bz2",
            "lzma",
            "fcntl",
            "array",
            "binascii",
        ],
    },
    ScriptFamily0 {
        id: "u4-py311",
        interpreter: "python3.11",
        user: "user_4",
        n_scripts: 5,
        imports: &[
            "heapq",
            "struct",
            "math",
            "numpy",
            "pandas",
            "json",
            "datetime",
            "decimal",
            "csv",
            "ctypes",
            "multiprocessing",
            "mmap",
            "queue",
            "random",
            "opcode",
            "unicodedata",
            "zoneinfo",
        ],
    },
    ScriptFamily0 {
        id: "u5-py310",
        interpreter: "python3.10",
        user: "user_5",
        n_scripts: 26,
        imports: &[
            "heapq", "struct", "bisect", "cmath", "csv", "json", "grp", "datetime", "random",
            "socket", "pickle", "queue",
        ],
    },
    ScriptFamily0 {
        id: "u12-py310",
        interpreter: "python3.10",
        user: "user_12",
        n_scripts: 1,
        imports: &["heapq", "struct", "math"],
    },
];

/// Static form of [`ScriptFamily`] (const-friendly).
#[derive(Debug, Clone)]
pub struct ScriptFamily0 {
    /// Family id.
    pub id: &'static str,
    /// Interpreter name.
    pub interpreter: &'static str,
    /// Owning user.
    pub user: &'static str,
    /// Distinct scripts.
    pub n_scripts: usize,
    /// Import pool.
    pub imports: &'static [&'static str],
}

/// A concrete generated script.
#[derive(Debug, Clone)]
pub struct Script {
    /// Script path.
    pub path: String,
    /// Script file (content + metadata).
    pub file: Arc<SimFile>,
    /// Packages this script imports.
    pub imports: Vec<&'static str>,
}

/// The built ecosystem.
#[derive(Debug)]
pub struct PythonEcosystem {
    interpreters: HashMap<&'static str, Interpreter>,
    scripts: HashMap<&'static str, Vec<Script>>,
}

fn interpreter_binary(name: &str, seed: u64) -> Vec<u8> {
    let mut text = Vec::with_capacity(40_000);
    let mut x = seed | 1;
    for _ in 0..40_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        text.push((x >> 16) as u8);
    }
    ElfBuilder::new(ElfType::Dyn)
        .text(&text)
        .rodata(format!("{name}\0Python interpreter\0PYTHONPATH\0").as_bytes())
        .comment("GCC: (SUSE Linux) 13.2.1 20240206")
        .symbol("Py_Main", 0x1000, 128, Binding::Global, SymType::Func)
        .symbol("Py_Initialize", 0x2000, 128, Binding::Global, SymType::Func)
        .needed("libpython.so.1")
        .needed("libc.so.6")
        .build()
}

/// Path of the memory-mapped extension module for `package` under a given
/// interpreter. C-extension stdlib modules live in `lib-dynload` with a
/// leading underscore; site packages live under `site-packages/<pkg>/`.
pub fn package_map_path(interp: &Interpreter, package: &str) -> String {
    let big = matches!(package, "numpy" | "scipy" | "pandas" | "mpi4py");
    if big {
        format!(
            "/usr/lib64/{}/site-packages/{package}/core/_{package}_impl.{}.so",
            interp.name, interp.abi
        )
    } else {
        format!(
            "/usr/lib64/{}/lib-dynload/_{package}.{}.so",
            interp.name, interp.abi
        )
    }
}

/// Which packages script `i` of a family imports. Deterministic; the first
/// three ("core") packages are always imported, every pool entry appears
/// in at least one script (coverage by the modulo clause).
pub fn script_imports(family: &ScriptFamily0, script_idx: usize) -> Vec<&'static str> {
    family
        .imports
        .iter()
        .enumerate()
        .filter(|(j, _)| {
            *j < 3 || *j % family.n_scripts == script_idx || (script_idx * 7 + *j).is_multiple_of(4)
        })
        .map(|(_, p)| *p)
        .collect()
}

fn script_content(family: &ScriptFamily0, idx: usize, imports: &[&str]) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("#!/usr/bin/env python3\n");
    s.push_str(&format!("# {} workflow script {idx}\n", family.id));
    for imp in imports {
        s.push_str(&format!("import {imp}\n"));
    }
    s.push('\n');
    for k in 0..30 {
        s.push_str(&format!(
            "def stage_{idx}_{k}(data):\n    return [x * {k} for x in data if x % {} == 0]\n\n",
            (idx + k) % 7 + 1
        ));
    }
    s.push_str("if __name__ == '__main__':\n    main()\n");
    s
}

impl PythonEcosystem {
    /// Build interpreters and all script families.
    pub fn build() -> Self {
        let install = crate::CAMPAIGN_START - 200 * 24 * 3600;
        let base_objects = |extra: &str| -> Arc<Vec<String>> {
            Arc::new(vec![
                "/opt/siren/lib/siren.so".to_string(),
                extra.to_string(),
                "/lib64/libc.so.6".to_string(),
                "/lib64/libm.so.6".to_string(),
                "/lib64/ld-linux-x86-64.so.2".to_string(),
            ])
        };

        let mut interpreters = HashMap::new();
        let defs: [(&'static str, &'static str, &'static str, u64, u64); 3] = [
            (
                "python3.6",
                "/usr/bin/python3.6",
                "cpython-36m-x86_64-linux-gnu",
                0xBEEF_0001,
                900_001,
            ),
            (
                "python3.10",
                "/opt/cray/pe/python/3.10.10/bin/python3.10",
                "cpython-310-x86_64-linux-gnu",
                0xBEEF_0002,
                900_002,
            ),
            (
                "python3.11",
                "/opt/python/3.11.4/bin/python3.11",
                "cpython-311-x86_64-linux-gnu",
                0xBEEF_0003,
                900_003,
            ),
        ];
        for (name, path, abi, seed, inode) in defs {
            interpreters.insert(
                name,
                Interpreter {
                    name,
                    path,
                    abi,
                    file: Arc::new(SimFile::new(
                        interpreter_binary(name, seed),
                        inode,
                        0,
                        install,
                    )),
                    objects: base_objects(&format!("/usr/lib64/libpython-{name}.so.1.0")),
                },
            );
        }

        let mut scripts: HashMap<&'static str, Vec<Script>> = HashMap::new();
        let mut inode = 950_000u64;
        for fam in SCRIPT_FAMILIES {
            let mut list = Vec::with_capacity(fam.n_scripts);
            for i in 0..fam.n_scripts {
                let imports = script_imports(fam, i);
                let content = script_content(fam, i, &imports);
                inode += 1;
                list.push(Script {
                    path: format!("/users/{}/scripts/{}_{i:02}.py", fam.user, fam.id),
                    file: Arc::new(SimFile::new(content.into_bytes(), inode, 0, install)),
                    imports,
                });
            }
            scripts.insert(fam.id, list);
        }

        Self {
            interpreters,
            scripts,
        }
    }

    /// Interpreter by name.
    pub fn interpreter(&self, name: &str) -> &Interpreter {
        self.interpreters
            .get(name)
            .unwrap_or_else(|| panic!("unknown interpreter {name}"))
    }

    /// Scripts of a family.
    pub fn scripts(&self, family_id: &str) -> &[Script] {
        self.scripts
            .get(family_id)
            .unwrap_or_else(|| panic!("unknown script family {family_id}"))
    }

    /// Memory-map lines for an interpreter process running `script`:
    /// the interpreter's own objects plus one mapped extension module per
    /// imported package.
    pub fn interpreter_maps(&self, interp: &Interpreter, script: &Script) -> Vec<String> {
        let mut maps: Vec<String> = interp.objects.iter().cloned().collect();
        for pkg in &script.imports {
            maps.push(package_map_path(interp, pkg));
        }
        maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecosystem_builds_three_interpreters() {
        let eco = PythonEcosystem::build();
        for name in ["python3.6", "python3.10", "python3.11"] {
            let i = eco.interpreter(name);
            assert!(siren_elf::is_elf(&i.file.data));
        }
    }

    #[test]
    fn interpreters_live_in_system_directories() {
        let eco = PythonEcosystem::build();
        for name in ["python3.6", "python3.10", "python3.11"] {
            let p = eco.interpreter(name).path;
            assert!(
                p.starts_with("/usr/") || p.starts_with("/opt/"),
                "{p} must be a system directory for the Python category"
            );
        }
    }

    #[test]
    fn script_counts_match_table_8() {
        let eco = PythonEcosystem::build();
        assert_eq!(eco.scripts("u4-py36").len(), 6);
        assert_eq!(eco.scripts("u4-py311").len(), 5);
        assert_eq!(eco.scripts("u5-py310").len(), 26);
        assert_eq!(eco.scripts("u12-py310").len(), 1);
        // python3.10 total unique scripts = 27 (Table 8).
        assert_eq!(
            eco.scripts("u5-py310").len() + eco.scripts("u12-py310").len(),
            27
        );
    }

    #[test]
    fn scripts_are_distinct() {
        let eco = PythonEcosystem::build();
        let mut seen = std::collections::HashSet::new();
        for fam in SCRIPT_FAMILIES {
            for s in eco.scripts(fam.id) {
                assert!(seen.insert(s.file.data.clone()), "duplicate script content");
            }
        }
    }

    #[test]
    fn every_family_import_is_covered_by_some_script() {
        for fam in SCRIPT_FAMILIES {
            let mut covered = std::collections::HashSet::new();
            for i in 0..fam.n_scripts {
                for p in script_imports(fam, i) {
                    covered.insert(p);
                }
            }
            for p in fam.imports {
                assert!(covered.contains(p), "{} misses {p}", fam.id);
            }
        }
    }

    #[test]
    fn heapq_and_struct_span_three_users_like_fig3() {
        let mut users = std::collections::HashSet::new();
        for fam in SCRIPT_FAMILIES {
            if fam.imports.contains(&"heapq") {
                users.insert(fam.user);
            }
            assert!(fam.imports.contains(&"struct"));
        }
        assert_eq!(users.len(), 3);
    }

    #[test]
    fn all_catalog_packages_used_somewhere() {
        let used: std::collections::HashSet<&str> = SCRIPT_FAMILIES
            .iter()
            .flat_map(|f| f.imports.iter().copied())
            .collect();
        for p in PACKAGE_CATALOG {
            assert!(used.contains(p), "package {p} unused");
        }
    }

    #[test]
    fn map_paths_name_the_package() {
        let eco = PythonEcosystem::build();
        let i36 = eco.interpreter("python3.6");
        assert_eq!(
            package_map_path(i36, "heapq"),
            "/usr/lib64/python3.6/lib-dynload/_heapq.cpython-36m-x86_64-linux-gnu.so"
        );
        assert!(package_map_path(i36, "numpy").contains("site-packages/numpy/"));
    }

    #[test]
    fn interpreter_maps_include_script_imports() {
        let eco = PythonEcosystem::build();
        let i = eco.interpreter("python3.10");
        let s = &eco.scripts("u12-py310")[0];
        let maps = eco.interpreter_maps(i, s);
        assert!(maps.iter().any(|m| m.contains("_heapq.")));
        assert!(maps.iter().any(|m| m.contains("siren.so")));
    }
}
