//! Integration tests asserting the *shape* of every paper artifact over a
//! full end-to-end deployment: who wins, orderings, structural counts.
//! Absolute numbers scale with the campaign factor and are not asserted.

use siren_repro::analysis::{self, Labeler};
use siren_repro::cluster::python::PACKAGE_CATALOG;
use siren_repro::text::SubstringDeriver;
use siren_repro::{find_unknown_baseline, Deployment, DeploymentConfig};
use std::sync::OnceLock;

/// One shared deployment for all shape tests (runs once).
fn records() -> &'static [siren_repro::consolidate::ProcessRecord] {
    static CACHE: OnceLock<Vec<siren_repro::consolidate::ProcessRecord>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.01;
        cfg.campaign.seed = 0x51_4E;
        Deployment::new(cfg).run().records
    })
}

#[test]
fn table2_shape_twelve_users_user1_dominates() {
    let rows = analysis::usage_table(records());
    assert_eq!(rows.len(), 12, "all twelve users appear");
    assert_eq!(rows[0].user, "user_1", "user_1 has the most jobs");
    assert!(
        rows[0].user_procs == 0 && rows[0].python_procs == 0,
        "user_1 runs system executables exclusively (paper finding)"
    );
    // user_6 runs no system executables at all (paper's curious case).
    let u6 = rows.iter().find(|r| r.user == "user_6").unwrap();
    assert_eq!(u6.system_procs, 0);
    assert!(u6.user_procs > 0);
    // System >> user-dir process counts overall.
    let sys: u64 = rows.iter().map(|r| r.system_procs).sum();
    let user: u64 = rows.iter().map(|r| r.user_procs).sum();
    assert!(sys > 20 * user);
}

#[test]
fn table3_shape_top_executables_and_variants() {
    let rows = analysis::system_table(records());
    assert!(
        rows.len() > 50,
        "long tail of system executables: {}",
        rows.len()
    );

    let find = |p: &str| {
        rows.iter()
            .find(|r| r.path == p)
            .unwrap_or_else(|| panic!("{p} missing"))
    };
    let srun = find("/usr/bin/srun");
    let bash = find("/usr/bin/bash");
    let lua = find("/usr/bin/lua5.3");

    // srun is used by the most users (10 in the paper; ±1 at small scale
    // because fractional per-user rates may sample to zero).
    assert!(srun.unique_users >= 9, "srun users {}", srun.unique_users);
    assert!(srun.unique_users >= bash.unique_users);
    // Library-set variant counts: bash 3, srun 3, lua 2 (Tables 3–4).
    assert_eq!(bash.unique_objects_h, 3);
    assert!(srun.unique_objects_h >= 2);
    assert_eq!(lua.unique_objects_h, 2);
    // Single-variant executables stay single.
    assert_eq!(find("/usr/bin/rm").unique_objects_h, 1);
    assert_eq!(find("/usr/bin/mkdir").unique_objects_h, 1);
    // rm and mkdir dominate process counts (user_1's file management).
    assert!(find("/usr/bin/rm").process_count > bash.process_count);
    assert!(find("/usr/bin/mkdir").process_count > bash.process_count);
    // The top-10 by the paper's sort starts with srun.
    assert_eq!(rows[0].path, "/usr/bin/srun");
}

#[test]
fn table4_shape_bash_variants_with_libm_deviation() {
    let rows = analysis::library_variant_table(records(), "/usr/bin/bash");
    assert_eq!(rows.len(), 3, "three bash library sets (Table 4)");
    // Dominant variant first; the rare SW variant brings libm.
    assert!(rows[0].processes > rows[1].processes);
    let with_libm: Vec<_> = rows
        .iter()
        .filter(|r| r.deviating.iter().any(|l| l.contains("libm")))
        .collect();
    assert_eq!(with_libm.len(), 1);
    assert!(with_libm[0].deviating.iter().any(|l| l.contains("SW")));
}

#[test]
fn table5_shape_labels_and_variant_counts() {
    let rows = analysis::label_table(records(), &Labeler::default());
    let find = |l: &str| {
        rows.iter()
            .find(|r| r.label == l)
            .unwrap_or_else(|| panic!("{l} missing"))
    };

    // All ten labels of Table 5 appear.
    for l in [
        "LAMMPS",
        "GROMACS",
        "miniconda",
        "janko",
        "icon",
        "amber",
        "gzip",
        "UNKNOWN",
        "alexandria",
        "RadRad",
    ] {
        find(l);
    }
    // LAMMPS and GROMACS are multi-user; the rest single-user.
    assert_eq!(find("LAMMPS").unique_users, 2);
    assert_eq!(find("GROMACS").unique_users, 2);
    assert_eq!(find("icon").unique_users, 1);
    // icon has by far the most distinct binaries; GROMACS exactly one.
    let icon = find("icon");
    assert_eq!(find("GROMACS").unique_file_h, 1);
    for r in &rows {
        if r.label != "icon" {
            assert!(
                icon.unique_file_h >= r.unique_file_h,
                "{} >= {}",
                icon.label,
                r.label
            );
        }
    }
    // UNKNOWN exists with multiple distinct binaries.
    assert!(find("UNKNOWN").unique_file_h >= 2);
    // miniconda has the most user-dir processes (paper: 5,018).
    assert_eq!(
        rows.iter().max_by_key(|r| r.process_count).unwrap().label,
        "miniconda"
    );
}

#[test]
fn table6_shape_compiler_combinations() {
    let rows = analysis::compiler_table(records());
    let combos: Vec<String> = rows.iter().map(|r| r.combo.join(", ")).collect();
    // The paper's eight combinations all appear.
    for expected in [
        "LLD [AMD]",
        "GCC [SUSE]",
        "GCC [SUSE], clang [Cray]",
        "GCC [Red Hat], GCC [conda]",
        "GCC [SUSE], GCC [HPE]",
        "GCC [Red Hat], rustc",
        "GCC [SUSE], clang [AMD]",
        "GCC [SUSE], clang [Cray], clang [AMD]",
    ] {
        assert!(
            combos.iter().any(|c| c == expected),
            "missing combo {expected}: {combos:?}"
        );
    }
    // Multi-compiler rows dominate the table (the §4.3 observation).
    assert!(rows.iter().filter(|r| r.combo.len() > 1).count() >= 5);
}

#[test]
fn table7_shape_unknown_identified_as_icon_with_decay() {
    let recs = records();
    let baseline = find_unknown_baseline(recs).expect("UNKNOWN baseline");
    let rows = analysis::similarity_search_table(recs, baseline, &Labeler::default(), 10);

    assert!(!rows.is_empty());
    // Every hit is icon — the planted ground truth.
    for r in &rows {
        assert_eq!(r.label, "icon", "non-icon hit: {r:?}");
    }
    // A perfect 100-everywhere row leads (the byte-identical variant).
    assert_eq!(rows[0].avg, 100.0);
    assert_eq!(
        (rows[0].mo, rows[0].co, rows[0].ob, rows[0].fi, rows[0].st, rows[0].sy),
        (100, 100, 100, 100, 100, 100)
    );
    // Similarity decays monotonically down the table and spans a range.
    for w in rows.windows(2) {
        assert!(w[0].avg >= w[1].avg);
    }
    assert!(rows.last().unwrap().avg < 100.0);
}

#[test]
fn table8_shape_three_interpreters() {
    let rows = analysis::interpreter_table(records());
    assert_eq!(rows.len(), 3);
    let names: Vec<&str> = rows.iter().map(|r| r.interpreter.as_str()).collect();
    for n in ["python3.6", "python3.10", "python3.11"] {
        assert!(names.contains(&n), "{n} missing from {names:?}");
    }
    // python3.10: two users, one process per job (Table 8's first row).
    let p310 = rows.iter().find(|r| r.interpreter == "python3.10").unwrap();
    assert_eq!(p310.unique_users, 2);
    assert_eq!(p310.job_count, p310.process_count);
    // 3.6 and 3.11 belong to one user each, with many processes per job.
    for n in ["python3.6", "python3.11"] {
        let r = rows.iter().find(|r| r.interpreter == n).unwrap();
        assert_eq!(r.unique_users, 1);
        assert!(r.process_count > r.job_count);
        assert!(r.unique_script_h >= 1);
    }
    // Script diversity per process is highest on 3.10 (27 distinct
    // scripts for 30 processes in the paper; at reduced scale the ratio,
    // not the absolute count, is the invariant).
    let ratio = |r: &analysis::InterpreterRow| r.unique_script_h as f64 / r.process_count as f64;
    for other in rows.iter().filter(|r| r.interpreter != "python3.10") {
        assert!(
            ratio(p310) >= ratio(other),
            "3.10 script/proc ratio must lead"
        );
    }
}

#[test]
fn fig2_shape_derived_libraries() {
    let rows = analysis::derived_library_stats(records(), &SubstringDeriver::paper());
    let find = |l: &str| rows.iter().find(|r| r.library == l);

    // siren.so is loaded by every user-directory process (LD_PRELOAD).
    let siren = find("siren").expect("siren present");
    let max_procs = rows.iter().map(|r| r.process_count).max().unwrap();
    assert_eq!(siren.process_count, max_procs);

    // Climate libraries appear (icon), ROCm stack appears (GPU codes),
    // HDF5 variants appear (amber).
    for l in [
        "climatedt",
        "climatedt-yaml",
        "rocfft-rocm-fft",
        "hdf5-parallel-cray",
        "hdf5-fortran-parallel-cray",
        "gromacs",
        "cuda-amber",
    ] {
        assert!(find(l).is_some(), "{l} missing");
    }
    // climatedt: many unique executables relative to jobs (the paper's
    // highlighted disparity — icon's many variants share these libs).
    let cdt = find("climatedt").unwrap();
    assert!(
        cdt.unique_executables >= cdt.job_count,
        "climatedt exe diversity {} vs jobs {}",
        cdt.unique_executables,
        cdt.job_count
    );
}

#[test]
fn fig3_shape_python_packages() {
    let rows = analysis::package_stats(records(), PACKAGE_CATALOG);
    let find = |p: &str| {
        rows.iter()
            .find(|r| r.package == p)
            .unwrap_or_else(|| panic!("{p} missing"))
    };
    // heapq and struct imported by all three Python users.
    assert_eq!(find("heapq").unique_users, 3);
    assert_eq!(find("struct").unique_users, 3);
    // Specialized packages by a strict subset.
    for p in ["mpi4py", "numpy", "pandas", "scipy"] {
        assert!(find(p).unique_users < 3, "{p} should be a subset");
    }
    // mpi4py only on the 3.6 HPC workflows (one user).
    assert_eq!(find("mpi4py").unique_users, 1);
}

#[test]
fn fig4_shape_compiler_matrix() {
    let m = analysis::compiler_matrix(records(), &Labeler::default());
    // Spot-check the paper's 1-cells…
    for (sw, comp) in [
        ("LAMMPS", "GCC [SUSE]"),
        ("LAMMPS", "LLD [AMD]"),
        ("GROMACS", "LLD [AMD]"),
        ("miniconda", "GCC [Red Hat]"),
        ("miniconda", "GCC [conda]"),
        ("miniconda", "rustc"),
        ("janko", "GCC [HPE]"),
        ("icon", "clang [Cray]"),
        ("icon", "clang [AMD]"),
        ("amber", "clang [AMD]"),
        ("gzip", "LLD [AMD]"),
        ("alexandria", "GCC [SUSE]"),
        ("RadRad", "clang [Cray]"),
    ] {
        assert_eq!(m.get(sw, comp), Some(true), "{sw} × {comp} should be 1");
    }
    // …and its 0-cells.
    for (sw, comp) in [
        ("GROMACS", "GCC [SUSE]"),
        ("miniconda", "GCC [SUSE]"),
        ("gzip", "GCC [SUSE]"),
        ("alexandria", "LLD [AMD]"),
        ("janko", "clang [Cray]"),
    ] {
        assert_eq!(m.get(sw, comp), Some(false), "{sw} × {comp} should be 0");
    }
}

#[test]
fn fig5_shape_library_matrix() {
    let m = analysis::library_matrix(records(), &Labeler::default(), &SubstringDeriver::paper());
    // Every software loads siren (the LD_PRELOAD library) — the paper
    // calls this out explicitly.
    for row in &m.rows {
        assert_eq!(m.get(row, "siren"), Some(true), "{row} must load siren.so");
    }
    for (sw, lib, want) in [
        ("icon", "climatedt", true),
        ("icon", "hdf5-cray", true),
        ("amber", "cuda-amber", true),
        ("amber", "hdf5-fortran-parallel-cray", true),
        ("GROMACS", "gromacs", true),
        ("GROMACS", "boost", true),
        ("janko", "spack", true),
        ("miniconda", "cray", false),
        ("GROMACS", "climatedt", false),
        ("gzip", "pthread", false),
    ] {
        assert_eq!(m.get(sw, lib), Some(want), "{sw} × {lib}");
    }
}

#[test]
fn ablation_fuzzy_beats_exact_and_name() {
    let abl = analysis::baseline::recognition_ablation(records(), &Labeler::default(), 60);
    assert!(
        abl.variant_pairs > 10,
        "enough variant pairs: {}",
        abl.variant_pairs
    );
    assert_eq!(
        abl.exact_hits, 0,
        "exact hashing never links distinct binaries"
    );
    assert!(
        abl.fuzzy_hits > abl.name_hits.max(abl.exact_hits),
        "fuzzy ({}) must beat name ({}) and exact ({})",
        abl.fuzzy_hits,
        abl.name_hits,
        abl.exact_hits
    );
}
