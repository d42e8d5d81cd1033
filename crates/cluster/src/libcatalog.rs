//! Shared-library catalog: concrete library paths whose *derived labels*
//! (per the Figure 2 substring rules) reproduce the paper's matrix.
//!
//! Each entry pairs a Figure-2 label (e.g. `hdf5-fortran-parallel-cray`)
//! with a realistic LUMI path that derives to exactly that label under
//! `siren_text::SubstringDeriver::paper()`. The Figure-5 rows (which
//! software loads which libraries) are encoded in `corpus.rs` by
//! referencing these labels.

/// `(derived_label, concrete_path)` for every x-axis entry of Figure 2.
pub const LIBRARY_CATALOG: &[(&str, &str)] = &[
    ("siren", "/opt/siren/lib/siren.so"),
    ("pthread", "/lib64/libpthread.so.0"),
    ("cray", "/opt/cray/pe/lib64/libcxi.so.1"),
    ("quadmath-cray", "/opt/cray/pe/gcc-libs/libquadmath.so.0"),
    (
        "fabric-cray",
        "/opt/cray/libfabric/1.15.2.0/lib64/libfabric.so.1",
    ),
    ("pmi-cray", "/opt/cray/pe/pmi/6.1.12/lib/libpmi2.so.0"),
    ("rocm", "/opt/rocm/lib/libhsa-runtime64.so.1"),
    ("numa", "/usr/lib64/libnuma.so.1"),
    ("drm", "/usr/lib64/libdrm.so.2"),
    ("amdgpu-drm", "/usr/lib64/libdrm_amdgpu.so.1"),
    ("fortran", "/usr/lib64/libgfortran.so.5"),
    (
        "libsci-cray",
        "/opt/cray/pe/libsci/23.09/lib/libsci_cray.so.6",
    ),
    ("rocm-blas", "/opt/rocm/lib/librocblas.so.3"),
    ("rocsolver-rocm", "/opt/rocm/lib/librocsolver.so.0"),
    ("rocsparse-rocm", "/opt/rocm/lib/librocsparse.so.0"),
    ("fft-cray", "/opt/cray/pe/fftw/3.3.10/lib/libfftw3.so.3"),
    ("rocm-fft", "/opt/rocm/lib/libhipfft.so.0"),
    ("rocfft-rocm-fft", "/opt/rocm/lib/librocfft.so.0"),
    ("craymath-cray", "/opt/cray/pe/lib64/libcraymath.so.1"),
    ("MIOpen-rocm", "/opt/rocm/lib/libMIOpen.so.1"),
    (
        "gromacs",
        "/users/user_8/gromacs-2024/lib/libgromacs_mpi.so.9",
    ),
    ("boost", "/appl/lumi/lib/libboost_program_options.so.1.82.0"),
    (
        "netcdf-cray",
        "/opt/cray/pe/netcdf/4.9.0/lib/libnetcdf.so.19",
    ),
    (
        "amdgpu-cray",
        "/opt/cray/pe/mpich/8.1.27/gtl/lib/libmpi_gtl_amdgpu.so",
    ),
    ("openacc-cray", "/opt/cray/pe/lib64/libopenacc_cray.so.2"),
    ("rocm-torch", "/appl/pytorch/rocm/lib/libtorch_hip.so"),
    (
        "numa-rocm-torch",
        "/appl/pytorch/rocm/lib/libtorch_cpu_numa.so",
    ),
    ("numa-spack", "/appl/spack/23.09/lib/libnuma_shim.so.1"),
    ("spack", "/appl/spack/23.09/lib/libzstd.so.1"),
    ("blas-spack", "/appl/spack/23.09/lib/libopenblas.so.0"),
    (
        "rocsolver-spack",
        "/appl/spack/23.09/lib/librocsolver_wrap.so",
    ),
    (
        "rocsparse-spack",
        "/appl/spack/23.09/lib/librocsparse_wrap.so",
    ),
    ("drm-spack", "/appl/spack/23.09/lib/libdrm_shim.so.2"),
    (
        "amdgpu-drm-spack",
        "/appl/spack/23.09/lib/libdrm_amdgpu_shim.so.1",
    ),
    (
        "climatedt",
        "/appl/climatedt/1.4/lib/libclimatedt_core.so.1",
    ),
    (
        "climatedt-yaml",
        "/appl/climatedt/1.4/lib/libclimatedt_yaml.so.1",
    ),
    ("hdf5-cray", "/opt/cray/pe/hdf5/1.12.2/lib/libhdf5.so.200"),
    (
        "cuda-amber",
        "/users/user_10/amber22/lib/libcuda_amber_shim.so",
    ),
    ("amber", "/users/user_10/amber22/lib/libamber_tools.so"),
    (
        "netcdf-parallel-cray",
        "/opt/cray/pe/parallel-netcdf/1.12.3/lib/libpnetcdf.so.4",
    ),
    (
        "hdf5-parallel-cray",
        "/opt/cray/pe/hdf5-parallel/1.12.2/lib/libhdf5_parallel.so.200",
    ),
    (
        "hdf5-fortran-parallel-cray",
        "/opt/cray/pe/hdf5-parallel/1.12.2/lib/libhdf5_fortran_parallel.so.200",
    ),
    ("torch-tykky", "/appl/tykky/torch-env/lib/libtorch.so.2"),
    (
        "numa-torch-tykky",
        "/appl/tykky/torch-env/lib/libtorch_numa.so.2",
    ),
];

/// Uninformative base libraries every dynamically linked process loads
/// (these derive to no label and are filtered out by the Fig. 2 pipeline).
pub const BASE_LIBRARIES: &[&str] = &[
    "/lib64/libc.so.6",
    "/lib64/libdl.so.2",
    "/lib64/ld-linux-x86-64.so.2",
];

/// Lookup the concrete path for a Figure-2 label.
///
/// # Panics
/// Panics when the label is not in the catalog — corpus definitions are
/// static data, so a missing label is a programming error caught by tests.
pub fn library_path(label: &str) -> &'static str {
    LIBRARY_CATALOG
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| *p)
        .unwrap_or_else(|| panic!("unknown library label {label}"))
}

/// Convenience view over the catalog.
pub struct LibraryCatalog;

impl LibraryCatalog {
    /// Resolve a list of labels to concrete paths, prepending the
    /// LD_PRELOAD `siren.so` (first, as the dynamic linker loads it
    /// before anything else) and appending the uninformative base set.
    pub fn resolve_with_base(labels: &[&str]) -> Vec<String> {
        let mut out = Vec::with_capacity(labels.len() + 1 + BASE_LIBRARIES.len());
        out.push(library_path("siren").to_string());
        for l in labels {
            if *l != "siren" {
                out.push(library_path(l).to_string());
            }
        }
        for b in BASE_LIBRARIES {
            out.push(b.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_44_entries_like_fig2() {
        assert_eq!(LIBRARY_CATALOG.len(), 44);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for (l, _) in LIBRARY_CATALOG {
            assert!(seen.insert(l), "duplicate label {l}");
        }
    }

    #[test]
    fn paths_unique() {
        let mut seen = std::collections::HashSet::new();
        for (_, p) in LIBRARY_CATALOG {
            assert!(seen.insert(p), "duplicate path {p}");
        }
    }

    #[test]
    fn resolve_prepends_siren_and_appends_base() {
        let libs = LibraryCatalog::resolve_with_base(&["pthread", "cray"]);
        assert_eq!(libs[0], library_path("siren"));
        assert!(libs.contains(&"/lib64/libpthread.so.0".to_string()));
        assert!(libs.contains(&"/lib64/libc.so.6".to_string()));
    }

    #[test]
    #[should_panic(expected = "unknown library label")]
    fn unknown_label_panics() {
        library_path("not-a-label");
    }
}
