//! "Derived and filtered" shared-object labels (Figure 2 of the paper).
//!
//! The full list of shared objects loaded by a process is long and mostly
//! uninformative (`libc`, `libdl`, …). The paper therefore extracts only
//! "specific combinations of substrings of libraries": a fixed, ordered
//! list of informative substrings is matched against each library path,
//! and the hits are joined with `-` in list order, producing labels like
//! `hdf5-fortran-parallel-cray` or `rocfft-rocm-fft`.
//!
//! The ordering rule is inferred from the paper's own examples: every
//! multi-part label in Figure 2 lists its parts in the order the
//! substrings appear in the paper's extraction list (e.g. `rocfft` (18th)
//! before `rocm` (20th) before `fft` (23rd)).

/// The paper's exact extraction list (§4.3), in its published order.
pub const PAPER_LIBRARY_SUBSTRINGS: &[&str] = &[
    "libsci",
    "pthread",
    "pmi",
    "netcdf",
    "hdf5",
    "fortran",
    "parallel",
    "python",
    "fabric",
    "numa",
    "boost",
    "openacc",
    "amdgpu",
    "cuda",
    "drm",
    "rocsolver",
    "rocsparse",
    "rocfft",
    "MIOpen",
    "rocm",
    "gromacs",
    "blas",
    "fft",
    "torch",
    "quadmath",
    "craymath",
    "cray",
    "tykky",
    "climatedt",
    "amber",
    "spack",
    "yaml",
    "java",
    "siren",
];

/// Matches an ordered substring list against library paths and produces
/// combination labels.
#[derive(Debug, Clone)]
pub struct SubstringDeriver {
    substrings: Vec<String>,
}

impl Default for SubstringDeriver {
    fn default() -> Self {
        Self::paper()
    }
}

impl SubstringDeriver {
    /// Deriver using the paper's exact extraction list.
    pub fn paper() -> Self {
        Self::new(PAPER_LIBRARY_SUBSTRINGS)
    }

    /// Deriver with a custom ordered substring list.
    pub fn new(substrings: &[&str]) -> Self {
        Self {
            substrings: substrings.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Derive the combination label for one library path. `None` when no
    /// substring matches (the library is "uninformative" and filtered out).
    pub fn derive(&self, library_path: &str) -> Option<String> {
        let hits: Vec<&str> = self
            .substrings
            .iter()
            .filter(|sub| library_path.contains(sub.as_str()))
            .map(|s| s.as_str())
            .collect();
        if hits.is_empty() {
            None
        } else {
            Some(hits.join("-"))
        }
    }

    /// Derive labels for a whole list of loaded libraries, deduplicated,
    /// in first-appearance order (the per-process "derived and filtered
    /// shared objects" set of §4.3).
    pub fn derive_all(&self, library_paths: &[String]) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for path in library_paths {
            if let Some(label) = self.derive(path) {
                if seen.insert(label.clone()) {
                    out.push(label);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_reproduce() {
        let d = SubstringDeriver::paper();
        // The composite labels printed in Figure 2, from plausible paths.
        assert_eq!(
            d.derive("/opt/cray/pe/lib64/libhdf5_fortran_parallel_cray.so"),
            Some("hdf5-fortran-parallel-cray".into())
        );
        assert_eq!(
            d.derive("/opt/rocm/lib/librocfft.so.0"),
            Some("rocfft-rocm-fft".into())
        );
        assert_eq!(
            d.derive("/appl/climatedt/lib/libclimatedt_yaml.so"),
            Some("climatedt-yaml".into())
        );
        assert_eq!(
            d.derive("/usr/lib64/libpthread.so.0"),
            Some("pthread".into())
        );
        assert_eq!(d.derive("/opt/siren/lib/siren.so"), Some("siren".into()));
    }

    #[test]
    fn uninformative_libraries_filtered() {
        let d = SubstringDeriver::paper();
        assert_eq!(d.derive("/lib64/libc.so.6"), None);
        assert_eq!(d.derive("/lib64/libdl.so.2"), None);
        assert_eq!(d.derive("/lib64/ld-linux-x86-64.so.2"), None);
    }

    #[test]
    fn order_follows_extraction_list_not_path() {
        let d = SubstringDeriver::paper();
        // "rocm" appears before "fft" in this path, but the label must use
        // list order (fft is later in the list than rocm).
        assert_eq!(
            d.derive("/opt/rocm-5.2/lib/libfft_helper.so"),
            Some("rocm-fft".into())
        );
    }

    #[test]
    fn derive_all_dedups_and_preserves_order() {
        let d = SubstringDeriver::paper();
        let libs = vec![
            "/lib64/libc.so.6".to_string(),
            "/usr/lib64/libpthread.so.0".to_string(),
            "/opt/cray/lib/libmpi_cray.so".to_string(),
            "/usr/lib64/libpthread.so.0".to_string(), // duplicate
            "/opt/siren/siren.so".to_string(),
        ];
        assert_eq!(d.derive_all(&libs), vec!["pthread", "cray", "siren"]);
    }

    #[test]
    fn custom_list() {
        let d = SubstringDeriver::new(&["alpha", "beta"]);
        assert_eq!(d.derive("x/alpha/libbeta.so"), Some("alpha-beta".into()));
        assert_eq!(d.derive("x/gamma.so"), None);
        assert_eq!(d.substrings.len(), 2);
    }

    #[test]
    fn miopen_case_sensitive_as_in_paper() {
        let d = SubstringDeriver::paper();
        assert_eq!(
            d.derive("/opt/rocm/lib/libMIOpen.so"),
            Some("MIOpen-rocm".into())
        );
        // lowercase "miopen" does not match the paper's "MIOpen" entry.
        assert_eq!(d.derive("/x/libmiopen_other.so"), None);
    }
}
