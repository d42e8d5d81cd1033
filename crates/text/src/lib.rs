//! # siren-text — pattern matching and text extraction substrates
//!
//! Three text facilities the SIREN analysis layer depends on:
//!
//! * [`regex`] — a small Thompson-NFA regular-expression engine. The paper
//!   derives software labels for user executables by "using regular
//!   expressions to match with known software names" (§4.3, citing the
//!   ARCHER2 methodology); this engine provides exactly the operator
//!   subset those rules need (literals, classes, `.` `*` `+` `?` `|`,
//!   groups, anchors, case-insensitive mode) with guaranteed-linear
//!   simulation (no backtracking blowup).
//! * [`strings`] — a printable-strings scanner equivalent to the Unix
//!   `strings` command. `siren.so` fuzzy-hashes "the printable strings
//!   found in the file" (`ST_H`/`Strings_H`); this module produces that
//!   byte stream.
//! * [`mod@derive`] — the "derived and filtered" shared-object labeler behind
//!   Figure 2: matches a fixed, ordered list of informative substrings
//!   (`libsci`, `hdf5`, `rocm`, …) against a library path and joins the
//!   hits into a combination label such as `hdf5-fortran-parallel-cray`.

pub mod derive;
pub mod regex;
pub mod strings;

pub use derive::{SubstringDeriver, PAPER_LIBRARY_SUBSTRINGS};
pub use regex::{Regex, RegexError, RuleSet};
pub use strings::{printable_strings, printable_strings_joined, StringsConfig};
