//! # siren-elf — minimal ELF64 reader and writer
//!
//! The SIREN collector extracts three things from executables with
//! `libelf`: compiler identification strings from the `.comment` section,
//! the global-scope symbol table (the `nm`-like `Symbols_H` input), and —
//! for completeness of the simulation — the `DT_NEEDED` shared-library
//! list. This crate provides:
//!
//! * [`read`] — a defensive, never-panicking ELF64 parser
//!   ([`read::ElfFile`]) exposing exactly those extractions.
//! * [`mod@write`] — an ELF64 **builder** ([`write::ElfBuilder`]) used by the
//!   workload simulator to synthesize structurally valid executables with
//!   controlled `.text` payloads, `.comment` compiler strings, symbol
//!   tables, and `DT_NEEDED` entries. This replaces the real LAMMPS /
//!   GROMACS / icon binaries the paper observed on LUMI: the fuzzy-hash
//!   experiments need *families of similar binaries*, and the builder is
//!   what lets the simulator create variant binaries whose byte-level
//!   overlap is controlled.
//!
//! Round-trip property tests (`writer → reader`) live in the crate tests.

pub mod read;
pub mod types;
pub mod write;

pub use read::{ElfError, ElfFile, SectionInfo, SymbolInfo};
pub use types::{Binding, ElfType, Machine, SymType};
pub use write::ElfBuilder;

/// Quick magic-number check without full parsing (the collector's fast
/// path to skip non-ELF files such as scripts).
pub fn is_elf(data: &[u8]) -> bool {
    data.len() >= 4 && data[0] == 0x7F && &data[1..4] == b"ELF"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_elf_detects_magic() {
        assert!(!is_elf(b""));
        assert!(!is_elf(b"#!/bin/bash"));
        assert!(!is_elf(&[0x7F, b'E', b'L']));
        assert!(is_elf(&[0x7F, b'E', b'L', b'F', 0, 0]));
    }

    #[test]
    fn built_binary_is_elf() {
        let bin = ElfBuilder::new(ElfType::Exec).text(b"\x90\x90").build();
        assert!(is_elf(&bin));
    }
}
