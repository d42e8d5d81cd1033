//! ELF64 builder: synthesizes structurally valid executables.
//!
//! The workload simulator uses this to fabricate the application corpus:
//! each synthetic binary carries a controlled `.text` payload (whose bytes
//! drive `FILE_H` similarity), `.rodata` literals (driving `Strings_H`),
//! a symbol table (driving `Symbols_H`), `.comment` compiler strings
//! (Table 6 / Figure 4), and `DT_NEEDED` entries (Figure 2 / Figure 5).
//!
//! Layout produced: file header, section payloads in insertion order
//! (8-byte aligned), then `.shstrtab`, then the section header table.
//! No program headers are emitted — SIREN only ever *reads* executables,
//! it never loads them.

use crate::types::{
    dt, sht, Binding, ElfType, Machine, SymType, DYN_SIZE, EHDR_SIZE, SHDR_SIZE, SYM_SIZE,
};

/// A symbol queued for the `.symtab`.
#[derive(Debug, Clone)]
struct PendingSymbol {
    name: String,
    value: u64,
    size: u64,
    binding: Binding,
    sym_type: SymType,
}

/// One custom section queued for emission.
#[derive(Debug, Clone)]
struct PendingSection {
    name: String,
    sh_type: u32,
    data: Vec<u8>,
    entsize: u64,
    link_name: Option<String>,
    info: u32,
}

/// Builder for a synthetic ELF64 binary.
///
/// ```
/// use siren_elf::{ElfBuilder, ElfType, Binding, SymType};
/// let bin = ElfBuilder::new(ElfType::Dyn)
///     .text(b"\x55\x48\x89\xe5\xc3")
///     .comment("GCC: (SUSE Linux) 13.2.1")
///     .symbol("main", 0x1000, 32, Binding::Global, SymType::Func)
///     .needed("libm.so.6")
///     .build();
/// let parsed = siren_elf::ElfFile::parse(&bin).unwrap();
/// assert_eq!(parsed.comment_strings(), vec!["GCC: (SUSE Linux) 13.2.1"]);
/// ```
#[derive(Debug, Clone)]
pub struct ElfBuilder {
    elf_type: ElfType,
    machine: Machine,
    entry: u64,
    text: Vec<u8>,
    rodata: Vec<u8>,
    comments: Vec<String>,
    symbols: Vec<PendingSymbol>,
    needed: Vec<String>,
    extra_sections: Vec<PendingSection>,
}

impl ElfBuilder {
    /// Start building a binary of the given type (x86-64 by default).
    pub fn new(elf_type: ElfType) -> Self {
        Self {
            elf_type,
            machine: Machine::X86_64,
            entry: 0x40_1000,
            text: Vec::new(),
            rodata: Vec::new(),
            comments: Vec::new(),
            symbols: Vec::new(),
            needed: Vec::new(),
            extra_sections: Vec::new(),
        }
    }

    /// Set the target machine.
    pub fn machine(mut self, m: Machine) -> Self {
        self.machine = m;
        self
    }

    /// Set the entry point address.
    pub fn entry(mut self, e: u64) -> Self {
        self.entry = e;
        self
    }

    /// Set (replace) the `.text` payload.
    pub fn text(mut self, bytes: &[u8]) -> Self {
        self.text = bytes.to_vec();
        self
    }

    /// Set (replace) the `.rodata` payload.
    pub fn rodata(mut self, bytes: &[u8]) -> Self {
        self.rodata = bytes.to_vec();
        self
    }

    /// Add one compiler identification string to `.comment`.
    pub fn comment(mut self, s: &str) -> Self {
        self.comments.push(s.to_string());
        self
    }

    /// Add a symbol to `.symtab`.
    pub fn symbol(
        mut self,
        name: &str,
        value: u64,
        size: u64,
        binding: Binding,
        sym_type: SymType,
    ) -> Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            value,
            size,
            binding,
            sym_type,
        });
        self
    }

    /// Add a `DT_NEEDED` shared-library dependency.
    pub fn needed(mut self, soname: &str) -> Self {
        self.needed.push(soname.to_string());
        self
    }

    /// Add an arbitrary PROGBITS section (escape hatch for tests).
    pub fn raw_section(mut self, name: &str, data: &[u8]) -> Self {
        self.extra_sections.push(PendingSection {
            name: name.to_string(),
            sh_type: sht::PROGBITS,
            data: data.to_vec(),
            entsize: 0,
            link_name: None,
            info: 0,
        });
        self
    }

    /// Serialize to bytes.
    pub fn build(&self) -> Vec<u8> {
        let mut sections: Vec<PendingSection> = Vec::new();

        if !self.text.is_empty() {
            sections.push(PendingSection {
                name: ".text".into(),
                sh_type: sht::PROGBITS,
                data: self.text.clone(),
                entsize: 0,
                link_name: None,
                info: 0,
            });
        }
        if !self.rodata.is_empty() {
            sections.push(PendingSection {
                name: ".rodata".into(),
                sh_type: sht::PROGBITS,
                data: self.rodata.clone(),
                entsize: 0,
                link_name: None,
                info: 0,
            });
        }
        if !self.comments.is_empty() {
            // NUL-separated, NUL-terminated, as compilers emit it.
            let mut data = Vec::new();
            for c in &self.comments {
                data.extend_from_slice(c.as_bytes());
                data.push(0);
            }
            sections.push(PendingSection {
                name: ".comment".into(),
                sh_type: sht::PROGBITS,
                data,
                entsize: 1,
                link_name: None,
                info: 0,
            });
        }

        if !self.symbols.is_empty() {
            // Locals must precede globals; sh_info is the index of the
            // first non-local symbol.
            let mut ordered: Vec<&PendingSymbol> = self.symbols.iter().collect();
            ordered.sort_by_key(|s| (s.binding != Binding::Local) as u8);
            let first_global = 1 + ordered
                .iter()
                .take_while(|s| s.binding == Binding::Local)
                .count() as u32;

            let mut strtab = vec![0u8]; // index 0 is the empty string
            let mut symtab = vec![0u8; SYM_SIZE]; // index 0 is the NULL symbol
            for sym in ordered {
                let name_off = strtab.len() as u32;
                strtab.extend_from_slice(sym.name.as_bytes());
                strtab.push(0);
                let mut e = [0u8; SYM_SIZE];
                e[0..4].copy_from_slice(&name_off.to_le_bytes());
                e[4] = (sym.binding.to_u8() << 4) | sym.sym_type.to_u8();
                e[5] = 0; // st_other
                e[6..8].copy_from_slice(&1u16.to_le_bytes()); // st_shndx: .text
                e[8..16].copy_from_slice(&sym.value.to_le_bytes());
                e[16..24].copy_from_slice(&sym.size.to_le_bytes());
                symtab.extend_from_slice(&e);
            }
            sections.push(PendingSection {
                name: ".symtab".into(),
                sh_type: sht::SYMTAB,
                data: symtab,
                entsize: SYM_SIZE as u64,
                link_name: Some(".strtab".into()),
                info: first_global,
            });
            sections.push(PendingSection {
                name: ".strtab".into(),
                sh_type: sht::STRTAB,
                data: strtab,
                entsize: 0,
                link_name: None,
                info: 0,
            });
        }

        if !self.needed.is_empty() {
            let mut dynstr = vec![0u8];
            let mut dynamic = Vec::new();
            for so in &self.needed {
                let off = dynstr.len() as u64;
                dynstr.extend_from_slice(so.as_bytes());
                dynstr.push(0);
                dynamic.extend_from_slice(&dt::NEEDED.to_le_bytes());
                dynamic.extend_from_slice(&off.to_le_bytes());
            }
            dynamic.extend_from_slice(&dt::STRTAB.to_le_bytes());
            dynamic.extend_from_slice(&0u64.to_le_bytes());
            dynamic.extend_from_slice(&dt::NULL.to_le_bytes());
            dynamic.extend_from_slice(&0u64.to_le_bytes());
            sections.push(PendingSection {
                name: ".dynstr".into(),
                sh_type: sht::STRTAB,
                data: dynstr,
                entsize: 0,
                link_name: None,
                info: 0,
            });
            sections.push(PendingSection {
                name: ".dynamic".into(),
                sh_type: sht::DYNAMIC,
                data: dynamic,
                entsize: DYN_SIZE as u64,
                link_name: Some(".dynstr".into()),
                info: 0,
            });
        }

        sections.extend(self.extra_sections.iter().cloned());

        // --- layout ---------------------------------------------------
        // Section name string table (.shstrtab), including itself.
        let mut shstrtab = vec![0u8];
        let mut name_offsets: Vec<u32> = Vec::with_capacity(sections.len() + 1);
        for s in &sections {
            name_offsets.push(shstrtab.len() as u32);
            shstrtab.extend_from_slice(s.name.as_bytes());
            shstrtab.push(0);
        }
        let shstrtab_name_off = shstrtab.len() as u32;
        shstrtab.extend_from_slice(b".shstrtab\0");

        // Section indices: 0 = NULL, 1.. = sections, last = .shstrtab.
        let shstrndx = sections.len() as u16 + 1;
        let shnum = sections.len() as u16 + 2;

        let index_of = |name: &str| -> u32 {
            sections
                .iter()
                .position(|s| s.name == name)
                .map(|i| i as u32 + 1)
                .unwrap_or(0)
        };

        // Data offsets, 8-aligned, starting after the file header.
        let mut offset = EHDR_SIZE;
        let mut data_offsets = Vec::with_capacity(sections.len());
        for s in &sections {
            offset = (offset + 7) & !7;
            data_offsets.push(offset);
            offset += s.data.len();
        }
        offset = (offset + 7) & !7;
        let shstrtab_off = offset;
        offset += shstrtab.len();
        offset = (offset + 7) & !7;
        let shoff = offset;

        let total = shoff + shnum as usize * SHDR_SIZE;
        let mut out = vec![0u8; total];

        // --- file header ----------------------------------------------
        out[0..4].copy_from_slice(&[0x7F, b'E', b'L', b'F']);
        out[4] = 2; // ELFCLASS64
        out[5] = 1; // ELFDATA2LSB
        out[6] = 1; // EV_CURRENT
        out[7] = 0; // ELFOSABI_NONE
        out[16..18].copy_from_slice(&self.elf_type.to_u16().to_le_bytes());
        out[18..20].copy_from_slice(&self.machine.to_u16().to_le_bytes());
        out[20..24].copy_from_slice(&1u32.to_le_bytes());
        out[24..32].copy_from_slice(&self.entry.to_le_bytes());
        // e_phoff = 0 (no program headers)
        out[40..48].copy_from_slice(&(shoff as u64).to_le_bytes());
        // e_flags = 0
        out[52..54].copy_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out[54..56].copy_from_slice(&56u16.to_le_bytes()); // e_phentsize
                                                           // e_phnum = 0
        out[58..60].copy_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out[60..62].copy_from_slice(&shnum.to_le_bytes());
        out[62..64].copy_from_slice(&shstrndx.to_le_bytes());

        // --- section payloads -------------------------------------------
        for (s, &off) in sections.iter().zip(&data_offsets) {
            out[off..off + s.data.len()].copy_from_slice(&s.data);
        }
        out[shstrtab_off..shstrtab_off + shstrtab.len()].copy_from_slice(&shstrtab);

        // --- section headers ---------------------------------------------
        let mut write_shdr = |idx: usize,
                              name: u32,
                              sh_type: u32,
                              off: usize,
                              size: usize,
                              link: u32,
                              info: u32,
                              entsize: u64| {
            let base = shoff + idx * SHDR_SIZE;
            let h = &mut out[base..base + SHDR_SIZE];
            h[0..4].copy_from_slice(&name.to_le_bytes());
            h[4..8].copy_from_slice(&sh_type.to_le_bytes());
            // sh_flags and sh_addr left 0: SIREN never maps these files.
            h[24..32].copy_from_slice(&(off as u64).to_le_bytes());
            h[32..40].copy_from_slice(&(size as u64).to_le_bytes());
            h[40..44].copy_from_slice(&link.to_le_bytes());
            h[44..48].copy_from_slice(&info.to_le_bytes());
            h[48..56].copy_from_slice(&1u64.to_le_bytes()); // sh_addralign
            h[56..64].copy_from_slice(&entsize.to_le_bytes());
        };

        // Index 0: the NULL header (all zeros — already zeroed).
        for (i, s) in sections.iter().enumerate() {
            let link = s.link_name.as_deref().map(&index_of).unwrap_or(0);
            write_shdr(
                i + 1,
                name_offsets[i],
                s.sh_type,
                data_offsets[i],
                s.data.len(),
                link,
                s.info,
                s.entsize,
            );
        }
        write_shdr(
            shstrndx as usize,
            shstrtab_name_off,
            sht::STRTAB,
            shstrtab_off,
            shstrtab.len(),
            0,
            0,
            0,
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::ElfFile;

    #[test]
    fn minimal_binary_parses() {
        let bin = ElfBuilder::new(ElfType::Exec).text(b"\xc3").build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(f.elf_type(), ElfType::Exec);
        assert_eq!(f.section_data(".text").unwrap(), b"\xc3");
    }

    #[test]
    fn empty_builder_still_valid() {
        let bin = ElfBuilder::new(ElfType::Dyn).build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(f.elf_type(), ElfType::Dyn);
        assert!(f.comment_strings().is_empty());
        assert!(f.global_symbols().is_empty());
        assert!(f.needed_libraries().is_empty());
    }

    #[test]
    fn comment_round_trip_multiple() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .comment("GCC: (SUSE Linux) 13.2.1")
            .comment("clang version 17.0.0 (Cray)")
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(
            f.comment_strings(),
            vec!["GCC: (SUSE Linux) 13.2.1", "clang version 17.0.0 (Cray)"]
        );
    }

    #[test]
    fn symbols_round_trip_with_binding_split() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .text(b"code")
            .symbol("helper", 0x10, 8, Binding::Local, SymType::Func)
            .symbol("main", 0x20, 64, Binding::Global, SymType::Func)
            .symbol("g_table", 0x100, 256, Binding::Global, SymType::Object)
            .symbol("weak_hook", 0x40, 4, Binding::Weak, SymType::Func)
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        let all = f.all_symbols();
        assert_eq!(all.len(), 4);
        let globals = f.global_symbols();
        let names: Vec<&str> = globals.iter().map(|s| s.name.as_str()).collect();
        // Global scope = GLOBAL + WEAK (externally visible), not LOCAL.
        assert!(names.contains(&"main"));
        assert!(names.contains(&"g_table"));
        assert!(names.contains(&"weak_hook"));
        assert!(!names.contains(&"helper"));
        let main = globals.iter().find(|s| s.name == "main").unwrap();
        assert_eq!(main.value, 0x20);
        assert_eq!(main.size, 64);
        assert_eq!(main.sym_type, SymType::Func);
    }

    #[test]
    fn needed_libraries_round_trip() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .needed("libm.so.6")
            .needed("libmpi_cray.so.12")
            .needed("libsci_cray.so.6")
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(
            f.needed_libraries(),
            vec!["libm.so.6", "libmpi_cray.so.12", "libsci_cray.so.6"]
        );
    }

    #[test]
    fn raw_section_round_trip() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .raw_section(".note.siren", b"custom-payload")
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(f.section_data(".note.siren").unwrap(), b"custom-payload");
    }

    #[test]
    fn full_featured_binary() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .machine(Machine::X86_64)
            .entry(0x1040)
            .text(&[0x90; 512])
            .rodata(b"version 2.1\0help text\0")
            .comment("GCC: (HPE) 12.2.0")
            .symbol("solver_init", 0x1040, 128, Binding::Global, SymType::Func)
            .symbol("internal", 0x10C0, 32, Binding::Local, SymType::Func)
            .needed("libc.so.6")
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        assert_eq!(f.machine(), Machine::X86_64);
        assert_eq!(f.entry(), 0x1040);
        assert_eq!(
            f.section_data(".rodata").unwrap(),
            b"version 2.1\0help text\0"
        );
        assert_eq!(f.global_symbols().len(), 1);
        assert_eq!(f.needed_libraries(), vec!["libc.so.6"]);
    }

    #[test]
    fn deterministic_output() {
        let build = || {
            ElfBuilder::new(ElfType::Dyn)
                .text(b"abc")
                .comment("GCC")
                .symbol("f", 1, 2, Binding::Global, SymType::Func)
                .build()
        };
        assert_eq!(build(), build());
    }
}
