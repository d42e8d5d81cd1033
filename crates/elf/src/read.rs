//! Defensive ELF64 parser.
//!
//! The collector feeds arbitrary executable bytes through this parser (the
//! simulated equivalent of `libelf` over `/proc/self/exe`), so every read
//! is bounds-checked and malformed input yields an [`ElfError`], never a
//! panic. The API exposes precisely the extractions SIREN performs:
//! `.comment` compiler strings, the global symbol table, section data, and
//! `DT_NEEDED` library names.

use crate::types::{dt, sht, Binding, ElfType, Machine, SymType, EHDR_SIZE, SHDR_SIZE, SYM_SIZE};

/// Parse errors. Each variant names the structural check that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// Input shorter than the ELF file header.
    Truncated,
    /// Missing `\x7fELF` magic.
    BadMagic,
    /// Not ELFCLASS64.
    Not64Bit,
    /// Not little-endian.
    NotLittleEndian,
    /// Unknown `e_type`.
    BadType(u16),
    /// Unknown `e_machine`.
    BadMachine(u16),
    /// Section header table extends past the end of the file.
    SectionTableOutOfBounds,
    /// A section's payload extends past the end of the file.
    SectionDataOutOfBounds(usize),
    /// `e_shstrndx` does not reference a valid string table.
    BadShstrndx,
    /// Symbol table malformed (entry size / string references).
    BadSymtab,
    /// Dynamic section malformed.
    BadDynamic,
}

impl std::fmt::Display for ElfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElfError::Truncated => write!(f, "input shorter than ELF header"),
            ElfError::BadMagic => write!(f, "missing ELF magic"),
            ElfError::Not64Bit => write!(f, "not an ELF64 file"),
            ElfError::NotLittleEndian => write!(f, "not little-endian"),
            ElfError::BadType(v) => write!(f, "unknown e_type {v}"),
            ElfError::BadMachine(v) => write!(f, "unknown e_machine {v:#x}"),
            ElfError::SectionTableOutOfBounds => write!(f, "section header table out of bounds"),
            ElfError::SectionDataOutOfBounds(i) => write!(f, "section {i} data out of bounds"),
            ElfError::BadShstrndx => write!(f, "invalid section name string table index"),
            ElfError::BadSymtab => write!(f, "malformed symbol table"),
            ElfError::BadDynamic => write!(f, "malformed dynamic section"),
        }
    }
}

impl std::error::Error for ElfError {}

/// One parsed section header plus its resolved name.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name (resolved through `.shstrtab`).
    pub name: String,
    /// `sh_type` value.
    pub sh_type: u32,
    /// Payload offset in the file.
    pub offset: usize,
    /// Payload size in bytes.
    pub size: usize,
    /// `sh_link` (e.g. symtab → strtab).
    pub link: u32,
    /// `sh_entsize`.
    pub entsize: u64,
}

/// One parsed symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolInfo {
    /// Symbol name (resolved through the linked string table).
    pub name: String,
    /// `st_value`.
    pub value: u64,
    /// `st_size`.
    pub size: u64,
    /// Binding (local / global / weak).
    pub binding: Binding,
    /// Symbol type (func / object / none).
    pub sym_type: SymType,
}

/// A parsed ELF64 file (borrowing the input bytes).
#[derive(Debug)]
pub struct ElfFile<'a> {
    data: &'a [u8],
    elf_type: ElfType,
    sections: Vec<SectionInfo>,
}

fn read_u16(d: &[u8], off: usize) -> Option<u16> {
    d.get(off..off + 2)
        .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
}

fn read_u32(d: &[u8], off: usize) -> Option<u32> {
    d.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

fn read_u64(d: &[u8], off: usize) -> Option<u64> {
    d.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// Extract the NUL-terminated string at `off` in a string table.
fn strtab_get(tab: &[u8], off: usize) -> Option<String> {
    let rest = tab.get(off..)?;
    let end = rest.iter().position(|&b| b == 0)?;
    Some(String::from_utf8_lossy(&rest[..end]).into_owned())
}

impl<'a> ElfFile<'a> {
    /// Parse an ELF64 little-endian image.
    pub fn parse(data: &'a [u8]) -> Result<Self, ElfError> {
        if data.len() < EHDR_SIZE {
            return Err(ElfError::Truncated);
        }
        if !crate::is_elf(data) {
            return Err(ElfError::BadMagic);
        }
        if data[4] != 2 {
            return Err(ElfError::Not64Bit);
        }
        if data[5] != 1 {
            return Err(ElfError::NotLittleEndian);
        }

        let e_type_raw = read_u16(data, 16).ok_or(ElfError::Truncated)?;
        let elf_type = ElfType::from_u16(e_type_raw).ok_or(ElfError::BadType(e_type_raw))?;
        let e_machine_raw = read_u16(data, 18).ok_or(ElfError::Truncated)?;
        Machine::from_u16(e_machine_raw).ok_or(ElfError::BadMachine(e_machine_raw))?;
        let shoff = read_u64(data, 40).ok_or(ElfError::Truncated)? as usize;
        let shentsize = read_u16(data, 58).ok_or(ElfError::Truncated)? as usize;
        let shnum = read_u16(data, 60).ok_or(ElfError::Truncated)? as usize;
        let shstrndx = read_u16(data, 62).ok_or(ElfError::Truncated)? as usize;

        if shnum == 0 {
            return Ok(Self {
                data,
                elf_type,
                sections: Vec::new(),
            });
        }
        if shentsize < SHDR_SIZE {
            return Err(ElfError::SectionTableOutOfBounds);
        }
        let table_end = shoff
            .checked_add(
                shnum
                    .checked_mul(shentsize)
                    .ok_or(ElfError::SectionTableOutOfBounds)?,
            )
            .ok_or(ElfError::SectionTableOutOfBounds)?;
        if table_end > data.len() {
            return Err(ElfError::SectionTableOutOfBounds);
        }

        // First pass: raw headers.
        struct RawShdr {
            name_off: u32,
            sh_type: u32,
            offset: usize,
            size: usize,
            link: u32,
            entsize: u64,
        }
        let mut raw = Vec::with_capacity(shnum);
        for i in 0..shnum {
            let base = shoff + i * shentsize;
            raw.push(RawShdr {
                name_off: read_u32(data, base).ok_or(ElfError::Truncated)?,
                sh_type: read_u32(data, base + 4).ok_or(ElfError::Truncated)?,
                offset: read_u64(data, base + 24).ok_or(ElfError::Truncated)? as usize,
                size: read_u64(data, base + 32).ok_or(ElfError::Truncated)? as usize,
                link: read_u32(data, base + 40).ok_or(ElfError::Truncated)?,
                entsize: read_u64(data, base + 56).ok_or(ElfError::Truncated)?,
            });
        }

        // Bounds-check payloads (NOBITS sections occupy no file space).
        for (i, r) in raw.iter().enumerate() {
            if r.sh_type != sht::NULL && r.sh_type != sht::NOBITS {
                let end = r
                    .offset
                    .checked_add(r.size)
                    .ok_or(ElfError::SectionDataOutOfBounds(i))?;
                if end > data.len() {
                    return Err(ElfError::SectionDataOutOfBounds(i));
                }
            }
        }

        // Resolve names through .shstrtab.
        let shstr = raw.get(shstrndx).ok_or(ElfError::BadShstrndx)?;
        if shstr.sh_type != sht::STRTAB {
            return Err(ElfError::BadShstrndx);
        }
        let shstrtab = &data[shstr.offset..shstr.offset + shstr.size];

        let sections = raw
            .iter()
            .map(|r| SectionInfo {
                name: strtab_get(shstrtab, r.name_off as usize).unwrap_or_default(),
                sh_type: r.sh_type,
                offset: r.offset,
                size: r.size,
                link: r.link,
                entsize: r.entsize,
            })
            .collect();

        Ok(Self {
            data,
            elf_type,
            sections,
        })
    }

    /// File type.
    pub fn elf_type(&self) -> ElfType {
        self.elf_type
    }

    /// All parsed sections (including the NULL section at index 0).
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Names of all non-NULL sections.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections
            .iter()
            .filter(|s| s.sh_type != sht::NULL)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Payload of the first section with this name.
    pub fn section_data(&self, name: &str) -> Option<&'a [u8]> {
        let s = self
            .sections
            .iter()
            .find(|s| s.name == name && s.sh_type != sht::NULL)?;
        if s.sh_type == sht::NOBITS {
            return Some(&[]);
        }
        self.data.get(s.offset..s.offset + s.size)
    }

    /// Compiler identification strings from `.comment` (NUL-separated).
    ///
    /// This is the input to Table 6 / Figure 4: "most compilers leave an
    /// identification string in the `.comment` section".
    pub fn comment_strings(&self) -> Vec<String> {
        let Some(data) = self.section_data(".comment") else {
            return Vec::new();
        };
        data.split(|&b| b == 0)
            .filter(|chunk| !chunk.is_empty())
            .map(|chunk| String::from_utf8_lossy(chunk).into_owned())
            .collect()
    }

    /// All symbols from `.symtab` (excluding the NULL entry).
    pub fn all_symbols(&self) -> Vec<SymbolInfo> {
        self.symbols_from(".symtab").unwrap_or_default()
    }

    /// Externally visible symbols (GLOBAL or WEAK binding): "the global
    /// scope of ELF symbols refers to externally visible functions and
    /// variables defined without the `static` keyword" (§3.1). This is the
    /// `nm`-like input to `Symbols_H`.
    pub fn global_symbols(&self) -> Vec<SymbolInfo> {
        self.all_symbols()
            .into_iter()
            .filter(|s| matches!(s.binding, Binding::Global | Binding::Weak))
            .collect()
    }

    fn symbols_from(&self, section: &str) -> Result<Vec<SymbolInfo>, ElfError> {
        let Some(info) = self
            .sections
            .iter()
            .find(|s| s.name == section && (s.sh_type == sht::SYMTAB || s.sh_type == sht::DYNSYM))
        else {
            return Ok(Vec::new());
        };
        let data = self
            .data
            .get(info.offset..info.offset + info.size)
            .ok_or(ElfError::BadSymtab)?;
        if info.entsize as usize != SYM_SIZE || data.len() % SYM_SIZE != 0 {
            return Err(ElfError::BadSymtab);
        }
        let strtab_info = self
            .sections
            .get(info.link as usize)
            .ok_or(ElfError::BadSymtab)?;
        let strtab = self
            .data
            .get(strtab_info.offset..strtab_info.offset + strtab_info.size)
            .ok_or(ElfError::BadSymtab)?;

        let mut out = Vec::with_capacity(data.len() / SYM_SIZE);
        for entry in data.chunks_exact(SYM_SIZE).skip(1) {
            let name_off = u32::from_le_bytes(entry[0..4].try_into().unwrap()) as usize;
            let st_info = entry[4];
            let value = u64::from_le_bytes(entry[8..16].try_into().unwrap());
            let size = u64::from_le_bytes(entry[16..24].try_into().unwrap());
            let binding = Binding::from_u8(st_info >> 4).ok_or(ElfError::BadSymtab)?;
            let sym_type = SymType::from_u8(st_info & 0x0F).unwrap_or(SymType::NoType);
            let name = strtab_get(strtab, name_off).ok_or(ElfError::BadSymtab)?;
            out.push(SymbolInfo {
                name,
                value,
                size,
                binding,
                sym_type,
            });
        }
        Ok(out)
    }

    /// `DT_NEEDED` shared-library names from `.dynamic` + `.dynstr`.
    pub fn needed_libraries(&self) -> Vec<String> {
        self.needed_libraries_checked().unwrap_or_default()
    }

    fn needed_libraries_checked(&self) -> Result<Vec<String>, ElfError> {
        let Some(dyn_info) = self.sections.iter().find(|s| s.sh_type == sht::DYNAMIC) else {
            return Ok(Vec::new());
        };
        let dyn_data = self
            .data
            .get(dyn_info.offset..dyn_info.offset + dyn_info.size)
            .ok_or(ElfError::BadDynamic)?;
        let strtab_info = self
            .sections
            .get(dyn_info.link as usize)
            .ok_or(ElfError::BadDynamic)?;
        let strtab = self
            .data
            .get(strtab_info.offset..strtab_info.offset + strtab_info.size)
            .ok_or(ElfError::BadDynamic)?;

        let mut out = Vec::new();
        for entry in dyn_data.chunks_exact(16) {
            let tag = i64::from_le_bytes(entry[0..8].try_into().unwrap());
            let val = u64::from_le_bytes(entry[8..16].try_into().unwrap());
            match tag {
                dt::NULL => break,
                dt::NEEDED => {
                    out.push(strtab_get(strtab, val as usize).ok_or(ElfError::BadDynamic)?);
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::ElfBuilder;

    #[test]
    fn rejects_garbage() {
        assert_eq!(ElfFile::parse(b"").unwrap_err(), ElfError::Truncated);
        assert_eq!(ElfFile::parse(&[0u8; 100]).unwrap_err(), ElfError::BadMagic);
        let mut bad = vec![0x7F, b'E', b'L', b'F'];
        bad.resize(EHDR_SIZE, 0);
        bad[4] = 1; // 32-bit
        assert_eq!(ElfFile::parse(&bad).unwrap_err(), ElfError::Not64Bit);
        bad[4] = 2;
        bad[5] = 2; // big-endian
        assert_eq!(ElfFile::parse(&bad).unwrap_err(), ElfError::NotLittleEndian);
    }

    #[test]
    fn rejects_truncated_section_table() {
        let mut bin = ElfBuilder::new(ElfType::Exec).text(b"abc").build();
        bin.truncate(bin.len() - 10);
        assert!(matches!(
            ElfFile::parse(&bin),
            Err(ElfError::SectionTableOutOfBounds)
        ));
    }

    #[test]
    fn rejects_corrupt_section_offsets() {
        let bin = ElfBuilder::new(ElfType::Exec).text(b"abcdef").build();
        let f = ElfFile::parse(&bin).unwrap();
        // Find .text header and corrupt its size to exceed the file.
        let shoff = u64::from_le_bytes(bin[40..48].try_into().unwrap()) as usize;
        let text_idx = f.sections().iter().position(|s| s.name == ".text").unwrap();
        let mut corrupt = bin.clone();
        let size_field = shoff + text_idx * SHDR_SIZE + 32;
        corrupt[size_field..size_field + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            ElfFile::parse(&corrupt),
            Err(ElfError::SectionDataOutOfBounds(_))
        ));
    }

    #[test]
    fn missing_sections_yield_empty_extractions() {
        let bin = ElfBuilder::new(ElfType::Exec).text(b"x").build();
        let f = ElfFile::parse(&bin).unwrap();
        assert!(f.comment_strings().is_empty());
        assert!(f.all_symbols().is_empty());
        assert!(f.needed_libraries().is_empty());
        assert!(f.section_data(".nonexistent").is_none());
    }

    #[test]
    fn section_names_listed() {
        let bin = ElfBuilder::new(ElfType::Dyn)
            .text(b"t")
            .comment("GCC")
            .build();
        let f = ElfFile::parse(&bin).unwrap();
        let names = f.section_names();
        assert!(names.contains(&".text"));
        assert!(names.contains(&".comment"));
        assert!(names.contains(&".shstrtab"));
    }

    #[test]
    fn never_panics_on_mutated_input() {
        // Bit-flip fuzzing over a valid binary: the parser must return
        // Ok or Err, never panic or overflow.
        let bin = ElfBuilder::new(ElfType::Dyn)
            .text(&[0xAB; 64])
            .comment("GCC: (SUSE) 13")
            .symbol("f", 1, 2, Binding::Global, SymType::Func)
            .needed("libm.so.6")
            .build();
        for i in 0..bin.len() {
            for bit in [0x01u8, 0x80] {
                let mut mutated = bin.clone();
                mutated[i] ^= bit;
                let _ = ElfFile::parse(&mutated).map(|f| {
                    let _ = f.comment_strings();
                    let _ = f.all_symbols();
                    let _ = f.needed_libraries();
                    let _ = f.section_names();
                });
            }
        }
    }
}
