//! The consolidated per-process record.

use siren_db::Record;
use siren_store::codec::{
    get_map, get_opt_list, get_opt_str, get_str, put_map, put_opt_list, put_opt_str, put_str, take,
};
use siren_wire::{Layer, MessageType, ProcessKey};
use std::collections::HashMap;

/// A merged SCRIPT-layer observation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptRecord {
    /// Script path.
    pub path: Option<String>,
    /// Parsed script file metadata.
    pub meta: HashMap<String, String>,
    /// `SCRIPT_H` — SSDeep hash of the script content.
    pub script_hash: Option<String>,
}

/// One process observation, fully consolidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessRecord {
    /// Identity (job, step, pid, exe-path hash, host, time, layer).
    pub key: ProcessKey,
    /// Parsed file metadata (`path`, `inode`, `size`, `uid`, `user`, …).
    pub meta: HashMap<String, String>,
    /// Loaded shared objects.
    pub objects: Option<Vec<String>>,
    /// Loaded modules.
    pub modules: Option<Vec<String>>,
    /// Compiler identification strings.
    pub compilers: Option<Vec<String>>,
    /// Memory-mapped file paths.
    pub maps: Option<Vec<String>>,
    /// `OBJECTS_H` (`OB_H`).
    pub objects_hash: Option<String>,
    /// `MODULES_H` (`MO_H`).
    pub modules_hash: Option<String>,
    /// `COMPILERS_H` (`CO_H`).
    pub compilers_hash: Option<String>,
    /// `MAPS_H`.
    pub maps_hash: Option<String>,
    /// `FILE_H` (`FI_H`).
    pub file_hash: Option<String>,
    /// `STRINGS_H` (`ST_H`).
    pub strings_hash: Option<String>,
    /// `SYMBOLS_H` (`SY_H`).
    pub symbols_hash: Option<String>,
    /// Merged Python script, when this is an interpreter process.
    pub script: Option<ScriptRecord>,
}

/// Parse a `k=v;k=v` content string.
pub fn parse_kv(content: &str) -> HashMap<String, String> {
    content
        .split(';')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Parse a `;`-joined list, dropping empties.
pub fn parse_list(content: &str) -> Vec<String> {
    content
        .split(';')
        .filter(|s| !s.is_empty())
        .map(|s| s.to_string())
        .collect()
}

impl ProcessRecord {
    /// Empty record keyed like `row`.
    pub fn new(row: &Record) -> Self {
        Self {
            key: ProcessKey {
                job_id: row.job_id,
                step_id: row.step_id,
                pid: row.pid,
                exe_hash: row.exe_hash.clone(),
                host: row.host.clone(),
                time: row.time,
                layer: row.layer,
            },
            meta: HashMap::new(),
            objects: None,
            modules: None,
            compilers: None,
            maps: None,
            objects_hash: None,
            modules_hash: None,
            compilers_hash: None,
            maps_hash: None,
            file_hash: None,
            strings_hash: None,
            symbols_hash: None,
            script: None,
        }
    }

    /// Fold one database row into this record.
    pub fn absorb(&mut self, row: &Record) {
        match row.mtype {
            MessageType::Meta => self.meta = parse_kv(&row.content),
            MessageType::Objects => self.objects = Some(parse_list(&row.content)),
            MessageType::Modules => self.modules = Some(parse_list(&row.content)),
            MessageType::Compilers => self.compilers = Some(parse_list(&row.content)),
            MessageType::Maps => self.maps = Some(parse_list(&row.content)),
            MessageType::ObjectsHash => self.objects_hash = Some(row.content.clone()),
            MessageType::ModulesHash => self.modules_hash = Some(row.content.clone()),
            MessageType::CompilersHash => self.compilers_hash = Some(row.content.clone()),
            MessageType::MapsHash => self.maps_hash = Some(row.content.clone()),
            MessageType::FileHash => self.file_hash = Some(row.content.clone()),
            MessageType::StringsHash => self.strings_hash = Some(row.content.clone()),
            MessageType::SymbolsHash => self.symbols_hash = Some(row.content.clone()),
            // SCRIPT_H arrives on the SCRIPT layer and is handled by the
            // merging pass; ENV is reserved; END is transport control
            // that should never reach the database at all.
            MessageType::ScriptHash | MessageType::Env | MessageType::End => {}
        }
    }

    /// Encode to a self-contained binary payload (length-prefixed
    /// strings, little-endian integers) for the consolidated-record
    /// store. Maps are written in sorted key order so equal records
    /// encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        self.encode_into(&mut out);
        out
    }

    /// Append the [`ProcessRecord::encode`] payload to `out`, so a
    /// caller framing it writes in place instead of copying a buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.job_id.to_le_bytes());
        out.extend_from_slice(&self.key.step_id.to_le_bytes());
        out.extend_from_slice(&self.key.pid.to_le_bytes());
        out.extend_from_slice(&self.key.time.to_le_bytes());
        out.push(match self.key.layer {
            Layer::SelfExe => 0,
            Layer::Script => 1,
        });
        put_str(out, &self.key.exe_hash);
        put_str(out, &self.key.host);
        put_map(out, &self.meta);
        for list in [&self.objects, &self.modules, &self.compilers, &self.maps] {
            put_opt_list(out, list);
        }
        for hash in [
            &self.objects_hash,
            &self.modules_hash,
            &self.compilers_hash,
            &self.maps_hash,
            &self.file_hash,
            &self.strings_hash,
            &self.symbols_hash,
        ] {
            put_opt_str(out, hash);
        }
        match &self.script {
            None => out.push(0),
            Some(script) => {
                out.push(1);
                put_opt_str(out, &script.path);
                put_map(out, &script.meta);
                put_opt_str(out, &script.script_hash);
            }
        }
    }

    /// Decode a payload produced by [`ProcessRecord::encode`]. `None` on
    /// any structural inconsistency (never panics).
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let job_id = u64::from_le_bytes(take(data, &mut pos, 8)?.try_into().ok()?);
        let step_id = u32::from_le_bytes(take(data, &mut pos, 4)?.try_into().ok()?);
        let pid = u32::from_le_bytes(take(data, &mut pos, 4)?.try_into().ok()?);
        let time = u64::from_le_bytes(take(data, &mut pos, 8)?.try_into().ok()?);
        let layer = match take(data, &mut pos, 1)?[0] {
            0 => Layer::SelfExe,
            1 => Layer::Script,
            _ => return None,
        };
        let exe_hash = get_str(data, &mut pos)?;
        let host = get_str(data, &mut pos)?;
        let meta = get_map(data, &mut pos)?;
        let mut lists = [const { None }; 4];
        for slot in &mut lists {
            *slot = get_opt_list(data, &mut pos)?;
        }
        let [objects, modules, compilers, maps] = lists;
        let mut hashes = [const { None }; 7];
        for slot in &mut hashes {
            *slot = get_opt_str(data, &mut pos)?;
        }
        let [objects_hash, modules_hash, compilers_hash, maps_hash, file_hash, strings_hash, symbols_hash] =
            hashes;
        let script = match take(data, &mut pos, 1)?[0] {
            0 => None,
            1 => Some(ScriptRecord {
                path: get_opt_str(data, &mut pos)?,
                meta: get_map(data, &mut pos)?,
                script_hash: get_opt_str(data, &mut pos)?,
            }),
            _ => return None,
        };
        if pos != data.len() {
            return None; // trailing junk means a framing bug upstream
        }
        Some(Self {
            key: ProcessKey {
                job_id,
                step_id,
                pid,
                exe_hash,
                host,
                time,
                layer,
            },
            meta,
            objects,
            modules,
            compilers,
            maps,
            objects_hash,
            modules_hash,
            compilers_hash,
            maps_hash,
            file_hash,
            strings_hash,
            symbols_hash,
            script,
        })
    }

    /// Executable path (from metadata).
    pub fn exe_path(&self) -> Option<&str> {
        self.meta.get("path").map(|s| s.as_str())
    }

    /// Anonymized user name (from metadata).
    pub fn user(&self) -> Option<&str> {
        self.meta.get("user").map(|s| s.as_str())
    }

    /// Executable file name (final path component).
    pub fn exe_name(&self) -> Option<&str> {
        self.exe_path().map(|p| p.rsplit('/').next().unwrap_or(p))
    }

    /// Is this record a Python interpreter process (by executable name)?
    pub fn is_python_interpreter(&self) -> bool {
        self.exe_name()
            .map(|n| {
                n.strip_prefix("python")
                    .map(|rest| {
                        rest.is_empty() || rest.chars().all(|c| c.is_ascii_digit() || c == '.')
                    })
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_wire::Layer;

    fn base_row() -> Record {
        Record {
            job_id: 1,
            step_id: 0,
            pid: 2,
            exe_hash: "h".into(),
            host: "n".into(),
            time: 3,
            layer: Layer::SelfExe,
            mtype: MessageType::Meta,
            content: String::new(),
        }
    }

    #[test]
    fn parse_kv_basics() {
        let kv = parse_kv("a=1;b=two;c=;broken;d=4");
        assert_eq!(kv.get("a").unwrap(), "1");
        assert_eq!(kv.get("b").unwrap(), "two");
        assert_eq!(kv.get("c").unwrap(), "");
        assert!(!kv.contains_key("broken"));
        assert_eq!(kv.len(), 4);
    }

    #[test]
    fn parse_list_drops_empties() {
        assert_eq!(parse_list("a;b;;c"), vec!["a", "b", "c"]);
        assert!(parse_list("").is_empty());
    }

    #[test]
    fn absorb_each_type() {
        let mut rec = ProcessRecord::new(&base_row());
        let mut row = base_row();

        row.mtype = MessageType::Meta;
        row.content = "path=/usr/bin/x;uid=1001;user=user_1".into();
        rec.absorb(&row);
        assert_eq!(rec.exe_path(), Some("/usr/bin/x"));
        assert_eq!(rec.exe_name(), Some("x"));
        assert_eq!(rec.meta.get("uid").map(String::as_str), Some("1001"));
        assert_eq!(rec.user(), Some("user_1"));

        row.mtype = MessageType::Objects;
        row.content = "/a.so;/b.so".into();
        rec.absorb(&row);
        assert_eq!(rec.objects.as_ref().unwrap().len(), 2);

        row.mtype = MessageType::FileHash;
        row.content = "3:abc:de".into();
        rec.absorb(&row);
        assert_eq!(rec.file_hash.as_deref(), Some("3:abc:de"));

        row.mtype = MessageType::Compilers;
        row.content = "GCC: (SUSE Linux) 13.2.1".into();
        rec.absorb(&row);
        assert_eq!(
            rec.compilers.as_ref().unwrap()[0],
            "GCC: (SUSE Linux) 13.2.1"
        );
    }

    #[test]
    fn codec_round_trips_minimal_and_full_records() {
        // Minimal: fresh record, everything None/empty.
        let minimal = ProcessRecord::new(&base_row());
        assert_eq!(ProcessRecord::decode(&minimal.encode()), Some(minimal));

        // Full: every field populated, including a merged script.
        let mut rec = ProcessRecord::new(&base_row());
        rec.meta = [("path", "/usr/bin/python3.10"), ("user", "user_7")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        rec.objects = Some(vec!["/lib64/libc.so.6".into(), "/lib64/libm.so.6".into()]);
        rec.modules = Some(vec!["gcc/12.2".into()]);
        rec.compilers = Some(vec!["GCC: (SUSE) 13.2.1".into()]);
        rec.maps = Some(Vec::new());
        rec.objects_hash = Some("3:ab:cd".into());
        rec.modules_hash = Some("3:ef:gh".into());
        rec.compilers_hash = Some("3:ij:kl".into());
        rec.maps_hash = Some("3:mn:op".into());
        rec.file_hash = Some("6:qr:st".into());
        rec.strings_hash = Some("6:uv:wx".into());
        rec.symbols_hash = Some("6:yz:ab".into());
        rec.script = Some(ScriptRecord {
            path: Some("/u/run.py".into()),
            meta: [("inode".to_string(), "9".to_string())]
                .into_iter()
                .collect(),
            script_hash: Some("3:s:h".into()),
        });
        assert_eq!(ProcessRecord::decode(&rec.encode()), Some(rec.clone()));

        // Equal records encode identically (map order is canonicalized).
        let mut clone = rec.clone();
        clone.meta = rec.meta.clone().into_iter().collect();
        assert_eq!(clone.encode(), rec.encode());
    }

    #[test]
    fn codec_rejects_truncation_and_trailing_junk() {
        let mut rec = ProcessRecord::new(&base_row());
        rec.objects = Some(vec!["/a.so".into()]);
        rec.file_hash = Some("3:x:y".into());
        let enc = rec.encode();
        for cut in 0..enc.len() {
            assert_eq!(ProcessRecord::decode(&enc[..cut]), None, "cut {cut}");
        }
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(ProcessRecord::decode(&extra), None);
    }

    #[test]
    fn python_interpreter_detection() {
        let mut rec = ProcessRecord::new(&base_row());
        let mut row = base_row();
        row.content = "path=/usr/bin/python3.10".into();
        rec.absorb(&row);
        assert!(rec.is_python_interpreter());

        row.content = "path=/usr/bin/bash".into();
        rec.absorb(&row);
        assert!(!rec.is_python_interpreter());

        // No metadata at all (META message lost): not an interpreter.
        let empty = ProcessRecord::new(&base_row());
        assert!(!empty.is_python_interpreter());
    }
}
