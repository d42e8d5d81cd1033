//! The row type: one reassembled message, flattened to columns.

use siren_wire::{CompleteMessage, Layer, MessageType};

/// One database row. Columns mirror the paper's SQLite schema: "JOBID,
/// STEPID, PID, HASH, HOST, TIME, LAYER, TYPE, and CONTENT".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// `SLURM_JOB_ID`.
    pub job_id: u64,
    /// `SLURM_STEP_ID`.
    pub step_id: u32,
    /// Process id.
    pub pid: u32,
    /// Executable-path hash (XXH3-128 hex).
    pub exe_hash: String,
    /// Node hostname.
    pub host: String,
    /// Collection timestamp (UNIX seconds).
    pub time: u64,
    /// SELF or SCRIPT.
    pub layer: Layer,
    /// Information category.
    pub mtype: MessageType,
    /// Reassembled content.
    pub content: String,
}

impl From<CompleteMessage> for Record {
    fn from(msg: CompleteMessage) -> Self {
        Self {
            job_id: msg.header.job_id,
            step_id: msg.header.step_id,
            pid: msg.header.pid,
            exe_hash: msg.header.exe_hash,
            host: msg.header.host,
            time: msg.header.time,
            layer: msg.header.layer,
            mtype: msg.header.mtype,
            content: msg.content,
        }
    }
}

impl Record {
    /// Encode to the WAL's binary payload (length-prefixed strings,
    /// little-endian integers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 4
                + 4
                + 8
                + 1
                + 1
                + 2
                + self.exe_hash.len()
                + 2
                + self.host.len()
                + 4
                + self.content.len(),
        );
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.extend_from_slice(&self.step_id.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
        out.extend_from_slice(&self.time.to_le_bytes());
        out.push(match self.layer {
            Layer::SelfExe => 0,
            Layer::Script => 1,
        });
        out.push(type_tag(self.mtype));
        out.extend_from_slice(&(self.exe_hash.len() as u16).to_le_bytes());
        out.extend_from_slice(self.exe_hash.as_bytes());
        out.extend_from_slice(&(self.host.len() as u16).to_le_bytes());
        out.extend_from_slice(self.host.as_bytes());
        out.extend_from_slice(&(self.content.len() as u32).to_le_bytes());
        out.extend_from_slice(self.content.as_bytes());
        out
    }

    /// Decode a WAL payload. `None` on any structural inconsistency.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let slice = data.get(*pos..*pos + n)?;
            *pos += n;
            Some(slice)
        };

        let job_id = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let step_id = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let pid = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let time = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let layer = match take(&mut pos, 1)?[0] {
            0 => Layer::SelfExe,
            1 => Layer::Script,
            _ => return None,
        };
        let mtype = type_from_tag(take(&mut pos, 1)?[0])?;
        let hash_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        let exe_hash = String::from_utf8(take(&mut pos, hash_len)?.to_vec()).ok()?;
        let host_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        let host = String::from_utf8(take(&mut pos, host_len)?.to_vec()).ok()?;
        let content_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let content = String::from_utf8(take(&mut pos, content_len)?.to_vec()).ok()?;

        if pos != data.len() {
            return None; // trailing junk means a framing bug upstream
        }

        Some(Self {
            job_id,
            step_id,
            pid,
            exe_hash,
            host,
            time,
            layer,
            mtype,
            content,
        })
    }
}

/// Storage integration: the WAL payload codec doubles as the [`Persist`]
/// codec.
///
/// [`Persist`]: siren_store::Persist
impl siren_store::Persist for Record {
    fn encode(&self) -> Vec<u8> {
        Record::encode(self)
    }

    fn decode(data: &[u8]) -> Option<Self> {
        Record::decode(data)
    }
}

fn type_tag(t: MessageType) -> u8 {
    MessageType::ALL
        .iter()
        .position(|&x| x == t)
        .expect("every MessageType is in ALL") as u8
}

fn type_from_tag(tag: u8) -> Option<MessageType> {
    MessageType::ALL.get(tag as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siren_wire::MessageHeader;

    fn sample() -> Record {
        Record {
            job_id: u64::MAX - 5,
            step_id: 3,
            pid: 123_456,
            exe_hash: "deadbeefcafebabe".into(),
            host: "nid001234".into(),
            time: 1_733_912_345,
            layer: Layer::Script,
            mtype: MessageType::ScriptHash,
            content: "3:AbCdEf:Gh".into(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        assert_eq!(Record::decode(&r.encode()), Some(r));
    }

    #[test]
    fn round_trip_all_types_and_layers() {
        for t in MessageType::ALL {
            for layer in [Layer::SelfExe, Layer::Script] {
                let mut r = sample();
                r.mtype = t;
                r.layer = layer;
                assert_eq!(Record::decode(&r.encode()), Some(r));
            }
        }
    }

    #[test]
    fn round_trip_empty_strings() {
        let mut r = sample();
        r.exe_hash.clear();
        r.host.clear();
        r.content.clear();
        assert_eq!(Record::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_junk() {
        let enc = sample().encode();
        for cut in [0, 1, 8, 20, enc.len() - 1] {
            assert_eq!(Record::decode(&enc[..cut]), None, "cut {cut}");
        }
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(Record::decode(&extra), None);
    }

    #[test]
    fn from_complete_message() {
        let msg = CompleteMessage {
            header: MessageHeader {
                job_id: 9,
                step_id: 1,
                pid: 44,
                exe_hash: "ab".into(),
                host: "n".into(),
                time: 7,
                layer: Layer::SelfExe,
                mtype: MessageType::Modules,
            },
            content: "gcc/12.2;cray-mpich/8.1".into(),
        };
        let r = Record::from(msg);
        assert_eq!(r.job_id, 9);
        assert_eq!(r.mtype, MessageType::Modules);
        assert_eq!(r.content, "gcc/12.2;cray-mpich/8.1");
    }
}
