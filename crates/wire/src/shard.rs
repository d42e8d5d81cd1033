//! Job-keyed shard routing.

use crate::{Message, MessageType};
use siren_hash::xxh64;

/// Maps job ids to shard indexes by hashing, so load spreads evenly even
/// when job ids are dense sequential ranges (as Slurm hands them out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Router over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard for a job id.
    ///
    /// Everything consolidation must see together shares a job id: all
    /// chunks of a message, all messages of a process, and the SCRIPT
    /// rows that merge into their interpreter parent. Routing on the job
    /// id alone therefore keeps shard outputs semantically closed.
    pub fn shard_of_job(&self, job_id: u64) -> usize {
        (xxh64(&job_id.to_le_bytes(), 0) % self.shards as u64) as usize
    }

    /// Shard for a decoded message. End-of-campaign sentinels return
    /// `None`: they are control traffic addressed to every shard.
    pub fn shard_of(&self, msg: &Message) -> Option<usize> {
        if msg.header.mtype == MessageType::End {
            return None;
        }
        Some(self.shard_of_job(msg.header.job_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sentinel_message, Layer, MessageHeader};

    fn msg(job_id: u64) -> Message {
        Message {
            header: MessageHeader {
                job_id,
                step_id: 0,
                pid: 7,
                exe_hash: "ab".into(),
                host: "nid1".into(),
                time: 1,
                layer: Layer::SelfExe,
                mtype: MessageType::Objects,
            },
            chunk_index: 0,
            chunk_total: 1,
            content: "JOBID=999|weird".into(),
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = ShardRouter::new(8);
        for job in 0..1000u64 {
            let s = r.shard_of_job(job);
            assert!(s < 8);
            assert_eq!(s, r.shard_of_job(job));
        }
    }

    #[test]
    fn dense_job_ranges_spread_evenly() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for job in 8_000_000..8_004_000u64 {
            counts[r.shard_of_job(job)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced shard: {counts:?}");
        }
    }

    #[test]
    fn message_routing_follows_the_job_id() {
        let r = ShardRouter::new(8);
        for job in [0u64, 1, 17, 8_812_345, u64::MAX] {
            assert_eq!(r.shard_of(&msg(job)), Some(r.shard_of_job(job)));
        }
    }

    #[test]
    fn sentinels_route_nowhere() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shard_of(&sentinel_message(1, 10)), None);
    }

    #[test]
    fn single_shard_router_accepts_everything() {
        let r = ShardRouter::new(0); // clamped to 1
        assert_eq!(r.shards(), 1);
        assert_eq!(r.shard_of_job(123), 0);
    }
}
