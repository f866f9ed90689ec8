//! The partitioning strategy tag of the deleted shard schedule.
//!
//! Only [`ShardStrategy`] is left: `MinibatchConfig` keeps a `strategy`
//! field because existing struct literals name it, and
//! `MinibatchConfig::segment_fp` still hashes the strategy's tag.

/// Partitioning strategy of the deleted shard schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardStrategy {
    /// Capacity-capped BFS growth from degree-sorted seeds.
    DegreeLocality,
}

impl ShardStrategy {
    /// Stable numeric tag, hashed into checkpoint `segment_fp` values; it
    /// must stay 1 so that the values written so far still match.
    pub fn tag(self) -> u8 {
        match self {
            ShardStrategy::DegreeLocality => 1,
        }
    }
}
