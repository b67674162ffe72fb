//! The route hash, and epoch-versioned slice routing: the dynamic
//! key→shard map.
//!
//! Every wire carries the [`route_hash`] of its partition key
//! ([`route_for`]). The static router ([`shard_index`]`(route, count)`)
//! fixes every key's shard for the lifetime of the deployment, so a
//! skewed workload pins its whole hot set to one enclave and the
//! deployment scales no further. This module replaces that with a
//! **slice table**: the 32-bit route-hash space is folded into
//! [`SLICE_COUNT`] slices (`route % SLICE_COUNT`), and an explicit
//! epoch-stamped assignment maps each slice to a shard. Rebalancing is
//! then a *slice move*: a new table differing in one slice, with the
//! epoch incremented.
//!
//! The table is trusted state. Every enclave of a deployment holds a
//! copy inside its [`crate::context::TrustedContext`] (installed at
//! provisioning, updated only by the attested slice-migration ecalls,
//! persisted inside the sealed checkpoint), and every wire envelope
//! carries the epoch the sender routed under, bound into the AEAD
//! associated data. That gives the enclave a three-way decision on an
//! authenticated wire it does not own:
//!
//! * **same epoch** — the host misdelivered (or the sender's envelope
//!   lies about its own operation): [`crate::Violation::WrongShard`].
//! * **wire epoch newer than the enclave's** — the enclave has been
//!   rolled back past a slice migration (or was forked off before
//!   one): also [`crate::Violation::WrongShard`]. This is the
//!   rollback-detection hook that makes *live* rebalancing safe under
//!   the paper's threat model.
//! * **wire epoch older** — an honest in-flight message that raced a
//!   migration: the enclave answers with an authenticated *redirect*
//!   carrying the current table so the client can re-route.
//!
//! Genesis compatibility: [`SliceTable::uniform`]`(n)` assigns slice
//! `s` to shard `s % n`, which for every shard count dividing
//! [`SLICE_COUNT`] is exactly the static map `route % n`. Deployments
//! that never migrate a slice behave bit-for-bit as before.

use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::types::ClientId;

/// Number of routing slices the 32-bit route-hash space folds into.
///
/// A power of two so that `uniform(n)` coincides with the legacy
/// `route % n` router for every power-of-two shard count up to 64 —
/// and the migration granularity: a deployment of `n` shards has
/// `64 / n` independently movable slices per shard.
pub const SLICE_COUNT: u32 = 64;

/// The slice a route hash falls into.
pub fn slice_of(route: u32) -> u32 {
    route % SLICE_COUNT
}

/// 32-bit FNV-1a over the partition key — the stable route hash.
///
/// Stability matters more than distribution quality here: the same key
/// must map to the same shard across process restarts, migrations, and
/// architectures, so the hash is a fixed public function rather than a
/// seeded hasher.
pub fn route_hash(key: &[u8]) -> u32 {
    const OFFSET: u32 = 0x811c_9dc5;
    const PRIME: u32 = 0x0100_0193;
    let mut h = OFFSET;
    for &b in key {
        h ^= u32::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The route hash of one operation: the functionality's partition key
/// when there is one, otherwise the client identity (all of one
/// client's operations then share a shard).
pub fn route_for(client: ClientId, shard_key: Option<&[u8]>) -> u32 {
    match shard_key {
        Some(key) => route_hash(key),
        None => route_hash(&client.0.to_be_bytes()),
    }
}

/// Maps a route hash onto one of `n` shards under the *genesis*
/// (epoch-0, uniform) table — for shard counts dividing
/// [`SLICE_COUNT`] this equals [`SliceTable::uniform`]`(n).shard_of`.
/// Deployment-time helpers (key placement, per-shard test workloads)
/// use this; live routing goes through the current [`SliceTable`],
/// which slice migrations advance.
pub fn shard_index(route: u32, n: u32) -> u32 {
    route % n.max(1)
}

/// An epoch-stamped assignment of the [`SLICE_COUNT`] routing slices
/// to the shards of one deployment.
///
/// Immutable by design: a migration produces a *new* table via
/// [`SliceTable::moved`] with the epoch incremented, so every version
/// that ever routed traffic stays addressable by its epoch (the host
/// side of `lcm_core::shard::ShardedServer` keeps the history to route
/// in-flight wires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceTable {
    epoch: u64,
    count: u32,
    assign: Vec<u32>,
}

impl SliceTable {
    /// The genesis table of an `count`-shard deployment: slice `s` on
    /// shard `s % count`, epoch 0. Equals the legacy static router
    /// `route % count` whenever `count` divides [`SLICE_COUNT`].
    pub fn uniform(count: u32) -> Self {
        let count = count.max(1);
        SliceTable {
            epoch: 0,
            count,
            assign: (0..SLICE_COUNT).map(|s| s % count).collect(),
        }
    }

    /// The table's epoch (0 for genesis; +1 per slice move).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards this table assigns slices over.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The shard that owns `slice`.
    pub fn owner(&self, slice: u32) -> u32 {
        let owner = self.assign.get((slice % SLICE_COUNT) as usize);
        owner.copied().unwrap_or_default()
    }

    /// The shard a route hash maps to under this table.
    pub fn shard_of(&self, route: u32) -> u32 {
        self.owner(slice_of(route))
    }

    /// Whether `shard` owns `route` under this table.
    pub fn owns(&self, shard: u32, route: u32) -> bool {
        self.shard_of(route) == shard
    }

    /// The slices assigned to `shard`.
    pub fn slices_of(&self, shard: u32) -> Vec<u32> {
        (0..SLICE_COUNT)
            .filter(|&s| self.owner(s) == shard)
            .collect()
    }

    /// The successor table with `slice` reassigned to shard `to` and
    /// the epoch incremented. `None` when `slice` or `to` is out of
    /// range, or when `to` already owns the slice (a no-op move must
    /// not burn an epoch).
    pub fn moved(&self, slice: u32, to: u32) -> Option<SliceTable> {
        if slice >= SLICE_COUNT || to >= self.count || self.owner(slice) == to {
            return None;
        }
        let mut assign = self.assign.clone();
        *assign.get_mut(slice as usize)? = to;
        Some(SliceTable {
            epoch: self.epoch + 1,
            count: self.count,
            assign,
        })
    }
}

impl WireCodec for SliceTable {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u32(self.count);
        for &shard in &self.assign {
            w.put_u32(shard);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let epoch = r.get_u64()?;
        let count = r.get_u32()?;
        if count == 0 {
            return Err(CodecError::InvalidTag(0));
        }
        let mut assign = Vec::with_capacity(SLICE_COUNT as usize);
        for _ in 0..SLICE_COUNT {
            let shard = r.get_u32()?;
            if shard >= count {
                return Err(CodecError::InvalidTag(1));
            }
            assign.push(shard);
        }
        Ok(SliceTable {
            epoch,
            count,
            assign,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_legacy_static_router() {
        // For every shard count dividing SLICE_COUNT the genesis table
        // IS the legacy `route % count` map — deployments that never
        // migrate behave bit-for-bit as before.
        for count in [1u32, 2, 4, 8, 16, 32, 64] {
            let table = SliceTable::uniform(count);
            assert_eq!(table.epoch(), 0);
            for route in [0u32, 1, 63, 64, 1000, 0xdead_beef, u32::MAX] {
                assert_eq!(table.shard_of(route), route % count, "count {count}");
            }
        }
    }

    #[test]
    fn uniform_covers_every_shard() {
        for count in [1u32, 2, 3, 4, 5, 8] {
            let table = SliceTable::uniform(count);
            for shard in 0..count {
                assert!(
                    !table.slices_of(shard).is_empty(),
                    "shard {shard} of {count} owns no slice"
                );
            }
        }
    }

    #[test]
    fn moved_bumps_epoch_and_reassigns_exactly_one_slice() {
        let t0 = SliceTable::uniform(4);
        let t1 = t0.moved(0, 3).unwrap();
        assert_eq!(t1.epoch(), 1);
        assert_eq!(t1.owner(0), 3);
        for s in 1..SLICE_COUNT {
            assert_eq!(t1.owner(s), t0.owner(s), "slice {s} must not move");
        }
        // Total: every route still maps to exactly one in-range shard.
        for route in 0..(4 * SLICE_COUNT) {
            assert!(t1.shard_of(route) < t1.count());
        }
    }

    #[test]
    fn moved_rejects_out_of_range_and_noop() {
        let t = SliceTable::uniform(4);
        assert!(t.moved(SLICE_COUNT, 1).is_none(), "slice out of range");
        assert!(t.moved(0, 4).is_none(), "target shard out of range");
        assert!(t.moved(0, 0).is_none(), "no-op move must not burn an epoch");
    }

    #[test]
    fn codec_roundtrip() {
        let t = SliceTable::uniform(8)
            .moved(5, 0)
            .unwrap()
            .moved(13, 2)
            .unwrap();
        let decoded = SliceTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(decoded.epoch(), 2);
    }

    #[test]
    fn decode_rejects_malformed_tables() {
        // Zero shard count.
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u32(0);
        for _ in 0..SLICE_COUNT {
            w.put_u32(0);
        }
        assert!(SliceTable::from_bytes(&w.into_bytes()).is_err());
        // Assignment out of range.
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u32(2);
        for _ in 0..SLICE_COUNT {
            w.put_u32(7);
        }
        assert!(SliceTable::from_bytes(&w.into_bytes()).is_err());
        // Truncated.
        let bytes = SliceTable::uniform(2).to_bytes();
        assert!(SliceTable::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn slices_of_partition_the_space() {
        let t = SliceTable::uniform(4).moved(2, 0).unwrap();
        let mut seen = vec![false; SLICE_COUNT as usize];
        for shard in 0..t.count() {
            for s in t.slices_of(shard) {
                assert!(!seen[s as usize], "slice {s} owned twice");
                seen[s as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every slice owned");
    }
}
