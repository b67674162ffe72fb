//! Typed KVS client over the LCM client library (the paper's "KVS
//! client which instantiates the LCM client-library", §5.3).

use lcm_core::client::LcmClient;
use lcm_core::codec::WireCodec;
use lcm_core::server::BatchServer;
use lcm_core::types::{ClientId, Completion};
use lcm_core::{LcmError, Result};
use lcm_crypto::gcm::GcmKey;
use lcm_crypto::keys::SecretKey;

use crate::ops::{KvOp, KvResult};

/// A key-value client speaking the LCM protocol.
///
/// Wraps an [`LcmClient`], translating between typed KVS operations and
/// the opaque byte operations LCM carries. Transport is external: use
/// the `*_wire` methods with your own channel, or the convenience
/// [`KvsClient::run`] that drives any in-process [`BatchServer`] —
/// synchronous or pipelined — directly (used by examples and tests).
pub struct KvsClient {
    inner: LcmClient,
    /// Round-robin cursor for scatter-gather read pins: successive
    /// read legs spread across the shard groups' replicas instead of
    /// all landing on member 0 (see [`KvsClient::multi_get`]).
    next_pin: u32,
}

impl std::fmt::Debug for KvsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvsClient")
            .field("lcm", &self.inner)
            .finish()
    }
}

/// A typed completion: the KVS result plus LCM metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCompletion {
    /// The decoded KVS result.
    pub result: KvResult,
    /// Sequence number and stability from the LCM layer.
    pub completion: Completion,
}

impl KvsClient {
    /// Creates a client with identity `id` holding the group key `kC`,
    /// for an unsharded (single-shard) deployment.
    pub fn new(id: ClientId, k_c: &SecretKey) -> Self {
        Self::new_sharded(id, k_c, 1)
    }

    /// Creates a client for a deployment of `n_shards` server shards:
    /// operations route by record key (via
    /// [`lcm_core::functionality::Functionality::shard_key`] of
    /// [`KvStore`](crate::store::KvStore)) and the underlying
    /// [`LcmClient`] keeps one protocol context per shard.
    pub fn new_sharded(id: ClientId, k_c: &SecretKey, n_shards: u32) -> Self {
        Self::with_key(id, GcmKey::from_secret(k_c), n_shards)
    }

    /// Creates a client for `n_shards` shards sealing under `key`, an
    /// expanded `kC` shared with the deployment's other clients (see
    /// [`LcmClient::with_key`]).
    pub fn with_key(id: ClientId, key: GcmKey, n_shards: u32) -> Self {
        KvsClient {
            inner: LcmClient::with_key(id, key, n_shards),
            next_pin: 0,
        }
    }

    /// Number of server shards this client is wired for (1 unless
    /// created with [`KvsClient::new_sharded`]). Must match the
    /// deployment's attested shard count: the client's router and the
    /// enclaves' identity checks agree exactly when they share the
    /// same `(route hash, shard count)` mapping.
    pub fn n_shards(&self) -> u32 {
        self.inner.n_shards()
    }

    /// Access to the underlying LCM client (sequence numbers, stability
    /// watermark, recording).
    pub fn lcm(&self) -> &LcmClient {
        &self.inner
    }

    /// Mutable access to the underlying LCM client.
    pub fn lcm_mut(&mut self) -> &mut LcmClient {
        &mut self.inner
    }

    /// Produces the wire message for a typed operation.
    ///
    /// # Errors
    ///
    /// Propagates [`LcmClient::invoke`] errors.
    pub fn invoke_wire(&mut self, op: &KvOp) -> Result<Vec<u8>> {
        self.inner
            .invoke_for::<crate::store::KvStore>(&op.to_bytes())
    }

    /// Completes a pending operation from a reply wire message.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations from [`LcmClient::handle_reply`];
    /// a malformed *result* inside a well-authenticated reply is
    /// reported as [`LcmError::Codec`].
    pub fn complete(&mut self, reply_wire: &[u8]) -> Result<KvCompletion> {
        let completion = self.inner.handle_reply(reply_wire)?;
        let result = KvResult::from_bytes(&completion.result).map_err(LcmError::Codec)?;
        Ok(KvCompletion { result, completion })
    }

    /// Convenience: runs one operation to completion against an
    /// in-process server (submit → process → complete), transparently
    /// chasing resharding redirects: a reply carrying a newer slice
    /// table re-invokes the operation under it.
    ///
    /// # Errors
    ///
    /// Propagates client- and server-side errors, including detected
    /// violations.
    pub fn run<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        op: &KvOp,
    ) -> Result<KvCompletion> {
        use lcm_core::client::WriteOutcome;
        let mut wire = self.invoke_wire(op)?;
        loop {
            server.submit(wire);
            let replies = server.process_all()?;
            let mine = replies
                .into_iter()
                .find(|(id, _)| *id == self.inner.id())
                .ok_or_else(|| LcmError::Tee("no reply routed to this client".into()))?;
            match self.inner.handle_reply_on(&mine.1)? {
                (_, WriteOutcome::Done(completion)) => {
                    let result =
                        KvResult::from_bytes(&completion.result).map_err(LcmError::Codec)?;
                    return Ok(KvCompletion { result, completion });
                }
                // The slice moved since this client last routed: the
                // redirect already adopted the newer table, so the
                // re-invocation lands on the new owner.
                (_, WriteOutcome::Redirected { .. }) => {
                    wire = self.invoke_wire(op)?;
                }
            }
        }
    }

    /// Typed GET against an in-process server.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::run`] errors.
    pub fn get<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        match self.run(server, &KvOp::Get(key.to_vec()))?.result {
            KvResult::Value(v) => Ok(v),
            other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
        }
    }

    /// Typed PUT against an in-process server.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::run`] errors.
    pub fn put<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        key: &[u8],
        value: &[u8],
    ) -> Result<Completion> {
        let done = self.run(server, &KvOp::Put(key.to_vec(), value.to_vec()))?;
        match done.result {
            KvResult::Stored => Ok(done.completion),
            other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
        }
    }

    /// Refreshes this client's stability watermark by issuing a dummy
    /// read (paper §4.5: a client that needs stability updates without
    /// new work "can simply invoke dummy operations periodically", the
    /// FAUST technique). Returns the refreshed majority-stable
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::run`] errors — including the violation
    /// a forked-off client eventually hits.
    pub fn refresh_stability<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
    ) -> Result<lcm_core::types::SeqNo> {
        let done = self.run(server, &KvOp::Get(Vec::new()))?;
        Ok(done.completion.stable)
    }

    /// Typed ordered SCAN against an in-process server: up to `limit`
    /// records starting at `start` (inclusive), in key order.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::run`] errors.
    pub fn scan<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        start: &[u8],
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let op = KvOp::Scan {
            start: start.to_vec(),
            limit,
        };
        match self.run(server, &op)?.result {
            KvResult::Range(pairs) => Ok(pairs),
            other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
        }
    }

    /// Typed DEL against an in-process server.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::run`] errors.
    pub fn del<S: BatchServer + ?Sized>(&mut self, server: &mut S, key: &[u8]) -> Result<bool> {
        match self.run(server, &KvOp::Del(key.to_vec()))?.result {
            KvResult::Deleted(existed) => Ok(existed),
            other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
        }
    }

    /// Runs a read-only typed operation over the verified read path,
    /// pinned to `replica` of the operation's shard group (replica 0
    /// is valid on unreplicated deployments: it is the sole member).
    ///
    /// If the pinned member is behind — it has not yet applied the
    /// quorum round holding this client's last write, or it answered
    /// with a routing epoch this client has already moved past — the
    /// read is re-issued to the group's current leader, which by
    /// construction holds the newest state. If the slice *moved*
    /// since this client last routed, the authenticated redirect
    /// adopts the newer table and the read chases it to the new owner
    /// under the same pin.
    ///
    /// # Errors
    ///
    /// Propagates client- and server-side errors, including the halt a
    /// forged or rolled-back reply triggers.
    pub fn read_at<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        op: &KvOp,
        replica: u32,
    ) -> Result<KvResult> {
        use lcm_core::client::ReadOutcome;
        let bytes = op.to_bytes();
        let mut replica = replica;
        let mut behind_retried = false;
        // Each chase adopts a strictly newer table, so the retry count
        // is bounded by the epoch gap; the cap only guards against a
        // broken server bouncing the read forever.
        for _ in 0..8 {
            let wire = self
                .inner
                .read_for::<crate::store::KvStore>(&bytes, replica)?;
            match self.inner.handle_read_reply(&server.serve_read(wire)?)? {
                ReadOutcome::Fresh(done) => {
                    return KvResult::from_bytes(&done.result).map_err(LcmError::Codec)
                }
                ReadOutcome::Behind => {
                    if behind_retried {
                        return Err(LcmError::Tee("group leader behind on verified read".into()));
                    }
                    behind_retried = true;
                    replica = server.group_leader(self.shard_of(op));
                }
                // The newer table is adopted; the next leg routes to
                // the slice's new owner group.
                ReadOutcome::Moved => behind_retried = false,
            }
        }
        Err(LcmError::Tee(
            "verified read chased too many slice moves".into(),
        ))
    }

    /// Typed GET on the verified read path ([`KvsClient::read_at`]):
    /// the follower-served scale-out read.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::read_at`] errors.
    pub fn get_at<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        key: &[u8],
        replica: u32,
    ) -> Result<Option<Vec<u8>>> {
        match self.read_at(server, &KvOp::Get(key.to_vec()), replica)? {
            KvResult::Value(v) => Ok(v),
            other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
        }
    }

    /// The shard a typed operation routes to under this client's
    /// *current* slice table (epoch 0's uniform table until a
    /// resharding redirect hands the client a newer one).
    pub fn shard_of(&self, op: &KvOp) -> u32 {
        let bytes = op.to_bytes();
        let key =
            <crate::store::KvStore as lcm_core::functionality::Functionality>::shard_key(&bytes);
        self.inner
            .shard_of_route(lcm_core::shard::route_for(self.inner.id(), key))
    }

    /// Runs a set of typed operations to completion with cross-shard
    /// pipelining: operations on *different* shards are in flight
    /// together (the per-shard sequential rule still holds, so
    /// same-shard operations run in order), every leg's reply is
    /// verified against that shard's own `(tc, ts, hc)` context, and
    /// the completions come back in the input order.
    ///
    /// This is the scatter phase of the scatter-gather reads
    /// ([`KvsClient::multi_get`] / [`KvsClient::scan_all`]); it drives
    /// any [`BatchServer`] — including the concurrent transport
    /// front-end, which it reaches through the same submit/pump
    /// surface.
    ///
    /// # Errors
    ///
    /// Propagates client- and server-side errors, including detected
    /// violations on any leg.
    pub fn fan_out<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        ops: &[KvOp],
    ) -> Result<Vec<KvCompletion>> {
        use std::collections::{BTreeMap, VecDeque};
        let mut results: Vec<Option<KvCompletion>> = (0..ops.len()).map(|_| None).collect();
        let mut waiting: VecDeque<usize> = (0..ops.len()).collect();
        // shard → index of the op currently in flight there.
        let mut in_flight: BTreeMap<u32, usize> = BTreeMap::new();
        while !waiting.is_empty() || !in_flight.is_empty() {
            // Scatter: launch every waiting op whose shard is free.
            let mut deferred = VecDeque::new();
            while let Some(idx) = waiting.pop_front() {
                let shard = self.shard_of(&ops[idx]);
                if in_flight.contains_key(&shard) {
                    deferred.push_back(idx);
                    continue;
                }
                let wire = self.invoke_wire(&ops[idx])?;
                server.submit(wire);
                in_flight.insert(shard, idx);
            }
            waiting = deferred;
            // Gather: one pump completes every in-flight leg; each
            // reply names its shard (by AAD authentication), pairing
            // it back to the op it answers.
            let before = in_flight.len();
            let replies = server.process_all()?;
            for (id, wire) in replies {
                if id != self.inner.id() {
                    return Err(LcmError::Tee(format!(
                        "fan-out received a reply routed to foreign client {id:?}"
                    )));
                }
                use lcm_core::client::WriteOutcome;
                match self.inner.handle_reply_on(&wire)? {
                    (shard, WriteOutcome::Done(completion)) => {
                        let idx = in_flight
                            .remove(&shard)
                            .ok_or_else(|| LcmError::Tee("reply for a leg not in flight".into()))?;
                        let result =
                            KvResult::from_bytes(&completion.result).map_err(LcmError::Codec)?;
                        results[idx] = Some(KvCompletion { result, completion });
                    }
                    // The leg's slice moved mid-fan-out: the redirect
                    // adopted the newer table, so put the leg back in
                    // the waiting set — the next scatter re-invokes it
                    // under the new routing (possibly onto a shard
                    // that currently has a different leg in flight,
                    // which the scatter loop already serializes).
                    (shard, WriteOutcome::Redirected { .. }) => {
                        let idx = in_flight
                            .remove(&shard)
                            .ok_or_else(|| LcmError::Tee("reply for a leg not in flight".into()))?;
                        waiting.push_back(idx);
                    }
                }
            }
            if in_flight.len() == before && !in_flight.is_empty() {
                return Err(LcmError::Tee(
                    "fan-out made no progress: in-flight legs got no replies".into(),
                ));
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every index completed or errored"))
            .collect())
    }

    /// The next scatter-gather read pin: round-robins over the
    /// deployment's `replicas` group members so read legs spread
    /// across followers instead of all landing on member 0. The
    /// leader still backstops every leg ([`KvsClient::read_at`]
    /// re-pins on [`lcm_core::client::ReadOutcome::Behind`]).
    fn next_read_pin(&mut self, replicas: u32) -> u32 {
        let pin = self.next_pin % replicas.max(1);
        self.next_pin = self.next_pin.wrapping_add(1);
        pin
    }

    /// Scatter-gather GET over the verified read path: reads `keys`
    /// with one read leg each, pins round-robined across the shard
    /// groups' replicas, and returns
    /// the values in input order. Each leg is verified against its
    /// shard's own history context; a leg landing on a follower that
    /// is behind re-pins to the group leader, and a leg whose slice
    /// moved chases the redirect.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::read_at`] errors.
    pub fn multi_get<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        keys: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let replicas = server.replica_count();
        keys.iter()
            .map(|k| {
                let pin = self.next_read_pin(replicas);
                match self.read_at(server, &KvOp::Get(k.clone()), pin)? {
                    KvResult::Value(v) => Ok(v),
                    other => Err(LcmError::Tee(format!("unexpected result {other:?}"))),
                }
            })
            .collect()
    }

    /// A routing pin that hashes to `shard` under this client's
    /// *current* slice table — what addresses one [`KvOp::ScanShard`]
    /// leg. `None` when the shard owns no slices under that table
    /// (every slice migrated away): no key can route there, and no
    /// slice-routed data lives there either.
    pub fn pin_for(&self, shard: u32) -> Option<Vec<u8>> {
        let table = self.inner.slice_table();
        if table.slices_of(shard).is_empty() {
            return None;
        }
        (0u32..)
            .map(|j| format!("pin-{j}").into_bytes())
            .find(|k| table.shard_of(lcm_core::shard::route_hash(k)) == shard)
    }

    /// Scatter-gather SCAN over the verified read path: fans one
    /// [`KvOp::ScanShard`] leg out to **every** shard for the same
    /// `[start..]` range (pins round-robined across replicas), merges
    /// the ordered legs, and returns up to `limit` records in global
    /// key order — the cross-shard counterpart of [`KvsClient::scan`],
    /// whose single wire only ever sees one shard's slice of a
    /// partitioned deployment.
    ///
    /// # Errors
    ///
    /// Propagates [`KvsClient::read_at`] errors.
    pub fn scan_all<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        start: &[u8],
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let replicas = server.replica_count();
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for shard in 0..self.n_shards() {
            // A shard that owns no slices under the current table holds
            // no data — and no key could route a leg to it anyway.
            let Some(pin) = self.pin_for(shard) else {
                continue;
            };
            let op = KvOp::ScanShard {
                pin,
                start: start.to_vec(),
                limit,
            };
            let pin = self.next_read_pin(replicas);
            match self.read_at(server, &op, pin)? {
                KvResult::Range(pairs) => merged.extend(pairs),
                other => return Err(LcmError::Tee(format!("unexpected result {other:?}"))),
            }
        }
        // Shards own disjoint key slices, so a sort of the
        // concatenated legs is the merge.
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        merged.truncate(limit as usize);
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvStore;
    use lcm_core::admin::AdminHandle;
    use lcm_core::server::LcmServer;
    use lcm_core::stability::Quorum;
    use lcm_storage::MemoryStorage;
    use lcm_tee::world::TeeWorld;
    use std::sync::Arc;

    fn setup() -> (LcmServer<KvStore>, KvsClient, KvsClient) {
        let world = TeeWorld::new_deterministic(3);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<KvStore>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        server.boot().unwrap();
        let mut admin = AdminHandle::new_deterministic(
            &world,
            vec![ClientId(1), ClientId(2)],
            Quorum::Majority,
            1,
        );
        admin.bootstrap(&mut server).unwrap();
        let c1 = KvsClient::new(ClientId(1), admin.client_key());
        let c2 = KvsClient::new(ClientId(2), admin.client_key());
        (server, c1, c2)
    }

    #[test]
    fn typed_put_get_del() {
        let (mut server, mut c1, _c2) = setup();
        c1.put(&mut server, b"name", b"lcm").unwrap();
        assert_eq!(c1.get(&mut server, b"name").unwrap(), Some(b"lcm".to_vec()));
        assert!(c1.del(&mut server, b"name").unwrap());
        assert_eq!(c1.get(&mut server, b"name").unwrap(), None);
        assert!(!c1.del(&mut server, b"name").unwrap());
    }

    #[test]
    fn two_clients_share_the_store() {
        let (mut server, mut c1, mut c2) = setup();
        c1.put(&mut server, b"shared", b"from-c1").unwrap();
        assert_eq!(
            c2.get(&mut server, b"shared").unwrap(),
            Some(b"from-c1".to_vec())
        );
    }

    #[test]
    fn stability_metadata_flows_through() {
        let (mut server, mut c1, mut c2) = setup();
        let p1 = c1.put(&mut server, b"a", b"1").unwrap();
        assert_eq!(p1.stable.0, 0);
        c2.put(&mut server, b"b", b"2").unwrap();
        // Second round: acknowledgements advance stability.
        let p2 = c1.put(&mut server, b"a", b"2").unwrap();
        assert!(p2.stable.0 >= 1, "stable = {}", p2.stable.0);
    }

    #[test]
    fn typed_scan_returns_ordered_range() {
        let (mut server, mut c1, _c2) = setup();
        for i in [3u8, 1, 4, 1, 5, 9, 2, 6] {
            c1.put(&mut server, &[b'k', b'0' + i], &[i]).unwrap();
        }
        let range = c1.scan(&mut server, b"k3", 3).unwrap();
        let keys: Vec<&[u8]> = range.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"k3"[..], b"k4", b"k5"]);
        // Scan past the end returns what exists.
        let tail = c1.scan(&mut server, b"k9", 10).unwrap();
        assert_eq!(tail.len(), 1);
        // Empty store region.
        assert!(c1.scan(&mut server, b"z", 5).unwrap().is_empty());
    }

    #[test]
    fn refresh_stability_advances_watermark() {
        let (mut server, mut c1, mut c2) = setup();
        c1.put(&mut server, b"a", b"1").unwrap();
        c2.put(&mut server, b"b", b"2").unwrap();
        // Without further writes, dummy ops still propagate stability.
        let s1 = c1.refresh_stability(&mut server).unwrap();
        let s2 = c2.refresh_stability(&mut server).unwrap();
        assert!(s2 >= s1);
        assert!(s2.0 >= 1, "watermark after refreshes: {s2}");
    }

    #[test]
    fn verified_read_on_single_replica() {
        let (mut server, mut c1, _c2) = setup();
        c1.put(&mut server, b"name", b"lcm").unwrap();
        // Replica 0 is the sole member on an unreplicated deployment.
        assert_eq!(
            c1.get_at(&mut server, b"name", 0).unwrap(),
            Some(b"lcm".to_vec())
        );
        // Reads never advance the write context.
        let tc_before = c1.lcm().last_seq();
        c1.get_at(&mut server, b"name", 0).unwrap();
        assert_eq!(c1.lcm().last_seq(), tc_before);
        // The write path still works afterwards.
        c1.put(&mut server, b"name", b"v2").unwrap();
        assert_eq!(
            c1.get_at(&mut server, b"name", 0).unwrap(),
            Some(b"v2".to_vec())
        );
    }

    #[test]
    fn lcm_accessors() {
        let (_server, c1, _c2) = setup();
        assert_eq!(c1.lcm().id(), ClientId(1));
        assert!(!c1.lcm().has_pending());
    }
}
