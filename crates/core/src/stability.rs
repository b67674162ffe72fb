//! The protocol state map `V` and operation stability (paper §4.5).
//!
//! `T` maintains, per client, the sequence number of the last
//! *acknowledged* operation (`ta`), and the sequence number and chain
//! value of the last *executed* operation (`t`, `h`). A client
//! acknowledges operation `t` implicitly by invoking its next operation
//! with `tc = t` — that is when `T` learns the client actually received
//! the reply.
//!
//! `majority-stable(V)` follows the paper's definition: *"the largest
//! acknowledged sequence number in V that is less than or equal to more
//! than n/2 sequence numbers in V"*.
//!
//! # Stability as an order statistic
//!
//! Read literally, the definition is a double loop over `V`. `T`
//! evaluates it on every operation, so [`VState`] keeps an index beside
//! the map that answers it in O(log n), resting on one identity. Let
//! `r = required(n)` be the quorum threshold and `τ` the `r`-th largest
//! `t` in `V`. Then
//!
//! ```text
//! stable(V) = max { ta ∈ V : ta ≤ τ }        (0 when the set is empty)
//! ```
//!
//! *Proof.* An acknowledged `a` qualifies iff at least `r` entries have
//! `t ≥ a`. If `a ≤ τ`, the `r` largest `t` are all `≥ τ ≥ a`, so `a`
//! qualifies; if `r` entries have `t ≥ a`, the `r`-th largest of all is
//! one of them or above them, so `τ ≥ a`. The qualifying
//! acknowledgements are therefore exactly those `≤ τ`, and the answer
//! is the predecessor of `τ` among the `ta`. ∎
//!
//! The index holds the `t` values in two ordered sets — `top`, the `r`
//! largest, and `rest` — so that `τ = min(top)`, and the `ta` values in
//! a third that answers the predecessor query. **Invariant:** `top`
//! holds exactly `min(required(n), n)` entries and none of them is
//! smaller than any entry of `rest`. The index is derived state: it is
//! never sealed or sent, and is rebuilt from the map wherever a map is
//! installed wholesale.

use std::collections::{BTreeMap, BTreeSet};

use crate::codec::{CodecError, Reader, WireCodec, Writer};
use crate::types::{ChainValue, ClientId, SeqNo};

/// The reply fields cached for crash-tolerant retries (§4.6.1 extends
/// `V` to *"store the last operation result r as well"*; we cache the
/// whole reply so it can be re-encrypted verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedReply {
    /// Sequence number the cached reply reported.
    pub t: SeqNo,
    /// Majority-stable watermark the cached reply reported.
    pub q: SeqNo,
    /// Chain value the cached reply reported.
    pub h: ChainValue,
    /// The `hc` echo of the cached reply — also used to authenticate
    /// that a retry matches the context of the original invocation.
    pub hc_echo: ChainValue,
    /// Whether the cached reply was a routing redirect (a
    /// context-stamped no-op carrying the slice table instead of an
    /// execution result); a retry must replay the same disposition.
    pub redirect: bool,
    /// The cached operation result.
    pub result: Vec<u8>,
}

impl WireCodec for CachedReply {
    fn encode(&self, w: &mut Writer) {
        self.t.encode(w);
        self.q.encode(w);
        self.h.encode(w);
        self.hc_echo.encode(w);
        w.put_bool(self.redirect);
        w.put_bytes(&self.result);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CachedReply {
            t: SeqNo::decode(r)?,
            q: SeqNo::decode(r)?,
            h: ChainValue::decode(r)?,
            hc_echo: ChainValue::decode(r)?,
            redirect: r.get_bool()?,
            result: r.get_bytes()?.to_vec(),
        })
    }
}

/// One entry of the protocol state map `V`: the paper's
/// `(ta, t, h)` triple plus the cached reply of the crash-tolerance
/// extension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VEntry {
    /// Sequence number of the last operation this client acknowledged.
    pub ta: SeqNo,
    /// Sequence number of the client's last executed operation.
    pub t: SeqNo,
    /// Chain value after the client's last executed operation.
    pub h: ChainValue,
    /// Reply cached for retry; `None` only before the client's first
    /// operation.
    pub cached: Option<CachedReply>,
}

impl WireCodec for VEntry {
    fn encode(&self, w: &mut Writer) {
        self.ta.encode(w);
        self.t.encode(w);
        self.h.encode(w);
        match &self.cached {
            None => w.put_bool(false),
            Some(c) => {
                w.put_bool(true);
                c.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ta = SeqNo::decode(r)?;
        let t = SeqNo::decode(r)?;
        let h = ChainValue::decode(r)?;
        let cached = if r.get_bool()? {
            Some(CachedReply::decode(r)?)
        } else {
            None
        };
        Ok(VEntry { ta, t, h, cached })
    }
}

/// The protocol state map `V`, indexed by client identifier.
pub type VMap = BTreeMap<ClientId, VEntry>;

/// Encodes entries of `V` deterministically: their count, then each
/// in the order given — key order for a whole [`VMap`] (BTreeMap
/// iterates in key order), client order for the touched entries a
/// delta carries ([`VState::entries_of`]).
pub fn encode_vmap<'a>(
    entries: impl IntoIterator<Item = (&'a ClientId, &'a VEntry)>,
    w: &mut Writer,
) {
    let at = w.len();
    w.put_u32(0);
    let mut n = 0;
    for (id, entry) in entries {
        id.encode(w);
        entry.encode(w);
        n += 1;
    }
    w.patch_u32(at, n);
}

/// Decodes a [`VMap`].
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_vmap(r: &mut Reader<'_>) -> Result<VMap, CodecError> {
    let n = r.get_u32()? as usize;
    let mut v = VMap::new();
    for _ in 0..n {
        let id = ClientId::decode(r)?;
        let entry = VEntry::decode(r)?;
        v.insert(id, entry);
    }
    Ok(v)
}

/// `majority-stable(V)`: the largest acknowledged sequence number `a`
/// in `V` such that more than `n/2` of the last-operation sequence
/// numbers in `V` are at least `a`.
///
/// Returns [`SeqNo::ZERO`] for an empty map or when nothing has been
/// acknowledged.
///
/// # Example
///
/// ```
/// use lcm_core::stability::{majority_stable, VEntry, VMap};
/// use lcm_core::types::{ClientId, SeqNo};
///
/// let mut v = VMap::new();
/// // Three clients; C1 acknowledged op #4, and ops ≥ 4 were executed
/// // by all three ⇒ #4 is majority-stable.
/// v.insert(ClientId(1), VEntry { ta: SeqNo(4), t: SeqNo(6), ..VEntry::default() });
/// v.insert(ClientId(2), VEntry { ta: SeqNo(2), t: SeqNo(5), ..VEntry::default() });
/// v.insert(ClientId(3), VEntry { ta: SeqNo(0), t: SeqNo(4), ..VEntry::default() });
/// assert_eq!(majority_stable(&v), SeqNo(4));
/// ```
pub fn majority_stable(v: &VMap) -> SeqNo {
    stable_with(v, Quorum::Majority)
}

/// A counting threshold over a group of `n` parties.
///
/// The same threshold engine backs two very different quorums — do not
/// conflate them:
///
/// * **Client quorum** (the paper's use, §4.5 Definition 2): how many
///   *clients* must have executed past an acknowledged sequence number
///   before `T` reports it stable. `n` is the client-group size, the
///   parties are mutually-trusting protocol participants, and the
///   quorum governs what *stability watermark* a reply carries. The
///   paper uses a majority but notes *"one may use different strengths
///   of stability"*, so it is configurable.
/// * **Replica quorum** ([`crate::replica::ReplicaGroup`]): how many
///   *group members* must hold a sealed state blob before the host
///   releases the batch's replies. `n` is the replica count `2f + 1`,
///   the parties are enclave instances on one untrusted host, and the
///   quorum governs *durability of acknowledged writes* across member
///   crashes. With [`Quorum::Majority`] over `2f + 1` members,
///   `required = f + 1`, so any `f` crashes leave at least one holder
///   of every acknowledged write.
///
/// A deployment picks the two independently: a cautious operator may
/// run client stability at [`Quorum::All`] while replica release stays
/// at majority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quorum {
    /// Strictly more than half of the clients (the paper's default).
    Majority,
    /// Every client (full stability; slowest to advance).
    All,
    /// At least `k` clients (clamped to the group size).
    AtLeast(u32),
}

impl Quorum {
    /// Minimum number of qualifying clients out of `n` for stability.
    pub fn required(&self, n: usize) -> usize {
        match self {
            Quorum::Majority => n / 2 + 1,
            Quorum::All => n,
            Quorum::AtLeast(k) => (*k as usize).min(n).max(1),
        }
    }
}

impl WireCodec for Quorum {
    fn encode(&self, w: &mut Writer) {
        match self {
            Quorum::Majority => w.put_u8(0),
            Quorum::All => w.put_u8(1),
            Quorum::AtLeast(k) => {
                w.put_u8(2);
                w.put_u32(*k);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Quorum::Majority),
            1 => Ok(Quorum::All),
            2 => Ok(Quorum::AtLeast(r.get_u32()?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

/// Generalization of [`majority_stable`] to an arbitrary [`Quorum`]:
/// the one-shot form of [`VState::stable`] for a map held outside a
/// [`VState`] — it builds the index and queries it.
pub fn stable_with(v: &VMap, quorum: Quorum) -> SeqNo {
    Index::build(v, quorum.required(v.len())).stable()
}

/// A sequence number tagged with its client, so that equal sequence
/// numbers (every `t` and `ta` of the genesis map is zero) stay
/// distinct set elements.
type Key = (SeqNo, ClientId);

/// The order-statistic index over a [`VMap`]; see the module docs for
/// the identity it answers and the invariant it keeps.
#[derive(Debug, Default)]
struct Index {
    /// The `required` largest `(t, client)`.
    top: BTreeSet<Key>,
    /// Every other `(t, client)`.
    rest: BTreeSet<Key>,
    /// Every `(ta, client)`.
    acks: BTreeSet<Key>,
}

impl Index {
    fn build(v: &VMap, required: usize) -> Index {
        let mut rest: Vec<Key> = v.iter().map(|(&c, e)| (e.t, c)).collect();
        rest.sort_unstable();
        let top = rest.split_off(rest.len().saturating_sub(required));
        Index {
            top: top.into_iter().collect(),
            rest: rest.into_iter().collect(),
            acks: v.iter().map(|(&c, e)| (e.ta, c)).collect(),
        }
    }

    fn insert(&mut self, client: ClientId, ta: SeqNo, t: SeqNo) {
        // Into `top` only when that provably keeps `top ≥ rest`;
        // `rebalance` promotes from `rest` otherwise.
        let key = (t, client);
        if self.top.first().is_some_and(|min| key >= *min) {
            self.top.insert(key);
        } else {
            self.rest.insert(key);
        }
        self.acks.insert((ta, client));
    }

    fn remove(&mut self, client: ClientId, ta: SeqNo, t: SeqNo) {
        let key = (t, client);
        if !self.top.remove(&key) {
            self.rest.remove(&key);
        }
        self.acks.remove(&(ta, client));
    }

    /// Restores `|top| = min(required, n)` after inserts and removes by
    /// moving boundary elements; one insert or remove leaves at most
    /// one element to move unless `required` itself jumped.
    fn rebalance(&mut self, required: usize) {
        while self.top.len() > required {
            let min = self.top.pop_first().expect("top is non-empty");
            self.rest.insert(min);
        }
        while self.top.len() < required {
            let Some(max) = self.rest.pop_last() else {
                break;
            };
            self.top.insert(max);
        }
    }

    fn stable(&self) -> SeqNo {
        let Some(&(tau, _)) = self.top.first() else {
            return SeqNo::ZERO;
        };
        self.acks
            .range(..=(tau, ClientId(u32::MAX)))
            .next_back()
            .map_or(SeqNo::ZERO, |&(ta, _)| ta)
    }

    /// The client holding the largest `t` (the largest id among ties).
    fn latest(&self) -> Option<ClientId> {
        self.top.last().map(|&(_, client)| client)
    }
}

/// The protocol state map `V` together with its stability index, and
/// the only way to mutate either: every method leaves the index in
/// step with the map, so [`VState::stable`] and [`VState::latest`]
/// cost O(log n) however large the client group is.
#[derive(Debug)]
pub struct VState {
    map: VMap,
    quorum: Quorum,
    index: Index,
}

impl VState {
    /// An empty `V` whose stability is judged by `quorum`.
    pub fn new(quorum: Quorum) -> Self {
        VState {
            map: VMap::new(),
            quorum,
            index: Index::default(),
        }
    }

    /// The map itself, for encoding and lookups.
    pub fn map(&self) -> &VMap {
        &self.map
    }

    /// The quorum stability is judged by.
    pub fn quorum(&self) -> Quorum {
        self.quorum
    }

    /// The stable watermark of the current map; equals
    /// [`stable_with`]`(self.map(), self.quorum())`.
    pub fn stable(&self) -> SeqNo {
        self.index.stable()
    }

    /// The `argmax(V)` of Alg. 2: the entry holding the most recent
    /// operation, from which `(t, h)` are recovered after a restart.
    pub fn latest(&self) -> Option<&VEntry> {
        self.map.get(&self.index.latest()?)
    }

    /// `V[client] ← (tc, t, h)`: records that `client` executed
    /// operation `t`, thereby acknowledging `tc`. The cached reply is
    /// cleared until [`VState::set_cached`] supplies the new one.
    pub fn advance(&mut self, client: ClientId, tc: SeqNo, t: SeqNo, h: ChainValue) {
        let entry = VEntry {
            ta: tc,
            t,
            h,
            cached: None,
        };
        self.put(client, entry);
    }

    /// Stores the reply cached for `client`'s retries; a no-op for a
    /// client outside the group.
    pub fn set_cached(&mut self, client: ClientId, cached: CachedReply) {
        if let Some(entry) = self.map.get_mut(&client) {
            entry.cached = Some(cached);
        }
    }

    /// Adds `client` with a genesis entry; `false` (and no change) when
    /// it is already a member.
    pub fn add_member(&mut self, client: ClientId) -> bool {
        let vacant = !self.map.contains_key(&client);
        if vacant {
            self.put(client, VEntry::default());
        }
        vacant
    }

    /// Removes `client`; `false` (and no change) when it is not a
    /// member.
    pub fn remove_member(&mut self, client: ClientId) -> bool {
        let Some(entry) = self.map.remove(&client) else {
            return false;
        };
        self.index.remove(client, entry.ta, entry.t);
        self.rebalance();
        true
    }

    /// Overwrites (or adds) the given entries — the replay of one
    /// sealed delta.
    pub fn apply_entries(&mut self, entries: VMap) {
        for (client, entry) in entries {
            self.put(client, entry);
        }
    }

    /// Overwrites (or adds) the entries of every delta in `deltas`, in
    /// order, and rebuilds the index once at the end instead of
    /// maintaining it per entry — the replay of a whole journal at
    /// boot. Equal to [`VState::apply_entries`] of each in turn.
    pub fn replay_entries(&mut self, deltas: impl IntoIterator<Item = VMap>) {
        for entries in deltas {
            self.map.extend(entries);
        }
        self.index = Index::build(&self.map, self.quorum.required(self.map.len()));
    }

    /// The entries of `clients` — ascending, without repeats — that
    /// `V` holds, in client order, borrowed: what a delta carries of
    /// `V`. [`encode_vmap`] writes for them the bytes it writes for a
    /// map of their clones.
    pub fn entries_of<'a>(
        &'a self,
        clients: &'a [ClientId],
    ) -> impl Iterator<Item = (&'a ClientId, &'a VEntry)> + 'a {
        debug_assert!(clients.windows(2).all(|p| p[0] < p[1]));
        clients.iter().filter_map(|c| self.map.get_key_value(c))
    }

    /// Installs `map` wholesale under `quorum` and rebuilds the index
    /// from it.
    pub fn replace(&mut self, map: VMap, quorum: Quorum) {
        self.index = Index::build(&map, quorum.required(map.len()));
        self.map = map;
        self.quorum = quorum;
    }

    fn put(&mut self, client: ClientId, entry: VEntry) {
        let (ta, t) = (entry.ta, entry.t);
        if let Some(old) = self.map.insert(client, entry) {
            self.index.remove(client, old.ta, old.t);
        }
        self.index.insert(client, ta, t);
        self.rebalance();
    }

    fn rebalance(&mut self) {
        self.index.rebalance(self.quorum.required(self.map.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition of stability read literally — a double loop over
    /// `V`, kept as the oracle the index is tested against.
    fn stable_with_quadratic(v: &VMap, quorum: Quorum) -> SeqNo {
        let required = quorum.required(v.len());
        let mut best = SeqNo::ZERO;
        for entry in v.values() {
            let a = entry.ta;
            if a > best && v.values().filter(|e| e.t >= a).count() >= required {
                best = a;
            }
        }
        best
    }

    fn entry(ta: u64, t: u64) -> VEntry {
        VEntry {
            ta: SeqNo(ta),
            t: SeqNo(t),
            h: ChainValue::GENESIS.extend(b"op", SeqNo(t), ClientId(0)),
            cached: None,
        }
    }

    fn vmap(entries: &[(u32, u64, u64)]) -> VMap {
        entries
            .iter()
            .map(|&(id, ta, t)| (ClientId(id), entry(ta, t)))
            .collect()
    }

    #[test]
    fn empty_map_is_zero() {
        assert_eq!(majority_stable(&VMap::new()), SeqNo::ZERO);
    }

    #[test]
    fn nothing_acknowledged_is_zero() {
        let v = vmap(&[(1, 0, 3), (2, 0, 2), (3, 0, 1)]);
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
    }

    #[test]
    fn single_client_self_stability() {
        // One client: its own acknowledgement is a majority of one.
        let v = vmap(&[(1, 5, 6)]);
        assert_eq!(majority_stable(&v), SeqNo(5));
    }

    #[test]
    fn majority_needed() {
        // 4 clients: exactly half executing ≥ a is NOT a majority.
        let v = vmap(&[(1, 4, 4), (2, 0, 4), (3, 0, 2), (4, 0, 1)]);
        // a=4: clients with t>=4 are {1,2} = 2, need >2 ⇒ not stable.
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
        let v = vmap(&[(1, 4, 4), (2, 0, 4), (3, 0, 5), (4, 0, 1)]);
        // a=4: {1,2,3} = 3 > 2 ⇒ stable.
        assert_eq!(majority_stable(&v), SeqNo(4));
    }

    #[test]
    fn largest_qualifying_ack_wins() {
        let v = vmap(&[(1, 6, 8), (2, 5, 7), (3, 0, 6)]);
        // a=6: |{t>=6}| = 3 > 1.5 ⇒ stable; a=6 beats a=5.
        assert_eq!(majority_stable(&v), SeqNo(6));
    }

    #[test]
    fn forked_minority_stalls_stability() {
        // Clients 2 and 3 are forked away (their t stopped advancing).
        let v = vmap(&[(1, 9, 10), (2, 0, 2), (3, 0, 2)]);
        // a=9: only client 1 has t>=9 ⇒ 1 ≤ 1.5 ⇒ not stable.
        assert_eq!(majority_stable(&v), SeqNo::ZERO);
    }

    #[test]
    fn ventry_codec_roundtrip() {
        let mut e = entry(3, 7);
        assert_eq!(VEntry::from_bytes(&e.to_bytes()).unwrap(), e);
        e.cached = Some(CachedReply {
            t: SeqNo(7),
            q: SeqNo(3),
            h: e.h,
            hc_echo: ChainValue::GENESIS,
            redirect: false,
            result: b"result".to_vec(),
        });
        assert_eq!(VEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn vmap_codec_roundtrip() {
        let v = vmap(&[(1, 1, 2), (5, 0, 4), (9, 3, 3)]);
        let mut w = Writer::new();
        encode_vmap(&v, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_vmap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn vmap_encoding_is_deterministic() {
        let a = vmap(&[(3, 1, 2), (1, 0, 4), (2, 3, 3)]);
        let b = vmap(&[(2, 3, 3), (3, 1, 2), (1, 0, 4)]);
        let mut wa = Writer::new();
        let mut wb = Writer::new();
        encode_vmap(&a, &mut wa);
        encode_vmap(&b, &mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn quorum_required_counts() {
        assert_eq!(Quorum::Majority.required(1), 1);
        assert_eq!(Quorum::Majority.required(2), 2);
        assert_eq!(Quorum::Majority.required(3), 2);
        assert_eq!(Quorum::Majority.required(4), 3);
        assert_eq!(Quorum::All.required(5), 5);
        assert_eq!(Quorum::AtLeast(2).required(5), 2);
        assert_eq!(Quorum::AtLeast(9).required(5), 5);
        assert_eq!(Quorum::AtLeast(0).required(5), 1);
    }

    #[test]
    fn replica_quorum_thresholds_k_of_2f_plus_1() {
        // The replica-release quorum over 2f+1 members: majority is
        // f+1, so f crashes still leave a holder of every release.
        for f in 0u32..4 {
            let n = (2 * f + 1) as usize;
            let required = Quorum::Majority.required(n);
            assert_eq!(required, f as usize + 1, "2f+1 = {n}");
            // Tolerance: killing f members leaves exactly enough.
            assert!(n - f as usize >= required);
            // One more crash breaks the quorum.
            assert!(n - f as usize - 1 < required || f == 0);
        }
    }

    #[test]
    fn replica_quorum_degenerate_f0_group_of_one() {
        // f = 0: a "group" of one member. The sole member is its own
        // quorum — exactly the unreplicated server's behavior.
        assert_eq!(Quorum::Majority.required(1), 1);
        assert_eq!(Quorum::All.required(1), 1);
        // AtLeast clamps into [1, n] at both ends.
        assert_eq!(Quorum::AtLeast(0).required(1), 1);
        assert_eq!(Quorum::AtLeast(7).required(1), 1);
    }

    #[test]
    fn replica_quorum_all_but_one_crashed_edge() {
        // 2f+1 = 5, f = 2: with four members crashed the survivor
        // cannot form a majority quorum — releases must stall rather
        // than acknowledge writes a single crash could erase.
        let n = 5;
        let holders_after_crashes = 1;
        assert!(holders_after_crashes < Quorum::Majority.required(n));
        // AtLeast(1) deliberately opts out of that protection: one
        // holder (the leader itself) releases immediately.
        assert_eq!(Quorum::AtLeast(1).required(n), 1);
        assert!(holders_after_crashes >= Quorum::AtLeast(1).required(n));
    }

    #[test]
    fn all_quorum_is_stricter_than_majority() {
        let v = vmap(&[(1, 6, 8), (2, 5, 7), (3, 0, 3)]);
        // a=6 needs all three t ≥ 6, but client 3 has t=3.
        assert_eq!(stable_with(&v, Quorum::All), SeqNo::ZERO);
        assert_eq!(stable_with(&v, Quorum::Majority), SeqNo(6));
    }

    #[test]
    fn quorum_codec_roundtrip() {
        for q in [Quorum::Majority, Quorum::All, Quorum::AtLeast(4)] {
            assert_eq!(Quorum::from_bytes(&q.to_bytes()).unwrap(), q);
        }
    }

    #[test]
    fn vstate_latest_is_argmax() {
        let mut v = VState::new(Quorum::Majority);
        assert!(v.latest().is_none());
        v.replace(vmap(&[(1, 1, 2), (2, 0, 9), (3, 3, 3)]), Quorum::Majority);
        assert_eq!(v.latest().unwrap().t, SeqNo(9));
        // Ties (the genesis map) resolve to the largest client id, as
        // `max_by_key` over the map did.
        v.replace(vmap(&[(1, 0, 0), (2, 0, 0)]), Quorum::Majority);
        assert_eq!(v.latest(), v.map().get(&ClientId(2)));
    }

    #[test]
    fn vstate_advance_clears_then_caches_the_reply() {
        let mut v = VState::new(Quorum::Majority);
        assert!(v.add_member(ClientId(1)));
        assert!(!v.add_member(ClientId(1)));
        let h = ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(1));
        v.advance(ClientId(1), SeqNo::ZERO, SeqNo(1), h);
        assert_eq!(v.map()[&ClientId(1)].cached, None);
        let cached = CachedReply {
            t: SeqNo(1),
            q: SeqNo::ZERO,
            h,
            hc_echo: ChainValue::GENESIS,
            redirect: false,
            result: b"r".to_vec(),
        };
        v.set_cached(ClientId(1), cached.clone());
        v.set_cached(ClientId(9), cached.clone());
        assert_eq!(v.map()[&ClientId(1)].cached, Some(cached));
        assert_eq!(v.map().len(), 1);
        assert!(v.remove_member(ClientId(1)));
        assert!(!v.remove_member(ClientId(1)));
        assert_eq!(v.stable(), SeqNo::ZERO);
    }

    /// One step of a random script over a [`VState`].
    #[derive(Debug, Clone)]
    enum Step {
        /// `advance` as `T` drives it: acknowledge the client's last
        /// operation and execute the next global sequence number.
        Invoke(u32),
        /// `apply_entries` with arbitrary `(ta, t)` — ties, stale and
        /// out-of-order values a delta replay may carry.
        Apply(Vec<(u32, u64, u64)>),
        Add(u32),
        Remove(u32),
        /// `replace` with the model map as it stands (a restore).
        Rebuild,
        /// `replace` with an arbitrary map.
        Replace(Vec<(u32, u64, u64)>),
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let entries = || proptest::collection::vec((0u32..10, 0u64..12, 0u64..12), 0..6);
        prop_oneof![
            8 => (0u32..10).prop_map(Step::Invoke),
            2 => entries().prop_map(Step::Apply),
            2 => (0u32..10).prop_map(Step::Add),
            2 => (0u32..10).prop_map(Step::Remove),
            1 => Just(Step::Rebuild),
            1 => entries().prop_map(Step::Replace),
        ]
    }

    proptest::proptest! {
        /// A journal replayed in bulk — the entries of every delta
        /// applied, the index rebuilt once — leaves the map, `stable()`
        /// and `latest()` exactly as replaying it delta by delta does,
        /// under every quorum, from any starting map: ties, stale and
        /// out-of-order entries, new and repeated clients included.
        #[test]
        fn bulk_replay_is_per_entry_replay(
            start in proptest::collection::vec((0u32..10, 0u64..12, 0u64..12), 0..8),
            journal in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u64..12, 0u64..12), 0..6),
                0..12,
            ),
            k in 0u32..12,
        ) {
            use proptest::prelude::*;
            for quorum in [Quorum::Majority, Quorum::All, Quorum::AtLeast(k)] {
                let mut per_entry = VState::new(quorum);
                per_entry.replace(vmap(&start), quorum);
                let mut bulk = VState::new(quorum);
                bulk.replace(vmap(&start), quorum);
                for delta in &journal {
                    per_entry.apply_entries(vmap(delta));
                }
                bulk.replay_entries(journal.iter().map(|delta| vmap(delta)));
                prop_assert_eq!(bulk.map(), per_entry.map());
                prop_assert_eq!(bulk.stable(), per_entry.stable());
                prop_assert_eq!(bulk.latest(), per_entry.latest());
                prop_assert_eq!(&bulk.index.top, &per_entry.index.top);
                prop_assert_eq!(&bulk.index.acks, &per_entry.index.acks);
            }
        }

        /// After every step of a random script the index agrees with
        /// the quadratic oracle and `argmax`, and the map equals a
        /// plain `VMap` driven by the same script — from the all-zero
        /// genesis map, through single-client and empty groups, and
        /// with `AtLeast(k)` exceeding the group size after removals.
        #[test]
        fn vstate_matches_quadratic_oracle(
            members in 0u32..8,
            k in 0u32..12,
            script in proptest::collection::vec(arb_step(), 0..60),
        ) {
            use proptest::prelude::*;
            for quorum in [Quorum::Majority, Quorum::All, Quorum::AtLeast(k)] {
                let mut model: VMap = (0..members).map(|c| (ClientId(c), VEntry::default())).collect();
                let mut v = VState::new(quorum);
                v.replace(model.clone(), quorum);
                let mut next = SeqNo::ZERO;
                for step in &script {
                    match step {
                        Step::Invoke(c) => {
                            let client = ClientId(*c);
                            let Some(tc) = model.get(&client).map(|e| e.t) else { continue };
                            let newest = model.values().map(|e| e.t).max().unwrap_or_default();
                            next = next.max(newest).next();
                            let h = ChainValue::GENESIS.extend(b"op", next, client);
                            v.advance(client, tc, next, h);
                            model.insert(client, VEntry { ta: tc, t: next, h, cached: None });
                        }
                        Step::Apply(entries) => {
                            let dv = vmap(entries);
                            v.apply_entries(dv.clone());
                            model.extend(dv);
                        }
                        Step::Add(c) => {
                            let vacant = !model.contains_key(&ClientId(*c));
                            prop_assert_eq!(v.add_member(ClientId(*c)), vacant);
                            model.entry(ClientId(*c)).or_default();
                        }
                        Step::Remove(c) => {
                            let removed = model.remove(&ClientId(*c)).is_some();
                            prop_assert_eq!(v.remove_member(ClientId(*c)), removed);
                        }
                        Step::Rebuild => v.replace(model.clone(), quorum),
                        Step::Replace(entries) => {
                            model = vmap(entries);
                            v.replace(model.clone(), quorum);
                        }
                    }
                    prop_assert_eq!(v.map(), &model);
                    prop_assert_eq!(v.stable(), stable_with_quadratic(&model, quorum));
                    prop_assert_eq!(stable_with(&model, quorum), v.stable());
                    prop_assert_eq!(v.latest(), model.values().max_by_key(|e| e.t));
                    let required = quorum.required(model.len()).min(model.len());
                    prop_assert_eq!(v.index.top.len(), required);
                    prop_assert_eq!(v.index.top.len() + v.index.rest.len(), model.len());
                    prop_assert!(v.index.rest.last() <= v.index.top.first() || v.index.top.is_empty());
                }
            }
        }
    }
}
