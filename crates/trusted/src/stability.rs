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
//! the map that one operation updates in O(1), resting on one identity.
//! Let `r = required(n)` be the quorum threshold and `τ` the `r`-th
//! largest `t` in `V`. Then
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
//! # The recency list
//!
//! Each slot owns two nodes of one list in descending
//! `(value, executed, slot)` order: an *executed* node holding its `t`
//! and an *acknowledged* one holding its `ta` (unlinked at 0, which
//! never raises the answer). `top` is the first executed node
//! (`latest()`), `boundary` the `r`-th (`τ`), and `ack` the first
//! acknowledged node after `boundary`: executed nodes precede
//! acknowledged ones of equal value, so those after it are exactly the
//! `ta ≤ τ`, and `ack` holds `stable()`.
//!
//! **One step.** `T` executing client `i`'s next operation sets `ta_i`
//! to the old `t_i` and `t_i` above every value, so `i`'s executed
//! node turns acknowledged in place and its old acknowledged node
//! re-enters at the head as executed. If `i` stood at or below
//! `boundary`, the `r - 1` executed nodes above it each move down one
//! rank, and `boundary` moves up to the previous executed node (to the
//! head when `r = 1`), past acknowledged nodes only. The new first
//! acknowledged node after `boundary` is then the earliest of the one
//! it passed last, `i`'s retagged node and the old `ack`; if the old
//! `ack` was `i`'s and nothing else qualifies, the next one after it.
//!
//! **Cost.** A step relinks three nodes. `boundary` passes each
//! acknowledged node at most once between rebuilds, as `τ` never falls;
//! the walk past a departed `ack` happens only when the client whose
//! `ta` *is* the answer executes again from above `boundary`. Any other
//! write — a wholesale install, a membership or quorum change, a
//! replayed entry of another shape — rebuilds the list by sorting, in
//! O(n log n). The index is derived state, never sealed or sent.

use std::collections::BTreeMap;

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
/// use lcm_trusted::stability::{majority_stable, VEntry, VMap};
/// use lcm_trusted::types::{ClientId, SeqNo};
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
/// * **Replica quorum** (`lcm_core::replica::ReplicaGroup`): how many
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
/// the one-shot definition [`VState::stable`] is judged against.
pub fn stable_with(v: &VMap, quorum: Quorum) -> SeqNo {
    let mut ts: Vec<SeqNo> = v.values().map(|e| e.t).collect();
    let at = ts.len().checked_sub(quorum.required(ts.len()));
    let Some(&mut tau) = (at.filter(|&at| at < ts.len())).map(|at| ts.select_nth_unstable(at).1)
    else {
        return SeqNo::ZERO;
    };
    let acks = v.values().map(|e| e.ta).filter(|&ta| ta <= tau);
    acks.max().unwrap_or(SeqNo::ZERO)
}

/// No node: the list's sentinel, whose `next` is the first node and
/// whose rank, 0, is below every linked node's.
const NIL: u32 = 0;

/// A list node. `rank` is `value << 1 | executed`, the value its slot's
/// `t` while executed and its `ta` otherwise (sequence numbers, counted
/// up by `T`, stay below `2^63`); 0 while unlinked.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    rank: u64,
    prev: u32,
    next: u32,
}

fn rank(value: SeqNo, executed: bool) -> u64 {
    value.0 << 1 | u64::from(executed)
}

/// Where a client's entry sits in a [`VState`]: valid until the next
/// membership change or wholesale install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// The protocol state map `V` together with its stability index, and
/// the only way to mutate either: every method leaves the index in
/// step with the map, so [`VState::advance`] — `T`'s per-operation
/// update — and every query cost O(1) however large the client group
/// is (see the module docs).
#[derive(Debug)]
pub struct VState {
    /// Member ids, ascending: `ids[s]` owns `entries[s]` and the list
    /// nodes `2s + 2` and `2s + 3`.
    ids: Vec<ClientId>,
    entries: Vec<VEntry>,
    quorum: Quorum,
    nodes: Vec<Node>,
    top: u32,
    boundary: u32,
    ack: u32,
}

impl VState {
    /// An empty `V` whose stability is judged by `quorum`.
    pub fn new(quorum: Quorum) -> Self {
        VState {
            ids: Vec::new(),
            entries: Vec::new(),
            quorum,
            nodes: Vec::new(),
            top: NIL,
            boundary: NIL,
            ack: NIL,
        }
    }

    /// The quorum stability is judged by.
    pub fn quorum(&self) -> Quorum {
        self.quorum
    }

    /// Every entry, in client order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (&ClientId, &VEntry)> {
        self.ids.iter().zip(&self.entries)
    }

    /// `client`'s slot and entry.
    pub fn find(&self, client: ClientId) -> Option<(Slot, &VEntry)> {
        let s = self.slot_of(client)?;
        Some((Slot(s), self.entries.get(s)?))
    }

    /// `client`'s entry.
    pub fn get(&self, client: ClientId) -> Option<&VEntry> {
        self.find(client).map(|(_, entry)| entry)
    }

    /// The stable watermark of the current map; equals
    /// [`stable_with`] of it under [`VState::quorum`].
    pub fn stable(&self) -> SeqNo {
        SeqNo(self.at(self.ack).rank >> 1)
    }

    /// The `argmax(V)` of Alg. 2: the entry holding the most recent
    /// operation (the largest id among ties), from which `(t, h)` are
    /// recovered after a restart.
    pub fn latest(&self) -> Option<&VEntry> {
        self.entries.get((self.top as usize / 2).wrapping_sub(1))
    }

    /// `V[i] ← (tc, t, h)` for the client at `slot`: records that it
    /// executed operation `t`, thereby acknowledging `tc`. The cached
    /// reply is cleared until [`VState::set_cached`] supplies the new
    /// one.
    pub fn advance(&mut self, slot: Slot, tc: SeqNo, t: SeqNo, h: ChainValue) {
        let (ta, cached) = (tc, None);
        if let Some(entry) = self.step(slot.0, VEntry { ta, t, h, cached }) {
            let client = self.ids.get(slot.0).copied();
            self.merge(client.map(|c| (c, entry)));
        }
    }

    /// Stores the reply cached for the client at `slot`'s retries.
    pub fn set_cached(&mut self, slot: Slot, cached: CachedReply) {
        if let Some(entry) = self.entries.get_mut(slot.0) {
            entry.cached = Some(cached);
        }
    }

    /// Adds `client` with a genesis entry; `false` (and no change) when
    /// it is already a member.
    pub fn add_member(&mut self, client: ClientId) -> bool {
        let vacant = self.slot_of(client).is_none();
        if vacant {
            self.merge([(client, VEntry::default())]);
        }
        vacant
    }

    /// Removes `client`; `false` (and no change) when it is not a
    /// member.
    pub fn remove_member(&mut self, client: ClientId) -> bool {
        let Some(s) = self.slot_of(client) else {
            return false;
        };
        self.ids.remove(s);
        self.entries.remove(s);
        self.rebuild();
        true
    }

    /// Overwrites (or adds) the given entries — the replay of one
    /// sealed delta. Taken in `t` order, each entry that is a step of
    /// `T` (see [`VState::advance`]) costs O(1); the first that is not
    /// installs itself and the rest with one rebuild.
    pub fn apply_entries(&mut self, entries: VMap) {
        let mut entries: Vec<(ClientId, VEntry)> = entries.into_iter().collect();
        entries.sort_by_key(|(_, e)| e.t);
        let mut rest = entries.into_iter();
        while let Some((client, entry)) = rest.next() {
            let left = match self.slot_of(client) {
                Some(s) => self.step(s, entry),
                None => Some(entry),
            };
            if let Some(entry) = left {
                return self.merge(std::iter::once((client, entry)).chain(rest));
            }
        }
    }

    /// Overwrites (or adds) the entries of every delta in `deltas`, in
    /// order, and rebuilds the index once at the end — the replay of a
    /// whole journal at boot. Equal to [`VState::apply_entries`] of
    /// each in turn.
    pub fn replay_entries(&mut self, deltas: impl IntoIterator<Item = VMap>) {
        self.merge(deltas.into_iter().flatten());
    }

    /// The entries of `clients` — ascending, without repeats — that
    /// `V` holds, in client order, borrowed: what a delta carries of
    /// `V`. [`encode_vmap`] writes for them the bytes it writes for a
    /// map of their clones.
    pub fn entries_of<'a>(
        &'a self,
        clients: &'a [ClientId],
    ) -> impl Iterator<Item = (&'a ClientId, &'a VEntry)> + 'a {
        debug_assert!(clients.windows(2).all(|w| w.first() < w.last()));
        let slots = clients.iter().filter_map(|&c| self.slot_of(c));
        slots.filter_map(|s| self.ids.get(s).zip(self.entries.get(s)))
    }

    /// Installs `map` wholesale under `quorum` and rebuilds the index
    /// from it.
    pub fn replace(&mut self, map: VMap, quorum: Quorum) {
        (self.ids, self.entries) = map.into_iter().unzip();
        self.quorum = quorum;
        self.rebuild();
    }

    /// Installs `V` overwritten (or extended) by `entries`, in order.
    fn merge(&mut self, entries: impl IntoIterator<Item = (ClientId, VEntry)>) {
        let mut map: VMap = self.ids.drain(..).zip(self.entries.drain(..)).collect();
        map.extend(entries);
        self.replace(map, self.quorum);
    }

    /// `client`'s slot: one probe when the ids are dense, as a
    /// provisioned group's are, a binary search otherwise.
    fn slot_of(&self, client: ClientId) -> Option<usize> {
        let guess = client.0.wrapping_sub(self.ids.first()?.0) as usize;
        if self.ids.get(guess) == Some(&client) {
            return Some(guess);
        }
        self.ids.binary_search(&client).ok()
    }

    fn at(&self, x: u32) -> Node {
        self.nodes.get(x as usize).copied().unwrap_or_default()
    }

    /// Node `x`'s place in the list's order (node ids follow slots).
    fn key(&self, x: u32) -> (u64, u32) {
        (self.at(x).rank, x)
    }

    /// The first acknowledged node from `x` on.
    fn ack_from(&self, mut x: u32) -> u32 {
        while self.at(x).rank & 1 == 1 {
            x = self.at(x).next;
        }
        x
    }

    fn join(&mut self, prev: u32, next: u32) {
        if let Some(p) = self.nodes.get_mut(prev as usize) {
            p.next = next;
        }
        if let Some(n) = self.nodes.get_mut(next as usize) {
            n.prev = prev;
        }
    }

    /// Sets node `x`'s rank and links it at the head.
    fn push(&mut self, x: u32, rank: u64) {
        let head = self.at(NIL).next;
        if let Some(n) = self.nodes.get_mut(x as usize) {
            n.rank = rank;
        }
        self.join(NIL, x);
        self.join(x, head);
    }

    /// Takes node `x` out of the list if it is linked.
    fn unlink(&mut self, x: u32) {
        let Node { rank, prev, next } = self.at(x);
        if rank != 0 {
            self.join(prev, next);
        }
    }

    /// `V[s] ← entry` in O(1) when `entry` is what `T` executing the
    /// slot's next operation writes (module docs, "One step"); hands
    /// `entry` back, with nothing changed, when it is not.
    fn step(&mut self, s: usize, entry: VEntry) -> Option<VEntry> {
        // The slot's executed node `x` and acknowledged node `y`.
        let x = (2 * s + 2) as u32 | u32::from(self.at((2 * s + 2) as u32).rank & 1 == 0);
        let (y, old, retagged) = (x ^ 1, self.at(x), rank(entry.ta, false));
        // The new `t` tops the list; the new `ta` is the old `t` and
        // keeps its place: a smaller value follows it.
        let below = self.at(if old.next == y { y } else { x }).next;
        if retagged != old.rank.wrapping_sub(1)
            || self.at(y).rank > old.rank
            || self.at(self.at(NIL).next).rank >= rank(entry.t, false)
            || retagged != 0 && self.at(below).rank >= retagged
        {
            return Some(entry);
        }
        let above = self.key(x) > self.key(self.boundary);
        let (mut boundary, mut passed) = (self.boundary, None);
        if !above {
            boundary = self.at(boundary).prev;
            while boundary != NIL && self.at(boundary).rank & 1 == 0 {
                (passed, boundary) = (Some(boundary), self.at(boundary).prev);
            }
        }
        let (old_ack, after_y) = (self.ack, self.at(y).next);
        self.unlink(y);
        if retagged == 0 {
            self.unlink(x);
        }
        if let Some(n) = self.nodes.get_mut(x as usize) {
            n.rank = retagged;
        }
        self.push(y, rank(entry.t, true));
        // The earliest of the nodes that may now lead after `boundary`.
        let retagged_leads = self.key(x) > self.key(old_ack) || old_ack == y;
        self.ack = match passed {
            Some(a) => a,
            None if !above && retagged != 0 && retagged_leads => x,
            None if old_ack != y => old_ack,
            None => self.ack_from(after_y),
        };
        self.top = y;
        self.boundary = if boundary == NIL { y } else { boundary };
        if let Some(held) = self.entries.get_mut(s) {
            *held = entry;
        }
        None
    }

    /// Relinks every node from the table by sorting, and sets the
    /// three pointers.
    fn rebuild(&mut self) {
        let ranks = (self.entries.iter()).flat_map(|e| [rank(e.t, true), rank(e.ta, false)]);
        let mut order: Vec<(u64, u32)> = ranks.zip(2..).filter(|&(rank, _)| rank != 0).collect();
        order.sort_unstable();
        self.nodes = vec![Node::default(); 2 * self.ids.len() + 2];
        for &(rank, x) in &order {
            self.push(x, rank);
        }
        order.retain(|&(rank, _)| rank & 1 == 1);
        let r = self.quorum.required(self.ids.len());
        self.top = order.last().map_or(NIL, |&(_, x)| x);
        let boundary = order.len().checked_sub(r).and_then(|at| order.get(at));
        self.boundary = boundary.map_or(NIL, |&(_, x)| x);
        self.ack = self.ack_from(self.at(self.boundary).next);
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

    /// `V` as a plain map, for comparison with a model.
    fn map_of(v: &VState) -> VMap {
        v.entries().map(|(c, e)| (*c, e.clone())).collect()
    }

    /// The list invariant of the module docs, checked by walking it:
    /// every executed node and every acknowledged node with `ta > 0`
    /// linked once, in descending key order, `top`, `boundary` and
    /// `ack` where their definitions put them.
    fn assert_index(v: &VState) {
        let mut order = Vec::new();
        let (mut x, mut prev) = (v.at(NIL).next, NIL);
        while x != NIL {
            assert_eq!(v.at(x).prev, prev);
            order.push(x);
            (prev, x) = (x, v.at(x).next);
        }
        assert_eq!(v.at(NIL).prev, prev);
        assert!(order.windows(2).all(|w| v.key(w[0]) > v.key(w[1])));
        let linked = v.nodes.iter().filter(|n| n.rank != 0);
        assert_eq!(order.len(), linked.count());
        for (s, e) in v.entries.iter().enumerate() {
            let (a, b) = (v.nodes[2 * s + 2].rank, v.nodes[2 * s + 3].rank);
            let want = [rank(e.t, true), rank(e.ta, false)];
            assert!([a, b] == want || [b, a] == want, "slot {s}");
        }
        let executed = |x: &u32| v.at(*x).rank & 1 == 1;
        let executed: Vec<u32> = order.iter().copied().filter(executed).collect();
        assert_eq!(v.top, executed.first().copied().unwrap_or(NIL));
        let r = v.quorum.required(v.entries().len());
        let boundary = executed.get(r.wrapping_sub(1)).copied().unwrap_or(NIL);
        assert_eq!(v.boundary, boundary);
        let after = order.iter().skip_while(|&&x| x != boundary).skip(1);
        let ack = after
            .copied()
            .find(|&x| v.at(x).rank & 1 == 0)
            .unwrap_or(NIL);
        assert_eq!(v.ack, if boundary == NIL { NIL } else { ack });
    }

    fn advance(v: &mut VState, client: u32, tc: SeqNo, t: SeqNo, h: ChainValue) {
        let (slot, _) = v.find(ClientId(client)).unwrap();
        v.advance(slot, tc, t, h);
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
        assert_eq!(v.latest(), v.get(ClientId(2)));
    }

    #[test]
    fn vstate_advance_clears_then_caches_the_reply() {
        let mut v = VState::new(Quorum::Majority);
        assert!(v.add_member(ClientId(1)));
        assert!(!v.add_member(ClientId(1)));
        let h = ChainValue::GENESIS.extend(b"op", SeqNo(1), ClientId(1));
        advance(&mut v, 1, SeqNo::ZERO, SeqNo(1), h);
        assert_eq!(v.get(ClientId(1)).unwrap().cached, None);
        let cached = CachedReply {
            t: SeqNo(1),
            q: SeqNo::ZERO,
            h,
            hc_echo: ChainValue::GENESIS,
            redirect: false,
            result: b"r".to_vec(),
        };
        let (slot, _) = v.find(ClientId(1)).unwrap();
        v.set_cached(slot, cached.clone());
        assert_eq!(v.get(ClientId(1)).unwrap().cached, Some(cached));
        assert_eq!(v.entries().len(), 1);
        assert!(v.remove_member(ClientId(1)));
        assert!(!v.remove_member(ClientId(1)));
        assert!(v.entries().len() == 0 && v.find(ClientId(1)).is_none());
        assert_eq!(v.stable(), SeqNo::ZERO);
    }

    #[test]
    fn sparse_ids_are_found_by_search() {
        let mut v = VState::new(Quorum::Majority);
        v.replace(
            vmap(&[(3, 0, 1), (10, 0, 2), (11, 1, 3), (40, 0, 4)]),
            Quorum::All,
        );
        for id in [3, 10, 11, 40] {
            assert_eq!(v.get(ClientId(id)).unwrap(), &map_of(&v)[&ClientId(id)]);
        }
        for id in [0, 1, 4, 12, 41, u32::MAX] {
            assert!(v.get(ClientId(id)).is_none(), "{id}");
        }
    }

    /// Run by name in CI's `test` job (`--release -- --ignored`):
    /// wall-clock ratios do not belong in the default suite. `T`'s
    /// per-operation update — find the slot, advance it, query the
    /// watermark — over the map a round-robin closed loop leaves, as
    /// the `majority_stable/advance` bench runs it: flat in the group
    /// size means 65 536 clients cost at most twice what 16 do.
    #[test]
    #[ignore = "timing; run with --release -- --ignored"]
    fn advance_and_stable_at_65536_clients_cost_at_most_twice_what_16_cost() {
        const OPS: u64 = 1 << 18;
        let best_of_5 = |n: u64| {
            let entries = (0..n).map(|i| (i as u32, i + 1, n + i + 1));
            let mut v = VState::new(Quorum::Majority);
            v.replace(vmap(&entries.collect::<Vec<_>>()), Quorum::Majority);
            let mut t = 2 * n;
            let mut round = || {
                let start = std::time::Instant::now();
                for _ in 0..OPS {
                    let client = ClientId((t % n) as u32);
                    let (slot, _) = v.find(std::hint::black_box(client)).unwrap();
                    v.advance(slot, SeqNo(t - n + 1), SeqNo(t + 1), ChainValue::GENESIS);
                    std::hint::black_box(v.stable());
                    t += 1;
                }
                start.elapsed() / OPS as u32
            };
            (0..5).map(|_| round()).min().unwrap()
        };
        let (small, large) = (best_of_5(16), best_of_5(65_536));
        println!("advance + stable per operation: n = 16 {small:?}, n = 65 536 {large:?}");
        assert!(large <= small * 2, "{large:?} vs {small:?}");
    }

    /// One step of a random script over a [`VState`].
    #[derive(Debug, Clone)]
    enum Step {
        /// `advance` as `T` drives it: acknowledge the client's last
        /// operation and execute the next global sequence number.
        Invoke(u32),
        /// `apply_entries` of what a leader's delta carries: each
        /// listed client's next operation, as `Invoke` would run it.
        Follow(Vec<u32>),
        /// `apply_entries` with arbitrary `(ta, t)` — ties, stale and
        /// out-of-order values a delta replay may carry.
        Apply(Vec<(u32, u64, u64)>),
        Add(u32),
        Remove(u32),
        /// `replace` with the model map as it stands (a restore),
        /// under another quorum.
        Requorum(Quorum),
        /// `replace` with an arbitrary map.
        Replace(Vec<(u32, u64, u64)>),
    }

    fn arb_quorum() -> impl proptest::strategy::Strategy<Value = Quorum> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Quorum::Majority),
            Just(Quorum::All),
            (0u32..12).prop_map(Quorum::AtLeast),
        ]
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let entries = || proptest::collection::vec((0u32..10, 0u64..12, 0u64..12), 0..6);
        prop_oneof![
            10 => (0u32..10).prop_map(Step::Invoke),
            2 => proptest::collection::vec(0u32..10, 0..5).prop_map(Step::Follow),
            1 => entries().prop_map(Step::Apply),
            2 => (0u32..10).prop_map(Step::Add),
            2 => (0u32..10).prop_map(Step::Remove),
            1 => arb_quorum().prop_map(Step::Requorum),
            1 => entries().prop_map(Step::Replace),
        ]
    }

    /// The model's next operation by `client`, as `T` executes it: its
    /// last `t` acknowledged, a sequence number above every value in
    /// the map.
    fn next_op(model: &VMap, client: ClientId) -> Option<VEntry> {
        let tc = model.get(&client)?.t;
        let newest = model
            .values()
            .flat_map(|e| [e.t, e.ta])
            .max()
            .unwrap_or_default();
        let t = newest.next();
        let h = ChainValue::GENESIS.extend(b"op", t, client);
        Some(VEntry {
            ta: tc,
            t,
            h,
            cached: None,
        })
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
                prop_assert_eq!(map_of(&bulk), map_of(&per_entry));
                prop_assert_eq!(bulk.stable(), per_entry.stable());
                prop_assert_eq!(bulk.latest(), per_entry.latest());
                assert_index(&bulk);
                assert_index(&per_entry);
            }
        }

        /// After every step of a random script, run from each quorum —
        /// `T`'s own steps, a follower's delta records, arbitrary
        /// replays, membership and quorum changes, wholesale installs —
        /// `stable()` is the
        /// one-shot definition and the quadratic oracle, `latest()` is
        /// the naive `argmax`, the map equals a plain `VMap` driven by
        /// the same script, and the list holds its invariant: from the
        /// all-zero genesis map, through single-client and empty
        /// groups, and with `AtLeast(k)` exceeding the group size after
        /// removals.
        #[test]
        fn vstate_matches_quadratic_oracle(
            members in 0u32..8,
            k in 0u32..12,
            script in proptest::collection::vec(arb_step(), 0..60),
        ) {
            use proptest::prelude::*;
            for start in [Quorum::Majority, Quorum::All, Quorum::AtLeast(k)] {
                let mut quorum = start;
                let mut model: VMap = (0..members).map(|c| (ClientId(c), VEntry::default())).collect();
                let mut v = VState::new(quorum);
                v.replace(model.clone(), quorum);
                for step in &script {
                    match step {
                        Step::Invoke(c) => {
                            let Some(e) = next_op(&model, ClientId(*c)) else { continue };
                            advance(&mut v, *c, e.ta, e.t, e.h);
                            model.insert(ClientId(*c), e);
                        }
                        Step::Follow(clients) => {
                            let mut delta = VMap::new();
                            for &c in clients {
                                if let Some(e) = next_op(&model, ClientId(c)) {
                                    model.insert(ClientId(c), e.clone());
                                    delta.insert(ClientId(c), e);
                                }
                            }
                            v.apply_entries(delta);
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
                        Step::Requorum(q) => {
                            quorum = *q;
                            v.replace(model.clone(), quorum);
                        }
                        Step::Replace(entries) => {
                            model = vmap(entries);
                            v.replace(model.clone(), quorum);
                        }
                    }
                    prop_assert_eq!(&map_of(&v), &model);
                    prop_assert_eq!(v.stable(), stable_with(&model, quorum));
                    prop_assert_eq!(v.stable(), stable_with_quadratic(&model, quorum));
                    prop_assert_eq!(v.latest(), model.values().max_by_key(|e| e.t));
                    assert_index(&v);
                }
            }
        }
    }
}
