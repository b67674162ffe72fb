//! The host's decisions, apart from its threads, locks and clocks.
//!
//! The paper's host is an untrusted message pump (§2.3). [`Core`] holds
//! its decisions as plain data — the reply book, the routing history,
//! the per-slice heat and the slice move in flight — and reads no clock
//! (callers pass `now`), takes no lock and starts no thread, so one
//! thread can drive it through any schedule (the model test below).
//! [`crate::shard::ShardedServer`] holds one behind one mutex and
//! carries its decisions out on the lanes.
//!
//! ## Routing: the epoch-versioned slice table
//!
//! The host cannot decrypt requests, so the *client* attaches a stable
//! route hash in a plaintext envelope ([`crate::wire::RouteHint`]),
//! derived from [`crate::functionality::Functionality::shard_key`] of
//! the plaintext operation (or from the client identity when the
//! functionality is not key-partitionable). The envelope — including
//! the routing **epoch** the client stamped — is bound into the AEAD
//! associated data (invoke *and* reply), so a host that rewrites
//! routing metadata, replays a wire under a different epoch, or swaps
//! two of a client's concurrent replies fails authentication.
//!
//! The key space is cut into [`SLICE_COUNT`] **slices** (`route %
//! SLICE_COUNT`), and an epoch-stamped [`SliceTable`] assigns each
//! slice to a shard: epoch 0 is the uniform table, and every [live
//! slice migration](#live-slice-migration) derives the next epoch.
//! Every party holds the table: each *enclave* carries it in
//! its sealed checkpoint and recomputes ownership on every INVOKE,
//! each *client* learns newer tables through authenticated redirect
//! replies, and the *host* keeps the dense history so wires stamped
//! with an old epoch still route to the shard that owned them when
//! they were sent (that shard answers stale wires with a redirect; a
//! host delivering by the newest table instead would scatter a slow
//! client's in-flight wires across shards that never saw its chain).
//!
//! ## Live slice migration
//!
//! [`crate::shard::ShardedServer::rebalance_once`] (policy:
//! [`plan_rebalance`] over the heat drained since the last pass) and
//! [`crate::server::BatchServer::migrate_slice`] (mechanism) move one
//! slice between *running* enclaves:
//!
//! 1. the origin enclave exports the slice — a sealed **ticket**
//!    (channel-key-encrypted: the new table, which names the target,
//!    and the slice's records as a functionality delta) plus a
//!    **bulletin** (the new table, sealed for every sibling) — and
//!    installs the next-epoch table itself;
//! 2. every bystander shard adopts the bulletin;
//! 3. the target imports the ticket (state + table in one step);
//! 4. the host appends the new table to its routing history.
//!
//! [`Core`] refuses a second move while one is pending and appends the
//! next table only once the target has imported and every bystander
//! has adopted. Every lane that installs the new table — the origin
//! from its export on, each bystander from its adoption on — stays
//! locked by the driver until then, so the new epoch cannot leak to
//! clients (via redirect stamps) before every shard has installed it:
//! a client chasing one into a shard without it would trip that shard's
//! future-epoch rollback alarm. A member crash mid-handshake leaves the
//! move pending ([`crate::shard::ShardedServer::pending_slice_move`]),
//! and [`crate::shard::ShardedServer::resume_slice_migration`] retries
//! what has not landed after reboot — each enclave step is idempotent,
//! and an origin crash-stopped *after* its export recovers the
//! post-export checkpoint, so the moved slice can never resurrect under
//! the old epoch.
//!
//! ## The reply book
//!
//! Shards complete batches concurrently; the **reply book** tracks
//! each accepted wire from its ticket to its *settlement* — reply
//! released, or ticket written off with a crash-stopped lane. It is
//! one map of per-client **lines**: a client's unsettled tickets in
//! submission order (shard, credit, admit time, dedup sequence, and
//! the reply once booked, held while an earlier ticket is open) and
//! its last released reply per shard for retry dedup. A line lives
//! while it holds either — memory follows the clients with something
//! pending or cached — and its oldest ticket sits inline, so a
//! closed-loop client's line comes and goes without allocating.
//! Issuing is one lookup and a push; booking a batch visits only the
//! lines that batch answered, so the cost per operation does not
//! depend on how many clients wait. Guarantees:
//!
//! 1. **Per-client order**: a client's replies are released in its
//!    submission order, whichever shards answered first.
//! 2. **Ticket order**: what one booking releases leaves in global
//!    ticket order, keeping runs deterministic.
//! 3. **Exactly once**: a ticket settles once, released or written
//!    off; a repeat, or a reply to a ticket no longer held, is a no-op.
//! 4. **Quiescence**: `issued == settled` exactly when no line holds
//!    a ticket — what a pump with drivers attached waits on.
//! 5. **A crash forgets** every pending ticket (settled wholesale),
//!    cached reply and uncollected reply: a post-restart retry reaches
//!    the enclave's §4.6.1 path, never a dead instance's reply. The
//!    routing history and a pending move outlive it.
//! 6. **The enclave names the recipient**: a ticket is filed under its
//!    envelope's client, its reply delivered under the id the enclave
//!    reported.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::admission::{AdmitOutcome, SettledTicket};
use crate::codec::{Reader, WireCodec, Writer};
use crate::routing::{slice_of, SliceTable, SLICE_COUNT};
use crate::server::Replies;
use crate::types::ClientId;
use crate::{LcmError, Result};

/// The host's decisions of one sharded deployment (module docs).
pub(crate) struct Core {
    pub(crate) book: ReplyBook,
    /// `routing[e]` is the table of epoch `e`, never empty. A host
    /// *rebuilt* over migrated storage starts back at genesis and must
    /// be re-primed by replaying the moves.
    routing: Vec<SliceTable>,
    /// Write arrivals per slice since the last [`Core::plan_rebalance`].
    heat: [u64; SLICE_COUNT as usize],
    /// The slice move between its export and its table append.
    moving: Option<Move>,
}

/// A slice move between its export and the host's table append, with
/// the steps of the handshake that have landed: a resume retries only
/// what is missing (a step the enclave already took is a no-op there).
struct Move {
    slice: u32,
    from: u32,
    to: u32,
    ticket: Vec<u8>,
    bulletin: Vec<u8>,
    /// The table the host appends once every enclave holds it.
    next: SliceTable,
    imported: bool,
    /// Per lane, whether it adopted the bulletin; the origin and the
    /// target, which adopt nothing, start out `true`.
    adopted: Vec<bool>,
}

/// One step of a pending move's handshake, on one lane: a bystander
/// adopts the bulletin, or the target imports the ticket.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Handshake {
    Adopt(Vec<u8>),
    Import(Vec<u8>),
}

impl Core {
    /// The genesis state of a `lanes`-lane deployment.
    pub(crate) fn new(lanes: u32) -> Self {
        Core {
            book: ReplyBook::default(),
            routing: vec![SliceTable::uniform(lanes)],
            heat: [0; SLICE_COUNT as usize],
            moving: None,
        }
    }

    /// The lane a wire stamped with `epoch` routes to: by the table of
    /// that epoch. Epochs beyond the history (a wire from a client that
    /// somehow learned a newer table than the host) clamp to the newest
    /// table — the enclave decides what such a wire means, not the host.
    pub(crate) fn route(&self, route: u32, epoch: u64) -> usize {
        let newest = self.routing.len() - 1;
        self.routing[(epoch as usize).min(newest)].shard_of(route) as usize
    }

    /// [`Core::route`] for a write, which also counts as its slice's
    /// heat.
    pub(crate) fn route_write(&mut self, route: u32, epoch: u64) -> usize {
        self.heat[slice_of(route) as usize] += 1;
        self.route(route, epoch)
    }

    /// The newest table (what new epochs are derived from).
    pub(crate) fn current_table(&self) -> &SliceTable {
        self.routing.last().expect("history is never empty")
    }

    /// The deployment crashed: the book forgets everything it held
    /// (guarantee 5); the routing history and a pending move stay.
    pub(crate) fn crash_reset(&mut self) {
        self.book.crash_reset();
    }

    /// Drains the heat and plans one move against the newest table
    /// ([`plan_rebalance`]), so each pass sees one interval's arrivals.
    pub(crate) fn plan_rebalance(&mut self) -> Option<(u32, u32)> {
        let heat = std::mem::replace(&mut self.heat, [0; SLICE_COUNT as usize]);
        plan_rebalance(&heat, self.current_table())
    }

    /// The origin of a move of `slice` to lane `to`, or why no such
    /// move may start.
    pub(crate) fn check_move(&self, slice: u32, to: u32) -> Result<u32> {
        let n = self.current_table().count();
        let refusal = if let Some(m) = &self.moving {
            format!(
                "slice {} -> shard {} migration already in flight; \
                 resume_slice_migration must finish before a new move",
                m.slice, m.to
            )
        } else if slice >= SLICE_COUNT {
            format!("migrate_slice({slice}) out of range ({SLICE_COUNT} slices)")
        } else if to >= n {
            format!("migrate_slice target {to} on a {n}-shard deployment")
        } else if self.current_table().owner(slice) == to {
            format!("shard {to} already owns slice {slice}")
        } else {
            return Ok(self.current_table().owner(slice));
        };
        Err(LcmError::Tee(refusal))
    }

    /// Records the move [`Core::check_move`] allowed, once its origin
    /// has cut the `ticket` and the `bulletin`.
    pub(crate) fn begin_move(&mut self, slice: u32, to: u32, ticket: Vec<u8>, bulletin: Vec<u8>) {
        let table = self.current_table();
        let from = table.owner(slice);
        let mut adopted = vec![false; table.count() as usize];
        (adopted[from as usize], adopted[to as usize]) = (true, true);
        let next = table.moved(slice, to).expect("check_move passed");
        self.moving = Some(Move {
            slice,
            from,
            to,
            ticket,
            bulletin,
            next,
            imported: false,
            adopted,
        });
    }

    /// `(slice, from, to)` of the pending move, if any.
    pub(crate) fn pending_move(&self) -> Option<(u32, u32, u32)> {
        self.moving.as_ref().map(|m| (m.slice, m.from, m.to))
    }

    /// The next step the pending move is missing, if one is pending:
    /// the lowest bystander that has not adopted, then the import.
    pub(crate) fn next_step(&self) -> Option<(u32, Handshake)> {
        let m = self.moving.as_ref()?;
        Some(match m.adopted.iter().position(|&a| !a) {
            Some(lane) => (lane as u32, Handshake::Adopt(m.bulletin.clone())),
            None => (m.to, Handshake::Import(m.ticket.clone())),
        })
    }

    /// Lane `lane` carried out its step of the pending move: the target
    /// imported, or a bystander adopted. The last step appends the next
    /// table and ends the move.
    pub(crate) fn landed(&mut self, lane: u32) {
        let Some(m) = self.moving.as_mut() else {
            return;
        };
        if lane == m.to {
            m.imported = true;
        } else if let Some(adopted) = m.adopted.get_mut(lane as usize) {
            *adopted = true;
        }
        if m.imported && m.adopted.iter().all(|&a| a) {
            let m = self.moving.take().expect("matched above");
            self.routing.push(m.next);
        }
    }

    /// The deployment migration ticket: the lanes' sealed tickets
    /// `parts`, count- and length-prefixed, then this host's routing
    /// history, count-prefixed and in the clear — host state, without
    /// which the target host would deliver by the genesis table what
    /// clients stamp with the epochs the origin reached.
    pub(crate) fn join_lane_tickets(&self, parts: &[Vec<u8>]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(parts.len() as u32);
        for part in parts {
            w.put_bytes(part);
        }
        w.put_u32(self.routing.len() as u32);
        for table in &self.routing {
            table.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Routes by `routing`, a history [`split_lane_tickets`] accepted,
    /// from here on: the lanes arrived at the origin's table epoch.
    pub(crate) fn install_history(&mut self, routing: Vec<SliceTable>) {
        self.routing = routing;
    }
}

/// Plans one heat-driven slice move: when the hottest shard carries
/// more than twice the coldest shard's write heat, proposes migrating
/// the hot shard's hottest slice to the coldest shard — provided the
/// move actually narrows the gap (shipping a slice hotter than the
/// imbalance would just relocate the hotspot). Pure: feed it per-slice
/// write counts and the current table.
pub fn plan_rebalance(heat: &[u64], table: &SliceTable) -> Option<(u32, u32)> {
    let n = table.count() as usize;
    if n < 2 {
        return None;
    }
    let mut shard_heat = vec![0u64; n];
    for (slice, &h) in heat.iter().take(SLICE_COUNT as usize).enumerate() {
        shard_heat[table.owner(slice as u32) as usize] += h;
    }
    let total: u64 = shard_heat.iter().sum();
    if total == 0 {
        return None;
    }
    let hot = (0..n).max_by_key(|&i| shard_heat[i])?;
    let cold = (0..n).min_by_key(|&i| shard_heat[i])?;
    if shard_heat[hot] <= 2 * shard_heat[cold] {
        return None;
    }
    let slice = table
        .slices_of(hot as u32)
        .into_iter()
        .max_by_key(|&s| heat.get(s as usize).copied().unwrap_or(0))?;
    let h = heat.get(slice as usize).copied().unwrap_or(0);
    if h == 0 || shard_heat[cold] + h >= shard_heat[hot] {
        return None;
    }
    Some((slice, cold as u32))
}

/// Inverse of [`Core::join_lane_tickets`]; `None` when the blob is not a
/// well-formed deployment ticket, or its history is not the dense
/// sequence of epochs `0..` over as many shards as it has tickets.
pub(crate) fn split_lane_tickets(blob: &[u8]) -> Option<(Vec<Vec<u8>>, Vec<SliceTable>)> {
    let mut r = Reader::new(blob);
    let n = r.get_u32().ok()? as usize;
    let mut parts = Vec::new();
    for _ in 0..n {
        parts.push(r.get_bytes().ok()?.to_vec());
    }
    let mut routing = Vec::new();
    for epoch in 0..u64::from(r.get_u32().ok()?) {
        let table = SliceTable::decode(&mut r).ok()?;
        if table.epoch() != epoch || table.count() as usize != n {
            return None;
        }
        routing.push(table);
    }
    r.finish().ok()?;
    (!routing.is_empty()).then_some((parts, routing))
}

/// One ticket between issue and settlement.
struct Pending {
    ticket: u64,
    /// The shard the wire was enqueued to.
    shard: u32,
    /// The envelope's authenticated client sequence, tracked for
    /// retry dedup — `Some` only when the wire came through
    /// `ShardCore::try_submit` with admission enabled (the plain
    /// `submit` path stays dedup-free so retries reach the enclave,
    /// whose §4.6.1 handling remains the backstop).
    dedup_seq: Option<u64>,
    /// Whether the ticket holds one of its tenant's admission credits.
    credited: bool,
    /// Start of the end-to-end latency sample recorded at release.
    admitted: Instant,
    /// The lane's answer once booked — `(client the enclave reported,
    /// wire)` — held back while an earlier ticket of the line is open.
    reply: Option<(ClientId, Vec<u8>)>,
}

/// Everything the book knows about one client: its unsettled tickets
/// in submission order and, per shard, its last released reply. The
/// oldest ticket sits inline, so the line of a closed-loop client (one
/// operation in flight) is created and dropped without allocating.
#[derive(Default)]
struct Line {
    /// The oldest unsettled ticket; `None` only when `tail` is empty.
    head: Option<Pending>,
    tail: VecDeque<Pending>,
    /// `(shard, sequence, reply)` of the last reply *released* per
    /// shard to a wire admitted with retry dedup: a retry whose reply
    /// was lost on the way back is replayed from here instead of
    /// re-executed. One buffer per client × shard, overwritten in
    /// place.
    cache: Vec<(u32, u64, Vec<u8>)>,
}

impl Line {
    fn tickets(&mut self) -> impl Iterator<Item = &mut Pending> {
        self.head.iter_mut().chain(self.tail.iter_mut())
    }

    fn pop(&mut self) -> Option<Pending> {
        let p = self.head.take()?;
        self.head = self.tail.pop_front();
        Some(p)
    }

    /// Removes `ticket` from wherever in the line it is.
    fn strike(&mut self, ticket: u64) -> Option<Pending> {
        if self.head.as_ref()?.ticket == ticket {
            return self.pop();
        }
        let at = self.tail.iter().position(|p| p.ticket == ticket)?;
        self.tail.remove(at)
    }

    /// Settles `p`, which has just left the line — released with
    /// `reply`, or written off (`None`: nothing to cache, no latency
    /// sample) — and returns its record for the admission layer.
    fn settle(
        &mut self,
        client: ClientId,
        p: &Pending,
        reply: Option<(&[u8], Instant)>,
    ) -> SettledTicket {
        if let (Some(seq), Some((wire, _))) = (p.dedup_seq, reply) {
            match self.cache.iter_mut().find(|c| c.0 == p.shard) {
                Some(cached) => {
                    cached.1 = seq;
                    cached.2.clear();
                    cached.2.extend_from_slice(wire);
                }
                None => self.cache.push((p.shard, seq, wire.to_vec())),
            }
        }
        SettledTicket {
            client,
            shard: p.shard,
            latency: reply.map(|(_, now)| now.saturating_duration_since(p.admitted)),
            credited: p.credited,
        }
    }
}

/// The reply demux book (see the module docs): every accepted wire's
/// ticket from issue to settlement, plus the released replies awaiting
/// collection.
#[derive(Default)]
pub(crate) struct ReplyBook {
    next_ticket: u64,
    /// Tickets handed out so far.
    issued: u64,
    /// Tickets released or written off.
    settled: u64,
    /// One line per client with something pending or cached.
    lines: HashMap<ClientId, Line>,
    /// Replies released in order but not yet collected by a caller —
    /// the reply plane's out-buffer (survives a failing step, so
    /// healthy shards' replies outlive a sibling's crash-stop), in
    /// release (global ticket) order: per-client FIFO.
    pub(crate) ready: Replies,
    /// First failure recorded by a lane drive since the last
    /// collection (later failures in the same window are dropped, as
    /// the single-driver server always did).
    pub(crate) deferred_error: Option<LcmError>,
}

impl ReplyBook {
    /// Hands out the next ticket, at the back of `client`'s line.
    pub(crate) fn issue(
        &mut self,
        client: ClientId,
        shard: u32,
        dedup_seq: Option<u64>,
        credited: bool,
        admitted: Instant,
    ) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.issued += 1;
        let line = self.lines.entry(client).or_default();
        let p = Pending {
            ticket,
            shard,
            dedup_seq,
            credited,
            admitted,
            reply: None,
        };
        match line.head {
            None => line.head = Some(p),
            Some(_) => line.tail.push_back(p),
        }
        ticket
    }

    /// Answers a retry the book has already seen: a released reply is
    /// replayed from the cache into `ready`, an operation still in
    /// flight is coalesced. `None` means fresh work.
    pub(crate) fn answer_retry(
        &mut self,
        client: ClientId,
        shard: u32,
        seq: u64,
    ) -> Option<AdmitOutcome> {
        let line = self.lines.get_mut(&client)?;
        if let Some(cached) = line.cache.iter().find(|c| (c.0, c.1) == (shard, seq)) {
            self.ready.push((client, cached.2.clone()));
            return Some(AdmitOutcome::ReplayedReply);
        }
        let mut on_shard = line.tickets().filter(|p| p.shard == shard);
        let in_flight = on_shard.any(|p| p.dedup_seq == Some(seq));
        in_flight.then_some(AdmitOutcome::DuplicateInFlight)
    }

    /// Settles what a lane reports of its tickets (each under its
    /// envelope client): the reply it paired to one, or `None` for a
    /// wire that died with the lane — written off, so that a
    /// crash-stopped shard cannot stall other shards' replies to the
    /// same clients. Releases whatever either unblocks; a ticket the
    /// book no longer holds changes nothing. Returns the settlement
    /// records for the admission layer (write-offs first, then the
    /// released in ticket order); the caller forwards them after
    /// dropping the host lock.
    pub(crate) fn settle(
        &mut self,
        tickets: impl Iterator<Item = ((u64, ClientId), Option<(ClientId, Vec<u8>)>)>,
        now: Instant,
    ) -> Vec<SettledTicket> {
        let mut settled = Vec::new();
        let mut touched = Vec::with_capacity(tickets.size_hint().0);
        for ((ticket, client), reply) in tickets {
            let Some(line) = self.lines.get_mut(&client) else {
                continue;
            };
            if reply.is_none() {
                let Some(p) = line.strike(ticket) else {
                    continue;
                };
                settled.push(line.settle(client, &p, None));
            } else if let Some(p) = line.tickets().find(|p| p.ticket == ticket) {
                p.reply = reply;
            }
            touched.push(client);
        }
        // Release only once every report is booked: a written-off
        // ticket that held a reply must not ride out on an earlier
        // one's release. This loop is the one place a reply leaves a
        // line, and a line the book.
        let mut released = Vec::with_capacity(touched.len());
        for client in touched {
            let Entry::Occupied(mut entry) = self.lines.entry(client) else {
                continue;
            };
            let line = entry.get_mut();
            while let Some(reply) = line.head.as_mut().and_then(|p| p.reply.take()) {
                let p = line.pop().expect("the head just yielded its reply");
                let record = line.settle(client, &p, Some((&reply.1, now)));
                released.push((p.ticket, record, reply));
            }
            // Nothing pending and nothing cached: nothing to remember.
            if line.head.is_none() && line.cache.is_empty() {
                entry.remove();
            }
        }
        released.sort_unstable_by_key(|&(ticket, ..)| ticket);
        self.settled += (settled.len() + released.len()) as u64;
        self.ready.reserve(released.len());
        settled.reserve(released.len());
        for (_, record, reply) in released {
            settled.push(record);
            self.ready.push(reply);
        }
        settled
    }

    /// The deployment crashed: every outstanding ticket settles
    /// wholesale (they died with the process) and every pending
    /// ticket, cached reply and uncollected reply is forgotten.
    fn crash_reset(&mut self) {
        self.lines.clear();
        self.ready.clear();
        self.deferred_error = None;
        self.settled = self.issued;
    }

    /// Tickets issued but not yet settled (reply released or written
    /// off).
    pub(crate) fn unsettled(&self) -> u64 {
        self.issued - self.settled
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    // -----------------------------------------------------------------
    // The core on its own: the host's decisions against a model.
    // -----------------------------------------------------------------

    /// One event of the core's model test. Picks are taken modulo
    /// whatever they select from, so every generated event is playable.
    #[derive(Debug, Clone)]
    enum Event {
        /// A write of `client` arrives stamped with `epoch`: it is
        /// routed, counted as heat and ticketed — through admission as
        /// the client's next sequence number with `dedup`, through the
        /// plain path without.
        Issue {
            client: u32,
            route: u32,
            epoch: u64,
            dedup: bool,
        },
        /// `client` resends its last admitted sequence number.
        Retry { client: u32, route: u32, epoch: u64 },
        /// The lanes answer the unanswered tickets `picks` selects.
        Settle { picks: Vec<usize> },
        /// The tickets `picks` selects among all ever issued are written
        /// off (a crashed lane or a shed ingress).
        WriteOff { picks: Vec<usize> },
        /// The deployment crashes.
        Crash,
        /// A read stamped with `epoch` is routed.
        Route { route: u32, epoch: u64 },
        /// A move of `slice` to lane `to` is asked for; an allowed one
        /// is cut.
        Begin { slice: u32, to: u32 },
        /// Lane `lane` reports a step of the pending move, in any order.
        Land { lane: u32 },
        /// The driver carries out `steps` steps of the pending move in
        /// the order the core names them, then an ecall fails.
        Fail { steps: usize },
        /// The driver carries the pending move out to its end.
        Resume,
        /// The rebalance monitor drains the heat, and the move it plans
        /// is asked for.
        Rebalance,
    }

    /// Routes over slices 0..8 of every size class: the slices moves
    /// pick, so a wire stamped with an old epoch often lands on a slice
    /// that has moved since.
    fn arb_route() -> impl proptest::strategy::Strategy<Value = u32> {
        use proptest::prelude::*;
        (0u32..8, 0u32..1 << 16).prop_map(|(slice, k)| slice + SLICE_COUNT * k)
    }

    fn arb_event() -> impl proptest::strategy::Strategy<Value = Event> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        prop_oneof![
            8 => (0u32..6, arb_route(), 0u64..8, any::<bool>()).prop_map(
                |(client, route, epoch, dedup)| Event::Issue { client, route, epoch, dedup }
            ),
            2 => (0u32..6, arb_route(), 0u64..8)
                .prop_map(|(client, route, epoch)| Event::Retry { client, route, epoch }),
            5 => vec(0usize..64, 1..6).prop_map(|picks| Event::Settle { picks }),
            2 => vec(0usize..64, 1..4).prop_map(|picks| Event::WriteOff { picks }),
            1 => Just(Event::Crash),
            3 => (arb_route(), 0u64..8).prop_map(|(route, epoch)| Event::Route { route, epoch }),
            3 => (prop_oneof![6 => 0u32..8, 1 => 0..SLICE_COUNT + 2], 0u32..6)
                .prop_map(|(slice, to)| Event::Begin { slice, to }),
            3 => (0u32..6).prop_map(|lane| Event::Land { lane }),
            2 => (0usize..4).prop_map(|steps| Event::Fail { steps }),
            2 => Just(Event::Resume),
            2 => Just(Event::Rebalance),
        ]
    }

    /// What the model knows of a pending move.
    struct ModelMove {
        slice: u32,
        from: u32,
        to: u32,
        next: SliceTable,
        imported: bool,
        adopted: Vec<u32>,
    }

    /// The model of everything [`Core`] decides.
    struct Model {
        lanes: u32,
        tables: Vec<SliceTable>,
        heat: Vec<u64>,
        moving: Option<ModelMove>,
        /// Unsettled tickets and their clients.
        open: std::collections::BTreeMap<u64, ClientId>,
        /// Tickets whose reply has been released.
        released: std::collections::BTreeSet<u64>,
        /// Every ticket issued, and the tickets no lane has answered.
        all: Vec<(u64, ClientId)>,
        unanswered: Vec<(u64, ClientId)>,
        /// The last sequence number each client was admitted under.
        seq: Vec<u64>,
    }

    impl Model {
        /// Lane `lane` carried out its step of the move in flight: the
        /// table is appended once the target imported and every
        /// bystander adopted, and not before.
        fn land(&mut self, lane: u32) {
            let Some(m) = self.moving.as_mut() else {
                return;
            };
            if lane == m.to {
                m.imported = true;
            } else if lane != m.from && lane < self.lanes && !m.adopted.contains(&lane) {
                m.adopted.push(lane);
            }
            if m.imported && m.adopted.len() as u32 == self.lanes - 2 {
                let m = self.moving.take().expect("matched above");
                self.tables.push(m.next);
            }
        }

        /// The step the driver owes next: the lowest bystander that has
        /// not adopted, then the import.
        fn next_step(&self) -> Option<u32> {
            let m = self.moving.as_ref()?;
            let bystander =
                (0..self.lanes).find(|&i| i != m.from && i != m.to && !m.adopted.contains(&i));
            Some(bystander.unwrap_or(m.to))
        }

        /// Settles the tickets whose replies `ready` carries: each must
        /// be open, and go to the client it was issued to.
        fn settle_released(&mut self, ready: &Replies) -> std::result::Result<(), String> {
            for (client, wire) in ready {
                let ticket = u64::from_be_bytes(wire[..].try_into().expect("reply_to's bytes"));
                if self.open.remove(&ticket) != Some(*client) {
                    return Err(format!(
                        "ticket {ticket} released to {client} while not open"
                    ));
                }
                self.released.insert(ticket);
            }
            Ok(())
        }
    }

    /// Plays `events` on a core of `lanes` lanes, checking it against
    /// the model after every event: each ticket settles exactly once, a
    /// wire stamped with epoch `e` routes by the table of epoch
    /// `min(e, newest)`, a second move is refused while one is pending,
    /// the newest epoch rises by one exactly when the target has
    /// imported and every bystander adopted, a crash clears the book
    /// but keeps the history and the pending move, and a rebalance
    /// plans over exactly the heat since the last one.
    fn play_core(lanes: u32, events: &[Event]) -> std::result::Result<(), String> {
        macro_rules! check {
            ($cond:expr, $($why:tt)*) => {
                if !$cond {
                    return Err(format!($($why)*));
                }
            };
        }
        let mut core = Core::new(lanes);
        let mut model = Model {
            lanes,
            tables: vec![SliceTable::uniform(lanes)],
            heat: vec![0; SLICE_COUNT as usize],
            moving: None,
            open: Default::default(),
            released: Default::default(),
            all: Vec::new(),
            unanswered: Vec::new(),
            seq: vec![0; 6],
        };
        // The core reads no clock; the test reads one, once, and every
        // event's `now` is a fixed offset from it.
        let base = Instant::now();
        let newest = |model: &Model| model.tables.len() - 1;
        for (at, event) in events.iter().enumerate() {
            let now = base + Duration::from_micros(at as u64);
            match event {
                Event::Issue {
                    client,
                    route,
                    epoch,
                    dedup,
                } => {
                    let lane = core.route_write(*route, *epoch);
                    let table = &model.tables[(*epoch as usize).min(newest(&model))];
                    check!(
                        lane == table.shard_of(*route) as usize,
                        "event {at}: a write of epoch {epoch} routed to {lane}"
                    );
                    model.heat[slice_of(*route) as usize] += 1;
                    let seq = dedup.then(|| {
                        model.seq[*client as usize] += 1;
                        model.seq[*client as usize]
                    });
                    let id = ClientId(*client);
                    let ticket = core.book.issue(id, lane as u32, seq, false, now);
                    check!(
                        model.open.insert(ticket, id).is_none(),
                        "event {at}: ticket {ticket} issued twice"
                    );
                    model.all.push((ticket, id));
                    model.unanswered.push((ticket, id));
                }
                Event::Retry {
                    client,
                    route,
                    epoch,
                } => {
                    let lane = core.route_write(*route, *epoch);
                    model.heat[slice_of(*route) as usize] += 1;
                    let (id, seq) = (ClientId(*client), model.seq[*client as usize].max(1));
                    let answer = core.book.answer_retry(id, lane as u32, seq);
                    let ready = std::mem::take(&mut core.book.ready);
                    match answer {
                        Some(AdmitOutcome::ReplayedReply) => {
                            check!(ready.len() == 1, "event {at}: a replay released {ready:?}");
                            let ticket = u64::from_be_bytes(
                                ready[0].1[..].try_into().expect("reply_to's bytes"),
                            );
                            check!(
                                model.released.contains(&ticket),
                                "event {at}: replayed ticket {ticket} was never released"
                            );
                        }
                        Some(_) => check!(ready.is_empty(), "event {at}: a coalesced retry"),
                        None => {
                            check!(ready.is_empty(), "event {at}: fresh work released");
                            let ticket = core.book.issue(id, lane as u32, Some(seq), true, now);
                            model.open.insert(ticket, id);
                            model.all.push((ticket, id));
                            model.unanswered.push((ticket, id));
                        }
                    }
                }
                Event::Settle { picks } => {
                    let mut answered = Vec::new();
                    for pick in picks {
                        if !model.unanswered.is_empty() {
                            let len = model.unanswered.len();
                            answered.push(model.unanswered.remove(pick % len));
                        }
                    }
                    let replies = answered
                        .iter()
                        .map(|&(t, c)| ((t, c), Some((c, reply_to(t)))))
                        .collect::<Vec<_>>();
                    let records = core.book.settle(replies.into_iter(), now);
                    let ready = std::mem::take(&mut core.book.ready);
                    check!(
                        records.iter().all(|r| r.latency.is_some()),
                        "event {at}: an answer wrote a ticket off"
                    );
                    check!(
                        records.len() == ready.len(),
                        "event {at}: {} records, {} replies",
                        records.len(),
                        ready.len()
                    );
                    model.settle_released(&ready)?;
                }
                Event::WriteOff { picks } => {
                    let mut purged = Vec::new();
                    for pick in picks {
                        if !model.all.is_empty() {
                            purged.push(model.all[pick % model.all.len()]);
                        }
                    }
                    model.unanswered.retain(|t| !purged.contains(t));
                    let mut due = 0;
                    for (ticket, _) in &purged {
                        due += usize::from(model.open.remove(ticket).is_some());
                    }
                    let written = purged.iter().map(|&t| (t, None));
                    let records = core.book.settle(written, now);
                    let ready = std::mem::take(&mut core.book.ready);
                    let offs = records.iter().filter(|r| r.latency.is_none()).count();
                    check!(offs == due, "event {at}: {offs} write-offs, {due} due");
                    check!(
                        records.len() - offs == ready.len(),
                        "event {at}: records and releases differ"
                    );
                    model.settle_released(&ready)?;
                }
                Event::Crash => {
                    core.crash_reset();
                    model.open.clear();
                    check!(
                        std::mem::take(&mut core.book.ready).is_empty(),
                        "event {at}: a reply survives a crash"
                    );
                }
                Event::Route { route, epoch } => {
                    let table = &model.tables[(*epoch as usize).min(newest(&model))];
                    check!(
                        core.route(*route, *epoch) == table.shard_of(*route) as usize,
                        "event {at}: a read of epoch {epoch} misrouted"
                    );
                }
                Event::Begin { slice, to } => begin(&mut core, &mut model, *slice, *to, at)?,
                Event::Land { lane } => {
                    core.landed(*lane);
                    model.land(*lane);
                }
                Event::Fail { steps } => drive(&mut core, &mut model, Some(*steps), at)?,
                Event::Resume => drive(&mut core, &mut model, None, at)?,
                Event::Rebalance => {
                    let table = model.tables.last().expect("history is never empty");
                    let plan = plan_rebalance(&model.heat, table);
                    model.heat.fill(0);
                    check!(
                        core.plan_rebalance() == plan,
                        "event {at}: the plan was not made over the drained heat"
                    );
                    if let Some((slice, to)) = plan {
                        begin(&mut core, &mut model, slice, to, at)?;
                    }
                }
            }
            check!(
                core.book.unsettled() == model.open.len() as u64,
                "event {at}: {} unsettled, {} open",
                core.book.unsettled(),
                model.open.len()
            );
            check!(
                core.current_table() == model.tables.last().expect("never empty"),
                "event {at}: newest table {} where the model has {}",
                core.current_table().epoch(),
                newest(&model)
            );
            let pending = model.moving.as_ref().map(|m| (m.slice, m.from, m.to));
            check!(
                core.pending_move() == pending,
                "event {at}: pending move {:?} where the model has {pending:?}",
                core.pending_move()
            );
        }
        // Every ticket settles, and no ticket settles twice.
        let written = model.all.iter().map(|&t| (t, None));
        let records = core.book.settle(written, base);
        let ready = std::mem::take(&mut core.book.ready);
        check!(
            records.len() == model.open.len() && ready.is_empty(),
            "the last write-off settled {} of {}",
            records.len(),
            model.open.len()
        );
        check!(
            core.book.unsettled() == 0,
            "tickets outlive their write-off"
        );
        Ok(())
    }

    /// Asks `core` for a move and, when the model allows it, cuts it.
    fn begin(
        core: &mut Core,
        model: &mut Model,
        slice: u32,
        to: u32,
        at: usize,
    ) -> std::result::Result<(), String> {
        let table = model.tables.last().expect("history is never empty");
        let allowed = model.moving.is_none()
            && slice < SLICE_COUNT
            && to < model.lanes
            && table.owner(slice) != to;
        let from = core.check_move(slice, to);
        if from.is_ok() != allowed {
            return Err(format!(
                "event {at}: move of {slice} to {to} {from:?}, the model allows: {allowed}"
            ));
        }
        if let Ok(from) = from {
            if from != table.owner(slice) {
                return Err(format!("event {at}: move from {from}"));
            }
            let next = table.moved(slice, to).expect("allowed");
            core.begin_move(slice, to, vec![0, slice as u8], vec![1, slice as u8]);
            model.moving = Some(ModelMove {
                slice,
                from,
                to,
                next,
                imported: false,
                adopted: Vec::new(),
            });
        }
        Ok(())
    }

    /// The driver's loop over the pending move, cut after `steps` steps
    /// when given: each step is the one the model expects, carrying the
    /// move's own bulletin or ticket.
    fn drive(
        core: &mut Core,
        model: &mut Model,
        steps: Option<usize>,
        at: usize,
    ) -> std::result::Result<(), String> {
        for _ in 0..steps.unwrap_or(usize::MAX) {
            let step = core.next_step();
            let Some(lane) = model.next_step() else {
                return match step {
                    None => Ok(()),
                    Some(step) => Err(format!("event {at}: step {step:?} of no move")),
                };
            };
            let slice = model.moving.as_ref().expect("a step").slice as u8;
            let expected = if lane == model.moving.as_ref().expect("a step").to {
                Handshake::Import(vec![0, slice])
            } else {
                Handshake::Adopt(vec![1, slice])
            };
            if step.as_ref() != Some(&(lane, expected)) {
                return Err(format!(
                    "event {at}: step {step:?}, the model owes lane {lane}"
                ));
            }
            core.landed(lane);
            model.land(lane);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The core alone, on one thread, against [`Model`]: random
        /// schedules of issue, retry, settle, write-off, crash, route,
        /// heat, the begin, adoption, import, failure and resume of
        /// moves, and rebalance ([`play_core`] lists what it checks).
        #[test]
        fn the_core_decides_as_the_model_does(
            lanes in 2u32..=5,
            events in proptest::collection::vec(arb_event(), 1..120),
        ) {
            if let Err(why) = play_core(lanes, &events) {
                return Err(proptest::prelude::TestCaseError::fail(why));
            }
        }
    }

    // -----------------------------------------------------------------
    // The reply book on its own: model, scaling and memory tests.
    // -----------------------------------------------------------------

    /// What the tests below ask of a reply book, so that one schedule
    /// drives the production book and the [`oracle`] alike.
    trait Book {
        fn fresh() -> Self;
        fn ticket(
            &mut self,
            client: ClientId,
            shard: u32,
            dedup_seq: Option<u64>,
            credited: bool,
        ) -> u64;
        fn retry(&mut self, client: ClientId, shard: u32, seq: u64) -> Option<AdmitOutcome>;
        fn answer(&mut self, tickets: Vec<(u64, ClientId)>, replies: Replies)
            -> Vec<SettledTicket>;
        fn write_off(&mut self, purged: Vec<(u64, ClientId)>) -> Vec<SettledTicket>;
        fn crash(&mut self);
        fn collect(&mut self) -> Replies;
        /// `(issued, settled)`.
        fn counters(&self) -> (u64, u64);
        /// What the dedup path knows of `client` on `shard`: the
        /// sequence in flight and the cached `(sequence, reply)`.
        fn dedup_state(
            &self,
            client: ClientId,
            shard: u32,
        ) -> (Option<u64>, Option<(u64, Vec<u8>)>);
    }

    impl Book for ReplyBook {
        fn fresh() -> Self {
            ReplyBook::default()
        }
        fn ticket(
            &mut self,
            client: ClientId,
            shard: u32,
            seq: Option<u64>,
            credited: bool,
        ) -> u64 {
            ReplyBook::issue(self, client, shard, seq, credited, Instant::now())
        }
        fn retry(&mut self, client: ClientId, shard: u32, seq: u64) -> Option<AdmitOutcome> {
            ReplyBook::answer_retry(self, client, shard, seq)
        }
        fn answer(
            &mut self,
            tickets: Vec<(u64, ClientId)>,
            replies: Replies,
        ) -> Vec<SettledTicket> {
            let answered = tickets.into_iter().zip(replies.into_iter().map(Some));
            ReplyBook::settle(self, answered, Instant::now())
        }
        fn write_off(&mut self, purged: Vec<(u64, ClientId)>) -> Vec<SettledTicket> {
            let purged = purged.into_iter().map(|ticket| (ticket, None));
            ReplyBook::settle(self, purged, Instant::now())
        }
        fn crash(&mut self) {
            ReplyBook::crash_reset(self);
        }
        fn collect(&mut self) -> Replies {
            std::mem::take(&mut self.ready)
        }
        fn counters(&self) -> (u64, u64) {
            (self.issued, self.settled)
        }
        fn dedup_state(
            &self,
            client: ClientId,
            shard: u32,
        ) -> (Option<u64>, Option<(u64, Vec<u8>)>) {
            let Some(line) = self.lines.get(&client) else {
                return (None, None);
            };
            let on_shard = line
                .head
                .iter()
                .chain(&line.tail)
                .filter(|p| p.shard == shard);
            let cached = line.cache.iter().find(|c| c.0 == shard);
            (
                on_shard.filter_map(|p| p.dedup_seq).next_back(),
                cached.map(|c| (c.1, c.2.clone())),
            )
        }
    }

    impl Book for oracle::ReplyBook {
        fn fresh() -> Self {
            oracle::ReplyBook::new()
        }
        fn ticket(
            &mut self,
            client: ClientId,
            shard: u32,
            seq: Option<u64>,
            credited: bool,
        ) -> u64 {
            oracle::issue(self, client, shard as usize, seq, credited)
        }
        fn retry(&mut self, client: ClientId, shard: u32, seq: u64) -> Option<AdmitOutcome> {
            oracle::answer_retry(self, client, shard, seq)
        }
        fn answer(
            &mut self,
            tickets: Vec<(u64, ClientId)>,
            replies: Replies,
        ) -> Vec<SettledTicket> {
            oracle::complete(self, tickets, replies)
        }
        fn write_off(&mut self, purged: Vec<(u64, ClientId)>) -> Vec<SettledTicket> {
            oracle::ReplyBook::purge(self, purged)
        }
        fn crash(&mut self) {
            oracle::crash_reset(self);
        }
        fn collect(&mut self) -> Replies {
            self.ready.drain(..).collect()
        }
        fn counters(&self) -> (u64, u64) {
            (self.issued, self.settled)
        }
        fn dedup_state(
            &self,
            client: ClientId,
            shard: u32,
        ) -> (Option<u64>, Option<(u64, Vec<u8>)>) {
            let key = (client, shard);
            (
                self.inflight_seq.get(&key).copied(),
                self.last_reply.get(&key).cloned(),
            )
        }
    }

    /// One move of the model test's schedule. Indices are taken modulo
    /// whatever they select from, so every generated step is playable.
    #[derive(Debug, Clone)]
    enum Step {
        /// `client` offers a wire for `shard`: through the plain path
        /// (`dedup` 0), or through admission as its next sequence
        /// number there (1) or a retry of its last (2).
        Issue {
            client: u32,
            shard: u32,
            dedup: u8,
            credited: bool,
        },
        /// Lane `lane` answers the tickets `picks` select from those it
        /// still owes, in that order (not FIFO, not ticket order).
        Complete { lane: u32, picks: Vec<usize> },
        /// Write-offs: each pick is `(class, index)` — 0 an unanswered
        /// ticket (it leaves its lane), 1 a ticket whose reply the book
        /// is holding back, 2 any ticket ever issued.
        Purge { picks: Vec<(u8, usize)> },
        /// The deployment crashes; with `lose` the lanes forget their
        /// tickets too, without it they answer dead tickets later.
        Crash { lose: bool },
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        prop_oneof![
            12 => (0u32..8, 0u32..4, 0u8..3, any::<bool>()).prop_map(
                |(client, shard, dedup, credited)| Step::Issue { client, shard, dedup, credited }
            ),
            8 => (0u32..4, proptest::collection::vec(0usize..64, 1..6))
                .prop_map(|(lane, picks)| Step::Complete { lane, picks }),
            3 => proptest::collection::vec((0u8..3, 0usize..64), 1..4)
                .prop_map(|picks| Step::Purge { picks }),
            1 => any::<bool>().prop_map(|lose| Step::Crash { lose }),
        ]
    }

    /// A settlement record without its clock reading.
    fn records(settled: &[SettledTicket]) -> Vec<(ClientId, u32, bool, bool)> {
        let row = |s: &SettledTicket| (s.client, s.shard, s.credited, s.latency.is_some());
        settled.iter().map(row).collect()
    }

    /// The reply a lane gives `ticket`: bytes that name it.
    fn reply_to(ticket: u64) -> Vec<u8> {
        ticket.to_be_bytes().to_vec()
    }

    /// Plays `steps` on both books at once, comparing them after every
    /// step and checking the six guarantees of the module docs on the
    /// production book's own output.
    fn play(shards: u32, clients: u32, steps: &[Step]) -> std::result::Result<(), String> {
        use std::collections::{BTreeMap, BTreeSet};
        let mut lines = ReplyBook::fresh();
        let mut maps = oracle::ReplyBook::fresh();
        // The harness's own record of the schedule.
        let mut lanes: Vec<Vec<(u64, ClientId)>> = vec![Vec::new(); shards as usize];
        let mut all: Vec<(u64, ClientId)> = Vec::new();
        let mut answered: BTreeSet<u64> = BTreeSet::new();
        let mut unsettled: BTreeMap<ClientId, BTreeSet<u64>> = BTreeMap::new();
        // Per (client, shard): the last sequence number admitted with
        // dedup, and the ticket it got.
        let mut last_dedup: BTreeMap<(ClientId, u32), (u64, u64)> = BTreeMap::new();
        macro_rules! check {
            ($cond:expr, $($why:tt)*) => {
                if !$cond {
                    return Err(format!($($why)*));
                }
            };
        }
        for (at, step) in steps.iter().enumerate() {
            // What this step makes each book release and report.
            let (mut out_l, mut out_m) = (Vec::new(), Vec::new());
            match step {
                Step::Issue {
                    client,
                    shard,
                    dedup,
                    credited,
                } => {
                    let key = (ClientId(1 + client % clients), shard % shards);
                    let (client, shard) = key;
                    // One pending operation per client per shard is
                    // the protocol's rule, and the one under which the
                    // oracle's single in-flight entry per (client,
                    // shard) is the whole truth: a client moves to its
                    // next sequence number once the last one settled,
                    // and can only retry it until then.
                    let last = last_dedup.get(&key).copied();
                    let mine = unsettled.entry(client).or_default();
                    let open = last.is_some_and(|(_, t)| mine.contains(&t));
                    let seq = match dedup {
                        0 => None,
                        1 if !open => Some(last.map_or(1, |(seq, _)| seq + 1)),
                        _ => Some(last.map_or(1, |(seq, _)| seq)),
                    };
                    let answer = seq.and_then(|seq| lines.retry(client, shard, seq));
                    check!(
                        answer == seq.and_then(|seq| maps.retry(client, shard, seq)),
                        "step {at}: retry answers diverge"
                    );
                    check!(
                        lines.collect() == maps.collect(),
                        "step {at}: replayed replies diverge"
                    );
                    if answer.is_none() {
                        let t = lines.ticket(client, shard, seq, *credited);
                        check!(
                            t == maps.ticket(client, shard, seq, *credited),
                            "step {at}: tickets diverge"
                        );
                        if let Some(seq) = seq {
                            last_dedup.insert(key, (seq, t));
                        }
                        lanes[shard as usize].push((t, client));
                        all.push((t, client));
                        unsettled.entry(client).or_default().insert(t);
                    }
                }
                Step::Complete { lane, picks } => {
                    let lane = &mut lanes[(lane % shards) as usize];
                    let mut tickets = Vec::new();
                    for pick in picks {
                        if !lane.is_empty() {
                            tickets.push(lane.remove(pick % lane.len()));
                        }
                    }
                    // An honest enclave reports the envelope's client.
                    let replies: Replies = tickets.iter().map(|&(t, c)| (c, reply_to(t))).collect();
                    answered.extend(tickets.iter().map(|&(t, _)| t));
                    out_l = lines.answer(tickets.clone(), replies.clone());
                    out_m = maps.answer(tickets, replies);
                }
                Step::Purge { picks } => {
                    let mut purged = Vec::new();
                    for &(class, pick) in picks {
                        let held: Vec<(u64, ClientId)> = all
                            .iter()
                            .filter(|(t, c)| {
                                answered.contains(t)
                                    && unsettled.get(c).is_some_and(|u| u.contains(t))
                            })
                            .copied()
                            .collect();
                        let lane = &mut lanes[pick % shards as usize];
                        match class {
                            0 if !lane.is_empty() => purged.push(lane.remove(pick % lane.len())),
                            1 if !held.is_empty() => purged.push(held[pick % held.len()]),
                            2 if !all.is_empty() => purged.push(all[pick % all.len()]),
                            _ => {}
                        }
                    }
                    // Guarantee 3 (a ticket settles exactly once), the
                    // write-off half: each purged ticket yields a
                    // record exactly when it was still unsettled.
                    let mut expect = 0;
                    for (t, c) in &purged {
                        expect += usize::from(unsettled.entry(*c).or_default().remove(t));
                    }
                    out_l = lines.write_off(purged.clone());
                    out_m = maps.write_off(purged);
                    let written_off = out_l.iter().filter(|s| s.latency.is_none()).count();
                    check!(
                        written_off == expect,
                        "step {at}: {written_off} write-offs, {expect} due"
                    );
                }
                Step::Crash { lose } => {
                    // A failure nobody collected dies with the host too.
                    lines.deferred_error = Some(LcmError::Tee("uncollected".into()));
                    maps.deferred_error = Some(LcmError::Tee("uncollected".into()));
                    lines.crash();
                    maps.crash();
                    let forgotten = lines.deferred_error.is_none() && maps.deferred_error.is_none();
                    check!(forgotten, "step {at}: a deferred error survives a crash");
                    if *lose {
                        lanes.iter_mut().for_each(Vec::clear);
                    }
                    unsettled.clear();
                    // Guarantee 5: a crash clears pending tickets and
                    // cached replies (and what nobody had collected).
                    check!(lines.lines.is_empty(), "step {at}: lines survive a crash");
                    check!(lines.ready.is_empty(), "step {at}: replies survive a crash");
                }
            }
            // Both books report the same settlements, in the same order…
            check!(
                records(&out_l) == records(&out_m),
                "step {at}: settlement records diverge: {:?} vs {:?}",
                records(&out_l),
                records(&out_m)
            );
            // …and release the same `(client, wire)` sequence.
            let released = lines.collect();
            check!(
                released == maps.collect(),
                "step {at}: released replies diverge"
            );
            let mut last = None;
            for (client, wire) in &released {
                let ticket = u64::from_be_bytes(wire[..].try_into().expect("reply_to's bytes"));
                // Guarantee 2: one release is in global ticket order.
                check!(
                    last < Some(ticket),
                    "step {at}: release out of ticket order"
                );
                last = Some(ticket);
                // Guarantee 1 (per client, replies leave in submission
                // order) and the release half of guarantee 3: the
                // ticket was its client's oldest unsettled one.
                let mine = unsettled.entry(*client).or_default();
                check!(
                    mine.first() == Some(&ticket),
                    "step {at}: ticket {ticket} released ahead of {:?}",
                    mine.first()
                );
                mine.remove(&ticket);
                // Guarantee 6: delivery is under the id the enclave
                // reported (the honest half; the dishonest half is
                // `the_enclave_reported_client_labels_the_delivery`).
                check!(
                    all.contains(&(ticket, *client)),
                    "step {at}: ticket {ticket} delivered to {client}"
                );
            }
            let with_reply = out_l.iter().filter(|s| s.latency.is_some()).count();
            check!(
                with_reply == released.len(),
                "step {at}: records and replies differ"
            );
            // Guarantee 4: `issued == settled` is quiescence — the gap
            // is exactly the tickets still in some line.
            let (issued, settled) = lines.counters();
            check!(
                (issued, settled) == maps.counters(),
                "step {at}: counters diverge"
            );
            let open: usize = unsettled.values().map(BTreeSet::len).sum();
            check!(
                issued - settled == open as u64,
                "step {at}: {issued} - {settled} != {open}"
            );
            // The dedup path would answer every client alike.
            for c in 1..=clients {
                for s in 0..shards {
                    check!(
                        lines.dedup_state(ClientId(c), s) == maps.dedup_state(ClientId(c), s),
                        "step {at}: dedup state of client {c} on shard {s} diverges"
                    );
                    if matches!(step, Step::Crash { .. }) {
                        check!(
                            lines.dedup_state(ClientId(c), s) == (None, None),
                            "step {at}: dedup state survives a crash"
                        );
                    }
                }
            }
            // The book's memory follows the clients it has something
            // for, nobody else.
            for (client, line) in &lines.lines {
                let idle = line.head.is_none() && line.cache.is_empty();
                check!(!idle, "step {at}: idle line of {client} kept");
                check!(
                    line.head.is_some() || line.tail.is_empty(),
                    "step {at}: headless line"
                );
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The production book against the oracle over random schedules
        /// of issue (plain, fresh and retried admission sequences; up
        /// to four shards and eight clients, each free to pipeline
        /// across and within shards), complete (any lane, any subset,
        /// any order), purge (unanswered tickets, tickets holding
        /// replies, stale tickets) and crash. [`play`] names, beside
        /// each assertion, which of the module docs' six guarantees it
        /// pins; the comparisons with the oracle pin the rest of the
        /// book's behaviour (record order, dedup answers, counters).
        #[test]
        fn the_book_of_lines_is_the_book_of_maps(
            shards in 1u32..=4,
            clients in 1u32..=8,
            steps in proptest::collection::vec(arb_step(), 1..200),
        ) {
            if let Err(why) = play(shards, clients, &steps) {
                return Err(proptest::prelude::TestCaseError::fail(why));
            }
        }
    }

    #[test]
    fn the_enclave_reported_client_labels_the_delivery() {
        // The ticket sits in the envelope client's line; the reply goes
        // out under the id the enclave reported for it.
        let mut book = ReplyBook::fresh();
        let t = book.ticket(ClientId(7), 0, None, false);
        let settled = book.answer(vec![(t, ClientId(7))], vec![(ClientId(9), b"r".to_vec())]);
        assert_eq!(book.collect(), vec![(ClientId(9), b"r".to_vec())]);
        assert_eq!(records(&settled), vec![(ClientId(7), 0, false, true)]);
        assert_eq!(book.counters(), (1, 1));
    }

    /// Mean cost of booking a 16-reply batch (and re-issuing its 16
    /// tickets) while `clients` clients each have one ticket pending.
    fn batch_cost<B: Book>(clients: u32, batches: u32) -> Duration {
        let mut book = B::fresh();
        let mut owed: VecDeque<(u64, ClientId)> = (0..clients)
            .map(|c| (book.ticket(ClientId(c), 0, None, false), ClientId(c)))
            .collect();
        let start = Instant::now();
        for _ in 0..batches {
            let tickets: Vec<(u64, ClientId)> = owed.drain(..16).collect();
            let replies = tickets.iter().map(|&(t, c)| (c, reply_to(t))).collect();
            assert_eq!(book.answer(tickets, replies).len(), 16);
            for (client, _) in book.collect() {
                owed.push_back((book.ticket(client, 0, None, false), client));
            }
        }
        start.elapsed() / batches
    }

    /// How much dearer a batch gets when 65 536 clients wait instead
    /// of 64 (best of three, so a descheduled run does not decide).
    fn waiting_clients_penalty<B: Book>(batches: u32) -> f64 {
        let ratio = || {
            let (few, many) = (
                batch_cost::<B>(64, batches),
                batch_cost::<B>(65_536, batches),
            );
            many.as_secs_f64() / few.as_secs_f64()
        };
        (0..3).map(|_| ratio()).fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn completing_a_batch_does_not_visit_idle_clients() {
        let penalty = waiting_clients_penalty::<ReplyBook>(1000);
        assert!(
            penalty <= 10.0,
            "a batch among 65 536 waiting clients costs {penalty:.1}x one among 64"
        );
    }

    /// The bound above is one the book of maps cannot meet (it scans
    /// every waiting client per batch, ≈ 600×) — the scaling test does
    /// separate the two designs. Ignored: 60 batches of the oracle at
    /// 65 536 clients take seconds unoptimized.
    #[test]
    #[ignore]
    fn the_oracle_visits_idle_clients() {
        let penalty = waiting_clients_penalty::<oracle::ReplyBook>(20);
        assert!(
            penalty > 10.0,
            "the oracle passed the scaling bound: {penalty:.1}x"
        );
    }

    #[test]
    fn one_shot_clients_leave_no_line_behind() {
        let mut book = ReplyBook::fresh();
        for c in 0..100_000u32 {
            let t = book.ticket(ClientId(c), c % 4, None, false);
            book.answer(vec![(t, ClientId(c))], vec![(ClientId(c), reply_to(t))]);
        }
        assert_eq!(book.collect().len(), 100_000);
        assert!(book.lines.is_empty(), "{} lines kept", book.lines.len());
    }

    /// The reply book as it stood before it became per-client lines —
    /// the parent commit's `TicketMeta` and `ReplyBook`, verbatim (five
    /// `BTreeMap`s, one scan of every waiting client per release) — kept
    /// as the reference the model test compares the production book
    /// against. The four blocks that lived inline in `ShardCore` and
    /// `ShardedServer` at the parent follow it as functions.
    mod oracle {
        use std::collections::{BTreeMap, VecDeque};

        use crate::admission::{AdmitOutcome, SettledTicket};
        use crate::server::Replies;
        use crate::types::ClientId;
        use crate::LcmError;

        /// Host-side bookkeeping attached to one issued ticket: who it
        /// belongs to, where it went, when it was admitted, and what the
        /// admission layer needs back at settlement.
        pub struct TicketMeta {
            /// The shard the wire was enqueued to.
            shard: u32,
            /// The envelope's authenticated client sequence, tracked for
            /// retry dedup — `Some` only when the wire came through
            /// `ShardCore::try_submit` with admission enabled (the plain `submit` path stays dedup-free so retries
            /// reach the enclave, whose §4.6.1 handling remains the backstop).
            dedup_seq: Option<u64>,
            /// Whether the ticket holds one of its tenant's admission credits.
            credited: bool,
            /// When the wire was admitted — the start of the end-to-end
            /// latency sample recorded at release.
            start: std::time::Instant,
        }

        /// The reply demux book: every accepted wire's ticket from issue to
        /// settlement, plus the released replies awaiting collection.
        ///
        /// A ticket *settles* when its reply is released into `ready` (in
        /// global ticket order, per-client FIFO) or when it is written off
        /// (crash-stop, shard crash). `issued == settled` is the quiescence
        /// predicate the concurrent front-end waits on.
        pub struct ReplyBook {
            pub next_ticket: u64,
            /// Tickets handed out so far.
            pub issued: u64,
            /// Tickets released or written off.
            pub settled: u64,
            /// Per-client tickets not yet released, in submission order.
            pub order: BTreeMap<ClientId, VecDeque<u64>>,
            /// Replies completed out of order, waiting for earlier tickets.
            pub held: BTreeMap<ClientId, BTreeMap<u64, Vec<u8>>>,
            /// Replies released in order but not yet collected by a caller —
            /// the reply plane's out-buffer (survives a failing step, so
            /// healthy shards' replies outlive a sibling's crash-stop).
            pub ready: VecDeque<(ClientId, Vec<u8>)>,
            /// Per-ticket host metadata (latency clock, dedup key, credit).
            pub meta: BTreeMap<u64, TicketMeta>,
            /// Dedup index: the sequence number currently in flight per
            /// (client, shard) — one entry at most, since the protocol allows
            /// one pending operation per client per shard.
            pub inflight_seq: BTreeMap<(ClientId, u32), u64>,
            /// The last *released* reply per (client, shard), kept so a retry
            /// whose reply was lost on the way back is replayed from here
            /// instead of re-executed (bounded: one wire per client × shard).
            pub last_reply: BTreeMap<(ClientId, u32), (u64, Vec<u8>)>,
            /// First failure recorded by a lane drive since the last
            /// collection (later failures in the same window are dropped, as
            /// the single-driver server always did).
            pub deferred_error: Option<LcmError>,
        }

        impl ReplyBook {
            pub fn new() -> Self {
                ReplyBook {
                    next_ticket: 0,
                    issued: 0,
                    settled: 0,
                    order: BTreeMap::new(),
                    held: BTreeMap::new(),
                    ready: VecDeque::new(),
                    meta: BTreeMap::new(),
                    inflight_seq: BTreeMap::new(),
                    last_reply: BTreeMap::new(),
                    deferred_error: None,
                }
            }

            /// Clears one settled/struck ticket's metadata, producing the
            /// settlement record the admission layer consumes. `wire` is the
            /// released reply (`None` for write-offs, which cache nothing and
            /// record no latency sample).
            fn settle_meta(
                &mut self,
                ticket: u64,
                client: ClientId,
                wire: Option<&[u8]>,
            ) -> Option<SettledTicket> {
                let meta = self.meta.remove(&ticket)?;
                if let Some(seq) = meta.dedup_seq {
                    let key = (client, meta.shard);
                    if self.inflight_seq.get(&key) == Some(&seq) {
                        self.inflight_seq.remove(&key);
                    }
                    if let Some(wire) = wire {
                        self.last_reply.insert(key, (seq, wire.to_vec()));
                    }
                }
                Some(SettledTicket {
                    client,
                    shard: meta.shard,
                    latency: wire.map(|_| meta.start.elapsed()),
                    credited: meta.credited,
                })
            }

            /// Releases every held reply whose client has no earlier
            /// unsettled ticket, in global ticket order, into `ready`.
            /// Returns the settlement records for the admission layer (credit
            /// returns + latency samples); the caller forwards them after
            /// dropping the book lock.
            pub fn release_ready(&mut self) -> Vec<SettledTicket> {
                let mut released: Vec<(u64, ClientId, Vec<u8>)> = Vec::new();
                for (client, tickets) in self.order.iter_mut() {
                    while let Some(&front) = tickets.front() {
                        let Some(wire) = self
                            .held
                            .get_mut(client)
                            .and_then(|waiting| waiting.remove(&front))
                        else {
                            break;
                        };
                        released.push((front, *client, wire));
                        tickets.pop_front();
                    }
                }
                self.order.retain(|_, tickets| !tickets.is_empty());
                self.held.retain(|_, waiting| !waiting.is_empty());
                released.sort_by_key(|&(ticket, _, _)| ticket);
                self.settled += released.len() as u64;
                let mut settled = Vec::with_capacity(released.len());
                for (ticket, client, wire) in released {
                    settled.extend(self.settle_meta(ticket, client, Some(&wire)));
                    self.ready.push_back((client, wire));
                }
                settled
            }

            /// Strikes written-off tickets so a crash-stopped shard cannot
            /// stall the delivery of other shards' replies to the same
            /// clients, then releases anything that just became unblocked.
            /// Returns the settlement records of both the write-offs and the
            /// newly released replies.
            pub fn purge(&mut self, purged: Vec<(u64, ClientId)>) -> Vec<SettledTicket> {
                let mut settled = Vec::new();
                for (ticket, client) in purged {
                    if let Some(tickets) = self.order.get_mut(&client) {
                        let before = tickets.len();
                        tickets.retain(|&t| t != ticket);
                        self.settled += (before - tickets.len()) as u64;
                    }
                    if let Some(waiting) = self.held.get_mut(&client) {
                        waiting.remove(&ticket);
                    }
                    settled.extend(self.settle_meta(ticket, client, None));
                }
                self.order.retain(|_, tickets| !tickets.is_empty());
                self.held.retain(|_, waiting| !waiting.is_empty());
                settled.extend(self.release_ready());
                settled
            }
        }

        /// `ShardCore::enqueue`'s ticketing block.
        pub fn issue(
            book: &mut ReplyBook,
            client: ClientId,
            shard: usize,
            dedup_seq: Option<u64>,
            credited: bool,
        ) -> u64 {
            let t = book.next_ticket;
            book.next_ticket += 1;
            book.issued += 1;
            book.order.entry(client).or_default().push_back(t);
            book.meta.insert(
                t,
                TicketMeta {
                    shard: shard as u32,
                    dedup_seq,
                    credited,
                    start: std::time::Instant::now(),
                },
            );
            if let Some(seq) = dedup_seq {
                book.inflight_seq.insert((client, shard as u32), seq);
            }
            t
        }

        /// `ShardCore::drive`'s booking block.
        pub fn complete(
            book: &mut ReplyBook,
            tickets: Vec<(u64, ClientId)>,
            replies: Replies,
        ) -> Vec<SettledTicket> {
            for ((ticket, _), (client, wire)) in tickets.into_iter().zip(replies) {
                book.held.entry(client).or_default().insert(ticket, wire);
            }
            book.release_ready()
        }

        /// `ShardCore::try_submit`'s retry check.
        pub fn answer_retry(
            book: &mut ReplyBook,
            client: ClientId,
            shard: u32,
            seq: u64,
        ) -> Option<AdmitOutcome> {
            let key = (client, shard);
            if let Some((cached_seq, cached)) = book.last_reply.get(&key) {
                if *cached_seq == seq {
                    let cached = cached.clone();
                    book.ready.push_back((client, cached));
                    return Some(AdmitOutcome::ReplayedReply);
                }
            }
            if book.inflight_seq.get(&key) == Some(&seq) {
                return Some(AdmitOutcome::DuplicateInFlight);
            }
            None
        }

        /// `ShardedServer::crash`'s rebuild of the book.
        pub fn crash_reset(book: &mut ReplyBook) {
            *book = ReplyBook {
                next_ticket: book.next_ticket,
                issued: book.issued,
                settled: book.issued,
                ..ReplyBook::new()
            };
        }
    }
}
