//! Replicated shard groups: quorum-stable writes over one sealed
//! record stream, failover, and verified read scale-out.
//!
//! [`ReplicaGroup`] runs one shard as a group of 2f+1 replicas. The
//! *leader* executes every batch exactly as a solo server would; its
//! enclave, knowing from its attested identity that it is a group
//! member, hands the host a **replication record** next to the blobs
//! it persists. The host gives that record to every follower
//! ([`LcmServer::apply_replica`]), each follower's enclave verifies
//! and applies it, persists as its *own* storage dictates — the
//! record verbatim, appended to a delta log's journal or to the
//! `checkpoint ‖ deltas` bundle a plain store's slot holds
//! ([`lcm_storage::BundleStorage`]), and one sealed checkpoint when
//! its own cadence asks for one: O(batch) sealed bytes per member
//! either way — and acknowledges with the in-enclave digest of the
//! record. A batch's
//! replies are released to clients only once a **quorum**
//! ([`Quorum::required`] of the group size, leader included) has
//! persisted the batch — the same threshold machinery the protocol
//! already uses for client stability ([`crate::stability`]), applied
//! to replicas instead of clients.
//!
//! ## The stream
//!
//! A record is a kind-tagged blob sealed under the group-shared `kP`;
//! the kind byte picks the follower's path, exactly as it does when a
//! context recovers from storage:
//!
//! * **Delta** — the sealed batch delta (`position ‖ stable floor ‖
//!   touched V entries ‖ the functionality's diff`): what every batch
//!   ships. The follower replays it with the function delta-by-delta
//!   recovery runs, so *replication is continuous recovery* and moves
//!   O(batch) bytes however large the state is. Each delta seals the
//!   **chain position** it applies to and moves the position to a hash
//!   of itself (the rule is the [`crate::context`] module docs' *Chain
//!   position* section); a follower applies it only while standing at
//!   that position.
//! * **Checkpoint / bundle** — what the leader's state slot holds
//!   ([`LcmServer::sealed_state`]): the whole state, installed
//!   wholesale, leaving the follower at the sealer's position. Ships
//!   where no delta can: to *level* a member that is out of step with
//!   the leader (rebooted, promoted past, restored from its own medium
//!   after a whole-group restart), after control-plane calls (admin,
//!   slice export/import, table adoption, migration — their effects
//!   are outside the delta format and re-root the chain), and for
//!   functionalities that do not track changes, whose own persist path
//!   seals checkpoints too.
//!
//! Which kind ships is decided by what the leader's enclave observed
//! (group membership, whether `F` tracks changes, whether the call was
//! control-plane); the host has no say and there is no option.
//!
//! ## Who may refuse what
//!
//! * A follower's enclave refuses a delta sealed against a position
//!   other than its own with [`LcmError::RecordOutOfOrder`], touching
//!   nothing. That is **not a violation**: which record reaches which
//!   member, and when, is host scheduling — a member that was dead, a
//!   promotion, a reboot from an older medium all produce it honestly,
//!   and an enclave that halted on it would turn every failover into
//!   an accusation. The group levels that member with the leader's
//!   sealed state in the same step ([`GroupStats::relevels`]); the
//!   refusal cost it nothing but the ack.
//! * Anything that is *not* the group's own sealed bytes — an AEAD
//!   failure, a wrong label or kind, a checkpoint sealed by another
//!   shard's group — halts the follower's enclave with a
//!   [`crate::Violation`], and the group drops the member
//!   ([`GroupStats::followers_dropped`]) until it is rebooted.
//! * Recovery *from storage* keeps halting on a broken chain: a bundle
//!   is one journal the medium assembled, and a gap in it is tampering.
//!
//! ## The composed guarantee
//!
//! *Definitions.* The **chain position** of a member is the digest its
//! enclave holds after the last blob it sealed or applied; positions
//! never repeat (each commits to its predecessor, roots are random or
//! bind `kP`), so a position names one state. A record is
//! **quorum-held** once [`Quorum::required`] members — the leader
//! after its own [`LcmServer::flush`] — have persisted it
//! and each acked with a digest computed inside its enclave over the
//! record it applied. A write is **acknowledged** when its reply was
//! released, which happens only for quorum-held records (release is
//! all-or-nothing over the withheld prefix: holding the newest record
//! implies, by the chain, holding every earlier one).
//!
//! *Assumptions.* At most f of the 2f+1 members crash (majority
//! quorum); `kP` is confined to attested members of the group; member
//! storage is rollback-prone like any LCM storage (that is what the
//! clients' own `(tc, hc)` checks are for); stability additionally
//! needs the paper's honest-client majority.
//!
//! *Claim.* Quorum-held ∧ hash-chained ⇒ every acknowledged write is
//! in the state of whichever member is promoted, and in that member's
//! `V` entry for the writing client — so a client that returns after a
//! failover finds its `(tc, hc)` context intact: **no lost
//! acknowledged write, no fork-detection false positive**. Sketch: an
//! acknowledged write's record is held by f+1 members; at most f
//! crash, so a live holder exists; promotion picks the live member
//! with the freshest acked record, whose position — by the chain —
//! implies every earlier record. A host cannot manufacture a holder:
//! an ack exists only for a record the follower's enclave accepted,
//! and it accepts a delta only in order. Batches that executed but
//! never reached quorum have their replies withheld; after a crash
//! their effects may be lost, which clients experience as an
//! unacknowledged operation to retry (§4.6.1 cached-reply retries make
//! the retry exact), or — if the host promotes a stale member past
//! these rules — as an honest rollback detection. Only the
//! *unacknowledged suffix* is ever in question, as in the paper.
//!
//! *Tests that would fail if it were false.*
//! `failover_promotes_the_live_member_with_the_freshest_state`,
//! `leader_death_drops_withheld_replies_and_the_retry_is_exact` and
//! `whole_group_reboot_relevels_the_laggard` below;
//! `tests/replication_stream.rs` (`replication_equals_recovery`, and
//! the adversarial-stream cases: a dropped, duplicated, swapped,
//! cross-generation, corrupted or foreign record changes no state and
//! earns no ack); the failover-stress tier, which checks every
//! client's history with the omniscient verifiers under kill /
//! promote / reboot churn.
//!
//! ## Trust boundary
//!
//! The **host** schedules everything here: which member is leader,
//! when records ship, when a follower is promoted. None of that is
//! trusted. Correctness rests on the enclaves and the clients:
//!
//! * a follower's enclave applies only records sealed under the
//!   group's `kP`, deltas only in chain order, and checkpoints only
//!   from a member of the *same group* (same shard slot, same group
//!   size — attested identity coordinates, checked in
//!   [`crate::context::TrustedContext::apply_replica`]);
//! * the acknowledgement digest is computed *inside* the follower's
//!   enclave over the exact record it applied, so a host cannot forge
//!   quorum by acking records it never delivered, or delivered out of
//!   order;
//! * no chain position, nor any other hash of plaintext, leaves an
//!   enclave unsealed — the host learns that a member is out of step
//!   only from its refusal;
//! * read replies are sealed by the serving replica's enclave under an
//!   AAD that pins the replica index, so a host cannot substitute one
//!   replica's answer for another's; and
//! * clients verify every reply against their own `(tc, hc)` context,
//!   exactly as in the unreplicated protocol — a host that promotes a
//!   stale replica past the quorum rules produces a detected rollback,
//!   not a silent one.
//!
//! ## Verified read scale-out
//!
//! Read-only operations ([`Functionality::is_readonly`]) can be served
//! by *any* replica through [`ReadPort::serve_read`], which locks only
//! the addressed member. Read legs are pinned to a replica inside the
//! AEAD and verified against the same per-shard history context as
//! writes, so read throughput scales with the replica count without
//! widening the trust boundary. See
//! [`crate::context::TrustedContext::serve_read`] for the enclave-side
//! checks (including the [`crate::Violation::MutationOnReadPath`]
//! halt).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use lcm_crypto::sha256::{self, Digest};
use lcm_tee::attestation::Quote;

use crate::functionality::Functionality;
use crate::server::{no_replica, Lane, LcmServer, ReadPort, Replies};
use crate::stability::Quorum;
use crate::types::ClientId;
use crate::wire::ReadHint;
use crate::{LcmError, Result};

type MemberServer<F> = Arc<Mutex<LcmServer<F>>>;

fn lock<F: Functionality>(server: &MemberServer<F>) -> MutexGuard<'_, LcmServer<F>> {
    server.lock().unwrap_or_else(|e| e.into_inner())
}

struct Member<F: Functionality> {
    server: MemberServer<F>,
    alive: bool,
    /// Epoch (group record counter) of the last record this member is
    /// known to hold; the promotion key on failover.
    applied_epoch: u64,
}

/// Counters the fault-injection tests assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Follower promotions performed after a leader death.
    pub promotions: u64,
    /// Batches whose replies were withheld past their own step because
    /// the quorum was not yet reached.
    pub quorum_stalls: u64,
    /// Withheld (never quorum-acknowledged) replies dropped on a
    /// leader death — clients retry these.
    pub replies_dropped: u64,
    /// Records (deltas and sealed states alike) successfully applied
    /// by followers.
    pub blobs_applied: u64,
    /// Followers that refused a record as out of order and were
    /// levelled with the leader's sealed state instead. Zero in a
    /// fault-free run: a group's members are provisioned at one
    /// position and every record reaches every live member in turn.
    pub relevels: u64,
    /// Followers dropped from the group (until rebooted) because an
    /// apply failed for any other reason: the enclave detected a
    /// violation and halted, its persist failed, or its ack did not
    /// match the record shipped.
    pub followers_dropped: u64,
}

/// One shard executed by a 2f+1 replica group of [`LcmServer`]
/// members. Implements [`Lane`], so it slots behind the sharded router,
/// the transport front-end and the admin handle like a solo server
/// does; see the [module docs](self) for the protocol.
pub struct ReplicaGroup<F: Functionality> {
    members: Vec<Member<F>>,
    /// The members' concurrent read surface (they are fixed at
    /// construction, so it is built once).
    port: Arc<GroupReadPort<F>>,
    quorum: Quorum,
    leader: usize,
    /// Wires not yet handed to the leader. Kept at group level so a
    /// leader crash loses no queued request.
    queue: VecDeque<Vec<u8>>,
    /// Replies executed by the leader but not yet quorum-held, FIFO.
    withheld: VecDeque<(ClientId, Vec<u8>)>,
    /// Group record counter; bumped per record shipped.
    epoch: u64,
    stats: GroupStats,
}

impl<F: Functionality> ReplicaGroup<F> {
    /// Builds a group from its member servers (each over its own
    /// storage region). The first member starts as leader. `quorum` is
    /// the replica-acknowledgement threshold — [`Quorum::Majority`]
    /// gives the 2f+1 guarantee; [`Quorum::All`] trades availability
    /// for synchronous replication everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<LcmServer<F>>, quorum: Quorum) -> Self {
        assert!(!members.is_empty(), "a replica group needs members");
        let members: Vec<Member<F>> = members
            .into_iter()
            .map(|server| Member {
                server: Arc::new(Mutex::new(server)),
                alive: false,
                applied_epoch: 0,
            })
            .collect();
        let port = Arc::new(GroupReadPort {
            members: members.iter().map(|m| Arc::clone(&m.server)).collect(),
        });
        ReplicaGroup {
            members,
            port,
            quorum,
            leader: 0,
            queue: VecDeque::new(),
            withheld: VecDeque::new(),
            epoch: 0,
            stats: GroupStats::default(),
        }
    }

    /// Replica acknowledgements (leader included) needed before a
    /// batch's replies are released.
    #[must_use]
    pub fn required_acks(&self) -> usize {
        self.quorum.required(self.members.len())
    }

    /// Fault-injection counters.
    #[must_use]
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Index of the current leader.
    #[must_use]
    pub fn leader(&self) -> usize {
        self.leader
    }

    fn leader_server(&self) -> MutexGuard<'_, LcmServer<F>> {
        lock(&self.members[self.leader].server)
    }

    /// Runs `call` on member `replica`'s server; an out-of-range
    /// `replica` is an error.
    fn on_member<T>(
        &self,
        replica: u32,
        call: impl FnOnce(&mut LcmServer<F>) -> Result<T>,
    ) -> Result<T> {
        let member = self
            .members
            .get(replica as usize)
            .ok_or_else(|| no_replica(replica, self.members.len()))?;
        call(&mut lock(&member.server))
    }

    /// Ensures a live leader, promoting the live member with the
    /// freshest applied state if the seat is vacant. Withheld replies
    /// die with the old leader: they were never quorum-held, so the
    /// promoted state may not contain them, and releasing them would
    /// acknowledge writes the group cannot promise to keep.
    fn ensure_leader(&mut self) -> Result<()> {
        if self.members[self.leader].alive {
            return Ok(());
        }
        let candidate = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.alive)
            .max_by_key(|(_, m)| m.applied_epoch)
            .map(|(i, _)| i);
        let Some(next) = candidate else {
            return Err(LcmError::Tee("no live replica to promote".into()));
        };
        self.stats.replies_dropped += self.withheld.len() as u64;
        self.withheld.clear();
        self.leader = next;
        self.epoch = self.members[next].applied_epoch;
        self.stats.promotions += 1;
        Ok(())
    }

    /// Hands `record` to member `i` and checks the in-enclave digest it
    /// acknowledges with against the record shipped.
    fn apply(&self, i: usize, record: &[u8], expected: &Digest) -> Result<()> {
        let acked = lock(&self.members[i].server).apply_replica(record)?;
        if acked == *expected {
            Ok(())
        } else {
            Err(LcmError::Tee(format!(
                "replica {i} acknowledged a different record"
            )))
        }
    }

    /// The leader's sealed state with its digest — what levels a
    /// member that cannot take the stream's next delta.
    fn leader_state(&self) -> Result<(Vec<u8>, Digest)> {
        let state = self.leader_server().sealed_state()?;
        let digest = sha256::digest(&state);
        Ok((state, digest))
    }

    /// Ships the current epoch's record to every live follower: the
    /// `record` the leader's enclave emitted with the batch, or — when
    /// it emitted none (control-plane call, functionality without
    /// change tracking) — the leader's sealed state. A follower that
    /// refuses a delta as out of order is levelled with the sealed
    /// state in the same step; a follower whose apply fails any other
    /// way is treated as crashed — it no longer counts toward any
    /// quorum until rebooted. The sealed state is O(state) to lift off
    /// the leader's medium, so it is materialised only when the first
    /// live follower needs it. The leader counts as a holder once its
    /// own persist is flushed, which a delta lets overlap with the
    /// followers' work.
    fn replicate(&mut self, record: Option<Vec<u8>>) -> Result<()> {
        let leader = self.leader;
        let delta = record.map(|record| {
            let digest = sha256::digest(&record);
            (record, digest)
        });
        let mut sealed_state = None;
        for i in 0..self.members.len() {
            if i == leader || !self.members[i].alive {
                continue;
            }
            let by_delta = delta
                .as_ref()
                .map(|(record, digest)| self.apply(i, record, digest));
            let applied = match by_delta {
                Some(outcome) if !matches!(outcome, Err(LcmError::RecordOutOfOrder)) => outcome,
                // No delta to ship, or this member refused it as out
                // of order: the leader's sealed state levels it.
                refused => {
                    self.stats.relevels += u64::from(refused.is_some());
                    if sealed_state.is_none() {
                        sealed_state = Some(self.leader_state()?);
                    }
                    let (state, digest) = sealed_state.as_ref().expect("just fetched");
                    self.apply(i, state, digest)
                }
            };
            match applied {
                Ok(()) => {
                    self.members[i].applied_epoch = self.epoch;
                    self.stats.blobs_applied += 1;
                }
                Err(_) => {
                    self.members[i].alive = false;
                    self.stats.followers_dropped += 1;
                }
            }
        }
        self.leader_server().flush()?;
        self.members[leader].applied_epoch = self.epoch;
        Ok(())
    }

    /// Members (leader included) holding the current epoch's record.
    fn holders(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.alive && m.applied_epoch == self.epoch)
            .count()
    }

    /// Releases withheld replies if the current epoch is quorum-held.
    /// Release is all-or-nothing: a member holds the newest record
    /// only on top of every earlier one, so quorum on it acknowledges
    /// the whole prefix.
    fn release(&mut self) -> Replies {
        if self.holders() >= self.required_acks() {
            self.withheld.drain(..).collect()
        } else {
            if !self.withheld.is_empty() {
                self.stats.quorum_stalls += 1;
            }
            Vec::new()
        }
    }

    /// Brings a freshly rebooted member level with the leader so churn
    /// (kill → promote → reboot) cannot leave it as the only live
    /// member with an ancient state — and so the stream's next delta
    /// finds it at the leader's position.
    fn catch_up(&mut self, replica: usize) {
        if replica == self.leader || !self.members[self.leader].alive || self.epoch == 0 {
            return;
        }
        let Ok((state, digest)) = self.leader_state() else {
            return;
        };
        if self.apply(replica, &state, &digest).is_ok() {
            self.members[replica].applied_epoch = self.epoch;
            self.stats.blobs_applied += 1;
        }
    }

    /// Runs a control-plane call on the leader and ships the re-sealed
    /// state it leaves behind, so a failover cannot roll the call's
    /// effect back.
    fn on_leader<T>(&mut self, call: impl FnOnce(&mut LcmServer<F>) -> Result<T>) -> Result<T> {
        self.ensure_leader()?;
        let out = call(&mut self.leader_server())?;
        self.epoch += 1;
        self.replicate(None)?;
        Ok(out)
    }

    /// Wires accepted but not yet executed by the leader.
    fn unexecuted(&self) -> usize {
        self.queue.len() + self.leader_server().queued()
    }
}

impl<F: Functionality + 'static> Lane for ReplicaGroup<F> {
    fn boot(&mut self) -> Result<bool> {
        // Every member restores from its own medium, so after a
        // whole-group restart positions may differ (a member that was
        // dead holds an older one). Nobody counts as a holder until it
        // acks the next record — and a follower that cannot take it is
        // levelled in that same step.
        let mut needs_provisioning = false;
        for (i, member) in self.members.iter_mut().enumerate() {
            let fresh = lock(&member.server).boot()?;
            member.alive = true;
            member.applied_epoch = 0;
            if i == self.leader {
                needs_provisioning = fresh;
            }
        }
        Ok(needs_provisioning)
    }

    fn crash(&mut self) {
        // Whole-group crash: every member dies, queued wires and
        // withheld replies are lost — the solo-server crash contract,
        // scaled to the group.
        for member in &mut self.members {
            lock(&member.server).crash();
            member.alive = false;
        }
        self.queue.clear();
        self.withheld.clear();
    }

    fn is_running(&self) -> bool {
        self.members[self.leader].alive && self.leader_server().is_running()
    }

    fn replicas(&self) -> u32 {
        self.members.len() as u32
    }

    fn leader(&self) -> u32 {
        self.leader as u32
    }

    fn attest(&mut self, replica: u32, user_data: Digest) -> Result<Quote> {
        self.on_member(replica, |server| server.attest(user_data))
    }

    fn provision(&mut self, replica: u32, sealed_payload: Vec<u8>) -> Result<()> {
        self.on_member(replica, |server| server.provision(sealed_payload))
    }

    fn kill(&mut self, replica: u32, power_failure: bool) -> Result<()> {
        self.on_member(replica, |server| server.kill(0, power_failure))?;
        let member = &mut self.members[replica as usize];
        member.alive = false;
        member.applied_epoch = 0;
        if replica as usize == self.leader {
            // Leader death drops everything not yet quorum-held:
            // withheld replies (never acknowledged — clients retry) and
            // wires the group had accepted but not executed. The
            // sharded host observes `is_running() == false` and writes
            // the matching tickets off, so reply pairing stays exact.
            self.stats.replies_dropped += self.withheld.len() as u64;
            self.withheld.clear();
            self.queue.clear();
        }
        Ok(())
    }

    fn reboot(&mut self, replica: u32) -> Result<bool> {
        let fresh = self.on_member(replica, LcmServer::boot)?;
        let idx = replica as usize;
        self.members[idx].alive = true;
        self.members[idx].applied_epoch = 0;
        // Promote first if the leader seat is empty, then level the
        // rebooted member with whoever leads now.
        self.ensure_leader()?;
        self.catch_up(idx);
        Ok(fresh)
    }

    fn submit(&mut self, invoke_wire: Vec<u8>) {
        self.queue.push_back(invoke_wire);
    }

    fn queued(&self) -> usize {
        // Withheld replies count as unprocessed work: the wires behind
        // them have not settled, and the sharded reply book's ticket
        // accounting (and the front-end's work detection) must keep
        // driving this group until the quorum releases them.
        self.unexecuted() + self.withheld.len()
    }

    fn batch_limit(&self) -> usize {
        self.leader_server().batch_limit()
    }

    fn step(&mut self) -> Result<Replies> {
        self.ensure_leader()?;
        let executed = {
            let mut server = lock(&self.members[self.leader].server);
            for _ in 0..server.batch_limit() {
                let Some(wire) = self.queue.pop_front() else {
                    break;
                };
                server.submit(wire);
            }
            if server.queued() == 0 {
                None
            } else {
                let replies = server.step()?;
                Some((replies, server.take_record()))
            }
        };
        if let Some((replies, record)) = executed {
            self.withheld.extend(replies);
            self.epoch += 1;
            self.replicate(record)?;
        }
        Ok(self.release())
    }

    fn process_all(&mut self) -> Result<Replies> {
        // Loop on *unexecuted* wires only: withheld replies drain via
        // `release`, not by further steps, and spinning on them would
        // never terminate while the quorum is down.
        let mut out = Vec::new();
        while self.unexecuted() > 0 {
            out.extend(self.step()?);
        }
        // Drain a quorum stall if the queue emptied while replies were
        // still withheld and the quorum has since recovered.
        out.extend(self.release());
        Ok(out)
    }

    fn admin(&mut self, admin_wire: Vec<u8>) -> Result<Vec<u8>> {
        // Admin mutations (membership, key rotation) change the sealed
        // state without a delta.
        self.on_leader(|server| server.admin(admin_wire))
    }

    fn export_migration(&mut self) -> Result<Vec<u8>> {
        self.ensure_leader()?;
        self.leader_server().export_migration()
    }

    fn import_migration(&mut self, ticket: Vec<u8>) -> Result<()> {
        let replicas = self.members.len() as u32;
        for (i, member) in self.members.iter().enumerate() {
            lock(&member.server).import_migration(ticket.clone(), Some((i as u32, replicas)))?;
        }
        // Every member re-sealed the ticket at a chain root of its
        // own; the leader's checkpoint puts them all at one position.
        self.epoch += 1;
        self.replicate(None)
    }

    fn export_slice(&mut self, slice: u32, to: u32) -> Result<(Vec<u8>, Vec<u8>)> {
        // The post-export checkpoint (bumped table, moved keys gone)
        // ships to every follower so a failover cannot resurrect the
        // slice under the old epoch.
        self.on_leader(|server| server.export_slice(slice, to))
    }

    fn import_slice(&mut self, ticket: Vec<u8>) -> Result<()> {
        self.on_leader(|server| server.import_slice(ticket))
    }

    fn adopt_table(&mut self, bulletin: Vec<u8>) -> Result<()> {
        self.on_leader(|server| server.adopt_table(bulletin))
    }

    fn batches_processed(&self) -> u64 {
        self.members
            .iter()
            .map(|m| lock(&m.server).batches_processed())
            .max()
            .unwrap_or(0)
    }

    fn ops_processed(&self) -> u64 {
        self.members
            .iter()
            .map(|m| lock(&m.server).ops_processed())
            .max()
            .unwrap_or(0)
    }

    fn flush_persists(&mut self) -> Result<()> {
        self.leader_server().flush()
    }

    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.port.serve_read(read_wire)
    }

    fn read_port(&self) -> Option<Arc<dyn ReadPort>> {
        Some(self.port.clone())
    }
}

/// The group's concurrent read surface: locks only the member the read
/// leg is pinned to, so reads to distinct replicas proceed in parallel
/// with each other and with the write path on the leader.
struct GroupReadPort<F: Functionality> {
    members: Vec<MemberServer<F>>,
}

impl<F: Functionality> ReadPort for GroupReadPort<F> {
    fn serve_read(&self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        let Some((hint, _)) = ReadHint::peel(&read_wire) else {
            return Err(LcmError::Tee(
                "read wire too short for a routing hint".into(),
            ));
        };
        let member = self
            .members
            .get(hint.replica as usize)
            .ok_or_else(|| no_replica(hint.replica, self.members.len()))?;
        lock(member).serve_read(read_wire)
    }
}

#[cfg(test)]
mod tests {
    // `Lane` stays out of scope: the suite drives the group as the
    // one-shard deployment it is, through `BatchServer`.
    use super::{lock, Quorum, ReadHint, ReplicaGroup};
    use crate::admin::AdminHandle;
    use crate::client::{LcmClient, ReadOutcome};
    use crate::functionality::{AppendLog, Counter, Functionality};
    use crate::server::{BatchServer, LcmServer};
    use crate::types::ClientId;
    use crate::LcmError;
    use lcm_storage::{MemoryStorage, NamespacedStorage, StableStorage};
    use lcm_tee::world::TeeWorld;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn group(replicas: u32, quorum: Quorum) -> (ReplicaGroup<AppendLog>, LcmClient) {
        group_of::<AppendLog>(replicas, quorum)
    }

    fn group_of<F: Functionality + 'static>(
        replicas: u32,
        quorum: Quorum,
    ) -> (ReplicaGroup<F>, LcmClient) {
        let (group, _admin, client) =
            group_on::<F>(replicas, quorum, Arc::new(MemoryStorage::new()));
        (group, client)
    }

    fn group_on<F: Functionality + 'static>(
        replicas: u32,
        quorum: Quorum,
        storage: Arc<dyn StableStorage>,
    ) -> (ReplicaGroup<F>, AdminHandle, LcmClient) {
        let world = TeeWorld::new_deterministic(77);
        let members = (0..replicas)
            .map(|r| {
                let platform = world.platform_deterministic(1 + u64::from(r));
                let region = Arc::new(NamespacedStorage::new(storage.clone(), format!("rep{r}.")));
                LcmServer::<F>::new(&platform, region, 4)
            })
            .collect();
        let mut group = ReplicaGroup::new(members, quorum);
        assert!(group.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 12);
        admin.bootstrap(&mut group).unwrap();
        let client = LcmClient::new(ClientId(1), admin.client_key());
        (group, admin, client)
    }

    #[test]
    fn quorum_releases_immediately_when_enough_members_hold_the_blob() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(
            replies.len(),
            1,
            "3/3 holders >= 2 releases in the same step"
        );
        client.handle_reply(&replies[0].1).unwrap();
        let stats = group.stats();
        assert_eq!(stats.quorum_stalls, 0);
        assert_eq!(stats.blobs_applied, 2, "both followers applied the blob");
        assert_eq!(stats.promotions, 0);
    }

    #[test]
    fn losing_f_members_does_not_stall_a_2f_plus_1_group() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 2, false).unwrap();
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(replies.len(), 1, "leader + one follower meet the majority");
        client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(group.stats().quorum_stalls, 0);
    }

    #[test]
    fn replies_are_withheld_below_quorum_and_drain_after_a_reboot() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 1, false).unwrap();
        group.kill_member(0, 2, false).unwrap();

        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert!(
            replies.is_empty(),
            "1/3 holders < 2: the reply must be withheld"
        );
        assert!(group.stats().quorum_stalls >= 1);
        assert!(group.queued() > 0, "withheld replies still count as work");

        // One reboot restores the quorum; catch-up levels the member and
        // the stalled reply drains without re-executing anything.
        assert!(!group.reboot_member(0, 1).unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
        assert!(
            group.stats().blobs_applied >= 1,
            "catch-up ships the sealed blob"
        );
        assert_eq!(group.queued(), 0);
    }

    #[test]
    fn failover_promotes_the_live_member_with_the_freshest_state() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        client.handle_reply(&replies[0].1).unwrap();

        // Simulate a follower that missed the last blob, then kill the
        // leader: promotion must pick the follower that holds it.
        group.members[2].applied_epoch = 0;
        group.kill_member(0, 0, false).unwrap();
        group.submit(client.invoke(b"after-failover").unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(
            group.leader(),
            1,
            "member 1 held the freshest applied epoch"
        );
        assert_eq!(group.stats().promotions, 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(
            done.seq.0, 2,
            "the acknowledged write survived the failover"
        );
    }

    #[test]
    fn leader_death_drops_withheld_replies_and_the_retry_is_exact() {
        let (mut group, mut client) = group(3, Quorum::Majority);
        group.kill_member(0, 1, false).unwrap();
        group.kill_member(0, 2, false).unwrap();
        group.submit(client.invoke(b"never-acked").unwrap());
        assert!(group.step().unwrap().is_empty(), "below quorum: withheld");

        // The leader dies with the only copy; the withheld reply is
        // dropped (it was never acknowledged, so nothing is lost).
        group.kill_member(0, 0, false).unwrap();
        assert_eq!(group.stats().replies_dropped, 1);

        // Two reboots restore a quorum; the first live member is
        // promoted and the client's timeout-retry executes exactly once.
        group.reboot_member(0, 1).unwrap();
        group.reboot_member(0, 2).unwrap();
        group.submit(client.retry().unwrap());
        let replies = group.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1, "retry after a dropped reply is exactly-once");
        assert!(!client.is_halted(), "failover must not look like a fork");
    }

    #[test]
    fn group_of_one_degenerates_to_a_solo_server() {
        let (mut group, mut client) = group(1, Quorum::Majority);
        assert_eq!(group.required_acks(), 1);
        group.submit(client.invoke(b"op").unwrap());
        let replies = group.step().unwrap();
        assert_eq!(replies.len(), 1, "f = 0: the leader alone is the quorum");
        client.handle_reply(&replies[0].1).unwrap();

        group.kill_member(0, 0, false).unwrap();
        assert!(
            !group.reboot_member(0, 0).unwrap(),
            "recovers from sealed state"
        );
        group.submit(client.invoke(b"after").unwrap());
        let replies = group.process_all().unwrap();
        let done = client.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2);
    }

    /// One increment through the group; the reply count of the step.
    fn inc(group: &mut ReplicaGroup<Counter>, client: &mut LcmClient) -> usize {
        let op = Counter::inc_op(b"n", 1);
        group.submit(client.invoke_for::<Counter>(&op).unwrap());
        let replies = group.process_all().unwrap();
        for (_, wire) in &replies {
            client.handle_reply(wire).unwrap();
        }
        replies.len()
    }

    /// The counter as `client` reads it on `replica`.
    fn read_on(
        group: &mut ReplicaGroup<Counter>,
        client: &mut LcmClient,
        replica: u32,
    ) -> ReadOutcome {
        let op = Counter::read_op(b"n");
        let wire = client.read_for::<Counter>(&op, replica).unwrap();
        let reply = group.serve_read(wire).unwrap();
        client.handle_read_reply(&reply).unwrap()
    }

    fn fresh(outcome: ReadOutcome) -> u64 {
        match outcome {
            ReadOutcome::Fresh(done) => Counter::decode_result(&done.result).unwrap(),
            other => panic!("expected a fresh read, got {other:?}"),
        }
    }

    #[test]
    fn a_fault_free_stream_needs_no_levelling() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::All);
        for _ in 0..5 {
            assert_eq!(inc(&mut group, &mut client), 1, "released in its own step");
        }
        let stats = group.stats();
        assert_eq!(stats.blobs_applied, 10, "5 records x 2 followers");
        assert_eq!((stats.relevels, stats.followers_dropped), (0, 0));
        assert_eq!(fresh(read_on(&mut group, &mut client, 2)), 5);
    }

    #[test]
    fn a_stale_follower_is_levelled_in_the_same_step() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::Majority);
        assert_eq!(inc(&mut group, &mut client), 1);
        // The host skips member 2 for one record (it was unreachable,
        // say), then delivers the next as if nothing had happened.
        group.members[2].alive = false;
        assert_eq!(inc(&mut group, &mut client), 1, "2 of 3 hold it");
        assert_eq!(read_on(&mut group, &mut client, 2), ReadOutcome::Behind);
        group.members[2].alive = true;

        assert_eq!(inc(&mut group, &mut client), 1);
        let stats = group.stats();
        assert_eq!(stats.relevels, 1, "member 2 refused, then took the state");
        assert_eq!(stats.followers_dropped, 0, "and was not lost");
        assert_eq!(fresh(read_on(&mut group, &mut client, 2)), 3);
        // Levelled means level: the stream's next delta applies.
        assert_eq!(inc(&mut group, &mut client), 1);
        assert_eq!(group.stats().relevels, 1);
    }

    #[test]
    fn whole_group_reboot_relevels_the_laggard() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::Majority);
        assert_eq!(inc(&mut group, &mut client), 1);
        group.kill_member(0, 2, false).unwrap();
        for _ in 0..3 {
            assert_eq!(inc(&mut group, &mut client), 1);
        }
        // Everybody restarts from their own medium: members 0 and 1
        // four records in, member 2 one.
        group.crash();
        assert!(!group.boot().unwrap());
        assert_eq!(group.holders(), 0, "a restored member has acked nothing");

        assert_eq!(inc(&mut group, &mut client), 1, "released at quorum");
        let stats = group.stats();
        assert_eq!((stats.relevels, stats.followers_dropped), (1, 0));
        assert_eq!(group.holders(), 3);
        // The laggard ends where the leader is: it serves the client's
        // current context.
        assert_eq!(fresh(read_on(&mut group, &mut client, 2)), 5);
        assert_eq!(fresh(read_on(&mut group, &mut client, 0)), 5);
    }

    #[test]
    fn a_follower_that_detects_tampering_is_dropped_not_levelled() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::Majority);
        assert_eq!(inc(&mut group, &mut client), 1);
        // The host hands member 2 bytes no group member sealed: its
        // enclave halts.
        let forged = [lcm_storage::BLOB_KIND_DELTA, 0xde, 0xad];
        let verdict = lock(&group.members[2].server).apply_replica(&forged);
        assert!(matches!(verdict, Err(LcmError::Violation(_))));

        assert_eq!(inc(&mut group, &mut client), 1, "2 of 3 still a majority");
        let stats = group.stats();
        assert_eq!((stats.relevels, stats.followers_dropped), (0, 1));
        assert!(!group.members[2].alive);
    }

    /// A medium that counts the loads of one slot.
    struct LoadCounter {
        inner: MemoryStorage,
        slot: &'static str,
        loads: AtomicU64,
    }

    impl StableStorage for LoadCounter {
        fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
            if slot == self.slot {
                self.loads.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.load(slot)
        }
    }

    #[test]
    fn a_control_plane_call_lifts_no_state_without_a_follower_to_take_it() {
        let medium = Arc::new(LoadCounter {
            inner: MemoryStorage::new(),
            slot: "rep0.lcm.state",
            loads: AtomicU64::new(0),
        });
        let (mut group, mut admin, _client) =
            group_on::<AppendLog>(3, Quorum::Majority, medium.clone());
        let loads = || medium.loads.load(Ordering::SeqCst);
        assert!(loads() > 0, "bootstrap levelled two live followers");
        group.kill_member(0, 1, false).unwrap();
        group.kill_member(0, 2, false).unwrap();

        let before = loads();
        let (_t, _q, n) = admin.status(&mut group).unwrap();
        assert_eq!(n, 1);
        assert_eq!(loads(), before, "nobody to ship the leader's state to");

        // With a follower back the same call ships it again.
        group.reboot_member(0, 1).unwrap();
        let before = loads();
        admin.status(&mut group).unwrap();
        assert_eq!(loads(), before + 1);
    }

    #[test]
    fn read_port_rejects_out_of_range_and_truncated_hints() {
        let (group, _client) = group(3, Quorum::Majority);
        let port = group.read_port().unwrap();
        assert!(port.serve_read(vec![0u8; 3]).is_err(), "truncated hint");
        let mut wire = Vec::new();
        ReadHint {
            client: ClientId(1),
            route: 0,
            seq: 1,
            replica: 9,
            epoch: 0,
        }
        .encode_to(&mut wire);
        wire.extend_from_slice(b"ciphertext");
        assert!(port.serve_read(wire).is_err(), "replica 9 of a group of 3");
    }
}
