//! Replicated shard groups: quorum-stable writes over one sealed
//! record stream, failover, and verified read scale-out.
//!
//! [`ReplicaGroup`] runs one shard as a group of 2f+1 replicas. The
//! *leader* executes every batch exactly as a solo server would; its
//! enclave, knowing from its attested identity that it is a group
//! member, hands the host a **replication record** next to the blobs
//! it persists. The host gives that record to every follower
//! ([`LcmServer::apply_replica`]), each follower's enclave verifies
//! and applies it, persists it — the record verbatim, appended to a
//! delta log's journal ([`lcm_storage::DeltaLogStorage`]: the one a
//! deployment's builder opens for every member, or the member's own
//! over a plain store), and one sealed checkpoint when its own cadence
//! asks for one: O(batch) sealed and device bytes per member — and
//! acknowledges with the tag its enclave verified: the record's last
//! 16 bytes, the AEAD tag of a delta or a checkpoint, or of a bundle's
//! last delta. A batch's
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
//! * **Checkpoint / bundle** — what the leader's storage loads for its
//!   state ([`LcmServer::sealed_state`]): the whole state, installed
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
//! *Definitions.*
//!
//! * The **chain position** of a member is the digest its enclave
//!   holds after the last blob it sealed or applied. Positions never
//!   repeat (each commits to its predecessor, roots are random or bind
//!   `kP`), so a position names one state.
//! * A **holder** of a record is a member that has it on its *own
//!   medium* — the leader after its own [`LcmServer::flush`], a
//!   follower after its enclave acked the record (with the tag its
//!   open verified inside it, over the record it applied) *and* its host
//!   stored what the enclave handed back. A record applied in an
//!   enclave but not yet stored does not make a holder.
//! * A record is **quorum-held** once it has [`Quorum::required`]
//!   holders. A write is **acknowledged** when its reply was released,
//!   which happens only for quorum-held records. Release is
//!   all-or-nothing over the withheld prefix: holding the newest
//!   record implies, by the chain, holding every earlier one.
//! * The **straggler rule.** Every live follower applies each record
//!   at once, so reads pinned to it stay fresh. Visited in member
//!   order, the followers that bring the holders to
//!   [`ReplicaGroup::required_acks`] store it in the same step. A
//!   follower visited after that is a **straggler**: it buffers the
//!   sealed delta in host memory and writes its slot once per
//!   [`DEFAULT_WRITER_QUEUE`] records, all of them in one
//!   [`lcm_storage::StableStorage::store_all`] (one journal head
//!   write). A sealed state (a
//!   level, a catch-up, its own cadence checkpoint) is stored at once,
//!   behind the buffer. [`crate::server::BatchServer::flush_persists`]
//!   flushes every live member.
//!
//! *Assumptions.*
//!
//! * At most f of the 2f+1 members crash (majority quorum).
//! * `kP` is confined to attested members of the group.
//! * Member storage is rollback-prone like any LCM storage (that is
//!   what the clients' own `(tc, hc)` checks are for).
//! * Stability additionally needs the paper's honest-client majority.
//!
//! *Claim.* Quorum-held ∧ hash-chained ⇒ every acknowledged write is
//! in the state of whichever member is promoted, and in that member's
//! `V` entry for the writing client. A client that returns after a
//! failover therefore finds its `(tc, hc)` context intact: **no lost
//! acknowledged write, no fork-detection false positive**. Sketch:
//!
//! * An acknowledged write's record has f+1 holders. At most f crash,
//!   so a live holder exists.
//! * Promotion picks the live member with the freshest *held* epoch
//!   and flushes it before it leads, so the medium it extends holds
//!   everything its enclave applied. Its position implies, by the
//!   chain, every earlier record.
//! * A straggler's buffered records die with any crash of that member,
//!   process or power. They were never counted toward a quorum, so the
//!   loss costs that member only a level when it reboots.
//! * A host cannot manufacture a holder: an ack exists only for a
//!   record the follower's enclave accepted, and it accepts a delta
//!   only in order.
//! * Batches that executed but never reached quorum have their replies
//!   withheld. After a crash their effects may be lost. Clients
//!   experience that as an unacknowledged operation to retry (§4.6.1
//!   cached-reply retries make the retry exact), or — if the host
//!   promotes a stale member past these rules — as an honest rollback
//!   detection. Only the *unacknowledged suffix* is ever in question,
//!   as in the paper.
//!
//! *Tests that would fail if it were false.*
//!
//! * `every_released_write_is_on_a_quorum_of_media_after_every_step`
//!   and `with_a_quorum_of_one_every_follower_straggles_and_one_is_promoted`
//!   below recover every member's raw medium after each step of a
//!   scripted schedule (straggling, a power-failed quorum follower, a
//!   failover, a levelled and a power-failed straggler).
//! * `failover_promotes_the_live_member_with_the_freshest_state`,
//!   `leader_death_drops_withheld_replies_and_the_retry_is_exact` and
//!   `whole_group_reboot_relevels_the_laggard` below.
//! * `tests/replication_stream.rs`: `replication_equals_recovery`; the
//!   adversarial-stream cases (a dropped, duplicated, swapped,
//!   cross-generation, corrupted or foreign record changes no state
//!   and earns no ack); and the two state-independence tests, which
//!   see exactly a quorum's slots end in a batch's delta right after
//!   it and every slot after `flush_persists`.
//! * The failover-stress tier, which checks every client's history
//!   with the omniscient verifiers under kill / promote / reboot
//!   churn.
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
//! * the acknowledgement is the tag the follower's enclave verified
//!   over the exact record it applied — the record's last 16 bytes,
//!   which under `kP` name one authentic sealed blob — and the enclave
//!   hands it out only once that record applied, so a host cannot
//!   forge quorum by acking records it never delivered, or delivered
//!   out of order (a follower that acked another record's tag is
//!   dropped: `a_follower_that_acks_the_previous_record_is_caught`);
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

use lcm_crypto::aead::{self, Tag};
use lcm_crypto::sha256::Digest;
use lcm_tee::attestation::Quote;

use crate::functionality::Functionality;
use crate::server::{no_replica, Lane, LcmServer, ReadPort, Replies, DEFAULT_WRITER_QUEUE};
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
    /// known to hold on its own medium; the promotion key on failover.
    applied_epoch: u64,
    /// Epoch of the last record its enclave applied: ahead of
    /// `applied_epoch` while the member buffers a straggler's persists.
    enclave_epoch: u64,
}

impl<F: Functionality> Member<F> {
    /// Forgets what the member held: it died, or restored from its
    /// medium and has acked nothing since.
    fn reset(&mut self) {
        self.applied_epoch = 0;
        self.enclave_epoch = 0;
    }
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
    /// Records a follower applied in its enclave without storing them
    /// in the same step: it was a straggler, visited after the quorum
    /// already held the record. Its next flush stores them.
    pub deferred_records: u64,
    /// Follower slot writes that carried more than one record — the
    /// flushes that stored a straggler's deferred records.
    pub multi_record_writes: u64,
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
                enclave_epoch: 0,
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
    /// freshest *held* state if the seat is vacant, and flushing it
    /// first: it leads from what its enclave applied, so its medium
    /// must hold that before its own persists extend it. Withheld
    /// replies die with the old leader: they were never quorum-held,
    /// so the promoted state may not contain them, and releasing them
    /// would acknowledge writes the group cannot promise to keep.
    fn ensure_leader(&mut self) -> Result<()> {
        while !self.members[self.leader].alive {
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
            if self.flush_member(next).is_err() {
                self.drop_member(next);
                continue;
            }
            self.stats.replies_dropped += self.withheld.len() as u64;
            self.withheld.clear();
            self.leader = next;
            self.epoch = self.members[next].applied_epoch;
            self.stats.promotions += 1;
        }
        Ok(())
    }

    /// Stores member `i`'s buffered records; it then holds on its
    /// medium everything its enclave applied.
    fn flush_member(&mut self, i: usize) -> Result<()> {
        let carried = {
            let mut server = lock(&self.members[i].server);
            let carried = server.buffered_records();
            server.flush()?;
            carried
        };
        self.stats.multi_record_writes += u64::from(carried > 1);
        let member = &mut self.members[i];
        member.applied_epoch = member.enclave_epoch;
        Ok(())
    }

    /// Treats member `i` as crashed until it is rebooted: its apply or
    /// its persist failed.
    fn drop_member(&mut self, i: usize) {
        self.members[i].alive = false;
        self.stats.followers_dropped += 1;
    }

    /// Hands `record` to member `i` and checks the verified tag it
    /// acknowledges with against the record shipped.
    fn apply(&self, i: usize, record: &[u8], expected: &Tag) -> Result<()> {
        let acked = lock(&self.members[i].server).apply_replica(record)?;
        if acked == *expected {
            Ok(())
        } else {
            Err(LcmError::Tee(format!(
                "replica {i} acknowledged a different record"
            )))
        }
    }

    /// The leader's sealed state with its tag — what levels a member
    /// that cannot take the stream's next delta.
    fn leader_state(&self) -> Result<(Vec<u8>, Tag)> {
        let state = self.leader_server().sealed_state()?;
        let tag = aead::tag_of(&state);
        Ok((state, tag))
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
    ///
    /// Every follower applies the record at once, but only the first
    /// ones, in member order, store it in this step: those that bring
    /// the holders to [`ReplicaGroup::required_acks`]. A *straggler*
    /// after them keeps its delta buffered and writes its slot once
    /// per [`DEFAULT_WRITER_QUEUE`] records — the bound a pipelined
    /// lane's writer puts on records in flight.
    fn replicate(&mut self, record: Option<Vec<u8>>) -> Result<()> {
        let leader = self.leader;
        let delta = record.map(|record| {
            let tag = aead::tag_of(&record);
            (record, tag)
        });
        let mut sealed_state = None;
        let mut holders = 1;
        for i in 0..self.members.len() {
            if i == leader || !self.members[i].alive {
                continue;
            }
            let by_delta = delta
                .as_ref()
                .map(|(record, tag)| self.apply(i, record, tag));
            let applied = match by_delta {
                Some(outcome) if !matches!(outcome, Err(LcmError::RecordOutOfOrder)) => outcome,
                // No delta to ship, or this member refused it as out
                // of order: the leader's sealed state levels it.
                refused => {
                    self.stats.relevels += u64::from(refused.is_some());
                    if sealed_state.is_none() {
                        sealed_state = Some(self.leader_state()?);
                    }
                    let (state, tag) = sealed_state.as_ref().expect("just fetched");
                    self.apply(i, state, tag)
                }
            };
            if applied.is_err() {
                self.drop_member(i);
                continue;
            }
            self.members[i].enclave_epoch = self.epoch;
            self.stats.blobs_applied += 1;
            let buffered = lock(&self.members[i].server).buffered_records();
            if buffered > 0 && holders >= self.required_acks() && buffered < DEFAULT_WRITER_QUEUE {
                self.stats.deferred_records += 1;
                continue;
            }
            match self.flush_member(i) {
                Ok(()) => holders += 1,
                Err(_) => self.drop_member(i),
            }
        }
        self.leader_server().flush()?;
        let leader = &mut self.members[leader];
        leader.applied_epoch = self.epoch;
        leader.enclave_epoch = self.epoch;
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
        let Ok((state, tag)) = self.leader_state() else {
            return;
        };
        // A sealed state is stored as it is applied: no buffering.
        if self.apply(replica, &state, &tag).is_ok() {
            let member = &mut self.members[replica];
            member.applied_epoch = self.epoch;
            member.enclave_epoch = self.epoch;
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
            member.reset();
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
        member.reset();
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
        self.members[idx].reset();
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
        // Every live member, stragglers included: afterwards each
        // medium holds what its enclave applied.
        for i in 0..self.members.len() {
            if !self.members[i].alive {
                continue;
            }
            if let Err(e) = self.flush_member(i) {
                if i == self.leader {
                    return Err(e);
                }
                self.drop_member(i);
            }
        }
        Ok(())
    }

    fn serve_read(&mut self, read_wire: Vec<u8>) -> Result<Vec<u8>> {
        self.port.serve_read(read_wire)
    }

    /// The leader's: only the member executing the lane's writes
    /// blocks the lane on its writer.
    fn backpressure_events(&self) -> u64 {
        self.leader_server().backpressure_events()
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
    use super::{aead, lock, Quorum, ReadHint, ReplicaGroup};
    use crate::admin::AdminHandle;
    use crate::client::{LcmClient, ReadOutcome};
    use crate::context::TrustedContext;
    use crate::functionality::{AppendLog, Counter, Functionality};
    use crate::program::lcm_measurement;
    use crate::server::{BatchServer, LcmServer, SLOT_KEY_BLOB, SLOT_STATE_BLOB};
    use crate::types::ClientId;
    use crate::LcmError;
    use lcm_storage::{MemoryStorage, NamespacedStorage, StableStorage};
    use lcm_tee::platform::TeeServices;
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

    /// A record of one increment, executed on the leader alone and not
    /// shipped.
    fn unshipped_record(group: &ReplicaGroup<Counter>, client: &mut LcmClient) -> Vec<u8> {
        let mut leader = lock(&group.members[group.leader].server);
        let op = Counter::inc_op(b"n", 1);
        leader.submit(client.invoke_for::<Counter>(&op).unwrap());
        for (_, wire) in leader.step().unwrap() {
            client.handle_reply(&wire).unwrap();
        }
        leader.take_record().expect("a group member emits a record")
    }

    /// The ack check, mutated the way a stale follower would answer: it
    /// acks the record before the one the group shipped, because that
    /// record is what reached it. The group's check refuses the ack,
    /// while the honest ack of each record passes.
    #[test]
    fn a_follower_that_acks_the_previous_record_is_caught() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::Majority);
        assert_eq!(inc(&mut group, &mut client), 1);
        let previous = unshipped_record(&group, &mut client);
        let shipped = unshipped_record(&group, &mut client);
        let refused = group.apply(1, &previous, &aead::tag_of(&shipped));
        let Err(LcmError::Tee(message)) = refused else {
            panic!("{refused:?}");
        };
        assert_eq!(message, "replica 1 acknowledged a different record");
        for record in [&previous, &shipped] {
            group.apply(2, record, &aead::tag_of(record)).unwrap();
        }
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
    fn a_follower_read_reply_rides_home_in_its_legs_buffer() {
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::All);
        inc(&mut group, &mut client);
        for replica in 0..3 {
            let op = Counter::read_op(b"n");
            let mut leg = client.read_for::<Counter>(&op, replica).unwrap();
            leg.reserve(256);
            let buffer = leg.as_ptr();
            let reply = group.serve_read(leg).unwrap();
            assert_eq!(reply.as_ptr(), buffer, "member {replica}");
            assert_eq!(fresh(client.handle_read_reply(&reply).unwrap()), 1);
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

    /// A medium that counts the loads and the stores of the slots
    /// whose names start with one prefix.
    struct SlotCounter {
        inner: Arc<MemoryStorage>,
        prefix: &'static str,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl SlotCounter {
        fn new(prefix: &'static str) -> Self {
            SlotCounter {
                inner: Arc::new(MemoryStorage::new()),
                prefix,
                loads: AtomicU64::new(0),
                stores: AtomicU64::new(0),
            }
        }
    }

    impl StableStorage for SlotCounter {
        fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
            if slot.starts_with(self.prefix) {
                self.stores.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
            if slot.starts_with(self.prefix) {
                self.loads.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.load(slot)
        }
    }

    #[test]
    fn a_control_plane_call_lifts_no_state_without_a_follower_to_take_it() {
        // Member 0's region: its boot scans it, and each lift of its
        // state reads the current checkpoint there once.
        let medium = Arc::new(SlotCounter::new("rep0."));
        let (mut group, mut admin, _client) =
            group_on::<AppendLog>(3, Quorum::Majority, medium.clone());
        let loads = || medium.loads.load(Ordering::SeqCst);
        assert!(loads() > 0, "member 0 recovered from its medium at boot");
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

    /// What each member of a three-member `Counter` group built by
    /// [`group_on`] holds on its own medium: the counter a context
    /// reads once it recovered from what an engine over the member's
    /// region loads. Every medium must recover — a journal that
    /// received records out of chain order would not.
    fn held_on_media(medium: &Arc<MemoryStorage>) -> Vec<u64> {
        let world = TeeWorld::new_deterministic(77);
        (0..3u64)
            .map(|r| {
                let region = NamespacedStorage::new(medium.clone(), format!("rep{r}."));
                let engine = lcm_storage::DeltaLogStorage::open(Arc::new(region)).unwrap();
                let slot = |name: &str| engine.load(name).unwrap();
                let platform = world.platform_deterministic(1 + r);
                let services = TeeServices::for_tests(platform, lcm_measurement(), 900 + r);
                let mut ctx = TrustedContext::<Counter>::new(services);
                let (keys, state) = (slot(SLOT_KEY_BLOB), slot(SLOT_STATE_BLOB));
                ctx.init(keys.as_deref(), state.as_deref(), false)
                    .unwrap_or_else(|e| panic!("member {r}'s medium does not recover: {e:?}"));
                ctx.functionality().value(b"n")
            })
            .collect()
    }

    /// A scripted schedule over a three-member `Counter` group that
    /// checks the durability invariant after every step: every released
    /// increment is on at least `required_acks()` members' own media.
    struct Scripted {
        group: ReplicaGroup<Counter>,
        client: LcmClient,
        /// Counts the journal writes of member 2, the last follower.
        medium: Arc<SlotCounter>,
        released: u64,
    }

    impl Scripted {
        fn new(quorum: Quorum) -> Self {
            let medium = Arc::new(SlotCounter::new("rep2.dlog.head"));
            let (group, _admin, client) = group_on::<Counter>(3, quorum, medium.clone());
            let script = Scripted {
                group,
                client,
                medium,
                released: 0,
            };
            script.check("bootstrap");
            script
        }

        fn check(&self, when: &str) {
            let held = held_on_media(&self.medium.inner);
            let holders = held.iter().filter(|&&n| n >= self.released).count();
            assert!(
                holders >= self.group.required_acks(),
                "{when}: {} increments released, the media hold {held:?}",
                self.released
            );
        }

        fn round(&mut self, when: &str) {
            self.released += inc(&mut self.group, &mut self.client) as u64;
            self.check(when);
        }

        fn kill(&mut self, replica: u32, power_failure: bool) {
            self.group.kill_member(0, replica, power_failure).unwrap();
            self.check(&format!("member {replica} killed"));
        }

        fn reboot(&mut self, replica: u32) {
            assert!(!self.group.reboot_member(0, replica).unwrap());
            self.check(&format!("member {replica} rebooted"));
        }

        fn read_on(&mut self, replica: u32) -> u64 {
            fresh(read_on(&mut self.group, &mut self.client, replica))
        }

        fn member_2_writes(&self) -> u64 {
            self.medium.stores.load(Ordering::SeqCst)
        }

        fn stats(&self) -> (u64, u64) {
            let stats = self.group.stats();
            (stats.deferred_records, stats.multi_record_writes)
        }
    }

    #[test]
    fn every_released_write_is_on_a_quorum_of_media_after_every_step() {
        let mut s = Scripted::new(Quorum::Majority);
        let writes = s.member_2_writes();
        // Fault-free: member 1 completes the quorum, member 2 straggles.
        // It applies every record at once and writes its slot once per
        // DEFAULT_WRITER_QUEUE records (rounds 4 and 8).
        for round in 1..=9 {
            s.round(&format!("fault-free round {round}"));
        }
        assert_eq!(s.stats(), (7, 2), "(deferred records, multi-record writes)");
        assert_eq!(s.member_2_writes() - writes, 2);
        assert_eq!(s.group.holders(), 2);
        assert_eq!(s.read_on(2), 9, "the straggler's enclave is current");

        // Power-fail the quorum follower: member 2 must complete the
        // quorum, so it flushes in the same step — the record it held
        // back and the new one in one write.
        s.kill(1, true);
        s.round("quorum follower down");
        assert_eq!(s.stats(), (7, 3));
        assert_eq!(s.member_2_writes() - writes, 3);
        assert_eq!(s.group.holders(), 2);

        // Member 1 back; one round leaves member 2 a record behind on
        // its medium though level in its enclave. Kill the leader: the
        // freshest *held* member leads.
        s.reboot(1);
        s.round("member 1 back");
        s.kill(0, false);
        s.round("failover");
        assert_eq!(s.group.leader(), 1);
        assert_eq!(s.group.stats().promotions, 1);

        // Member 0 back as a follower, first in member order: member 2
        // straggles again. The host skips it for one record; it refuses
        // the next and is levelled — stored — in that same step.
        s.reboot(0);
        s.round("member 0 back");
        s.group.members[2].alive = false;
        s.round("member 2 skipped");
        s.group.members[2].alive = true;
        s.round("member 2 levelled");
        assert_eq!(s.group.stats().relevels, 1);
        assert_eq!(
            s.group.holders(),
            3,
            "the levelled straggler holds the record"
        );

        // Power-fail the straggler with a record held back: it dies
        // with the process, reboot levels the member without a
        // violation, and reads pinned to it verify.
        s.round("member 2 straggling");
        s.kill(2, true);
        s.reboot(2);
        assert_eq!(s.read_on(2), s.released);
        s.round("after the straggler's reboot");
        let stats = s.group.stats();
        assert_eq!((stats.followers_dropped, stats.quorum_stalls), (0, 0));
    }

    #[test]
    fn with_a_quorum_of_one_every_follower_straggles_and_one_is_promoted() {
        let mut s = Scripted::new(Quorum::AtLeast(1));
        for round in 1..=5 {
            s.round(&format!("round {round}"));
        }
        assert_eq!(s.stats(), (8, 2), "two stragglers, each writing once");
        assert_eq!(s.group.holders(), 1, "the leader alone holds round 5");
        assert_eq!(s.read_on(1), 5);

        // The followers tie on the epoch they hold; one is promoted and
        // stores what it held back before it leads.
        s.kill(0, false);
        s.round("failover");
        let leader = s.group.leader();
        assert_ne!(leader, 0);
        assert_eq!(held_on_media(&s.medium.inner)[leader], s.released);
        let other = 3 - leader as u32;
        assert_eq!(s.read_on(other), s.released);
    }

    #[test]
    fn reads_pinned_to_distinct_members_do_not_wait_for_each_other() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (mut group, mut client) = group_of::<Counter>(3, Quorum::Majority);
        assert_eq!(inc(&mut group, &mut client), 1);
        let port = group.read_port().unwrap();
        let op = Counter::read_op(b"n");

        // Member 0 is busy (the test holds it): a read pinned there
        // waits for it, and one pinned to member 1 must not wait too.
        let held = lock(&group.members[0].server);
        std::thread::scope(|s| {
            let serve = |wire: Vec<u8>| {
                let (tx, rx) = mpsc::channel();
                let port = &port;
                s.spawn(move || tx.send(port.serve_read(wire)).unwrap());
                rx
            };
            let on_0 = serve(client.read_for::<Counter>(&op, 0).unwrap());
            // Time for the first read to park on member 0, so that a
            // port serializing its reads would hold the second one
            // behind it; the assertions hold however long this takes.
            std::thread::sleep(Duration::from_millis(50));
            assert!(on_0.try_recv().is_err(), "member 0 is held");
            let on_1 = serve(client.retry_read(0, Some(1)).unwrap());
            let reply = on_1
                .recv_timeout(Duration::from_secs(30))
                .expect("member 1 served while member 0 was held")
                .unwrap();
            assert_eq!(fresh(client.handle_read_reply(&reply).unwrap()), 1);
            assert!(on_0.try_recv().is_err(), "member 0 is still held");

            drop(held);
            let late = on_0.recv_timeout(Duration::from_secs(30));
            assert!(late.expect("member 0 serves once released").is_ok());
        });
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
