//! The record plane of the trusted context: every sealed-record format
//! `T` emits or accepts lives in this module — the checkpoint and
//! delta it persists and replicates, the whole-context migration
//! ticket, and the slice ticket and bulletin of a live slice move.
//! Lifecycle, the invoke path, verified reads and admin stay in the
//! parent module.

use super::*;

impl<F: Functionality> TrustedContext<F> {
    /// Opens a blob of storage kind `kind` sealed under `kP` with
    /// `label`. Anything but an intact blob of that kind is tampering:
    /// the context halts. Requires `self.keys` (at least `kP`).
    fn open_sealed(&mut self, blob: &[u8], kind: u8, label: &[u8]) -> Result<Vec<u8>> {
        let opened = open_blob(&self.keys()?.aead_p, blob, kind, label);
        opened.ok_or_else(|| self.halt(Violation::BadAuthentication))
    }

    /// Restores from a kind-tagged sealed state blob: a checkpoint or
    /// a delta-log bundle. Requires `self.keys` (at least `kP`).
    /// Returns the identity of the context that sealed it.
    pub(super) fn restore_sealed_state(&mut self, state_blob: &[u8]) -> Result<ShardIdentity> {
        let (ckpt, deltas) = match state_blob.first() {
            Some(&BLOB_KIND_BUNDLE) => crate::blob::parse_bundle(state_blob)
                .ok_or_else(|| self.halt(Violation::BadAuthentication))?,
            _ => (state_blob, Vec::new()),
        };
        let plain = self.open_sealed(ckpt, BLOB_KIND_CHECKPOINT, LABEL_STATE_BLOB)?;
        let sealer = self.restore_state(&plain)?;
        if deltas.is_empty() {
            return Ok(sealer);
        }
        // `V`'s entries of the whole journal are applied at its end,
        // with one rebuild of the stability index instead of one
        // update per entry: nothing on this path reads the index.
        let mut entries = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let Some(dv) = self.apply_delta(delta)? else {
                // A journal the storage itself assembled must be one
                // unbroken chain: the host spliced records across
                // generations or reordered it.
                return Err(self.halt(Violation::BadAuthentication));
            };
            entries.push(dv);
            // The log still holds this delta: it counts toward the
            // checkpoint cadence exactly as when emitted.
            self.cadence.delta(delta.len());
        }
        self.v.replay_entries(entries);
        self.resume_from_latest();
        Ok(sealer)
    }

    /// Opens one sealed delta and replays it onto the current state —
    /// the one function behind delta-by-delta recovery *and* a
    /// follower's apply of a replication record — all but its entries
    /// of `V`, which it returns for the caller to apply: one delta's at
    /// once on the replication path, a whole journal's at its end on
    /// the recovery path. The delta applies only at the chain position
    /// it was sealed against: `Ok(None)`, with nothing mutated, when
    /// this context stands anywhere else. What that means is the
    /// caller's to say — a broken journal on the recovery path, a
    /// record delivered out of turn on the replication path. The label
    /// it opens under picks the position rule ([`tag_chained`] or not).
    fn apply_delta(&mut self, delta: &[u8]) -> Result<Option<VMap>> {
        let key = &self.keys()?.aead_p;
        let tagged = open_blob(key, delta, BLOB_KIND_DELTA, LABEL_DELTA_BLOB);
        let by_tag = tagged.is_some();
        let plain = match tagged {
            Some(plain) => plain,
            None => self.open_sealed(delta, BLOB_KIND_DELTA, LABEL_DELTA_BLOB_V1)?,
        };
        let mut r = Reader::new(&plain);
        let decoded = (|| -> std::result::Result<_, CodecError> {
            let prev = r.get_digest()?;
            let floor = SeqNo::decode(&mut r)?;
            let dv = crate::stability::decode_vmap(&mut r)?;
            let f_delta = r.get_bytes()?;
            r.finish()?;
            Ok((prev, floor, dv, f_delta))
        })();
        let (prev, floor, dv, f_delta) =
            decoded.map_err(|_| self.halt(Violation::BadAuthentication))?;
        if prev != self.persist_anchor {
            return Ok(None);
        }
        self.stable_floor = floor;
        self.f.apply_delta(f_delta)?;
        self.persist_anchor = if by_tag {
            tag_chained(&prev, delta)
        } else {
            lcm_crypto::sha256::digest_parts(&[ANCHOR_DELTA, &plain])
        };
        Ok(Some(dv))
    }

    /// Applies one record of the group's replication stream on this
    /// member — the single follower entry point of the
    /// replicated-shard design. The record's kind byte picks the path,
    /// exactly as it does for recovery from storage:
    ///
    /// * a **delta** (the leader's per-batch
    ///   [`PersistBlobs::record`]) is opened under the shared `kP` and
    ///   replayed by the function delta-by-delta recovery runs —
    ///   replication is continuous recovery. It applies only at the
    ///   chain position it was sealed against; delivered anywhere
    ///   else it is refused with [`LcmError::RecordOutOfOrder`],
    ///   **without** touching the state and **without** halting: which
    ///   record reaches which member when is host scheduling (a member
    ///   that was dead, a promotion), and a member that missed a
    ///   record is levelled with a checkpoint, not accused.
    /// * a **checkpoint or bundle** (what the leader's storage slot
    ///   holds: catch-up after a reboot or promotion, control-plane
    ///   re-seals, functionalities that do not track changes) replaces
    ///   this member's `V`, `t`, `h`, stability floor, service state
    ///   and chain position wholesale, leaving it where the sealer
    ///   stood; the member keeps its **own** replica identity
    ///   (asserting the sealer is of the same group — another shard's
    ///   state halts). The install is unconditional: a host that ships
    ///   a stale checkpoint merely produces a lagging follower (reads
    ///   answer `behind`, later deltas are refused), and a promotion
    ///   that loses an unacknowledged suffix is what clients detect as
    ///   rollback — see `lcm_core::replica`.
    ///
    /// Returns the record's last 16 bytes, the tag verified last (a
    /// bundle's last delta's): the ack the host counts toward quorum
    /// stability, only ever handed out for a record it accepted, plus
    /// what this member persists as its *own* storage dictates: the
    /// leader's sealed delta verbatim as the next record of its log or
    /// bundle (same `kP`, no identity inside, nothing to re-seal), one
    /// sealed checkpoint when its own cadence asks for one, after an
    /// install, or when the host takes no deltas. Either way it records
    /// the position the apply arrived at, and carries no key blob: keys
    /// cannot change on this path.
    ///
    /// # Errors
    ///
    /// * [`LcmError::RecordOutOfOrder`] — a delta for another
    ///   position; state unchanged, the context keeps serving.
    /// * [`LcmError::Violation`] — the record failed authentication or
    ///   names a different shard group; the context halts.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — wrong
    ///   phase.
    pub fn apply_replica(&mut self, record: &[u8]) -> Result<(aead::Tag, PersistBlobs)> {
        let (own, _) = self.require_ready()?;
        let state_blob = if record.first() == Some(&BLOB_KIND_DELTA) {
            let Some(dv) = self.apply_delta(record)? else {
                return Err(LcmError::RecordOutOfOrder);
            };
            self.v.apply_entries(dv);
            self.resume_from_latest();
            if self.cadence.allows_delta() {
                self.cadence.delta(record.len());
                record.to_vec()
            } else {
                self.seal_checkpoint(false)?
            }
        } else {
            let sealer = self.restore_sealed_state(record)?;
            if !sealer.same_group(&own) {
                // The host shipped another shard's state here.
                let epoch = self.table.epoch();
                return Err(self.halt_wrong_shard(own.index, ClientId(0), sealer.index, epoch));
            }
            self.identity = Some(own);
            self.seal_checkpoint(false)?
        };
        let blobs = PersistBlobs::state_only(state_blob, None);
        Ok((aead::tag_of(record), blobs))
    }

    /// Seals the current protocol + service state as a full checkpoint
    /// at a **fresh chain root** for the host to persist. Control-plane
    /// paths (provisioning, admin, migration, slice moves) always end
    /// here — their effects (key rotation, membership, identity) are
    /// deliberately excluded from the delta format, so no delta leads
    /// to the state they seal (see the [module docs](super#chain-position)).
    ///
    /// # Errors
    ///
    /// * [`LcmError::NotProvisioned`] when no keys are installed.
    pub fn persist_blobs(&mut self) -> Result<PersistBlobs> {
        self.seal_blobs(true)
    }

    /// The key blob and a checkpoint, in the nonce order every
    /// control-plane persist has always used.
    pub(super) fn seal_blobs(&mut self, reroot: bool) -> Result<PersistBlobs> {
        // Unprovisioned, this fails before it draws a nonce.
        self.keys()?;
        let seal_key = AeadKey::from_secret(&self.services.sealing_key());
        let nonce = self.next_nonce();
        let keys = self.keys()?;
        let key_blob = seal_message(
            &seal_key,
            &nonce,
            LABEL_KEY_BLOB,
            &[BLOB_KIND_OPAQUE],
            2 * lcm_crypto::keys::KEY_LEN,
            |w| {
                w.put_raw(keys.k_p.as_bytes());
                w.put_raw(keys.k_a.as_bytes());
            },
        )?;
        Ok(PersistBlobs {
            key_blob,
            state_blob: self.seal_checkpoint(reroot)?,
            record: None,
        })
    }

    /// Seals the whole protocol + service state as a kind-tagged
    /// checkpoint. With `reroot` the chain takes a fresh random root
    /// first; without, the checkpoint records the position the context
    /// stands at — only correct right after a delta (sealed or
    /// applied) or an install put it there (see the
    /// [module docs](super#chain-position)).
    fn seal_checkpoint(&mut self, reroot: bool) -> Result<Vec<u8>> {
        let nonce = self.next_nonce();
        if reroot {
            // The unique nonce makes the root distinct per checkpoint.
            self.persist_anchor = lcm_crypto::sha256::digest_parts(&[ANCHOR_CKPT, &nonce]);
        }

        // Reset the functionality's change tracking: the snapshot below
        // is the new baseline deltas build on.
        let _ = self.f.take_delta();
        let keys = self.keys()?;
        // The state is encoded where it is sealed; the last
        // checkpoint's size is the estimate the buffer starts from.
        let sealed = seal_message(
            &keys.aead_p,
            &nonce,
            LABEL_STATE_BLOB,
            &[BLOB_KIND_CHECKPOINT],
            self.cadence.checkpoint_len() + self.cadence.checkpoint_len() / 8,
            |w| self.encode_state(keys, w),
        )?;
        // Kind byte, nonce and tag around the plaintext.
        let plain_len = sealed.len().saturating_sub(1 + gcm::MIN_SEALED_LEN);
        self.cadence.checkpoint(plain_len);
        self.touched.clear();
        Ok(sealed)
    }

    /// The state record: the one encoding of a whole context, `(kC, V,
    /// state)` of Alg. 2 with the §4.6 extensions beside them. A
    /// checkpoint is this sealed under `kP`; a migration ticket is
    /// `kP ‖ kA ‖` this, sealed for a sibling enclave;
    /// [`TrustedContext::restore_state`] reads both.
    fn encode_state(&self, keys: &Keys, w: &mut Writer) {
        w.put_raw(keys.k_c.as_bytes());
        w.put_u64(self.admin_seq);
        self.stable_floor.encode(w);
        self.v.quorum().encode(w);
        self.identity.unwrap_or(ShardIdentity::SOLO).encode(w);
        // The routing table seals with the rest of the protocol
        // state: a rolled-back enclave thereby rolls back its table
        // too, which is exactly what future-epoch wires expose.
        self.table.encode(w);
        crate::stability::encode_vmap(self.v.map(), w);
        w.put_sized(|w| self.f.snapshot_into(w));
        w.put_digest(&self.persist_anchor);
    }

    /// Seals what changed since the last persisted blob — the stable
    /// floor, the touched clients' `V` entries (with their cached
    /// replies) and the functionality's own diff `f_delta` — as a
    /// kind-tagged delta chained from the current position, and moves
    /// the position past it by the sealed delta's tag.
    fn seal_delta(&mut self, f_delta: &[u8]) -> Result<Vec<u8>> {
        // Unprovisioned, this fails before it draws a nonce.
        self.keys()?;
        let nonce = self.next_nonce();
        let keys = self.keys()?;
        let delta = seal_message(
            &keys.aead_p,
            &nonce,
            LABEL_DELTA_BLOB,
            &[BLOB_KIND_DELTA],
            // An entry of `V` with its cached reply, per touched
            // client, beside the functionality's own diff.
            64 + 160 * self.touched.len() + f_delta.len(),
            |w| {
                w.put_digest(&self.persist_anchor);
                self.stable_floor.encode(w);
                crate::stability::encode_vmap(self.v.entries_of(&self.touched), w);
                w.put_bytes(f_delta);
            },
        )?;
        self.persist_anchor = tag_chained(&self.persist_anchor, &delta);
        self.touched.clear();
        Ok(delta)
    }

    /// The per-batch persist.
    ///
    /// A lane outside a group seals a delta when the host's storage
    /// supports it and the cadence allows, a full checkpoint otherwise
    /// (the checkpoint is also the compaction point the delta-log
    /// engine garbage-collects against). A delta carries only what a
    /// batch can change, chained from the current position. Its
    /// `key_blob` is empty: keys never change on the batch path, and
    /// the host skips the redundant store.
    ///
    /// A **group member** (`replicas > 1` in its attested identity)
    /// seals that delta for every batch, whatever its own storage is,
    /// and returns it as the [`PersistBlobs::record`] its followers
    /// apply; its own persist is the same delta, or — when the cadence
    /// asks for one or the host takes no deltas — one checkpoint
    /// recording the position the delta arrived at. A
    /// functionality that does not track changes gets the solo path:
    /// the checkpoint itself is what the group ships.
    ///
    /// # Errors
    ///
    /// * [`LcmError::NotProvisioned`] when no keys are installed.
    pub fn persist_batch_blobs(&mut self) -> Result<PersistBlobs> {
        let in_group = self.identity.is_some_and(|id| id.replicas > 1);
        let log_delta = self.cadence.allows_delta();
        if !(log_delta || in_group) {
            return self.persist_blobs();
        }
        let Some(f_delta) = self.f.take_delta() else {
            // The functionality does not track changes.
            return self.persist_blobs();
        };
        let delta = self.seal_delta(&f_delta)?;
        if log_delta {
            self.cadence.delta(delta.len());
            let record = in_group.then(|| delta.clone());
            Ok(PersistBlobs::state_only(delta, record))
        } else {
            // Cadence checkpoint inside a group.
            let checkpoint = self.seal_checkpoint(false)?;
            Ok(PersistBlobs::state_only(checkpoint, Some(delta)))
        }
    }

    /// Installs a state record ([`TrustedContext::encode_state`]) in
    /// place of whatever this context held, `kC` included, and returns
    /// the identity sealed into it. Requires `self.keys`.
    fn restore_state(&mut self, plain: &[u8]) -> Result<ShardIdentity> {
        let mut r = Reader::new(plain);
        let k_c = read_key(&mut r)?;
        let admin_seq = r.get_u64()?;
        let stable_floor = SeqNo::decode(&mut r)?;
        let quorum = Quorum::decode(&mut r)?;
        let identity = ShardIdentity::decode(&mut r)?;
        let table = SliceTable::decode(&mut r)?;
        let v = crate::stability::decode_vmap(&mut r)?;
        // Borrowed from the opened blob: the functionality decodes the
        // O(state) part straight out of it.
        let snapshot = r.get_bytes()?;
        let anchor = r.get_digest()?;
        r.finish()?;

        self.f.restore(snapshot)?;
        self.admin_seq = admin_seq;
        self.stable_floor = stable_floor;
        self.identity = Some(identity);
        self.table = table;
        self.v.replace(v, quorum);
        self.persist_anchor = anchor;
        self.cadence.checkpoint(plain.len());
        self.touched.clear();
        self.rotate_kc(k_c);
        self.resume_from_latest();
        Ok(identity)
    }

    /// `(·, t, h) ← V[argmax(V)]` of Alg. 2: the context resumes from
    /// the most recent operation recorded in `V`.
    fn resume_from_latest(&mut self) {
        (self.t, self.h) = self
            .v
            .latest()
            .map_or((SeqNo::ZERO, ChainValue::GENESIS), |e| (e.t, e.h));
    }

    /// The enclave-to-enclave channel every ticket and bulletin is
    /// sealed under (§4.6.2: the key same-program enclaves agree on).
    fn migration_channel(&self) -> Result<AeadKey> {
        let key = self.services.migration_key();
        let key = key.ok_or_else(|| LcmError::Tee("platform has no migration channel".into()))?;
        Ok(AeadKey::from_secret(&key))
    }

    /// Opens a ticket or bulletin a sibling enclave sealed under
    /// `label`; anything but an intact one is tampering and halts.
    fn open_ticket(&mut self, sealed: &[u8], label: &[u8]) -> Result<Vec<u8>> {
        let channel = self.migration_channel()?;
        aead::auth_decrypt(&channel, sealed, label)
            .map_err(|_| self.halt(Violation::BadAuthentication))
    }

    /// Exports the full context state as a migration ticket encrypted
    /// for a same-program enclave (§4.6.2), then stops serving. The
    /// ticket is `kP ‖ kA ‖` the state record a checkpoint seals — the
    /// paper's "that blob, to another platform" — so the identity and
    /// the routing table travel with it and the target takes the
    /// origin's place in the deployment.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Tee`] — no migration channel on this platform.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — wrong
    ///   phase.
    pub fn export_migration(&mut self) -> Result<Vec<u8>> {
        self.require_ready()?;
        let channel = self.migration_channel()?;
        let nonce = self.next_nonce();
        let keys = self.keys()?;
        let ticket = seal_message(
            &channel,
            &nonce,
            LABEL_MIGRATION,
            &[],
            2 * lcm_crypto::keys::KEY_LEN
                + self.cadence.checkpoint_len()
                + self.cadence.checkpoint_len() / 8,
            |w| {
                w.put_raw(keys.k_p.as_bytes());
                w.put_raw(keys.k_a.as_bytes());
                self.encode_state(keys, w);
            },
        )?;
        // "At this point, T stops processing requests" (§4.6.2).
        self.phase = Phase::Migrated;
        Ok(ticket)
    }

    /// Imports a migration ticket on the target enclave: the resume
    /// tail of [`TrustedContext::init`] with the keys and the state
    /// record taken from the ticket instead of this platform's sealed
    /// blobs, then re-sealed for this platform.
    ///
    /// With `slot = Some((replica, replicas))` the target adopts the
    /// ticket's shard slot but occupies that replica slot within the
    /// group. Replica *assignment* is the host's scheduling domain —
    /// the same migration ticket fans out to every member of a
    /// replicated target group, each importing under a different slot
    /// — while *verification* of the claimed coordinates stays with
    /// the admin's post-migration attestation (the quote user data
    /// binds whatever slot was installed here).
    ///
    /// # Errors
    ///
    /// * [`LcmError::AlreadyProvisioned`] — the target already has
    ///   state.
    /// * [`LcmError::Violation`] — the ticket failed authentication.
    /// * [`LcmError::Tee`] — no migration channel, or a slot outside
    ///   its group.
    pub fn import_migration(
        &mut self,
        ticket: &[u8],
        slot: Option<(u32, u32)>,
    ) -> Result<PersistBlobs> {
        if self.phase != Phase::AwaitingProvision {
            return Err(LcmError::AlreadyProvisioned);
        }
        if let Some((replica, replicas)) = slot.filter(|&(r, n)| r >= n) {
            return Err(LcmError::Tee(format!(
                "invalid replica override {replica}/{replicas}"
            )));
        }
        let plain = self.open_ticket(ticket, LABEL_MIGRATION)?;
        let mut r = Reader::new(&plain);
        let (k_p, k_a) = (read_key(&mut r)?, read_key(&mut r)?);
        self.keys = Some(Keys::resuming(k_p, k_a));
        let sealed_as = self.restore_state(r.get_rest())?;
        if let Some((replica, replicas)) = slot {
            self.identity = Some(sealed_as.with_replica(replica, replicas));
        }
        self.phase = Phase::Ready;
        self.persist_blobs()
    }

    /// Exports one routing slice to shard `to` while *both* shards keep
    /// running — the live half of heat-aware rebalancing, in contrast
    /// to [`TrustedContext::export_migration`] which moves a whole
    /// shard and stops it.
    ///
    /// The exporting enclave extracts the slice's partition of the
    /// service state, advances its table to the epoch-bumped assignment
    /// (so it redirects rather than executes the slice's wires from
    /// this point on — no operation on the slice runs here after the
    /// cut, so the ticket has no in-flight tail to carry), and seals
    /// two artifacts for the host to carry: a *ticket* only the
    /// adopting shard can apply — the slice, the bumped table, and the
    /// partition as a functionality delta — and a *bulletin* every
    /// bystander shard adopts. Client history (`V`) does not travel —
    /// each shard keeps its own sequence space, and clients re-pin
    /// per-shard contexts when they chase the redirect.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Tee`] — no migration channel, the slice is not
    ///   owned here, the destination is out of range, or the
    ///   functionality does not support partition extraction. The
    ///   context state is unchanged (host bugs, not attacks).
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — wrong
    ///   phase.
    pub fn export_slice(&mut self, slice: u32, to: u32) -> Result<SliceExport> {
        let (identity, _) = self.require_ready()?;
        let channel = self.migration_channel()?;
        if slice >= crate::routing::SLICE_COUNT || self.table.owner(slice) != identity.index {
            return Err(LcmError::Tee(format!(
                "shard {} does not own slice {slice}",
                identity.index
            )));
        }
        let new_table = self
            .table
            .moved(slice, to)
            .ok_or_else(|| LcmError::Tee(format!("invalid slice move {slice} -> {to}")))?;
        // Extract the slice's partition of the service state. `None`
        // means the functionality does not track partition keys — the
        // default — and nothing has been mutated yet, so the error is
        // clean.
        let partition = self
            .f
            .take_partition(&|key| slice_of(crate::routing::route_hash(key)) == slice)
            .ok_or_else(|| {
                LcmError::Tee("functionality does not support slice migration".into())
            })?;
        let table = new_table.to_bytes();
        self.table = new_table;

        let nonce = self.next_nonce();
        let ticket = seal_message(
            &channel,
            &nonce,
            LABEL_SLICE_TICKET,
            &[],
            table.len() + 8 + partition.len(),
            |w| {
                w.put_u32(slice);
                w.put_raw(&table);
                w.put_bytes(&partition);
            },
        )?;
        let nonce = self.next_nonce();
        let bulletin = seal_message(
            &channel,
            &nonce,
            LABEL_SLICE_BULLETIN,
            &[],
            table.len(),
            |w| w.put_raw(&table),
        )?;

        // Slice moves always checkpoint: the exported keys vanish from
        // this shard's state wholesale, which a dirty-set delta cannot
        // express against an arbitrary baseline.
        let blobs = self.persist_blobs()?;
        Ok(SliceExport {
            ticket,
            bulletin,
            blobs,
        })
    }

    /// A sibling's bumped table applies here only as the successor of
    /// this enclave's own, over the same shards; anything else is a
    /// stale, premature or foreign `what`, refused with nothing changed.
    fn check_successor(&self, own: ShardIdentity, table: &SliceTable, what: &str) -> Result<()> {
        if table.count() != own.count {
            return Err(LcmError::Tee(format!(
                "{what} from a different deployment shape"
            )));
        }
        if table.epoch() != self.table.epoch() + 1 {
            return Err(LcmError::Tee(format!(
                "{what} to epoch {} does not apply at epoch {}",
                table.epoch(),
                self.table.epoch()
            )));
        }
        Ok(())
    }

    /// Adopts one routing slice exported by a sibling shard via
    /// [`TrustedContext::export_slice`]: validates the sealed ticket,
    /// applies the slice's partition of the service state as the
    /// functionality delta it is, and advances to the epoch-bumped
    /// table.
    ///
    /// Replaying a ticket is harmless: once this shard sits at the
    /// bumped epoch the ticket's table no longer succeeds its own and
    /// the import is refused without any state change — which is
    /// exactly what makes crash-retry of a half-done migration safe.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — the ticket failed authentication or
    ///   assigns the slice to a different shard (a misdelivered ticket
    ///   is host misbehaviour); the context halts.
    /// * [`LcmError::Tee`] — epoch mismatch (stale or premature
    ///   ticket) or a deployment-shape mismatch; state unchanged.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — wrong
    ///   phase.
    pub fn import_slice(&mut self, ticket: &[u8]) -> Result<PersistBlobs> {
        let (identity, _) = self.require_ready()?;
        let plain = self.open_ticket(ticket, LABEL_SLICE_TICKET)?;
        let mut r = Reader::new(&plain);
        let decoded = (|| -> std::result::Result<_, CodecError> {
            let slice = r.get_u32()?;
            let table = SliceTable::decode(&mut r)?;
            let partition = r.get_bytes()?;
            r.finish()?;
            Ok((slice, table, partition))
        })();
        let (slice, table, partition) =
            decoded.map_err(|_| self.halt(Violation::BadAuthentication))?;
        let (to, here) = (table.owner(slice), identity.index);
        if to != here {
            // An intact ticket delivered to the wrong shard: the host
            // redirected it, exactly like a misdelivered wire.
            return Err(self.halt_wrong_shard(here, ClientId(0), to, table.epoch()));
        }
        self.check_successor(identity, &table, "slice ticket")?;
        self.f.apply_delta(partition)?;
        self.table = table;
        self.persist_blobs()
    }

    /// Adopts an epoch-bumped slice table announced by a sibling's
    /// [`TrustedContext::export_slice`] bulletin, so this bystander
    /// shard judges wires against the same routing epoch as the pair
    /// that moved the slice. A bulletin at or below the current epoch
    /// is a harmless replay and changes nothing.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — the bulletin failed authentication;
    ///   the context halts.
    /// * [`LcmError::Tee`] — the bulletin skips epochs or names a
    ///   different deployment shape; state unchanged.
    /// * [`LcmError::NotProvisioned`] / [`LcmError::Halted`] — wrong
    ///   phase.
    pub fn adopt_table(&mut self, bulletin: &[u8]) -> Result<PersistBlobs> {
        let (identity, _) = self.require_ready()?;
        let plain = self.open_ticket(bulletin, LABEL_SLICE_BULLETIN)?;
        let table =
            SliceTable::from_bytes(&plain).map_err(|_| self.halt(Violation::BadAuthentication))?;
        if table.epoch() <= self.table.epoch() {
            return self.persist_blobs();
        }
        self.check_successor(identity, &table, "slice-table bulletin")?;
        self.table = table;
        self.persist_blobs()
    }
}

/// The position a delta sealed under [`LABEL_DELTA_BLOB`] at `prev`
/// moves to: `H("lcm.delta-tag-chain" ‖ prev ‖ nonce ‖ tag)` over its
/// sealed bytes, a fixed 79 bytes however large the delta.
fn tag_chained(prev: &Digest, sealed: &[u8]) -> Digest {
    let nonce = sealed.get(1..1 + gcm::NONCE_LEN).unwrap_or_default();
    let tag = aead::tag_of(sealed);
    lcm_crypto::sha256::digest_parts(&[ANCHOR_DELTA_TAG, prev.as_bytes(), nonce, &tag])
}

#[cfg(test)]
mod tests {
    use super::super::tests::{invoke, provisioned_context, world};
    use super::*;
    use crate::stability::encode_vmap;

    /// A delta carries of `V` exactly the bytes `encode_vmap` writes
    /// for a map of clones of the touched entries — written straight
    /// from `V`, in client order whatever the order of execution,
    /// once per client however often it ran, and without the entry of
    /// a touched client no longer in `V`.
    #[test]
    fn a_delta_encodes_the_touched_entries_as_encode_vmap_of_their_clones() {
        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        let first = invoke(&mut ctx, 3, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"b").unwrap();
        invoke(&mut ctx, 3, first.t, first.h, b"c").unwrap();
        invoke(&mut ctx, 2, SeqNo::ZERO, ChainValue::GENESIS, b"d").unwrap();
        assert_eq!(ctx.touched, [ClientId(1), ClientId(2), ClientId(3)]);
        assert!(ctx.v.remove_member(ClientId(2)));

        let clones: VMap = [ClientId(1), ClientId(3)]
            .iter()
            .map(|c| (*c, ctx.v.map()[c].clone()))
            .collect();
        let mut want = Writer::new();
        encode_vmap(&clones, &mut want);

        let delta = ctx.seal_delta(b"f-delta").unwrap();
        assert!(ctx.touched.is_empty());
        let plain = ctx
            .open_sealed(&delta, BLOB_KIND_DELTA, LABEL_DELTA_BLOB)
            .unwrap();
        // prev anchor (32) ‖ stable floor (8) ‖ V entries ‖ F's delta
        let entries = &plain[40..plain.len() - (4 + b"f-delta".len())];
        assert_eq!(entries, want.as_slice());
    }

    /// The tag rule's golden vector: a delta moves the position to
    /// `SHA-256("lcm.delta-tag-chain" ‖ prev ‖ nonce ‖ tag)` of its
    /// sealed bytes alone — 79 bytes in, no key, no plaintext, the body
    /// not at all — and that is where sealing one leaves the context.
    #[test]
    fn a_delta_s_position_is_the_hash_of_prev_its_nonce_and_its_tag() {
        let mut sealed = vec![BLOB_KIND_DELTA];
        sealed.extend((0u8..12).chain([0xee; 40]).chain(100u8..116));
        let prev = Digest([0x11; 32]);
        // Computed apart from this code (Python's `hashlib.sha256`).
        let want = "8ec6cb0f11e526fb4a0fdb05872b106ac3d502dfc0bc1b0fc6676c4280c205b8";
        assert_eq!(tag_chained(&prev, &sealed).to_hex(), want);
        sealed[20] ^= 1;
        assert_eq!(tag_chained(&prev, &sealed).to_hex(), want);

        let world = world();
        let (mut ctx, _) = provisioned_context(&world);
        invoke(&mut ctx, 1, SeqNo::ZERO, ChainValue::GENESIS, b"a").unwrap();
        let prev = ctx.persist_anchor;
        let delta = ctx.seal_delta(b"f-delta").unwrap();
        let tag = &delta[delta.len() - 16..];
        let input = [ANCHOR_DELTA_TAG, prev.as_bytes(), &delta[1..13], tag].concat();
        assert_eq!(input.len(), 79);
        assert_eq!(ctx.persist_anchor, lcm_crypto::sha256::digest(&input));
        let pinned = "a5a03ec687e498326529da896bb618042464f5b2afcf34735f62d9fbe5a3b6c6";
        assert_eq!(ctx.persist_anchor.to_hex(), pinned);
    }
}
