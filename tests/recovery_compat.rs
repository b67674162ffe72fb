//! Media written before the checksum kernel, the one-copy reboot path
//! and the move of `kP` to AES-128-GCM still open, load and replay —
//! and the same inputs still put the same bytes on the medium.
//!
//! `fixtures/medium_c61ba9d.txt` holds every slot of two media as
//! commit `c61ba9d` wrote them (recorded by running [`write_medium`]
//! in a clone of that commit): a delta log with a small segment size —
//! manifest, both checkpoint parities, sealed segments, a journal head
//! — and the one-slot `checkpoint ‖ deltas` bundle a plain store got
//! from the adapter servers had before every lane had an engine
//! ([`bundle_medium`] composes it now). Its checkpoints and deltas are sealed with
//! ChaCha20-Poly1305, so the read tests below open them through
//! `AtRestKey`'s fallback. `fixtures/medium_gcm.txt` is the same two
//! media as the first code that sealed `kP` with AES-128-GCM wrote
//! them, its deltas under the AAD label `lcm.delta` and chained by
//! their plaintext hash; `fixtures/medium_tag_chain.txt` is what the
//! tag rule wrote, deltas under `lcm.delta.2` chained by their tags. On
//! both, every slot, length, kind byte and nonce is c61ba9d's, and only
//! ciphertexts, tags and the checksums over them differ.
//! `fixtures/medium_free_list.txt` is what this code writes: the delta
//! log frees superseded segments and reuses them instead of clearing
//! them, so the same blobs sit in the tag-chain medium's live segments
//! renumbered from 0, and only the manifests differ besides. The
//! enclave is a bare `TrustedContext` on deterministic services, so
//! every sealed byte is reproducible.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lcm::core::client::LcmClient;
use lcm::core::codec::WireCodec;
use lcm::core::context::{
    InitOutcome, PersistBlobs, Phase, ProvisionPayload, ShardIdentity, TrustedContext,
    LABEL_DELTA_BLOB, LABEL_DELTA_BLOB_V1, LABEL_PROVISION, LABEL_STATE_BLOB,
};
use lcm::core::program::lcm_measurement;
use lcm::core::server::{SLOT_KEY_BLOB, SLOT_STATE_BLOB};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::LcmError;
use lcm::crypto::aead::{self, AeadKey, AtRestKey, OpenKey};
use lcm::crypto::gcm::{self, GcmKey};
use lcm::crypto::keys::SecretKey;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{
    framing, make_bundle, parse_bundle, DeltaLogConfig, DeltaLogStorage, StableStorage,
    StorageError, BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA,
};
use lcm::tee::platform::{TeePlatform, TeeServices};
use lcm::tee::world::TeeWorld;

const FIXTURE: &str = include_str!("fixtures/medium_c61ba9d.txt");
const GCM_FIXTURE: &str = include_str!("fixtures/medium_gcm.txt");
const TAG_CHAIN_FIXTURE: &str = include_str!("fixtures/medium_tag_chain.txt");
const FREE_LIST_FIXTURE: &str = include_str!("fixtures/medium_free_list.txt");

/// A plain store whose slots can be listed.
#[derive(Default)]
struct Medium(Mutex<BTreeMap<String, Vec<u8>>>);

impl StableStorage for Medium {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().insert(slot.into(), blob.to_vec());
        Ok(())
    }
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.0.lock().unwrap().get(slot).cloned())
    }
}

impl Medium {
    /// `<name>/<slot> <hex>` per slot, in slot order.
    fn dump(&self, name: &str) -> String {
        let slots = self.0.lock().unwrap();
        let line = |(slot, blob): (&String, &Vec<u8>)| {
            let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
            format!("{name}/{slot} {hex}\n")
        };
        slots.iter().map(line).collect()
    }

    /// The medium `name` of the c61ba9d fixture.
    fn recorded(name: &str) -> Medium {
        Medium::from_fixture(FIXTURE, name)
    }

    /// The medium `name` of `fixture`.
    fn from_fixture(fixture: &'static str, name: &str) -> Medium {
        let medium = Medium::default();
        for (slot, blob) in slots(fixture) {
            if let Some(slot) = slot.strip_prefix(name).and_then(|s| s.strip_prefix('/')) {
                medium.store(slot, &blob).unwrap();
            }
        }
        medium
    }
}

/// Every `<medium>/<slot>` of a fixture with its bytes, in fixture
/// order.
fn slots(fixture: &'static str) -> Vec<(&'static str, Vec<u8>)> {
    fixture
        .lines()
        .map(|line| {
            let (slot, hex) = line.split_once(' ').expect("slot, space, hex");
            let blob = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            (slot, blob)
        })
        .collect()
}

fn platform() -> TeePlatform {
    TeeWorld::new_deterministic(77).platform_deterministic(1)
}

fn context(rng_seed: u64) -> TrustedContext<KvStore> {
    TrustedContext::new(TeeServices::for_tests(
        platform(),
        lcm_measurement(),
        rng_seed,
    ))
}

fn persist(storage: &dyn StableStorage, blobs: &PersistBlobs) {
    storage.store(SLOT_STATE_BLOB, &blobs.state_blob).unwrap();
    if !blobs.key_blob.is_empty() {
        storage.store(SLOT_KEY_BLOB, &blobs.key_blob).unwrap();
    }
}

/// The recorded schedule: provision, then 40 one-operation batches —
/// enough sealed delta bytes to cross the checkpoint cadence twice, so
/// the delta log alternates parities, seals segments and collects some.
/// Returns the context and the client as they stand after the last
/// batch.
fn write_medium(storage: &dyn StableStorage) -> (TrustedContext<KvStore>, LcmClient) {
    let mut ctx = context(5);
    assert_eq!(
        ctx.init(None, None, true).unwrap(),
        InitOutcome::NeedProvision
    );
    let k_c = SecretKey::from_bytes([0xc2; 32]);
    let payload = ProvisionPayload {
        k_p: SecretKey::from_bytes([0xc1; 32]),
        k_c: k_c.clone(),
        k_a: SecretKey::from_bytes([0xc3; 32]),
        clients: vec![ClientId(1)],
        quorum: Quorum::Majority,
        identity: ShardIdentity::SOLO,
    };
    let world = TeeWorld::new_deterministic(77);
    let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
    let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
    persist(storage, &ctx.provision(&sealed).unwrap());

    let mut client = LcmClient::new(ClientId(1), &k_c);
    for i in 0..40u32 {
        let key = format!("key-{:02}", i % 12).into_bytes();
        let op = match i % 7 {
            6 => KvOp::Del(key),
            _ => KvOp::Put(key, vec![i as u8; 150 + (i as usize % 5) * 40]),
        };
        let wire = client.invoke(&op.to_bytes()).unwrap();
        let (_, reply) = ctx.handle_invoke(&wire).unwrap();
        persist(storage, &ctx.persist_batch_blobs().unwrap());
        client.handle_reply(&reply).unwrap();
    }
    (ctx, client)
}

fn delta_log(medium: Arc<Medium>) -> DeltaLogStorage {
    let config = DeltaLogConfig {
        segment_bytes: 1024,
    };
    DeltaLogStorage::with_config(medium, config).unwrap()
}

/// A fresh enclave on the same platform, recovered from what `storage`
/// loads.
fn reboot(storage: &dyn StableStorage) -> TrustedContext<KvStore> {
    let key_blob = storage.load(SLOT_KEY_BLOB).unwrap().unwrap();
    let state_blob = storage.load(SLOT_STATE_BLOB).unwrap().unwrap();
    let mut ctx = context(6);
    let outcome = ctx.init(Some(&key_blob), Some(&state_blob), true);
    assert_eq!(outcome.unwrap(), InitOutcome::Resumed);
    ctx
}

#[test]
fn the_same_inputs_put_the_recorded_bytes_on_both_media() {
    let dlog = Arc::new(Medium::default());
    write_medium(&delta_log(dlog.clone()));
    let written = dlog.dump("dlog") + &bundle_medium().0.dump("bundle");
    // Not `assert_eq!`: two 20 kB hex dumps help nobody.
    for (n, (ours, theirs)) in written.lines().zip(FREE_LIST_FIXTURE.lines()).enumerate() {
        let slot = ours.split(' ').next().unwrap();
        assert!(
            ours == theirs,
            "line {n} ({slot}) differs from the recorded one"
        );
    }
    assert_eq!(written.lines().count(), FREE_LIST_FIXTURE.lines().count());
}

/// Reusing segments moves records, never changes one: the free-list
/// recording holds the tag-chain recording's non-empty segments in
/// order (renumbered from 0, the cleared ones gone) and every other
/// slot but the two manifests byte for byte.
#[test]
fn the_free_list_medium_holds_the_tag_chain_medium_s_blobs_with_its_segments_renumbered() {
    let (ours, theirs) = (slots(FREE_LIST_FIXTURE), slots(TAG_CHAIN_FIXTURE));
    let is_segment = |slot: &str| slot.starts_with("dlog/dlog.seg.");
    let segments = |media: &[(&str, Vec<u8>)]| -> Vec<Vec<u8>> {
        media
            .iter()
            .filter(|(slot, blob)| is_segment(slot) && !blob.is_empty())
            .map(|(_, blob)| blob.clone())
            .collect()
    };
    let rest = |media: &[(&'static str, Vec<u8>)]| -> Vec<(&'static str, Vec<u8>)> {
        media
            .iter()
            .filter(|(slot, _)| !is_segment(slot) && !slot.starts_with("dlog/dlog.meta."))
            .cloned()
            .collect()
    };
    assert_eq!(segments(&ours).len(), 7);
    assert_eq!(segments(&ours), segments(&theirs));
    assert_eq!(ours.iter().filter(|(slot, _)| is_segment(slot)).count(), 7);
    assert_eq!(rest(&ours), rest(&theirs));
}

/// Every blob a store records, in order: what the enclave sealed.
#[derive(Default)]
struct Sealed(Mutex<Vec<Vec<u8>>>);

impl StableStorage for Sealed {
    fn store(&self, _slot: &str, blob: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().push(blob.to_vec());
        Ok(())
    }
    fn load(&self, _slot: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(None)
    }
}

/// Every blob a store is handed, with its slot, in order.
#[derive(Default)]
struct Recording(Mutex<Vec<(String, Vec<u8>)>>);

impl StableStorage for Recording {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().push((slot.into(), blob.to_vec()));
        Ok(())
    }
    fn load(&self, _slot: &str) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(None)
    }
}

/// The one-slot medium of the recorded schedule, as servers before the
/// engine left a plain store: the key blob, and the last checkpoint
/// with the deltas after it in one `checkpoint ‖ deltas` bundle
/// ([`make_bundle`]; the checkpoint bare when none follows). Returns
/// the client as it stands after the last batch.
fn bundle_medium() -> (Medium, LcmClient) {
    let recording = Recording::default();
    let (_, client) = write_medium(&recording);
    let medium = Medium::default();
    let mut state: Vec<Vec<u8>> = Vec::new();
    for (slot, blob) in recording.0.into_inner().unwrap() {
        match (&slot[..], blob[0]) {
            (SLOT_STATE_BLOB, BLOB_KIND_DELTA) => state.push(blob),
            (SLOT_STATE_BLOB, _) => state = vec![blob],
            _ => medium.store(&slot, &blob).unwrap(),
        }
    }
    let (checkpoint, deltas) = state.split_first().unwrap();
    let slot = match deltas {
        [] => checkpoint.clone(),
        _ => make_bundle(checkpoint, deltas.iter().map(Vec::as_slice)),
    };
    medium.store(SLOT_STATE_BLOB, &slot).unwrap();
    (medium, client)
}

/// Whether `at` is the checksum field of a frame of `slot`: the four
/// bytes after a big-endian payload length, holding the CRC-32 of the
/// payload that follows them.
fn is_frame_checksum(slot: &[u8], at: usize) -> bool {
    let (Some(len), Some(crc)) = (slot.get(at.wrapping_sub(4)..at), slot.get(at..at + 4)) else {
        return false;
    };
    let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
    slot.get(at + 4..at + 4 + len)
        .is_some_and(|payload| framing::crc32(payload).to_be_bytes() == crc)
}

/// The move of `kP` to AES-128-GCM changed the cipher and nothing
/// else: against c61ba9d's media, every slot name, slot length, kind
/// byte and nonce is the same, and every byte that differs lies in the
/// ciphertext or tag of a sealed checkpoint or delta, or in a frame
/// checksum that is right over its payload on both media.
#[test]
fn the_recorded_media_differ_from_c61ba9d_s_in_ciphertexts_tags_and_checksums_only() {
    let sealed = Sealed::default();
    write_medium(&sealed);
    let sealed = sealed.0.into_inner().unwrap();
    let (ours, theirs) = (slots(TAG_CHAIN_FIXTURE), slots(FIXTURE));
    let names = |media: &[(&'static str, Vec<u8>)]| media.iter().map(|m| m.0).collect::<Vec<_>>();
    assert_eq!(names(&ours), names(&theirs));
    let (mut in_blobs, mut in_checksums, mut blobs_found) = (0, 0, 0);
    for ((name, ours), (_, theirs)) in ours.iter().zip(&theirs) {
        assert_eq!(ours.len(), theirs.len(), "{name}");
        // Where each checkpoint and delta the enclave sealed lies in
        // this slot, by its whole bytes.
        let mut in_blob = vec![false; ours.len()];
        let state_blobs = sealed
            .iter()
            .filter(|b| matches!(b[0], BLOB_KIND_CHECKPOINT | BLOB_KIND_DELTA));
        for blob in state_blobs {
            let Some(at) = ours.windows(blob.len()).position(|w| w == &blob[..]) else {
                continue;
            };
            blobs_found += 1;
            let prefix = 1 + gcm::NONCE_LEN;
            assert_eq!(
                ours[at..at + prefix],
                theirs[at..at + prefix],
                "{name}: the kind byte and nonce at {at}"
            );
            in_blob[at + prefix..at + blob.len()].fill(true);
        }
        for at in (0..ours.len()).filter(|&at| ours[at] != theirs[at]) {
            if in_blob[at] {
                in_blobs += 1;
                continue;
            }
            let in_checksum = (at.saturating_sub(3)..=at)
                .any(|f| is_frame_checksum(ours, f) && is_frame_checksum(theirs, f));
            assert!(
                in_checksum,
                "{name}: byte {at} is neither sealed nor a checksum"
            );
            in_checksums += 1;
        }
    }
    // The comparison saw sealed bytes and checksums change: both media
    // hold GCM blobs where c61ba9d's hold ChaCha20-Poly1305 ones.
    assert!(blobs_found > 10, "{blobs_found} sealed blobs located");
    assert!(
        in_blobs > 1000 && in_checksums > 10,
        "{in_blobs} / {in_checksums}"
    );
}

/// The upgrade boundary. An enclave boots over c61ba9d's delta log —
/// a ChaCha20-Poly1305 checkpoint and deltas — and seals AES-128-GCM
/// deltas that chain onto them in the same journal; its next lifetime
/// replays both ciphers in one pass and serves the writer, who sees no
/// rollback.
#[test]
fn gcm_deltas_chain_onto_a_chacha20_poly1305_medium_and_the_lane_replays_and_serves() {
    let medium = Arc::new(Medium::recorded("dlog"));
    let (_, mut client) = write_medium(&Medium::default());
    let engine = delta_log(medium.clone());
    let mut ctx = reboot(&engine);
    for i in 0..3u8 {
        let put = KvOp::Put(format!("upgraded-{i}").into_bytes(), vec![i; 64]);
        let wire = client.invoke(&put.to_bytes()).unwrap();
        let (_, reply) = ctx.handle_invoke(&wire).unwrap();
        let blobs = ctx.persist_batch_blobs().unwrap();
        assert_eq!(blobs.state_blob[0], BLOB_KIND_DELTA, "batch {i}");
        persist(&engine, &blobs);
        client.handle_reply(&reply).unwrap();
    }
    drop((ctx, engine));

    // One journal, two ciphers: the recorded checkpoint opens only
    // under ChaCha20-Poly1305, the three new deltas only under GCM.
    let engine = delta_log(medium);
    let bundle = engine.load(SLOT_STATE_BLOB).unwrap().unwrap();
    let (checkpoint, deltas) = parse_bundle(&bundle).unwrap();
    let k_p = SecretKey::from_bytes([0xc1; 32]);
    let (chacha, aes) = (AeadKey::from_secret(&k_p), GcmKey::from_secret(&k_p));
    assert!(aead::auth_decrypt(&chacha, &checkpoint[1..], LABEL_STATE_BLOB).is_ok());
    assert!(gcm::auth_decrypt(&aes, &checkpoint[1..], LABEL_STATE_BLOB).is_err());
    let (older, newer) = deltas.split_at(deltas.len() - 3);
    assert!(!older.is_empty());
    for delta in newer {
        assert!(gcm::auth_decrypt(&aes, &delta[1..], LABEL_DELTA_BLOB).is_ok());
        assert!(aead::auth_decrypt(&chacha, &delta[1..], LABEL_DELTA_BLOB).is_err());
    }
    assert!(older
        .iter()
        .all(|d| aead::auth_decrypt(&chacha, &d[1..], LABEL_DELTA_BLOB_V1).is_ok()));
    let at_rest = AtRestKey::from_secret(&k_p);
    for (n, blob) in deltas.iter().chain([&checkpoint]).enumerate() {
        let label = match blob[0] {
            BLOB_KIND_CHECKPOINT => LABEL_STATE_BLOB,
            _ if n < older.len() => LABEL_DELTA_BLOB_V1,
            _ => LABEL_DELTA_BLOB,
        };
        assert!(at_rest.auth_decrypt(&blob[1..], label).is_ok());
    }

    let mut recovered = reboot(&engine);
    for i in 0..3u8 {
        let key = format!("upgraded-{i}").into_bytes();
        assert_eq!(recovered.functionality().get(&key), Some(&[i; 64][..]));
    }
    let get = KvOp::Get(b"upgraded-2".to_vec()).to_bytes();
    let wire = client.invoke(&get).unwrap();
    let (_, reply) = recovered.handle_invoke(&wire).unwrap();
    client.handle_reply(&reply).unwrap();
}

/// The media written before positions were chained by tag: a delta
/// log whose GCM deltas are sealed under `lcm.delta` and chained by
/// their plaintext hash. A lane boots from it, replays every delta,
/// and serves a verified `Put` whose delta — sealed under
/// `lcm.delta.2`, chained by its tag — extends the old chain in the
/// same journal; the next lifetime replays both rules in one pass.
#[test]
fn a_plaintext_chained_gcm_delta_log_replays_and_serves_a_verified_put() {
    let medium = Arc::new(Medium::from_fixture(GCM_FIXTURE, "dlog"));
    let engine = delta_log(medium.clone());
    let bundle = engine.load(SLOT_STATE_BLOB).unwrap().unwrap();
    let (_, deltas) = parse_bundle(&bundle).expect("checkpoint ‖ deltas");
    let aes = GcmKey::from_secret(&SecretKey::from_bytes([0xc1; 32]));
    assert!(deltas.len() > 3, "{} deltas", deltas.len());
    for delta in &deltas {
        assert!(gcm::auth_decrypt(&aes, &delta[1..], LABEL_DELTA_BLOB_V1).is_ok());
        assert!(gcm::auth_decrypt(&aes, &delta[1..], LABEL_DELTA_BLOB).is_err());
    }

    let (expected, mut client) = write_medium(&Medium::default());
    let mut ctx = reboot(&engine);
    assert_eq!(ctx.functionality(), expected.functionality());
    let put = KvOp::Put(b"after-the-relabel".to_vec(), b"tag-chained".to_vec());
    let wire = client.invoke(&put.to_bytes()).unwrap();
    let (_, reply) = ctx.handle_invoke(&wire).unwrap();
    let blobs = ctx.persist_batch_blobs().unwrap();
    assert_eq!(blobs.state_blob[0], BLOB_KIND_DELTA);
    assert!(gcm::auth_decrypt(&aes, &blobs.state_blob[1..], LABEL_DELTA_BLOB).is_ok());
    persist(&engine, &blobs);
    client.handle_reply(&reply).unwrap();
    drop((ctx, engine));

    let mut recovered = reboot(&delta_log(medium));
    assert_eq!(
        recovered.functionality().get(b"after-the-relabel"),
        Some(&b"tag-chained"[..])
    );
    let wire = client
        .invoke(&KvOp::Get(b"after-the-relabel".to_vec()).to_bytes())
        .unwrap();
    let (_, reply) = recovered.handle_invoke(&wire).unwrap();
    client.handle_reply(&reply).unwrap();
}

#[test]
fn a_delta_log_written_by_the_parent_opens_loads_and_replays() {
    let medium = Arc::new(Medium::recorded("dlog"));
    let slots: Vec<String> = medium.0.lock().unwrap().keys().cloned().collect();
    // What the schedule is there to produce: the fixture is not a
    // trivial log.
    for needed in ["dlog.ckpt.0.", "dlog.ckpt.1.", "dlog.seg.", "dlog.meta."] {
        assert!(
            slots.iter().any(|s| s.starts_with(needed)),
            "{needed}* missing from {slots:?}"
        );
    }
    let engine = delta_log(medium.clone());
    let bundle = engine.load(SLOT_STATE_BLOB).unwrap().unwrap();
    let (_, deltas) = parse_bundle(&bundle).expect("checkpoint ‖ deltas");
    assert!(!deltas.is_empty());

    let (expected, _) = write_medium(&Medium::default());
    let recovered = reboot(&engine);
    assert_eq!(recovered.functionality(), expected.functionality());
    assert!(recovered.functionality().len() > 6);
    // Opening and loading wrote nothing.
    assert_eq!(medium.dump("dlog"), Medium::recorded("dlog").dump("dlog"));
}

#[test]
fn a_bundle_slot_written_by_the_parent_loads_and_replays() {
    let medium = Arc::new(Medium::recorded("bundle"));
    let engine = DeltaLogStorage::open(medium.clone()).unwrap();
    let bundle = engine.load(SLOT_STATE_BLOB).unwrap().unwrap();
    assert_eq!(bundle, medium.load(SLOT_STATE_BLOB).unwrap().unwrap());
    let (_, deltas) = parse_bundle(&bundle).expect("checkpoint ‖ deltas");
    assert!(!deltas.is_empty());

    let (expected, _) = write_medium(&Medium::default());
    let recovered = reboot(&engine);
    assert_eq!(recovered.functionality(), expected.functionality());
}

/// Recovery replays delta by delta, so when the second delta of a
/// bundle is refused the first has already been applied — to a context
/// that is halted in the same call and never answers again: not a
/// write, not a read leg.
#[test]
fn a_bundle_whose_second_delta_fails_authentication_halts_before_anything_is_served() {
    let (plain, mut client) = bundle_medium();
    let key_blob = plain.load(SLOT_KEY_BLOB).unwrap().unwrap();
    let bundle = plain.load(SLOT_STATE_BLOB).unwrap().unwrap();
    let (checkpoint, deltas) = parse_bundle(&bundle).unwrap();
    assert!(deltas.len() >= 3);

    // The first delta alone is a state the enclave restores…
    let first_only = make_bundle(checkpoint, deltas[..1].iter().copied());
    let mut ctx = context(6);
    ctx.init(Some(&key_blob), Some(&first_only), true).unwrap();
    assert_eq!(ctx.phase(), Phase::Ready);

    // …and with one ciphertext bit of the second flipped — in frames
    // whose checksums are right, so only the seal can tell — nothing is.
    let mut second = deltas[1].to_vec();
    let middle = second.len() / 2;
    second[middle] ^= 0x01;
    let mut tampered: Vec<&[u8]> = deltas.clone();
    tampered[1] = &second;
    let tampered = make_bundle(checkpoint, tampered.into_iter());
    assert!(parse_bundle(&tampered).is_some(), "the frames are intact");
    let mut ctx = context(6);
    let refused = ctx.init(Some(&key_blob), Some(&tampered), true);
    assert!(
        matches!(refused, Err(LcmError::Violation(_))),
        "{refused:?}"
    );
    assert_eq!(ctx.phase(), Phase::Halted);
    let get = KvOp::Get(b"key-00".to_vec()).to_bytes();
    let leg = client.read_for::<KvStore>(&get, 0).unwrap();
    assert_eq!(ctx.serve_read(&leg), Err(LcmError::Halted));
    client.cancel_read(0);
    let wire = client.invoke(&get).unwrap();
    assert_eq!(ctx.handle_invoke(&wire), Err(LcmError::Halted));
}

/// A plain medium that a deployment wrote before it got a delta log —
/// the one-slot bundle — loads through the engine unchanged, and the
/// first write after that survives the next reboot: the engine adopts
/// the bundle before it acknowledges a delta that extends it. (The
/// first persist after a restore is a delta: the checkpoint cadence
/// counts the restored state.)
#[test]
fn the_first_write_after_a_plain_medium_gets_a_delta_log_survives_a_reboot() {
    let medium = Arc::new(Medium::recorded("bundle"));
    let (_, mut client) = write_medium(&Medium::default());
    let engine = delta_log(medium.clone());
    let mut ctx = reboot(&engine);
    let put = KvOp::Put(b"after-the-switch".to_vec(), b"kept".to_vec());
    let wire = client.invoke(&put.to_bytes()).unwrap();
    let (_, reply) = ctx.handle_invoke(&wire).unwrap();
    let blobs = ctx.persist_batch_blobs().unwrap();
    assert_eq!(blobs.state_blob[0], BLOB_KIND_DELTA);
    persist(&engine, &blobs);
    client.handle_reply(&reply).unwrap();
    drop(engine);

    let mut recovered = reboot(&delta_log(medium));
    assert_eq!(
        recovered.functionality().get(b"after-the-switch"),
        Some(&b"kept"[..])
    );
    // The writer's next operation finds its write: no false rollback.
    let wire = client
        .invoke(&KvOp::Get(b"key-00".to_vec()).to_bytes())
        .unwrap();
    let (_, reply) = recovered.handle_invoke(&wire).unwrap();
    client.handle_reply(&reply).unwrap();
}
