//! Packaging of the trusted context as an enclave program, plus the
//! host-call ABI, re-exported whole from [`lcm_trusted::program`],
//! where it lives with the rest of the code the enclave runs. The
//! tests here drive it with the host's client and read its answers the
//! way the host does.

pub use lcm_trusted::program::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LcmClient;
    use crate::codec::{WireCodec, Writer};
    use crate::context::PersistBlobs;
    use crate::server::{batch_replies, read_reply_into, reply_into, WIRE_KEEP_MAX};
    use crate::types::ClientId;
    use crate::LcmError;

    /// A started `Counter` enclave provisioned as `identity` for
    /// clients 1 and 2, and those clients.
    fn provisioned_counter(
        identity: crate::context::ShardIdentity,
        want_deltas: bool,
    ) -> (
        lcm_tee::enclave::Enclave<LcmProgram<crate::functionality::Counter>>,
        Vec<LcmClient>,
    ) {
        use crate::context::{ProvisionPayload, LABEL_PROVISION};
        use crate::functionality::Counter;
        use lcm_crypto::aead::{self, AeadKey};
        use lcm_crypto::keys::SecretKey;
        use lcm_tee::world::TeeWorld;

        let world = TeeWorld::new_deterministic(2);
        let platform = world.platform_deterministic(1);
        let mut enclave = lcm_tee::enclave::Enclave::<LcmProgram<Counter>>::create(&platform);
        enclave.start().unwrap();
        let mut call = |call: HostCall| {
            HostReply::from_bytes(&enclave.ecall(&call.to_bytes()).unwrap()).unwrap()
        };
        call(HostCall::Init {
            key_blob: None,
            state_blob: None,
            want_deltas,
        });
        let k_c = SecretKey::from_bytes([2u8; 32]);
        let clients = vec![ClientId(1), ClientId(2)];
        let payload = ProvisionPayload {
            k_p: SecretKey::from_bytes([1u8; 32]),
            k_c: k_c.clone(),
            k_a: SecretKey::from_bytes([3u8; 32]),
            clients: clients.clone(),
            quorum: crate::stability::Quorum::Majority,
            identity,
        };
        let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        assert!(matches!(
            call(HostCall::Provision(sealed)),
            HostReply::ProvisionOk(PersistBlobs { record: None, .. })
        ));
        let clients = clients.iter().map(|&id| LcmClient::new(id, &k_c)).collect();
        (enclave, clients)
    }

    /// What `BatchOk` carries for one batch of one `Counter` increment
    /// on an enclave provisioned as `identity`: `(state blob kind,
    /// record)`.
    fn batch_ok_for(
        identity: crate::context::ShardIdentity,
        want_deltas: bool,
    ) -> (u8, Option<Vec<u8>>) {
        use crate::functionality::Counter;
        let (mut enclave, mut clients) = provisioned_counter(identity, want_deltas);
        let wire = clients[0].invoke(&Counter::inc_op(b"n", 1)).unwrap();
        let call = HostCall::InvokeBatch(vec![wire]).to_bytes();
        match HostReply::from_bytes(&enclave.ecall(&call).unwrap()).unwrap() {
            HostReply::BatchOk { blobs, .. } => (blobs.state_blob[0], blobs.record),
            other => panic!("expected BatchOk, got {other:?}"),
        }
    }

    /// The host's reading of a batch reply: reply *i* in wire *i*, and
    /// anything but a reply to exactly these wires an error that
    /// consumes them — a miscounted reply either way, a reply cut off
    /// anywhere, an error reply — never a panic.
    #[test]
    fn a_batch_reply_is_read_into_its_wires_or_refused() {
        use crate::functionality::Counter;
        let (mut enclave, mut clients) =
            provisioned_counter(crate::context::ShardIdentity::SOLO, true);
        let wires: Vec<Vec<u8>> = clients
            .iter_mut()
            .map(|c| c.invoke(&Counter::inc_op(b"n", 1)).unwrap())
            .collect();
        let mut call = Writer::new();
        HostCall::encode_invoke_batch_into(&mut call, &wires);
        let out = enclave.ecall(call.as_slice()).unwrap();

        // The owned decoder and the in-place reading agree.
        let HostReply::BatchOk { replies, blobs } = HostReply::from_bytes(&out).unwrap() else {
            panic!("expected a batch reply");
        };
        // Wires with room for their replies: no growth moves them.
        let mut held: Vec<Vec<u8>> = wires.clone();
        held.iter_mut().for_each(|w| w.reserve(256));
        let buffers: Vec<_> = held.iter().map(|w| w.as_ptr()).collect();
        let (in_place, in_place_blobs) = batch_replies(&out, &mut held).unwrap();
        assert_eq!((&in_place, &in_place_blobs), (&replies, &blobs));
        assert!(held.is_empty());
        for (((id, reply), buffer), c) in in_place.iter().zip(buffers).zip(&mut clients) {
            assert_eq!(reply.as_ptr(), buffer, "{id}'s reply is not in its wire");
            c.handle_reply(reply).unwrap();
        }

        // More replies than wires, and fewer.
        for wired in [1, 3] {
            let mut held = vec![vec![0u8; 8]; wired];
            let refused = batch_replies(&out, &mut held);
            assert!(
                matches!(refused, Err(LcmError::Tee(_))),
                "{wired}: {refused:?}"
            );
            assert!(held.is_empty(), "{wired}: wires left behind");
        }
        // Cut anywhere, it is malformed.
        for cut in 0..out.len() {
            let mut held = wires.clone();
            assert!(batch_replies(&out[..cut], &mut held).is_err(), "cut {cut}");
            assert!(held.is_empty(), "cut {cut}: wires left behind");
        }
        let mut long = out.clone();
        long.push(0);
        assert!(batch_replies(&long, &mut wires.clone()).is_err());
        // An error reply is the error it carries.
        let halted = HostReply::Err((&LcmError::Halted).into()).to_bytes();
        let mut held = wires.clone();
        assert_eq!(batch_replies(&halted, &mut held), Err(LcmError::Halted));
        assert!(held.is_empty());
        // And a read reply is not a batch reply, nor the other way round.
        let read = HostReply::ReadOk(b"r".to_vec()).to_bytes();
        assert!(batch_replies(&read, &mut wires.clone()).is_err());
        assert!(read_reply_into(&out, &mut Vec::new()).is_err());
        let mut wire = b"leg".to_vec();
        read_reply_into(&read, &mut wire).unwrap();
        assert_eq!(wire, b"r");
    }

    /// Which record a batch ships is decided by what the enclave can
    /// observe — its attested group size — and by nothing the host
    /// says: a lane outside a group builds and seals no record on
    /// either storage kind, a group member emits one on both.
    #[test]
    fn only_group_members_emit_a_replication_record() {
        use crate::context::ShardIdentity;
        use lcm_trusted::blob::{BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA};
        let member = ShardIdentity::SOLO.with_replica(0, 3);

        assert_eq!(
            batch_ok_for(ShardIdentity::SOLO, false),
            (BLOB_KIND_CHECKPOINT, None)
        );
        assert_eq!(
            batch_ok_for(ShardIdentity::SOLO, true),
            (BLOB_KIND_DELTA, None)
        );
        // A member whose host takes no deltas persists a checkpoint
        // and ships the delta beside it; otherwise the two are one
        // blob.
        let (kind, record) = batch_ok_for(member, false);
        assert_eq!(kind, BLOB_KIND_CHECKPOINT);
        assert_eq!(record.unwrap()[0], BLOB_KIND_DELTA);
        let (kind, record) = batch_ok_for(member, true);
        assert_eq!(
            (kind, record.unwrap()[0]),
            (BLOB_KIND_DELTA, BLOB_KIND_DELTA)
        );
    }

    #[test]
    fn a_reply_keeps_its_request_buffer_unless_that_is_far_larger() {
        // Up to a page, a request buffer carries any reply.
        let mut wire = vec![0u8; WIRE_KEEP_MAX];
        let buffer = wire.as_ptr();
        reply_into(&mut wire, b"ok");
        assert_eq!((wire.as_slice(), wire.as_ptr()), (&b"ok"[..], buffer));
        // Over a page, one at most twice the reply still does ...
        let mut wire = vec![0u8; 4 * WIRE_KEEP_MAX];
        let buffer = wire.as_ptr();
        reply_into(&mut wire, &[1; 2 * WIRE_KEEP_MAX]);
        assert_eq!(wire, [1; 2 * WIRE_KEEP_MAX]);
        assert_eq!(wire.as_ptr(), buffer);
        // ... and a larger one is let go for an exact copy.
        let mut wire = vec![0u8; 1 << 20];
        reply_into(&mut wire, b"ok");
        assert_eq!(wire, b"ok");
        assert!(wire.capacity() < WIRE_KEEP_MAX);
        // A reply larger than its request grows the buffer.
        let mut wire = vec![0u8; 8];
        reply_into(&mut wire, &[2; 300]);
        assert_eq!(wire, [2; 300]);
    }
}
