//! The trusted execution context `T` (paper Alg. 2 + §4.6
//! extensions), re-exported whole from [`lcm_trusted::context`], where
//! it lives with the rest of the code the enclave runs. The tests here
//! drive it with the host's client.

pub use lcm_trusted::context::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LcmClient;
    use crate::codec::WireCodec;
    use crate::functionality::AppendLog;
    use crate::stability::Quorum;
    use crate::types::{ClientId, SeqNo};
    use lcm_crypto::aead::{self, AeadKey};
    use lcm_crypto::keys::SecretKey;
    use lcm_tee::measurement::Measurement;
    use lcm_tee::platform::TeeServices;
    use lcm_tee::world::TeeWorld;

    /// A context of the deterministic test world, provisioned for
    /// clients 1–3 with `kC` = 0x02³² (the trusted crate's own tests
    /// build the same one).
    fn provisioned_context() -> TrustedContext<AppendLog> {
        let world = TeeWorld::new_deterministic(11);
        let measurement = Measurement::of_program("lcm-test", "1");
        let platform = world.platform_deterministic(1);
        let mut ctx =
            TrustedContext::<AppendLog>::new(TeeServices::for_tests(platform, measurement, 1));
        assert_eq!(
            ctx.init(None, None, false).unwrap(),
            InitOutcome::NeedProvision
        );
        let payload = ProvisionPayload {
            k_p: SecretKey::from_bytes([1u8; 32]),
            k_c: SecretKey::from_bytes([2u8; 32]),
            k_a: SecretKey::from_bytes([3u8; 32]),
            clients: vec![ClientId(1), ClientId(2), ClientId(3)],
            quorum: Quorum::Majority,
            identity: ShardIdentity::SOLO,
        };
        let channel = AeadKey::from_secret(&world.admin_provision_key(&measurement));
        let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
        ctx.provision(&sealed).unwrap();
        ctx
    }

    /// The protocol's bytes, pinned: the first INVOKE of client 3
    /// (`kC` = 0x02³², send counter 0, so nonce `00000003 ‖ 0⁸`)
    /// carrying the 121 B encoding of a key-value `Put` of a 16 B key
    /// and a 100 B value, and the REPLY a freshly provisioned context
    /// of the deterministic test world draws for it (`T`'s third
    /// nonce). Recorded when the channel moved from ChaCha20-Poly1305
    /// to AES-128-GCM: the plaintext envelope, both nonces and both
    /// lengths are the ChaCha20-Poly1305 recording's, byte for byte;
    /// only ciphertext and tags changed. Both GCM kernels produce these
    /// bytes (`lcm_crypto::gcm`'s tests hold them to each other and to
    /// the published vectors).
    #[test]
    fn invoke_and_reply_golden_wires() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let mut ctx = provisioned_context();
        let mut client =
            LcmClient::new(ClientId(3), &SecretKey::from_bytes([2u8; 32])).with_send_counter(0);
        let mut op = vec![2u8];
        op.extend_from_slice(&16u32.to_be_bytes());
        op.extend_from_slice(&[0x6b; 16]);
        op.extend_from_slice(&[0x76; 100]);

        let invoke = client.invoke(&op).unwrap();
        assert_eq!(invoke.len(), 218);
        assert_eq!(
            hex(&invoke),
            "000000034895f05c000000000000000000000000000000000000000300000000\
             00000000ba17f5f0cf81aab943f6e40279dbf1fb45c3c458784d4233083cfb29\
             a53989d98b42acfa4e5262e9f619907dc35464cf91cbbf3cfabc8ff1d670fcf8\
             d985842f98c684a6cfe737007ca16ad0156309c1bd25138876adce80bb973f3f\
             01f81e0dac64e46da6369d437668271db6be06ea5100f70ccfe8b2476dba2671\
             a5975e791c0edd12c22f086af0d3110aac40945dd86274707bceff321ff08fde\
             918dd9c76fdd8f56c3d98f0958061dccd58b3b04bd3cc7ca064f"
        );
        let (to, reply) = ctx.handle_invoke(&invoke).unwrap();
        assert_eq!(to, ClientId(3));
        assert_eq!(
            hex(&reply),
            "9bc2036f7fd0c5cf8de03f95dd0aa13e24436b740ce720186943f168b39c263b\
             97c655c5ba08fc8f59f36737591bebe87ea28137db094b848996ca536041f057\
             106cf7b995e1e3e805729d52683aa28d79cedab926d4dc172f2c1524a8579864\
             03b5c86782f863ff65e7627389c498ce792010a108"
        );
        let done = client.handle_reply(&reply).unwrap();
        assert_eq!(
            (done.seq, done.result),
            (SeqNo(1), 0u64.to_be_bytes().to_vec())
        );
    }
}
