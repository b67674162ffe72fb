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
    /// nonce). Recorded from the code before sealing and opening moved
    /// in place and the AEAD gained its AVX2 kernel.
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
             000000001ff6881d6bc384664c7be13dc42f80ea10cc0e0195730d7789f0ee2f\
             ea275f58357603605f266ebf9753b1c8a9fc23d29d2cdc74aeddecaa96d26a1f\
             204dbcd79db5d45ffd9bd430b48cfeda1067e1de6add6a46f09f880332ffa406\
             367afe51b35138fd9e999126d28cafb6f940883fa45db88f811872a0190f4621\
             e7668086e7a601e7fa614ad38c3f30c2d07934b4155c6557d72f1f4646b0451e\
             22f23e187dfc7cbd835f8640526f40bbfab66fd5f2261b34d5d2"
        );
        let (to, reply) = ctx.handle_invoke(&invoke).unwrap();
        assert_eq!(to, ClientId(3));
        assert_eq!(
            hex(&reply),
            "9bc2036f7fd0c5cf8de03f9503645b75438672612df78b79df8abf5602840e35\
             36b19df59b2cfdeaeb0e2a9f54d1ea2ace32d093f4903d6171e5ee0a46757723\
             157ec2e1ed232911e7349b623ac334d631e1f1a1292f550194a4403642c20ea8\
             a3b0be97e9cec67d6b132ba3c7c074a17e4787f5c6"
        );
        let done = client.handle_reply(&reply).unwrap();
        assert_eq!(
            (done.seq, done.result),
            (SeqNo(1), 0u64.to_be_bytes().to_vec())
        );
    }
}
