//! Property-based tests over the cryptographic primitives.

use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::chacha20;
use lcm_crypto::hkdf;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::poly1305::{self, Poly1305};
use lcm_crypto::sha256::{self, Sha256};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = SecretKey> {
    any::<[u8; 32]>().prop_map(SecretKey::from_bytes)
}

proptest! {
    // Pinned case count so CI time is bounded; the runner's seed is
    // derived deterministically from each test's name.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hashing in one shot equals hashing over arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                 splits in proptest::collection::vec(0usize..2048, 0..8)) {
        let oneshot = sha256::digest(&data);
        let mut hasher = Sha256::new();
        let mut cursor = 0usize;
        let mut points: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        points.sort_unstable();
        for p in points {
            if p > cursor {
                hasher.update(&data[cursor..p]);
                cursor = p;
            }
        }
        hasher.update(&data[cursor..]);
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// digest_parts over any partition equals digest of the concatenation.
    #[test]
    fn sha256_parts_invariant(parts in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 0..8)) {
        let concat: Vec<u8> = parts.iter().flatten().copied().collect();
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        prop_assert_eq!(sha256::digest_parts(&refs), sha256::digest(&concat));
    }

    /// AEAD roundtrip succeeds for arbitrary payload/AAD.
    #[test]
    fn aead_roundtrip(master in arb_key(),
                      plaintext in proptest::collection::vec(any::<u8>(), 0..1024),
                      aad in proptest::collection::vec(any::<u8>(), 0..64)) {
        let key = AeadKey::from_secret(&master);
        let sealed = aead::auth_encrypt(&key, &plaintext, &aad).unwrap();
        prop_assert_eq!(aead::auth_decrypt(&key, &sealed, &aad).unwrap(), plaintext);
    }

    /// Any single-bit flip anywhere in the sealed blob is detected.
    #[test]
    fn aead_bitflip_detected(master in arb_key(),
                             plaintext in proptest::collection::vec(any::<u8>(), 1..256),
                             bit in 0usize..4096) {
        let key = AeadKey::from_secret(&master);
        let mut sealed = aead::auth_encrypt(&key, &plaintext, b"aad").unwrap();
        let bit = bit % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(aead::auth_decrypt(&key, &sealed, b"aad").is_err());
    }

    /// Flipping any one byte of `nonce ‖ ciphertext ‖ tag`, or of the
    /// associated data, fails authentication.
    #[test]
    fn aead_any_byte_flip_detected(master in arb_key(),
                                   plaintext in proptest::collection::vec(any::<u8>(), 0..80),
                                   aad in proptest::collection::vec(any::<u8>(), 1..40),
                                   flip in 1u8..=255) {
        let key = AeadKey::from_secret(&master);
        let sealed = aead::auth_encrypt(&key, &plaintext, &aad).unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= flip;
            prop_assert!(aead::auth_decrypt(&key, &bad, &aad).is_err(), "sealed byte {}", i);
        }
        for i in 0..aad.len() {
            let mut bad = aad.clone();
            bad[i] ^= flip;
            prop_assert!(aead::auth_decrypt(&key, &sealed, &bad).is_err(), "aad byte {}", i);
        }
    }

    /// Decryption under a different key always fails.
    #[test]
    fn aead_wrong_key_fails(k1 in arb_key(), k2 in arb_key(),
                            plaintext in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(k1 != k2);
        let sealed = aead::auth_encrypt(&AeadKey::from_secret(&k1), &plaintext, b"").unwrap();
        prop_assert!(aead::auth_decrypt(&AeadKey::from_secret(&k2), &sealed, b"").is_err());
    }

    /// Poly1305 over any chunking of `update` calls equals the one-shot
    /// tag.
    #[test]
    fn poly1305_chunking_invariant(key in any::<[u8; 32]>(),
                                   data in proptest::collection::vec(any::<u8>(), 0..600),
                                   splits in proptest::collection::vec(0usize..600, 0..12)) {
        let mut points: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut mac = Poly1305::new(&key);
        let mut cursor = 0usize;
        for p in points {
            mac.update(&data[cursor..p]);
            cursor = p;
        }
        mac.update(&data[cursor..]);
        prop_assert_eq!(mac.finalize(), poly1305::mac(&key, &data));
    }

    /// The tag an AEAD seal appends — whole blocks absorbed as runs
    /// from the caller's slices, the padded tails and the lengths
    /// block built on the stack — is the tag of the RFC's MAC input
    /// `aad ‖ pad16 ‖ ct ‖ pad16 ‖ len(aad) ‖ len(ct)` absorbed one
    /// block per call, and of the same input streamed in random cuts.
    #[test]
    fn aead_tag_is_the_one_block_tag_of_the_rfc_mac_input(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..=4096),
        aad_pick in 0usize..6,
        cuts in proptest::collection::vec(0usize..=4300, 0..8),
    ) {
        let aad_len = [0usize, 1, 15, 16, 17, 40][aad_pick];
        let aad: Vec<u8> = (0..aad_len).map(|i| i as u8 ^ key[0]).collect();
        let sealed =
            aead::auth_encrypt_with_nonce(&AeadKey::from_raw(key), &nonce, &plaintext, &aad)
                .unwrap();
        let (ciphertext, tag) = sealed[12..].split_at(plaintext.len());

        let mut input = aad.clone();
        input.resize(aad.len().next_multiple_of(16), 0);
        input.extend_from_slice(ciphertext);
        input.resize(input.len().next_multiple_of(16), 0);
        input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        input.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());

        let stream = chacha20::AeadStream::new(&key, &nonce);
        let mut one_block = Poly1305::new(stream.poly1305_key());
        input.chunks(16).for_each(|block| one_block.update(block));
        prop_assert_eq!(&one_block.finalize()[..], tag);

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (input.len() + 1)).collect();
        cuts.push(input.len());
        cuts.sort_unstable();
        let mut streamed = Poly1305::new(stream.poly1305_key());
        let mut from = 0;
        for cut in cuts {
            streamed.update(&input[from..cut]);
            from = cut;
        }
        prop_assert_eq!(&streamed.finalize()[..], tag);
    }

    /// ChaCha20 is an involution: applying the keystream twice restores
    /// the plaintext.
    #[test]
    fn chacha20_involution(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                           data in proptest::collection::vec(any::<u8>(), 0..512),
                           counter in 0u32..1000) {
        let mut buf = data.clone();
        chacha20::xor_keystream(&key, &nonce, counter, &mut buf).unwrap();
        chacha20::xor_keystream(&key, &nonce, counter, &mut buf).unwrap();
        prop_assert_eq!(buf, data);
    }

    /// HKDF key derivation is injective over labels in practice: distinct
    /// info labels yield distinct keys.
    #[test]
    fn hkdf_label_separation(root in arb_key(), a in ".{1,32}", b in ".{1,32}") {
        prop_assume!(a != b);
        let ka = hkdf::derive_key(&root, b"salt", a.as_bytes());
        let kb = hkdf::derive_key(&root, b"salt", b.as_bytes());
        prop_assert_ne!(ka, kb);
    }
}
