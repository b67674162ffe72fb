//! Known-answer tests anchoring the hand-rolled primitives against the
//! published standards: SHA-256 (FIPS 180-4 / NIST CAVS), HMAC-SHA-256
//! (RFC 4231), HKDF-SHA-256 (RFC 5869), the ChaCha20 block/keystream
//! function (RFC 7539) and Poly1305 / ChaCha20-Poly1305 (RFC 8439,
//! whose ChaCha20 vectors are RFC 7539's). The property tests in
//! `tests/proptests.rs` cover invariants; these pin exact outputs so a
//! silent miscompilation or refactor of the primitives cannot pass.

use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::chacha20;
use lcm_crypto::hkdf;
use lcm_crypto::hmac::hmac_sha256;
use lcm_crypto::poly1305;
use lcm_crypto::sha256;

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len() % 2 == 0, "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("bad hex"))
        .collect()
}

// --------------------------------------------------------------------------
// SHA-256 — FIPS 180-4 examples and NIST CAVS vectors.

#[test]
fn sha256_fips_180_4_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    for (msg, expected) in cases {
        assert_eq!(
            sha256::digest(msg).to_hex(),
            *expected,
            "SHA-256({:?})",
            String::from_utf8_lossy(msg)
        );
    }
}

#[test]
fn sha256_million_a() {
    let mut hasher = sha256::Sha256::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        hasher.update(&chunk);
    }
    assert_eq!(
        hasher.finalize().to_hex(),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// --------------------------------------------------------------------------
// HMAC-SHA-256 — RFC 4231 test cases 1-7.

#[test]
fn hmac_sha256_rfc4231_vectors() {
    struct Case {
        key: Vec<u8>,
        data: Vec<u8>,
        mac: &'static str,
        truncate_to: usize,
    }
    let cases = [
        // Test Case 1
        Case {
            key: vec![0x0b; 20],
            data: b"Hi There".to_vec(),
            mac: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            truncate_to: 32,
        },
        // Test Case 2: short key, short data.
        Case {
            key: b"Jefe".to_vec(),
            data: b"what do ya want for nothing?".to_vec(),
            mac: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            truncate_to: 32,
        },
        // Test Case 3: 0xaa key, 0xdd data.
        Case {
            key: vec![0xaa; 20],
            data: vec![0xdd; 50],
            mac: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            truncate_to: 32,
        },
        // Test Case 4: incrementing key, 0xcd data.
        Case {
            key: (0x01..=0x19).collect(),
            data: vec![0xcd; 50],
            mac: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            truncate_to: 32,
        },
        // Test Case 5: output truncated to 128 bits.
        Case {
            key: vec![0x0c; 20],
            data: b"Test With Truncation".to_vec(),
            mac: "a3b6167473100ee06e0c796c2955552b",
            truncate_to: 16,
        },
        // Test Case 6: key larger than one block.
        Case {
            key: vec![0xaa; 131],
            data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            mac: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            truncate_to: 32,
        },
        // Test Case 7: large key and large data.
        Case {
            key: vec![0xaa; 131],
            data: b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm."
                .to_vec(),
            mac: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            truncate_to: 32,
        },
    ];
    for (i, case) in cases.iter().enumerate() {
        let mac = hmac_sha256(&case.key, &case.data);
        assert_eq!(
            mac.as_bytes()[..case.truncate_to],
            unhex(case.mac),
            "RFC 4231 test case {}",
            i + 1
        );
    }
}

// --------------------------------------------------------------------------
// HKDF-SHA-256 — RFC 5869 test cases 1-3.

#[test]
fn hkdf_sha256_rfc5869_case_1() {
    let ikm = vec![0x0b; 22];
    let salt = unhex("000102030405060708090a0b0c");
    let info = unhex("f0f1f2f3f4f5f6f7f8f9");
    let prk = hkdf::extract(&salt, &ikm);
    assert_eq!(
        prk.to_vec(),
        unhex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
    );
    let mut okm = [0u8; 42];
    hkdf::expand(&prk, &info, &mut okm).unwrap();
    assert_eq!(
        okm.to_vec(),
        unhex(
            "3cb25f25faacd57a90434f64d0362f2a\
             2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        )
    );
}

#[test]
fn hkdf_sha256_rfc5869_case_2_long_inputs() {
    let ikm: Vec<u8> = (0x00..=0x4f).collect();
    let salt: Vec<u8> = (0x60..=0xaf).collect();
    let info: Vec<u8> = (0xb0..=0xff).collect();
    let prk = hkdf::extract(&salt, &ikm);
    assert_eq!(
        prk.to_vec(),
        unhex("06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244")
    );
    let mut okm = [0u8; 82];
    hkdf::expand(&prk, &info, &mut okm).unwrap();
    assert_eq!(
        okm.to_vec(),
        unhex(
            "b11e398dc80327a1c8e7f78c596a4934\
             4f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09\
             da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f\
             1d87"
        )
    );
}

#[test]
fn hkdf_sha256_rfc5869_case_3_empty_salt_and_info() {
    let ikm = vec![0x0b; 22];
    let prk = hkdf::extract(&[], &ikm);
    assert_eq!(
        prk.to_vec(),
        unhex("19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04")
    );
    let mut okm = [0u8; 42];
    hkdf::expand(&prk, &[], &mut okm).unwrap();
    assert_eq!(
        okm.to_vec(),
        unhex(
            "8da4e775a563c18f715f802a063c5a31\
             b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        )
    );
}

// --------------------------------------------------------------------------
// ChaCha20 — RFC 7539 block-function and encryption vectors.

#[test]
fn chacha20_rfc7539_keystream_block() {
    // §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
    // counter 1. XORing zeros extracts the raw serialized keystream.
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let mut block = [0u8; 64];
    chacha20::xor_keystream(&key, &nonce, 1, &mut block).unwrap();
    assert_eq!(
        block.to_vec(),
        unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4\
             c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2\
             b5129cd1de164eb9cbd083e8a2503c4e"
        )
    );
}

#[test]
fn chacha20_rfc7539_sunscreen_encryption() {
    // §2.4.2: the "sunscreen" plaintext under key 00..1f, nonce
    // 00:00:00:00:00:00:00:4a:00:00:00:00, initial counter 1.
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                     only one tip for the future, sunscreen would be it."
        .to_vec();
    chacha20::xor_keystream(&key, &nonce, 1, &mut data).unwrap();
    assert_eq!(
        data,
        unhex(
            "6e2e359a2568f98041ba0728dd0d6981\
             e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b357\
             1639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e\
             52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42\
             874d"
        )
    );
    // And back: the keystream is an involution.
    chacha20::xor_keystream(&key, &nonce, 1, &mut data).unwrap();
    assert!(data.starts_with(b"Ladies and Gentlemen"));
}

// --------------------------------------------------------------------------
// Poly1305 and ChaCha20-Poly1305 — RFC 8439.

/// The tag over `msg` three ways: one shot (whole blocks as one run
/// from the slice), sixteen bytes at a time (every block a run of its
/// own) and byte by byte (everything through the buffer).
fn poly1305_every_way(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let tag = poly1305::mac(key, msg);
    for piece in [16, 1] {
        let mut mac = poly1305::Poly1305::new(key);
        msg.chunks(piece).for_each(|chunk| mac.update(chunk));
        assert_eq!(mac.finalize(), tag, "{piece} bytes at a time");
    }
    tag
}

#[test]
fn poly1305_rfc8439_2_5_2() {
    let key: [u8; 32] = unhex(
        "85d6be7857556d337f4452fe42d506a8\
         0103808afb0db2fd4abff6af4149f51b",
    )
    .try_into()
    .unwrap();
    assert_eq!(
        poly1305_every_way(&key, b"Cryptographic Forum Research Group").to_vec(),
        unhex("a8061dc1305136c6c22b8baf0c0127a9")
    );
}

/// RFC 8439 Appendix A.3, vectors 1–4 (vectors 5–11, the limb edge
/// cases, are in the module's own tests).
#[test]
fn poly1305_rfc8439_appendix_a3() {
    let ietf = b"Any submission to the IETF intended by the Contributor for publi\
cation as all or part of an IETF Internet-Draft or RFC and any statement made within the c\
ontext of an IETF activity is considered an \"IETF Contribution\". Such statements include \
oral statements in IETF sessions, as well as written and electronic communications made at \
any time or place, which are addressed to";
    let jabberwocky = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the wab\
e:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
    let s = unhex("36e5f6b5c5e06070f0efca96227a863e");
    let key = |r: &[u8], s: &[u8]| -> [u8; 32] {
        let mut k = [0u8; 32];
        k[..r.len()].copy_from_slice(r);
        k[16..16 + s.len()].copy_from_slice(s);
        k
    };
    // #1: an all-zero key tags anything with zero.
    assert_eq!(poly1305_every_way(&[0; 32], &[0; 64]), [0; 16]);
    // #2: r = 0, so the tag is s.
    assert_eq!(poly1305_every_way(&key(&[], &s), ietf).to_vec(), s);
    // #3: s = 0, r as above.
    assert_eq!(
        poly1305_every_way(&key(&s, &[]), ietf).to_vec(),
        unhex("f3477e7cd95417af89a6b8794c310cf0")
    );
    // #4
    let k: [u8; 32] = unhex(
        "1c9240a5eb55d38af333888604f6b5f0\
         473917c1402b80099dca5cbc207075c0",
    )
    .try_into()
    .unwrap();
    assert_eq!(
        poly1305_every_way(&k, jabberwocky).to_vec(),
        unhex("4541669a7eaaee61e708dc7cbcc5eb62")
    );
}

#[test]
fn poly1305_key_generation_rfc8439_2_6_2() {
    let key: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
    let nonce: [u8; 12] = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
    assert_eq!(
        chacha20::AeadStream::new(&key, &nonce)
            .poly1305_key()
            .to_vec(),
        unhex(
            "8ad5a08b905f81cc815040274ab29471\
             a833b637e3fd0da508dbb8e2fdd1a646"
        )
    );
}

#[test]
fn chacha20_poly1305_rfc8439_2_8_2() {
    let key = AeadKey::from_raw(std::array::from_fn(|i| 0x80 + i as u8));
    let nonce: [u8; 12] = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
    let aad = unhex("50515253c0c1c2c3c4c5c6c7");
    let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                      only one tip for the future, sunscreen would be it.";
    let ciphertext = unhex(
        "d31a8d34648e60db7b86afbc53ef7ec2\
         a4aded51296e08fea9e2b5a736ee62d6\
         3dbea45e8ca9671282fafb69da92728b\
         1a71de0a9e060b2905d6a5b67ecd3b36\
         92ddbd7f2d778b8c9803aee328091b58\
         fab324e4fad675945585808b4831d7bc\
         3ff4def08e4b7a9de576d26586cec64b\
         6116",
    );
    let tag = unhex("1ae10b594f09e26a7e902ecbd0600691");
    // Wire layout: nonce (12) ‖ ciphertext ‖ tag (16).
    let expected = [&nonce[..], &ciphertext, &tag].concat();

    // Through the wrappers.
    let sealed = aead::auth_encrypt_with_nonce(&key, &nonce, plaintext, &aad).unwrap();
    assert_eq!(sealed, expected);
    assert_eq!(aead::auth_decrypt(&key, &sealed, &aad).unwrap(), plaintext);

    // In place, behind framing the seal must not touch.
    let framing = b"route hint";
    let mut buf = [&framing[..], &nonce, plaintext].concat();
    aead::seal_in_place(&key, &nonce, &aad, &mut buf, framing.len() + 12).unwrap();
    assert_eq!(&buf[..framing.len()], framing);
    assert_eq!(&buf[framing.len()..], &expected[..]);
    let opened = aead::open_in_place(&key, &aad, &mut buf[framing.len()..]).unwrap();
    assert_eq!(opened, plaintext);
    assert_eq!(
        &buf[..framing.len() + 12],
        &[&framing[..], &nonce].concat()[..]
    );
}
