//! Criterion microbenches for the cryptographic substrate.
//!
//! These ground the simulator's cost constants: per-byte AEAD and hash
//! throughput on the build machine. The `chacha20`, `poly1305` and
//! `crc32` rows are the byte kernels under every sealed blob and
//! every journal frame, at a message, a page and a bulk size; the
//! `aead_gcm` rows are the AES-128-GCM every INVOKE, READ leg, REPLY,
//! checkpoint and delta is sealed on, beside the `aead`
//! (ChaCha20-Poly1305) ones.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::chacha20::NONCE_LEN;
use lcm_crypto::gcm::{self, GcmKey};
use lcm_crypto::hmac::hmac_sha256;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::{chacha20, poly1305, sha256};
use lcm_storage::framing::{self, crc32, crc32_table};

const KERNEL_SIZES: [usize; 3] = [64, 4 * 1024, 1024 * 1024];

fn bench_sha256(c: &mut Criterion) {
    // SHA-NI and the portable kernel differ about fivefold, the two
    // ChaCha20 kernels about twofold: name the ones measured, or runs
    // from two boxes cannot be compared.
    println!(
        "sha256 backend: {}, chacha20 backend: {}, gcm backend: {}",
        sha256::backend(),
        chacha20::backend(),
        gcm::backend()
    );
    let mut group = c.benchmark_group("sha256");
    // Among them the sizes the protocol hashes: one block, the 165 B
    // chain-step preimage of a 100 B-value Put, a 4 KiB delta anchor.
    for size in [64usize, 165, 1024, 4 * 1024, 16 * 1024, 256 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256::digest(data));
        });
    }
    group.finish();
}

fn bench_hash_chain_step(c: &mut Criterion) {
    // The exact LCM chain step: hash(h ‖ o ‖ t ‖ i) with a 145 B op.
    let h = sha256::digest(b"previous");
    let op = vec![0u8; 145];
    c.bench_function("hash_chain_step_145B_op", |b| {
        b.iter(|| {
            sha256::digest_parts(&[h.as_bytes(), &op, &7u64.to_be_bytes(), &3u32.to_be_bytes()])
        });
    });
}

fn bench_aead(c: &mut Criterion) {
    let key = AeadKey::from_secret(&SecretKey::from_bytes([7u8; 32]));
    let mut group = c.benchmark_group("aead");
    for size in [145usize, 1024, 16 * 1024, 328 * 1024] {
        let data = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("encrypt", size), &data, |b, data| {
            b.iter(|| aead::auth_encrypt(&key, data, b"lcm.invoke").unwrap());
        });
        let sealed = aead::auth_encrypt(&key, &data, b"lcm.invoke").unwrap();
        group.bench_with_input(BenchmarkId::new("decrypt", size), &sealed, |b, sealed| {
            b.iter(|| aead::auth_decrypt(&key, sealed, b"lcm.invoke").unwrap());
        });
    }
    // The in-place primitives at the sizes the protocol seals: the
    // REPLY body behind a 110 B wire, the benchmark probe's size, the
    // INVOKE body behind a 218 B wire, the last body the stream's head
    // covers and the first that reaches the bulk kernel, a batch
    // delta, a checkpoint.
    let (nonce, aad) = ([9u8; NONCE_LEN], [7u8; 34]);
    for size in [82usize, 145, 166, 192, 193, 4 * 1024, 1024 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        // Sealing an already sealed body is the same work; only the
        // appended tag has to go again.
        let mut buf = vec![0u8; NONCE_LEN + size];
        buf.reserve(aead::TAG_LEN);
        group.bench_function(BenchmarkId::new("seal_in_place", size), |b| {
            b.iter(|| {
                buf.truncate(NONCE_LEN + size);
                aead::seal_in_place(&key, &nonce, &aad, &mut buf, NONCE_LEN).unwrap();
            });
        });
        // Opening decrypts the buffer, so each iteration opens a copy
        // made into the same scratch buffer (a `memcpy` of `size`).
        let sealed = aead::auth_encrypt_with_nonce(&key, &nonce, &vec![0u8; size], &aad).unwrap();
        let mut scratch = sealed.clone();
        group.bench_function(BenchmarkId::new("open_in_place", size), |b| {
            b.iter(|| {
                scratch.copy_from_slice(&sealed);
                aead::open_in_place(&key, &aad, &mut scratch).unwrap().len()
            });
        });
    }
    group.finish();
}

/// AES-128-GCM in place, at the sizes the channel seals per operation
/// — a REPLY body behind a 110 B wire and an INVOKE body behind a
/// 218 B one — at the 4 305 B delta of one `kv-put-n16` batch (sealed
/// by the leader, opened by every follower), and at a page and a bulk
/// size, with the AAD of the `aead` rows. Same seal and open loops as
/// those.
fn bench_aead_gcm(c: &mut Criterion) {
    let key = GcmKey::from_secret(&SecretKey::from_bytes([7u8; 32]));
    let mut group = c.benchmark_group("aead_gcm");
    let (nonce, aad) = ([9u8; gcm::NONCE_LEN], [7u8; 34]);
    for size in [82usize, 166, 4 * 1024, 4305, 1024 * 1024] {
        group.throughput(Throughput::Bytes(size as u64));
        let mut buf = vec![0u8; gcm::NONCE_LEN + size];
        buf.reserve(gcm::TAG_LEN);
        group.bench_function(BenchmarkId::new("seal_in_place", size), |b| {
            b.iter(|| {
                buf.truncate(gcm::NONCE_LEN + size);
                gcm::seal_in_place(&key, &nonce, &aad, &mut buf, gcm::NONCE_LEN).unwrap();
            });
        });
        let sealed = gcm::auth_encrypt_with_nonce(&key, &nonce, &vec![0u8; size], &aad).unwrap();
        let mut scratch = sealed.clone();
        group.bench_function(BenchmarkId::new("open_in_place", size), |b| {
            b.iter(|| {
                scratch.copy_from_slice(&sealed);
                gcm::open_in_place(&key, &aad, &mut scratch).unwrap().len()
            });
        });
    }
    group.finish();
}

/// One byte kernel over a buffer of each of [`KERNEL_SIZES`].
fn bench_kernel<O>(c: &mut Criterion, name: &str, mut kernel: impl FnMut(&mut [u8]) -> O) {
    let mut group = c.benchmark_group(name);
    for size in KERNEL_SIZES {
        let mut data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| kernel(&mut data));
        });
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    bench_kernel(c, "chacha20", |data| {
        chacha20::xor_keystream(&[7; 32], &[9; 12], 1, data).unwrap()
    });
    bench_kernel(c, "poly1305", |data| poly1305::mac(&[7; 32], data));
    // The dispatcher (CLMUL from 128 bytes up where the CPU has it)
    // beside the table kernel it falls back to: more than tenfold
    // apart on the bulk sizes, the same kernel at 64 B.
    println!("crc32 backend: {}", framing::backend());
    bench_kernel(c, "crc32", |data| crc32(data));
    bench_kernel(c, "crc32_table", |data| crc32_table(data));
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0u8; 1024];
    c.bench_function("hmac_sha256_1KiB", |b| {
        b.iter(|| hmac_sha256(b"key", &data));
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hash_chain_step,
    bench_aead,
    bench_aead_gcm,
    bench_kernels,
    bench_hmac
);
criterion_main!(benches);
