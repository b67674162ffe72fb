//! The kind byte every sealed blob `T` hands the host starts with,
//! and the recovery bundle a store that takes deltas loads a state
//! slot back as: `[3] ‖ frame(checkpoint) ‖ frame(delta)…`, framed by
//! [`lcm_crypto::framing`]. The enclave is the reader that checks it.

use lcm_crypto::framing;

/// Kind byte of a blob the engine must not interpret (sealed key
/// blobs, foreign slots): stored and loaded verbatim.
pub const BLOB_KIND_OPAQUE: u8 = 0;
/// Kind byte of a sealed full-state checkpoint.
pub const BLOB_KIND_CHECKPOINT: u8 = 1;
/// Kind byte of a sealed per-batch delta.
pub const BLOB_KIND_DELTA: u8 = 2;
/// Kind byte of an engine-assembled recovery bundle:
/// `[3] ‖ frame(checkpoint) ‖ frame(delta)…` ([`parse_bundle`]).
pub const BLOB_KIND_BUNDLE: u8 = 3;

/// Splits an engine-assembled bundle blob into its checkpoint frame
/// and delta frames. Returns `None` unless the blob has the bundle
/// kind byte, at least one frame, and **no** trailing bytes — a
/// tampered bundle must not parse.
pub fn parse_bundle(blob: &[u8]) -> Option<(&[u8], Vec<&[u8]>)> {
    let body = match blob.split_first() {
        Some((&BLOB_KIND_BUNDLE, body)) => body,
        _ => return None,
    };
    let scanned = framing::scan(body);
    if scanned.valid_len != body.len() {
        return None;
    }
    let mut frames = scanned.payloads.into_iter();
    let checkpoint = frames.next()?;
    Some((checkpoint, frames.collect()))
}
