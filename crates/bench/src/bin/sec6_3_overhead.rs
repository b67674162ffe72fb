//! §6.3 — LCM protocol message overhead.
//!
//! Paper claim: the LCM implementation adds **45 bytes** to an
//! operation invocation and **46 bytes** to a result, constant across
//! operation/result sizes. This harness measures the real wire
//! messages produced by this implementation.
//!
//! Our INVOKE matches the 45 bytes exactly. Our REPLY carries the full
//! Alg. 2 field list `[REPLY, t, h, r, q, hc]` (81 bytes); the paper's
//! 46 bytes implies their implementation elides part of the echoed
//! chain value. Constancy, the property §6.3 establishes, holds for
//! both.
//!
//! Regenerate: `cargo run -p lcm-bench --bin sec6_3_overhead --release`

use lcm_bench::{compare, header, write_csv};
use lcm_core::codec::WireCodec;
use lcm_core::types::{ChainValue, ClientId, SeqNo};
use lcm_core::wire::{InvokeMsg, ReplyMsg, INVOKE_OVERHEAD, REPLY_OVERHEAD};

fn main() {
    println!("Section 6.3: protocol message overhead (plaintext metadata)\n");
    header(&[
        "payload [B]",
        "INVOKE [B]",
        "invoke overhead",
        "REPLY [B]",
        "reply overhead",
    ]);

    let mut constant = true;
    let mut rows = Vec::new();
    for &size in &[0usize, 100, 500, 1000, 1500, 2000, 2500] {
        let invoke = InvokeMsg {
            client: ClientId(1),
            tc: SeqNo(7),
            hc: ChainValue::GENESIS,
            retry: false,
            op: vec![0xab; size],
        };
        let reply = ReplyMsg {
            t: SeqNo(8),
            q: SeqNo(5),
            h: ChainValue::GENESIS,
            hc_echo: ChainValue::GENESIS,
            redirect: false,
            result: vec![0xcd; size],
        };
        let ib = invoke.to_bytes().len();
        let rb = reply.to_bytes().len();
        constant &= ib - size == INVOKE_OVERHEAD && rb - size == REPLY_OVERHEAD;
        println!(
            "| {size:>10} | {ib:>9} | {:>14} | {rb:>8} | {:>13} |",
            ib - size,
            rb - size
        );
        rows.push(vec![
            size.to_string(),
            ib.to_string(),
            (ib - size).to_string(),
            rb.to_string(),
            (rb - size).to_string(),
        ]);
    }
    write_csv(
        "sec6_3_overhead",
        &[
            "payload_B",
            "invoke_B",
            "invoke_overhead_B",
            "reply_B",
            "reply_overhead_B",
        ],
        &rows,
    );

    println!(
        "\nAEAD framing adds a further constant {} bytes per message",
        lcm_crypto::aead::MIN_SEALED_LEN
    );
    println!("(12 B nonce + 16 B Poly1305 tag; the paper's AES-GCM adds the same 12 + 16).\n");

    println!("Paper-vs-measured:");
    compare(
        "invocation overhead",
        "45 B",
        &format!("{INVOKE_OVERHEAD} B"),
    );
    compare(
        "result overhead",
        "46 B",
        &format!("{REPLY_OVERHEAD} B (full Alg. 2 field list, echoed hc included)"),
    );
    compare(
        "overhead constant in payload size",
        "yes",
        if constant { "yes" } else { "NO" },
    );
}
