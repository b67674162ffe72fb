//! Omniscient history checkers for protocol validation.
//!
//! These checkers play the role of the paper's correctness arguments in
//! executable form: tests record every completion at every client and
//! then ask (a) was each client's local view self-consistent, (b) do
//! the views of all clients embed into one forking history without two
//! *joined* branches (fork-linearizability's forest shape), and (c) is
//! the majority-stable prefix common to all clients (stability ⇒
//! linearizable prefix).
//!
//! A client cannot run these checks online — it only sees its own
//! operations; that is exactly why fork *detection* needs either the
//! protocol's context checks or out-of-band exchange of these records.

use std::collections::BTreeMap;

use lcm_trusted::types::{ChainValue, ClientId, SeqNo};

/// One completed operation as observed by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The observing client.
    pub client: ClientId,
    /// Which shard of the deployment executed the operation (0 for an
    /// unsharded server). Sequence numbers and chain values are
    /// per-shard, so every checker groups by this first.
    pub shard: u32,
    /// Sequence number the operation received on its shard.
    pub seq: SeqNo,
    /// Hash-chain value returned with the operation.
    pub chain: ChainValue,
    /// The operation payload.
    pub op: Vec<u8>,
    /// The result returned.
    pub result: Vec<u8>,
    /// The majority-stable watermark returned with the operation.
    pub stable: SeqNo,
}

/// Evidence that a set of client views cannot come from a single
/// (honest) linearizable history.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForkEvidence {
    /// Two clients observed the same sequence number with different
    /// hash-chain values: they live on diverged branches.
    DivergentChains {
        /// The sequence number observed twice.
        seq: SeqNo,
        /// First observing client.
        a: ClientId,
        /// Second observing client.
        b: ClientId,
    },
    /// A single client's view has non-increasing sequence numbers.
    NonMonotoneClient(ClientId),
    /// A single client's stability watermark decreased.
    StabilityRegression(ClientId),
    /// An operation at or below a client's stable watermark is not
    /// present in the common chain prefix of all clients.
    UnstableStablePrefix {
        /// The client whose stable prefix is violated.
        client: ClientId,
        /// The violating sequence number.
        seq: SeqNo,
    },
    /// Two views diverged and later agreed again: the forked histories
    /// were joined, which fork-linearizability forbids.
    JoinAfterFork {
        /// First sequence number where the views diverged.
        forked_at: SeqNo,
        /// Later sequence number where they agree again.
        joined_at: SeqNo,
    },
}

impl std::fmt::Display for ForkEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkEvidence::DivergentChains { seq, a, b } => {
                write!(f, "clients {a} and {b} observed divergent chains at {seq}")
            }
            ForkEvidence::NonMonotoneClient(c) => {
                write!(f, "client {c} observed non-monotone sequence numbers")
            }
            ForkEvidence::StabilityRegression(c) => {
                write!(f, "client {c} observed decreasing stability")
            }
            ForkEvidence::UnstableStablePrefix { client, seq } => {
                write!(f, "operation {seq} is stable at {client} but not common")
            }
            ForkEvidence::JoinAfterFork {
                forked_at,
                joined_at,
            } => {
                write!(
                    f,
                    "views forked at {forked_at} but joined again at {joined_at}"
                )
            }
        }
    }
}

/// Checks one client's view in isolation: strictly increasing sequence
/// numbers, non-decreasing stability.
///
/// # Errors
///
/// Returns the first [`ForkEvidence`] found.
pub fn check_client_view(records: &[OpRecord]) -> Result<(), ForkEvidence> {
    // Sequence numbers and watermarks are per shard; check each
    // shard's subsequence of the view independently.
    let mut last: BTreeMap<u32, (SeqNo, SeqNo)> = BTreeMap::new();
    for r in records {
        let (last_seq, last_stable) = last.entry(r.shard).or_default();
        if r.seq <= *last_seq {
            return Err(ForkEvidence::NonMonotoneClient(r.client));
        }
        if r.stable < *last_stable {
            return Err(ForkEvidence::StabilityRegression(r.client));
        }
        *last_seq = r.seq;
        *last_stable = r.stable;
    }
    Ok(())
}

/// Checks that the union of several client views is consistent with a
/// *single* history: every sequence number maps to one chain value.
///
/// On an honest server this always holds. After a forking attack it
/// fails precisely when views from *different branches* are combined —
/// which is the out-of-band detection the paper describes ("the clients
/// can detect this through a lightweight out-of-band mechanism").
///
/// # Errors
///
/// Returns the first [`ForkEvidence`] found.
pub fn check_single_history(views: &[&[OpRecord]]) -> Result<(), ForkEvidence> {
    for view in views {
        check_client_view(view)?;
    }
    // Each shard has its own chain; a sequence number identifies an
    // operation only together with its shard.
    let mut chain_at: BTreeMap<(u32, SeqNo), (ClientId, ChainValue)> = BTreeMap::new();
    for view in views {
        for r in *view {
            match chain_at.get(&(r.shard, r.seq)) {
                None => {
                    chain_at.insert((r.shard, r.seq), (r.client, r.chain));
                }
                Some(&(other, chain)) if chain != r.chain => {
                    return Err(ForkEvidence::DivergentChains {
                        seq: r.seq,
                        a: other,
                        b: r.client,
                    });
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Checks the stability contract: every operation a client saw at or
/// below its final stable watermark must be globally consistent (no
/// divergent chain value anywhere at or below that watermark).
///
/// This is the executable form of "any subsequence of a history that
/// contains only operations that are stable among a majority is
/// linearizable" (§3.2.2).
///
/// # Errors
///
/// Returns the first [`ForkEvidence`] found.
pub fn check_stable_prefix(views: &[&[OpRecord]]) -> Result<(), ForkEvidence> {
    // Chain values seen per (shard, sequence number) across all views.
    let mut chain_at: BTreeMap<(u32, SeqNo), Vec<(ClientId, ChainValue)>> = BTreeMap::new();
    for view in views {
        for r in *view {
            chain_at
                .entry((r.shard, r.seq))
                .or_default()
                .push((r.client, r.chain));
        }
    }
    for view in views {
        // Per-shard watermark: a client's final stable value on shard
        // s covers only operations on s.
        let mut watermark: BTreeMap<u32, SeqNo> = BTreeMap::new();
        for r in *view {
            let w = watermark.entry(r.shard).or_default();
            *w = (*w).max(r.stable);
        }
        for r in *view {
            let covered = watermark.get(&r.shard).copied().unwrap_or(SeqNo::ZERO);
            if r.seq > covered {
                continue;
            }
            if let Some(observations) = chain_at.get(&(r.shard, r.seq)) {
                if observations.iter().any(|&(_, chain)| chain != r.chain) {
                    return Err(ForkEvidence::UnstableStablePrefix {
                        client: r.client,
                        seq: r.seq,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks fork-linearizability's **no-join** property over a pair of
/// views: once two clients have observed divergent chain values at
/// some sequence number, they may never again both observe the *same*
/// chain value at any higher sequence number.
///
/// "Whenever the malicious server has separated two clients, they can
/// never be joined again" (§3.2.1). A server violating this has
/// merged two forked histories — exactly what the protocol makes
/// impossible without detection.
///
/// # Errors
///
/// Returns [`ForkEvidence::JoinAfterFork`] naming the join point.
pub fn check_no_join(a: &[OpRecord], b: &[OpRecord]) -> Result<(), ForkEvidence> {
    let chains_b: BTreeMap<(u32, SeqNo), ChainValue> =
        b.iter().map(|r| ((r.shard, r.seq), r.chain)).collect();
    // Forks are per shard: each shard is an independent history.
    let mut forked_at: BTreeMap<u32, SeqNo> = BTreeMap::new();
    for r in a {
        let Some(&other) = chains_b.get(&(r.shard, r.seq)) else {
            continue;
        };
        match forked_at.get(&r.shard) {
            None => {
                if other != r.chain {
                    forked_at.insert(r.shard, r.seq);
                }
            }
            Some(&fork_seq) => {
                if other == r.chain {
                    return Err(ForkEvidence::JoinAfterFork {
                        forked_at: fork_seq,
                        joined_at: r.seq,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: u32, seq: u64, chain_tag: &[u8], stable: u64) -> OpRecord {
        OpRecord {
            client: ClientId(client),
            shard: 0,
            seq: SeqNo(seq),
            chain: ChainValue::GENESIS.extend(chain_tag, SeqNo(seq), ClientId(0)),
            op: chain_tag.to_vec(),
            result: vec![],
            stable: SeqNo(stable),
        }
    }

    #[test]
    fn honest_views_pass() {
        let a = vec![rec(1, 1, b"x1", 0), rec(1, 3, b"x3", 1)];
        let b = vec![rec(2, 2, b"x2", 0), rec(2, 4, b"x4", 2)];
        check_single_history(&[&a, &b]).unwrap();
        check_stable_prefix(&[&a, &b]).unwrap();
    }

    #[test]
    fn shared_seq_same_chain_passes() {
        // Both clients legitimately observe op #2 (e.g. one executed it,
        // checker fed both the same record).
        let shared = rec(1, 2, b"x2", 0);
        let mut for_b = shared.clone();
        for_b.client = ClientId(2);
        check_single_history(&[&[shared], &[for_b]]).unwrap();
    }

    #[test]
    fn divergent_chains_detected() {
        let a = vec![rec(1, 1, b"branch-a", 0)];
        let b = vec![rec(2, 1, b"branch-b", 0)];
        assert!(matches!(
            check_single_history(&[&a, &b]),
            Err(ForkEvidence::DivergentChains { seq: SeqNo(1), .. })
        ));
    }

    #[test]
    fn non_monotone_client_detected() {
        let a = vec![rec(1, 2, b"x", 0), rec(1, 1, b"y", 0)];
        assert_eq!(
            check_client_view(&a),
            Err(ForkEvidence::NonMonotoneClient(ClientId(1)))
        );
    }

    #[test]
    fn stability_regression_detected() {
        let a = vec![rec(1, 1, b"x", 3), rec(1, 2, b"y", 2)];
        assert_eq!(
            check_client_view(&a),
            Err(ForkEvidence::StabilityRegression(ClientId(1)))
        );
    }

    #[test]
    fn stable_prefix_violation_detected() {
        // Client 1 believes op #1 is stable, but client 2 observed a
        // different chain at #1 — the "stable" prefix diverged.
        let a = vec![rec(1, 1, b"branch-a", 1)];
        let b = vec![rec(2, 1, b"branch-b", 0)];
        assert!(matches!(
            check_stable_prefix(&[&a, &b]),
            Err(ForkEvidence::UnstableStablePrefix { seq: SeqNo(1), .. })
        ));
    }

    #[test]
    fn unstable_divergence_is_allowed_by_stable_prefix_check() {
        // Divergence ABOVE the stable watermark is exactly what
        // fork-linearizability permits (detection pending).
        let a = vec![rec(1, 1, b"common", 0), rec(1, 2, b"branch-a", 0)];
        let b = vec![rec(2, 1, b"common", 0), rec(2, 2, b"branch-b", 0)];
        check_stable_prefix(&[&a, &b]).unwrap();
        assert!(check_single_history(&[&a, &b]).is_err());
    }

    #[test]
    fn empty_views_pass() {
        check_single_history(&[]).unwrap();
        check_stable_prefix(&[&[]]).unwrap();
        check_client_view(&[]).unwrap();
        check_no_join(&[], &[]).unwrap();
    }

    #[test]
    fn no_join_accepts_clean_fork() {
        // Diverge at #2 and stay diverged.
        let a = vec![
            rec(1, 1, b"common", 0),
            rec(1, 2, b"a", 0),
            rec(1, 3, b"a3", 0),
        ];
        let b = vec![
            rec(2, 1, b"common", 0),
            rec(2, 2, b"b", 0),
            rec(2, 3, b"b3", 0),
        ];
        check_no_join(&a, &b).unwrap();
    }

    #[test]
    fn no_join_detects_rejoined_histories() {
        // Diverge at #2, agree again at #3: forbidden join.
        let a = vec![rec(1, 2, b"a", 0), rec(1, 3, b"same", 0)];
        let b = vec![rec(2, 2, b"b", 0), rec(2, 3, b"same", 0)];
        assert_eq!(
            check_no_join(&a, &b),
            Err(ForkEvidence::JoinAfterFork {
                forked_at: SeqNo(2),
                joined_at: SeqNo(3),
            })
        );
    }

    #[test]
    fn no_join_ignores_disjoint_seqnos() {
        let a = vec![rec(1, 1, b"x", 0), rec(1, 3, b"y", 0)];
        let b = vec![rec(2, 2, b"z", 0), rec(2, 4, b"w", 0)];
        check_no_join(&a, &b).unwrap();
    }

    #[test]
    fn same_seq_on_different_shards_is_not_divergence() {
        // Every shard numbers its own history from 1; identical
        // sequence numbers with different chains on different shards
        // are independent operations, not a fork.
        let mut a = rec(1, 1, b"on-shard-0", 0);
        let mut b = rec(2, 1, b"on-shard-1", 0);
        a.shard = 0;
        b.shard = 1;
        check_single_history(&[&[a.clone()], &[b.clone()]]).unwrap();
        check_stable_prefix(&[&[a.clone()], &[b.clone()]]).unwrap();
        check_no_join(&[a.clone()], &[b.clone()]).unwrap();
        // A client's view may interleave shards with locally repeating
        // sequence numbers.
        check_client_view(&[a.clone(), {
            let mut r = rec(1, 1, b"x", 0);
            r.shard = 1;
            r
        }])
        .unwrap();
        // But the same (shard, seq) with different chains is still a
        // fork.
        b.shard = 0;
        assert!(check_single_history(&[&[a], &[b]]).is_err());
    }

    #[test]
    fn fork_evidence_display() {
        let e = ForkEvidence::DivergentChains {
            seq: SeqNo(3),
            a: ClientId(1),
            b: ClientId(2),
        };
        assert!(format!("{e}").contains("divergent"));
    }
}
