//! The architecture rules: structural facts that some of LCM's
//! guarantees rest on, checked over the source text by every
//! `cargo test`.
//!
//! The host is the only link adversary (§2.3), so there is exactly one
//! transport; `T` seals one state record (Alg. 2); `unsafe` is fenced
//! into three hardware kernels. The compiler checks none of these, so
//! each is a rule here, and each rule carries its reason beside it.
//!
//! A rule matches lines of the files under `crates`, `src`, `tests`
//! and `examples` (and `.github` for the perf-gate rule). Every
//! `target/` directory is skipped, and so is this file, which names
//! what the rules forbid. A file's *non-test* code is its lines before
//! the first `#[cfg(test)]` in column 0. The matchers are hand-rolled
//! on `std`; the `matcher_*` tests at the bottom pin each one to the
//! grep pattern it stands for.
//!
//! A failing rule names the file, line or pin at fault. A change that
//! moves a pin on purpose lowers or renames it here in the same commit.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// One scanned file.
struct Source {
    /// Relative to the repository root, `/`-separated.
    path: String,
    text: String,
}

const THIS_FILE: &str = "tests/architecture.rs";

/// Where a file's test code starts, when it starts in column 0.
const TEST_CUT: &str = "#[cfg(test)]";

/// Every file the rules may scan, read once and sorted by path.
fn tree() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "examples", ".github"] {
            walk(root, dir, &mut files);
        }
        files.retain(|f| f.path != THIS_FILE);
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    })
}

/// Appends every file under `base/rel` to `out`, skipping every
/// directory named `target`. A missing `rel` adds nothing.
fn walk(base: &Path, rel: &str, out: &mut Vec<Source>) {
    let Ok(entries) = fs::read_dir(base.join(rel)) else {
        return;
    };
    for entry in entries {
        let entry = entry.expect("a readable directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = format!("{rel}/{name}");
        let kind = entry.file_type().expect("a readable file type");
        if kind.is_dir() && name != "target" {
            walk(base, &path, out);
        } else if kind.is_file() {
            let bytes = fs::read(entry.path()).expect("a readable file");
            let text = String::from_utf8_lossy(&bytes).into_owned();
            out.push(Source { path, text });
        }
    }
}

/// Whether `path` is `dir` itself or lies beneath it.
fn within(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// The scanned files under any of `dirs` whose names end in one of
/// `exts` (any name, if `exts` is empty).
fn files<'a>(dirs: &'a [&str], exts: &'a [&str]) -> impl Iterator<Item = &'static Source> + 'a {
    tree().iter().filter(move |f| {
        dirs.iter().any(|d| within(&f.path, d))
            && (exts.is_empty() || exts.iter().any(|e| f.path.ends_with(e)))
    })
}

/// The scanned file at `path`.
fn file(path: &str) -> &'static Source {
    tree()
        .iter()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path}: no such file"))
}

/// A file's non-test lines: those before its first column-0
/// `#[cfg(test)]`.
fn non_test(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|l| !l.starts_with(TEST_CUT))
}

/// `path:line: text` for every line of `sources` that `hit` selects;
/// with `non_test_only`, only the non-test lines are looked at.
fn hits<'a>(
    sources: impl Iterator<Item = &'a Source>,
    non_test_only: bool,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for f in sources {
        for (n, line) in f.text.lines().enumerate() {
            if non_test_only && line.starts_with(TEST_CUT) {
                break;
            }
            if hit(line) {
                found.push(format!("{}:{}: {}", f.path, n + 1, line.trim()));
            }
        }
    }
    found
}

/// Whether `c` is a word character in grep's sense.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether no word character precedes byte `at` of `text`.
fn word_starts_at(text: &str, at: usize) -> bool {
    text[..at].chars().next_back().map_or(true, |c| !is_word(c))
}

/// Whether no word character follows from byte `at` of `text`.
fn word_ends_at(text: &str, at: usize) -> bool {
    text[at..].chars().next().map_or(true, |c| !is_word(c))
}

/// Whether `line` contains `needle` ending at a word boundary — the
/// grep pattern `needle\b`.
fn contains_word(line: &str, needle: &str) -> bool {
    line.match_indices(needle)
        .any(|(i, _)| word_ends_at(line, i + needle.len()))
}

/// Whether `line` uses `unsafe` as a keyword — the grep pattern
/// `\bunsafe[[:space:]]+(fn|impl|trait|extern)\b|\bunsafe[[:space:]]*\{`.
/// Prose such as "unsafe code" and the lint name `unsafe_code` do not
/// match.
fn is_unsafe_code(line: &str) -> bool {
    line.match_indices("unsafe").any(|(i, kw)| {
        if !word_starts_at(line, i) {
            return false;
        }
        let rest = &line[i + kw.len()..];
        let after = rest.trim_start();
        if after.starts_with('{') {
            return true;
        }
        after.len() < rest.len()
            && ["fn", "impl", "trait", "extern"]
                .iter()
                .any(|k| after.strip_prefix(k).is_some_and(|r| word_ends_at(r, 0)))
    })
}

/// Whether `line` matches the grep pattern `impl.*<role>`.
fn is_impl_of(line: &str, role: &str) -> bool {
    line.find("impl")
        .is_some_and(|i| line[i + "impl".len()..].contains(role))
}

/// An impl line reduced to `Trait for Type`, as
/// `sed 's/^impl<[^>]*> //; s/ {$//'` reduces it. Without
/// `generics_required`, a plain `impl ` head is stripped too
/// (`s/^impl\(<[^>]*>\)\{0,1\} //`). Indented lines keep their head.
fn impl_target(line: &str, generics_required: bool) -> &str {
    let headless = line.strip_prefix("impl").and_then(|rest| {
        let generic = rest
            .strip_prefix('<')
            .and_then(|g| g.find('>').map(|end| &g[end + 1..]))
            .and_then(|r| r.strip_prefix(' '));
        match generic {
            Some(target) => Some(target),
            None if !generics_required => rest.strip_prefix(' '),
            None => None,
        }
    });
    let target = headless.unwrap_or(line);
    target.strip_suffix(" {").unwrap_or(target)
}

/// The lines of `text` from the first one that starts with `head`
/// through the next one that starts with `}` — the awk range
/// `/^head/,/^}/`.
fn block<'a>(text: &'a str, head: &str) -> Vec<&'a str> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with(head));
    let Some(first) = lines.next() else {
        return Vec::new();
    };
    let mut body = vec![first];
    for line in lines {
        body.push(line);
        if line.starts_with('}') {
            break;
        }
    }
    body
}

/// Whether `line` is a row of the `all_modes!` matrix — the grep
/// pattern `^ +mod [a-z0-9_]+ \{`.
fn is_mode_row(line: &str) -> bool {
    let rest = line.trim_start_matches(' ');
    let Some(name) = rest.strip_prefix("mod ") else {
        return false;
    };
    let ident = name
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(name.len());
    rest.len() < line.len() && ident > 0 && name[ident..].starts_with(" {")
}

/// Every line under `dirs` (files ending in `exts`) that names one of
/// `names` anywhere, or one of `words` followed by a word boundary.
fn mentions(dirs: &[&str], exts: &[&str], names: &[&str], words: &[&str]) -> Vec<String> {
    hits(files(dirs, exts), false, |l| {
        names.iter().any(|n| l.contains(n)) || words.iter().any(|w| contains_word(l, w))
    })
}

// ---------------------------------------------------------------- rules

/// The workspace's `unsafe` is four hardware kernels in lcm-crypto:
/// SHA-256 on the SHA extensions, ChaCha20 on AVX2, CRC-32 on
/// PCLMULQDQ and AES-128-GCM on AES-NI + PCLMULQDQ. `unsafe` as a
/// keyword may occur in exactly those four files, each admitted by its
/// own `allow(unsafe_code)` on its `mod` line under a crate root that
/// denies it, and every other crate root — the trusted crate's among
/// them — must still forbid it.
#[test]
fn unsafe_stays_in_four_files() {
    let found: Vec<&str> = files(&["crates", "src"], &[".rs"])
        .filter(|f| f.text.lines().any(is_unsafe_code))
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(
        found,
        [
            "crates/crypto/src/chacha20/avx2.rs",
            "crates/crypto/src/framing/clmul.rs",
            "crates/crypto/src/gcm/aesni.rs",
            "crates/crypto/src/sha256/shani.rs",
        ],
        "files with unsafe code"
    );

    let roots: Vec<&Source> = tree()
        .iter()
        .filter(|f| {
            f.path == "src/lib.rs"
                || (f.path.starts_with("crates/")
                    && f.path.ends_with("/src/lib.rs")
                    && f.path.matches('/').count() == 3)
        })
        .collect();
    assert!(roots.len() > 1, "no crate roots found");
    for root in roots {
        let attr = match root.path.as_str() {
            "crates/crypto/src/lib.rs" => "#![deny(unsafe_code)]",
            _ => "#![forbid(unsafe_code)]",
        };
        assert!(
            root.text.lines().any(|l| l.starts_with(attr)),
            "{}: expected {attr}",
            root.path
        );
    }

    let allows = hits(files(&["crates", "src"], &[".rs"]), false, |l| {
        let l = l.trim_start();
        l.starts_with("#[allow(unsafe_code)]") || l.starts_with("#![allow(unsafe_code)]")
    });
    assert_eq!(allows.len(), 4, "allow(unsafe_code) sites: {allows:#?}");
}

/// One trait per role (`crates/core/src/server.rs` module docs): the
/// deployment surface has two implementors — `ShardedServer` and any
/// lane on its own — the shard surface two, and a group member is a
/// concrete `LcmServer`. A third `BatchServer` impl (a wrapper that
/// forwards every verb, as the front-end's did), or library code
/// holding a deployment behind a `Box`, is the five-impls-per-verb
/// surface growing back.
#[test]
fn one_trait_per_role() {
    let impls = |role: &str, generics_required: bool| {
        let mut found: Vec<String> = files(&["crates", "src"], &[".rs"])
            .flat_map(|f| f.text.lines())
            .filter(|l| is_impl_of(l, role))
            .map(|l| impl_target(l, generics_required).to_string())
            .collect();
        found.sort();
        found
    };
    assert_eq!(
        impls("BatchServer for", false),
        ["BatchServer for L", "BatchServer for ShardedServer"],
        "BatchServer impls"
    );
    assert_eq!(
        impls("Lane for", true),
        ["Lane for LcmServer<F>", "Lane for ReplicaGroup<F>"],
        "Lane impls"
    );

    let boxed = hits(files(&["crates/core/src", "src"], &[".rs"]), true, |l| {
        l.contains("Box<dyn BatchServer>")
    });
    assert!(
        boxed.is_empty(),
        "boxed deployments in library code: {boxed:#?}"
    );
}

/// One state record (`crates/trusted/src/context.rs` module docs): a whole
/// context has one encoding — the record `encode_state` writes, sealed
/// as a checkpoint or carried by a migration ticket — and a partial one
/// has one, the functionality's delta. The names of the second decoders
/// that used to exist stay gone, and `V` is encoded at exactly two
/// places in the context's module tree: the state record and the delta.
#[test]
fn one_state_record() {
    let gone = mentions(
        &["crates", "src"],
        &[".rs"],
        &[
            "apply_partition",
            "import_migration_with",
            "import_migration_as",
            "ImportMigrationAs",
        ],
        &[],
    );
    assert!(gone.is_empty(), "second decoders: {gone:#?}");

    let context = files(
        &[
            "crates/trusted/src/context.rs",
            "crates/trusted/src/context",
        ],
        &[".rs"],
    );
    let encoders = hits(context, true, |l| l.contains("encode_vmap("));
    assert_eq!(
        encoders.len(),
        2,
        "non-test encode_vmap( sites: {encoders:#?}"
    );
}

/// One driving path (`crates/core/src/shard.rs` module docs, §
/// Concurrent driving): a deployment either has continuous drivers or
/// none, and with none the caller steps the `ShardedServer`. The
/// on-demand pump window, its sweeper handshake, the second stats
/// rollup and the second deployment face (`Frontend`, a wrapper over
/// the same `ShardedServer`) stay gone, and the scenario matrix keeps
/// its rows. A
/// continuous driver waits in exactly one place, the work signal a
/// filling batch raises (`GUARANTEES.md`, "The drivers' wake rule"): a
/// blind nap in `driver_loop` would let full batches wait out the
/// linger again.
#[test]
fn one_driving_path() {
    let gone = mentions(
        &["crates", "src"],
        &[".rs"],
        &[
            "DriveMode",
            "set_window",
            "window_open",
            "sweepers",
            "ShardStatsRollup",
        ],
        &["fn absorb", "fn rejected", "fn replayed", "Frontend"],
    );
    assert!(gone.is_empty(), "second driving path: {gone:#?}");

    let body = block(
        &file("crates/core/src/transport.rs").text,
        "fn driver_loop(",
    );
    assert!(
        !body.is_empty(),
        "crates/core/src/transport.rs: no fn driver_loop"
    );
    let naps = body.iter().filter(|l| l.contains("thread::sleep")).count();
    let waits: usize = body.iter().map(|l| l.matches("wait_work(").count()).sum();
    assert_eq!(
        (naps, waits),
        (0, 1),
        "crates/core/src/transport.rs driver_loop: (blind naps, wait points)"
    );

    let rows = block(&file("tests/common/mod.rs").text, "macro_rules! all_modes")
        .into_iter()
        .filter(|l| is_mode_row(l))
        .count();
    assert_eq!(rows, 10, "tests/common/mod.rs: all_modes! rows");
}

/// One transport (`crates/core/src/transport.rs` module docs;
/// `GUARANTEES.md`, "Host powers"): the host is the link adversary, so
/// every wire attack is a host action on `submit` / `process_all` /
/// `submit_to_shard`. The link-relay crate and the blob-store AOF model
/// stay gone, and so does what nothing ran: the unprotected native and
/// file-AOF servers (Fig. 5/6 "Native" and "Redis TLS" are simulator
/// cost profiles), the no-op serde shim, the modelled ecall-cost and
/// blocking-TMC sleeps, the unused sealed-box container, and the lock
/// shim over `std::sync` (a poisoned lock is recovered where it is
/// taken). So does the SGX-only baseline's second stack (its own call
/// codec, program, host loop and state slot): it is an `LcmServer`
/// over its own program now.
#[test]
fn one_transport() {
    let gone = mentions(
        &["crates", "src", "tests", "examples"],
        &[".rs", ".toml"],
        &[
            "lcm_net",
            "lcm-net",
            "Duplex",
            "LinkController",
            "RedisLikeKvsServer",
            "NativeKvsServer",
            "FileAofKvsServer",
            "FsyncPolicy",
            "set_ecall_cost",
            "increment_blocking",
            "SealedBox",
            "serde",
            "ProgramCall",
            "SecureKvsProgram",
            "SLOT_SGX_STATE",
            "sgx-kvs.state",
            "parking_lot",
        ],
        &[],
    );
    assert!(gone.is_empty(), "second transport: {gone:#?}");
}

/// One persistence engine: every lane persists through a
/// `DeltaLogStorage` — a deployment's, or over a plain store the lane's
/// own, which it recovers at every boot — and the adversary rolls back
/// and forks whole media. The second engine (the one-slot bundle
/// adapter), its stress toggle and replication-stream row, and the
/// per-slot rollback modes stay gone; exactly one storage type answers
/// `delta_capable()` with a literal `true`, and every other
/// implementation forwards its inner store's answer (the trait's
/// default is the one `false`).
#[test]
fn one_persistence_engine() {
    let gone = mentions(
        &["crates", "src", "tests", "examples", ".github"],
        &[".rs", ".toml", ".yml"],
        &[
            "BundleStorage",
            "LCM_STRESS_DELTALOG",
            "maybe_deltalog",
            "Store::Bundle",
            "AdversaryMode::Frozen",
            "ServeStale",
        ],
        &[],
    );
    assert!(gone.is_empty(), "second engine: {gone:#?}");
    let modes = block(
        &file("crates/storage/src/adversary.rs").text,
        "pub enum AdversaryMode",
    );
    assert!(
        !modes.iter().any(|l| contains_word(l, "Frozen")),
        "a per-slot rollback mode: {modes:#?}"
    );

    let mut answers = Vec::new();
    for f in files(&["crates", "src", "tests", "examples"], &[".rs"]) {
        let mut lines = f.text.lines().enumerate();
        while let Some((n, line)) = lines.next() {
            if line
                .trim_start()
                .starts_with("fn delta_capable(&self) -> bool {")
            {
                let body = lines.next().map_or("", |(_, l)| l.trim());
                answers.push((format!("{}:{}", f.path, n + 1), body));
            }
        }
    }
    let literal = |value: &str| -> Vec<&str> {
        let found = answers.iter().filter(|(_, body)| *body == value);
        found
            .map(|(at, _)| at.split(':').next().unwrap_or(at))
            .collect()
    };
    assert_eq!(literal("true"), ["crates/storage/src/deltalog.rs"]);
    assert_eq!(literal("false"), ["crates/storage/src/lib.rs"]);
    let other: Vec<_> = answers
        .iter()
        .filter(|(_, body)| {
            !matches!(*body, "true" | "false") && !body.ends_with(".delta_capable()")
        })
        .collect();
    assert!(other.is_empty(), "answers that do not forward: {other:#?}");
    assert!(answers.len() >= 6, "{answers:#?}");
}

/// One perf gate (CI's `benchmark-smoke` job, over the `lcm_benchmark`
/// run): the second harness of wall-clock cells over modelled sleeps,
/// its committed baseline, its tolerance knob and the front-end lane
/// dump stay gone. Their names are joined at run time, so no file names
/// them whole. What that harness asserted is pinned by tier-1 tests:
///
/// | retired cell | test |
/// |---|---|
/// | 4-over-1 shard speedup | `sharding_validation::four_shards_beat_one_*` |
/// | front-end speedup | `sharding_validation::simulator_frontend_knob_tracks_the_real_trend` |
/// | admission p99 ceiling | `admission_stress::bounded_interference_*` |
/// | replicated write cost | `sharding_validation::replica_ack_term_tracks_the_real_quorum_cost` |
/// | delta-log state-size independence | `sharding_validation::delta_store_term_tracks_the_real_engine_state_independence` |
/// | replica-group state-size independence | `replication_stream::{shipped_bytes_do_not_depend_on_state, sealed_bytes_per_batch_do_not_depend_on_state_on_a_plain_store}` |
/// | deployment device bytes | `replication_stream::device_bytes_per_batch_do_not_depend_on_state_in_a_deployment_over_a_plain_store` |
/// | 8-over-4 scale-out | `sharding::eight_shards_answer_a_uniform_round_in_half_the_steps_of_four` |
/// | reshard recovery | `sharding::rebalancing_a_hot_shard_at_least_quarters_its_steps_per_round` |
/// | hot-skew collapse | `transport::tests::a_held_lane_does_not_stall_its_siblings` |
/// | follower-read scale-out | `replica::tests::reads_pinned_to_distinct_members_do_not_wait_for_each_other` |
///
/// The last four count batch cycles or hold a lock instead of timing
/// sleeps; each must keep existing. So must the request path's
/// allocation budget (`tests/alloc_budget.rs`: at most 8 heap
/// allocations per Put, client invoke to verified reply), and the
/// witnesses of quorum-sized persists (`GUARANTEES.md`, "The
/// replication stream and the straggler rule"): the durability
/// invariant recovered from every member's medium after each scripted
/// step, and the two state-independence tests above, which see exactly
/// a quorum's slots end in a batch's delta and every slot after a
/// flush.
#[test]
fn one_perf_gate() {
    let gone: Vec<String> = [
        ["bench_", "snapshot"],
        ["bench_", "gate"],
        ["BENCH_", "pipeline"],
        ["LCM_BENCH_", "TOLERANCE"],
        ["LCM_FE_", "DEBUG"],
    ]
    .iter()
    .map(|parts| parts.concat())
    .collect();
    let gone: Vec<&str> = gone.iter().map(String::as_str).collect();
    let found = mentions(
        &["crates", "src", "tests", "examples", ".github"],
        &[],
        &gone,
        &[],
    );
    assert!(found.is_empty(), "second perf gate: {found:#?}");

    const PINS: [&str; 10] = [
        "tests/sharding.rs:eight_shards_answer_a_uniform_round_in_half_the_steps_of_four",
        "tests/sharding.rs:rebalancing_a_hot_shard_at_least_quarters_its_steps_per_round",
        "crates/core/src/transport.rs:a_held_lane_does_not_stall_its_siblings",
        "crates/core/src/replica.rs:reads_pinned_to_distinct_members_do_not_wait_for_each_other",
        "crates/core/src/replica.rs:every_released_write_is_on_a_quorum_of_media_after_every_step",
        "crates/core/src/replica.rs:with_a_quorum_of_one_every_follower_straggles_and_one_is_promoted",
        "tests/replication_stream.rs:shipped_bytes_do_not_depend_on_state",
        "tests/replication_stream.rs:sealed_bytes_per_batch_do_not_depend_on_state_on_a_plain_store",
        "tests/replication_stream.rs:device_bytes_per_batch_do_not_depend_on_state_in_a_deployment_over_a_plain_store",
        "tests/alloc_budget.rs:a_put_stays_within_its_allocation_budget",
    ];
    for pin in PINS {
        let (path, name) = pin.split_once(':').expect("a path:fn pin");
        assert!(
            file(path).text.contains(&format!("fn {name}()")),
            "missing pin: {pin}"
        );
    }
}

/// Every `path.rs::fn` reference in `text`, in order.
fn test_refs(text: &str) -> Vec<(&str, &str)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut refs = Vec::new();
    for (at, sep) in text.match_indices(".rs::") {
        let start = text[..at].rfind(|c: char| !is_path(c)).map_or(0, |i| i + 1);
        let name = &text[at + sep.len()..];
        let end = name.find(|c: char| !is_word(c)).unwrap_or(name.len());
        refs.push((&text[start..at + ".rs".len()], &name[..end]));
    }
    refs
}

/// `GUARANTEES.md` states, for each extension beyond the paper, the
/// claim and the tests that would fail if it were false. Each entry
/// (a `## ` section) names at least one test as `path.rs::fn`, and
/// every named test exists, so a rename cannot leave a claim pointing
/// at nothing.
#[test]
fn every_guarantee_names_tests_that_exist() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("GUARANTEES.md");
    let text = fs::read_to_string(path).expect("GUARANTEES.md at the repository root");
    let entries: Vec<&str> = text.split("\n## ").skip(1).collect();
    assert!(!entries.is_empty(), "GUARANTEES.md: no `## ` entries");
    let mut missing = Vec::new();
    for entry in entries {
        let title = entry.lines().next().unwrap_or_default();
        let refs = test_refs(entry);
        if refs.is_empty() {
            missing.push(format!("GUARANTEES.md \"{title}\": names no test"));
        }
        for (path, name) in refs {
            let defined = tree().iter().find(|f| f.path == path).is_some_and(|f| {
                let head = format!("fn {name}(");
                f.text
                    .match_indices(&head)
                    .any(|(i, _)| word_starts_at(&f.text, i))
            });
            if !defined {
                missing.push(format!("GUARANTEES.md \"{title}\": no fn {name} in {path}"));
            }
        }
    }
    assert!(missing.is_empty(), "{missing:#?}");
}

/// Clock census: threads spawn only through `lcm-runtime`
/// ([`threads_spawn_only_in_the_runtime`]), and the clock is to follow
/// them there. Every non-test
/// `Instant::now` / `thread::sleep` site outside the runtime is pinned
/// here by file and count, so a new site fails, and so does a removed
/// one until its pin is lowered: the census can only go down. The scope
/// is the library crates' `src` and the root `src`; `lcm-runtime` owns
/// the clock, and `lcm-bench` and `lcm-sim` are measurement tools whose
/// job is to read it.
#[test]
fn clock_census_only_goes_down() {
    const OWNERS: [&str; 3] = ["crates/runtime", "crates/bench", "crates/sim"];
    const CENSUS: [(&str, usize); 4] = [
        ("crates/core/src/admission.rs", 2),
        ("crates/core/src/shard.rs", 3),
        ("crates/core/src/transport.rs", 1),
        ("crates/storage/src/delayed.rs", 1),
    ];
    let mut found = BTreeMap::new();
    for f in files(&["crates", "src"], &[".rs"]) {
        let crate_src = f.path.starts_with("src/")
            || (f.path.split('/').nth(2) == Some("src")
                && !OWNERS.iter().any(|o| within(&f.path, o)));
        if !crate_src {
            continue;
        }
        let sites: usize = non_test(&f.text)
            .map(|l| l.matches("Instant::now").count() + l.matches("thread::sleep").count())
            .sum();
        if sites > 0 {
            found.insert(f.path.as_str(), sites);
        }
    }
    assert_eq!(
        found,
        BTreeMap::from(CENSUS),
        "non-test clock sites by file"
    );
}

/// Threads spawn only through `lcm-runtime`: every thread of the
/// library crates is a `WorkerPool` worker (a deployment's shard and
/// driver pools, a pipelined lane's persist writer), so each is named,
/// joined when its owner drops, and fed through a bounded queue. No
/// non-test `thread::spawn`, `thread::Builder` or `thread::scope`
/// appears in the library crates' `src` or the root `src` outside
/// `crates/runtime`; `lcm-bench` and `lcm-sim` are exempt, as in the
/// clock census.
#[test]
fn threads_spawn_only_in_the_runtime() {
    const OWNERS: [&str; 3] = ["crates/runtime", "crates/bench", "crates/sim"];
    const SPAWNS: [&str; 3] = ["thread::spawn", "thread::Builder", "thread::scope"];
    let is_spawn = |l: &str| SPAWNS.iter().any(|n| l.contains(n));
    let sources = files(&["crates", "src"], &[".rs"]).filter(|f| {
        f.path.starts_with("src/")
            || (f.path.split('/').nth(2) == Some("src")
                && !OWNERS.iter().any(|o| within(&f.path, o)))
    });
    let found = hits(sources, true, is_spawn);
    assert!(
        found.is_empty(),
        "threads spawned outside the runtime: {found:#?}"
    );
    assert!(
        non_test(&file("crates/runtime/src/pool.rs").text).any(is_spawn),
        "crates/runtime/src/pool.rs spawns no thread: the rule matches nothing"
    );
}

/// The code `T` runs is the `lcm-trusted` crate, the client that
/// checks it is `lcm-client`, and neither names a clock, thread or lock
/// in non-test code. What `T` computes and what the client accepts
/// must not depend on host time or scheduling, so these crates take
/// neither `std::time`, `std::thread` nor `std::sync`.
#[test]
fn trusted_modules_take_no_clock_thread_or_lock() {
    const HOST_ONLY: [&str; 5] = ["std::time", "std::thread", "std::sync", "Instant", "sleep("];
    for dir in [TRUSTED_SRC, CLIENT_SRC] {
        assert!(files(&[dir], &[".rs"]).count() > 1, "{dir}: no crate");
    }
    let found = hits(files(&[TRUSTED_SRC, CLIENT_SRC], &[".rs"]), true, |l| {
        HOST_ONLY.iter().any(|n| l.contains(n))
    });
    assert!(
        found.is_empty(),
        "host-only names in trusted or client modules: {found:#?}"
    );
}

/// The host's decisions — the reply book, the routing history, the
/// heat and the pending slice move — are one plain value,
/// `lcm_core::host::Core` (`crates/core/src/host.rs` module docs), so a
/// single thread can drive them through any schedule. Its non-test
/// code names no lock, thread, atomic or clock reading: callers pass
/// `now` and hold the one lock around it.
#[test]
fn host_core_takes_no_clock_thread_or_lock() {
    const MECHANISMS: [&str; 7] = [
        "std::sync",
        "std::thread",
        "Atomic",
        "Mutex",
        "Instant::now",
        "SystemTime",
        "sleep(",
    ];
    let core = file("crates/core/src/host.rs");
    assert!(non_test(&core.text).any(|l| l.contains("struct Core")));
    let found = hits(std::iter::once(core), true, |l| {
        MECHANISMS.iter().any(|n| l.contains(n))
    });
    assert!(
        found.is_empty(),
        "mechanisms in the host's core: {found:#?}"
    );
}

/// Where the code `T` runs lives.
const TRUSTED_SRC: &str = "crates/trusted/src";

/// Where the client (Alg. 1) and the history checkers live.
const CLIENT_SRC: &str = "crates/client/src";

/// The package names under `[dependencies]` of the manifest at `path`,
/// in order.
fn deps(path: &str) -> Vec<&'static str> {
    file(path)
        .text
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once('=').map(|(key, _)| key.trim()))
        .map(|key| key.split_once('.').map_or(key, |(name, _)| name))
        .collect()
}

/// The trusted crate builds on the primitives and the TEE alone: the
/// `[dependencies]` of its manifest are exactly `lcm-crypto` and
/// `lcm-tee`. A dependency on storage, the runtime or the host stack
/// would put their code — threads, locks, clocks — inside `T`.
#[test]
fn trusted_crate_depends_only_on_crypto_and_tee() {
    assert_eq!(
        deps("crates/trusted/Cargo.toml"),
        ["lcm-crypto", "lcm-tee"],
        "crates/trusted/Cargo.toml [dependencies]"
    );
}

/// The client trusts nothing on the server except `T` (§2.3): the
/// `[dependencies]` of its manifest are exactly `lcm-crypto`,
/// `lcm-trusted` (the formats `T` seals) and `rand` (the start of its
/// nonce counter). A dependency on storage, the runtime or the host
/// stack would let what the host says decide what the client accepts.
#[test]
fn client_crate_depends_only_on_trusted_crypto_and_rand() {
    assert_eq!(
        deps("crates/client/Cargo.toml"),
        ["lcm-crypto", "lcm-trusted", "rand"],
        "crates/client/Cargo.toml [dependencies]"
    );
}

/// The TCB — the code `T` runs, `lcm-trusted`'s non-test lines — only
/// shrinks. Its size is pinned here: a rise fails, and so does a fall
/// until the pin is lowered, like the clock census. Every line of `T`
/// is a line the threat model must trust.
#[test]
fn tcb_only_shrinks() {
    const TCB_LINES: usize = 5271;
    let lines: usize = files(&[TRUSTED_SRC], &[".rs"])
        .map(|f| non_test(&f.text).count())
        .sum();
    assert_eq!(
        lines, TCB_LINES,
        "{TRUSTED_SRC}: non-test lines (the TCB is {lines}; lower the pin after a cut)"
    );
}

/// The client — `lcm-client`'s non-test lines — only shrinks, like the
/// TCB: the detection claim rests on every line of it, so its size is
/// pinned here and a rise fails.
#[test]
fn client_only_shrinks() {
    const CLIENT_LINES: usize = 1275;
    let lines: usize = files(&[CLIENT_SRC], &[".rs"])
        .map(|f| non_test(&f.text).count())
        .sum();
    assert_eq!(
        lines, CLIENT_LINES,
        "{CLIENT_SRC}: non-test lines (the client is {lines}; lower the pin after a cut)"
    );
}

// ------------------------------------------------------------- matchers

#[test]
fn matcher_unsafe_keyword_and_not_prose() {
    for line in [
        "    unsafe { core::arch::x86_64::_mm_sha256msg1_epu32(a, b) }",
        "let x = unsafe{ f() };",
        "unsafe fn compress(state: &mut [u32; 8]) {",
        "pub(crate) unsafe fn keystream() {}",
        "unsafe impl Send for Kernel {}",
        "unsafe trait Raw {}",
        "unsafe extern \"C\" {}",
        "unsafe\tfn tabbed() {}",
    ] {
        assert!(is_unsafe_code(line), "{line}");
    }
    for line in [
        "#![forbid(unsafe_code)]",
        "#[allow(unsafe_code)]",
        "// unsafe code lives in three files",
        "//! `unsafe` is fenced into three kernels",
        "fn not_unsafe_fn() {}",
        "unsafe_fn {}",
        "unsafe function",
        "unsafe fnord",
    ] {
        assert!(!is_unsafe_code(line), "{line}");
    }
}

#[test]
fn matcher_impl_lines_normalise_as_sed_does() {
    let line = "impl<L: Lane + ?Sized> BatchServer for L {";
    assert!(is_impl_of(line, "BatchServer for"));
    assert!(!is_impl_of(line, "Lane for"));
    assert_eq!(impl_target(line, false), "BatchServer for L");
    assert_eq!(
        impl_target("impl BatchServer for Frontend {", false),
        "BatchServer for Frontend"
    );
    assert_eq!(
        impl_target("impl<F: Functionality> Lane for LcmServer<F> {", true),
        "Lane for LcmServer<F>"
    );
    // A head without generics is kept where generics are required, and
    // an indented impl (a test double) always keeps its head.
    assert_eq!(
        impl_target("impl Lane for Fake {", true),
        "impl Lane for Fake"
    );
    assert_eq!(
        impl_target("    impl BatchServer for Fake {", false),
        "    impl BatchServer for Fake"
    );
    assert!(!is_impl_of("BatchServer for L", "BatchServer for"));
}

#[test]
fn matcher_non_test_code_ends_at_the_first_column_0_cfg_test() {
    let text = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\n";
    assert_eq!(
        non_test(text).collect::<Vec<_>>(),
        ["fn a() {}", "    #[cfg(test)]", "fn b() {}"]
    );
}

#[test]
fn matcher_blocks_rows_and_word_ends() {
    let text = "fn other() {}\nfn driver_loop(x: u8) {\n    wait_work(x);\n}\nfn after() {}\n";
    assert_eq!(
        block(text, "fn driver_loop("),
        ["fn driver_loop(x: u8) {", "    wait_work(x);", "}"]
    );
    assert!(block(text, "fn absent(").is_empty());

    assert!(is_mode_row("        mod sharded_sync_4 {"));
    assert!(!is_mode_row("mod sync_mode {"));
    assert!(!is_mode_row("        mod Sync {"));
    assert!(!is_mode_row("        mod sync_mode{"));

    assert!(contains_word("    fn absorb(&self)", "fn absorb"));
    assert!(contains_word("fn absorb", "fn absorb"));
    assert!(!contains_word("fn absorbed(&self)", "fn absorb"));
    assert!(contains_word("impl Drop for Frontend {", "Frontend"));
    assert!(!contains_word("    port: FrontendPort,", "Frontend"));
}

#[test]
fn matcher_test_refs_parse_path_and_fn() {
    let text = "`tests/sharding.rs::eight_shards` and `crates/core/src/replica.rs::a_b`.";
    assert_eq!(
        test_refs(text),
        [
            ("tests/sharding.rs", "eight_shards"),
            ("crates/core/src/replica.rs", "a_b")
        ]
    );
}

#[test]
fn matcher_walk_skips_target_directories() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("architecture-walk");
    let _ = fs::remove_dir_all(&base);
    for dir in ["crates/x/src", "crates/x/target/debug", "crates/target"] {
        fs::create_dir_all(base.join(dir)).expect("a scratch directory");
    }
    for path in [
        "crates/x/src/lib.rs",
        "crates/x/target/debug/out.rs",
        "crates/target/lib.rs",
    ] {
        fs::write(base.join(path), "unsafe {}").expect("a scratch file");
    }
    let mut found = Vec::new();
    walk(&base, "crates", &mut found);
    let paths: Vec<&str> = found.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(paths, ["crates/x/src/lib.rs"]);
    fs::remove_dir_all(&base).expect("scratch directory removed");
}
