//! Cross-crate property-based tests (proptest): the invariants that hold
//! for *arbitrary* inputs, not just the simulated campaign.

use proptest::prelude::*;
use proptest::test_runner::{rng_for, TestRng};
use siren_repro::cluster::Campaign;
use siren_repro::collector::Collector;
use siren_repro::consolidate::{consolidate, ConsolidateStats, ProcessRecord};
use siren_repro::db::{Database, Record};
use siren_repro::elf::{Binding, ElfBuilder, ElfFile, ElfType, SymType};
use siren_repro::fuzzy::{
    compare_parsed, fuzzy_hash, fuzzy_hash_reference, FuzzyHash, FuzzyHasher,
};
use siren_repro::net::SimChannel;
use siren_repro::text::Regex;
use siren_repro::wire::{chunk_message, Layer, Message, MessageHeader, MessageType, Reassembler};
use siren_repro::DeploymentConfig;

fn arb_layer() -> impl Strategy<Value = Layer> {
    prop_oneof![Just(Layer::SelfExe), Just(Layer::Script)]
}

fn arb_mtype() -> impl Strategy<Value = MessageType> {
    (0usize..MessageType::ALL.len()).prop_map(|i| MessageType::ALL[i])
}

fn arb_header() -> impl Strategy<Value = MessageHeader> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        "[0-9a-f]{0,32}",
        "[a-zA-Z0-9._-]{1,24}",
        any::<u64>(),
        arb_layer(),
        arb_mtype(),
    )
        .prop_map(
            |(job_id, step_id, pid, exe_hash, host, time, layer, mtype)| MessageHeader {
                job_id,
                step_id,
                pid,
                exe_hash,
                host,
                time,
                layer,
                mtype,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------------------------------------------------- fuzzy --

    /// The streaming engine agrees byte-for-byte with the published
    /// two-pass reference algorithm on arbitrary inputs.
    #[test]
    fn fuzzy_streaming_equals_reference(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
        prop_assert_eq!(fuzzy_hash(&data), fuzzy_hash_reference(&data));
    }

    /// Streaming digests are split-point independent.
    #[test]
    fn fuzzy_streaming_split_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        split_frac in 0.0f64..1.0,
    ) {
        let split = (data.len() as f64 * split_frac) as usize;
        let mut h = FuzzyHasher::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.digest(), fuzzy_hash(&data));
    }

    /// Self-similarity is 100 for any non-empty input; comparison is
    /// symmetric for arbitrary pairs.
    #[test]
    fn fuzzy_compare_self_and_symmetry(
        a in proptest::collection::vec(any::<u8>(), 1..4000),
        b in proptest::collection::vec(any::<u8>(), 1..4000),
    ) {
        let ha = fuzzy_hash(&a);
        let hb = fuzzy_hash(&b);
        prop_assert_eq!(compare_parsed(&ha, &ha), 100);
        prop_assert_eq!(compare_parsed(&ha, &hb), compare_parsed(&hb, &ha));
    }

    /// Generated hashes always re-parse to themselves.
    #[test]
    fn fuzzy_hash_text_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let h = fuzzy_hash(&data);
        let reparsed = FuzzyHash::parse(&h.to_string_repr()).unwrap();
        prop_assert_eq!(h, reparsed);
    }

    // ----------------------------------------------------------- wire --

    /// Datagram encode/decode round-trips arbitrary headers and content.
    #[test]
    fn wire_round_trip(header in arb_header(), content in "[ -~]{0,500}") {
        let msg = Message { header, chunk_index: 0, chunk_total: 1, content };
        prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    /// Chunking + reassembly reconstructs content under arbitrary chunk
    /// permutations and duplications.
    #[test]
    fn wire_reassembly_under_permutation(
        header in arb_header(),
        content in "[ -~]{0,4000}",
        limit in 100usize..1500,
        seed in any::<u64>(),
    ) {
        let chunks = chunk_message(&header, &content, limit);
        // Deterministic shuffle + duplicate every third chunk.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        let mut x = seed | 1;
        for i in (1..order.len()).rev() {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            order.swap(i, (x as usize) % (i + 1));
        }
        let mut reasm = Reassembler::new();
        let mut done = None;
        for &i in &order {
            if let Some(d) = reasm.push(chunks[i].clone()) {
                done = Some(d);
            }
            if i % 3 == 0 {
                let _ = reasm.push(chunks[i].clone()); // duplicate
            }
        }
        let done = done.expect("all chunks delivered");
        prop_assert_eq!(done.content, content);
    }

    /// Decoding never panics on arbitrary bytes.
    #[test]
    fn wire_decode_total(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Message::decode(&data);
    }

    // ------------------------------------------------------------- db --

    /// Database records survive binary encode/decode for arbitrary field
    /// values.
    #[test]
    fn db_record_round_trip(
        header in arb_header(),
        content in "\\PC{0,300}",
    ) {
        let rec = Record {
            job_id: header.job_id,
            step_id: header.step_id,
            pid: header.pid,
            exe_hash: header.exe_hash.clone(),
            host: header.host.clone(),
            time: header.time,
            layer: header.layer,
            mtype: header.mtype,
            content,
        };
        prop_assert_eq!(Record::decode(&rec.encode()), Some(rec));
    }

    /// Record decoding never panics on arbitrary bytes.
    #[test]
    fn db_record_decode_total(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Record::decode(&data);
    }

    // ------------------------------------------------------------ elf --

    /// Builder output always parses, and comments/symbols round-trip for
    /// arbitrary (printable, NUL-free) names.
    #[test]
    fn elf_round_trip(
        comments in proptest::collection::vec("[ -~]{1,60}", 0..4),
        symbols in proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9_]{0,30}", 0..16),
        text in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let mut builder = ElfBuilder::new(ElfType::Dyn).text(&text);
        for c in &comments {
            builder = builder.comment(c);
        }
        for (i, s) in symbols.iter().enumerate() {
            builder = builder.symbol(s, i as u64, 8, Binding::Global, SymType::Func);
        }
        let bin = builder.build();
        let parsed = ElfFile::parse(&bin).unwrap();
        prop_assert_eq!(parsed.comment_strings(), comments);
        let mut names: Vec<String> =
            parsed.global_symbols().into_iter().map(|s| s.name).collect();
        let mut expected = symbols.clone();
        names.sort();
        expected.sort();
        prop_assert_eq!(names, expected);
    }

    // ---------------------------------------------------------- regex --

    /// For escaped literal patterns, the engine agrees with `str::contains`.
    #[test]
    fn regex_literal_equals_contains(needle in "[a-z]{1,8}", hay in "[a-z]{0,40}") {
        let re = Regex::new(&needle).unwrap();
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    /// Anchored exact patterns match only the exact string.
    #[test]
    fn regex_anchored_exact(s in "[a-z]{1,10}", t in "[a-z]{1,10}") {
        let re = Regex::new(&format!("^{s}$")).unwrap();
        prop_assert_eq!(re.is_match(&t), s == t);
    }
}

// Appended invariants: WAL crash tolerance and the fuzzy-comparison
// oracle.

/// The fuzzy comparison as spamsum states it, kept as the oracle for
/// the bit-parallel kernel in `siren_fuzzy::compare`: `String` run
/// collapsing, a `HashSet` 7-gram gate, and the three-row weighted
/// Damerau–Levenshtein recurrence with spamsum's costs.
mod reference {
    use siren_repro::fuzzy::{FuzzyHash, MIN_BLOCKSIZE, ROLLING_WINDOW, SPAMSUM_LENGTH};
    use std::collections::HashSet;

    const COST_INSERT: u32 = 1;
    const COST_DELETE: u32 = 1;
    const COST_SUBSTITUTE: u32 = 3;
    const COST_TRANSPOSE: u32 = 5;

    pub fn compare_parsed(a: &FuzzyHash, b: &FuzzyHash) -> u32 {
        let (bs1, bs2) = (a.block_size, b.block_size);
        if bs1 == bs2 && a.sig1 == b.sig1 && a.sig2 == b.sig2 && !a.sig1.is_empty() {
            return 100;
        }
        if bs1 != bs2 && bs1 != bs2.wrapping_mul(2) && bs2 != bs1.wrapping_mul(2) {
            return 0;
        }
        let a1 = eliminate_sequences(&a.sig1);
        let a2 = eliminate_sequences(&a.sig2);
        let b1 = eliminate_sequences(&b.sig1);
        let b2 = eliminate_sequences(&b.sig2);
        if bs1 == bs2 {
            let s1 = score_strings(&a1, &b1, bs1);
            let s2 = score_strings(&a2, &b2, bs1.wrapping_mul(2));
            s1.max(s2)
        } else if bs1 == bs2.wrapping_mul(2) {
            score_strings(&a1, &b2, bs1)
        } else {
            score_strings(&a2, &b1, bs2)
        }
    }

    pub fn eliminate_sequences(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut run = 0usize;
        let mut prev = 0u8;
        for &c in s.as_bytes() {
            if c == prev {
                run += 1;
            } else {
                run = 1;
                prev = c;
            }
            if run <= 3 {
                out.push(c as char);
            }
        }
        out
    }

    pub fn has_common_substring(s1: &str, s2: &str) -> bool {
        if s1.len() < ROLLING_WINDOW || s2.len() < ROLLING_WINDOW {
            return false;
        }
        let grams: HashSet<&[u8]> = s1.as_bytes().windows(ROLLING_WINDOW).collect();
        s2.as_bytes()
            .windows(ROLLING_WINDOW)
            .any(|w| grams.contains(w))
    }

    pub fn edit_distance(s1: &str, s2: &str) -> u32 {
        let (a, b) = (s1.as_bytes(), s2.as_bytes());
        let (n, m) = (a.len(), b.len());
        let width = m + 1;
        let mut prev2 = vec![0u32; width];
        let mut prev: Vec<u32> = (0..width).map(|j| j as u32 * COST_INSERT).collect();
        let mut cur = vec![0u32; width];
        for i in 1..=n {
            cur[0] = i as u32 * COST_DELETE;
            for j in 1..=m {
                let mut best = prev[j] + COST_DELETE;
                best = best.min(cur[j - 1] + COST_INSERT);
                let sub = if a[i - 1] == b[j - 1] {
                    0
                } else {
                    COST_SUBSTITUTE
                };
                best = best.min(prev[j - 1] + sub);
                if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                    best = best.min(prev2[j - 2] + COST_TRANSPOSE);
                }
                cur[j] = best;
            }
            std::mem::swap(&mut prev2, &mut prev);
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[m]
    }

    pub fn score_strings(s1: &str, s2: &str, block_size: u32) -> u32 {
        if s1.len() > SPAMSUM_LENGTH || s2.len() > SPAMSUM_LENGTH {
            return 0;
        }
        if !has_common_substring(s1, s2) {
            return 0;
        }
        let d = u64::from(edit_distance(s1, s2));
        let total_len = (s1.len() + s2.len()) as u64;
        let mut score = d * SPAMSUM_LENGTH as u64 / total_len;
        score = 100 * score / SPAMSUM_LENGTH as u64;
        if score >= 100 {
            return 0;
        }
        let score = (100 - score) as u32;
        let cap = (block_size / MIN_BLOCKSIZE).saturating_mul(s1.len().min(s2.len()) as u32);
        score.min(cap)
    }
}

/// Base64 bytes biased toward a few characters, so that runs and shared
/// grams actually occur.
const BIASED: &[u8] = b"AAAABBBCCzyx0123+/QRSTUVWXYZabcdef";

/// A signature of exactly `len` bytes in which a third of the draws are
/// runs of up to eight bytes, the shape run collapsing eats.
fn run_heavy_sig(rng: &mut TestRng, len: usize) -> String {
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let c = BIASED[rng.below(BIASED.len() as u64) as usize] as char;
        let repeat = if rng.below(3) == 0 {
            rng.below(8) + 1
        } else {
            1
        };
        for _ in 0..(repeat as usize).min(len - s.len()) {
            s.push(c);
        }
    }
    s
}

/// `sig` after up to four random edits (insert, delete, substitute,
/// transpose, insert a run), cut to `max_len` bytes.
fn near_copy(rng: &mut TestRng, sig: &str, max_len: usize) -> String {
    let mut b = sig.as_bytes().to_vec();
    for _ in 0..rng.below(5) {
        let at = rng.below(b.len() as u64 + 1) as usize;
        let c = BIASED[rng.below(BIASED.len() as u64) as usize];
        match rng.below(5) {
            0 => b.insert(at, c),
            1 if at < b.len() => {
                b.remove(at);
            }
            2 if at < b.len() => b[at] = c,
            3 if at + 1 < b.len() => b.swap(at, at + 1),
            _ => {
                let run = rng.below(6) as usize + 1;
                b.splice(at..at, std::iter::repeat_n(c, run));
            }
        }
    }
    b.truncate(max_len);
    String::from_utf8(b).expect("base64 bytes")
}

/// A pair of hashes drawn over every block-size relation — equal,
/// double, half, unrelated, and at the top of the series (3·2^30, whose
/// doubled block size wraps) — with `b` built mostly from near copies of
/// `a`'s signatures so that many pairs score above 0. One pair in eight
/// is hand-built with a `sig1` over 64 bytes, which may or may not
/// collapse to a comparable length.
fn arb_pair(rng: &mut TestRng) -> (FuzzyHash, FuzzyHash) {
    let i = if rng.below(4) == 0 {
        30
    } else {
        rng.below(31) as u32
    };
    let bs_a = 3u32 << i;
    let bs_b = match rng.below(5) {
        0 => bs_a,
        1 => bs_a.wrapping_mul(2),
        2 if i > 0 => bs_a / 2,
        3 => 3 << rng.below(31),
        _ => bs_a,
    };
    let (len1, len2) = if rng.below(8) == 0 {
        (65 + rng.below(66) as usize, rng.below(71) as usize)
    } else {
        (rng.below(65) as usize, rng.below(33) as usize)
    };
    let a = FuzzyHash {
        block_size: bs_a,
        sig1: run_heavy_sig(rng, len1),
        sig2: run_heavy_sig(rng, len2),
    };
    let derive = |rng: &mut TestRng, max_len: usize| match rng.below(3) {
        0 => near_copy(rng, &a.sig1, max_len),
        1 => near_copy(rng, &a.sig2, max_len),
        _ => {
            let len = rng.below(max_len as u64 + 1) as usize;
            run_heavy_sig(rng, len)
        }
    };
    let (max1, max2) = (len1.max(64), len2.max(32));
    let b = FuzzyHash {
        block_size: bs_b,
        sig1: derive(rng, max1),
        sig2: derive(rng, max2),
    };
    (a, b)
}

/// The distinct `FILE_H` values of a seeded campaign, one per executable
/// image the campaign runs.
fn campaign_file_hashes() -> Vec<FuzzyHash> {
    use siren_repro::cluster::{Campaign, CampaignConfig};
    let mut images = std::collections::HashSet::new();
    let mut hashes = std::collections::BTreeSet::new();
    let config = CampaignConfig {
        scale: 0.002,
        seed: 0x51_4E,
        ..CampaignConfig::default()
    };
    Campaign::new(config).run(|ctx| {
        if images.insert(std::sync::Arc::as_ptr(&ctx.exe)) {
            hashes.insert(fuzzy_hash(&ctx.exe.data).to_string_repr());
        }
    });
    hashes
        .iter()
        .map(|h| FuzzyHash::parse(h).expect("generated FILE_H parses"))
        .collect()
}

/// The bit-parallel `compare_parsed` scores every pair exactly as the
/// weighted-DP reference does: random run-heavy pairs and near copies
/// over every block-size relation, hand-built overlong signatures, and
/// every pair of a seeded campaign's `FILE_H` values.
#[test]
fn compare_parsed_matches_reference() {
    let mut rng = rng_for("compare-parsed-vs-reference");
    let mut nonzero = 0;
    const PAIRS: usize = 20_000;
    for case in 0..PAIRS {
        let (a, b) = arb_pair(&mut rng);
        let want = reference::compare_parsed(&a, &b);
        assert_eq!(compare_parsed(&a, &b), want, "case {case}: {a:?} vs {b:?}");
        assert_eq!(compare_parsed(&b, &a), reference::compare_parsed(&b, &a));
        nonzero += usize::from(want > 0);
    }
    assert!(
        nonzero > PAIRS / 5,
        "only {nonzero} of {PAIRS} pairs scored"
    );
    let corpus = campaign_file_hashes();
    assert!(
        corpus.len() > 20,
        "campaign produced {} FILE_H",
        corpus.len()
    );
    let mut nonzero = 0;
    for a in &corpus {
        for b in &corpus {
            let want = reference::compare_parsed(a, b);
            assert_eq!(compare_parsed(a, b), want, "{a} vs {b}");
            nonzero += usize::from(want > 0);
        }
    }
    assert!(nonzero > corpus.len(), "no distinct campaign pair scored");
}

/// The public string functions agree with the reference at every input
/// length, inside one 64-byte word and past it.
#[test]
fn compare_string_functions_match_reference() {
    use siren_repro::fuzzy::compare as fast;
    let mut rng = rng_for("compare-strings-vs-reference");
    for case in 0..600 {
        let (len_s, len_t) = (rng.below(161) as usize, rng.below(161) as usize);
        let s = run_heavy_sig(&mut rng, len_s);
        let t = if rng.below(2) == 0 {
            near_copy(&mut rng, &s, 200)
        } else {
            run_heavy_sig(&mut rng, len_t)
        };
        let ctx = format!("case {case}: {s:?} vs {t:?}");
        assert_eq!(
            fast::eliminate_sequences(&s),
            reference::eliminate_sequences(&s),
            "{ctx}"
        );
        assert_eq!(
            fast::has_common_substring(&s, &t),
            reference::has_common_substring(&s, &t),
            "{ctx}"
        );
        assert_eq!(
            fast::edit_distance(&s, &t),
            reference::edit_distance(&s, &t),
            "{ctx}"
        );
        for bs in [3, 48, 3 << 30] {
            assert_eq!(
                fast::score_strings(&s, &t, bs),
                reference::score_strings(&s, &t, bs),
                "{ctx} at {bs}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production edit distance equals spamsum's weighted recurrence
    /// on signatures up to one word long.
    #[test]
    fn edit_distance_matches_oracle(a in "[A-Za-z0-9+/]{0,64}", b in "[A-Za-z0-9+/]{0,64}") {
        prop_assert_eq!(
            siren_repro::fuzzy::compare::edit_distance(&a, &b),
            reference::edit_distance(&a, &b)
        );
    }

    /// ... and on strings longer than one 64-byte word.
    #[test]
    fn edit_distance_matches_oracle_past_one_word(
        a in "[A-Za-z0-9+/]{65,200}",
        b in "[A-Za-z0-9+/]{0,200}",
    ) {
        use siren_repro::fuzzy::compare::edit_distance;
        prop_assert_eq!(edit_distance(&a, &b), reference::edit_distance(&a, &b));
        prop_assert_eq!(edit_distance(&b, &a), reference::edit_distance(&b, &a));
    }

    /// WAL crash tolerance: truncating the log at ANY byte position
    /// yields a replayable prefix of intact records — never a panic,
    /// never a corrupted record.
    #[test]
    fn wal_any_truncation_point_replays_prefix(
        n_records in 1usize..12,
        cut_frac in 0.0f64..1.0,
    ) {
        use siren_repro::db::{Record as DbRecord, WalReader, WalWriter};
        use siren_repro::wire::{Layer as WLayer, MessageType as WType};

        let dir = std::env::temp_dir().join(format!("siren-prop-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{n_records}-{}.wal", (cut_frac * 1e9) as u64));
        let _ = std::fs::remove_file(&path);

        let recs: Vec<DbRecord> = (0..n_records)
            .map(|i| DbRecord {
                job_id: i as u64,
                step_id: 0,
                pid: i as u32,
                exe_hash: format!("{i:x}"),
                host: "n".into(),
                time: i as u64,
                layer: WLayer::SelfExe,
                mtype: WType::Meta,
                content: format!("record-{i}"),
            })
            .collect();
        {
            let mut w = WalWriter::append_to(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            w.flush().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (replayed, _stats) = WalReader::open(&path).unwrap().replay().unwrap();
        prop_assert!(replayed.len() <= recs.len());
        for (got, want) in replayed.iter().zip(&recs) {
            prop_assert_eq!(got, want);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Sequence elimination is idempotent and never lengthens a string.
    #[test]
    fn eliminate_sequences_idempotent(s in "[A-Za-z]{0,64}") {
        use siren_repro::fuzzy::compare::eliminate_sequences;
        let once = eliminate_sequences(&s);
        prop_assert!(once.len() <= s.len());
        prop_assert_eq!(eliminate_sequences(&once), once.clone());
        // No run longer than 3 survives.
        let bytes = once.as_bytes();
        for w in bytes.windows(4) {
            prop_assert!(!(w[0] == w[1] && w[1] == w[2] && w[2] == w[3]));
        }
    }
}

// The reference receiver the ingest properties below check against:
// one reassembler, one in-memory database and one `consolidate` over the
// whole message stream — the paper's single receiver process (§3.1).

/// What the reference receiver produces for one message stream.
struct ReferenceFold {
    records: Vec<ProcessRecord>,
    stats: ConsolidateStats,
    db_rows: u64,
    complete: u64,
    incomplete: u64,
}

fn reference_fold(messages: &[Message]) -> ReferenceFold {
    let mut reasm = Reassembler::new();
    let db = Database::in_memory();
    let mut complete = 0u64;
    for msg in messages {
        if msg.header.mtype == MessageType::End {
            continue; // transport control, not data
        }
        if let Some(done) = reasm.push(msg.clone()) {
            complete += 1;
            db.insert_message(done).unwrap();
        }
    }
    let incomplete = reasm.drain_incomplete().len() as u64;
    let consolidated = consolidate(&db);
    ReferenceFold {
        records: consolidated.records,
        stats: consolidated.stats,
        db_rows: db.len() as u64,
        complete,
        incomplete,
    }
}

/// The message stream a simulated deployment of `cfg` ingests: the same
/// campaign, collector and seeded channel `Deployment::run` drives.
fn simulated_stream(cfg: &DeploymentConfig) -> Vec<Message> {
    let (tx, rx) = SimChannel::create(cfg.channel);
    let mut collector = Collector::new(&tx, cfg.policy);
    Campaign::new(cfg.campaign.clone()).run(|ctx| collector.observe(&ctx));
    rx.drain_messages().0
}

// Daemon crash-recovery determinism: a long-running service killed
// mid-stream and restarted must converge, after a full re-send of the
// interrupted campaign, on cross-epoch query results that are
// record-for-record identical to the reference fold over the same
// campaigns — with injected datagram loss, a fuzzed crash point, and a
// fuzzed torn-WAL-tail truncation.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn daemon_restart_mid_stream_recovers_cross_epoch_queries(
        campaign_seed in any::<u64>(),
        loss_seed in any::<u64>(),
        split_frac in 0.05f64..0.95,
        tear_frac in 0.0f64..0.5,
        shards in 1usize..4,
    ) {
        use siren_repro::cluster::{CampaignConfig, FleetConfig};
        use siren_repro::collector::PolicyMode;
        use siren_repro::net::SimConfig;
        use siren_repro::service::{ServiceConfig, SirenDaemon};

        let fleet = FleetConfig {
            clusters: 2,
            base: CampaignConfig {
                scale: 0.001,
                seed: campaign_seed,
                ..CampaignConfig::default()
            },
        };

        // Collect both campaigns once, with injected loss, so the crashed
        // daemon and the reference fold see identical streams.
        let collect = |k: usize| -> Vec<Message> {
            let (tx, rx) = SimChannel::create(SimConfig::with_loss(0.05, loss_seed ^ k as u64));
            let mut collector = Collector::new(&tx, PolicyMode::Selective)
                .with_sender_id(k as u32)
                .with_epoch(k as u64);
            Campaign::new(fleet.campaign_config(k)).run(|ctx| collector.observe(&ctx));
            collector.end_campaign();
            rx.drain_messages().0
        };
        let epoch_streams: Vec<Vec<Message>> = (0..2).map(collect).collect();
        let references: Vec<Vec<ProcessRecord>> =
            epoch_streams.iter().map(|m| reference_fold(m).records).collect();

        let dir = std::env::temp_dir().join(format!(
            "siren-prop-daemon-{}-{}",
            std::process::id(),
            campaign_seed & 0xFFFF
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServiceConfig {
            shards,
            ..ServiceConfig::at(&dir)
        };

        // Epoch 0 runs to completion; epoch 1 dies at a fuzzed point.
        {
            let (mut daemon, _) = SirenDaemon::open(cfg()).unwrap();
            for msg in &epoch_streams[0] {
                daemon.push(msg.clone()).unwrap();
            }
            if daemon.open_epoch().is_some() {
                daemon.close_epoch().unwrap(); // loss ate the sentinels
            }
            let split = ((epoch_streams[1].len() as f64) * split_frac) as usize;
            for msg in &epoch_streams[1][..split] {
                daemon.push(msg.clone()).unwrap();
            }
            daemon.simulate_crash().unwrap();
        }
        // Tear the tails of the interrupted epoch's shard WALs.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if name.contains(".msgs.shard") {
                let data = std::fs::read(&path).unwrap();
                let keep = data.len() - ((data.len() as f64) * tear_frac) as usize;
                std::fs::write(&path, &data[..keep]).unwrap();
            }
        }

        // Restart, re-send the whole interrupted campaign, close.
        let (mut daemon, recovery) = SirenDaemon::open(cfg()).unwrap();
        prop_assert_eq!(&recovery.committed_epochs, &vec![0]);
        if !epoch_streams[1].is_empty() && ((epoch_streams[1].len() as f64) * split_frac) as usize > 0 {
            prop_assert_eq!(recovery.resumed_epoch, Some(1));
        }
        for msg in &epoch_streams[1] {
            daemon.push(msg.clone()).unwrap();
        }
        if daemon.open_epoch().is_some() {
            daemon.close_epoch().unwrap();
        }

        // Cross-epoch queries equal the reference fold, record for
        // record.
        let query = daemon.snapshot();
        prop_assert_eq!(query.epochs(), vec![0, 1]);
        for (epoch, reference) in references.iter().enumerate() {
            let got: Vec<ProcessRecord> = query
                .epoch_records(epoch as u64)
                .into_iter()
                .cloned()
                .collect();
            prop_assert_eq!(&got, reference, "epoch {} after crash+restart", epoch);
        }
        // Per-job queries span both epochs' namespaces.
        for reference in &references {
            if let Some(probe) = reference.first() {
                prop_assert!(query
                    .job_records(probe.key.job_id)
                    .iter()
                    .any(|er| &er.record == probe));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// Shard-merge determinism: the sharded ingest service is a pure
// refactoring of the reference receiver — for any campaign seed, any
// loss pattern, and any shard count, the consolidated output must be
// equal record for record.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A deployment with n ∈ {1, 2, 8} shards equals the reference fold
    /// over the same message stream, with and without injected datagram
    /// loss.
    #[test]
    fn sharded_ingest_equals_serial(
        campaign_seed in any::<u64>(),
        channel_seed in any::<u64>(),
    ) {
        use siren_repro::net::SimConfig;
        use siren_repro::Deployment;

        for loss in [0.0f64, 0.05] {
            let mut cfg = DeploymentConfig::default();
            cfg.campaign.scale = 0.001;
            cfg.campaign.seed = campaign_seed;
            cfg.channel = if loss > 0.0 {
                SimConfig::with_loss(loss, channel_seed)
            } else {
                SimConfig::perfect()
            };
            // Unclamped: the 8-shard merge runs 8 workers even on a
            // machine with fewer cores.
            cfg.ingest_clamp = false;
            let reference = reference_fold(&simulated_stream(&cfg));
            for shards in [1usize, 2, 8] {
                cfg.shards = shards;
                let run = Deployment::new(cfg.clone()).run();
                if loss > 0.0 {
                    // The loss pattern must actually bite, or this case
                    // degenerates into the lossless one.
                    prop_assert!(run.datagrams_dropped > 0);
                }
                prop_assert_eq!(run.shard_stats.len(), shards);
                prop_assert_eq!(&run.records, &reference.records,
                    "shards={} loss={}", shards, loss);
                prop_assert_eq!(run.db_rows, reference.db_rows);
                prop_assert_eq!(run.reassembly_complete, reference.complete);
                prop_assert_eq!(run.reassembly_incomplete, reference.incomplete);
                prop_assert_eq!(run.consolidate_stats, reference.stats);
            }
        }
    }
}

// Crash-resume at the ingest tier: a service respawned on the WAL
// partitions an earlier run left behind — torn tails included — seeds
// each shard's fold from what its partition replays, so after a full
// re-send its output is exactly the fold of what the partitions then
// hold.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For n ∈ {1, 2, 3} unclamped shards: push a fuzzed prefix of a
    /// lossy campaign stream and finish, tear a fuzzed fraction off each
    /// partition's tail, respawn on the same WALs, re-send the whole
    /// stream and finish. `records`, `consolidate_stats` and `db_rows`
    /// equal the reference fold over each partition's replayed rows,
    /// merged by `record_order`.
    #[test]
    fn resumed_ingest_equals_fold_of_its_partitions(
        campaign_seed in any::<u64>(),
        loss_seed in any::<u64>(),
        split_frac in 0.05f64..0.95,
        tear_frac in 0.0f64..0.5,
        shards in 1usize..4,
    ) {
        use siren_repro::consolidate::record_order;
        use siren_repro::db::WalBackend;
        use siren_repro::ingest::{IngestConfig, IngestService};
        use siren_repro::net::SimConfig;

        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = 0.001;
        cfg.campaign.seed = campaign_seed;
        cfg.channel = SimConfig::with_loss(0.05, loss_seed);
        let stream = simulated_stream(&cfg);

        let dir = std::env::temp_dir().join(format!(
            "siren-prop-resume-{}-{}",
            std::process::id(),
            campaign_seed & 0xFFFF
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ingest_cfg = IngestConfig {
            wal_base: Some(dir.join("resume.sirendb")),
            ..IngestConfig::with_shards_unclamped(shards)
        };
        let run = |messages: &[Message]| {
            let mut svc = IngestService::spawn(ingest_cfg.clone()).unwrap();
            for msg in messages {
                svc.push(msg.clone());
            }
            svc.finish().unwrap()
        };

        let split = ((stream.len() as f64) * split_frac) as usize;
        run(&stream[..split]);
        for shard in 0..shards {
            let path = ingest_cfg.shard_wal_path(shard).unwrap();
            let data = std::fs::read(&path).unwrap();
            let keep = data.len() - ((data.len() as f64) * tear_frac) as usize;
            std::fs::write(&path, &data[..keep]).unwrap();
        }
        let resumed = run(&stream);

        let mut records = Vec::new();
        let mut stats = ConsolidateStats::default();
        let mut db_rows = 0u64;
        for shard in 0..shards {
            let path = ingest_cfg.shard_wal_path(shard).unwrap();
            let (_wal, rows, _) = WalBackend::<Record>::open(&path).unwrap();
            let db = Database::in_memory();
            db.insert_batch(rows).unwrap();
            db_rows += db.len() as u64;
            let folded = consolidate(&db);
            records.extend(folded.records);
            stats.self_rows += folded.stats.self_rows;
            stats.script_rows += folded.stats.script_rows;
            stats.merged_scripts += folded.stats.merged_scripts;
            stats.orphan_scripts += folded.stats.orphan_scripts;
            stats.processes += folded.stats.processes;
        }
        records.sort_by(record_order);

        prop_assert!(resumed.replay_stats().records > 0, "nothing was resumed");
        prop_assert_eq!(&resumed.records, &records, "shards={}", shards);
        prop_assert_eq!(resumed.stats, stats);
        prop_assert_eq!(resumed.db_rows(), db_rows);
        // Duplicate rows fold idempotently: the records are also those of
        // one uninterrupted pass over the stream.
        prop_assert_eq!(&resumed.records, &reference_fold(&stream).records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
