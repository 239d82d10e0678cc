//! Mutation fuzzing of the two parsers that read untrusted files: the
//! JSON codec (run-store and baseline artefacts) and the `.lid` netlist
//! parser. Each case takes a real file from the repository, applies a
//! few byte-level mutations — overwrites, insertions, deletions,
//! truncation, and duplicated slices that deepen nesting — and parses
//! the result. The parser must answer `Ok` or `Err`; a panic fails the
//! case.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use lip::graph::parse_netlist_spanned;
use lip::obs::json::parse;
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes that steer mutations towards syntax the parsers branch on.
const SYNTAX: &[u8] = b"{}[]\",:\\-+0123456789.eEtrufalsn \n\t#>:=/u";

/// One mutation: `(position seed, operation, byte)`.
type Mutation = (u64, u8, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    vec((any::<u64>(), 0u8..5, any::<u8>()), 1..8usize)
}

fn mutate(src: &str, muts: &[Mutation]) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for &(at, op, b) in muts {
        let pos = usize::try_from(at % (bytes.len() as u64 + 1)).unwrap_or(0);
        let byte = if b < 0x80 {
            SYNTAX[usize::from(b) % SYNTAX.len()]
        } else {
            b
        };
        match op {
            0 if pos < bytes.len() => bytes[pos] = byte,
            1 => bytes.insert(pos, byte),
            2 if pos < bytes.len() => {
                bytes.remove(pos);
            }
            3 => bytes.truncate(pos),
            _ => {
                let end = (pos + usize::from(b % 64)).min(bytes.len());
                let slice = bytes[pos..end].to_vec();
                bytes.splice(pos..pos, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every file under `dir` whose name satisfies `keep`, sorted.
fn files(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&keep))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| fs::read_to_string(p).unwrap())
        .collect()
}

/// The repository's committed JSON artefacts. The `BENCH_*.json` files
/// are written in the codec's pretty layout, the `baselines/` in its
/// compact one.
fn json_corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = pretty_artefacts().to_vec();
        corpus.extend(files(Path::new("baselines"), |n| n.ends_with(".json")));
        assert!(corpus.len() >= 8, "JSON corpus went missing");
        corpus
    })
}

fn pretty_artefacts() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = files(Path::new("."), |n| {
            n.starts_with("BENCH_") && n.ends_with(".json")
        });
        corpus.extend(files(Path::new("crates/lint/tests/golden"), |n| {
            n.ends_with(".json.expected")
        }));
        corpus
    })
}

fn lid_corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let corpus = files(Path::new("designs"), |n| n.ends_with(".lid"));
        assert!(corpus.len() >= 3, ".lid corpus went missing");
        corpus
    })
}

/// Every committed artefact is the codec's own output: parsing and
/// printing it again reproduces the file byte for byte.
#[test]
fn committed_artefacts_round_trip_byte_identically() {
    for text in pretty_artefacts() {
        assert_eq!(&parse(text).unwrap().to_pretty(), text);
    }
    for text in files(Path::new("baselines"), |n| n.ends_with(".json")) {
        assert_eq!(parse(&text).unwrap().to_compact() + "\n", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Mutated artefacts parse to `Ok` or `Err`, never a panic; what
    /// parses re-parses from its own compact print.
    #[test]
    fn mutated_json_never_panics(pick in any::<u64>(), muts in mutations()) {
        let corpus = json_corpus();
        let src = &corpus[(pick % corpus.len() as u64) as usize];
        if let Ok(doc) = parse(&mutate(src, &muts)) {
            prop_assert!(parse(&doc.to_compact()).is_ok());
        }
    }
}

proptest! {
    // 200k mutations: the scale at which the `.lid` parser was first
    // found panic-free (once zero-port pearls became errors).
    #![proptest_config(ProptestConfig::with_cases(200_000))]

    /// Mutated design files parse to `Ok` or a spanned `Err`, never a
    /// panic.
    #[test]
    fn mutated_lid_never_panics(pick in any::<u64>(), muts in mutations()) {
        let corpus = lid_corpus();
        let src = &corpus[(pick % corpus.len() as u64) as usize];
        let _ = parse_netlist_spanned(&mutate(src, &muts));
    }
}
