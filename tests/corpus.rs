//! Corpus replay gate: every scenario file the fuzzer has archived under
//! `tests/corpus/` must still reproduce its recorded `expect_outcome`
//! classification, byte for byte. A mismatch means a behaviour change
//! reached a previously-minimised offender — either a regression or an
//! intentional fix; if the latter, re-archive with `hinet fuzz` (delete
//! the stale file, re-run the recorded seed) and commit the new stamp.
//!
//! `ci.sh` runs the same check through the CLI (`hinet fuzz --replay
//! tests/corpus`); this test keeps `cargo test` self-contained.

use hinet::fuzz::replay_corpus;
use hinet::scenario::ScenarioFile;
use std::path::Path;

#[test]
fn every_archived_offender_reproduces_its_recorded_outcome() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let outcomes = replay_corpus(&dir).expect("the committed corpus must load and replay");
    assert!(
        !outcomes.is_empty(),
        "tests/corpus/ must hold at least one archived offender"
    );
    for o in &outcomes {
        assert!(
            o.ok(),
            "{}: expected '{}', got '{}' — a behaviour change reached this minimised \
             offender (see tests/corpus.rs header for the blessing workflow)",
            o.path.display(),
            o.expected,
            o.actual
        );
    }
    // The corpus exists to pin failures, not successes: offenders of both
    // recorded kinds must be represented.
    for kind in ["assumption-violated", "stalled"] {
        assert!(
            outcomes.iter().any(|o| o.expected.starts_with(kind)),
            "the corpus must retain at least one '{kind}' offender"
        );
    }
}

/// Every archived file is in canonical form: parsing and re-rendering it
/// reproduces the file byte for byte, so the corpus cannot drift from
/// the writer.
#[test]
fn every_archived_file_re_renders_byte_identically() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus readable") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "scenario") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            file.render(),
            text,
            "{} is not in canonical form",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "tests/corpus/ must hold scenario files");
}
