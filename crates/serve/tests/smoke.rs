//! End-to-end smoke test of the `rlse-serve` binary: the fixture corpus
//! (all five request kinds) served twice through one process must produce
//! byte-identical responses, with the second pass served from the compiled
//! cache. This is the same invocation the CI serve step runs.

use std::process::Command;

#[test]
fn fixture_file_served_twice_is_byte_identical_with_cache_hits() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/requests.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_rlse-serve"))
        .args([
            "--input",
            fixture,
            "--repeat",
            "2",
            "--check-repeat",
            "--summary",
        ])
        .output()
        .expect("spawn rlse-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit: {:?}\n{stderr}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 12, "6 requests × 2 passes:\n{stdout}");
    assert_eq!(&lines[..6], &lines[6..], "passes must be byte-identical");
    for line in &lines[..6] {
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    // The --summary line reports compiled-cache traffic: the second pass
    // must have been served from the cache.
    let summary = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("summary JSON on stderr");
    let hits: u64 = summary
        .split("\"cache_hits\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("cache_hits in summary");
    assert!(hits > 0, "second pass must hit the cache: {summary}");
}

#[test]
fn fixture_file_matches_the_emitter() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/requests.jsonl");
    let on_disk = std::fs::read_to_string(fixture).expect("fixture file");
    let out = Command::new(env!("CARGO_BIN_EXE_rlse-serve"))
        .arg("--emit-fixture")
        .output()
        .expect("spawn rlse-serve");
    assert!(out.status.success());
    assert_eq!(
        on_disk,
        String::from_utf8(out.stdout).unwrap(),
        "regenerate with: cargo run -p rlse-serve -- --emit-fixture > crates/serve/fixtures/requests.jsonl"
    );
}

/// The fixture corpus's response bytes are pinned: a served-output change
/// (an engine swap, a counter rename) must show up here, not only as a
/// mismatch between two runs of the same code.
#[test]
fn fixture_responses_match_the_golden() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(env!("CARGO_BIN_EXE_rlse-serve"))
        .args(["--input", &format!("{dir}/fixtures/requests.jsonl")])
        .output()
        .expect("spawn rlse-serve");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let golden = std::fs::read_to_string(format!("{dir}/tests/golden/fixture_responses.jsonl"))
        .expect("golden fixture responses");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}
