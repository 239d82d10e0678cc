//! `lip_diff` on hostile JSON: a document nested far past the codec's
//! depth limit is a usage/I-O error (exit 2 with a message), never a
//! stack-overflow abort.

use std::path::PathBuf;
use std::process::Command;

const DEPTH: usize = 200_000;

fn deep_array() -> String {
    "[".repeat(DEPTH) + &"]".repeat(DEPTH)
}

fn deep_object() -> String {
    "{\"a\":".repeat(DEPTH) + "1" + &"}".repeat(DEPTH)
}

/// A fresh scratch directory holding `files` (name, contents).
fn scratch(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lip_diff_hostile_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("baselines")).unwrap();
    for (file, text) in files {
        std::fs::write(dir.join(file), text).unwrap();
    }
    dir
}

/// Run `lip_diff baseline check` in `dir`; return (exit code, stderr).
fn baseline_check(dir: &PathBuf) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lip_diff"))
        .args(["baseline", "check"])
        .current_dir(dir)
        .env("LIP_REPORT_DIR", dir)
        .output()
        .expect("lip_diff runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn deep_nesting_parses_to_an_error() {
    for text in [
        deep_array(),
        deep_object(),
        "[".repeat(DEPTH),
        "{\"a\":".repeat(DEPTH),
    ] {
        let err = lip_delta::parse(&text).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}

#[test]
fn deep_baseline_exits_2_with_a_message() {
    let deep = deep_array();
    let dir = scratch("baseline", &[("baselines/BENCH_x.json", &deep)]);
    let (code, stderr) = baseline_check(&dir);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("BENCH_x.json") && stderr.contains("nesting"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_artifact_exits_2_with_a_message() {
    let baseline =
        r#"{"schema_version": 1, "kind": "baseline", "source": "BENCH_x.json", "extracted": {}}"#;
    let deep = deep_object();
    let dir = scratch(
        "artifact",
        &[
            ("baselines/BENCH_x.json", baseline),
            ("BENCH_x.json", &deep),
        ],
    );
    let (code, stderr) = baseline_check(&dir);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
