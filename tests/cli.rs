//! Input errors at the `tifl` binary's boundary: an unreadable or
//! malformed input file, or a flag where `init` expects a path, exits 2
//! with a one-line message instead of panicking, and writes nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tifl-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn tifl(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tifl"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("tifl runs")
}

#[test]
fn bad_input_files_exit_2_with_a_parse_error() {
    let dir = tmp_dir("bad-input");
    std::fs::write(dir.join("wrong.json"), r#"{"x":1}"#).expect("write");
    std::fs::write(dir.join("truncated.json"), r#"{"name": "#).expect("write");
    for file in ["wrong.json", "truncated.json", "missing.json"] {
        for args in [
            vec!["profile", file],
            vec!["estimate", file],
            vec!["run", file, "uniform"],
            vec!["run", "--spec", file],
            vec!["sweep", file],
            vec!["trace", file],
            vec!["diff", file, file],
        ] {
            let out = tifl(&dir, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: parsing {file}")),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    // `sweep` exited before opening its default store directory.
    assert!(!dir.join("sweep-artifacts").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn init_rejects_a_flag_where_a_path_belongs() {
    let dir = tmp_dir("init-flag");
    for args in [
        vec!["init", "--help"],
        vec!["init", "-h"],
        vec!["init", "--spec", "--help"],
        vec!["init", "--sweep", "-o"],
    ] {
        let out = tifl(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(written.is_empty(), "init wrote {written:?}");
    // A real path still works.
    let out = tifl(&dir, &["init", "exp.json"]);
    assert!(out.status.success());
    assert!(dir.join("exp.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn other_usage_errors_exit_1() {
    let dir = tmp_dir("usage");
    for args in [vec!["frobnicate"], vec!["init"], vec!["run", "x.json"]] {
        let out = tifl(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
