//! The `eaao-tidy` binary's command line: where it scans when no `--root`
//! is given (the nearest directory with a `[workspace]` manifest, found
//! by walking up from `CARGO_MANIFEST_DIR` or, without it, the current
//! directory), and how it refuses an argument it does not know.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tidy sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs the binary in `dir` without `CARGO_MANIFEST_DIR`.
fn tidy_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eaao-tidy"))
        .args(args)
        .current_dir(dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("eaao-tidy runs")
}

/// A fresh directory under the system temp dir, named for `test`.
fn temp_dir_for(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eaao-tidy-{test}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear a stale temp dir");
    }
    fs::create_dir_all(&dir).expect("create a temp dir");
    dir
}

#[test]
fn a_run_inside_a_crate_scans_the_whole_workspace() {
    // The real tree, from this crate's directory and from the root.
    let root = workspace_root();
    let inside = tidy_in(Path::new(env!("CARGO_MANIFEST_DIR")), &[]);
    let at_root = tidy_in(&root, &[]);
    assert_eq!(inside.status.code(), at_root.status.code());
    assert_eq!(
        String::from_utf8_lossy(&inside.stdout),
        String::from_utf8_lossy(&at_root.stdout)
    );

    // A tree with findings, so a scan of the wrong directory would show:
    // a bare `[workspace]` manifest above an empty crate directory.
    let ws = temp_dir_for("inside-a-crate");
    fs::write(ws.join("Cargo.toml"), "[workspace]\n").expect("write the manifest");
    let crate_src = ws.join("crates/core/src");
    fs::create_dir_all(&crate_src).expect("create a crate dir");
    let inside = tidy_in(&crate_src, &[]);
    let ws_arg = ws.to_str().expect("a UTF-8 temp path");
    let explicit = tidy_in(&root, &["--root", ws_arg]);
    fs::remove_dir_all(&ws).expect("remove the temp workspace");
    assert_eq!(explicit.status.code(), Some(1), "the tree has findings");
    assert_eq!(inside.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&inside.stdout),
        String::from_utf8_lossy(&explicit.stdout)
    );
}

#[test]
fn no_workspace_manifest_above_is_a_usage_error() {
    let dir = temp_dir_for("no-workspace");
    fs::write(dir.join("Cargo.toml"), "[package]\nname = \"lone\"\n").expect("write");
    let out = tidy_in(&dir, &[]);
    fs::remove_dir_all(&dir).expect("remove the temp dir");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[workspace]"), "{stderr}");
}

#[test]
fn the_removed_flags_are_unknown_arguments() {
    let root = workspace_root();
    for args in [&["--json", "-"][..], &["--write-baseline"][..]] {
        let out = tidy_in(&root, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{}`", args[0])),
            "{stderr}"
        );
    }
}
