//! The `eaao` command line: `repro` has one execution path, so `--jobs`
//! only sets the worker count, and every command rejects what it does not
//! declare.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use eaao::prelude::*;

fn eaao(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eaao"))
        .args(args)
        .output()
        .expect("eaao runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eaao-cli").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the scratch dir");
    }
    dir
}

/// Runs `eaao repro fig6 fig9 opt factors --quick` at `jobs` workers,
/// returning its stdout. `factors` is fast and follows the slow `opt` in
/// grid order, so with spare workers it completes first: the report must
/// still come out in grid order.
fn repro(jobs: usize, out: &Path) -> String {
    let jobs = jobs.to_string();
    let out = out.to_str().expect("scratch paths are UTF-8");
    let output = eaao(&[
        "repro", "fig6", "fig9", "opt", "factors", "--quick", "--jobs", &jobs, "--out", out,
    ]);
    assert!(
        output.status.success(),
        "repro --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// `results.jsonl` with every `"wall_ms":<number>` zeroed.
fn results_without_wall_time(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("results.jsonl")).expect("results exist");
    let key = "\"wall_ms\":";
    let mut out = String::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(key) {
        let value = &rest[at + key.len()..];
        let end = value.find([',', '}']).expect("a field value ends");
        out.push_str(&rest[..at + key.len()]);
        out.push('0');
        rest = &value[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn jobs_1_and_jobs_3_print_and_write_the_same() {
    let (one, three) = (scratch("jobs1"), scratch("jobs3"));
    let stdout_one = repro(1, &one);
    let stdout_three = repro(3, &three);
    assert_eq!(
        stdout_one, stdout_three,
        "stdout differs between --jobs 1 and 3"
    );
    for heading in ["Figure 6", "Figure 9", "optimizations", "other factors"] {
        assert!(stdout_one.contains(heading), "no {heading} section");
    }
    assert!(stdout_one.contains("with a 2-minute interval"));

    let results_one = results_without_wall_time(&one);
    assert_eq!(results_one.lines().count(), 4);
    assert_eq!(results_one, results_without_wall_time(&three));
    for dir in [&one, &three] {
        assert!(dir.join("campaign.json").exists());
    }
}

#[test]
fn a_misspelled_flag_exits_2_and_is_named() {
    let out = scratch("typo");
    let output = eaao(&[
        "campaign",
        "--experiments",
        "fig6",
        "--regions",
        "us-west1",
        "--seedz",
        "3",
        "--quick",
        "--out",
        out.to_str().expect("scratch paths are UTF-8"),
    ]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown flag \"--seedz\""));
    assert!(!out.exists(), "nothing runs after a bad flag");

    // A switch never takes the next argument as its value.
    let output = eaao(&["campaign", "--experiments", "fig6", "--quick", "us-west1"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unexpected argument \"us-west1\""));

    let output = eaao(&["repro", "fig6", "--quick", "--jobs", "0"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--jobs"));
}

#[test]
fn a_removed_command_is_an_unknown_command() {
    let output = eaao(&["attack", "--region", "us-west1"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command \"attack\""));
    assert!(stderr.contains("usage: eaao"));
}

#[test]
fn help_exits_0_and_lists_the_registry() {
    for flag in ["help", "--help", "-h"] {
        let output = eaao(&[flag]);
        assert_eq!(output.status.code(), Some(0), "eaao {flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("usage: eaao"));
        for experiment in &EXPERIMENTS {
            assert!(
                stdout.contains(experiment.name),
                "{flag} omits {}",
                experiment.name
            );
        }
    }
    let output = eaao(&[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage: eaao"));
}
