//! `repro` has one execution path: `--jobs` only sets the worker count,
//! so stdout and `results.jsonl` (its `wall_ms` fields aside) are the same
//! at any value.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eaao-repro-jobs").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the scratch dir");
    }
    dir
}

/// Runs `repro fig6 fig9 opt factors --quick` at `jobs` workers,
/// returning its stdout. `factors` is fast and follows the slow `opt` in
/// grid order, so with spare workers it completes first: the report must
/// still come out in grid order.
fn repro(jobs: usize, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig6", "fig9", "opt", "factors", "--quick"])
        .args(["--jobs", &jobs.to_string()])
        .arg("--json")
        .arg(out)
        .output()
        .expect("repro runs");
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
