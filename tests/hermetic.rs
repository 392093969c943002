//! The workspace builds from in-tree sources only. Cargo writes a
//! `source = ` line into a lockfile for every registry or git package and
//! none for a path package, so a lockfile without one proves that every
//! dependency, `vendor/` stand-ins included, resolves inside the repository.

use std::path::Path;

/// The `source = ` lines of a lockfile: one per registry or git package.
fn sources(lockfile: &str) -> Vec<&str> {
    lockfile
        .lines()
        .filter(|line| line.starts_with("source = "))
        .collect()
}

#[test]
fn both_lockfiles_resolve_every_package_in_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ["Cargo.lock", "examples/benchmark/Cargo.lock"] {
        let lockfile = std::fs::read_to_string(root.join(rel)).expect(rel);
        assert!(lockfile.contains("[[package]]"), "{rel} lists no package");
        assert_eq!(sources(&lockfile), Vec::<&str>::new(), "{rel}");
    }
}

#[test]
fn a_registry_package_is_caught() {
    let lockfile = "[[package]]\nname = \"eaao-obs\"\nversion = \"0.1.0\"\n\n\
                    [[package]]\nname = \"itoa\"\nversion = \"1.0.11\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(
        sources(lockfile),
        ["source = \"registry+https://github.com/rust-lang/crates.io-index\""]
    );
}
