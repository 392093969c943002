//! `eaao-tidy` binary: scan the workspace, print findings, exit non-zero
//! on any.
//!
//! ```text
//! cargo run -p eaao-tidy                       # scan the enclosing workspace
//! cargo run -p eaao-tidy -- --root PATH
//! cargo run -p eaao-tidy -- --timings          # per-phase scan times
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(eaao_tidy::cli::run(&args))
}
