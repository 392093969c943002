//! Fixture: valid suppressions silence exactly the named check.

// tidy:allow(determinism) -- fixture: keyed-only map, standalone form
use std::collections::HashMap;
use std::collections::HashSet; // tidy:allow(determinism) -- fixture: trailing form

pub fn logged() -> u64 {
    // tidy:allow(determinism) -- fixture: wall time for a log line only
    std::time::Instant::now().elapsed().as_secs()
}
