//! Fixture: a clean crate whose manifest opts out of the lint policy.

/// Nothing to find here.
pub fn clean() {}
