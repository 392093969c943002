//! Fixture: a suppression for the wrong check silences nothing.

// tidy:allow(lock-order) -- fixture: wrong check on purpose
use std::collections::HashMap;
