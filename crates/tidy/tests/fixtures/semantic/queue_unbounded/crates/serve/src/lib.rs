#![warn(missing_docs, missing_debug_implementations)]
//! Fixture: an unbounded deque and channel beside bounded and
//! bound-commented negatives.

use std::collections::VecDeque;
use std::sync::mpsc;

fn unbounded_deque() -> VecDeque<u64> {
    VecDeque::new()
}

fn unbounded_channel() {
    let (tx, rx) = mpsc::channel::<u64>();
    drop((tx, rx));
}

fn bounded_channel() {
    let (tx, rx) = mpsc::sync_channel::<u64>(8);
    drop((tx, rx));
}

fn commented_deque() -> VecDeque<u64> {
    // bound: callers cap growth at SLOTS before each push
    VecDeque::new()
}

fn sized_deque() -> VecDeque<u64> {
    VecDeque::with_capacity(8)
}
