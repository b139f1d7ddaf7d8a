//! Fixture for the `compat-drift` rule: one item the benchmark names, one
//! it does not.

pub fn old_entry() {}

pub type Unread = u8;
