//! Fixture for the `lints-drift` rule's source half: a library file that
//! allows a lint the fixture's workspace table denies, for the whole crate.
#![allow(clippy::unwrap_used, reason = "flagged: the table denies it")]
#![allow(clippy::needless_return, reason = "quiet: the table does not deny it")]

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
