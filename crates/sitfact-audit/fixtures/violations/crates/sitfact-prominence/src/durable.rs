//! Fixture codec module with its header: `lints-drift` stays quiet here,
//! and fires on the fixture `protocol.rs`, which lacks it.
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]
