//! The planted source of `tests/lint_gate.rs`: compiled as the library of a
//! throwaway crate that carries the workspace's lint table and root
//! `clippy.toml`, never as part of the workspace. Each line that must fail
//! names its lint at the end; the test reads the expected lines from those
//! comments. Everything else must stay quiet.

/// An unsafe block, next to a string and a comment that also say unsafe.
pub fn raw_read(x: &u32) -> u32 {
    let ptr: *const u32 = x;
    let _decoy = "unsafe { panic!() }";
    unsafe { *ptr } // expect: unsafe_code
}

/// Library panics.
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // expect: clippy::unwrap_used
}

pub fn second(xs: &[u32]) -> u32 {
    *xs.get(1).expect("two items") // expect: clippy::expect_used
}

pub fn refuse() {
    panic!("refused") // expect: clippy::panic
}

pub fn later() {
    todo!() // expect: clippy::todo
}

pub fn never() {
    unimplemented!() // expect: clippy::unimplemented
}

/// Hand-rolled threads, the plain call and the two forms a substring match
/// misses.
pub fn detach() {
    std::thread::spawn(|| {}); // expect: clippy::disallowed_methods
}

pub fn detach_named() {
    let _ = std::thread::Builder::new().spawn(|| {}); // expect: clippy::disallowed_methods
}

use std::thread::spawn;

pub fn detach_imported() {
    spawn(|| {}); // expect: clippy::disallowed_methods
}

/// Clock reads, the plain call and an aliased one.
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now() // expect: clippy::disallowed_methods
}

use std::time::Instant as Clock;

pub fn tick() -> Clock {
    Clock::now() // expect: clippy::disallowed_methods
}

/// Suppressions: an `allow` without a reason, and an expectation nothing
/// fulfils.
#[allow(dead_code)] // expect: clippy::allow_attributes clippy::allow_attributes_without_reason
fn unused() {}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")] // expect: unfulfilled_lint_expectations
pub fn calm() {}

/// Hash iteration, whose order may leak into what the loop builds.
pub fn keys(map: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    let mut keys = Vec::new();
    for key in map.keys() { // expect: clippy::iter_over_hash_type
        keys.push(*key);
    }
    keys
}

/// A codec module: its header denies indexing and truncating casts, and its
/// tests may still index.
pub mod codec {
    #![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

    pub fn head(buf: &[u8]) -> u8 {
        buf[0] // expect: clippy::indexing_slicing
    }

    pub fn length(buf: &[u8]) -> u32 {
        buf.len() as u32 // expect: clippy::cast_possible_truncation
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn indexing_in_tests_is_fine() {
            let buf = [7u8, 1];
            assert_eq!(super::head(&buf), buf[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        let parsed: Result<u32, _> = "1".parse();
        assert_eq!(parsed.unwrap(), super::first(&[1]));
    }
}
