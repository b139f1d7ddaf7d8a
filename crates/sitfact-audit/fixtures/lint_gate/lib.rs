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

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        let parsed: Result<u32, _> = "1".parse();
        assert_eq!(parsed.unwrap(), super::first(&[1]));
    }
}
