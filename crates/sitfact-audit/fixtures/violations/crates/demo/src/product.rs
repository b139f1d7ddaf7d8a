//! Fixture: product code calling a `compat` item (flagged at line 6); the
//! mention in this comment, old_entry, and the test below stay quiet.

pub fn run() {
    // old_entry() in a comment is quiet.
    crate::compat::old_entry();
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        crate::compat::old_entry();
    }
}
