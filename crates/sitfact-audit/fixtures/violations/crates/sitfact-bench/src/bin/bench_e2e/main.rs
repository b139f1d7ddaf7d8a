//! Fixture: the frozen benchmark, the one reader of `compat` items.

fn main() {
    demo::compat::old_entry();
}
