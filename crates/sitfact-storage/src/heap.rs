//! The allocator model behind the heap estimates of the skyline store and
//! the context counter: what a hash table and a vector of a given capacity
//! cost, allocator overhead included, so that an estimate adds up to the
//! resident memory the structure really takes.

use std::mem::size_of;

/// What one heap allocation costs beyond its payload: a glibc-style malloc
/// keeps an 8-byte size word in front of every chunk and rounds chunks up to
/// 16 bytes.
pub(crate) const ALLOC_OVERHEAD: usize = 16;

/// Control bytes hashbrown keeps beyond one per bucket (one SSE2 group).
const HASH_GROUP_WIDTH: usize = 16;

/// The buckets behind a hash map of this `capacity()`: hashbrown fills at
/// most 7/8 of a table of 8 buckets or more, and all but one bucket of a
/// smaller one.
pub(crate) fn hash_buckets(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    }
}

/// The one allocation of a hash map of this `capacity()` whose entries take
/// `entry` bytes: every bucket holds an entry and a control byte, and the
/// table carries one group of spare control bytes.
pub(crate) fn hash_table_bytes(capacity: usize, entry: usize) -> usize {
    match hash_buckets(capacity) {
        0 => 0,
        buckets => buckets * (entry + 1) + HASH_GROUP_WIDTH + ALLOC_OVERHEAD,
    }
}

/// The allocation behind a vector: its capacity, not its length.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    match v.capacity() {
        0 => 0,
        capacity => capacity * size_of::<T>() + ALLOC_OVERHEAD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::FxHashMap;

    #[test]
    fn hash_buckets_follow_the_table_sizes() {
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        assert_eq!(hash_buckets(map.capacity()), 0);
        let mut seen = Vec::new();
        for i in 0..2000 {
            map.insert(i, i);
            let buckets = hash_buckets(map.capacity());
            assert!(buckets.is_power_of_two(), "{} -> {buckets}", map.capacity());
            assert!(map.len() <= map.capacity() && map.capacity() < buckets);
            if seen.last() != Some(&buckets) {
                seen.push(buckets);
            }
        }
        assert_eq!(seen[..4], [4, 8, 16, 32]);
    }

    #[test]
    fn tables_and_vectors_cost_their_capacity() {
        assert_eq!(hash_table_bytes(0, 24), 0);
        assert_eq!(hash_table_bytes(3, 24), 4 * 25 + 16 + 16);
        let mut v: Vec<u64> = Vec::new();
        assert_eq!(vec_bytes(&v), 0);
        v.reserve_exact(5);
        v.push(1);
        assert_eq!(vec_bytes(&v), 5 * 8 + 16);
    }
}
