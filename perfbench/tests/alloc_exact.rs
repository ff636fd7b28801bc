//! The counting allocator counts exactly the allocations made on the
//! measuring thread.

use ia_perfbench::alloc::{allocations, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn count(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn counts_a_known_allocation_pattern_exactly() {
    assert_eq!(count(|| drop(black_box(Vec::<u64>::new()))), 0);
    assert_eq!(count(|| drop(black_box(Box::new(())))), 0);
    assert_eq!(count(|| drop(black_box(Box::new(7u64)))), 1);
    assert_eq!(count(|| drop(black_box(vec![0u8; 4096]))), 1);
    assert_eq!(
        count(|| {
            let mut v: Vec<u32> = Vec::with_capacity(4);
            v.extend(0..4);
            v.reserve_exact(100); // one realloc
            black_box(&v);
        }),
        2
    );
    let words: Vec<String> = ["a", "bb", "ccc"].iter().map(|s| s.to_string()).collect();
    // The outer Vec plus one buffer per String.
    assert_eq!(count(|| drop(black_box(words.clone()))), 4);
    // A thread's allocations are not charged to the thread that joins it.
    let in_thread = std::thread::spawn(|| count(|| drop(black_box(vec![1u8; 64]))))
        .join()
        .expect("counting thread panicked");
    assert_eq!(in_thread, 1);
}
