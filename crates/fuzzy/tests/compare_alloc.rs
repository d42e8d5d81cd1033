//! `compare_parsed` allocates nothing: run collapsing, the 7-gram gate
//! and the LCS all run in stack buffers. A counting global allocator
//! sees every allocation the comparing thread makes.

use siren_fuzzy::{compare_parsed, fuzzy_hash, FuzzyHash};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the thread-local counter it bumps is const-initialised and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread tearing down its thread-locals may still allocate;
        // those allocations go uncounted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn compare_parsed_does_not_allocate() {
    let mut x = 0x9E37_79B9u32;
    let data: Vec<u8> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as u8
        })
        .collect();
    let mut near = data.clone();
    near[20_000] ^= 0xFF;
    let base = fuzzy_hash(&data);
    let edited = fuzzy_hash(&near);
    let doubled = FuzzyHash {
        block_size: base.block_size * 2,
        sig1: base.sig2.clone(),
        sig2: String::new(),
    };
    // Over 64 raw bytes, but its runs collapse to fewer: it is scored.
    let runs = FuzzyHash {
        block_size: base.block_size,
        sig1: "AAAAAAAB".repeat(8) + &base.sig1[..24],
        sig2: base.sig2.clone(),
    };
    let pairs = [
        (&base, &edited),
        (&base, &base),
        (&base, &doubled),
        (&doubled, &base),
        (&runs, &base),
    ];

    let before = allocations();
    let scores = pairs.map(|(a, b)| compare_parsed(black_box(a), black_box(b)));
    let allocated = allocations() - before;

    assert_eq!(allocated, 0, "compare_parsed allocated {allocated} times");
    assert!(
        scores[0] > 0 && scores[0] < 100,
        "near copy scored {}",
        scores[0]
    );
    assert_eq!(scores[1], 100);
    assert!(scores[2..].iter().all(|&s| s > 0), "scores {scores:?}");
}
