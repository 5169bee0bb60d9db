//! The per-row synopsis-maintenance path allocates nothing of its own.
//!
//! `Dpt::record_insert` / `record_delete` project through a reusable
//! scratch buffer and feed each path node's moments and sorted-`Vec`
//! MIN/MAX extremes (§4.1); none of that touches the heap once the extremes
//! hold their `k` values. A counting global allocator pins it: an insert
//! the reservoir skips, and a delete of an unsampled row, allocate only
//! what the archive does. The §5.5 multi-template engine inserts through
//! the same pooled-sample step, so it inherits the bound.

use janus::core::templates::MultiTemplateEngine;
use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap requests made by the current thread (the test harness's other
    /// threads do not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell<u64>`
// thread-local that has no destructor and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The aggregate drifts upward with arrival order, so a steady share of
/// the inserts does enter some path node's top-k (a shift-insert and a pop)
/// while the rest stop at the one comparison against the far end.
fn row(id: u64, rng: &mut SmallRng) -> Row {
    let x = rng.gen::<f64>() * 1_000.0;
    let a = (x / 10.0).sin().abs() * 50.0 + 1.0 + id as f64 * 2e-3;
    Row::new(id, vec![x, a])
}

#[test]
fn skipped_inserts_and_unsampled_deletes_allocate_only_in_the_archive() {
    const BASE: u64 = 20_000;
    const SKIPPED_INSERTS: usize = 10_000;
    const DELETES: usize = 2_000;
    // Archive growth is amortised: taking the table from 20k to ~30k rows
    // doubles the value buffer, the id column and the id→slot map at most
    // a couple of times each. Nothing else on a skipped insert may
    // allocate, so a bound far below one per hundred rows catches any
    // per-row (or per-node) allocation.
    const INSERT_BOUND: u64 = 32;
    // A delete hands the removed tuple back as an owned `Row` — one
    // allocation, the archive's — and nothing else.
    const DELETE_BOUND: u64 = DELETES as u64 + 8;

    let mut rng = SmallRng::seed_from_u64(16);
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut config = SynopsisConfig::paper_default(template, 16);
    config.leaf_count = 32;
    config.sample_rate = 0.03;
    // The armed-trigger check (every `trigger_check_interval` updates)
    // searches for a candidate partitioning and allocates by design; it is
    // not per-row maintenance.
    config.auto_repartition = false;
    let initial: Vec<Row> = (0..BASE).map(|i| row(i, &mut rng)).collect();
    // `bootstrap` runs catch-up to its goal, so every node's extremes
    // already hold their `k` values.
    let mut engine = JanusEngine::bootstrap(config, initial).unwrap();

    // Warm-up: let the first archive growth steps and the lazy sizing of
    // any still-short extremes happen outside the measured window.
    let mut next = BASE;
    for _ in 0..2_000 {
        engine.insert(row(next, &mut rng)).unwrap();
        next += 1;
    }

    let (mut skipped, mut insert_allocs) = (0usize, 0u64);
    while skipped < SKIPPED_INSERTS {
        let r = row(next, &mut rng);
        let before = allocs();
        engine.insert(r).unwrap();
        let spent = allocs() - before;
        // An admitted insert also updates the stratum set and the
        // max-variance index; only the skipped ones are the claim.
        if engine.reservoir().get(next).is_none() {
            skipped += 1;
            insert_allocs += spent;
        }
        next += 1;
    }
    assert!(
        insert_allocs <= INSERT_BOUND,
        "{insert_allocs} allocations over {SKIPPED_INSERTS} skipped inserts (bound {INSERT_BOUND})"
    );

    let victims: Vec<u64> = (0..next)
        .filter(|&id| engine.reservoir().get(id).is_none())
        .step_by(7)
        .take(DELETES)
        .collect();
    assert_eq!(victims.len(), DELETES);
    let before = allocs();
    for &id in &victims {
        let removed = engine.delete(id).unwrap();
        assert_eq!(removed.id, id);
    }
    let delete_allocs = allocs() - before;
    assert!(
        delete_allocs <= DELETE_BOUND,
        "{delete_allocs} allocations over {DELETES} unsampled deletes (bound {DELETE_BOUND})"
    );
    assert_eq!(engine.population(), next as usize - DELETES);
}

/// Two trees over one pooled sample: a skipped insert costs two path
/// walks and nothing on the heap; only the ~5% the reservoir admits
/// allocate (a projected point and index nodes per tree).
#[test]
fn multi_template_inserts_allocate_less_than_once_each() {
    const BASE: u64 = 20_000;
    const INSERTS: u64 = 10_000;

    let mut rng = SmallRng::seed_from_u64(17);
    let configs = [(1, 0), (0, 1)]
        .map(|(agg, pred)| {
            let template = QueryTemplate::new(AggregateFunction::Sum, agg, vec![pred]);
            let mut config = SynopsisConfig::paper_default(template, 17);
            config.leaf_count = 32;
            config.sample_rate = 0.03;
            config
        })
        .to_vec();
    let initial: Vec<Row> = (0..BASE).map(|i| row(i, &mut rng)).collect();
    let mut engine = MultiTemplateEngine::bootstrap(configs, initial).unwrap();
    engine.run_all_catchup();

    let mut next = BASE;
    for _ in 0..2_000 {
        engine.insert(row(next, &mut rng)).unwrap();
        next += 1;
    }
    let rows: Vec<Row> = (next..next + INSERTS).map(|i| row(i, &mut rng)).collect();
    let before = allocs();
    for r in rows {
        engine.insert(r).unwrap();
    }
    let spent = allocs() - before;
    assert!(
        spent < INSERTS,
        "{spent} allocations over {INSERTS} inserts into two trees"
    );
    assert_eq!(engine.population() as u64, next + INSERTS);
}
