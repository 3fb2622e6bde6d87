//! Peak heap of the optimised HPCG solve: it holds one copy of its operator.
//!
//! A counting global allocator tracks live and peak heap bytes for this
//! test binary, which holds this one test so no other test's allocations
//! mix in.

use a64fx_apps::hpcg::{run_real_optimised, HpcgConfig};
use sparsela::coloring::Coloring;
use sparsela::ell::SellMatrix;
use sparsela::gen::{stencil27, stencil27_row};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// own arguments; the counters are statistics that publish no other data,
// so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn optimised_hpcg_holds_one_copy_of_its_operator() {
    let edge = 24;
    let rows = edge * edge * edge;
    let operator = SellMatrix::from_colored_rows(
        &Coloring::stencil8(edge, edge, edge),
        8,
        32,
        |r, cols, vals| stencil27_row(edge, edge, edge, r, cols, vals),
    )
    .memory_bytes() as usize;
    let csr = stencil27(edge, edge, edge).memory_bytes() as usize;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let res = run_real_optimised(HpcgConfig {
        local: (edge, edge, edge),
        mg_levels: 4,
        iterations: 10,
    });
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(res.iterations, 10);

    // Besides the operator, the solve holds the colouring and the build's
    // row lengths (4 B per row each) and CG's vectors: fewer than sixteen
    // of 8 B per row in all. A second copy of the operator, even as CSR,
    // would not fit in that slack.
    let slack = 16 * 8 * rows;
    assert!(slack < csr, "the slack must be smaller than a CSR copy");
    assert!(
        peak <= operator + slack,
        "peak heap {peak} B against one operator of {operator} B plus {slack} B"
    );
}
