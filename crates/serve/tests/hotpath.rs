//! Allocation gate for a fully cached re-decompile.
//!
//! When every function of a prepared module is already in the function
//! cache, a job should cost bookkeeping, not copies: each hit shares the
//! cached output and its rendered C text by reference count, and the
//! unit is spliced from those texts. This test pins that with a counting
//! `#[global_allocator]`: resubmitting a fully cached 16-function module
//! must stay within a small, fixed number of heap allocations per
//! function: task and completion boxes, the unit's global declarations
//! and region reports, the assembled source. Copying each hit's C AST and
//! re-printing the whole unit cost 107 per function on this module; the
//! shared, rendered entries cost 16.
//!
//! The counter is process-global and counts every thread, so the test
//! lives in its own integration-test binary and runs as its only test.

use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_core::{prepare_module, SplendidOptions, StageTimings};
use splendid_ir::printer::module_str;
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_serve::{JobInput, JobRequest, Scheduler, ServeConfig};
use splendid_transforms::{optimize_module, O2Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator with an allocation counter; see
/// `crates/core/tests/hotpath.rs` for the same gate on UPDATE.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A parallelized module of `n` stencil kernels, parsed back from text
/// as the daemon receives it.
fn module_text(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("double A{i}[64];\ndouble B{i}[64];\n"));
        src.push_str(&format!(
            "void kernel{i}() {{ int j; for (j = 1; j < 63; j++) {{ \
             B{i}[j] = (A{i}[j-1] + A{i}[j+1]) * {}; }} }}\n",
            0.125 * (i + 1) as f64
        ));
    }
    let prog = parse_program(&src).unwrap();
    let mut m = lower_program(&prog, "hot", &LowerOptions::default()).unwrap();
    optimize_module(&mut m, &O2Options::default());
    parallelize_module(&mut m, &ParallelizeOptions::default());
    module_str(&m)
}

/// Allocations a fully cached job may make per function of its module.
const PER_FUNCTION_BOUND: u64 = 24;

// One #[test] on purpose: the counter is process-global.
#[test]
fn fully_cached_redecompile_allocates_a_bounded_amount_per_function() {
    const FUNCTIONS: usize = 16;
    const ROUNDS: u64 = 50;
    let module = splendid_ir::parser::parse_module(&module_text(FUNCTIONS)).unwrap();
    let options = SplendidOptions::default();
    let prepared =
        Arc::new(prepare_module(&module, &options, &mut StageTimings::default()).unwrap());
    assert_eq!(prepared.module.functions.len(), FUNCTIONS);
    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let request = || JobRequest {
        name: "hot".into(),
        input: JobInput::Prepared(Arc::clone(&prepared)),
        options: options.clone(),
    };

    // Cold run fills the cache; a few warm runs settle the pool's
    // queues and the cache's slab at their working sizes.
    let cold = scheduler.submit(request()).wait().unwrap();
    for _ in 0..5 {
        scheduler.submit(request()).wait().unwrap();
    }

    let before = allocations();
    for _ in 0..ROUNDS {
        let warm = scheduler.submit(request()).wait().unwrap();
        assert_eq!(warm.cached_functions, FUNCTIONS);
        assert_eq!(warm.output.source, cold.output.source);
    }
    let per_function = (allocations() - before) / (ROUNDS * FUNCTIONS as u64);
    eprintln!("fully cached re-decompile: {per_function} allocations per function");
    assert!(
        per_function <= PER_FUNCTION_BOUND,
        "a fully cached job made {per_function} allocations per function \
         (bound {PER_FUNCTION_BOUND})"
    );
}
