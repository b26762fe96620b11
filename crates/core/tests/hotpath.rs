//! Allocation gates for two hot paths.
//!
//! **UPDATE.** `span_fingerprints_into` is documented as allocation-free
//! once its scratch buffers have warmed to the module's function count —
//! that is the whole point of the span-hash UPDATE design (see DESIGN.md,
//! "Allocation-free hot path"). This test pins the claim with a counting
//! `#[global_allocator]`: after one warm-up pass, re-fingerprinting the
//! same module text any number of times must perform **zero** heap
//! allocations.
//!
//! **First-time decompilation.** Naming and structuring run on dense
//! id-indexed tables (see DESIGN.md, "Naming and structuring state"), so
//! `decompile_function` over the 32 PolyBench functions stays within a
//! fixed allocation budget.
//!
//! The gates live in their own integration-test binary so the global
//! allocator swap cannot interfere with any other test.

use splendid_core::fingerprint::{span_fingerprints_into, SpanFingerprints};
use splendid_core::{decompile_function, prepare_module, SplendidOptions, StageTimings};
use splendid_ir::parser::parse_module;
use splendid_ir::printer::module_str;
use splendid_ir::ModuleSpans;
use splendid_polybench::Harness;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter bolted on.
/// Deallocations are not counted: releasing warm capacity would itself be
/// a bug, but the gates are about not *acquiring* memory. Counting per
/// thread keeps each test's window exact while the harness runs other
/// tests (and its own bookkeeping) on other threads.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A module text with enough functions and preamble to exercise every
/// branch of the scanner (globals, debug vars, multi-block bodies).
fn module_text(funcs: usize) -> String {
    let mut text = String::from("module \"hotpath\"\n");
    for i in 0..funcs {
        text.push_str(&format!("global @A{i} : [64 x f64] = zero\n"));
    }
    for i in 0..funcs {
        text.push_str(&format!(
            "func @kernel{i}() -> void {{\nbb0 entry:\n  br bb1\nbb1 body:\n  ret void\n}}\n"
        ));
    }
    text
}

#[test]
fn warm_span_fingerprints_allocate_nothing() {
    let text = module_text(24);
    let mut spans = ModuleSpans::default();
    let mut fps = SpanFingerprints::default();

    // Warm-up: buffers grow to the module's span counts here, and only
    // here.
    span_fingerprints_into(&text, &mut spans, &mut fps);
    let warm = fps.clone();

    let before = allocations();
    for _ in 0..64 {
        span_fingerprints_into(&text, &mut spans, &mut fps);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state span fingerprinting must not touch the heap"
    );
    assert_eq!(fps.funcs, warm.funcs, "results stay identical across reuse");
    assert_eq!(fps.preamble, warm.preamble);

    // Shrinking to a smaller module and growing back must also stay
    // allocation-free: `clear()` keeps capacity, so the big module's
    // buffers cover every smaller scan.
    let small = module_text(3);
    let before = allocations();
    span_fingerprints_into(&small, &mut spans, &mut fps);
    span_fingerprints_into(&text, &mut spans, &mut fps);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "alternating module sizes must reuse warm capacity"
    );
}

/// Allocations `decompile_function` made over the 32 PolyBench functions
/// when this gate was set (release build): 24,607 with hash-map naming
/// and structuring state, 13,343 with dense id-indexed tables. The bound
/// is the latter plus 10%.
const DECOMPILE_ALLOCATION_BOUND: u64 = 14_677;

#[test]
fn polybench_decompilation_stays_within_its_allocation_budget() {
    let opts = SplendidOptions::default();
    // Every kernel after a text round trip, prepared outside the window.
    let prepared: Vec<_> = Harness::polly_suite()
        .expect("the suite lowers")
        .iter()
        .map(|(name, m)| {
            let m = parse_module(&module_str(m)).expect("printed IR parses");
            prepare_module(&m, &opts, &mut StageTimings::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    let mut timings = StageTimings::default();
    let mut functions = 0;
    let before = allocations();
    for p in &prepared {
        for fid in p.module.func_ids() {
            decompile_function(p, fid, &opts, &mut timings).expect("decompiles");
            functions += 1;
        }
    }
    let used = allocations() - before;
    assert_eq!(functions, 32, "16 kernels with init + kernel each");
    eprintln!("decompile_function: {used} allocations over {functions} functions");
    assert!(
        used <= DECOMPILE_ALLOCATION_BOUND,
        "{used} allocations over {functions} functions (bound {DECOMPILE_ALLOCATION_BOUND})"
    );
}
