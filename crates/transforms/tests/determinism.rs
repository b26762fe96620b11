//! Lowering is a function of the source: the same kernel lowered several
//! times in one process prints the same `-O2` IR text.
//!
//! Every `HashSet`/`HashMap` in a process gets its own hash keys, so a
//! pass whose output follows a set's iteration order fails here within a
//! handful of lowerings. `mem2reg` once seeded its phi-placement worklist
//! from such a set, which made phi instruction ids, and therefore the
//! printed IR and every raw-text cache key, differ between runs.

use splendid_cfront::OmpRuntime;
use splendid_ir::printer::module_str;
use splendid_polybench::{benchmarks, Harness};

const LOWERINGS: usize = 5;

#[test]
fn every_kernel_lowers_to_the_same_text_each_time() {
    for b in benchmarks() {
        let lower = || {
            let m = Harness::compile(b.sequential, OmpRuntime::LibOmp).expect("kernel lowers");
            module_str(&m)
        };
        let first = lower();
        for round in 1..LOWERINGS {
            assert!(
                lower() == first,
                "{}: lowering {round} printed different IR than lowering 0",
                b.name
            );
        }
    }
}
