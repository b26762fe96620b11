//! Golden snapshot tests: the decompiled C for every polybench kernel is
//! pinned under `tests/golden/`. Any change to the decompiler's output —
//! structure recovery, naming, pragma placement, formatting — shows up as
//! a reviewable diff instead of a silent drift.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use splendid::core::{decompile, SplendidOptions};
use splendid::polybench::Harness;
use std::fmt::Write as _;
use std::path::Path;

#[test]
fn polybench_decompilation_matches_golden_snapshots() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let suite = Harness::polly_suite().expect("polly suite builds");
    assert!(
        suite.len() >= 16,
        "expected the full polybench suite, got {} kernels",
        suite.len()
    );

    let mut report = String::new();
    for (name, module) in &suite {
        let out = decompile(module, &SplendidOptions::default())
            .unwrap_or_else(|e| panic!("{name}: decompilation failed: {e}"));
        let path = dir.join(format!("{name}.c"));
        if update {
            std::fs::write(&path, &out.source)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == out.source => {}
            Ok(want) => {
                let first_diff = want
                    .lines()
                    .zip(out.source.lines())
                    .position(|(a, b)| a != b)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| want.lines().count().min(out.source.lines().count()) + 1);
                let _ = writeln!(
                    report,
                    "  {name}: output differs from {} (first difference at line {first_diff})",
                    path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(report, "  {name}: cannot read {}: {e}", path.display());
            }
        }
    }
    assert!(
        report.is_empty(),
        "golden snapshots out of date:\n{report}\
         regenerate with: UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

/// Units are assembled by splicing each function's rendered text
/// (`print_func`, kept beside every cache entry) through `print_unit`.
/// That must print exactly what printing the whole `CProgram` prints.
#[test]
fn spliced_function_texts_match_the_whole_program_printer() {
    use splendid::cfront::{print_program, CProgram};
    use splendid::core::{
        assemble_output, assemble_rendered, decompile_function, prepare_module, RenderedFunction,
        StageTimings,
    };
    let opts = SplendidOptions::default();
    let suite = Harness::polly_suite().expect("polly suite builds");
    assert!(suite.len() >= 16, "{} kernels", suite.len());
    for (name, module) in &suite {
        let mut t = StageTimings::default();
        let prepared = prepare_module(module, &opts, &mut t).unwrap();
        let functions: Vec<_> = prepared
            .module
            .func_ids()
            .map(|fid| decompile_function(&prepared, fid, &opts, &mut t).unwrap())
            .collect();
        let whole = print_program(&CProgram {
            defines: Vec::new(),
            globals: prepared.c_globals(),
            functions: functions.iter().map(|f| f.cfunc.clone()).collect(),
        });
        let rendered: Vec<_> = functions
            .iter()
            .map(|f| RenderedFunction::share(f, &mut t))
            .collect();
        assert_eq!(
            assemble_rendered(&prepared, &rendered, &mut t).source,
            whole,
            "{name}"
        );
        assert_eq!(
            assemble_output(&prepared, functions, &mut t).source,
            whole,
            "{name}"
        );
    }
}
