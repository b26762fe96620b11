//! Seeded workload inputs and their independent reference outputs.
//!
//! Every input is a pure function of the seed. The decompiler under test
//! sees only the generated IR text; the references below come from the
//! original C source run at `-O0` (the difftest oracle's route), never
//! from the decompiler.

use splendid_cfront::OmpRuntime;
use splendid_core::{prepare_module, SplendidOptions, StageTimings};
use splendid_difftest::{generate, GenConfig, Rng};
use splendid_interp::{CompilerProfile, MachineConfig};
use splendid_ir::parser::parse_module;
use splendid_ir::printer::module_str;
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::{benchmarks, Harness};
use splendid_transforms::vectorize::{vectorize_module, VectorizeOptions};
use std::collections::HashSet;

/// One module a workload submits, with what its output is checked against.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    /// IR text handed to the program.
    pub text: String,
    /// Original C source: the reference route compiles it at `-O0`.
    pub source: String,
    /// Globals checksummed by the reference and the recompiled output.
    pub checks: Vec<String>,
    /// Loops `transforms::vectorize` widened (0 for scalar inputs).
    pub vector_loops: usize,
}

/// Independent RNG streams drawn from one seed (the generator itself uses
/// small case indices, so these sit far above them).
pub const STREAM_ORDER: u64 = 1 << 40;
pub const STREAM_VECTOR: u64 = (1 << 40) + 1;
pub const STREAM_EDITS: u64 = (1 << 40) + 2;

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn error(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Scalar route: `-O2` then the Polly-sim parallelizer over `kernel`
/// (the difftest oracle's settings). Vector route: `-O2` then
/// `transforms::vectorize`, as the oracle's devectorize route does.
fn lower(name: &str, source: &str, vectorize: bool) -> Result<(String, usize), String> {
    let mut m = Harness::compile(source, OmpRuntime::LibOmp).map_err(|e| error(name, e))?;
    if vectorize {
        let stats = vectorize_module(&mut m, &VectorizeOptions::default());
        return Ok((module_str(&m), stats.vectorized_loops));
    }
    parallelize_module(
        &mut m,
        &ParallelizeOptions {
            version_aliasing: true,
            min_work: 0,
            only_functions: vec!["kernel".into()],
        },
    );
    Ok((module_str(&m), 0))
}

/// The 16 PolyBench kernels. `vectorize[i]` selects the vector route for
/// benchmark `i`; the scalar route is the suite's own Polly-sim pipeline.
fn polybench(vectorize: &[bool]) -> Result<Vec<Case>, String> {
    benchmarks()
        .iter()
        .zip(vectorize)
        .map(|(b, &vec)| {
            let (text, vector_loops) = if vec {
                lower(b.name, b.sequential, true)?
            } else {
                let (m, _) = Harness::polly(b.sequential).map_err(|e| error(b.name, e))?;
                (module_str(&m), 0)
            };
            Ok(Case {
                name: b.name.to_string(),
                text,
                source: b.sequential.to_string(),
                checks: b.check_globals.iter().map(|s| s.to_string()).collect(),
                vector_loops,
            })
        })
        .collect()
}

/// Cache identities (module context, function body) of every function
/// of `text` once prepared, as the serve cache keys them.
fn function_identities(name: &str, text: &str) -> Result<Vec<(u64, u64)>, String> {
    let module = parse_module(text).map_err(|e| error(name, e))?;
    let prepared = prepare_module(
        &module,
        &SplendidOptions::default(),
        &mut StageTimings::default(),
    )
    .map_err(|e| error(name, e))?;
    Ok(prepared
        .module
        .func_ids()
        .map(|fid| {
            (
                prepared.context_fingerprint(),
                prepared.function_fingerprint(fid),
            )
        })
        .collect())
}

/// `count` difftest-generated programs for `seed`, drawn from case
/// indices `first..`. A program that shares any function (in the same
/// module context) with an earlier one is skipped, so every function of
/// a pass misses the cache and cache hit counts are exactly zero rather
/// than dependent on which submitter got there first.
fn generated(
    seed: u64,
    first: u64,
    count: usize,
    vectorize: impl Fn(usize) -> bool,
) -> Result<Vec<Case>, String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut case = first;
    while out.len() < count {
        let prog = generate(seed, case, &GenConfig::default());
        let name = format!("gen{case}");
        case += 1;
        let source = prog.render();
        let (text, vector_loops) = lower(&name, &source, vectorize(out.len()))?;
        let ids = function_identities(&name, &text)?;
        if ids.iter().all(|id| !seen.contains(id)) {
            seen.extend(ids);
            out.push(Case {
                name,
                text,
                source,
                checks: prog.array_names(),
                vector_loops,
            });
        }
    }
    Ok(out)
}

/// A seed-drawn quarter of `n` inputs, exactly.
fn vector_share(seed: u64, n: usize) -> Vec<bool> {
    let mut pick: Vec<bool> = (0..n).map(|i| i < n.div_ceil(4)).collect();
    shuffle(&mut pick, &mut Rng::for_case(seed, STREAM_VECTOR));
    pick
}

/// `batch-cold`: the 16 PolyBench kernels plus `generated_count`
/// generated programs, a seed-drawn quarter of them vectorized, in a
/// seed-drawn order.
pub fn batch_cases(seed: u64, generated_count: usize) -> Result<Vec<Case>, String> {
    let vector = vector_share(seed, POLYBENCH + generated_count);
    let mut cases = polybench(&vector[..POLYBENCH])?;
    cases.extend(generated(seed, 0, generated_count, |i| {
        vector[POLYBENCH + i]
    })?);
    shuffle(&mut cases, &mut Rng::for_case(seed, STREAM_ORDER));
    Ok(cases)
}

/// PolyBench kernels in the suite.
pub const POLYBENCH: usize = 16;

/// PolyBench kernels by validation cost, longest first (measured on a
/// 2-core host): with two submitters taking jobs in this order, both
/// finish the PolyBench phase at nearly the same time, so its length
/// does not depend on which submitter happens to draw the last long job.
const VALIDATE_ORDER: [&str; POLYBENCH] = [
    "doitgen",
    "floyd-warshall",
    "2mm",
    "3mm",
    "syr2k",
    "gemm",
    "syrk",
    "fdtd-2d",
    "jacobi-2d-imper",
    "adi",
    "gemver",
    "gesummv",
    "bicg",
    "mvt",
    "atax",
    "jacobi-1d-imper",
];

/// `validate-cold`: the 16 scalar PolyBench kernels, longest first, then
/// `generated_count` scalar generated programs. The first [`POLYBENCH`]
/// cases are the kernels.
pub fn validate_cases(seed: u64, generated_count: usize) -> Result<Vec<Case>, String> {
    let mut cases = polybench(&[false; POLYBENCH])?;
    cases.sort_by_key(|c| VALIDATE_ORDER.iter().position(|n| *n == c.name));
    cases.extend(generated(seed, 0, generated_count, |_| false)?);
    Ok(cases)
}

/// A generated program outside the timed set, for warm-up requests.
pub fn warmup_case(seed: u64) -> Result<Case, String> {
    generated(seed, 1 << 20, 1, |_| false).map(|mut v| v.remove(0))
}

/// Reference checksum: the original source at `-O0`.
pub fn reference(case: &Case) -> Result<f64, String> {
    let names: Vec<&str> = case.checks.iter().map(String::as_str).collect();
    let o0 = Harness::compile_o0(&case.source, OmpRuntime::LibOmp).map_err(|e| error("o0", e))?;
    let (sum, _) =
        Harness::run(&o0, MachineConfig::default(), &names).map_err(|e| error("o0", e))?;
    Ok(sum)
}

/// Checksum of decompiled C, recompiled and run.
pub fn recompiled(case: &Case, c_source: &str) -> Result<f64, String> {
    let names: Vec<&str> = case.checks.iter().map(String::as_str).collect();
    Harness::recompile_and_run(c_source, OmpRuntime::LibOmp, CompilerProfile::gcc(), &names)
        .map(|(sum, _)| sum)
        .map_err(|e| error("recompile", e))
}

/// Constant `1 + k/2^16`: exactly representable, and printed by the IR
/// printer (`{:?}`) as a digit string no other edit reuses.
pub fn edit_constant(k: u32) -> f64 {
    1.0 + f64::from(k) / 65536.0
}

/// Replace every `f64 <old>` literal token in `text` by `f64 <new>`;
/// returns the new text and the number of tokens replaced. A token ends
/// at the first byte that cannot continue a float literal, so `1.5` never
/// matches inside `1.50390625`.
pub fn replace_constant(text: &str, old: f64, new: f64) -> (String, usize) {
    let needle = format!("f64 {old:?}");
    let replacement = format!("f64 {new:?}");
    let mut out = String::with_capacity(text.len() + 64);
    let mut count = 0;
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let after = &rest[at + needle.len()..];
        let continues = after
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_digit() || b == b'e' || b == b'.');
        out.push_str(&rest[..at]);
        if continues {
            out.push_str(&needle);
        } else {
            out.push_str(&replacement);
            count += 1;
        }
        rest = after;
    }
    out.push_str(rest);
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_constant_respects_token_boundaries() {
        let text = "a = fmul f64 1.5, %1\nb = fmul f64 1.50390625, %2\nc = f64 1.5\n";
        let (out, n) = replace_constant(text, 1.5, 1.25);
        assert_eq!(n, 2);
        assert_eq!(
            out,
            "a = fmul f64 1.25, %1\nb = fmul f64 1.50390625, %2\nc = f64 1.25\n"
        );
    }

    #[test]
    fn vector_share_is_an_exact_quarter() {
        let v = vector_share(9, 10);
        assert_eq!(v.iter().filter(|&&b| b).count(), 3);
        assert_eq!(v, vector_share(9, 10));
    }
}
