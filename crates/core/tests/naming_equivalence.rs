//! Pins the names Algorithms 1–2 and the register-name fallback choose.
//!
//! Every function of a fixed corpus is prepared as the pipeline prepares
//! it, then named twice (`assign_names`, `assign_register_names`). Each
//! `(function, inst id, name, origin)` entry, in function and id order,
//! goes into one FNV-1a digest. The corpus is the 16 PolyBench kernels
//! (Polly-sim route) plus 24 difftest-generated programs, half lowered
//! through the Polly-sim parallelizer and half through
//! `transforms::vectorize`. Every module takes a text round trip first,
//! so instruction ids are the parser's, not the lowering's.
//!
//! The constant was recorded with the hash-map implementation of naming
//! that the dense-table rewrite replaced; any change to a chosen name
//! shows up here.

use splendid_core::fingerprint::fnv64;
use splendid_core::naming::{assign_names, assign_register_names, NameOrigin, Naming};
use splendid_core::{prepare_module, SplendidOptions, StageTimings};
use splendid_difftest::{generate, GenConfig};
use splendid_ir::parser::parse_module;
use splendid_ir::printer::module_str;
use splendid_ir::Module;
use splendid_polybench::{benchmarks, Harness};
use splendid_transforms::vectorize::{vectorize_module, VectorizeOptions};

const NAMING_DIGEST: u64 = 0x447b_51e6_3e05_6a19;

const CORPUS_SEED: u64 = 0x5eed_0013;
const GENERATED: u64 = 24;

fn round_trip(m: &Module) -> Module {
    parse_module(&module_str(m)).expect("printed IR parses")
}

fn corpus() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for b in benchmarks() {
        let (m, _) = Harness::polly(b.sequential).expect("kernel lowers");
        out.push((b.name.to_string(), round_trip(&m)));
    }
    for case in 0..GENERATED {
        let source = generate(CORPUS_SEED, case, &GenConfig::default()).render();
        let m = if case % 2 == 0 {
            Harness::polly(&source).expect("generated program lowers").0
        } else {
            let mut m = Harness::compile(&source, splendid_cfront::OmpRuntime::LibOmp)
                .expect("generated program lowers");
            vectorize_module(&mut m, &VectorizeOptions::default());
            m
        };
        out.push((format!("gen{case}"), round_trip(&m)));
    }
    out
}

fn fold(bytes: &mut Vec<u8>, naming: &Naming, counts: &mut [usize; 2]) {
    for (id, name, origin) in naming.iter() {
        bytes.extend_from_slice(&id.0.to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.push(origin as u8);
        counts[match origin {
            NameOrigin::SourceVariable => 0,
            NameOrigin::Register => 1,
        }] += 1;
    }
}

#[test]
fn names_match_the_recorded_digest() {
    let mut bytes = Vec::new();
    let mut counts = [0usize; 2];
    for (name, module) in corpus() {
        let prepared = prepare_module(
            &module,
            &SplendidOptions::default(),
            &mut StageTimings::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let m = &prepared.module;
        for fid in m.func_ids() {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(b'/');
            bytes.extend_from_slice(m.name_of(m.func(fid).name).as_bytes());
            bytes.push(0);
            fold(&mut bytes, &assign_names(m, fid), &mut counts);
            bytes.push(1);
            fold(&mut bytes, &assign_register_names(m, fid), &mut counts);
        }
    }
    let [restored, register] = counts;
    assert!(
        restored > 100 && register > restored,
        "the corpus exercises both origins: {restored} restored, {register} register"
    );
    assert_eq!(
        fnv64(&bytes),
        NAMING_DIGEST,
        "naming changed: digest {:#018x} over {} bytes",
        fnv64(&bytes),
        bytes.len()
    );
}
