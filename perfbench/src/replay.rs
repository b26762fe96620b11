//! The traced run: each request replayed through the public function of
//! every layer it crosses, one span per call, timed from outside.
//!
//! The composition mirrors what the service does for the request
//! (`Scheduler` job task and work items, the daemon's UPDATE/DECOMPILE
//! path, the validator's check), so the spans' self times add up to the
//! request and show where it spends its time. Each replayed request hands
//! back the C it emitted, and the workloads compare it with what the
//! service returned for the same request: a replay that drifts from the
//! program fails the run instead of timing something else.

use crate::inputs::Case;
use crate::outcome::Outcome;
use crate::stats::{Span, Tracer};
use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_cfront::ast::{print_program, CProgram, CStmt, CType};
use splendid_core::detransform::detransform_and_inline;
use splendid_core::devectorize::devectorize_module;
use splendid_core::fingerprint::{
    function_fingerprint, module_context_fingerprint, span_fingerprints_into, SpanFingerprints,
};
use splendid_core::incremental::{reprepare, root_of};
use splendid_core::literal::emit_literal;
use splendid_core::naming::{assign_names, assign_register_names, NameOrigin};
use splendid_core::structure::{structure_function, StructureOptions};
use splendid_core::{
    assemble_output, panic_message, FidelityTier, FunctionOutput, NamingStats, PreparedModule,
    SplendidError, SplendidOptions, Stage, StageTimings, Variant,
};
use splendid_interp::{CompilerProfile, MachineConfig, Vm};
use splendid_ir::parser::parse_module;
use splendid_ir::{FuncId, MemType, Module, ModuleSpans, Type};
use splendid_serve::codec::encode_function_record;
use splendid_serve::hash::Fnv64;
use splendid_serve::validate::{UNVERIFIED_ANNOTATION, VERIFIED_ANNOTATION};
use splendid_serve::{function_cache_key, FunctionCache};
use splendid_validate::{check_function, relower, Reason, ReasonKind, ValidateConfig, Verdict};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// Exact per-request counts (a pure function of the input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub parsed_bytes: u64,
    pub functions: u64,
    pub devectorized_loops: u64,
    pub vector_loops: u64,
    pub verified: u64,
    pub unverified: u64,
    pub mismatches: u64,
    pub insts: u64,
    /// Replayed outputs compared with the service's, and how many differed.
    pub compared: u64,
    pub diverged: u64,
}

impl Counts {
    pub fn absorb(&mut self, o: &Counts) {
        self.parsed_bytes += o.parsed_bytes;
        self.functions += o.functions;
        self.devectorized_loops += o.devectorized_loops;
        self.vector_loops += o.vector_loops;
        self.verified += o.verified;
        self.unverified += o.unverified;
        self.mismatches += o.mismatches;
        self.insts += o.insts;
        self.compared += o.compared;
        self.diverged += o.diverged;
    }

    /// Record one comparison of a replayed output with the service's
    /// output for the same request.
    pub fn compare(&mut self, same: bool) {
        self.compared += 1;
        self.diverged += u64::from(!same);
    }
}

/// What a replay hands back: its spans, exact counts of the first pass
/// (or first rounds), counts over the whole replay, and delivered
/// functions per second.
pub struct Replayed {
    pub spans: Vec<Span>,
    pub first: Counts,
    pub all: Counts,
    pub throughput: f64,
}

/// Fail the run for every replayed output that differs from the
/// service's output for the same request, for every `Mismatch` verdict a
/// replay gave, and for replays that compared no output.
pub fn check_replayed(replays: &[&Replayed], out: &mut Outcome) {
    let sum = |f: fn(&Counts) -> u64| replays.iter().map(|r| f(&r.all)).sum::<u64>();
    let compared = sum(|c| c.compared);
    let diverged = sum(|c| c.diverged);
    let mismatches = sum(|c| c.mismatches);
    if compared == 0 {
        out.fail(1, "the replay compared no output with the service's".into());
    }
    if diverged > 0 {
        out.fail(
            diverged,
            format!("{diverged} of {compared} replayed outputs differ from the service's"),
        );
    }
    if mismatches > 0 {
        out.fail(
            mismatches,
            format!("{mismatches} Mismatch verdict(s) in the replay"),
        );
    }
    out.stamp
        .push(("replay_outputs_compared".into(), compared.to_string()));
}

/// The C one replayed job emitted: the decompiled unit and, with
/// validation, the unit carrying the verdict comments the scheduler
/// stamps into a validated job's output.
pub struct Emitted {
    pub decompiled: String,
    pub validated: Option<String>,
}

/// A disk store the replay fills the way the scheduler's disk tier is
/// filled, with the keys written.
pub struct Fill {
    pub store: CacheStore,
    pub keys: Vec<u64>,
}

impl Fill {
    pub fn open(dir: &Path) -> Result<Fill, String> {
        let store = CacheStore::open(dir, StoreConfig::default())
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        Ok(Fill {
            store,
            keys: Vec::new(),
        })
    }
}

/// Run a pipeline stage with panics contained, as the pipeline does.
fn contain<T>(stage: Stage, fname: &str, job: impl FnOnce() -> T) -> Result<T, SplendidError> {
    catch_unwind(AssertUnwindSafe(job))
        .map_err(|p| SplendidError::fatal(stage, panic_message(p)).in_function(fname))
}

/// Structuring options of a tier, as the pipeline derives them.
fn structure_options(tier: FidelityTier, opts: &SplendidOptions) -> StructureOptions {
    if tier == FidelityTier::Natural {
        StructureOptions {
            detransform_rotation: true,
            guard_elimination: opts.guard_elimination,
            emit_pragmas: opts.variant != Variant::V1,
            inline_expressions: opts.inline_expressions,
            hoist_decls: false,
        }
    } else {
        StructureOptions {
            detransform_rotation: false,
            guard_elimination: false,
            emit_pragmas: false,
            inline_expressions: false,
            hoist_decls: true,
        }
    }
}

/// Naming + structuring of one function at `Natural` or `Structured`.
fn structured_tier(
    tr: &mut Tracer,
    rid: u64,
    module: &Module,
    fid: FuncId,
    tier: FidelityTier,
    opts: &SplendidOptions,
) -> Result<FunctionOutput, SplendidError> {
    let f = module.func(fid);
    let fname = module.name_of(f.name);
    let naming = tr.time("core.naming", rid, || {
        contain(Stage::Naming, fname, || {
            if tier == FidelityTier::Natural && opts.variant == Variant::Full {
                assign_names(module, fid)
            } else {
                assign_register_names(module, fid)
            }
        })
    })?;
    let sopts = structure_options(tier, opts);
    let st = tr.time("core.structure", rid, || {
        contain(Stage::Structure, fname, || {
            structure_function(module, f, &naming, &sopts)
        })
    })??;
    let restored = st
        .variables
        .iter()
        .filter(|(_, o)| *o == NameOrigin::SourceVariable)
        .count();
    Ok(FunctionOutput {
        naming: NamingStats {
            total_vars: st.variables.len(),
            restored_vars: restored,
        },
        cfunc: st.cfunc,
        gotos: st.gotos,
        tier,
    })
}

/// One function, walking the pipeline's automatic fidelity ladder
/// (`Natural`, `Structured`, `Literal`) as `decompile_function` does,
/// with each layer call timed: a degraded function carries the same
/// leading comment naming the first failure.
fn decompile_one(
    tr: &mut Tracer,
    rid: u64,
    module: &Module,
    fid: FuncId,
    opts: &SplendidOptions,
) -> Result<FunctionOutput, String> {
    let mut first_error: Option<SplendidError> = None;
    let mut out = None;
    for tier in [FidelityTier::Natural, FidelityTier::Structured] {
        match structured_tier(tr, rid, module, fid, tier, opts) {
            Ok(o) => {
                out = Some(o);
                break;
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    let mut out = match out {
        Some(out) => out,
        None => {
            let f = module.func(fid);
            let lit = tr
                .time("core.structure", rid, || {
                    contain(Stage::Emit, module.name_of(f.name), || {
                        emit_literal(module, f)
                    })
                })
                .and_then(|r| r)
                .map_err(|e| e.to_string())?;
            FunctionOutput {
                naming: NamingStats {
                    total_vars: lit.vars,
                    restored_vars: 0,
                },
                cfunc: lit.cfunc,
                gotos: lit.gotos,
                tier: FidelityTier::Literal,
            }
        }
    };
    if out.tier > FidelityTier::Natural {
        let why = first_error.map_or_else(|| "requested by caller".to_string(), |e| e.to_string());
        out.cfunc.body.insert(
            0,
            CStmt::Comment(format!("splendid: degraded to {} tier: {why}", out.tier)),
        );
    }
    Ok(out)
}

/// C type of a global, as the pipeline declares it.
fn ctype_of(mem: &MemType) -> CType {
    let scalar = |t: Type| match t {
        Type::F64 => CType::Double,
        Type::Ptr => CType::Ptr(Box::new(CType::Double)),
        _ => CType::Long,
    };
    match mem {
        MemType::Scalar(t) => scalar(*t),
        MemType::Array { elem, dims } => CType::Array(
            Box::new(scalar(*elem)),
            dims.iter().map(|d| *d as usize).collect(),
        ),
    }
}

/// Validator machine: the checker's default bounds.
fn machine(cfg: &ValidateConfig) -> MachineConfig {
    MachineConfig {
        cores: cfg.cores,
        fuel: cfg.fuel,
        ..MachineConfig::xeon_28core(CompilerProfile::clang())
    }
}

/// One run of `init` (when present) then `name` on a fresh VM; returns
/// instructions executed.
fn vm_run(
    tr: &mut Tracer,
    rid: u64,
    span: &'static str,
    module: &Module,
    name: &str,
    cfg: &ValidateConfig,
) -> Result<u64, String> {
    let mut vm = tr.time("interp.vm_new", rid, || Vm::new(module, machine(cfg)));
    tr.time(span, rid, || {
        if name != "init" && module.func_by_name("init").is_some() {
            vm.call_by_name("init", &[])?;
        }
        vm.call_by_name(name, &[])
    })
    .map_err(|e| format!("{span} {name}: {e}"))?;
    Ok(vm.insts_executed())
}

/// Replay one `batch-cold` / `validate-cold` job: parse, module-wide
/// detransform and devectorize, per-function cache lookup and
/// naming/structuring, cache fill (codec + disk store when `fill` is
/// given), whole-unit emit; with `validate`, relower and check every
/// function and run source and relowered code on the interpreter.
/// Returns the counts and the emitted C.
pub fn pipeline_request(
    tr: &mut Tracer,
    rid: u64,
    case: &Case,
    lru: &FunctionCache,
    mut fill: Option<&mut Fill>,
    validate: bool,
) -> Result<(Counts, Emitted), String> {
    let mut counts = Counts {
        parsed_bytes: case.text.len() as u64,
        vector_loops: case.vector_loops as u64,
        ..Counts::default()
    };
    let mut work = tr
        .time("ir.parse", rid, || parse_module(&case.text))
        .map_err(|e| e.to_string())?;
    tr.time("core.detransform", rid, || {
        detransform_and_inline(&mut work)
    })?;
    let devec = tr.time("core.devectorize", rid, || devectorize_module(&mut work));
    counts.devectorized_loops = devec.iter().map(|r| r.loops as u64).sum();

    let context = tr.time("core.digest", rid, || module_context_fingerprint(&work));
    let mut cfuncs = Vec::new();
    for fid in work.func_ids().collect::<Vec<_>>() {
        // The scheduler's key also hashes an options fingerprint, which
        // serve keeps private: one more word into the same hash.
        let key = tr.time("core.digest", rid, || {
            let mut h = Fnv64::new();
            h.write_u64(context);
            h.write_u64(function_fingerprint(&work, fid));
            h.finish()
        });
        let out = match tr.time("serve.lru.get", rid, || {
            lru.get(key).map(|hit| (*hit).clone())
        }) {
            Some(hit) => hit,
            None => {
                let out = decompile_one(tr, rid, &work, fid, &SplendidOptions::default())?;
                if let Some(fill) = fill.as_deref_mut() {
                    let blob = tr.time("serve.codec.encode", rid, || encode_function_record(&out));
                    tr.time("cachestore.put", rid, || fill.store.put(key, &blob))
                        .map_err(|e| format!("cachestore put: {e}"))?;
                    fill.keys.push(key);
                }
                lru.insert(key, Arc::new(out.clone()));
                out
            }
        };
        counts.functions += 1;
        cfuncs.push(out.cfunc);
    }
    let mut program = CProgram {
        globals: work
            .globals
            .iter()
            .map(|g| (work.name_of(g.name).to_string(), ctype_of(&g.mem)))
            .collect(),
        functions: cfuncs,
        ..CProgram::default()
    };
    let decompiled = tr.time("cfront.emit", rid, || print_program(&program));
    if !validate {
        return Ok((
            counts,
            Emitted {
                decompiled,
                validated: None,
            },
        ));
    }

    // As the scheduler's validation: relower the unit once, check every
    // function against it, stamp each verdict as a leading comment, and
    // print the unit again.
    let cfg = ValidateConfig::default();
    let relowered = tr.time("cfront.relower", rid, || relower(&decompiled));
    for (i, fid) in work.func_ids().enumerate() {
        let name = work.name_of(work.func(fid).name).to_string();
        let verdict = match &relowered {
            Ok(m) => tr.time("validate.check", rid, || {
                check_function(&work, m, &name, &cfg)
            }),
            Err(e) => Verdict::Unverified(Reason {
                kind: ReasonKind::Relower,
                detail: e.clone(),
            }),
        };
        let annotation = match verdict {
            Verdict::Verified => {
                counts.verified += 1;
                VERIFIED_ANNOTATION.to_string()
            }
            Verdict::Unverified(reason) => {
                counts.unverified += 1;
                counts.mismatches += u64::from(reason.is_mismatch());
                let reason = reason.to_string();
                let reason = reason.replace("*/", "* /").replace(['\n', '\r'], " ");
                format!("{UNVERIFIED_ANNOTATION}{reason}")
            }
        };
        program.functions[i]
            .body
            .insert(0, CStmt::Comment(annotation));
        if let (Ok(m), true) = (&relowered, work.func(fid).params.is_empty()) {
            counts.insts += vm_run(tr, rid, "interp.source_run", &work, &name, &cfg)?;
            counts.insts += vm_run(tr, rid, "interp.relowered_run", m, &name, &cfg)?;
        }
    }
    let validated = tr.time("cfront.emit", rid, || print_program(&program));
    Ok((
        counts,
        Emitted {
            decompiled,
            validated: Some(validated),
        },
    ))
}

/// One connection's interactive session, replayed without the daemon:
/// the session state the daemon keeps, held by the benchmark.
pub struct EditSession {
    prepared: Arc<PreparedModule>,
    fps: SpanFingerprints,
    options: SplendidOptions,
}

impl EditSession {
    /// Open and fully decompile `text` once (untraced warm-up), filling
    /// `lru` the way the session's first DECOMPILE does.
    pub fn open(text: &str, lru: &FunctionCache) -> Result<EditSession, String> {
        let options = SplendidOptions::default();
        let module = parse_module(text).map_err(|e| e.to_string())?;
        let mut t = StageTimings::default();
        let prepared =
            splendid_core::prepare_module(&module, &options, &mut t).map_err(|e| e.to_string())?;
        for fid in prepared.module.func_ids() {
            let out = splendid_core::decompile_function(&prepared, fid, &options, &mut t)
                .map_err(|e| e.to_string())?;
            lru.insert(function_cache_key(&prepared, fid, &options), Arc::new(out));
        }
        let mut spans = ModuleSpans::default();
        let mut fps = SpanFingerprints::default();
        span_fingerprints_into(text, &mut spans, &mut fps);
        Ok(EditSession {
            prepared: Arc::new(prepared),
            fps,
            options,
        })
    }

    /// Replay one edit round: UPDATE's span fingerprinting, then
    /// DECOMPILE's incremental re-preparation, per-function cache
    /// lookups (re-decompiling the misses) and whole-module emit.
    /// Returns the counts and the emitted C.
    pub fn round(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        text: &str,
        lru: &FunctionCache,
    ) -> Result<(Counts, String), String> {
        let mut counts = Counts::default();
        let mut spans = ModuleSpans::default();
        let mut fps = SpanFingerprints::default();
        tr.time("core.fingerprint", rid, || {
            span_fingerprints_into(text, &mut spans, &mut fps)
        });
        let mut dirty: Vec<&str> = Vec::new();
        for (i, f) in fps.funcs.iter().enumerate() {
            let same = self
                .fps
                .position_of(f.name_hash)
                .is_some_and(|j| self.fps.funcs[j].body_hash == f.body_hash);
            let root = root_of(spans.funcs[i].name_str(text));
            if !same && !dirty.contains(&root) {
                dirty.push(root);
            }
        }
        let mut t = StageTimings::default();
        let mut mini = String::new();
        // As in the daemon's session, re-preparation includes building
        // the mini-module text and replacing the resident module.
        tr.time("core.reprepare", rid, || {
            for &(a, b) in &spans.preamble {
                mini.push_str(&text[a..b]);
            }
            for f in &spans.funcs {
                if dirty.contains(&root_of(f.name_str(text))) {
                    mini.push_str(f.body_str(text));
                }
            }
            let next = reprepare(&self.prepared, &mini, &dirty, &self.options, &mut t)
                .map_err(|e| e.to_string())?;
            self.prepared = Arc::new(next);
            Ok::<(), String>(())
        })?;
        let prepared = Arc::clone(&self.prepared);

        let mut outs = Vec::new();
        for fid in prepared.module.func_ids().collect::<Vec<_>>() {
            let key = tr.time("core.digest", rid, || {
                function_cache_key(&prepared, fid, &self.options)
            });
            let out = match tr.time("serve.lru.get", rid, || {
                lru.get(key).map(|hit| (*hit).clone())
            }) {
                Some(hit) => hit,
                None => {
                    let out = decompile_one(tr, rid, &prepared.module, fid, &self.options)?;
                    lru.insert(key, Arc::new(out.clone()));
                    out
                }
            };
            counts.functions += 1;
            outs.push(out);
        }
        let out = tr.time("cfront.emit", rid, || {
            assemble_output(&prepared, outs, &mut t)
        });
        self.fps = fps;
        Ok((counts, out.source))
    }
}
