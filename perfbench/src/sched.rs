//! `batch-cold` and `validate-cold`: closed-loop submitters against a
//! fresh `Scheduler` per pass over the seed's inputs.
//!
//! A pass submits every input once, so no module repeats within one
//! scheduler's life and every function misses the cache. Passes repeat
//! until the run's time is up; each pass is the same work, so the
//! throughput does not depend on where the time limit falls.

use crate::inputs::{self, Case};
use crate::outcome::{
    closed_loop, put_setup, secs, stage_ms, Outcome, SetupTimes, CLIENTS, MIN_REQUESTS,
    SETUP_REPEATS, WORKERS,
};
use crate::replay::{check_replayed, pipeline_request, Counts, Fill, Replayed};
use crate::report::{frac, latency, put_replay_layers};
use crate::stats::{median, merge, ms, Span, Tracer};
use crate::sys::{self, usage, Usage};
use splendid_cachestore::StoreConfig;
use splendid_core::fingerprint::fnv64;
use splendid_core::SplendidOptions;
use splendid_serve::{
    BlobTiers, CacheTier, DiskTier, FunctionCache, JobError, JobInput, JobRequest, JobResult,
    Scheduler, ServeConfig,
};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Decompile only, disk tier under the LRU.
    Batch,
    /// Decompile and validate, memory only.
    Validate,
}

/// Generated programs per pass. `batch-cold` jobs take about a
/// millisecond, so its pass is large to amortize the per-pass scheduler
/// start. In `validate-cold` the 16 PolyBench jobs are about 5% of the
/// requests, so the p90 falls among the generated programs.
fn generated_count(kind: Kind) -> usize {
    match kind {
        Kind::Batch => 240,
        Kind::Validate => 300,
    }
}

fn options(kind: Kind) -> SplendidOptions {
    SplendidOptions {
        validate: kind == Kind::Validate,
        ..SplendidOptions::default()
    }
}

/// A scheduler set up the way `daemon --cache-dir` sets one up (batch),
/// or memory-only with an empty certificate cache (validate).
fn start(kind: Kind, dir: &Path) -> Result<Scheduler, String> {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    Ok(match kind {
        Kind::Batch => {
            let disk = DiskTier::open(dir, StoreConfig::default())
                .map_err(|e| format!("open {}: {e}", dir.display()))?;
            let tiers: Vec<Arc<dyn CacheTier>> = vec![Arc::new(disk)];
            Scheduler::new_with_tiers(config, BlobTiers::new(tiers))
        }
        Kind::Validate => Scheduler::new(config),
    })
}

/// Case indices at which a pass of `kind` starts a new phase: a phase
/// starts when the previous one's last request has returned.
/// `validate-cold` runs its PolyBench kernels, then its generated
/// programs, so a generated job's latency does not depend on which
/// PolyBench job it queued behind.
fn cuts(kind: Kind) -> &'static [usize] {
    match kind {
        Kind::Batch => &[],
        Kind::Validate => &[inputs::POLYBENCH],
    }
}

/// The index ranges of `n` cases between `cuts`.
fn phases(n: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().map(|&c| c.min(n)));
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

type Answer = (f64, Result<JobResult, JobError>);

/// Submit every case once from `CLIENTS` closed-loop submitters, phase
/// by phase; returns each case's latency (ms) and result, in case order.
fn pass(sched: &Scheduler, cases: &[Case], cuts: &[usize], opts: &SplendidOptions) -> Vec<Answer> {
    let mut answers = Vec::with_capacity(cases.len());
    for phase in phases(cases.len(), cuts) {
        let (_, phase_answers) = closed_loop(&cases[phase], vec![(); CLIENTS], |_, _, case| {
            let request = JobRequest {
                name: case.name.clone(),
                input: JobInput::Text(case.text.clone()),
                options: opts.clone(),
            };
            let t = Instant::now();
            let r = sched.submit(request).wait();
            (ms(t.elapsed()), r)
        });
        answers.extend(phase_answers);
    }
    answers
}

/// Totals over the timed passes.
#[derive(Default)]
struct Timed {
    cpu: Usage,
    /// Delivered functions per second, and CPU ms per delivered
    /// function, of each pass: the run reports their medians, so a
    /// burst of load from outside the benchmark moves one pass, not the
    /// result.
    pass_throughput: Vec<f64>,
    pass_cpu_ms: Vec<f64>,
    /// Peak resident memory (MiB) of each pass: the high-water mark is
    /// reset just before the pass and read right after it, before any
    /// output check.
    pass_peak_mb: Vec<f64>,
    passes: u64,
    /// Request latencies (ms) of each pass.
    latencies: Vec<Vec<f64>>,
    requests: usize,
    job_walls: Vec<f64>,
    functions: u64,
    delivered: u64,
    degraded: u64,
    restored: u64,
    vars: u64,
    verified: u64,
    unverified: u64,
    stage_ms: f64,
    lru_hits: u64,
    lru_lookups: u64,
    /// Per case: the first pass's C output and functions.
    first: Vec<Option<(String, u64)>>,
}

/// Whole passes, as many as fit in `seconds` to the nearest pass (at
/// least one).
fn more_passes(started: Instant, passes: u64, seconds: f64) -> bool {
    let spent = secs(started);
    passes == 0 || spent + spent / passes as f64 / 2.0 < seconds
}

fn setup_once(
    kind: Kind,
    seed: u64,
    work: &Path,
    r: usize,
) -> Result<(Vec<Case>, SetupTimes), String> {
    let t = Instant::now();
    let cases = match kind {
        Kind::Batch => inputs::batch_cases(seed, generated_count(kind))?,
        Kind::Validate => inputs::validate_cases(seed, generated_count(kind))?,
    };
    let warm = inputs::warmup_case(seed)?;
    let inputs_s = secs(t);
    let dir = work.join(format!("setup-{r}"));
    let t = Instant::now();
    let sched = start(kind, &dir)?;
    let service_s = secs(t);
    let t = Instant::now();
    // Batch warms up with a full pass on the set-up scheduler (timed
    // passes each get a fresh one); validate warms up with one job
    // outside the timed inputs, so the timed certificate cache stays cold.
    let warm_answers = match kind {
        Kind::Batch => pass(&sched, &cases, cuts(kind), &options(kind)),
        Kind::Validate => pass(&sched, &[warm], &[], &options(kind)),
    };
    for (_, r) in warm_answers {
        r.map_err(|e| format!("warm-up: {e}"))?;
    }
    sched.flush_cache();
    let warmup_s = secs(t);
    drop(sched);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        cases,
        SetupTimes {
            inputs: inputs_s,
            service: service_s,
            warmup: warmup_s,
        },
    ))
}

fn timed_passes(
    kind: Kind,
    cases: &[Case],
    seconds: f64,
    work: &Path,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let opts = options(kind);
    let mut t = Timed {
        first: vec![None; cases.len()],
        ..Timed::default()
    };
    let started = Instant::now();
    while more_passes(started, t.passes, seconds) || t.requests < MIN_REQUESTS {
        let dir = work.join(format!("pass-{}", t.passes));
        let sched = start(kind, &dir)?;
        sys::reset_peak_rss()?;
        let u0 = usage();
        let t0 = Instant::now();
        let answers = pass(&sched, cases, cuts(kind), &opts);
        sched.flush_cache();
        let wall = secs(t0);
        let du = usage().since(&u0);
        t.pass_peak_mb.push(sys::peak_rss_mb()?);
        t.cpu.user_s += du.user_s;
        t.cpu.sys_s += du.sys_s;

        let st = sched.stats();
        t.stage_ms += stage_ms(&st);
        t.lru_hits += st.cache.hits;
        t.lru_lookups += st.cache.hits + st.cache.misses;
        let mismatches = st.validate_fallbacks + st.validate_quarantined;
        if mismatches > 0 {
            out.fail(
                mismatches,
                format!("{mismatches} Mismatch verdict(s) in pass {}", t.passes),
            );
        }
        drop(sched);
        let _ = std::fs::remove_dir_all(&dir);

        let delivered_before = t.delivered;
        let mut latencies = Vec::with_capacity(answers.len());
        for (i, (lat, r)) in answers.into_iter().enumerate() {
            out.attempted += 1;
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    out.fail(1, format!("{}: {e}", cases[i].name));
                    continue;
                }
            };
            latencies.push(lat);
            t.job_walls.push(ms(r.wall));
            t.functions += r.functions as u64;
            t.delivered += match kind {
                Kind::Batch => r.functions as u64,
                Kind::Validate => (r.verified_functions + r.unverified_functions) as u64,
            };
            t.degraded += r.degraded_functions as u64;
            t.restored += r.output.naming.restored_vars as u64;
            t.vars += r.output.naming.total_vars as u64;
            t.verified += r.verified_functions as u64;
            t.unverified += r.unverified_functions as u64;
            match &t.first[i] {
                None => t.first[i] = Some((r.output.source, r.functions as u64)),
                Some((first, _)) if *first != r.output.source => out.fail(
                    1,
                    format!("{}: output differs from the first pass", cases[i].name),
                ),
                Some(_) => {}
            }
        }
        t.requests += latencies.len();
        t.latencies.push(latencies);
        let delivered = (t.delivered - delivered_before) as f64;
        t.pass_throughput.push(delivered / wall);
        t.pass_cpu_ms.push(1e3 * du.cpu_s() / delivered);
        t.passes += 1;
    }
    Ok(t)
}

/// `batch-cold` check: each decompiled output, recompiled and run, must
/// reproduce the `-O0` checksum of the original source. Returns the
/// functions whose module passed.
fn check_recompiled(cases: &[Case], t: &Timed, out: &mut Outcome) -> u64 {
    let (_, verdicts) = closed_loop(cases, vec![(); CLIENTS], |_, i, case| {
        let (source, _) = t.first[i].as_ref()?;
        Some(inputs::reference(case).and_then(|want| {
            let got = inputs::recompiled(case, source)?;
            if got == want {
                Ok(())
            } else {
                Err(format!("recompiled checksum {got} != reference {want}"))
            }
        }))
    });
    let mut passed = 0;
    for (i, v) in verdicts.into_iter().enumerate() {
        let functions = t.first[i].as_ref().map_or(0, |(_, f)| *f);
        match v {
            Some(Ok(())) => passed += functions * t.passes,
            Some(Err(e)) => out.fail(t.passes, format!("{}: {e}", cases[i].name)),
            None => {}
        }
    }
    passed
}

/// Digest of every emitted C unit of one pass, in input order.
fn output_digest(t: &Timed) -> u64 {
    let mut all = Vec::new();
    for (src, _) in t.first.iter().flatten() {
        all.extend_from_slice(&fnv64(src.as_bytes()).to_le_bytes());
    }
    fnv64(&all)
}

/// One replay client: its span recorder, counts, and (batch) its disk
/// store.
struct ReplayClient {
    tr: Tracer,
    counts: Counts,
    fill: Option<Fill>,
}

/// Replay of the same passes through the layers' public functions, with
/// the tracer on or off and validation on or off, comparing every
/// replayed output with the service's output for the same case
/// (`service`). A `batch-cold` replay without validation fills a disk
/// store as the scheduler's disk tier does. Returns spans, exact counts
/// of the first pass, counts over all passes, and delivered functions per
/// second.
fn replay(
    kind: Kind,
    validate: bool,
    cases: &[Case],
    service: &[Option<(String, u64)>],
    seconds: f64,
    work: &Path,
    enabled: bool,
) -> Result<Replayed, String> {
    let origin = Instant::now();
    let mut traces = Vec::new();
    let mut first = Counts::default();
    let mut all = Counts::default();
    let mut wall = 0.0;
    let mut passes = 0u64;
    let mut rid_base = 0u64;
    let started = Instant::now();
    while more_passes(started, passes, seconds) {
        let lru = FunctionCache::new(ServeConfig::default().cache_capacity);
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            clients.push(ReplayClient {
                tr: Tracer::new(origin, enabled),
                counts: Counts::default(),
                fill: match kind {
                    Kind::Batch if !validate => {
                        Some(Fill::open(&work.join(format!("replay-{passes}-{c}")))?)
                    }
                    _ => None,
                },
            });
        }
        let t0 = Instant::now();
        for phase in phases(cases.len(), cuts(kind)) {
            let (back, results) = closed_loop(&cases[phase.clone()], clients, |cl, j, case| {
                let i = phase.start + j;
                let rid = rid_base + i as u64;
                let root = cl.tr.begin("request", rid);
                let replayed =
                    pipeline_request(&mut cl.tr, rid, case, &lru, cl.fill.as_mut(), validate);
                cl.tr.end(root);
                let (mut counts, emitted) =
                    replayed.map_err(|e| format!("replay {}: {e}", case.name))?;
                // `validate-cold`'s service output carries verdict
                // comments; `batch-cold`'s (even when the replay
                // certifies it) does not.
                let source = match (kind, &emitted.validated) {
                    (Kind::Validate, Some(validated)) => validated,
                    _ => &emitted.decompiled,
                };
                if let Some((expected, _)) = &service[i] {
                    counts.compare(source == expected);
                }
                cl.counts.absorb(&counts);
                Ok::<(), String>(())
            });
            clients = back;
            results.into_iter().collect::<Result<(), String>>()?;
        }
        let rid = u64::MAX - passes;
        for cl in &mut clients {
            if let Some(fill) = cl.fill.as_mut() {
                let root = cl.tr.begin("request", rid);
                cl.tr
                    .time("cachestore.flush", rid, || fill.store.flush())
                    .map_err(|e| format!("cachestore flush: {e}"))?;
                cl.tr.end(root);
            }
        }
        wall += secs(t0);
        let mut pass_counts = Counts::default();
        for (c, cl) in clients.into_iter().enumerate() {
            traces.push(cl.tr.into_spans());
            pass_counts.absorb(&cl.counts);
            drop(cl.fill);
            let _ = std::fs::remove_dir_all(work.join(format!("replay-{passes}-{c}")));
        }
        if passes == 0 {
            first = pass_counts;
        }
        all.absorb(&pass_counts);
        passes += 1;
        rid_base += cases.len() as u64;
    }
    if kind == Kind::Batch && !validate && enabled {
        traces.push(replay_store_gets(cases, work, origin, rid_base)?);
    }
    let delivered = if validate {
        all.verified + all.unverified
    } else {
        all.functions
    };
    Ok(Replayed {
        spans: merge(traces),
        first,
        all,
        throughput: delivered as f64 / wall,
    })
}

/// `cachestore.get` over keys a batch pass wrote: one store filled
/// untraced through the codec, then every key read back traced.
fn replay_store_gets(
    cases: &[Case],
    work: &Path,
    origin: Instant,
    rid: u64,
) -> Result<Vec<Span>, String> {
    let dir = work.join("replay-gets");
    let mut fill = Fill::open(&dir)?;
    let lru = FunctionCache::new(ServeConfig::default().cache_capacity);
    let mut untraced = Tracer::new(origin, false);
    for (i, case) in cases.iter().enumerate() {
        pipeline_request(&mut untraced, i as u64, case, &lru, Some(&mut fill), false)?;
    }
    let Fill { mut store, keys } = fill;
    store.flush().map_err(|e| format!("flush: {e}"))?;
    let mut tr = Tracer::new(origin, true);
    let root = tr.begin("request", rid);
    for key in keys {
        let got = tr.time("cachestore.get", rid, || store.get(key));
        if got.is_none() {
            return Err(format!("cachestore lost key {key:#x}"));
        }
    }
    tr.end(root);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(tr.into_spans())
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for r in 0..SETUP_REPEATS {
        let (c, s) = setup_once(kind, seed, work, r)?;
        cases = c;
        setups.push(s);
    }
    let t = timed_passes(kind, &cases, seconds, work, &mut out)?;
    let verified_by_check = match kind {
        Kind::Batch => check_recompiled(&cases, &t, &mut out),
        Kind::Validate => t.verified,
    };
    let throughput = median(&t.pass_throughput);
    let m = &mut out.metrics;
    let samples = t.requests;
    if !trace {
        m.put("throughput_fn_s", throughput, "fn/s");
        let counted = latency(m, &t.latencies)?;
        out.stamp
            .push(("latency_windows".into(), counted.to_string()));
        m.put("cpu_ms_per_fn", median(&t.pass_cpu_ms), "ms");
        put_setup(m, &setups, false);
        m.put("peak_rss_mb", median(&t.pass_peak_mb), "MB");
        m.put(
            "natural_frac",
            1.0 - frac(t.degraded as f64, t.functions as f64),
            "frac",
        );
        m.put(
            "names_restored_frac",
            frac(t.restored as f64, t.vars as f64),
            "frac",
        );
        let checked = match kind {
            Kind::Batch => t.functions,
            Kind::Validate => t.verified + t.unverified,
        };
        m.put(
            "verified_frac",
            frac(verified_by_check as f64, checked as f64),
            "frac",
        );
    } else {
        let validate = kind == Kind::Validate;
        let untraced = replay(kind, validate, &cases, &t.first, seconds, work, false)?;
        let traced = replay(kind, validate, &cases, &t.first, seconds, work, true)?;
        // `batch-cold` bypasses the validator; its traced run also
        // certifies one pass of its inputs, so the validation layers are
        // measured by a workload the benchmark keeps steady.
        let certified = match kind {
            Kind::Batch => Some(replay(kind, true, &cases, &t.first, 0.0, work, true)?),
            Kind::Validate => None,
        };
        let certified = certified.as_ref().unwrap_or(&traced);
        let mut replays = vec![&traced, &untraced];
        if kind == Kind::Batch {
            replays.push(certified);
        }
        check_replayed(&replays, &mut out);
        let m = &mut out.metrics;
        put_replay_layers(m, &traced, &untraced, certified);
        m.timing("serve.job", "ms", t.job_walls.clone(), 1.0);
        m.put(
            "serve.overhead.ms",
            (t.job_walls.iter().sum::<f64>() - t.stage_ms) / t.job_walls.len() as f64,
            "ms",
        );
        for d in [
            "daemon.update_rtt",
            "daemon.decompile_rtt",
            "daemon.update_fingerprint",
            "daemon.update_bookkeeping",
        ] {
            m.timing(d, "ms", Vec::new(), 1.0);
        }
        m.put(
            "serve.lru.hit_rate",
            frac(t.lru_hits as f64, t.lru_lookups as f64),
            "frac",
        );
        m.put(
            "proc.cpu_sys_frac",
            frac(t.cpu.sys_s, t.cpu.cpu_s()),
            "frac",
        );
        put_setup(m, &setups, true);
        out.spans = traced.spans;
    }
    out.stamp.push(("requests".into(), samples.to_string()));
    out.stamp.push(("passes".into(), t.passes.to_string()));
    out.stamp.push((
        "output_digest".into(),
        format!("\"{:016x}\"", output_digest(&t)),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_split_at_the_cuts() {
        assert_eq!(phases(5, &[]), vec![0..5]);
        assert_eq!(phases(20, &[16]), vec![0..16, 16..20]);
    }
}
