//! `edit-session`: the interactive loop. An in-process daemon on a Unix
//! socket, memory-only, and two connections that each edit one
//! seed-chosen function's constant per round, then send UPDATE and
//! DECOMPILE.

use crate::inputs::{edit_constant, replace_constant, STREAM_EDITS};
use crate::outcome::{
    put_setup, secs, stage_ms, Outcome, SetupTimes, CLIENTS, MIN_REQUESTS, SETUP_REPEATS, WORKERS,
};
use crate::replay::{check_replayed, Counts, EditSession, Replayed};
use crate::report::{frac, latency, put_replay_layers};
use crate::stats::{median, merge, ms, Tracer};
use crate::sys::{self, usage};
use splendid_core::fingerprint::fnv64;
use splendid_core::SplendidOptions;
use splendid_daemon::bench::synthetic_module_tagged;
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig, Response};
use splendid_difftest::Rng;
use splendid_ir::parser::parse_module;
use splendid_serve::{FunctionCache, ServeConfig};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Functions per session module (one kernel each).
const FUNCTIONS: usize = 16;
/// Distinct constants one connection can draw: `k` in `1..=2^15`.
const CONSTANTS: u32 = 1 << 15;

/// One connection's seed-drawn edit stream. Constant `j` of the stream
/// is `1 + k_j / 2^16` with `k_j = (offset + j * stride) mod 2^15 + 1`;
/// an odd stride makes every constant of a run distinct, so each edit
/// dirties exactly one function and misses the cache for it.
struct Plan {
    rng: Rng,
    offset: u32,
    stride: u32,
    next: u32,
    consts: Vec<f64>,
}

impl Plan {
    fn new(seed: u64, conn: usize) -> Plan {
        let mut rng = Rng::for_case(seed, STREAM_EDITS + conn as u64);
        let offset = rng.below(u64::from(CONSTANTS)) as u32;
        let stride = 2 * rng.below(u64::from(CONSTANTS / 2)) as u32 + 1;
        let mut plan = Plan {
            rng,
            offset,
            stride,
            next: 0,
            consts: Vec::new(),
        };
        for _ in 0..FUNCTIONS {
            let c = plan.draw().expect("the stream is longer than one module");
            plan.consts.push(c);
        }
        plan
    }

    fn draw(&mut self) -> Option<f64> {
        if self.next >= CONSTANTS {
            return None;
        }
        let k = (self.offset + self.next.wrapping_mul(self.stride)) % CONSTANTS + 1;
        self.next += 1;
        Some(edit_constant(k))
    }

    /// Apply the next edit to `text`.
    fn edit(&mut self, text: &str) -> Result<String, String> {
        let f = self.rng.below(FUNCTIONS as u64) as usize;
        let new = self.draw().ok_or("edit stream exhausted")?;
        let (out, n) = replace_constant(text, self.consts[f], new);
        if n == 0 {
            return Err(format!(
                "constant {} of function {f} not found",
                self.consts[f]
            ));
        }
        self.consts[f] = new;
        Ok(out)
    }
}

fn tag(conn: usize) -> String {
    format!("s{conn}_")
}

struct Conn {
    client: DaemonClient,
    plan: Plan,
    text: String,
}

struct Service {
    daemon: Daemon,
    conns: Vec<Conn>,
    /// Initial module text of each connection, for the traced replay.
    initial: Vec<String>,
}

fn expect_result(resp: Response) -> Result<(u32, u32, u32, u64, bool, String), String> {
    match resp {
        Response::Result {
            functions,
            cached,
            degraded,
            wall_micros,
            fast_path,
            source,
            ..
        } => Ok((functions, cached, degraded, wall_micros, fast_path, source)),
        other => Err(format!("expected RESULT, got {other:?}")),
    }
}

fn setup_once(seed: u64, work: &Path, r: usize) -> Result<(Service, SetupTimes), String> {
    let t = Instant::now();
    let mut plans = Vec::new();
    let mut texts = Vec::new();
    for c in 0..CLIENTS {
        let plan = Plan::new(seed, c);
        texts.push(synthetic_module_tagged(&tag(c), &plan.consts)?);
        plans.push(plan);
    }
    let inputs = secs(t);

    let t = Instant::now();
    let socket = work.join(format!("daemon-{r}.sock"));
    let daemon = Daemon::start(DaemonConfig {
        unix_path: Some(socket.clone()),
        idle_timeout: None,
        serve: ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let service = secs(t);

    let t = Instant::now();
    let mut conns = Vec::new();
    for (c, (plan, text)) in plans.into_iter().zip(&texts).enumerate() {
        let mut client =
            DaemonClient::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?;
        client
            .open(&format!("edit-{c}"), 3, text)
            .map_err(|e| format!("OPEN: {e}"))?;
        let resp = client.decompile().map_err(|e| format!("DECOMPILE: {e}"))?;
        expect_result(resp)?;
        conns.push(Conn {
            client,
            plan,
            text: text.clone(),
        });
    }
    let warmup = secs(t);
    Ok((
        Service {
            daemon,
            conns,
            initial: texts,
        },
        SetupTimes {
            inputs,
            service,
            warmup,
        },
    ))
}

fn shutdown(mut s: Service) -> Result<(), String> {
    for c in &mut s.conns {
        c.client.close().map_err(|e| format!("CLOSE: {e}"))?;
    }
    if !s.daemon.drain() {
        return Err("daemon did not drain".into());
    }
    Ok(())
}

/// One connection's timed rounds.
#[derive(Default)]
struct Rounds {
    latencies: Vec<f64>,
    /// Completion time (seconds into the timed loop) and functions
    /// delivered of each successful round, in step with `latencies`.
    done: Vec<(f64, u32)>,
    update_rtt: Vec<f64>,
    decompile_rtt: Vec<f64>,
    update_fingerprint: Vec<f64>,
    update_bookkeeping: Vec<f64>,
    server_wall: Vec<f64>,
    attempted: u64,
    functions: u64,
    degraded: u64,
    failures: Vec<String>,
    last_source: Option<String>,
    /// Digest of each round's RESULT (0 for a failed round), for the
    /// traced replay to compare its output with, round by round.
    digests: Vec<u64>,
}

/// Every connection runs at least this many rounds; the RESULT of this
/// round is a run-length independent fingerprint of the session's output.
const DIGEST_ROUND: u64 = (MIN_REQUESTS / CLIENTS) as u64;

fn round(conn: &mut Conn, r: &mut Rounds, started: Instant) -> Result<(), String> {
    conn.text = conn.plan.edit(&conn.text)?;
    let t0 = Instant::now();
    let resp = conn
        .client
        .update(&conn.text)
        .map_err(|e| format!("UPDATE: {e}"))?;
    let update_rtt = ms(t0.elapsed());
    let Response::Updated {
        dirty,
        fingerprint_nanos,
        bookkeeping_nanos,
        ..
    } = resp
    else {
        return Err(format!("expected UPDATED, got {resp:?}"));
    };
    let t1 = Instant::now();
    let resp = conn
        .client
        .decompile()
        .map_err(|e| format!("DECOMPILE: {e}"))?;
    let decompile_rtt = ms(t1.elapsed());
    let latency = ms(t0.elapsed());
    let done_s = secs(started);
    let (functions, cached, degraded, wall_micros, fast_path, source) = expect_result(resp)?;
    if dirty != 1 || fast_path || cached + 1 != functions {
        return Err(format!(
            "one-function edit: {dirty} dirty, {cached}/{functions} cached, fast path {fast_path}"
        ));
    }
    r.latencies.push(latency);
    r.done.push((done_s, functions));
    r.update_rtt.push(update_rtt);
    r.decompile_rtt.push(decompile_rtt);
    r.update_fingerprint.push(fingerprint_nanos as f64 * 1e-6);
    r.update_bookkeeping.push(bookkeeping_nanos as f64 * 1e-6);
    r.server_wall.push(wall_micros as f64 * 1e-3);
    r.functions += u64::from(functions);
    r.degraded += u64::from(degraded);
    r.digests.push(fnv64(source.as_bytes()));
    r.last_source = Some(source);
    Ok(())
}

fn timed_rounds(service: &mut Service, seconds: f64) -> (Vec<Rounds>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    let mut started = Instant::now();
    let rounds = std::thread::scope(|s| {
        let handles: Vec<_> = service
            .conns
            .iter_mut()
            .map(|conn| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut r = Rounds::default();
                    barrier.wait();
                    let t = Instant::now();
                    while secs(t) < seconds || r.attempted < DIGEST_ROUND {
                        r.attempted += 1;
                        if let Err(e) = round(conn, &mut r, t) {
                            r.digests.push(0);
                            r.failures.push(e);
                            if r.failures.len() > 8 {
                                break;
                            }
                        }
                    }
                    r
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("edit connections return errors, not panics")
            })
            .collect::<Vec<_>>()
    });
    (rounds, secs(started))
}

/// The timed loop cut into equal time slices of about `3 * MIN_REQUESTS`
/// rounds each (at most ten): the latencies and the functions delivered
/// per second of each slice, by round completion time.
fn slices(rounds: &[Rounds], wall: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let total: usize = rounds.iter().map(|r| r.latencies.len()).sum();
    let n = (total / (3 * MIN_REQUESTS)).clamp(1, 10);
    let width = wall / n as f64;
    let mut latencies = vec![Vec::new(); n];
    let mut functions = vec![0u64; n];
    for r in rounds {
        for (&lat, &(t, f)) in r.latencies.iter().zip(&r.done) {
            let k = ((t / width) as usize).min(n - 1);
            latencies[k].push(lat);
            functions[k] += u64::from(f);
        }
    }
    let throughput = functions.iter().map(|&f| f as f64 / width).collect();
    (latencies, throughput)
}

/// Replay of each connection's edit stream through the layers' public
/// functions, without the daemon, with the tracer on or off. Each
/// replayed round's output is compared with the daemon's RESULT for the
/// same round of the same connection (`service`: digests per round).
fn replay(
    seed: u64,
    initial: &[String],
    service: &[Vec<u64>],
    seconds: f64,
    enabled: bool,
) -> Result<Replayed, String> {
    let origin = Instant::now();
    let lru = FunctionCache::new(ServeConfig::default().cache_capacity);
    let mut sessions = Vec::new();
    for text in initial {
        sessions.push(EditSession::open(text, &lru)?);
    }
    let t0 = Instant::now();
    let results: Vec<Result<Replayed, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(c, mut session)| {
                let lru = &lru;
                let mut text = initial[c].clone();
                s.spawn(move || -> Result<Replayed, String> {
                    let mut plan = Plan::new(seed, c);
                    let mut tr = Tracer::new(origin, enabled);
                    let (mut first, mut all) = (Counts::default(), Counts::default());
                    let t = Instant::now();
                    let mut n = 0u64;
                    while secs(t) < seconds {
                        text = plan.edit(&text)?;
                        let rid = ((c as u64) << 32) | n;
                        let root = tr.begin("request", rid);
                        let (mut counts, source) = session.round(&mut tr, rid, &text, lru)?;
                        tr.end(root);
                        if let Some(&expected) = service[c].get(n as usize) {
                            counts.compare(fnv64(source.as_bytes()) == expected);
                        }
                        if n < FUNCTIONS as u64 {
                            first.absorb(&counts);
                        }
                        all.absorb(&counts);
                        n += 1;
                    }
                    Ok(Replayed {
                        spans: tr.into_spans(),
                        first,
                        all,
                        throughput: 0.0,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay threads return errors, not panics"))
            .collect()
    });
    let wall = secs(t0);
    let (mut traces, mut first, mut all) = (Vec::new(), Counts::default(), Counts::default());
    for r in results {
        let r = r?;
        traces.push(r.spans);
        first.absorb(&r.first);
        all.absorb(&r.all);
    }
    Ok(Replayed {
        spans: merge(traces),
        first,
        all,
        throughput: all.functions as f64 / wall,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut service = None;
    for r in 0..SETUP_REPEATS {
        let (s, times) = setup_once(seed, work, r)?;
        setups.push(times);
        if let Some(previous) = service.replace(s) {
            shutdown(previous)?;
        }
    }
    let mut service = service.expect("at least one set-up");

    let before = service.daemon.serve_stats();
    sys::reset_peak_rss()?;
    let u0 = usage();
    let (rounds, wall) = timed_rounds(&mut service, seconds);
    let cpu = usage().since(&u0);
    let peak_rss_mb = sys::peak_rss_mb()?;
    let after = service.daemon.serve_stats();

    // Check: each session's final RESULT equals a cold decompile of the
    // same final module text.
    let mut restored = 0u64;
    let mut vars = 0u64;
    let mut sessions_ok = 0u64;
    for (c, r) in rounds.iter().enumerate() {
        out.attempted += r.attempted;
        for f in &r.failures {
            out.fail(1, format!("connection {c}: {f}"));
        }
        let cold = parse_module(&service.conns[c].text)
            .map_err(|e| e.to_string())
            .and_then(|m| {
                splendid_core::decompile(&m, &SplendidOptions::default()).map_err(|e| e.to_string())
            });
        match (&r.last_source, cold) {
            (Some(got), Ok(cold)) if *got == cold.source => {
                sessions_ok += 1;
                restored += cold.naming.restored_vars as u64;
                vars += cold.naming.total_vars as u64;
            }
            (_, Err(e)) => out.fail(1, format!("connection {c}: cold decompile: {e}")),
            _ => out.fail(
                1,
                format!("connection {c}: final RESULT differs from a cold decompile"),
            ),
        }
    }
    let initial = service.initial.clone();
    let final_digest = {
        let mut all = Vec::new();
        for r in &rounds {
            let digest = r.digests.get(DIGEST_ROUND as usize - 1);
            all.extend_from_slice(&digest.copied().unwrap_or(0).to_le_bytes());
        }
        fnv64(&all)
    };
    shutdown(service)?;

    let collect = |f: fn(&Rounds) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let functions: u64 = rounds.iter().map(|r| r.functions).sum();
    let degraded: u64 = rounds.iter().map(|r| r.degraded).sum();
    let (windows, window_throughput) = slices(&rounds, wall);
    let samples: usize = windows.iter().map(Vec::len).sum();
    let m = &mut out.metrics;
    if !trace {
        m.put("throughput_fn_s", median(&window_throughput), "fn/s");
        let counted = latency(m, &windows)?;
        out.stamp
            .push(("latency_windows".into(), counted.to_string()));
        m.put("cpu_ms_per_fn", 1e3 * cpu.cpu_s() / functions as f64, "ms");
        put_setup(m, &setups, false);
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m.put(
            "natural_frac",
            1.0 - frac(degraded as f64, functions as f64),
            "frac",
        );
        m.put(
            "names_restored_frac",
            frac(restored as f64, vars as f64),
            "frac",
        );
        m.put(
            "verified_frac",
            frac(sessions_ok as f64, rounds.len() as f64),
            "frac",
        );
    } else {
        let service_digests: Vec<Vec<u64>> = rounds.iter().map(|r| r.digests.clone()).collect();
        let untraced = replay(seed, &initial, &service_digests, seconds, false)?;
        let traced = replay(seed, &initial, &service_digests, seconds, true)?;
        check_replayed(&[&traced, &untraced], &mut out);
        let m = &mut out.metrics;
        put_replay_layers(m, &traced, &untraced, &traced);
        let server_wall = collect(|r| &r.server_wall);
        let jobs = server_wall.len() as f64;
        let overhead =
            (server_wall.iter().sum::<f64>() - (stage_ms(&after) - stage_ms(&before))) / jobs;
        m.timing("serve.job", "ms", server_wall, 1.0);
        m.put("serve.overhead.ms", overhead, "ms");
        m.timing("daemon.update_rtt", "ms", collect(|r| &r.update_rtt), 1.0);
        m.timing(
            "daemon.decompile_rtt",
            "ms",
            collect(|r| &r.decompile_rtt),
            1.0,
        );
        m.timing(
            "daemon.update_fingerprint",
            "ms",
            collect(|r| &r.update_fingerprint),
            1.0,
        );
        m.timing(
            "daemon.update_bookkeeping",
            "ms",
            collect(|r| &r.update_bookkeeping),
            1.0,
        );
        let hits = after.cache.hits - before.cache.hits;
        let lookups = hits + after.cache.misses - before.cache.misses;
        m.put(
            "serve.lru.hit_rate",
            frac(hits as f64, lookups as f64),
            "frac",
        );
        m.put("proc.cpu_sys_frac", frac(cpu.sys_s, cpu.cpu_s()), "frac");
        put_setup(m, &setups, true);
        out.spans = traced.spans;
    }
    out.stamp.push(("requests".into(), samples.to_string()));
    out.stamp
        .push(("output_digest".into(), format!("\"{final_digest:016x}\"")));
    Ok(out)
}
