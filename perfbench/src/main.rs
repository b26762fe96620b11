//! Seeded benchmark of the SPLENDID reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cold|edit-session|validate-cold \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced replay, whose spans are written to
//! `perfbench/.out/`. The line before it is the full report with the
//! host and build stamp. Exits 1 when any output check fails. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod edit;
mod inputs;
mod outcome;
mod replay;
mod report;
mod sched;
mod stats;
mod sys;

use outcome::{Outcome, CLIENTS, WORKERS};
use report::quote;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seed_text: String,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload batch-cold|edit-session|validate-cold \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed_text), Some(seconds), Some(trace)) =
        (workload, seed, seconds, trace)
    else {
        usage()
    };
    Args {
        workload,
        seed: splendid_difftest::parse_seed(&seed_text),
        seed_text,
        seconds,
        trace,
    }
}

fn report_line(a: &Args, out: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), quote(&a.workload)),
        ("seed".into(), quote(&a.seed_text)),
        ("seconds".into(), a.seconds.to_string()),
        ("trace".into(), u8::from(a.trace).to_string()),
        ("nproc".into(), sys::nproc().to_string()),
        ("profile".into(), quote(sys::profile())),
        ("git_revision".into(), quote(&sys::git_revision())),
        ("clients".into(), CLIENTS.to_string()),
        ("workers".into(), WORKERS.to_string()),
        (
            "percentile_rule".into(),
            quote("nearest rank, reported with >= 10 samples beyond"),
        ),
        ("attempted".into(), out.attempted.to_string()),
        ("failed".into(), out.failed.to_string()),
        (
            "failed_frac".into(),
            report::frac(out.failed as f64, out.attempted as f64).to_string(),
        ),
        (
            "failures".into(),
            format!(
                "[{}]",
                out.failures
                    .iter()
                    .map(|f| quote(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "medians_reported_as_means".into(),
            format!(
                "[{}]",
                out.metrics
                    .means
                    .iter()
                    .map(|f| quote(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    fields.extend(out.stamp.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"report\": {{{}}}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let work =
        PathBuf::from("perfbench/.work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "batch-cold" => sched::run(
            sched::Kind::Batch,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "validate-cold" => sched::run(
            sched::Kind::Validate,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "edit-session" => edit::run(args.seed, args.seconds, args.trace, &work),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let dir = PathBuf::from("perfbench/.out");
        // One file per workload, replaced by each traced run: a traced
        // `batch-cold` run records over a million spans.
        let path = dir.join(format!("spans-{}.tsv", args.workload));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| stats::write_spans(&path, &out.spans))
        {
            eprintln!("perfbench: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let correct = out.failed == 0;
    println!("{}", report_line(&args, &out));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    if !correct {
        for f in &out.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        std::process::exit(1);
    }
}
