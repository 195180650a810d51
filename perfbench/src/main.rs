//! The Photon-RS benchmark: end-to-end training metrics on three federated
//! workloads (`--trace 0`), or a per-layer breakdown from a traced replay
//! (`--trace 1`).
//!
//! ```text
//! perfbench --workload fl-compute|wide-cohort|tcp-durable --seed N \
//!           --seconds S --trace 0|1 --photon PATH
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines above it are the same
//! metrics as a table with units and sample counts. The exit code is 0
//! only when every correctness check passed.

mod heap;
mod inproc;
mod kbench;
mod layers;
mod report;
mod spans;
mod stats;
mod tcp;
mod workload;

use report::Report;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    photon: PathBuf,
}

/// Scratch files, checkpoints and span traces, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut photon) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--photon" => photon = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        photon: photon.ok_or("--photon is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    if !args.photon.is_file() {
        eprintln!("perfbench: no photon binary at {}", args.photon.display());
        std::process::exit(2);
    }
    let out = std::path::Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }

    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} | seed {} | {} kernel thread(s) | {} backend | {} core(s)",
        w.name,
        args.seed,
        photon_tensor::ops::pool::max_threads(),
        photon_tensor::backend::active_name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    if args.trace {
        if let Err(e) = layers::run(&w, args.seed, &args.photon, out, &mut report) {
            report.failed += 1;
            report.fail(format!("traced run failed: {e}"));
        }
    } else {
        let scratch = tcp::scratch(out, &w, args.seed);
        match w.path {
            workload::Path::InProcess => inproc::measure(&w, args.seed, args.seconds, &mut report),
            workload::Path::Tcp => tcp::measure(
                &w,
                args.seed,
                args.seconds,
                &args.photon,
                &scratch,
                &mut report,
            ),
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("metric {} is not finite", m.name);
        report.fail(msg);
    }
    print!("{}", report.render(w.name, args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
