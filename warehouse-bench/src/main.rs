//! End-to-end benchmark of the warehouse engine.
//!
//! ```text
//! cargo run --release --manifest-path warehouse-bench/Cargo.toml -- \
//!     --workload steady_refresh --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` beside this crate) against
//! `mvmqo-warehouse`'s public API, checks every view against an
//! independent oracle, and prints its metrics; the last line of standard
//! output is one JSON object. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload twice (untraced in a child process, then
//! traced with shadow calls into the lower layers), reports the per-layer
//! metrics and writes the traced pass's spans under `.bench_out/`.

mod driver;
mod host;
mod metrics;
mod oracle;
mod timeline;
mod workloads;

use driver::Pass;
use metrics::Metric;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Every file a run writes lives under this directory of the working
/// directory; each run removes its own subdirectory before it reports.
const TMP_ROOT: &str = ".bench_tmp";
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 8, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or("--workload is required (steady_refresh, trickle_read, view_churn)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &Args) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"sf\":{},\"epochs\":{},\"hardware_threads\":{threads},\"git_commit\":\"{}\",\"rustc\":\"{}\"}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace,
        a.workload.scale_factor(),
        a.workload.epochs(a.seconds),
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
    )
}

/// The untraced run of the same workload and seed, in a child process so
/// that it starts from a fresh process as every untraced run does (a
/// second pass in one process reuses the first pass's heap and runs
/// faster). Returns its `epoch_ms` and its attempted and failed counts.
fn reference_run(a: &Args) -> Result<(f64, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let (seed, seconds) = (a.seed.to_string(), a.seconds.to_string());
    let out = Command::new(exe)
        .args(["--workload", a.workload.name(), "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the untraced reference run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let number = |key: &str| -> Option<f64> {
        let rest = &last[last.find(key)? + key.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    match (
        out.status.success(),
        number("\"epoch_ms\":{\"value\":"),
        number("\"attempted\":"),
        number("\"failed\":"),
    ) {
        (true, Some(epoch_ms), Some(attempted), Some(failed)) => {
            Ok((epoch_ms, attempted as u64, failed as u64))
        }
        _ => Err(format!("the untraced reference run failed: {last}")),
    }
}

fn run_pass(a: &Args, dir: PathBuf, traced: bool) -> Result<Pass, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut pass = Pass::new(dir, traced);
    a.workload.run(&mut pass, a.seed, a.seconds)?;
    Ok(pass)
}

/// Remove the run's directory, and fail if any of it is left.
fn clean_up(run_dir: &Path) -> Result<(), String> {
    if run_dir.exists() {
        std::fs::remove_dir_all(run_dir)
            .map_err(|e| format!("removing {}: {e}", run_dir.display()))?;
    }
    if run_dir.exists() {
        return Err(format!("{} was left behind", run_dir.display()));
    }
    // Shared root: removed only once no other run uses it.
    let _ = std::fs::remove_dir(TMP_ROOT);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("warehouse-bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", provenance(&args));
    let run_dir = Path::new(TMP_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = if args.trace {
        reference_run(&args).and_then(|(reference_epoch_ms, attempted, failed)| {
            let mut traced = run_pass(&args, run_dir.join("traced"), true)?;
            traced.ops.attempted += attempted;
            traced.ops.failed += failed;
            if failed > 0 {
                traced.ops.notes.push(format!(
                    "the untraced reference run failed {failed} operations"
                ));
            }
            Ok((
                metrics::per_layer(&traced, reference_epoch_ms),
                vec![traced],
            ))
        })
    } else {
        run_pass(&args, run_dir.join("run"), false).map(|p| (metrics::end_to_end(&p), vec![p]))
    };
    let cleaned = clean_up(&run_dir);
    let (metrics, passes) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("warehouse-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (mut attempted, mut failed) = (0, 0);
    for p in &passes {
        println!(
            "host slowdown {:.4} (median host.probe time over its reference-host time)",
            metrics::host_slowdown(&p.tl)
        );
        attempted += p.ops.attempted;
        failed += p.ops.failed;
        for note in &p.ops.notes {
            println!("FAILED {note}");
        }
    }
    attempted += 1;
    if let Err(e) = cleaned {
        failed += 1;
        println!("FAILED {e}");
    }
    if args.trace {
        if let Some(traced) = passes.last() {
            let path = Path::new(OUT_DIR).join(format!(
                "trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            let written =
                std::fs::create_dir_all(OUT_DIR).and_then(|_| traced.tl.write_jsonl(&path));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("could not write spans to {}: {e}", path.display()),
            }
        }
    }
    println!(
        "error_rate {} (failed {failed} of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    for m in metrics {
        println!(
            "{:<34} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value + 0.0
        } else {
            0.0
        };
        let _ = write!(
            body,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}
