//! SHIFT reproduction benchmark.
//!
//! ```text
//! cargo run --release --manifest-path shiftbench/Cargo.toml -- \
//!     --workload <shift-oltp16|baseline-media4|reproduce-test4> \
//!     --seed <n> --seconds <s> --trace <0|1> [--fidelity-seed <n>]
//! ```
//!
//! Prints every metric as a `metric <name> = <value> <unit>` line and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is a separate invocation that prints the per-layer metrics, the
//! reconciliation table, and writes its spans under `shiftbench/out/`.
//! See `README.md` next to this package for the workloads and metrics.

mod checks;
mod fidelity;
mod hostref;
mod layers;
mod replay;
mod report;
mod spans;
mod stepping;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use stepping::Stepping;

/// Where traced runs write spans and reconciliation tables, and where the
/// sweep keeps its outcome and report files while it runs.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The seed the fidelity metrics are evaluated at: the seed `reproduce`
/// scores the paper at, unless `--fidelity-seed` names another (a held-out
/// seed, to confirm a fidelity claim).
const FIDELITY_SEED: u64 = shift_bench::HARNESS_SEED;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    fidelity_seed: u64,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut fidelity_seed = FIDELITY_SEED;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--fidelity-seed" => fidelity_seed = number()?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
        fidelity_seed,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("shiftbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let stepping = match args.workload.as_str() {
        "shift-oltp16" => Some(Stepping::shift_oltp16()),
        "baseline-media4" => Some(Stepping::baseline_media4()),
        "reproduce-test4" => None,
        other => {
            eprintln!("shiftbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match (stepping, args.trace) {
        (Some(w), false) => w.run(args.seed, args.seconds, args.fidelity_seed, &mut out),
        (Some(w), true) => w.run_traced(args.seed, &mut out),
        (None, false) => sweep::run(args.seed, args.seconds, args.fidelity_seed, &mut out),
        (None, true) => sweep::run_traced(args.seed, &mut out),
    }
    print!("{}", out.render());
    ExitCode::SUCCESS
}
