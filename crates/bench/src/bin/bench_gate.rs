//! Run the pinned bench suites and fail on any drift from their committed
//! pins — the CI gate for `BENCH_*.json`, the sibling of `scenario_gate`.
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_gate -- \
//!       [smoke|ml|partition|serve|scaling]... [--out target/bench] [--update]
//!
//! Each named suite (all five when none is named) is run once. Its in-run
//! gates come first — ratios of timings taken inside that one process, see
//! `grist_bench::pin` — and a suite that fails one is not compared. The
//! run's pin is then compared against `BENCH_<suite>.json` in the working
//! directory with `ScenarioArtifact::diff`: diagnostic bit patterns and
//! exact counters, no tolerance, one line per leaf that moved, vanished or
//! is not pinned yet.
//!
//! `--update` rewrites each `BENCH_<suite>.json` from the run instead of
//! comparing (for changes that move a count or a projection on purpose —
//! review the diff). The fresh pin and the wall report (kernel/span
//! nanoseconds, rates, latencies: recorded for the CI artifact, compared
//! with nothing — host speed is `benchmark/run.sh`) are always written to
//! `--out`.
//!
//! Exit codes: 0 = every gate held and every pin matches, 1 = an in-run
//! gate failed / drift / missing or malformed pin, 2 = bad usage or
//! unwritable `--out`.

use grist_bench::pin::{Suite, SUITES};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate [smoke|ml|partition|serve|scaling]... [--out target/bench] [--update]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut out = PathBuf::from("target/bench");
    let mut update = false;
    let mut suites: Vec<Suite> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => match argv.next() {
                Some(v) => out = PathBuf::from(v),
                None => return usage(),
            },
            "--update" => update = true,
            name => match SUITES.iter().find(|(n, _)| *n == name) {
                Some(suite) => suites.push(*suite),
                None => return usage(),
            },
        }
    }
    if suites.is_empty() {
        suites.extend(SUITES);
    }
    if let Err(e) = fs::create_dir_all(&out) {
        eprintln!("bench_gate: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }

    let mut failures = 0usize;
    for suite in &suites {
        let pin_path = format!("BENCH_{}.json", suite.0);
        match gate_one(suite, Path::new(&pin_path), &out, update) {
            Ok(msg) => println!("PASS {pin_path}: {msg}"),
            Err(msg) => {
                failures += 1;
                println!("FAIL {pin_path}: {msg}");
            }
        }
    }
    println!(
        "bench_gate: {} suite(s), {} failure(s){}",
        suites.len(),
        failures,
        if update { " [pins updated]" } else { "" }
    );
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn gate_one(
    (name, run): &Suite,
    pin_path: &Path,
    out: &Path,
    update: bool,
) -> Result<String, String> {
    let run = run().map_err(|e| format!("in-run gate: {e}"))?;
    let fresh = run.pin_file_json();
    fs::write(out.join(format!("{name}.pin.json")), &fresh)
        .map_err(|e| format!("cannot write pin: {e}"))?;
    fs::write(out.join(format!("{name}.wall.json")), run.wall.pretty())
        .map_err(|e| format!("cannot write wall report: {e}"))?;

    let size = format!(
        "{} diagnostic(s), {} counter(s)",
        run.pin.diagnostics.len(),
        run.pin.counters.len()
    );
    if update {
        fs::write(pin_path, &fresh).map_err(|e| format!("cannot rewrite pin: {e}"))?;
        return Ok(format!("pinned {size}"));
    }

    let text = fs::read_to_string(pin_path)
        .map_err(|e| format!("unreadable ({e}) — pin it with --update and review the diff"))?;
    let drift = run.drift_from(&text)?;
    if !drift.is_empty() {
        return Err(format!(
            "{} drift line(s) from the pin:\n  {}",
            drift.len(),
            drift.join("\n  ")
        ));
    }
    Ok(format!("{size} exact"))
}
