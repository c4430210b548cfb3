//! Compare a fresh `BENCH_*.json` document against a committed baseline and
//! exit nonzero when anything regressed — the CI bench gate.
//!
//! Usage:
//!   cargo run --release -p grist-bench --bin bench_compare -- \
//!       OLD.json NEW.json [--markdown-summary]
//!
//! The bands are [`CompareConfig::default`]: deterministic counters ±10%,
//! wall times +400%.
//!
//! `--markdown-summary` additionally prints a baseline-vs-current delta
//! table as GitHub-flavored markdown on stdout, for appending to
//! `$GITHUB_STEP_SUMMARY` in CI. The table is emitted whether or not the
//! gate passes; the human pass/fail messages go to stderr so stdout stays
//! clean markdown.
//!
//! Exit codes: 0 = no regressions, 1 = regressions found, 2 = bad
//! usage/unreadable/malformed input.

use grist_bench::compare::{compare_docs, markdown_delta_table, CompareConfig};
use sunway_sim::Json;

fn usage() -> ! {
    eprintln!("usage: bench_compare OLD.json NEW.json [--markdown-summary]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let cfg = CompareConfig::default();
    let mut markdown = false;
    for a in &args {
        match a.as_str() {
            "--markdown-summary" => markdown = true,
            _ if a.starts_with("--") => usage(),
            other => paths.push(other),
        }
    }
    let [old_path, new_path] = paths[..] else {
        usage();
    };

    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_compare: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench_compare: {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);

    if markdown {
        match markdown_delta_table(&old, &new) {
            Ok(table) => {
                println!("### `{new_path}` vs `{old_path}`\n");
                println!("{table}");
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                std::process::exit(2);
            }
        }
    }

    match compare_docs(&old, &new, &cfg) {
        Err(e) => {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        }
        Ok(regressions) if regressions.is_empty() => {
            eprintln!(
                "bench_compare: OK — {new_path} within tolerance of {old_path} \
                 (counters ±{}%, wall times +{}%)",
                cfg.tolerance, cfg.time_tolerance
            );
        }
        Ok(regressions) => {
            eprintln!(
                "bench_compare: {} regression(s) in {new_path} vs {old_path}:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
