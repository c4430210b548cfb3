//! `grist-benchmark`: the repo benchmark (README.md beside `Cargo.toml`).
//!
//! ```text
//! grist-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! grist-benchmark [--seed N] [--seconds S] [--repeats R] [--workload W ...]
//!                                                     every workload, results.json
//! grist-benchmark compare A.json B.json               A/B verdicts against the bounds
//! ```
//!
//! One run prints every metric by name with its unit and ends with one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod aqua;
mod catalog;
mod common;
mod compare;
mod openloop;
mod serve;
mod span;
mod stats;
mod swe;

use common::{Outcome, Params};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sunway_sim::Json;

fn run_workload(name: &str, p: &Params) -> Option<Outcome> {
    Some(match name {
        "aqua_conv_dp" => aqua::run(aqua::Kind::ConvDp, p),
        "aqua_ml_mix" => aqua::run(aqua::Kind::MlMix, p),
        "swe_halo_2rank" => swe::run(p),
        "serve_steady" => serve::run(serve::Kind::Steady, p),
        "serve_churn" => serve::run(serve::Kind::Churn, p),
        _ => return None,
    })
}

/// Write `trace_<workload>.json`; a trace that cannot be written is a
/// failed check, not a silent omission.
pub fn write_trace(
    p: &Params,
    workload: &str,
    lanes: &[(&str, Vec<span::SpanRec>)],
    out: &mut Outcome,
) {
    let path = p.out_dir.join(format!("trace_{workload}.json"));
    let doc = span::trace_json(workload, lanes);
    let res =
        std::fs::create_dir_all(&p.out_dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    out.check(res.is_ok(), || {
        format!("cannot write {}: {}", path.display(), res.unwrap_err())
    });
}

/// One line, no spaces after the structural newlines `pretty` emits.
fn compact(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeats: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: None,
        repeats: 1,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !catalog::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; known: {}",
                        catalog::WORKLOADS.join(", ")
                    ));
                }
                cli.workloads.push(w);
            }
            "--seed" => {
                cli.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                });
            }
            "--repeats" => {
                cli.repeats = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if cli.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The full record of one run, kept beside the trace so the all-workloads
/// mode (and a curious reader) gets the sample summaries, not only the line.
fn run_record(workload: &str, p: &Params, out: &Outcome, metrics: &Json) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(p.seed as f64)),
        ("seconds".into(), Json::Num(p.seconds)),
        ("trace".into(), Json::Bool(p.traced)),
        ("correct".into(), Json::Bool(out.problems.is_empty())),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        (
            "problems".into(),
            Json::Arr(out.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics".into(), metrics.clone()),
        ("detail".into(), Json::Obj(out.detail.clone())),
    ])
}

/// Run one workload in this process and print its result line.
fn run_one(workload: &str, p: &Params) -> ExitCode {
    let Some(mut out) = run_workload(workload, p) else {
        eprintln!("grist-benchmark: unknown workload {workload:?}");
        return ExitCode::from(2);
    };
    if !p.traced {
        out.metric("peak_rss_mb", common::peak_rss_mb());
    }
    let value_of = |name: &str| {
        out.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    // The contract: every catalogued metric of the pass, under its own name
    // and unit. A layer this workload never calls reports 0.
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    let listed: Vec<(&str, &str, catalog::Better)> = if p.traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    };
    for (name, unit, better) in &listed {
        let value = match value_of(name) {
            Some(v) => v,
            None if p.traced => 0.0,
            None => {
                missing.push(*name);
                0.0
            }
        };
        println!(
            "{workload:16} {name:36} {value:>16.6} {unit:8} ({} is better)",
            better.as_str()
        );
        fields.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str((*unit).into())),
            ]),
        ));
    }
    for (name, _) in &out.metrics {
        assert!(
            listed.iter().any(|(n, _, _)| n == name),
            "workload reported uncatalogued metric {name}"
        );
    }
    if !missing.is_empty() {
        out.problems
            .push(format!("end-to-end metrics not measured: {missing:?}"));
    }
    for problem in &out.problems {
        eprintln!("grist-benchmark: {workload}: {problem}");
    }
    let metrics = Json::Obj(fields);
    let record = run_record(workload, p, &out, &metrics);
    let record_path = p
        .out_dir
        .join(format!("run_{workload}_t{}.json", u8::from(p.traced)));
    if let Err(e) = std::fs::create_dir_all(&p.out_dir)
        .and_then(|()| std::fs::write(&record_path, record.pretty()))
    {
        eprintln!(
            "grist-benchmark: cannot write {}: {e}",
            record_path.display()
        );
        return ExitCode::from(1);
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.problems.is_empty())),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", compact(&line));
    ExitCode::SUCCESS
}

/// Facts about the machine and the build a results file is only comparable
/// under.
fn environment(seed: u64, seconds: f64) -> Json {
    let first_line = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            Json::Str(first_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
    ])
}

/// Run every selected workload, untraced then traced, each in a process of
/// its own (`peak_rss_mb` is per process), `repeats` times on consecutive
/// seeds, and gather the records into `results.json`.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let workloads: Vec<&str> = if cli.workloads.is_empty() {
        catalog::WORKLOADS.to_vec()
    } else {
        cli.workloads.iter().map(String::as_str).collect()
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..cli.repeats {
        let seed = cli.seed + rep as u64;
        for workload in &workloads {
            for trace in ["0", "1"] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .arg("--out")
                    .arg(&cli.out_dir);
                if cli.smoke {
                    cmd.arg("--smoke");
                }
                // The child inherits stdout: its metric lines are this
                // command's "prints every metric by name".
                let status = cmd.status().expect("spawn benchmark process");
                let record_path = cli.out_dir.join(format!("run_{workload}_t{trace}.json"));
                let record = std::fs::read_to_string(&record_path)
                    .ok()
                    .filter(|_| status.success())
                    .and_then(|s| Json::parse(&s).ok());
                let Some(record) = record else {
                    eprintln!("grist-benchmark: {workload} --trace {trace} produced no record");
                    return ExitCode::from(1);
                };
                all_correct &= record.get("correct") == Some(&Json::Bool(true));
                runs.push(record);
            }
        }
    }
    let doc = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("grist-benchmark-results-v1".into()),
        ),
        ("environment".into(), environment(cli.seed, cli.seconds)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let path = cli.out_dir.join("results.json");
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("grist-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("results: {} (all correct: {all_correct})", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: grist-benchmark compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("grist-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (cli.trace, cli.workloads.as_slice()) {
        (Some(traced), [workload]) => run_one(
            workload,
            &Params {
                seed: cli.seed,
                seconds: cli.seconds,
                traced,
                smoke: cli.smoke,
                out_dir: cli.out_dir.clone(),
                corrupt_reference: false,
            },
        ),
        (Some(_), _) => {
            eprintln!("grist-benchmark: --trace takes exactly one --workload");
            ExitCode::from(2)
        }
        (None, _) => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(traced: bool) -> Params {
        Params {
            seed: 7,
            seconds: 0.3,
            traced,
            smoke: true,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest"),
            corrupt_reference: false,
        }
    }

    #[test]
    fn smoke_run_of_all_five_workloads_is_correct_and_catalogued() {
        for workload in catalog::WORKLOADS {
            for traced in [false, true] {
                let out = run_workload(workload, &smoke(traced)).expect("known workload");
                assert!(
                    out.problems.is_empty(),
                    "{workload} traced={traced}: {:?}",
                    out.problems
                );
                assert!(out.attempted >= 1 && out.failed == 0, "{workload}");
                for (name, value) in &out.metrics {
                    let listed = if traced {
                        catalog::PER_LAYER.iter().any(|m| m.name == *name)
                    } else {
                        catalog::end_to_end(name).is_some()
                    };
                    assert!(listed, "{workload} reported uncatalogued metric {name}");
                    assert!(value.is_finite(), "{workload}.{name} = {value}");
                }
                if !traced {
                    // Everything but peak_rss_mb (added per process by main).
                    for m in catalog::END_TO_END
                        .iter()
                        .filter(|m| m.name != "peak_rss_mb")
                    {
                        let v = out.metrics.iter().find(|(n, _)| *n == m.name);
                        assert!(
                            matches!(v, Some(&(_, v)) if v > 0.0),
                            "{workload}: {} missing or zero",
                            m.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_spoiled_reference_answer_raises_the_failure_count() {
        let p = Params {
            corrupt_reference: true,
            ..smoke(false)
        };
        let out = run_workload("serve_steady", &p).expect("known workload");
        assert!(out.failed > 0, "wrong answers went uncounted");
        assert!(out.failed <= out.attempted);
        assert!(
            !out.problems.is_empty(),
            "a run with failures must be incorrect"
        );
    }

    #[test]
    fn benchmark_json_states_the_catalog() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| str_of(m, "name"))
                .collect()
        };
        assert_eq!(names("workloads"), catalog::WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), catalog::END_TO_END.len());
        for (j, m) in e2e.iter().zip(&catalog::END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), catalog::PER_LAYER.len());
        for (j, m) in layers.iter().zip(&catalog::PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }
    }

    #[test]
    fn the_result_line_is_one_line_of_json() {
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            (
                "metrics".into(),
                Json::Obj(vec![("a.b".into(), Json::Num(1.25))]),
            ),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
