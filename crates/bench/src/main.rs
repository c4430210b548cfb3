//! `grist` — one binary for every experiment of the paper's evaluation, the
//! pinned gates and the telemetry reports:
//!
//! ```text
//! grist gate [scenarios|smoke|ml|partition|serve|scaling]... [--update] [--out DIR]
//! grist trace [--out DIR]
//! grist obs [--out DIR]
//! grist report <name>...
//! ```
//!
//! One parser reads every switch; `--out` defaults to `target/grist`. One
//! exit rule: 0 = every check held, 1 = a check failed (its `FAIL` line is
//! printed), 2 = bad usage or an unwritable path.
//!
//! * `gate` holds each entry to its committed `{schema, config, golden}` pin
//!   with zero tolerance (all entries when none is named). `scenarios` is
//!   every `scenarios/*.json`, each run twice and required to be bitwise
//!   stable before any golden comparison; a suite name is its
//!   `BENCH_<name>.json`, run once with its in-run gates first
//!   (`grist_bench::pin`). Each entry writes `<name>.pin.json` (the run's
//!   pin) and `<name>.run.json` (a suite's wall report, a scenario's metrics
//!   snapshot; compared with nothing — host speed is `benchmark/run.sh`) to
//!   `--out`, then diffs the pin — one line per leaf that moved, vanished or
//!   is not pinned yet — or, under `--update`, rewrites the committed pin
//!   (for a change that moves a leaf on purpose; review the diff).
//! * `trace` runs a traced 4-rank chaos window, validates the exported
//!   Chrome/Perfetto trace (balanced `B`/`E`, monotone lanes, ≥ 4 rank lanes,
//!   halo-wait and fault events) and writes it as `trace.json` beside its
//!   measured critical-path attribution (achieved GFLOP/s from the exact
//!   `ml.flops_*` totals, no modeled roof), `trace_report.json`; the report
//!   is also printed as text.
//! * `obs` runs the serving-telemetry scenario (`grist_bench::obs`), writes
//!   `obs_metrics.json` and `obs_report.md`, reads the document back and
//!   holds it to the end-of-run SLO, no member alert, and an equal re-parse.
//! * `report` regenerates tables and figures (`grist_bench::report`); they
//!   print their tables and write `results/*.csv`.

use grist_bench::obs::run_obs;
use grist_bench::pin::{SuiteResult, SuiteRun, SUITES};
use grist_bench::report::REPORTS;
use grist_core::{
    parse_scenario_file, pin_file_json, GristModel, MlSuite, RunConfig, ScenarioRunner,
};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{halo_fault_key, run_world, ExchangeCtx, VarList};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sunway_sim::{
    analyze, dispatch_fault_key, trace, validate_chrome, ChromeStats, EventKind, FaultPlan,
    FaultSite, Json, Metrics, Substrate, TraceReport, TraceSnapshot,
};

/// Exit code: a check failed.
const FAILED: u8 = 1;
/// Exit code: bad usage or an unwritable path.
const USAGE: u8 = 2;

const USAGE_TEXT: &str = "\
usage: grist gate [scenarios|smoke|ml|partition|serve|scaling]... [--update] [--out DIR]
       grist trace [--out DIR]
       grist obs [--out DIR]
       grist report <table2|fig7|fig8|fig9|fig10|fig11|flops_radiation|mixed_precision_gate|ablations>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmd {
    Gate,
    Trace,
    Obs,
    Report,
}

/// A parsed command line: every value the binary reads.
#[derive(Debug, PartialEq)]
struct Cli {
    cmd: Cmd,
    names: Vec<String>,
    out: PathBuf,
    update: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (cmd, rest) = args.split_first().ok_or("no subcommand")?;
    let (cmd, known): (Cmd, Vec<&str>) = match cmd.as_str() {
        "gate" => (Cmd::Gate, gate_names()),
        "trace" => (Cmd::Trace, Vec::new()),
        "obs" => (Cmd::Obs, Vec::new()),
        "report" => (Cmd::Report, REPORTS.iter().map(|r| r.0).collect()),
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    let mut cli = Cli {
        cmd,
        names: Vec::new(),
        out: PathBuf::from("target/grist"),
        update: false,
    };
    let mut argv = rest.iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            // Reports write `results/`, the committed directory.
            "--out" if cmd != Cmd::Report => {
                cli.out = argv.next().ok_or("--out needs a directory")?.into()
            }
            "--update" if cmd == Cmd::Gate => cli.update = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if known.contains(&name) => cli.names.push(name.into()),
            name => return Err(format!("unknown name {name:?}")),
        }
    }
    if cmd == Cmd::Report && cli.names.is_empty() {
        return Err("name a report".into());
    }
    Ok(cli)
}

fn run(args: &[String]) -> u8 {
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("grist: {e}\n{USAGE_TEXT}");
            return USAGE;
        }
    };
    let dir = match cli.cmd {
        Cmd::Report => Path::new("results"),
        _ => &cli.out,
    };
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("grist: cannot create {}: {e}", dir.display());
        return USAGE;
    }
    match cli.cmd {
        Cmd::Gate => match gate_entries(&cli.names) {
            Ok(entries) => gate(&entries, &cli.out, cli.update),
            Err(e) => {
                eprintln!("grist: {e}");
                USAGE
            }
        },
        Cmd::Trace => trace(&cli.out),
        Cmd::Obs => obs(&cli.out),
        Cmd::Report => {
            let mut failed = false;
            for name in &cli.names {
                for (_, report) in REPORTS.iter().filter(|r| r.0 == name.as_str()) {
                    if let Err(msg) = report() {
                        println!("FAIL {name}: {msg}");
                        failed = true;
                    }
                }
            }
            if failed {
                FAILED
            } else {
                0
            }
        }
    }
}

/// Write `text` to `path`; `Err` carries the exit code of an unwritable path.
fn write(path: &Path, text: &str) -> Result<(), u8> {
    fs::write(path, text).map_err(|e| {
        eprintln!("grist: cannot write {}: {e}", path.display());
        USAGE
    })
}

// ---------------------------------------------------------------------------
// gate
// ---------------------------------------------------------------------------

/// One `grist gate` entry: its name, the committed pin it is held to, and
/// how to run it.
struct Entry {
    name: String,
    pin: PathBuf,
    run: Box<dyn Fn() -> SuiteResult>,
}

/// The names `grist gate` takes: the scenario matrix, then the suites.
fn gate_names() -> Vec<&'static str> {
    std::iter::once("scenarios")
        .chain(SUITES.iter().map(|s| s.0))
        .collect()
}

/// The entries `names` select, in order; every entry when `names` is empty.
fn gate_entries(names: &[String]) -> Result<Vec<Entry>, String> {
    let names = match names {
        [] => gate_names(),
        names => names.iter().map(String::as_str).collect(),
    };
    let mut entries = Vec::new();
    for name in names {
        match SUITES.iter().find(|s| s.0 == name) {
            Some(&(suite, run)) => entries.push(Entry {
                name: suite.into(),
                pin: format!("BENCH_{suite}.json").into(),
                run: Box::new(run),
            }),
            None => entries.extend(scenario_entries()?),
        }
    }
    Ok(entries)
}

/// One entry per `scenarios/*.json`, sorted by file name.
fn scenario_entries() -> Result<Vec<Entry>, String> {
    let mut files: Vec<PathBuf> = fs::read_dir("scenarios")
        .map_err(|e| format!("cannot read scenarios/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("no *.json scenarios in scenarios/".into());
    }
    Ok(files
        .into_iter()
        .map(|pin| {
            let path = pin.clone();
            Entry {
                name: stem(&pin),
                pin,
                run: Box::new(move || run_scenario(&path)),
            }
        })
        .collect())
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .unwrap_or_default()
        .to_string_lossy()
        .into_owned()
}

/// Run the scenario pinned at `path` twice: `Err` unless both runs agree
/// bitwise — a scenario that is not two-run stable is a harness bug.
fn run_scenario(path: &Path) -> SuiteResult {
    let text = fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let (scenario, _) = parse_scenario_file(&text).map_err(|e| e.to_string())?;
    if scenario.name != stem(path) {
        return Err(format!(
            "config.name {:?} does not match the file name",
            scenario.name
        ));
    }
    let runner = ScenarioRunner::new();
    let first = runner.run(&scenario).map_err(|e| e.to_string())?;
    let second = runner.run(&scenario).map_err(|e| e.to_string())?;
    let instability = first.artifact.diff(&second.artifact);
    if !instability.is_empty() {
        return Err(format!("not two-run stable: {}", instability.join("; ")));
    }
    Ok(SuiteRun {
        config: scenario.to_json(),
        pin: first.artifact,
        wall: Json::parse(&first.metrics_json).map_err(|e| e.to_string())?,
    })
}

/// Run every entry, one PASS / FAIL line each — a failed entry does not
/// stop the rest.
fn gate(entries: &[Entry], out: &Path, update: bool) -> u8 {
    let mut failures = 0usize;
    for entry in entries {
        match gate_one(entry, out, update) {
            Ok(msg) => println!("PASS {}: {msg}", entry.pin.display()),
            Err(msg) => {
                failures += 1;
                println!("FAIL {}: {msg}", entry.pin.display());
            }
        }
    }
    println!(
        "grist gate: {} entries, {failures} failure(s){}",
        entries.len(),
        if update { " [pins updated]" } else { "" }
    );
    if failures > 0 {
        FAILED
    } else {
        0
    }
}

fn gate_one(entry: &Entry, out: &Path, update: bool) -> Result<String, String> {
    let run = (entry.run)()?;
    let fresh = pin_file_json(&run.config, Some(&run.pin));
    let written = |suffix: &str, text: &str| {
        let path = out.join(format!("{}.{suffix}", entry.name));
        fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    written("pin.json", &fresh)?;
    written("run.json", &run.wall.pretty())?;

    let p = &run.pin;
    let size = format!(
        "{} hash(es), {} diagnostic(s), {} counter(s)",
        p.hashes.len(),
        p.diagnostics.len(),
        p.counters.len()
    );
    if update {
        fs::write(&entry.pin, &fresh).map_err(|e| format!("cannot rewrite pin: {e}"))?;
        return Ok(format!("pinned {size}"));
    }
    let text = fs::read_to_string(&entry.pin)
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

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

const RANKS: usize = 4;
const LEVEL: u32 = 2;
const NLEV: usize = 8;
const CPES: usize = 8;
const HALO_MESH_LEVEL: u32 = 3;
const HALO_TAG: u32 = 7;
/// Seed of every fault plan in the traced window.
const SEED: u64 = 42;

fn trace(out: &Path) -> u8 {
    let (snap, report, stats) = match traced_chaos_window() {
        Ok(traced) => traced,
        Err(msg) => {
            println!("FAIL trace: {msg}");
            return FAILED;
        }
    };
    let trace_path = out.join("trace.json");
    for (path, text) in [
        (&trace_path, snap.to_chrome_string()),
        (&out.join("trace_report.json"), report.to_json().pretty()),
    ] {
        if let Err(code) = write(path, &text) {
            return code;
        }
        eprintln!(
            "grist trace: wrote {} ({} bytes)",
            path.display(),
            text.len()
        );
    }
    print!("{}", report.to_text());
    println!(
        "grist trace: {} events across {} lanes / {} ranks ({} B / {} E / {} i), {} dropped",
        stats.events,
        stats.lanes,
        stats.ranks,
        stats.begins,
        stats.ends,
        stats.instants,
        snap.dropped
    );
    println!(
        "grist trace: OK — open {} at https://ui.perfetto.dev",
        trace_path.display()
    );
    0
}

/// A short resilient coupled window on every rank of a 4-rank world — each
/// rank a CPE-teams substrate over one *shared* registry, so all lanes
/// share a clock origin — with ML physics, a seeded dispatch-fault storm
/// per rank (transient retries plus one pinned fault that forces
/// degrade-to-serial) and one gathered halo round with a pinned in-flight
/// truncation. `Err` when the trace misses any event that scenario must
/// leave.
fn traced_chaos_window() -> Result<(TraceSnapshot, TraceReport, ChromeStats), String> {
    let metrics = Metrics::default();
    metrics.tracer().enable();

    let mesh = HexMesh::build(HALO_MESH_LEVEL);
    let partition = Partition::build(&mesh, RANKS, 2);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let n = mesh.n_cells();
    // Pin the in-flight truncation onto a (receiver, sender) pair that
    // actually exchanges, like the chaos suite does.
    let victim = layout
        .locales
        .iter()
        .find(|l| !l.recv.is_empty())
        .ok_or("no rank has halos")?;
    let (vrank, vsrc) = (victim.rank, victim.recv[0].0);
    let halo_plan = FaultPlan::new(SEED).pin(
        FaultSite::HaloExchange,
        halo_fault_key(vrank, vsrc, HALO_TAG),
    );

    let (ranks, _) = run_world(RANKS, |mut ctx| -> Result<(), String> {
        trace::set_thread_rank(ctx.rank as u32);

        // Resilient coupled window under a per-rank dispatch-fault storm.
        let sub = Substrate::cpe_teams_with_metrics(CPES, metrics.clone());
        sub.arm_faults(
            FaultPlan::new(SEED.wrapping_add(ctx.rank as u64))
                .with_rate(FaultSite::Dispatch, 0.02)
                .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_mass_flux", 0)),
        );
        let cfg = RunConfig::for_level(LEVEL, NLEV).with_ml_physics(true);
        let window = cfg.dt_dyn * cfg.dyn_per_phy() as f64;
        let mut model = GristModel::<f64>::with_substrate(cfg, sub);
        model.advance_resilient(window);

        // One gathered halo round; the pinned truncation surfaces as a
        // typed error on the victim rank and a fault event in the trace.
        let locale = &layout.locales[ctx.rank];
        let mut h = vec![0.0f64; n * NLEV];
        let mut list = VarList::new();
        list.push("h", NLEV, &mut h);
        let xctx = ExchangeCtx {
            metrics: Some(&metrics),
            plan: Some(&halo_plan),
        };
        match (
            xctx.exchange(&mut ctx, locale, &mut list, HALO_TAG),
            ctx.rank == vrank,
        ) {
            (Ok(_), true) => {
                Err("pinned halo truncation did not surface on the victim rank".into())
            }
            (Err(e), false) => Err(format!("rank {} failed a clean exchange: {e}", ctx.rank)),
            _ => Ok(()),
        }
    });
    metrics.tracer().disable();
    ranks.into_iter().collect::<Result<Vec<()>, String>>()?;

    let snap = metrics.tracer().snapshot();
    let stats = validate_chrome(&snap.to_chrome_json())
        .map_err(|e| format!("exported trace fails schema validation: {e}"))?;
    if stats.ranks < RANKS {
        return Err(format!(
            "only {} rank lanes traced, need {RANKS}",
            stats.ranks
        ));
    }
    if snap.count_kind(EventKind::HaloWait) == 0 {
        return Err("no halo-wait events traced".into());
    }
    if snap.count_kind(EventKind::Fault) == 0 {
        return Err("no fault-injection events traced".into());
    }

    let report = analyze(&snap, &MlSuite::flops_by_kernel(&metrics));
    Ok((snap, report, stats))
}

// ---------------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------------

fn obs(out: &Path) -> u8 {
    let b = run_obs();
    let doc = out.join("obs_metrics.json");
    for (path, text) in [
        (&doc, b.document.clone()),
        (&out.join("obs_report.md"), b.to_markdown()),
    ] {
        if let Err(code) = write(path, &text) {
            return code;
        }
    }
    let written = match fs::read_to_string(&doc) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("grist: cannot read back {}: {e}", doc.display());
            return USAGE;
        }
    };
    let lat = b.latency();
    println!(
        "grist obs: {} queries, p50 {:.3} ms, p99 {:.3} ms, {:.1} qps",
        lat.count,
        lat.percentile_ms(0.50),
        lat.percentile_ms(0.99),
        b.slo.qps,
    );
    let failed = b.failures(&written);
    for f in &failed {
        println!("FAIL obs: {f}");
    }
    if !failed.is_empty() {
        return FAILED;
    }
    println!("grist obs: OK");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_core::ScenarioArtifact;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn one_parser_reads_every_switch() {
        assert_eq!(
            parse(&args("gate smoke scenarios --update --out /tmp/g")),
            Ok(Cli {
                cmd: Cmd::Gate,
                names: vec!["smoke".into(), "scenarios".into()],
                out: "/tmp/g".into(),
                update: true,
            })
        );
        let trace = parse(&args("trace")).unwrap();
        assert_eq!(trace.out, Path::new("target/grist"));
        assert!(trace.names.is_empty() && !trace.update);
        assert_eq!(parse(&args("report fig10 fig11")).unwrap().names.len(), 2);
    }

    #[test]
    fn bad_usage_exits_2_before_running_anything() {
        for line in [
            "",
            "bench_gate",
            "gate --dir scenarios",
            "gate --out",
            "gate smok",
            "trace --json",
            "obs metrics.json",
            "report",
            "report fig12",
            "report fig10 --update",
            "report fig10 --out results",
        ] {
            assert_eq!(run(&args(line)), USAGE, "{line:?}");
        }
    }

    /// A suite-shaped run whose pin is one counter.
    fn fixture() -> SuiteResult {
        Ok(SuiteRun {
            config: Json::Obj(vec![("level".into(), Json::Num(2.0))]),
            pin: ScenarioArtifact {
                name: "fixture".into(),
                hashes: Vec::new(),
                diagnostics: Vec::new(),
                counters: vec![("halo.messages".into(), 10)],
            },
            wall: Json::Obj(Vec::new()),
        })
    }

    #[test]
    fn a_failed_entry_exits_1_and_the_rest_still_run() {
        let dir = std::env::temp_dir().join(format!("grist-gate-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let entry = |name: &str, run: fn() -> SuiteResult| Entry {
            name: name.into(),
            pin: dir.join(format!("BENCH_{name}.json")),
            run: Box::new(run),
        };
        let good = || entry("good", fixture);
        let broken = entry("broken", || Err("in-run gate: 1.2x, need 3x".into()));

        assert_eq!(gate(&[good()], &dir, true), 0);
        assert_eq!(gate(&[good()], &dir, false), 0);
        fs::remove_file(dir.join("good.run.json")).unwrap();
        assert_eq!(gate(&[broken, good()], &dir, false), FAILED);
        assert!(
            dir.join("good.run.json").exists(),
            "the entry after a failure ran"
        );

        // A pin that moved is a failure too.
        let moved = fs::read_to_string(dir.join("BENCH_good.json"))
            .unwrap()
            .replace("\"halo.messages\": 10", "\"halo.messages\": 11");
        fs::write(dir.join("BENCH_good.json"), moved).unwrap();
        assert_eq!(gate(&[good()], &dir, false), FAILED);
        fs::remove_dir_all(&dir).unwrap();
    }
}
