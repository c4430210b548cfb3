//! Conformance tests for the scenario regression matrix.
//!
//! Replays every committed `scenarios/*.json` pin through the
//! [`ScenarioRunner`] and fails on any bitwise drift — the same check
//! `grist gate scenarios` runs in CI — plus the surrounding contracts:
//! strict round-tripping of the document format (bench pins included),
//! typed errors (naming the field) for malformed input, drift detection on
//! a perturbed golden hash, pinned golden hashes for the initial-condition
//! library under both substrate targets, and the shape of the committed
//! `BENCH_*.json` pins (the same `{schema, config, golden}` document, no
//! wall-time leaf).

use grist_core::checkpoint::hash_f64_bits;
use grist_core::{
    add_baroclinic_jet, add_supercell_patch, add_tropical_cyclone, parse_pin_file,
    parse_scenario_file, pin_file_json, CaseSpec, GristModel, RunConfig, ScenarioArtifact,
    ScenarioError, ScenarioRunner, TropicalCyclone, SCENARIO_SCHEMA,
};
use grist_dycore::swe::SweSolver;
use grist_dycore::swe_cases::{install_tc5_mountain, williamson_tc5, williamson_tc6};
use grist_mesh::HexMesh;
use std::fs;
use std::path::PathBuf;
use sunway_sim::{Json, Substrate};

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn committed_scenarios() -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = fs::read_dir(scenario_dir())
        .expect("scenarios/ directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 6,
        "the committed matrix must hold at least 6 scenarios, found {}",
        files.len()
    );
    files
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable scenario");
            (p, text)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The matrix itself
// ---------------------------------------------------------------------------

#[test]
fn committed_matrix_replays_bitwise() {
    let runner = ScenarioRunner::new();
    let mut names = Vec::new();
    for (path, text) in committed_scenarios() {
        let (config, golden) =
            parse_scenario_file(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let golden = golden.unwrap_or_else(|| {
            panic!(
                "{}: committed scenarios must carry a golden pin",
                path.display()
            )
        });
        let run = runner
            .run(&config)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let drift = golden.diff(&run.artifact);
        assert!(
            drift.is_empty(),
            "{}: drift from golden pin:\n  {}",
            path.display(),
            drift.join("\n  ")
        );
        names.push(config.name);
    }
    // The matrix must keep its required coverage: a regional-refinement
    // scenario and an ML-vs-conventional ablation pair.
    assert!(names.iter().any(|n| n == "regional_refine"));
    assert!(names.iter().any(|n| n == "ablation_conventional"));
    assert!(names.iter().any(|n| n == "ablation_ml"));
}

#[test]
fn no_committed_scenario_empties_a_cell_in_one_tracer_step() {
    // The tracer step is dyn_per_trac dynamics steps long; the pins record
    // that none of the coupled runs took more out of a cell than it held.
    let mut coupled = 0;
    for (path, text) in committed_scenarios() {
        let (config, golden) = parse_scenario_file(&text).unwrap();
        let golden = golden.expect("committed scenarios carry a golden pin");
        let violations = golden
            .counters
            .iter()
            .find(|(name, _)| name == "tracer.cfl_violations");
        if matches!(
            config.case,
            CaseSpec::WilliamsonTc5 { .. } | CaseSpec::WilliamsonTc6 { .. }
        ) {
            continue; // shallow water: no tracers
        }
        coupled += 1;
        assert_eq!(
            violations.map(|(_, n)| *n),
            Some(0),
            "{}: flux CFL violated",
            path.display()
        );
    }
    assert!(coupled >= 9, "only {coupled} coupled scenarios checked");
}

#[test]
fn ablation_pair_differs_only_in_physics_and_diverges() {
    let read = |name: &str| {
        let text = fs::read_to_string(scenario_dir().join(format!("{name}.json"))).unwrap();
        parse_scenario_file(&text).unwrap()
    };
    let (conv, conv_gold) = read("ablation_conventional");
    let (ml, ml_gold) = read("ablation_ml");
    // Same experiment, one axis moved: everything but name and physics
    // matches, so any hash difference is attributable to the suite swap.
    assert_eq!(conv.case, ml.case);
    assert_eq!(conv.level, ml.level);
    assert_eq!(conv.nlev, ml.nlev);
    assert_eq!(conv.phy_steps, ml.phy_steps);
    assert_eq!(conv.precision, ml.precision);
    assert_ne!(conv.physics, ml.physics);
    let h = |g: &grist_core::ScenarioArtifact| g.hashes[0].1.clone();
    assert_ne!(
        h(&conv_gold.unwrap()),
        h(&ml_gold.unwrap()),
        "ML and conventional physics pinned identical states — the ablation measures nothing"
    );
}

fn bench_pin_path(suite: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{suite}.json"))
}

const BENCH_SUITES: [&str; 5] = ["smoke", "ml", "partition", "serve", "scaling"];

/// Every committed pin — scenario or bench — reads through the one reader
/// and writes back byte for byte through the one writer.
#[test]
fn committed_files_are_serialization_fixed_points() {
    for (path, text) in committed_scenarios() {
        let (config, golden) = parse_scenario_file(&text).unwrap();
        let round = pin_file_json(&config.to_json(), golden.as_ref());
        assert_eq!(
            round,
            text,
            "{}: not a fixed point of pin_file_json (regenerate with grist gate --update)",
            path.display()
        );
        let (config2, golden2) = parse_scenario_file(&round).unwrap();
        assert_eq!(config2, config);
        assert_eq!(golden2, golden);
    }
    for suite in BENCH_SUITES {
        let text = fs::read_to_string(bench_pin_path(suite)).expect("committed bench pin");
        let (config, golden) = parse_pin_file(&text).unwrap_or_else(|e| panic!("{suite}: {e}"));
        assert!(golden.is_some(), "{suite}: no golden block");
        assert_eq!(
            pin_file_json(&config, golden.as_ref()),
            text,
            "BENCH_{suite}.json: not a fixed point of pin_file_json (regenerate with grist gate {suite} --update)"
        );
    }
}

/// The five bench pins share the scenario document's shape and carry
/// nothing a clock produced: wall time is recorded by `grist gate --out`
/// and judged by `benchmark/run.sh`, never diffed from a committed file.
#[test]
fn committed_bench_pins_are_exact_goldens_without_wall_leaves() {
    for suite in BENCH_SUITES {
        let text = fs::read_to_string(bench_pin_path(suite)).expect("committed bench pin");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["schema", "config", "golden"], "{suite}");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SCENARIO_SCHEMA)
        );
        let golden = ScenarioArtifact::from_json(doc.get("golden").unwrap(), "golden")
            .unwrap_or_else(|e| panic!("{suite}: {e}"));
        assert_eq!(golden.name, suite);
        assert!(
            !golden.diagnostics.is_empty(),
            "{suite}: pins no projection"
        );
        let pinned = golden.diagnostics.iter().map(|(k, _)| k);
        for key in pinned.chain(golden.counters.iter().map(|(k, _)| k)) {
            assert!(
                !key.starts_with("serve.latency.")
                    && !key.starts_with("serve.qps.")
                    && !key.ends_with("nanos"),
                "{suite}: wall-derived leaf {key} is pinned"
            );
        }
        for section in ["nanos", "report", "gauges", "trace", "overlap"] {
            assert!(
                !text.contains(&format!("\"{section}\"")),
                "{suite}: carries a {section:?} section"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Error paths: malformed pins fail loudly with the field named
// ---------------------------------------------------------------------------

#[test]
fn unknown_field_in_committed_pin_names_the_field() {
    let text = fs::read_to_string(scenario_dir().join("aqua_baseline.json")).unwrap();
    let bad = text.replace("\"precision\"", "\"precison\"");
    match parse_scenario_file(&bad) {
        Err(ScenarioError::UnknownField { field, .. }) => assert_eq!(field, "config.precison"),
        other => panic!("expected UnknownField naming config.precison, got {other:?}"),
    }
    match parse_scenario_file(&text.replace("\"schema\"", "\"schemas\"")) {
        Err(ScenarioError::UnknownField { field, .. }) => assert_eq!(field, "document.schemas"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn malformed_documents_are_typed_errors_not_panics() {
    // Truncated JSON.
    let text = fs::read_to_string(scenario_dir().join("held_suarez.json")).unwrap();
    let truncated = &text[..text.len() / 2];
    assert!(matches!(
        parse_scenario_file(truncated),
        Err(ScenarioError::Parse(_))
    ));
    // Wrong schema tag.
    let wrong = text.replace("grist-scenario-v1", "grist-scenario-v0");
    match parse_scenario_file(&wrong) {
        Err(ScenarioError::BadValue { field, .. }) => assert_eq!(field, "document.schema"),
        other => panic!("{other:?}"),
    }
    // A string where a number belongs.
    let bad_level = text.replace("\"level\": 2", "\"level\": \"two\"");
    match parse_scenario_file(&bad_level) {
        Err(ScenarioError::BadValue { field, .. }) => assert_eq!(field, "config.level"),
        other => panic!("{other:?}"),
    }
    // A golden hash that is not 16 hex digits.
    let short_hash = regex_free_replace_first_hash(&text);
    match parse_scenario_file(&short_hash) {
        Err(ScenarioError::BadValue { field, .. }) => {
            assert!(field.starts_with("golden.hashes."), "{field}")
        }
        other => panic!("{other:?}"),
    }
}

/// Replace the first pinned 16-hex hash value with a too-short string.
fn regex_free_replace_first_hash(text: &str) -> String {
    let key = "\"state\": \"";
    let start = text.find(key).expect("a state hash") + key.len();
    let end = start + 16;
    format!("{}beef{}", &text[..start], &text[end..])
}

#[test]
fn perturbed_golden_hash_is_detected_as_drift() {
    // The deliberate-sabotage check: flip one hex digit of a committed pin
    // and the replay must FAIL. This is what makes the gate a gate.
    let text = fs::read_to_string(scenario_dir().join("aqua_baseline.json")).unwrap();
    let (config, golden) = parse_scenario_file(&text).unwrap();
    let mut golden = golden.unwrap();
    let original = golden.hashes[0].1.clone();
    let flipped = if original.as_bytes()[0] == b'0' {
        "1"
    } else {
        "0"
    };
    golden.hashes[0].1 = format!("{flipped}{}", &original[1..]);
    let run = ScenarioRunner::new().run(&config).unwrap();
    let drift = golden.diff(&run.artifact);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].contains("hash state"), "{}", drift[0]);
}

// ---------------------------------------------------------------------------
// Golden hashes for the initial-condition library (satellite pins)
// ---------------------------------------------------------------------------

/// Pinned FNV-1a fingerprints of the seeded initial states. These change
/// ONLY when the case construction itself changes — and then the change
/// must be deliberate, reviewed, and re-pinned.
const TC5_INIT_HASH: &str = "4a5851c9dd675b9c";
const TC6_INIT_HASH: &str = "b74c8c06b006a459";
const TROPICAL_CYCLONE_HASH: &str = "9d89c7634bfa922a";
const BAROCLINIC_JET_HASH: &str = "74f5818afdb19526";
const SUPERCELL_HASH: &str = "056acbf53049f9a1";

fn substrates() -> [(&'static str, Substrate); 2] {
    [
        ("serial", Substrate::serial()),
        ("cpe_teams", Substrate::cpe_teams(8)),
    ]
}

#[test]
fn swe_initial_states_match_pins_on_every_substrate() {
    for (name, sub) in substrates() {
        let mesh = HexMesh::build(3);
        let mut solver = SweSolver::<f64>::with_substrate(mesh.clone(), sub.clone());
        let mut tc5 = williamson_tc5::<f64>(&mesh);
        install_tc5_mountain(&mut solver, &mut tc5);
        assert_eq!(
            format!(
                "{:016x}",
                hash_f64_bits(&[tc5.h.as_slice(), tc5.u.as_slice()])
            ),
            TC5_INIT_HASH,
            "williamson_tc5 initial state drifted ({name})"
        );
        let tc6 = williamson_tc6::<f64>(&mesh);
        assert_eq!(
            format!(
                "{:016x}",
                hash_f64_bits(&[tc6.h.as_slice(), tc6.u.as_slice()])
            ),
            TC6_INIT_HASH,
            "williamson_tc6 initial state drifted ({name})"
        );
    }
}

#[test]
fn coupled_case_library_matches_pins_on_every_substrate() {
    for (name, sub) in substrates() {
        let cfg = RunConfig::for_level(2, 6);
        let mut m = GristModel::<f64>::with_substrate(cfg.clone(), sub.clone());
        add_tropical_cyclone(&mut m, &TropicalCyclone::default());
        assert_eq!(
            format!("{:016x}", m.state_hash()),
            TROPICAL_CYCLONE_HASH,
            "add_tropical_cyclone drifted ({name})"
        );
        let mut m = GristModel::<f64>::with_substrate(cfg.clone(), sub.clone());
        add_baroclinic_jet(&mut m, 35.0, 1.0);
        assert_eq!(
            format!("{:016x}", m.state_hash()),
            BAROCLINIC_JET_HASH,
            "add_baroclinic_jet drifted ({name})"
        );
        let mut m = GristModel::<f64>::with_substrate(cfg.clone(), sub.clone());
        add_supercell_patch(&mut m, 35f64.to_radians(), (-97f64).to_radians());
        assert_eq!(
            format!("{:016x}", m.state_hash()),
            SUPERCELL_HASH,
            "add_supercell_patch drifted ({name})"
        );
    }
}
