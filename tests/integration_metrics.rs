//! Observability-layer guarantees: the metrics registry must describe the
//! same work regardless of execution target, round-trip losslessly through
//! its JSON export, and reset to a clean slate. These invariants are what
//! make the exact `BENCH_*.json` pins in CI possible — the pins hold the
//! registry's counters and kernel call/item/byte counts to the unit.

use grist_core::{GristModel, RunConfig};
use sunway_sim::{MetricsSnapshot, Substrate};

fn run_model(sub: Substrate) -> GristModel<f64> {
    let config = RunConfig::for_level(2, 10);
    let seconds = 16.0 * config.dt_dyn; // 16 dyn steps, ≥1 physics step
    let mut m = GristModel::<f64>::with_substrate(config, sub);
    m.advance(seconds);
    m
}

/// The logical work — which kernels ran, how often, over how many items —
/// is a property of the model, not of the execution target. Only wall
/// times and the offload counters (DMA, dispatches) may differ between
/// Serial and CpeTeams.
#[test]
fn kernel_calls_and_items_match_across_substrates() {
    let serial = run_model(Substrate::serial()).metrics_snapshot();
    let teams = run_model(Substrate::cpe_teams(16)).metrics_snapshot();

    let s_names: Vec<&String> = serial.kernels.keys().collect();
    let t_names: Vec<&String> = teams.kernels.keys().collect();
    assert_eq!(
        s_names, t_names,
        "substrates dispatched different kernel sets"
    );
    for (name, s) in &serial.kernels {
        let t = &teams.kernels[name];
        assert_eq!(s.calls, t.calls, "{name}: call count differs");
        assert_eq!(s.items, t.items, "{name}: item count differs");
    }
    // Span structure is identical too (same step → suite nesting).
    assert_eq!(
        serial.spans.keys().collect::<Vec<_>>(),
        teams.spans.keys().collect::<Vec<_>>()
    );
    for (path, s) in &serial.spans {
        assert_eq!(s.calls, teams.spans[path].calls, "span {path}");
    }
}

/// `GristModel::metrics_json` is the export the bench pipeline consumes:
/// parsing it back must reproduce the snapshot exactly (u64 counters
/// survive the f64 JSON number representation at these magnitudes).
#[test]
fn metrics_json_round_trips_exactly() {
    let m = run_model(Substrate::cpe_teams(16));
    let snap = m.metrics_snapshot();
    assert!(!snap.kernels.is_empty() && !snap.counters.is_empty());

    let parsed = MetricsSnapshot::from_json(&m.metrics_json()).expect("export must parse");
    assert_eq!(parsed, snap);

    // The offload counters the hardware model feeds are present by name.
    for key in ["substrate.dispatches", "substrate.items"] {
        assert!(
            snap.counters.contains_key(key),
            "missing counter {key}: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
}

/// Reset must empty every section — kernels, spans, and counters — so a
/// baseline captured after a warm-up window starts from zero, and the
/// registry must keep working afterwards.
#[test]
fn reset_clears_all_sections_and_registry_still_records() {
    let mut m = run_model(Substrate::cpe_teams(16));
    assert!(!m.metrics_snapshot().kernels.is_empty());

    m.metrics().reset();
    let cleared = m.metrics_snapshot();
    assert!(cleared.kernels.is_empty(), "kernels survived reset");
    assert!(cleared.spans.is_empty(), "spans survived reset");
    assert!(cleared.counters.is_empty(), "counters survived reset");

    m.advance(2.0 * 400.0);
    let again = m.metrics_snapshot();
    assert!(
        !again.kernels.is_empty(),
        "registry stopped recording after reset"
    );
}
