//! The `BENCH_*.json` family as exact golden pins — what `grist gate` runs,
//! writes and compares.
//!
//! A suite run yields two things and keeps them apart:
//!
//! * **a pin** — a [`ScenarioArtifact`], the same type the scenario matrix
//!   pins: the suite's deterministic projections as `diagnostics` (compared
//!   by bit pattern), and as `counters` the registry's counters plus every
//!   kernel's `calls` / `items` / `bytes` and every span's `calls`,
//!   flattened to `kernel.<path>.<field>` / `span.<path>.calls`. It is
//!   committed as `{schema, config, golden}`
//!   ([`grist_core::pin_file_json`]) and checked by
//!   [`ScenarioArtifact::diff`] — zero tolerance, one comparator.
//! * **a wall report** — everything a clock produced (kernel and span
//!   nanoseconds, rates, latency percentiles, the tracing-overhead and
//!   halo-wait measurements). It is written next to the pin for the CI
//!   artifact and compared with nothing: host speed is judged by
//!   `benchmark/run.sh`, on one machine, with quartile estimators.
//!
//! What a suite holds *inside one process* — a ratio of two timings taken
//! seconds apart on the same host — stays with the suite and fails its run:
//! see [`crate::ml::run`], [`crate::serve::run`], [`crate::smoke::run`] and
//! [`crate::scaling::run`].

use grist_core::{parse_pin_file, ScenarioArtifact};
use sunway_sim::{Json, MetricsSnapshot};

/// One suite's outcome: `Err` when an in-run gate failed.
pub type SuiteResult = Result<SuiteRun, String>;

/// A suite by the name `grist gate` takes; `BENCH_<name>.json` is its pin.
pub type Suite = (&'static str, fn() -> SuiteResult);

/// The five suites.
pub const SUITES: [Suite; 5] = [
    ("smoke", crate::smoke::run),
    ("ml", crate::ml::run),
    ("partition", crate::partition::run),
    ("serve", crate::serve::run),
    ("scaling", crate::scaling::run),
];

/// What one suite run — or one scenario's two runs, in `grist gate` —
/// produced.
#[derive(Debug)]
pub struct SuiteRun {
    /// The run's pinned knobs; the committed `config` must equal it.
    pub config: Json,
    pub pin: ScenarioArtifact,
    /// Wall-derived numbers (a scenario's metrics snapshot): recorded,
    /// never compared.
    pub wall: Json,
}

impl SuiteRun {
    /// Split `snap` into its pinned half (counts) and its wall half
    /// (nanoseconds, appended to `wall` as the `nanos` section).
    pub fn new(
        name: &str,
        config: Json,
        projections: Vec<(String, f64)>,
        snap: &MetricsSnapshot,
        mut wall: Vec<(String, Json)>,
    ) -> Self {
        let mut counters: Vec<(String, u64)> =
            snap.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let mut nanos = Vec::new();
        for (path, k) in &snap.kernels {
            for (field, v) in [("calls", k.calls), ("items", k.items), ("bytes", k.bytes)] {
                counters.push((format!("kernel.{path}.{field}"), v));
            }
            nanos.push((format!("kernel.{path}"), Json::Num(k.nanos as f64)));
        }
        for (path, s) in &snap.spans {
            counters.push((format!("span.{path}.calls"), s.calls));
            nanos.push((format!("span.{path}"), Json::Num(s.nanos as f64)));
        }
        wall.push(("nanos".into(), Json::Obj(nanos)));
        SuiteRun {
            config,
            pin: ScenarioArtifact {
                name: name.into(),
                hashes: Vec::new(),
                diagnostics: projections,
                counters,
            },
            wall: Json::Obj(wall),
        }
    }

    /// Every way this run differs from the committed document `text`:
    /// [`ScenarioArtifact::diff`] against its `golden`, after one line if
    /// its `config` is not what the run used. `Err` when `text` is not a
    /// strict pin document ([`parse_pin_file`]) or has no `golden`.
    pub fn drift_from(&self, text: &str) -> Result<Vec<String>, String> {
        let (config, golden) = parse_pin_file(text).map_err(|e| e.to_string())?;
        let golden = golden.ok_or("no golden block committed — pin it with --update")?;
        let mut drift = Vec::new();
        if config != self.config {
            drift.push(format!(
                "config: pinned {}, suite ran {} — re-pin with --update",
                one_line(&config),
                one_line(&self.config)
            ));
        }
        drift.extend(golden.diff(&self.pin));
        Ok(drift)
    }
}

/// `j` without the line breaks of [`Json::pretty`] (for a drift line).
fn one_line(j: &Json) -> String {
    j.pretty().split_whitespace().collect()
}

/// The value pinned under `key` in one section of a pin.
#[cfg(test)]
pub(crate) fn leaf<T: Copy>(section: &[(String, T)], key: &str) -> T {
    let found = section.iter().find(|(k, _)| k == key);
    found.unwrap_or_else(|| panic!("{key} is not pinned")).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_core::{pin_file_json, SCENARIO_SCHEMA};
    use sunway_sim::{KernelStats, SpanStats};

    /// The committed document of `run`.
    fn doc(run: &SuiteRun) -> String {
        pin_file_json(&run.config, Some(&run.pin))
    }

    fn sample() -> SuiteRun {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("halo.messages".into(), 10);
        snap.kernels.insert(
            "step/dycore/hevi_diagnose".into(),
            KernelStats {
                calls: 16,
                nanos: 4_603_913,
                items: 2592,
                bytes: 0,
            },
        );
        snap.spans.insert(
            "step".into(),
            SpanStats {
                calls: 17,
                nanos: 35_310_366,
            },
        );
        SuiteRun::new(
            "sample",
            Json::Obj(vec![("level".into(), Json::Num(2.0))]),
            vec![("sdpd.weak.G6.p128".into(), 485.577_636_806_561_77)],
            &snap,
            vec![("report".into(), Json::Obj(vec![]))],
        )
    }

    #[test]
    fn the_snapshot_splits_into_pinned_counts_and_unpinned_nanos() {
        let run = sample();
        assert_eq!(
            run.pin.counters,
            [
                ("halo.messages".to_string(), 10),
                ("kernel.step/dycore/hevi_diagnose.calls".to_string(), 16),
                ("kernel.step/dycore/hevi_diagnose.items".to_string(), 2592),
                ("kernel.step/dycore/hevi_diagnose.bytes".to_string(), 0),
                ("span.step.calls".to_string(), 17),
            ]
        );
        let nanos = run.wall.get("nanos").unwrap();
        assert_eq!(
            nanos
                .get("kernel.step/dycore/hevi_diagnose")
                .and_then(Json::as_u64),
            Some(4_603_913)
        );
        assert_eq!(
            nanos.get("span.step").and_then(Json::as_u64),
            Some(35_310_366)
        );
        // No clock reading reaches the committed document.
        let text = doc(&run);
        assert!(!text.contains("4603913") && !text.contains("35310366"));
        assert_eq!(run.drift_from(&text).unwrap(), [] as [&str; 0]);
    }

    #[test]
    fn every_perturbation_of_a_pin_is_exactly_one_line_naming_the_leaf() {
        let run = sample();
        let drift = |edit: &dyn Fn(&mut SuiteRun)| {
            let mut pinned = sample();
            edit(&mut pinned);
            run.drift_from(&doc(&pinned)).unwrap()
        };
        let ulp_up = f64::from_bits(run.pin.diagnostics[0].1.to_bits() + 1);
        assert_eq!(
            drift(&|p| p.pin.diagnostics[0].1 = ulp_up),
            [
                "diagnostic sdpd.weak.G6.p128: pinned 485.5776368065618 (407e593e00179262), \
              got 485.57763680656177 (407e593e00179261)"
            ]
        );
        assert_eq!(
            drift(&|p| p.pin.counters[1].1 += 1),
            ["counter kernel.step/dycore/hevi_diagnose.calls: pinned 17, got 16"]
        );
        assert_eq!(
            drift(&|p| p.pin.counters[0].1 -= 1),
            ["counter halo.messages: pinned 9, got 10"]
        );
        assert_eq!(
            drift(&|p| drop(p.pin.counters.remove(4))),
            ["counter span.step.calls: not in pin (got 17) — re-pin with --update"]
        );
        assert_eq!(
            drift(&|p| p.pin.counters.push(("dma.bytes".into(), 64))),
            ["counter dma.bytes: pinned 64, missing"]
        );
        assert_eq!(
            drift(&|p| p.config = Json::Obj(vec![("level".into(), Json::Num(3.0))])),
            ["config: pinned {\"level\":3}, suite ran {\"level\":2} — re-pin with --update"]
        );
    }

    #[test]
    fn a_document_with_a_wall_section_or_another_schema_is_refused() {
        let run = sample();
        let with_report = doc(&run).replacen("\"golden\"", "\"report\": {},\n  \"golden\"", 1);
        assert!(run.drift_from(&with_report).unwrap_err().contains("report"));
        let other = doc(&run).replace(SCENARIO_SCHEMA, "some-v0");
        assert!(run.drift_from(&other).unwrap_err().contains("schema"));
        let unknown = doc(&run).replacen("\"counters\"", "\"gauges\": {},\n    \"counters\"", 1);
        assert!(run.drift_from(&unknown).unwrap_err().contains("gauges"));
    }
}
