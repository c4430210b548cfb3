//! The serving-telemetry scenario behind `grist obs`: an ensemble advancing
//! on rank pools — every member sampled into its own health watch after
//! each epoch — while threaded clients hammer a [`ForecastServer`] reading
//! its views. The server records `serve.{latency_ns,queue_ns,batch_size}`
//! into its engine's registry; at the end the scenario is held to three
//! gates ([`ObsBench::failures`]):
//!
//! * **SLO** — [`SloPolicy::evaluate`], once, on the registry's latency
//!   histogram, the traffic window and the ensemble's alert count;
//! * **health** — no ensemble member raised an alert;
//! * **document** — the registry document `grist obs` wrote re-parses to an
//!   equal [`MetricsSnapshot`]. Every percentile a report prints is a pure
//!   function of those bucket counts, so equality is reproducibility.

use std::sync::Arc;
use std::time::Instant;

use grist_core::RunConfig;
use grist_obs::{Alert, SloPolicy, SloStatus};
use grist_serve::{
    default_suite, spawn_ensemble, EnsembleConfig, ForecastServer, PoolTarget, Product, Query,
    QueryEngine, ServeConfig, SnapshotStore,
};
use sunway_sim::{Histogram, MetricsSnapshot, Substrate};

/// One scenario run's knobs (`run_obs` pins them; tests shrink them).
#[derive(Debug, Clone, Copy)]
pub struct ObsBenchConfig {
    pub level: u32,
    pub nlev: usize,
    pub members: usize,
    pub rank_pools: usize,
    pub epochs: usize,
    pub dyn_steps_per_epoch: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub clients: usize,
    pub client_queries: usize,
    pub perturb_scale: f64,
}

impl Default for ObsBenchConfig {
    fn default() -> Self {
        ObsBenchConfig {
            level: 2,
            nlev: 10,
            members: 3,
            rank_pools: 2,
            epochs: 2,
            dyn_steps_per_epoch: 2,
            workers: 4,
            max_batch: 16,
            clients: 4,
            client_queries: 50,
            perturb_scale: 1e-5,
        }
    }
}

/// What the scenario produced.
pub struct ObsBench {
    /// The serving engine's registry at the end of the traffic.
    pub snapshot: MetricsSnapshot,
    /// `snapshot` as the JSON document `grist obs` writes.
    pub document: String,
    /// Health alerts, each with the member that raised it.
    pub alerts: Vec<(usize, Alert)>,
    /// The end-of-run SLO verdict.
    pub slo: SloStatus,
}

impl ObsBench {
    /// The serve-latency histogram the SLO read.
    pub fn latency(&self) -> &Histogram {
        &self.snapshot.histograms["serve.latency_ns"]
    }

    /// Every failed gate, one line each; `written` is the document as read
    /// back from where it was written.
    pub fn failures(&self, written: &str) -> Vec<String> {
        let mut failed = Vec::new();
        if !self.slo.ok() {
            let terms: Vec<&str> = self.slo.violated.iter().map(|t| t.name()).collect();
            failed.push(format!("SLO breached: {}", terms.join(", ")));
        }
        for (member, a) in &self.alerts {
            failed.push(format!(
                "member {member}: {} alert at epoch {}: {:.6e} (threshold {:.6e})",
                a.kind.name(),
                a.epoch,
                a.value,
                a.threshold
            ));
        }
        match MetricsSnapshot::from_json(written) {
            Ok(back) if back == self.snapshot => {}
            Ok(_) => failed.push("the written document re-parses to a different snapshot".into()),
            Err(e) => failed.push(format!("the written document does not parse: {e}")),
        }
        failed
    }

    /// Human summary, Markdown: one row per histogram, the alerts, the SLO.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Serving telemetry\n\n");
        out.push_str("| histogram | count | p50 | p90 | p99 | max |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for (name, h) in &self.snapshot.histograms {
            let fmt = |v: u64| {
                if name.ends_with("_ns") {
                    format!("{:.3} ms", v as f64 / 1e6)
                } else {
                    v.to_string()
                }
            };
            out.push_str(&format!(
                "| {name} | {} | {} | {} | {} | {} |\n",
                h.count,
                fmt(h.percentile(0.50)),
                fmt(h.percentile(0.90)),
                fmt(h.percentile(0.99)),
                fmt(h.max),
            ));
        }
        out.push_str(&format!("\n**Health**: {} alert(s)\n", self.alerts.len()));
        for (member, a) in &self.alerts {
            out.push_str(&format!(
                "- member {member}: `{}` at epoch {}: {:.6e}\n",
                a.kind.name(),
                a.epoch,
                a.value
            ));
        }
        let s = &self.slo;
        let verdict = if s.ok() {
            "OK".to_string()
        } else {
            let terms: Vec<&str> = s.violated.iter().map(|t| t.name()).collect();
            format!("BREACHED ({})", terms.join(", "))
        };
        out.push_str(&format!(
            "\n**SLO**: {verdict} — p99 {:.3} ms, {:.1} qps, {} alert(s)\n",
            s.p99_ms, s.qps, s.alerts
        ));
        out
    }
}

/// Run the pinned scenario.
pub fn run_obs() -> ObsBench {
    run_obs_with(ObsBenchConfig::default())
}

/// [`run_obs`] with explicit knobs.
pub fn run_obs_with(cfg: ObsBenchConfig) -> ObsBench {
    let run = RunConfig::for_level(cfg.level, cfg.nlev);
    let store = Arc::new(SnapshotStore::new(cfg.members, cfg.epochs + 1));
    let ensemble = spawn_ensemble::<f64>(
        EnsembleConfig {
            members: cfg.members,
            rank_pools: cfg.rank_pools,
            epochs: cfg.epochs,
            dyn_steps_per_epoch: cfg.dyn_steps_per_epoch,
            run: run.clone(),
            perturb_scale: cfg.perturb_scale,
            target: PoolTarget::Serial,
        },
        Arc::clone(&store),
    );
    while (0..cfg.members).any(|m| store.latest(m).is_none()) {
        std::thread::yield_now();
    }
    let engine = Arc::new(QueryEngine::<f64>::new(
        Arc::clone(&store),
        run.clone(),
        Substrate::serial(),
        default_suite(run.nlev),
    ));
    let ncells = engine.n_cells();
    let server = Arc::new(ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: cfg.workers,
            max_batch: cfg.max_batch,
        },
    ));
    let t0 = Instant::now();
    let clients: Vec<std::thread::JoinHandle<()>> = (0..cfg.clients)
        .map(|client| {
            let server = Arc::clone(&server);
            let members = cfg.members;
            let n = cfg.client_queries;
            std::thread::spawn(move || {
                for i in 0..n {
                    let product = match (client + i) % 3 {
                        0 => Product::Precip,
                        1 => Product::T2m,
                        _ => Product::ColumnState,
                    };
                    let q = Query::cell(
                        (client + i) % members,
                        (client * 29 + i * 7) % ncells,
                        product,
                    );
                    server.query_blocking(q).expect("traffic query");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("traffic client panicked");
    }
    let window_s = t0.elapsed().as_secs_f64();
    let alerts: Vec<(usize, Alert)> = ensemble.join().into_iter().flat_map(|r| r.alerts).collect();
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }

    let snapshot = engine.substrate().metrics().snapshot();
    let latency = &snapshot.histograms["serve.latency_ns"];
    let slo = SloPolicy::default().evaluate(latency, window_s, alerts.len() as u64);
    ObsBench {
        document: snapshot.to_json(),
        snapshot,
        alerts,
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ObsBenchConfig {
        ObsBenchConfig {
            level: 2,
            nlev: 6,
            members: 2,
            rank_pools: 2,
            epochs: 1,
            dyn_steps_per_epoch: 1,
            workers: 2,
            max_batch: 4,
            clients: 2,
            client_queries: 8,
            perturb_scale: 1e-6,
        }
    }

    #[test]
    fn scenario_fills_the_registry_and_passes_every_gate() {
        let cfg = tiny();
        let b = run_obs_with(cfg);
        let total = (cfg.clients * cfg.client_queries) as u64;
        assert_eq!(b.latency().count, total);
        let sizes = &b.snapshot.histograms["serve.batch_size"];
        assert_eq!(sizes.sum, total);
        assert_eq!(sizes.count, b.snapshot.counters["serve.batches"]);
        assert_eq!(b.slo.queries, total);
        assert_eq!(b.failures(&b.document), [] as [String; 0]);
        assert!(b.to_markdown().contains("**SLO**: OK"));
    }

    #[test]
    fn every_gate_fails_on_its_own_evidence() {
        let mut b = run_obs_with(tiny());
        // A document that lost a bucket no longer equals the snapshot.
        let mut doctored = b.snapshot.clone();
        let lat = doctored.histograms.get_mut("serve.latency_ns").unwrap();
        let bucket = lat.counts.iter().position(|&c| c > 0).unwrap();
        lat.counts[bucket] -= 1;
        let failed = b.failures(&doctored.to_json());
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("different snapshot"));
        assert!(b.failures("{").iter().any(|f| f.contains("does not parse")));
        // An alert fails the health gate and, through the budget, the SLO.
        b.alerts.push((
            1,
            Alert {
                kind: grist_obs::AlertKind::Unstable,
                epoch: 2,
                value: 400.0,
                threshold: 0.0,
            },
        ));
        b.slo = SloPolicy::default().evaluate(b.latency(), 1.0, 1);
        let failed = b.failures(&b.document);
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].contains("alert_budget"));
        assert!(failed[1].contains("member 1: unstable"));
    }
}
