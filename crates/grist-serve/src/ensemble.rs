//! The simulation side: ensemble members sharded across rank pools via
//! [`run_world`], publishing an [`EpochView`] per member per epoch.
//!
//! Members are whole models (no halo decomposition here — that lives in
//! `grist-runtime`); rank pool `r` owns members `m` with `m % pools == r`
//! and advances them round-robin. Publishes happen **only between
//! `advance` calls** — the snapshot-isolation rule — and the pools
//! barrier between epochs so no member's published frontier runs more
//! than one epoch ahead of the slowest pool.
//!
//! After every epoch each member samples its physics health into its own
//! [`HealthWatch`]: drift is measured against the member's own first
//! sample, so members never share one. The alerts come back in the pool's
//! [`RankReport`].

use crate::store::{EpochView, SnapshotStore};
use grist_core::{GristModel, RunConfig};
use grist_dycore::Real;
use grist_obs::{Alert, HealthWatch, WatchThresholds};
use grist_runtime::run_world;
use std::sync::Arc;
use sunway_sim::Substrate;

/// Which execution target each rank pool builds for its members. Each pool
/// constructs its **own** substrate so rank threads never share a CPE job
/// server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTarget {
    Serial,
    CpeTeams(usize),
}

impl PoolTarget {
    pub fn substrate(self) -> Substrate {
        match self {
            PoolTarget::Serial => Substrate::serial(),
            PoolTarget::CpeTeams(n) => Substrate::cpe_teams(n),
        }
    }
}

/// How to run the ensemble.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Ensemble size (must equal the store's member count).
    pub members: usize,
    /// Rank pools to shard members across.
    pub rank_pools: usize,
    /// Publishes per member *after* the initial epoch-0 view.
    pub epochs: usize,
    /// Dynamics steps advanced between publishes.
    pub dyn_steps_per_epoch: usize,
    /// The shared model configuration.
    pub run: RunConfig,
    /// Relative amplitude of the deterministic per-member initial-condition
    /// perturbation (member 0 is the unperturbed control).
    pub perturb_scale: f64,
    /// Execution target each pool builds.
    pub target: PoolTarget,
}

/// What one rank pool did.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    pub rank: usize,
    pub members: Vec<usize>,
    pub publishes: u64,
    /// Health alerts the pool's members raised, each with its member, in
    /// raise order.
    pub alerts: Vec<(usize, Alert)>,
}

fn mix(member: usize, k: usize, c: usize) -> u64 {
    let mut x = (member as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((k as u64) << 32) ^ c as u64);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 29;
    x
}

/// Deterministically nudge a member's initial thermodynamic state so the
/// ensemble spreads (member 0 stays the control).
fn perturb_member<R: Real>(model: &mut GristModel<R>, member: usize, scale: f64) {
    if member == 0 || scale == 0.0 {
        return;
    }
    let nlev = model.config.nlev;
    let ncells = model.state.theta_m.ncols();
    for k in 0..nlev {
        for c in 0..ncells {
            let eps = scale * ((mix(member, k, c) % 2001) as f64 - 1000.0) / 1000.0;
            // theta_m is precision-sensitive and always f64 (§3.4.2).
            let v = model.state.theta_m.at(k, c);
            model.state.theta_m.set(k, c, v * (1.0 + eps));
        }
    }
}

fn publish_member<R: Real>(store: &SnapshotStore, member: usize, model: &GristModel<R>) {
    store.publish(EpochView {
        member,
        epoch: model.dyn_steps() as u64,
        state_hash: model.state_hash(),
        checkpoint: model.checkpoint(),
    });
}

/// Run the ensemble to completion on the calling thread (blocks until every
/// pool finishes). Returns one report per rank pool.
pub fn run_ensemble<R: Real>(cfg: &EnsembleConfig, store: &Arc<SnapshotStore>) -> Vec<RankReport> {
    assert_eq!(
        cfg.members,
        store.n_members(),
        "store must be sized for the ensemble"
    );
    assert!(cfg.rank_pools >= 1 && cfg.members >= 1);
    assert!(cfg.dyn_steps_per_epoch >= 1);
    let (reports, _stats) = run_world(cfg.rank_pools, |mut ctx| {
        let mine: Vec<usize> = (0..cfg.members)
            .filter(|m| m % cfg.rank_pools == ctx.rank)
            .collect();
        let sub = cfg.target.substrate();
        let mut models: Vec<GristModel<R>> = mine
            .iter()
            .map(|&m| {
                let mut model = GristModel::<R>::with_substrate(cfg.run.clone(), sub.clone());
                perturb_member(&mut model, m, cfg.perturb_scale);
                model
            })
            .collect();
        let mut watches: Vec<HealthWatch> = mine
            .iter()
            .map(|_| HealthWatch::new(WatchThresholds::default()))
            .collect();
        let mut alerts = Vec::new();
        let mut publishes = 0u64;
        // Epoch 0: every member visible before anyone advances, so queries
        // issued from the first moment of the run always find a view.
        for (model, &m) in models.iter().zip(&mine) {
            publish_member(store, m, model);
            publishes += 1;
        }
        ctx.barrier(1_000);
        let advance_s = cfg.dyn_steps_per_epoch as f64 * cfg.run.dt_dyn;
        for e in 0..cfg.epochs {
            for ((model, watch), &m) in models.iter_mut().zip(&mut watches).zip(&mine) {
                model.advance(advance_s);
                alerts.extend(model.sample_health(watch).into_iter().map(|a| (m, a)));
                publish_member(store, m, model);
                publishes += 1;
            }
            // allreduce consumes tag and tag+1, so stride barrier tags by 2.
            ctx.barrier(2_000 + 2 * e as u32);
        }
        RankReport {
            rank: ctx.rank,
            members: mine,
            publishes,
            alerts,
        }
    });
    reports
}

/// A joinable handle to a background ensemble run.
pub struct EnsembleHandle {
    thread: std::thread::JoinHandle<Vec<RankReport>>,
}

impl EnsembleHandle {
    /// Block until the ensemble finishes, re-raising the run's own panic.
    pub fn join(self) -> Vec<RankReport> {
        self.thread
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
}

/// Run the ensemble on a background thread — the serving side queries the
/// store while this advances, which is exactly the concurrent regime the
/// snapshot-isolation property test exercises.
pub fn spawn_ensemble<R: Real>(cfg: EnsembleConfig, store: Arc<SnapshotStore>) -> EnsembleHandle {
    EnsembleHandle {
        thread: std::thread::spawn(move || run_ensemble::<R>(&cfg, &store)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(members: usize, pools: usize) -> EnsembleConfig {
        EnsembleConfig {
            members,
            rank_pools: pools,
            epochs: 2,
            dyn_steps_per_epoch: 2,
            run: RunConfig::for_level(2, 6),
            perturb_scale: 1e-6,
            target: PoolTarget::Serial,
        }
    }

    #[test]
    fn ensemble_publishes_every_member_every_epoch() {
        let store = Arc::new(SnapshotStore::new(3, 8));
        let reports = run_ensemble::<f64>(&small_cfg(3, 2), &store);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].members, vec![0, 2]);
        assert_eq!(reports[1].members, vec![1]);
        // 3 members × (1 initial + 2 epochs) publishes.
        assert_eq!(store.published_log().len(), 9);
        let log = store.published_log();
        for member in 0..3 {
            let epochs: Vec<u64> = log
                .iter()
                .filter(|&&(m, _, _)| m == member)
                .map(|&(_, e, _)| e)
                .collect();
            assert_eq!(epochs, vec![0, 2, 4], "member {member} epoch ladder");
            assert!(store.latest(member).is_some());
        }
        // Every member was sampled into its own watch; a healthy ensemble
        // raises nothing.
        for r in &reports {
            assert!(r.alerts.is_empty(), "rank {}: {:?}", r.rank, r.alerts);
        }
    }

    #[test]
    fn members_diverge_but_are_reproducible() {
        let store_a = Arc::new(SnapshotStore::new(2, 8));
        let store_b = Arc::new(SnapshotStore::new(2, 8));
        run_ensemble::<f64>(&small_cfg(2, 1), &store_a);
        run_ensemble::<f64>(&small_cfg(2, 2), &store_b); // different sharding
        for member in 0..2 {
            let a = store_a.latest(member).unwrap();
            let b = store_b.latest(member).unwrap();
            assert_eq!(
                a.state_hash, b.state_hash,
                "member {member}: sharding must not change the trajectory"
            );
        }
        let h0 = store_a.latest(0).unwrap().state_hash;
        let h1 = store_a.latest(1).unwrap().state_hash;
        assert_ne!(h0, h1, "perturbed member must diverge from the control");
    }
}
