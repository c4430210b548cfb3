//! The snapshot store: epoch-tagged checkpoint views, the isolation boundary
//! between the running ensemble and the query side.
//!
//! **Isolation rule (pinned):** the simulation side only publishes between
//! `advance` calls — a [`Checkpoint`] captured from a quiescent model, tagged
//! with its `dyn_steps` epoch and `state_hash`. A published [`EpochView`] is
//! immutable (queries hold it by `Arc`), so no query can ever observe a
//! half-stepped prognostic field: it either sees epoch `e` exactly as
//! captured, or epoch `e+1` exactly as captured, never anything in between.
//! Epochs per member are strictly increasing; publishing a stale or
//! duplicate epoch is a programming error and panics.

use crate::lock;
use grist_core::Checkpoint;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One member's state at one epoch, exactly as captured.
#[derive(Debug, Clone)]
pub struct EpochView {
    /// Ensemble member index.
    pub member: usize,
    /// The member's `dyn_steps` at capture — the cache-invalidation key.
    pub epoch: u64,
    /// The member's `state_hash` at capture; serving replicas verify their
    /// restored state against it before answering from the view.
    pub state_hash: u64,
    /// The bit-exact captured state.
    pub checkpoint: Checkpoint,
}

/// Published views for every ensemble member, most recent first, with a
/// bounded per-member history (`retain`) so benchmark verification can
/// recompute products from the *source* epoch even after newer publishes.
#[derive(Debug)]
pub struct SnapshotStore {
    members: Vec<Mutex<VecDeque<Arc<EpochView>>>>,
    retain: usize,
    /// Append-only `(member, epoch, state_hash)` publish log — what the
    /// no-torn-reads property test checks responses against.
    log: Mutex<Vec<(usize, u64, u64)>>,
}

impl SnapshotStore {
    /// A store for `n_members` members keeping the `retain` most recent
    /// views per member (`retain >= 1`).
    pub fn new(n_members: usize, retain: usize) -> Self {
        assert!(retain >= 1, "must retain at least the latest view");
        SnapshotStore {
            members: (0..n_members)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            retain,
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// Publish a new view for its member. Panics if the member is out of
    /// range or the epoch does not advance — both are bugs on the
    /// simulation side, not query-time conditions.
    pub fn publish(&self, view: EpochView) -> Arc<EpochView> {
        let member = view.member;
        let mut q = lock(&self.members[member]);
        if let Some(last) = q.back() {
            assert!(
                view.epoch > last.epoch,
                "member {member}: epoch must advance (published {} after {})",
                view.epoch,
                last.epoch
            );
        }
        let view = Arc::new(view);
        q.push_back(Arc::clone(&view));
        while q.len() > self.retain {
            q.pop_front();
        }
        drop(q);
        lock(&self.log).push((member, view.epoch, view.state_hash));
        view
    }

    /// The most recent view for `member` (`None` before the first publish
    /// or for an out-of-range member).
    pub fn latest(&self, member: usize) -> Option<Arc<EpochView>> {
        lock(self.members.get(member)?).back().cloned()
    }

    /// A specific retained epoch of `member` (`None` if never published or
    /// already evicted by the retention window).
    pub fn get(&self, member: usize, epoch: u64) -> Option<Arc<EpochView>> {
        lock(self.members.get(member)?)
            .iter()
            .find(|v| v.epoch == epoch)
            .cloned()
    }

    /// Every `(member, epoch, state_hash)` ever published, in publish order.
    pub fn published_log(&self) -> Vec<(usize, u64, u64)> {
        lock(&self.log).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_core::{GristModel, RunConfig};

    fn view_of(model: &GristModel<f64>, member: usize) -> EpochView {
        EpochView {
            member,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash(),
            checkpoint: model.checkpoint(),
        }
    }

    #[test]
    fn publish_latest_get_and_retention() {
        let mut m = GristModel::<f64>::new(RunConfig::for_level(2, 6));
        let store = SnapshotStore::new(2, 2);
        assert_eq!(store.n_members(), 2);
        assert!(store.latest(0).is_none());
        assert!(
            store.latest(99).is_none(),
            "out of range is None, not panic"
        );

        store.publish(view_of(&m, 0));
        let e0 = m.dyn_steps() as u64;
        m.advance(m.config.dt_phy);
        store.publish(view_of(&m, 0));
        let e1 = m.dyn_steps() as u64;
        m.advance(m.config.dt_phy);
        store.publish(view_of(&m, 0));
        let e2 = m.dyn_steps() as u64;

        assert_eq!(store.latest(0).unwrap().epoch, e2);
        assert!(store.get(0, e0).is_none(), "evicted by retain=2");
        assert_eq!(store.get(0, e1).unwrap().epoch, e1);
        assert!(store.latest(1).is_none(), "members are independent");
        assert_eq!(store.published_log().len(), 3);
        let log = store.published_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, 0);
        assert!(log[0].1 < log[1].1 && log[1].1 < log[2].1);
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn republishing_an_epoch_panics() {
        let m = GristModel::<f64>::new(RunConfig::for_level(2, 6));
        let store = SnapshotStore::new(1, 4);
        store.publish(view_of(&m, 0));
        store.publish(view_of(&m, 0));
    }
}
