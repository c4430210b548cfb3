//! Deterministic fault injection for the simulated substrate.
//!
//! A production run at the paper's scale (107,520 nodes, 34M cores) cannot
//! assume a fault-free machine: CPE dispatches stall, DMA transfers corrupt,
//! and halo messages are truncated in flight. [`FaultPlan`] is a *seeded*
//! description of which of those events fail, shared (cheaply, via `Arc`)
//! between the injection sites:
//!
//! * [`Substrate::run_cols`](crate::substrate::Substrate::run_cols)
//!   consults an armed plan before every offload dispatch ([`FaultSite::Dispatch`]
//!   for compute-only kernels, keyed on [`dispatch_fault_key`] — kernel name
//!   and how many times that kernel has been dispatched — so adding, removing
//!   or reordering *other* kernels leaves a kernel's faults where they were;
//!   [`FaultSite::Dma`] for dispatches carrying a modeled DMA payload);
//! * `grist-runtime`'s chaos halo exchange consults it per received message
//!   ([`FaultSite::HaloExchange`]), truncating the buffer so the failure
//!   surfaces through the normal malformed-buffer detection path.
//!
//! Every decision is a pure hash of `(seed, site, event key, attempt)` —
//! re-running the same workload with the same plan injects the *same* faults,
//! which is what makes recovery testable: two seeded chaos runs must converge
//! to the same post-recovery state.
//!
//! Two fault flavours:
//!
//! * **Rate faults** ([`FaultPlan::with_rate`]) are *transient*: each retry
//!   attempt re-rolls the hash, so a retry usually clears the fault (a stalled
//!   dispatch that succeeds on re-issue).
//! * **Pinned faults** ([`FaultPlan::pin`]) are *persistent*: the named event
//!   fails on every attempt, forcing the caller down the degrade path
//!   (serial fallback for dispatches, checkpoint restore for exchanges).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where in the stack an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// A substrate kernel dispatch (the CPE job launch stalls).
    Dispatch,
    /// A dispatch carrying a modeled DMA payload (the transfer corrupts and
    /// is detected, so the whole dispatch must be re-issued).
    Dma,
    /// A gathered halo exchange round (a received message is truncated).
    HaloExchange,
}

impl FaultSite {
    /// Stable per-site hash salt (decisions at different sites with the same
    /// event key must be independent).
    fn salt(self) -> u64 {
        match self {
            FaultSite::Dispatch => 0x9d15_7c3a_11b2_0001,
            FaultSite::Dma => 0x9d15_7c3a_11b2_0002,
            FaultSite::HaloExchange => 0x9d15_7c3a_11b2_0003,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Dispatch => "dispatch",
            FaultSite::Dma => "dma",
            FaultSite::HaloExchange => "halo-exchange",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Dispatch => 0,
            FaultSite::Dma => 1,
            FaultSite::HaloExchange => 2,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An injected fault that persisted through every retry attempt — the typed
/// error the substrate surfaces instead of a panic. Carries enough context
/// (site, deterministic event key, attempts consumed) to correlate the
/// failure with the plan that injected it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    pub site: FaultSite,
    /// Deterministic event key the plan keyed the decision on.
    pub key: u64,
    /// Attempts consumed (first try + retries) before giving up.
    pub attempts: u32,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault at event {} persisted through {} attempt(s)",
            self.site, self.key, self.attempts
        )
    }
}

impl std::error::Error for FaultError {}

/// Immutable plan configuration (shared by every clone).
#[derive(Debug, Clone, Default)]
struct PlanCfg {
    seed: u64,
    max_retries: u32,
    /// Per-site transient fault probability, 0 when unset.
    rates: [f64; 3],
    /// Persistent faults: `(site, event key)` pairs that fail every attempt.
    pinned: BTreeSet<(FaultSite, u64)>,
}

/// Monotone event counters (shared by every clone, so the plan assigns one
/// key per dispatch no matter which substrate clone issues it): one for
/// [`FaultSite::Dma`], and for [`FaultSite::Dispatch`] one per kernel name.
#[derive(Debug, Default)]
struct SiteSeqs {
    dma: AtomicU64,
    dispatches: Mutex<BTreeMap<&'static str, u64>>,
}

/// A seeded, deterministic fault schedule. Cloning is cheap and shares the
/// event counters; build the plan (rates, pins, retry budget) *before*
/// arming it on a substrate.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    cfg: Arc<PlanCfg>,
    seqs: Arc<SiteSeqs>,
}

impl FaultPlan {
    /// A plan that injects nothing until rates or pins are added.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            cfg: Arc::new(PlanCfg {
                seed,
                max_retries: 2,
                ..Default::default()
            }),
            seqs: Arc::new(SiteSeqs::default()),
        }
    }

    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Retry budget callers should spend before degrading (first attempt not
    /// counted). Default 2.
    pub fn max_retries(&self) -> u32 {
        self.cfg.max_retries
    }

    pub fn with_max_retries(mut self, n: u32) -> Self {
        Arc::make_mut(&mut self.cfg).max_retries = n;
        self
    }

    /// Transient per-event fault probability at `site` (each attempt
    /// re-rolls, so retries usually clear the fault).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        Arc::make_mut(&mut self.cfg).rates[site.index()] = rate;
        self
    }

    /// Pin a *persistent* fault: event `key` at `site` fails on every
    /// attempt, forcing the caller down its degrade path.
    pub fn pin(mut self, site: FaultSite, key: u64) -> Self {
        Arc::make_mut(&mut self.cfg).pinned.insert((site, key));
        self
    }

    /// Hand out the next deterministic [`FaultSite::Dma`] event key: a
    /// running ordinal over the plan's byte-carrying dispatches, one draw
    /// per dispatch. The other sites derive keys that name the event —
    /// compute dispatches through [`Self::next_dispatch_key`], the halo
    /// exchange from its `(rank, src, tag)` — so neither a restructured step
    /// nor rank-thread interleaving can perturb their schedule.
    pub(crate) fn next_dma_key(&self) -> u64 {
        self.seqs.dma.fetch_add(1, Ordering::Relaxed)
    }

    /// The [`dispatch_fault_key`] of this dispatch of kernel `name`, counting
    /// the plan's earlier dispatches of the same name.
    pub(crate) fn next_dispatch_key(&self, name: &'static str) -> u64 {
        let mut seqs = self
            .seqs
            .dispatches
            .lock()
            .expect("no code panics holding the ordinal map");
        let ordinal = seqs.entry(name).or_insert(0);
        let key = dispatch_fault_key(name, *ordinal);
        *ordinal += 1;
        key
    }

    /// Zero the event counters (start an identical schedule over).
    pub fn reset(&self) {
        self.seqs.dma.store(0, Ordering::Relaxed);
        self.seqs
            .dispatches
            .lock()
            .expect("no code panics holding the ordinal map")
            .clear();
    }

    /// Does attempt `attempt` of event `key` at `site` fail? Pure function
    /// of the plan configuration — identical runs see identical faults.
    pub fn should_fail(&self, site: FaultSite, key: u64, attempt: u32) -> bool {
        if self.cfg.pinned.contains(&(site, key)) {
            return true;
        }
        let rate = self.cfg.rates[site.index()];
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.cfg
                .seed
                .wrapping_add(site.salt())
                .wrapping_add(splitmix64(key))
                .wrapping_add((attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }
}

/// Event key of the `ordinal`-th (from 0) [`FaultSite::Dispatch`] dispatch of
/// kernel `name` under one plan: an FNV-1a of the name, mixed, plus the
/// ordinal. Exposed so chaos tests can [`FaultPlan::pin`] a specific dispatch
/// of a specific kernel.
pub fn dispatch_fault_key(name: &str, ordinal: u64) -> u64 {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    splitmix64(h).wrapping_add(ordinal)
}

/// SplitMix64 finalizer — the same mixer the vendored rand shim seeds with.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fails() {
        let p = FaultPlan::new(7);
        for key in 0..1000 {
            assert!(!p.should_fail(FaultSite::Dispatch, key, 0));
            assert!(!p.should_fail(FaultSite::Dma, key, 0));
            assert!(!p.should_fail(FaultSite::HaloExchange, key, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic_for_a_seed() {
        let a = FaultPlan::new(42).with_rate(FaultSite::Dispatch, 0.25);
        let b = FaultPlan::new(42).with_rate(FaultSite::Dispatch, 0.25);
        let fire_a: Vec<bool> = (0..500)
            .map(|k| a.should_fail(FaultSite::Dispatch, k, 0))
            .collect();
        let fire_b: Vec<bool> = (0..500)
            .map(|k| b.should_fail(FaultSite::Dispatch, k, 0))
            .collect();
        assert_eq!(fire_a, fire_b);
        assert!(fire_a.iter().any(|&f| f), "25% rate must fire in 500 draws");
        assert!(fire_a.iter().any(|&f| !f), "25% rate must also pass");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1).with_rate(FaultSite::Dispatch, 0.5);
        let b = FaultPlan::new(2).with_rate(FaultSite::Dispatch, 0.5);
        let same = (0..256)
            .filter(|&k| {
                a.should_fail(FaultSite::Dispatch, k, 0) == b.should_fail(FaultSite::Dispatch, k, 0)
            })
            .count();
        assert!(same < 256, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn rate_hits_are_roughly_calibrated() {
        let p = FaultPlan::new(9).with_rate(FaultSite::Dma, 0.1);
        let n = 10_000;
        let hits = (0..n)
            .filter(|&k| p.should_fail(FaultSite::Dma, k, 0))
            .count();
        let frac = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&frac), "10% rate measured {frac}");
    }

    #[test]
    fn retries_reroll_transient_faults() {
        let p = FaultPlan::new(3).with_rate(FaultSite::Dispatch, 0.3);
        // For every event that fails on attempt 0, some later attempt clears
        // (probability of 4 consecutive independent 30% hits is 0.8%; over
        // the keys that fire, at least one must clear within 4 retries).
        let mut cleared = 0;
        let mut fired = 0;
        for key in 0..300 {
            if p.should_fail(FaultSite::Dispatch, key, 0) {
                fired += 1;
                if (1..=4).any(|a| !p.should_fail(FaultSite::Dispatch, key, a)) {
                    cleared += 1;
                }
            }
        }
        assert!(fired > 50, "30% rate fired only {fired}/300");
        assert!(cleared > fired * 9 / 10, "{cleared}/{fired} cleared");
    }

    #[test]
    fn pinned_faults_persist_through_every_attempt() {
        let p = FaultPlan::new(0).pin(FaultSite::Dispatch, 17);
        for attempt in 0..10 {
            assert!(p.should_fail(FaultSite::Dispatch, 17, attempt));
        }
        assert!(!p.should_fail(FaultSite::Dispatch, 16, 0));
        assert!(!p.should_fail(FaultSite::Dma, 17, 0), "pins are per-site");
    }

    #[test]
    fn clones_share_event_counters() {
        let p = FaultPlan::new(5);
        let q = p.clone();
        assert_eq!(p.next_dma_key(), 0);
        assert_eq!(q.next_dma_key(), 1);
        assert_eq!(p.next_dispatch_key("a"), dispatch_fault_key("a", 0));
        assert_eq!(q.next_dispatch_key("a"), dispatch_fault_key("a", 1));
        p.reset();
        assert_eq!(q.next_dma_key(), 0);
        assert_eq!(q.next_dispatch_key("a"), dispatch_fault_key("a", 0));
    }

    #[test]
    fn dispatch_keys_count_per_kernel_name() {
        // Dispatches of other kernels in between do not move a kernel's keys.
        let alone = FaultPlan::new(5);
        let mixed = FaultPlan::new(5);
        let mut keys = (Vec::new(), Vec::new());
        for _ in 0..4 {
            keys.0.push(alone.next_dispatch_key("fct_limiter"));
            mixed.next_dispatch_key("hevi_mass_flux");
            keys.1.push(mixed.next_dispatch_key("fct_limiter"));
            mixed.next_dma_key();
        }
        assert_eq!(keys.0, keys.1);
        assert_eq!(keys.0[3], dispatch_fault_key("fct_limiter", 3));
        assert_ne!(
            dispatch_fault_key("fct_limiter", 0),
            dispatch_fault_key("fct_apply", 0)
        );
    }

    #[test]
    fn fault_error_renders_site_key_and_attempts() {
        let e = FaultError {
            site: FaultSite::Dma,
            key: 42,
            attempts: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("dma"), "{msg}");
        assert!(msg.contains("42"), "{msg}");
        assert!(msg.contains("3 attempt"), "{msg}");
    }
}
