//! Workspace-wide chaos suite: seeded fault storms driven through the whole
//! stack — substrate dispatches, DMA-carrying kernels, and gathered halo
//! exchanges — with the recovery ladder (retry → degrade-to-serial, typed
//! errors → checkpoint restore) asserted to be *deterministic*: a fixed seed
//! must produce the same faults, the same recovery actions, and the same
//! post-recovery state, bit for bit, on every run.
//!
//! The seed can be varied from the outside (the CI chaos job runs a small
//! matrix): `CHAOS_SEED=7 cargo test --release --test integration_chaos`.

use grist_core::{Checkpoint, GristModel, RunConfig};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{halo_fault_key, run_world, ExchangeCtx, VarList};
use sunway_sim::{dispatch_fault_key, FaultPlan, FaultSite, Substrate};

/// Seed for the storms below; override with `CHAOS_SEED=<n>`.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn small_config() -> RunConfig {
    RunConfig::for_level(2, 8)
}

/// One physics cycle's worth of coupled stepping.
fn storm_window(cfg: &RunConfig) -> f64 {
    cfg.dt_dyn * cfg.dyn_per_phy() as f64
}

// ---------------------------------------------------------------------------
// Dispatch / DMA storms: retry-then-degrade must be invisible in the state.
// ---------------------------------------------------------------------------

/// Run one coupled window on CPE teams under `plan` (or clean when `None`)
/// and return the post-run state hash plus the fault counters.
fn run_dispatch_storm(plan: Option<FaultPlan>) -> (u64, [u64; 3]) {
    let sub = Substrate::cpe_teams(8);
    if let Some(p) = plan {
        sub.arm_faults(p);
    }
    let cfg = small_config();
    let window = storm_window(&cfg);
    let mut m = GristModel::<f64>::with_substrate(cfg, sub);
    m.advance(window);
    let metrics = m.metrics();
    let counters = [
        metrics.counter("fault.injected"),
        metrics.counter("fault.retries"),
        metrics.counter("fault.degradations"),
    ];
    (m.state_hash(), counters)
}

#[test]
fn dispatch_fault_storm_is_bitwise_invisible_and_deterministic() {
    let seed = chaos_seed();
    // Transient rate faults plus two pinned dispatch events — one early
    // (the second step's diagnosis), one mid-run (the second tracer step's
    // first limiter pass) — that persist through every retry and force the
    // degrade-to-serial path.
    let plan = || {
        FaultPlan::new(seed)
            .with_rate(FaultSite::Dispatch, 0.05)
            .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_diagnose", 1))
            .pin(FaultSite::Dispatch, dispatch_fault_key("fct_limiter", 3))
    };

    let (clean_hash, clean_counters) = run_dispatch_storm(None);
    assert_eq!(clean_counters, [0, 0, 0], "clean run must inject nothing");

    let (storm_hash, storm_counters) = run_dispatch_storm(Some(plan()));
    // Serial fallback runs the identical per-index kernel, so even a run
    // full of retries and degradations must match the clean run exactly.
    assert_eq!(
        storm_hash, clean_hash,
        "degrade-to-serial changed the model state (seed {seed})"
    );
    assert!(
        storm_counters[0] > 0,
        "storm injected no faults (seed {seed})"
    );
    assert!(
        storm_counters[2] >= 2,
        "two pinned events must both degrade, saw {} (seed {seed})",
        storm_counters[2]
    );

    // Same seed, fresh model, fresh plan: identical faults, identical
    // recovery, identical counters — the acceptance bar for the fault layer.
    let (again_hash, again_counters) = run_dispatch_storm(Some(plan()));
    assert_eq!(again_hash, storm_hash, "storm is not repeatable");
    assert_eq!(again_counters, storm_counters, "fault schedule drifted");
}

#[test]
fn resilient_advance_under_a_storm_completes_and_matches_clean_stepping() {
    let seed = chaos_seed();
    let cfg = small_config();
    let window = storm_window(&cfg);

    let mut clean = GristModel::<f64>::new(small_config());
    clean.advance(window);

    let sub = Substrate::cpe_teams(8);
    sub.arm_faults(
        FaultPlan::new(seed)
            .with_rate(FaultSite::Dispatch, 0.05)
            .pin(
                FaultSite::Dispatch,
                dispatch_fault_key("hevi_momentum_update", 0),
            ),
    );
    let mut chaotic = GristModel::<f64>::with_substrate(cfg, sub);
    let outcome = chaotic.advance_resilient(window);

    assert!(outcome.completed, "{}", outcome.final_health.diagnosis);
    assert_eq!(
        outcome.restores, 0,
        "dispatch faults degrade transparently; no rollback should fire"
    );
    assert!(outcome.checkpoints >= 1, "no checkpoint captured");
    // Health scans and checkpoint captures are pure observation, and the
    // degraded dispatches are bitwise identical, so the resilient chaos run
    // must equal the plain serial run.
    assert_eq!(
        chaotic.state_hash(),
        clean.state_hash(),
        "resilient stepping diverged from clean stepping (seed {seed})"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint / restart: restore must be bit-for-bit.
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_restore_then_advance_matches_the_uninterrupted_run() {
    // The ML suite's physics is a pure function of the column state, so the
    // checkpoint captures everything the trajectory depends on and the
    // restored run must be bitwise identical. (Conventional physics keeps
    // per-column caches — land store, radiation heating — that checkpoints
    // deliberately do not carry; its restores are stability-level, not
    // bitwise: see DESIGN.md §8.)
    let cfg = || small_config().with_ml_physics(true);
    let window = storm_window(&cfg());

    let mut primary = GristModel::<f64>::new(cfg());
    primary.advance(window);
    let wire = primary.checkpoint().to_bytes();
    let at_capture = primary.state_hash();
    primary.advance(window);
    let reference = primary.state_hash();

    // A fresh process: parse the serialized checkpoint, restore into a
    // newly built model, and continue.
    let parsed = Checkpoint::from_bytes(&wire).expect("checkpoint round-trips through bytes");
    let mut resumed = GristModel::<f64>::new(cfg());
    resumed
        .restore(&parsed)
        .expect("restore into a fresh model");
    assert_eq!(
        resumed.state_hash(),
        at_capture,
        "restore is not faithful to the serialized image"
    );
    resumed.advance(window);
    assert_eq!(
        resumed.state_hash(),
        reference,
        "checkpoint -> serialize -> parse -> restore -> advance diverged \
         from the uninterrupted run"
    );
    assert_eq!(primary.metrics().counter("checkpoint.captures"), 1);
    assert!(primary.metrics().counter("checkpoint.bytes") > 0);
    assert_eq!(resumed.metrics().counter("recovery.restores"), 1);
}

// ---------------------------------------------------------------------------
// Halo-exchange storms: typed errors, world-agreed rollback, fresh tags.
// ---------------------------------------------------------------------------

const HALO_RANKS: usize = 4;
const HALO_NLEV: usize = 3;
const HALO_ROUNDS: usize = 5;

/// Drive `HALO_ROUNDS` of update-then-exchange across 4 ranks under `plan`.
/// A failed round (any rank receiving a truncated buffer) is detected by
/// every rank through an allreduce, rolled back from the per-round
/// checkpoint, and retried under a fresh tag. Returns each rank's final
/// field and its rollback count.
fn run_halo_storm(plan: &FaultPlan, sub: &Substrate) -> (Vec<Vec<f64>>, Vec<u32>) {
    let mesh = HexMesh::build(2);
    let part = Partition::build(&mesh, HALO_RANKS, 2);
    let layout = HaloLayout::build(&mesh, &part, 1);
    let n_values = mesh.n_cells() * HALO_NLEV;

    let (results, _) = run_world(HALO_RANKS, |mut ctx| {
        let locale = &layout.locales[ctx.rank];
        let mut field = vec![0.0f64; n_values];
        for &c in &locale.owned_cells {
            for k in 0..HALO_NLEV {
                field[c as usize * HALO_NLEV + k] = c as f64 + 0.25 * k as f64;
            }
        }
        let mut saved = field.clone();
        let mut restores = 0u32;
        for round in 0..HALO_ROUNDS {
            // Local update on owned cells, then checkpoint the pre-exchange
            // state: a failed exchange leaves halos partially unpacked, so
            // the retry must start from exactly here.
            for &c in &locale.owned_cells {
                for k in 0..HALO_NLEV {
                    let v = &mut field[c as usize * HALO_NLEV + k];
                    *v = *v * 1.0625 + 1e-3 * (c as usize + k) as f64;
                }
            }
            saved.copy_from_slice(&field);
            let base_tag = round as u32 * 100;
            let mut attempt = 0u32;
            loop {
                // Fresh tag per attempt: messages parked by an aborted round
                // must never satisfy a retry's receives.
                let tag = base_tag + attempt * 10;
                let failed_here = {
                    let mut list = VarList::new();
                    list.push("phi", HALO_NLEV, &mut field);
                    let xctx = ExchangeCtx {
                        metrics: Some(sub.metrics()),
                        plan: Some(plan),
                    };
                    xctx.exchange(&mut ctx, locale, &mut list, tag).is_err()
                };
                // Every rank agrees on whether the round survived before
                // anyone commits to the result.
                let world_failures = ctx.allreduce_sum(f64::from(failed_here as u8), tag + 5);
                if world_failures == 0.0 {
                    break;
                }
                field.copy_from_slice(&saved);
                restores += 1;
                attempt += 1;
                assert!(attempt < 8, "halo storm never converged");
            }
        }
        (field, restores)
    });
    results.into_iter().unzip()
}

#[test]
fn halo_fault_storm_recovers_deterministically_from_checkpoints() {
    let seed = chaos_seed();
    // A pinned truncation guarantees at least one recovery regardless of
    // seed: rank 1's first receive of round 1's first attempt (tag 100) is
    // damaged. A low transient rate adds seed-dependent extra storms.
    let mesh = HexMesh::build(2);
    let part = Partition::build(&mesh, HALO_RANKS, 2);
    let layout = HaloLayout::build(&mesh, &part, 1);
    let pinned_src = layout.locales[1].recv.first().expect("rank 1 has halos").0;
    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::HaloExchange, 0.03)
        .pin(FaultSite::HaloExchange, halo_fault_key(1, pinned_src, 100));

    let clean_sub = Substrate::serial();
    let quiet = FaultPlan::new(seed); // no rates, no pins: injects nothing
    let (clean_fields, clean_restores) = run_halo_storm(&quiet, &clean_sub);
    assert_eq!(clean_restores, vec![0; HALO_RANKS]);
    assert_eq!(clean_sub.metrics().counter("fault.injected"), 0);

    let storm_sub = Substrate::serial();
    let (storm_fields, storm_restores) = run_halo_storm(&plan, &storm_sub);
    let total_restores: u32 = storm_restores.iter().sum();
    assert!(total_restores >= 1, "pinned truncation did not fire");
    assert!(storm_sub.metrics().counter("fault.injected") >= 1);
    // Rollback + fresh-tag retry must reconverge to the clean trajectory.
    assert_eq!(
        storm_fields, clean_fields,
        "post-recovery fields diverged from the fault-free run (seed {seed})"
    );

    // And the whole storm — faults, rollbacks, final state — must replay
    // identically under the same seed.
    let again_sub = Substrate::serial();
    let (again_fields, again_restores) = run_halo_storm(&plan, &again_sub);
    assert_eq!(again_fields, storm_fields, "storm fields not repeatable");
    assert_eq!(again_restores, storm_restores, "rollback schedule drifted");
    assert_eq!(
        again_sub.metrics().counter("fault.injected"),
        storm_sub.metrics().counter("fault.injected"),
        "injection count drifted between identical storms"
    );
}

// ---------------------------------------------------------------------------
// Observability: every rung of the ladder lands in metrics_json().
// ---------------------------------------------------------------------------

#[test]
fn fault_and_recovery_counters_surface_in_metrics_json() {
    let sub = Substrate::cpe_teams(4);
    // Pin the very first dispatch: retries burn, then degrade-to-serial.
    sub.arm_faults(
        FaultPlan::new(chaos_seed())
            .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_diagnose", 0)),
    );
    let mut m = GristModel::<f64>::with_substrate(small_config(), sub);
    m.step_dyn();
    let ck = m.checkpoint();
    m.state.u.set(0, 0, f64::NAN);
    assert_eq!(m.health().state, grist_core::RunState::Corrupt);
    m.restore(&ck).expect("restore own checkpoint");
    assert_eq!(m.health().state, grist_core::RunState::Healthy);

    let json = m.metrics_json();
    for counter in [
        "fault.injected",
        "fault.retries",
        "fault.degradations",
        "checkpoint.captures",
        "checkpoint.bytes",
        "recovery.restores",
        "health.scans",
    ] {
        assert!(
            json.contains(counter),
            "metrics_json() lacks {counter}:\n{json}"
        );
    }
}
