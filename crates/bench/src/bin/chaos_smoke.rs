//! Chaos smoke scenario: one coupled window on the CPE-teams substrate run
//! clean and again under a seeded fault storm (transient dispatch faults
//! plus two pinned events that force degrade-to-serial), asserting the
//! recovery ladder leaves the model state bitwise identical.
//!
//! Prints the fault/recovery counters and the two state hashes; exits
//! nonzero when parity is broken. Seed with `CHAOS_SEED=<n>` (default 42).
//!
//! Usage: `cargo run --release -p grist-bench --bin chaos_smoke`

use grist_core::{GristModel, RunConfig};
use sunway_sim::{dispatch_fault_key, FaultPlan, FaultSite, Substrate};

const SMOKE_LEVEL: u32 = 2;
const SMOKE_NLEV: usize = 10;
const SMOKE_CPES: usize = 16;

fn run_window(plan: Option<FaultPlan>) -> (u64, [u64; 3], u64) {
    let sub = Substrate::cpe_teams(SMOKE_CPES);
    if let Some(p) = plan {
        sub.arm_faults(p);
    }
    let cfg = RunConfig::for_level(SMOKE_LEVEL, SMOKE_NLEV);
    let window = cfg.dt_dyn * cfg.dyn_per_phy() as f64;
    let mut m = GristModel::<f64>::with_substrate(cfg, sub);
    let outcome = m.advance_resilient(window);
    let metrics = m.metrics();
    let counters = [
        metrics.counter("fault.injected"),
        metrics.counter("fault.retries"),
        metrics.counter("fault.degradations"),
    ];
    (m.state_hash(), counters, outcome.checkpoints)
}

fn main() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let plan = FaultPlan::new(seed)
        .with_rate(FaultSite::Dispatch, 0.05)
        .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_diagnose", 1))
        .pin(FaultSite::Dispatch, dispatch_fault_key("fct_limiter", 3));

    let (clean_hash, _, _) = run_window(None);
    let (storm_hash, counters, checkpoints) = run_window(Some(plan));

    println!("chaos_smoke: seed               {seed}");
    println!("chaos_smoke: clean state hash   {clean_hash:#018x}");
    println!("chaos_smoke: storm state hash   {storm_hash:#018x}");
    println!("chaos_smoke: fault.injected     {}", counters[0]);
    println!("chaos_smoke: fault.retries      {}", counters[1]);
    println!("chaos_smoke: fault.degradations {}", counters[2]);
    println!("chaos_smoke: checkpoints        {checkpoints}");

    if counters[0] == 0 || counters[2] < 2 {
        eprintln!("chaos_smoke: FAIL — storm did not exercise the degrade path");
        std::process::exit(1);
    }
    if storm_hash != clean_hash {
        eprintln!("chaos_smoke: FAIL — degraded run diverged from the clean run");
        std::process::exit(1);
    }
    println!("chaos_smoke: OK — storm recovered to bitwise parity");
}
