//! Cross-crate integration tests of halo/compute overlap: the phased
//! distributed SWE step in both [`DynStepMode`]s must be bitwise identical
//! to each other and to a serial run, faults must surface through the async
//! begin/complete path, a panicking rank must abort blocked peers with a
//! descriptive error, and the `GristModel` halo hook must bracket every
//! dyn step with a Begin/Complete pair.

use grist_core::{DynStepMode, GristModel, HaloPhase, RunConfig};
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{exchange_gathered, halo_fault_key, run_world, ExchangeCtx, VarList};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use sunway_sim::{FaultPlan, FaultSite, Substrate};

const LEVEL: u32 = 3;
const DT: f64 = 400.0;
const STEPS: usize = 3;

/// Named substrate constructors to sweep each scenario over.
type SubstrateCases = [(&'static str, fn() -> Substrate); 2];

/// Run the distributed phased SWE step for `steps` steps in `mode` and
/// return each rank's full post-run `(h, u)` bit patterns. Before every
/// step the recv-halo `h` cells are poisoned with NaN, so the run only
/// survives if (a) the interior phase really reads owned data only and
/// (b) the exchange restores the halos before the remainder phase needs
/// them — in both modes.
fn run_phased_world(
    n_ranks: usize,
    mode: DynStepMode,
    make_sub: fn() -> Substrate,
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mesh = HexMesh::build(LEVEL);
    let partition = Partition::build(&mesh, n_ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);

    let (results, _) = run_world(n_ranks, |mut ctx| {
        let mesh = HexMesh::build(LEVEL);
        let locale = &layout.locales[ctx.rank];
        let split = locale.phase_split(&mesh, 1);
        let mut solver = SweSolver::<f64>::with_substrate(mesh, make_sub());
        let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        for step in 0..STEPS {
            for (_, cells) in &locale.recv {
                for &c in cells {
                    state.h.set(0, c as usize, f64::NAN);
                }
            }
            let receipt = grist_core::swe_dyn_step(
                &mut solver,
                &mut state,
                DT,
                &mut ctx,
                locale,
                &phases,
                100 + step as u32,
                mode,
                None,
                None,
            )
            .expect("fault-free exchange");
            if !locale.recv.is_empty() {
                assert!(receipt.messages_sent > 0, "rank exchanged no messages");
            }
            for (_, cells) in &locale.recv {
                for &c in cells {
                    assert!(
                        state.h.at(0, c as usize).is_finite(),
                        "halo cell {c} still poisoned after step {step}"
                    );
                }
            }
        }
        let h_bits: Vec<u64> = state.h.as_slice().iter().map(|v| v.to_bits()).collect();
        let u_bits: Vec<u64> = state.u.as_slice().iter().map(|v| v.to_bits()).collect();
        (h_bits, u_bits)
    });
    results
}

/// Both modes, both substrate targets: every rank's full state must be
/// bitwise identical between the modes, and the owned cells must be
/// bitwise identical to an unphased serial run (the phased split plus the
/// halo restore changes nothing at all).
fn overlap_is_bitwise(n_ranks: usize) {
    let mesh = HexMesh::build(LEVEL);
    let mut serial = SweSolver::<f64>::new(mesh.clone());
    let mut sstate = williamson_tc2::<f64>(&serial.mesh);
    for _ in 0..STEPS {
        serial.step_rk3(&mut sstate, DT);
    }
    let serial_h: Vec<u64> = sstate.h.as_slice().iter().map(|v| v.to_bits()).collect();

    let partition = Partition::build(&mesh, n_ranks, 2);
    let subs: SubstrateCases = [
        ("serial", Substrate::serial),
        ("cpe_teams", || Substrate::cpe_teams(8)),
    ];
    for (name, make_sub) in subs {
        let sync = run_phased_world(n_ranks, DynStepMode::Synchronous, make_sub);
        let ovl = run_phased_world(n_ranks, DynStepMode::Overlapped, make_sub);
        for rank in 0..n_ranks {
            assert_eq!(
                sync[rank], ovl[rank],
                "rank {rank}/{n_ranks} ({name}): overlapped state differs from synchronous"
            );
            for c in partition.cells_of(rank) {
                assert_eq!(
                    ovl[rank].0[c as usize], serial_h[c as usize],
                    "rank {rank}/{n_ranks} ({name}): owned cell {c} differs from serial"
                );
            }
        }
    }
}

#[test]
fn overlapped_step_is_bitwise_identical_across_2_ranks() {
    overlap_is_bitwise(2);
}

#[test]
fn overlapped_step_is_bitwise_identical_across_4_ranks() {
    overlap_is_bitwise(4);
}

#[test]
fn overlapped_step_is_bitwise_identical_across_7_ranks() {
    overlap_is_bitwise(7);
}

/// A pinned halo truncation must surface through the overlapped driver as
/// a descriptive `ExchangeError` on the victim rank only, with the fault
/// counted on the victim's metrics.
#[test]
fn pinned_halo_fault_surfaces_through_the_overlapped_driver() {
    let n_ranks = 4;
    let victim = 1;
    let mesh = HexMesh::build(2);
    let partition = Partition::build(&mesh, n_ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);
    let pinned_src = layout.locales[victim]
        .recv
        .first()
        .expect("victim has halos")
        .0;
    let tag = 300;
    let plan = FaultPlan::new(99).pin(
        FaultSite::HaloExchange,
        halo_fault_key(victim, pinned_src, tag),
    );
    let plan = &plan;
    let layout = &layout;

    let (results, _) = run_world(n_ranks, move |mut ctx| {
        let mesh = HexMesh::build(2);
        let locale = &layout.locales[ctx.rank];
        let split = locale.phase_split(&mesh, 1);
        let sub = Substrate::serial();
        let mut solver = SweSolver::<f64>::with_substrate(mesh, sub.clone());
        let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        let res = grist_core::swe_dyn_step(
            &mut solver,
            &mut state,
            DT,
            &mut ctx,
            locale,
            &phases,
            tag,
            DynStepMode::Overlapped,
            Some(sub.metrics()),
            Some(plan),
        );
        let err = res.err().map(|e| (e.src, e.expected_values - e.got_values));
        (err, sub.metrics().counter("fault.injected"))
    });

    for (rank, (err, injected)) in results.into_iter().enumerate() {
        if rank == victim {
            assert_eq!(err, Some((pinned_src, 1)), "victim must see the truncation");
            assert_eq!(injected, 1, "victim metrics must count the injection");
        } else {
            assert_eq!(err, None, "rank {rank} must complete cleanly");
            assert_eq!(injected, 0, "rank {rank} must inject nothing");
        }
    }
}

/// Rank-death regression: when one rank panics while its peers are blocked
/// inside a gathered exchange, the world must abort promptly with an error
/// naming the dead rank — not hang in `recv`.
#[test]
fn rank_death_aborts_peers_blocked_in_a_gathered_exchange() {
    let n_ranks = 4;
    let mesh = HexMesh::build(2);
    let partition = Partition::build(&mesh, n_ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let layout = &layout;

    let res = std::panic::catch_unwind(|| {
        run_world(n_ranks, move |mut ctx| {
            if ctx.rank == 2 {
                panic!("simulated node loss");
            }
            let locale = &layout.locales[ctx.rank];
            let mesh = HexMesh::build(2);
            let mut field = vec![1.0f64; mesh.n_cells()];
            let mut list = VarList::new();
            list.push("phi", 1, &mut field);
            // Rank 2 never sends: without the abort protocol this blocks
            // forever waiting for its message.
            exchange_gathered(&mut ctx, locale, &mut list, 7).ok();
        })
    });
    let msg = match res {
        Ok(_) => panic!("world must not survive a dead rank"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        msg.contains("rank 2"),
        "error must name the dead rank: {msg}"
    );
    assert!(
        msg.contains("simulated node loss"),
        "error must carry the original panic message: {msg}"
    );
}

/// The `GristModel` halo hook must be called with Begin before and
/// Complete after every dyn step, carry a live async exchange across the
/// step, and leave the trajectory bitwise identical to a hook-less model.
#[test]
fn model_halo_hook_brackets_every_dyn_step() {
    let n_ranks = 2;
    let steps = 3;
    let cfg = RunConfig::for_level(2, 8);

    // Hook-less reference trajectory.
    let mut reference = GristModel::<f64>::new(cfg.clone());
    for _ in 0..steps {
        reference.step_dyn();
    }
    let ref_bits: Vec<u64> = reference
        .state
        .dpi
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let ref_bits = &ref_bits;

    let mesh = HexMesh::build(2);
    let partition = Partition::build(&mesh, n_ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);
    let layout = &layout;
    let cfg = &cfg;

    let (results, _) = run_world(n_ranks, move |ctx| {
        let rank = ctx.rank;
        let locale = layout.locales[rank].clone();
        let begins = Arc::new(AtomicUsize::new(0));
        let completes = Arc::new(AtomicUsize::new(0));
        let messages = Arc::new(AtomicU64::new(0));
        let (b, c, m) = (begins.clone(), completes.clone(), messages.clone());

        let mut model = GristModel::<f64>::new(cfg.clone());
        let mut ctx = ctx;
        let mut pending = None;
        let mut step = 0u32;
        model.set_halo_hook(Box::new(move |phase, state| match phase {
            HaloPhase::Begin => {
                assert_eq!(
                    b.load(Ordering::Relaxed),
                    c.load(Ordering::Relaxed),
                    "Begin must alternate with Complete"
                );
                b.fetch_add(1, Ordering::Relaxed);
                let mut list = VarList::new();
                list.push("dpi", state.dpi.nlev(), state.dpi.as_mut_slice());
                pending = Some(ExchangeCtx::default().begin(&mut ctx, &locale, &list, 500 + step));
                step += 1;
            }
            HaloPhase::Complete => {
                c.fetch_add(1, Ordering::Relaxed);
                let mut list = VarList::new();
                list.push("dpi", state.dpi.nlev(), state.dpi.as_mut_slice());
                let receipt = ExchangeCtx::default()
                    .complete(
                        pending.take().expect("Complete without a pending Begin"),
                        &mut ctx,
                        &locale,
                        &mut list,
                    )
                    .expect("fault-free exchange");
                m.fetch_add(receipt.messages_sent, Ordering::Relaxed);
            }
        }));
        for _ in 0..steps {
            model.step_dyn();
        }
        let bits: Vec<u64> = model
            .state
            .dpi
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (
            bits,
            begins.load(Ordering::Relaxed),
            completes.load(Ordering::Relaxed),
            messages.load(Ordering::Relaxed),
        )
    });

    for (rank, (bits, begins, completes, messages)) in results.into_iter().enumerate() {
        assert_eq!(begins, steps, "rank {rank}: one Begin per dyn step");
        assert_eq!(completes, steps, "rank {rank}: one Complete per dyn step");
        assert!(messages > 0, "rank {rank}: the hook exchanged no messages");
        assert_eq!(
            &bits, ref_bits,
            "rank {rank}: hooked trajectory diverged from the hook-less model"
        );
    }
}
