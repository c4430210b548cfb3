//! Halo-exchange / interior-compute overlap for multi-rank dynamics steps.
//!
//! The paper's scaling story rests on hiding halo communication behind
//! interior computation: each dyn step is split into a halo-independent
//! interior phase and a halo-adjacent remainder (the `PhaseSplit` /
//! `SwePhases` cover), and the gathered halo exchange runs as an async
//! begin/complete pair around the interior phase. Both the synchronous and
//! the overlapped drivers here execute the *same* phased arithmetic — the
//! only difference is when the messages travel — so the two modes are
//! bitwise identical and the wait-time saving measured by the tracer is
//! attributable purely to the overlap.

use grist_dycore::swe::{SwePhases, SweSolver, SweState};
use grist_mesh::RankLocale;
use grist_runtime::comm::RankCtx;
use grist_runtime::exchange::{ExchangeCtx, ExchangeError, ExchangeReceipt, VarList};
use sunway_sim::fault::FaultPlan;
use sunway_sim::Metrics;

/// How a multi-rank dyn step schedules its halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynStepMode {
    /// Interior phase, then a blocking gathered exchange, then the
    /// remainder phase. Each rank's receive waits out its neighbours'
    /// interior compute.
    Synchronous,
    /// Pack and send *before* the step, run the interior phase while the
    /// messages are in flight, complete (receive + unpack) just before the
    /// remainder phase. Bitwise identical to [`Self::Synchronous`].
    Overlapped,
}

/// One distributed shallow-water RK3 step with a halo exchange of `h`
/// folded into stage 1, in either [`DynStepMode`].
///
/// The exchange transports the thickness field `h` (the shared-grid
/// emulation of the multi-rank drivers: every rank computes the full grid,
/// and the exchange keeps the halo cells consistent with their owners).
/// `metrics` turns on counter/trace recording; `plan` arms the chaos
/// truncation schedule on the receive side. The two are independent fields
/// of one [`ExchangeCtx`]: a `plan` without `metrics` still injects its
/// truncations, it just counts them nowhere. On an [`ExchangeError`] the
/// remainder phase of stage 1 is skipped and the step's output state is
/// unusable — callers must treat the error as fatal for this step, exactly
/// like the synchronous drivers do.
#[allow(clippy::too_many_arguments)]
pub fn swe_dyn_step(
    solver: &mut SweSolver<f64>,
    state: &mut SweState<f64>,
    dt: f64,
    ctx: &mut RankCtx,
    locale: &RankLocale,
    phases: &SwePhases,
    tag: u32,
    mode: DynStepMode,
    metrics: Option<&Metrics>,
    plan: Option<&FaultPlan>,
) -> Result<ExchangeReceipt, ExchangeError> {
    let xctx = ExchangeCtx { metrics, plan };
    // Overlapped: pack and send before the step. The interior phase reads
    // only owned data (pad-1 phase split), so it runs concurrently with the
    // in-flight messages. Stage 1 does not modify `h`, so the packed bytes
    // are identical to the synchronous mode's.
    let pending = match mode {
        DynStepMode::Synchronous => None,
        DynStepMode::Overlapped => {
            let mut list = VarList::new();
            list.push("h", state.h.nlev(), state.h.as_mut_slice());
            Some(xctx.begin(ctx, locale, &list, tag))
        }
    };
    let mut result = Ok(ExchangeReceipt::default());
    solver.step_rk3_with_stage1(state, dt, |sv, st, th, tu| {
        sv.tendencies_subset(st, th, tu, &phases.interior);
        let mut list = VarList::new();
        list.push("h", st.h.nlev(), st.h.as_mut_slice());
        result = match pending {
            Some(pending) => xctx.complete(pending, ctx, locale, &mut list),
            None => xctx.exchange(ctx, locale, &mut list, tag),
        };
        if result.is_ok() {
            sv.tendencies_subset(st, th, tu, &phases.remainder);
        }
    });
    result
}
