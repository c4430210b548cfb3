//! Gathered halo exchange (§3.1.3): "To refine the granularity of data
//! exchange and minimize inter-process communications, a linked list is
//! utilized to gather variables for exchange, and a single call to the
//! communication interface efficiently completes the data exchange for all
//! listed variables."
//!
//! [`VarList`] is the Rust rendering of that linked list: solvers register
//! every field that needs fresh halos, then one [`exchange_gathered`] call
//! packs all of them into a single message per neighbour.

use crate::comm::RankCtx;
use grist_mesh::RankLocale;
use std::fmt;
use sunway_sim::fault::{FaultPlan, FaultSite};
use sunway_sim::trace::{self, EventKind};
use sunway_sim::Metrics;

/// A registered exchange variable: a full-size (global-cell-indexed) field
/// with `nlev` values per cell, of which only the owned cells are valid
/// before the exchange.
pub struct ExchangeVar<'a> {
    pub name: &'static str,
    pub nlev: usize,
    pub data: &'a mut [f64],
}

/// The gather list of variables for one exchange round.
#[derive(Default)]
pub struct VarList<'a> {
    vars: Vec<ExchangeVar<'a>>,
}

impl<'a> VarList<'a> {
    pub fn new() -> Self {
        VarList { vars: Vec::new() }
    }

    /// Append a variable (the "linked list" registration).
    pub fn push(&mut self, name: &'static str, nlev: usize, data: &'a mut [f64]) {
        self.vars.push(ExchangeVar { name, nlev, data });
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Values per cell across all listed variables.
    pub fn values_per_cell(&self) -> usize {
        self.vars.iter().map(|v| v.nlev).sum()
    }

    /// The list's shape: `(name, nlev)` per registered variable, in order.
    /// An async exchange records this at begin time and checks it at
    /// complete time, so the unpack cannot silently land in different
    /// fields than the pack read from.
    pub fn signature(&self) -> Vec<(&'static str, usize)> {
        self.vars.iter().map(|v| (v.name, v.nlev)).collect()
    }
}

/// A failed halo exchange: the packed buffer received from a peer does not
/// match the values the local gather list expects — ranks disagree on the
/// variable list, level counts, or halo layout. The error carries enough
/// context to identify the mismatched pairing without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeError {
    /// Rank that sent the malformed message.
    pub src: usize,
    /// Receiving rank.
    pub rank: usize,
    /// Message tag of the exchange round.
    pub tag: u32,
    /// Values the receiver's list expects (`halo cells × values per cell`).
    pub expected_values: usize,
    /// Values actually received.
    pub got_values: usize,
    /// Halo cells the receiver expects from `src`.
    pub halo_cells: usize,
    /// Sum of `nlev` over the receiver's registered variables.
    pub values_per_cell: usize,
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "halo exchange (tag {}): rank {} received {} values from rank {} \
             but its gather list expects {} ({} halo cells x {} values/cell) — \
             ranks disagree on the variable list or halo layout",
            self.tag,
            self.rank,
            self.got_values,
            self.src,
            self.expected_values,
            self.halo_cells,
            self.values_per_cell,
        )
    }
}

impl std::error::Error for ExchangeError {}

/// What one exchange round moved: message and payload-byte totals from this
/// rank's perspective (sends only, so summing over ranks counts each message
/// once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeReceipt {
    pub messages_sent: u64,
    pub bytes_sent: u64,
}

fn check_buffer(
    ctx: &RankCtx,
    src: usize,
    tag: u32,
    got_values: usize,
    halo_cells: usize,
    values_per_cell: usize,
) -> Result<(), ExchangeError> {
    let expected_values = halo_cells * values_per_cell;
    if got_values != expected_values {
        return Err(ExchangeError {
            src,
            rank: ctx.rank,
            tag,
            expected_values,
            got_values,
            halo_cells,
            values_per_cell,
        });
    }
    Ok(())
}

/// Pack one message per destination rank and send it. The send half of
/// every exchange — synchronous rounds follow it at once with the receive
/// half; the async begin/complete pair splits the two around interior
/// compute.
fn pack_and_send(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &VarList<'_>,
    tag: u32,
) -> ExchangeReceipt {
    let per_cell = list.values_per_cell();
    let mut receipt = ExchangeReceipt::default();
    for (dest, cells) in &locale.send {
        let mut buf = Vec::with_capacity(cells.len() * per_cell);
        for &c in cells {
            for var in &list.vars {
                let base = c as usize * var.nlev;
                buf.extend_from_slice(&var.data[base..base + var.nlev]);
            }
        }
        receipt.messages_sent += 1;
        receipt.bytes_sent += (buf.len() * std::mem::size_of::<f64>()) as u64;
        ctx.send(*dest, tag, buf);
    }
    receipt
}

/// An in-flight async exchange: [`ExchangeCtx::begin`] has packed and sent
/// this rank's halo messages, and the matching [`ExchangeCtx::complete`]
/// call has not yet received the neighbours' replies. Holds the begin-time
/// gather-list signature so the completion can refuse to unpack into a
/// different list.
#[must_use = "an async exchange that is begun must be completed, or peers' messages leak into the parked queue"]
pub struct PendingExchange {
    tag: u32,
    receipt: ExchangeReceipt,
    signature: Vec<(&'static str, usize)>,
}

/// Deterministic event key for the halo-exchange fault site: derived from
/// `(receiving rank, sending rank, tag)` rather than a shared counter, so
/// rank-thread interleaving cannot perturb a seeded fault schedule. Exposed
/// so chaos tests can [`FaultPlan::pin`] a specific message of a specific
/// round.
pub fn halo_fault_key(rank: usize, src: usize, tag: u32) -> u64 {
    ((rank as u64) << 40) ^ ((src as u64) << 20) ^ tag as u64
}

/// The optional instrumentation of a gathered exchange. The default context
/// records nothing and injects nothing.
///
/// `metrics` turns on counter recording — a completed round adds its
/// message/byte totals to `halo.exchanges` / `halo.messages` / `halo.bytes`
/// (per-rank sends, so world totals match [`crate::comm::CommStats`] for
/// exchange-only traffic) — and, with the registry's tracer enabled, event
/// tracing: the round as an [`EventKind::HaloExchange`] duration event and
/// each blocking receive as an [`EventKind::HaloWait`] on the rank's lane.
///
/// `plan` arms the chaos truncation schedule: before each received message
/// is unpacked, the plan decides (keyed on [`halo_fault_key`]) whether it
/// was truncated in flight. An injected truncation drops the buffer's
/// trailing value and ticks `fault.injected` (when a registry is attached
/// — the two fields are independent, a plan alone still injects); the
/// damage then surfaces through the normal malformed-buffer detection as a typed
/// [`ExchangeError`] — the same error path a real size mismatch takes, so
/// recovery code handles both alike. On error the remaining messages of the
/// round are left un-received; a retry after checkpoint restore must use a
/// fresh `tag` so stale parked messages cannot satisfy it.
#[derive(Clone, Copy, Default)]
pub struct ExchangeCtx<'a> {
    pub metrics: Option<&'a Metrics>,
    pub plan: Option<&'a FaultPlan>,
}

impl ExchangeCtx<'_> {
    /// The registry's tracer when one is attached and recording. Rank
    /// threads are dedicated, so the first traced call also declares the
    /// thread's rank: every event it records (including model kernels) then
    /// files under its lane.
    fn tracer(&self, ctx: &RankCtx) -> Option<&trace::Tracer> {
        let tracer = self.metrics.map(|m| m.tracer()).filter(|t| t.is_enabled());
        if tracer.is_some() {
            trace::set_thread_rank(ctx.rank as u32);
        }
        tracer
    }

    /// A round counts once, when its receives have all unpacked cleanly.
    fn count_round(&self, receipt: ExchangeReceipt) {
        if let Some(m) = self.metrics {
            m.counter_add("halo.exchanges", 1);
            m.counter_add("halo.messages", receipt.messages_sent);
            m.counter_add("halo.bytes", receipt.bytes_sent);
        }
    }

    /// Receive one message per source rank (in the locale's mirrored order)
    /// and unpack it into the gather list's halo cells.
    fn recv_and_unpack(
        &self,
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &mut VarList<'_>,
        tag: u32,
        tracer: Option<&trace::Tracer>,
    ) -> Result<(), ExchangeError> {
        let per_cell = list.values_per_cell();
        for (src, cells) in &locale.recv {
            let t_wait = tracer.and_then(|t| t.begin());
            let mut buf = ctx.recv(*src, tag);
            if let (Some(t), Some(t0)) = (tracer, t_wait) {
                t.record_complete(
                    EventKind::HaloWait,
                    &format!("halo_wait<-{src}"),
                    t0,
                    1,
                    (buf.len() * std::mem::size_of::<f64>()) as u64,
                );
            }
            if let Some(plan) = self.plan {
                let key = halo_fault_key(ctx.rank, *src, tag);
                if plan.should_fail(FaultSite::HaloExchange, key, 0) && !buf.is_empty() {
                    if let Some(m) = self.metrics {
                        m.counter_add("fault.injected", 1);
                    }
                    buf.pop();
                }
            }
            check_buffer(ctx, *src, tag, buf.len(), cells.len(), per_cell)?;
            let mut pos = 0;
            for &c in cells {
                for var in &mut list.vars {
                    let base = c as usize * var.nlev;
                    var.data[base..base + var.nlev].copy_from_slice(&buf[pos..pos + var.nlev]);
                    pos += var.nlev;
                }
            }
        }
        Ok(())
    }

    /// One gathered halo exchange: a single send per neighbour carrying
    /// every listed variable, and a matching unpack of the received halos.
    /// A received buffer whose size disagrees with the local gather list is
    /// a descriptive [`ExchangeError`] rather than a slice-index panic.
    pub fn exchange(
        &self,
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &mut VarList<'_>,
        tag: u32,
    ) -> Result<ExchangeReceipt, ExchangeError> {
        let tracer = self.tracer(ctx);
        let t_round = tracer.and_then(|t| t.begin());
        let receipt = pack_and_send(ctx, locale, list, tag);
        let recv_result = self.recv_and_unpack(ctx, locale, list, tag, tracer);
        // The round event is recorded on the error path too: a truncated round
        // still spent real wall time, and its waits are already on the
        // timeline, so omitting it would leave the analyzer's halo wait total
        // exceeding its round total. The `halo.*` success counters keep
        // their error-free semantics.
        if let (Some(t), Some(t0)) = (tracer, t_round) {
            t.record_complete(
                EventKind::HaloExchange,
                "halo_exchange",
                t0,
                receipt.messages_sent,
                receipt.bytes_sent,
            );
        }
        recv_result?;
        self.count_round(receipt);
        Ok(receipt)
    }

    /// Begin an asynchronous gathered halo exchange: pack and send this
    /// rank's halo messages, then return immediately so the caller can run
    /// halo-independent interior kernels while neighbours' messages are in
    /// flight. Pair with [`Self::complete`] on the same gather list. The
    /// overlapped pair is bitwise-equal to one [`Self::exchange`] call:
    /// identical messages, identical unpack order. The pack+send half lands
    /// as a `halo_pack_send` event; `halo.*` counters tick at completion so
    /// sync and async rounds count identically.
    pub fn begin(
        &self,
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &VarList<'_>,
        tag: u32,
    ) -> PendingExchange {
        let tracer = self.tracer(ctx);
        let t0 = tracer.and_then(|t| t.begin());
        let receipt = pack_and_send(ctx, locale, list, tag);
        // The pack+send half carries the round's message/byte counts; the
        // completion half records a zero-count HaloExchange event, so an async
        // round's *transfer* time (total minus wait) stays comparable with a
        // synchronous round's even though it spans two events.
        if let (Some(t), Some(t0)) = (tracer, t0) {
            t.record_complete(
                EventKind::HaloExchange,
                "halo_pack_send",
                t0,
                receipt.messages_sent,
                receipt.bytes_sent,
            );
        }
        PendingExchange {
            tag,
            receipt,
            signature: list.signature(),
        }
    }

    /// Complete an asynchronous exchange begun with [`Self::begin`]: receive
    /// one message per neighbour (in the locale's mirrored order) and unpack
    /// the halos into `list`. Each blocking receive lands as a `halo_wait`
    /// event, and an armed plan applies the same truncation schedule as
    /// [`Self::exchange`], so injected halo faults surface as the same typed
    /// [`ExchangeError`]. Panics with a descriptive message if `list`'s
    /// shape differs from the one the exchange began with.
    pub fn complete(
        &self,
        pending: PendingExchange,
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &mut VarList<'_>,
    ) -> Result<ExchangeReceipt, ExchangeError> {
        assert_eq!(
            pending.signature,
            list.signature(),
            "async exchange (tag {}) completed with a different gather list than it began with \
             — pack read from one set of fields, unpack would land in another",
            pending.tag
        );
        let tracer = self.tracer(ctx);
        let t0 = tracer.and_then(|t| t.begin());
        let recv_result = self.recv_and_unpack(ctx, locale, list, pending.tag, tracer);
        if let (Some(t), Some(t0)) = (tracer, t0) {
            // Zero counts: the round's messages/bytes were recorded by the
            // begin half.
            t.record_complete(EventKind::HaloExchange, "halo_recv_unpack", t0, 0, 0);
        }
        recv_result?;
        self.count_round(pending.receipt);
        Ok(pending.receipt)
    }
}

/// One uninstrumented gathered halo exchange: [`ExchangeCtx::exchange`] on
/// the default context.
pub fn exchange_gathered(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &mut VarList<'_>,
    tag: u32,
) -> Result<ExchangeReceipt, ExchangeError> {
    ExchangeCtx::default().exchange(ctx, locale, list, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_world;
    use grist_mesh::{HaloLayout, HexMesh, Partition};
    use std::sync::atomic::Ordering;

    /// The naive alternative (one message per variable per neighbour): the
    /// reference `gathering_cuts_message_count_not_bytes` compares against.
    fn exchange_per_variable(
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &mut VarList<'_>,
        tag: u32,
    ) -> Result<ExchangeReceipt, ExchangeError> {
        let mut receipt = ExchangeReceipt::default();
        for vi in 0..list.vars.len() {
            let t = tag + vi as u32;
            for (dest, cells) in &locale.send {
                let var = &list.vars[vi];
                let mut buf = Vec::with_capacity(cells.len() * var.nlev);
                for &c in cells {
                    let base = c as usize * var.nlev;
                    buf.extend_from_slice(&var.data[base..base + var.nlev]);
                }
                receipt.messages_sent += 1;
                receipt.bytes_sent += (buf.len() * std::mem::size_of::<f64>()) as u64;
                ctx.send(*dest, t, buf);
            }
            for (src, cells) in &locale.recv {
                let buf = ctx.recv(*src, t);
                let var = &mut list.vars[vi];
                check_buffer(ctx, *src, t, buf.len(), cells.len(), var.nlev)?;
                let mut pos = 0;
                for &c in cells {
                    let base = c as usize * var.nlev;
                    var.data[base..base + var.nlev].copy_from_slice(&buf[pos..pos + var.nlev]);
                    pos += var.nlev;
                }
            }
        }
        Ok(receipt)
    }

    /// Each rank fills its owned cells with `f(cell, lev, var)`; after the
    /// exchange every halo cell must match the owner's values.
    fn halo_roundtrip(gathered: bool) -> (u64, u64) {
        let mesh = HexMesh::build(3);
        let parts = 5;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let nlev = [3usize, 1, 2];
        let truth = |v: usize, c: usize, k: usize| (v * 1000 + c * 10 + k) as f64;

        let (results, stats) = run_world(parts, |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut fields: Vec<Vec<f64>> = nlev.iter().map(|&l| vec![f64::NAN; n * l]).collect();
            for &c in &locale.owned_cells {
                for (v, field) in fields.iter_mut().enumerate() {
                    for k in 0..nlev[v] {
                        field[c as usize * nlev[v] + k] = truth(v, c as usize, k);
                    }
                }
            }
            {
                const NAMES: [&str; 3] = ["a", "b", "c"];
                let mut list = VarList::new();
                for (v, field) in fields.iter_mut().enumerate() {
                    list.push(NAMES[v], nlev[v], field);
                }
                let receipt = if gathered {
                    exchange_gathered(&mut ctx, locale, &mut list, 10)
                } else {
                    exchange_per_variable(&mut ctx, locale, &mut list, 10)
                }
                .expect("well-formed world must exchange cleanly");
                assert_eq!(
                    receipt.messages_sent as usize,
                    locale.send.len() * if gathered { 1 } else { nlev.len() }
                );
            }
            // Verify all halo cells.
            for (_, cells) in &locale.recv {
                for &c in cells {
                    for (v, field) in fields.iter().enumerate() {
                        for k in 0..nlev[v] {
                            let got = field[c as usize * nlev[v] + k];
                            assert_eq!(got, truth(v, c as usize, k), "halo value wrong");
                        }
                    }
                }
            }
            0u8
        });
        assert_eq!(results.len(), parts);
        (
            stats.messages.load(Ordering::Relaxed),
            stats.bytes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn gathered_exchange_fills_halos_correctly() {
        halo_roundtrip(true);
    }

    #[test]
    fn per_variable_exchange_fills_halos_correctly() {
        halo_roundtrip(false);
    }

    #[test]
    fn short_buffer_is_a_descriptive_error_not_a_panic() {
        // Two ranks that disagree on the variable list: rank 0 registers one
        // variable, rank 1 registers two. Rank 1's receive must fail with a
        // diagnosable ExchangeError instead of panicking mid-unpack.
        let mesh = HexMesh::build(2);
        let parts = 2;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let (results, _) = run_world(parts, move |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut f0 = vec![0.0f64; n * 2];
            let mut f1 = vec![0.0f64; n * 3];
            let mut list = VarList::new();
            list.push("a", 2, &mut f0);
            if ctx.rank == 1 {
                list.push("b", 3, &mut f1);
            }
            exchange_gathered(&mut ctx, locale, &mut list, 7).err()
        });
        // The disagreement is visible from both sides: each rank receives a
        // buffer sized for the *other* list.
        let err = results[1]
            .clone()
            .expect("rank 1 expects 5 values/cell but receives 2 — must error");
        let err0 = results[0]
            .clone()
            .expect("rank 0 expects 2 values/cell but receives 5 — must error");
        assert_eq!(err0.values_per_cell, 2);
        assert_eq!(err0.got_values, err0.halo_cells * 5);
        assert_eq!(err.rank, 1);
        assert_eq!(err.src, 0);
        assert_eq!(err.tag, 7);
        assert_eq!(err.values_per_cell, 5);
        assert_eq!(err.expected_values, err.halo_cells * 5);
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "missing receiver rank: {msg}");
        assert!(msg.contains("tag 7"), "missing tag: {msg}");
        assert!(
            msg.contains("halo cells"),
            "missing layout diagnosis: {msg}"
        );
    }

    #[test]
    fn gathering_cuts_message_count_not_bytes() {
        // Allreduce-free comparison: 3 variables gathered into 1 message per
        // neighbour must send 3x fewer messages but identical payload bytes.
        let (m_gather, b_gather) = halo_roundtrip(true);
        let (m_naive, b_naive) = halo_roundtrip(false);
        assert_eq!(b_gather, b_naive, "payload volume must be identical");
        assert_eq!(m_naive, 3 * m_gather, "3 vars should gather 3:1");
    }

    /// What one rank saw of one exchange round.
    struct RankOutcome {
        /// Raw bits of the whole field after the round (halos started NaN).
        bits: Vec<u64>,
        result: Result<ExchangeReceipt, ExchangeError>,
        /// `halo.exchanges`, `halo.messages`, `halo.bytes`, `fault.injected`.
        counters: [u64; 4],
        /// `halo.exchanges` between begin and complete (async only).
        exchanges_after_begin: Option<u64>,
    }

    /// One round on `layout`'s world through [`ExchangeCtx`], synchronously
    /// or as a begin/complete pair. Every rank keeps a registry of its own;
    /// the context sees it only when `metered`. Also returns the world's
    /// message and byte totals.
    fn run_round(
        layout: &HaloLayout,
        n: usize,
        metered: bool,
        plan: Option<&FaultPlan>,
        asynchronous: bool,
        tag: u32,
    ) -> (Vec<RankOutcome>, u64, u64) {
        const NLEV: usize = 3;
        let (results, stats) = run_world(layout.locales.len(), |mut ctx| {
            let metrics = Metrics::default();
            let xctx = ExchangeCtx {
                metrics: metered.then_some(&metrics),
                plan,
            };
            let locale = &layout.locales[ctx.rank];
            let mut field = vec![f64::NAN; n * NLEV];
            for &c in &locale.owned_cells {
                for k in 0..NLEV {
                    field[c as usize * NLEV + k] = ((c as usize) * 10 + k) as f64 / 3.0;
                }
            }
            let mut exchanges_after_begin = None;
            let result = {
                let mut list = VarList::new();
                list.push("h", NLEV, &mut field);
                if asynchronous {
                    let pending = xctx.begin(&mut ctx, locale, &list, tag);
                    // Interior compute would run here, overlapped with the
                    // in-flight messages.
                    exchanges_after_begin = Some(metrics.counter("halo.exchanges"));
                    xctx.complete(pending, &mut ctx, locale, &mut list)
                } else {
                    xctx.exchange(&mut ctx, locale, &mut list, tag)
                }
            };
            RankOutcome {
                bits: field.iter().map(|v| v.to_bits()).collect(),
                result,
                counters: [
                    metrics.counter("halo.exchanges"),
                    metrics.counter("halo.messages"),
                    metrics.counter("halo.bytes"),
                    metrics.counter("fault.injected"),
                ],
                exchanges_after_begin,
            }
        });
        (
            results,
            stats.messages.load(Ordering::Relaxed),
            stats.bytes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn exchange_context_table_sync_and_async_agree_under_every_instrumentation() {
        let mesh = HexMesh::build(3);
        let partition = Partition::build(&mesh, 4, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let tag = 31u32;
        // Dispatch-only faults armed: the halo site stays quiet.
        let quiet = FaultPlan::new(4).with_rate(FaultSite::Dispatch, 1.0);
        // Pick a (receiver, sender) pair that actually exchanges.
        let victim = layout
            .locales
            .iter()
            .find(|l| !l.recv.is_empty())
            .expect("some rank has halos");
        let (rank, src) = (victim.rank, victim.recv[0].0);
        let pinned = FaultPlan::new(0).pin(FaultSite::HaloExchange, halo_fault_key(rank, src, tag));

        let (reference, world_msgs, world_bytes) = run_round(&layout, n, false, None, false, tag);
        let receipts: Vec<ExchangeReceipt> = reference
            .iter()
            .map(|o| o.result.clone().expect("uniform lists exchange cleanly"))
            .collect();
        // Per-rank send-side receipts must sum to the world's comm totals.
        assert!(world_msgs > 0, "level-3 mesh over 4 ranks must have halos");
        assert_eq!(
            receipts.iter().map(|r| r.messages_sent).sum::<u64>(),
            world_msgs
        );
        assert_eq!(
            receipts.iter().map(|r| r.bytes_sent).sum::<u64>(),
            world_bytes
        );

        let clean_rows = [
            ("none", false, None),
            ("metrics", true, None),
            ("quiet plan only", false, Some(&quiet)),
            ("metrics+quiet plan", true, Some(&quiet)),
        ];
        for (label, metered, plan) in clean_rows {
            let (sync, ..) = run_round(&layout, n, metered, plan, false, tag);
            let (asyn, ..) = run_round(&layout, n, metered, plan, true, tag);
            for (r, (s, a)) in sync.iter().zip(&asyn).enumerate() {
                let at = format!("{label}, rank {r}");
                // Bitwise-equal unpacked halos and equal receipts across
                // every instrumentation and both protocols.
                assert_eq!(s.bits, reference[r].bits, "{at}: sync halos");
                assert_eq!(a.bits, reference[r].bits, "{at}: async halos");
                assert_eq!(s.result, reference[r].result, "{at}: sync receipt");
                assert_eq!(a.result, reference[r].result, "{at}: async receipt");
                // One round, counted once; nothing injected; nothing
                // recorded without a registry.
                let want = if metered {
                    [1, receipts[r].messages_sent, receipts[r].bytes_sent, 0]
                } else {
                    [0; 4]
                };
                assert_eq!(s.counters, want, "{at}: sync counters");
                assert_eq!(a.counters, want, "{at}: async counters");
                assert_eq!(
                    a.exchanges_after_begin,
                    Some(0),
                    "{at}: the round counts once, at completion"
                );
            }
        }

        // The pinned truncation surfaces as the same typed error through
        // both protocols, on exactly the named message — with or without a
        // registry: a plan alone still injects, it just counts nowhere.
        for metered in [true, false] {
            let (sync, ..) = run_round(&layout, n, metered, Some(&pinned), false, tag);
            let (asyn, ..) = run_round(&layout, n, metered, Some(&pinned), true, tag);
            for (r, (s, a)) in sync.iter().zip(&asyn).enumerate() {
                let at = format!("metered {metered}, rank {r}");
                assert_eq!(s.result, a.result, "{at}: sync and async results");
                assert_eq!(s.counters, a.counters, "{at}: sync and async counters");
                if r == rank {
                    let e = s.result.clone().expect_err("the pinned message must fail");
                    assert_eq!(e.src, src);
                    assert_eq!(e.tag, tag);
                    assert_eq!(
                        e.got_values,
                        e.expected_values - 1,
                        "truncation drops exactly the trailing value"
                    );
                    let want = [0, 0, 0, u64::from(metered)];
                    assert_eq!(s.counters, want, "{at}: one injection, no counted round");
                } else {
                    assert_eq!(s.result, reference[r].result, "{at} was not targeted");
                    assert_eq!(s.counters[3], 0, "{at} was not targeted");
                }
            }
        }
    }

    #[test]
    fn async_completion_with_a_different_list_panics_descriptively() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mesh = HexMesh::build(2);
        let parts = 2;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut f0 = vec![0.0f64; n * 2];
                let mut f1 = vec![0.0f64; n * 3];
                let mut list = VarList::new();
                list.push("a", 2, &mut f0);
                let xctx = ExchangeCtx::default();
                let pending = xctx.begin(&mut ctx, locale, &list, 4);
                // Complete with a *different* gather list: must refuse.
                let mut other = VarList::new();
                other.push("b", 3, &mut f1);
                let _ = xctx.complete(pending, &mut ctx, locale, &mut other);
            })
        }))
        .expect_err("signature mismatch must panic, not corrupt fields");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("different gather list"),
            "panic must explain the misuse: {msg}"
        );
    }

    #[test]
    fn generative_roundtrip_under_permuted_partitions_and_lists() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mesh = HexMesh::build(3);
        let n = mesh.n_cells();
        const NAMES: [&str; 4] = ["w", "x", "y", "z"];
        fn truth(seed: u64, v: usize, c: usize, k: usize) -> f64 {
            (seed + 1) as f64 * 1.0e7 + (v * 100_000 + c * 10 + k) as f64
        }
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
            let parts = rng.gen_range(2usize..7);
            let iters = rng.gen_range(0usize..4);
            let partition = Partition::build(&mesh, parts, iters);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let n_vars = rng.gen_range(1usize..5);
            let nlev: Vec<usize> = (0..n_vars).map(|_| rng.gen_range(1usize..5)).collect();
            // Every rank registers in the same permuted order; unpack must
            // still land each variable's halos in the right field.
            let mut order: Vec<usize> = (0..n_vars).collect();
            order.shuffle(&mut rng);
            let (checked, _) = run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut fields: Vec<Vec<f64>> =
                    nlev.iter().map(|&l| vec![f64::NAN; n * l]).collect();
                for &c in &locale.owned_cells {
                    for (v, field) in fields.iter_mut().enumerate() {
                        for k in 0..nlev[v] {
                            field[c as usize * nlev[v] + k] = truth(seed, v, c as usize, k);
                        }
                    }
                }
                {
                    let mut refs: Vec<Option<&mut Vec<f64>>> =
                        fields.iter_mut().map(Some).collect();
                    let mut list = VarList::new();
                    for &v in &order {
                        // A shuffled permutation visits each index once; a
                        // buggy order generator would repeat one, and the
                        // second take() would find the slot empty.
                        let field = refs[v].take().unwrap_or_else(|| {
                            panic!(
                                "seed {seed}: registration order {order:?} repeats variable \
                                 {:?} — each field can be pushed to the gather list only once",
                                NAMES[v]
                            )
                        });
                        list.push(NAMES[v], nlev[v], field);
                    }
                    exchange_gathered(&mut ctx, locale, &mut list, 100 + seed as u32)
                        .expect("agreeing permuted lists must exchange cleanly");
                }
                let mut checked = 0usize;
                for (_, cells) in &locale.recv {
                    for &c in cells {
                        for (v, field) in fields.iter().enumerate() {
                            for k in 0..nlev[v] {
                                assert_eq!(
                                    field[c as usize * nlev[v] + k],
                                    truth(seed, v, c as usize, k),
                                    "seed {seed}: halo value wrong for var {v}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
                checked
            });
            assert!(
                checked.iter().sum::<usize>() > 0,
                "seed {seed}: world had no halos to verify"
            );
        }
    }

    #[test]
    fn generative_truncated_buffers_error_deterministically() {
        let mesh = HexMesh::build(2);
        let n = mesh.n_cells();
        let mut total_errs = 0usize;
        for seed in 0..8u64 {
            let parts = 3 + (seed as usize % 3);
            let partition = Partition::build(&mesh, parts, 2);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let plan = FaultPlan::new(seed).with_rate(FaultSite::HaloExchange, 0.4);
            let storm = |plan: &FaultPlan| {
                let (results, _) = run_world(parts, |mut ctx| {
                    let metrics = sunway_sim::Metrics::default();
                    let locale = &layout.locales[ctx.rank];
                    let mut f0 = vec![1.0f64; n * 2];
                    let mut list = VarList::new();
                    list.push("a", 2, &mut f0);
                    let xctx = ExchangeCtx {
                        metrics: Some(&metrics),
                        plan: Some(plan),
                    };
                    let res = xctx.exchange(&mut ctx, locale, &mut list, 5);
                    (res.err(), metrics.counter("fault.injected"))
                });
                results
            };
            let first = storm(&plan);
            let second = storm(&plan);
            assert_eq!(
                first, second,
                "seed {seed}: fault schedule must not depend on thread timing"
            );
            for (rank, (err, injected)) in first.iter().enumerate() {
                match err {
                    None => assert_eq!(
                        *injected, 0,
                        "seed {seed} rank {rank}: injection must surface as an error"
                    ),
                    Some(e) => {
                        total_errs += 1;
                        assert_eq!(e.rank, rank);
                        assert_eq!(
                            e.got_values,
                            e.expected_values - 1,
                            "seed {seed}: truncation drops exactly one value"
                        );
                        assert!(*injected >= 1);
                    }
                }
            }
        }
        assert!(
            total_errs > 0,
            "a 40% truncation rate over 8 worlds must fire at least once"
        );
    }

    #[test]
    fn generative_list_disagreement_is_caught_by_every_involved_rank() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mesh = HexMesh::build(2);
        let n = mesh.n_cells();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37));
            let parts = rng.gen_range(2usize..6);
            let culprit = rng.gen_range(0usize..parts);
            let extra_nlev = rng.gen_range(1usize..4);
            let partition = Partition::build(&mesh, parts, 2);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let (results, _) = run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut f0 = vec![0.0f64; n * 2];
                let mut f1 = vec![0.0f64; n * extra_nlev];
                let mut list = VarList::new();
                list.push("a", 2, &mut f0);
                if ctx.rank == culprit {
                    list.push("b", extra_nlev, &mut f1);
                }
                exchange_gathered(&mut ctx, locale, &mut list, 9).err()
            });
            for (rank, err) in results.iter().enumerate() {
                let recv_from: Vec<usize> =
                    layout.locales[rank].recv.iter().map(|&(s, _)| s).collect();
                if rank == culprit && !recv_from.is_empty() {
                    let e = err.clone().expect("culprit expects more values than sent");
                    assert_eq!(e.values_per_cell, 2 + extra_nlev, "seed {seed}");
                } else if recv_from.contains(&culprit) {
                    // An earlier neighbour's message is clean, so the error —
                    // when it comes — must blame the culprit.
                    let e = err.clone().expect("culprit's neighbours must detect");
                    assert_eq!(e.src, culprit, "seed {seed}");
                    assert_eq!(e.got_values, e.halo_cells * (2 + extra_nlev));
                } else {
                    assert!(err.is_none(), "seed {seed} rank {rank}: {err:?}");
                }
            }
        }
    }
}
