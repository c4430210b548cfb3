//! `omnicopy` and the LDM scratch arena (§3.3.2): "to further utilize the
//! rest 128KB LDM, we use the device clause to enable functions to allocate
//! their stack and private variables in LDM, and implement a cross-platform
//! omnicopy function as a replacement for memcpy. This function can
//! determine whether data transfer occurs between main memory and LDM,
//! utilizing DMA automatically when feasible. On non-Sunway platforms,
//! omnicopy functions identically to memcpy."
//!
//! Here the copy is always a real `copy_from_slice`; what the Sunway side
//! adds is *accounting*: which address space each side lives in, whether the
//! transfer engages the DMA engine, and the modeled DMA time.
//!
//! [`stage_chunks`] builds the get→compute→put staging loop on top of
//! [`omnicopy`], in both scheduling modes of [`DmaMode`]: synchronous
//! (one chunk at a time) and double-buffered (two LDM slots, the get of
//! chunk *k+1* issued before the compute of chunk *k* — the overlap the
//! paper's hand-tuned kernels live on). Both modes move identical bytes in
//! identical chunks, so their [`CopyStats`] DMA counters agree exactly.

use crate::arch::SunwaySpec;
use crate::fault::{FaultPlan, FaultSite};
use crate::substrate::DmaMode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Address space of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// CG shared main memory (DDR4).
    Main,
    /// Per-CPE local device memory.
    Ldm,
}

/// Transfer statistics collected by [`omnicopy`].
#[derive(Debug, Default)]
pub struct CopyStats {
    pub dma_transfers: AtomicU64,
    pub dma_bytes: AtomicU64,
    pub local_copies: AtomicU64,
    pub local_bytes: AtomicU64,
}

impl CopyStats {
    /// `(dma_transfers, dma_bytes)` as plain values — the counter pair the
    /// pipeline-parity gates compare between DMA modes.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.dma_transfers.load(Ordering::Relaxed),
            self.dma_bytes.load(Ordering::Relaxed),
        )
    }

    /// Modeled total DMA time for the recorded transfers.
    pub fn dma_time(&self, spec: &SunwaySpec) -> f64 {
        let n = self.dma_transfers.load(Ordering::Relaxed) as f64;
        let b = self.dma_bytes.load(Ordering::Relaxed) as f64;
        n * spec.dma_latency + b / spec.ddr_bandwidth
    }
}

/// Copy `src` into `dst`, classifying the transfer. Cross-space transfers
/// engage the (simulated) DMA engine; same-space copies are plain memcpys.
pub fn omnicopy<T: Copy>(
    dst: &mut [T],
    dst_space: Space,
    src: &[T],
    src_space: Space,
    stats: &CopyStats,
) {
    assert_eq!(dst.len(), src.len(), "omnicopy length mismatch");
    dst.copy_from_slice(src);
    let bytes = std::mem::size_of_val(src) as u64;
    if dst_space != src_space {
        stats.dma_transfers.fetch_add(1, Ordering::Relaxed);
        stats.dma_bytes.fetch_add(bytes, Ordering::Relaxed);
    } else {
        stats.local_copies.fetch_add(1, Ordering::Relaxed);
        stats.local_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// The user-managed half of a CPE's LDM: a bump arena with a hard capacity,
/// backing the "stack and private variables in LDM" usage. Exceeding the
/// budget is an explicit error — on the real chip it is a crash.
#[derive(Debug)]
pub struct LdmArena {
    capacity: usize,
    used: usize,
    high_water: usize,
}

/// Error returned when an LDM allocation exceeds the remaining budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdmOverflow {
    pub requested: usize,
    pub available: usize,
}

impl std::fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LDM overflow: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}
impl std::error::Error for LdmOverflow {}

impl LdmArena {
    /// Arena over the non-cache half of the LDM.
    pub fn new(spec: &SunwaySpec) -> Self {
        LdmArena {
            capacity: spec.ldm_bytes - spec.ldcache_bytes,
            used: 0,
            high_water: 0,
        }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        LdmArena {
            capacity,
            used: 0,
            high_water: 0,
        }
    }

    /// Reserve space for `n` values of `T`; returns an owned scratch buffer
    /// (host memory standing in for LDM) charged against the budget.
    pub fn alloc<T: Copy + Default>(&mut self, n: usize) -> Result<Vec<T>, LdmOverflow> {
        let bytes = n * std::mem::size_of::<T>();
        if self.used + bytes > self.capacity {
            return Err(LdmOverflow {
                requested: bytes,
                available: self.capacity - self.used,
            });
        }
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        Ok(vec![T::default(); n])
    }

    /// Release `n` values of `T` (stack discipline is the caller's job, as
    /// on the real hardware).
    pub fn free<T>(&mut self, n: usize) {
        self.used = self.used.saturating_sub(n * std::mem::size_of::<T>());
    }

    pub fn used(&self) -> usize {
        self.used
    }
    pub fn capacity(&self) -> usize {
        self.capacity
    }
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Outcome of one [`stage_chunks`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineReport {
    /// Total chunks the loop covered (staged + degraded).
    pub chunks: u64,
    /// Chunks that went through the LDM get→compute→put path.
    pub staged: u64,
    /// Gets issued *ahead* of the compute consuming them (double-buffered
    /// only; a clean double-buffered run over `n` chunks prefetches
    /// `n − 1`).
    pub prefetches: u64,
    /// Injected DMA faults observed (every attempt that fired).
    pub injected: u64,
    /// Re-issued gets after a transient fault.
    pub retries: u64,
    /// First chunk index processed on the degraded serial path, if a get
    /// fault persisted through the retry budget.
    pub degraded_at: Option<u64>,
}

/// Fault consultation for one chunk get: same retry discipline as the
/// substrate's dispatch path. `Err(())` means the fault persisted through
/// the budget and the pipeline must degrade.
fn consult_get(plan: Option<&FaultPlan>, report: &mut PipelineReport) -> Result<(), ()> {
    let Some(plan) = plan else { return Ok(()) };
    let key = plan.next_dma_key();
    let mut attempt = 0u32;
    while plan.should_fail(FaultSite::Dma, key, attempt) {
        report.injected += 1;
        if attempt >= plan.max_retries() {
            return Err(());
        }
        report.retries += 1;
        attempt += 1;
    }
    Ok(())
}

/// Run `compute` over `data` in place, `chunk_len` elements at a time,
/// staging each chunk through LDM: get (Main→LDM), compute on the LDM
/// slot, put (LDM→Main).
///
/// **Scheduling.** [`DmaMode::Synchronous`] uses one LDM slot and fully
/// serializes get/compute/put per chunk. [`DmaMode::DoubleBuffered`] allocs
/// two slots and issues the get of chunk *k+1* into the idle slot before
/// computing chunk *k* (so the transfer is in flight under the compute);
/// after the last compute the final put drains the pipeline. Both modes
/// perform exactly one get and one put per chunk — byte-for-byte identical
/// [`CopyStats`] — and, since `compute` sees each chunk's bytes exactly
/// once in index order, bitwise-identical `data`.
///
/// **Faults.** If a [`FaultPlan`] is given, every chunk *get* draws one
/// [`FaultSite::Dma`] key (in chunk order — the same key sequence in both
/// modes, so a pinned key names the same chunk regardless of scheduling).
/// A fault that persists through the retry budget degrades the rest of the
/// loop to the serial path: the chunk already resident in LDM (the
/// double-buffered case) is still computed and put back — the drain — and
/// every chunk from the failed get onward is computed directly in main
/// memory, with no further DMA traffic or consultations. Results remain
/// bitwise identical; only where the work ran changes.
///
/// Errors with [`LdmOverflow`] if the slots don't fit the arena (double
/// buffering needs two, halving the largest usable `chunk_len`).
pub fn stage_chunks<T, F>(
    mode: DmaMode,
    arena: &mut LdmArena,
    chunk_len: usize,
    data: &mut [T],
    stats: &CopyStats,
    fault: Option<&FaultPlan>,
    mut compute: F,
) -> Result<PipelineReport, LdmOverflow>
where
    T: Copy + Default,
    F: FnMut(usize, &mut [T]),
{
    assert!(chunk_len > 0, "stage_chunks needs a positive chunk length");
    let n = data.len().div_ceil(chunk_len);
    let mut report = PipelineReport {
        chunks: n as u64,
        ..Default::default()
    };
    if n == 0 {
        return Ok(report);
    }
    let data_len = data.len();
    let chunk_range = move |k: usize| (k * chunk_len)..((k + 1) * chunk_len).min(data_len);

    match mode {
        DmaMode::Synchronous => {
            let mut slot: Vec<T> = arena.alloc(chunk_len)?;
            for k in 0..n {
                let rng = chunk_range(k);
                if report.degraded_at.is_none() && consult_get(fault, &mut report).is_err() {
                    report.degraded_at = Some(k as u64);
                }
                if report.degraded_at.is_some() {
                    compute(k, &mut data[rng]);
                    continue;
                }
                let len = rng.len();
                let ldm = &mut slot[..len];
                omnicopy(ldm, Space::Ldm, &data[rng.clone()], Space::Main, stats);
                compute(k, ldm);
                omnicopy(&mut data[rng], Space::Main, &slot[..len], Space::Ldm, stats);
                report.staged += 1;
            }
            arena.free::<T>(chunk_len);
        }
        DmaMode::DoubleBuffered => {
            let mut slots: [Vec<T>; 2] = [arena.alloc(chunk_len)?, arena.alloc(chunk_len)?];
            // Pipeline fill: get chunk 0.
            let mut resident = if consult_get(fault, &mut report).is_ok() {
                let rng = chunk_range(0);
                omnicopy(
                    &mut slots[0][..rng.len()],
                    Space::Ldm,
                    &data[rng],
                    Space::Main,
                    stats,
                );
                true
            } else {
                report.degraded_at = Some(0);
                false
            };
            for k in 0..n {
                if !resident {
                    // Serial path: the get for this chunk failed (or an
                    // earlier one did) — compute directly in main memory.
                    compute(k, &mut data[chunk_range(k)]);
                    continue;
                }
                // Prefetch chunk k+1 into the idle slot *before* computing
                // chunk k — the overlap point of the double buffer.
                let mut next_resident = false;
                if k + 1 < n {
                    if consult_get(fault, &mut report).is_ok() {
                        let rng = chunk_range(k + 1);
                        omnicopy(
                            &mut slots[(k + 1) % 2][..rng.len()],
                            Space::Ldm,
                            &data[rng],
                            Space::Main,
                            stats,
                        );
                        report.prefetches += 1;
                        next_resident = true;
                    } else {
                        report.degraded_at = Some(k as u64 + 1);
                    }
                }
                // Compute chunk k and drain its put — this happens even
                // when the prefetch just failed (the in-flight chunk is
                // completed cleanly, not dropped).
                let rng = chunk_range(k);
                let ldm = &mut slots[k % 2][..rng.len()];
                compute(k, ldm);
                omnicopy(
                    &mut data[rng.clone()],
                    Space::Main,
                    &slots[k % 2][..rng.len()],
                    Space::Ldm,
                    stats,
                );
                report.staged += 1;
                resident = next_resident;
            }
            arena.free::<T>(2 * chunk_len);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_space_copy_is_dma() {
        let stats = CopyStats::default();
        let src = vec![1.0f64; 100];
        let mut dst = vec![0.0f64; 100];
        omnicopy(&mut dst, Space::Ldm, &src, Space::Main, &stats);
        assert_eq!(dst, src);
        assert_eq!(stats.dma_transfers.load(Ordering::Relaxed), 1);
        assert_eq!(stats.dma_bytes.load(Ordering::Relaxed), 800);
        assert_eq!(stats.local_copies.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn same_space_copy_is_memcpy() {
        let stats = CopyStats::default();
        let src = vec![7u32; 64];
        let mut dst = vec![0u32; 64];
        omnicopy(&mut dst, Space::Main, &src, Space::Main, &stats);
        assert_eq!(dst, src);
        assert_eq!(stats.dma_transfers.load(Ordering::Relaxed), 0);
        assert_eq!(stats.local_bytes.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn dma_time_includes_latency_and_bandwidth() {
        let spec = SunwaySpec::next_gen();
        let stats = CopyStats::default();
        let src = vec![0u8; 1_000_000];
        let mut dst = vec![0u8; 1_000_000];
        omnicopy(&mut dst, Space::Ldm, &src, Space::Main, &stats);
        let t = stats.dma_time(&spec);
        assert!(t > spec.dma_latency);
        assert!(t > 1_000_000.0 / spec.ddr_bandwidth);
    }

    #[test]
    fn ldm_arena_enforces_the_128kb_budget() {
        let spec = SunwaySpec::next_gen();
        let mut arena = LdmArena::new(&spec);
        assert_eq!(arena.capacity(), 128 * 1024);
        // 16K f64 = 128 KB exactly.
        let a: Vec<f64> = arena.alloc(16 * 1024 - 8).unwrap();
        assert!(!a.is_empty());
        let err = arena.alloc::<f64>(1024).unwrap_err();
        assert!(err.available < 1024 * 8);
    }

    #[test]
    fn ldm_arena_free_returns_budget() {
        let mut arena = LdmArena::with_capacity(1024);
        let _a: Vec<f64> = arena.alloc(64).unwrap();
        assert_eq!(arena.used(), 512);
        arena.free::<f64>(64);
        assert_eq!(arena.used(), 0);
        assert_eq!(arena.high_water(), 512);
        let _b: Vec<f64> = arena.alloc(128).unwrap();
        assert_eq!(arena.used(), 1024);
    }

    /// Reference for the staged runs: the same compute applied chunkwise
    /// straight on main memory.
    fn serial_reference(chunk_len: usize, data: &mut [f32]) {
        let n = data.len().div_ceil(chunk_len);
        for k in 0..n {
            let rng = k * chunk_len..((k + 1) * chunk_len).min(data.len());
            for (i, v) in data[rng].iter_mut().enumerate() {
                *v = v.mul_add(1.5, (k * 1000 + i) as f32);
            }
        }
    }

    fn run_staged(
        mode: DmaMode,
        len: usize,
        chunk_len: usize,
    ) -> (Vec<f32>, PipelineReport, u64, u64) {
        let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 3.0).collect();
        let mut arena = LdmArena::with_capacity(64 * 1024);
        let stats = CopyStats::default();
        let report = stage_chunks(
            mode,
            &mut arena,
            chunk_len,
            &mut data,
            &stats,
            None,
            |k, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = v.mul_add(1.5, (k * 1000 + i) as f32);
                }
            },
        )
        .unwrap();
        assert_eq!(arena.used(), 0, "slots must be freed");
        (
            data,
            report,
            stats.dma_transfers.load(Ordering::Relaxed),
            stats.dma_bytes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn staged_modes_are_bitwise_equal_with_identical_dma_counters() {
        // Chunk counts: 1, even, odd, non-divisible tail, single-element tail.
        for (len, chunk_len) in [(16, 16), (64, 16), (48, 16), (70, 16), (33, 16), (5, 2)] {
            let mut expect: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 3.0).collect();
            serial_reference(chunk_len, &mut expect);
            let (d_sync, r_sync, n_sync, b_sync) = run_staged(DmaMode::Synchronous, len, chunk_len);
            let (d_db, r_db, n_db, b_db) = run_staged(DmaMode::DoubleBuffered, len, chunk_len);
            assert_eq!(d_sync, expect, "sync result ({len}/{chunk_len})");
            assert_eq!(d_db, expect, "double-buffered result ({len}/{chunk_len})");
            // DMA-counter accounting identical between modes: one get and
            // one put per chunk, same bytes.
            assert_eq!((n_sync, b_sync), (n_db, b_db), "({len}/{chunk_len})");
            let chunks = len.div_ceil(chunk_len) as u64;
            assert_eq!(n_sync, 2 * chunks);
            // get + put each move the full 4-byte payload once.
            assert_eq!(b_sync, 8 * len as u64);
            assert_eq!(r_sync.staged, chunks);
            assert_eq!(r_sync.prefetches, 0);
            assert_eq!(r_db.staged, chunks);
            assert_eq!(r_db.prefetches, chunks - 1);
            assert_eq!(r_db.degraded_at, None);
        }
    }

    #[test]
    fn staged_empty_input_is_a_noop() {
        for mode in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
            let (d, r, n, b) = run_staged(mode, 0, 16);
            assert!(d.is_empty());
            assert_eq!(r, PipelineReport::default());
            assert_eq!((n, b), (0, 0));
        }
    }

    #[test]
    fn staged_overflow_is_reported_not_panicked() {
        let mut arena = LdmArena::with_capacity(64); // 16 f32
        let mut data = vec![0.0f32; 64];
        let stats = CopyStats::default();
        // 12 f32 fits once (sync ok) but not twice (double buffering fails).
        assert!(stage_chunks(
            DmaMode::Synchronous,
            &mut arena,
            12,
            &mut data,
            &stats,
            None,
            |_, _| {}
        )
        .is_ok());
        let err = stage_chunks(
            DmaMode::DoubleBuffered,
            &mut arena,
            12,
            &mut data,
            &stats,
            None,
            |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err.requested, 48);
    }

    #[test]
    fn transient_get_fault_retries_without_degrading() {
        use crate::fault::{FaultPlan, FaultSite};
        // rate = 1 would persist; use a pinned-free plan with a rate that
        // fires at least once over many keys but clears on retry sometimes.
        let plan = FaultPlan::new(42)
            .with_rate(FaultSite::Dma, 0.4)
            .with_max_retries(8);
        let mut data = vec![1.0f32; 256];
        let mut arena = LdmArena::with_capacity(4096);
        let stats = CopyStats::default();
        let report = stage_chunks(
            DmaMode::DoubleBuffered,
            &mut arena,
            16,
            &mut data,
            &stats,
            Some(&plan),
            |_, chunk| chunk.iter_mut().for_each(|v| *v += 1.0),
        )
        .unwrap();
        assert_eq!(
            report.degraded_at, None,
            "retry budget should absorb rate 0.4"
        );
        assert!(report.injected > 0, "a 0.4 rate over 16 gets should fire");
        assert_eq!(report.retries, report.injected);
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn persistent_get_fault_drains_in_flight_chunk_and_degrades() {
        use crate::fault::{FaultPlan, FaultSite};
        for mode in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
            // Key 3 = the get of chunk 3 in both modes (gets are key-ordered).
            let plan = FaultPlan::new(7).pin(FaultSite::Dma, 3);
            let len = 6 * 16;
            let mut data: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let mut expect = data.clone();
            serial_reference(16, &mut expect);
            let mut arena = LdmArena::with_capacity(4096);
            let stats = CopyStats::default();
            let report = stage_chunks(
                mode,
                &mut arena,
                16,
                &mut data,
                &stats,
                Some(&plan),
                |k, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = v.mul_add(1.5, (k * 1000 + i) as f32);
                    }
                },
            )
            .unwrap();
            // Results bitwise identical despite the degradation.
            assert_eq!(data, expect, "{mode:?}");
            assert_eq!(report.degraded_at, Some(3), "{mode:?}");
            // Chunks 0-2 staged; in double-buffered mode chunk 2 (in flight
            // when the prefetch of 3 failed) is drained, not dropped.
            assert_eq!(report.staged, 3, "{mode:?}");
            assert_eq!(report.injected, 1 + plan.max_retries() as u64);
            // Exactly the staged chunks moved through DMA: 3 gets + 3 puts.
            assert_eq!(stats.dma_transfers.load(Ordering::Relaxed), 6, "{mode:?}");
            assert_eq!(
                stats.dma_bytes.load(Ordering::Relaxed),
                2 * 3 * 16 * 4,
                "{mode:?}"
            );
            assert_eq!(arena.used(), 0);
        }
    }

    #[test]
    fn fault_on_first_get_runs_whole_loop_serially() {
        use crate::fault::{FaultPlan, FaultSite};
        for mode in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
            let plan = FaultPlan::new(1).pin(FaultSite::Dma, 0);
            let mut data = vec![1.0f32; 40];
            let mut arena = LdmArena::with_capacity(4096);
            let stats = CopyStats::default();
            let report = stage_chunks(
                mode,
                &mut arena,
                16,
                &mut data,
                &stats,
                Some(&plan),
                |_, c| c.iter_mut().for_each(|v| *v *= 2.0),
            )
            .unwrap();
            assert_eq!(report.degraded_at, Some(0), "{mode:?}");
            assert_eq!(report.staged, 0);
            assert_eq!(stats.dma_transfers.load(Ordering::Relaxed), 0);
            assert!(data.iter().all(|&v| v == 2.0));
        }
    }
}
