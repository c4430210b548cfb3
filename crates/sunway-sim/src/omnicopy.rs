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
//! transfer engages the DMA engine, and the modeled DMA time. One entry
//! point, as in the paper: a caller that wants a buffer in LDM takes it from
//! an [`LdmArena`] and copies with [`omnicopy`].

use crate::arch::SunwaySpec;
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
}
