//! What a checkpoint costs the heap: one capture is one image-sized
//! allocation plus a few header-sized ones, whatever the mesh; restoring
//! copies out of the image into the model's own fields and sharing a
//! checkpoint bumps a reference count, so neither allocates at all.
//!
//! One test only: the allocator's counters are process-global (see
//! `support/counting_alloc.rs`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;
use grist_core::{GristModel, RunConfig};

/// Allocation count of one warm `checkpoint()` at `level`, after checking
/// its bytes and the cost of `restore()` and `clone()`.
fn capture_allocs(level: u32) -> u64 {
    let mut m = GristModel::<f64>::new(RunConfig::for_level(level, 10));
    m.advance(m.config.dt_phy);
    // First use creates the `checkpoint.*` / `recovery.*` counter keys.
    let warm = m.checkpoint();
    m.restore(&warm).expect("own checkpoint restores");
    let hash = m.state_hash();

    let (ck, allocs, bytes) = count(|| m.checkpoint());
    assert!(
        bytes as f64 <= 1.05 * ck.byte_len() as f64,
        "level {level}: capture allocated {bytes} B for a {} B image",
        ck.byte_len()
    );

    m.advance(m.config.dt_dyn);
    let (restored, _, bytes) = count(|| m.restore(&ck));
    restored.expect("own checkpoint restores");
    assert_eq!(bytes, 0, "level {level}: restore allocated");
    assert_eq!(m.state_hash(), hash);

    let (shared, _, bytes) = count(|| ck.clone());
    assert_eq!(bytes, 0, "level {level}: clone allocated");
    assert_eq!(shared.byte_len(), ck.byte_len());
    allocs
}

#[test]
fn capture_is_one_image_restore_and_clone_are_free() {
    let (small, large) = (capture_allocs(2), capture_allocs(3));
    assert_eq!(
        small, large,
        "allocations per capture grew with the mesh (level 2: {small}, level 3: {large})"
    );
    assert!(small <= 4, "{small} allocations in one capture");
}
