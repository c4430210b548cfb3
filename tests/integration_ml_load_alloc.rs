//! What a weight file that lies costs the heap: a loader reads the header,
//! the normalisers and every tensor before it builds a layer, and reads each
//! tensor through a buffer that grows with the bytes present. A header that
//! promises a wide network over no data, or any prefix of a real file, is an
//! `Err` after at most `C · input length + K` allocated bytes, whatever width
//! the header claims.
//!
//! One test only: the allocator's counters are process-global (see
//! `support/counting_alloc.rs`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;
use grist_ml::{RadiationMlp, TendencyCnn};

/// Bytes a failed load may allocate per input byte. A tensor's byte buffer
/// grows by doubling, and the counter adds every size it passes through:
/// under 4× what was read. The bytes then become an `f32` vector (1×) and,
/// for a conv, its K-major copy (1×). Every prefix of the two files below
/// stays under 6.3×.
const C: u64 = 8;
/// Fixed cost of a failed load: an error message, the collected layers'
/// vector. A header alone allocates nothing.
const K: u64 = 4096;

/// A weight file's magic, model kind and header `u64`s, then end of file.
fn header(kind: u64, fields: &[u64]) -> Vec<u8> {
    let mut b = b"GRISTML1".to_vec();
    for v in [kind].iter().chain(fields) {
        b.extend(v.to_le_bytes());
    }
    b
}

/// `load` on `bytes` is an `Err` within the allocation bound.
fn assert_bounded_err<T>(label: &str, bytes: &[u8], load: fn(&mut &[u8]) -> std::io::Result<T>) {
    let (res, _, allocated) = count(|| load(&mut &bytes[..]).is_err());
    assert!(res, "{label}: a {} B input loaded", bytes.len());
    let bound = C * bytes.len() as u64 + K;
    assert!(
        allocated <= bound,
        "{label}: a {} B input allocated {allocated} B, bound {bound} B",
        bytes.len()
    );
}

fn load_cnn(r: &mut &[u8]) -> std::io::Result<TendencyCnn> {
    TendencyCnn::load_from(r)
}

fn load_mlp(r: &mut &[u8]) -> std::io::Result<RadiationMlp> {
    RadiationMlp::load_from(r)
}

#[test]
fn a_lying_or_truncated_weight_file_allocates_in_proportion_to_its_bytes() {
    // The 32-byte CNN header: kind 1, 16 levels, `channels` up to 9 459,
    // the widest the header check admits (3 · c² ≤ 2^28).
    for channels in [64, 512, 9459] {
        let bytes = header(1, &[16, channels]);
        assert_eq!(bytes.len(), 32);
        assert_bounded_err(&format!("CNN header, {channels} ch"), &bytes, load_cnn);
    }
    // The MLP's header alone: kind 2, 64 inputs, 3 outputs, width 16 384
    // (width² = 2^28, the widest admitted).
    let bytes = header(2, &[64, 3, 16384]);
    assert_bounded_err("MLP header, width 16384", &bytes, load_mlp);

    // Every strict prefix of two real files.
    let (mut cnn, mut mlp) = (Vec::new(), Vec::new());
    TendencyCnn::new(8, 8, 3).save_to(&mut cnn).unwrap();
    RadiationMlp::with_outputs(18, 3, 16, 3)
        .save_to(&mut mlp)
        .unwrap();
    assert!(load_cnn(&mut &cnn[..]).is_ok() && load_mlp(&mut &mlp[..]).is_ok());
    for len in 0..cnn.len() {
        assert_bounded_err(&format!("CNN prefix {len}"), &cnn[..len], load_cnn);
    }
    for len in 0..mlp.len() {
        assert_bounded_err(&format!("MLP prefix {len}"), &mlp[..len], load_mlp);
    }
}
