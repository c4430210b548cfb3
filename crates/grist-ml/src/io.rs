//! Weight serialization for the ML physics models: a small self-describing
//! binary format (magic, architecture header, raw little-endian f32 tensors)
//! with exact round-trip — how a trained suite ships with the model, as the
//! paper's artifact distributes "the weight of AI-enhanced physics suite
//! along with its corresponding parameter files".

use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 8] = b"GRISTML1";

/// The longest tensor a weight file may hold.
const MAX_TENSOR_LEN: usize = 1 << 28;

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// `rows × cols` as a tensor length, or `InvalidData` if a header's sizes
/// imply a tensor longer than a weight file may hold — checked before a
/// tensor is read.
pub(crate) fn tensor_len(rows: usize, cols: usize) -> io::Result<usize> {
    rows.checked_mul(cols)
        .filter(|&n| n <= MAX_TENSOR_LEN)
        .ok_or_else(|| invalid(format!("header implies a {rows} × {cols} tensor")))
}

pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn write_f32_slice(w: &mut impl Write, v: &[f32]) -> io::Result<()> {
    write_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

pub(crate) fn write_norm_pairs(w: &mut impl Write, pairs: &[(f32, f32)]) -> io::Result<()> {
    let flat: Vec<f32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    write_f32_slice(w, &flat)
}

/// A tensor of exactly `want` values, the length the header implies. The
/// stored length is compared with `want` before anything is allocated, and
/// the values are read through a buffer that grows with the bytes actually
/// present, so a truncated file costs a small multiple of what it holds,
/// never what its header claims.
pub(crate) fn read_f32_exact(r: &mut impl Read, want: usize) -> io::Result<Vec<f32>> {
    let n = read_u64(r)?;
    if n != want as u64 {
        return Err(invalid(format!(
            "tensor of {n} values, header implies {want}"
        )));
    }
    let mut bytes = Vec::new();
    r.take(4 * n).read_to_end(&mut bytes)?;
    if bytes.len() != 4 * want {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Exactly `want` normaliser pairs: one per input channel or output of the
/// network the header describes.
pub(crate) fn read_norm_pairs(r: &mut impl Read, want: usize) -> io::Result<Vec<(f32, f32)>> {
    let flat = read_f32_exact(r, 2 * want)?;
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

pub(crate) fn check_magic(r: &mut impl Read, kind: u64) -> io::Result<()> {
    let mut m = [0u8; 8];
    r.read_exact(&mut m)?;
    if &m != MAGIC {
        return Err(invalid("bad magic".into()));
    }
    if read_u64(r)? != kind {
        return Err(invalid("wrong model kind".into()));
    }
    Ok(())
}

pub(crate) fn write_magic(w: &mut impl Write, kind: u64) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, kind)
}

/// Model-kind tags.
pub(crate) const KIND_CNN: u64 = 1;
pub(crate) const KIND_MLP: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_slice_roundtrip() {
        let v = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 1e30];
        let mut buf = Vec::new();
        write_f32_slice(&mut buf, &v).unwrap();
        let back = read_f32_exact(&mut buf.as_slice(), v.len()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn norm_pairs_roundtrip() {
        let p = vec![(1.0f32, 2.0f32), (-3.0, 0.5)];
        let mut buf = Vec::new();
        write_norm_pairs(&mut buf, &p).unwrap();
        assert_eq!(read_norm_pairs(&mut buf.as_slice(), 2).unwrap(), p);
        assert!(read_norm_pairs(&mut buf.as_slice(), 3).is_err());
    }

    #[test]
    fn magic_rejects_wrong_kind() {
        let mut buf = Vec::new();
        write_magic(&mut buf, KIND_CNN).unwrap();
        assert!(check_magic(&mut buf.as_slice(), KIND_MLP).is_err());
        let mut buf2 = Vec::new();
        write_magic(&mut buf2, KIND_MLP).unwrap();
        assert!(check_magic(&mut buf2.as_slice(), KIND_MLP).is_ok());
    }

    #[test]
    fn truncated_data_is_an_error_not_a_panic() {
        let v = vec![1.0f32; 16];
        let mut buf = Vec::new();
        write_f32_slice(&mut buf, &v).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_f32_exact(&mut buf.as_slice(), 16).is_err());
        // A length field of 2^28 values (1 GiB) over a few bytes: refused
        // when it disagrees with the header, cut short when it agrees.
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 28).unwrap();
        buf.extend([0u8; 12]);
        assert!(read_f32_exact(&mut buf.as_slice(), 16).is_err());
        let err = read_f32_exact(&mut buf.as_slice(), 1 << 28).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
