//! Checkpoint/restart for the coupled model.
//!
//! The recovery ladder's last rung (a halo exchange that failed even after
//! retries, or a prognostic field that blew up under reduced precision)
//! rolls the model back to its last known-good state. That only works if
//! the checkpoint is *bitwise* faithful: a restored-then-stepped run must be
//! indistinguishable from an uninterrupted one, or "recovery" silently forks
//! the trajectory.
//!
//! A [`Checkpoint`] is a small typed header plus one immutable byte image
//! holding every field as raw little-endian IEEE-754 bit patterns, each at
//! the width the model stores it (`u` and the tracers of an `R = f32` model
//! take 4 bytes a value, everything else 8). That carries every value — NaN
//! payloads mid-blowup included — with one sized allocation and one pass
//! over the state; cloning shares the image, which is what `grist-serve`
//! publishes. Capture does no hashing: the serialized form
//! ([`Checkpoint::to_bytes`]) puts the header in front as one text line and
//! an FNV-1a of header and image behind, which [`Checkpoint::from_bytes`]
//! verifies. DESIGN.md §8 has the byte layout.
//!
//! A capture between two tracer steps also carries the dry-mass flux the
//! solver has accumulated for the next one (`NhSolver::flux_sum`) and says so
//! in its header (`trac_steps=K`); a capture on the tracer cadence — every
//! one the default `RecoveryPolicy` takes — has neither.
//!
//! Every capture ticks `checkpoint.captures` and adds the serialized size to
//! `checkpoint.bytes` in the model's metrics registry.

use crate::model::GristModel;
use grist_dycore::Real;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Schema tag opening the header line of a serialized checkpoint.
const SCHEMA: &str = "grist-ckpt-v3";
/// Longest header line [`Checkpoint::from_bytes`] looks for.
const MAX_HEADER: usize = 256;
/// Width of the trailing FNV-1a checksum.
const TRAILER: usize = 8;

/// A malformed or mismatched checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    pub what: String,
}

impl CheckpointError {
    fn new(what: impl Into<String>) -> Self {
        CheckpointError { what: what.into() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.what)
    }
}

impl std::error::Error for CheckpointError {}

/// What an image holds; its `Display` is the serialized header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    /// [`Real::NAME`] of the capturing model.
    precision: &'static str,
    /// `nlev`, `ncells`, `nedges`, `ntracers`.
    shape: [usize; 4],
    dyn_steps: usize,
    /// Dynamics steps of the tracer cycle in progress at capture; when not
    /// 0, the image carries their summed mass flux.
    trac_steps: usize,
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [nlev, ncells, nedges, ntracers] = self.shape;
        write!(
            f,
            "{SCHEMA} {} nlev={nlev} ncells={ncells} nedges={nedges} ntracers={ntracers} \
             dyn_steps={}",
            self.precision, self.dyn_steps
        )?;
        match self.trac_steps {
            0 => Ok(()),
            k => write!(f, " trac_steps={k}"),
        }
    }
}

impl Header {
    /// Image bytes this shape and precision imply, in image order; `None`
    /// when that does not fit this machine's `usize`.
    fn image_len(&self) -> Option<usize> {
        let [nlev, ncells, nedges, ntracers] = self.shape.map(|n| n as u128);
        let width = if self.precision == f32::NAME { 4 } else { 8 };
        let layers = nlev * ncells;
        // time_s, declination; dpi, theta_m on layers; w, phi on interfaces;
        // tskin, coszr, albedo, precip_accum per cell; mid-cycle, the mass
        // flux summed on edges.
        let flux_sum = if self.trac_steps > 0 {
            nlev * nedges
        } else {
            0
        };
        let wide = 2 + 2 * layers + 2 * (nlev + 1) * ncells + 4 * ncells + flux_sum;
        // u on edges and the tracers, at the model's width.
        let native = nlev * nedges + ntracers * layers;
        // ... and the ocean mask, one byte a cell.
        usize::try_from(8 * wide + width * native + ncells).ok()
    }

    /// Parse a header line (without its newline).
    fn parse(line: &str) -> Result<Self, CheckpointError> {
        let mut tokens = line.split(' ');
        let tag = tokens.next().unwrap_or("");
        if tag != SCHEMA {
            return Err(CheckpointError::new(format!(
                "schema tag {tag:?}, expected {SCHEMA:?}"
            )));
        }
        let precision = match tokens.next() {
            Some("f32") => f32::NAME,
            Some("f64") => f64::NAME,
            other => {
                return Err(CheckpointError::new(format!(
                    "precision tag {other:?}, expected \"f32\" or \"f64\""
                )))
            }
        };
        // Extents below 2³² keep `image_len` inside `u128`.
        let field = |token: Option<&str>, key: &str, max: usize| {
            token
                .and_then(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
                .filter(|&n: &usize| n <= max)
                .ok_or_else(|| CheckpointError::new(format!("header field {key} missing or bad")))
        };
        let mut number = |key: &str, max: usize| field(tokens.next(), key, max);
        let extent = u32::MAX as usize;
        let mut header = Header {
            precision,
            shape: [
                number("nlev", extent)?,
                number("ncells", extent)?,
                number("nedges", extent)?,
                number("ntracers", extent)?,
            ],
            dyn_steps: number("dyn_steps", usize::MAX)?,
            trac_steps: 0,
        };
        // Written only by a mid-cycle capture, so never 0.
        let unexpected = |t: &str| CheckpointError::new(format!("unexpected header token {t:?}"));
        if let Some(token) = tokens.next() {
            header.trac_steps = field(Some(token), "trac_steps", usize::MAX)
                .ok()
                .filter(|&k| k > 0)
                .ok_or_else(|| unexpected(token))?;
        }
        match tokens.next() {
            None => Ok(header),
            Some(extra) => Err(unexpected(extra)),
        }
    }
}

/// A captured model state: prognostics, surface, clocks — everything
/// [`GristModel::restore`] needs to resume bit-for-bit. Immutable once
/// built; `clone` shares the image.
#[derive(Clone, PartialEq)]
pub struct Checkpoint {
    header: Header,
    image: Arc<[u8]>,
    /// Serialized size: header line, image, trailer.
    bytes: usize,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Checkpoint({}, {} B)", self.header, self.bytes)
    }
}

impl Checkpoint {
    /// The serialized form (what would be written to disk): the header
    /// line, the image, and an FNV-1a of both as a little-endian `u64`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes);
        out.extend_from_slice(format!("{}\n", self.header).as_bytes());
        out.extend_from_slice(&self.image);
        out.extend_from_slice(&fnv1a(&out).to_le_bytes());
        out
    }

    /// Parse a serialized checkpoint: schema tag, header fields, the exact
    /// length the header implies, then the checksum — in that order, so a
    /// foreign document is named as one and a truncated image is rejected
    /// without being hashed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let head = &bytes[..bytes.len().min(MAX_HEADER)];
        let eol = head.iter().position(|&b| b == b'\n');
        let line = &head[..eol.unwrap_or(head.len())];
        let header = Header::parse(&String::from_utf8_lossy(line))?;
        let image_at = line.len() + 1;
        let trailer_at = eol
            .and(header.image_len())
            .and_then(|len| image_at.checked_add(len))
            .filter(|at| at.checked_add(TRAILER) == Some(bytes.len()))
            .ok_or_else(|| {
                CheckpointError::new(format!(
                    "{} bytes is not the length of an image with header ({header})",
                    bytes.len()
                ))
            })?;
        let (body, trailer) = bytes.split_at(trailer_at);
        let stored = u64::from_le_bytes(trailer.try_into().expect("length checked above"));
        let hashed = fnv1a(body);
        if hashed != stored {
            return Err(CheckpointError::new(format!(
                "checksum mismatch: image hashes to {hashed:016x}, trailer says {stored:016x}"
            )));
        }
        Ok(Checkpoint {
            header,
            image: Arc::from(&body[image_at..]),
            bytes: bytes.len(),
        })
    }

    /// Serialized size in bytes (what `checkpoint.bytes` meters).
    pub fn byte_len(&self) -> usize {
        self.bytes
    }
}

/// Write `values` at their own width to the front of `image` and step past.
fn put<T: Real>(image: &mut &mut [u8], values: &[T]) {
    let head = image
        .split_off_mut(..values.len() * T::BYTES)
        .expect("image sized by image_len");
    for (dst, v) in head.chunks_exact_mut(T::BYTES).zip(values) {
        v.write_le(dst);
    }
}

/// Inverse of [`put`].
fn get<T: Real>(image: &mut &[u8], values: &mut [T]) {
    let head = image
        .split_off(..values.len() * T::BYTES)
        .expect("image length checked against image_len");
    for (v, src) in values.iter_mut().zip(head.chunks_exact(T::BYTES)) {
        *v = T::read_le(src);
    }
}

impl<R: Real> GristModel<R> {
    fn checkpoint_header(&self) -> Header {
        Header {
            precision: R::NAME,
            shape: [
                self.config.nlev,
                self.state.dpi.ncols(),
                self.state.u.ncols(),
                self.state.tracers.len(),
            ],
            dyn_steps: self.dyn_steps_taken,
            trac_steps: self.solver.flux_steps,
        }
    }

    /// Capture a restartable snapshot of the prognostic + tracer state, the
    /// surface, and the model clocks. Ticks `checkpoint.captures` and
    /// `checkpoint.bytes` on the shared metrics registry.
    pub fn checkpoint(&self) -> Checkpoint {
        let header = self.checkpoint_header();
        let len = header.image_len().expect("the state itself fits in memory");
        let mut image: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let w = &mut Arc::get_mut(&mut image).expect("not shared yet");
        put(w, &[self.time_s, self.declination]);
        put(w, self.state.dpi.as_slice());
        put(w, self.state.theta_m.as_slice());
        put(w, self.state.w.as_slice());
        put(w, self.state.phi.as_slice());
        put(w, self.state.u.as_slice());
        for t in &self.state.tracers {
            put(w, t.as_slice());
        }
        put(w, &self.surface.tskin);
        put(w, &self.surface.coszr);
        put(w, &self.surface.albedo);
        put(w, &self.precip_accum);
        if header.trac_steps > 0 {
            put(w, self.solver.flux_sum.as_slice());
        }
        assert_eq!(w.len(), self.surface.ocean.len(), "image layout drifted");
        for (dst, &ocean) in w.iter_mut().zip(&self.surface.ocean) {
            *dst = ocean as u8;
        }
        // Sized up front so the count of allocations per capture is fixed.
        let mut line = String::with_capacity(MAX_HEADER);
        writeln!(line, "{header}").expect("writing to a String cannot fail");
        let bytes = line.len() + len + TRAILER;
        let m = self.metrics();
        m.counter_add("checkpoint.captures", 1);
        m.counter_add("checkpoint.bytes", bytes as u64);
        Checkpoint {
            header,
            image,
            bytes,
        }
    }

    /// Roll the model back to `ck`. Precision, shape, tracer cadence and
    /// image length are checked against this model before the first write,
    /// so a rejected checkpoint leaves it untouched; then prognostics,
    /// tracers, surface and clocks are copied straight out of the image
    /// (diagnostic caches like `last_diag` are rebuilt by the next physics
    /// step), and the tracer cycle in progress becomes the captured one —
    /// none, unless the image holds a partial flux sum. Ticks
    /// `recovery.restores` on success.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let own = Header {
            trac_steps: ck.header.trac_steps,
            ..self.checkpoint_header()
        };
        // Equal shapes do not make equal images: an f32 model's `u` and
        // tracers are half as wide as an f64 model's.
        if ck.header.precision != own.precision {
            return Err(CheckpointError::new(format!(
                "precision mismatch: checkpoint captured from an {} model cannot restore into \
                 an {} model",
                ck.header.precision, own.precision
            )));
        }
        if ck.header.shape != own.shape || Some(ck.image.len()) != own.image_len() {
            return Err(CheckpointError::new(format!(
                "shape mismatch: checkpoint ({}, {} B image) vs model ({own})",
                ck.header,
                ck.image.len()
            )));
        }
        if ck.header.trac_steps >= self.solver.config.dyn_per_trac.max(1) {
            return Err(CheckpointError::new(format!(
                "tracer cadence mismatch: checkpoint is {} steps into a tracer cycle, this \
                 model's cycle is {} steps",
                ck.header.trac_steps, self.solver.config.dyn_per_trac
            )));
        }
        let r = &mut &ck.image[..];
        let mut clocks = [0.0f64; 2];
        get(r, &mut clocks);
        [self.time_s, self.declination] = clocks;
        get(r, self.state.dpi.as_mut_slice());
        get(r, self.state.theta_m.as_mut_slice());
        get(r, self.state.w.as_mut_slice());
        get(r, self.state.phi.as_mut_slice());
        get(r, self.state.u.as_mut_slice());
        for t in &mut self.state.tracers {
            get(r, t.as_mut_slice());
        }
        get(r, &mut self.surface.tskin);
        get(r, &mut self.surface.coszr);
        get(r, &mut self.surface.albedo);
        get(r, &mut self.precip_accum);
        if ck.header.trac_steps > 0 {
            get(r, self.solver.flux_sum.as_mut_slice());
        }
        self.solver.flux_steps = ck.header.trac_steps;
        for (ocean, &src) in self.surface.ocean.iter_mut().zip(r.iter()) {
            *ocean = src != 0;
        }
        self.dyn_steps_taken = ck.header.dyn_steps;
        self.metrics().counter_add("recovery.restores", 1);
        Ok(())
    }

    /// FNV-1a hash over the bit patterns of every prognostic field, the
    /// surface skin temperature, and the model clock — plus, between two
    /// tracer steps, the accumulated mass flux and its step count — a cheap
    /// fingerprint for "two runs converged to the identical state".
    /// Working-precision fields hash as their `f64` widening, whatever width
    /// an image stores.
    pub fn state_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for f in [
            &self.state.dpi,
            &self.state.theta_m,
            &self.state.w,
            &self.state.phi,
        ] {
            h.values(f.as_slice());
        }
        h.values(self.state.u.as_slice());
        for t in &self.state.tracers {
            h.values(t.as_slice());
        }
        h.values(&self.surface.tskin);
        h.values(&self.precip_accum);
        h.values(&[self.time_s, self.declination]);
        if self.solver.flux_steps > 0 {
            h.values(self.solver.flux_sum.as_slice());
            h.bytes(&(self.solver.flux_steps as u64).to_le_bytes());
        }
        h.0
    }
}

/// FNV-1a fingerprint over the IEEE-754 bit patterns of `chunks`, in order —
/// the same hash family as [`GristModel::state_hash`], exposed so scenario
/// pins can fingerprint arbitrary field collections (SWE states, initial
/// conditions) with one shared definition.
pub fn hash_f64_bits(chunks: &[&[f64]]) -> u64 {
    let mut h = Fnv::new();
    for c in chunks {
        h.values(c);
    }
    h.0
}

/// FNV-1a fingerprint of a `u32` sequence (little-endian bytes) — used to
/// pin partition assignments in scenario goldens.
pub fn hash_u32_seq(values: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.bytes(&v.to_le_bytes());
    }
    h.0
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Minimal FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The `f64` bit patterns of `values`, widened in place.
    fn values<T: Real>(&mut self, values: &[T]) {
        for v in values {
            self.bytes(&v.to_f64().to_bits().to_le_bytes());
        }
    }
}
