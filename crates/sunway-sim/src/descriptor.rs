//! Dispatch descriptors: the size-free cost a dycore kernel declares beside
//! its dispatch. The dycore names each `Substrate` dispatch after one; the
//! modeled SW26010P (`sunway-model`) prices them for Fig. 9 and the SDPD
//! projection. Nothing here models a machine.

/// The mesh elements a kernel iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterSpace {
    Cells,
    Edges,
    Vertices,
}

/// Size-free cost descriptor of one dycore kernel, per point: one level of
/// one element of its iteration space. The dycore declares one beside each
/// dispatch it models (`grist_dycore::hevi::DYN_KERNELS`,
/// `grist_dycore::tracer::FCT_KERNELS`), counted from the kernel's
/// per-level code by the rules of DESIGN.md §5 "Cost descriptors"; the
/// model scales it by its domain's point count (elements × levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// The name the kernel is dispatched under.
    pub name: &'static str,
    pub space: IterSpace,
    /// Cheap ops (add, multiply, compare, min / max; a fused multiply-add
    /// counts two) per point.
    pub flops_per_point: f64,
    /// Expensive ops (divide, `ln`, `exp`) per point.
    pub expensive_per_point: f64,
    /// Distinct level-indexed columns read or written per point; each
    /// neighbour's column is a stream of its own.
    pub arrays: usize,
    /// Whether the kernel runs in the working precision (f32 under Mixed);
    /// `false` for a kernel that stays f64 in every scheme.
    pub mixed: bool,
}
