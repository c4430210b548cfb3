//! The pinned partition-quality benchmark behind `BENCH_partition.json`:
//! edge-cut, balance, and measured halo-surface profiles of the graph
//! partitioner over a part-count ladder on one mesh (ROADMAP item 1's
//! quality gate).
//!
//! Everything here is **deterministic** — the partitioner is seeded greedy
//! growth plus boundary refinement with no randomness — so every number is
//! a diagnostic of the exact pin (see [`crate::pin`]). There are no kernels,
//! counters or wall times.
//!
//! The `surface_coeff` projections are the measured replacement for the
//! analytic `halo_surface_fraction ≈ 3.5` guess in
//! `sunway_model::scaling::SdpdModelConfig`: [`crate::scaling`] feeds the
//! coefficient measured on its own partition into the model via
//! `with_measured_surface`, and this suite pins the coefficient across the
//! ladder so a partitioner change (ragged boundaries, split parts) shows up
//! as drift from the pin, not as silently different projections.

use grist_mesh::{HexMesh, Partition};
use sunway_sim::{Json, MetricsSnapshot};

use crate::pin::{SuiteResult, SuiteRun};

/// Pinned mesh refinement level (G5: 10,242 cells — big enough that the
/// 64-part surface law is in its asymptotic regime, small enough to
/// partition three times in well under a second).
pub const PART_LEVEL: u32 = 5;
/// Part-count ladder: a 4× step per rung, spanning the rank counts the
/// halo/scaling suites use.
pub const PART_LADDER: [usize; 3] = [4, 16, 64];
/// Boundary-refinement passes, matching the halo and scaling benches.
pub const PART_REFINE_PASSES: usize = 2;

/// Run the pinned ladder (nothing here can fail a gate but the pin).
pub fn run() -> SuiteResult {
    Ok(run_partition_with(PART_LEVEL, &PART_LADDER))
}

/// The ladder with explicit knobs (tests use a smaller mesh): per rung,
/// `partition.L<level>.p<parts>.{edge_cut, imbalance, max_part_degree,
/// mean_halo, max_ratio, surface_coeff}`.
pub fn run_partition_with(level: u32, ladder: &[usize]) -> SuiteRun {
    let mesh = HexMesh::build(level);
    let mut projections: Vec<(String, f64)> = Vec::new();
    for &n_parts in ladder {
        let partition = Partition::build(&mesh, n_parts, PART_REFINE_PASSES);
        let q = partition.quality(&mesh);
        let s = partition.surface_profile(&mesh);
        let pre = format!("partition.L{level}.p{n_parts}");
        projections.push((format!("{pre}.edge_cut"), q.edge_cut as f64));
        projections.push((format!("{pre}.imbalance"), q.imbalance));
        projections.push((format!("{pre}.max_part_degree"), q.max_part_degree as f64));
        projections.push((format!("{pre}.mean_halo"), s.mean_halo));
        projections.push((format!("{pre}.max_ratio"), s.max_ratio));
        projections.push((format!("{pre}.surface_coeff"), s.surface_coeff));
    }
    projections.sort_by(|a, b| a.0.cmp(&b.0));

    let config = Json::Obj(vec![
        ("mesh_level".into(), Json::Num(level as f64)),
        ("n_cells".into(), Json::Num(mesh.n_cells() as f64)),
        ("refine_passes".into(), Json::Num(PART_REFINE_PASSES as f64)),
        (
            "ladder".into(),
            Json::Arr(ladder.iter().map(|&p| Json::Num(p as f64)).collect()),
        ),
    ]);
    SuiteRun::new(
        "partition",
        config,
        projections,
        &MetricsSnapshot::default(),
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin::leaf;

    #[test]
    fn two_runs_of_the_ladder_pin_equal() {
        let a = run_partition_with(3, &[2, 4]);
        assert_eq!(a.pin.diagnostics.len(), 12);
        assert!(a.pin.counters.is_empty() && a.pin.hashes.is_empty());
        assert_eq!(a.pin, run_partition_with(3, &[2, 4]).pin);
    }

    #[test]
    fn edge_cut_grows_and_halo_shrinks_up_the_ladder() {
        let b = run_partition_with(4, &[4, 16]);
        let rung = |parts: usize, what: &str| {
            leaf(&b.pin.diagnostics, &format!("partition.L4.p{parts}.{what}"))
        };
        assert!(
            rung(16, "edge_cut") > rung(4, "edge_cut"),
            "more parts must cut more edges"
        );
        assert!(
            rung(16, "mean_halo") < rung(4, "mean_halo"),
            "per-part halo must shrink with part size"
        );
        for parts in [4, 16] {
            let (imbalance, coeff, ratio) = (
                rung(parts, "imbalance"),
                rung(parts, "surface_coeff"),
                rung(parts, "max_ratio"),
            );
            assert!((1.0..1.5).contains(&imbalance), "p{parts}: {imbalance}");
            assert!(coeff > 0.5 && coeff < 10.0, "p{parts}: {coeff}");
            assert!(ratio > 0.0 && ratio < 2.0, "p{parts}: {ratio}");
        }
    }

    #[test]
    fn a_partitioner_change_is_one_drift_line_naming_the_leaf() {
        let good = run_partition_with(3, &[4]);
        let mut moved = run_partition_with(3, &[4]);
        let cut = moved
            .pin
            .diagnostics
            .iter_mut()
            .find(|(k, _)| k.ends_with(".edge_cut"))
            .unwrap();
        cut.1 += 1.0;
        let committed = grist_core::pin_file_json(&good.config, Some(&good.pin));
        let drift = moved.drift_from(&committed).unwrap();
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(
            drift[0].starts_with("diagnostic partition.L3.p4.edge_cut: pinned "),
            "{}",
            drift[0]
        );
    }
}
